"""Automorphism groups, inner automorphisms and normalizer checks."""

import tracemalloc

import numpy as np
import pytest

import tensorforge as tf
from tensorforge import automorphisms, groups
from tensorforge.automorphisms import (automorphism_group,
                                       normalizer_contains_inn)
from tensorforge.catalog import catalog_groups_up_to
from tensorforge.errors import CrossCheckFailed, LimitExceeded
from tensorforge.groups import (FiniteGroup, center, conjugation_maps,
                                generating_set, make_cyclic)
from tensorforge.homs import all_bijective_endomaps
from test_groups import reference_conj


def compose_maps(first, then):
    """Product under the apply-left-factor-first convention of the
    ``automorphisms`` module docstring: (f*g)(x) = g(f(x)), or g[f] as
    index arrays.  The reference for every composition the tests check."""
    return np.asarray(then)[np.asarray(first)]


def reference_aut_tables(G):
    """The composition table, inner_of and index of Aut(G), built map by
    map with tuple lookups, as ``automorphism_group`` once did."""
    maps = all_bijective_endomaps(G)
    n = len(maps)
    index = {tuple(int(v) for v in m): i for i, m in enumerate(maps)}
    table = np.empty((n, n), dtype=np.intp)
    for i, mi in enumerate(maps):
        for j, mj in enumerate(maps):
            table[i, j] = index[tuple(int(v) for v in compose_maps(mi, mj))]
    inner_of = np.array(
        [index[tuple(int(v) for v in G.table[G.table[G.inv(g), :], g])]
         for g in range(G.order)], dtype=np.intp)
    return table, inner_of, index


def test_compose_maps_applies_left_factor_first():
    f = np.array([1, 2, 0])     # x -> x+1 on Z3
    g = np.array([0, 2, 1])     # swap 1, 2
    # (f*g)(0) = g(f(0)) = g(1) = 2
    assert compose_maps(f, g).tolist() == [2, 1, 0]


@pytest.mark.parametrize("key,aut_order", [
    ("cyclic:1", 1),
    ("cyclic:2", 1),
    ("cyclic:3", 2),
    ("cyclic:8", 4),            # phi(8)
    ("cyclic:12", 4),
    ("elemab:2:2", 6),          # GL(2, 2)
    ("elemab:3:2", 48),         # GL(2, 3)
    ("symmetric:3", 6),
    ("dihedral:4", 8),
    ("quaternion:8", 24),
])
def test_aut_orders(key, aut_order):
    assert automorphism_group(tf.make_catalog_group(key)).order == aut_order


def test_aut_heisenberg_3():
    # frozen from our own enumeration, cross-checked against the extension
    # |Aut| = |GL(2,3)| * p^2 = 48 * 9 for the extraspecial group of
    # exponent p
    aut = automorphism_group(tf.make_catalog_group("heisenberg:3"))
    assert aut.order == 432


def test_aut_is_a_group_of_automorphisms():
    G = tf.make_catalog_group("dihedral:4")
    aut = automorphism_group(G)
    for i in range(aut.order):
        m = aut.elements[i]
        assert m[G.identity] == G.identity
        assert np.array_equal(m[G.table], G.table[np.ix_(m, m)])
    # closure at the table level
    for i in range(aut.order):
        for j in range(aut.order):
            k = aut.group.mul(i, j)
            assert np.array_equal(compose_maps(aut.elements[i],
                                               aut.elements[j]),
                                  aut.elements[k])


def test_elements_in_lexicographic_order():
    aut = automorphism_group(tf.make_catalog_group("elemab:2:2"))
    maps = aut.elements.tolist()
    assert maps == sorted(maps)


def test_inner_count_is_order_over_center():
    for key in ["cyclic:6", "symmetric:3", "dihedral:4", "quaternion:8",
                "heisenberg:3", "symmetric:4"]:
        G = tf.make_catalog_group(key)
        aut = automorphism_group(G)
        assert len(set(aut.inner_of)) == G.order // center(G).order


def test_inner_automorphism_values():
    S3 = tf.make_catalog_group("symmetric:3")
    for g in range(S3.order):
        m = conjugation_maps(S3)[g]
        for x in range(S3.order):
            assert m[x] == reference_conj(S3, x, g)


@pytest.mark.parametrize("key", ["symmetric:3", "dihedral:4", "quaternion:8",
                                 "symmetric:4", "heisenberg:3"])
def test_conjugates_in_aut_match_the_inner_maps(key):
    # ghat^-1 a ghat, read through conjugates inside Aut(G), applied as a
    # map: x -> C[g](a(C[g^-1](x))) under left-factor-first composition,
    # with C the inner maps of G itself
    G = tf.make_catalog_group(key)
    aut = automorphism_group(G)
    C = conjugation_maps(G)
    conj = groups.conjugates(aut.group, aut.inner_of)
    for g in range(G.order):
        want = C[g][aut.elements[:, C[G.inverse[g]]]]
        assert np.array_equal(aut.elements[conj[g]], want), (key, g)


def test_inn_is_normal_in_aut():
    for key in ["symmetric:3", "dihedral:4", "quaternion:8"]:
        G = tf.make_catalog_group(key)
        aut = automorphism_group(G)
        assert normalizer_contains_inn(aut, [aut.inner_of]).tolist() \
            == [True]


def test_normalizer_negative_case():
    # <conjugation by a transposition> is not normalized by Inn(S3)
    S3 = tf.make_catalog_group("symmetric:3")
    aut = automorphism_group(S3)
    transposition = next(g for g in range(6) if S3.element_order(g) == 2)
    member = int(aut.inner_of[transposition])
    image = [aut.group.identity, member]
    assert normalizer_contains_inn(aut, [image]).tolist() == [False]
    # some conjugate of the member by an inner automorphism leaves it
    t, inv = aut.group.table, aut.group.inverse
    assert any(t[t[inv[ghat], member], ghat] not in image
               for ghat in aut.inner_of)


# Aut(elemab:2:4) and Aut(elemab:3:3) have 20160 and 11232 elements: their
# composition tables would need gigabytes in either construction.
HUGE_AUT = {"elemab:2:4", "elemab:3:3"}


@pytest.mark.parametrize("key", [k for k, _ in catalog_groups_up_to(27)
                                 if k not in HUGE_AUT])
def test_aut_tables_match_reference(key):
    # covers heisenberg:3 (|Aut| = 432) and every other catalog group up
    # to order 27
    G = tf.make_catalog_group(key)
    table, inner_of, index = reference_aut_tables(G)
    aut = automorphism_group(G)
    assert aut.group.table.dtype == table.dtype
    assert aut.group.table.tobytes() == table.tobytes()
    assert aut.inner_of.dtype == inner_of.dtype
    assert aut.inner_of.tobytes() == inner_of.tobytes()
    for m, i in index.items():
        assert aut.elements[i].tolist() == list(m)


@pytest.mark.parametrize("key", [k for k, _ in catalog_groups_up_to(27)
                                 if k not in HUGE_AUT])
def test_aut_table_composes_by_definition(key):
    # every element is an automorphism, and the table composes by the
    # definition: (f_i * f_j)(x) = f_j(f_i(x))
    G = tf.make_catalog_group(key)
    aut = automorphism_group(G)
    m = aut.elements
    assert np.array_equal(m[:, G.table],
                          G.table[m[:, :, None], m[:, None, :]])
    for i in range(aut.order):
        assert np.array_equal(m[aut.group.table[i]], m[:, m[i]])
    # the generators the table was built from are those generating_set
    # finds afresh on the same table
    fresh = FiniteGroup(aut.group.table, validate=False)
    assert np.array_equal(generating_set(aut.group), generating_set(fresh))
    assert aut.group.identity == 0


def test_aut_looks_up_only_products_with_generators(monkeypatch):
    # one |Aut|-key lookup per generator of Aut(G) and |G| for inner_of:
    # 432 * 6 + 27 on heisenberg:3, 168 * 5 + 8 on elemab:2:3
    queries = []
    lookup = automorphisms.enumerated_index

    def counted(keys, wanted, what):
        queries.append(np.size(wanted))
        return lookup(keys, wanted, what)
    monkeypatch.setattr(automorphisms, "enumerated_index", counted)
    for key, want in [("heisenberg:3", 2592 + 27), ("elemab:2:3", 840 + 8)]:
        queries.clear()
        aut = automorphism_group(tf.make_catalog_group(key))
        assert sum(queries) == want
        assert len(queries) == len(generating_set(aut.group)) + 1


@pytest.mark.parametrize("key,drop", [("symmetric:3", d) for d in range(1, 6)]
                         + [("heisenberg:3", d) for d in (1, 216, 431)])
def test_aut_refuses_maps_not_closed_under_products(monkeypatch, key, drop):
    # without one non-identity automorphism the maps are no group, which
    # a product with a generator of the rest finds
    G = tf.make_catalog_group(key)
    maps = all_bijective_endomaps(G)
    monkeypatch.setattr(automorphisms, "all_bijective_endomaps",
                        lambda G: np.delete(maps, drop, axis=0))
    with pytest.raises(CrossCheckFailed, match="not among the enumerated"):
        automorphism_group(G)
    assert G._aut is None


@pytest.mark.parametrize("block", [groups.BLOCK_ENTRIES, 5])
def test_aut_table_in_blocks_matches_reference(monkeypatch, block):
    G = tf.make_catalog_group("dihedral:4")
    table, _, _ = reference_aut_tables(G)
    monkeypatch.setattr(groups, "BLOCK_ENTRIES", block)
    assert np.array_equal(automorphism_group(G).group.table, table)


def test_aut_table_peak_memory():
    # Aut(G) is kept as its generators' columns, and its 432 x 432 table,
    # 1.4 MiB, is gathered only when read, in blocks; building the table
    # with the group peaked at 1.88 MiB
    G = FiniteGroup(tf.make_catalog_group("heisenberg:3").table,
                    validate=False)
    tracemalloc.start()
    try:
        aut = automorphism_group(G)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        table = aut.group.table
        table_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert table_peak <= 2.5 * 2 ** 20
    assert np.array_equal(table, reference_aut_tables(G)[0])


@pytest.mark.parametrize("key", sorted(HUGE_AUT))
def test_aut_over_the_cap_is_refused_before_its_table(key):
    G = tf.make_catalog_group(key)
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded, match="exceeds the 4096-element"):
            automorphism_group(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20 and G._aut is None


def test_aut_of_heisenberg_5_is_refused_after_its_search():
    # |Aut(heisenberg:5)| = 12000: the complete search runs over two
    # generators, 15,500 nodes, and the cap refuses the maps it finds
    G = tf.make_catalog_group("heisenberg:5")
    with pytest.raises(LimitExceeded, match="= 12000 exceeds the 4096"):
        automorphism_group(G)
    assert G._aut is None


def test_aut_refuses_image_keys_wider_than_64_bits(monkeypatch):
    # 27 generator images of an order-27 group need 27^27 > 2^63 keys
    monkeypatch.setattr(automorphisms, "generating_set",
                        lambda G: list(range(G.order)))
    with pytest.raises(LimitExceeded, match="64-bit"):
        automorphism_group(make_cyclic(27))
