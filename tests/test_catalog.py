"""Catalog constructions and the key parser."""

import functools
import time

import numpy as np
import pytest

import tensorforge as tf
from tensorforge import catalog
from tensorforge.errors import LimitExceeded, UnknownCatalogKey
from tensorforge.groups import (center, derived_subgroup, from_cayley_table,
                               nilpotency_class)


@pytest.mark.parametrize("key,order,abelian", [
    ("cyclic:1", 1, True),
    ("cyclic:12", 12, True),
    ("dihedral:4", 8, False),
    ("dihedral:6", 12, False),
    ("quaternion:8", 8, False),
    ("symmetric:3", 6, False),
    ("symmetric:4", 24, False),
    ("heisenberg:2", 8, False),
    ("heisenberg:3", 27, False),
    ("heisenberg:5", 125, False),
    ("elemab:2:3", 8, True),
    ("elemab:3:2", 9, True),
    ("product:cyclic:2,cyclic:4", 8, True),
    ("product:symmetric:3,cyclic:2", 12, False),
])
def test_orders_and_abelianness(key, order, abelian):
    G = tf.make_catalog_group(key)
    assert G.order == order
    assert G.is_abelian == abelian


def test_dihedral_structure():
    D = tf.make_catalog_group("dihedral:5")
    orders = sorted(D.element_orders())
    assert orders.count(2) == 5               # five reflections
    assert orders.count(5) == 4
    assert center(D).order == 1


def reference_dihedral_table(n):
    """The dihedral table element by element, as make_dihedral built it
    before its array arithmetic."""
    def mul(a, b):
        i, u = divmod(a, 2)
        j, v = divmod(b, 2)
        # r^i s^u * r^j s^v ; s r^j = r^-j s
        if u == 0:
            return 2 * ((i + j) % n) + v
        return 2 * ((i - j) % n) + ((u + v) % 2)

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


@pytest.mark.parametrize("n", range(2, 17))
def test_dihedral_table_matches_reference(n):
    D = catalog.make_dihedral(n)
    assert D.table.tolist() == reference_dihedral_table(n)
    assert D.names[2 * n - 2:] == [f"r^{n - 1}", f"r^{n - 1}s"]
    assert len(D.names) == 2 * n


def test_catalog_groups_pass_full_validation():
    # the constructors trust their own tables; every catalog group up to
    # order 64 passes all four group axioms when its table is validated
    keys = {key for key, _ in catalog.catalog_groups_up_to(64)}
    keys |= {key for key in catalog.catalog_keys()
             if catalog._capped_order(key) <= 64}
    keys |= {"dihedral:2", "dihedral:3", "heisenberg:2",
             "product:symmetric:3,cyclic:2"}
    assert len(keys) > 60
    for key in sorted(keys):
        G = tf.make_catalog_group(key)
        checked = from_cayley_table(G.table, names=G.names)
        assert np.array_equal(checked.table, G.table), key
        assert checked.identity == G.identity, key


def test_make_dihedral_512_is_fast():
    # the constructor trusts its table: the cubic validation of this
    # order-1024 table alone takes seconds
    start = time.perf_counter()
    D = catalog.make_dihedral(512)
    assert time.perf_counter() - start < 1.0
    assert D.order == 1024 and D.mul(1, 1) == 0


def test_quaternion_has_unique_involution():
    Q8 = tf.make_catalog_group("quaternion:8")
    assert sorted(Q8.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert derived_subgroup(Q8).order == 2


def test_symmetric_group_s4():
    S4 = tf.make_catalog_group("symmetric:4")
    hist = S4.order_histogram()
    assert hist == {1: 1, 2: 9, 3: 8, 4: 6}
    assert derived_subgroup(S4).order == 12   # A4


def test_heisenberg_is_extraspecial():
    for p in (2, 3, 5):
        G = tf.make_catalog_group(f"heisenberg:{p}")
        assert G.order == p ** 3
        assert center(G).order == p
        assert derived_subgroup(G).members == center(G).members
        assert nilpotency_class(G) == 2


def test_heisenberg_2_is_dihedral():
    # the p=2 construction degenerates to D4 (exponent 4, five involutions)
    H2 = tf.make_catalog_group("heisenberg:2")
    D4 = tf.make_catalog_group("dihedral:4")
    assert tf.are_isomorphic(H2, D4) is not None


def test_heisenberg_3_has_exponent_3():
    G = tf.make_catalog_group("heisenberg:3")
    assert set(G.element_orders()) == {1, 3}


def test_elementary_abelian():
    G = tf.make_catalog_group("elemab:5:2")
    assert G.order == 25
    assert all(o in (1, 5) for o in G.element_orders())


@pytest.mark.parametrize("key", [
    "bogus:9", "cyclic", "cyclic:", "cyclic:0", "cyclic:-3",
    "dihedral:1", "symmetric:5", "quaternion:16", "heisenberg:4",
    "elemab:4:2", "elemab:2", "product:cyclic:2", "", "cyclic:two",
])
def test_bad_keys_rejected(key):
    with pytest.raises(UnknownCatalogKey):
        tf.make_catalog_group(key)


def test_catalog_keys_listing():
    keys = tf.catalog_keys()
    assert "cyclic:3" in keys and "heisenberg:3" in keys


def test_catalog_up_to_is_isomorphism_deduplicated():
    groups = tf.catalog_groups_up_to(8)
    assert all(G.order <= 8 for _, G in groups)
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            if groups[i][1].order == groups[j][1].order:
                assert tf.are_isomorphic(groups[i][1], groups[j][1]) is None, \
                    (groups[i][0], groups[j][0])


def test_catalog_up_to_sorted_by_order_then_key():
    groups = tf.catalog_groups_up_to(16)
    marks = [(G.order, key) for key, G in groups]
    assert marks == sorted(marks)


# catalog_groups_up_to as it was before it filtered keys by order, kept
# verbatim as the reference for its key list; its groups are built once.
make_catalog_group = functools.cache(tf.make_catalog_group)


def reference_catalog_groups_up_to(max_order):
    """Deterministic list of (key, group) covering the catalog up to a given
    order, one representative per isomorphism type.

    Used by the exhaustive verification sweeps; dihedral:3 (= symmetric:3)
    and heisenberg:2 (= dihedral:4) are skipped as duplicates.
    """
    entries = []
    for n in range(1, max_order + 1):
        entries.append(f"cyclic:{n}")
    # dihedral:2 (= elemab:2:2) and dihedral:3 (= symmetric:3) are duplicates
    for n in range(4, max_order // 2 + 1):
        entries.append(f"dihedral:{n}")
    entries += ["symmetric:3", "symmetric:4", "quaternion:8",
                "heisenberg:3", "heisenberg:5",
                "elemab:2:2", "elemab:2:3", "elemab:2:4",
                "elemab:3:2", "elemab:3:3",
                "product:cyclic:2,cyclic:4", "product:cyclic:2,cyclic:6",
                "product:cyclic:2,cyclic:8", "product:cyclic:4,cyclic:4"]
    out = []
    seen = set()
    for key in entries:
        try:
            g = make_catalog_group(key)
        except UnknownCatalogKey:
            continue
        if g.order > max_order or key in seen:
            continue
        seen.add(key)
        out.append((key, g))
    out.sort(key=lambda kg: (kg[1].order, kg[0]))
    return out


def test_catalog_up_to_matches_reference_keys(monkeypatch):
    built = []
    monkeypatch.setattr(catalog, "make_catalog_group",
                        lambda key: built.append(key) or
                        make_catalog_group(key))
    for max_order in range(130):
        built.clear()
        got = [key for key, _ in catalog.catalog_groups_up_to(max_order)]
        # no group above max_order is built, not even to be dropped
        assert max(map(catalog._capped_order, built), default=0) \
            <= max_order
        assert got == [key for key, _ in
                       reference_catalog_groups_up_to(max_order)]


def test_capped_order_is_the_order():
    keys = set(tf.catalog_keys())
    keys |= {key for key, _ in reference_catalog_groups_up_to(129)}
    for key in sorted(keys):
        assert catalog._capped_order(key) == make_catalog_group(key).order


def test_product_of_products():
    G = tf.make_catalog_group("product:cyclic:2,cyclic:2")
    E = tf.make_catalog_group("elemab:2:2")
    assert tf.are_isomorphic(G, E) is not None


@pytest.mark.parametrize("key", ["cyclic:4097", "dihedral:2049",
                                 "symmetric:8", "heisenberg:17",
                                 "elemab:2:13", "elemab:2:10000000000",
                                 "product:cyclic:64,cyclic:65",
                                 "product:cyclic:2,cyclic:2049"])
def test_order_cap_is_checked_before_any_table(monkeypatch, key):
    def refuse(*args):
        pytest.fail("a table was built")

    for name in ("make_cyclic", "direct_product", "make_dihedral",
                 "make_symmetric", "make_heisenberg",
                 "make_elementary_abelian"):
        monkeypatch.setattr(catalog, name, refuse)
    with pytest.raises(LimitExceeded, match="more than 4096 elements"):
        tf.make_catalog_group(key)


def test_order_cap_leaves_unknown_keys_unknown():
    for key in ["heisenberg:7", "dihedral:1", "cyclic:0", "cyclic:x",
                "elemab:4:2", "quaternion:16", "bogus:3"]:
        with pytest.raises(UnknownCatalogKey):
            tf.make_catalog_group(key)
