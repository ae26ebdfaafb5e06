"""Catalog constructions and the key parser."""

import functools
import time
from itertools import permutations

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


# make_quaternion8, make_symmetric and make_heisenberg as they were
# before their array arithmetic, kept verbatim as references.
def reference_quaternion8():
    """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # encode as (sign, unit): index 2u + s with s=0 positive
    units = "1ijk"

    def umul(x, y):
        # quaternion unit multiplication: returns (sign, unit)
        if x == 0:
            return 1, y
        if y == 0:
            return 1, x
        if x == y:
            return -1, 0
        cyc = {(1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
               (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2)}
        s, u = cyc[(x, y)]
        return s, u

    def mul(a, b):
        ua, sa = divmod(a, 2)
        ub, sb = divmod(b, 2)
        s, u = umul(ua, ub)
        neg = (sa + sb) % 2
        if s < 0:
            neg = 1 - neg
        return 2 * u + neg

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return table, names


def reference_symmetric(n):
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    k = len(perms)
    table = np.empty((k, k), dtype=np.intp)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            # apply p first, then q
            table[i, j] = index[tuple(q[p[x]] for x in range(n))]
    names = ["".join(str(x) for x in p) for p in perms]
    return table, names


def reference_heisenberg(p):
    """Upper unitriangular 3x3 matrices over Z_p: order p^3, class 2."""
    k = p ** 3

    def enc(a, b, c):
        return (a * p + b) * p + c

    table = np.empty((k, k), dtype=np.intp)
    names = [None] * k
    for a1 in range(p):
        for b1 in range(p):
            for c1 in range(p):
                i = enc(a1, b1, c1)
                names[i] = f"[{a1},{b1},{c1}]"
                for a2 in range(p):
                    for b2 in range(p):
                        for c2 in range(p):
                            # (a,b,c) ~ [[1,a,c],[0,1,b],[0,0,1]]
                            table[i, enc(a2, b2, c2)] = enc(
                                (a1 + a2) % p, (b1 + b2) % p,
                                (c1 + c2 + a1 * b2) % p)
    return table, names


@pytest.mark.parametrize("build,reference", [
    (catalog.make_quaternion8, reference_quaternion8),
    *[(functools.partial(catalog.make_symmetric, n),
       functools.partial(reference_symmetric, n)) for n in range(1, 5)],
    *[(functools.partial(catalog.make_heisenberg, p),
       functools.partial(reference_heisenberg, p)) for p in (2, 3, 5)],
])
def test_table_matches_reference(build, reference):
    G = build()
    table, names = reference()
    assert G.table.tolist() == np.asarray(table).tolist()
    assert G.names == names


def capped_order(key):
    return catalog._capped_order(catalog._parse(key)[0])


def test_catalog_groups_pass_full_validation():
    # the constructors trust their own tables; every listed catalog group
    # and every group of catalog_groups_up_to(128) passes all four group
    # axioms when its table is validated
    keys = set(catalog.catalog_keys()) | set(catalog.catalog_keys_up_to(128))
    keys |= {"dihedral:2", "dihedral:3", "heisenberg:2",
             "product:symmetric:3,cyclic:2"}
    assert len(keys) > 200
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


@pytest.mark.parametrize("key,error,named", [
    ("bogus:9", UnknownCatalogKey, None),
    ("cyclic", UnknownCatalogKey, None),
    ("cyclic:", UnknownCatalogKey, None),
    ("cyclic:0", UnknownCatalogKey, None),
    ("cyclic:-3", UnknownCatalogKey, None),
    ("dihedral:1", UnknownCatalogKey, None),
    ("symmetric:5", UnknownCatalogKey, None),
    ("quaternion:16", UnknownCatalogKey, None),
    ("heisenberg:4", UnknownCatalogKey, None),
    ("elemab:4:2", UnknownCatalogKey, None),
    ("elemab:2", UnknownCatalogKey, None),
    ("product:cyclic:2", UnknownCatalogKey, None),
    ("", UnknownCatalogKey, None),
    ("cyclic:two", UnknownCatalogKey, None),
    ("cyclic:4097", LimitExceeded, None),
    ("dihedral:2049", LimitExceeded, None),
    ("symmetric:8", LimitExceeded, None),
    ("heisenberg:17", LimitExceeded, None),
    ("elemab:2:13", LimitExceeded, None),
    ("elemab:2:10000000000", LimitExceeded, None),
    ("product:cyclic:64,cyclic:65", LimitExceeded, None),
    ("product:cyclic:2,cyclic:2049", LimitExceeded, None),
    ("heisenberg:7", UnknownCatalogKey, None),
    ("cyclic:x", UnknownCatalogKey, None),
    ("bogus:3", UnknownCatalogKey, None),
    ("product:bogus,cyclic:5000", LimitExceeded, None),
    ("product:product:cyclic:2,cyclic:2,cyclic:2", UnknownCatalogKey, None),
    ("product:product:cyclic:2,cyclic:3", UnknownCatalogKey,
     "product:cyclic:2"),
    ("product:cyclic:0,cyclic:2", UnknownCatalogKey, "cyclic:0"),
    ("product:cyclic:2,cyclic:+3", UnknownCatalogKey, "cyclic:+3"),
    ("product:cyclic:x,cyclic:2", UnknownCatalogKey, "cyclic:x"),
    # a number must be written exactly as str writes it
    ("cyclic: 3", UnknownCatalogKey, None),
    ("cyclic:+3", UnknownCatalogKey, None),
    ("cyclic:03", UnknownCatalogKey, None),
    ("cyclic:3 ", UnknownCatalogKey, None),
    ("heisenberg:\u0663", UnknownCatalogKey, None),
    ("dihedral:-02", UnknownCatalogKey, None),
    ("elemab:02:2", UnknownCatalogKey, None),
    ("elemab:2:+2", UnknownCatalogKey, None),
    # refused at once, not after counting up to k
    ("elemab:1:10000000000", UnknownCatalogKey, None),
    ("elemab:0:10000000000", UnknownCatalogKey, None),
    ("elemab:-1:10000000000", UnknownCatalogKey, None),
])
def test_edge_key_errors_are_pinned(key, error, named):
    # named is the key the message names, when it is not the key itself:
    # a product names the factor key that fails
    named = key if named is None else named
    message = {UnknownCatalogKey: f"unknown catalog key: {named!r}",
               LimitExceeded: f"catalog group {named!r} has more than "
                              "4096 elements"}[error]
    with pytest.raises(error) as info:
        tf.make_catalog_group(key)
    assert str(info.value) == message


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
        assert max(map(capped_order, built), default=0) <= max_order
        assert got == [key for key, _ in
                       reference_catalog_groups_up_to(max_order)]


def test_capped_order_is_the_order():
    keys = set(tf.catalog_keys())
    keys |= {key for key, _ in reference_catalog_groups_up_to(129)}
    for key in sorted(keys):
        assert capped_order(key) == make_catalog_group(key).order


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
