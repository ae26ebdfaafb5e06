"""Core group machinery: validation, subgroups, cosets, series."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tensorforge as tf
from tensorforge import groups
from tensorforge.catalog import catalog_groups_up_to
from tensorforge.errors import LimitExceeded, NotAGroup, NotAHomomorphism
from tensorforge.groups import (FiniteGroup, Subgroup, _commutators, center,
                                check_regular, conjugates, conjugation_maps,
                                derived_subgroup,
                                from_cayley_table, from_columns,
                                generating_set, make_cyclic,
                                nilpotency_class, second_hypercenter,
                                spanning_tree, subgroup_generated)

SMALL_KEYS = ["cyclic:1", "cyclic:4", "cyclic:6", "elemab:2:2",
              "symmetric:3", "dihedral:4", "quaternion:8", "heisenberg:3"]


def checked_hom(source, target, mapping):
    """A GroupHom of ``mapping`` once it respects every product, checked
    over the whole |G|^2 table; NotAHomomorphism names the first (x, y)
    where it does not."""
    mapping = np.asarray(mapping, dtype=np.intp)
    fails = mapping[source.table] != target.table[np.ix_(mapping, mapping)]
    if fails.any():
        raise NotAHomomorphism(tuple(np.argwhere(fails)[0].tolist()))
    return tf.GroupHom(source, target, mapping)


def test_checked_hom_refuses_a_map_that_is_no_hom():
    with pytest.raises(NotAHomomorphism, match=r"\(1, 1\)"):
        checked_hom(make_cyclic(4), make_cyclic(4), [0, 1, 0, 1])
    assert checked_hom(make_cyclic(4), make_cyclic(2),
                       [0, 1, 0, 1]).map.tolist() == [0, 1, 0, 1]


def reference_conj(G, x, y):
    """x^y = y^-1 x y in G."""
    return int(G.table[G.table[G.inverse[y], x], y])


def small_groups():
    return [(k, tf.make_catalog_group(k)) for k in SMALL_KEYS]


# -- table validation -----------------------------------------------------

def test_rejects_non_latin_square():
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table([[0, 0], [1, 1]])
    assert exc.value.reason == "not-latin-square"


def test_rejects_missing_identity():
    # subtraction mod 3: latin square with only a one-sided identity
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table([[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    assert exc.value.reason == "no-identity"


# the smallest loops that are not groups have order 5
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_rejects_non_associative():
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table(LOOP5)
    assert exc.value.reason in ("not-associative", "missing-inverse")


def reference_latin_witness(table):
    """The first row or column, the row first, that is not a
    permutation, checked one at a time."""
    n = len(table)
    for i in range(n):
        if sorted(table[i].tolist()) != list(range(n)):
            return ("row", i)
        if sorted(table[:, i].tolist()) != list(range(n)):
            return ("col", i)
    return None


def reference_associativity_witness(table):
    """The first (i, j, k) with (i j) k != i (j k), row by row."""
    for i in range(len(table)):
        left = table[table[i], :]
        right = table[i, table]
        if not np.array_equal(left, right):
            j, k = np.argwhere(left != right)[0]
            return (i, int(j), int(k))
    return None


def _relabel(table, rng):
    perm = rng.permutation(len(table))
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def test_latin_witness_matches_reference_loop():
    rng = np.random.default_rng(23)
    for key in ["cyclic:5", "symmetric:3", "dihedral:4", "elemab:2:3"]:
        base = np.array(tf.make_catalog_group(key).table)
        assert groups._check_latin(base) is None
        for _ in range(10):
            table = _relabel(base, rng)
            # one entry rewritten breaks its row and its column
            i, j = rng.integers(0, len(table), 2)
            table[i, j] = (table[i, j] + 1 + rng.integers(
                0, len(table) - 1)) % len(table)
            want = reference_latin_witness(table)
            assert want is not None
            assert groups._check_latin(table) == want
            # a copy of a row breaks only columns
            table = _relabel(base, rng)
            table[i] = table[j]
            assert groups._check_latin(table) \
                == reference_latin_witness(table)


def _non_associative_loops(rng, count):
    """Loops with two-sided inverses made from group tables by swapping
    the two symbols of an intercalate, a 2 x 2 Latin subsquare, that
    avoids the identity's row, column and symbol; relabelled at random,
    and kept when they are not associative."""
    bases = [np.array(tf.make_catalog_group(k).table)
             for k in ["elemab:2:3", "elemab:2:4", "product:cyclic:2,cyclic:4",
                       "dihedral:4", "quaternion:8", "cyclic:8"]]
    loops = []
    while len(loops) < count:
        table = bases[rng.integers(len(bases))].copy()
        n = len(table)
        a, b, c = rng.integers(1, n, 3)
        x = table[a, b]
        d = int(np.flatnonzero(table[c] == x)[0])
        y = table[a, d]
        if a == c or d == 0 or x == 0 or y == 0 or table[c, b] != y:
            continue
        table[a, b] = table[c, d] = y
        table[a, d] = table[c, b] = x
        table = _relabel(table, rng)
        if reference_associativity_witness(table) is not None:
            loops.append(table)
    return loops


def test_associativity_witness_matches_row_sweep():
    # Light's test decides, and the row sweep names the same first triple
    rng = np.random.default_rng(2023)
    for table in [np.array(LOOP5)] + _non_associative_loops(rng, 24):
        e = int(np.flatnonzero((table == np.arange(len(table))).all(1))[0])
        want = reference_associativity_witness(table)
        assert groups._check_associative(table, e) == want
        with pytest.raises(NotAGroup) as exc:
            from_cayley_table(table)
        assert (exc.value.reason, exc.value.witness) \
            == ("not-associative", want)


@pytest.mark.parametrize("key", [k for k, _ in catalog_groups_up_to(32)])
def test_light_test_accepts_catalog_groups(key):
    G = tf.make_catalog_group(key)
    assert groups._check_associative(G.table, G.identity) is None


def test_validates_order_1024_table_in_a_second():
    # the row sweep alone took about 6 s on the dihedral group of order
    # 1024; Light's test needs one n x n comparison per generator
    table = np.array(tf.catalog.make_dihedral(512).table)
    start = time.perf_counter()
    G = from_cayley_table(table)
    assert time.perf_counter() - start < 1.0
    assert G.order == 1024


def test_accepts_klein_four():
    G = from_cayley_table([[0, 1, 2, 3], [1, 0, 3, 2],
                           [2, 3, 0, 1], [3, 2, 1, 0]])
    assert G.order == 4 and G.is_abelian


# -- algebraic identities -------------------------------------------------

@pytest.mark.parametrize("key,G", small_groups())
def test_inverse_and_identity(key, G):
    for x in range(G.order):
        assert G.mul(x, G.inv(x)) == G.identity
        assert G.mul(G.inv(x), x) == G.identity
        assert G.mul(x, G.identity) == x


@pytest.mark.parametrize("key,G", small_groups())
def test_conjugation_is_automorphism_and_commutator_identity(key, G):
    rng = np.random.default_rng(7)
    for _ in range(30):
        x, y, z = rng.integers(0, G.order, 3)
        assert reference_conj(G, G.mul(x, y), z) \
            == G.mul(reference_conj(G, x, z), reference_conj(G, y, z))
        # [x, y] = x^-1 y^-1 x y = x^-1 x^y
        assert G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y)) \
            == G.mul(G.inv(x), reference_conj(G, x, y))


@pytest.mark.parametrize("key,G", small_groups())
def test_element_orders_divide_group_order(key, G):
    for x in range(G.order):
        assert G.order % G.element_order(x) == 0
        assert G.power(x, G.element_order(x)) == G.identity


@given(n=st.integers(1, 24), k=st.integers(-30, 30))
def test_cyclic_power_arithmetic(n, k):
    G = make_cyclic(n)
    assert G.power(1 % n, k) == k % n


# -- constructions --------------------------------------------------------

def test_direct_product_orders():
    G = tf.direct_product(make_cyclic(3), make_cyclic(4))
    assert G.order == 12 and G.is_abelian
    assert sorted(G.element_orders())[-1] == 12   # Z3 x Z4 = Z12


def test_direct_product_nonabelian_factor():
    S3 = tf.make_catalog_group("symmetric:3")
    G = tf.direct_product(S3, make_cyclic(2))
    assert G.order == 12 and not G.is_abelian


def test_direct_product_refused_above_cap(monkeypatch):
    monkeypatch.setattr(np, "repeat",
                        lambda *a: pytest.fail("a table was built"))
    with pytest.raises(LimitExceeded, match="4096-element cap"):
        tf.direct_product(make_cyclic(65), make_cyclic(64))


def test_is_bijective_needs_equal_orders_and_every_image():
    C4 = make_cyclic(4)
    assert tf.GroupHom(C4, C4, [0, 3, 2, 1]).is_bijective is True
    # x -> 2x on Z4 misses 1 and 3
    assert tf.GroupHom(C4, C4, [0, 2, 0, 2]).is_bijective is False
    # Z2 -> Z4 is injective, not onto
    assert tf.GroupHom(make_cyclic(2), C4, [0, 2]).is_bijective is False
    # Z4 -> Z2 is onto, not injective
    assert tf.GroupHom(C4, make_cyclic(2), [0, 1, 0, 1]).is_bijective \
        is False


def test_subgroup_generated_closure():
    S3 = tf.make_catalog_group("symmetric:3")
    for g in range(S3.order):
        sub = subgroup_generated(S3, [g])
        assert sub.order == S3.element_order(g)
    assert subgroup_generated(S3, range(S3.order)).order == 6


def reference_subgroup_generated(G, gens):
    """Smallest subgroup containing ``gens``, via closure orbit: the
    library's depth-first loop before it shared the greedy closure, kept
    verbatim."""
    members = {G.identity}
    frontier = [G.identity]
    gens = [int(g) for g in gens]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = G.mul(x, s)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return Subgroup(G, members)


def test_subgroup_generated_matches_reference_closure():
    rng = np.random.default_rng(2501)
    for key, G in catalog_groups_up_to(32):
        lists = [[], [G.identity], [G.identity] * 3, range(G.order)]
        for size in (1, 2, 3):
            gens = rng.integers(0, G.order, size)     # numpy integers
            lists += [gens, list(gens), np.concatenate([gens, gens[::-1]])]
        for gens in lists:
            got = subgroup_generated(G, gens)
            assert got == reference_subgroup_generated(G, gens), (key, gens)


def test_greedy_generators_takes_the_first_candidate_not_reached():
    G = tf.make_catalog_group("symmetric:3")
    for candidates in ([], [G.identity], range(G.order), [5, 4, 5, 3, 1]):
        gens, rows, reached = groups.greedy_generators(
            G.order, G.identity, lambda s: G.table[:, s], candidates)
        want, seen = [], reference_subgroup_generated(G, [])
        for c in candidates:
            if c not in seen:
                want.append(c)
                seen = reference_subgroup_generated(G, want)
        assert gens == want and set(reached) == set(seen.members)
        assert len(reached) == len(set(reached)) and reached[0] == G.identity
        assert np.array_equal(rows, G.table[:, gens])


def test_row_keys_sort_as_lexsort():
    rng = np.random.default_rng(2502)
    for width in range(1, 7):
        for high in (2, 17, 4097):
            rows = rng.integers(0, high, size=(300, width))
            keys = groups.row_keys(rows)
            assert np.array_equal(np.argsort(keys, kind="stable"),
                                  np.lexsort(rows.T[::-1]))
            assert np.array_equal(keys == keys[0], (rows == rows[0]).all(1))


def test_key_index_finds_positions_and_marks_missing_keys():
    rows = np.array([[0, 5], [1, 0], [1, 4096], [7, 7]])
    keys = groups.row_keys(rows)
    wanted = groups.row_keys([[1, 4096], [0, 0], [7, 7], [9, 9], [0, 5]])
    assert groups.key_index(keys, wanted).tolist() == [2, -1, 3, -1, 0]
    assert groups.key_index(np.array([3, 5, 9]),
                            np.array([9, 4, 3, 10])).tolist() == [2, -1, 0, -1]


# -- center, derived, series ----------------------------------------------

def test_center_values():
    assert center(tf.make_catalog_group("symmetric:3")).order == 1
    assert center(tf.make_catalog_group("dihedral:4")).order == 2
    assert center(tf.make_catalog_group("quaternion:8")).order == 2
    assert center(tf.make_catalog_group("heisenberg:3")).order == 3
    Z6 = make_cyclic(6)
    assert center(Z6).order == 6


# the five groups of the ``series`` workload of tools/ab_calls.py
SERIES_KEYS = ["product:quaternion:8,elemab:2:9", "dihedral:512",
               "product:dihedral:16,dihedral:16",
               "product:symmetric:4,cyclic:4", "heisenberg:5"]


@pytest.mark.parametrize("block", [groups.BLOCK_ENTRIES, 50])
def test_abelian_and_center_in_blocks_match_whole_table(monkeypatch, block):
    # is_abelian, Z(G) and Z2(G) read generators, not blocks of the table,
    # so a block of 50 entries must leave them as they are; the references
    # read the whole table and the quotient group G/Z(G)
    series = [(k, tf.make_catalog_group(k)) for k in SERIES_KEYS]
    monkeypatch.setattr(groups, "BLOCK_ENTRIES", block)
    for key, G in catalog_groups_up_to(64) + series:
        fresh = FiniteGroup(G.table, validate=False)
        commutes = G.table == G.table.T
        assert fresh.is_abelian == bool(commutes.all()), key
        assert list(center(G).members) \
            == np.flatnonzero(commutes.all(axis=1)).tolist(), key
        assert second_hypercenter(G) == reference_second_hypercenter(G), key


def column_route(T):
    """generating_set, is_abelian, |Z(T)|, |Z2(T)|, nilpotency_class, the
    inverses and abelian_invariants of a group built by ``from_columns``,
    read through its columns: no table is built, except that the power
    maps of a non-abelian group read one."""
    assert T._table is None
    got = (generating_set(T).tolist(), T.is_abelian, center(T).order,
           second_hypercenter(T).order, nilpotency_class(T),
           T.inverse.tolist())
    assert T._table is None
    got += (tf.abelian_invariants(T),)
    assert T._table is None or not T.is_abelian
    return got


def table_route(T):
    """The same results on a group of T's Cayley table."""
    E = FiniteGroup(T.table, validate=False)
    return (generating_set(E).tolist(), E.is_abelian, center(E).order,
            second_hypercenter(E).order, nilpotency_class(E),
            E.inverse.tolist(), tf.abelian_invariants(E))


@pytest.mark.parametrize("key", SERIES_KEYS)
def test_column_route_matches_table_route(key):
    # the group of the columns of a generating set, from the identity
    G = tf.make_catalog_group(key)
    assert G.identity == 0
    rows = G.table[:, generating_set(G)]
    T = from_columns(rows, spanning_tree(rows))
    check_regular(T)
    assert column_route(T) == table_route(T)
    assert np.array_equal(T.table, G.table)


def test_power_map_routes_agree_and_refuse_exponents_below_one():
    # cyclic:4 through its columns, with no table, and through its table
    G = tf.make_catalog_group("cyclic:4")
    rows = G.table[:, generating_set(G)]
    T = from_columns(rows, spanning_tree(rows))
    columns = [groups.power_map(T, p).tolist() for p in range(1, 6)]
    assert T._table is None
    E = FiniteGroup(T.table, validate=False)
    assert columns == [groups.power_map(E, p).tolist() for p in range(1, 6)]
    assert columns[:2] == [[0, 1, 2, 3], [0, 2, 0, 2]]
    for K in (from_columns(rows, spanning_tree(rows)), E):
        for p in (0, -1):
            with pytest.raises(ValueError, match="p >= 1"):
                groups.power_map(K, p)


def test_from_columns_refuses_an_action_that_is_not_regular():
    # S3 on the three cosets of a subgroup of order 2: a 3-cycle and a
    # transposition fixing 0, transitive, but (1 0) b = 2 != 1 = 1 (0 b)
    rows = np.array([[1, 0], [2, 2], [0, 1]])
    with pytest.raises(NotAGroup, match="not-regular") as caught:
        check_regular(from_columns(rows, spanning_tree(rows)))
    assert caught.value.witness == (1, 0, 1)


def test_abelian_and_center_peak_memory():
    # the whole 4096 x 4096 comparison would take 16 MiB
    G = tf.make_catalog_group("product:quaternion:8,elemab:2:9")
    fresh = FiniteGroup(G.table, validate=False)
    for call in (lambda: fresh.is_abelian, lambda: center(G)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
    assert not fresh.is_abelian and center(G).order == 1024


def test_derived_subgroup_from_generators_matches_all_commutators():
    # G' from the commutators of generating_set(G) with G, against the
    # subgroup that all |G|^2 commutators generate
    keys = ["product:quaternion:8,elemab:2:9",
            "product:symmetric:4,cyclic:4", "heisenberg:5"]
    for key, G in catalog_groups_up_to(64) + [
            (k, tf.make_catalog_group(k)) for k in keys]:
        assert derived_subgroup(G) == subgroup_generated(
            G, _commutators(G, range(G.order))), key


def test_derived_subgroup_values():
    S3 = tf.make_catalog_group("symmetric:3")
    d = derived_subgroup(S3)
    assert d.order == 3                       # A3
    assert derived_subgroup(tf.make_catalog_group("quaternion:8")).order == 2
    assert derived_subgroup(make_cyclic(12)).order == 1


def reference_quotient(G, N):
    """The quotient group G/N and the projection x -> xN, by a loop over
    the cosets xN, each labelled by its least element and ordered by that
    label; the group axioms of the quotient's table are checked."""
    rep_of = np.full(G.order, -1, dtype=np.intp)
    for x in range(G.order):
        if rep_of[x] >= 0:
            continue
        coset = [G.mul(x, n) for n in N.members]
        r = min(coset)
        for y in coset:
            rep_of[y] = r
    reps = sorted(set(int(r) for r in rep_of))
    index = {r: i for i, r in enumerate(reps)}
    k = len(reps)
    table = np.empty((k, k), dtype=np.intp)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            table[i, j] = index[int(rep_of[G.mul(a, b)])]
    return (FiniteGroup(table),
            [index[int(rep_of[x])] for x in range(G.order)])


def test_nilpotency_classes():
    assert nilpotency_class(make_cyclic(8)) == 1
    assert nilpotency_class(tf.make_catalog_group("dihedral:4")) == 2
    assert nilpotency_class(tf.make_catalog_group("heisenberg:3")) == 2
    assert nilpotency_class(tf.make_catalog_group("symmetric:3")) is None
    assert nilpotency_class(make_cyclic(1)) == 0


def test_second_hypercenter():
    # class <= 2 groups have zeta_2 = G; S3 has trivial center so zeta_2 = 1
    D4 = tf.make_catalog_group("dihedral:4")
    assert second_hypercenter(D4).order == D4.order
    S3 = tf.make_catalog_group("symmetric:3")
    assert second_hypercenter(S3).order == 1


def reference_second_hypercenter(G):
    """The preimage of the center of the quotient group G/Z(G), built by
    ``reference_quotient``."""
    z1 = center(G)
    if z1.order == G.order:
        return z1
    Q, proj = reference_quotient(G, z1)
    return Subgroup(G, np.flatnonzero(center(Q).mask()[proj]))


def test_second_hypercenter_matches_the_quotient_route():
    # groups of class 3 and more have 1 < Z(G) < Z2(G) < G
    groups = [G for _, G in catalog_groups_up_to(16)]
    groups += [tf.make_catalog_group(k) for k in ("symmetric:4",
                                                  "dihedral:16")]
    strict = 0
    for G in groups:
        got = second_hypercenter(G)
        assert got == reference_second_hypercenter(G)
        strict += center(G).order < got.order < G.order
    assert strict >= 2


def lower_central_series(G):
    """gamma_1 = G, then the terms gamma_{k+1} = [gamma_k, G] that
    nilpotency_class walks, until they are stable."""
    return [Subgroup(G, range(G.order)), *groups._central_steps(G)]


def test_lower_central_series_heisenberg():
    G = tf.make_catalog_group("heisenberg:3")
    series = lower_central_series(G)
    assert [s.order for s in series] == [27, 3, 1]


def reference_lower_central_series(G):
    """The loop version: one commutator call per pair."""
    series = [Subgroup(G, range(G.order))]
    while True:
        cur = series[-1]
        comms = {G.mul(G.inv(x), reference_conj(G, x, y))
                 for x in cur.members for y in range(G.order)}
        nxt = reference_subgroup_generated(G, comms)
        if nxt.members == cur.members:
            break
        series.append(nxt)
        if nxt.order == 1:
            break
    return series


def _members(series):
    return [s.members for s in series]


@pytest.mark.parametrize("block", [groups.BLOCK_ENTRIES, 50])
def test_lower_central_series_matches_loop_on_catalog(monkeypatch, block):
    # a block of 50 entries splits every group of order 8 or more
    monkeypatch.setattr(groups, "BLOCK_ENTRIES", block)
    for _, G in catalog_groups_up_to(27):
        want = reference_lower_central_series(G)
        assert _members(lower_central_series(G)) == _members(want)
        comms = {G.mul(G.inv(x), reference_conj(G, x, y))
                 for x in range(G.order) for y in range(G.order)}
        assert derived_subgroup(G) \
            == reference_subgroup_generated(G, comms)


def test_nilpotency_class_is_the_length_of_the_series():
    # every group, abelian or not, gets the class that the loop series
    # gives, None when the series stops above the trivial group
    classes = set()
    for key, G in catalog_groups_up_to(27):
        series = reference_lower_central_series(G)
        want = len(series) - 1 if series[-1].order == 1 else None
        assert nilpotency_class(G) == want, key
        classes.add((G.is_abelian, want))
    assert {(True, 0), (True, 1), (False, 2), (False, None)} <= classes


def test_lower_central_series_matches_loop_on_large_groups():
    # orders 512 and 432 take several row blocks of the commutator table;
    # the tensor square is abelian, the product has class 3
    E = tf.make_catalog_group("elemab:2:3")
    conj = conjugation_maps(E)
    square = tf.compute_tensor(tf.ActionPair(E, E, conj, conj)).tensor
    product = tf.direct_product(tf.make_catalog_group("heisenberg:3"),
                                tf.make_catalog_group("dihedral:8"))
    for G in (square, product):
        want = reference_lower_central_series(G)
        assert _members(lower_central_series(G)) == _members(want)
    assert [s.order for s in want] == [432, 12, 2, 1]


@pytest.mark.parametrize("key", ["product:quaternion:8,elemab:2:9",
                                 "dihedral:512"])
def test_lower_central_series_steps_through_generators(monkeypatch, key):
    # each step takes the commutators of generators of the previous term,
    # the first of generating_set(G), never all of its members
    G = tf.make_catalog_group(key)
    passed = []

    def spy(G, xs):
        passed.append(list(xs))
        return _commutators(G, xs)
    monkeypatch.setattr(groups, "_commutators", spy)
    series = lower_central_series(G)
    assert passed[0] == list(groups.generating_set(G))
    assert len(passed) == len(series) - 1 and series[-1].order == 1
    for xs, term in zip(passed, series):
        assert 2 ** len(xs) <= term.order
        assert subgroup_generated(G, xs) == term


def test_conjugation_map_is_inner_permutation():
    G = tf.make_catalog_group("dihedral:4")
    for g in range(G.order):
        m = conjugation_maps(G)[g]
        assert sorted(m) == list(range(G.order))
        assert m[G.identity] == G.identity


def test_conjugates_match_products_and_inverses():
    # x^y = y^-1 x y from the group's own mul and inv, against
    # conjugates at every row, at one row and at a 2-D array of rows
    for key, G in catalog_groups_up_to(27):
        n = G.order
        want = np.array([[G.mul(G.mul(G.inv(y), x), y) for x in range(n)]
                         for y in range(n)])
        rows = np.arange(n)
        assert np.array_equal(conjugates(G, rows), want), key
        assert np.array_equal(conjugates(G, n - 1), want[n - 1]), key
        assert np.array_equal(conjugates(G, rows[::-1].reshape(-1, 1)),
                              want[::-1, None]), key
        assert np.array_equal(conjugation_maps(G), want), key


def test_conjugation_table_is_cached_and_read_only():
    G = tf.make_catalog_group("dihedral:4")
    conj = conjugation_maps(G)
    assert conj is conjugation_maps(G) and not conj.flags.writeable
    for g in range(G.order):
        assert conj[g].tolist() \
            == [reference_conj(G, x, g) for x in range(G.order)]
