"""Homomorphism search against brute-force oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import tensorforge as tf
from tensorforge.errors import (BudgetExceeded, GensDoNotGenerate,
                                NotAHomomorphism)
from tensorforge.groups import (FiniteGroup, GroupHom, generating_set,
                                make_cyclic)
from tensorforge.homs import (all_bijective_endomaps, are_isomorphic,
                              enumerate_homs, hom_from_images, injective_homs,
                              involutive_automorphisms, isomorphic,
                              search_set)
from test_groups import checked_hom


def brute_force_homs(S, T):
    """Every map S -> T checked directly; |T|^|S| candidates."""
    out = []
    for images in itertools.product(range(T.order), repeat=S.order):
        if all(images[S.mul(x, y)] == T.mul(images[x], images[y])
               for x in range(S.order) for y in range(S.order)):
            out.append(list(images))
    return sorted(out)


@pytest.mark.parametrize("skey,tkey", [
    ("cyclic:2", "cyclic:4"),
    ("cyclic:3", "cyclic:3"),
    ("cyclic:4", "cyclic:2"),
    ("cyclic:4", "elemab:2:2"),
    ("elemab:2:2", "cyclic:4"),
    ("cyclic:6", "symmetric:3"),
    ("symmetric:3", "cyclic:6"),
    ("symmetric:3", "symmetric:3"),
])
def test_enumeration_matches_brute_force(skey, tkey):
    S = tf.make_catalog_group(skey)
    T = tf.make_catalog_group(tkey)
    got = sorted(enumerate_homs(S, T).tolist())
    assert got == brute_force_homs(S, T)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 5), (4, 6), (6, 4), (12, 8)])
def test_cyclic_hom_count_is_gcd(m, n):
    homs = enumerate_homs(make_cyclic(m), make_cyclic(n))
    assert len(homs) == math.gcd(m, n)


def test_hom_count_heisenberg_3():
    # free of exponent 3 and class 2 on two generators: every pair of
    # images extends, so |End| = 27^2
    G = tf.make_catalog_group("heisenberg:3")
    assert len(enumerate_homs(G, G)) == 729


def test_enumeration_is_deterministic_and_sorted():
    S3 = tf.make_catalog_group("symmetric:3")
    homs = enumerate_homs(S3, S3)
    maps = homs.tolist()
    assert maps == sorted(maps)
    assert maps == enumerate_homs(S3, S3).tolist()


# -- hom_from_images ------------------------------------------------------

def test_hom_from_images_extends():
    Z6 = make_cyclic(6)
    Z3 = make_cyclic(3)
    h = hom_from_images(Z6, Z3, [1], [1])
    assert h.map.tolist() == [0, 1, 2, 0, 1, 2]


def test_hom_from_images_rejects_non_hom():
    Z4 = make_cyclic(4)
    # generator of order 4 cannot map to an element of order 3
    with pytest.raises(NotAHomomorphism):
        hom_from_images(Z4, make_cyclic(6), [1], [2])
    S3 = tf.make_catalog_group("symmetric:3")
    gens = generating_set(S3)
    with pytest.raises(NotAHomomorphism):
        # send everything generating to a fixed 3-cycle: kills relations
        three_cycle = next(g for g in range(6) if S3.element_order(g) == 3)
        hom_from_images(S3, S3, gens, [three_cycle] * len(gens))


def test_hom_from_images_requires_generators():
    from tensorforge.errors import GensDoNotGenerate
    Z4 = make_cyclic(4)
    with pytest.raises(GensDoNotGenerate):
        hom_from_images(Z4, Z4, [2], [2])


# -- GroupHom structure ---------------------------------------------------

def test_kernel_image_sizes_multiply():
    S3 = tf.make_catalog_group("symmetric:3")
    for m in enumerate_homs(S3, S3):
        h = checked_hom(S3, S3, m)
        assert h.kernel().order * len(np.unique(h.map)) == S3.order


def test_hom_composition():
    Z12 = make_cyclic(12)
    Z6 = make_cyclic(6)
    Z3 = make_cyclic(3)
    f = hom_from_images(Z12, Z6, [1], [1])
    g = hom_from_images(Z6, Z3, [1], [1])
    composed = checked_hom(Z12, Z3, g.map[f.map])
    assert composed.map.tolist() == [x % 3 for x in range(12)]


# -- isomorphism ----------------------------------------------------------

def test_isomorphic_positive():
    G = tf.make_catalog_group("product:cyclic:3,cyclic:4")
    H = make_cyclic(12)
    iso = are_isomorphic(G, H)
    assert iso is not None and iso.is_bijective
    for x in range(G.order):
        for y in range(G.order):
            assert iso(G.mul(x, y)) == H.mul(iso(x), iso(y))


def test_isomorphic_negative_same_order():
    assert are_isomorphic(make_cyclic(4),
                          tf.make_catalog_group("elemab:2:2")) is None
    assert are_isomorphic(tf.make_catalog_group("dihedral:4"),
                          tf.make_catalog_group("quaternion:8")) is None
    assert are_isomorphic(tf.make_catalog_group("dihedral:6"),
                          tf.make_catalog_group(
                              "product:symmetric:3,cyclic:2")) is not None


def test_isomorphic_different_orders():
    assert are_isomorphic(make_cyclic(4), make_cyclic(5)) is None
    assert not isomorphic(make_cyclic(4), make_cyclic(5))


def _isomorphism_pairs():
    """Every pair of catalog groups up to order 16 of one order, each
    group against a fresh copy of its table, and two pairs by hand:
    quaternion:8 against dihedral:4, both non-abelian with abelianisation
    [2, 2] and not isomorphic, and dihedral:4 against heisenberg:2, which
    are isomorphic (the catalog keys skip heisenberg:2 as a duplicate)."""
    groups = [G for _, G in tf.catalog_groups_up_to(16)]
    pairs = [(G, H) for G, H in itertools.combinations(groups, 2)
             if G.order == H.order]
    pairs += [(G, FiniteGroup(G.table, validate=False)) for G in groups]
    D4 = tf.make_catalog_group("dihedral:4")
    pairs += [(tf.make_catalog_group("quaternion:8"), D4),
              (D4, tf.make_catalog_group("heisenberg:2"))]
    return pairs


def test_isomorphic_agrees_with_the_search():
    # the invariants decide two abelian groups, abelian-ness alone one
    # abelian and one non-abelian group, and the search two non-abelian
    # groups: every answer is the search's, both ways round
    pairs = _isomorphism_pairs()
    for G, H in pairs + [(H, G) for G, H in pairs]:
        assert isomorphic(G, H) == (are_isomorphic(G, H) is not None)
    Q8, D4 = map(tf.make_catalog_group, ("quaternion:8", "dihedral:4"))
    assert tf.abelian_invariants(Q8) == tf.abelian_invariants(D4) == [2, 2]
    assert not isomorphic(Q8, D4)
    assert isomorphic(D4, tf.make_catalog_group("heisenberg:2"))


# -- bijective endomaps ---------------------------------------------------

def brute_force_automorphisms(G):
    out = []
    for images in itertools.permutations(range(G.order)):
        if images[G.identity] != G.identity:
            continue
        if all(images[G.mul(x, y)] == G.mul(images[x], images[y])
               for x in range(G.order) for y in range(G.order)):
            out.append(list(images))
    return sorted(out)


@pytest.mark.parametrize("key", ["cyclic:5", "cyclic:6", "elemab:2:2",
                                 "symmetric:3"])
def test_bijective_endomaps_match_brute_force(key):
    G = tf.make_catalog_group(key)
    got = sorted(np.asarray(m).tolist() for m in all_bijective_endomaps(G))
    assert got == brute_force_automorphisms(G)


def test_generating_set_generates():
    for key, G in tf.catalog_groups_up_to(16):
        gens = generating_set(G)
        assert tf.subgroup_generated(G, gens).order == G.order


def test_generating_set_is_cached_and_immutable(monkeypatch):
    G = tf.make_catalog_group("dihedral:4")
    gens = generating_set(G)
    assert gens.dtype == np.intp and gens.ndim == 1
    assert not gens.flags.writeable
    calls = []
    monkeypatch.setattr(tf.groups, "greedy_generators",
                        lambda *a: calls.append(a))
    assert generating_set(G) is gens and not calls
    monkeypatch.undo()
    # a new group object with the same table computes its own
    K = tf.FiniteGroup(G.table)
    assert np.array_equal(generating_set(K), gens)
    assert generating_set(K) is not gens


def test_search_set_is_an_irredundant_subset_of_the_greedy_set():
    for key, G in tf.catalog_groups_up_to(32):
        gens = search_set(G)
        greedy = generating_set(G)
        assert set(gens) <= set(greedy) and list(gens) == sorted(
            gens, key=greedy.tolist().index), key
        assert tf.subgroup_generated(G, gens).order == G.order, key
        if G.order == 1:
            # a generating set is never empty: the identity is kept
            assert gens == (0,)
            continue
        for s in gens:
            others = [g for g in gens if g != s]
            assert s not in tf.subgroup_generated(G, others), key


def test_trivial_group_is_generated_by_its_identity():
    # a generating set is never empty, and the search over the identity's
    # one candidate image forces the one map
    G = tf.make_catalog_group("cyclic:1")
    assert generating_set(G).tolist() == [0] and search_set(G) == (0,)
    for X in (G, tf.make_catalog_group("quaternion:8"),
              tf.make_catalog_group("symmetric:3")):
        assert enumerate_homs(G, X).tolist() == [[X.identity]]
    assert all_bijective_endomaps(G).tolist() == [[0]]
    assert are_isomorphic(G, make_cyclic(1)).map.tolist() == [0]
    # a trivial Aut(G) is generated by the identity map, element 0
    gens = generating_set(tf.automorphism_group(make_cyclic(2)).group)
    assert gens.tolist() == [0] and not gens.flags.writeable


def test_generating_set_indexes_as_a_row():
    # a tuple of one generator would index a 1-D array as a scalar
    gens = generating_set(make_cyclic(1))
    assert np.arange(1)[gens].shape == (1,)
    G = tf.make_catalog_group("dihedral:4")
    assert G.inverse[generating_set(G)].shape == (len(generating_set(G)),)


@pytest.mark.parametrize("key", ["quaternion:8", "heisenberg:3",
                                 "heisenberg:5"])
def test_search_set_drops_redundant_greedy_generators(key):
    # the greedy sets have three elements; these groups are 2-generated
    G = tf.make_catalog_group(key)
    assert len(generating_set(G)) == 3
    assert len(search_set(G)) == 2
    assert search_set(G) is search_set(G)


@pytest.mark.parametrize("key,bijective,nodes,count", [
    ("heisenberg:3", True, 702, 432),         # 5,694 over the greedy set
    ("heisenberg:3", False, 756, 729),        # 8,775 over the greedy set
    ("heisenberg:5", True, 15_500, 12_000),   # 372,620 over the greedy set
])
def test_complete_search_node_count(key, bijective, nodes, count):
    G = tf.make_catalog_group(key)
    assert len(tf.homs._search(G, G, bijective, True, nodes)) == count
    with pytest.raises(BudgetExceeded):
        tf.homs._search(G, G, bijective, True, nodes - 1)


@pytest.mark.parametrize("key,nodes", [("heisenberg:3", 13),
                                       ("heisenberg:5", 31)])
def test_search_for_one_map_node_count(key, nodes):
    # a search for one map keeps the greedy set
    G = tf.make_catalog_group(key)
    assert len(tf.homs._search(G, G, True, False, nodes)) == 1
    with pytest.raises(BudgetExceeded):
        tf.homs._search(G, G, True, False, nodes - 1)


def test_budget_exhaustion_raises():
    G = tf.make_catalog_group("elemab:2:4")
    with pytest.raises(BudgetExceeded):
        enumerate_homs(G, G, budget=10)


# -- the forcing kernel against the code it replaced ----------------------
#
# The search forced one candidate at a time along a Python BFS per
# subgroup level, and hom_from_images found its witness by forcing again
# element by element.  Both are kept here verbatim as the reference.

class _Level:
    """Search state for the subgroup generated by the first j generators."""

    __slots__ = ("elems", "parent", "via", "prod")

    def __init__(self, G, gens):
        elems = [G.identity]
        seen = {G.identity}
        parent = [-1]
        via = [-1]
        qi = 0
        while qi < len(elems):
            x = elems[qi]
            qi += 1
            for i, s in enumerate(gens):
                y = G.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    elems.append(y)
                    parent.append(x)
                    via.append(i)
        self.elems = np.array(elems, dtype=np.intp)
        self.parent = np.array(parent, dtype=np.intp)
        self.via = np.array(via, dtype=np.intp)
        # right-multiplication table restricted to this level, per generator
        self.prod = G.table[np.ix_(self.elems, np.array(gens, dtype=np.intp))]


def _forced_map(G, level, target, images, require_injective=False):
    """Extend generator images over one subgroup level, or return None.

    The extension is forced along the BFS spanning tree; it is a
    homomorphism iff map(x * s_i) == map(x) * t_i for every element of the
    level and every generator, which is checked in one vectorized pass.
    """
    pm = np.full(G.order, -1, dtype=np.intp)
    pm[G.identity] = target.identity
    for idx in range(1, len(level.elems)):
        x = level.elems[idx]
        pm[x] = target.table[pm[level.parent[idx]], images[level.via[idx]]]
    sub = pm[level.elems]
    if require_injective and len(np.unique(sub)) != len(sub):
        return None
    lhs = pm[level.prod]
    rhs = target.table[sub[:, None], np.asarray(images, dtype=np.intp)[None, :]]
    if not np.array_equal(lhs, rhs):
        return None
    return pm


def reference_hom_from_images(source, target, gens, images):
    """The unique homomorphism extending gens -> images, if it exists."""
    if len(gens) != len(images):
        raise ValueError("gens and images must have the same length")
    if tf.subgroup_generated(source, gens).order != source.order:
        raise GensDoNotGenerate("given elements do not generate the source")
    level = _Level(source, list(gens))
    pm = _forced_map(source, level, target, list(images))
    if pm is None:
        # recover a witness pair: first (x, s_i) where forcing breaks
        witness = None
        tmp = np.full(source.order, -1, dtype=np.intp)
        tmp[source.identity] = target.identity
        for idx in range(1, len(level.elems)):
            x = level.elems[idx]
            tmp[x] = target.table[tmp[level.parent[idx]], images[level.via[idx]]]
        for pos, x in enumerate(level.elems):
            for i, s in enumerate(gens):
                if tmp[source.mul(x, s)] != target.mul(int(tmp[x]), images[i]):
                    witness = (int(x), int(s))
                    break
            if witness:
                break
        raise NotAHomomorphism(witness)
    return GroupHom(source, target, pm)


def _candidate_images(source_gen_order, target, exact_order):
    orders = target.element_orders()
    if exact_order:
        return [int(t) for t in np.flatnonzero(orders == source_gen_order)]
    return [int(t) for t in np.flatnonzero(source_gen_order % orders == 0)]


def reference_search(source, target, bijective, find_all, budget,
                     tally=None):
    """Shared backtracking core for enumerate_homs / are_isomorphic /
    automorphism enumeration.  A list ``tally`` receives the number of
    nodes counted.  A complete search runs over the generators of
    ``search_set`` and sorts its maps."""
    gens = search_set(source) if find_all else generating_set(source)
    k = len(gens)
    if k == 0:
        m = np.full(source.order, target.identity, dtype=np.intp)
        return [m] if (not bijective or target.order == 1) else []
    levels = [_Level(source, gens[:j + 1]) for j in range(k)]
    cand = [_candidate_images(source.element_order(s), target, bijective)
            for s in gens]
    found = []
    nodes = 0

    def descend(j, images):
        nonlocal nodes
        for t in cand[j]:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"hom search exceeded {budget} nodes")
            pm = _forced_map(source, levels[j], target, images + [t],
                             require_injective=bijective)
            if pm is None:
                continue
            if j == k - 1:
                if bijective and len(np.unique(pm)) != source.order:
                    continue
                found.append(pm)
                if not find_all:
                    return True
            else:
                if descend(j + 1, images + [t]):
                    return True
        return False

    descend(0, [])
    if tally is not None:
        tally.append(nodes)
    if find_all:
        found.sort(key=lambda m: m.tolist())
    return found


def _outcome(search, *args):
    """The maps a search returns in order, or the error it raises."""
    try:
        return [m.tolist() for m in search(*args)]
    except BudgetExceeded as exc:
        return str(exc)


def _same_search(source, target, bijective, find_all,
                 budget=tf.homs.DEFAULT_BUDGET):
    args = (source, target, bijective, find_all, budget)
    want = _outcome(reference_search, *args)
    assert _outcome(tf.homs._search, *args) == want
    return want


SMALL = tf.catalog_groups_up_to(8)


@pytest.mark.parametrize("skey,S", SMALL, ids=[k for k, _ in SMALL])
def test_search_matches_reference_on_small_pairs(skey, S):
    # Hom(S, T) and Hom(S, Aut T) over every catalog pair up to order 8,
    # in the order the search finds them, so the sorted lists agree too
    for _, T in SMALL:
        _same_search(S, T, False, True)
        _same_search(S, tf.automorphism_group(T).group, False, True)


def test_bijective_search_between_groups_matches_reference():
    # between groups of one order a level can have no candidate image
    for (_, S), (_, T) in itertools.product(SMALL, repeat=2):
        if S.order == T.order:
            _same_search(S, T, True, True)
            _same_search(S, T, True, False)


AUT_GROUPS = tf.catalog_groups_up_to(27)


@pytest.mark.parametrize("key,G", AUT_GROUPS, ids=[k for k, _ in AUT_GROUPS])
def test_bijective_search_matches_reference(key, G):
    # every automorphism, and the first isomorphism the search meets
    _same_search(G, G, True, True)
    _same_search(G, G, True, False)


def _relabel(G, seed):
    """G with its elements renumbered by a random permutation that moves
    the identity away from 0, and that permutation (old -> new)."""
    perm = np.random.default_rng(seed).permutation(G.order)
    if perm[G.identity] == 0:
        perm[[G.identity, int(np.argmax(perm != 0))]] = \
            perm[[int(np.argmax(perm != 0)), G.identity]]
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    return tf.FiniteGroup(table), perm


@pytest.mark.parametrize("key", ["cyclic:6", "symmetric:3", "dihedral:4",
                                 "quaternion:8", "elemab:2:3",
                                 "heisenberg:3"])
def test_search_on_relabelled_source(key):
    G = tf.make_catalog_group(key)
    R, perm = _relabel(G, 11)
    assert R.identity != 0
    for T in (tf.make_catalog_group("symmetric:3"), G, R):
        homs = _same_search(R, T, False, True)
        # the maps come out in lexicographic order
        assert homs == sorted(homs)
        # the homs out of R are those out of G, read through the relabelling
        back = sorted(np.asarray(m)[perm].tolist() for m in homs)
        want = sorted(enumerate_homs(G, T).tolist())
        assert back == want
    # sigma in Aut(G) is x -> sigma(x) read in the new labels
    inverse = np.argsort(perm)
    automorphisms = _same_search(R, R, True, True)
    assert automorphisms == sorted(automorphisms)
    assert automorphisms == sorted(
        perm[m[inverse]].tolist() for m in all_bijective_endomaps(G))


def _node_count(source, target, bijective, find_all):
    """The least budget under which the reference search finishes: the
    count grows one node at a time, so it is the count of a finished
    search."""
    tally = []
    reference_search(source, target, bijective, find_all,
                     tf.homs.DEFAULT_BUDGET, tally)
    return tally[0]


def _group(key):
    """A catalog group, or with the prefix "aut:" the group Aut(key)."""
    if key.startswith("aut:"):
        return tf.automorphism_group(tf.make_catalog_group(key[4:])).group
    return tf.make_catalog_group(key)


@pytest.mark.parametrize("skey,tkey,bijective,find_all", [
    ("symmetric:3", "symmetric:3", False, True),
    ("dihedral:4", "quaternion:8", False, True),
    ("elemab:2:3", "elemab:2:3", True, True),
    ("quaternion:8", "quaternion:8", True, False),
    ("product:cyclic:2,cyclic:4", "product:cyclic:2,cyclic:4", True, False),
    # three generators each: a complete search whose budget runs out at an
    # inner level, with many prefixes in it
    ("elemab:2:3", "aut:elemab:2:3", False, True),
    ("heisenberg:3", "heisenberg:3", True, True),
])
def test_budget_sweep_matches_reference(skey, tkey, bijective, find_all):
    S, T = _group(skey), _group(tkey)
    nodes = _node_count(S, T, bijective, find_all)
    outcomes = set()
    for budget in {0, 1, nodes // 2, *range(max(0, nodes - 3), nodes + 3)}:
        outcomes.add(type(_same_search(S, T, bijective, find_all, budget)))
    assert outcomes == {str, list}


def _assert_map_matrix(got, want):
    """``got`` is one read-only, C-contiguous intp matrix whose rows are
    the maps of the list ``want``, in order."""
    assert isinstance(got, np.ndarray) and got.dtype == np.intp
    assert got.flags.c_contiguous and not got.flags.writeable
    assert got.ndim == 2 and got.shape[0] == len(want)
    assert got.tolist() == [m.tolist() for m in want]


@pytest.mark.parametrize("gkey,hkey", [
    ("symmetric:3", "cyclic:6"), ("quaternion:8", "dihedral:4"),
    ("dihedral:4", "elemab:2:2"), ("cyclic:4", "elemab:2:3"),
    ("heisenberg:2", "heisenberg:2")])
def test_hom_sets_are_one_map_matrix(monkeypatch, gkey, hkey):
    # Hom(G, H), Aut(G) and the two sides of the grid (G, H), whose
    # alphas are Hom(H, Aut G) and betas Hom(G, Aut H)
    G, H = _group(gkey), _group(hkey)
    budget = tf.homs.DEFAULT_BUDGET
    _assert_map_matrix(enumerate_homs(G, H),
                       reference_search(G, H, False, True, budget))
    _assert_map_matrix(all_bijective_endomaps(G),
                       reference_search(G, G, True, True, budget))
    grid = tf.compatibility_grid(G, H)
    for got, (K, L) in ((grid.alphas, (H, G)), (grid.betas, (G, H))):
        _assert_map_matrix(got, reference_search(
            K, tf.automorphism_group(L).group, False, True, budget))
    # Aut(G) keeps the matrix of its maps as it is
    fresh = tf.FiniteGroup(G.table, validate=False)
    maps = all_bijective_endomaps(fresh)
    monkeypatch.setattr(tf.automorphisms, "all_bijective_endomaps",
                        lambda K: maps)
    assert tf.automorphism_group(fresh).elements is maps


def test_isomorphism_matches_reference():
    pairs = [("product:cyclic:3,cyclic:4", "cyclic:12"),
             ("dihedral:6", "product:symmetric:3,cyclic:2"),
             ("elemab:2:2", "product:cyclic:2,cyclic:2")]
    pairs += [(key, key) for key, _ in tf.catalog_groups_up_to(16)]
    for gkey, hkey in pairs:
        G = tf.make_catalog_group(gkey)
        H, _ = _relabel(tf.make_catalog_group(hkey), 5)
        want = reference_search(G, H, True, False, tf.homs.DEFAULT_BUDGET)
        assert are_isomorphic(G, H).map.tolist() == want[0].tolist()


def _witness(fn, *args):
    try:
        return fn(*args).map.tolist()
    except NotAHomomorphism as exc:
        return exc.args


def test_hom_from_images_witness_matches_reference():
    rng = np.random.default_rng(12)
    groups = [G for _, G in tf.catalog_groups_up_to(12)]
    outcomes = set()
    for _ in range(300):
        S, T = (groups[i] for i in rng.integers(0, len(groups), size=2))
        gens = list(generating_set(S))
        if rng.random() < 0.3:
            gens += rng.integers(0, S.order, size=2).tolist()
        images = rng.integers(0, T.order, size=len(gens)).tolist()
        if rng.random() < 0.3:
            # images of a genuine hom, so that some candidates extend
            homs = enumerate_homs(S, T)
            images = homs[rng.integers(len(homs))][gens].tolist()
        want = _witness(reference_hom_from_images, S, T, gens, images)
        assert _witness(hom_from_images, S, T, gens, images) == want
        outcomes.add(isinstance(want, list))
    assert outcomes == {True, False}


@pytest.mark.parametrize("block", [1, 7, 50])
def test_small_blocks_change_nothing(monkeypatch, block):
    monkeypatch.setattr(tf.homs, "BLOCK_ENTRIES", block)
    for key in ["symmetric:3", "quaternion:8", "elemab:2:3", "dihedral:5"]:
        G = tf.make_catalog_group(key)
        _same_search(G, G, False, True)
        automorphisms = _same_search(G, G, True, True)
        assert involutive_automorphisms(G).tolist() == _involutions(
            np.array(automorphisms)).tolist()
        _same_search(G, tf.automorphism_group(
            tf.make_catalog_group("elemab:2:2")).group, False, True)


def test_complete_search_memory_is_bounded():
    # a complete search keeps the passing rows of a level, and forces the
    # candidates behind them in blocks: |Aut(elemab:2:4)| = 20160
    G = tf.make_catalog_group("elemab:2:4")
    tracemalloc.start()
    try:
        maps = all_bijective_endomaps(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(maps) == 20160
    assert peak < 12_000_000


def test_complete_search_writes_its_maps_once():
    # the last level keeps the leaves' generator images and forces their
    # maps, in map order, into one matrix; joining the leaves' maps and
    # sorting them took a second and a third copy, 2.14 times the result
    G = FiniteGroup(tf.make_catalog_group("elemab:2:4").table,
                    validate=False)
    tracemalloc.start()
    try:
        maps = all_bijective_endomaps(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (20160, 16) and maps.flags.c_contiguous
    assert peak <= 1.5 * maps.nbytes, peak / maps.nbytes


# -- searches that keep only what their callers keep ----------------------

def _involutions(maps):
    """The rows m of a map matrix with m(m(x)) = x for every x."""
    twice = np.take_along_axis(maps, maps, axis=1)
    return maps[(twice == np.arange(maps.shape[1])).all(axis=1)]


def test_involutive_automorphisms_are_the_filtered_automorphisms():
    # the involution prune drops exactly the automorphisms m with m∘m != id,
    # and keeps the others in their order; verify check 10 reads them all
    total = 0
    for _, G in tf.catalog_groups_up_to(16):
        want = _involutions(all_bijective_endomaps(G))
        _assert_map_matrix(involutive_automorphisms(G), list(want))
        total += len(want)
    assert total == 506


def test_injective_homs_are_the_filtered_homs():
    # every (H, Aut(G)) pair of verify check 08: the injective search keeps
    # the homs whose maps are one-to-one, in their order
    groups = tf.catalog_groups_up_to(8)
    total = 0
    for _, G in groups:
        A = tf.automorphism_group(G).group
        for _, H in groups:
            homs = enumerate_homs(H, A)
            one_to_one = [len(np.unique(m)) == H.order for m in homs]
            want = homs[np.array(one_to_one, dtype=bool)]
            _assert_map_matrix(injective_homs(H, A), list(want))
            total += len(want)
    assert total == 792


def test_involution_search_memory_is_bounded():
    # the search of Aut(elemab:2:4) for its involutions keeps the prefixes
    # the prune lets through and never holds the 20,160 automorphisms
    G = FiniteGroup(tf.make_catalog_group("elemab:2:4").table,
                    validate=False)
    tracemalloc.start()
    try:
        maps = involutive_automorphisms(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(maps) == 316
    assert peak < 2 ** 20, peak
