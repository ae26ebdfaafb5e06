"""Homomorphism search: extension from generator images, exhaustive
enumeration, and isomorphism testing.  ``isomorphic`` decides isomorphism
of two abelian groups by their invariant factors and searches only for
two non-abelian ones.

One kernel, ``_force``, does the work of all three and of kappa in
``tensor``.  It takes the right-multiplication columns of a generator
tuple, forces a stack of candidate generator images along their
breadth-first ``spanning_tree`` with one gather per tree layer, and
compares map(x*s) with map(x)*image(s) for every reached x and generator
s: the forced map is a homomorphism exactly when every entry is equal.

The search backtracks over images of a generating set.  Level j is the
subgroup generated by the first j + 1 generators, and a prefix is a row
of images of the generators before s_j.  ``descend`` forces every
candidate image of s_j behind every prefix of a block, in blocks of at
most ``BLOCK_ENTRIES`` entries.  A search for every map
(``enumerate_homs``, ``all_bijective_endomaps``) hands all the rows that
pass at level j to level j + 1 at once, so it forces the search tree one
level at a time; a search for one map (``are_isomorphic``) hands them on
one row at a time, so it stops at its first map.

A hom set is one read-only, C-contiguous intp map matrix, a row per
homomorphism.  The last level keeps only the generator images of the
rows that pass, and forces their maps once more, in map order, straight
into that matrix, which is allocated once; a caller that takes one hom
reads its row, and ``GroupHom`` wraps single homs only.

A search keeps only what its caller keeps.  An injective search
(``injective_homs``, ``all_bijective_endomaps``, ``are_isomorphic``)
takes candidate images of the generators' own orders and drops, at every
level, a row whose forced map sends more than the root to the identity.
An involutive search (``involutive_automorphisms``) also drops a row
once map(map(s_i)) is forced for a search generator s_i and differs
from s_i.  Both prunes drop only rows that no map kept by the caller
extends, so the maps left come out in the order of the unpruned search.

A node is one candidate behind one expanded prefix, and the node budget
(default 10^6) turns runaway searches into BudgetExceeded rather than
silent wrong answers.  A complete search expands every prefix that
passes, so it adds the count of a whole level before it forces that
level; a search for one map counts one candidate at a time in
depth-first order.  Both raise exactly when the depth-first count of the
same search passes the budget.

Maps come out in lexicographic order.  In a greedy minimal generating set
(``groups.generating_set``) s_j is the first element outside the subgroup of
s_0, ..., s_(j-1), so every element before it lies in that subgroup, and
two homomorphisms whose generator images first differ at s_j agree on
every element before s_j: maps compare as their tuples of images of the
greedy generators.  Each level keeps its prefixes in order and puts the
candidates behind each prefix in increasing order, so if the prefixes of
level j are in increasing order, so are its rows, and the rows of level
j + 1 are the passing ones in the same order.  By induction from the one
empty prefix, a search over the greedy set meets its leaves in
lexicographic order.  A search for one map relies on this: it runs over
the greedy set, and the first map it meets is the least.

The greedy set can be redundant (quaternion:8 and heisenberg:p are
2-generated, yet their greedy sets have 3 elements), and each redundant
generator costs a complete search a whole level of prefixes x candidates.
A complete search therefore runs over ``search_set``, the greedy set with
every generator dropped that the others generate: Aut(heisenberg:3)
expands 702 nodes instead of 5,694.  Its leaves then come out in the
order of their images of the search set, and when that set differs from
the greedy one, one ``lexsort`` of their images of the greedy generators,
kept from the last level's forced maps, puts their generator images back
in map order before the maps are written.
"""

from __future__ import annotations

import numpy as np

from .abelian import abelian_invariants
from .errors import BudgetExceeded, GensDoNotGenerate, NotAHomomorphism
from .groups import (BLOCK_ENTRIES, GroupHom, center, generating_set,
                     greedy_generators, spanning_tree)

DEFAULT_BUDGET = 10 ** 6


def search_set(G):
    """The greedy generating set with each generator dropped, front to
    back, that the kept others generate: the generators of a complete
    search.  The last greedy generator is never dropped, as the earlier
    ones generate a proper subgroup, so this takes k - 1 closures of the
    kept others by ``groups.greedy_generators``.  A tuple, computed once
    and cached on the group."""
    if G._search_gens is None:
        gens = generating_set(G).tolist()
        for s in gens[:-1]:
            others = [g for g in gens if g != s]
            reached = greedy_generators(G.order, G.identity, G.column,
                                        others)[2]
            if len(reached) == G.order:
                gens.remove(s)
        G._search_gens = tuple(gens)
    return G._search_gens


def _force(rows, root, tree, target, images):
    """Force each row of ``images`` along ``tree = spanning_tree(rows,
    root)``, sending ``root`` to the identity of ``target``.

    ``rows[x, s]`` is x times generator s and ``images[c, s]`` the image
    of generator s under candidate c.  Returns (maps, ok, reached):
    ``maps[c]`` is candidate c's forced map, -1 off the tree; ``reached``
    lists the tree's elements in breadth-first order; and
    ``ok[c, i, s]`` says whether map(x*s) == map(x)*image(s) at
    x = reached[i].
    """
    images = np.asarray(images, dtype=np.intp)
    maps = np.full((len(images), len(rows)), -1, dtype=np.intp)
    _fill_maps(root, tree, target, images, maps)
    reached = np.concatenate([[root]] + [c for c, _, _ in tree])
    forced = maps[:, reached, None]
    ok = maps[:, rows[reached]] == target.table[forced, images[:, None, :]]
    return maps, ok, reached


def _fill_maps(root, tree, target, images, maps):
    """Force each row of ``images`` along ``tree`` into the same row of
    ``maps``, one gather per tree layer, sending ``root`` to the identity
    of ``target``; entries off the tree are left as they are.  The
    products are read from the flat table, x * order + y, as one 1-D
    gather is about twice as fast as a 2-D one."""
    flat, width = target.table.ravel(), target.order
    maps[:, root] = target.identity
    for cosets, parents, cols in tree:
        maps[:, cosets] = flat[maps[:, parents] * width + images[:, cols]]


def hom_from_images(source, target, gens, images):
    """The unique homomorphism extending gens -> images, if it exists.

    Otherwise NotAHomomorphism names the first (x, s), in breadth-first
    order of x and then generator order, where map(x*s) != map(x)*image(s).
    """
    if len(gens) != len(images):
        raise ValueError("gens and images must have the same length")
    rows = source.table[:, np.asarray(gens, dtype=np.intp)]
    tree = spanning_tree(rows, source.identity)
    if 1 + sum(len(cosets) for cosets, _, _ in tree) != source.order:
        raise GensDoNotGenerate("given elements do not generate the source")
    maps, ok, reached = _force(rows, source.identity, tree, target, [images])
    if not ok.all():
        x, i = divmod(int(np.argmin(ok)), len(gens))
        raise NotAHomomorphism((int(reached[x]), int(gens[i])))
    return GroupHom(source, target, maps[0])


def _candidate_images(source_gen_order, target, exact_order):
    orders = target.element_orders()
    if exact_order:
        return np.flatnonzero(orders == source_gen_order)
    return np.flatnonzero(source_gen_order % orders == 0)


def _search(source, target, injective, find_all, budget,
            involutive=False):
    """Shared backtracking core for enumerate_homs / injective_homs /
    are_isomorphic / automorphism enumeration; the maps come out in
    lexicographic order (module docstring).

    A complete search runs over ``search_set(source)`` and, when that
    differs from ``generating_set(source)``, sorts its leaves by their
    images of the greedy generators.  A search for one map runs over the
    greedy set, so that the first map it meets is the least.

    The prunes (module docstring): an injective search drops a row whose
    forced map has a nontrivial kernel, and an involutive one (source is
    target) a row with a forced map(map(s_i)) other than s_i; entries
    still -1 are off the level's tree and pass.  At the last level the
    involution test is exact, as an endomorphism that fixes every
    generator is the identity.

    A generating set is never empty: a trivial source's is its identity,
    whose only candidate image is the target's identity, and the search
    forces the one map."""
    greedy = generating_set(source)
    gens = search_set(source) if find_all else greedy
    k = len(gens)
    rows = source.table[:, gens]
    root = source.identity
    trees = [spanning_tree(rows[:, :j + 1], root) for j in range(k)]
    cand = [_candidate_images(source.element_order(s), target, injective)
            for s in gens]
    # the generator images of the leaves and, to sort them into map order,
    # their images of the greedy generators
    leaves = np.empty((0, k), dtype=np.intp)
    order_keys = [np.empty((0, len(greedy)), dtype=np.intp)]
    nodes = 0

    def count(more):
        nonlocal nodes
        nodes += more
        if nodes > budget:
            raise BudgetExceeded(f"hom search exceeded {budget} nodes")

    def level_rows(j, prefixes, picks):
        """Rows ``picks`` of level j behind ``prefixes``: row r is prefix
        r // width, then candidate r % width, so rows ascend with r."""
        width = len(cand[j])
        images = np.empty((len(picks), j + 1), dtype=np.intp)
        images[:, :j] = prefixes[picks // width]
        images[:, j] = cand[j][picks % width]
        return images

    def descend(j, prefixes):
        """Try every candidate image of generator j behind every row of
        ``prefixes``; True once a search that wants one map has found it.
        The last level leaves the generator images of the maps that pass
        in ``leaves``."""
        nonlocal leaves
        total = len(prefixes) * len(cand[j])
        if find_all:
            # a complete search expands every prefix: count the level first
            count(total)
        step = max(1, BLOCK_ENTRIES // (source.order * (j + 1)))
        # a level without candidate images passes no row
        passing = [np.empty(0, dtype=np.intp)]
        for start in range(0, total, step):
            picks = np.arange(start, min(start + step, total))
            images = level_rows(j, prefixes, picks)
            maps, ok, _ = _force(rows[:, :j + 1], root, trees[j], target,
                                 images)
            passed = ok.all(axis=(1, 2))
            if injective:
                passed &= (maps == target.identity).sum(axis=1) == 1
            if involutive:
                twice = np.take_along_axis(maps, images, axis=1)
                passed &= ((twice == -1)
                           | (twice == gens[:j + 1])).all(axis=1)
            passing.append(picks[passed])
            if j == k - 1 and k != len(greedy):
                order_keys.append(maps[passed][:, greedy])
        passing = np.concatenate(passing)
        if find_all:
            if j == k - 1:
                leaves = level_rows(j, prefixes, passing)
            elif len(passing):
                descend(j + 1, level_rows(j, prefixes, passing))
            return False
        # one prefix: one node per candidate in depth-first order, and the
        # candidates that fail are counted in bulk up to the next that passes
        counted = 0
        for rank, i in enumerate(passing.tolist()):
            count(i + 1 - counted)
            counted = i + 1
            if j == k - 1:
                leaves = level_rows(j, prefixes, passing[rank:rank + 1])
                return True
            if descend(j + 1, level_rows(j, prefixes, passing[rank:rank + 1])):
                return True
        count(total - counted)
        return False

    descend(0, np.empty((1, 0), dtype=np.intp))
    if k != len(greedy):
        # leaves found over a shorter subsequence come out of map order
        leaves = leaves[np.lexsort(np.concatenate(order_keys).T[::-1])]
    # each map is forced once more, straight into its row of the result
    found = np.empty((len(leaves), source.order), dtype=np.intp)
    step = max(1, BLOCK_ENTRIES // source.order)
    for start in range(0, len(leaves), step):
        _fill_maps(root, trees[-1], target, leaves[start:start + step],
                   found[start:start + step])
    found.setflags(write=False)
    return found


def enumerate_homs(source, target, budget=None):
    """All homomorphisms source -> target as one map matrix, one row
    each, lexicographic in the full map (module docstring)."""
    budget = DEFAULT_BUDGET if budget is None else budget
    return _search(source, target, injective=False, find_all=True,
                   budget=budget)


def injective_homs(source, target):
    """The injective homomorphisms source -> target, the rows of
    ``enumerate_homs(source, target)`` with a trivial kernel, in the same
    order."""
    return _search(source, target, injective=True, find_all=True,
                   budget=DEFAULT_BUDGET)


def are_isomorphic(G, H):
    """An isomorphism G -> H if one exists, else None.

    Cheap invariants are compared first; only then is the backtracking
    search run.  A blown budget raises -- it never reports 'not
    isomorphic' on timeout.
    """
    if G.order != H.order:
        return None
    if G.is_abelian != H.is_abelian:
        return None
    if G.order_histogram() != H.order_histogram():
        return None
    if center(G).order != center(H).order:
        return None
    if abelian_invariants(G) != abelian_invariants(H):
        return None
    maps = _search(G, H, injective=True, find_all=False,
                   budget=DEFAULT_BUDGET)
    if not len(maps):
        return None
    return GroupHom(G, H, maps[0])


def isomorphic(G, H):
    """Whether G and H are isomorphic.

    By the structure theorem two finite abelian groups are isomorphic
    exactly when their invariant factors agree, and no abelian group is
    isomorphic to a non-abelian one; only two non-abelian groups of one
    order are searched, by ``are_isomorphic``.  Callers that want the map
    call that.
    """
    if G.order != H.order:
        return False
    if G.is_abelian and H.is_abelian:
        return abelian_invariants(G) == abelian_invariants(H)
    if G.is_abelian or H.is_abelian:
        return False
    return are_isomorphic(G, H) is not None


def all_bijective_endomaps(G):
    """All automorphisms of G as one map matrix, one row each, in
    lexicographic order (module docstring)."""
    return _search(G, G, injective=True, find_all=True,
                   budget=DEFAULT_BUDGET)


def involutive_automorphisms(G):
    """The automorphisms m of G with m(m(x)) = x, the rows of
    ``all_bijective_endomaps(G)`` that are involutions or the identity, in
    the same order."""
    return _search(G, G, injective=True, find_all=True,
                   budget=DEFAULT_BUDGET, involutive=True)
