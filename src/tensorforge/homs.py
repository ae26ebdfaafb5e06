"""Homomorphism search: extension from generator images, exhaustive
enumeration, and isomorphism testing.

All searches are backtracking over images of a greedily-chosen minimal
generating set, pruned level by level on the subgroup chain it induces.
The node budget (default 10^6) turns runaway searches into BudgetExceeded
rather than silent wrong answers.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, GensDoNotGenerate, NotAHomomorphism
from .groups import GroupHom, subgroup_generated

DEFAULT_BUDGET = 10 ** 6


def generating_set(G):
    """Greedy minimal generating set: repeatedly add the first element that
    enlarges the generated subgroup.  A tuple, computed once and cached on
    the group."""
    if G._gens is None:
        gens = []
        cur = subgroup_generated(G, gens)
        while cur.order < G.order:
            for x in range(G.order):
                if x not in cur:
                    gens.append(x)
                    cur = subgroup_generated(G, gens)
                    break
        G._gens = tuple(gens)
    return G._gens


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


def hom_from_images(source, target, gens, images):
    """The unique homomorphism extending gens -> images, if it exists."""
    if len(gens) != len(images):
        raise ValueError("gens and images must have the same length")
    if subgroup_generated(source, gens).order != source.order:
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
    return GroupHom(source, target, pm, validate=False)


def _candidate_images(source_gen_order, target, exact_order):
    orders = target.element_orders()
    if exact_order:
        return [int(t) for t in np.flatnonzero(orders == source_gen_order)]
    return [int(t) for t in np.flatnonzero(source_gen_order % orders == 0)]


def _search(source, target, bijective, find_all, budget):
    """Shared backtracking core for enumerate_homs / are_isomorphic /
    automorphism enumeration."""
    gens = generating_set(source)
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
    return found


def enumerate_homs(source, target, budget=None):
    """All homomorphisms source -> target, lexicographic in the full map."""
    budget = DEFAULT_BUDGET if budget is None else budget
    maps = _search(source, target, bijective=False, find_all=True,
                   budget=budget)
    maps.sort(key=lambda m: tuple(m))
    return [GroupHom(source, target, m, validate=False) for m in maps]


def are_isomorphic(G, H, budget=None):
    """An isomorphism G -> H if one exists, else None.

    Cheap invariants are compared first; only then is the backtracking
    search run.  A blown budget raises -- it never reports 'not
    isomorphic' on timeout.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    if G.order != H.order:
        return None
    if G.is_abelian != H.is_abelian:
        return None
    if G.order_histogram() != H.order_histogram():
        return None
    from .groups import center
    if center(G).order != center(H).order:
        return None
    from .abelian import abelian_invariants
    if abelian_invariants(G) != abelian_invariants(H):
        return None
    maps = _search(G, H, bijective=True, find_all=False, budget=budget)
    if not maps:
        return None
    return GroupHom(G, H, maps[0], validate=False)


def all_bijective_endomaps(G, budget=None):
    """All automorphism maps of G, sorted lexicographically."""
    budget = DEFAULT_BUDGET if budget is None else budget
    maps = _search(G, G, bijective=True, find_all=True, budget=budget)
    maps.sort(key=lambda m: tuple(m))
    return maps
