"""Automorphism groups as concrete permutation tables.

Composition convention (used by every module that multiplies
automorphisms): the product f*g applies the LEFT factor first,
(f*g)(x) = g(f(x)).  As index arrays this is ``compose(f, g) = g[f]``.
Under this convention the conjugation identity
``a(h)^-1 * ghat * a(h) = hat(g^a(h))`` holds literally, which is what the
compatibility machinery relies on.
"""

from __future__ import annotations

import numpy as np

from .errors import CrossCheckFailed, LimitExceeded
from .groups import (BLOCK_ENTRIES, MAX_CATALOG_ORDER, FiniteGroup,
                     conjugation_maps)
from .homs import all_bijective_endomaps, generating_set


class AutGroup:
    """Aut(G) with its elements stored as explicit index maps.

    ``group`` is the Cayley table of composition and ``inner_of[g]`` the
    index of the inner automorphism induced by conjugation by g.
    """

    __slots__ = ("base", "elements", "group", "inner_of")

    def __init__(self, base, elements, group, inner_of):
        self.base = base
        self.elements = elements
        self.group = group
        self.inner_of = inner_of

    @property
    def order(self):
        return len(self.elements)

    def __repr__(self):
        return f"AutGroup(|G|={self.base.order}, order={self.order})"


def automorphism_group(G):
    """Enumerate Aut(G) by backtracking on generator images.

    Elements come out in lexicographic map order; the result is cached on
    the group object (construction is pure, so sharing is safe).  That is
    also the order of the images of ``generating_set(G)``, which fix an
    automorphism (each element before the j-th generator lies in the
    subgroup of the earlier ones), so products are looked up by those.
    Above MAX_CATALOG_ORDER automorphisms, LimitExceeded is raised before
    the |Aut| x |Aut| table is allocated.
    """
    if G._aut is not None:
        return G._aut
    maps = all_bijective_endomaps(G)
    n = len(maps)
    if n > MAX_CATALOG_ORDER:
        raise LimitExceeded(f"|Aut(G)| = {n} exceeds the "
                            f"{MAX_CATALOG_ORDER}-element cap for its table")
    elements = np.array(maps, dtype=np.intp).reshape(n, G.order)
    elements.setflags(write=False)
    gens = generating_set(G)
    if G.order ** len(gens) > np.iinfo(np.int64).max:
        raise LimitExceeded(f"{len(gens)} generator images of an order-"
                            f"{G.order} group do not fit a 64-bit key")
    # generator-image rows as mixed-radix keys, increasing with the index
    radix = G.order ** np.arange(len(gens) - 1, -1, -1, dtype=np.int64)
    keys = elements[:, gens] @ radix
    table = np.empty((n, n), dtype=np.intp)
    step = max(1, BLOCK_ENTRIES // (n * max(1, len(gens))))
    for i in range(0, n, step):
        # [j, i']: the key of f_i' * f_j, whose images are f_j(f_i'(s))
        composed = elements[:, elements[i:i + step, gens]] @ radix
        table[i:i + step] = _key_index(keys, composed.T)
    group = FiniteGroup(table, validate=False)
    inner_of = _key_index(keys, conjugation_maps(G)[:, gens] @ radix)
    aut = AutGroup(G, elements, group, inner_of)
    G._aut = aut
    return aut


def _aut_conj_table(aut):
    """conj[g, a] = index of ghat^-1 * a * ghat in Aut(G)."""
    t, ghat = aut.group.table, aut.inner_of
    return t[t[aut.group.inverse[ghat]], ghat[:, None]]


def normalizer_contains_inn(aut, maps):
    """Does Inn(G) normalize the image of each homomorphism into Aut(G)?

    ``maps`` stacks the maps of homomorphisms into ``aut.group``, one row
    of Aut indices each.  Returns one bool per row: whether every
    ghat^-1 a ghat, for g in G and a in the row's image, is in that image.
    Rows are decided in blocks of at most BLOCK_ENTRIES entries.
    """
    maps = np.asarray(maps, dtype=np.intp)
    conj = _aut_conj_table(aut)
    normal = np.empty(len(maps), dtype=bool)
    step = max(1, BLOCK_ENTRIES // (conj.shape[0] * maps.shape[1]
                                    + aut.order))
    for s in range(0, len(maps), step):
        block = maps[s:s + step]
        rows = np.arange(len(block))
        member = np.zeros((len(block), aut.order), dtype=bool)
        member[rows[:, None], block] = True
        # [r, x, g]: is ghat^-1 block[r, x] ghat in the image of row r
        inside = member[rows[:, None, None], conj.T[block]]
        normal[s:s + step] = inside.all(axis=(1, 2))
    return normal


def _key_index(keys, wanted):
    """Positions of ``wanted`` in the increasing array ``keys``."""
    pos = np.searchsorted(keys, wanted)
    if not np.array_equal(keys[np.minimum(pos, len(keys) - 1)], wanted):
        raise CrossCheckFailed("a composite of automorphisms is not among "
                               "the enumerated automorphisms")
    return pos
