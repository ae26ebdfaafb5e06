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

from .errors import CrossCheckFailed, LimitExceeded, NotASubgroup
from .groups import BLOCK_ENTRIES, FiniteGroup, conjugation_maps
from .homs import all_bijective_endomaps, generating_set


def compose_maps(first, then):
    """Product under the apply-left-factor-first convention."""
    return np.asarray(then)[np.asarray(first)]


class AutGroup:
    """Aut(G) with its elements stored as explicit index maps.

    ``group`` is the Cayley table of composition, ``inner_indices`` the
    sorted element indices forming Inn(G), and ``inner_of[g]`` the index
    of the inner automorphism induced by conjugation by g.
    """

    __slots__ = ("base", "elements", "group", "inner_indices", "inner_of",
                 "_index")

    def __init__(self, base, elements, group, inner_indices, inner_of, index):
        self.base = base
        self.elements = elements
        self.group = group
        self.inner_indices = inner_indices
        self.inner_of = inner_of
        self._index = index

    @property
    def order(self):
        return len(self.elements)

    def index_of(self, mapping):
        """Index of an automorphism map, or None if not an automorphism."""
        return self._index.get(tuple(int(v) for v in mapping))

    def __repr__(self):
        return f"AutGroup(|G|={self.base.order}, order={self.order})"


def automorphism_group(G, budget=None):
    """Enumerate Aut(G) by backtracking on generator images.

    Elements come out in lexicographic map order; the result is cached on
    the group object (construction is pure, so sharing is safe).  That is
    also the order of the images of ``generating_set(G)``, which fix an
    automorphism (each element before the j-th generator lies in the
    subgroup of the earlier ones), so products are looked up by those.
    """
    if G._aut is not None:
        return G._aut
    maps = all_bijective_endomaps(G, budget=budget)
    n = len(maps)
    index = {tuple(int(v) for v in m): i for i, m in enumerate(maps)}
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
    inner_indices = sorted(set(int(i) for i in inner_of))
    aut = AutGroup(G, elements, group, inner_indices, inner_of, index)
    G._aut = aut
    return aut


def is_subgroup_of_aut(aut, indices):
    members = set(int(i) for i in indices)
    if aut.group.identity not in members:
        return False
    return all(aut.group.mul(a, b) in members for a in members for b in members)


def normalizer_contains_inn(aut, image):
    """Does Inn(G) normalize the given subgroup of Aut(G)?

    ``image`` is a set of element indices of ``aut.group`` and must be a
    subgroup.  Returns (True, None) or (False, (g, member)) where
    conjugating ``member`` by the inner automorphism of g leaves the
    subgroup.
    """
    members = sorted(set(int(i) for i in image))
    if not is_subgroup_of_aut(aut, members):
        raise NotASubgroup("image is not a subgroup of Aut(G)")
    mset = set(members)
    t = aut.group.table
    inv = aut.group.inverse
    for g in range(aut.base.order):
        ghat = int(aut.inner_of[g])
        for m in members:
            conj = int(t[t[inv[ghat], m], ghat])
            if conj not in mset:
                return False, (g, m)
    return True, None


def _key_index(keys, wanted):
    """Positions of ``wanted`` in the increasing array ``keys``."""
    pos = np.searchsorted(keys, wanted)
    if not np.array_equal(keys[np.minimum(pos, len(keys) - 1)], wanted):
        raise CrossCheckFailed("a composite of automorphisms is not among "
                               "the enumerated automorphisms")
    return pos
