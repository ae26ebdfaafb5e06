"""Automorphism groups as concrete permutation tables.

Composition convention (used by every module that multiplies
automorphisms): the product f*g applies the LEFT factor first,
(f*g)(x) = g(f(x)).  As index arrays this is ``compose(f, g) = g[f]``.
Under this convention the conjugation identity
``a(h)^-1 * ghat * a(h) = hat(g^a(h))`` holds literally, which is what the
compatibility machinery relies on.

Aut(G) is built the way ``table_to_group`` builds a group from a coset
table, from the right multiplications by its generators
(``groups.from_columns``).  A greedy generating set of Aut(G) is found
by looking up the products x*s with each new generator s for every x,
|Aut| binary searches over generator-image keys per generator.  That is
|Aut| x (number of generators) key searches, not |Aut|^2.  The Cayley
table is gathered along the generators' spanning tree only when it is
read: the column of p*s is the column of p read through the column of
s.  A search for homs into Aut(G), as the grids make, reads it, and so
does ``groups.conjugates`` in Aut(G), for the grids, their orbit moves
and ``normalizer_contains_inn``; ``tensor.hom_pair_tensor_classes`` and
verify check 12 read Aut(G) only through its generators' columns, its
inverses and ``search_set``, and never build it.
"""

from __future__ import annotations

import numpy as np

from .errors import LimitExceeded
from .groups import (BLOCK_ENTRIES, MAX_CATALOG_ORDER, conjugates,
                     conjugation_maps, enumerated_index, from_columns,
                     generating_set, greedy_generators, spanning_tree)
from .homs import all_bijective_endomaps


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
    """Enumerate Aut(G) and build its Cayley table from its generators.

    The automorphisms are enumerated by backtracking on the images of
    ``homs.search_set(G)``, the greedy generators less those the others
    generate, and come out in lexicographic map order (sorted by their
    greedy images when that set is shorter), so the identity map is
    element 0; the result is cached on the group object (construction is
    pure, so sharing is safe).  That is also the order of the images of
    ``generating_set(G)``, which fix an automorphism (each element before
    the j-th generator lies in the subgroup of the earlier ones), so an
    automorphism is found by those images, as a key, with one binary
    search.

    Only the products x*s with s in a greedy generating set of Aut(G) are
    looked up, |Aut| keys per generator (``groups.greedy_generators``),
    and the group is built from those columns (``groups.from_columns``),
    whose table is gathered along their spanning tree when it is read.
    The generators are kept as ``generating_set(aut.group)``, the identity
    map alone when Aut(G) is trivial.  CrossCheckFailed is raised when
    such a product is not enumerated: every enumerated map is reached
    from the identity by the generators, so the maps are closed under
    products exactly when they are closed under right multiplication by
    the generators.  Above MAX_CATALOG_ORDER automorphisms, LimitExceeded
    is raised before the table is allocated.
    """
    if G._aut is not None:
        return G._aut
    elements = all_bijective_endomaps(G)
    n = len(elements)
    if n > MAX_CATALOG_ORDER:
        raise LimitExceeded(f"|Aut(G)| = {n} exceeds the "
                            f"{MAX_CATALOG_ORDER}-element cap for its table")
    gens = generating_set(G)
    if G.order ** len(gens) > np.iinfo(np.int64).max:
        raise LimitExceeded(f"{len(gens)} generator images of an order-"
                            f"{G.order} group do not fit a 64-bit key")
    # generator-image rows as mixed-radix keys, increasing with the index
    radix = G.order ** np.arange(len(gens) - 1, -1, -1, dtype=np.int64)
    keys = elements[:, gens] @ radix
    # x*s applies x first, so its image of a generator g is s(x(g))
    aut_gens, rows, _ = greedy_generators(
        n, 0, lambda s: enumerated_index(
            keys, elements[s][elements[:, gens]] @ radix,
            "a composite of automorphisms"), range(n))
    group = from_columns(rows, spanning_tree(rows))
    group._gens = np.array(aut_gens or [0], dtype=np.intp)
    group._gens.setflags(write=False)
    inner_of = enumerated_index(keys, conjugation_maps(G)[:, gens] @ radix,
                                "an inner automorphism")
    aut = AutGroup(G, elements, group, inner_of)
    G._aut = aut
    return aut


def normalizer_contains_inn(aut, maps):
    """Does Inn(G) normalize the image of each homomorphism into Aut(G)?

    ``maps`` stacks the maps of homomorphisms into ``aut.group``, one row
    of Aut indices each.  Returns one bool per row: whether every
    ghat^-1 a ghat, for g in G and a in the row's image, is in that image.
    Rows are decided in blocks of at most BLOCK_ENTRIES entries.
    """
    maps = np.asarray(maps, dtype=np.intp)
    conj = conjugates(aut.group, aut.inner_of)      # ghat^-1 a ghat
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
