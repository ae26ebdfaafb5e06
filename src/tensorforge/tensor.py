"""Non-abelian tensor products G (x) H via coset enumeration.

The defining presentation has one generator per symbol (g, h) and the two
biderivation relation families, built as one array of words by gathers
from the group tables and the actions; a compatible action pair is
required (the construction is only meaningful for one), enumeration turns
the presentation into a concrete group, and the attached structures --
the derivative subgroup [G, H] and the homomorphism kappa with its
central kernel -- are computed and cross-checked.  Kappa is forced by the
hom-search kernel ``homs._force`` over the survivors' columns of the coset
table, along its spanning tree, the product's one tree, and checked on
every coset and column at once; one lookup per letter then checks each
symbol against its column (``_force_images``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .abelian import abelian_invariants
from .actions import (action_from_hom_pair, hom_classes, is_compatible,
                      pair_orbits)
from .automorphisms import automorphism_group
from .errors import CrossCheckFailed, IncompatibleActions, LimitExceeded
from .groups import FiniteGroup, GroupHom, Subgroup, center, commuting_with, \
    conjugation_maps, coset_labels, enumerated_index, first_occurrences, \
    generating_set, nilpotency_class, row_keys, subgroup_generated
from .homs import _force, enumerate_homs, isomorphic, search_set
from .presentations import Presentation, coset_enumerate, table_to_group

MAX_SYMBOLS = 256


@dataclass
class TensorReport:
    tensor: FiniteGroup
    symbol_map: dict                 # (g, h) -> tensor element
    kappa: Optional[GroupHom]       # tensor -> G; None when kappa does not
                                     # extend (only possible for per-element
                                     # assignments that are not genuine
                                     # actions)
    derivative: Subgroup             # D_H(G) = [G, H] <= G
    kernel: Optional[Subgroup]      # A = ker kappa <= tensor
    invariants: Optional[list]      # invariant factors, when tensor abelian
    nilpotency: Optional[int]

    @property
    def order(self):
        return self.tensor.order

    def symbol(self, g, h):
        return self.symbol_map[(g, h)]


def tensor_presentation(pair, force=False):
    """Presentation of G (x) H over one generator per (g, h) symbol.

    Relator families (deterministic order, first family before second):
      gg1 (x) h  = (g^g1 (x) h^g1)(g1 (x) h)        lex in (g, g1, h)
      g (x) hh1  = (g (x) h1)(g^h1 (x) h^h1)        lex in (g, h, h1)
    Duplicate relators are dropped, keeping first occurrence.  The
    symbol cap is checked first; an incompatible pair is refused unless
    ``force``, which skips the compatibility check.
    """
    G, H = pair.G, pair.H
    n, m = G.order, H.order
    if n * m > MAX_SYMBOLS:
        raise LimitExceeded(
            f"{n * m} symbols exceed the {MAX_SYMBOLS}-symbol cap")
    if not force:
        report = is_compatible(pair)
        if not report.compatible:
            raise IncompatibleActions(report.witness)

    symbols = {(g, h): g * m + h + 1 for g in range(n) for h in range(m)}
    return Presentation(n * m, _biderivation_words(pair)), symbols


def _biderivation_words(pair):
    """The relators of ``tensor_presentation`` as one words x 3 array:
    each family in lexicographic order, the first family before the
    second, duplicates dropped by first occurrence."""
    G, H = pair.G, pair.H
    n, m = G.order, H.order
    A, B = pair.alpha_maps, pair.beta_maps
    # symbols (g, h) as g*m + h over grids (g, g1, h), then (g, h, h1)
    g, g1, h = (np.arange(n)[:, None, None], np.arange(n)[:, None],
                np.arange(m))
    gc = conjugation_maps(G)[g1, g]                     # g^g1
    first = (G.table[g, g1] * m + h, gc * m + B[g1, h], g1 * m + h)
    h, h1 = np.arange(m)[:, None], np.arange(m)
    hc = conjugation_maps(H)[h1, h]                     # h^h1
    second = (g * m + H.table[h, h1], g * m + h1, A[h1, g] * m + hc)
    words = np.empty((n * n * m + n * m * m, 3), dtype=np.intp)
    for block, family, shape in ((words[:n * n * m], first, (n, n, m)),
                                 (words[n * n * m:], second, (n, m, m))):
        for k, symbols in enumerate(family):
            block.reshape(*shape, 3)[..., k] = symbols
    keys = (words[:, 0] * (n * m) + words[:, 1]) * (n * m) + words[:, 2]
    words = words[first_occurrences(keys)] + 1
    words[:, 0] *= -1                   # the first letter is inverted
    return words


def compute_tensor(pair, force=False, max_cosets=None):
    """Enumerate the tensor presentation and assemble the full report."""
    presentation, symbols = tensor_presentation(pair, force=force)
    table = coset_enumerate(presentation, max_cosets=max_cosets)
    tensor, gen_images = table_to_group(table)
    G, H = pair.G, pair.H
    m = H.order
    symbol_map = {(g, h): gen_images[g * m + h]
                  for g in range(G.order) for h in range(m)}
    # kappa(g (x) h) = g^-1 g^h, forced over the whole tensor group from
    # coset 0 along the table's tree of the survivors' columns; its images
    # on the symbols generate the derivative
    images = _kappa_images(pair)
    derivative = subgroup_generated(G, np.bincount(images).nonzero()[0])
    kappa_map = _force_images(table, G, images)
    if kappa_map is None:
        # kappa always extends when both assignments are genuine actions;
        # a failure certifies the pair only satisfies the equations
        # pointwise
        if pair.assignments_are_homs():
            raise CrossCheckFailed(
                "kappa does not extend although both assignments are "
                "actions")
        kappa, kernel = None, None
    else:
        kappa = GroupHom(tensor, G, kappa_map)
        if tuple(np.bincount(kappa.map).nonzero()[0].tolist()) \
                != derivative.members:
            raise CrossCheckFailed("the image of kappa is not [G, H]")
        kernel = kappa.kernel()
        _assert_central(tensor, kernel)
        if tensor.order != kernel.order * derivative.order:
            raise CrossCheckFailed(
                f"|G (x) H| = {tensor.order} is not |ker kappa| * |[G, H]| "
                f"= {kernel.order} * {derivative.order}")
    invariants = abelian_invariants(tensor) if tensor.is_abelian else None
    return TensorReport(tensor=tensor, symbol_map=symbol_map, kappa=kappa,
                        derivative=derivative, kernel=kernel,
                        invariants=invariants,
                        nilpotency=nilpotency_class(tensor))


def _force_images(table, G, images):
    """The map from the enumerated group to G that sends each symbol to
    ``images``, or None when no homomorphism does.

    It is forced over the survivors' columns of ``table.reduced`` along
    the table's tree, each column sent to the image of a letter that
    reads it, an inverse letter to the inverse image, and checked on
    every coset and column.  One lookup per letter then checks that its
    image equals its column's, and is the identity where it reads the
    identity column.  Together these are the check over every letter's
    column of the expanded table: x * l = x * c for the column c that l
    reads, so map(x * l) = map(x) image(l) at every x iff image(l) =
    image(c), or the identity for a killed symbol.  Both checks pass for
    the same maps, and force them along the same tree."""
    letters, ncols = table.letters, table.reduced.shape[1]
    full = np.column_stack([images, G.inverse[images]]).ravel()
    column_images = np.empty(ncols + 1, dtype=np.intp)
    column_images[letters] = full
    column_images[ncols] = G.identity
    maps, ok, _ = _force(table.reduced, 0, table.tree, G,
                         column_images[None, :ncols])
    if ok.all() and (column_images[letters] == full).all():
        return maps[0]
    return None


def _assert_central(tensor, kernel):
    bad = np.flatnonzero(kernel.mask() & ~commuting_with(
        tensor, generating_set(tensor)))
    if len(bad):
        raise CrossCheckFailed(f"kernel element {bad[0]} is not central")


def _kappa_images(pair):
    """g^-1 g^h for every symbol (g, h), in symbol order."""
    G = pair.G
    return G.table[G.inverse[:, None], pair.alpha_maps.T].ravel()


def derivative_subgroup(pair):
    """D_H(G) = [G, H], generated by all g^-1 g^h."""
    return subgroup_generated(pair.G,
                              np.bincount(_kappa_images(pair)).nonzero()[0])


def hom_pair_tensor_classes(G, budget=None):
    """The tensor squares of G under the conjugation actions induced by
    every hom pair (phi, psi) in End(G) x End(G), up to isomorphism.

    The actions depend only on phi and psi modulo Z(G), so the products
    depend only on their pair of classes.  Renaming the first copy of G by
    an automorphism sigma sends (phi, psi) to (phi sigma^-1, sigma psi),
    and renaming the second copy to (sigma phi, psi sigma^-1); renamed
    pairs have isomorphic products, and automorphisms fix Z(G), so the
    moves act on class pairs.  Swapping (phi, psi) to (psi, phi) gives
    the swapped action pair, whose product is isomorphic by g (x) h ->
    (h (x) g)^-1 (``actions.compatible_pair_orbits``).  One product is
    computed per orbit of Aut(G) x Aut(G) and the swap on class pairs
    (``actions.pair_orbits``, moved by each sigma in ``search_set`` of
    Aut(G) on either side and by the transpose), in increasing order of
    the orbit's least class pair, and weighted by the hom pairs of all
    its class pairs.  An isomorphism class of products is thus met first
    at its least class pair, as in a loop over every class pair.
    Returns the number of homs, of hom pairs, and one row per isomorphism
    class of products, ordered by (order, invariants), with an example
    pair and the number of hom pairs giving it.

    Only a group all of whose hom pairs induce compatible actions is
    classified.  Otherwise IncompatibleActions names the witness of the
    least incompatible class pair: compatibility is constant on each
    orbit, so that pair is the least of the first incompatible orbit.
    symmetric:3 is refused so.
    """
    maps = enumerate_homs(G, G, budget=budget)
    gens = generating_set(G)
    first, sizes, class_of = hom_classes(maps[:, gens],
                                         coset_labels(G, center(G))[1])
    # the class of sigma after each class's first member, and of that
    # member after sigma^-1, found by the member's generator images
    keys, reps = row_keys(maps[:, gens]), maps[first]
    aut = automorphism_group(G)
    moves = []
    for s in search_set(aut.group):
        sigma, undo = aut.elements[s], aut.elements[aut.group.inverse[s]]
        after, before = (
            class_of[enumerated_index(keys, row_keys(moved),
                                      "a relabelled homomorphism")]
            for moved in (sigma[reps[:, gens]], reps[:, undo[gens]]))
        # (sigma, 1) and (1, sigma) on (class of phi, class of psi)
        moves += [(before, after), (after, before)]
    n = len(first)
    _, label = pair_orbits(np.ones((n, n), dtype=bool), moves, swap=True)
    weights = np.zeros(n * n, dtype=np.int64)
    np.add.at(weights, label, np.outer(sizes, sizes).ravel())
    rows = []
    for least in np.flatnonzero(np.bincount(label)).tolist():
        a, b = divmod(least, n)
        i, j = int(first[a]), int(first[b])
        count = int(weights[least])
        rep = compute_tensor(action_from_hom_pair(G, G, maps[i], maps[j]))
        for row in rows:
            # products with unequal invariants (None when non-abelian)
            # are not isomorphic; isomorphic decides the rest, searching
            # only when both are non-abelian
            if row["invariants"] == rep.invariants and \
                    isomorphic(row["_witness"], rep.tensor):
                row["n_hom_pairs"] += count
                break
        else:
            rows.append({"order": rep.order,
                         "abelian": bool(rep.tensor.is_abelian),
                         "invariants": rep.invariants,
                         "nilpotency": rep.nilpotency,
                         "example_phi": i, "example_psi": j,
                         "n_hom_pairs": count,
                         "_witness": rep.tensor})
    for row in rows:
        del row["_witness"]
    rows.sort(key=lambda r: (r["order"], str(r["invariants"])))
    return {"n_homs": len(maps), "n_hom_pairs": len(maps) ** 2,
            "classes": rows}
