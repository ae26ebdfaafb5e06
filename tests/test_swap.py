"""The swap oracle: G (x) H is isomorphic to H (x) G by g (x) h -> (h (x)
g)^-1 (Brown and Loday, Topology 26, 1987).

The isomorphism holds at the level of the presentation.  Renaming each
symbol (g, h) of ``tensor_presentation(pair)`` to the inverse of the
symbol (h, g) of ``tensor_presentation(pair.swapped())`` carries the
relator gg1 (x) h = (g^g1 (x) h^g1)(g1 (x) h) of the first family to
h (x) gg1 = (h (x) g1)(h^g1 (x) g^g1) of the second family of the swapped
pair, and the second family onto the first in the same way.  So the
relators of the two presentations agree up to rotation and inversion,
for any assignments, actions or not.  Verify checks 05 and 06 and the
hom-pair classes compute one product per swapped pair on this ground.
"""

import numpy as np
import pytest

import tensorforge as tf
from tensorforge import verify
from tensorforge.actions import (ActionPair, compatibility_grid,
                                 compatible_pair_orbits, involution_pair,
                                 named_action)
from tensorforge.catalog import catalog_groups_up_to
from tensorforge.homs import hom_from_images
from tensorforge.tensor import compute_tensor, tensor_presentation


def _cyclic_class(word):
    """The least rotation of the cyclically reduced word or of its
    inverse.  The presentation reduces its words only freely, and the
    renaming takes (g1 (x) h)^-1 (1 (x) h^g1)(g1 (x) h) to a conjugate of
    a relator that is one letter."""
    while len(word) > 1 and word[0] == -word[-1]:
        word = word[1:-1]
    inverse = tuple(-x for x in reversed(word))
    return min(w[k:] + w[:k] for w in (word, inverse)
               for k in range(len(w)))


def _swapped_symbol(pair):
    """letter -> its image under (g, h) -> (h, g)^-1: the symbol (g, h)
    is letter g |H| + h + 1 of the pair and (h, g) letter h |G| + g + 1 of
    the swapped pair."""
    n, m = pair.G.order, pair.H.order

    def rename(x):
        g, h = divmod(abs(x) - 1, m)
        return (h * n + g + 1) * (-1 if x > 0 else 1)
    return rename


def _trivial(gk, hk):
    return ActionPair.trivial(tf.make_catalog_group(gk),
                              tf.make_catalog_group(hk))


def _conjugation(key):
    G = tf.make_catalog_group(key)
    maps = named_action("conjugation", G, G)
    return ActionPair(G, G, maps, maps)


def _inversion(key):
    A = tf.make_catalog_group(key)
    return involution_pair(A, A.inverse)


# name -> (builder of the pair, whether it is built past is_compatible)
PRESENTATION_PAIRS = {
    # check 02's pair: b acts by inversion and b^2 trivially, no action
    "z3-inversion-trivial": (lambda: verify._z3_pair("trivial"), False),
    # check 03's pair, which is not compatible
    "z3-inversion-inversion": (lambda: verify._z3_pair("inversion"), True),
    "cyclic:2/cyclic:3-trivial": (lambda: _trivial("cyclic:2", "cyclic:3"),
                                  False),
    "symmetric:3-conjugation": (lambda: _conjugation("symmetric:3"), False),
    "cyclic:4/cyclic:2-inversion": (lambda: _inversion("cyclic:4"), False),
    "dihedral:4/quaternion:8-trivial": (
        lambda: _trivial("dihedral:4", "quaternion:8"), False),
}


@pytest.mark.parametrize("name", PRESENTATION_PAIRS)
def test_swap_carries_relators_onto_the_swapped_presentation(name):
    build, force = PRESENTATION_PAIRS[name]
    pair = build()
    presentation, _ = tensor_presentation(pair, force=force)
    swapped, _ = tensor_presentation(pair.swapped(), force=force)
    rename = _swapped_symbol(pair)
    carried = {_cyclic_class(tuple(rename(x) for x in word))
               for word in presentation.relators}
    assert presentation.ngens == swapped.ngens
    assert carried == {_cyclic_class(w) for w in swapped.relators}


def _swap_cases():
    """One orbit representative, the last, of each grid of two distinct
    abelian catalog groups up to order 8, and the trivial pairs of three
    non-abelian groups."""
    groups = [(k, G) for k, G in catalog_groups_up_to(8) if G.is_abelian]
    cases = []
    for a, (gk, G) in enumerate(groups):
        for hk, H in groups[a + 1:]:
            grid = compatibility_grid(G, H, budget=verify.GRID_BUDGET)
            i, j, _ = compatible_pair_orbits(grid)[-1]
            cases.append((f"{gk}/{hk}", grid.pair(i, j)))
    for gk, hk in [("symmetric:3", "dihedral:4"),
                   ("quaternion:8", "dihedral:4"),
                   ("symmetric:3", "quaternion:8")]:
        cases.append((f"{gk}/{hk}-trivial", _trivial(gk, hk)))
    return cases


def test_swap_is_an_isomorphism_of_the_products():
    cases = _swap_cases()
    assert len(cases) == 58
    for name, pair in cases:
        rep = compute_tensor(pair)
        other = compute_tensor(pair.swapped())
        G, H = pair.G, pair.H
        symbols = [(g, h) for g in range(G.order) for h in range(H.order)]
        T, U = rep.tensor, other.tensor
        iso = hom_from_images(
            T, U, [rep.symbol(g, h) for g, h in symbols],
            [U.inv(other.symbol(h, g)) for g, h in symbols])
        assert iso.is_bijective, name
        assert (rep.order, rep.invariants, rep.nilpotency) \
            == (other.order, other.invariants, other.nilpotency), name


def _brute_orbits(grid, swap):
    """The orbits, as sets, of the compatible pairs of a group's own grid
    under every automorphism of G on either side, renaming whole maps,
    and with ``swap`` the transpose (i, j) -> (j, i), by breadth-first
    search."""
    aut = tf.automorphism_group(grid.G)
    t, inv = aut.group.table, aut.group.inverse
    index = {h.tobytes(): k for k, h in enumerate(grid.alphas)}
    movers = [(t[t[inv[s]], s], aut.elements[s]) for s in range(aut.order)]

    def neighbours(i, j):
        maps = (grid.alphas[i], grid.betas[j])
        for conj, perm in movers:
            for side in (0, 1):
                moved = [None, None]
                moved[side] = conj[maps[side]]
                moved[1 - side] = np.empty_like(maps[1 - side])
                moved[1 - side][perm] = maps[1 - side]
                yield tuple(index[m.tobytes()] for m in moved)
        if swap:
            yield j, i

    pending = {(int(i), int(j)) for i, j in np.argwhere(grid.compatible)}
    orbits = []
    while pending:
        orbit, queue = set(), [min(pending)]
        while queue:
            p = queue.pop()
            if p not in orbit:
                orbit.add(p)
                queue.extend(neighbours(*p))
        pending -= orbit
        orbits.append(frozenset(orbit))
    return sorted(orbits, key=min)


def test_swap_orbits_match_a_brute_force_walk():
    merged_somewhere = False
    for key, G in catalog_groups_up_to(6):
        grid = compatibility_grid(G, G)
        merged = _brute_orbits(grid, swap=True)
        assert compatible_pair_orbits(grid, swap=True) \
            == [(*min(o), len(o)) for o in merged], key
        # each merged orbit is an Aut x Aut orbit and its transpose
        plain = _brute_orbits(grid, swap=False)
        for orbit in merged:
            assert any(orbit == o | {(j, i) for i, j in o}
                       for o in plain), key
        merged_somewhere |= len(merged) < len(plain)
    assert merged_somewhere


def test_swap_orbits_need_one_group_on_both_sides():
    G = tf.make_catalog_group("cyclic:4")
    twin = tf.FiniteGroup(G.table.copy(), validate=False)
    for H in (twin, tf.make_catalog_group("cyclic:2")):
        with pytest.raises(ValueError, match="grid.H is grid.G"):
            compatible_pair_orbits(compatibility_grid(G, H), swap=True)


def test_grid_of_the_swapped_groups_is_the_transpose():
    # verify check 07 reads the grid (H, G) off the grid (G, H)
    groups = catalog_groups_up_to(8)
    for a, (gk, G) in enumerate(groups):
        for hk, H in groups[a + 1:]:
            grid = compatibility_grid(G, H, budget=verify.GRID_BUDGET)
            swapped = compatibility_grid(H, G, budget=verify.GRID_BUDGET)
            assert np.array_equal(swapped.alphas, grid.betas), (gk, hk)
            assert np.array_equal(swapped.betas, grid.alphas), (gk, hk)
            assert np.array_equal(swapped.compatible, grid.compatible.T)
            assert np.array_equal(swapped.normalizer_g, grid.normalizer_h)
            assert np.array_equal(swapped.normalizer_h, grid.normalizer_g)


def reference_normalizer_necessity():
    """Verify check 07's violations and detail by one grid per ordered
    pair of groups, as the check once computed them."""
    groups = catalog_groups_up_to(8)
    violations = []
    pairs = 0
    for gk, G in groups:
        for hk, H in groups:
            grid = verify.compatibility_grid(G, H, budget=verify.GRID_BUDGET)
            bad = grid.compatible & ~(grid.normalizer_g[:, None]
                                      & grid.normalizer_h[None, :])
            for i, j in np.argwhere(bad):
                violations.append((gk, hk, int(i), int(j)))
            pairs += grid.compatible.size
    return violations, f"{pairs} action pairs scanned"


def test_normalizer_necessity_lists_violations_in_ordered_pair_order(
        monkeypatch):
    # with both normalizer masks cleared every compatible pair is a
    # violation, so the check lists each grid's pairs, of both orders
    real = verify.compatibility_grid

    def cleared(G, H, budget):
        grid = real(G, H, budget=budget)
        grid.normalizer_g = np.zeros_like(grid.normalizer_g)
        grid.normalizer_h = np.zeros_like(grid.normalizer_h)
        return grid
    monkeypatch.setattr(verify, "compatibility_grid", cleared)
    record = verify.check_normalizer_necessity()
    violations, detail = reference_normalizer_necessity()
    assert len(violations) > 1000
    assert (record["computed"], record["detail"]) == (violations, detail)
