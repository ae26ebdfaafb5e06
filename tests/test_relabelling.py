"""The relabelling oracle: renaming the elements of G and H changes no
count that the hom search, Aut(G), the compatibility grid and its orbits
report, nor the abelian invariants of G and H, nor the order, invariants,
nilpotency class, derivative order and kernel order that
``compute_tensor`` reports; it carries G' and H' to the derived subgroups
of the renamed groups, and a square's (conjugation, trivial) pair to a
pair with the same compatibility verdict, its witness to a witness.

Conjugating the Cayley tables of G and H by permutations sigma and tau
gives isomorphic groups, so Hom(G, H) is carried onto Hom(G', H') by
m -> tau m sigma^-1, |Aut| is kept, and the grid of G' and H' is the grid
of G and H with its alphas and betas renamed: its compatible and
normalizer counts and its multiset of orbit sizes are the same.  An
action pair is carried over in the same way, so the tensor product of the
renamed pair is isomorphic to that of the pair.  Each square runs twice,
with H the same object as G and with H an equal copy.
"""

from collections import Counter

import numpy as np
import pytest

import tensorforge as tf
from tensorforge.abelian import abelian_invariants
from tensorforge.actions import (ActionPair, compatibility_grid,
                                 compatible_pair_orbits, is_compatible,
                                 named_action)
from tensorforge.automorphisms import automorphism_group
from tensorforge.groups import (conjugation_maps, derived_subgroup,
                                nilpotency_class)
from tensorforge.homs import enumerate_homs

SQUARES = ["cyclic:6", "symmetric:3", "elemab:2:2", "dihedral:4",
           "quaternion:8", "product:cyclic:2,cyclic:4", "elemab:2:3"]
PAIRS = [("dihedral:4", "elemab:2:2"), ("symmetric:3", "cyclic:6"),
         ("quaternion:8", "dihedral:4"), ("cyclic:4", "elemab:2:3")]


def _relabel(G, rng):
    """G with its elements renamed by a random permutation, and that
    permutation (old -> new)."""
    perm = rng.permutation(G.order)
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    return tf.FiniteGroup(table), perm


def _cases():
    """(G, H, G', H', sigma, tau) with G', H' the relabelled G, H."""
    cases = []
    for seed, key in enumerate(SQUARES):
        rng = np.random.default_rng(seed)
        G = tf.make_catalog_group(key)
        R, sigma = _relabel(G, rng)
        cases.append(pytest.param(G, G, R, R, sigma, sigma,
                                  id=f"{key}-same"))
        H = tf.FiniteGroup(G.table)
        S, tau = _relabel(H, rng)
        cases.append(pytest.param(G, H, R, S, sigma, tau, id=f"{key}-copy"))
    for seed, (gkey, hkey) in enumerate(PAIRS, start=len(SQUARES)):
        rng = np.random.default_rng(seed)
        G, H = tf.make_catalog_group(gkey), tf.make_catalog_group(hkey)
        (R, sigma), (S, tau) = _relabel(G, rng), _relabel(H, rng)
        cases.append(pytest.param(G, H, R, S, sigma, tau,
                                  id=f"{gkey}-{hkey}"))
    return cases


def _renamed_homs(source, target, sigma, tau):
    """The maps of Hom(source, target) carried to the relabelled groups:
    x' = sigma(x) goes to tau(m(x))."""
    out = []
    for hom in enumerate_homs(source, target):
        m = np.empty_like(hom)
        m[sigma] = tau[hom]
        out.append(m.tolist())
    return sorted(out)


def _grid_counts(G, H):
    grid = compatibility_grid(G, H, budget=10 ** 6)
    sizes = Counter(size for _, _, size in compatible_pair_orbits(grid))
    return (len(grid.alphas), len(grid.betas), int(grid.compatible.sum()),
            int(grid.normalizer_g.sum()), int(grid.normalizer_h.sum()),
            sorted(sizes.items()))


@pytest.mark.parametrize("G,H,R,S,sigma,tau", _cases())
def test_relabelling_changes_no_count(G, H, R, S, sigma, tau):
    for (src, dst), (src2, dst2), (p, q) in [
            ((G, H), (R, S), (sigma, tau)), ((H, G), (S, R), (tau, sigma))]:
        want = _renamed_homs(src, dst, p, q)
        got = sorted(enumerate_homs(src2, dst2).tolist())
        assert got == want
    assert automorphism_group(R).order == automorphism_group(G).order
    assert automorphism_group(S).order == automorphism_group(H).order
    assert abelian_invariants(R) == abelian_invariants(G)
    assert abelian_invariants(S) == abelian_invariants(H)
    assert _grid_counts(R, S) == _grid_counts(G, H)


def _renamed_action(maps, act, on):
    """An action given as rows of images, maps[x][y] the image of y under
    x, carried to the relabelled groups: act(x) sends on(y) to
    on(maps[x][y])."""
    out = np.empty_like(maps)
    out[np.ix_(act, on)] = on[maps]
    return out


def _tensor_counts(pair):
    rep = tf.compute_tensor(pair)
    return (rep.order, rep.invariants, rep.nilpotency, rep.derivative.order,
            rep.kernel.order)


@pytest.mark.parametrize("G,H,R,S,sigma,tau", _cases())
def test_relabelling_changes_no_tensor_count(G, H, R, S, sigma, tau):
    # the first and the last orbit representative of the grid, renamed;
    # ActionPair checks that the renamed maps are actions
    grid = compatibility_grid(G, H, budget=10 ** 6)
    orbits = compatible_pair_orbits(grid)
    for i, j, _ in (orbits[0], orbits[-1]):
        pair = grid.pair(i, j)
        renamed = ActionPair(R, S,
                             _renamed_action(pair.alpha_maps, tau, sigma),
                             _renamed_action(pair.beta_maps, sigma, tau))
        assert _tensor_counts(renamed) == _tensor_counts(pair)


@pytest.mark.parametrize("G,H,R,S,sigma,tau", _cases())
def test_relabelling_carries_the_derived_subgroup(G, H, R, S, sigma, tau):
    # the renamed groups have other greedy generating sets, from which
    # derived_subgroup forms its commutators
    for K, renamed, perm in ((G, R, sigma), (H, S, tau)):
        assert derived_subgroup(renamed).members == tuple(sorted(
            perm[list(derived_subgroup(K).members)].tolist()))


def _equation_sides(pair, equation, x, x1, y):
    """Both sides of the pair's first equation at (g, g1, h) = (x, x1, y),
    or of its second at (h, h1, g) = (x, x1, y), as ``is_compatible``
    states them."""
    K, X, Y = (pair.G, pair.alpha_maps, pair.beta_maps) \
        if equation == "first" else (pair.H, pair.beta_maps, pair.alpha_maps)
    conj = conjugation_maps(K)
    return int(X[Y[x1, y], x]), int(conj[x1, X[y, conj[K.inverse[x1], x]]])


@pytest.mark.parametrize("G,H,R,S,sigma,tau", [
    case for case in _cases() if case.id.endswith(("-same", "-copy"))])
def test_relabelling_keeps_the_compatibility_verdict(G, H, R, S, sigma,
                                                     tau):
    # H acting on G by conjugation and G on H trivially is compatible
    # exactly when G has class at most 2; symmetric:3 gives a witness
    pair = ActionPair(G, H, named_action("conjugation", G, H),
                      named_action("trivial", H, G))
    renamed = ActionPair(R, S, _renamed_action(pair.alpha_maps, tau, sigma),
                         _renamed_action(pair.beta_maps, sigma, tau))
    got, want = is_compatible(renamed), is_compatible(pair)
    c = nilpotency_class(G)
    assert got.compatible == want.compatible == (c is not None and c <= 2)
    if got.compatible:
        return
    # the witness carried back through sigma^-1 and tau^-1 violates the
    # same equation of the pair, at the values carried back
    w = got.witness
    undo_g, undo_h = np.argsort(sigma), np.argsort(tau)
    if w.equation == "first":
        at, perm = (undo_g[w.g], undo_g[w.g1], undo_h[w.h]), sigma
    else:
        at, perm = (undo_h[w.h], undo_h[w.h1], undo_g[w.g]), tau
    lhs, rhs = _equation_sides(pair, w.equation, *at)
    assert lhs != rhs and (perm[lhs], perm[rhs]) == (w.lhs, w.rhs)
