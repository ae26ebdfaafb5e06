"""Mutual actions: compatibility, induced actions, grids, orbit classes."""

import dataclasses

import numpy as np
import pytest

import tensorforge as tf
from tensorforge import actions, automorphisms, verify
from tensorforge.actions import (ActionPair, CompatibilityReport, Witness,
                                 action_from_hom_pair,
                                 compatibility_grid, compatible_pair_orbits,
                                 conjugation_maps,
                                 hom_pair_compatibility_sweep, induced_beta,
                                 involution_pair, is_compatible, named_action,
                                 normalizer_conditions, question2_scan,
                                 z2_action_criterion)
from tensorforge.automorphisms import (automorphism_group,
                                       normalizer_contains_inn)
from tensorforge.catalog import catalog_groups_up_to
from tensorforge.errors import (AlphaNotInjective, BudgetExceeded,
                                CrossCheckFailed, InvalidAction,
                                NormalizerConditionFails, PsiNotInvolution)
from tensorforge.groups import (GroupHom, center, coset_labels,
                                generating_set, make_cyclic, row_keys,
                                second_hypercenter, subgroup_generated)
from test_groups import checked_hom, reference_conj


# -- reference implementations --------------------------------------------
# The first defining equation as it was checked before the stacked kernel,
# kept verbatim as the reference for is_compatible, the sweep and
# induced_beta.

def _equation_holds(G, A, B):
    """The first defining equation, quantified over everything, checked at
    the level of whole automorphism maps (one comparison per g1)."""
    for g1 in range(G.order):
        hat = conjugation_maps(G)[g1]
        hatinv = conjugation_maps(G)[G.inv(g1)]
        lhs = A[B[g1]]               # row h: map of alpha(h^beta(g1))
        rhs = hat[A[:, hatinv]]      # row h: g1hat^-1 alpha(h) g1hat
        if not np.array_equal(lhs, rhs):
            return False
    return True


def _equation_witness(G, H, A, B):
    """First failing triple of the first equation in lexicographic
    (g, g1, h) order, or None."""
    n, m = G.order, H.order
    mask = np.zeros((n, n, m), dtype=bool)   # (g, g1, h)
    for g1 in range(n):
        hat = conjugation_maps(G)[g1]
        hatinv = conjugation_maps(G)[G.inv(g1)]
        lhs = A[B[g1]]
        rhs = hat[A[:, hatinv]]
        mask[:, g1, :] = (lhs != rhs).T
    bad = np.argwhere(mask)
    if len(bad) == 0:
        return None
    g, g1, h = (int(v) for v in bad[0])
    lhs = int(A[B[g1, h], g])
    hat = conjugation_maps(G)[g1]
    hatinv = conjugation_maps(G)[G.inv(g1)]
    rhs = int(hat[A[h, hatinv[g]]])
    return g, g1, h, lhs, rhs


def reference_is_compatible(pair):
    G, H = pair.G, pair.H
    A, B = pair.alpha_maps, pair.beta_maps
    if not _equation_holds(G, A, B):
        g, g1, h, lhs, rhs = _equation_witness(G, H, A, B)
        return CompatibilityReport(False, Witness(
            "first", g=g, g1=g1, h=h, lhs=lhs, rhs=rhs))
    if not _equation_holds(H, B, A):
        h, h1, g, lhs, rhs = _equation_witness(H, G, B, A)
        return CompatibilityReport(False, Witness(
            "second", h=h, h1=h1, g=g, lhs=lhs, rhs=rhs))
    return CompatibilityReport(True, None)


def _inn_normalizes(G, A):
    """Does Inn(G) normalize the image of alpha (as a set of maps)?"""
    image = {row.tobytes() for row in A}
    for g1 in range(G.order):
        hat = conjugation_maps(G)[g1]
        hatinv = conjugation_maps(G)[G.inv(g1)]
        conj = hat[A[:, hatinv]]
        for h, row in enumerate(conj):
            if row.tobytes() not in image:
                return False, (g1, h)
    return True, None


def reference_normalizer_contains_inn(aut, image):
    """Does Inn(G) normalize the subgroup ``image`` of Aut(G)?  A double
    loop over G and the image, on Aut indices: the normalizer test as the
    library ran it before the stacked mask."""
    members = sorted(set(int(i) for i in image))
    mset = set(members)
    t = aut.group.table
    inv = aut.group.inverse
    for g in range(aut.base.order):
        ghat = int(aut.inner_of[g])
        for m in members:
            conj = int(t[t[inv[ghat], m], ghat])
            if conj not in mset:
                return False
    return True


def reference_induced_beta_maps(G, H, A):
    """beta(g): h -> alpha^-1(ghat^-1 alpha(h) ghat), row by row."""
    row_to_h = {A[h].tobytes(): h for h in range(H.order)}
    beta_maps = np.empty((G.order, H.order), dtype=np.intp)
    for g in range(G.order):
        hat = conjugation_maps(G)[g]
        hatinv = conjugation_maps(G)[G.inv(g)]
        conj = hat[A[:, hatinv]]
        beta_maps[g] = [row_to_h[row.tobytes()] for row in conj]
    return beta_maps


def reference_sweep_compatibility(G, H):
    """(n_compatible, first_incompatible) by a loop over every hom pair."""
    phis = tf.enumerate_homs(G, H)
    psis = tf.enumerate_homs(H, G)
    compatible, first = 0, None
    for i, phi in enumerate(phis):
        for j, psi in enumerate(psis):
            pair = action_from_hom_pair(G, H, phi, psi)
            A, B = pair.alpha_maps, pair.beta_maps
            if _equation_holds(G, A, B) and _equation_holds(H, B, A):
                compatible += 1
            elif first is None:
                first = (i, j)
    return compatible, first


# The stacked kernel as it was before the grid and the sweep checked at
# generators only, kept verbatim as the all-points reference for them.

def _reference_defect_blocks(lab, B, conjugate):
    """Defect masks of the first defining equation for a stack of pairs.

    ``lab[a, h]`` labels alpha_a(h), ``B[b, g1, h]`` is h^beta_b(g1) and
    ``conjugate(lab[a], g1)[i, h]`` labels g1[i]hat^-1 alpha_a(h) g1[i]hat.
    Yields (a, b, s, mask) for blocks of at most BLOCK_ENTRIES entries, or
    one g1: ``mask[i, j, h]`` is True where alpha_a(h^beta_(b+i)(s+j)) and
    its conjugate differ (at every point, for whole maps).
    """
    n1 = B.shape[1]
    per_g1 = lab[0].size
    g1_step = max(1, min(n1, actions.BLOCK_ENTRIES // per_g1))
    b_step = max(1, actions.BLOCK_ENTRIES // (g1_step * per_g1))
    for a in range(len(lab)):
        for s in range(0, n1, g1_step):
            want = conjugate(lab[a], np.arange(s, min(s + g1_step, n1)))
            for b in range(0, len(B), b_step):
                block = B[b:b + b_step, s:s + g1_step]
                yield a, b, s, np.take(lab[a], block, axis=0) != want


def reference_equation_fails(lab, B, conj):
    """fails[a, b]: the pair (alpha_a, beta_b) breaks the first equation,
    where ``lab[a, h]`` is a scalar label of alpha_a(h) and ``conj[g1, l]``
    labels g1hat^-1 l g1hat."""
    fails = np.zeros((len(lab), len(B)), dtype=bool)
    for a, b, _, mask in _reference_defect_blocks(
            lab, B, lambda lab_a, g1: conj[g1[:, None], lab_a]):
        fails[a, b:b + len(mask)] |= mask.reshape(len(mask), -1).any(axis=1)
    return fails


def loop_equation_fails(lab, acts, maps, conj, G, H):
    """fails[a, b] of actions._equation_fails, one pair and one point at
    a time over the generators of G and of H."""
    fails = np.zeros((len(lab), len(maps)), dtype=bool)
    for a in range(len(lab)):
        for b in range(len(maps)):
            for g1 in generating_set(G):
                for h in generating_set(H):
                    if lab[a, acts[maps[b, g1], h]] != conj[g1, lab[a, h]]:
                        fails[a, b] = True
    return fails


# The hypercenter congruence and the homomorphism test as they were before
# they were decided at generators, kept verbatim as the references for
# actions._congruence and actions._assignment_is_hom.

def reference_congruence(G, H, P, S):
    """(n_congruent, first_incongruent) by a loop over every phi."""
    z2g = second_hypercenter(G).mask()
    z2h = second_hypercenter(H).mask()

    # congruence, vectorized one phi at a time
    ar_g = np.arange(G.order)
    ar_h = np.arange(H.order)
    congruent = 0
    first_incongruent = None
    for i in range(len(P)):
        comp = S[:, P[i]]                       # (npsi, |G|): psi(phi(x))
        defect = G.table[G.inverse[ar_g][None, :], comp]
        ok_g = z2g[defect].all(axis=1)
        comp2 = P[i][S]                         # (npsi, |H|): phi(psi(y))
        defect2 = H.table[H.inverse[ar_h][None, :], comp2]
        ok_h = z2h[defect2].all(axis=1)
        both = ok_g & ok_h
        congruent += int(both.sum())
        if first_incongruent is None and not both.all():
            first_incongruent = (i, int(np.argmin(both)))
    return congruent, first_incongruent


def reference_assignment_is_hom(H, maps):
    """Is h -> maps[h] a homomorphism under left-factor-first composition?"""
    for h1 in range(H.order):
        lhs = maps[H.table[h1]]
        rhs = maps[:, maps[h1]]  # compose(maps[h1], maps[h2]) for all h2
        if not np.array_equal(lhs, rhs):
            return False
    return True


def _check_every_point(monkeypatch):
    """Route the grid and the sweep through the all-points reference: the
    stack B[b, g1, h] it takes is acts[maps[b, g1], h] at every g1 and h,
    as the callers built it before."""
    monkeypatch.setattr(
        actions, "_equation_fails",
        lambda lab, acts, maps, conj, G, H:
            reference_equation_fails(lab, acts[maps], conj))


def _aut_index(aut, mapping):
    """The index of an automorphism map in Aut(G)."""
    return int(np.flatnonzero((aut.elements == mapping).all(axis=1))[0])


def z3_inversion_pair(beta_nontrivial=False):
    Z3 = make_cyclic(3)
    idm = np.arange(3)
    alpha = np.stack([idm, Z3.inverse, idm])
    beta = alpha.copy() if beta_nontrivial else np.tile(idm, (3, 1))
    return ActionPair(Z3, Z3, alpha, beta)


# -- named actions --------------------------------------------------------

def test_named_inversion_is_the_papers_z3_assignment():
    Z3 = make_cyclic(3)
    pair = z3_inversion_pair(beta_nontrivial=True)
    assert np.array_equal(named_action("inversion", Z3, Z3), pair.alpha_maps)
    assert np.array_equal(named_action("trivial", Z3, Z3),
                          z3_inversion_pair().beta_maps)
    # an even cyclic actor gives an action: the generator inverts
    Z4, Z6 = make_cyclic(4), make_cyclic(6)
    maps = named_action("inversion", Z6, Z4)
    assert [np.array_equal(row, Z6.inverse) for row in maps] \
        == [False, True, False, True]
    ActionPair(Z6, Z4, maps, named_action("trivial", Z4, Z6))


def test_named_actions_match_their_constructions():
    G = tf.make_catalog_group("dihedral:4")
    H = make_cyclic(3)
    assert np.array_equal(named_action("conjugation", G, G),
                          conjugation_maps(G))
    assert np.array_equal(named_action("trivial", G, H),
                          np.tile(np.arange(8), (3, 1)))
    pair = ActionPair.trivial(G, H)
    assert np.array_equal(pair.alpha_maps, named_action("trivial", G, H))
    assert np.array_equal(pair.beta_maps, named_action("trivial", H, G))


@pytest.mark.parametrize("name, G, H, message", [
    ("inversion", "cyclic:3", "elemab:2:2",
     "inversion action needs a cyclic acting group"),
    ("inversion", "dihedral:4", "cyclic:2",
     "inversion is only an automorphism of an abelian group"),
    ("conjugation", "dihedral:4", "quaternion:8",
     "conjugation action requires the two groups to be the same"),
    ("inverse", "cyclic:2", "cyclic:2", "unknown action 'inverse'; "
     "expected one of trivial, inversion, conjugation"),
])
def test_named_action_refuses_groups_that_do_not_fit(name, G, H, message):
    with pytest.raises(InvalidAction) as exc:
        named_action(name, tf.make_catalog_group(G), tf.make_catalog_group(H))
    assert str(exc.value) == message


# -- validation -----------------------------------------------------------

def test_rejects_non_bijective_row():
    Z3 = make_cyclic(3)
    bad = np.array([[0, 1, 2], [0, 0, 0], [0, 1, 2]])
    with pytest.raises(ValueError, match="bijection|automorphism"):
        ActionPair(Z3, Z3, bad, np.tile(np.arange(3), (3, 1)))


def test_rejects_nontrivial_identity_action():
    Z3 = make_cyclic(3)
    bad = np.array([[0, 2, 1], [0, 1, 2], [0, 1, 2]])
    with pytest.raises(ValueError, match="identity"):
        ActionPair(Z3, Z3, bad, np.tile(np.arange(3), (3, 1)))


def test_rejects_non_automorphism_row():
    S3 = tf.make_catalog_group("symmetric:3")
    Z2 = make_cyclic(2)
    # a permutation fixing the identity that scrambles multiplication
    perm = np.arange(6)
    a, b = (g for g in range(6) if S3.element_order(g) == 3), None
    x = next(g for g in range(1, 6) if S3.element_order(g) == 2)
    y = next(g for g in range(1, 6) if S3.element_order(g) == 3)
    perm[[x, y]] = perm[[y, x]]
    bad = np.stack([np.arange(6), perm])
    with pytest.raises(ValueError, match="automorphism"):
        ActionPair(S3, Z2, bad, np.tile(np.arange(2), (6, 1)))


def test_assignment_is_hom_matches_reference():
    # the alphas of every catalog grid up to order 8 and the conjugation
    # maps; each also with one row replaced by another automorphism, and
    # with the rows off <s>, for s the first generator of H, composed with
    # an automorphism c: h -> c alpha(h) off <s> stays multiplicative at
    # s, because h and h s lie in the same coset h<s>
    rng = np.random.default_rng(17)
    groups = catalog_groups_up_to(8)
    cases = [(G, G, conjugation_maps(G)) for _, G in groups]
    for _, G in groups:
        aut = automorphism_group(G)
        for _, H in groups:
            cases += [(G, H, aut.elements[alpha])
                      for alpha in tf.enumerate_homs(H, aut.group)]
    verdicts = set()
    for G, H, maps in cases:
        altered = maps.copy()
        altered[rng.integers(H.order)] = maps[rng.integers(H.order)]
        elements = automorphism_group(G).elements
        c = elements[rng.integers(len(elements))]
        off = ~subgroup_generated(H, generating_set(H)[:1]).mask()
        coset = maps.copy()
        coset[off] = maps[off][:, c]
        for m in (maps, altered, coset):
            want = reference_assignment_is_hom(H, m)
            assert actions._assignment_is_hom(H, m) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_per_element_assignments_allowed_without_hom_property():
    pair = z3_inversion_pair()
    assert not pair.assignments_are_homs()
    assert is_compatible(pair).compatible


def test_trivial_pair_is_compatible():
    for key in ["cyclic:4", "symmetric:3", "quaternion:8"]:
        G = tf.make_catalog_group(key)
        pair = ActionPair.trivial(G, make_cyclic(3))
        assert is_compatible(pair).compatible
        assert pair.assignments_are_homs()


def test_conjugation_pair_is_compatible():
    for key in ["symmetric:3", "dihedral:4", "heisenberg:3"]:
        G = tf.make_catalog_group(key)
        conj = conjugation_maps(G)
        pair = ActionPair(G, G, conj, conj)
        assert is_compatible(pair).compatible


# -- witnesses ------------------------------------------------------------

def test_incompatible_witness_is_lexicographically_first():
    pair = z3_inversion_pair(beta_nontrivial=True)
    report = is_compatible(pair)
    assert not report.compatible
    w = report.witness
    assert (w.equation, w.g, w.g1, w.h) == ("first", 1, 1, 1)
    assert (w.lhs, w.rhs) == (1, 2)
    # replay: lhs is g^(h^beta(g1)), rhs the conjugated version
    G = pair.G
    lhs = pair.alpha_maps[pair.beta_maps[w.g1, w.h], w.g]
    inner = pair.alpha_maps[w.h, reference_conj(G, w.g, G.inv(w.g1))]
    rhs = reference_conj(G, inner, w.g1)
    assert (lhs, rhs) == (w.lhs, w.rhs)


def test_is_compatible_matches_reference_on_small_grids():
    groups = catalog_groups_up_to(6)
    pairs = 0
    for _, G in groups:
        for _, H in groups:
            grid = compatibility_grid(G, H)
            for i in range(len(grid.alphas)):
                for j in range(len(grid.betas)):
                    pair = grid.pair(i, j)
                    report = is_compatible(pair)
                    assert report == reference_is_compatible(pair)
                    assert report.compatible == bool(grid.compatible[i, j])
                    pairs += 1
    assert pairs == 656


def _benchmark_maps(G, spec):
    if spec == "conjugation":
        return conjugation_maps(G)
    rows = np.tile(np.arange(G.order), (G.order, 1))
    if spec == "inversion":
        rows[1] = G.inverse
    return rows


@pytest.mark.parametrize("key,alpha,beta", [
    ("symmetric:4", "conjugation", "conjugation"),
    ("dihedral:8", "conjugation", "conjugation"),
    ("heisenberg:3", "conjugation", "conjugation"),
    ("quaternion:8", "conjugation", "conjugation"),
    ("heisenberg:3", "conjugation", "trivial"),
    ("quaternion:8", "conjugation", "trivial"),
    ("symmetric:4", "conjugation", "trivial"),
    ("dihedral:8", "conjugation", "trivial"),
    ("dihedral:8", "trivial", "conjugation"),
    ("cyclic:3", "inversion", "inversion"),
])
def test_is_compatible_matches_reference_on_benchmark_pairs(key, alpha,
                                                            beta):
    G = tf.make_catalog_group(key)
    pair = ActionPair(G, G, _benchmark_maps(G, alpha),
                      _benchmark_maps(G, beta))
    assert is_compatible(pair) == reference_is_compatible(pair)


def test_small_blocks_keep_verdicts_and_witnesses(monkeypatch):
    # blocks of 50 entries split every pair of order 4 or more in
    # is_compatible and _conjugate_preimages; the grid's equation kernel
    # reads no BLOCK_ENTRIES, so its verdicts are compared all the same
    groups = catalog_groups_up_to(6)
    wide = {(gk, hk): compatibility_grid(G, H)
            for gk, G in groups for hk, H in groups}
    monkeypatch.setattr(actions, "BLOCK_ENTRIES", 50)
    for gk, G in groups:
        for hk, H in groups:
            grid = compatibility_grid(G, H)
            assert np.array_equal(grid.compatible, wide[gk, hk].compatible)
            for i in range(len(grid.alphas)):
                for j in range(len(grid.betas)):
                    pair = grid.pair(i, j)
                    assert is_compatible(pair) == reference_is_compatible(pair)
                A = grid.pair(i, 0).alpha_maps
                ok, witness = _inn_normalizes(G, A)
                assert actions._outside_witness(
                    actions._conjugate_preimages(G, A)) == witness
    G, H = tf.make_catalog_group("dihedral:8"), tf.make_catalog_group(
        "dihedral:8")
    result = hom_pair_compatibility_sweep(G, H)
    assert (result["n_compatible"], result["first_incompatible"]) \
        == reference_sweep_compatibility(G, H)


def test_grid_and_orbit_memory_stay_bounded():
    # elemab:2:3 squared: 736 x 736 pairs, whose boolean verdicts alone
    # take 542 KB
    G = tf.make_catalog_group("elemab:2:3")
    H = tf.make_catalog_group("elemab:2:3")
    import tracemalloc
    tracemalloc.start()
    try:
        grid = compatibility_grid(G, H, budget=10_000_000)
        grid_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        compatible_pair_orbits(grid)
        orbit_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid_peak < 4_000_000 and orbit_peak < 4_000_000, \
        (grid_peak, orbit_peak)


def test_compatibility_memory_stays_flat_on_large_pair():
    # one (|G|, |H|, |G|) table of this pair would take 134 MB per array
    import tracemalloc
    G = make_cyclic(256)
    pair = ActionPair.trivial(G, G)
    conjugation_maps(G)
    for check, want in ((is_compatible, CompatibilityReport(True, None)),
                        (normalizer_conditions, (True, True))):
        tracemalloc.start()
        try:
            assert check(pair) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, (check.__name__, peak)


def test_swapped_pair_swaps_equations():
    pair = z3_inversion_pair(beta_nontrivial=True)
    report = is_compatible(pair.swapped())
    assert not report.compatible


# -- induced beta ---------------------------------------------------------

def test_induced_beta_on_cyclic():
    Z4 = make_cyclic(4)
    Z2 = make_cyclic(2)
    aut = automorphism_group(Z4)
    inv_idx = _aut_index(aut, Z4.inverse)
    alpha = checked_hom(Z2, aut.group, [aut.group.identity, inv_idx])
    pair = induced_beta(Z4, Z2, alpha.map)
    assert is_compatible(pair).compatible
    # abelian G: the induced beta is trivial
    assert np.array_equal(pair.beta_maps,
                          np.tile(np.arange(2), (4, 1)))


def test_induced_beta_nonabelian():
    # alpha embedding Z4 as the rotation subgroup of Aut(D4); Inn does
    # not centralize it, so the induced beta comes out nontrivial
    D4 = tf.make_catalog_group("dihedral:4")
    Z4 = make_cyclic(4)
    aut = automorphism_group(D4)
    trivial_beta = np.tile(np.arange(4), (8, 1))
    built = nontrivial = 0
    for alpha in tf.enumerate_homs(Z4, aut.group):
        if len(np.unique(alpha)) < Z4.order \
                or not normalizer_contains_inn(aut, [alpha])[0]:
            continue
        pair = induced_beta(D4, Z4, alpha)
        assert is_compatible(pair).compatible
        built += 1
        if not np.array_equal(pair.beta_maps, trivial_beta):
            nontrivial += 1
    assert built > 0 and nontrivial > 0


def test_induced_beta_matches_reference_construction():
    # every injective alpha the verify suite's induced-beta check builds:
    # the alphas of its grids are Hom(H, Aut G)
    groups = catalog_groups_up_to(8)
    built = 0
    for _, G in groups:
        autG = automorphism_group(G)
        for _, H in groups:
            for alpha in tf.enumerate_homs(H, autG.group):
                A = autG.elements[alpha]
                pre = actions._conjugate_preimages(G, A)
                ok, witness = _inn_normalizes(G, A)
                assert actions._outside_witness(pre) == witness
                if len(np.unique(alpha)) < H.order \
                        or not normalizer_contains_inn(autG, [alpha])[0]:
                    continue
                pair = induced_beta(G, H, alpha)
                assert np.array_equal(pair.beta_maps,
                                      reference_induced_beta_maps(G, H, A))
                built += 1
    assert built > 0


def test_induced_beta_raises_typed_error_when_recheck_fails(monkeypatch):
    Z4 = make_cyclic(4)
    aut = automorphism_group(Z4)
    alpha = checked_hom(make_cyclic(2), aut.group,
                        [aut.group.identity, _aut_index(aut, Z4.inverse)])
    monkeypatch.setattr(actions, "is_compatible", lambda pair:
                        CompatibilityReport(False, Witness("first")))
    with pytest.raises(CrossCheckFailed, match="exhaustive check"):
        induced_beta(Z4, make_cyclic(2), alpha.map)


def test_induced_beta_refuses_an_alpha_that_is_no_homomorphism():
    # the paper's Z3 example: element 1 acts by inversion, element 2
    # trivially; every row is an automorphism, but h -> alpha(h) is no
    # homomorphism
    Z3 = make_cyclic(3)
    aut = automorphism_group(Z3)
    e = aut.group.identity
    alpha = GroupHom(Z3, aut.group, [e, _aut_index(aut, Z3.inverse), e])
    with pytest.raises(InvalidAction) as exc:
        induced_beta(Z3, Z3, alpha.map)
    assert str(exc.value) == "alpha: assignment is not a homomorphism"


def test_induced_beta_check_records_a_failed_recheck(monkeypatch):
    # verify check 08 leaves the exhaustive re-check to induced_beta and
    # turns its CrossCheckFailed into a failing row, not an abort
    monkeypatch.setattr(actions, "is_compatible", lambda pair:
                        CompatibilityReport(False, Witness("first")))
    record = verify.check_induced_beta_soundness()
    assert not record["passed"] and record["computed"]
    assert {reason for _, _, reason in record["computed"]} \
        == {"induced pair incompatible"}
    assert record["detail"] == "0 induced pairs built and verified"


def test_induced_beta_validates_the_induced_rows(monkeypatch):
    # alpha is validated on entry; the rows built for beta are validated
    # on their own before the pair is assembled
    Z4 = make_cyclic(4)
    aut = automorphism_group(Z4)
    alpha = checked_hom(make_cyclic(2), aut.group,
                        [aut.group.identity, _aut_index(aut, Z4.inverse)])
    pre = np.tile(np.arange(2), (4, 1))
    pre[1] = [0, 0]                 # not an automorphism of Z2
    monkeypatch.setattr(actions, "_conjugate_preimages", lambda G, A: pre)
    with pytest.raises(InvalidAction, match="beta: row 1"):
        induced_beta(Z4, make_cyclic(2), alpha.map)


def reference_validate_action(G, H, maps, what):
    """_validate_action as it was before the generator check: each row
    against the whole Cayley table."""
    maps = np.ascontiguousarray(np.asarray(maps, dtype=np.intp))
    if maps.shape != (H.order, G.order):
        raise InvalidAction(f"{what}: expected shape {(H.order, G.order)}")
    ar = np.arange(G.order)
    if not np.array_equal(maps[H.identity], ar):
        raise InvalidAction(f"{what}: identity must act trivially")
    for h in range(H.order):
        m = maps[h]
        if len(np.unique(m)) != G.order:
            raise InvalidAction(f"{what}: row {h} is not a bijection")
        if not np.array_equal(m[G.table], G.table[np.ix_(m, m)]):
            raise InvalidAction(f"{what}: row {h} is not an automorphism")
    maps.setflags(write=False)
    return maps


def _validation(validate, G, H, maps):
    try:
        return "valid", validate(G, H, maps, "alpha").tolist()
    except InvalidAction as exc:
        return "refused", str(exc)


def test_validate_action_matches_full_table_reference():
    # stacks of automorphisms, then the same stacks with one or two rows
    # spoiled: a permutation fixing the identity, a repeated entry, or a
    # non-trivial identity row
    rng = np.random.default_rng(2017)
    groups = catalog_groups_up_to(8)
    messages = set()
    for _, G in groups:
        aut = automorphism_group(G)
        for _, H in groups:
            good = aut.elements[rng.integers(aut.order, size=H.order)]
            good[H.identity] = np.arange(G.order)
            stacks = [good]
            for h in rng.choice(H.order, size=min(2, H.order),
                                replace=False):
                shuffled = good.copy()
                shuffled[h, 1:] = rng.permutation(good[h, 1:])
                repeated = good.copy()
                repeated[h, -1] = repeated[h, 0]
                stacks += [shuffled, repeated]
            both = stacks[1].copy()
            both[-1, 1:] = rng.permutation(both[-1, 1:])
            stacks.append(both)
            for maps in stacks:
                want = _validation(reference_validate_action, G, H, maps)
                assert _validation(actions._validate_action, G, H,
                                   maps) == want
                messages.add(want[1].split(" ")[-1] if want[0] == "refused"
                             else want[0])
    assert messages == {"valid", "trivially", "bijection", "automorphism"}


@pytest.mark.parametrize("block", [1, 16, 16_384])
def test_validate_action_names_the_first_failing_row(monkeypatch, block):
    # rows are checked a block at a time: the smallest failing row is
    # named, by the first of its checks that fails, whatever fails later
    monkeypatch.setattr(actions, "BLOCK_ENTRIES", block)
    G, H = tf.make_catalog_group("cyclic:4"), make_cyclic(4)
    ar = np.arange(4)
    swap = np.array([0, 2, 1, 3])       # a bijection, but not additive
    repeated = np.array([0, 1, 1, 3])   # not a bijection
    cases = [([ar, swap, repeated, ar], "1 is not an automorphism"),
             ([ar, ar, repeated, swap], "2 is not a bijection"),
             ([ar, repeated, swap, repeated], "1 is not a bijection")]
    for rows, want in cases:
        with pytest.raises(InvalidAction) as exc:
            actions._validate_action(G, H, np.array(rows), "alpha")
        assert str(exc.value) == f"alpha: row {want}"


def test_induced_beta_rejects_non_injective():
    Z4 = make_cyclic(4)
    aut = automorphism_group(Z4)
    alpha = checked_hom(make_cyclic(2), aut.group,
                        [aut.group.identity, aut.group.identity])
    with pytest.raises(AlphaNotInjective):
        induced_beta(Z4, make_cyclic(2), alpha.map)


def test_induced_beta_rejects_normalizer_failure():
    S3 = tf.make_catalog_group("symmetric:3")
    aut = automorphism_group(S3)
    transposition = next(g for g in range(6) if S3.element_order(g) == 2)
    member = int(aut.inner_of[transposition])
    alpha = checked_hom(make_cyclic(2), aut.group,
                        [aut.group.identity, member])
    with pytest.raises(NormalizerConditionFails):
        induced_beta(S3, make_cyclic(2), alpha.map)


# -- involution / Z2 criterion --------------------------------------------

def test_involution_pair_inversion_compatible():
    for key in ["cyclic:5", "cyclic:8", "product:cyclic:2,cyclic:4"]:
        A = tf.make_catalog_group(key)
        pair = involution_pair(A, A.inverse)
        assert is_compatible(pair).compatible


def test_z2_criterion_matches_exhaustive_check():
    for key in ["cyclic:8", "dihedral:4", "quaternion:8", "symmetric:4",
                "elemab:3:2"]:
        G = tf.make_catalog_group(key)
        idm = np.arange(G.order)
        from tensorforge.homs import all_bijective_endomaps
        for m in all_bijective_endomaps(G):
            m = np.asarray(m)
            if not np.array_equal(m[m], idm):
                continue
            crit, _ = z2_action_criterion(G, m)
            assert crit == is_compatible(involution_pair(G, m)).compatible


def test_z2_criterion_witness_kinds():
    S3 = tf.make_catalog_group("symmetric:3")
    # conjugation by a transposition is an involution; c(g) is not central
    transposition = next(g for g in range(6) if S3.element_order(g) == 2)
    psi = conjugation_maps(S3)[transposition]
    ok, witness = z2_action_criterion(S3, psi)
    assert not ok and witness[0] == "not-central"


def test_z2_criterion_rejects_non_involution():
    Z5 = make_cyclic(5)
    doubling = np.array([(2 * x) % 5 for x in range(5)])
    with pytest.raises(PsiNotInvolution):
        z2_action_criterion(Z5, doubling)


# -- hypercenter congruence and hom-pair sweeps ---------------------------

def test_zeta2_congruence_identity_pair():
    # S3 has trivial zeta_2, so (phi, psi) is congruent exactly when phi
    # and psi are mutually inverse: the pairs (f, f^-1) of Aut(S3), the
    # identity pair among them
    S3 = tf.make_catalog_group("symmetric:3")
    maps = tf.enumerate_homs(S3, S3)
    ident = list(range(6))
    direct = sum(psi[phi].tolist() == ident and phi[psi].tolist() == ident
                 for phi in maps for psi in maps)
    summary = hom_pair_compatibility_sweep(S3, S3)
    assert summary["n_congruent"] == direct == 6


def test_zeta2_congruence_failure_case():
    # phi = psi = trivial fails off the kernel, and it comes first
    S3 = tf.make_catalog_group("symmetric:3")
    phis = tf.enumerate_homs(S3, S3)
    assert phis[0].tolist() == [S3.identity] * 6
    summary = hom_pair_compatibility_sweep(S3, S3)
    assert summary["first_incongruent"] == (0, 0)
    assert not summary["all_congruent"]


def _hom_stacks(G, H):
    return tf.enumerate_homs(G, H), tf.enumerate_homs(H, G)


def _identity_first(maps):
    identity = (maps == np.arange(maps.shape[1])).all(axis=1)
    return maps[np.argsort(~identity, kind="stable")]


@pytest.mark.parametrize("block", [actions.BLOCK_ENTRIES, 50])
def test_congruence_at_generators_matches_reference_loop(monkeypatch,
                                                         block):
    # every catalog pair up to order 8, the Heisenberg squares of verify
    # check 09 and the two sweeps of the action-sweep benchmark workload;
    # blocks of 50 entries take one phi, or one psi, at a time.  The
    # trivial homs come first in each list and make (0, 0) the first
    # incongruent pair, so the squares are also taken with the identity
    # map first in each list.  The reference decides every pair at every
    # point; the classes modulo Z2 decide each equation once per class.
    groups = catalog_groups_up_to(8)
    cases = [(G, H) for _, G in groups for _, H in groups]
    cases += [(tf.make_catalog_group(g), tf.make_catalog_group(h))
              for g, h in [("heisenberg:2", "heisenberg:2"),
                           ("heisenberg:3", "heisenberg:3"),
                           ("dihedral:8", "dihedral:8"),
                           ("symmetric:4", "symmetric:3")]]
    stacks = [_hom_stacks(G, H) for G, H in cases]
    monkeypatch.setattr(actions, "BLOCK_ENTRIES", block)
    counts, firsts = set(), set()
    for (G, H), (P, S) in zip(cases, stacks):
        orders = [(P, S)]
        if G is H:
            orders.append((_identity_first(P), _identity_first(S)))
        for P, S in orders:
            want = reference_congruence(G, H, P, S)
            assert actions._congruence(G, H, P, S) == want
            counts.add((want[0] > 0) + (want[0] == len(P) * len(S)))
            firsts.add(want[1] not in (None, (0, 0)))
    # none, some and all pairs congruent; a first incongruent pair other
    # than the first pair
    assert counts == {0, 1, 2} and True in firsts


@pytest.mark.parametrize("g,h", [("symmetric:4", "symmetric:3"),
                                 ("dihedral:8", "dihedral:8")])
def test_sweep_matches_reference_loop(g, h):
    G, H = tf.make_catalog_group(g), tf.make_catalog_group(h)
    summary = hom_pair_compatibility_sweep(G, H)
    assert (summary["n_compatible"], summary["first_incompatible"]) \
        == reference_sweep_compatibility(G, H)


def test_sweep_matches_direct_loop_on_small_group():
    D4 = tf.make_catalog_group("heisenberg:2")
    summary = hom_pair_compatibility_sweep(D4, D4)
    phis = tf.enumerate_homs(D4, D4)
    direct_compat = 0
    for phi in phis:
        for psi in phis:
            pair = action_from_hom_pair(D4, D4, phi, psi)
            if is_compatible(pair).compatible:
                direct_compat += 1
    assert summary["n_pairs"] == len(phis) ** 2
    assert summary["n_compatible"] == direct_compat
    assert summary["all_compatible"] == (direct_compat == len(phis) ** 2)


def test_sweep_of_a_group_with_itself_matches_a_copy():
    # hom_pair_compatibility_sweep(G, G) enumerates End(G) once and decides
    # one equation; a copy of G takes the two-sided route
    for key in ["symmetric:3", "dihedral:4", "quaternion:8", "heisenberg:2",
                "elemab:2:3"]:
        G = tf.make_catalog_group(key)
        twin = tf.FiniteGroup(G.table.copy(), validate=False)
        assert hom_pair_compatibility_sweep(G, G) \
            == hom_pair_compatibility_sweep(G, twin), key


def _sweep_both_ways(monkeypatch, G, H):
    """The sweep at generators, and the same sweep at every point."""
    got = hom_pair_compatibility_sweep(G, H)
    with monkeypatch.context() as m:
        _check_every_point(m)
        return got, hom_pair_compatibility_sweep(G, H)


@pytest.mark.parametrize("n_alpha", [1, 7, 8, 9, 17])
@pytest.mark.parametrize("g,h", [("dihedral:4", "symmetric:3"),
                                 ("cyclic:1", "quaternion:8"),
                                 ("elemab:2:3", "cyclic:2")])
def test_equation_kernel_matches_loop_on_random_stacks(g, h, n_alpha):
    # n_alpha not a multiple of 8 leaves padding bits in the last byte;
    # two labels make both verdicts common
    G, H = tf.make_catalog_group(g), tf.make_catalog_group(h)
    rng = np.random.default_rng(n_alpha)
    lab = rng.integers(0, 2, (n_alpha, H.order))
    acts = rng.integers(0, H.order, (5, H.order))
    maps = rng.integers(0, len(acts), (11, G.order))
    conj = rng.integers(0, 2, (G.order, 2))
    got = actions._equation_fails(lab, acts, maps, conj, G, H)
    want = loop_equation_fails(lab, acts, maps, conj, G, H)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)
    assert 0 < want.sum() < want.size or n_alpha == 1


@pytest.mark.parametrize("g,h", [("dihedral:8", "dihedral:8"),
                                 ("symmetric:4", "symmetric:3"),
                                 ("heisenberg:3", "heisenberg:3")])
def test_sweep_at_generators_matches_every_point(monkeypatch, g, h):
    got, want = _sweep_both_ways(monkeypatch, tf.make_catalog_group(g),
                                 tf.make_catalog_group(h))
    assert got == want


def test_sweep_at_generators_matches_every_point_on_catalog(monkeypatch):
    groups = catalog_groups_up_to(8)
    incompatible = 0
    for _, G in groups:
        for _, H in groups:
            got, want = _sweep_both_ways(monkeypatch, G, H)
            assert got == want
            incompatible += not got["all_compatible"]
    assert len(groups) ** 2 == 196 and incompatible > 0


# -- grids and orbits -----------------------------------------------------

def test_grid_matches_pointwise_checks():
    G = make_cyclic(4)
    H = tf.make_catalog_group("elemab:2:2")
    grid = compatibility_grid(G, H)
    for i in range(len(grid.alphas)):
        for j in range(len(grid.betas)):
            pair = grid.pair(i, j)
            assert bool(grid.compatible[i, j]) \
                == is_compatible(pair).compatible
            norm_g, norm_h = normalizer_conditions(pair)
            assert bool(grid.normalizer_g[i]) == norm_g
            assert bool(grid.normalizer_h[j]) == norm_h


def test_grid_ignores_the_budget_environment(monkeypatch):
    # the library reads no environment variable: without a budget the
    # grid falls back to its own 200,000 pairs, and only the CLI reads
    # TENSORFORGE_BUDGET
    monkeypatch.setenv("TENSORFORGE_BUDGET", "1")
    S3 = tf.make_catalog_group("symmetric:3")
    grid = compatibility_grid(S3, S3)
    assert len(grid.alphas) * len(grid.betas) > 1


def test_grid_of_a_group_with_itself_matches_a_copy():
    # compatibility_grid(G, G) reuses the alpha side as the beta side; a
    # copy of G, a distinct object, takes the two-sided route, which must
    # give the same homs, verdicts and normalizer masks
    keys = [k for k, G in catalog_groups_up_to(8)] + ["elemab:3:2",
                                                      "elemab:2:3"]
    for key in keys:
        G = tf.make_catalog_group(key)
        twin = tf.FiniteGroup(G.table.copy(), validate=False)
        got = compatibility_grid(G, G, budget=verify.GRID_BUDGET)
        want = compatibility_grid(G, twin, budget=verify.GRID_BUDGET)
        assert got.betas is got.alphas
        for side in ("alphas", "betas"):
            assert getattr(got, side).tolist() \
                == getattr(want, side).tolist(), key
        for name in ("compatible", "normalizer_g", "normalizer_h"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), key
            assert np.array_equal(a, b), key


# the six grids of the action-sweep benchmark workload
SWEEP_GRIDS = [("elemab:2:3", "elemab:2:3"), ("dihedral:4", "elemab:2:3"),
               ("quaternion:8", "dihedral:4"), ("elemab:3:2", "elemab:3:2"),
               ("dihedral:8", "cyclic:4"), ("symmetric:3", "dihedral:6")]


def _assert_grid_matches_every_point(monkeypatch, G, H, budget=None):
    got = compatibility_grid(G, H, budget=budget)
    with monkeypatch.context() as m:
        _check_every_point(m)
        want = compatibility_grid(G, H, budget=budget)
    for name in ("compatible", "normalizer_g", "normalizer_h"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert np.array_equal(a, b)
    return got


def test_grid_at_generators_matches_every_point_on_catalog(monkeypatch):
    # every catalog grid up to order 8 within the default grid budget
    groups = catalog_groups_up_to(8)
    grids = mixed = 0
    for _, G in groups:
        for _, H in groups:
            try:
                grid = _assert_grid_matches_every_point(monkeypatch, G, H)
            except BudgetExceeded:
                continue
            grids += 1
            mixed += 0 < grid.compatible.sum() < grid.compatible.size
    assert grids == 195 and mixed > 0


@pytest.mark.parametrize("g,h", SWEEP_GRIDS)
def test_grid_at_generators_matches_every_point_on_sweep_grids(monkeypatch,
                                                               g, h):
    G, H = tf.make_catalog_group(g), tf.make_catalog_group(h)
    grid = _assert_grid_matches_every_point(monkeypatch, G, H,
                                            budget=10_000_000)
    if grid.compatible.size < 100_000:
        # blocks of 50 entries split the stacks of alphas and of betas
        monkeypatch.setattr(actions, "BLOCK_ENTRIES", 50)
        assert np.array_equal(compatibility_grid(G, H).compatible,
                              grid.compatible)


def test_normalizer_mask_matches_reference_loop(monkeypatch):
    # every hom of the grids of verify checks 06-08 (all catalog pairs up
    # to order 8) and of the sweep grids; Hom(H, Aut G) are the alphas of
    # the grid (G, H) and the betas of the grid (H, G)
    keys = [k for k, _ in catalog_groups_up_to(8)]
    sides = {(g, h) for g in keys for h in keys}
    sides |= {side for g, h in SWEEP_GRIDS for side in ((g, h), (h, g))}
    homs = 0
    for g, h in sorted(sides):
        aut = automorphism_group(tf.make_catalog_group(g))
        maps = tf.enumerate_homs(tf.make_catalog_group(h), aut.group)
        want = [reference_normalizer_contains_inn(aut, m) for m in maps]
        assert normalizer_contains_inn(aut, maps).tolist() == want
        with monkeypatch.context() as m:
            m.setattr(automorphisms, "BLOCK_ENTRIES", 50)
            assert normalizer_contains_inn(aut, maps).tolist() == want
        homs += len(maps)
    assert homs == 3925         # 3828 of them in the order-8 grids


def test_enumerate_compatible_pairs_consistency():
    G = make_cyclic(4)
    grid = compatibility_grid(G, G)
    assert grid.compatible.shape == (2, 2)   # |Hom(Z4, Aut Z4)| = 2 per side
    for i in range(len(grid.alphas)):
        for j in range(len(grid.betas)):
            pair = grid.pair(i, j)
            assert bool(grid.compatible[i, j]) \
                == is_compatible(pair).compatible
            norm_g, norm_h = normalizer_conditions(pair)
            assert bool(grid.normalizer_g[i]) == norm_g
            assert bool(grid.normalizer_h[j]) == norm_h


# The orbit walk as it was before the index permutations, kept verbatim as
# the reference for compatible_pair_orbits.

def reference_compatible_pair_orbits(grid):
    """Orbits of the compatible (alpha, beta) pairs under the relabeling
    action of Aut(G) x Aut(H).

    Relabeling g -> sigma(g), h -> tau(h) carries the pair (A, B) to
    A'[tau h] = sigma A[h] sigma^-1, B'[sigma g] = tau B[g] tau^-1 and
    maps the tensor presentation onto itself by renaming symbols, so any
    presentation-level verdict (order, abelianness, invariants) is
    constant on each orbit.  Returns [(i, j, orbit size)] with the
    lexicographically least member as representative.
    """
    autG = automorphism_group(grid.G)
    autH = automorphism_group(grid.H)
    alpha_index = {a.tobytes(): i for i, a in enumerate(grid.alphas)}
    beta_index = {b.tobytes(): j for j, b in enumerate(grid.betas)}
    tg, th = autG.group.table, autH.group.table
    ig, ih = autG.group.inverse, autH.group.inverse

    def movers():
        for s in generating_set(autG.group):
            conj = tg[tg[ig[s], np.arange(autG.order)], s]
            perm = autG.elements[s]
            yield "g", conj, perm
        for t in generating_set(autH.group):
            conj = th[th[ih[t], np.arange(autH.order)], t]
            perm = autH.elements[t]
            yield "h", conj, perm

    gens = list(movers())
    pending = {(int(i), int(j)) for i, j in np.argwhere(grid.compatible)}
    orbits = []
    while pending:
        root = min(pending)
        orbit = {root}
        queue = [root]
        while queue:
            i, j = queue.pop()
            amap = grid.alphas[i]
            bmap = grid.betas[j]
            for side, conj, perm in gens:
                if side == "g":
                    na = conj[amap]
                    nb = np.empty_like(bmap)
                    nb[perm] = bmap
                else:
                    na = np.empty_like(amap)
                    na[perm] = amap
                    nb = conj[bmap]
                nxt = (alpha_index[na.tobytes()], beta_index[nb.tobytes()])
                if nxt not in orbit:
                    orbit.add(nxt)
                    queue.append(nxt)
        pending -= orbit
        orbits.append((*min(orbit), len(orbit)))
    return orbits


def test_orbits_match_reference_on_small_catalog_grids():
    # one list of groups, so G and H are the same object on the diagonal
    groups = catalog_groups_up_to(6)
    for _, G in groups:
        for _, H in groups:
            grid = compatibility_grid(G, H)
            assert compatible_pair_orbits(grid) \
                == reference_compatible_pair_orbits(grid)


@pytest.mark.parametrize("g,h", SWEEP_GRIDS)
def test_orbits_match_reference_on_sweep_grids(g, h):
    grid = compatibility_grid(tf.make_catalog_group(g),
                              tf.make_catalog_group(h), budget=10_000_000)
    orbits = compatible_pair_orbits(grid)
    assert orbits == reference_compatible_pair_orbits(grid)
    assert sum(size for _, _, size in orbits) == int(grid.compatible.sum())
    grid.compatible = np.zeros_like(grid.compatible)
    assert compatible_pair_orbits(grid) == []
    assert reference_compatible_pair_orbits(grid) == []


# The np.unique(axis=0) forms of the two row matchings, kept verbatim as
# the references for groups.row_keys and groups.key_index.

def reference_conjugate_preimages(G, A):
    gens = generating_set(G)
    conj = conjugation_maps(G)
    at = conj[G.inverse][:, gens]       # at[g, k] = gens[k]^(g^-1)
    pre = np.empty((G.order, len(A)), dtype=np.intp)
    step = max(1, actions.BLOCK_ENTRIES // (len(A) * len(gens)))
    for s in range(0, G.order, step):
        g = np.arange(s, min(s + step, G.order))
        # [i, h, k]: the image of gens[k] under g_i hat^-1 A[h] g_i hat
        images = conj[g[:, None, None], A[:, at[g]].transpose(1, 0, 2)]
        images = images.reshape(-1, len(gens))
        _, first, inverse = np.unique(np.concatenate([A[:, gens], images]),
                                      axis=0, return_index=True,
                                      return_inverse=True)
        found = first[inverse.reshape(-1)[len(A):]]
        pre[g] = np.where(found < len(A), found, -1).reshape(len(g), -1)
    return pre


def reference_hom_classes(maps, labels):
    _, first, sizes = np.unique(labels[maps], axis=0, return_index=True,
                                return_counts=True)
    order = np.argsort(first)
    # each member's class, by the first member that it agrees with
    keys = labels[maps]
    classes = {keys[f].tobytes(): c for c, f in enumerate(first[order])}
    index = np.array([classes[k.tobytes()] for k in keys])
    return first[order], sizes[order], index


def _assert_row_keys_match_references(K, L, maps, stacks, labels):
    """``maps`` is an enumerate_homs matrix K -> L, ``stacks`` automorphism
    stacks of some group, and ``labels`` labels L by the cosets of a
    normal subgroup."""
    # the orbit lookup searches the greedy-image keys as they come
    keys = row_keys(maps[:, generating_set(K)])
    assert np.array_equal(np.sort(keys), keys)
    assert len(np.unique(keys)) == len(keys)
    for X, A in stacks:
        assert np.array_equal(actions._conjugate_preimages(X, A),
                              reference_conjugate_preimages(X, A))
    got = actions.hom_classes(maps, labels)
    want = reference_hom_classes(maps, labels)
    assert len(got) == len(want) == 3
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("g,h", SWEEP_GRIDS)
def test_row_keys_match_unique_references_on_sweep_grids(g, h):
    G, H = tf.make_catalog_group(g), tf.make_catalog_group(h)
    grid = compatibility_grid(G, H, budget=10_000_000)
    # the alphas are Hom(H, Aut G), the betas Hom(G, Aut H)
    for K, X, maps in ((H, G, grid.alphas), (G, H, grid.betas)):
        aut = automorphism_group(X)
        _assert_row_keys_match_references(
            K, aut.group, maps, [(X, aut.elements[m]) for m in maps],
            coset_labels(aut.group, center(aut.group))[1])


@pytest.mark.parametrize("g,h", [("dihedral:8", "dihedral:8"),
                                 ("symmetric:4", "symmetric:3")])
def test_row_keys_match_unique_references_on_sweeps(g, h):
    # the sweep's phis and psis, and the alpha stacks of their actions
    G, H = tf.make_catalog_group(g), tf.make_catalog_group(h)
    for K, L in ((G, H), (H, G)):
        maps = tf.enumerate_homs(K, L)
        _assert_row_keys_match_references(
            K, L, maps, [(L, conjugation_maps(L)[m]) for m in maps],
            coset_labels(L, center(L))[1])


@pytest.mark.parametrize("g,h", [("dihedral:8", "dihedral:8"),
                                 ("symmetric:4", "symmetric:3"),
                                 ("symmetric:3", "symmetric:4"),
                                 ("heisenberg:2", "heisenberg:2"),
                                 ("heisenberg:3", "heisenberg:3")])
def test_hom_classes_by_generator_images_match_whole_maps(g, h):
    # Hom(G, H) modulo Z(H), as the sweep and the tensor classes key it:
    # by the images of generating_set(G), which fix each hom
    G, H = tf.make_catalog_group(g), tf.make_catalog_group(h)
    maps = tf.enumerate_homs(G, H)
    labels = coset_labels(H, center(H))[1]
    got = actions.hom_classes(maps[:, list(generating_set(G))], labels)
    want = reference_hom_classes(maps, labels)
    assert len(got) == len(want) == 3
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_orbits_refuse_a_grid_missing_a_moved_hom():
    # the last alpha is moved by Aut(G) onto another alpha; a grid that
    # lacks the last one cannot label the image of the one it moves there
    G = tf.make_catalog_group("elemab:2:2")
    grid = compatibility_grid(G, G)
    short = dataclasses.replace(grid, alphas=grid.alphas[:-1],
                                compatible=grid.compatible[:-1])
    with pytest.raises(CrossCheckFailed, match="relabelled homomorphism"):
        compatible_pair_orbits(short)


def _relabelled(pair, side, sigma):
    """The action maps of ``pair`` after renaming the elements of G (side
    0) or H (side 1) by the automorphism sigma, x -> sigma[x]: the
    renamed side's maps become sigma X[y] sigma^-1, and the other side's
    maps are indexed by the renamed elements."""
    maps = [pair.alpha_maps, pair.beta_maps]
    inverse = np.argsort(sigma)
    maps[side] = sigma[maps[side][:, inverse]]
    maps[1 - side] = maps[1 - side][inverse]
    return maps


def test_orbits_partition_and_preserve_verdicts(monkeypatch):
    # G and H are one object, the case in which a side must be told by its
    # position in the grid and not by identity
    G = tf.make_catalog_group("elemab:2:2")
    grid = compatibility_grid(G, G)
    walk, walks = actions.pair_orbits, []

    def recorded(*args):
        walks.append(walk(*args))
        return walks[-1]
    monkeypatch.setattr(actions, "pair_orbits", recorded)
    orbits = compatible_pair_orbits(grid)
    assert sum(size for _, _, size in orbits) \
        == int(grid.compatible.sum())
    # the orbit walk's labels of the whole grid: each compatible pair, as
    # its flat index, to the flat index of its orbit's least pair
    pairs, label = walks[0]
    least = dict(zip(pairs.tolist(), pairs[label].tolist()))
    n = len(grid.betas)
    aut = automorphism_group(G)
    index = [{aut.elements[m].tobytes(): k for k, m in enumerate(ms)}
             for ms in (grid.alphas, grid.betas)]
    movers = [(side, aut.elements[s]) for side in (0, 1)
              for s in generating_set(aut.group)]
    moved = 0
    for i, j, size in orbits:
        rep = tf.compute_tensor(grid.pair(i, j))
        # carry the representative by each generator of Aut(G) x Aut(H),
        # renaming whole action maps, not Aut indices
        for side, sigma in movers:
            image = tuple(at[m.tobytes()] for at, m in
                          zip(index, _relabelled(grid.pair(i, j), side,
                                                 sigma)))
            assert grid.compatible[image]
            moved += image != (i, j)
            # the image lies in the representative's orbit, which holds
            # ``size`` pairs of the grid
            assert least[image[0] * n + image[1]] == i * n + j
            assert list(least.values()).count(i * n + j) == size
            other = tf.compute_tensor(grid.pair(*image))
            assert (other.order, other.invariants) \
                == (rep.order, rep.invariants)
    assert moved > 0
    # spot equality on the whole grid for this small case
    profiles = {}
    for a, b in np.argwhere(grid.compatible):
        rep = tf.compute_tensor(grid.pair(int(a), int(b)))
        profiles[(int(a), int(b))] = (rep.order, tuple(rep.invariants or ()))
    assert len(set(profiles.values())) <= len(orbits)


@pytest.mark.parametrize("swap", [False, True])
def test_orbits_refuse_a_grid_that_is_not_relabelling_invariant(swap):
    # one compatible pair that an automorphism moves, marked alone: its
    # orbit holds pairs the grid does not mark
    G = tf.make_catalog_group("elemab:2:2")
    grid = compatibility_grid(G, G)
    i, j, size = next(o for o in compatible_pair_orbits(grid) if o[2] > 1)
    only = np.zeros_like(grid.compatible)
    only[i, j] = True
    with pytest.raises(CrossCheckFailed,
                       match="not closed under relabelling"):
        compatible_pair_orbits(dataclasses.replace(grid, compatible=only),
                               swap=swap)


def test_pair_orbits_refuses_an_unclosed_set():
    # the swap of the two coordinates of {0, 1} x {0, 1} moves (0, 1) to
    # (1, 0), which is not marked
    marked = np.array([[True, True], [False, True]])
    assert actions.pair_orbits(marked, [])[1].tolist() == [0, 1, 2]
    with pytest.raises(CrossCheckFailed, match="not closed"):
        actions.pair_orbits(marked, [], swap=True)
    with pytest.raises(CrossCheckFailed, match="not closed"):
        actions.pair_orbits(marked, [(np.array([1, 0]), np.array([0, 1]))])


# -- explorations ---------------------------------------------------------

def reference_question2_records(max_order):
    """(records, pairs scanned) of question2_scan by the two nested loops
    over the alphas and the betas that it walked before one mask."""
    records, pairs_scanned = [], 0
    keys = tf.catalog.catalog_keys_up_to(max_order)
    for gk in keys:
        for hk in keys:
            grid = compatibility_grid(tf.make_catalog_group(gk),
                                      tf.make_catalog_group(hk))
            pairs_scanned += len(grid.alphas) * len(grid.betas)
            for i in range(len(grid.alphas)):
                if not grid.normalizer_g[i]:
                    continue
                for j in range(len(grid.betas)):
                    if not grid.normalizer_h[j]:
                        continue
                    rec = {"g": gk, "h": hk,
                           "alpha_index": i, "beta_index": j,
                           "normalizer_g": True, "normalizer_h": True,
                           "compatible": bool(grid.compatible[i, j])}
                    if not rec["compatible"]:
                        report = is_compatible(grid.pair(i, j))
                        rec["witness"] = dataclasses.asdict(report.witness)
                    records.append(rec)
    return records, pairs_scanned


@pytest.mark.parametrize("max_order,n_records,n_pairs",
                         [(4, 191, 191), (6, 395, 656)])
def test_question2_records_match_nested_loops(max_order, n_records,
                                              n_pairs):
    out = question2_scan(max_order)
    assert (len(out["records"]), out["pairs_scanned"]) \
        == (n_records, n_pairs)
    assert (out["records"], out["pairs_scanned"]) \
        == reference_question2_records(max_order)
    assert out["counterexamples"] \
        == [rec for rec in out["records"] if not rec["compatible"]]
    assert all(type(rec[k]) is int for rec in out["records"]
               for k in ("alpha_index", "beta_index"))


def test_question2_trivial_scan():
    out = question2_scan(1)
    assert len(out["records"]) == 1
    assert out["records"][0]["compatible"]
    assert out["certificate"] == "no-counterexample-up-to-order-1"


def test_question2_counterexamples_replay():
    out = question2_scan(4)
    # paper-style case 3 lives here: abelian groups satisfy the inclusions
    # trivially but admit incompatible mutual actions
    assert out["counterexamples"]
    for rec in out["counterexamples"][:5]:
        assert rec["normalizer_g"] and rec["normalizer_h"]
        assert not rec["compatible"]
        assert rec["witness"]["lhs"] != rec["witness"]["rhs"]

