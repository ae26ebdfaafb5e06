"""The fixed verification suite behind ``tensorforge verify paper``.

Thirteen named checks, each returning a record with a pass/fail verdict,
the expected and computed values, and wall-clock seconds.  The suite is
deterministic; the acceptance tests and the CLI both run exactly this
code.
"""

from __future__ import annotations

import time

import numpy as np

from .abelian import abelian_invariants, abelian_tensor
from .actions import (ActionPair, compatibility_grid, compatible_pair_orbits,
                      hom_pair_compatibility_sweep, induced_beta,
                      involution_pair, is_compatible, named_action,
                      z2_action_criterion)
from .automorphisms import automorphism_group, normalizer_contains_inn
from .catalog import catalog_groups_up_to, make_catalog_group
from .errors import CrossCheckFailed, NormalizerConditionFails
from .groups import center, commuting_with, make_cyclic
from .homs import hom_from_images, injective_homs, involutive_automorphisms
from .presentations import Presentation, coset_enumerate, table_to_group
from .tensor import compute_tensor, derivative_subgroup

GRID_BUDGET = 10_000_000


def _record(name, expected, computed, started, detail=""):
    return {"name": name,
            "passed": expected == computed,
            "expected": expected,
            "computed": computed,
            "seconds": round(time.perf_counter() - started, 3),
            "detail": detail}


def _z3_pair(beta):
    """Z3 on Z3: alpha by the paper's inversion assignment, beta by
    ``beta``."""
    Z3 = make_cyclic(3)
    return ActionPair(Z3, Z3, named_action("inversion", Z3, Z3),
                      named_action(beta, Z3, Z3))


def check_case1_trivial():
    t0 = time.perf_counter()
    Z3 = make_cyclic(3)
    rep = compute_tensor(ActionPair.trivial(Z3, Z3))
    computed = {"order": rep.order, "abelian": rep.tensor.is_abelian,
                "invariants": rep.invariants}
    expected = {"order": 3, "abelian": True,
                "invariants": abelian_tensor([3], [3])}
    return _record("Z3xZ3-case1-trivial", expected, computed, t0)


def check_case2_inversion_alpha():
    t0 = time.perf_counter()
    pair = _z3_pair("trivial")
    rep = compute_tensor(pair)
    T, s = rep.tensor, rep.symbol
    ab = s(1, 1)
    computed = {
        "compatible": is_compatible(pair).compatible,
        "a2xb=(axb)^2": s(2, 1) == T.mul(ab, ab),
        "axb2=(axb)^3": s(1, 2) == T.power(ab, 3),
        "(axb)^3=1": T.power(ab, 3) == T.identity,
        "order": rep.order,
        "derivative=G": rep.derivative.order == 3,
        "co-derivative=1": derivative_subgroup(pair.swapped()).order == 1,
    }
    expected = {"compatible": True, "a2xb=(axb)^2": True,
                "axb2=(axb)^3": True, "(axb)^3=1": True, "order": 3,
                "derivative=G": True, "co-derivative=1": True}
    return _record(
        "Z3xZ3-case2-inversion-alpha", expected, computed, t0,
        detail="the full relator families force (axb)=1, and no product "
               "equal to the identity is needed: a2xb=(axb)(axb) and "
               "axb=(a2xb)(a2xb) give (axb)^3=1, axb2=(axb)(a2xb) then "
               "gives axb2=1, and axb=(axb2)(axb2) gives axb=1; b acting "
               "by inversion and b^2 trivially is not an action of Z3, "
               "and order 3 does not follow from the definition")


def check_case3_incompatible():
    t0 = time.perf_counter()
    pair = _z3_pair("inversion")
    report = is_compatible(pair)
    w = report.witness
    computed = {"compatible": report.compatible,
                "witness": None if w is None else
                (w.equation, w.g, w.g1, w.h, w.lhs, w.rhs)}
    expected = {"compatible": False,
                "witness": ("first", 1, 1, 1, 1, 2)}
    return _record("Z3xZ3-case3-incompatible", expected, computed, t0,
                   detail="witness g=a, g1=a, h=b with lhs=a, rhs=a^2")


def check_inversion_tensor_iso():
    t0 = time.perf_counter()
    keys = ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6",
            "product:cyclic:2,cyclic:4"]
    computed = {}
    for key in keys:
        A = make_catalog_group(key)
        pair = involution_pair(A, A.inverse)
        rep = compute_tensor(pair)
        gens = [rep.symbol(a, 1) for a in range(A.order)]
        images = list(range(A.order))
        iso = hom_from_images(rep.tensor, A, gens, images)
        computed[key] = (is_compatible(pair).compatible,
                         rep.order == A.order, iso.is_bijective)
    expected = {key: (True, True, True) for key in keys}
    return _record("prop5.3-inversion-AxZ2", expected, computed, t0)


def check_trivial_actions_abelianization():
    """G (x) H with trivial actions is G^ab (x) H^ab, over every ordered
    pair of catalog groups up to order 8.  The swap g (x) h -> (h (x)
    g)^-1 is an isomorphism G (x) H -> H (x) G, and abelian_tensor is
    symmetric, so each unordered pair is computed once and an
    off-diagonal pair counts, and fails, in both orders."""
    t0 = time.perf_counter()
    groups = catalog_groups_up_to(8)
    failures = []
    n = 0
    for a, (gk, G) in enumerate(groups):
        for hk, H in groups[a:]:
            rep = compute_tensor(ActionPair.trivial(G, H))
            want = abelian_tensor(abelian_invariants(G),
                                  abelian_invariants(H))
            got = rep.invariants if rep.tensor.is_abelian else None
            if got != want:
                failures.append((gk, hk, got, want))
                if H is not G:
                    failures.append((hk, gk, got, want))
            n += 1 if H is G else 2
    return _record("prop2.2(2)-trivial-actions", [], failures, t0,
                   detail=f"{n} catalog pairs up to order 8")


def check_abelian_compatible_abelian():
    """G (x) H is abelian for every compatible pair of actions between
    abelian catalog groups up to order 8, one product per orbit.  The
    swap g (x) h -> (h (x) g)^-1 is an isomorphism G (x) H -> H (x) G,
    and the grid of (H, G) is the transpose of that of (G, H), so each
    unordered pair of groups is computed once: an off-diagonal orbit
    counts, and fails, in both orders, and a group's own grid takes its
    orbits under the swap too."""
    t0 = time.perf_counter()
    groups = [(k, G) for k, G in catalog_groups_up_to(8) if G.is_abelian]
    failures = []
    pairs = 0
    for a, (gk, G) in enumerate(groups):
        for hk, H in groups[a:]:
            grid = compatibility_grid(G, H, budget=GRID_BUDGET)
            for i, j, size in compatible_pair_orbits(grid, swap=H is G):
                rep = compute_tensor(grid.pair(i, j))
                if not rep.tensor.is_abelian:
                    failures.append((gk, hk, i, j))
                    if H is not G:
                        failures.append((hk, gk, j, i))
                pairs += size if H is G else 2 * size
    return _record("prop2.2(1)-abelian-tensors", [], failures, t0,
                   detail=f"{pairs} compatible pairs via orbit "
                          "representatives")


def check_normalizer_necessity():
    """The grid of (H, G) is that of (G, H) transposed, its alphas the
    other's betas, so each unordered pair of groups is computed once."""
    t0 = time.perf_counter()
    groups = catalog_groups_up_to(8)
    bad = {}
    for a, (gk, G) in enumerate(groups):
        for hk, H in groups[a:]:
            grid = compatibility_grid(G, H, budget=GRID_BUDGET)
            bad[gk, hk] = grid.compatible & ~(grid.normalizer_g[:, None]
                                              & grid.normalizer_h[None, :])
            if H is not G:
                bad[hk, gk] = bad[gk, hk].T
    violations = [(gk, hk, int(i), int(j)) for gk, _ in groups
                  for hk, _ in groups for i, j in np.argwhere(bad[gk, hk])]
    pairs = sum(b.size for b in bad.values())
    return _record("theorem1-claim1-necessity", [], violations, t0,
                   detail=f"{pairs} action pairs scanned")


def check_induced_beta_soundness():
    t0 = time.perf_counter()
    groups = catalog_groups_up_to(8)
    failures = []
    built = 0
    for gk, G in groups:
        autG = automorphism_group(G)
        for hk, H in groups:
            # the injective alphas whose image Inn(G) normalizes; the
            # others are out of scope
            alphas = injective_homs(H, autG.group)
            for alpha in alphas[normalizer_contains_inn(autG, alphas)]:
                # induced_beta re-checks its pair with is_compatible
                try:
                    induced_beta(G, H, alpha)
                except NormalizerConditionFails:
                    failures.append((gk, hk, "hypothesis check disagrees"))
                    continue
                except CrossCheckFailed:
                    failures.append((gk, hk, "induced pair incompatible"))
                    continue
                built += 1
    return _record("theorem1-claim2-induced-beta", [], failures, t0,
                   detail=f"{built} induced pairs built and verified")


def check_hypercenter_congruence():
    t0 = time.perf_counter()
    computed = {}
    for p in (2, 3):
        G = make_catalog_group(f"heisenberg:{p}")
        r = hom_pair_compatibility_sweep(G, G)
        computed[p] = {"pairs": r["n_pairs"],
                       "all_congruent": r["all_congruent"],
                       "all_compatible": r["all_compatible"]}
    expected = {2: {"pairs": 1296, "all_congruent": True,
                    "all_compatible": True},
                3: {"pairs": 531441, "all_congruent": True,
                    "all_compatible": True}}
    return _record("theorem2-hypercenter-congruence", expected, computed, t0)


def check_z2_criterion_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    checked = 0
    for key, G in catalog_groups_up_to(16):
        for m in involutive_automorphisms(G):
            crit, _ = z2_action_criterion(G, m)
            comp = is_compatible(involution_pair(G, m)).compatible
            if crit != comp:
                mismatches.append((key, m.tolist()))
            checked += 1
    return _record("prop5.2-z2-criterion", [], mismatches, t0,
                   detail=f"{checked} involutive automorphisms")


def check_free_counterexample():
    """Replay the free-group computation showing that the congruence
    hypothesis cannot be dropped: with phi(x1) = y1 and psi trivial,
    y2^x1 = y1^-1 y2 y1 is a reduced word different from y2."""
    t0 = time.perf_counter()
    y1, y2 = (1,), (2,)
    conj = Presentation(2, [tuple(-x for x in y1[::-1]) + y2 + y1]).relators
    return _record("free-group-counterexample", True,
                   conj == ((-1, 2, 1),) and conj != (y2,), t0)


def check_heisenberg_aut_derivative():
    t0 = time.perf_counter()
    G = make_catalog_group("heisenberg:3")
    aut = automorphism_group(G)
    beta = np.tile(np.arange(aut.order), (G.order, 1))
    pair = ActionPair(G, aut.group, aut.elements, beta, validate=False)
    # the elementary automorphism x2 -> x2 x1 with x1 fixed
    # x1 the first non-central element, x2 the first not commuting with it
    x1 = int(np.argmin(center(G).mask()))
    x2 = int(np.argmin(commuting_with(G, [x1])))
    phi = hom_from_images(G, G, [x1, x2], [x1, G.mul(x2, x1)])
    certificate = G.mul(G.inv(x2), phi(x2))
    derivative = derivative_subgroup(pair)
    computed = {"phi_is_automorphism": phi.is_bijective,
                "certificate_is_x1": certificate == x1,
                "derivative_order": derivative.order}
    expected = {"phi_is_automorphism": True, "certificate_is_x1": True,
                "derivative_order": G.order}
    return _record("heisenberg3-aut-derivative", expected, computed, t0,
                   detail=f"|H| = |Aut(G)| = {aut.order}")


def check_enumerator_round_trip():
    t0 = time.perf_counter()
    failures = []
    n = 0
    for key, G in catalog_groups_up_to(27):
        # the words i j (ij)^-1, row-major over (i, j)
        g = np.arange(1, G.order + 1)
        presentation = Presentation(G.order, np.stack(np.broadcast_arrays(
            g[:, None], g, -(G.table + 1)), axis=-1).reshape(-1, 3))
        table = coset_enumerate(presentation)
        K, images = table_to_group(table)
        # element i is generator i + 1; i -> its image must be G = K
        m = np.asarray(images, dtype=np.intp)
        if (table.ncosets != G.order
                or not np.array_equal(np.sort(m), np.arange(G.order))
                or not np.array_equal(m[G.table], K.table[m[:, None], m])):
            failures.append(key)
        n += 1
    return _record("enumerator-round-trip", [], failures, t0,
                   detail=f"{n} catalog groups up to order 27")


CHECKS = [
    check_case1_trivial,
    check_case2_inversion_alpha,
    check_case3_incompatible,
    check_inversion_tensor_iso,
    check_trivial_actions_abelianization,
    check_abelian_compatible_abelian,
    check_normalizer_necessity,
    check_induced_beta_soundness,
    check_hypercenter_congruence,
    check_z2_criterion_equivalence,
    check_free_counterexample,
    check_heisenberg_aut_derivative,
    check_enumerator_round_trip,
]


def run_verification():
    """Run every check; returns the list of records in fixed order."""
    return [check() for check in CHECKS]
