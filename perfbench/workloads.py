"""The four benchmark workloads: their op lists and correctness oracles.

An op is one closed-loop call into a public entry point of tensorforge.
``call`` runs it and returns the raw output; only ``call`` is timed.
``check`` compares that output with an oracle and returns None when it is
right, or a one-line description of the miss.

Oracles use independent values where they exist: the abelian tensor
product of the abelianizations for trivial actions, Prop. 5.3 (A (x) Z2
with inversion is A) for inversion pairs, the tensor squares of Brown,
Johnson and Robertson (J. Algebra 111, 1987) for non-abelian squares, and
the known orders of Aut(G).  Everything else is pinned to the output of
the seed code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    # Seconds one pass over the op list takes at the seed on a 2-core Xeon.
    # A run makes max(1, round(seconds / pass_s)) passes, so the same
    # arguments give the same work on every commit.
    pass_s: float
    # tensorforge modules -> (op list, the op run once during set-up)
    build: Callable[[object], tuple]
    # The seed permutes each pass.  verify-paper keeps the suite's order:
    # in a shuffled order its peak memory varied by a quartile spread of
    # 0.05 instead of 0.002.
    shuffle: bool = True

    def passes(self, seconds):
        return max(1, round(seconds / self.pass_s))


# -- independent values -----------------------------------------------------

def invariant_factors(orders):
    """Invariant factors, each dividing the next, of the direct sum of
    cyclic groups of the given orders."""
    powers = {}
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    columns = [sorted(qs, reverse=True) for qs in powers.values()]
    width = max((len(qs) for qs in columns), default=0)
    return sorted(math.prod(qs[i] for qs in columns if i < len(qs))
                  for i in range(width))


def abelian_tensor(a, b):
    """Z_m (x) Z_n = Z_gcd(m, n), summed over the cyclic factors."""
    return invariant_factors([math.gcd(m, n) for m in a for n in b])


# Abelian invariants of the catalog groups used below.
INVARIANTS = {
    "cyclic:12": [12], "cyclic:64": [64],
    "elemab:2:3": [2, 2, 2], "elemab:3:2": [3, 3],
    "product:cyclic:2,cyclic:6": [2, 6], "product:cyclic:4,cyclic:4": [4, 4],
    "product:cyclic:4,cyclic:8": [4, 8],
}
ABELIANIZATION = {"dihedral:6": [2, 2], "dihedral:8": [2, 2],
                  "quaternion:8": [2, 2], "symmetric:3": [2]}


def dihedral_square(n):
    """D_2n (x) D_2n (Brown-Johnson-Robertson 1987): Z2^3 x Zn for n even,
    Z2 x Zn for n odd; the derivative is the derived subgroup, of order n/2
    for n even and n for n odd."""
    if n % 2:
        return invariant_factors([2, n]), n
    return invariant_factors([2, 2, 2, n]), n // 2


# -- tensor workloads: in-process ``tensorforge --json tensor`` -------------

def _tensor_op(tf, g, h, alpha, beta, invariants, derivative, note=None):
    argv = ["--json", "tensor", "--g", g, "--h", h,
            "--alpha", alpha, "--beta", beta]
    order = math.prod(invariants)
    want = {"order": order, "abelian": True, "invariants": invariants,
            "derivative_order": derivative,
            "kernel_order": order // derivative}

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tf.cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        got = json.loads(text)["results"]
        for key, value in want.items():
            if got[key] != value:
                return f"{key} is {got[key]!r}, want {value!r}"
        if note is not None and note not in got["notes"]:
            return f"notes {got['notes']!r} lack {note!r}"
        return None

    return Op(f"tensor {g} {h} {alpha}", call, check)


def _square(tf, key):
    if key in INVARIANTS:
        invariants = abelian_tensor(INVARIANTS[key], INVARIANTS[key])
        derivative = 1
    elif key == "quaternion:8":
        invariants, derivative = [2, 2, 4, 4], 2     # BJR 1987
    else:
        invariants, derivative = dihedral_square(int(key.split(":")[1]))
    return _tensor_op(tf, key, key, "conjugation", "conjugation",
                      invariants, derivative)


def _trivial(tf, g, h):
    return _tensor_op(tf, g, h, "trivial", "trivial",
                      abelian_tensor(ABELIANIZATION[g], ABELIANIZATION[h]), 1)


def _inversion(tf, key):
    # Prop. 5.3: A (x) Z2 with Z2 acting by inversion is A; the derivative
    # is 2A = {a^-2}, whose order is |A| over the number of its involutions
    inv = INVARIANTS[key]
    derivative = math.prod(n // 2 if n % 2 == 0 else n for n in inv)
    return _tensor_op(tf, key, "cyclic:2", "inversion", "trivial", inv,
                      derivative, note=f"isomorphic to {key}")


def tensor_large(tf):
    keys = ["quaternion:8", "dihedral:4", "elemab:2:3", "elemab:3:2",
            "dihedral:6", "dihedral:8", "product:cyclic:2,cyclic:6",
            "product:cyclic:4,cyclic:4"]
    ops = [_square(tf, key) for key in keys]
    return ops, ops[0]


def tensor_collapse(tf):
    ops = [_trivial(tf, "dihedral:8", "dihedral:8"),
           _trivial(tf, "quaternion:8", "dihedral:8"),
           _trivial(tf, "dihedral:6", "dihedral:6"),
           _trivial(tf, "symmetric:3", "dihedral:6"),
           _trivial(tf, "quaternion:8", "quaternion:8"),
           _inversion(tf, "cyclic:64"),
           _inversion(tf, "product:cyclic:4,cyclic:8"),
           _square(tf, "cyclic:12"),
           _square(tf, "dihedral:7")]
    return ops, ops[3]


# -- action-sweep: library calls that run no coset enumeration --------------

# The verify suite's grid budget; elemab:2:3 squared has 736 x 736 pairs.
GRID_BUDGET = 10_000_000

# (alphas, betas, compatible, normalizer_g, normalizer_h, orbits) at the seed
GRIDS = {
    ("elemab:2:3", "elemab:2:3"): (736, 736, 14260, 736, 736, 20),
    ("dihedral:4", "elemab:2:3"): (120, 316, 2164, 106, 316, 36),
    ("quaternion:8", "dihedral:4"): (76, 28, 292, 58, 22, 33),
    ("elemab:3:2", "elemab:3:2"): (33, 33, 129, 33, 33, 4),
    ("dihedral:8", "cyclic:4"): (24, 4, 20, 8, 4, 12),
    ("symmetric:3", "dihedral:6"): (16, 20, 14, 7, 14, 4),
}
AUT_ORDERS = {"heisenberg:3": 432, "elemab:2:3": 168, "symmetric:4": 24}
# (n_phi, n_psi, n_pairs, n_congruent, n_compatible) at the seed
SWEEPS = {
    ("dihedral:8", "dihedral:8"): (100, 100, 10000, 512, 528),
    ("symmetric:4", "symmetric:3"): (10, 34, 340, 0, 1),
}
# (G, alpha, beta) -> None if compatible, else the seed's lex-first witness
# (equation, g, g1, h, h1, lhs, rhs).  A conjugation square is always
# compatible; (conjugation, trivial) is compatible iff G has class <= 2.
COMPAT = {
    ("symmetric:4", "conjugation", "conjugation"): None,
    ("dihedral:8", "conjugation", "conjugation"): None,
    ("heisenberg:3", "conjugation", "conjugation"): None,
    ("quaternion:8", "conjugation", "conjugation"): None,
    ("heisenberg:3", "conjugation", "trivial"): None,
    ("quaternion:8", "conjugation", "trivial"): None,
    ("symmetric:4", "conjugation", "trivial"):
        ("first", 1, 1, 2, None, 5, 2),
    ("dihedral:8", "conjugation", "trivial"):
        ("first", 1, 1, 2, None, 13, 5),
    ("dihedral:8", "trivial", "conjugation"):
        ("second", 2, None, 1, 1, 13, 5),
    ("cyclic:3", "inversion", "inversion"):
        ("first", 1, 1, 1, None, 1, 2),
}


def _expect(name, want, got):
    return None if got == want else f"{name} is {got!r}, want {want!r}"


def action_sweep(tf):
    # Tables are built here, during set-up; every op wraps them in fresh
    # group objects, so no cache on a group carries over between ops.
    keys = {k for pair in list(GRIDS) + list(SWEEPS) for k in pair}
    keys |= set(AUT_ORDERS) | {g for g, _, _ in COMPAT}
    tables = {k: np.array(tf.catalog.make_catalog_group(k).table)
              for k in sorted(keys)}

    def fresh(key):
        return tf.groups.from_cayley_table(tables[key])

    def maps(G, spec):
        if spec == "conjugation":
            return tf.actions.conjugation_maps(G)
        if spec == "inversion":
            # the paper's Z3 example: element 1 acts by inversion and every
            # other element trivially, which is no homomorphism
            rows = np.tile(np.arange(G.order), (G.order, 1))
            rows[1] = G.inverse
            return rows
        return np.tile(np.arange(G.order), (G.order, 1))

    ops = []
    for (g, h), want in GRIDS.items():
        def call(g=g, h=h):
            grid = tf.actions.compatibility_grid(fresh(g), fresh(h),
                                                 budget=GRID_BUDGET)
            return grid, tf.actions.compatible_pair_orbits(grid)

        def check(result, want=want):
            grid, orbits = result
            got = (len(grid.alphas), len(grid.betas),
                   int(grid.compatible.sum()), int(grid.normalizer_g.sum()),
                   int(grid.normalizer_h.sum()), len(orbits))
            if sum(size for _, _, size in orbits) != got[2]:
                return "orbit sizes do not add up to the compatible pairs"
            return _expect("grid", want, got)
        ops.append(Op(f"grid {g} {h}", call, check))
    for key, want in AUT_ORDERS.items():
        ops.append(Op(
            f"aut {key}",
            lambda key=key: tf.automorphisms.automorphism_group(fresh(key)),
            lambda aut, want=want: _expect("|Aut(G)|", want, aut.order)))
    for (g, h), want in SWEEPS.items():
        ops.append(Op(
            f"sweep {g} {h}",
            lambda g=g, h=h: tf.actions.hom_pair_compatibility_sweep(
                fresh(g), fresh(h)),
            lambda r, want=want: _expect("sweep", want, (
                r["n_phi"], r["n_psi"], r["n_pairs"], r["n_congruent"],
                r["n_compatible"]))))
    for (key, alpha, beta), want in COMPAT.items():
        def call(key=key, alpha=alpha, beta=beta):
            G, H = fresh(key), fresh(key)
            pair = tf.actions.ActionPair(G, H, maps(G, alpha), maps(H, beta))
            return tf.actions.is_compatible(pair)

        def check(report, want=want):
            w = report.witness
            got = None if w is None else (w.equation, w.g, w.g1, w.h, w.h1,
                                          w.lhs, w.rhs)
            if report.compatible != (want is None):
                return f"compatible is {report.compatible}"
            return _expect("witness", want, got)
        ops.append(Op(f"compat {key} {alpha} {beta}", call, check))
    return ops, ops[5]


# -- verify-paper: the 13 checks of ``tensorforge verify paper`` ------------

# (name, computed value) of every row at the seed, in JSON form.  A row
# passes when its computed value equals its expected value.
VERIFY_ROWS = [
    ("Z3xZ3-case1-trivial", {"order": 3, "abelian": True, "invariants": [3]}),
    ("Z3xZ3-case2-inversion-alpha",
     {"compatible": True, "a2xb=(axb)^2": True, "axb2=(axb)^3": True,
      "(axb)^3=1": True, "order": 1, "derivative=G": True,
      "co-derivative=1": True}),
    ("Z3xZ3-case3-incompatible",
     {"compatible": False, "witness": ["first", 1, 1, 1, 1, 2]}),
    ("prop5.3-inversion-AxZ2",
     {k: [True, True, True] for k in ["cyclic:2", "cyclic:3", "cyclic:4",
                                       "cyclic:6",
                                       "product:cyclic:2,cyclic:4"]}),
    ("prop2.2(2)-trivial-actions", []),
    ("prop2.2(1)-abelian-tensors", []),
    ("theorem1-claim1-necessity", []),
    ("theorem1-claim2-induced-beta", []),
    ("theorem2-hypercenter-congruence",
     {"2": {"pairs": 1296, "all_congruent": True, "all_compatible": True},
      "3": {"pairs": 531441, "all_congruent": True,
            "all_compatible": True}}),
    ("prop5.2-z2-criterion", []),
    ("free-group-counterexample", True),
    ("heisenberg3-aut-derivative",
     {"phi_is_automorphism": True, "certificate_is_x1": True,
      "derivative_order": 27}),
    ("enumerator-round-trip", []),
]
# Row 02 is the documented disagreement with the paper: the full relator
# families force order 1 where the paper, and the row's expectation, say 3.
# The row fails, and its expectation stays as it is.
EXPECTED_02 = dict(VERIFY_ROWS[1][1], order=3)


def _json_form(value):
    return json.loads(json.dumps(value, sort_keys=True))


def verify_paper(tf):
    """The 13 checks in the suite's order, each one op; a pass is the
    suite.  The checks are called through the verify module, where the
    tracer can wrap them."""
    names = [check.__name__ for check in tf.verify.CHECKS]
    if len(names) != len(VERIFY_ROWS):
        raise ValueError(f"verify.CHECKS has {len(names)} checks, "
                         f"want {len(VERIFY_ROWS)}")
    ops = []
    for i, (name, computed) in enumerate(VERIFY_ROWS):
        expected = EXPECTED_02 if i == 1 else computed
        want = _json_form({"name": name, "passed": expected == computed,
                           "expected": expected, "computed": computed})

        def check(row, i=i, want=want):
            got = _json_form({key: row[key] for key in want})
            for key, value in want.items():
                if got[key] != value:
                    return (f"check{i + 1:02d} {key} is {got[key]!r}, "
                            f"want {value!r}")
            return None
        ops.append(Op(f"check{i + 1:02d}",
                      lambda name=names[i]: getattr(tf.verify, name)(),
                      check))
    return ops, ops[0]


WORKLOADS = {w.name: w for w in [
    Workload("tensor-large", 3.8, tensor_large),
    Workload("tensor-collapse", 1.5, tensor_collapse),
    Workload("action-sweep", 3.6, action_sweep),
    Workload("verify-paper", 38.0, verify_paper, shuffle=False),
]}
