"""Time two trees' library calls side by side in one process.

    python3 tools/ab_calls.py PARENT CHANGE --rounds 15

PARENT and CHANGE are two checkouts.  Each one's ``src/tensorforge`` is
imported under its own package name (the package uses relative imports
only), so both run in the same process on the same machine state.  Every
round times each workload once on each side, the parent first in even
rounds and the change first in odd ones.  Printed are the best and the
median per side, their ratios change over parent, and the median of the
rounds' own ratios ("paired").  The workloads:

- ``trivial-6``: 200 ``compute_tensor`` calls on the 6-symbol pair
  cyclic:2 x cyclic:3 with trivial actions, per call;
- ``check06``: ``compute_tensor`` on the 722 Aut x Aut orbit
  representatives of the compatible pairs of every ordered pair of
  abelian catalog groups up to order 8, per pass: a fixed enumeration
  workload, more than check 06 computes since it takes each unordered
  pair once;
- ``large``: one pass of the ``tensor-large`` benchmark ops, eight
  in-process ``tensorforge --json tensor`` calls, each result checked;
- ``collapse``: one pass of the ``tensor-collapse`` benchmark ops, nine
  in-process ``tensorforge --json tensor`` calls, each result checked;
- ``action-sweep``: one pass of the ``action-sweep`` benchmark ops,
  grids with their orbits, Aut(G), hom-pair sweeps and compatibility
  checks on fresh group objects, each result checked;
- ``check08``: verify check 08, the induced betas of the injective
  alphas H -> Aut(G) over the catalog pairs up to order 8, per pass;
- ``check09``: verify check 09, the hom-pair sweeps of heisenberg:2 and
  heisenberg:3 with themselves, per pass;
- ``check10``: verify check 10, the Z2 criterion on the involutive
  automorphisms of every catalog group up to order 16, per pass;
- ``classify-2``: ``hom_pair_tensor_classes`` of heisenberg:2, the
  library call behind ``explore classify-heisenberg 2``, per pass;
- ``verify``: one ``run_verification()`` pass, the thirteen checks of
  ``tensorforge verify paper``, per pass;
- ``series``: ``nilpotency_class``, the order of ``derived_subgroup``,
  ``is_abelian`` and the orders of ``center`` and ``second_hypercenter``
  of five groups of order 125 to 4,096, each on a fresh copy of its table
  so that no generators are cached, each result checked, per pass.

Separate processes of one tree can drift apart by far more than the
differences measured here; alternating inside one process does not.
A cost paid once per process, such as a lazy import (numpy imports
``numpy.ma`` on the first plain ``np.unique(x)``), is paid once per
interpreter by whichever tree reaches it first, so this A/B cannot
compare such costs; ``tools/bench_pairs.py``, which runs each side in
its own processes, can.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SIDES = ("parent", "change")


def load(tree, name):
    """The tree's ``src/tensorforge`` imported as package ``name``."""
    init = Path(tree).resolve() / "src" / "tensorforge" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "verify"):
        importlib.import_module(f"{name}.{module}")
    return package


def check06_pairs(tf):
    """The 722 orbit representatives of the ordered pairs of abelian
    catalog groups up to order 8, in the order of that loop."""
    groups = [G for _, G in tf.catalog.catalog_groups_up_to(8)
              if G.is_abelian]
    return [grid.pair(i, j) for G in groups for H in groups
            for grid in [tf.actions.compatibility_grid(
                G, H, budget=tf.verify.GRID_BUDGET)]
            for i, j, _ in tf.actions.compatible_pair_orbits(grid)]


def trivial6(tf):
    small = tf.ActionPair.trivial(tf.make_catalog_group("cyclic:2"),
                                  tf.make_catalog_group("cyclic:3"))

    def run():
        for _ in range(200):
            tf.compute_tensor(small)
    return run, 200


def check06(tf):
    pairs = check06_pairs(tf)

    def run():
        for pair in pairs:
            tf.compute_tensor(pair)
    return run, 1


def benchmark_pass(ops):
    """One pass over benchmark ops, each result checked by its oracle."""
    def run():
        for op in ops:
            failure = op.check(op.call())
            if failure is not None:
                raise RuntimeError(f"{op.name}: {failure}")
    return run, 1


def large(tf):
    return benchmark_pass(workloads.tensor_large(tf)[0])


def collapse(tf):
    return benchmark_pass(workloads.tensor_collapse(tf)[0])


def action_sweep(tf):
    return benchmark_pass(workloads.action_sweep(tf)[0])


def verify_check(name):
    """The builder of a workload that runs the verify check ``name`` once
    per pass, and fails when the check does."""
    def build(tf):
        check = getattr(tf.verify, name)

        def run():
            if not check()["passed"]:
                raise RuntimeError(f"{name} failed")
        return run, 1
    return build


def classify2(tf):
    G = tf.make_catalog_group("heisenberg:2")

    def run():
        tf.tensor.hom_pair_tensor_classes(G)
    return run, 1


def verify(tf):
    def run():
        tf.verify.run_verification()
    return run, 1


# group -> (nilpotency class, |G'|, is abelian, |Z(G)|, |Z2(G)|), pinned
SERIES = {"product:quaternion:8,elemab:2:9": (2, 2, False, 1024, 4096),
          "dihedral:512": (9, 256, False, 2, 4),
          "product:dihedral:16,dihedral:16": (4, 64, False, 4, 16),
          "product:symmetric:4,cyclic:4": (None, 12, False, 4, 4),
          "heisenberg:5": (2, 5, False, 5, 125)}


def series(tf):
    tables = {key: tf.make_catalog_group(key).table for key in SERIES}

    def run():
        for key, want in SERIES.items():
            G = tf.FiniteGroup(tables[key], validate=False)
            got = (tf.nilpotency_class(G), tf.derived_subgroup(G).order,
                   G.is_abelian, tf.center(G).order,
                   tf.second_hypercenter(G).order)
            if got != want:
                raise RuntimeError(f"{key}: got {got}, want {want}")
    return run, 1


# workload -> builder of (callable, calls it makes) for one side
WORKLOADS = {"trivial-6": trivial6, "check06": check06, "large": large,
             "collapse": collapse, "action-sweep": action_sweep,
             "check08": verify_check("check_induced_beta_soundness"),
             "check09": verify_check("check_hypercenter_congruence"),
             "check10": verify_check("check_z2_criterion_equivalence"),
             "classify-2": classify2, "verify": verify, "series": series}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="time only this workload (repeatable)")
    args = parser.parse_args(argv)
    chosen = args.workload or list(WORKLOADS)
    sides = {}
    for side, tree in zip(SIDES, (args.parent, args.change)):
        tf = load(tree, f"tensorforge_{side}")
        sides[side] = {w: WORKLOADS[w](tf) for w in chosen}
    times = {w: {side: [] for side in SIDES} for w in chosen}
    for side in SIDES:                  # warm every cache once
        for w in times:
            sides[side][w][0]()
    for k in range(args.rounds):
        for w in times:
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                fn, calls = sides[side][w]
                t0 = perf_counter()
                fn()
                times[w][side].append((perf_counter() - t0) / calls)
    print(f"{'workload':12s} {'side':7s} {'best ms':>10s} {'median ms':>10s}")
    for w, by_side in times.items():
        for side in SIDES:
            print(f"{w:12s} {side:7s} {min(by_side[side]) * 1e3:10.3f} "
                  f"{statistics.median(by_side[side]) * 1e3:10.3f}")
        ratio = [min(by_side["change"]) / min(by_side["parent"]),
                 statistics.median(by_side["change"])
                 / statistics.median(by_side["parent"])]
        paired = statistics.median(c / p for p, c in zip(*by_side.values()))
        print(f"{w:12s} {'ratio':7s} {ratio[0]:10.3f} {ratio[1]:10.3f}"
              f"  paired {paired:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
