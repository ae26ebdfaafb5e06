"""Run the tensor squares past the 256-symbol cap, each checked by an oracle.

    python3 tools/frontier.py TREE [--json OUT]
    python3 tools/frontier.py PARENT CHANGE --rounds 3

Each op runs in its own subprocess, which imports the tree's
``src/tensorforge`` and raises ``tensor.MAX_SYMBOLS`` in that process
only; no file is edited.  Most ops are one conjugation square
``compute_tensor`` that ``tensor_presentation`` refuses at the library's
``MAX_SYMBOLS``.  The subprocess reports the op's wall time, its peak
resident memory (``ru_maxrss``, read before the oracle runs), the time
and ``ru_maxrss`` after each of its steps (enumeration, ``table_to_group``,
kappa and the rest of the report), the ``EnumerationStats`` of its
enumeration, and the product's order, invariants, kernel, derivative and
class, and checks them against an oracle:

- the dihedral squares against ``dihedral_square`` (Brown, Johnson and
  Robertson 1987) of ``perfbench/workloads.py``;
- a product A x B against (A (x) A) x (B (x) B) x (A^ab (x) B^ab)^2, whose
  parts are computed in the same subprocess after the op is measured:
  the order, the invariants when the square is abelian, and the
  derivative A' x B';
- symmetric:4 and heisenberg:3 against their pinned values.

Three more ops follow the squares:

- elemab:2:4, whose square, of order 65,536, the scan budget refuses:
  the op passes when ``compute_tensor`` raises ``LimitExceeded``, and
  reports its message, which says how far HLT got;
- ``explore classify-heisenberg 3`` through ``cli.main``, whose squares
  the library's cap refuses, with the cap raised: it passes when it
  exits 0 with the three classes of orders 81, 243 and 729 over
  333,153, 194,400 and 3,888 hom pairs;
- ``verify``, the thirteen checks of ``tensorforge verify paper`` in
  order, with each check's time and the ``ru_maxrss`` after it: it passes
  when exactly the documented row 02 fails.

Given one tree, it runs each op ``--rounds`` times.  Given two, it
alternates them per op, the parent first in even rounds and the change
first in odd ones, and prints each side's best, median and range
(min-max) with the ratio of the medians, change over parent; it writes
no verdict.  Each subprocess runs under ``--timeout`` seconds.
``--json`` writes every run's report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

# the squares past the cap, in the order of ROADMAP's "past the cap" table
SQUARES = ["symmetric:4", "dihedral:12", "heisenberg:3", "dihedral:16",
           "product:symmetric:3,symmetric:3", "product:dihedral:4,cyclic:4",
           "product:symmetric:4,cyclic:2", "dihedral:32",
           "product:symmetric:3,dihedral:4", "product:quaternion:8,cyclic:4"]

# (order, abelian, invariants, kernel order, derivative order)
PINNED = {"symmetric:4": (48, False, None, 4, 12),
          "heisenberg:3": (729, True, [3] * 6, 243, 3)}

# the square that the scan budget refuses; by the decomposition its
# order is 65,536, past table_to_group's 4,096-element cap
REFUSED = "elemab:2:4"
CLASSIFY = "explore classify-heisenberg 3"
VERIFY = "verify"
OPS = SQUARES + [REFUSED, CLASSIFY, VERIFY]

# classify-heisenberg 3: (order, hom pairs) of each class of products
CLASSES = [[81, 333_153], [243, 194_400], [729, 3_888]]

# the checks of verify paper that disagree with the paper by definition
DOCUMENTED_FAILS = ["Z3xZ3-case2-inversion-alpha"]

# a cap above every square's symbols
CAP = 1 << 20


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_verify():
    """The checks of ``verify.CHECKS`` in order, each with its time and
    the ``ru_maxrss`` after it."""
    import tensorforge.verify
    checks = []
    start = perf_counter()
    for check in tensorforge.verify.CHECKS:
        t0 = perf_counter()
        row = check()
        checks.append({"name": row["name"], "seconds": perf_counter() - t0,
                       "rss_mb": rss_mb(), "passed": row["passed"]})
    failed = [c["name"] for c in checks if not c["passed"]]
    return {"op": VERIFY, "seconds": perf_counter() - start,
            "peak_rss_mb": rss_mb(), "checks": checks,
            "oracle": "pass" if failed == DOCUMENTED_FAILS
            else f"failed {failed}"}


def measure_classify():
    """``tensorforge --json explore classify-heisenberg 3`` in this
    process, with its exit code and (order, hom pairs) of each class."""
    from tensorforge import cli
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json"] + CLASSIFY.split())
    report = {"op": CLASSIFY, "seconds": perf_counter() - start,
              "peak_rss_mb": rss_mb(), "exit": code}
    if code:
        report["oracle"] = f"exit {code}"
        return report
    report["classes"] = [[c["order"], c["n_hom_pairs"]] for c in
                         json.loads(out.getvalue())["results"]["classes"]]
    report["oracle"] = ("pass" if report["classes"] == CLASSES
                        else f"want {CLASSES}")
    return report


def measure(tree, key):
    """One op in this process: the report as a JSON-ready dict."""
    sys.path.insert(0, str(Path(tree) / "src"))
    import tensorforge as tf
    from tensorforge import tensor
    from tensorforge.actions import ActionPair, conjugation_maps
    from tensorforge.errors import LimitExceeded

    if key == VERIFY:
        return measure_verify()
    tensor.MAX_SYMBOLS = CAP
    if key == CLASSIFY:
        return measure_classify()
    stats, steps = [], []

    def step(name, call):
        def run(*args, **kwargs):
            out = call(*args, **kwargs)
            steps.append([name, perf_counter() - start, rss_mb()])
            return out
        return run

    enumerate_ = tensor.coset_enumerate

    def counted(presentation, **limits):
        table = enumerate_(presentation, **limits)
        stats.append(asdict(table.stats))
        return table
    tensor.coset_enumerate = step("enumeration", counted)
    tensor.table_to_group = step("table_to_group", tensor.table_to_group)
    tensor._force_images = step("kappa", tensor._force_images)

    def square(G):
        conj = conjugation_maps(G)
        return tf.compute_tensor(ActionPair(G, G, conj, conj))

    G = tf.make_catalog_group(key)
    start = perf_counter()
    try:
        rep = square(G)
    except LimitExceeded as exc:
        if key != REFUSED:
            raise
        return {"op": key, "seconds": perf_counter() - start,
                "peak_rss_mb": rss_mb(), "refused": str(exc),
                "oracle": "pass"}
    seconds = perf_counter() - start
    peak = rss_mb()
    # the oracle below appends the steps of its own products
    trace = steps[:3] + [["report", seconds, peak]]
    got = (rep.order, bool(rep.tensor.is_abelian), rep.invariants,
           rep.kernel.order, rep.derivative.order)
    report = {"op": key, "seconds": seconds, "peak_rss_mb": peak,
              "steps": trace, "stats": stats[0], "order": got[0],
              "abelian": got[1],
              "invariants": got[2], "kernel": got[3], "derivative": got[4],
              "nilpotency": rep.nilpotency}
    if key == REFUSED:
        want = "LimitExceeded"
    elif key in PINNED:
        want = PINNED[key]
    elif key.startswith("dihedral:"):
        invariants, derivative = workloads.dihedral_square(
            int(key.split(":")[1]))
        want = (math.prod(invariants), True, invariants,
                math.prod(invariants) // derivative, derivative)
    else:
        A, B = map(tf.make_catalog_group, key.split(":", 1)[1].split(","))
        parts = [square(A), square(B)] + 2 * [
            tf.compute_tensor(ActionPair.trivial(A, B))]
        order = math.prod(p.order for p in parts)
        abelian = all(p.tensor.is_abelian for p in parts)
        invariants = workloads.invariant_factors(
            [n for p in parts for n in p.invariants]) if abelian else None
        derivative = math.prod(tf.derived_subgroup(X).order
                               for X in (A, B))
        want = (order, abelian, invariants, order // derivative, derivative)
    report["oracle"] = "pass" if got == want else f"want {want}"
    return report


def run(tree, key, timeout):
    """One op in its own subprocess; its report, or the failure."""
    try:
        done = subprocess.run(
            [sys.executable, __file__, "--op", key, str(tree)],
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"op": key, "error": f"timeout after {timeout} s"}
    if done.returncode:
        lines = done.stderr.strip().splitlines() or ["no output"]
        return {"op": key, "error": lines[-1]}
    return json.loads(done.stdout)


def line(report):
    if "error" in report:
        return f"{report['op']:34s} ERROR {report['error']}"
    head = (f"{report['op']:34s} {report['seconds']:7.2f} s "
            f"{report['peak_rss_mb']:7.1f} MB  ")
    if "refused" in report:
        return head + f"refused: {report['refused']}"
    if report["op"] == CLASSIFY:
        return head + f"classes {report.get('classes')}  " \
            f"oracle {report['oracle']}"
    if "checks" in report:
        return head + f"oracle {report['oracle']}" + "".join(
            f"\n    {c['name']:34s} {c['seconds']:7.3f} s "
            f"{c['rss_mb']:7.2f} MB" for c in report["checks"])
    # the stats of a tree older than EnumerationStats.closed lack it
    s = report["stats"]
    return (head + f"|T|={report['order']:<5d} "
            f"{report['invariants'] or 'non-abelian'}  "
            f"symbols {s['generators']} -> {s['survivors']}, "
            f"defined {s['defined']}, scans {s['scans']}, "
            f"closed {s.get('closed', '-')}  oracle {report['oracle']}"
            + "".join(f"\n    after {name:15s} {t:7.2f} s {mb:7.1f} MB"
                      for name, t, mb in report["steps"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", metavar="TREE")
    parser.add_argument("--op", help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.op:
        print(json.dumps(measure(args.trees[0], args.op)))
        return 0
    if len(args.trees) > 2:
        parser.error("give one tree, or a parent and a change")
    reports = {tree: {key: [] for key in OPS} for tree in args.trees}
    for key in OPS:
        for r in range(args.rounds):
            order = args.trees if r % 2 == 0 else args.trees[::-1]
            for tree in order:
                report = run(tree, key, args.timeout)
                reports[tree][key].append(report)
                print(f"[{tree}] {line(report)}", flush=True)
        if len(args.trees) == 2:
            print(ratios(key, *(reports[t][key] for t in args.trees)),
                  flush=True)
    if args.json:
        args.json.write_text(json.dumps(reports, indent=1) + "\n")
    failed = [r for runs in reports.values() for rs in runs.values()
              for r in rs if r.get("oracle") != "pass"]
    return 1 if failed else 0


def ratios(key, parent, change):
    """Each side's best, median and range of time and peak, and change
    over parent of the medians."""
    cells = []
    for metric, unit in (("seconds", "s"), ("peak_rss_mb", "MB")):
        sides = [[r[metric] for r in runs if metric in r]
                 for runs in (parent, change)]
        if not all(sides):
            return f"{key}: a side has no completed run"
        best = [min(v) for v in sides]
        median = [statistics.median(v) for v in sides]
        spread = [f"{min(v):.2f}-{max(v):.2f}" for v in sides]
        cells.append(f"{metric} best {best[0]:.2f} / {best[1]:.2f} {unit}, "
                     f"median {median[0]:.2f} / {median[1]:.2f} {unit}, "
                     f"range {spread[0]} / {spread[1]} {unit}, "
                     f"ratio {median[1] / median[0]:.3f}")
    return f"{key}: " + "; ".join(cells)


if __name__ == "__main__":
    sys.exit(main())
