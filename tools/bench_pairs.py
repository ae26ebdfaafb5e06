"""Write a BENCH file from alternating pairs of benchmark runs.

    python3 tools/bench_pairs.py PARENT CHANGE --parent-commit SHA \\
        --first-seed 2701 --claim action-sweep:pass_s --out BENCH_27.json

PARENT and CHANGE are two checkouts, each with its own ``perfbench/``.
Every run is the command that ``BENCHMARK.json`` of this repository
names, started in the checkout it measures, for ``run_seconds``, with its
results written under ``--results``.  Pair k of a workload runs both sides
on seed ``first-seed + k``, the parent first when k is even and the change
first when k is odd; ``--pairs`` untraced pairs come first, then
``--traced`` traced pairs on the next seeds.

The file keeps the schema of ``BENCH_24.json``: per workload and mode,
each metric's median and quartiles on both sides, the change's wins over
the pairs and the verdict of ``perfbench/compare.py``, and for the
untraced runs the medians as measured and each side's speed scale.  A
time of an untraced run also gets ``measured_verdict``, the verdict of
``compare.py`` on its values as measured, and ``verdict_both``: the
verdict both give, "worse" when either is, and "unresolved" for any
other split, so "improved" only when both verdicts are; and
``paired_ratio``, the median over seeds of change over parent as
measured, which shows a gain too small for either verdict.  A
metric counted in unit ``count`` also gets the exact verdict ``equal``,
when every seed gave both sides the same value, or ``changed``.  It
also keeps every run's values by seed (``runs``, and ``measured_runs``
for times), the failed and attempted ops of each run and the order of
each pair, so that the runs can be judged again.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import compare  # noqa: E402

SIDES = ("parent", "change")


def run(tree, workload, seed, trace, spec, results):
    """Run the benchmark once in ``tree``; the result file it wrote."""
    out = results / f"trace{trace}"
    subprocess.run(spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
        "--results", str(out)], cwd=tree, check=True,
        stdout=subprocess.DEVNULL)
    return out / workload / f"seed{seed}-trace{trace}.json"


def run_pairs(trees, workload, seeds, trace, spec, results):
    """{side: {seed: result}} for alternating pairs over ``seeds``."""
    runs = {side: {} for side in SIDES}
    for k, seed in enumerate(seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            path = run(trees[side], workload, seed, trace, spec,
                       results / side)
            runs[side][seed] = json.loads(path.read_text(encoding="utf-8"))
            print(f"{workload} trace {trace} seed {seed} {side} done",
                  flush=True)
    return runs


def summary(values):
    q1, median, q3 = compare.quartiles(values)
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6)}


def both(scaled, measured):
    """One verdict from a time's scaled and measured verdicts: the verdict
    they share, "worse" when either is, else "unresolved"; so "improved"
    only when both are."""
    if "worse" in (scaled, measured):
        return "worse"
    return scaled if scaled == measured else "unresolved"


def judge(runs, rules, untraced):
    """The metrics entry of one workload and mode."""
    metrics = {}
    first = next(iter(runs["parent"].values()))
    for name in first["metrics"]:
        if name not in rules or any(
                r["metrics"].get(name, {}).get("value") is None
                for side in SIDES for r in runs[side].values()):
            continue
        better, bound, unit = rules[name]
        sign = 1 if better == "lower" else -1
        by_seed = {side: {seed: r["metrics"][name]["value"]
                          for seed, r in runs[side].items()}
                   for side in SIDES}
        pairs = [(by_seed["parent"][s], by_seed["change"][s])
                 for s in by_seed["parent"]]
        entry = {"better": better, "bound": bound,
                 **{side: summary(list(by_seed[side].values()))
                    for side in SIDES},
                 "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
                 "pairs": len(pairs),
                 "verdict": compare.verdict(by_seed["parent"],
                                            by_seed["change"], better,
                                            bound),
                 "runs": by_seed}
        if unit == "count":
            entry["exact"] = "equal" if by_seed["parent"] \
                == by_seed["change"] else "changed"
        if untraced and name in (first.get("measured") or {}):
            measured = {side: {seed: r["measured"][name]
                               for seed, r in runs[side].items()}
                        for side in SIDES}
            entry["measured_median"] = {
                side: round(statistics.median(measured[side].values()), 6)
                for side in SIDES}
            entry["measured_runs"] = measured
            entry["measured_verdict"] = compare.verdict(
                measured["parent"], measured["change"], better, bound)
            entry["verdict_both"] = both(entry["verdict"],
                                         entry["measured_verdict"])
            entry["paired_ratio"] = round(statistics.median(
                measured["change"][s] / measured["parent"][s]
                for s in measured["parent"]), 4)
        metrics[name] = entry
    return metrics


def section(runs, rules, untraced):
    seeds = sorted(runs["parent"])
    out = {"seeds": seeds, "metrics": judge(runs, rules, untraced),
           "ops": {side: {seed: {"failed": r["failed"],
                                 "attempted": r["attempted"]}
                          for seed, r in runs[side].items()}
                   for side in SIDES},
           "first": {seed: SIDES[k % 2] for k, seed in enumerate(seeds)}}
    if untraced:
        out["reference_scale"] = {side: {
            "median": round(statistics.median(scales), 4),
            "min": round(min(scales), 4), "max": round(max(scales), 4)}
            for side in SIDES
            for scales in [[r["reference_scale"]
                            for r in runs[side].values()]]}
    else:
        out["counts_equal"] = all(
            runs["parent"][s]["counts"] == runs["change"][s]["counts"]
            for s in seeds)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--claim", required=True,
                        help="WORKLOAD:METRIC of the claimed gain")
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--description", default="")
    parser.add_argument("--results", type=Path, required=True,
                        help="directory for the runs' result files")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m.get("bound"), m["unit"])
             for m in spec["end_to_end"] + spec["per_layer"]}
    claim_workload, _, claim_metric = args.claim.partition(":")
    trees = {"parent": args.parent.resolve(),
             "change": args.change.resolve()}
    results = args.results.resolve()
    seeds = list(range(args.first_seed,
                       args.first_seed + args.pairs + args.traced))
    workloads = {}
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        untraced = run_pairs(trees, w, seeds[:args.pairs], 0, spec, results)
        traced = run_pairs(trees, w, seeds[args.pairs:], 1, spec, results)
        workloads[w] = {"end_to_end": section(untraced, rules, True)}
        if args.traced:
            workloads[w]["traced"] = section(traced, rules, False)
    args.out.write_text(json.dumps({
        "description": args.description,
        "parent_commit": args.parent_commit,
        "benchmark": {"command": spec["command"],
                      "run_seconds": spec["run_seconds"]},
        "claim": {"workload": claim_workload, "metric": claim_metric,
                  "rule": "change wins at least nine tenths of the seed "
                          "pairs and the medians differ by more than the "
                          "parent's quartile distance"},
        "workloads": workloads}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
