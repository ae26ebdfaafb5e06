"""Compare two sets of benchmark results, parent and change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (searched recursively) or files written
by ``perfbench/run.py``.  For every workload and metric it prints both
sides' median and quartiles and a verdict:

- improved: the change wins at least nine tenths of the runs paired by
  seed (by seed order when the sides share no seed), ties counting for
  neither, and the medians differ by more than the distance between the
  parent's quartiles;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json (for a per-layer metric, which has no
  bound: the parent wins by the rule for improved);
- unresolved: neither improved nor worse, the parent's spread, its
  quartile distance over its median, is wider than the bound, and not
  every change run beats every parent run; a per-layer metric that is
  neither improved nor worse;
- unchanged: otherwise, or when every value on both sides is equal.

Runs are paired by seed, so each set must give every run its own seed: two
result files of one workload and mode with the same seed are an error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """{(workload, trace): {seed: metrics}} from result files."""
    files = []
    for path in paths:
        files += sorted(path.rglob("seed*-trace*.json")) if path.is_dir() \
            else [path]
    out, origin = {}, {}
    for path in files:
        data = json.loads(path.read_text(encoding="utf-8"))
        key, seed = (data["workload"], data["trace"]), data["seed"]
        if (key, seed) in origin:
            raise ValueError(f"{origin[key, seed]} and {path} are both "
                             f"{key[0]} trace {key[1]} with seed {seed}")
        origin[key, seed] = path
        out.setdefault(key, {})[seed] = {
            name: m["value"] for name, m in data["metrics"].items()}
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, better, bound):
    """parent and change are {seed: value}; better is "lower" or "higher";
    bound is a share of the parent's median, or None."""
    sign = 1 if better == "lower" else -1
    p_vals, c_vals = list(parent.values()), list(change.values())
    if p_vals == c_vals and len(set(p_vals)) <= 1:
        return "unchanged"
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    common = sorted(set(parent) & set(change))
    pairs = [(parent[s], change[s]) for s in common] or list(zip(
        (parent[s] for s in sorted(parent)),
        (change[s] for s in sorted(change))))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    apart = abs(c_med - p_med) > p_q3 - p_q1
    if wins >= 0.9 * len(pairs) and apart and sign * (c_med - p_med) < 0:
        return "improved"
    if bound is None:
        if losses >= 0.9 * len(pairs) and apart and \
                sign * (c_med - p_med) > 0:
            return "worse"
        return "unresolved"
    scale = abs(p_med) or 1.0
    if sign * (c_med - p_med) / scale > bound:
        return "worse"
    if (p_q3 - p_q1) / scale > bound and \
            not max(sign * v for v in c_vals) < min(sign * v for v in p_vals):
        return "unresolved"
    return "unchanged"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        parent, change = load([args.parent]), load([args.change])
    except ValueError as exc:
        parser.error(str(exc))
    worse = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}; "
              f"{len(parent[key])} parent runs, {len(change[key])} change "
              "runs)")
        print(f"  {'metric':52s} {'parent median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s}  verdict")
        names = [n for n in rules if all(
            n in runs and runs[n] is not None
            for side in (parent, change) for runs in side[key].values())]
        for name in names:
            p = {seed: runs[name] for seed, runs in parent[key].items()}
            c = {seed: runs[name] for seed, runs in change[key].items()}
            better, bound = rules[name]
            result = verdict(p, c, better, bound)
            worse += result == "worse"
            cells = []
            for side in (p, c):
                q1, med, q3 = quartiles(list(side.values()))
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"  {name:52s} {cells[0]:>32s} {cells[1]:>32s}  {result}")
    for key in sorted(set(parent) ^ set(change)):
        print(f"== {key[0]} trace {key[1]}: results on one side only")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
