"""Run one benchmark workload against the tensorforge source tree.

    python3 perfbench/run.py --workload tensor-collapse --seed 1 --seconds 20 --trace 0

The benchmark calls the library's public entry points from outside and
changes nothing under ``src/``.  Each workload is a closed loop with one
caller in one process: every op waits for its answer before the next one
starts.  ``--seconds`` sets how much work a run measures (whole passes
over the workload's op list, see ``Workload.passes``); ``--seed`` sets the
order of the ops in each pass.  Every op's output is checked against an
oracle.

With ``--trace 0`` the run reports the end-to-end metrics, each time
scaled to a reference speed of the machine (see ``speed.py``) and printed
beside the time as measured.  With
``--trace 1`` it makes each pass twice, once untraced and once with spans
around the public functions of each layer, and reports the per-layer
metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Each
result is also written, with the machine facts, under ``--results``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up is repeated and its median reported, because one import and one
# warm-up op take only about a tenth of a second
SETUP_REPEATS = 11
# the op latency reported as the tail has at least this many samples beyond
TAIL_BEYOND = 10
END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]


def import_tensorforge():
    """Import tensorforge afresh from this checkout's ``src`` and return
    the modules the workloads call."""
    for name in [n for n in sys.modules
                 if n == "tensorforge" or n.startswith("tensorforge.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("tensorforge")
    if Path(package.__file__).resolve().parent != SRC / "tensorforge":
        raise ImportError(f"tensorforge imported from {package.__file__}, "
                          f"not from {SRC}")
    return argparse.Namespace(**{
        name: importlib.import_module(f"tensorforge.{name}")
        for name in ("actions", "automorphisms", "catalog", "cli", "groups",
                     "verify")})


def run_op(op, meter):
    """Time one op's call, without the speed samples taken during it;
    returns (seconds, error or None)."""
    spent, t0 = meter.spent, perf_counter()
    try:
        result = op.call()
    except Exception as exc:            # a raising op is a failed op
        return perf_counter() - t0 - (meter.spent - spent), \
            f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0 - (meter.spent - spent)
    return seconds, op.check(result)


class Record(NamedTuple):
    k: int                      # the pass
    name: str
    seconds: float
    error: Optional[str]
    scale: float                # takes seconds to the reference speed


def setup(workload, meter):
    """Import, build the op list and run the warm-up op once, with a speed
    sample before and after; returns (seconds, ops, the warm-up op's error
    or None)."""
    meter.sample()
    t0 = perf_counter()
    tf = import_tensorforge()
    ops, warmup = workload.build(tf)
    _, error = run_op(warmup, meter)
    seconds = perf_counter() - t0
    meter.sample()
    return seconds, ops, error


def schedule(workload, ops, seed, npasses):
    """The op list of each pass, permuted by the seed if the workload
    shuffles."""
    out = []
    for k in range(npasses):
        order = list(ops)
        if workload.shuffle:
            random.Random(f"{seed}:{k}").shuffle(order)
        out.append(order)
    return out


def run_pass(k, ops, records, meter, tracer=None):
    """Run pass k, appending a Record of each op to records; with a
    tracer, each op is a root span whose id is its record index.  An op's
    scale comes from the speed samples taken just before it, during it and
    just after it."""
    gc.collect()
    meter.sample()
    for op in ops:
        start = meter.last_sample()
        if tracer is None:
            seconds, error = run_op(op, meter)
        else:
            span = tracer.begin_op(len(records), op.name)
            try:
                seconds, error = run_op(op, meter)
            finally:
                tracer.end_op(span)
        meter.sample()
        records.append(Record(k, op.name, seconds, error,
                              meter.scale(start)))


def pass_seconds(records, npasses, scaled=False):
    totals = [0.0] * npasses
    for r in records:
        totals[r.k] += r.seconds * r.scale if scaled else r.seconds
    return statistics.median(totals)


def tail(latencies):
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    beyond it: (value, percentile, samples beyond).  With fewer than twice
    that many samples, that percentile is no tail, and the maximum is
    reported, with none beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, \
        TAIL_BEYOND


def source_hash():
    digest = hashlib.sha256()
    for path in sorted((SRC / "tensorforge").glob("*.py")) + \
            sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_facts():
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "processes": 1}


def time_metrics(setup_times, setup_scale, records, npasses, scaled):
    """setup_s, pass_s, op_p50_ms and op_tail_ms, scaled to the reference
    speed or as measured; also the op_tail_ms percentile and samples
    beyond it."""
    latencies = [r.seconds * r.scale if scaled else r.seconds
                 for r in records]
    value, percentile, beyond = tail(latencies)
    return {
        "setup_s": statistics.median(setup_times) *
        (setup_scale if scaled else 1.0),
        "pass_s": pass_seconds(records, npasses, scaled),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * value,
    }, percentile, beyond


def end_to_end(setup_times, setup_scale, records, npasses):
    """The end-to-end metrics, with every time scaled to the reference
    speed; notes that give each time as measured; the times as measured;
    and the median scale of the ops."""
    metrics, percentile, beyond = time_metrics(
        setup_times, setup_scale, records, npasses, True)
    measured, _, _ = time_metrics(
        setup_times, setup_scale, records, npasses, False)
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = dict(END_TO_END)
    notes = {name: f"{value:.6g} {units[name]} as measured"
             for name, value in measured.items()}
    notes["op_tail_ms"] += (f"; p{percentile:.2f}, {beyond} of "
                            f"{len(records)} samples beyond")
    return metrics, notes, measured, \
        statistics.median(r.scale for r in records)


def check_counts(counts, previous, srchash, npasses):
    """Work counts must be the same in every pass of this run and in an
    earlier traced run of the same code with the same seed."""
    problems = [f"work counts of pass {k} differ from pass 0"
                for k, c in enumerate(counts) if c != counts[0]]
    if previous and previous.get("source") == srchash \
            and previous.get("passes") == npasses \
            and previous.get("counts") is not None:
        problems += [f"work count {name} is {counts[0].get(name)}, an "
                     f"earlier run gave {value}"
                     for name, value in previous["counts"].items()
                     if counts[0].get(name) != value]
    return problems


def traced(passes, result_path, spans_path, meter):
    """Make each pass once untraced and once with spans on, alternately,
    so that drift in machine speed does not bias the overhead; returns
    all records, the per-layer metrics, the work counts of one pass and
    any determinism problems."""
    import tracing
    tracer = tracing.Tracer()
    records, traced_records = [], []
    for k, ops in enumerate(passes):
        run_pass(k, ops, records, meter)
        tracer.install()
        try:
            run_pass(k, ops, traced_records, meter, tracer)
        finally:
            tracer.uninstall()
    tracer.write(spans_path)
    npasses = len(passes)
    op_pass = {i: r.k for i, r in enumerate(traced_records)}
    metrics, counts = tracing.per_layer_metrics(
        tracer, op_pass, npasses, pass_seconds(traced_records, npasses),
        pass_seconds(records, npasses))
    previous = None
    if result_path.exists():
        previous = json.loads(result_path.read_text(encoding="utf-8"))
    problems = check_counts(counts, previous, source_hash(), npasses)
    return records + traced_records, metrics, counts[0], problems


def main(argv=None):
    # one process, no extra threads: set before anything imports numpy
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import speed
    import tracing
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        default=ROOT / "perfbench" / "results",
                        help="directory for result and span files")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    facts = machine_facts()
    facts["loadavg_before"] = os.getloadavg()

    workload = workloads.WORKLOADS[args.workload]
    npasses = workload.passes(args.seconds)
    # the speed is sampled by a timer only while the end-to-end passes
    # run: samples inside a traced op would land in its spans
    meter = speed.Speedometer()
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        try:
            seconds, ops, warmup_error = setup(workload, meter)
        except ImportError as exc:
            print(f"error: cannot import tensorforge: {exc}", file=sys.stderr)
            return 2
        setup_times.append(seconds)
    setup_scale = meter.scale(0)
    passes = schedule(workload, ops, args.seed, npasses)

    out_dir = args.results / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"seed{args.seed}-trace{args.trace}.json"
    problems = []
    if warmup_error:
        problems.append(f"warm-up op: {warmup_error}")
    if args.trace:
        records, metrics, counts, count_problems = traced(
            passes, result_path, out_dir / f"seed{args.seed}-spans.jsonl",
            meter)
        problems += count_problems
        units = dict(tracing.metric_names())
        notes = {name: "the function no longer exists"
                 for name, value in metrics.items() if value is None}
        measured = factor = None
    else:
        records = []
        with meter:
            for k, ops in enumerate(passes):
                run_pass(k, ops, records, meter)
        metrics, notes, measured, factor = end_to_end(
            setup_times, setup_scale, records, npasses)
        units = dict(END_TO_END)
        counts = None
    facts["loadavg_after"] = os.getloadavg()
    facts["threads_alive"] = threading.active_count()

    failures = [(r.name, r.error) for r in records if r.error]
    for name, error in failures:
        print(f"FAILED {name}: {error}")
    for problem in problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        shown = "MISSING" if value is None else f"{value:.6g}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {shown} {units[name]}{note}")
    print(f"ops_failed_frac = {len(failures) / len(records):.6g} "
          f"({len(failures)} of {len(records)} ops)")
    print(f"machine = {json.dumps(facts)}")
    summary = {"correct": not failures and not problems,
               "attempted": len(records), "failed": len(failures),
               "metrics": {name: {"value": value, "unit": units[name]}
                           for name, value in metrics.items()}}
    result_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": npasses,
        "source": source_hash(), "machine": facts, "notes": notes,
        "failures": failures, "problems": problems, "counts": counts,
        "measured": measured, "reference_scale": factor, **summary},
        indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
