"""Spans around the public functions of each tensorforge layer.

The tracer replaces each listed function, in every tensorforge module
that holds a reference to it, with a wrapper that records a span: name,
start, end, parent span and op id.  Spans stay in memory until the run
ends; every per-layer number is computed from them afterwards.  Nothing
under ``src/`` changes, and the untraced run installs no wrapper.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter


def _enumeration(args, kwargs, table):
    p = args[0] if args else kwargs["presentation"]
    return {"symbols_in": p.ngens,
            "relator_letters_in": sum(len(r) for r in p.relators),
            "cosets_out": table.ncosets}


# (module.function, statistics reported, counter taking (args, kwargs,
# result)).  "calls", "s", "self_s" and "failed" come from the spans;
# "distinct_*" counts distinct values of the counter's "key"; any other
# statistic is the sum of the counter's value of that name.
TARGETS = [
    ("presentations.coset_enumerate",
     ("calls", "self_s", "symbols_in", "relator_letters_in", "cosets_out",
      "failed"), _enumeration),
    ("presentations.table_to_group", ("calls", "self_s"), None),
    ("tensor.tensor_presentation", ("calls", "self_s", "relators_out"),
     lambda a, k, r: {"relators_out": len(r[0].relators)}),
    ("tensor.compute_tensor", ("calls", "s", "self_s"), None),
    ("tensor.derivative_subgroup", ("self_s",), None),
    ("groups.nilpotency_class", ("calls", "self_s"), None),
    ("groups.subgroup_generated", ("calls", "self_s"), None),
    ("groups.center", ("self_s",), None),
    ("groups.second_hypercenter", ("self_s",), None),
    ("abelian.abelian_invariants", ("calls", "self_s"), None),
    ("homs.hom_from_images", ("calls", "self_s", "failed"), None),
    ("homs.enumerate_homs", ("calls", "self_s", "homs_out"),
     lambda a, k, r: {"homs_out": len(r)}),
    ("homs.all_bijective_endomaps", ("calls", "self_s"), None),
    ("homs.are_isomorphic", ("self_s",), None),
    ("automorphisms.automorphism_group",
     ("calls", "self_s", "distinct_groups", "order_out"),
     lambda a, k, r: {"key": hash(a[0].table.tobytes()),
                      "order_out": r.order}),
    ("automorphisms.normalizer_contains_inn", ("self_s",), None),
    ("actions.compatibility_grid", ("calls", "self_s", "pairs_decided"),
     lambda a, k, r: {"pairs_decided": int(r.compatible.size)}),
    ("actions.compatible_pair_orbits", ("calls", "self_s", "orbits_out"),
     lambda a, k, r: {"orbits_out": len(r)}),
    ("actions.is_compatible", ("calls", "self_s", "negatives"),
     lambda a, k, r: {"negatives": int(not r.compatible)}),
    ("actions.hom_pair_compatibility_sweep", ("self_s", "pairs_decided"),
     lambda a, k, r: {"pairs_decided": r["n_pairs"]}),
    ("actions.induced_beta", ("self_s",), None),
    ("actions.z2_action_criterion", ("self_s",), None),
    ("catalog.make_catalog_group", ("calls", "self_s", "distinct_keys"),
     lambda a, k, r: {"key": a[0] if a else k["key"]}),
    ("catalog.catalog_groups_up_to", ("self_s",), None),
    ("serialize.tensor_report_to_dict", ("self_s",), None),
    ("cli.main", ("self_s",), None),
]

# Work counts that must repeat exactly between runs with the same seed.
COUNT_STATS = {"calls", "symbols_in", "relator_letters_in", "cosets_out",
               "relators_out", "homs_out", "pairs_decided", "orbits_out",
               "negatives"}

TIME_STATS = {"s", "self_s"}
N_CHECKS = 13
PACKAGE = "tensorforge"


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"{qual}.{stat}", "s" if stat in TIME_STATS else "count")
             for qual, stats, _ in TARGETS for stat in stats]
    names += [(f"verify.check{i:02d}_s", "s") for i in range(1, N_CHECKS + 1)]
    names.append(("trace.overhead_frac", "ratio"))
    return names


class Tracer:
    def __init__(self):
        self.spans = []         # [id, parent, op, name, start, end, info]
        self.stack = [None]
        self.op_id = None
        self.missing = []
        self._patches = []

    # -- recording ------------------------------------------------------

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1], self.op_id, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = perf_counter()
                span[6] = {"failed": 1}
                raise
            finally:
                stack.pop()
            span[5] = perf_counter()
            if count is not None:
                span[6] = count(args, kwargs, result)
            return result
        return wrapper

    def begin_op(self, op_id, name):
        """Open the root span of one op; returns it for ``end_op``."""
        self.op_id = op_id
        span = [len(self.spans), None, op_id, "op:" + name,
                perf_counter(), 0.0, None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def end_op(self, span):
        span[5] = perf_counter()
        self.stack.pop()
        self.op_id = None

    # -- installing -----------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]

        def patch(name, fn, count):
            wrapper = self._wrap(name, fn, count)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is fn]:
                    self._patches.append((m, attr, fn))
                    setattr(m, attr, wrapper)

        for qual, _, count in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{qual.split('.')[0]}")
            fn = getattr(module, qual.split(".")[1], None)
            if callable(fn):
                patch(qual, fn, count)
            else:
                self.missing.append(qual)
        # the checks of the verify suite, as the verify-paper ops call them
        verify = sys.modules.get(f"{PACKAGE}.verify")
        for i, fn in enumerate(getattr(verify, "CHECKS", [])[:N_CHECKS]):
            patch(f"verify.check{i + 1:02d}", fn, None)

    def uninstall(self):
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    # -- reporting ------------------------------------------------------

    def per_pass(self, op_pass, npasses):
        """Per-layer statistics of each pass, computed from the spans.
        ``op_pass`` maps op id to pass index."""
        child_s = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        passes = [{} for _ in range(npasses)]
        for sid, parent, op, name, start, end, info in self.spans:
            acc = passes[op_pass[op]].setdefault(name, {
                "calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0,
                "keys": set()})
            acc["calls"] += 1
            acc["s"] += end - start
            acc["self_s"] += end - start - child_s[sid]
            for key, value in (info or {}).items():
                if key == "key":
                    acc["keys"].add(value)
                else:
                    acc[key] = acc.get(key, 0) + value
        out = []
        for acc_by_name in passes:
            stats = {}
            for qual, names, _ in TARGETS:
                if qual in self.missing:
                    continue
                acc = acc_by_name.get(qual, {"keys": set()})
                for stat in names:
                    if stat.startswith("distinct_"):
                        value = len(acc["keys"])
                    else:
                        value = acc.get(stat, 0.0 if stat in TIME_STATS
                                        else 0)
                    stats[f"{qual}.{stat}"] = value
            for i in range(1, N_CHECKS + 1):
                stats[f"verify.check{i:02d}_s"] = acc_by_name.get(
                    f"verify.check{i:02d}", {}).get("s", 0.0)
            out.append(stats)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str) + "\n")


def per_layer_metrics(tracer, op_pass, npasses, traced_s, untraced_s):
    """Median over passes of every per-layer metric, plus the counts of
    each pass so that the caller can check them for determinism."""
    passes = tracer.per_pass(op_pass, npasses)
    metrics = {}
    for name, unit in metric_names():
        if name.rsplit(".", 1)[0] in tracer.missing:
            metrics[name] = None
        elif passes and name in passes[0]:
            # counts agree across passes (checked by the caller)
            median = statistics.median if unit == "s" \
                else statistics.median_low
            metrics[name] = median(p[name] for p in passes)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    counts = [{k: v for k, v in p.items() if k.rsplit(".", 1)[1]
               in COUNT_STATS} for p in passes]
    return metrics, counts
