"""Command-line front end.

Every command builds one RunReport dict; ``--json`` prints it verbatim,
the default output is a plain-text rendering of the same dict.  One
parser per process parses every ``main`` call.  Exit
codes: 0 success / compatible / all-pass, 1 definite negative result,
2 error or exhausted budget.  Any other exception a command raises, and
a failure to write stdout, is reported as one ``error:`` line on stderr
with exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .actions import (ACTION_NAMES, ActionPair, is_compatible, named_action,
                      normalizer_conditions, question2_scan)
from .automorphisms import automorphism_group
from .catalog import catalog_keys, make_catalog_group
from .errors import (IncompatibleActions, InvalidCount, IoError,
                     TensorforgeError)
from .homs import isomorphic
from .serialize import (action_pair_from_dict, group_to_dict,
                        map_file_maps, read_json, resolve_group,
                        tensor_report_to_dict, witness_to_dict, write_json)
from .tensor import compute_tensor, hom_pair_tensor_classes
from .verify import run_verification

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def default_budget():
    """The budget set by TENSORFORGE_BUDGET, else None, so that each
    library call applies its own default."""
    env = os.environ.get("TENSORFORGE_BUDGET")
    return positive_count(env, "TENSORFORGE_BUDGET") if env else None


def positive_count(text, source):
    """``text``, a count given from outside, as a positive integer: what
    ``int`` reads as at least 1, so "+5", " 5" and "1_000" pass.
    InvalidCount names ``source`` when it is not one."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidCount(
            f"{source} must be a positive integer, not {text!r}")
    return value


def _action_maps(spec, base, actor, side):
    """One action side: one of ACTION_NAMES, or a path to a JSON file
    {'map': [Aut indices]}."""
    if spec in ACTION_NAMES:
        return named_action(spec, base, actor)
    aut = automorphism_group(base)
    return read_json(spec, f"{side} map file", lambda data: map_file_maps(
        data, aut, side, actor))


def _build_pair(args):
    """The action pair of the command line and the names of its groups.
    Each action side is valid when it is built: a named action by
    construction, a map file by ``map_file_maps``."""
    if args.pair:
        return read_json(args.pair, "action pair file", lambda data: (
            action_pair_from_dict(data), (data["g"], data["h"])))
    missing = [option for option, value in (("--g", args.g), ("--h", args.h))
               if value is None]
    if missing:
        raise IoError(f"missing {' and '.join(missing)}: give --g and --h, "
                      "or --pair")
    G = resolve_group(args.g)
    H = resolve_group(args.h)
    alpha = _action_maps(args.alpha, G, H, "alpha")
    beta = _action_maps(args.beta, H, G, "beta")
    return ActionPair(G, H, alpha, beta, validate=False), (args.g, args.h)


def _report(command, inputs, results, status, t0):
    return {"command": command, "inputs": inputs, "results": results,
            "status": status,
            "timing_ms": round((time.perf_counter() - t0) * 1000, 1)}


def cmd_catalog(args):
    t0 = time.perf_counter()
    if args.action == "list":
        keys = catalog_keys()
        return _report("catalog list", {}, {"keys": keys}, "pass", t0), \
            EXIT_OK
    G = make_catalog_group(args.key)
    data = group_to_dict(G)
    if args.out:
        write_json(args.out, data, "group file")
        results = {"written": args.out, "order": G.order}
    else:
        results = data
    return _report("catalog export", {"key": args.key}, results,
                   "pass", t0), EXIT_OK


def cmd_compat(args):
    t0 = time.perf_counter()
    pair, _ = _build_pair(args)
    report = is_compatible(pair)
    norm_g, norm_h = normalizer_conditions(pair)
    results = {"compatible": report.compatible,
               "witness": witness_to_dict(report.witness),
               "normalizer_g": norm_g, "normalizer_h": norm_h}
    status = "pass" if report.compatible else "fail"
    code = EXIT_OK if report.compatible else EXIT_NEGATIVE
    inputs = {"g": args.g, "h": args.h,
              "alpha": args.alpha, "beta": args.beta, "pair": args.pair}
    return _report("compat", inputs, results, status, t0), code


def cmd_tensor(args):
    t0 = time.perf_counter()
    pair, names = _build_pair(args)
    max_cosets = (None if args.max_cosets is None
                  else positive_count(args.max_cosets, "--max-cosets"))
    rep = compute_tensor(pair, force=args.force, max_cosets=max_cosets)
    results = tensor_report_to_dict(rep)
    iso_notes = []
    for name, K in zip(names, (pair.G, pair.H)):
        if isomorphic(rep.tensor, K):
            iso_notes.append(f"isomorphic to {name}")
    results["notes"] = iso_notes
    inputs = {"g": args.g, "h": args.h,
              "alpha": args.alpha, "beta": args.beta, "pair": args.pair}
    return _report("tensor", inputs, results, "pass", t0), EXIT_OK


def cmd_verify(args):
    t0 = time.perf_counter()
    rows = run_verification()
    ok = all(r["passed"] for r in rows)
    results = {"rows": rows, "passed": sum(r["passed"] for r in rows),
               "failed": sum(not r["passed"] for r in rows)}
    return _report("verify paper", {}, results,
                   "pass" if ok else "fail", t0), \
        (EXIT_OK if ok else EXIT_NEGATIVE)


def cmd_explore(args):
    t0 = time.perf_counter()
    budget = (default_budget() if args.budget is None
              else positive_count(args.budget, "--budget"))
    if args.question == "question2":
        max_order = positive_count(args.max_order, "--max-order")
        results = question2_scan(max_order, budget=budget)
        status = "pass" if not results["counterexamples"] else "partial"
        return _report("explore question2",
                       {"max_order": max_order}, results, status,
                       t0), EXIT_OK
    p = positive_count(args.p, "p")
    G = make_catalog_group(f"heisenberg:{p}")
    results = {"p": p, **hom_pair_tensor_classes(G, budget=budget)}
    return _report("explore classify-heisenberg", {"p": p},
                   results, "pass", t0), EXIT_OK


def _render(report, out):
    print(f"== {report['command']} "
          f"[{report['status']}, {report['timing_ms']} ms]", file=out)
    results = report["results"]
    if report["command"] == "catalog list":
        for key in results["keys"]:
            print(f"  {key}", file=out)
    elif report["command"] == "verify paper":
        for row in results["rows"]:
            mark = "PASS" if row["passed"] else "FAIL"
            print(f"  {mark}  {row['name']:34s} {row['seconds']:8.3f} s",
                  file=out)
            if not row["passed"]:
                print(f"        expected: {row['expected']}", file=out)
                print(f"        computed: {row['computed']}", file=out)
                if row["detail"]:
                    print(f"        note: {row['detail']}", file=out)
        print(f"  {results['passed']} passed, {results['failed']} failed",
              file=out)
    elif report["command"] == "compat":
        print(f"  compatible: {results['compatible']}", file=out)
        if results["witness"]:
            print(f"  witness: {results['witness']}", file=out)
        print(f"  normalizer conditions: G side {results['normalizer_g']}, "
              f"H side {results['normalizer_h']}", file=out)
    elif report["command"] == "tensor":
        print(f"  order: {results['order']}", file=out)
        print(f"  abelian: {results['abelian']}"
              + (f", invariants {results['invariants']}"
                 if results["invariants"] else ""), file=out)
        print(f"  derivative order: {results['derivative_order']}",
              file=out)
        print(f"  kernel order: {results['kernel_order']}", file=out)
        for note in results.get("notes", []):
            print(f"  {note}", file=out)
    elif report["command"] == "explore question2":
        for rec in results["records"]:
            print(f"  {json.dumps(rec)}", file=out)
        print(f"  certificate: {results['certificate']}", file=out)
    elif report["command"] == "explore classify-heisenberg":
        for row in results["classes"]:
            print(f"  {json.dumps(row)}", file=out)
        print(f"  {len(results['classes'])} isomorphism classes over "
              f"{results['n_hom_pairs']} hom pairs", file=out)
    else:
        print(json.dumps(results, indent=2), file=out)


@functools.cache
def build_parser():
    """The process's one parser: parsing leaves no state on it, and each
    command runs the ``cmd_*`` function the module holds at that time."""
    parser = argparse.ArgumentParser(
        prog="tensorforge",
        description="compatible actions and non-abelian tensor products "
                    "of finite groups")
    parser.add_argument("--json", action="store_true",
                        help="print the raw JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="list or export catalog groups")
    cat_sub = cat.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list")
    exp = cat_sub.add_parser("export")
    exp.add_argument("key")
    exp.add_argument("--out", default=None)
    cat.set_defaults(func=lambda args: cmd_catalog(args))

    def pair_args(p):
        p.add_argument("--g", help="catalog key or group file")
        p.add_argument("--h", help="catalog key or group file")
        p.add_argument("--alpha", default="trivial",
                       help="trivial | inversion | conjugation | map file")
        p.add_argument("--beta", default="trivial",
                       help="trivial | inversion | conjugation | map file")
        p.add_argument("--pair", default=None,
                       help="action pair JSON file (overrides the rest)")

    comp = sub.add_parser("compat", help="decide compatibility")
    pair_args(comp)
    comp.set_defaults(func=lambda args: cmd_compat(args))

    ten = sub.add_parser("tensor", help="compute the tensor product")
    pair_args(ten)
    ten.add_argument("--force", action="store_true",
                     help="compute the presented group even if the pair "
                          "is incompatible")
    ten.add_argument("--max-cosets", default=None)
    ten.set_defaults(func=lambda args: cmd_tensor(args))

    ver = sub.add_parser("verify", help="run the verification suite")
    ver.add_argument("what", choices=["paper"])
    ver.set_defaults(func=lambda args: cmd_verify(args))

    explore = sub.add_parser("explore", help="open-question evidence")
    explore_sub = explore.add_subparsers(dest="question", required=True)
    q2 = explore_sub.add_parser("question2")
    q2.add_argument("--max-order", required=True)
    q2.add_argument("--budget", default=None)
    ch = explore_sub.add_parser("classify-heisenberg")
    ch.add_argument("p")
    ch.add_argument("--budget", default=None)
    explore.set_defaults(func=lambda args: cmd_explore(args))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except IncompatibleActions as exc:
        print(f"error: incompatible actions ({exc}); use --force to "
              "compute the presented group anyway", file=sys.stderr)
        return EXIT_ERROR
    except TensorforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:        # last resort: one line, exit code 2
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_ERROR
    try:
        if args.json:
            print(json.dumps(report))
        else:
            _render(report, sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # stdout is closed or full: what is left in its buffer goes to
        # os.devnull, so that the flush at exit raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc.strerror}",
              file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
