"""Golden outputs: what a fixed set of ``tensorforge --json`` commands
print, with the timings removed.

    python3 tools/golden.py --write    # write tests/golden.json from this tree
    python3 tools/golden.py            # name the entries that differ from it

Each entry is one command, run in process through ``cli.main``: its exit
code and its JSON report without timings (``strip_timings``).  The tensor
entries are the 17 ops of perfbench's ``tensor-large`` and
``tensor-collapse`` workloads, read from ``perfbench/workloads.py``; the
others are ``verify paper``, ``explore classify-heisenberg 2`` and two
incompatible ``compat`` pairs.  ``tests/test_golden.py`` runs the same
commands and compares each with the file byte for byte, so a change that
moves an entry changes behaviour, and its CHANGES.md entry says which
entries moved and why.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

COMMANDS = [
    ["--json", "verify", "paper"],
    ["--json", "explore", "classify-heisenberg", "2"],
    ["--json", "compat", "--g", "dihedral:8", "--h", "dihedral:8",
     "--alpha", "conjugation"],
    ["--json", "compat", "--g", "cyclic:3", "--h", "cyclic:3",
     "--alpha", "inversion", "--beta", "inversion"],
]


def strip_timings(report):
    """The report without its timings: the top-level ``timing_ms`` and
    the ``seconds`` of each verify row."""
    out = {key: value for key, value in report.items()
           if key != "timing_ms"}
    if report["command"] == "verify paper":
        out["results"] = {**report["results"], "rows": [
            {key: value for key, value in row.items() if key != "seconds"}
            for row in report["results"]["rows"]]}
    return out


def calls(cli):
    """(name, call) of every entry; a call returns the exit code and what
    the command printed."""
    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    tf = SimpleNamespace(cli=cli)
    ops = workloads.tensor_large(tf)[0] + workloads.tensor_collapse(tf)[0]
    return [(op.name, op.call) for op in ops] + [
        (" ".join(argv[1:]), lambda argv=argv: run(argv))
        for argv in COMMANDS]


def entry(call):
    """One entry as the file holds it: exit code and stripped report."""
    code, text = call()
    return {"exit": code, "report": strip_timings(json.loads(text))}


def dumps(entries):
    """The file's text: one entry per line, in the order given."""
    lines = [f"{json.dumps(name)}: {json.dumps(value)}"
             for name, value in entries.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write {GOLDEN.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from tensorforge import cli
    entries = {name: entry(call) for name, call in calls(cli)}
    if args.write:
        GOLDEN.write_text(dumps(entries), encoding="utf-8")
        print(f"wrote {len(entries)} entries to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differ = [name for name in entries.keys() | golden.keys()
              if json.dumps(entries.get(name)) != json.dumps(golden.get(name))]
    for name in sorted(differ):
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
