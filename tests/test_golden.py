"""Golden outputs: each command of ``tools/golden.py`` prints, with its
timings removed, byte for byte what ``tests/golden.json`` holds, and
exits with the code stored beside it.  The file is rewritten only by
``tools/golden.py --write``; a change that moves an entry changes
behaviour."""

import json
import sys
from pathlib import Path

import pytest

from tensorforge import cli

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
import golden  # noqa: E402

GOLDEN = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
CALLS = dict(golden.calls(cli))


def test_golden_file_holds_every_command_in_order():
    assert list(GOLDEN) == list(CALLS)
    assert golden.GOLDEN.stat().st_size < 100_000


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_output(name):
    assert json.dumps(golden.entry(CALLS[name])) == json.dumps(GOLDEN[name])


def test_strip_timings_removes_only_timings():
    report = {"command": "verify paper", "inputs": {}, "status": "fail",
              "results": {"rows": [{"name": "a", "seconds": 0.5}],
                          "passed": 0}, "timing_ms": 3.0}
    assert golden.strip_timings(report) == {
        "command": "verify paper", "inputs": {}, "status": "fail",
        "results": {"rows": [{"name": "a"}], "passed": 0}}
    assert report["results"]["rows"][0]["seconds"] == 0.5
    tensor = {"command": "tensor", "results": {"seconds": 1},
              "timing_ms": 1.0}
    assert golden.strip_timings(tensor) == {"command": "tensor",
                                            "results": {"seconds": 1}}
