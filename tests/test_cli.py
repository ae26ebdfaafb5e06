"""CLI behaviour: exit codes, JSON mode, file outputs."""

import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tensorforge
from tensorforge import presentations
from tensorforge.cli import build_parser, main
from tensorforge.errors import InvalidCount, TensorforgeError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "cyclic:3" in out and "heisenberg:3" in out


def test_catalog_export_to_file(capsys, tmp_path):
    path = tmp_path / "z3.json"
    code, out, _ = run(capsys, "catalog", "export", "cyclic:3",
                       "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["order"] == 3 and len(data["table"]) == 3


def test_catalog_export_stdout_json(capsys):
    code, out, _ = run(capsys, "--json", "catalog", "export", "cyclic:2")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["table"] == [[0, 1], [1, 0]]


def test_catalog_export_unknown_key(capsys):
    code, out, err = run(capsys, "catalog", "export", "bogus:9")
    assert code == 2 and "bogus:9" in err


@pytest.mark.parametrize("key", ["cyclic:100000", "symmetric:12",
                                 "product:cyclic:5000,cyclic:5000"])
def test_catalog_export_refuses_oversize_order(capsys, key):
    # refused from the key alone, before any table is allocated
    code, out, err = run(capsys, "catalog", "export", key)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and key in err and "4096" in err


def test_compat_compatible_exit_zero(capsys):
    code, out, _ = run(capsys, "compat", "--g", "cyclic:3",
                       "--h", "cyclic:3", "--alpha", "inversion")
    assert code == 0 and "compatible: True" in out


def test_compat_incompatible_exit_one(capsys):
    code, out, _ = run(capsys, "compat", "--g", "cyclic:3",
                       "--h", "cyclic:3",
                       "--alpha", "inversion", "--beta", "inversion")
    assert code == 1
    assert "witness" in out


def test_compat_json_report_shape(capsys):
    code, out, _ = run(capsys, "--json", "compat", "--g", "cyclic:2",
                       "--h", "cyclic:2")
    report = json.loads(out)
    assert list(report) == ["command", "inputs", "results", "status",
                            "timing_ms"]
    assert report["results"]["compatible"] is True


def test_tensor_human_summary(capsys):
    code, out, _ = run(capsys, "tensor", "--g", "cyclic:3",
                       "--h", "cyclic:2", "--alpha", "inversion")
    assert code == 0
    assert "order: 3" in out
    assert "isomorphic to cyclic:3" in out


def test_tensor_both_pipelines_agree(capsys):
    code, out, _ = run(capsys, "--json", "tensor", "--g", "symmetric:3",
                       "--h", "cyclic:2")
    report = json.loads(out)
    assert report["results"]["order"] == 2
    assert report["results"]["invariants"] == [2]


def test_tensor_refuses_incompatible_without_force(capsys):
    code, out, err = run(capsys, "tensor", "--g", "cyclic:3",
                         "--h", "cyclic:3",
                         "--alpha", "inversion", "--beta", "inversion")
    assert code == 2 and "--force" in err


def test_tensor_force_computes_presented_group(capsys):
    code, out, _ = run(capsys, "--json", "tensor", "--g", "cyclic:3",
                       "--h", "cyclic:3",
                       "--alpha", "inversion", "--beta", "inversion",
                       "--force")
    assert code == 0
    assert json.loads(out)["results"]["order"] == 1


def test_reused_parser_gives_each_call_its_own_output(capsys):
    # main parses every call with one parser built once per process; each
    # of these back-to-back calls must print, and exit with, exactly what
    # it does as the only call of a fresh process
    incompatible = ("tensor", "--g", "cyclic:3", "--h", "cyclic:3",
                    "--alpha", "inversion", "--beta", "inversion")
    square = ("tensor", "--g", "dihedral:4", "--h", "dihedral:4",
              "--alpha", "conjugation", "--beta", "conjugation")
    src = str(Path(tensorforge.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))

    def alone(argv):
        proc = subprocess.run([sys.executable, "-m", "tensorforge.cli",
                               *argv], capture_output=True, text=True,
                              env=env, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    for first, second, codes in [
            (incompatible + ("--force",), incompatible, (0, 2)),
            (("--json",) + square, square, (0, 0)),
            (square + ("--max-cosets", "5"), square, (2, 0))]:
        got = [run(capsys, *first), run(capsys, *second)]
        assert tuple(code for code, _, _ in got) == codes
        for argv, result in zip((first, second), got):
            assert _untimed(result) == _untimed(alone(argv)), argv


def _untimed(result):
    """An exit code and output with the wall-clock timings blanked."""
    code, out, err = result
    out = re.sub(r'"timing_ms": [0-9.]+', '"timing_ms": 0', out)
    return code, re.sub(r", [0-9.]+ ms\]", ", 0 ms]", out), err


def test_commands_never_import_numpy_ma():
    # numpy's plain np.unique(x) imports numpy.ma on its first call, about
    # 15 ms of a fresh process; the commands run in one fresh interpreter,
    # as pytest, SymPy and Hypothesis have loaded numpy.ma in this one
    script = """
import contextlib, io, json, sys
from tensorforge.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, "numpy.ma" in sys.modules]))
"""
    commands = [["verify", "paper"], ["explore", "classify-heisenberg", "2"],
                ["tensor", "--g", "dihedral:4", "--h", "dihedral:4",
                 "--alpha", "conjugation", "--beta", "conjugation"],
                ["compat", "--g", "cyclic:3", "--h", "cyclic:3",
                 "--alpha", "inversion"]]
    src = str(Path(tensorforge.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script,
                           json.dumps(commands)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [1, 0, 0, 0] and not loaded


def test_tensor_from_pair_file(capsys, tmp_path):
    pair = {"g": "cyclic:4", "h": "cyclic:2",
            "alpha": {"map": [0, 1]}, "beta": {"map": [0, 0, 0, 0]}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, _ = run(capsys, "--json", "tensor", "--pair", str(path))
    assert code == 0
    assert json.loads(out)["results"]["order"] == 4


def test_tensor_notes_name_the_groups_of_a_pair_file(capsys, tmp_path):
    # cyclic:2 acting on cyclic:4 by inversion, and cyclic:4 on cyclic:2
    # trivially: the notes name the groups as the pair file names them,
    # as they do the --g and --h of the same pair
    pair = {"g": "cyclic:4", "h": "cyclic:2",
            "alpha": {"map": [0, 1]}, "beta": {"map": [0, 0, 0, 0]}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, _ = run(capsys, "--json", "tensor", "--pair", str(path))
    assert code == 0
    notes = json.loads(out)["results"]["notes"]
    code, out, _ = run(capsys, "--json", "tensor", "--g", "cyclic:4",
                       "--h", "cyclic:2", "--alpha", "inversion")
    assert code == 0
    assert notes == json.loads(out)["results"]["notes"] \
        == ["isomorphic to cyclic:4"]


def test_explore_question2_trivial(capsys):
    code, out, _ = run(capsys, "explore", "question2", "--max-order", "1")
    assert code == 0
    assert "no-counterexample-up-to-order-1" in out


def test_explore_question2_json_records(capsys):
    code, out, _ = run(capsys, "--json", "explore", "question2",
                       "--max-order", "2")
    report = json.loads(out)
    assert report["results"]["records"]
    assert all(r["normalizer_g"] for r in report["results"]["records"])


def test_explore_classify_heisenberg_2(capsys):
    code, out, _ = run(capsys, "--json", "explore",
                       "classify-heisenberg", "2")
    report = json.loads(out)
    assert code == 0 and report["status"] == "pass"
    del report["timing_ms"]

    def row(order, invariants, phi, psi, count):
        return {"order": order, "abelian": True, "invariants": invariants,
                "nilpotency": 1, "example_phi": phi, "example_psi": psi,
                "n_hom_pairs": count}
    assert report == {
        "command": "explore classify-heisenberg", "inputs": {"p": 2},
        "results": {"p": 2, "n_homs": 36, "n_hom_pairs": 1296,
                    "classes": [row(16, [2, 2, 2, 2], 0, 0, 1136),
                                row(32, [2, 2, 2, 2, 2], 2, 20, 64),
                                row(32, [2, 2, 2, 4], 14, 14, 96)]},
        "status": "pass"}


def test_explore_classify_heisenberg_3_exceeds_cap(capsys):
    code, out, err = run(capsys, "explore", "classify-heisenberg", "3")
    assert code == 2 and "symbol" in err


def test_inversion_action_requires_cyclic_actor(capsys):
    code, out, err = run(capsys, "compat", "--g", "cyclic:3",
                         "--h", "elemab:2:2", "--beta", "trivial",
                         "--alpha", "inversion")
    assert code == 2 and "cyclic" in err


def test_compat_invalid_action_file_exits_two(capsys, tmp_path):
    # alpha sends the identity of cyclic:2 to inversion, a non-identity
    # automorphism of cyclic:3
    pair = {"g": "cyclic:3", "h": "cyclic:2",
            "alpha": {"map": [1, 0]}, "beta": {"map": [0, 0, 0]}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, err = run(capsys, "compat", "--pair", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: action pair file {str(path)!r}: alpha: identity "
                   "must act trivially\n")


@pytest.mark.parametrize("entries, message", [
    ([0, -1], "alpha index -1 out of range for Aut(G)"),
    ([0, 5], "alpha index 5 out of range for Aut(G)"),
    ("01", "alpha map must be a list of integer indices"),
    ([0, 1.7], "alpha map must be a list of integer indices"),
    (5, "alpha map must be a list of integer indices"),
    ([0], "alpha map must have 2 entries"),
])
def test_map_file_bad_entries_exit_two(capsys, tmp_path, entries, message):
    # -1 must not wrap to the last automorphism of cyclic:3, and neither
    # the string "01" nor 1.7 may pass as the indices [0, 1]; every line
    # names the map file
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"map": entries}))
    code, out, err = run(capsys, "compat", "--g", "cyclic:3",
                         "--h", "cyclic:2", "--alpha", str(path))
    assert code == 2 and out == ""
    assert err == f"error: alpha map file {str(path)!r}: {message}\n"


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_budget_environment_exits_two(capsys, monkeypatch, value):
    monkeypatch.setenv("TENSORFORGE_BUDGET", value)
    code, out, err = run(capsys, "explore", "question2", "--max-order", "2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "TENSORFORGE_BUDGET" in err


def test_budget_environment_bounds_the_grids(capsys, monkeypatch):
    # cyclic:3 with cyclic:2 has a grid of 2 x 1 action pairs
    monkeypatch.setenv("TENSORFORGE_BUDGET", "1")
    code, out, err = run(capsys, "explore", "question2", "--max-order", "3")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "exceed budget 1" in err


@pytest.mark.parametrize("argv,budget", [
    (("classify-heisenberg", "2"), None),
    (("classify-heisenberg", "2", "--budget", "7"), 7),
])
def test_classify_passes_its_budget_through(capsys, monkeypatch, argv,
                                            budget):
    # without --budget or TENSORFORGE_BUDGET the hom search applies its
    # own default, not the grid's
    monkeypatch.delenv("TENSORFORGE_BUDGET", raising=False)
    seen = []

    def classes(G, budget):
        seen.append(budget)
        return {"n_homs": 0, "n_hom_pairs": 0, "classes": []}
    monkeypatch.setattr(tensorforge.cli, "hom_pair_tensor_classes", classes)
    code, _, _ = run(capsys, "explore", *argv)
    assert code == 0 and seen == [budget]


def test_question2_without_a_budget_stops_at_the_grid_default(capsys,
                                                              monkeypatch):
    # elemab:2:3 squared has 736 x 736 action pairs
    monkeypatch.delenv("TENSORFORGE_BUDGET", raising=False)
    code, out, err = run(capsys, "explore", "question2", "--max-order", "8")
    assert code == 2 and out == ""
    assert err == ("error: grid elemab:2:3 with elemab:2:3: 736x736 action "
                   "pairs exceed budget 200000, after 165 grids and 111383 "
                   "pairs scanned\n")


@pytest.mark.parametrize("argv", [
    ("question2", "--max-order", "2", "--budget", "0"),
    ("question2", "--max-order", "2", "--budget", "-3"),
    ("classify-heisenberg", "2", "--budget", "0"),
])
def test_bad_budget_option_exits_two(capsys, argv):
    code, out, err = run(capsys, "explore", *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "--budget must be a positive integer" in err


@pytest.mark.parametrize("argv, option", [
    (("explore", "question2", "--max-order", "abc"), "--max-order"),
    (("explore", "question2", "--max-order", "2", "--budget", "1.5"),
     "--budget"),
    (("tensor", "--g", "cyclic:2", "--h", "cyclic:2", "--max-cosets", "x"),
     "--max-cosets"),
])
def test_a_count_that_is_no_integer_gives_one_error_line(capsys, argv,
                                                         option):
    # counts are parsed by one rule, not by argparse, whose refusal is a
    # usage line and an error line
    code, out, err = run(capsys, *argv)
    _one_error_line(code, out, err,
                    f"{option} must be a positive integer, not '{argv[-1]}'")


@pytest.mark.parametrize("value", ["+1", "+5", "1_000", " 2 "])
def test_budget_environment_reads_as_the_option(capsys, monkeypatch, value):
    # the variable takes every spelling that --budget takes: both bound
    # the grids alike (cyclic:2 with cyclic:3 has 1 x 2 action pairs)
    monkeypatch.delenv("TENSORFORGE_BUDGET", raising=False)
    argv = ("--json", "explore", "question2", "--max-order", "3")
    code, out, err = run(capsys, *argv, "--budget", value)
    monkeypatch.setenv("TENSORFORGE_BUDGET", value)
    got = run(capsys, *argv)
    assert (code, err) == got[:1] + got[2:]
    if code == 0:
        assert json.loads(out)["results"] == json.loads(got[1])["results"]
    else:
        assert code == 2 and err.endswith("exceed budget 1, after 5 grids "
                                          "and 5 pairs scanned\n")


def _group_file(tmp_path, data):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("data, needle", [
    ({"order": 2, "table": [[0, 1], [1]]}, "2 rows of 2 entries"),
    ({"order": 2, "table": [[0, 1], [1, "0"]]}, "integers"),
    ({"order": 2, "table": [[0, 1], [1, 0.0]]}, "integers"),
    ({"order": 2, "table": [[0, 1], [1, 0]], "names": "ab"}, "names"),
    ({"order": 2, "table": [[0, 1], [1, 0]], "names": 7}, "names"),
    ({"order": 2, "table": 5}, "table size"),
    ({"order": "2", "table": [[0, 1], [1, 0]]}, "not an integer"),
    ([1, 2], "missing"),
    # faults found after the shape checks name the file too
    ({"order": 2, "table": [[0, 1], [1, 1]]},
     "not a group: not-latin-square (witness=('row', 1))"),
    ({"order": 5000, "table": [[0]]},
     "group file of order 5000 exceeds the 4096-element cap"),
])
def test_malformed_group_file_exits_two(capsys, tmp_path, data, needle):
    path = _group_file(tmp_path, data)
    code, out, err = run(capsys, "compat", "--g", path, "--h", "cyclic:2")
    _one_error_line(code, out, err, needle, path)


@pytest.mark.parametrize("data, needle", [
    ({"g": "cyclic:3", "h": "cyclic:2", "alpha": [0],
      "beta": {"map": [0, 0, 0]}}, "'alpha' and 'beta' objects"),
    ({"g": "cyclic:3", "h": "cyclic:2"}, "'alpha' and 'beta' objects"),
    ({"g": 3, "h": "cyclic:2", "alpha": {"map": [0, 0]},
      "beta": {"map": [0, 0, 0]}}, "group names 'g' and 'h'"),
    ([0], "group names 'g' and 'h'"),
    ({"g": "cyclic:3", "h": "cyclic:2", "alpha": {"map": [0]},
      "beta": {"map": [0, 0, 0]}}, "expected |H| = 2 and |G| = 3"),
    ({"g": "cyclic:3", "h": "cyclic:2", "alpha": {"map": [0, 9]},
      "beta": {"map": [0, 0, 0]}}, "alpha index 9 out of range"),
])
def test_malformed_pair_file_names_the_file(capsys, tmp_path, data, needle):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "compat", "--pair", str(path))
    _one_error_line(code, out, err, needle, f"action pair file {str(path)!r}")


def test_pair_file_names_its_malformed_group_file(capsys, tmp_path):
    # a shape fault, a table that is no group and an order over the cap
    for data, needle in [
            ({"order": "2", "table": [[0, 1], [1, 0]]}, "not an integer"),
            ({"order": 2, "table": [[0, 1], [1, 1]]}, "not-latin-square"),
            ({"order": 5000, "table": [[0]]}, "order 5000 exceeds the 4096")]:
        group = _group_file(tmp_path, data)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"g": group, "h": "cyclic:2",
                                    "alpha": {"map": [0, 0]},
                                    "beta": {"map": [0, 0]}}))
        code, out, err = run(capsys, "compat", "--pair", str(path))
        _one_error_line(code, out, err, needle,
                        f"action pair file {str(path)!r}: "
                        f"catalog key or group file {group!r}: ")


def test_oversize_tensor_refused_before_compatibility(capsys):
    # the compatibility check of this pair is cubic in 1024 and took about
    # a minute when it ran before the symbol cap
    code, out, err = run(capsys, "tensor", "--g", "cyclic:1024",
                         "--h", "cyclic:1024", "--alpha", "conjugation",
                         "--beta", "conjugation")
    _one_error_line(code, out, err, "1048576 symbols exceed the 256-symbol")


def test_oversize_tensor_table_refused(capsys, monkeypatch):
    # Z4 (x) Z4 = Z4 under trivial actions: 4 cosets over a stated cap of 3
    monkeypatch.setattr(presentations, "MAX_CATALOG_ORDER", 3)
    code, out, err = run(capsys, "tensor", "--g", "cyclic:4",
                         "--h", "cyclic:4", "--alpha", "trivial",
                         "--beta", "trivial")
    _one_error_line(code, out, err, "4 cosets exceed the 3-element cap")


def test_oversize_group_file_refused_before_validation(capsys, tmp_path,
                                                      monkeypatch):
    import tensorforge.serialize as sz

    validated = []
    monkeypatch.setattr(sz, "from_cayley_table",
                        lambda *args, **kwargs: validated.append(args))
    # the order alone is refused; the table is never looked at
    path = _group_file(tmp_path, {"order": 4097, "table": []})
    code, out, err = run(capsys, "compat", "--g", path, "--h", "cyclic:2")
    assert code == 2 and out == "" and not validated
    assert err == (f"error: catalog key or group file {path!r}: group file "
                   "of order 4097 exceeds the 4096-element cap\n")


@pytest.mark.parametrize("command", ["compat", "tensor"])
@pytest.mark.parametrize("argv, missing", [
    ((), "--g and --h"),
    (("--g", "cyclic:2"), "--h"),
    (("--h", "cyclic:2"), "--g"),
])
def test_missing_group_options_are_named(capsys, command, argv, missing):
    code, out, err = run(capsys, command, *argv)
    _one_error_line(code, out, err)
    assert err == f"error: missing {missing}: give --g and --h, or --pair\n"


def test_unexpected_exception_exits_two_with_one_line(capsys, monkeypatch):
    import tensorforge.cli as cli

    def broken(args):
        raise RuntimeError("something broke\nin two lines")

    monkeypatch.setattr(cli, "cmd_compat", broken)
    code, out, err = run(capsys, "compat", "--g", "cyclic:2",
                         "--h", "cyclic:2")
    assert code == 2 and out == ""
    assert err == "error: RuntimeError: something broke in two lines\n"


def _one_error_line(code, out, err, *needles):
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    for needle in needles:
        assert needle in err
    # a typed error, not the last-resort handler's exception name
    for name in ("FileNotFoundError", "JSONDecodeError", "TypeError",
                 "KeyError", "ValueError"):
        assert name not in err


def test_missing_pair_file_is_an_io_error(capsys, tmp_path):
    path = str(tmp_path / "nonexistent.json")
    code, out, err = run(capsys, "compat", "--pair", path)
    _one_error_line(code, out, err, "action pair file", path)


@pytest.mark.parametrize("option", ["--pair", "--alpha"])
def test_truncated_json_file_is_an_io_error(capsys, tmp_path, option):
    path = tmp_path / "cut.json"
    path.write_text('{"map": [0,')
    code, out, err = run(capsys, "compat", "--g", "cyclic:3", "--h",
                         "cyclic:2", option, str(path))
    _one_error_line(code, out, err, str(path), "Expecting value")


@pytest.mark.parametrize("data", [[0, 1], {"mapp": [0, 1]}, 7])
def test_map_file_without_a_map_entry_is_an_io_error(capsys, tmp_path,
                                                     data):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "compat", "--g", "cyclic:3",
                         "--h", "cyclic:2", "--alpha", str(path))
    _one_error_line(code, out, err, str(path), "no 'map' entry")


def test_unwritable_export_path_is_an_io_error(capsys, tmp_path):
    path = str(tmp_path / "nonexistent" / "x.json")
    code, out, err = run(capsys, "catalog", "export", "cyclic:3",
                         "--out", path)
    _one_error_line(code, out, err, "cannot write group file", path)


def test_coset_limit_says_how_far_it_got(capsys):
    code, out, err = run(capsys, "tensor", "--g", "dihedral:4", "--h",
                         "dihedral:4", "--alpha", "conjugation", "--beta",
                         "conjugation", "--max-cosets", "20")
    assert code == 2 and out == ""
    assert err == "error: coset limit 20 reached after 25 scans\n"


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_max_cosets_exits_two(capsys, value):
    code, out, err = run(capsys, "tensor", "--g", "cyclic:2", "--h",
                         "cyclic:2", "--max-cosets", value)
    _one_error_line(code, out, err,
                    f"--max-cosets must be a positive integer, not '{value}'")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_max_order_exits_two(capsys, value):
    code, out, err = run(capsys, "explore", "question2", "--max-order",
                         value)
    _one_error_line(code, out, err,
                    f"--max-order must be a positive integer, not '{value}'")


@pytest.mark.parametrize("argv, option", [
    (("explore", "question2", "--max-order", "0"), "--max-order"),
    (("explore", "question2", "--max-order", "2", "--budget", "0"),
     "--budget"),
    (("explore", "classify-heisenberg", "2", "--budget", "0"), "--budget"),
    (("tensor", "--g", "cyclic:2", "--h", "cyclic:2", "--max-cosets", "0"),
     "--max-cosets"),
])
def test_an_order_bound_and_a_budget_raise_the_one_count_error(argv,
                                                               option):
    # a bad order bound or coset limit is no budget error: every count
    # from outside is refused by one error class, which names the option
    args = build_parser().parse_args(list(argv))
    with pytest.raises(InvalidCount) as caught:
        args.func(args)
    assert str(caught.value) == \
        f"{option} must be a positive integer, not '0'"


def test_question2_huge_max_order_exits_two_in_bounded_memory():
    # keys are listed only up to the 4096-element cap and each group is
    # built when the scan reaches it, so the scan fails at Aut(elemab:2:4)
    # within 1 GiB of address space; the cyclic tables up to the cap alone
    # would take about 180 GB
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    src = str(Path(tensorforge.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep
               .join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tensorforge.cli", "explore", "question2",
         "--max-order", "1000000000000"], capture_output=True, text=True,
        env=env, preexec_fn=limit, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: |Aut(G)| = 20160 exceeds the 4096-"
                           "element cap for its table\n")


def test_map_file_over_a_huge_aut_exits_two(capsys, tmp_path):
    # |Aut(elemab:2:4)| = 20160: refused before its 3.25 GB table
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"map": [0, 0]}))
    code, out, err = run(capsys, "compat", "--g", "elemab:2:4",
                         "--h", "cyclic:2", "--alpha", str(path))
    _one_error_line(code, out, err, "20160", "4096")


# -- the 0/1/2 contract under fuzzed keys, options and environment ---------

# ASCII digits, then Arabic-Indic, fullwidth and Devanagari ones, which
# int() reads and a catalog key rejects
DIGIT_SETS = ["0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666"
              "\u0667\u0668\u0669", "\uff10\uff11\uff12\uff13\uff14\uff15"
              "\uff16\uff17\uff18\uff19", "\u0966\u0967\u0968\u0969"
              "\u096a\u096b\u096c\u096d\u096e\u096f"]


def written(values):
    """A number from ``values`` as a key or an option writes it: plain,
    or with a sign, leading zeros, spaces or non-ASCII digits."""
    plain = st.sampled_from(values).map(str)
    mutated = st.builds(
        lambda n, digits, prefix, pad: pad + prefix + n.translate(
            str.maketrans("0123456789", digits)) + pad,
        plain, st.sampled_from(DIGIT_SETS),
        st.sampled_from(["", "+", "-", "0", "00"]),
        st.sampled_from(["", " "]))
    return st.one_of(plain, mutated)


# keys of groups of order 8 at most, so that products stay at order 64
KEYS = st.recursive(
    st.one_of(
        st.builds("{}:{}".format,
                  st.sampled_from(["cyclic", "dihedral", "symmetric",
                                   "heisenberg", "quaternion", "bogus"]),
                  written([0, 1, 2])),
        st.builds("elemab:{}:{}".format, written([0, 1, 2]),
                  written([0, 1, 2])),
        st.just("quaternion:8")),
    lambda inner: st.builds("product:{}{}{}".format, inner,
                            st.sampled_from([",", ",,", ", ", ""]), inner),
    max_leaves=3)
OPTION_VALUES = written([0, 1, 2, 20, 1000]) | st.sampled_from(
    ["", "x", "1.5", "0x10"])


def _key_faults(key):
    """[] for a catalog key, else [names]: an error must name the key or,
    in a product key, one of its factors."""
    try:
        tensorforge.make_catalog_group(key)
    except TensorforgeError:
        factors = key.removeprefix("product:").split(",") \
            if key.startswith("product:") else []
        return [(key, *(f for f in factors if ":" in f))]
    return []


def _is_positive_int(text):
    """The one rule of every count given from outside: what int() reads
    as at least 1."""
    try:
        return int(text) >= 1
    except ValueError:
        return False


@st.composite
def cli_calls(draw):
    """(argv, TENSORFORGE_BUDGET or None, culprits): a command line and
    the names of each input of it that is at fault; an error must give
    one name of one of them."""
    command = draw(st.sampled_from(["export", "compat", "tensor",
                                    "question2"]))
    culprits = []
    if command == "export":
        key = draw(KEYS)
        argv = ["catalog", "export", key]
        culprits += _key_faults(key)
    elif command in ("compat", "tensor"):
        argv = [command]
        keys = [draw(KEYS), "cyclic:2"]
        for option, key in zip(("--g", "--h"), draw(st.permutations(keys))):
            if draw(st.integers(0, 4)) == 0:
                culprits.append((option,))          # left out
            else:
                argv.append(f"{option}={key}")
                culprits += _key_faults(key)
        if command == "tensor" and draw(st.booleans()):
            value = draw(OPTION_VALUES)
            argv.append(f"--max-cosets={value}")
            culprits += [] if _is_positive_int(value) else [("--max-cosets",)]
    else:
        value = draw(written([0, 1, 2, 3]))
        argv = ["explore", "question2", f"--max-order={value}"]
        culprits += [] if _is_positive_int(value) else [("--max-order",)]
    env = draw(st.none() | OPTION_VALUES)
    if command == "question2" and draw(st.booleans()):
        value = draw(OPTION_VALUES)
        argv.append(f"--budget={value}")
        culprits += [] if _is_positive_int(value) else [("--budget",)]
    elif command == "question2" and env and not _is_positive_int(env):
        # read only when --budget is not given; set empty, it is unset
        culprits.append(("TENSORFORGE_BUDGET",))
    return argv, env, culprits


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(cli_calls())
def _check_cli_contract(call):
    argv, env, culprits = call
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("TENSORFORGE_BUDGET", None)
        if env is not None:
            os.environ["TENSORFORGE_BUDGET"] = env
        try:
            code = main(argv)
        except SystemExit as exc:               # argparse's own refusals
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert not re.search(r"^error: [A-Z]\w*: ", err, re.MULTILINE), err
    if code != 2:
        assert err == "" and not culprits
        return
    lines = [line for line in err.splitlines() if "error:" in line]
    assert out == "" and len(lines) == 1, err
    if culprits:
        assert any(name in lines[0] for names in culprits for name in names),\
            (lines[0], culprits)


def test_cli_contract_under_fuzzed_keys_and_options(tmp_path, monkeypatch):
    # the contract: exit code 0, 1 or 2; on 2, one error line that names
    # the key or option at fault, never the last-resort form
    # "error: <ExceptionType>: ..."; a key that is no catalog key is read
    # as a file path, and the empty working directory holds none
    monkeypatch.chdir(tmp_path)
    _check_cli_contract()


# -- the 0/1/2 contract under mutated group, pair and map files ------------

# Aut(cyclic:3) is {identity, inversion}: cyclic:2 acts on cyclic:3 by
# inversion, and cyclic:3 on cyclic:2 trivially
BASE_MAP = {"map": [0, 1]}
BASE_PAIR = {"g": "cyclic:3", "h": "cyclic:2", "alpha": {"map": [0, 1]},
             "beta": {"map": [0, 0, 0]}}
HUGE = [2 ** 63, 2 ** 64 + 1, -2 ** 70, 10 ** 30]
WRONG_TYPES = ["0", 1.5, None, True, {}, {"map": 0}]


def _paths(value, prefix=()):
    """Every path into a JSON value, the value itself first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, prefix + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def mutated(draw, value):
    """(``value`` with one entry mutated, fault): a JSON value with a key
    or a list entry dropped, a wrong type, a list grown by one, an integer
    in or out of range or huge, or an entry nested in a list; in a group
    file, also a table that is no group or an order over the cap.
    ``fault`` is True when the mutation makes any file a faulty one, and
    None when that depends on the value: an integer still in range, the
    optional "names" dropped or set to null, or a name changed."""
    value = json.loads(json.dumps(value))
    kinds = ["drop", "type", "grow", "int", "nest"]
    if isinstance(value, dict) and "table" in value:
        kinds += ["no group", "cap"]
    kind = draw(st.sampled_from(kinds))
    if kind == "no group":
        n = len(value["table"])
        value["table"] = [[(2 * i + j) % n for j in range(n)]
                          for i in range(n)]
        return value, True
    if kind == "cap":
        value["order"] = draw(st.sampled_from([4097, 5000, 10 ** 30]))
        return value, True
    paths = list(_paths(value))
    if kind == "drop":          # an entry, not the whole value
        paths = paths[1:]
    if kind == "int":           # an integer entry, where there is one
        paths = [path for path in paths
                 if type(_at(value, path)) is int] or paths
    path = draw(st.sampled_from(paths))
    fault = None if path[:1] == ("names",) and len(path) > 1 else True
    parent, old = _at(value, path[:-1]), _at(value, path)
    if kind == "drop":
        del parent[path[-1]]
        return value, None if path == ("names",) else fault
    if kind == "grow":
        new = old + old[-1:] if isinstance(old, list) and old else [0]
    elif kind == "type":
        new = draw(st.sampled_from(WRONG_TYPES))
        if new is None and path == ("names",):
            fault = None
    elif kind == "int":
        new = draw(st.integers(-2, 6) | st.sampled_from(HUGE))
        if 0 <= new < 2 ** 63 and type(old) is int:
            fault = None
    else:
        new = [old]
    if not path:
        return new, fault
    parent[path[-1]] = new
    return value, fault


@st.composite
def file_calls(draw):
    """(kind, command, key, side, data) of a command that reads a mutated
    group file, map file or pair file, or a pair file naming a mutated
    group file: ``data`` draws the mutation."""
    kind = draw(st.sampled_from(["group", "map", "pair", "pair group"]))
    command = draw(st.sampled_from(["compat", "tensor"]))
    key = draw(st.sampled_from(["cyclic:3", "symmetric:3"]))
    side = draw(st.sampled_from(["alpha", "beta"]))
    return kind, command, key, side, draw(st.data())


def test_cli_contract_under_mutated_files(tmp_path, monkeypatch):
    # the contract for files: exit code 0, 1 or 2; on 2, one error line
    # that names the file at fault, and a group file read through a pair
    # file together with the pair file, never the last-resort form
    # "error: <ExceptionType>: ..."; 0 and 1 leave stderr empty, and a
    # faulty file exits 2.  A spec that is no catalog key is read as a
    # file path, and the working directory holds only these files.
    monkeypatch.chdir(tmp_path)
    paths = {name: tmp_path / f"{name}.json"
             for name in ("group", "map", "pair")}
    groups = {}
    for key in ("cyclic:3", "symmetric:3"):
        assert main(["catalog", "export", key, "--out",
                     str(paths["group"])]) == 0
        groups[key] = json.loads(paths["group"].read_text())

    @settings(max_examples=400, derandomize=True, deadline=None,
              database=None)
    @given(file_calls())
    def check(call):
        kind, command, key, side, data = call
        if kind == "group":
            files = {"group": data.draw(mutated(groups[key]))}
            argv = [command, "--g", str(paths["group"]), "--h", "cyclic:2"]
        elif kind == "map":
            files = {"map": data.draw(mutated(BASE_MAP))}
            g, h = ("cyclic:3", "cyclic:2") if side == "alpha" \
                else ("cyclic:2", "cyclic:3")
            argv = ["compat", "--g", g, "--h", h, f"--{side}",
                    str(paths["map"])]
        elif kind == "pair":
            files = {"pair": data.draw(mutated(BASE_PAIR))}
            argv = [command, "--pair", str(paths["pair"])]
        else:
            files = {"pair": (dict(BASE_PAIR, g=str(paths["group"])), None),
                     "group": data.draw(mutated(groups["cyclic:3"]))}
            argv = [command, "--pair", str(paths["pair"])]
        for name, (value, _) in files.items():
            paths[name].write_text(json.dumps(value))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, files)
        assert not re.search(r"^error: [A-Z]\w*: ", err, re.MULTILINE), \
            (err, files)
        if code != 2:
            assert err == "" and not any(
                fault for _, fault in files.values()), (err, files)
            return
        lines = [line for line in err.splitlines() if "error:" in line]
        assert out == "" and len(lines) == 1, (err, files)
        assert all(str(paths[name]) in lines[0] for name in files), \
            (lines[0], files)

    check()
