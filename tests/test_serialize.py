"""JSON round trips and input validation for the file formats."""

import json

import numpy as np
import pytest

import tensorforge as tf
from tensorforge import serialize as sz
from tensorforge.actions import ActionPair, involution_pair, is_compatible
from tensorforge.errors import IoError, LimitExceeded, NotAGroup
from tensorforge.groups import make_cyclic


def test_group_round_trip():
    G = tf.make_catalog_group("quaternion:8")
    data = sz.group_to_dict(G)
    assert set(data) == {"order", "table", "names"}
    H = sz.group_from_dict(data)
    assert np.array_equal(G.table, H.table)


def test_group_file_is_validated():
    with pytest.raises(NotAGroup):
        sz.group_from_dict({"order": 2, "table": [[0, 0], [1, 1]],
                            "names": ["e", "x"]})


def test_group_dict_order_mismatch():
    with pytest.raises(IoError):
        sz.group_from_dict({"order": 3, "table": [[0, 1], [1, 0]]})


def test_group_dict_missing_field():
    with pytest.raises(IoError):
        sz.group_from_dict({"table": [[0]]})


def test_resolver_precedence(tmp_path):
    assert sz.resolve_group("cyclic:5").order == 5
    path = tmp_path / "group.json"
    path.write_text(json.dumps(sz.group_to_dict(make_cyclic(4))))
    assert sz.resolve_group(str(path)).order == 4
    with pytest.raises(IoError):
        sz.resolve_group("not-a-key-or-file")


def test_resolver_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(IoError):
        sz.resolve_group(str(path))


@pytest.mark.parametrize("data, error, message", [
    ({"order": 2, "table": [[0, 1], [1, 1]]}, NotAGroup,
     "not a group: not-latin-square (witness=('row', 1))"),
    ({"order": 4097, "table": []}, LimitExceeded,
     "group file of order 4097 exceeds the 4096-element cap"),
])
def test_group_file_faults_keep_their_type_and_name_the_file(
        tmp_path, data, error, message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    with pytest.raises(error) as exc:
        sz.resolve_group(str(path))
    assert str(exc.value) \
        == f"catalog key or group file {str(path)!r}: {message}"
    with pytest.raises(error) as exc:
        sz.group_from_dict(data)
    assert str(exc.value) == message


def test_witness_dict_lists_the_fields_in_order():
    report = is_compatible(ActionPair(
        make_cyclic(3), make_cyclic(3),
        np.stack([np.arange(3), make_cyclic(3).inverse, np.arange(3)]),
        np.stack([np.arange(3), make_cyclic(3).inverse, np.arange(3)])))
    assert sz.witness_to_dict(report.witness) == {
        "equation": "first", "g": 1, "g1": 1, "h": 1, "h1": None,
        "lhs": 1, "rhs": 2}
    assert list(sz.witness_to_dict(report.witness)) \
        == ["equation", "g", "g1", "h", "h1", "lhs", "rhs"]
    assert sz.witness_to_dict(None) is None


def test_action_pair_round_trip():
    Z4 = make_cyclic(4)
    pair = involution_pair(Z4, Z4.inverse)
    # Aut(Z4) in lexicographic map order: 0 the identity, 1 inversion
    back = sz.action_pair_from_dict({"g": "cyclic:4", "h": "cyclic:2",
                                     "alpha": {"map": [0, 1]},
                                     "beta": {"map": [0, 0, 0, 0]}})
    assert np.array_equal(back.alpha_maps, pair.alpha_maps)
    assert np.array_equal(back.beta_maps, pair.beta_maps)


def test_action_pair_bad_indices():
    with pytest.raises(IoError):
        sz.action_pair_from_dict({"g": "cyclic:3", "h": "cyclic:3",
                                  "alpha": {"map": [0, 9, 0]},
                                  "beta": {"map": [0, 0, 0]}})
    with pytest.raises(IoError):
        sz.action_pair_from_dict({"g": "cyclic:3", "h": "cyclic:3",
                                  "alpha": {"map": [0, 0]},
                                  "beta": {"map": [0, 0, 0]}})


def test_tensor_report_export():
    pair = ActionPair.trivial(make_cyclic(3), make_cyclic(3))
    rep = tf.compute_tensor(pair)
    data = sz.tensor_report_to_dict(rep)
    assert data["order"] == 3 and data["abelian"] is True
    assert data["invariants"] == [3]
    assert data["kernel_order"] * data["derivative_order"] == 3
    assert len(data["symbols"]) == 9
    assert all("," in key for key in data["symbols"])
    json.dumps(data)    # must be JSON-serializable as-is
