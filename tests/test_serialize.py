"""JSON round trips and input validation for the file formats."""

import json

import numpy as np
import pytest

import tensorforge as tf
from tensorforge import serialize as sz
from tensorforge.actions import ActionPair, involution_pair
from tensorforge.errors import IoError, NotAGroup
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
