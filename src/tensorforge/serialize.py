"""JSON (de)serialization for groups, action pairs and reports.

One resolver handles every group-valued input: a string that parses as a
catalog key yields the catalog group, anything else is treated as a path
to a group file.  Files are never trusted; loaded tables go through full
validation.  Every file is read by ``read_json`` and written by
``write_json``, which raise one IoError naming the file for any OS, JSON
or shape fault.
"""

from __future__ import annotations

import json

from .actions import ActionPair
from .automorphisms import automorphism_group
from .catalog import make_catalog_group
from .errors import IoError, LimitExceeded, UnknownCatalogKey
from .groups import MAX_CATALOG_ORDER, FiniteGroup, from_cayley_table


def read_json(path, what, key=None):
    """The JSON value in the file at ``path``, which holds ``what``, or
    that value's entry ``key``, which must be there."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:    # ValueError: JSON or UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise IoError(f"cannot read {what} {path!r}: {reason}") from None
    if key is None:
        return data
    if not isinstance(data, dict) or key not in data:
        raise IoError(f"{what} {path!r} has no {key!r} entry")
    return data[key]


def write_json(path, data, what):
    """Write ``data``, which is ``what``, to the file at ``path``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    except OSError as exc:
        raise IoError(f"cannot write {what} {path!r}: "
                      f"{exc.strerror or exc}") from None


def group_to_dict(G):
    return {"order": G.order,
            "table": G.table.tolist(),
            "names": list(G.names)}


def group_from_dict(data):
    """The group of a group file's dict; the shape, the entry types and an
    order cap are checked before the table is validated as a group."""
    try:
        table = data["table"]
        names = data.get("names")
        order = data["order"]
    except (KeyError, TypeError) as exc:
        raise IoError(f"malformed group file: missing {exc}") from None
    if type(order) is not int:
        raise IoError(f"malformed group file: order {order!r} is not an "
                      "integer")
    if order > MAX_CATALOG_ORDER:
        raise LimitExceeded(f"group file of order {order} exceeds the "
                            f"{MAX_CATALOG_ORDER}-element cap")
    if not isinstance(table, list) or len(table) != order:
        size = len(table) if isinstance(table, list) else type(table).__name__
        raise IoError(f"order field {order} does not match table size "
                      f"{size}")
    if not all(isinstance(row, list) and len(row) == order for row in table):
        raise IoError(f"malformed group file: table is not {order} rows of "
                      f"{order} entries")
    if not all(type(x) is int for row in table for x in row):
        raise IoError("malformed group file: table entries must be integers")
    if names is not None and not (isinstance(names, list)
                                  and len(names) == order):
        raise IoError(f"malformed group file: names must be a list of "
                      f"{order} names")
    return from_cayley_table(table, names=names)


def resolve_group(spec):
    """Catalog key, path to a group JSON file, or a FiniteGroup as-is."""
    if isinstance(spec, FiniteGroup):
        return spec
    try:
        return make_catalog_group(spec)
    except UnknownCatalogKey:
        pass
    return group_from_dict(read_json(spec, "catalog key or group file"))


def action_pair_to_dict(pair, g_key, h_key):
    """Maps index into the lexicographically ordered AutGroup elements."""
    autG = automorphism_group(pair.G)
    autH = automorphism_group(pair.H)
    alpha = [autG.index_of(row) for row in pair.alpha_maps]
    beta = [autH.index_of(row) for row in pair.beta_maps]
    return {"g": g_key, "h": h_key,
            "alpha": {"map": alpha}, "beta": {"map": beta}}


def maps_from_indices(aut, indices, side):
    """The automorphism maps at Aut indices read from a file, each index
    checked to be an integer in range; ``side`` "alpha" indexes Aut(G),
    "beta" Aut(H)."""
    if not isinstance(indices, list) \
            or not all(type(i) is int for i in indices):
        raise IoError(f"{side} map must be a list of integer indices")
    group = "G" if side == "alpha" else "H"
    for i in indices:
        if not 0 <= i < aut.order:
            raise IoError(f"{side} index {i} out of range for Aut({group})")
    return aut.elements[indices]


def action_pair_from_dict(data):
    try:
        G = resolve_group(data["g"])
        H = resolve_group(data["h"])
        alpha_idx = data["alpha"]["map"]
        beta_idx = data["beta"]["map"]
    except (KeyError, TypeError) as exc:
        raise IoError(f"malformed action pair file: missing {exc}") from None
    alpha = maps_from_indices(automorphism_group(G), alpha_idx, "alpha")
    beta = maps_from_indices(automorphism_group(H), beta_idx, "beta")
    if len(alpha) != H.order or len(beta) != G.order:
        raise IoError("alpha map must have |H| entries and beta map |G|")
    return ActionPair(G, H, alpha, beta)


def tensor_report_to_dict(report):
    symbols = {f"{g},{h}": int(v) for (g, h), v in
               sorted(report.symbol_map.items())}
    return {"order": report.order,
            "abelian": bool(report.tensor.is_abelian),
            "invariants": report.invariants,
            "derivative_order": report.derivative.order,
            "kernel_order": report.kernel.order if report.kernel else None,
            "kappa": ([int(v) for v in report.kappa.map]
                      if report.kappa else None),
            "symbols": symbols}


def witness_to_dict(witness):
    if witness is None:
        return None
    return {"equation": witness.equation, "g": witness.g, "g1": witness.g1,
            "h": witness.h, "h1": witness.h1,
            "lhs": witness.lhs, "rhs": witness.rhs}
