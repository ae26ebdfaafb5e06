"""JSON (de)serialization for groups, action pairs and reports.

One resolver handles every group-valued input: a string that parses as a
catalog key yields the catalog group, anything else is treated as a path
to a group file.  Files are never trusted; loaded tables go through full
validation.  Every file is read by ``read_json`` and written by
``write_json``, whose errors name the file: one IoError for any OS, JSON
or shape fault, the NotAGroup or LimitExceeded of a table that is no
group or too large, and the InvalidAction of maps that are no action.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .actions import ActionPair, _validate_action
from .automorphisms import automorphism_group
from .catalog import make_catalog_group
from .errors import IoError, LimitExceeded, TensorforgeError, UnknownCatalogKey
from .groups import MAX_CATALOG_ORDER, from_cayley_table


def read_json(path, what, parse):
    """``parse`` of the JSON value in the file at ``path``, which holds
    ``what``.  A library error that ``parse`` raises for a fault in the
    value is re-raised naming the file: a fault in a group file read
    through a pair file names both."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:    # ValueError: JSON or UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise IoError(f"cannot read {what} {path!r}: {reason}") from None
    try:
        return parse(data)
    except TensorforgeError as exc:
        exc.args = (f"{what} {path!r}: {exc}",)
        raise


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
    if not isinstance(data, dict) or not {"order", "table"} <= data.keys():
        raise IoError("missing 'order' or 'table': expected an object with "
                      "both entries")
    table, names, order = data["table"], data.get("names"), data["order"]
    if type(order) is not int:
        raise IoError(f"order {order!r} is not an integer")
    if order > MAX_CATALOG_ORDER:
        raise LimitExceeded(f"group file of order {order} exceeds the "
                            f"{MAX_CATALOG_ORDER}-element cap")
    if not isinstance(table, list) or len(table) != order:
        size = len(table) if isinstance(table, list) else type(table).__name__
        raise IoError(f"order field {order} does not match table size "
                      f"{size}")
    if not all(isinstance(row, list) and len(row) == order for row in table):
        raise IoError(f"table is not {order} rows of {order} entries")
    if not all(type(x) is int and 0 <= x < order for r in table for x in r):
        raise IoError(f"table entries must be integers from 0 to {order - 1}")
    if names is not None and not (isinstance(names, list)
                                  and len(names) == order):
        raise IoError(f"names must be a list of {order} names")
    return from_cayley_table(table, names=names)


def resolve_group(spec):
    """The group of a catalog key, or of the group file at path ``spec``."""
    try:
        return make_catalog_group(spec)
    except UnknownCatalogKey:
        pass
    return read_json(spec, "catalog key or group file", group_from_dict)


def map_file_maps(data, aut, side, actor):
    """The automorphism maps of a map file: its ``map`` entry, one index
    in ``aut`` per element of ``actor``, checked by ``maps_from_indices``
    and as an action of ``actor`` (the identity must act trivially)."""
    if not isinstance(data, dict) or "map" not in data:
        raise IoError("no 'map' entry")
    maps = maps_from_indices(aut, data["map"], side)
    if len(maps) != actor.order:
        raise IoError(f"{side} map must have {actor.order} entries")
    return _validate_action(aut.base, actor, maps, side)


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
    """The pair of an action pair file's dict: the groups "g" and "h" as
    catalog keys or group files, and the Aut indices "alpha": {"map":
    [one per element of H]} and "beta": {"map": [one per element of G]}."""
    try:
        specs = data["g"], data["h"]
        alpha_idx, beta_idx = data["alpha"]["map"], data["beta"]["map"]
    except (KeyError, TypeError):
        specs = None
    if specs is None or not all(isinstance(spec, str) for spec in specs):
        raise IoError("expected an object with group names 'g' and 'h' and "
                      "'alpha' and 'beta' objects holding a 'map' list")
    G, H = (resolve_group(spec) for spec in specs)
    alpha = maps_from_indices(automorphism_group(G), alpha_idx, "alpha")
    beta = maps_from_indices(automorphism_group(H), beta_idx, "beta")
    if len(alpha) != H.order or len(beta) != G.order:
        raise IoError(f"alpha map has {len(alpha)} entries and beta map "
                      f"{len(beta)}; expected |H| = {H.order} and |G| = "
                      f"{G.order}")
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
    return None if witness is None else asdict(witness)
