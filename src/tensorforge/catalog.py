"""Built-in catalog of desk-scale groups.

Keys are exact strings: ``cyclic:3``, ``dihedral:4``, ``quaternion:8``,
``symmetric:3``, ``heisenberg:3``, ``elemab:2:2`` and
``product:<key>,<key>`` for direct products (nested products are allowed
but the two factor keys themselves must not contain a comma at top level).
"""

from __future__ import annotations

from itertools import permutations, repeat

import numpy as np

from .errors import LimitExceeded, UnknownCatalogKey
from .groups import MAX_CATALOG_ORDER, FiniteGroup, direct_product, \
    make_cyclic

_PRIMES = {2, 3, 5}


def make_dihedral(n):
    """Dihedral group of the n-gon, order 2n; element 2i is r^i, 2i+1 is r^i s."""
    if n < 2:
        raise UnknownCatalogKey(f"dihedral:{n}")
    i, u = np.divmod(np.arange(2 * n), 2)
    # r^i s^u * r^j s^v = r^(i + j) s^v if u = 0, else r^(i - j) s^(1 - v),
    # since s r^j = r^-j s
    table = 2 * ((i[:, None] + (1 - 2 * u[:, None]) * i) % n) \
        + (u[:, None] ^ u)
    names = [f"r^{k}{'s' * v}" for k in range(n) for v in (0, 1)]
    return FiniteGroup(table, names=names, validate=False)


def make_quaternion8():
    """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # encode as (sign, unit): index 2u + s with s=0 positive
    units = "1ijk"

    def umul(x, y):
        # quaternion unit multiplication: returns (sign, unit)
        if x == 0:
            return 1, y
        if y == 0:
            return 1, x
        if x == y:
            return -1, 0
        cyc = {(1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
               (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2)}
        s, u = cyc[(x, y)]
        return s, u

    def mul(a, b):
        ua, sa = divmod(a, 2)
        ub, sb = divmod(b, 2)
        s, u = umul(ua, ub)
        neg = (sa + sb) % 2
        if s < 0:
            neg = 1 - neg
        return 2 * u + neg

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(table, names=names, validate=False)


def make_symmetric(n):
    if not 1 <= n <= 4:
        raise UnknownCatalogKey(f"symmetric:{n}")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    k = len(perms)
    table = np.empty((k, k), dtype=np.intp)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            # apply p first, then q
            table[i, j] = index[tuple(q[p[x]] for x in range(n))]
    names = ["".join(str(x) for x in p) for p in perms]
    return FiniteGroup(table, names=names, validate=False)


def make_heisenberg(p):
    """Upper unitriangular 3x3 matrices over Z_p: order p^3, class 2."""
    if p not in _PRIMES:
        raise UnknownCatalogKey(f"heisenberg:{p}")
    k = p ** 3

    def enc(a, b, c):
        return (a * p + b) * p + c

    table = np.empty((k, k), dtype=np.intp)
    names = [None] * k
    for a1 in range(p):
        for b1 in range(p):
            for c1 in range(p):
                i = enc(a1, b1, c1)
                names[i] = f"[{a1},{b1},{c1}]"
                for a2 in range(p):
                    for b2 in range(p):
                        for c2 in range(p):
                            # (a,b,c) ~ [[1,a,c],[0,1,b],[0,0,1]]
                            table[i, enc(a2, b2, c2)] = enc(
                                (a1 + a2) % p, (b1 + b2) % p,
                                (c1 + c2 + a1 * b2) % p)
    return FiniteGroup(table, names=names, validate=False)


def make_elementary_abelian(p, k):
    if k < 1 or p < 2 or any(p % d == 0 for d in range(2, p)):
        raise UnknownCatalogKey(f"elemab:{p}:{k}")
    g = make_cyclic(p)
    for _ in range(k - 1):
        g = direct_product(g, make_cyclic(p))
    return g


def _split_product_args(body):
    """Split 'a,b' at the single top-level comma (no nesting support needed
    beyond product-of-products via recursion on ':'-free commas)."""
    depth_keys = body.split(",")
    if len(depth_keys) != 2:
        raise UnknownCatalogKey(f"product:{body}")
    return depth_keys


def _capped_order(key):
    """The order of the group a key names, worked out from the key alone,
    or MAX_CATALOG_ORDER + 1 for any larger order."""
    kind, _, rest = key.partition(":")
    if kind == "product":
        factors = [_capped_order(k) for k in _split_product_args(rest)]
    elif kind == "cyclic":
        factors = [int(rest)]
    elif kind == "quaternion":
        factors = [8]
    elif kind == "dihedral":
        factors = [2, int(rest)]
    elif kind == "symmetric":
        factors = range(2, int(rest) + 1)
    elif kind == "heisenberg":
        factors = [int(rest)] * 3
    elif kind == "elemab":
        p, k = rest.split(":")
        factors = repeat(int(p), int(k))
    else:
        factors = []                # not a catalog kind
    order = 1
    for f in factors:
        order *= f
        if order > MAX_CATALOG_ORDER:
            return MAX_CATALOG_ORDER + 1
    return order


def make_catalog_group(key):
    """Resolve a catalog key to a FiniteGroup.

    Raises LimitExceeded, before any table is built, when the group has
    more than MAX_CATALOG_ORDER elements.
    """
    try:
        if _capped_order(key) > MAX_CATALOG_ORDER:
            raise LimitExceeded(f"catalog group {key!r} has more than "
                                f"{MAX_CATALOG_ORDER} elements")
        kind, _, rest = key.partition(":")
        if kind == "cyclic":
            n = int(rest)
            if n < 1:
                raise UnknownCatalogKey(key)
            return make_cyclic(n)
        if kind == "dihedral":
            return make_dihedral(int(rest))
        if kind == "quaternion":
            if rest != "8":
                raise UnknownCatalogKey(key)
            return make_quaternion8()
        if kind == "symmetric":
            return make_symmetric(int(rest))
        if kind == "heisenberg":
            return make_heisenberg(int(rest))
        if kind == "elemab":
            p, k = rest.split(":")
            return make_elementary_abelian(int(p), int(k))
        if kind == "product":
            ka, kb = _split_product_args(rest)
            return direct_product(make_catalog_group(ka), make_catalog_group(kb))
    except UnknownCatalogKey:
        raise
    except (ValueError, KeyError):
        raise UnknownCatalogKey(key) from None
    raise UnknownCatalogKey(key)


def catalog_keys():
    """The curated key list shown by ``tensorforge catalog list``."""
    keys = [f"cyclic:{n}" for n in range(1, 17)]
    keys += [f"dihedral:{n}" for n in range(2, 9)]
    keys += ["quaternion:8", "symmetric:3", "symmetric:4",
             "heisenberg:2", "heisenberg:3", "heisenberg:5",
             "elemab:2:2", "elemab:2:3", "elemab:2:4", "elemab:3:2",
             "product:cyclic:2,cyclic:4"]
    return keys


def catalog_groups_up_to(max_order):
    """Deterministic list of (key, group) covering the catalog up to a given
    order, one representative per isomorphism type.

    Used by the exhaustive verification sweeps; dihedral:3 (= symmetric:3)
    and heisenberg:2 (= dihedral:4) are skipped as duplicates.  Keys are
    filtered by their order before any group is built.
    """
    entries = []
    for n in range(1, max_order + 1):
        entries.append(f"cyclic:{n}")
    # dihedral:2 (= elemab:2:2) and dihedral:3 (= symmetric:3) are duplicates
    for n in range(4, max_order // 2 + 1):
        entries.append(f"dihedral:{n}")
    entries += ["symmetric:3", "symmetric:4", "quaternion:8",
                "heisenberg:3", "heisenberg:5",
                "elemab:2:2", "elemab:2:3", "elemab:2:4",
                "elemab:3:2", "elemab:3:3",
                "product:cyclic:2,cyclic:4", "product:cyclic:2,cyclic:6",
                "product:cyclic:2,cyclic:8", "product:cyclic:4,cyclic:4"]
    keys = sorted((_capped_order(k), k) for k in entries)
    return [(k, make_catalog_group(k)) for order, k in keys
            if order <= max_order]
