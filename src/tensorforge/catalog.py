"""Built-in catalog of desk-scale groups.

Keys are exact strings: ``cyclic:3``, ``dihedral:4``, ``quaternion:8``,
``symmetric:3``, ``heisenberg:3``, ``elemab:2:2`` and
``product:<key>,<key>`` for the direct product of two keys; a product key
holds exactly one comma, so a factor cannot itself be a product.
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations, product, repeat

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
    """Q8 = {1, -1, i, -i, j, -j, k, -k}; element 2u + s is (-1)^s times
    unit u of 1, i, j, k."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    u, s = np.divmod(np.arange(8), 2)
    # up to sign, the product of units u and v is unit u xor v (i j = k,
    # j k = i, k i = j, x x = 1); sign[u, v] is 1 where it is negated
    sign = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    table = 2 * (u[:, None] ^ u) + (s[:, None] ^ s ^ sign[u[:, None], u])
    return FiniteGroup(table, names=names, validate=False)


def make_symmetric(n):
    """Permutations of range(n) in lexicographic order; x * y applies x
    first, then y."""
    if not 1 <= n <= 4:
        raise UnknownCatalogKey(f"symmetric:{n}")
    perms = list(permutations(range(n)))
    names = ["".join(map(str, q)) for q in perms]
    perms = np.array(perms)
    # perms[:, perms][j, i] applies perms[i], then perms[j]; it is ranked
    # by its base-n code, as the codes of the sorted perms ascend
    weights = n ** np.arange(n - 1, -1, -1)
    table = np.searchsorted(perms @ weights, perms[:, perms] @ weights).T
    return FiniteGroup(table, names=names, validate=False)


def make_heisenberg(p):
    """Upper unitriangular 3x3 matrices over Z_p: order p^3, class 2;
    element (a p + b) p + c is [[1, a, c], [0, 1, b], [0, 0, 1]]."""
    if p not in _PRIMES:
        raise UnknownCatalogKey(f"heisenberg:{p}")
    shape = (p, p, p)
    a, b, c = (x[:, None] for x in np.unravel_index(np.arange(p ** 3), shape))
    table = np.ravel_multi_index(((a + a.T) % p, (b + b.T) % p,
                                  (c + c.T + a * b.T) % p), shape)
    names = [f"[{x},{y},{z}]" for x, y, z in product(range(p), repeat=3)]
    return FiniteGroup(table, names=names, validate=False)


def make_elementary_abelian(p, k):
    if k < 1 or p < 2 or any(p % d == 0 for d in range(2, p)):
        raise UnknownCatalogKey(f"elemab:{p}:{k}")
    return reduce(direct_product, (make_cyclic(p) for _ in range(k)))


def _parse(key):
    """Read a catalog key: (factors, build).  The product of ``factors``
    is the order of the group the key names, worked out from the key
    alone; ``build()`` builds the group, or is None when the key names
    none.  A key with a missing, extra or non-canonical number (``03``,
    ``+3``) raises UnknownCatalogKey naming that key, a product's factor
    key included, as does a product key without exactly one comma.

    ``build`` looks each constructor up when it is called, and a product
    builds its factors through make_catalog_group, so each factor's key
    is checked against the cap and named in its own errors.
    """
    kind, _, rest = key.partition(":")
    if kind == "product":
        if rest.count(",") != 1:
            raise UnknownCatalogKey(key)
        ka, kb = rest.split(",")
        return [_capped_order(_parse(k)[0]) for k in (ka, kb)], \
            lambda: direct_product(make_catalog_group(ka),
                                   make_catalog_group(kb))
    if kind == "quaternion":
        return [8], (lambda: make_quaternion8()) if rest == "8" else None
    if kind not in ("elemab", "cyclic", "dihedral", "symmetric",
                    "heisenberg"):
        return [], None
    try:
        numbers = [int(t) for t in rest.split(":")]
    except ValueError:              # not a number, or too long for int()
        numbers = ()
    if ":".join(map(str, numbers)) != rest \
            or len(numbers) != 1 + (kind == "elemab"):
        raise UnknownCatalogKey(key)
    if kind == "elemab":
        p, k = numbers
        # k factors 0 or ±1 never pass the cap, and build no group
        return repeat(p, k) if abs(p) > 1 else [], \
            lambda: make_elementary_abelian(p, k)
    n, = numbers
    if kind == "cyclic":
        return [n], (lambda: make_cyclic(n)) if n >= 1 else None
    if kind == "dihedral":
        return [2, n], lambda: make_dihedral(n)
    if kind == "symmetric":
        return range(2, n + 1), lambda: make_symmetric(n)
    return [n] * 3, lambda: make_heisenberg(n)


def _capped_order(factors):
    """The product of ``factors``, or MAX_CATALOG_ORDER + 1 once a partial
    product exceeds MAX_CATALOG_ORDER."""
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
    factors, build = _parse(key)
    if _capped_order(factors) > MAX_CATALOG_ORDER:
        raise LimitExceeded(f"catalog group {key!r} has more than "
                            f"{MAX_CATALOG_ORDER} elements")
    if build is None:
        raise UnknownCatalogKey(key)
    return build()


def catalog_keys():
    """The curated key list shown by ``tensorforge catalog list``."""
    keys = [f"cyclic:{n}" for n in range(1, 17)]
    keys += [f"dihedral:{n}" for n in range(2, 9)]
    keys += ["quaternion:8", "symmetric:3", "symmetric:4",
             "heisenberg:2", "heisenberg:3", "heisenberg:5",
             "elemab:2:2", "elemab:2:3", "elemab:2:4", "elemab:3:2",
             "product:cyclic:2,cyclic:4"]
    return keys


def catalog_keys_up_to(max_order):
    """The keys of the catalog groups of order at most max_order, one per
    isomorphism type, sorted by order, then key; no group is built.

    dihedral:2 (= elemab:2:2), dihedral:3 (= symmetric:3) and heisenberg:2
    (= dihedral:4) are skipped as duplicates.  No catalog group has more
    than MAX_CATALOG_ORDER elements, so the cyclic and dihedral keys stop
    there, whatever max_order.
    """
    top = min(max_order, MAX_CATALOG_ORDER)
    entries = [f"cyclic:{n}" for n in range(1, top + 1)]
    entries += [f"dihedral:{n}" for n in range(4, top // 2 + 1)]
    entries += ["symmetric:3", "symmetric:4", "quaternion:8",
                "heisenberg:3", "heisenberg:5",
                "elemab:2:2", "elemab:2:3", "elemab:2:4",
                "elemab:3:2", "elemab:3:3",
                "product:cyclic:2,cyclic:4", "product:cyclic:2,cyclic:6",
                "product:cyclic:2,cyclic:8", "product:cyclic:4,cyclic:4"]
    keys = sorted((_capped_order(_parse(k)[0]), k) for k in entries)
    return [k for order, k in keys if order <= max_order]


def catalog_groups_up_to(max_order):
    """Deterministic list of (key, group) for catalog_keys_up_to(max_order),
    used by the exhaustive verification sweeps."""
    return [(k, make_catalog_group(k)) for k in catalog_keys_up_to(max_order)]
