"""Abelian invariants from element-power counts, and the abelian tensor.

The invariant-factor form d1 | d2 | ... | dk (each >= 2) is the canonical
description of a finite abelian group; the trivial group is the empty list.
A finite abelian group is fixed by the counts N_k = #{x : x^(p^k) = 1} for
each prime p and k >= 1: N_k / N_(k-1) = p^r_k, where N_0 = 1 and r_k is
the number of its cyclic p-parts of order at least p^k.  For G^ab = G/G',
N_k is read off G itself: #{x in G : x^(p^k) in G'} / |G'|.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, prod

import numpy as np

from .errors import CrossCheckFailed
from .groups import derived_subgroup, power_map


def _prime_powers(n):
    """{p: e} for the primes p dividing n, with p^e exactly dividing n."""
    powers = defaultdict(int)
    p = 2
    while p * p <= n:
        while n % p == 0:
            powers[p] += 1
            n //= p
        p += 1
    if n > 1:
        powers[n] += 1
    return powers


def _invariant_factors(exponents):
    """Ascending invariant factors of the abelian group with one cyclic
    part of order p^e for every prime p and every e in exponents[p]."""
    depth = max(map(len, exponents.values()), default=0)
    factors = [1] * depth
    for p, es in exponents.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            factors[depth - 1 - i] *= p ** e
    return factors


def abelian_invariants(G):
    """Invariant factors of G/G'.

    For each prime p dividing |G/G'|, the power map x -> x^p
    (``groups.power_map``) is applied to every element of G at once until
    the count of x with x^(p^k) in G' stops growing; each count is |G'|
    times the count in G/G', and the exact integer log_p of each ratio of
    those is the number of cyclic p-parts of order at least p^k.  G' is the identity alone
    when G is abelian.
    """
    if G.is_abelian:
        inside = np.zeros(G.order, dtype=bool)
        inside[G.identity] = True
    else:
        inside = derived_subgroup(G).mask()
    size = int(np.count_nonzero(inside))
    order = G.order // size
    exponents = {}
    for p in _prime_powers(order):
        ranks = []
        power = power_map(G, p)
        powers = np.arange(G.order)     # x^(p^k) for every x
        count = 1
        while True:
            powers = power[powers]
            grown, rest = divmod(int(np.count_nonzero(inside[powers])), size)
            if rest:
                raise CrossCheckFailed(f"the count of x with x^({p}^"
                                       f"{len(ranks) + 1}) in G' is not a "
                                       f"multiple of |G'| = {size}")
            rank = 0
            while count * p ** (rank + 1) <= grown:
                rank += 1
            if count * p ** rank != grown:
                raise CrossCheckFailed(f"count ratio {grown}/{count} at "
                                       f"{p}^{len(ranks) + 1} in G^ab is not "
                                       f"a power of {p}")
            if not rank:
                break
            ranks.append(rank)
            count = grown
        exponents[p] = [sum(r > i for r in ranks)
                        for i in range(max(ranks, default=0))]
    factors = _invariant_factors(exponents)
    total = prod(factors)
    if total != order:
        raise CrossCheckFailed(f"invariant factors {factors} multiply to "
                               f"{total}, not |G^ab| = {order}")
    return factors


def abelian_tensor(a_factors, b_factors):
    """Invariant factors of the tensor product (over Z) of two finite
    abelian groups given in invariant-factor form.

    Z_m (x) Z_n = Z_gcd(m,n), summed over all pairs of cyclic components.
    """
    exponents = defaultdict(list)
    for m in a_factors:
        for n in b_factors:
            for p, e in _prime_powers(gcd(m, n)).items():
                exponents[p].append(e)
    return _invariant_factors(exponents)
