"""Abelian invariants from element-power counts, and the abelian tensor.

The invariant-factor form d1 | d2 | ... | dk (each >= 2) is the canonical
description of a finite abelian group; the trivial group is the empty list.
A finite abelian group is fixed by the counts N_k = #{x : x^(p^k) = 1} for
each prime p and k >= 1: N_k / N_(k-1) = p^r_k, where N_0 = 1 and r_k is
the number of its cyclic p-parts of order at least p^k.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, prod

import numpy as np

from .errors import CrossCheckFailed
from .groups import derived_subgroup, quotient


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

    For each prime p dividing |G/G'|, x -> x^p is applied to every element
    at once (p - 1 gathers of the table) until the count of x with
    x^(p^k) = 1 stops growing; the exact integer log_p of each ratio of
    counts is the number of cyclic p-parts of order at least p^k.
    """
    if G.is_abelian:
        A = G
    else:
        A, _ = quotient(G, derived_subgroup(G))
    exponents = {}
    for p in _prime_powers(A.order):
        ranks = []
        powers = np.arange(A.order)     # x^(p^k) for every x
        count = 1
        while True:
            base = powers
            for _ in range(p - 1):
                powers = A.table[powers, base]
            grown = int(np.count_nonzero(powers == A.identity))
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
    if total != A.order:
        raise CrossCheckFailed(f"invariant factors {factors} multiply to "
                               f"{total}, not |G^ab| = {A.order}")
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
