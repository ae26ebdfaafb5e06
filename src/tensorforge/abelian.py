"""Abelian invariants via Smith normal form of a relation matrix.

The invariant-factor form d1 | d2 | ... | dk (each >= 2) is the canonical
description of a finite abelian group; the trivial group is the empty list.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd

import numpy as np

from .errors import CrossCheckFailed
from .groups import derived_subgroup, quotient
from .presentations import spanning_tree


def smith_diagonal(rows, ncols):
    """Diagonal of the Smith normal form of an integer matrix.

    ``rows`` is a list of length-``ncols`` integer sequences.  Returns the
    diagonal entries (non-negative, divisibility chain enforced), padded
    conceptually with zeros -- only the first min(m, n) entries are
    returned.
    """
    m = [list(map(int, r)) for r in rows if any(r)]
    diag = []
    col0 = 0
    nrows = len(m)
    while m and col0 < ncols:
        # pick pivot of minimal absolute value
        best = None
        for i, row in enumerate(m):
            for j in range(col0, ncols):
                v = row[j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        bi, bj, _ = best
        m[0], m[bi] = m[bi], m[0]
        for row in m:
            row[col0], row[bj] = row[bj], row[col0]
        while True:
            p = m[0][col0]
            done = True
            for row in m[1:]:
                if row[col0]:
                    q = row[col0] // p
                    for j in range(col0, ncols):
                        row[j] -= q * m[0][j]
                    if row[col0]:
                        m[0], row[:] = row[:], m[0]
                        done = False
                        break
            if not done:
                continue
            for j in range(col0 + 1, ncols):
                if m[0][j]:
                    q = m[0][j] // p
                    for row in m:
                        row[j] -= q * row[col0]
                    if m[0][j]:
                        for row in m:
                            row[col0], row[j] = row[j], row[col0]
                        done = False
                        break
            if done:
                break
        diag.append(abs(m[0][col0]))
        m = [row for row in m[1:] if any(row[col0 + 1:])]
        col0 += 1
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a and b and b % a != 0:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
            elif a == 0 and b:
                diag[i], diag[i + 1] = b, 0
                changed = True
    return diag


def abelian_invariants(G):
    """Invariant factors of G/G'.

    A generating set of the abelianization is chosen greedily; the Schreier
    relations of its Cayley graph generate the full relation lattice, whose
    Smith normal form gives the factors.
    """
    if G.is_abelian:
        A = G
    else:
        A, _ = quotient(G, derived_subgroup(G))
    if A.order == 1:
        return []
    from .homs import generating_set
    gens = generating_set(A)
    k = len(gens)
    rows = A.table[:, gens]
    eye = np.eye(k, dtype=np.int64)
    # exponent vector word[x] with prod gens^word[x] = x, along the tree
    word = np.zeros((A.order, k), dtype=np.int64)
    for cosets, parents, cols in spanning_tree(rows, A.identity):
        word[cosets] = word[parents] + eye[cols]
    # the Schreier relation of each edge x -> x s_i, distinct and sorted;
    # smith_diagonal drops the zero rows of the tree edges
    rels = (word[:, None, :] + eye - word[rows]).reshape(-1, k)
    diag = smith_diagonal(sorted(set(map(tuple, rels.tolist()))), k)
    factors = [d for d in diag if d > 1]
    total = int(np.prod(factors)) if factors else 1
    if total != A.order:
        raise CrossCheckFailed(f"invariant factors {factors} multiply to "
                               f"{total}, not |G^ab| = {A.order}")
    return factors


def invariants_to_primary(factors):
    """Split invariant factors into prime-power components grouped by prime."""
    primary = defaultdict(list)
    for d in factors:
        n = d
        p = 2
        while p * p <= n:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                primary[p].append(p ** e)
            p += 1
        if n > 1:
            primary[n].append(n)
    for p in primary:
        primary[p].sort(reverse=True)
    return dict(primary)


def primary_to_invariants(primary):
    """Recombine prime-power components into invariant-factor form."""
    if not primary:
        return []
    depth = max(len(v) for v in primary.values())
    factors = []
    for i in range(depth):
        d = 1
        for p, comps in primary.items():
            if i < len(comps):
                d *= comps[i]
        factors.append(d)
    # factors[0] is the largest invariant; the chain is returned ascending
    return list(reversed(factors))


def abelian_tensor(a_factors, b_factors):
    """Invariant factors of the tensor product (over Z) of two finite
    abelian groups given in invariant-factor form.

    Z_m (x) Z_n = Z_gcd(m,n), summed over all pairs of cyclic components.
    """
    primary = defaultdict(list)
    for m in a_factors:
        for n in b_factors:
            g = gcd(m, n)
            if g > 1:
                for p, comps in invariants_to_primary([g]).items():
                    primary[p].extend(comps)
    for p in primary:
        primary[p].sort(reverse=True)
    return primary_to_invariants(dict(primary))
