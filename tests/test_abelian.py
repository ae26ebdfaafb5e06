"""Abelian invariants and the abelian tensor, against the Smith normal
form reference."""

import math
import tracemalloc
from collections import defaultdict
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tensorforge as tf
from tensorforge import abelian
from tensorforge.abelian import abelian_invariants, abelian_tensor
from tensorforge.errors import CrossCheckFailed
from tensorforge.groups import (Subgroup, derived_subgroup, generating_set,
                                make_cyclic)
from tensorforge.presentations import spanning_tree

from test_groups import reference_quotient


# -- reference: Smith normal form of the Schreier relations ---------------
# The library's earlier implementation, kept as an independent oracle: the
# invariant factors of G^ab from the Smith normal form of the relation
# lattice, and the abelian tensor by prime-power decomposition.

def reference_smith_diagonal(rows, ncols):
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


def reference_abelian_invariants(G):
    """Invariant factors of G/G'.

    A generating set of the abelianization is chosen greedily; the Schreier
    relations of its Cayley graph generate the full relation lattice, whose
    Smith normal form gives the factors.
    """
    if G.is_abelian:
        A = G
    else:
        A, _ = reference_quotient(G, derived_subgroup(G))
    if A.order == 1:
        return []
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
    diag = reference_smith_diagonal(sorted(set(map(tuple, rels.tolist()))),
                                    k)
    factors = [d for d in diag if d > 1]
    total = int(np.prod(factors)) if factors else 1
    if total != A.order:
        raise CrossCheckFailed(f"invariant factors {factors} multiply to "
                               f"{total}, not |G^ab| = {A.order}")
    return factors


def reference_invariants_to_primary(factors):
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


def reference_primary_to_invariants(primary):
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


def reference_abelian_tensor(a_factors, b_factors):
    """Invariant factors of the tensor product (over Z) of two finite
    abelian groups given in invariant-factor form.

    Z_m (x) Z_n = Z_gcd(m,n), summed over all pairs of cyclic components.
    """
    primary = defaultdict(list)
    for m in a_factors:
        for n in b_factors:
            g = gcd(m, n)
            if g > 1:
                for p, comps in reference_invariants_to_primary([g]).items():
                    primary[p].extend(comps)
    for p in primary:
        primary[p].sort(reverse=True)
    return reference_primary_to_invariants(dict(primary))


# -- Smith normal form ----------------------------------------------------

def test_smith_identity_matrix():
    assert reference_smith_diagonal([[1, 0], [0, 1]], 2) == [1, 1]


def test_smith_known_matrix():
    # snf(diag-able [[2,4],[6,8]]) = diag(2, 4): d1*d2 = |det| = 8
    assert reference_smith_diagonal([[2, 4], [6, 8]], 2) == [2, 4]


def test_smith_rectangular():
    d = reference_smith_diagonal([[2, 0, 0], [0, 3, 0]], 3)
    assert d == [1, 6]


def test_smith_zero_matrix():
    assert reference_smith_diagonal([[0, 0], [0, 0]], 2) == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_smith_square_preserves_determinant_and_chain(rows):
    d = reference_smith_diagonal(rows, 3)
    det = round(abs(np.linalg.det(np.array(rows, dtype=float))))
    if det:
        assert len(d) == 3
        assert d[0] * d[1] * d[2] == det
    for a, b in zip(d, d[1:]):
        assert b % a == 0


# -- abelian invariants ---------------------------------------------------

@pytest.mark.parametrize("key,invariants", [
    ("cyclic:1", []),
    ("cyclic:6", [6]),
    ("cyclic:12", [12]),
    ("elemab:2:3", [2, 2, 2]),
    ("product:cyclic:2,cyclic:4", [2, 4]),
    ("symmetric:3", [2]),          # abelianization
    ("symmetric:4", [2]),
    ("quaternion:8", [2, 2]),
    ("dihedral:4", [2, 2]),
    ("dihedral:5", [2]),
    ("heisenberg:3", [3, 3]),
])
def test_invariants_of_catalog_groups(key, invariants):
    assert abelian_invariants(tf.make_catalog_group(key)) == invariants


@given(n=st.integers(2, 40))
def test_cyclic_invariants(n):
    assert abelian_invariants(make_cyclic(n)) == [n]


def test_invariants_product_matches_abelianization_order():
    for key, G in tf.catalog_groups_up_to(12):
        inv = abelian_invariants(G)
        d = tf.derived_subgroup(G)
        assert math.prod(inv) == G.order // d.order


def test_invariant_factor_chain():
    for key, G in tf.catalog_groups_up_to(16):
        inv = abelian_invariants(G)
        assert all(b % a == 0 for a, b in zip(inv, inv[1:]))
        assert all(a >= 2 for a in inv)


def test_invariants_product_check_raises_typed_error(monkeypatch):
    # the factors must multiply to |G^ab|; the check survives python -O
    monkeypatch.setattr(abelian, "_invariant_factors",
                        lambda exponents: [2, 2])
    with pytest.raises(CrossCheckFailed, match="multiply to 4"):
        abelian_invariants(make_cyclic(8))


def test_count_ratio_not_a_power_of_p_raises_typed_error():
    # the Klein table with 3 * 3 = 1: three x with x^2 = 1 in an
    # "abelian group" of order 4 is no power of 2
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 1]]
    broken = tf.FiniteGroup(table, validate=False)
    with pytest.raises(CrossCheckFailed, match="3/1 .* not a power of 2"):
        abelian_invariants(broken)


def test_count_not_a_multiple_of_the_derived_order_raises_typed_error(
        monkeypatch):
    # with two of the three elements of A3 = S3' in its place, three x in
    # S3 have x^3 in it: no multiple of 2
    S3 = tf.make_catalog_group("symmetric:3")
    c = next(x for x in range(6) if S3.element_order(x) == 3)
    monkeypatch.setattr(abelian, "derived_subgroup",
                        lambda G: Subgroup(G, [G.identity, c]))
    with pytest.raises(CrossCheckFailed,
                       match=r"x\^\(3\^1\) .* not a multiple of \|G'\| = 2"):
        abelian_invariants(S3)


def test_invariants_of_a_large_group_build_no_quotient_table():
    # |G| = 4096 and |G'| = 2: the counts are read off G's own table, so
    # nothing near the 2048 x 2048 table of G/G' is allocated.  The group
    # caches is_abelian, which is read before the trace.
    G = tf.make_catalog_group("product:quaternion:8,elemab:2:9")
    assert not G.is_abelian
    tracemalloc.start()
    try:
        assert abelian_invariants(G) == [2] * 11
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_invariants_match_reference_on_catalog():
    for key, G in tf.catalog_groups_up_to(64):
        assert abelian_invariants(G) == reference_abelian_invariants(G), key


def test_invariants_match_reference_on_tensors():
    # tensors of the conjugation squares, groups of order up to 64
    for key in ("symmetric:3", "dihedral:4", "quaternion:8",
                "heisenberg:2", "product:cyclic:2,cyclic:4"):
        G = tf.make_catalog_group(key)
        conj = tf.actions.conjugation_maps(G)
        T = tf.compute_tensor(tf.ActionPair(G, G, conj, conj)).tensor
        assert abelian_invariants(T) == reference_abelian_invariants(T), key


# -- primary decomposition round trip -------------------------------------

def test_primary_round_trip():
    to_primary = reference_invariants_to_primary
    to_invariants = reference_primary_to_invariants
    assert to_primary([2, 4]) == {2: [4, 2]}
    assert to_invariants({2: [4, 2]}) == [2, 4]
    assert to_invariants(to_primary([6])) == [6]
    assert to_invariants(to_primary([2, 6, 12])) == [2, 6, 12]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 30), min_size=0, max_size=4))
def test_primary_round_trip_random(ds):
    # massage into a divisibility chain first
    chain = []
    for d in sorted(ds):
        if chain and d % chain[-1]:
            d = d * chain[-1] // math.gcd(d, chain[-1])
        chain.append(d)
    assert reference_primary_to_invariants(
        reference_invariants_to_primary(chain)) == chain


# -- abelian tensor product -----------------------------------------------

@pytest.mark.parametrize("a,b,want", [
    ([3], [3], [3]),
    ([4], [6], [2]),
    ([2, 4], [2], [2, 2]),
    ([], [5], []),
    ([2, 2], [3], []),
    ([6], [4], [2]),
    ([2, 4], [2, 4], [2, 2, 2, 4]),
])
def test_abelian_tensor_examples(a, b, want):
    assert abelian_tensor(a, b) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4, 6, 12]), max_size=3),
       st.lists(st.sampled_from([2, 3, 4, 6, 12]), max_size=3))
def test_abelian_tensor_is_symmetric(a, b):
    a, b = sorted(a), sorted(b)
    # inputs need not be chains; the pairwise-gcd construction is symmetric
    assert abelian_tensor(a, b) == abelian_tensor(b, a)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 72), max_size=4),
       st.lists(st.integers(1, 72), max_size=4))
def test_abelian_tensor_matches_reference(a, b):
    assert abelian_tensor(a, b) == reference_abelian_tensor(a, b)


def test_abelian_tensor_order_formula():
    # |Zm x Zn| tensor factor count: product of pairwise gcds
    a, b = [2, 4], [6]
    got = abelian_tensor(a, b)
    assert math.prod(got) == math.gcd(2, 6) * math.gcd(4, 6)
