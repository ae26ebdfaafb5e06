"""Smith normal form, abelian invariants and the abelian tensor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tensorforge as tf
from tensorforge import abelian
from tensorforge.abelian import (abelian_invariants, abelian_tensor,
                                 invariants_to_primary, primary_to_invariants,
                                 smith_diagonal)
from tensorforge.errors import CrossCheckFailed
from tensorforge.groups import make_cyclic


# -- Smith normal form ----------------------------------------------------

def test_smith_identity_matrix():
    assert smith_diagonal([[1, 0], [0, 1]], 2) == [1, 1]


def test_smith_known_matrix():
    # snf(diag-able [[2,4],[6,8]]) = diag(2, 4): d1*d2 = |det| = 8
    assert smith_diagonal([[2, 4], [6, 8]], 2) == [2, 4]


def test_smith_rectangular():
    d = smith_diagonal([[2, 0, 0], [0, 3, 0]], 3)
    assert d == [1, 6]


def test_smith_zero_matrix():
    assert smith_diagonal([[0, 0], [0, 0]], 2) == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_smith_square_preserves_determinant_and_chain(rows):
    d = smith_diagonal(rows, 3)
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
    monkeypatch.setattr(abelian, "smith_diagonal", lambda rows, k: [2, 2])
    with pytest.raises(CrossCheckFailed, match="multiply to 4"):
        abelian_invariants(make_cyclic(8))


# -- primary decomposition round trip -------------------------------------

def test_primary_round_trip():
    assert invariants_to_primary([2, 4]) == {2: [4, 2]}
    assert primary_to_invariants({2: [4, 2]}) == [2, 4]
    assert primary_to_invariants(invariants_to_primary([6])) == [6]
    assert primary_to_invariants(invariants_to_primary([2, 6, 12])) \
        == [2, 6, 12]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 30), min_size=0, max_size=4))
def test_primary_round_trip_random(ds):
    # massage into a divisibility chain first
    chain = []
    for d in sorted(ds):
        if chain and d % chain[-1]:
            d = d * chain[-1] // math.gcd(d, chain[-1])
        chain.append(d)
    assert primary_to_invariants(invariants_to_primary(chain)) == chain


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


def test_abelian_tensor_order_formula():
    # |Zm x Zn| tensor factor count: product of pairwise gcds
    a, b = [2, 4], [6]
    got = abelian_tensor(a, b)
    assert math.prod(got) == math.gcd(2, 6) * math.gcd(4, 6)
