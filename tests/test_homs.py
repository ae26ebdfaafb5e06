"""Homomorphism search against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

import tensorforge as tf
from tensorforge.errors import BudgetExceeded, NotAHomomorphism
from tensorforge.groups import GroupHom, make_cyclic
from tensorforge.homs import (all_bijective_endomaps, are_isomorphic,
                              enumerate_homs, generating_set,
                              hom_from_images)


def brute_force_homs(S, T):
    """Every map S -> T checked directly; |T|^|S| candidates."""
    out = []
    for images in itertools.product(range(T.order), repeat=S.order):
        if all(images[S.mul(x, y)] == T.mul(images[x], images[y])
               for x in range(S.order) for y in range(S.order)):
            out.append(list(images))
    return sorted(out)


@pytest.mark.parametrize("skey,tkey", [
    ("cyclic:2", "cyclic:4"),
    ("cyclic:3", "cyclic:3"),
    ("cyclic:4", "cyclic:2"),
    ("cyclic:4", "elemab:2:2"),
    ("elemab:2:2", "cyclic:4"),
    ("cyclic:6", "symmetric:3"),
    ("symmetric:3", "cyclic:6"),
    ("symmetric:3", "symmetric:3"),
])
def test_enumeration_matches_brute_force(skey, tkey):
    S = tf.make_catalog_group(skey)
    T = tf.make_catalog_group(tkey)
    got = sorted(h.map.tolist() for h in enumerate_homs(S, T))
    assert got == brute_force_homs(S, T)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 5), (4, 6), (6, 4), (12, 8)])
def test_cyclic_hom_count_is_gcd(m, n):
    homs = enumerate_homs(make_cyclic(m), make_cyclic(n))
    assert len(homs) == math.gcd(m, n)


def test_hom_count_heisenberg_3():
    # free of exponent 3 and class 2 on two generators: every pair of
    # images extends, so |End| = 27^2
    G = tf.make_catalog_group("heisenberg:3")
    assert len(enumerate_homs(G, G)) == 729


def test_enumeration_is_deterministic_and_sorted():
    S3 = tf.make_catalog_group("symmetric:3")
    homs = enumerate_homs(S3, S3)
    maps = [h.map.tolist() for h in homs]
    assert maps == sorted(maps)
    assert maps == [h.map.tolist() for h in enumerate_homs(S3, S3)]


# -- hom_from_images ------------------------------------------------------

def test_hom_from_images_extends():
    Z6 = make_cyclic(6)
    Z3 = make_cyclic(3)
    h = hom_from_images(Z6, Z3, [1], [1])
    assert h.map.tolist() == [0, 1, 2, 0, 1, 2]


def test_hom_from_images_rejects_non_hom():
    Z4 = make_cyclic(4)
    # generator of order 4 cannot map to an element of order 3
    with pytest.raises(NotAHomomorphism):
        hom_from_images(Z4, make_cyclic(6), [1], [2])
    S3 = tf.make_catalog_group("symmetric:3")
    gens = generating_set(S3)
    with pytest.raises(NotAHomomorphism):
        # send everything generating to a fixed 3-cycle: kills relations
        three_cycle = next(g for g in range(6) if S3.element_order(g) == 3)
        hom_from_images(S3, S3, gens, [three_cycle] * len(gens))


def test_hom_from_images_requires_generators():
    from tensorforge.errors import GensDoNotGenerate
    Z4 = make_cyclic(4)
    with pytest.raises(GensDoNotGenerate):
        hom_from_images(Z4, Z4, [2], [2])


# -- GroupHom structure ---------------------------------------------------

def test_kernel_image_sizes_multiply():
    S3 = tf.make_catalog_group("symmetric:3")
    for h in enumerate_homs(S3, S3):
        assert h.kernel().order * h.image().order == S3.order


def test_hom_composition():
    Z12 = make_cyclic(12)
    Z6 = make_cyclic(6)
    Z3 = make_cyclic(3)
    f = hom_from_images(Z12, Z6, [1], [1])
    g = hom_from_images(Z6, Z3, [1], [1])
    assert f.then(g).map.tolist() == [x % 3 for x in range(12)]


# -- isomorphism ----------------------------------------------------------

def test_isomorphic_positive():
    G = tf.make_catalog_group("product:cyclic:3,cyclic:4")
    H = make_cyclic(12)
    iso = are_isomorphic(G, H)
    assert iso is not None and iso.is_bijective
    for x in range(G.order):
        for y in range(G.order):
            assert iso(G.mul(x, y)) == H.mul(iso(x), iso(y))


def test_isomorphic_negative_same_order():
    assert are_isomorphic(make_cyclic(4),
                          tf.make_catalog_group("elemab:2:2")) is None
    assert are_isomorphic(tf.make_catalog_group("dihedral:4"),
                          tf.make_catalog_group("quaternion:8")) is None
    assert are_isomorphic(tf.make_catalog_group("dihedral:6"),
                          tf.make_catalog_group(
                              "product:symmetric:3,cyclic:2")) is not None


def test_isomorphic_different_orders():
    assert are_isomorphic(make_cyclic(4), make_cyclic(5)) is None


# -- bijective endomaps ---------------------------------------------------

def brute_force_automorphisms(G):
    out = []
    for images in itertools.permutations(range(G.order)):
        if images[G.identity] != G.identity:
            continue
        if all(images[G.mul(x, y)] == G.mul(images[x], images[y])
               for x in range(G.order) for y in range(G.order)):
            out.append(list(images))
    return sorted(out)


@pytest.mark.parametrize("key", ["cyclic:5", "cyclic:6", "elemab:2:2",
                                 "symmetric:3"])
def test_bijective_endomaps_match_brute_force(key):
    G = tf.make_catalog_group(key)
    got = sorted(np.asarray(m).tolist() for m in all_bijective_endomaps(G))
    assert got == brute_force_automorphisms(G)


def test_generating_set_generates():
    for key, G in tf.catalog_groups_up_to(16):
        gens = generating_set(G)
        assert tf.subgroup_generated(G, gens).order == G.order


def test_generating_set_is_cached_and_immutable(monkeypatch):
    G = tf.make_catalog_group("dihedral:4")
    gens = generating_set(G)
    assert isinstance(gens, tuple)
    calls = []
    monkeypatch.setattr(tf.homs, "subgroup_generated",
                        lambda *a: calls.append(a))
    assert generating_set(G) is gens and not calls
    # a new group object with the same table computes its own
    K = tf.FiniteGroup(G.table)
    monkeypatch.undo()
    assert generating_set(K) == gens and generating_set(K) is not gens


def test_budget_exhaustion_raises():
    G = tf.make_catalog_group("elemab:2:4")
    with pytest.raises(BudgetExceeded):
        enumerate_homs(G, G, budget=10)
