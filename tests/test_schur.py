"""Schur multipliers as an independent oracle for the tensor presentation.

The exterior square G ^ G is the conjugation square G (x) G with every
g (x) g killed.  The commutator map g ^ h -> [g, h] sends it onto G',
and its kernel is the Schur multiplier M(G) (Miller 1952; Brown and
Loday, Topology 26, 1987).  So |G ^ G| = |M(G)| |G'|, and M(G) can be
checked against values known without any presentation: for an abelian
G = Z_d1 + ... + Z_dk it is the sum of Z_gcd(di, dj) over i < j, and
for the non-abelian groups of the catalog up to order 16 it is given by
Karpilovsky (The Schur Multiplier, 1987): M(S3) = M(Q8) = 1, and
M(dihedral:n) is Z2 for even n and 1 for odd n.

The relators are those of ``tensor_presentation``, enumerated by
``coset_enumerate``, so a wrong relator family shows as a map that is
not a homomorphism or as a multiplier of the wrong shape.
"""

import math

import numpy as np
import pytest

import tensorforge as tf
from tensorforge.abelian import abelian_invariants
from tensorforge.actions import named_action
from tensorforge.catalog import catalog_keys_up_to
from tensorforge.groups import derived_subgroup, direct_product, make_cyclic
from tensorforge.homs import hom_from_images
from tensorforge.presentations import (Presentation, coset_enumerate,
                                       table_to_group)
from tensorforge.tensor import tensor_presentation

# the Schur multipliers of the non-abelian catalog groups up to order 16
NON_ABELIAN = {"symmetric:3": [], "quaternion:8": [],
               **{f"dihedral:{n}": [2] if n % 2 == 0 else []
                  for n in range(4, 9)}}


def exterior_square(G):
    """(G ^ G, wedge): the exterior square by coset enumeration, and
    wedge[g, h] the element g ^ h."""
    maps = named_action("conjugation", G, G)
    presentation, symbols = tensor_presentation(tf.ActionPair(G, G, maps,
                                                              maps))
    diagonal = [(symbols[(g, g)],) for g in range(G.order)]
    square, images = table_to_group(coset_enumerate(Presentation(
        presentation.ngens, list(presentation.relators) + diagonal)))
    wedge = np.empty((G.order, G.order), dtype=np.intp)
    for (g, h), letter in symbols.items():
        wedge[g, h] = images[letter - 1]
    return square, wedge


def subgroup_as_group(K):
    """The subgroup K of its parent as a group of its own, its members
    relabelled 0, 1, ... in increasing order."""
    members = np.asarray(K.members, dtype=np.intp)
    label = np.full(K.parent.order, -1, dtype=np.intp)
    label[members] = np.arange(len(members))
    return tf.FiniteGroup(label[K.parent.table[np.ix_(members, members)]])


def expected_multiplier(key, G):
    if not G.is_abelian:
        return NON_ABELIAN[key]
    d = abelian_invariants(G)
    parts = [math.gcd(a, b) for i, a in enumerate(d) for b in d[i + 1:]]
    total = make_cyclic(1)
    for n in parts:
        total = direct_product(total, make_cyclic(n))
    return abelian_invariants(total)


def schur_multiplier(G):
    """(M(G) as invariant factors, |G ^ G|, |image of the commutator
    map|), with the image checked to be G'."""
    square, wedge = exterior_square(G)
    t, inv = G.table, G.inverse
    commutators = t[t[inv[:, None], inv[None, :]], t]       # [g, h]
    kappa = hom_from_images(square, G, wedge.ravel(), commutators.ravel())
    image = np.flatnonzero(np.bincount(kappa.map, minlength=G.order))
    assert tuple(image.tolist()) == derived_subgroup(G).members
    multiplier = subgroup_as_group(kappa.kernel())
    return abelian_invariants(multiplier), square.order, len(image)


@pytest.mark.parametrize("key", catalog_keys_up_to(16))
def test_exterior_square_gives_the_schur_multiplier(key):
    G = tf.make_catalog_group(key)
    invariants, order, derived = schur_multiplier(G)
    assert invariants == expected_multiplier(key, G)
    assert order == math.prod(invariants) * derived


def test_multipliers_of_abelian_groups():
    # spot values of the gcd formula: Z2^4 has Z2^6, Z4 + Z4 has Z4
    assert expected_multiplier("elemab:2:4",
                               tf.make_catalog_group("elemab:2:4")) == [2] * 6
    assert expected_multiplier(
        "product:cyclic:4,cyclic:4",
        tf.make_catalog_group("product:cyclic:4,cyclic:4")) == [4]
    assert expected_multiplier("cyclic:16",
                               tf.make_catalog_group("cyclic:16")) == []
