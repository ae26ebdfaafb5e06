"""Non-abelian tensor products: presentations, reports, cross-checks."""

import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

import tensorforge as tf
from tensorforge.abelian import abelian_invariants, abelian_tensor
from tensorforge.actions import ActionPair, conjugation_maps, involution_pair
from tensorforge import tensor
from tensorforge.errors import (CrossCheckFailed, IncompatibleActions,
                                LimitExceeded, NotAHomomorphism)
from tensorforge.catalog import catalog_groups_up_to
from tensorforge.groups import (FiniteGroup, center, coset_labels,
                                make_cyclic)
from tensorforge.presentations import (Presentation, coset_enumerate,
                                       spanning_tree, table_to_group)
from tensorforge.tensor import (compute_tensor, derivative_subgroup,
                                tensor_presentation)
from test_abelian import (reference_abelian_invariants,
                          reference_abelian_tensor,
                          reference_invariants_to_primary,
                          reference_primary_to_invariants,
                          reference_smith_diagonal)
from test_groups import reference_conj
from test_presentations import expanded_rows


def tensor_square(G):
    """G (x) G with both actions by conjugation (always compatible)."""
    conj = conjugation_maps(G)
    return compute_tensor(ActionPair(G, G, conj, conj))


def z3_case(alpha_inversion, beta_inversion):
    Z3 = make_cyclic(3)
    idm = np.arange(3)
    alpha = np.stack([idm, Z3.inverse if alpha_inversion else idm, idm])
    beta = np.stack([idm, Z3.inverse if beta_inversion else idm, idm])
    return ActionPair(Z3, Z3, alpha, beta)


# -- presentation shape ---------------------------------------------------

def test_presentation_shape_trivial_actions():
    pair = ActionPair.trivial(make_cyclic(3), make_cyclic(3))
    pres, symbols = tensor_presentation(pair)
    assert pres.ngens == 9
    assert len(symbols) == 9
    assert symbols[(0, 0)] == 1 and symbols[(2, 2)] == 9
    # both families over all triples, freely reduced and deduplicated
    assert 0 < len(pres.relators) <= 2 * 27


def test_presentation_single_symbol_collapses():
    pair = ActionPair.trivial(make_cyclic(1), make_cyclic(1))
    pres, _ = tensor_presentation(pair)
    assert pres.ngens == 1
    rep = compute_tensor(pair)
    assert rep.order == 1


def test_presentation_refuses_incompatible_without_force():
    pair = z3_case(True, True)
    with pytest.raises(IncompatibleActions):
        tensor_presentation(pair)
    pres, _ = tensor_presentation(pair, force=True)
    assert pres.ngens == 9


def test_forced_presentation_skips_the_compatibility_check(monkeypatch):
    # nothing reads the verdict of a forced presentation
    def refuse(pair):
        raise AssertionError("is_compatible called on a forced pair")

    monkeypatch.setattr(tensor, "is_compatible", refuse)
    pres, _ = tensor_presentation(z3_case(True, True), force=True)
    assert pres.ngens == 9


def test_symbol_cap():
    G = tf.make_catalog_group("heisenberg:3")
    with pytest.raises(LimitExceeded):
        tensor_square(G)        # 729 symbols exceed the cap


def test_symbol_cap_is_checked_before_compatibility(monkeypatch):
    # the compatibility check is cubic in the order; an oversize pair is
    # refused without it
    def refuse(pair):
        raise AssertionError("is_compatible called on an oversize pair")

    monkeypatch.setattr(tensor, "is_compatible", refuse)
    pair = ActionPair.trivial(make_cyclic(17), make_cyclic(16))
    with pytest.raises(LimitExceeded, match="272 symbols"):
        tensor_presentation(pair)


# -- small exact values ---------------------------------------------------

def test_z2_tensor_z2_trivial():
    rep = compute_tensor(ActionPair.trivial(make_cyclic(2), make_cyclic(2)))
    assert rep.order == 2 and rep.invariants == [2]


def test_z3_case1_trivial_actions():
    rep = compute_tensor(z3_case(False, False))
    assert rep.order == 3
    assert rep.invariants == abelian_tensor([3], [3])


def test_z3_case2_collapses_under_full_relator_set():
    # the per-element inversion assignment is not an action of Z3; four
    # relators, none at a product equal to the identity, kill a(x)b:
    # 8 = 5.5 and 5 = 8.8 give 5^3 = 1, 6 = 5.8 gives 6 = 1, 5 = 6.6
    # gives 5 = 1 (generator 5 is a(x)b, 6 is a(x)b^2, 8 is a^2(x)b)
    pair = z3_case(True, False)
    assert not pair.assignments_are_homs()
    pres, symbols = tensor_presentation(pair)
    assert (symbols[(1, 1)], symbols[(1, 2)], symbols[(2, 1)]) == (5, 6, 8)
    four = [(-8, 5, 5), (-5, 8, 8), (-6, 5, 8), (-5, 6, 6)]
    assert set(four) <= set(pres.relators)
    # the same four words on a(x)b, a(x)b^2, a^2(x)b renumbered 1, 2, 3
    sub = Presentation(3, ((-3, 1, 1), (-1, 3, 3), (-2, 1, 3), (-1, 2, 2)))
    assert coset_enumerate(sub).ncosets == 1
    rep = compute_tensor(pair)
    assert rep.order == 1
    assert rep.kappa is None and rep.kernel is None
    assert rep.derivative.order == 3
    assert derivative_subgroup(pair.swapped()).order == 1


def test_z3_case2_order_one_agrees_with_sympy():
    fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
    free_groups = pytest.importorskip("sympy.combinatorics.free_groups")
    pres, _ = tensor_presentation(z3_case(True, False))
    F, *x = free_groups.free_group(
        ",".join(f"x{k}" for k in range(1, pres.ngens + 1)))
    relators = []
    for word in pres.relators:
        w = F.identity
        for letter in word:
            w *= x[abs(letter) - 1] ** (1 if letter > 0 else -1)
        relators.append(w)
    assert len(relators) == 53
    assert fp_groups.FpGroup(F, relators).order() == 1


def test_inversion_tensor_is_isomorphic_to_base():
    for key in ["cyclic:2", "cyclic:6", "product:cyclic:2,cyclic:4"]:
        A = tf.make_catalog_group(key)
        pair = involution_pair(A, A.inverse)
        rep = compute_tensor(pair)
        assert rep.order == A.order
        gens = [rep.symbol(a, 1) for a in range(A.order)]
        iso = tf.hom_from_images(rep.tensor, A, gens, list(range(A.order)))
        assert iso.is_bijective


def test_trivial_actions_give_abelianization_tensor():
    S3 = tf.make_catalog_group("symmetric:3")
    D4 = tf.make_catalog_group("dihedral:4")
    rep = compute_tensor(ActionPair.trivial(S3, D4))
    assert rep.invariants == abelian_tensor(abelian_invariants(S3),
                                            abelian_invariants(D4))


# -- report invariants ----------------------------------------------------

REPORT_PAIRS = [
    ActionPair.trivial(make_cyclic(4), make_cyclic(6)),
    z3_case(False, False),
    involution_pair(tf.make_catalog_group("cyclic:6"),
                    tf.make_catalog_group("cyclic:6").inverse),
]


@pytest.mark.parametrize("pair", REPORT_PAIRS)
def test_exactness_and_centrality(pair):
    rep = compute_tensor(pair)
    assert rep.kappa is not None
    assert rep.order == rep.kernel.order * rep.derivative.order
    assert set(int(v) for v in np.unique(rep.kappa.map)) \
        == set(rep.derivative.members)
    T = rep.tensor
    for a in rep.kernel.members:
        for x in range(T.order):
            assert T.mul(a, x) == T.mul(x, a)


@pytest.mark.parametrize("pair", REPORT_PAIRS)
def test_kappa_formula_on_symbols(pair):
    rep = compute_tensor(pair)
    G = pair.G
    for (g, h), t in rep.symbol_map.items():
        assert rep.kappa(t) == G.mul(G.inv(g), pair.alpha_maps[h, g])


@pytest.mark.parametrize("pair", REPORT_PAIRS)
def test_defining_relations_hold_in_cayley_table(pair):
    # round-trip check independent of the enumerator
    G, H = pair.G, pair.H
    rep = compute_tensor(pair)
    T, s = rep.tensor, rep.symbol
    for g in range(G.order):
        for g1 in range(G.order):
            for h in range(H.order):
                lhs = s(G.mul(g, g1), h)
                rhs = T.mul(s(reference_conj(G, g, g1), pair.beta_maps[g1, h]),
                            s(g1, h))
                assert lhs == rhs
    for g in range(G.order):
        for h in range(H.order):
            for h1 in range(H.order):
                lhs = s(g, H.mul(h, h1))
                rhs = T.mul(s(g, h1), s(pair.alpha_maps[h1, g],
                                        reference_conj(H, h, h1)))
                assert lhs == rhs


@pytest.mark.parametrize("pair", REPORT_PAIRS)
def test_symbols_generate_tensor(pair):
    rep = compute_tensor(pair)
    gens = set(rep.symbol_map.values())
    assert tf.subgroup_generated(rep.tensor, gens).order == rep.order


def test_abelianization_cross_check():
    # SNF of the relator matrix is an independent pipeline for the
    # abelianized presentation; it must agree with the enumerated group
    for pair in REPORT_PAIRS:
        pres, _ = tensor_presentation(pair)
        rows = []
        for r in pres.relators:
            row = [0] * pres.ngens
            for letter in r:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            rows.append(row)
        diag = reference_smith_diagonal(rows, pres.ngens)
        snf_invariants = [d for d in diag if d > 1]
        free_rank = pres.ngens - len(diag)
        rep = compute_tensor(pair)
        assert free_rank == 0
        assert abelian_invariants(rep.tensor) == snf_invariants


# -- central kernel -------------------------------------------------------

def test_non_central_kernel_raises_typed_error():
    # the kernel of the trivial map S3 -> 1 is S3, which is not central;
    # the check survives python -O
    S3 = tf.make_catalog_group("symmetric:3")
    trivial = tf.GroupHom(S3, make_cyclic(1), [0] * 6)
    with pytest.raises(CrossCheckFailed,
                       match="kernel element 1 is not central"):
        tensor._assert_central(S3, trivial.kernel())


# -- tensor squares -------------------------------------------------------

def test_tensor_square_s3_kappa_image_is_derived_subgroup():
    S3 = tf.make_catalog_group("symmetric:3")
    rep = tensor_square(S3)
    assert set(rep.derivative.members) \
        == set(tf.derived_subgroup(S3).members)
    assert rep.derivative.order == 3
    assert rep.order == 6       # regression value from our enumeration


def test_tensor_square_regression_orders():
    # regression values frozen from our own enumeration
    assert tensor_square(tf.make_catalog_group("dihedral:4")).order == 32
    assert tensor_square(tf.make_catalog_group("quaternion:8")).order == 64
    assert tensor_square(make_cyclic(3)).order == 3


def test_tensor_square_abelian_is_plain_tensor():
    Z6 = make_cyclic(6)
    rep = tensor_square(Z6)
    assert rep.invariants == abelian_tensor([6], [6])


def reference_merged_invariants(*parts):
    """Invariant factors of the direct product of abelian groups, each
    given by its invariant factors."""
    primary = defaultdict(list)
    for factors in parts:
        for p, comps in reference_invariants_to_primary(factors).items():
            primary[p] += comps
    return reference_primary_to_invariants(
        {p: sorted(comps, reverse=True) for p, comps in primary.items()})


# every product catalog key up to order 16 below the 256-symbol cap
PRODUCT_SQUARES = ["product:symmetric:3,cyclic:2",
                   "product:dihedral:4,cyclic:2",
                   "product:quaternion:8,cyclic:2",
                   "product:cyclic:2,cyclic:4", "product:cyclic:2,cyclic:6",
                   "product:cyclic:2,cyclic:8", "product:cyclic:4,cyclic:4"]


@pytest.mark.parametrize("key", PRODUCT_SQUARES)
def test_product_square_matches_its_decomposition(key):
    # (A x B) (x) (A x B) = (A (x) A) x (B (x) B) x (A^ab (x) B^ab)^2 with
    # both actions by conjugation (Brown, Johnson and Robertson 1987)
    A, B = map(tf.make_catalog_group, key.split(":", 1)[1].split(","))
    rep, squares = tensor_square(tf.make_catalog_group(key)), [
        tensor_square(A), tensor_square(B)]
    mixed = reference_abelian_tensor(reference_abelian_invariants(A),
                                     reference_abelian_invariants(B))
    assert rep.order == math.prod(s.order for s in squares) \
        * math.prod(mixed) ** 2
    assert rep.tensor.is_abelian == all(s.tensor.is_abelian for s in squares)
    if rep.tensor.is_abelian:
        assert rep.invariants == reference_merged_invariants(
            *(s.invariants for s in squares), mixed, mixed)
    assert rep.derivative.order \
        == tf.derived_subgroup(A).order * tf.derived_subgroup(B).order
    classes = [s.nilpotency for s in squares] + [int(bool(mixed))] * 2
    assert rep.nilpotency == (None if None in classes else max(classes))


def test_wrong_derivative_raises_typed_error(monkeypatch):
    # the image of kappa must be [G, H]; a wrong derivative breaks the
    # cross-check with an error that survives python -O
    S3 = tf.make_catalog_group("symmetric:3")
    monkeypatch.setattr(tensor, "subgroup_generated",
                        lambda G, gens: tf.Subgroup(G, [G.identity]))
    with pytest.raises(CrossCheckFailed, match="image of kappa"):
        tensor_square(S3)


# -- kappa along the spanning tree ----------------------------------------

def _closure_hom(source, target, gens, images):
    try:
        return tf.hom_from_images(source, target, gens, images).map.tolist()
    except NotAHomomorphism:
        return None


def _extend_to_hom(rows, target, images):
    """The homomorphism from the group of a complete coset table over the
    trivial subgroup that sends generator k to images[k], or None.

    The map is forced along the table's spanning tree, and it is a
    homomorphism iff map(c * k) == map(c) * images[k] for every coset c
    and generator k, which one vectorised comparison checks.
    """
    letters = np.empty(2 * len(images), dtype=np.intp)
    letters[0::2] = images
    letters[1::2] = target.inverse[images]
    pm = np.empty(len(rows), dtype=np.intp)
    pm[0] = target.identity
    for cosets, parents, cols in spanning_tree(rows):
        pm[cosets] = target.table[pm[parents], letters[cols]]
    if not np.array_equal(pm[rows[:, 0::2]],
                          target.table[pm[:, None], images[None, :]]):
        return None
    return pm


def test_one_product_builds_one_spanning_tree(monkeypatch):
    # standardizing the table builds its tree; read-back and kappa share
    # it.  Every module's reference to spanning_tree is counted.
    calls = []
    real = tf.groups.spanning_tree

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    modules = [m for m in vars(tf).values() if isinstance(m, type(tf))
               and getattr(m, "spanning_tree", None) is real]
    assert {m.__name__ for m in modules} >= {
        "tensorforge.groups", "tensorforge.presentations"}
    for module in modules:
        monkeypatch.setattr(module, "spanning_tree", counted)
    pairs = REPORT_PAIRS + [z3_case(True, False)]
    for key in ["symmetric:3", "quaternion:8", "dihedral:8"]:
        G = tf.make_catalog_group(key)
        conj = conjugation_maps(G)
        pairs.append(ActionPair(G, G, conj, conj, validate=False))
    for pair in pairs:
        symbols = tensor_presentation(pair, force=True)[0]
        survivors = tf.presentations._eliminate(symbols)[1]
        calls.clear()
        rep = compute_tensor(pair, force=True)
        # the tree spans the unstandardized table over the survivors'
        # columns, fewer than the letters' columns
        assert len(calls) == 1 and calls[0][1] == 2 * survivors \
            < 2 * symbols.ngens, (calls, survivors)
        assert rep.kappa is not None or not pair.assignments_are_homs()


def test_product_square_peak_memory():
    # the table is standardized, validated and read back over the 2 x 81
    # columns of the survivors, and kappa forced over them; one column
    # pair per symbol, 2 x 256 columns, peaked at 4.68 MiB
    G = tf.make_catalog_group("product:cyclic:4,cyclic:4")
    conj = conjugation_maps(G)
    fresh = FiniteGroup(G.table, validate=False)
    pair = ActionPair(fresh, fresh, conj, conj, validate=False)
    tracemalloc.start()
    try:
        rep = compute_tensor(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2 ** 20
    assert rep.order == 256 and rep.invariants == [4, 4, 4, 4]


def test_trivial_square_reads_generator_columns_not_a_table():
    # the order-512 product is kept as its coset table's columns: the
    # report reads generators' columns and rows, and its 512 x 512
    # Cayley table, 2 MiB, is not built (3.35 MiB peak when it was)
    G = FiniteGroup(tf.make_catalog_group("elemab:2:3").table,
                    validate=False)
    tracemalloc.start()
    try:
        rep = compute_tensor(ActionPair.trivial(G, G))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * 2 ** 20
    assert rep.order == 512 and rep.invariants == [2] * 9
    assert rep.tensor._table is None


def test_kappa_by_spanning_tree_matches_hom_from_images():
    # forcing along the forward columns from coset 0 must agree with the
    # general closure of hom_from_images, with forcing along the tree of
    # all columns (the reference above) and with the forcing compute_tensor
    # does over the survivors' columns, on kappa's images and on images
    # that define no homomorphism
    pairs = REPORT_PAIRS + [z3_case(True, False), z3_case(False, True)]
    for key in ["symmetric:3", "dihedral:4", "quaternion:8", "elemab:2:2"]:
        G = tf.make_catalog_group(key)
        conj = tf.actions.conjugation_maps(G)
        pairs.append(ActionPair(G, G, conj, conj, validate=False))
    rng = np.random.default_rng(8)
    outcomes = set()
    for pair in pairs:
        p, _ = tensor_presentation(pair, force=True)
        table = coset_enumerate(p)
        T, gen_images = table_to_group(table)
        G = pair.G
        kappa_images = np.array([G.mul(G.inv(g), pair.alpha_maps[h, g])
                                 for g in range(G.order)
                                 for h in range(pair.H.order)])
        changed = kappa_images.copy()
        changed[-1] = (changed[-1] + 1) % G.order
        candidates = [kappa_images, changed,
                      np.full(p.ngens, G.identity, dtype=np.intp)]
        candidates += [rng.integers(0, G.order, size=p.ngens)
                       for _ in range(3)]
        full = expanded_rows(table)
        rows = full[:, 0::2]
        tree = spanning_tree(rows)
        for images in candidates:
            maps, ok, _ = tf.homs._force(rows, 0, tree, G, images[None])
            got = maps[0].tolist() if ok.all() else None
            assert got == _closure_hom(T, G, gen_images, images.tolist())
            want = _extend_to_hom(full, G, images)
            assert got == (None if want is None else want.tolist())
            # as compute_tensor forces: over the survivors' columns along
            # the tree the table carries, then one lookup per letter
            forced = tensor._force_images(table, G, images)
            assert (None if forced is None else forced.tolist()) == got
            outcomes.add(got is None)
    assert outcomes == {True, False}


# -- hom-pair tensor classes ----------------------------------------------

# The loop over every pair of hom classes, as it was before one product
# was computed per orbit of Aut(G) x Aut(G), kept verbatim as the
# reference for tensor.hom_pair_tensor_classes.

def reference_hom_pair_tensor_classes(G, budget=None):
    homs = tf.enumerate_homs(G, G, budget=budget)
    gens = tf.groups.generating_set(G)
    first, sizes, _ = tf.actions.hom_classes(
        homs[:, gens], coset_labels(G, center(G))[1])
    rows = []
    for a, i in enumerate(first.tolist()):
        for b, j in enumerate(first.tolist()):
            count = int(sizes[a] * sizes[b])
            rep = compute_tensor(tf.actions.action_from_hom_pair(
                G, G, homs[i], homs[j]))
            for row in rows:
                if row["order"] == rep.order and \
                        row["abelian"] == rep.tensor.is_abelian and \
                        row["invariants"] == rep.invariants and \
                        tf.homs.are_isomorphic(row["_witness"], rep.tensor):
                    row["n_hom_pairs"] += count
                    break
            else:
                rows.append({"order": rep.order,
                             "abelian": bool(rep.tensor.is_abelian),
                             "invariants": rep.invariants,
                             "nilpotency": rep.nilpotency,
                             "example_phi": i, "example_psi": j,
                             "n_hom_pairs": count,
                             "_witness": rep.tensor})
    for row in rows:
        del row["_witness"]
    rows.sort(key=lambda r: (r["order"], str(r["invariants"])))
    return {"n_homs": len(homs), "n_hom_pairs": len(homs) ** 2,
            "classes": rows}


def _classes_or_refusal(classify, G):
    try:
        return classify(G)
    except IncompatibleActions as exc:
        return str(exc)


def test_hom_pair_tensor_classes_match_reference_loop():
    # a hom pair of symmetric:3 induces incompatible actions; the least
    # incompatible class pair is the least of its orbit, so both refuse
    # with the same witness
    refused = 0
    for key, G in catalog_groups_up_to(8):
        got = _classes_or_refusal(tensor.hom_pair_tensor_classes, G)
        assert got == _classes_or_refusal(
            reference_hom_pair_tensor_classes, G), key
        refused += isinstance(got, str)
    assert refused == 1


def test_hom_pair_tensor_classes_refuse_symmetric3_at_its_least_witness():
    # a hom pair of End(S3) induces incompatible actions; neither the
    # orbits nor the swap move the least incompatible class pair
    with pytest.raises(IncompatibleActions) as refusal:
        tensor.hom_pair_tensor_classes(tf.make_catalog_group("symmetric:3"))
    w = refusal.value.witness
    assert (w.equation, w.g, w.g1, w.h) == ("first", 1, 2, 1)


@pytest.mark.parametrize("key,classes,orbits", [("heisenberg:2", 9, 15),
                                                ("quaternion:8", 7, 5)])
def test_hom_pair_tensor_classes_compute_one_square_per_orbit(
        monkeypatch, key, classes, orbits):
    G = tf.make_catalog_group(key)
    homs = tf.enumerate_homs(G, G)
    first, _, _ = tf.actions.hom_classes(
        homs, coset_labels(G, center(G))[1])
    assert len(first) == classes
    calls = []

    def counted(pair):
        calls.append(pair)
        return compute_tensor(pair)
    monkeypatch.setattr(tensor, "compute_tensor", counted)
    tensor.hom_pair_tensor_classes(G)
    assert len(calls) == orbits
