"""Word handling and Todd-Coxeter coset enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tensorforge as tf
from tensorforge import presentations
from tensorforge.actions import ActionPair, conjugation_maps
from tensorforge.catalog import catalog_groups_up_to
from tensorforge.errors import LimitExceeded
from tensorforge.presentations import (Presentation, coset_enumerate,
                                       invert_word, reduce_word,
                                       table_to_group)
from tensorforge.tensor import tensor_presentation


# -- words ------------------------------------------------------------------

def test_reduce_word_cancellation():
    assert reduce_word([1, -1]) == []
    assert reduce_word([1, 2, -2, -1]) == []
    assert reduce_word([1, 2, -2, 3]) == [1, 3]
    assert reduce_word([-1, 2, 1]) == [-1, 2, 1]


def test_reduce_word_rejects_zero():
    with pytest.raises(ValueError):
        reduce_word([1, 0])


def test_invert_word():
    assert invert_word([1, -2, 3]) == [-3, 2, -1]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=20))
def test_reduce_is_idempotent_and_inverse_cancels(word):
    r = reduce_word(word)
    assert reduce_word(r) == r
    assert reduce_word(r + invert_word(r)) == []


def test_presentation_reduces_relators_and_validates():
    p = Presentation(2, ((1, -1, 2, 2), (1, 1, -1, -1)))
    assert p.relators == ((2, 2),)
    with pytest.raises(ValueError):
        Presentation(1, ((2,),))


# -- enumeration --------------------------------------------------------------

def test_cyclic_presentation():
    p = Presentation(1, ((1,) * 7,))
    table = coset_enumerate(p)
    assert table.ncosets == 7
    G, gens = table_to_group(table, p)
    assert G.order == 7 and G.element_order(gens[0]) == 7


def test_s3_coxeter_presentation():
    p = Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
    table = coset_enumerate(p)
    assert table.ncosets == 6
    G, _ = table_to_group(table, p)
    assert tf.are_isomorphic(G, tf.make_catalog_group("symmetric:3"))


def test_quaternion_presentation():
    # <a, b | a^4, a^2 b^-2, b^-1 a b a>
    p = Presentation(2, ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)))
    table = coset_enumerate(p)
    assert table.ncosets == 8
    G, _ = table_to_group(table, p)
    assert tf.are_isomorphic(G, tf.make_catalog_group("quaternion:8"))


def test_total_collapse_via_coincidences():
    # a^2 = a^3 = 1 forces a = 1
    p = Presentation(1, ((1, 1), (1, 1, 1)))
    assert coset_enumerate(p).ncosets == 1


def test_collapse_with_two_generators():
    # killing b makes the conjugation relation read a = a^2, so the
    # whole group collapses
    p = Presentation(2, ((2,), (1, 1, 1), (-2, 1, 2, -1, -1)))
    table = coset_enumerate(p)
    G, gens = table_to_group(table, p)
    assert G.order == 1 and gens == [0, 0]


def test_infinite_group_exceeds_limit():
    p = Presentation(1, ())     # the free group on one generator
    with pytest.raises(LimitExceeded):
        coset_enumerate(p, max_cosets=50)


def test_scan_budget_exceeded():
    p = Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
    with pytest.raises(LimitExceeded):
        coset_enumerate(p, max_deductions=3)


def test_enumeration_is_deterministic():
    p = Presentation(2, ((1, 1), (2, 2, 2), (1, 2, 1, 2)))
    t1 = coset_enumerate(p)
    t2 = coset_enumerate(p)
    assert np.array_equal(t1.rows, t2.rows)


def test_relators_trace_to_identity_from_every_coset():
    p = Presentation(2, ((1, 1, 1, 1), (2, 2), (1, 2, 1, 2)))  # D4
    table = coset_enumerate(p)
    assert table.ncosets == 8
    for r in p.relators:
        for c in range(table.ncosets):
            assert table.trace(c, r) == c


def test_generator_columns_are_permutations():
    p = Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
    table = coset_enumerate(p)
    n = table.ncosets
    for col in range(2 * p.ngens):
        assert sorted(table.rows[:, col].tolist()) == list(range(n))


@pytest.mark.parametrize("key", ["cyclic:6", "symmetric:3", "dihedral:4",
                                 "quaternion:8", "elemab:2:3",
                                 "heisenberg:3"])
def test_multiplication_table_round_trip(key):
    G = tf.make_catalog_group(key)
    rels = tuple((i + 1, j + 1, -(G.mul(i, j) + 1))
                 for i in range(G.order) for j in range(G.order))
    p = Presentation(G.order, rels)
    table = coset_enumerate(p)
    assert table.ncosets == G.order
    K, gen_images = table_to_group(table, p)
    assert tf.are_isomorphic(G, K) is not None
    # the generator images realize the original multiplication
    for i in range(G.order):
        for j in range(G.order):
            assert K.mul(gen_images[i], gen_images[j]) \
                == gen_images[G.mul(i, j)]


def test_limits_must_be_positive():
    p = Presentation(1, ((1, 1),))
    with pytest.raises(ValueError):
        coset_enumerate(p, max_cosets=0)


# -- reference enumerator -----------------------------------------------------
# The scalar HLT enumerator over a list-of-lists table, without the
# closed-relator filter: coset_enumerate must produce the same rows and
# the same LimitExceeded outcomes.

def _col(letter):
    # generator k -> column 2(k-1); inverse -> 2(k-1)+1
    k = abs(letter) - 1
    return 2 * k if letter > 0 else 2 * k + 1


def _invcol(col):
    return col ^ 1


class _Enumerator:
    def __init__(self, ngens, max_cosets, max_steps):
        self.ncols = 2 * ngens
        self.table = [[None] * self.ncols]
        self.p = [0]
        self.max_cosets = max_cosets
        self.max_steps = max_steps
        self.steps = 0
        self.defined = 1

    def rep(self, k):
        # union-find with path compression toward smaller indices
        r = k
        while self.p[r] != r:
            r = self.p[r]
        while self.p[k] != r:
            self.p[k], k = r, self.p[k]
        return r

    def alive(self, k):
        return self.p[k] == k

    def define(self, alpha, col):
        if self.defined >= self.max_cosets:
            raise LimitExceeded(
                f"coset limit {self.max_cosets} reached; group may be "
                "infinite or the budget too small")
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.defined += 1
        self.table[alpha][col] = beta
        self.table[beta][_invcol(col)] = alpha
        return beta

    def _merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.p[b] = a
            queue.append(b)

    def coincidence(self, a, b):
        queue = []
        self._merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            for col in range(self.ncols):
                delta = self.table[gamma][col]
                if delta is None:
                    continue
                self.table[delta][_invcol(col)] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][col] is not None:
                    self._merge(nu, self.table[mu][col], queue)
                elif self.table[nu][_invcol(col)] is not None:
                    self._merge(mu, self.table[nu][_invcol(col)], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][_invcol(col)] = mu

    def scan_and_fill(self, alpha, cols):
        self.steps += 1
        if self.steps > self.max_steps:
            raise LimitExceeded(f"scan budget {self.max_steps} exhausted")
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][_invcol(cols[j])] is not None:
                b = self.table[b][_invcol(cols[j])]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][cols[i]] = b
                self.table[b][_invcol(cols[i])] = f
                return
            self.define(f, cols[i])


def reference_enumerate(presentation, max_cosets=None, max_deductions=None):
    """The rows of the compacted table, as coset_enumerate returns them."""
    max_cosets = 200_000 if max_cosets is None else max_cosets
    max_steps = max_deductions if max_deductions is not None else 50_000_000
    if max_cosets <= 0 or max_steps <= 0:
        raise ValueError("limits must be positive")
    seen = set()
    rel_cols = []
    for r in presentation.relators:
        variants = {tuple(w[i:] + w[:i])
                    for w in (r, tuple(-x for x in reversed(r)))
                    for i in range(len(w))}
        key = min(variants)
        if key not in seen:
            seen.add(key)
            rel_cols.append(tuple(_col(letter) for letter in r))
    enum = _Enumerator(presentation.ngens, max_cosets, max_steps)
    alpha = 0
    while alpha < len(enum.table):
        if not enum.alive(alpha):
            alpha += 1
            continue
        for cols in rel_cols:
            if not enum.alive(alpha):
                break
            enum.scan_and_fill(alpha, cols)
        if enum.alive(alpha):
            for col in range(enum.ncols):
                if enum.table[alpha][col] is None:
                    enum.define(alpha, col)
        alpha += 1

    live = [c for c in range(len(enum.table)) if enum.alive(c)]
    renum = {c: i for i, c in enumerate(live)}
    rows = np.empty((len(live), enum.ncols), dtype=np.intp)
    for i, c in enumerate(live):
        for col in range(enum.ncols):
            d = enum.table[c][col]
            if d is None:
                raise LimitExceeded("enumeration halted with holes in table")
            rows[i, col] = renum[enum.rep(d)]
    return rows


def _outcome(enumerate_, presentation, **limits):
    try:
        rows = enumerate_(presentation, **limits)
    except LimitExceeded as exc:
        return ("LimitExceeded", str(exc))
    return ("rows", rows.dtype.str, rows.shape, rows.tobytes())


def _same_outcome(presentation, **limits):
    want = _outcome(reference_enumerate, presentation, **limits)
    got = _outcome(lambda p, **kw: coset_enumerate(p, **kw).rows,
                   presentation, **limits)
    assert got == want, limits
    return want


# the tensor presentations of tensorforge's benchmark workloads: squares
# under conjugation and pairs acting trivially, all at most 256 symbols
BENCHMARK_SQUARES = ["quaternion:8", "dihedral:4", "elemab:2:3",
                     "elemab:3:2", "dihedral:6", "dihedral:8",
                     "product:cyclic:2,cyclic:6", "product:cyclic:4,cyclic:4",
                     "cyclic:12", "dihedral:7"]
BENCHMARK_TRIVIAL_PAIRS = [("dihedral:8", "dihedral:8"),
                           ("quaternion:8", "dihedral:8"),
                           ("dihedral:6", "dihedral:6"),
                           ("symmetric:3", "dihedral:6"),
                           ("quaternion:8", "quaternion:8")]


def _square_presentation(key):
    G = tf.make_catalog_group(key)
    conj = conjugation_maps(G)
    return tensor_presentation(ActionPair(G, G, conj, conj,
                                          validate=False))[0]


@pytest.mark.parametrize("key", BENCHMARK_SQUARES)
def test_tensor_square_rows_match_reference(key):
    _same_outcome(_square_presentation(key))


@pytest.mark.parametrize("g,h", BENCHMARK_TRIVIAL_PAIRS)
def test_trivial_pair_rows_match_reference(g, h):
    pair = ActionPair.trivial(tf.make_catalog_group(g),
                              tf.make_catalog_group(h))
    _same_outcome(tensor_presentation(pair)[0])


def test_round_trip_rows_match_reference():
    # the presentations of the verify suite's enumerator round trip
    for _, G in catalog_groups_up_to(27):
        rels = tuple((i + 1, j + 1, -(G.mul(i, j) + 1))
                     for i in range(G.order) for j in range(G.order))
        _same_outcome(Presentation(G.order, rels))


_words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1,
                  max_size=8)


@pytest.mark.parametrize("filter_min", [presentations.FILTER_MIN_RELATORS, 1])
@settings(max_examples=40, deadline=None)
@given(ngens=st.integers(1, 3), words=st.lists(_words, max_size=5),
       max_cosets=st.sampled_from([20, 200, 1000]),
       max_deductions=st.sampled_from([None, 5, 60, 400]))
def test_random_presentations_match_reference(filter_min, ngens, words,
                                              max_cosets, max_deductions):
    rels = tuple(tuple(x for x in w if abs(x) <= ngens) for w in words)
    # with filter_min 1 every relator goes through the numpy filter
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presentations, "FILTER_MIN_RELATORS", filter_min)
        _same_outcome(Presentation(ngens, rels), max_cosets=max_cosets,
                      max_deductions=max_deductions)


def test_scan_budget_sweep_matches_reference():
    # 1023 relators, so the filter is active; the full enumeration needs
    # a budget of 29152 scans
    p = _square_presentation("dihedral:4")
    outcomes = {_same_outcome(p, max_deductions=k)[0]
                for k in (1, 2, 1023, 1024, 1025, 5000, 17_000, 29_151,
                          29_152, 29_153)}
    assert outcomes == {"LimitExceeded", "rows"}


def test_wide_table_uses_64_bit_entries():
    # (max_cosets + 1) * 2 * ngens does not fit int32
    p = Presentation(2, ((1, 1, 1, 1), (2, 2), (1, 2, 1, 2)))
    _same_outcome(p, max_cosets=2 ** 31)
