"""Word handling and Todd-Coxeter coset enumeration."""

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tensorforge as tf
from tensorforge import presentations
from tensorforge.actions import ActionPair, conjugation_maps
from tensorforge.catalog import catalog_groups_up_to
from tensorforge.errors import LimitExceeded
from tensorforge.presentations import (Presentation, coset_enumerate,
                                       table_to_group)
from tensorforge.tensor import tensor_presentation
from test_groups import reference_conj


def expanded_rows(table):
    """rows[c][l], the coset reached from c by letter column l."""
    return np.column_stack([table.reduced, np.arange(table.ncosets)])[
        :, table.letters]


def hand_table(rows):
    """A hand-made complete table in which each letter reads its column."""
    return presentations.CosetTable(rows, np.arange(rows.shape[1]), None,
                                    presentations.spanning_tree(rows))


# -- words ------------------------------------------------------------------

def reduce_word(word):
    """Freely reduce: iterated cancellation of adjacent inverse pairs.  The
    word-by-word reference for the library's one free reduction,
    ``_free_reduce``."""
    out = []
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(int(letter))
    return out


def _reduced(word):
    """A word over three generators, freely reduced by the library: read
    back as the relator of a presentation, as a list."""
    relators = Presentation(3, [word]).relators
    return list(relators[0]) if relators else []


def test_reduce_word_cancellation():
    assert _reduced([1, -1]) == []
    assert _reduced([1, 2, -2, -1]) == []
    assert _reduced([1, 2, -2, 3]) == [1, 3]
    assert _reduced([-1, 2, 1]) == [-1, 2, 1]


def test_reduce_word_rejects_zero():
    with pytest.raises(ValueError):
        _reduced([1, 0])
    with pytest.raises(ValueError):
        reduce_word([1, 0])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=20))
def test_reduce_is_idempotent_and_inverse_cancels(word):
    r = _reduced(word)
    assert r == reduce_word(word)
    assert _reduced(r) == r
    assert _reduced(r + [-x for x in reversed(r)]) == []


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
    G, gens = table_to_group(table)
    assert G.order == 7 and G.element_order(gens[0]) == 7


def test_s3_coxeter_presentation():
    p = Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
    table = coset_enumerate(p)
    assert table.ncosets == 6
    G, _ = table_to_group(table)
    assert tf.are_isomorphic(G, tf.make_catalog_group("symmetric:3"))


def test_quaternion_presentation():
    # <a, b | a^4, a^2 b^-2, b^-1 a b a>
    p = Presentation(2, ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)))
    table = coset_enumerate(p)
    assert table.ncosets == 8
    G, _ = table_to_group(table)
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
    G, gens = table_to_group(table)
    assert G.order == 1 and gens == [0, 0]


def test_table_to_group_refuses_above_the_cap(monkeypatch):
    # a stated cap of 6 below the 7 cosets of cyclic:7; the refusal comes
    # before the spanning tree or the n x n table is built
    table = coset_enumerate(Presentation(1, ((1,) * 7,)))
    monkeypatch.setattr(presentations, "MAX_CATALOG_ORDER", 6)
    monkeypatch.setattr(presentations, "spanning_tree", None)
    with pytest.raises(LimitExceeded, match="^7 cosets exceed the 6-element"):
        table_to_group(table)
    monkeypatch.undo()
    monkeypatch.setattr(presentations, "MAX_CATALOG_ORDER", 7)
    assert table_to_group(table)[0].order == 7


def test_infinite_group_exceeds_limit():
    p = Presentation(1, ())     # the free group on one generator
    with pytest.raises(LimitExceeded):
        coset_enumerate(p, max_cosets=50)


def test_scan_budget_exceeded(monkeypatch):
    p = Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
    monkeypatch.setattr(presentations, "MAX_SCANS", 3)
    with pytest.raises(LimitExceeded):
        coset_enumerate(p)


def test_enumeration_is_deterministic():
    p = Presentation(2, ((1, 1), (2, 2, 2), (1, 2, 1, 2)))
    t1 = coset_enumerate(p)
    t2 = coset_enumerate(p)
    assert np.array_equal(expanded_rows(t1), expanded_rows(t2))


def test_relators_trace_to_identity_from_every_coset():
    p = Presentation(2, ((1, 1, 1, 1), (2, 2), (1, 2, 1, 2)))  # D4
    table = coset_enumerate(p)
    assert table.ncosets == 8
    rows = expanded_rows(table)
    for r in p.relators:
        for c in range(table.ncosets):
            d = c
            for letter in r:
                d = int(rows[d, _col(letter)])
            assert d == c


@pytest.mark.parametrize("block", [presentations.BLOCK_ENTRIES, 7])
def test_validation_names_first_failing_relator(monkeypatch, block):
    # a = +1 and b = +4 on Z12 satisfy relators 0-3 and 7 but not 4-6;
    # small blocks split both the cosets and the length-6 relators
    monkeypatch.setattr(presentations, "BLOCK_ENTRIES", block)
    p = Presentation(2, ((2, 2, 2), (1, 2, -1, -2), (1, 1, 1, 1, -2),
                         (1, 1, 2, -1, -1, -2), (1,) * 6, (2, 2),
                         (2, 2, 2, 2), (1,) * 12))
    c = np.arange(12)
    rows = np.stack([(c + 1) % 12, (c - 1) % 12, (c + 4) % 12, (c - 4) % 12],
                    axis=1)
    table = hand_table(rows)
    with pytest.raises(presentations.TableIncomplete,
                       match=r"relator \(1, 1, 1, 1, 1, 1\) does not"):
        presentations._validate_complete(table, p)


@pytest.mark.parametrize("block", [presentations.BLOCK_ENTRIES, 7])
def test_validation_names_first_failing_relator_of_equal_columns(
        monkeypatch, block):
    # a = b = +1 on Z12: b's columns equal a's, so b^12 shares the trace
    # of a^12, b^6 that of a^6 and a^-5 that of b^-5.  The first failing
    # relator in input order is named with its own letters, although a
    # later word has the smaller key
    monkeypatch.setattr(presentations, "BLOCK_ENTRIES", block)
    p = Presentation(2, ((1,) * 12, (2,) * 12, (1, -2), (-2,) * 5, (1,) * 6,
                         (2,) * 6, (-1,) * 5))
    c = np.arange(12)
    rows = np.stack([(c + 1) % 12, (c - 1) % 12] * 2, axis=1)
    table = hand_table(rows)
    with pytest.raises(presentations.TableIncomplete,
                       match=r"relator \(-2, -2, -2, -2, -2\) does not"):
        presentations._validate_complete(table, p)


@pytest.mark.parametrize("block", [presentations.BLOCK_ENTRIES, 7])
def test_validation_keeps_columns_apart_that_agree_only_at_coset_0(
        monkeypatch, block):
    # b agrees with a = +1 at coset 0 (and b^-1 with a^-1), but b swaps
    # the images of cosets 5 and 6: an 11-cycle and a fixed point, so
    # b^12 fails where a^12 holds
    monkeypatch.setattr(presentations, "BLOCK_ENTRIES", block)
    p = Presentation(2, ((1,) * 12, (2,) * 12))
    c = np.arange(12)
    b = (c + 1) % 12
    b[[5, 6]] = b[[6, 5]]
    b_inv = np.argsort(b)
    rows = np.stack([(c + 1) % 12, (c - 1) % 12, b, b_inv], axis=1)
    assert rows[0, 2] == rows[0, 0] and rows[0, 3] == rows[0, 1]
    table = hand_table(rows)
    with pytest.raises(presentations.TableIncomplete,
                       match=r"relator \(2(, 2){11}\) does not"):
        presentations._validate_complete(table, p)


@pytest.mark.parametrize("block", [presentations.BLOCK_ENTRIES, 7])
def test_validation_names_first_failing_relator_of_a_rotation_class(
        monkeypatch, block):
    # a = +1 on Z12 and b the same with the images of cosets 5 and 6
    # swapped: a^12 and b^11 hold, the commutator b a b^-1 a^-1 and a^6
    # do not.  The commutator's later rotation a b^-1 a^-1 b shares its
    # trace and is its class's least rotation, and a^6 has a smaller key;
    # the first failing relator in input order is named with its letters.
    # Given first as its inverse a b a^-1 b^-1, the inverse is named, and
    # the commutator itself, later, shares its trace
    monkeypatch.setattr(presentations, "BLOCK_ENTRIES", block)
    c = np.arange(12)
    b = (c + 1) % 12
    b[[5, 6]] = b[[6, 5]]
    rows = np.stack([(c + 1) % 12, (c - 1) % 12, b, np.argsort(b)], axis=1)
    table = hand_table(rows)
    for first in ((2, 1, -2, -1), (1, 2, -1, -2)):
        p = Presentation(2, ((1,) * 12, (2,) * 11, first, (1,) * 6,
                             (2, 1, -2, -1), (1, -2, -1, 2)))
        with pytest.raises(presentations.TableIncomplete,
                           match=rf"relator {re.escape(str(first))} does"):
            presentations._validate_complete(table, p)


@pytest.mark.parametrize("block", [presentations.BLOCK_ENTRIES, 7])
def test_validation_keeps_a_reversal_apart_from_the_inverse(monkeypatch,
                                                            block):
    # in S3, with a transposition a, a 3-cycle b and c = (a b)^-1, a b c
    # and its inverse c^-1 b^-1 a^-1 hold, the reversal c b a = [b, a]
    # does not.  A word shares its trace with its inverse, not its reversal:
    # read as its own inverse, b would put c b a in the class of a b c
    monkeypatch.setattr(presentations, "BLOCK_ENTRIES", block)
    G = tf.make_catalog_group("symmetric:3")
    a = next(g for g in range(6) if G.element_order(g) == 2)
    b = next(g for g in range(6) if G.element_order(g) == 3)
    c = G.inv(G.mul(a, b))
    gens = [a, G.inv(a), b, G.inv(b), c, G.inv(c)]
    table = hand_table(G.table[:, gens])
    presentations._validate_complete(
        table, Presentation(3, ((1, 2, 3), (-3, -2, -1), (2, 3, 1))))
    p = Presentation(3, ((1, 2, 3), (-3, -2, -1), (3, 2, 1)))
    with pytest.raises(presentations.TableIncomplete,
                       match=r"relator \(3, 2, 1\) does not"):
        presentations._validate_complete(table, p)


def test_validation_refuses_an_inverse_column_that_does_not_undo():
    # both columns of a on Z12 are +1: each is a permutation and a^12
    # holds, but a^-1 does not undo a, so words are no group elements;
    # nor does any column undo one that is no permutation
    c = np.arange(12)
    p = Presentation(1, ((1,) * 12,))
    table = hand_table(np.stack([(c + 1) % 12] * 2, axis=1))
    with pytest.raises(presentations.TableIncomplete, match="column 0 is "
                       "not a permutation undone by column 1"):
        presentations._validate_complete(table, p)
    a = (c + 1) % 12
    rows = np.stack([a, np.argsort(a)], axis=1)
    presentations._validate_complete(hand_table(rows), p)
    rows[4, 1] = rows[5, 1]
    with pytest.raises(presentations.TableIncomplete, match="column 0 is "
                       "not a permutation undone by column 1"):
        presentations._validate_complete(hand_table(rows), p)


@pytest.mark.parametrize("block", [presentations.BLOCK_ENTRIES, 7])
def test_validation_keeps_rotation_classes_of_equal_letters_apart(
        monkeypatch, block):
    # a and b are transpositions of S3: a^2 b^2 holds and (a b)^2, with
    # the same letters in an order that is no rotation of a a b b, does not
    monkeypatch.setattr(presentations, "BLOCK_ENTRIES", block)
    p = Presentation(2, ((1, 1, 2, 2), (1, 2, 1, 2)))
    rows = tf.make_catalog_group("symmetric:3").table[:, [1, 1, 2, 2]]
    table = hand_table(rows)
    with pytest.raises(presentations.TableIncomplete,
                       match=r"relator \(1, 2, 1, 2\) does not"):
        presentations._validate_complete(table, p)


def test_generator_columns_are_permutations():
    p = Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
    table = coset_enumerate(p)
    n = table.ncosets
    for col in range(2 * p.ngens):
        assert sorted(expanded_rows(table)[:, col].tolist()) \
            == list(range(n))


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
    K, gen_images = table_to_group(table)
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
# closed-relator filter and without elimination: coset_enumerate must give
# its rows standardized, and under limits the LimitExceeded outcomes of the
# reference run on the presentation that _eliminate leaves.  A generator y
# with a relator y^2 or y^-2 is an involution: y^-1 reads y's column, that
# column is its own inverse, and the squares are not scanned.

def _col(letter):
    # generator k -> column 2(k-1); inverse -> 2(k-1)+1
    k = abs(letter) - 1
    return 2 * k if letter > 0 else 2 * k + 1


class _Enumerator:
    def __init__(self, ngens, max_cosets, max_steps, involutions=()):
        self.ncols = 2 * ngens
        # the column each letter's scan reads, and each column's inverse
        self.column = {x: _col(x) for k in range(1, ngens + 1)
                       for x in (k, -k)}
        for y in involutions:
            self.column[-y] = _col(y)
        self.inv = {self.column[x]: self.column[-x] for x in self.column}
        self.cols = sorted(self.inv)
        self.table = [[None] * self.ncols]
        self.p = [0]
        self.max_cosets = max_cosets
        self.max_steps = max_steps
        self.steps = 0
        self.defined = 1
        self.coincidences = 0

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
            raise LimitExceeded(f"coset limit {self.max_cosets} reached "
                                f"after {self.steps} scans")
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.defined += 1
        self.table[alpha][col] = beta
        self.table[beta][self.inv[col]] = alpha
        return beta

    def _merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.p[b] = a
            queue.append(b)

    def coincidence(self, a, b):
        self.coincidences += 1
        queue = []
        self._merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            for col in self.cols:
                icol = self.inv[col]
                delta = self.table[gamma][col]
                if delta is None:
                    continue
                self.table[delta][icol] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][col] is not None:
                    self._merge(nu, self.table[mu][col], queue)
                elif self.table[nu][icol] is not None:
                    self._merge(mu, self.table[nu][icol], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][icol] = mu

    def scan_and_fill(self, alpha, word):
        self.steps += 1
        if self.steps > self.max_steps:
            live = sum(map(self.alive, range(len(self.table))))
            raise LimitExceeded(
                f"scan budget {self.max_steps} exhausted after "
                f"{self.defined - 1} cosets defined, {live} live")
        cols = [self.column[x] for x in word]
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
            while j >= i and self.table[b][self.inv[cols[j]]] is not None:
                b = self.table[b][self.inv[cols[j]]]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][cols[i]] = b
                self.table[b][self.inv[cols[i]]] = f
                return
            self.define(f, cols[i])


def reference_enumerate(presentation, max_cosets=None, max_deductions=None,
                        counts=None):
    """The rows of the compacted table, as coset_enumerate returns them.
    A dict given as ``counts`` receives the cosets defined, the
    coincidences and the scans of a completed run."""
    max_cosets = 200_000 if max_cosets is None else max_cosets
    max_steps = max_deductions if max_deductions is not None else 50_000_000
    if max_cosets <= 0 or max_steps <= 0:
        raise ValueError("limits must be positive")
    involutions = {abs(r[0]) for r in presentation.relators
                   if len(r) == 2 and r[0] == r[1]}
    seen = set()
    words = []
    for r in presentation.relators:
        variants = {tuple(w[i:] + w[:i])
                    for w in (r, tuple(-x for x in reversed(r)))
                    for i in range(len(w))}
        key = min(variants)
        if key not in seen:
            seen.add(key)
            if not (len(r) == 2 and r[0] == r[1]):
                words.append(r)
    enum = _Enumerator(presentation.ngens, max_cosets, max_steps, involutions)
    alpha = 0
    while alpha < len(enum.table):
        if not enum.alive(alpha):
            alpha += 1
            continue
        for word in words:
            if not enum.alive(alpha):
                break
            enum.scan_and_fill(alpha, word)
        if enum.alive(alpha):
            for col in enum.cols:
                if enum.table[alpha][col] is None:
                    enum.define(alpha, col)
        alpha += 1

    live = [c for c in range(len(enum.table)) if enum.alive(c)]
    renum = {c: i for i, c in enumerate(live)}
    rows = np.empty((len(live), enum.ncols), dtype=np.intp)
    for i, c in enumerate(live):
        for x, col in enum.column.items():
            # an involution's inverse reads the involution's column
            d = enum.table[c][col]
            if d is None:
                raise LimitExceeded("enumeration halted with holes in table")
            rows[i, _col(x)] = renum[enum.rep(d)]
    if counts is not None:
        counts.update(defined=enum.defined - 1,
                      coincidences=enum.coincidences, scans=enum.steps)
    return rows


def _outcome(enumerate_, presentation, **limits):
    try:
        rows = enumerate_(presentation, **limits)
    except LimitExceeded as exc:
        return ("LimitExceeded", str(exc))
    return ("rows", rows.dtype.str, rows.shape, rows.tobytes())


def _word_list(words, lengths):
    """The words of a letters x words array, each cut to its length."""
    return [tuple(w[:k]) for w, k in zip(words.T.tolist(), lengths.tolist())]


def _eliminated(presentation):
    """The presentation that _eliminate leaves, relators in their order."""
    _, ngens, words, lengths = presentations._eliminate(presentation)
    return Presentation(ngens, _word_list(words, lengths))


def _enumerate(presentation, max_cosets=None, max_deductions=None):
    """coset_enumerate with the reference's limits: ``max_deductions``,
    when given, patched in as the scan budget MAX_SCANS."""
    with pytest.MonkeyPatch.context() as mp:
        if max_deductions is not None:
            mp.setattr(presentations, "MAX_SCANS", max_deductions)
        return coset_enumerate(presentation, max_cosets=max_cosets)


def _same_counts(presentation, **limits):
    """When coset_enumerate completes, its stats give the cosets defined,
    the coincidences and the scans, skipped ones included, of the
    reference run on the eliminated presentation; returns the stats."""
    try:
        stats = _enumerate(presentation, **limits).stats
    except LimitExceeded:
        return None
    counts = {}
    reference_enumerate(_eliminated(presentation), counts=counts, **limits)
    assert counts == {"defined": stats.defined,
                      "coincidences": stats.coincidences,
                      "scans": stats.scans + stats.skipped}, limits
    return stats


def _same_outcome(presentation, **limits):
    """Without limits, coset_enumerate gives the reference's rows
    standardized.  Under limits, it fails exactly when the reference fails
    on the eliminated presentation, with the same message; when it
    completes, it has the reference's cosets on the eliminated
    presentation and, if the reference completes on the full one too, its
    rows standardized."""
    got = _outcome(lambda p, **kw: expanded_rows(_enumerate(p, **kw)),
                   presentation, **limits)
    want = _outcome(
        lambda p, **kw: presentations._standardize(reference_enumerate(
            p, **kw))[0], presentation, **limits)
    if limits:
        pinned = _outcome(reference_enumerate, _eliminated(presentation),
                          **limits)
        if pinned[0] == "LimitExceeded":
            assert got == pinned, limits
            return got
        assert got[0] == "rows" and got[2][0] == pinned[2][0], limits
        if want[0] == "LimitExceeded":
            return got
    assert got == want, limits
    return got


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


_letter = st.sampled_from([1, -1, 2, -2, 3, -3])
# about half the words are squares, which make their generator an
# involution unless elimination kills or identifies it
_words = st.one_of(_letter.map(lambda x: [x, x]),
                   st.lists(_letter, min_size=1, max_size=8))


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
        p = Presentation(ngens, rels)
        _same_outcome(p, max_cosets=max_cosets,
                      max_deductions=max_deductions)
        _same_counts(p, max_cosets=max_cosets, max_deductions=max_deductions)


def test_scan_budget_sweep_matches_reference(monkeypatch):
    # elimination leaves 17 generators and 512 relators, 11 of them
    # squares; 136 classes of the others are scanned, so the filter is
    # active, and the enumeration needs a budget of 32 x 136 = 4352 scans
    p = _square_presentation("dihedral:4")
    q = _eliminated(p)
    assert (q.ngens, len(q.relators)) == (17, 512)
    stats = coset_enumerate(p).stats
    assert (stats.involutions, stats.relators) == (11, 136)
    outcomes = {_same_outcome(p, max_deductions=k)[0]
                for k in (1, 2, 136, 137, 512, 513, 2000, 4351, 4352, 4353,
                          29_152)}
    assert outcomes == {"LimitExceeded", "rows"}
    # 57 cosets are defined, all inside scans, so each limit from 1 to 57
    # is met mid-coset and its message counts the scan in progress
    outcomes = [_same_outcome(p, max_cosets=k)[0] for k in range(1, 59)]
    assert outcomes == ["LimitExceeded"] * 57 + ["rows"]
    monkeypatch.setattr(presentations, "MAX_SCANS", 4351)
    with pytest.raises(LimitExceeded, match="^scan budget 4351 exhausted "
                       "after 57 cosets defined, 32 live$"):
        coset_enumerate(p)


# (generators, relators, order, involutions HLT gives one column)
INVOLUTION_CASES = [
    # <a, b | a^2, b^2, (ab)^3>, the symmetric group S3
    (2, ((1, 1), (2, 2), (1, 2) * 3), 6, 2),
    # a y^-2 relator: the dihedral group of order 8
    (2, ((1,) * 4, (-2, -2), (1, 2, 1, 2)), 8, 1),
    # y^2 together with y^3 kills y
    (1, ((1, 1), (1, 1, 1)), 1, 1),
    # x1 = x2 and x1 = x2^-1 leave x1^2; x3 has order 3 and commutes
    (3, ((1, -2), (1, 2), (3, 3, 3), (1, 3, 1, -3)), 6, 1),
    # b = a^3 = a: the coincidences run through a's one column
    (2, ((1, 1), (-2, 1, 1, 1)), 2, 1),
]


@pytest.mark.parametrize("ngens, relators, order, involutions",
                         INVOLUTION_CASES)
def test_involution_columns_match_reference(ngens, relators, order,
                                            involutions):
    p = Presentation(ngens, relators)
    table = coset_enumerate(p)
    assert table.ncosets == order
    assert table.stats.involutions == involutions
    _same_outcome(p)
    _same_counts(p)
    for k in (1, 2, 3, 5, 8, 13):
        _same_outcome(p, max_cosets=k)
        _same_outcome(p, max_deductions=k)


def test_coincidence_with_a_self_loop_in_a_dying_row():
    # b a b^-1 kills a, which elimination does not see in a conjugate, so
    # cosets hold self-loops c.a = c = c.a^-1 when they die; processing
    # a's entry of such a row clears its a^-1 entry.  With a b^2 the group
    # is Z2
    p = Presentation(2, ((2, 1, -2), (1, 2, 2)))
    assert coset_enumerate(p).ncosets == 2
    _same_outcome(p)
    _same_counts(p)


@pytest.mark.parametrize("key", ["dihedral:4", "quaternion:8", "elemab:3:2"])
def test_stats_repeat_and_match_reference(key):
    p = _square_presentation(key)
    stats = _same_counts(p)
    assert coset_enumerate(p).stats == stats
    assert (stats.generators, stats.survivors) \
        == (p.ngens, _eliminated(p).ngens)


@pytest.mark.parametrize("key, stats", [
    # with the squares scanned: 50,622 scans and 784 cosets defined
    ("elemab:2:3", presentations.EnumerationStats(
        64, 49, 49, 588, 784, 239, 12_564, 288_492, 531)),
    # with the squares scanned: 67,963 scans and 2,244 cosets defined
    ("product:cyclic:4,cyclic:4", presentations.EnumerationStats(
        256, 81, 45, 1044, 1608, 615, 38_502, 228_762, 21_382)),
])
def test_square_stats(key, stats):
    assert coset_enumerate(_square_presentation(key)).stats == stats
    # a skipped twin moves a scan to skipped: their sum is unchanged
    assert stats.scans + stats.skipped == {
        "elemab:2:3": 301_056, "product:cyclic:4,cyclic:4": 267_264}[key]


# -- elimination and standardization ----------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=30)))
def test_free_reduce_matches_word_by_word(words):
    if not words:
        return
    letters = np.array(words, dtype=np.int64)
    got, lengths = presentations._free_reduce(letters.T.copy())
    for word, length, column in zip(words, lengths.tolist(),
                                    got.T.tolist()):
        want = reduce_word([x for x in word if x])
        assert length == len(want)
        assert column == want + [0] * (len(word) - len(want))


def test_eliminate_kills_and_identifies():
    # x2 = 1, x3 = x1^-1, x4 = x3 = x1^-1; x5 appears only in x5^3
    p = Presentation(5, ((2,), (3, 1), (4, -3), (1, 2, 1, 5, 5, 5), (5,) * 3))
    image, ngens, words, lengths = presentations._eliminate(p)
    assert image.tolist() == [1, 0, -1, -1, 2] and ngens == 2
    assert words.T.tolist() == [[1, 1, 2, 2, 2], [2, 2, 2, 0, 0]]
    assert lengths.tolist() == [5, 3]


def test_eliminate_leaves_a_conjugated_short_relator():
    # relators are reduced freely, not cyclically: x1 x2 x1^-1 does not
    # kill x2, and the enumeration still finds the group of order 2
    p = Presentation(2, ((1, 2, -1), (1,) * 2))
    image, ngens, _, _ = presentations._eliminate(p)
    assert image.tolist() == [1, 2] and ngens == 2
    assert coset_enumerate(p).ncosets == 2


def test_eliminate_keeps_a_conflict_as_a_square():
    # x1 = x2 and x1 = x2^-1: x1 survives and x1^2 stays a relator
    p = Presentation(2, ((1, -2), (1, 2), (1, 1, 1)))
    image, ngens, _, _ = presentations._eliminate(p)
    assert image.tolist() == [1, 1] and ngens == 1
    assert _eliminated(p).relators == ((1, 1), (1, 1, 1))
    assert coset_enumerate(p).ncosets == 1


@pytest.mark.parametrize("key", ["quaternion:8", "dihedral:4", "elemab:2:3"])
def test_eliminate_does_not_depend_on_relator_order(key):
    p = _square_presentation(key)
    image, ngens, _, _ = presentations._eliminate(p)
    perm = np.random.default_rng(0).permutation(len(p.relators))
    q = Presentation(p.ngens, [p.relators[i] for i in perm.tolist()])
    got, got_ngens, words, lengths = presentations._eliminate(q)
    assert got.tolist() == image.tolist() and got_ngens == ngens
    # each relator left is the free reduction of a relator's image, in
    # input order, the empty ones dropped; no relator gets longer
    images = [(r, reduce_word([y for y in (image[abs(x) - 1] * (x // abs(x))
                                           for x in r) if y]))
              for r in q.relators]
    assert _word_list(words, lengths) == [tuple(w) for _, w in images if w]
    assert all(len(w) <= len(r) for r, w in images)


@pytest.mark.parametrize("key", ["quaternion:8", "dihedral:4", "symmetric:3",
                                 "cyclic:6"])
def test_table_does_not_depend_on_the_strategy(key):
    p = _square_presentation(key)
    rows = expanded_rows(coset_enumerate(p))
    # the relators permuted
    perm = np.random.default_rng(1).permutation(len(p.relators)).tolist()
    shuffled = Presentation(p.ngens, [p.relators[i] for i in perm])
    assert expanded_rows(coset_enumerate(shuffled)).tobytes() \
        == rows.tobytes()
    # redundant length-2 relators that identify symbols the elimination
    # leaves apart, so a different presentation is enumerated
    image = presentations._eliminate(p)[0]
    first = {}
    extra = []
    for k in range(1, p.ngens + 1):
        j = first.setdefault(int(rows[0, 2 * k - 2]), k)
        if image[j - 1] != image[k - 1]:
            extra.append((j, -k))
    assert extra
    more = Presentation(p.ngens, p.relators + tuple(extra))
    assert presentations._eliminate(more)[1] \
        < presentations._eliminate(p)[1]
    assert expanded_rows(coset_enumerate(more)).tobytes() \
        == rows.tobytes()


def test_standardized_table_is_numbered_breadth_first():
    rows = expanded_rows(coset_enumerate(
        _square_presentation("quaternion:8")))
    order = np.concatenate([c for c, _, _ in
                            presentations.spanning_tree(rows)])
    assert order.tolist() == list(range(1, len(rows)))
    again, tree = presentations._standardize(rows)
    assert again.tobytes() == rows.tobytes()
    # the tree in the new labels is the standardized table's own
    for got, want in zip(tree, presentations.spanning_tree(rows),
                         strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def reference_expanded_table(presentation):
    """The table standardized as one column pair per letter, as
    coset_enumerate built it before it kept the survivors' columns: HLT's
    rows expanded so that each letter reads its survivor's column, or
    the identity column when it is killed, then standardized.  Returns
    the rows and their tree."""
    image, ngens, words, lengths = presentations._eliminate(presentation)
    rows, _ = presentations._enumerate_rows(
        ngens, words, lengths, presentations.DEFAULT_MAX_COSETS,
        presentations.MAX_SCANS)
    letters = np.multiply.outer(image, (1, -1)).ravel()
    full = np.column_stack([rows, np.arange(len(rows))])[
        :, np.where(letters == 0, 2 * ngens, presentations._columns(letters))]
    return presentations._standardize(full)


def same_standardization(presentation, table):
    """The table coset_enumerate gave for ``presentation``, standardized
    over the survivors' columns, expands to the table standardized over
    every letter's column, and its tree reaches each coset from the same
    parent, by the column that the expanded tree's letter reads."""
    rows, tree = reference_expanded_table(presentation)
    got = expanded_rows(table)
    assert (got.dtype, got.shape, got.tobytes()) \
        == (rows.dtype, rows.shape, rows.tobytes())
    for (cosets, parents, cols), want in zip(table.tree, tree, strict=True):
        assert np.array_equal(cosets, want[0])
        assert np.array_equal(parents, want[1])
        assert np.array_equal(cols, table.letters[want[2]])


# finite groups on generators 1..k: Z5, S3, D4 and Q8
_BASES = [(1, ((1,) * 5,)),
          (2, ((1, 1, 1), (2, 2), (1, 2, 1, 2))),
          (2, ((1, 1, 1, 1), (2, 2), (1, 2, 1, 2))),
          (2, ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)))]


@st.composite
def _presentations_with_short_relators(draw):
    """A base group with up to four more generators, each killed, equal
    to an earlier generator or to its inverse, or to both (which makes
    that generator an involution), or an involution that commutes with
    every earlier generator; the relators shuffled."""
    k, relators = draw(st.sampled_from(_BASES))
    relators = list(relators)
    extra = draw(st.integers(0, 4))
    for x in range(k + 1, k + extra + 1):
        y = draw(st.integers(1, x - 1))
        kind = draw(st.sampled_from(
            ["killed", "equal", "inverse", "both", "involution"]))
        if kind == "killed":
            relators.append((x,))
        if kind in ("equal", "both"):
            relators.append((x, -y))
        if kind in ("inverse", "both"):
            relators.append((y, x))
        if kind == "involution":
            relators.append((x, x))
            relators += [(x, a, -x, -a) for a in range(1, x)]
    return Presentation(k + extra, draw(st.permutations(relators)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_presentations_with_short_relators())
def test_reduced_standardization_matches_expanded(presentation):
    same_standardization(presentation, coset_enumerate(presentation))


def test_wide_table_uses_64_bit_entries():
    # (max_cosets + 1) * 2 * ngens does not fit int32
    p = Presentation(2, ((1, 1, 1, 1), (2, 2), (1, 2, 1, 2)))
    _same_outcome(p, max_cosets=2 ** 31)


# -- reference relator layers -------------------------------------------------
# The word-by-word relator code that the array layers replaced, verbatim
# apart from names: Presentation.__post_init__ as a function of the words,
# the relator loop of tensor_presentation, _representatives, _length_groups
# and table_to_group.

def reference_reduce(ngens, relators):
    reduced = []
    for w in relators:
        r = reduce_word(w)
        for letter in r:
            if not 1 <= abs(letter) <= ngens:
                raise ValueError(f"letter {letter} out of range")
        if r:
            reduced.append(tuple(r))
    return tuple(reduced)


def reference_tensor_relators(pair):
    G, H = pair.G, pair.H
    n, m = G.order, H.order

    def sym(g, h):
        return g * m + h + 1        # 1-based generator index

    A, B = pair.alpha_maps, pair.beta_maps
    relators = []
    seen = set()

    def add(word):
        w = tuple(word)
        if w not in seen:
            seen.add(w)
            relators.append(w)

    for g in range(n):
        for g1 in range(n):
            gg1 = G.mul(g, g1)
            gc = reference_conj(G, g, g1)
            for h in range(m):
                hc = int(B[g1, h])
                add((-sym(gg1, h), sym(gc, hc), sym(g1, h)))
    for g in range(n):
        for h in range(m):
            for h1 in range(m):
                hh1 = H.mul(h, h1)
                ga = int(A[h1, g])
                hc = reference_conj(H, h, h1)
                add((-sym(g, hh1), sym(g, h1), sym(ga, hc)))
    return reference_reduce(n * m, tuple(relators))


def reference_representatives(relators, ngens=None):
    """The first relator of each class under rotation and inversion.  With
    ``ngens``, a relator too long for an int64 key in radix 2*ngens + 1
    is a class of its own."""
    seen = set()
    reps = []
    for r in relators:
        variants = {tuple(w[i:] + w[:i])
                    for w in (r, tuple(-x for x in reversed(r)))
                    for i in range(len(w))}
        key = min(variants)
        if key not in seen or ngens is not None \
                and (2 * ngens + 1) ** len(r) > 2 ** 63:
            seen.add(key)
            reps.append(r)
    return reps


def reference_twins(ngens, words, column):
    """Whether each word is a twin: its columns, or its inverse's columns,
    equal the columns of an earlier word, so that it closes wherever that
    word does.  A word too long for an int64 key of its columns is none."""
    seen = set()
    twins = []
    for w in words:
        cols = tuple(column[x] for x in w)
        inverse = tuple(column[-x] for x in reversed(w))
        twins.append((2 * ngens) ** len(w) <= 2 ** 63
                     and (cols in seen or inverse in seen))
        seen.add(cols)
    return twins


def reference_length_groups(words, min_size, twins):
    by_length = {}
    for i, w in enumerate(words):
        if i not in twins:
            by_length.setdefault(len(w), []).append(i)
    return [(np.array(idx), np.array([[_col(x) for x in words[i]]
                                      for i in idx]).T)
            for idx in by_length.values() if len(idx) >= min_size]


def reference_table_to_group(table, presentation):
    n = table.ncosets
    rows = expanded_rows(table)
    words = {0: []}
    queue = [0]
    while queue:
        c = queue.pop(0)
        for k in range(1, presentation.ngens + 1):
            for letter in (k, -k):
                d = int(rows[c, _col(letter)])
                if d not in words:
                    words[d] = words[c] + [letter]
                    queue.append(d)
    if len(words) != n:
        raise presentations.TableIncomplete(
            "table is not transitive on cosets")
    group_table = np.empty((n, n), dtype=np.intp)
    for j in range(n):
        cur = np.arange(n)
        for letter in words[j]:
            cur = rows[cur, _col(letter)]
        group_table[:, j] = cur
    group = tf.FiniteGroup(group_table, validate=False)
    gen_images = [int(rows[0, _col(k)])
                  for k in range(1, presentation.ngens + 1)]
    return group, gen_images


def reference_store(relators):
    """The relators as one int64 letters x words array with 0 below each
    word, and their lengths."""
    words = np.zeros((max(map(len, relators), default=0), len(relators)),
                     dtype=np.int64)
    for r, w in enumerate(relators):
        words[:len(w), r] = w
    return words, [len(w) for w in relators]


def _same_store(got, want):
    """Two stores of relators are equal: shape, dtype, letters, lengths."""
    (gw, gl), (ww, wl) = got, want
    assert gw.dtype == ww.dtype == np.int64 and gw.shape == ww.shape
    assert gw.tobytes() == ww.tobytes() and list(gl) == list(wl)


def _same_arrays(got, want):
    assert len(got) == len(want)
    for (gi, gc), (wi, wc) in zip(got, want):
        assert gi.tolist() == wi.tolist()
        assert gc.dtype == wc.dtype and gc.tobytes() == wc.tobytes()


def _check_relator_layers(p):
    """The store, the representatives and the scan columns of a
    presentation equal the reference's, and the store is read-only."""
    assert not p._words.flags.writeable and not p._lengths.flags.writeable
    _same_store((p._words, p._lengths), reference_store(p.relators))
    reps = reference_representatives(p.relators, p.ngens)
    idx = presentations._representatives(p.ngens, p._words, p._lengths)
    assert [p.relators[i] for i in idx.tolist()] == reps
    # the generators with a square relator read one column each, and
    # relators of length 2 are not scanned
    involutions = {abs(r[0]) for r in reps if len(r) == 2 and r[0] == r[1]}
    column = _Enumerator(p.ngens, 1, 1, involutions).column
    colmap = np.arange(2 * p.ngens)
    colmap[[2 * y - 1 for y in involutions]] -= 1
    scanned = [r for r in reps if len(r) > 2]
    for dtype in (np.int32, np.int64):
        rels, filtered, twins = presentations._scan_columns(
            p.ngens, p._words, p._lengths, colmap, np.dtype(dtype))
        assert rels == [(tuple(column[x] for x in r),
                         tuple(column[-x] for x in r), len(r) - 1)
                        for r in scanned]
        want = reference_twins(p.ngens, scanned, column)
        assert twins.tolist() == want
        # the filter's length groups, shortest first, without the twins
        groups = reference_length_groups(
            scanned, presentations.FILTER_MIN_RELATORS,
            {i for i, twin in enumerate(want) if twin})
        _same_arrays(filtered, [(i, colmap[c].astype(dtype)) for i, c in
                                sorted(groups, key=lambda g: len(g[1]))])


def _tensor_pairs():
    # every conjugation square of the catalog up to order 16 (at most 256
    # symbols), every trivial pair up to order 8 (14 groups) and the
    # benchmark's trivial pairs
    groups = catalog_groups_up_to(16)
    for key, G in groups:
        conj = conjugation_maps(G)
        yield f"{key}^2", ActionPair(G, G, conj, conj, validate=False)
    small = [(k, G) for k, G in groups if G.order <= 8]
    for g, G in small:
        for h, H in small:
            yield f"{g} x {h}", ActionPair.trivial(G, H)
    for g, h in BENCHMARK_TRIVIAL_PAIRS:
        yield f"{g} x {h}", ActionPair.trivial(tf.make_catalog_group(g),
                                               tf.make_catalog_group(h))


def test_tensor_relators_match_reference():
    n = 0
    for name, pair in _tensor_pairs():
        p = tensor_presentation(pair)[0]
        assert p.relators == reference_tensor_relators(pair), name
        _check_relator_layers(p)
        # after elimination involutions share columns, and twins appear
        _check_relator_layers(_eliminated(p))
        n += 1
    assert n == 31 + 14 * 14 + 5


def test_round_trip_relator_layers_match_reference():
    for _, G in catalog_groups_up_to(27):
        rels = tuple((i + 1, j + 1, -(G.mul(i, j) + 1))
                     for i in range(G.order) for j in range(G.order))
        p = Presentation(G.order, rels)
        assert p.relators == reference_reduce(G.order, rels)
        _check_relator_layers(p)


def _same_group(table, p):
    got, got_images = table_to_group(table)
    want, want_images = reference_table_to_group(table, p)
    assert got.table.tobytes() == want.table.tobytes()
    assert got_images == want_images
    assert all(type(x) is int for x in got_images)


@pytest.mark.parametrize("key", BENCHMARK_SQUARES)
def test_square_group_matches_reference(key):
    p = _square_presentation(key)
    _same_group(coset_enumerate(p), p)


def test_trivial_pair_and_round_trip_groups_match_reference():
    for g, h in BENCHMARK_TRIVIAL_PAIRS:
        pair = ActionPair.trivial(tf.make_catalog_group(g),
                                  tf.make_catalog_group(h))
        p = tensor_presentation(pair)[0]
        _same_group(coset_enumerate(p), p)
    for _, G in catalog_groups_up_to(27):
        rels = tuple((i + 1, j + 1, -(G.mul(i, j) + 1))
                     for i in range(G.order) for j in range(G.order))
        p = Presentation(G.order, rels)
        _same_group(coset_enumerate(p), p)


def test_table_to_group_refuses_intransitive_table():
    rows = np.array([[0, 0], [1, 1]])
    p = Presentation(1, ())
    table = hand_table(rows)
    for convert in (table_to_group,
                    lambda table: reference_table_to_group(table, p)):
        with pytest.raises(presentations.TableIncomplete,
                           match="not transitive"):
            convert(table)


def _reduced_outcome(reduce_, ngens, words):
    try:
        return ("relators", reduce_(ngens, words))
    except Exception as exc:
        return (type(exc), str(exc))


_letters = st.integers(-5, 5)


@settings(max_examples=300, deadline=None)
@given(ngens=st.integers(0, 4),
       words=st.lists(st.lists(_letters, max_size=12), max_size=8),
       long_word=st.one_of(st.none(), st.lists(_letters, min_size=1,
                                                max_size=6)),
       at=st.integers(0, 8))
def test_presentation_reduces_like_reference(ngens, words, long_word, at):
    words = [tuple(w) for w in words]
    if long_word is not None:
        # one word of length 1000 at a drawn position
        words.insert(at, tuple((long_word * 1000)[:1000]))
    want = _reduced_outcome(reference_reduce, ngens, words)
    got = _reduced_outcome(
        lambda n, ws: Presentation(n, ws).relators, ngens, words)
    assert got == want
    if want[0] == "relators":
        _check_relator_layers(Presentation(ngens, words))
        if words and len({len(w) for w in words}) == 1:
            # one length: the same words given as one integer array
            array = Presentation(ngens, np.array(words, dtype=np.int32))
            assert array.relators == want[1]


def test_presentation_takes_any_integer_sequence():
    words = [[np.int64(1), np.int64(2)], (2, -2, 1), np.array([1, 1, 1])]
    p = Presentation(2, words)
    assert p.relators == ((1, 2), (1,), (1, 1, 1))
    assert all(type(x) is int for r in p.relators for x in r)
    # a letter that is not an integer, or one beyond MAX_LETTER, is refused
    # even where it would cancel
    with pytest.raises(ValueError):
        Presentation(2, [(1.0, 2.0)])
    with pytest.raises(ValueError):
        Presentation(2, [(2 ** 70, -2 ** 70, 1)])
    with pytest.raises(ValueError, match="letter 3 out of range"):
        Presentation(2, [(1, 2), (3,), (0,)])
    with pytest.raises(ValueError, match="0 is not a valid letter"):
        Presentation(2, [(1, 2), (0, 3), (3,)])


def test_presentation_arrays_are_read_only_and_not_compared():
    # the reduced third word keeps its place, with a 0 below it
    p = Presentation(2, ((1, 2, 1), (2, 2), (1, -1, 2, 2)))
    q = Presentation(2, ((1, 2, 1), (2, 2), (2, 2)))
    assert p == q and hash(p) == hash(q)
    assert "_words" not in repr(p) and "_lengths" not in repr(p)
    assert not p._words.flags.writeable and not p._lengths.flags.writeable
    assert p._words.T.tolist() == [[1, 2, 1], [2, 2, 0], [2, 2, 0]]
    assert p._lengths.tolist() == [3, 2, 2]


def test_store_keeps_input_order_and_zeros_only_below_each_word():
    # (2, -2) reduces to nothing; x3 = 1 then empties (-2, 3, 3, 2)
    p = Presentation(3, [(1, 1, 1), (2, -2), (3,), (1, 2, 1, 2, 3, -3),
                         (-2, 3, 3, 2), (2, 2)])
    assert p._words.T.tolist() == [[1, 1, 1, 0], [3, 0, 0, 0], [1, 2, 1, 2],
                                   [-2, 3, 3, 2], [2, 2, 0, 0]]
    assert p._lengths.tolist() == [3, 1, 4, 4, 2]
    image, ngens, words, lengths = presentations._eliminate(p)
    assert image.tolist() == [1, 2, 0] and ngens == 2
    assert words.dtype == np.int64
    assert words.T.tolist() == [[1, 1, 1, 0], [1, 2, 1, 2], [2, 2, 0, 0]]
    assert lengths.tolist() == [3, 4, 2]
    for ws, ks in ((p._words, p._lengths), (words, lengths)):
        assert ((ws != 0) == (np.arange(len(ws))[:, None] < ks)).all()
    # <a, b | a^3, (ab)^2, b^2> is the symmetric group S3
    assert coset_enumerate(p).ncosets == 6
    empty = Presentation(2, [(1, -1)])
    assert empty._words.shape == (0, 0) and empty.relators == ()


@pytest.mark.parametrize("word, message", [
    ((1.7, 2), "letter 1.7 is not an integer"),
    ((2.9,), "letter 2.9 is not an integer"),
    ((1, "a"), "letter 'a' is not an integer"),
    ((1, (1, 2)), "letter (1, 2) is not an integer"),
    ((2 ** 70, -2 ** 70, 1), "letter 1180591620717411303424 out of range"),
    ((2 ** 63, -1), "letter 9223372036854775808 out of range"),
    ((-2 ** 63, 1), "letter -9223372036854775808 out of range"),
    # this letter's inverse is the int64 maximum, the free-reduction
    # sweep's empty-stack marker; unbounded, the word reduced to (7,)
    ((-(2 ** 63 - 1), 5, 7), "letter -9223372036854775807 out of range"),
    ((2 ** 62 + 1, -2 ** 62 - 1), "letter 4611686018427387905 out of range"),
])
def test_presentation_refuses_non_integer_and_huge_letters(word, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Presentation(8, [word])
    # refused in any position and any container; an earlier faulty word
    # of another kind still comes first
    with pytest.raises(ValueError, match=re.escape(message)):
        Presentation(8, [(1, 2), (3, -3), list(word), (1,)])
    with pytest.raises(ValueError, match="0 is not a valid letter"):
        Presentation(8, [(1, 0), word])
    with pytest.raises(ValueError, match="letter 9 out of range"):
        Presentation(8, [(9, 1, 1), word])


def test_cancelling_letters_below_the_bound_still_pass():
    p = Presentation(2, [(5, -5, 1), (2 ** 62, -2 ** 62),
                         (-2 ** 62, 2 ** 62, 2)])
    assert p.relators == ((1,), (2,))


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
def test_word_arrays_of_any_integer_dtype_give_the_tuple_relators(dtype):
    rng = np.random.default_rng(7)
    words = rng.integers(1, 6, size=(40, 4))
    if np.dtype(dtype).kind == "i":
        words *= rng.choice([-1, 1], size=words.shape)
        words[::5, 1] = -words[::5, 0]  # some words reduce
        words[::7, 2] = -words[::7, 1]
    words = words.astype(dtype)
    want = Presentation(5, [tuple(int(x) for x in w) for w in words])
    got = Presentation(5, words)
    assert got.relators == want.relators
    _same_store((got._words, got._lengths), (want._words, want._lengths))


def test_relators_view_is_built_once_and_read_only():
    p = Presentation(2, ((1, 2, 1), (2, 2), (1, -1, 2, 2)))
    assert p._relators is None          # nothing builds it on construction
    coset_enumerate(p)
    assert p._relators is None
    view = p.relators
    assert view == ((1, 2, 1), (2, 2), (2, 2)) and p.relators is view
    assert all(type(w) is tuple for w in view)
    with pytest.raises(AttributeError):
        p.relators = ()
    with pytest.raises(AttributeError):
        p.ngens = 3
    assert p == Presentation(2, view) and hash(p) == hash((2, view))
    assert p != Presentation(3, view) and p != (2, view)
    assert repr(p) == ("Presentation(ngens=2, "
                       "relators=((1, 2, 1), (2, 2), (2, 2)))")
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p and q.relators == view
        _same_store((q._words, q._lengths), (p._words, p._lengths))


@pytest.mark.parametrize("length", [6, 7])
def test_representatives_at_the_64_bit_key_boundary(length):
    # 513^6 < 2^63 < 513^7: over 256 generators the words of length 7 have
    # no int64 key, and each is a class of its own
    rng = np.random.default_rng(length)
    words = [tuple(int(x) for x in w) for w in
             rng.choice([-3, -2, -1, 1, 2, 3, 255, -256], size=(60, length))]
    # rotations and inverses of earlier words fall into their classes
    words += [w[2:] + w[:2] for w in words[:20]]
    words += [tuple(-x for x in reversed(w)) for w in words[10:30]]
    # shorter words among them: the filter takes the words of each length
    # apart, and those of length 5 are too few for it
    for k, count in ((4, 90), (5, 30)):
        words += [tuple(int(x) for x in w) for w in rng.choice(
            [1, 2, 3, 4, 5, 255, -256], size=(count, k))]
    p = Presentation(256, [words[i] for i in rng.permutation(len(words))])
    assert len([r for r in reference_representatives(p.relators)
                if len(r) == 4]) >= presentations.FILTER_MIN_RELATORS
    assert ((2 * 256 + 1) ** length > 2 ** 63) == (length == 7)
    _check_relator_layers(p)
    idx = presentations._representatives(p.ngens, p._words, p._lengths)
    kept = [p.relators[i] for i in idx.tolist()]
    classed = reference_representatives(p.relators)
    if length == 6:
        assert kept == classed
    else:
        assert [r for r in kept if len(r) == 7] \
            == [r for r in p.relators if len(r) == 7]
        assert len(kept) > len(classed)
        assert [r for r in kept if len(r) < 7] \
            == [r for r in classed if len(r) < 7]
