"""Finitely presented groups and Todd-Coxeter coset enumeration.

Words are sequences of signed 1-based generator indices: +k is generator
k, -k its inverse.  The enumerator is HLT (relator scanning with
immediate filling) over the trivial subgroup; coset 0 is the subgroup
coset, cosets are numbered in order of first definition and dead cosets
are compacted away with the order preserved, so identical input yields a
bit-identical table.

The working table is one flat ``array`` of row offsets: coset c owns the
entries c*ncols .. c*ncols + ncols - 1, and an entry holds the offset
d*ncols of the coset d it reaches.  A hole holds -ncols, which indexes
the trailing row of holes from the end, so a trace that meets a hole
stays in that row.  The same buffer is read by numpy without a copy.

In HLT a relator that traces from a live coset alpha back to alpha stays
closed there: definitions only add entries and coincidences only
re-point entries to representatives, so its scan from alpha is a no-op
whenever it comes.  When the loop reaches alpha, one numpy pass traces
every relator of each large length group from alpha and only the
relators that do not end at alpha are scanned, in their original order.
The table therefore evolves exactly as without the filter.  Skipped
scans still count against the scan budget, so ``max_deductions`` is
exhausted at the same scan and with the same message.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import LimitExceeded, TableIncomplete
from .groups import FiniteGroup

DEFAULT_MAX_COSETS = 200_000

# Relators of one length are traced by numpy only when there are at least
# this many of them; for fewer, one gather per letter costs more than the
# scalar scans it saves.  Measured on multiplication-table presentations,
# the filter breaks even at 57 length-3 relators and saves 12% at 91; on
# <a | a^1000> filtering the lone relator made enumeration 14 times slower.
FILTER_MIN_RELATORS = 64

# Entries per numpy block when validating a finished table.
VALIDATE_BLOCK = 16_384


def reduce_word(word):
    """Freely reduce: iterated cancellation of adjacent inverse pairs."""
    out = []
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(int(letter))
    return out


def invert_word(word):
    return [-letter for letter in reversed(word)]


@dataclass(frozen=True)
class Presentation:
    """Abstract generators 1..ngens plus freely reduced relator words."""

    ngens: int
    relators: tuple = ()

    def __post_init__(self):
        reduced = []
        for w in self.relators:
            r = reduce_word(w)
            for letter in r:
                if not 1 <= abs(letter) <= self.ngens:
                    raise ValueError(f"letter {letter} out of range")
            if r:
                reduced.append(tuple(r))
        object.__setattr__(self, "relators", tuple(reduced))


def _col(letter):
    # generator k -> column 2(k-1); inverse -> 2(k-1)+1
    k = abs(letter) - 1
    return 2 * k if letter > 0 else 2 * k + 1


@dataclass
class CosetTable:
    """A complete coset table: rows[c][col] is the coset reached from c."""

    ngens: int
    rows: np.ndarray

    @property
    def ncosets(self):
        return len(self.rows)

    def trace(self, coset, word):
        for letter in word:
            coset = int(self.rows[coset, _col(letter)])
        return coset


class _Enumerator:
    """HLT state.  Cosets are named by their row offset in ``table``;
    ``dead`` maps each dead coset to the coset it was merged into."""

    def __init__(self, ngens, max_cosets):
        n = self.ncols = 2 * ngens
        # the largest value ever computed from an entry is an offset into
        # max_cosets + 1 rows
        self.typecode = "i" if (max_cosets + 1) * n < 2 ** 31 else "q"
        self.hole_row = array(self.typecode, [-n]) * n
        self.table = self.hole_row * 2      # coset 0 and the hole row
        self.dead = {}
        self.max_cosets = max_cosets
        self.defined = 1

    def rep(self, k):
        # union-find with path compression toward smaller offsets
        dead = self.dead
        r = k
        while r in dead:
            r = dead[r]
        while k != r:
            nxt = dead[k]
            dead[k] = r
            k = nxt
        return r

    def define(self, alpha, col):
        if self.defined >= self.max_cosets:
            raise LimitExceeded(
                f"coset limit {self.max_cosets} reached; group may be "
                "infinite or the budget too small")
        t = self.table
        # the hole row becomes the new coset and a new hole row follows it
        beta = len(t) - self.ncols
        t.extend(self.hole_row)
        self.defined += 1
        t[alpha + col] = beta
        t[beta + (col ^ 1)] = alpha
        return beta

    def _merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.dead[b] = a
            queue.append(b)

    def coincidence(self, a, b):
        t = self.table
        hole = -self.ncols
        queue = []
        self._merge(a, b, queue)
        for gamma in queue:             # the queue grows while it is read
            for col in range(self.ncols):
                delta = t[gamma + col]
                if delta < 0:
                    continue
                icol = col ^ 1
                t[delta + icol] = hole
                mu, nu = self.rep(gamma), self.rep(delta)
                x = t[mu + col]
                if x >= 0:
                    self._merge(nu, x, queue)
                    continue
                y = t[nu + icol]
                if y >= 0:
                    self._merge(mu, y, queue)
                else:
                    t[mu + col] = nu
                    t[nu + icol] = mu

    def scan_and_fill(self, alpha, cols):
        t = self.table
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and (g := t[f + cols[i]]) >= 0:
                f = g
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and (g := t[b + (cols[j] ^ 1)]) >= 0:
                b = g
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                t[f + cols[i]] = b
                t[b + (cols[i] ^ 1)] = f
                return
            self.define(f, cols[i])


def _representatives(relators):
    """One relator per class under rotation and inversion, in order of
    first occurrence: a relator holds from every coset iff any rotation
    or the inverse does."""
    seen = set()
    reps = []
    for r in relators:
        variants = {tuple(w[i:] + w[:i])
                    for w in (r, tuple(-x for x in reversed(r)))
                    for i in range(len(w))}
        key = min(variants)
        if key not in seen:
            seen.add(key)
            reps.append(r)
    return reps


def _length_groups(words, min_size=1):
    """(original indices, columns as a letters x words matrix) for each
    word length with at least ``min_size`` words."""
    by_length = {}
    for i, w in enumerate(words):
        by_length.setdefault(len(w), []).append(i)
    return [(np.array(idx), np.array([[_col(x) for x in words[i]]
                                      for i in idx]).T)
            for idx in by_length.values() if len(idx) >= min_size]


def coset_enumerate(presentation, max_cosets=None, max_deductions=None):
    """Enumerate cosets of the trivial subgroup; HLT strategy.

    Completes iff the presented group is finite and fits in the limits;
    the number of live cosets is then the group order.  The only failure
    mode is LimitExceeded.
    """
    max_cosets = DEFAULT_MAX_COSETS if max_cosets is None else max_cosets
    max_steps = max_deductions if max_deductions is not None else 50_000_000
    if max_cosets <= 0 or max_steps <= 0:
        raise ValueError("limits must be positive")
    rows = _enumerate_rows(presentation, max_cosets, max_steps)
    table = CosetTable(presentation.ngens, rows)
    # completion is validated against the full relator list
    _validate_complete(table, presentation)
    return table


def _enumerate_rows(presentation, max_cosets, max_steps):
    reps = _representatives(presentation.relators)
    rels = [tuple(_col(x) for x in r) for r in reps]
    nrel = len(rels)
    enum = _Enumerator(presentation.ngens, max_cosets)
    n, t, dead = enum.ncols, enum.table, enum.dead
    dtype = np.dtype(enum.typecode)
    groups = [(idx, cols.astype(dtype))
              for idx, cols in _length_groups(reps, FILTER_MIN_RELATORS)]
    closed = np.zeros(nrel, dtype=bool)
    steps = 0
    alpha = 0
    while alpha < len(t) - n:
        if alpha in dead:
            alpha += n
            continue
        todo = range(nrel)
        if groups:
            # a zero-copy view; it must be dropped before define() can
            # grow the array
            view = np.frombuffer(t, dtype)
            for idx, cols in groups:
                cur = view[alpha + cols[0]]
                for c in cols[1:]:
                    cur = view[cur + c]
                closed[idx] = cur == alpha
            del view
            todo = np.flatnonzero(~closed).tolist()
        done = 0
        for k in todo:
            steps += k - done + 1       # skipped scans count as scans
            if steps > max_steps:
                raise LimitExceeded(f"scan budget {max_steps} exhausted")
            enum.scan_and_fill(alpha, rels[k])
            done = k + 1
            if alpha in dead:
                break
        else:
            steps += nrel - done
            if steps > max_steps:
                raise LimitExceeded(f"scan budget {max_steps} exhausted")
            for col in range(n):
                if t[alpha + col] < 0:
                    enum.define(alpha, col)
        alpha += n

    # compact: live cosets in order, every entry sent to its representative
    table = np.frombuffer(t, dtype).reshape(-1, n)[:-1]
    rep = np.arange(len(table))
    for d in dead:
        rep[d // n] = enum.rep(d) // n
    live = rep == np.arange(len(table))
    entries = table[live]
    if (entries < 0).any():
        raise LimitExceeded("enumeration halted with holes in table")
    renum = np.cumsum(live, dtype=np.intp) - 1
    return renum[rep[entries // n]]


def _validate_complete(table, presentation):
    """Every generator column must be a permutation and every relator must
    trace to the identity permutation -- no wrong-order completions."""
    rows = table.rows
    n, ncols = rows.shape
    want = np.arange(n)
    bad = np.flatnonzero((np.sort(rows, axis=0) != want[:, None]).any(axis=0))
    if len(bad):
        raise TableIncomplete(f"column {bad[0]} is not a permutation")
    # trace every relator from every coset over offsets into the flat rows
    offsets = (rows * ncols).ravel()
    cb = min(n, VALIDATE_BLOCK)
    rb = max(1, VALIDATE_BLOCK // cb)
    first_bad = len(presentation.relators)
    for idx, cols in _length_groups(presentation.relators):
        for r0 in range(0, len(idx), rb):
            block = cols[:, r0:r0 + rb, None]
            for c0 in range(0, n, cb):
                start = want[None, c0:c0 + cb] * ncols
                cur = start
                for c in block:
                    cur = offsets[cur + c]
                fails = np.flatnonzero((cur != start).any(axis=1))
                if len(fails):
                    first_bad = min(first_bad, int(idx[r0 + fails[0]]))
    if first_bad < len(presentation.relators):
        r = presentation.relators[first_bad]
        raise TableIncomplete(f"relator {r} does not trace to identity")


def table_to_group(table, presentation):
    """Turn a complete coset table over the trivial subgroup into a
    FiniteGroup; returns the group and the image element of each abstract
    generator.

    Element i is live coset i; multiplication traces the BFS
    representative word of the right factor from the left factor.
    """
    n = table.ncosets
    # BFS representative words from coset 0, scanning generator columns in
    # order: deterministic and short
    words = {0: []}
    queue = [0]
    while queue:
        c = queue.pop(0)
        for k in range(1, presentation.ngens + 1):
            for letter in (k, -k):
                d = int(table.rows[c, _col(letter)])
                if d not in words:
                    words[d] = words[c] + [letter]
                    queue.append(d)
    if len(words) != n:
        raise TableIncomplete("table is not transitive on cosets")
    group_table = np.empty((n, n), dtype=np.intp)
    for j in range(n):
        cur = np.arange(n)
        for letter in words[j]:
            cur = table.rows[cur, _col(letter)]
        group_table[:, j] = cur
    group = FiniteGroup(group_table, validate=False)
    gen_images = [int(table.rows[0, _col(k)])
                  for k in range(1, presentation.ngens + 1)]
    return group, gen_images
