"""Finitely presented groups and Todd-Coxeter coset enumeration.

Words are sequences of signed 1-based generator indices: +k is generator
k, -k its inverse.  ``_free_reduce`` is the one free reduction: a word is
reduced by reading it back as the relator of a ``Presentation``.
``coset_enumerate`` works in three steps:

1. ``_eliminate`` applies Tietze moves by the relators of length at most
   2.  A relator x kills x; a relator x^a y^b with x != y makes the larger
   index a power of the smaller.  The map is substituted into the other
   relators, which are reduced freely, until no relator is that short.
   No relator gets longer.
2. HLT (relator scanning with immediate filling) enumerates the cosets of
   the trivial subgroup over the presentation that is left.  Coset 0 is
   the subgroup coset, cosets are numbered in order of first definition
   and dead cosets are compacted away with the order preserved.  Every
   length-2 relator left is a square y^2 or y^-2, so y is an involution:
   y and y^-1 share one column, which is its own inverse, and every entry
   is written in pairs through the inverse-column map.  The table then
   enforces the squares, and they are not scanned.  Compaction copies
   y's column into y^-1's, which stays a hole until then.
3. The table stays over the survivors' columns, and each letter of the
   original presentation is mapped to the column it reads, or to the
   identity for a killed generator.  The table is standardized: the
   cosets are renumbered in the breadth-first order of ``spanning_tree``
   over the survivors' columns, which is the order over every letter's
   column (``coset_enumerate`` says why).  The labels therefore depend
   only on the group and the images of the generators, not on the
   strategy, and identical input yields a bit-identical table, which
   keeps that tree, relabelled.  The table is then validated against the
   full relator list of the original presentation, each letter read
   through the map; relators whose column words are rotations of each
   other or of each other's inverses share one trace.  No expanded table,
   one column pair per original generator, is built.

A relator holds at every coset iff any rotation of it or of its inverse
does.  ``_first_of_classes`` is the one routine that finds these classes,
for HLT's scan list and for validation alike.

A ``Presentation`` keeps its relators once, in input order, in the
layout of ``_free_reduce``: one read-only int64 letters x words array
``_words`` with 0 below each word, and their ``_lengths``.  They are
checked and freely reduced in one vectorised pass.  Every layer up to
``table_to_group`` reads this store, and only ``_representatives`` and
``_scan_columns`` group the relators by length; the tuples of
``relators`` are built only when that is read.

The working table is one flat ``array`` of row offsets: coset c owns the
entries c*ncols .. c*ncols + ncols - 1, and an entry holds the offset
d*ncols of the coset d it reaches.  A hole holds -ncols, which indexes
the trailing row of holes from the end, so a trace that meets a hole
stays in that row.  The same buffer is read by numpy without a copy.  A
coincidence reads each dying row once through such a view and walks only
the entries defined there: no coset is defined while it runs, and a dead
row only loses entries.  It resolves the dying row's representative once,
and again only after a merge, and looks no live coset up in the
union-find.

HLT scans, inline in the coset loop, one representative of each class
of the other relators under rotation and inversion.  A relator that
traces from a live coset alpha back to alpha stays closed there:
definitions only add entries and coincidences only re-point entries to
representatives, so its scan from alpha is a no-op whenever it comes.
A twin, whose columns or whose inverse's columns equal an earlier
relator's (an involution's two letters read one column), closes with
it, and is never scanned.  When the loop reaches alpha, one numpy pass
traces the other relators of each large length group from alpha and
only those that do not end at alpha are scanned, in their original
order.  A length-3 relator is traced once more in three table reads
before its scan, which is left out when the trace ends at alpha: a hole
leads into the hole row and never back, so the trace ends at alpha
exactly when the scan would be a no-op.  That is every relator the
library scans, since tensor and round-trip relators have length 3.  The
table therefore evolves exactly as if all were scanned.

The scan budget ``MAX_SCANS`` counts one scan per scanned relator at
each coset the loop reaches, twins, filtered ones and those the
three-read trace found closed included, so it is exhausted at the same
scan and with the same message as if all were scanned; it is checked
against one bound per coset on the index of the scan.  Both limits
bound the enumeration of the reduced presentation, and their errors say
how far it got, the scan in progress included.  ``coset_enumerate``
attaches the counts of its work to the table as ``EnumerationStats``.
"""

from __future__ import annotations

import numbers
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import LimitExceeded, TableIncomplete
from .groups import (BLOCK_ENTRIES, MAX_CATALOG_ORDER, check_regular,
                     first_occurrences, from_columns, spanning_tree)

DEFAULT_MAX_COSETS = 200_000

# The scan budget of every enumeration: one scan per scanned relator at
# each coset the HLT loop reaches.
MAX_SCANS = 50_000_000

# Relators of one length are traced by numpy only when there are at least
# this many of them; for fewer, one gather per letter costs more than the
# scalar scans it saves.  Measured on multiplication-table presentations,
# the filter breaks even at 57 length-3 relators and saves 12% at 91; on
# <a | a^1000> filtering the lone relator made enumeration 14 times slower.
FILTER_MIN_RELATORS = 64

# Letters beyond this magnitude are refused before free reduction, whose
# int64 sweep reads MAX_LETTER + 1 as the top of an empty stack.
MAX_LETTER = 2 ** 62


class Presentation:
    """Abstract generators 1..ngens plus freely reduced relator words,
    given as a sequence of words or as one 2-D integer array of them.
    ``relators`` is a tuple of int tuples, built on first use."""

    __slots__ = ("ngens", "_words", "_lengths", "_relators")

    def __init__(self, ngens, relators=()):
        words, lengths = _relator_arrays(ngens, relators)
        for name, value in zip(self.__slots__,
                               (ngens, words, lengths, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Presentation is immutable: {name!r}")

    def __reduce__(self):               # copies and pickles rebuild it
        return Presentation, (self.ngens, self.relators)

    @property
    def relators(self):
        if self._relators is None:
            object.__setattr__(self, "_relators", tuple(
                w[:k] for w, k in zip(zip(*self._words.tolist()),
                                      self._lengths.tolist())))
        return self._relators

    def __eq__(self, other):
        return isinstance(other, Presentation) and \
            (self.ngens, self.relators) == (other.ngens, other.relators)

    def __hash__(self):
        return hash((self.ngens, self.relators))

    def __repr__(self):
        return (f"Presentation(ngens={self.ngens!r}, "
                f"relators={self.relators!r})")


def _relator_arrays(ngens, words):
    """The freely reduced non-empty words in input order, as
    ``_free_reduce`` returns them: one read-only int64 letters x words
    array with 0 below each word, and their lengths.  The first faulty
    word in input order raises what ``_letter_error`` gives for it."""
    if isinstance(words, np.ndarray) and words.ndim == 2 \
            and words.dtype.kind in "iu":
        lengths = np.full(len(words), words.shape[1])
        bad = ((words == 0) | (words > MAX_LETTER)
               | (words < -MAX_LETTER)).any(axis=1)
        ws = words.T.astype(np.int64)
    else:
        words = list(map(tuple, words))
        lengths = np.array([len(w) for w in words], dtype=np.intp)
        try:
            letters = np.array([x for w in words for x in w])
        except ValueError:              # letters that are sequences
            letters = np.array(())
        if letters.dtype.kind not in "iu" or letters.ndim != 1:
            # a word for which _letter_error finds a fault as 0s
            letters = np.array([x for w in words for x in (
                (0,) * len(w) if _letter_error(w) else w)], dtype=np.int64)
        inside = np.arange(lengths.max(initial=0)) < lengths[:, None]
        bad = np.zeros(inside.shape, dtype=bool)
        bad[inside] = ((letters == 0) | (letters > MAX_LETTER)
                       | (letters < -MAX_LETTER))
        bad = bad.any(axis=1)
        ws = np.zeros(inside.shape[::-1], dtype=np.int64)
        ws.T[inside] = letters
    ws[:, bad] = 0                      # a faulty word reduces to nothing
    ws, lengths = _free_reduce(ws)
    bad |= (np.abs(ws) > ngens).any(axis=0)
    if bad.any():
        r = np.flatnonzero(bad)[0]
        raise _letter_error(words[r], ws[:, r].tolist(), ngens)
    keep = lengths > 0
    ws, lengths = ws[:lengths.max(initial=0), keep], lengths[keep]
    ws.setflags(write=False)
    lengths.setflags(write=False)
    return ws, lengths


def _letter_error(word, reduced=(), ngens=0):
    """The error for a word's first letter that is not an integer, for a
    0, or for its first letter beyond MAX_LETTER in magnitude, else for
    the first letter of its free reduction out of range; or None."""
    for x in word:
        if not isinstance(x, numbers.Integral):
            return ValueError(f"letter {x!r} is not an integer")
    if 0 in word:
        return ValueError("0 is not a valid letter")
    out = [x for x in word if abs(int(x)) > MAX_LETTER]
    out += [x for x in reduced if abs(x) > ngens]
    return ValueError(f"letter {out[0]} out of range") if out else None


@dataclass(frozen=True)
class EnumerationStats:
    """The work of one ``coset_enumerate`` call.  Coset 0 is given, not
    defined; a skipped scan, of a twin or a relator the numpy filter found
    closed, is not made.  A scan of a length-3 relator that traces back to
    its coset in three table reads stops there: it counts in ``scans``,
    and in ``closed``."""

    generators: int         # of the presentation given
    survivors: int          # left by _eliminate
    involutions: int        # survivors with one shared column
    relators: int           # scanned at each coset
    defined: int            # cosets defined
    coincidences: int       # primary coincidences processed
    scans: int              # relator scans made
    skipped: int            # scans of twins and closed relators skipped
    closed: int             # scans made that found a length-3 relator closed


@dataclass
class CosetTable:
    """A complete coset table over the columns HLT enumerated, as
    ``coset_enumerate`` builds it: ``reduced[c, k]`` is the coset reached
    from c by column k, and ``letters[l]`` the column that letter column l
    of the presentation reads (generator k at 2(k-1), its inverse at
    2(k-1)+1), or ``reduced.shape[1]`` for the identity, which a killed
    generator reads.  Columns 2k and 2k+1 are mutually inverse.
    ``stats`` are the counts of the run and ``tree`` the
    ``spanning_tree`` of ``reduced``."""

    reduced: np.ndarray
    letters: np.ndarray
    stats: EnumerationStats
    tree: list = field(repr=False, compare=False)

    @property
    def ncosets(self):
        return len(self.reduced)


def _columns(letters):
    # generator k -> column 2(k-1); inverse -> 2(k-1)+1
    return 2 * np.abs(letters) - 2 + (letters < 0)


def _representatives(ngens, words, lengths):
    """The ascending indices of one relator per class under rotation and
    inversion, the first of its class: a relator holds from every coset
    iff any rotation or the inverse does.  ``words`` and ``lengths`` hold
    the relators as ``Presentation._words`` and ``_lengths`` do.  Classes
    are found per length by ``_first_of_classes``, with letter x read as
    the digit x + ngens, so that its inverse reads 2*ngens - digit."""
    base = 2 * ngens + 1
    flip = np.arange(base)[::-1]
    first = np.zeros(len(lengths), dtype=bool)
    for length in np.bincount(lengths).nonzero()[0].tolist():
        idx = (lengths == length).nonzero()[0]
        first[idx[_first_of_classes(words[:length, idx] + ngens, flip,
                                    base)]] = True
    return first.nonzero()[0]


def _first_of_classes(digits, inverse, base):
    """The ascending indices of the first word of each class under
    rotation and inversion, for the words of a letters x words array of
    digits below ``base``; ``inverse[d]`` is the digit of d's inverse,
    so a word's inverse is ``inverse[word]`` read right to left.

    A class is keyed by the least rotation of the word and of its
    inverse, each read as an int64 in mixed radix ``base``.  When the
    keys do not fit 64 bits, every word is its own class."""
    length, count = digits.shape
    if base ** length > 2 ** 63:
        return np.arange(count)
    both = np.concatenate([digits, inverse[digits[::-1]]], axis=1)
    top = base ** (length - 1)
    radix = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
    key = least = radix @ both
    for d in both[:-1]:
        # rotate the leading letter to the end
        key = (key - d * top) * base + d
        np.minimum(least, key, out=least)
    return first_occurrences(np.minimum(least[:count], least[count:]))


def _free_reduce(words):
    """Freely reduce words stored letter by letter: column r of the
    letters x words array ``words`` is word r, 0 marks a deleted letter.
    Returns the reduced words in the same layout, each packed to the top
    with 0 below it, and their lengths.

    One sweep over the letter positions pushes each letter onto its
    word's stack or pops the inverse letter on top of it."""
    length, count = words.shape
    # flat stacks: letter i of word r at (i + 1) * count + r, over a row
    # that no inverse letter equals, read as the top of an empty stack
    out = np.empty((length + 1) * count, dtype=words.dtype)
    out[:count] = MAX_LETTER + 1
    top = np.arange(count)              # each stack's top entry
    steps = count * (words != 0)
    for x, minus, step in zip(words, -words, steps):
        pop = out[top] == minus
        out[count:][top] = x
        top += np.where(pop, -count, step)
    out = out.reshape(length + 1, count)[1:]
    top //= count
    # clear what was pushed and popped again, or never written
    out[np.arange(1, length + 1)[:, None] > top] = 0
    return out, top


def _eliminate(presentation):
    """Tietze moves by the relators of length at most 2; none lengthens a
    relator.

    Each round substitutes the current map, one gather, into the
    relators that hold a generator whose image has changed (at first into
    all of them) and reduces them freely in one sweep.  A relator left
    with one letter kills its generator; one left as x^a y^b with x != y
    makes the larger of x, y a power of the smaller.  Rounds repeat until no
    relator is left that short.  Relators are not reduced cyclically, so
    a short relator hidden in a conjugate, such as x y x^-1, eliminates
    nothing.  The map is a signed union-find in which 0 stands for the
    identity and the smallest index of a class survives; a round links
    roots, then maps every letter through its root in one gather.  The short
    relators are read deduplicated and sorted, so the map does not depend
    on the order of the relators.  A relator that the map turns into y^2
    (from x = y and x = y^-1) stays, and makes y an involution in HLT.

    Returns ``image``, the signed reduced generator that each generator
    1..ngens equals (0 if it is killed), the number of reduced
    generators, and the nonempty reduced relators in input order with
    their lengths, as ``Presentation._words`` and ``_lengths`` hold them.
    """
    n = presentation.ngens

    def short(ws, length):
        # x as (x, 0), x y as (x, y); not the empty relator or a square
        s = ((length <= 2) & (ws[0] != ws[1])).nonzero()[0]
        return set(zip(*ws[:2, s].tolist()))

    # the relators, freely reduced already, over at least two rows, so
    # that every relator has a second letter: 0 below a relator of one
    words = presentation._words
    ws = np.zeros((max(len(words), 2), words.shape[1]), dtype=np.int64)
    ws[:len(words)] = words
    length = presentation._lengths.copy()
    keys = short(ws, length)
    # the image of each letter, read at letter + n
    img = np.arange(-n, n + 1)
    while keys := sorted(keys):
        # a round's union-find over the roots of the classes so far: a
        # root y linked this round is x ** s for link[y] = (x, s), x < y
        cur = img[n:].tolist()
        link = {}

        def find(x):
            x, s = abs(cur[x]), -1 if cur[x] < 0 else 1
            while x in link:
                x, t = link[x]
                s *= t
            return x, s
        for a, b in keys:
            # a = b^-1, or a = 1 when b is the padding 0
            x, sx = find(abs(a))
            y, sy = find(abs(b))
            if x != y:
                if x > y:
                    x, y = y, x
                link[y] = (x, -sx * sy if a * b > 0 else sx * sy)
        # each linked root's new root, then every generator's through it
        root = np.arange(n + 1)
        linked = list(link)
        root[linked] = [x * s for x, s in map(find, linked)]
        old, img = img, np.sign(img) * root[np.abs(img)]
        rs = (img != old)[ws + n].any(axis=0).nonzero()[0]
        top = max(2, length[rs].max())  # only 0s below the longest in rs
        w, k = _free_reduce(img[ws[:top, rs] + n])
        ws[:top, rs], length[rs] = w, k
        keys = short(w, k)

    rank = np.zeros(n + 1, dtype=np.int64)
    survivors = (img[n:] == np.arange(n + 1)).nonzero()[0][1:]
    rank[survivors] = np.arange(1, len(survivors) + 1)
    keep = length > 0
    ws, img = ws[:length.max(initial=0), keep], img[n + 1:]
    return np.sign(img) * rank[np.abs(img)], len(survivors), \
        np.sign(ws) * rank[np.abs(ws)], length[keep]


def _standardize(rows):
    """The table with its cosets renumbered in the breadth-first order of
    ``spanning_tree``, which is SymPy's ``CosetTable.standardize`` order:
    the labels depend only on the group and the generators' images.  Also
    that tree in the new labels, which is the new table's own tree."""
    tree = spanning_tree(rows)
    order = np.concatenate([np.zeros(1, dtype=np.intp)]
                           + [c for c, _, _ in tree])
    label = np.empty(len(rows), dtype=np.intp)
    label[order] = np.arange(len(order))
    return label[rows[order]], [(label[c], label[p], cols)
                                for c, p, cols in tree]


def coset_enumerate(presentation, max_cosets=None):
    """Enumerate cosets of the trivial subgroup: HLT over the presentation
    that ``_eliminate`` leaves, standardized over the survivors' columns,
    with each letter of the presentation mapped to the column it reads.

    Standardizing the reduced rows numbers the cosets as standardizing
    the expanded table, one column per letter, would.  A class's survivor
    is its least generator, so in the expanded column order the
    survivors' columns first occur in their own order, each at its
    survivor's column pair; every other expanded column repeats an
    earlier one or is the identity, and reaches from each coset nothing
    that an earlier column did not.  Breadth-first order over the
    survivors' columns therefore reaches every coset from the same parent
    at the same step.

    Completes iff the presented group is finite and fits in the limits;
    the number of live cosets is then the group order.  The limits,
    ``max_cosets`` and MAX_SCANS, bound the enumeration of the reduced
    presentation: LimitExceeded when one is met, ValueError when
    ``max_cosets`` is not positive.  TableIncomplete is raised if the
    completed table fails validation against the full relators.
    """
    max_cosets = DEFAULT_MAX_COSETS if max_cosets is None else max_cosets
    if max_cosets <= 0:
        raise ValueError("max_cosets must be positive")
    image, ngens, words, lengths = _eliminate(presentation)
    rows, counts = _enumerate_rows(ngens, words, lengths, max_cosets,
                                   MAX_SCANS)
    # each generator's and its inverse's column: the survivor's column
    # for its image, or the identity column for a killed generator
    letters = np.multiply.outer(image, (1, -1)).ravel()
    rows, tree = _standardize(rows)
    table = CosetTable(rows, np.where(letters == 0, 2 * ngens,
                                      _columns(letters)),
                       EnumerationStats(presentation.ngens, ngens, *counts),
                       tree)
    # completion is validated against the full relator list
    _validate_complete(table, presentation)
    return table


def _scan_columns(ngens, words, lengths, colmap, dtype):
    """The scan list: the representatives longer than 2, in input order,
    each as its letters' columns and their inverse columns under
    ``colmap``, as tuples, and the index of its last letter; the squares
    are left to the table.  Also the
    mask of twins, whose columns, or inverse columns read right to left,
    equal an earlier relator's; a length too long for int64 keys in
    radix 2*ngens has none.  For each length with at least
    FILTER_MIN_RELATORS relators that are not twins, also their positions
    in the scan list and their columns as a letters x relators matrix of
    ``dtype``."""
    # a class holds relators of one length: only the longer are classed
    long = (lengths > 2).nonzero()[0]
    reps = long[_representatives(ngens, words[:, long], lengths[long])]
    words, lengths = words[:, reps], lengths[reps]
    cols = _columns(words)
    cols, icols = colmap[cols], colmap[cols ^ 1]
    # each relator cut to its own length: the 0s below it are no letters
    rels = [(c[:k], ic[:k], k - 1) for c, ic, k in
            zip(zip(*cols.tolist()), zip(*icols.tolist()), lengths.tolist())]
    twins = np.zeros(len(reps), dtype=bool)
    filtered = []
    for k in np.bincount(lengths).nonzero()[0].tolist():
        pos = (lengths == k).nonzero()[0]
        if (2 * ngens) ** k <= 2 ** 63:
            # a twin repeats the least key of a relator and its inverse
            radix = (2 * ngens) ** np.arange(k - 1, -1, -1, dtype=np.int64)
            keys = np.minimum(radix @ cols[:k, pos],
                              radix @ icols[k - 1::-1, pos])
            twins[pos] = True
            pos = pos[first_occurrences(keys)]
            twins[pos] = False
        if len(pos) >= FILTER_MIN_RELATORS:
            filtered.append((pos, cols[:k, pos].astype(dtype)))
    return rels, filtered, twins


def _trace(table, start, cols):
    """Trace from the offsets ``start`` through a flat table of offsets,
    one gather per row of the column matrix ``cols``."""
    for c in cols:
        start = table[start + c]
    return start


def _enumerate_rows(ngens, words, lengths, max_cosets, max_steps):
    """HLT over the presentation ``_eliminate`` leaves: the compacted rows
    and the counts of ``EnumerationStats`` from ``involutions`` on.

    Cosets are named by their row offset in the table ``t``; ``dead`` maps
    each dead coset to the coset it was merged into.  ``inv[col]`` is the
    column of the inverse letter.  An involutory generator y shares its
    column between y and y^-1, so that column is its own inverse and
    y^-1's column, the mirror, stays a hole until compaction fills it.
    ``used`` are the columns in use, and ``colmap`` sends every column to
    the one in use for its letter."""
    if not ngens:
        return np.zeros((1, 0), dtype=np.intp), (0,) * 7
    # every length-2 relator left is a square y^2 or y^-2: y is an
    # involution and its inverse's column is a mirror
    squares = np.abs(words[:1, lengths == 2]).ravel()
    mirrors = 2 * np.bincount(squares).nonzero()[0] - 1
    n = 2 * ngens
    colmap = np.arange(n)
    colmap[mirrors] = mirrors - 1
    inv = colmap[np.arange(n) ^ 1].tolist()
    used = (colmap == np.arange(n)).nonzero()[0].tolist()
    # the largest value ever computed from an entry is an offset into
    # max_cosets + 1 rows
    dtype = np.dtype("i" if (max_cosets + 1) * n < 2 ** 31 else "q")
    hole = -n
    hole_row = array(dtype.char, [hole]) * n
    t = hole_row * 2                    # coset 0 and the hole row
    dead = {}
    defined = 1                         # coset 0 included
    coincidences = 0

    def rep(c):
        # union-find with path compression toward smaller offsets
        r = c
        while r in dead:
            r = dead[r]
        while c != r:
            nxt = dead[c]
            dead[c] = r
            c = nxt
        return r

    def exhausted():
        return LimitExceeded(
            f"scan budget {max_steps} exhausted after {defined - 1} "
            f"cosets defined, {defined - len(dead)} live")

    def define(c, col):
        nonlocal defined
        if defined >= max_cosets:
            # k is the scan in progress, or nrel - 1 in the fill
            raise LimitExceeded(f"coset limit {max_cosets} reached after "
                                f"{steps + k + 1} scans")
        # the hole row becomes the new coset and a new hole row follows it
        beta = len(t) - n
        t.extend(hole_row)
        defined += 1
        t[c + col] = beta
        t[beta + inv[col]] = c
        return beta

    def coincidence(a, b):
        nonlocal coincidences
        coincidences += 1
        a, b = rep(a), rep(b)
        if a == b:
            return
        # the larger coset dies into the smaller
        dead[max(a, b)] = min(a, b)
        queue = [max(a, b)]
        # a zero-copy view: no define() runs here, so the buffer cannot grow
        view = np.frombuffer(t, dtype)
        for gamma in queue:             # the queue grows while it is read
            # gamma's representative changes only when cosets merge
            mu = rep(gamma)
            # gamma is dead, so its row only loses entries from here on;
            # each entry is read again, as a self-loop gamma.x = gamma
            # clears gamma.x^-1
            for col in (view[gamma:gamma + n] >= 0).nonzero()[0].tolist():
                delta = t[gamma + col]
                if delta < 0:
                    continue
                icol = inv[col]
                t[delta + icol] = hole
                nu = rep(delta) if delta in dead else delta
                x = t[mu + col]
                if x >= 0:
                    a, b = nu, rep(x)
                else:
                    y = t[nu + icol]
                    if y < 0:
                        t[mu + col] = nu
                        t[nu + icol] = mu
                        continue
                    a, b = mu, rep(y)
                if a != b:
                    dead[max(a, b)] = min(a, b)
                    queue.append(max(a, b))
                    mu = rep(gamma)
        del view

    # twins are never scanned, and the filter leaves them skipped
    rels, filtered, skip = _scan_columns(ngens, words, lengths, colmap,
                                         dtype)
    nrel = len(rels)
    todo = np.flatnonzero(~skip).tolist()
    # steps counts the scans of the cosets done, skipped ones included
    steps = scans = closed = 0
    alpha = 0
    # the table holds the cosets defined and one hole row
    while alpha < defined * n:
        if alpha in dead:
            alpha += n
            continue
        if filtered:
            # a zero-copy view; it must be dropped before define() can
            # grow the array
            view = np.frombuffer(t, dtype)
            for idx, cols in filtered:
                skip[idx] = _trace(view, alpha, cols) == alpha
            del view
            todo = np.flatnonzero(~skip).tolist()
        # scan k at this coset is step steps + k + 1 of the budget
        bound = max_steps - steps - 1
        for k in todo:
            if k > bound:
                raise exhausted()
            cols, icols, j = rels[k]
            # a length-3 relator closed at alpha: its scan is a no-op
            if j == 2 and \
                    t[t[t[alpha + cols[0]] + cols[1]] + cols[2]] == alpha:
                closed += 1
                continue
            # scan forward and back from alpha, defining cosets until
            # the relator closes or one entry is left to deduce
            f = b = alpha
            i = 0
            while True:
                while i <= j and (g := t[f + cols[i]]) >= 0:
                    f = g
                    i += 1
                if i > j:
                    break
                while j >= i and (g := t[b + icols[j]]) >= 0:
                    b = g
                    j -= 1
                if j <= i:
                    break
                define(f, cols[i])
            if i == j:
                t[f + cols[i]] = b
                t[b + icols[i]] = f
            elif f != b:
                # f != b also when the backward trace closed: b's
                # entry for letter i is defined and f's is a hole
                coincidence(f, b)
                if alpha in dead:
                    scans += bisect_right(todo, k)
                    steps += k + 1
                    break
        else:
            scans += len(todo)
            # the budget and a coset limit met while alpha's row is
            # filled count every scan of the coset
            k = nrel - 1
            if k > bound:
                raise exhausted()
            for col in used:
                if t[alpha + col] < 0:
                    define(alpha, col)
            steps += nrel
        alpha += n

    # compact: live cosets in order, every entry sent to its representative
    table = np.frombuffer(t, dtype).reshape(-1, n)[:-1]
    root = np.arange(len(table))
    for d in dead:
        root[d // n] = rep(d) // n
    live = root == np.arange(len(table))
    entries = table[live]
    entries[:, mirrors] = entries[:, mirrors - 1]   # y^-1 reads y's column
    if (entries < 0).any():
        raise LimitExceeded("enumeration halted with holes in table")
    renum = live.cumsum(dtype=np.intp) - 1
    counts = (len(mirrors), nrel, defined - 1, coincidences, scans,
              steps - scans, closed)
    # each offset becomes its coset in place, read through one map from
    # every coset to its representative's number: one |T| x columns
    # temporary, not three
    entries //= n
    return renum[root][entries], counts


def _validate_complete(table, presentation):
    """Every letter's column must be a permutation, undone by the column
    of the letter's inverse, and every relator must trace to the identity
    permutation -- no wrong-order completions.  The first relator in input
    order that does not is named.

    Each letter is read through ``table.letters`` as its column of the
    reduced rows or the identity: this checks the statement on the
    expanded table, one column per letter, while tracing only the reduced
    rows.

    A relator traces to the identity iff every rotation of it and of its
    inverse does, so each class of ``_first_of_classes`` shares one trace.
    Each column is read as the first column with the same entry at coset
    0 when one full comparison finds the two equal, else as itself; the
    inverse of column c is column c ^ 1, read so, and the identity column
    is its own.  Each relator's word in these columns is padded with the
    identity column, and the first word of each class is traced, in input
    order: a class fails as a whole, so the first failing relator is
    named."""
    rows, letters = table.reduced, table.letters
    n, ncols = rows.shape
    want = np.arange(n)
    # column c ^ 1 undoes column c iff both are permutations, each the
    # other's inverse
    flip = np.arange(ncols) ^ 1
    bad = (rows[rows, flip] != want[:, None]).any(axis=0)
    bad = np.flatnonzero(np.append(bad, False)[letters])
    if len(bad):
        raise TableIncomplete(f"column {bad[0]} is not a permutation undone "
                              f"by column {bad[0] ^ 1}")
    # trace every relator from every coset over offsets into the flat rows
    # and one identity column, which the 0s below each word read
    width = ncols + 1
    offsets = np.empty((n, width), dtype=rows.dtype)
    np.multiply(rows, width, out=offsets[:, :ncols])
    offsets[:, ncols] = want * width
    offsets = offsets.ravel()
    # each column's candidate: the first with the same entry at coset 0
    first = np.full(n, ncols)
    np.minimum.at(first, rows[0], np.arange(ncols))
    candidate = first[rows[0]]
    canon = np.arange(ncols + 1)
    canon[:ncols] = np.where((rows[:, candidate] == rows).all(axis=0),
                             candidate, canon[:ncols])
    # each letter's column through the letter map, the identity column
    # below each word
    words, lengths = presentation._words, presentation._lengths
    cols = canon[np.append(letters, ncols)[
        np.where(words == 0, -1, _columns(words))]]
    distinct = _first_of_classes(cols, np.append(canon[flip], ncols), width)
    cb = min(n, BLOCK_ENTRIES)
    rb = max(1, BLOCK_ENTRIES // cb)
    for r0 in range(0, len(distinct), rb):
        rs = distinct[r0:r0 + rb]
        # only 0s below the longest relator of the block
        block = cols[:lengths[rs].max(), rs, None]
        fails = np.zeros(block.shape[1], dtype=bool)
        for c0 in range(0, n, cb):
            start = want[None, c0:c0 + cb] * width
            fails |= (_trace(offsets, start, block) != start).any(axis=1)
        if fails.any():
            r = rs[np.flatnonzero(fails)[0]]
            word = tuple(words[:lengths[r], r].tolist())
            raise TableIncomplete(
                f"relator {word} does not trace to identity")


def table_to_group(table):
    """Turn a complete coset table over the trivial subgroup into a
    FiniteGroup; returns the group and the image element of each abstract
    generator.

    Element i is live coset i.  The group is built from the reduced rows
    and the table's spanning tree by ``groups.from_columns``, as
    ``automorphisms.automorphism_group`` builds Aut(G), and gathers its
    multiplication table only when it is read; no expanded table is
    built.  ``groups.check_regular`` checks that the action on cosets
    is regular, in place of trusting the enumeration.  A generator's
    image is coset 0 times the column its letter reads.  Above
    MAX_CATALOG_ORDER cosets, LimitExceeded is raised before anything is
    allocated.
    """
    rows = table.reduced
    n = table.ncosets
    if n > MAX_CATALOG_ORDER:
        raise LimitExceeded(f"{n} cosets exceed the {MAX_CATALOG_ORDER}-"
                            f"element cap for a group table")
    if 1 + sum(len(cosets) for cosets, _, _ in table.tree) != n:
        raise TableIncomplete("table is not transitive on cosets")
    group = from_columns(rows, table.tree)
    check_regular(group)
    return group, np.append(rows[0], 0)[table.letters[0::2]].tolist()
