"""Exact arithmetic on finite groups given by dense Cayley tables.

Elements are integer indices; ``table[i][j]`` is the index of the product
of elements ``i`` and ``j``.  A group built by ``from_columns`` is given
by the right multiplications by its generators instead, and gathers its
table when it is first read; until then the functions that read products
only through generators (``generating_set``, ``commuting_with``,
``is_abelian``, ``center``, ``power_map`` of an abelian group and the
commutators) read them through those columns.  Conjugation is x^y =
y^-1 x y, gathered only by ``conjugates``, and the commutator [x, y] =
x^-1 y^-1 x y only by ``_commutator_rows``.  Every object here is
immutable after construction and every operation is a pure function of
its inputs, so everything is safe to use concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import CrossCheckFailed, LimitExceeded, NotAGroup

# The largest order of a group built from a catalog key, a group file or a
# direct product; the dense intp multiplication table of a group of this
# order takes 128 MiB.
MAX_CATALOG_ORDER = 4096


def _check_latin(table):
    """Return ("row", i) or ("col", i) for the first i whose row or column
    is not a permutation, the row first, or None.  The table is sorted
    once along each axis."""
    want = np.arange(len(table))
    rows = (np.sort(table, axis=1) != want).any(axis=1)
    cols = (np.sort(table, axis=0) != want[:, None]).any(axis=0)
    bad = np.flatnonzero(rows | cols)
    if not len(bad):
        return None
    i = int(bad[0])
    return ("row", i) if rows[i] else ("col", i)


def _find_identity(table):
    n = len(table)
    want = np.arange(n)
    for e in range(n):
        if (table[e] == want).all() and (table[:, e] == want).all():
            return e
    return None


def _check_associative(table, e):
    """Return a witness triple (i, j, k) or None.

    Light's test: the elements a with (x a) y = x (a y) for all x and y
    are closed under products, so checking every a of a greedy generating
    set, closed breadth-first from the identity ``e``, decides the whole
    table with one n x n comparison per generator.  Only a table that
    fails is swept row by row, keeping memory at O(n^2), for the first
    witness."""
    n = len(table)
    gens, _, _ = greedy_generators(n, e, lambda s: table[:, s], range(n))
    if all(np.array_equal(table[table[:, a]], table[:, table[a]])
           for a in gens):
        return None
    for i in range(n):
        left = table[table[i], :]      # (i*j)*k
        right = table[i, table]        # i*(j*k)
        if not np.array_equal(left, right):
            j, k = np.argwhere(left != right)[0]
            return (i, int(j), int(k))
    return None


class FiniteGroup:
    """A finite group as an order x order Cayley table over element
    indices, or, built by ``from_columns``, as its generators' columns,
    which gather the table when it is first read."""

    __slots__ = ("_table", "_columns", "order", "identity", "_inverse",
                 "names", "_abelian", "_orders", "_aut", "_conj", "_gens",
                 "_search_gens")

    def __init__(self, table, names=None, validate=True):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.intp))
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise NotAGroup("not-latin-square", ("shape", table.shape))
        n = len(table)
        if n == 0:
            raise NotAGroup("no-identity", None)
        if table.min() < 0 or table.max() >= n:
            raise NotAGroup("not-latin-square", ("entry-range",))
        if validate:
            bad = _check_latin(table)
            if bad is not None:
                raise NotAGroup("not-latin-square", bad)
        e = _find_identity(table)
        if e is None:
            raise NotAGroup("no-identity", None)
        # With a Latin square and an identity, row inverses exist; demand
        # they are two-sided before the (expensive) associativity sweep.
        inv = np.argmax(table == e, axis=1)
        if validate:
            if not np.all(table[inv, np.arange(n)] == e):
                i = int(np.argmax(table[inv, np.arange(n)] != e))
                raise NotAGroup("missing-inverse", (i,))
            wit = _check_associative(table, e)
            if wit is not None:
                raise NotAGroup("not-associative", wit)
        table.setflags(write=False)
        inv.setflags(write=False)
        self._fill(table, None, n, int(e), inv, names)

    def _fill(self, table, columns, order, identity, inverse, names):
        self._table = table
        self._columns = columns
        self.order = order
        self.identity = identity
        self._inverse = inverse
        self.names = list(names) if names is not None else None
        self._abelian = None
        self._orders = None
        self._aut = None
        self._conj = None
        self._gens = None
        self._search_gens = None

    @property
    def table(self):
        """The Cayley table, read-only.  A group built by ``from_columns``
        gathers it (``cayley_rows``) when it is first read."""
        if self._table is None:
            rows, tree = self._columns[:2]
            table = cayley_rows(rows, tree, np.arange(self.order))
            table.setflags(write=False)
            self._table = table
        return self._table

    @property
    def inverse(self):
        """The inverse of every element, read-only.  A group built by
        ``from_columns`` finds it one tree layer at a time when it is first
        read: the inverse of q s is s^-1 q^-1, read from the row of s^-1,
        which is where s's column holds the identity, its least entry."""
        if self._inverse is None:
            rows, tree = self._columns[:2]
            lefts = self.rows_at(np.argmin(rows, axis=0))
            inv = np.zeros(self.order, dtype=np.intp)
            for cosets, parents, cols in tree:
                inv[cosets] = lefts[cols, inv[parents]]
            inv.setflags(write=False)
            self._inverse = inv
        return self._inverse

    def column(self, s):
        """Right multiplication by s, x -> x*s: column s of the table, or,
        while a group built by ``from_columns`` has none, the composite of
        the generators' columns along s's word in their tree."""
        if self._table is not None:
            return self._table[:, s]
        rows, _, parent, col = self._columns
        word = []
        while s:
            word.append(col[s])
            s = parent[s]
        x = np.arange(self.order)
        for c in reversed(word):
            x = rows[x, c]
        return x

    def rows_at(self, xs):
        """Left multiplication by each of ``xs``, ``rows_at(xs)[i, y] =
        xs[i]*y``: rows xs of the table, or, while a group built by
        ``from_columns`` has none, gathered one tree layer at a time
        (``cayley_rows``)."""
        if self._table is not None:
            return self._table[xs]
        rows, tree = self._columns[:2]
        return cayley_rows(rows, tree, xs)

    # -- basic arithmetic -------------------------------------------------

    def mul(self, i, j):
        return int(self.table[i, j])

    def inv(self, i):
        return int(self.inverse[i])

    def power(self, x, k):
        if k < 0:
            x, k = self.inv(x), -k
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc

    def element_order(self, x):
        t, e = self.table, self.identity
        acc, k = x, 1
        while acc != e:
            acc = int(t[acc, x])
            k += 1
        return k

    def element_orders(self):
        if self._orders is None:
            orders = np.array([self.element_order(x) for x in range(self.order)])
            orders.setflags(write=False)
            self._orders = orders
        return self._orders

    def order_histogram(self):
        orders = self.element_orders()
        vals, counts = np.unique(orders, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    @property
    def is_abelian(self):
        """Whether the generators commute pairwise: whether their products
        s t, read off their rows (``rows_at``), are symmetric in s, t."""
        if self._abelian is None:
            gens = generating_set(self)
            products = self.rows_at(gens)[:, gens]
            self._abelian = bool((products == products.T).all())
        return self._abelian

    def name(self, i):
        if self.names is not None:
            return self.names[i]
        return str(i)

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


class Subgroup:
    """A subgroup of a parent group, stored as a sorted member tuple."""

    __slots__ = ("parent", "members", "_mask")

    def __init__(self, parent, members):
        self.parent = parent
        self.members = tuple(sorted(set(map(int, members))))
        mask = np.zeros(parent.order, dtype=bool)
        mask[list(self.members)] = True
        mask.setflags(write=False)
        self._mask = mask

    @property
    def order(self):
        return len(self.members)

    def __contains__(self, x):
        return bool(self._mask[x])

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.members == self.members)

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def mask(self):
        return self._mask

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.order})"


class GroupHom:
    """A total map between finite groups that is already known to respect
    products: ``homs.hom_from_images`` checks it, or the hom search built
    it.  Nothing here checks it again."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, mapping):
        mapping = np.ascontiguousarray(np.asarray(mapping, dtype=np.intp))
        if len(mapping) != source.order:
            raise ValueError("map length must equal source order")
        self.source = source
        self.target = target
        self.map = mapping
        self.map.setflags(write=False)

    def __call__(self, x):
        return int(self.map[x])

    def kernel(self):
        return Subgroup(self.source,
                        (self.map == self.target.identity).nonzero()[0])

    @property
    def is_bijective(self):
        """Equal orders and every element of the target an image, counted
        by ``np.bincount``: a plain ``np.unique`` imports ``numpy.ma``."""
        return bool(self.source.order == self.target.order and np.bincount(
            self.map, minlength=self.target.order).all())

    def __repr__(self):
        return f"GroupHom({self.source.order} -> {self.target.order})"


# -- constructors ---------------------------------------------------------

def from_cayley_table(raw, names=None):
    """Validate an untrusted table and wrap it.  All four group axioms are
    checked exhaustively; failures raise NotAGroup with a witness."""
    return FiniteGroup(raw, names=names, validate=True)


def from_columns(rows, tree):
    """The group of a regular permutation action given by its right
    multiplications by generators, ``rows[x, c] = x * s_c`` with element
    0 the identity, and their ``spanning_tree``.  Its Cayley table is
    gathered (``cayley_rows``) when first read; until then products are
    read through the columns (``FiniteGroup.column`` and ``rows_at``).
    ``check_regular`` checks that the action is regular."""
    n = len(rows)
    parent, col = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    for cosets, parents, cols in tree:
        parent[cosets], col[cosets] = parents, cols
    G = FiniteGroup.__new__(FiniteGroup)
    G._fill(None, (rows, tree, parent.tolist(), col.tolist()), n, 0, None,
            None)
    return G


def check_regular(G):
    """Raise NotAGroup("not-regular") unless the action by right
    multiplication of a group built by ``from_columns`` is regular, that
    is, unless its elements are a group's.  It is when left multiplication
    by each of ``generating_set``, gathered one tree layer at a time,
    commutes with every column: their composites then send 0 to every
    element, as the generators' columns do, and commute with the action,
    so the stabilizer of 0 fixes every element and is trivial.  The
    witness is a generator s, an element x and a column c with
    (s x) s_c != s (x s_c).  The check runs in blocks of at most
    BLOCK_ENTRIES entries."""
    rows = G._columns[0]
    gens = generating_set(G)
    step = max(1, BLOCK_ENTRIES // max(1, rows.shape[1]))
    for s, left in zip(gens.tolist(), G.rows_at(gens)):
        for start in range(0, G.order, step):
            # (s x) s_c against s (x s_c), for x in the block and every c
            bad = rows[left[start:start + step]] != left[rows[start:start
                                                              + step]]
            if bad.any():
                x, c = np.argwhere(bad)[0]
                raise NotAGroup("not-regular", (s, start + int(x), int(c)))


def make_cyclic(n):
    if n < 1:
        raise ValueError("n must be >= 1")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    if n == 1:
        names = ["1"]
    else:
        names = ["1", "a"] + [f"a^{i}" for i in range(2, n)]
    return FiniteGroup(table, names=names, validate=False)


def direct_product(a, b):
    """Direct product; element i*|b|+j is the pair (i, j).  Raises
    LimitExceeded, before any table is built, above MAX_CATALOG_ORDER."""
    n, m = a.order, b.order
    if n * m > MAX_CATALOG_ORDER:
        raise LimitExceeded(f"direct product of order {n} * {m} exceeds "
                            f"the {MAX_CATALOG_ORDER}-element cap")
    ai = np.repeat(np.arange(n), m)
    bj = np.tile(np.arange(m), n)
    # (i1,j1)*(i2,j2) = (i1*i2, j1*j2)
    t = a.table[ai[:, None], ai[None, :]] * m + b.table[bj[:, None], bj[None, :]]
    names = [f"({a.name(i)},{b.name(j)})" for i, j in zip(ai, bj)]
    return FiniteGroup(t, names=names, validate=False)


def conjugates(G, ys):
    """Rows ``ys`` (an index or an array) of the conjugation table,
    ``out[..., x] = y^-1 x y``: the library's one gather of x^y."""
    t = G.table
    return t[t[G.inverse[ys]], np.asarray(ys)[..., None]]


def conjugation_maps(G):
    """Stack of all inner automorphisms, read-only: row g is the map
    x -> g^-1 x g (``conjugates``).  Built once per group and cached."""
    if G._conj is None:
        conj = conjugates(G, np.arange(G.order))
        conj.setflags(write=False)
        G._conj = conj
    return G._conj


# -- generators and spanning trees ----------------------------------------

def spanning_tree(rows, root=0):
    """The breadth-first spanning tree of a coset table from ``root``, one
    layer at a time: a list of (cosets, parents, columns) in which each
    coset is first reached as rows[parent, column], scanning the previous
    layer's cosets in order and each coset's columns in order.  Any table
    of right multiplications works as ``rows``, such as the columns of a
    Cayley table at a tuple of generators, rooted at the identity."""
    n, ncols = rows.shape
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    frontier = np.full(1, root, dtype=np.intp)
    layers = []
    while True:
        reached = rows[frontier].ravel()
        first = (~seen[reached]).nonzero()[0]
        if not len(first):
            return layers
        if len(first) > 1:
            # the first occurrence of each coset, in scan order
            first = first[first_occurrences(reached[first])]
        cosets = reached[first]
        seen[cosets] = True
        parents, cols = np.divmod(first, ncols)
        layers.append((cosets, frontier[parents], cols))
        frontier = cosets


def first_occurrences(keys):
    """Sorted positions of each value's first occurrence in 1-D ``keys``."""
    order = keys.argsort(kind="stable")
    ordered, new = keys[order], np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return np.sort(order[new])


def greedy_generators(n, root, column, candidates):
    """Greedy generators, from ``candidates``, of a group or a loop on n
    elements given by its right multiplications: ``column(s)[x]`` is x*s.

    Each generator is the first candidate that right multiplication by
    the earlier ones does not reach from ``root``, the identity; what
    they reach is closed breadth-first, in Python, which beats a numpy
    pass per tree layer; its columns are memoryviews of intp arrays and
    ``seen`` a bytearray, so it keeps no Python int per entry.  In a
    group that is the subgroup the candidates generate.  It is the
    library's one closure:
    ``generating_set``, Aut(G)'s generators and Light's test pass
    every element in order, ``homs.search_set`` the generators it keeps,
    ``_commutator_step`` its commutators and ``subgroup_generated`` its
    own.  Returns the generators, their columns ``rows[x, j] =
    x*gens[j]`` and the elements reached, in order.
    """
    gens, cols = [], []
    seen = bytearray(n)
    seen[root] = True
    members = [root]
    for s in candidates:
        if len(members) == n:
            break
        if seen[s]:
            continue
        gens.append(int(s))
        cols.append(memoryview(np.ascontiguousarray(column(s),
                                                    dtype=np.intp)))
        # members[:known] are closed under the earlier generators
        known, i = len(members), 0
        while i < len(members):
            x = members[i]
            for c in (cols[-1:] if i < known else cols):
                if not seen[c[x]]:
                    seen[c[x]] = True
                    members.append(c[x])
            i += 1
    rows = np.empty((n, len(cols)), dtype=np.intp)
    for j, c in enumerate(cols):
        rows[:, j] = c
    return gens, rows, members


def cayley_rows(rows, layers, xs):
    """Rows ``xs`` of the Cayley table of a group from its right
    multiplications by generators, ``rows[x, c] = x * s_c``, with element
    0 the identity and ``layers = spanning_tree(rows)``: ``out[i, y] =
    xs[i] * y``.

    Column p*s is x -> (x p) s, the gather rows[column p, s]: one per tree
    layer, in row blocks of at most BLOCK_ENTRIES entries."""
    xs = np.asarray(xs, dtype=np.intp)
    out = np.empty((len(xs), len(rows)), dtype=np.intp)
    out[:, 0] = xs
    for cosets, parents, cols in layers:
        step = max(1, BLOCK_ENTRIES // len(cosets))
        for r in range(0, len(xs), step):
            out[r:r + step, cosets] = rows[out[r:r + step, parents], cols]
    return out


def row_keys(rows):
    """The rows of a matrix of non-negative integers as one void scalar
    each, the entries in big-endian bytes: the keys sort as the rows sort
    lexicographically, at any width."""
    rows = np.ascontiguousarray(rows, dtype=">u8")
    return rows.view(np.dtype((np.void, 8 * rows.shape[1])))[:, 0]


def key_index(keys, wanted):
    """The position of each of ``wanted`` in the increasing array
    ``keys``, or -1 where it is missing."""
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[pos] == wanted, pos, -1)


def enumerated_index(keys, wanted, what):
    """``key_index`` of the keys of composed or relabelled maps, which
    must all be among the enumerated maps' ``keys``; when one is missing,
    CrossCheckFailed says that ``what`` is not among them."""
    pos = key_index(keys, wanted)
    if (pos < 0).any():
        raise CrossCheckFailed(f"{what} is not among the enumerated maps")
    return pos


# -- subgroup machinery ---------------------------------------------------

def generating_set(G):
    """Greedy minimal generating set: repeatedly add the first element that
    enlarges the generated subgroup (``greedy_generators``).  A read-only
    intp array, which indexes any axis as a row of elements, computed
    once and cached on the group; the trivial group's is its identity, so
    a generating set is never empty."""
    if G._gens is None:
        gens = greedy_generators(G.order, G.identity, G.column,
                                 range(G.order))[0]
        G._gens = np.array(gens or [G.identity], dtype=np.intp)
        G._gens.setflags(write=False)
    return G._gens


def subgroup_generated(G, gens):
    """Smallest subgroup containing ``gens``: what they reach from the
    identity by right multiplication (``greedy_generators``)."""
    return Subgroup(G, greedy_generators(G.order, G.identity, G.column,
                                         gens)[2])


def commuting_with(G, gens):
    """Mask of the elements x of G with x s = s x for every s in
    ``gens``: the centralizer of the subgroup they generate, read off
    their columns and rows of the table alone (``FiniteGroup.column``
    and ``rows_at``)."""
    right = np.column_stack([G.column(s) for s in gens])
    return (right == G.rows_at(gens).T).all(axis=1)


def center(G):
    """Z(G): the elements that commute with every generator."""
    return Subgroup(G, np.flatnonzero(commuting_with(G, generating_set(G))))


def coset_labels(G, N):
    """Label every element of G by its coset xN of the normal subgroup N.

    Returns (reps, labels): cosets are numbered in increasing order of
    their least element, ``reps[c]`` is the least element of coset c and
    ``labels[x]`` the number of the coset of x.
    """
    reps, labels = np.unique(G.table[:, list(N.members)].min(axis=1),
                             return_inverse=True)
    return reps, labels


def second_hypercenter(G):
    """Z2(G), the preimage of the center of G/Z(G): the x with [s, x] in
    Z(G) for every generator s.  That suffices, as [gh, x] = [g, x]^h
    [h, x] and Z(G) is normal, so the g with [g, x] central are a
    subgroup."""
    comms = _commutator_rows(G, generating_set(G))     # [s, x]
    return Subgroup(G, np.flatnonzero(
        center(G).mask()[comms].all(axis=0)))


# Entries per block of the large temporaries built in blocks: commutators,
# the compatibility equations, the gathers that fill a Cayley table from
# its generators' columns and the relator traces that validate a finished
# coset table.
BLOCK_ENTRIES = 16_384


def _commutator_rows(G, xs):
    """Rows ``xs`` of the commutator table, ``out[i, y] = [xs[i], y]``:
    the library's one gather of [x, y], two lookups in the table.  While
    a group built by ``from_columns`` has none, [x, y] is x^-1 x^y: the
    conjugates x^(q s) = s^-1 x^q s are gathered one tree layer at a time
    through the rows of the generators' inverses (where their columns hold
    0, their least entry), and read through the row of x^-1."""
    xs = np.asarray(xs, dtype=np.intp)
    if G._table is not None:
        t, inv = G.table, G.inverse
        return t[t[inv[xs][:, None], inv], t[xs]]
    rows, tree = G._columns[:2]
    lefts = G.rows_at(np.argmin(rows, axis=0))
    conj = np.empty((len(xs), G.order), dtype=np.intp)
    conj[:, 0] = xs
    for cosets, parents, cols in tree:
        conj[:, cosets] = rows[lefts[cols, conj[:, parents]], cols]
    undo = G.rows_at(np.argmin(G.rows_at(xs), axis=1))
    return np.take_along_axis(undo, conj, axis=1)


def _commutators(G, xs):
    """The distinct [x, y] for x in ``xs`` and y in G, in row blocks of at
    most BLOCK_ENTRIES entries; in an abelian group, the identity alone."""
    if G.is_abelian:
        return [G.identity]
    step = max(1, BLOCK_ENTRIES // G.order)
    found = np.zeros(G.order, dtype=bool)
    for start in range(0, len(xs), step):
        found[_commutator_rows(G, xs[start:start + step])] = True
    return np.flatnonzero(found).tolist()


def _commutator_step(G, gens):
    """[N, G] for the subgroup N generated by ``gens``: its greedy
    generators, picked from the commutators [x, g] of x in ``gens`` and g
    in G, and the subgroup.  These commutators generate [N, G]: the
    subgroup M they generate is normal, as [x, g]^y = [x, y]^-1 [x, gy],
    and so [xy, g] = [x, g]^y [y, g] lies in M whenever [x, g] and [y, g]
    do."""
    picked, _, members = greedy_generators(
        G.order, G.identity, G.column, _commutators(G, gens))
    return picked, Subgroup(G, members)


def derived_subgroup(G):
    """G' = [G, G], one ``_commutator_step`` from ``generating_set(G)``."""
    return _commutator_step(G, generating_set(G))[1]


def _central_steps(G):
    """gamma_2, gamma_3, ... of the lower central series of G, each a
    ``_commutator_step`` from the generators picked for the one before,
    the first from ``generating_set(G)``, until a term is trivial or
    equals the one before: gamma_{k+1} <= gamma_k, so equal orders mean
    equal terms, and gamma_1 = G is never built."""
    gens, order = generating_set(G), G.order
    while order > 1:
        gens, nxt = _commutator_step(G, gens)
        if nxt.order == order:
            return
        order = nxt.order
        yield nxt


def power_map(G, p):
    """x -> x^p for every x of G and p >= 1, else ValueError.  While a
    group built by ``from_columns`` has no table and is abelian, it is
    gathered one tree layer at a time, as (q s)^p = q^p s^p: each q^p
    through the column of s p times; otherwise by p - 1 gathers of the
    table."""
    if p < 1:
        raise ValueError(f"power_map needs an exponent p >= 1, not {p}")
    if G._table is None and G.is_abelian:
        rows, tree = G._columns[:2]
        powers = np.zeros(G.order, dtype=np.intp)
        for cosets, parents, cols in tree:
            x = powers[parents]
            for _ in range(p):
                x = rows[x, cols]
            powers[cosets] = x
    else:
        powers = x = np.arange(G.order)
        for _ in range(p - 1):
            powers = G.table[powers, x]
    return powers


def nilpotency_class(G):
    """Smallest c with gamma_{c+1} trivial, or None when not nilpotent."""
    orders = [G.order] + [term.order for term in _central_steps(G)]
    return len(orders) - 1 if orders[-1] == 1 else None
