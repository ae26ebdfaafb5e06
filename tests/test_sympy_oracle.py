"""Differential test: group orders from coset_enumerate against SymPy.

SymPy's enumerator is an independent implementation.  The presentations
are finite ones on 2 or 3 generators -- von Dyck groups, metacyclic groups
and rank-3 Coxeter groups, of order at most 60 -- with up to two random
relators added, short ones included, so that elimination fires.  SymPy
enumerates each of them in well under a second.

The oracle is SymPy's relator-based enumeration over the trivial subgroup
(``coset_enumeration_r``), the one ``FpGroup.order()`` ends in.  The
order is not asked of ``FpGroup.order()`` itself: its search for a
finite-index subgroup ran for more than 10 seconds on collapsing
quotients such as <a, b | a^2, b^3, (ab)^5, aba b^-1>, which the plain
enumeration finishes in 0.1 s.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tensorforge.presentations import Presentation, coset_enumerate

fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
from sympy.combinatorics.coset_table import coset_enumeration_r  # noqa: E402
from sympy.combinatorics.free_groups import free_group  # noqa: E402


def power(word, k):
    return tuple(word) * k


def von_dyck(l, m, n):
    """<a, b | a^l, b^m, (ab)^n>, finite for 1/l + 1/m + 1/n > 1."""
    return 2, [power((1,), l), power((2,), m), power((1, 2), n)]


def metacyclic(m, n, r):
    """<a, b | a^m, b^n, b^-1 a b a^-r> with r^n = 1 mod m: order m n."""
    return 2, [power((1,), m), power((2,), n), (-2, 1, 2) + power((-1,), r)]


def coxeter(p, q):
    """<a, b, c | a^2, b^2, c^2, (ab)^p, (bc)^q, (ac)^2>."""
    return 3, [(1, 1), (2, 2), (3, 3), power((1, 2), p), power((2, 3), q),
               (1, 3, 1, 3)]


BASES = ([von_dyck(2, 2, n) for n in range(2, 9)]
         + [von_dyck(2, 3, n) for n in (3, 4, 5)]
         + [metacyclic(m, n, r) for m in range(2, 13) for n in range(2, 5)
            for r in range(1, m) if pow(r, n, m) == 1]
         + [coxeter(p, q) for p, q in ((2, 2), (2, 3), (3, 3), (2, 4),
                                       (3, 4), (2, 5))])


def sympy_order(ngens, relators):
    free = free_group(" ".join(f"x{k}" for k in range(1, ngens + 1)))
    gens = free[1:]
    words = []
    for r in relators:
        w = free[0].identity
        for letter in r:
            w *= gens[abs(letter) - 1] ** (1 if letter > 0 else -1)
        words.append(w)
    table = coset_enumeration_r(fp_groups.FpGroup(free[0], words), [])
    table.compress()
    return len(table.table)


_letters = st.sampled_from([1, -1, 2, -2, 3, -3])


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from(BASES),
       extra=st.lists(st.lists(_letters, min_size=1, max_size=4),
                      max_size=2))
def test_order_matches_sympy(base, extra):
    ngens, relators = base
    relators = relators + [tuple(x for x in w if abs(x) <= ngens)
                           for w in extra]
    p = Presentation(ngens, relators)
    assert coset_enumerate(p).ncosets == sympy_order(ngens, p.relators)


@pytest.mark.parametrize("base, order", [(von_dyck(2, 3, 5), 60),
                                         (metacyclic(7, 3, 2), 21),
                                         (coxeter(3, 4), 48)])
def test_known_orders(base, order):
    ngens, relators = base
    p = Presentation(ngens, relators)
    assert coset_enumerate(p).ncosets == order == sympy_order(ngens,
                                                              p.relators)
