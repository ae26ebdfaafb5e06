"""Mutual actions of two groups and the compatibility conditions.

An action pair stores the two actions as dense permutation stacks:
``alpha_maps[h]`` is the automorphism of G induced by h (so ``g^h =
alpha_maps[h][g]``) and ``beta_maps[g]`` the automorphism of H induced by
g.  The defining compatibility equations

    g^(h^g1) = ((g^(g1^-1))^h)^g1      and symmetrically for H

are, between automorphisms, alpha(h^beta(g1)) = g1hat^-1 alpha(h) g1hat.

``is_compatible`` checks them as written, at every g, g1 and h, because
its assignments need not be homomorphisms (the paper's Z3 inversion
example); on failure it names the lexicographically first (g, g1, h).

Everything else decides conditions on homomorphisms at generators: a
homomorphism is fixed by its images of a generating set.  The grid and
the sweep feed one kernel, ``_equation_fails``, stacks of homomorphisms
alpha and beta, and it checks lab[h^beta(g1)] == conj_g1(lab[h]) at g1
in ``generating_set(G)`` and h in ``generating_set(H)`` only, where
``lab[h]`` labels alpha(h) and conj_g1 conjugates a label by g1hat; the
second equation is the same call with G and H swapped.  The labels are
indices in Aut(G) (``compatibility_grid``) or cosets of psi(y) modulo
Z(G), since conjugations by a and b agree iff a = b mod Z(G), and
g1hat^-1 zhat g1hat = (z^g1)hat (``hom_pair_compatibility_sweep``).
That is exact under the conventions used here: actions are right
actions, h^(g1 g2) = (h^g1)^g2, and automorphisms compose left factor
first (see ``automorphisms``).  For fixed g1 both sides are
homomorphisms in h, so agreeing on generators of H is agreeing
everywhere; and the g1 at which they agree form a subgroup, since
alpha(h^beta(g1 g2)) = g2hat^-1 alpha(h^beta(g1)) g2hat
= (g1 g2)hat^-1 alpha(h) (g1 g2)hat when g1 and g2 both agree.  The
hypercenter congruence and the test that an assignment is a
homomorphism are decided at generators by the same argument.  The
kernel packs its verdicts to bits and every other block holds at most
``BLOCK_ENTRIES`` entries, so memory stays O(|G||H|) for one pair.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .automorphisms import automorphism_group, normalizer_contains_inn
from .catalog import catalog_keys_up_to, make_catalog_group
from .errors import (AlphaNotInjective, BudgetExceeded, CrossCheckFailed,
                     InvalidAction, NormalizerConditionFails,
                     PsiNotInvolution)
from .groups import (BLOCK_ENTRIES, FiniteGroup, center, conjugates,
                     conjugation_maps, coset_labels, enumerated_index,
                     generating_set, key_index, make_cyclic, row_keys,
                     second_hypercenter)
from .homs import enumerate_homs, search_set


# The action pairs a compatibility grid may hold when no budget is given.
DEFAULT_GRID_BUDGET = 200_000


def _validate_action(G, H, maps, what):
    """Each row must be an automorphism of G and the identity must act
    trivially.  The assignment h -> maps[h] need not be a homomorphism
    (``_assignment_is_hom`` decides that): the worked Z3-on-Z3 example
    assigns the inversion automorphism to a generator of Z3, which is a
    perfectly good family of automorphisms but not a homomorphism into
    Aut(Z3).

    A bijection m is an automorphism iff m(x s) = m(x) m(s) for every x
    and every generator s (m(e) = e follows), so a row costs O(|G|) per
    generator, not the O(|G|^2) of the whole table.  The rows are checked
    in blocks of at most BLOCK_ENTRIES entries; the first failing row is
    named, as not a bijection before as not an automorphism.
    """
    maps = np.ascontiguousarray(np.asarray(maps, dtype=np.intp))
    if maps.shape != (H.order, G.order):
        raise InvalidAction(f"{what}: expected shape {(H.order, G.order)}")
    ar = np.arange(G.order)
    if not np.array_equal(maps[H.identity], ar):
        raise InvalidAction(f"{what}: identity must act trivially")
    gens = generating_set(G)
    products = G.table[:, gens]
    step = max(1, BLOCK_ENTRIES // (G.order * (len(gens) + 1)))
    for start in range(0, H.order, step):
        block = maps[start:start + step]
        bijective = (np.sort(block, axis=1) == ar).all(axis=1)
        # only bijections are indexed, so every entry lies in G
        m = np.where(bijective[:, None], block, ar)
        automorphic = (m[:, products] == G.table[
            m[:, :, None], m[:, None, gens]]).all(axis=(1, 2))
        bad = np.flatnonzero(~(bijective & automorphic))
        if len(bad):
            h = int(bad[0])
            fault = "a bijection" if not bijective[h] else "an automorphism"
            raise InvalidAction(f"{what}: row {start + h} is not {fault}")
    maps.setflags(write=False)
    return maps


def _assignment_is_hom(H, maps):
    """Is h -> maps[h] a homomorphism under left-factor-first composition?

    It is iff maps[h s] = compose(maps[h], maps[s]) for every h and every
    generator s: the s for which that holds at every h are closed under
    products, so they are all of H.
    """
    return all(np.array_equal(maps[H.table[:, s]], maps[s][maps])
               for s in generating_set(H))


ACTION_NAMES = ("trivial", "inversion", "conjugation")


def named_action(name, G, H):
    """The maps of H acting on G by one of ACTION_NAMES: "trivial";
    "inversion", in which the odd powers of the first generator of cyclic
    H invert abelian G and its even powers fix it (an action only for
    even |H|; the paper's Z3 example for H = Z3); or "conjugation", of G
    on itself.  InvalidAction names a group that does not fit."""
    if name == "trivial":
        return np.tile(np.arange(G.order), (H.order, 1))
    if name == "inversion":
        orders = H.element_orders()
        gens = [h for h in range(H.order) if orders[h] == H.order]
        if not gens:
            raise InvalidAction("inversion action needs a cyclic acting "
                                "group")
        if not G.is_abelian:
            raise InvalidAction("inversion is only an automorphism of an "
                                "abelian group")
        maps = np.empty((H.order, G.order), dtype=np.intp)
        power = H.identity
        for k in range(H.order):
            maps[power] = G.inverse if k % 2 else np.arange(G.order)
            power = H.mul(power, gens[0])
        return maps
    if name == "conjugation":
        if G.order != H.order or not np.array_equal(G.table, H.table):
            raise InvalidAction("conjugation action requires the two groups "
                                "to be the same")
        return conjugation_maps(G)
    raise InvalidAction(f"unknown action {name!r}; expected one of "
                        f"{', '.join(ACTION_NAMES)}")


class ActionPair:
    """A pair of mutual actions (alpha: H -> Aut(G), beta: G -> Aut(H))."""

    __slots__ = ("G", "H", "alpha_maps", "beta_maps")

    def __init__(self, G, H, alpha_maps, beta_maps, validate=True):
        self.G = G
        self.H = H
        if validate:
            self.alpha_maps = _validate_action(G, H, alpha_maps, "alpha")
            self.beta_maps = _validate_action(H, G, beta_maps, "beta")
        else:
            self.alpha_maps = np.ascontiguousarray(
                np.asarray(alpha_maps, dtype=np.intp))
            self.beta_maps = np.ascontiguousarray(
                np.asarray(beta_maps, dtype=np.intp))

    @classmethod
    def trivial(cls, G, H):
        return cls(G, H, named_action("trivial", G, H),
                   named_action("trivial", H, G), validate=False)

    def assignments_are_homs(self):
        """Whether both assignments are genuine homomorphisms into the
        automorphism groups (paper-style examples may assign per element)."""
        return (_assignment_is_hom(self.H, self.alpha_maps)
                and _assignment_is_hom(self.G, self.beta_maps))

    def swapped(self):
        return ActionPair(self.H, self.G, self.beta_maps, self.alpha_maps,
                          validate=False)

    def __repr__(self):
        return f"ActionPair(|G|={self.G.order}, |H|={self.H.order})"


@dataclass(frozen=True)
class Witness:
    equation: str                 # "first" or "second"
    g: Optional[int] = None
    g1: Optional[int] = None
    h: Optional[int] = None
    h1: Optional[int] = None
    lhs: Optional[int] = None
    rhs: Optional[int] = None


@dataclass(frozen=True)
class CompatibilityReport:
    compatible: bool
    witness: Optional[Witness] = None


def _equation_fails(lab, acts, maps, conj, G, H):
    """fails[a, b]: the homomorphisms (alpha_a, beta_b) break the first
    equation, where ``lab[a, h]`` is a scalar label of alpha_a(h),
    ``acts[maps[b, g1], h]`` is h^beta_b(g1) and ``conj[g1, l]`` labels
    g1hat^-1 l g1hat.

    The equation is checked at g1 in generating_set(G) and h in
    generating_set(H) only (module docstring).  At fixed g1 and h the left
    side depends on beta_b only through x = h^beta_b(g1), so one mask over
    (x, a), packed to bits over the alphas, is ORed in at each beta's x.
    """
    lab_t = np.ascontiguousarray(lab.T)     # [x, a]
    fails = np.zeros((len(maps), (len(lab) + 7) // 8), dtype=np.uint8)
    for g1 in generating_set(G):
        for h in generating_set(H):
            mask = np.packbits(lab_t != conj[g1, lab_t[h]], axis=1)
            fails |= mask[acts[maps[:, g1], h]]
    return np.unpackbits(fails, axis=1, count=len(lab)).T.view(bool)


def is_compatible(pair):
    """Exhaustive check of both defining equations at every point;
    deterministic first witness (lexicographic triple order) on failure.
    The assignments need not be homomorphisms."""
    sides = (("first", pair.G, pair.alpha_maps, pair.beta_maps, "g g1 h"),
             ("second", pair.H, pair.beta_maps, pair.alpha_maps, "h h1 g"))
    for equation, K, X, Y, names in sides:
        conj = conjugation_maps(K)
        first = None
        step = max(1, BLOCK_ENTRIES // X.size)
        for s in range(0, K.order, step):
            g1 = np.arange(s, min(s + step, K.order))
            # [j, y, x]: X[Y[g1_j, y], x] against the conjugate
            # ((x^(g1_j^-1))^y)^g1_j
            undone = X[:, conj[K.inverse[g1]]].transpose(1, 0, 2)
            differ = X[Y[g1]] != conj[g1[:, None, None], undone]
            if differ.any():
                x, j, y = np.argwhere(differ.transpose(2, 0, 1))[0]
                first = min(first or (x, s + j, y), (x, s + j, y))
        if first is not None:
            x, x1, y = (int(v) for v in first)
            return CompatibilityReport(False, Witness(
                equation, lhs=int(X[Y[x1, y], x]),
                rhs=int(conj[x1, X[y, conj[K.inverse[x1], x]]]),
                **dict(zip(names.split(), (x, x1, y)))))
    return CompatibilityReport(True, None)


def _conjugate_preimages(G, A):
    """pre[g, h]: the first h' with alpha(h') = ghat^-1 alpha(h) ghat, or
    -1 where that conjugate is outside the image of alpha.

    The rows of A are automorphisms, so each is known by its images of a
    generating set, as a key (``groups.row_keys``).  The rows of A are
    sorted once, stably, so that the first of equal rows comes first, and
    the conjugates are looked up in them (``groups.key_index``), in blocks
    of at most BLOCK_ENTRIES entries, or one g.
    """
    gens = generating_set(G)
    conj = conjugation_maps(G)
    at = conj[G.inverse][:, gens]       # at[g, k] = gens[k]^(g^-1)
    order = np.lexsort(A[:, gens].T[::-1])
    keys = row_keys(A[order][:, gens])
    pre = np.empty((G.order, len(A)), dtype=np.intp)
    step = max(1, BLOCK_ENTRIES // (len(A) * len(gens)))
    for s in range(0, G.order, step):
        g = np.arange(s, min(s + step, G.order))
        # [i, h, k]: the image of gens[k] under g_i hat^-1 A[h] g_i hat
        images = conj[g[:, None, None], A[:, at[g]].transpose(1, 0, 2)]
        pos = key_index(keys, row_keys(images.reshape(-1, len(gens))))
        pre[g] = np.where(pos < 0, -1, order[pos]).reshape(len(g), -1)
    return pre


def _outside_witness(pre):
    """First (g, h), g-major, whose conjugate ghat^-1 alpha(h) ghat is not
    in the image of alpha, or None when Inn(G) normalizes the image."""
    outside = np.argwhere(pre < 0)
    return tuple(int(v) for v in outside[0]) if len(outside) else None


def normalizer_conditions(pair):
    """(Inn(G) normalizes alpha(H), Inn(H) normalizes beta(G))."""
    return tuple(
        bool((_conjugate_preimages(K, maps) >= 0).all())
        for K, maps in ((pair.G, pair.alpha_maps), (pair.H, pair.beta_maps)))


def induced_beta(G, H, alpha):
    """Given an embedding alpha: H -> Aut(G), as its map into
    ``automorphism_group(G).group``, whose image is normalized by Inn(G),
    build beta(g): h -> alpha^-1(ghat^-1 alpha(h) ghat) and return the
    (compatible) action pair.

    Both hypotheses are checked eagerly; the resulting pair is re-verified
    with the exhaustive checker before being returned.
    """
    A = _validate_action(G, H, automorphism_group(G).elements[alpha],
                         "alpha")
    if not _assignment_is_hom(H, A):
        raise InvalidAction("alpha: assignment is not a homomorphism")
    pre = _conjugate_preimages(G, A)  # identity row: first equal alpha
    repeats = np.flatnonzero(pre[G.identity] != np.arange(H.order))
    if len(repeats):
        h = int(repeats[0])
        raise AlphaNotInjective(f"alpha({h}) = alpha({pre[G.identity, h]})")
    witness = _outside_witness(pre)
    if witness is not None:
        raise NormalizerConditionFails(witness)
    pair = ActionPair(G, H, A, _validate_action(H, G, pre, "beta"),
                      validate=False)
    report = is_compatible(pair)
    if not report.compatible:
        raise CrossCheckFailed(
            f"induced pair failed the exhaustive check: {report.witness}")
    return pair


def action_from_hom_pair(G, H, phi, psi):
    """Actions x^y = psi(y)^-1 x psi(y), y^x = phi(x)^-1 y phi(x), for
    the maps of phi: G -> H and psi: H -> G, ``enumerate_homs`` rows."""
    return ActionPair(G, H, conjugation_maps(G)[psi],
                      conjugation_maps(H)[phi], validate=False)


def z2_action_criterion(G, psi):
    """For an involutive automorphism psi, decide whether g -> g*c(g) with
    c(g) = g^-1 g^psi central and inverted by psi -- equivalently whether
    the pair (alpha: Z2 -> <psi>, trivial beta) is compatible."""
    psi = np.asarray(psi, dtype=np.intp)
    ar = np.arange(G.order)
    if not np.array_equal(psi[psi], ar):
        raise PsiNotInvolution("psi composed with itself is not the identity")
    zmask = center(G).mask()
    c = G.table[G.inverse[ar], psi]
    central = zmask[c]
    if not central.all():
        g = int(np.argmin(central))
        return False, ("not-central", g, int(c[g]))
    inverted = psi[c] == G.inverse[c]
    if not inverted.all():
        g = int(np.argmin(inverted))
        return False, ("not-inverted", g, int(c[g]))
    return True, None


def involution_pair(G, psi):
    """The action pair (alpha: Z2 -> <psi>, beta trivial) for an involutive
    automorphism psi of G, given as its map."""
    H = make_cyclic(2)
    alpha_maps = np.stack([np.arange(G.order), psi])
    return ActionPair(G, H, alpha_maps, named_action("trivial", H, G),
                      validate=False)


# -- exhaustive enumeration ----------------------------------------------

@dataclass
class ActionGrid:
    """Every (alpha, beta) in Hom(H, Aut G) x Hom(G, Aut H) with verdicts.

    ``alphas`` and ``betas`` are ``enumerate_homs`` map matrices, and
    ``compatible[i, j]`` refers to alphas[i], betas[j]; ``normalizer_g``
    and ``normalizer_h`` depend only on one side each.
    """

    G: FiniteGroup
    H: FiniteGroup
    alphas: np.ndarray
    betas: np.ndarray
    compatible: np.ndarray
    normalizer_g: np.ndarray
    normalizer_h: np.ndarray

    def pair(self, i, j):
        """The action pair of alphas[i] and betas[j], each hom into Aut
        read as the automorphisms it assigns."""
        return ActionPair(
            self.G, self.H,
            automorphism_group(self.G).elements[self.alphas[i]],
            automorphism_group(self.H).elements[self.betas[j]],
            validate=False)


def compatibility_grid(G, H, budget=None):
    """Vectorized verdicts for the full (alpha, beta) grid.

    Every alpha and beta comes from ``enumerate_homs`` into Aut, so each
    pair is checked at generators of G and H only (module docstring).
    With ``H is G`` both sides, and so both equations, are one.
    """
    budget = DEFAULT_GRID_BUDGET if budget is None else budget
    autG = automorphism_group(G)
    autH = automorphism_group(H)
    alphas = enumerate_homs(H, autG.group)
    betas = alphas if H is G else enumerate_homs(G, autH.group)
    if len(alphas) * len(betas) > budget:
        raise BudgetExceeded(
            f"{len(alphas)}x{len(betas)} action pairs exceed budget {budget}")
    # labels are indices in Aut; the actions at the element level
    fails_g = _equation_fails(alphas, autH.elements, betas,
                              conjugates(autG.group, autG.inner_of), G, H)
    fails_h = fails_g if H is G else _equation_fails(
        betas, autG.elements, alphas,
        conjugates(autH.group, autH.inner_of), H, G)
    norm_g = normalizer_contains_inn(autG, alphas)
    norm_h = norm_g if H is G else normalizer_contains_inn(autH, betas)
    return ActionGrid(G, H, alphas, betas, ~fails_g & ~fails_h.T, norm_g,
                      norm_h)


def compatible_pair_orbits(grid, swap=False):
    """Orbits of the compatible (alpha, beta) pairs under the relabeling
    action of Aut(G) x Aut(H), and with ``swap`` also under the swap of
    the two sides.

    Relabeling g -> sigma(g), h -> tau(h) carries the pair (A, B) to
    A'[tau h] = sigma A[h] sigma^-1, B'[sigma g] = tau B[g] tau^-1 and
    maps the tensor presentation onto itself by renaming symbols, so any
    presentation-level verdict (order, abelianness, invariants) is
    constant on each orbit.  Returns [(i, j, orbit size)] with the
    lexicographically least compatible member as representative.

    Each generator in ``search_set`` of Aut(G) and of Aut(H) moves the
    alpha and the beta indices by one permutation each, found by looking
    each moved map up by its images of a generating set
    (``groups.row_keys``).  Those are the greedy generators of the source,
    so the keys of an ``enumerate_homs`` matrix are already increasing
    (``homs`` module docstring).  ``pair_orbits`` labels each orbit of
    the compatible pairs by its least pair, and raises CrossCheckFailed
    if a move takes a compatible pair to an incompatible one.

    The swap needs ``grid.H is grid.G``, else ValueError; then the alphas
    are the betas, and (i, j) -> (j, i) takes ``grid.pair(i, j)`` to its
    ``swapped()`` pair.  Renaming each symbol (g, h) to the inverse of
    (h, g) carries every relator of the one's tensor presentation to a
    rotation of a relator of the other's or of its inverse, the first
    family onto the second (Brown and Loday), so the two products are
    isomorphic and the orbit verdicts still hold.
    """
    if swap and grid.H is not grid.G:
        raise ValueError("the swap of the two sides needs grid.H is grid.G")
    maps = (grid.alphas, grid.betas)
    # a homomorphism is fixed by its images of a generating set: alphas
    # by those of H, betas by those of G
    gens = [generating_set(K) for K in (grid.H, grid.G)]
    keys = [row_keys(m[:, g]) for m, g in zip(maps, gens)]
    # one (alpha, beta) index permutation per generator s of Aut(G) (side
    # 0) and of Aut(H) (side 1): s conjugates the Aut indices of its own
    # side's maps and relabels the points of the other side's maps
    moves = []
    for side, K in enumerate((grid.G, grid.H)):
        aut = automorphism_group(K)
        for s in search_set(aut.group):
            moved = [None, None]
            moved[side] = conjugates(aut.group, s)[
                maps[side][:, gens[side]]]
            moved[1 - side] = maps[1 - side][
                :, aut.elements[aut.group.inverse[s], gens[1 - side]]]
            moves.append([enumerated_index(key, row_keys(m),
                                           "a relabelled homomorphism")
                          for key, m in zip(keys, moved)])
    pairs, label = pair_orbits(grid.compatible, moves, swap)
    n_beta = len(maps[1])
    reps = np.flatnonzero(label == np.arange(len(label)))
    sizes = np.bincount(label)[reps]
    return [(int(p) // n_beta, int(p) % n_beta, int(size))
            for p, size in zip(pairs[reps], sizes)]


def pair_orbits(marked, moves, swap=False):
    """Orbits of the marked pairs of a product set A x B under moves.

    ``marked`` is an |A| x |B| boolean mask, and each move is a pair
    (pa, pb) of index permutations of A and of B that sends (a, b) to
    (pa[a], pb[b]).  With ``swap``, A x B is a square A x A and the
    transpose (a, b) -> (b, a) is one more move.  The marked pairs must
    be closed under the moves, else CrossCheckFailed.  Each is labelled
    by min-label propagation with pointer jumping: a round gives each
    pair the least label of the pairs its moves reach, then replaces each
    label by the label of the pair it names, until no label changes.  The
    labels are then the least pair of each orbit, since the moves
    generate the action.  Returns (pairs, label): the marked pairs as
    increasing flat indices a |B| + b, and for each of them the position
    in ``pairs`` of its orbit's least pair.
    """
    n_b = marked.shape[1]
    pairs = np.flatnonzero(marked)
    moved = [pa[pairs // n_b] * n_b + pb[pairs % n_b] for pa, pb in moves]
    if swap:
        moved.append(pairs % n_b * n_b + pairs // n_b)
    if not all(marked.flat[m].all() for m in moved):
        raise CrossCheckFailed("the marked pairs are not closed under "
                               "relabelling")
    # each move permutes the marked pairs, so its moved pairs, sorted, are
    # ``pairs`` again: move k sends position v to position targets[k][v]
    targets = []
    while moved:
        target = np.empty(len(pairs), dtype=np.intp)
        target[np.argsort(moved.pop(0))] = np.arange(len(pairs))
        targets.append(target)
    label = np.arange(len(pairs))
    while True:
        least = label
        for target in targets:
            least = np.minimum(least, least[target])
        least = least[least]
        if np.array_equal(least, label):
            return pairs, label
        label = least


def question2_scan(max_order, budget=None):
    """Evidence for the open sufficiency question: over all catalog pairs
    up to the given order, gather every (alpha, beta) satisfying both
    normalizer inclusions and record whether it is also compatible.

    No expected answer is hard-coded; counterexamples (inclusions hold,
    compatibility fails) are emitted with a full replayed witness.  A grid
    over the budget stops the scan, and BudgetExceeded names its groups
    and what was scanned before it."""
    records = []
    counterexamples = []
    grids = pairs_scanned = 0
    keys = catalog_keys_up_to(max_order)
    for gk in keys:
        G = make_catalog_group(gk)
        for hk in keys:
            H = make_catalog_group(hk)
            try:
                grid = compatibility_grid(G, H, budget=budget)
            except BudgetExceeded as exc:
                raise BudgetExceeded(
                    f"grid {gk} with {hk}: {exc}, after {grids} grids and "
                    f"{pairs_scanned} pairs scanned") from None
            grids += 1
            pairs_scanned += len(grid.alphas) * len(grid.betas)
            both = grid.normalizer_g[:, None] & grid.normalizer_h[None, :]
            for i, j in np.argwhere(both).tolist():
                rec = {"g": gk, "h": hk,
                       "alpha_index": i, "beta_index": j,
                       "normalizer_g": True, "normalizer_h": True,
                       "compatible": bool(grid.compatible[i, j])}
                if not rec["compatible"]:
                    report = is_compatible(grid.pair(i, j))
                    rec["witness"] = asdict(report.witness)
                    counterexamples.append(rec)
                records.append(rec)
    return {"max_order": max_order,
            "pairs_scanned": pairs_scanned,
            "records": records,
            "counterexamples": counterexamples,
            "certificate": ("counterexample-found" if counterexamples
                            else f"no-counterexample-up-to-order-{max_order}")}


# -- fast sweep for hom-pair induced actions ------------------------------

def hom_classes(maps, labels):
    """Classes of homomorphisms that agree modulo a normal subgroup N of
    their common target.

    ``maps`` stacks the homomorphisms' images of a generating set of their
    common source, which decide the class, as pi phi is a homomorphism to
    the quotient by N; ``labels`` labels the target by the cosets of N
    (``groups.coset_labels``).  Returns (first, sizes, index) with the
    classes in order of their first member: ``first[c]`` is the index of
    that member, ``sizes[c]`` the number of members and ``index[k]`` the
    class of member k.
    """
    _, first, index, sizes = np.unique(
        row_keys(labels[maps]), return_index=True, return_inverse=True,
        return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], sizes[order], rank[index]


def _congruence(G, H, P, S):
    """(count, first): how many of the pairs (phi_i, psi_j), with maps
    P[i] and S[j], satisfy the hypercenter congruence psi(phi(x)) = x mod
    Z2(G) for every x in G and phi(psi(y)) = y mod Z2(H) for every y in
    H; and the first (i, j), i-major, that does not, or None.

    pi psi phi and pi are homomorphisms G -> G/Z2(G), so they agree
    everywhere iff they agree on generating_set(G), and dually for H.
    The first equation depends on psi only through pi psi, its class
    modulo Z2(G) (``hom_classes``), and the second on phi only through
    its class modulo Z2(H).  So the first is decided once per (phi_i,
    class b of psi), as ok1[i, b], and the second once per (class a of
    phi, psi_j), as ok2[a, j].  The pairs that satisfy both number
    sum over (a, b) of E1[a, b] E2[a, b], where E1[a, b] counts the phi
    of class a with ok1 and E2[a, b] the psi of class b with ok2; the
    first failing pair lies in the first row i that fails either.  With
    ``H is G`` the classes of phi are those of psi, and ok2 is ok1.T.
    """
    gens_g, gens_h = generating_set(G), generating_set(H)
    lab_g = coset_labels(G, second_hypercenter(G))[1]
    psi_first, _, psi_of = hom_classes(S[:, gens_h], lab_g)
    ok1 = _congruent_at(lab_g[S[psi_first]], P, lab_g, gens_g).T
    if H is G:
        phi_first, phi_of, ok2 = psi_first, psi_of, ok1.T
    else:
        lab_h = coset_labels(H, second_hypercenter(H))[1]
        phi_first, _, phi_of = hom_classes(P[:, gens_g], lab_h)
        ok2 = _congruent_at(lab_h[P[phi_first]], S, lab_h, gens_h)
    rows = ok1.all(axis=1) & ok2.all(axis=1)[phi_of]
    if rows.all():
        return len(P) * len(S), None
    # E1 and E2, flat over (a, b), count the true entries at each
    n_a, n_b = len(phi_first), len(psi_first)
    e1 = np.bincount((phi_of[:, None] * n_b + np.arange(n_b))[ok1],
                     minlength=n_a * n_b)
    e2 = np.bincount((np.arange(n_a)[:, None] * n_b + psi_of)[ok2],
                     minlength=n_a * n_b)
    i = int(np.argmin(rows))
    j = int(np.argmin(ok1[i, psi_of] & ok2[phi_of[i]]))
    return int(e1 @ e2), (i, j)


def _congruent_at(pi, maps, lab, gens):
    """ok[c, k]: pi[c][maps[k][x]] == lab[x] at every x in ``gens``, where
    pi[c] is a map followed by the coset labels ``lab`` of a normal
    subgroup; the maps are taken in blocks of at most BLOCK_ENTRIES
    entries."""
    ok = np.empty((len(pi), len(maps)), dtype=bool)
    step = max(1, BLOCK_ENTRIES // (len(pi) * len(gens)))
    for s in range(0, len(maps), step):
        ok[:, s:s + step] = (pi[:, maps[s:s + step, gens]]
                             == lab[gens]).all(axis=2)
    return ok


def hom_pair_compatibility_sweep(G, H):
    """For every (phi, psi) in Hom(G,H) x Hom(H,G): does the conjugation
    action pair satisfy the hypercenter congruence, and is it compatible?

    The induced actions depend only on phi and psi modulo the centers, so
    compatibility is decided once per distinct action pair; the count
    still covers every hom pair.  Conjugation through phi and psi makes
    both assignments homomorphisms, so each action pair is checked at
    generators of G and H only (module docstring).  Each equation of the
    congruence depends on one hom only modulo the second hypercenter, so
    ``_congruence`` decides it once per class of that hom (``hom_classes``
    again, modulo Z2).  With ``H is G`` the two hom sets are one, and so
    are their classes and the two equations of compatibility.
    """
    P = enumerate_homs(G, H)
    S = P if H is G else enumerate_homs(H, G)
    congruent, first_incongruent = _congruence(G, H, P, S)

    # compatibility, once per (phi mod Z(H), psi mod Z(G)) class; the
    # labels are cosets of the centers
    reps_g, lab_g = coset_labels(G, center(G))
    reps_h, lab_h = (reps_g, lab_g) if H is G else coset_labels(H, center(H))
    psi_first, psi_sizes, _ = psi_classes = hom_classes(
        S[:, generating_set(H)], lab_g)
    phi_first, phi_sizes, _ = psi_classes if H is G else hom_classes(
        P[:, generating_set(G)], lab_h)
    conj_g, conj_h = conjugation_maps(G), conjugation_maps(H)
    fails_g = _equation_fails(lab_g[S[psi_first]], conj_h, P[phi_first],
                              lab_g[conj_g[:, reps_g]], G, H)
    fails_h = fails_g if H is G else _equation_fails(
        lab_h[P[phi_first]], conj_g, S[psi_first], lab_h[conj_h[:, reps_h]],
        H, G)
    ok = ~fails_g.T & ~fails_h                  # (phi class, psi class)
    compatible = int(phi_sizes @ ok @ psi_sizes)
    bad = np.argwhere(~ok)
    first_incompatible = (int(phi_first[bad[0, 0]]),
                          int(psi_first[bad[0, 1]])) if len(bad) else None
    total = len(P) * len(S)
    return {"n_phi": len(P), "n_psi": len(S), "n_pairs": total,
            "n_congruent": congruent, "n_compatible": compatible,
            "all_congruent": congruent == total,
            "all_compatible": compatible == total,
            "first_incongruent": first_incongruent,
            "first_incompatible": first_incompatible}
