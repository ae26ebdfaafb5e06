"""Exception types shared across the package."""


class TensorforgeError(Exception):
    """Base class for all errors raised by this package."""


class NotAGroup(TensorforgeError):
    """A Cayley table failed one of the group axioms, or the columns of
    a group given by its generators are not a regular action.

    ``reason`` is one of ``not-latin-square``, ``no-identity``,
    ``not-associative``, ``missing-inverse``, ``not-regular``;
    ``witness`` pins down the offending row/column/triple.
    """

    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"not a group: {reason} (witness={witness})")


class UnknownCatalogKey(TensorforgeError):
    def __init__(self, key):
        self.key = key
        super().__init__(f"unknown catalog key: {key!r}")


class NotAHomomorphism(TensorforgeError):
    """Generator images do not extend to a homomorphism.

    ``witness`` is a pair (x, y) of source elements with
    map(x*y) != map(x)*map(y).
    """

    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"images do not define a homomorphism (witness={witness})")


class GensDoNotGenerate(TensorforgeError):
    pass


class BudgetExceeded(TensorforgeError):
    """A search exceeded its node budget; the question remains undecided."""


class InvalidCount(TensorforgeError, ValueError):
    """A count given from outside, such as a budget, an order bound or a
    coset limit, is not a positive integer."""


class InvalidAction(TensorforgeError, ValueError):
    """A stack of maps is not an action: a row is not an automorphism, the
    identity acts non-trivially, or a required homomorphism fails."""


class AlphaNotInjective(TensorforgeError):
    pass


class NormalizerConditionFails(TensorforgeError):
    """Inn(G) does not normalize alpha(H); witness is (g, h)."""

    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"normalizer hypothesis fails (witness={witness})")


class PsiNotInvolution(TensorforgeError):
    pass


class IncompatibleActions(TensorforgeError):
    """Tensor construction refused: the action pair is not compatible."""

    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"actions are not compatible (witness={witness})")


class LimitExceeded(TensorforgeError):
    """Coset enumeration hit its limits; the group may be infinite or the
    budget too small -- never evidence of infiniteness."""


class TableIncomplete(TensorforgeError):
    pass


class CrossCheckFailed(TensorforgeError):
    """A computed structure contradicts a theorem that must hold for it;
    this signals a defect in the computation, not in the input."""


class IoError(TensorforgeError):
    pass
