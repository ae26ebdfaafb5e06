"""Finite-group toolkit for compatible mutual actions and non-abelian
tensor products."""

from .abelian import abelian_invariants, abelian_tensor
from .actions import (ActionPair, CompatibilityReport, Witness,
                      action_from_hom_pair, compatibility_grid, induced_beta,
                      involution_pair, is_compatible, normalizer_conditions,
                      question2_scan, z2_action_criterion)
from .automorphisms import (AutGroup, automorphism_group,
                            normalizer_contains_inn)
from .catalog import catalog_groups_up_to, catalog_keys, make_catalog_group
from .groups import (FiniteGroup, GroupHom, Subgroup, center,
                     derived_subgroup, direct_product, from_cayley_table,
                     make_cyclic, nilpotency_class, second_hypercenter,
                     subgroup_generated)
from .homs import are_isomorphic, enumerate_homs, hom_from_images
from .presentations import (CosetTable, Presentation, coset_enumerate,
                            table_to_group)
from .tensor import (TensorReport, compute_tensor, derivative_subgroup,
                     tensor_presentation)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
