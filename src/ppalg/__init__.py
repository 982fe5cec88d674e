"""Exact computations for preprojective algebras of symmetrizable Cartan
matrices: Hom/Ext invariants of locally free modules, E-filtered and
crystal tests, the generic-extension operation with its divisions, and
change-of-symmetrizer functors.  Everything runs over exact rationals."""

from .cartan import (CartanDatum, DatumError, default_orientation,
                     dim_formulas, euler_forms, minimal_symmetrizer,
                     validate_datum)
from .linalg import GF, QQ, Mat
from .pimod import (ModuleRep, canonical_pieces, check_relations, decompose,
                    derivation_basis, direct_sum, ext1_dim, generalized_simple,
                    hom_basis, is_crystal, is_E_filtered, is_locally_free,
                    is_rigid, iso_test, rank_vector, verify_ext_theorems)
from .starop import (StarResult, check_cancellation, extension_module,
                     generic_cokernel, generic_extension, generic_kernel, star,
                     star_table)
from .symred import reduce_module, tilde_lift, verify_symmetrizer_compat
from .catalog import CatalogEntry, a2_suite, b2_suite, leclerc_module
from .selftest import run_selftest

__version__ = "0.1.0"
