"""Exact characteristic-p computational algebra.

Field cores (GF(p^k), F_p(t..)), lambda-functions and p-independence,
sparse multivariate polynomials with Groebner machinery, affine
varieties (irreducibility, dominance, point enumeration, function-field
p-structure), derivations and prolongations, finite group actions on
finite fields, a quantifier-free formula toolkit with the lambda
unraveller and the lambda0/D correction rewriter, and instance-level
validation plus witness search for the geometric axiom schemes.
"""

from .errors import (CharpkError, FieldError, FormulaError,
                     InstanceFileError, PreconditionError, ResourceExhausted,
                     RingError, UnsupportedInstance)
from .fields import (FieldDescriptor, FieldScalar, evaluate_scalar,
                     frobenius, is_pth_power, iter_elements,
                     iter_gf_elements, lambda0, make_field, p_components,
                     parse_scalar, pth_root, scalar_height)
from .lambdafn import (is_p_independent, lambda_basis, lambda_multi,
                       lambda_solve, p_independence_verdict, p_monomials)
from .polys import Ideal, MultiPoly, PolyRing, normal_form
from .factor import (factor_poly, is_absolutely_irreducible_poly,
                     uni_factor, uni_is_irreducible, uni_roots)
from .variety import (AffineVariety, FunctionFieldElem, RationalMapData,
                      enumerate_points, is_absolutely_irreducible,
                      is_dominant, is_irreducible, locus,
                      pindep_function_field, ppower_test, projection_map)
from .differential import (DerivationContext, ProlongationBundle,
                           derivation_extends, derive, equalizer,
                           extension_oracle, kerprol_check, nabla_point,
                           prolongation, scalar_hom)
from .groups import (FieldAction, FiniteGroup, alg_strongly_pac_probe,
                     check_galois_data, code_finite_set,
                     finite_set_k_irreducible, frobenius_automorphism,
                     galois_group, invariants, is_faithful)
from .formula import (CorrectionResult, Formula, Term, UnravelResult,
                      correct_lambda0_D, eval_formula, parse, print_formula,
                      print_term, unravel_lambda_terms)
from .axioms import (BAlgebra, CheckReport, DPacInstance, GBdcfInstance,
                     b_operator_check, pac_witness_task, scf_reduce,
                     search_dpac_witness, validate_dpac_instance,
                     validate_gbdcf_instance)
from .instancefile import InstanceFile

__version__ = "0.1.0"
