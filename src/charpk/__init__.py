"""Exact characteristic-p computational algebra.

Field cores (GF(p^k), F_p(t..)), lambda-functions and p-independence,
sparse multivariate polynomials with Groebner machinery, affine
varieties (irreducibility, dominance, point enumeration, function-field
p-structure), derivations and prolongations, finite group actions on
finite fields, a quantifier-free formula toolkit with the lambda
unraveller and the lambda0/D correction rewriter, and instance-level
validation plus witness search for the geometric axiom schemes.

The public names below are re-exported lazily (PEP 562): `import charpk`
loads no submodule, and `charpk.<name>` imports the one submodule that
defines it on first use.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {name: module for module, names in {
    "errors": ("CharpkError", "FieldError", "FormulaError",
               "InstanceFileError", "PreconditionError", "ResourceExhausted",
               "RingError", "UnsupportedInstance"),
    "fields": ("FieldDescriptor", "FieldScalar", "evaluate_scalar",
               "frobenius", "is_pth_power", "iter_elements",
               "iter_gf_elements", "lambda0", "make_field", "p_components",
               "parse_scalar", "pth_root", "scalar_height"),
    "lambdafn": ("is_p_independent", "lambda_basis", "lambda_multi",
                 "lambda_solve", "p_independence_verdict", "p_monomials"),
    "polys": ("Ideal", "MultiPoly", "PolyRing", "normal_form"),
    "factor": ("factor_poly", "is_absolutely_irreducible_poly", "uni_factor",
               "uni_is_irreducible", "uni_roots"),
    "variety": ("AffineVariety", "FunctionFieldElem", "RationalMapData",
                "enumerate_points", "is_absolutely_irreducible",
                "is_dominant", "is_irreducible", "locus",
                "pindep_function_field", "ppower_test", "projection_map"),
    "differential": ("DerivationContext", "ProlongationBundle",
                     "derivation_extends", "derive", "equalizer",
                     "extension_oracle", "kerprol_check", "nabla_point",
                     "prolongation", "scalar_hom"),
    "groups": ("FieldAction", "FiniteGroup", "alg_strongly_pac_probe",
               "check_galois_data", "code_finite_set",
               "finite_set_k_irreducible", "frobenius_automorphism",
               "galois_group", "invariants", "is_faithful"),
    "formula": ("CorrectionResult", "Formula", "Term", "UnravelResult",
                "correct_lambda0_D", "eval_formula", "parse",
                "print_formula", "print_term", "unravel_lambda_terms"),
    "axioms": ("BAlgebra", "CheckReport", "DPacInstance", "GBdcfInstance",
               "b_operator_check", "pac_witness_task", "scf_reduce",
               "search_dpac_witness", "validate_dpac_instance",
               "validate_gbdcf_instance"),
    "instancefile": ("InstanceFile",),
}.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
