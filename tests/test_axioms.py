"""Instance validation, witness search, reductions, B-operators."""

import json

import pytest

from charpk import axioms, differential, groups, polys
from charpk.axioms import (BAlgebra, DPacInstance, GBdcfInstance,
                           b_operator_check, pac_witness_task, scf_reduce,
                           search_dpac_witness, validate_dpac_instance,
                           validate_gbdcf_instance)
from charpk.differential import DerivationContext, derive
from charpk.errors import (CharpkError, FieldError, PreconditionError,
                           ResourceExhausted, UnsupportedInstance)
from charpk.fields import make_field
from charpk.groups import FieldAction
from charpk.variety import AffineVariety


def _line_instance():
    K = make_field("Fp(3;t)")
    D = DerivationContext(K, {"t": K.one()})
    V = AffineVariety(K, ("x",), [])
    W = AffineVariety(K, ("x", "u"), ["u - 1"])
    return DPacInstance(K, D, V, W, fns=["x"], bound=1)


def test_dpac_validation_all_bullets_pass():
    report = validate_dpac_instance(_line_instance())
    assert report.status == "valid-instance"
    assert [b["verdict"] for b in report.bullets] == ["pass"] * 5


def test_dpac_witness_search_finds_t():
    inst = _line_instance()
    report = search_dpac_witness(inst)
    assert report.status == "witness-found"
    assert [str(c) for c in report.witness] == ["t"]


def test_dpac_char2_square_graph_fails_at_equalizer_bullet():
    K = make_field("Fp(2;t)")
    D = DerivationContext(K, {"t": K.one()})
    V = AffineVariety(K, ("x",), [])
    W = AffineVariety(K, ("x", "u"), ["u^2 - x"])
    report = validate_dpac_instance(DPacInstance(K, D, V, W))
    assert report.status == "invalid"
    assert report.failed_bullet == "E projects dominantly on W"


def test_dpac_containment_counterexample():
    # char 2: V = V(x^2 - t) has the empty prolongation condition 0*u + 1,
    # so no W can sit inside tau(V)
    K = make_field("Fp(2;t)")
    D = DerivationContext(K, {"t": K.one()})
    V = AffineVariety(K, ("x",), ["x^2 - t"])
    W = AffineVariety(K, ("x", "u"), ["x^2 - t", "u"])
    report = validate_dpac_instance(DPacInstance(K, D, V, W))
    assert report.status == "invalid"
    assert report.failed_bullet == "W is contained in the prolongation of V"


def test_dpac_search_requires_valid_instance():
    K = make_field("Fp(2;t)")
    D = DerivationContext(K, {"t": K.one()})
    V = AffineVariety(K, ("x",), [])
    W = AffineVariety(K, ("x", "u"), ["u^2 - x"])
    with pytest.raises(PreconditionError):
        search_dpac_witness(DPacInstance(K, D, V, W))


def test_report_json_is_deterministic():
    r1 = validate_dpac_instance(_line_instance())
    r2 = validate_dpac_instance(_line_instance())
    assert r1.to_json() == r2.to_json()
    payload = json.loads(r1.to_json())
    assert payload["status"] == "valid-instance"


def test_pac_witness_task_circle():
    K = make_field("GF(7,1)")
    V = AffineVariety(K, ("x", "y"), ["x^2 + y^2 - 1"])
    report = pac_witness_task(V, avoid=["x - 3"])
    assert report.status == "witness-found"
    x, y = report.witness
    assert (x * x + y * y) == K.one() and x != K.from_int(3)
    # reducible V is rejected
    bad = AffineVariety(K, ("x", "y"), ["x^2 + y^2"])
    with pytest.raises(PreconditionError):
        pac_witness_task(bad)
    # carving with a polynomial that vanishes identically on V
    with pytest.raises(PreconditionError):
        pac_witness_task(V, avoid=["x^2 + y^2 - 1"])


def test_scf_reduce_with_audit():
    K = make_field("Fp(2;t)")
    t = K.gen("t")
    witness = {"x": t ** 3 + t ** 2}
    V, rows = scf_reduce("lam(1,1; t; x) - t = 0",
                         {"field": K, "pindep": [["x"]]},
                         witness, audit_bound=3)
    assert not V.is_empty()
    assert len(rows) == 1 and len(rows[0]) == 1


def test_balgebra_truncated_and_validation():
    K = make_field("GF(5,1)")
    B = BAlgebra.truncated_polynomial(K, 3)
    assert B.dim == 3 and B.truncated
    # eta * eta = eta^2, eta^2 * eta = 0
    eta = [K.zero(), K.one(), K.zero()]
    assert B.mul(eta, eta) == [K.zero(), K.zero(), K.one()]
    eta2 = B.mul(eta, eta)
    assert B.mul(eta2, eta) == [K.zero()] * 3
    # a non-nilpotent kernel is rejected (this table makes b_1 idempotent)
    with pytest.raises(PreconditionError):
        BAlgebra(K, [[[1, 0], [0, 1]], [[0, 1], [0, 1]]])


def test_b_operator_check_first_order():
    K = make_field("Fp(3;t)")
    D = DerivationContext(K, {"t": K.one()})
    B = BAlgebra.truncated_polynomial(K, 2)
    t = K.gen("t")
    gens = [t, t + K.one(), t * t]
    assert b_operator_check([lambda r: r, lambda r: derive(r, D)], B, gens)
    # a non-derivation second component fails
    assert not b_operator_check([lambda r: r, lambda r: r], B, gens)
    # d_0 must be the identity
    assert not b_operator_check([lambda r: r + K.one(),
                                 lambda r: derive(r, D)], B, gens)


def test_gbdcf_trivial_group_collapses_to_dpac():
    K = make_field("Fp(3;t)")
    D = DerivationContext(K, {"t": K.one()})
    B = BAlgebra.truncated_polynomial(K, 2)
    V = AffineVariety(K, ("x",), [])
    W = AffineVariety(K, ("x", "u"), ["u - 1"])
    inst = GBdcfInstance(K, B, V, W, derivation=D, fns=["x"], bound=1)
    report = validate_gbdcf_instance(inst)
    assert report.status == "witness-found"
    assert [str(c) for c in report.witness] == ["t"]


def test_gbdcf_nontrivial_group_over_gf():
    L = make_field("GF(2,2)")
    act = FieldAction.cyclic_action(2, L, "frobenius")
    B = BAlgebra.truncated_polynomial(L, 2)
    V = AffineVariety(L, ("x",), [])
    W = AffineVariety(L, ("x", "u"), ["u"])
    inst = GBdcfInstance(L, B, V, W, action=act)
    report = validate_gbdcf_instance(inst)
    assert report.status == "witness-found"
    # the witness coordinate is G-invariant, i.e. lies in GF(2)
    (x,) = report.witness
    assert str(x) in ("0", "1")


def test_gbdcf_search_caps_the_invariant_field(monkeypatch):
    """K^G = GF(2) has 2 elements: past a cap of 1 the search refuses
    before listing any."""
    monkeypatch.setattr(polys, "MAX_INVARIANT_ELEMENTS", 1)
    listed = []
    monkeypatch.setattr(axioms, "iter_gf_elements",
                        lambda field: listed.append(field) or iter(()))
    L = make_field("GF(2,2)")
    act = FieldAction.cyclic_action(2, L, "frobenius")
    inst = GBdcfInstance(L, BAlgebra.truncated_polynomial(L, 2),
                         AffineVariety(L, ("x",), []),
                         AffineVariety(L, ("x", "u"), ["u"]), action=act)
    with pytest.raises(ResourceExhausted,
                       match="invariant field past 1 elements"):
        validate_gbdcf_instance(inst)
    assert listed == []


def test_gbdcf_unsupported_algebra_classes():
    K = make_field("GF(2,2)")
    B3 = BAlgebra.truncated_polynomial(K, 3)
    V = AffineVariety(K, ("x",), [])
    W = AffineVariety(K, ("x", "u"), ["u"])
    with pytest.raises(UnsupportedInstance):
        validate_gbdcf_instance(GBdcfInstance(K, B3, V, W))
    # a hand-rolled (non-truncated flag) table is rejected up front
    B2 = BAlgebra(K, [[["1", "0"], ["0", "1"]],
                      [["0", "1"], ["0", "0"]]])
    with pytest.raises(UnsupportedInstance):
        validate_gbdcf_instance(GBdcfInstance(K, B2, V, W))


def test_gbdcf_non_faithful_action_fails():
    L = make_field("GF(2,2)")
    act = FieldAction.cyclic_action(2, L, "frobenius^2")
    B = BAlgebra.truncated_polynomial(L, 2)
    V = AffineVariety(L, ("x",), [])
    W = AffineVariety(L, ("x", "u"), ["u"])
    report = validate_gbdcf_instance(GBdcfInstance(L, B, V, W, action=act))
    assert report.status == "invalid"
    assert report.failed_bullet == "the action of G on K is faithful"


def test_gbdcf_instance_requires_the_doubled_space():
    K = make_field("GF(2,2)")
    B = BAlgebra.truncated_polynomial(K, 2)
    V = AffineVariety(K, ("x",), [])
    W = AffineVariety(K, ("y", "u"), ["u"])
    with pytest.raises(PreconditionError, match="doubled variable space"):
        GBdcfInstance(K, B, V, W)


def test_gbdcf_instance_requires_the_action_on_the_base_field():
    # V, W over GF(4), G acting on GF(16): the K^G points would be GF(16)
    # scalars, and the search used to report exhausted
    K = make_field("GF(2,2)")
    act = FieldAction.cyclic_action(2, make_field("GF(2,4)"), "frobenius^2")
    V = AffineVariety(K, ("x",), [])
    W = AffineVariety(K, ("x", "u"), ["u"])
    with pytest.raises(PreconditionError, match="act on the base field"):
        GBdcfInstance(K, BAlgebra.truncated_polynomial(K, 2), V, W,
                      action=act)


def _frobenius_instance():
    L = make_field("GF(2,2)")
    act = FieldAction.cyclic_action(2, L, "frobenius")
    V = AffineVariety(L, ("x",), [])
    W = AffineVariety(L, ("x", "u"), ["u"])
    return GBdcfInstance(L, BAlgebra.truncated_polynomial(L, 2), V, W,
                         action=act)


def _trivial_group_instance():
    inst = _line_instance()
    return GBdcfInstance(inst.field,
                         BAlgebra.truncated_polynomial(inst.field, 2),
                         inst.V, inst.W, derivation=inst.derivation,
                         fns=["x"], bound=1)


_DPAC_FAULTS = [
    ("is_absolutely_irreducible", "W is absolutely irreducible"),
    ("derivation_extends", "W is contained in the prolongation of V"),
    ("is_dominant", "W projects dominantly on V"),
    ("kerprol_check", "E projects dominantly on W"),
    ("ppower_test", "the pulled-back functions avoid p-th powers"),
]
_GEOMETRY_FAULTS = _DPAC_FAULTS[1:4]


@pytest.mark.parametrize("build, validate, culprit, bullet", [
    (_line_instance, validate_dpac_instance, c, b) for c, b in _DPAC_FAULTS
] + [
    (_trivial_group_instance, validate_gbdcf_instance, c, b)
    for c, b in _DPAC_FAULTS
] + [
    (_frobenius_instance, validate_gbdcf_instance, c, b)
    for c, b in [("is_faithful", "the action of G on K is faithful"),
                 ("is_irreducible", "V and W are K-irreducible")]
    + _GEOMETRY_FAULTS
])
def test_an_error_inside_a_bullet_names_that_bullet(monkeypatch, build,
                                                    validate, culprit,
                                                    bullet):
    inst = build()

    def broken(*args, **kwargs):
        raise CharpkError("injected")
    # axioms imports groups only on the G-B-DCF path, at call time
    owner = groups if culprit == "is_faithful" else axioms
    monkeypatch.setattr(owner, culprit, broken)
    with pytest.raises(UnsupportedInstance) as info:
        validate(inst)
    assert str(info.value) == f"bullet {bullet!r}: injected"


def test_scf_audit_counts_attempted_substitutions(monkeypatch):
    """A substitution whose homomorphism fails still counts against
    `polys.MAX_AUDIT_CHOICES`, so a pool where every one fails stops at
    the cap instead of walking the whole product."""
    K = make_field("Fp(2;t1,t2)")
    t1 = K.gen("t1")
    args = ("lam(1,1; t1; x) - t1 = 0", {"field": K, "pindep": [["x"]]},
            {"x": t1 ** 3 + t1 ** 2})
    # t1 is a constant of the formula, so only t2 moves: 7 substitutions
    scf_reduce(*args, audit_bound=7)
    monkeypatch.setattr(polys, "MAX_AUDIT_CHOICES", 6)
    with pytest.raises(ResourceExhausted, match="more than 6"):
        scf_reduce(*args, audit_bound=7)
    scf_reduce(*args, audit_bound=6)

    def undefined(*_):
        raise FieldError("homomorphism undefined: denominator vanishes")

    monkeypatch.setattr(differential, "scalar_hom", undefined)
    with pytest.raises(ResourceExhausted, match="for 0 of 1 samples"):
        scf_reduce(*args, audit_bound=1)
