"""Finite group actions on finite fields: Galois data, codes, the probe."""

import pytest

from charpk.errors import CharpkError, FieldError, PreconditionError
from charpk.fields import iter_gf_elements, make_field
from charpk.groups import (FieldAction, FiniteGroup,
                           alg_strongly_pac_probe, check_galois_data,
                           code_finite_set, finite_set_k_irreducible,
                           frobenius_automorphism, galois_group, invariants,
                           is_faithful)
from charpk.polys import PolyRing

from oracles import automorphism_by_root, fixed_set


def test_galois_group_orders():
    F2, F16 = make_field("GF(2,1)"), make_field("GF(2,4)")
    group, autos, embed = galois_group(F16, F2)
    assert len(group) == 4
    F4 = make_field("GF(2,2)")
    g2, _, _ = galois_group(F16, F4)
    assert len(g2) == 2
    g1, _, _ = galois_group(F16, F16)
    assert len(g1) == 1
    F3, F27 = make_field("GF(3,1)"), make_field("GF(3,3)")
    g3, _, _ = galois_group(F27, F3)
    assert len(g3) == 3


def test_galois_group_builds_and_verifies_its_table_once(monkeypatch):
    built = []
    init = FiniteGroup.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(FiniteGroup, "__init__", counted)
    for big, small, labels in [
            ("GF(2,4)", "GF(2,1)", ("id", "frob", "frob^2", "frob^3")),
            ("GF(3,6)", "GF(3,2)", ("id", "frob^2", "frob^4")),
            ("GF(2,3)", "GF(2,3)", ("id",))]:
        built.clear()
        group, _, _ = galois_group(make_field(big), make_field(small))
        assert len(built) == 1
        n = len(labels)
        assert group.elements == labels
        assert group.table == tuple(tuple((i + j) % n for j in range(n))
                                    for i in range(n))
        assert group.identity == 0


def test_galois_group_automorphisms_fix_base():
    F4, F16 = make_field("GF(2,2)"), make_field("GF(2,4)")
    group, autos, embed = galois_group(F16, F4)
    for x in iter_gf_elements(F4):
        for s in autos:
            assert s(embed(x)) == embed(x)


def test_galois_embeddings_use_the_subfield_modulus():
    F, L = make_field("GF(3,2,a^2+a+2)"), make_field("GF(3,4)")
    a = F.generator()
    _, autos, embed = galois_group(L, F)
    image = embed(a)
    assert (image * image + image + 2).is_zero()
    for x in iter_gf_elements(F):
        for s in autos:
            assert s(embed(x)) == embed(x)


def test_invariants_of_frobenius_action():
    L = make_field("GF(2,4)")
    act = FieldAction.cyclic_action(2, L, "frobenius^2")
    K, embed = invariants(act)
    assert K.k == 2
    for x in iter_gf_elements(K):
        for s in act.sigmas:
            assert s(embed(x)) == embed(x)


def _frobenius_power_actions():
    """(spec, n, j) for every Z/n -> frobenius^j action that builds on the
    listed fields, n up to the degree (every order divides it)."""
    cases = []
    for spec in ("GF(5,1)", "GF(2,4)", "GF(2,6)", "GF(3,4)"):
        L = make_field(spec)
        for n in range(1, L.k + 1):
            for j in range(L.k):
                try:
                    FieldAction.cyclic_action(n, L, f"frobenius^{j}")
                except CharpkError:
                    continue
                cases.append((spec, n, j))
    return cases


@pytest.mark.parametrize("spec, n, j", _frobenius_power_actions())
def test_invariants_match_the_fixed_set_scan(spec, n, j):
    act = FieldAction.cyclic_action(n, make_field(spec), f"frobenius^{j}")
    K, embed = invariants(act)
    assert {embed(x) for x in iter_gf_elements(K)} == fixed_set(act)


@pytest.mark.parametrize("spec", ["GF(2,4)", "GF(3,3)", "GF(3,2,a^2+a+2)"])
def test_generator_images_act_as_the_map_they_name(spec):
    """Each root of the modulus, found by a scan, named as the generator's
    image (as a scalar or as text) gives an action whose generator maps
    every element as the coefficient vector evaluated at that root; an
    image that is no root, or no scalar of the field, is refused."""
    L = make_field(spec)
    els = list(iter_gf_elements(L))
    roots = [r for r in els
             if sum((c * r ** i for i, c in enumerate(L.modulus)),
                    L.zero()).is_zero()]
    assert len(roots) == L.k
    for r in roots:
        for image in (r, str(r)):
            sigma = FieldAction.cyclic_action(L.k, L, image).sigmas[1]
            assert all(sigma(x) == automorphism_by_root(x, r) for x in els)
    for x in els:
        if x not in roots:
            with pytest.raises(FieldError, match="not a root"):
                FieldAction.cyclic_action(L.k, L, x)
    with pytest.raises(FieldError, match="outside the field"):
        FieldAction.cyclic_action(L.k, L, 2)


def test_an_automorphism_of_another_field_is_refused():
    for other, spec in [("GF(2,2)", "GF(2,4)"), ("GF(3,2)", "GF(3,2,a^2+a+2)")]:
        sigma = frobenius_automorphism(make_field(other))
        with pytest.raises(FieldError, match="another field"):
            FieldAction.cyclic_action(2, make_field(spec), sigma)


def test_faithfulness():
    L = make_field("GF(2,4)")
    assert is_faithful(FieldAction.cyclic_action(4, L, "frobenius"))
    assert not is_faithful(FieldAction.cyclic_action(2, L, "frobenius^4"))
    # trivial action of the trivial group is faithful
    assert is_faithful(FieldAction.cyclic_action(1, L, "frobenius^4"))


def test_check_galois_data_full_report():
    L = make_field("GF(3,2)")
    act = FieldAction.cyclic_action(2, L, "frobenius")
    report = check_galois_data(act)
    assert report.all_pass()
    assert report.invariant_field.k == 1
    with pytest.raises(PreconditionError):
        check_galois_data(FieldAction.cyclic_action(2, L, "frobenius^2"))


def test_code_finite_set():
    K = make_field("GF(5,1)")
    one, two = K.from_int(1), K.from_int(2)
    code = code_finite_set([one, two])
    # (x-1)(x-2) = x^2 - 3x + 2: stored low-degree-first without the lead
    assert [str(c) for c in code.coeffs] == ["2", "2"]
    # duplicates and order do not matter
    assert code_finite_set([two, one, one]) == code
    with pytest.raises(PreconditionError):
        code_finite_set([])


def test_finite_set_k_irreducibility():
    F2 = make_field("GF(2,1)")
    F4 = make_field("GF(2,2)")
    g = F4.generator()
    # {g, g^2} is one Frobenius orbit over F_2
    assert finite_set_k_irreducible([g, g * g], F2)
    # adding the rational point 1 breaks transitivity
    assert not finite_set_k_irreducible([g, g * g, F4.one()], F2)
    # a single rational point is an orbit
    assert finite_set_k_irreducible([F4.one()], F2)


def test_probe_failure_with_size_three_orbit():
    F, K = make_field("GF(2,1)"), make_field("GF(2,2)")
    R = PolyRing(F, ("x",))
    theta = R.parse("x^3 + x + 1")
    report = alg_strongly_pac_probe(F, K, [theta])
    entry = report.entries[0]
    assert not report.overall_pass
    assert entry["orbit_sizes"] == [3]
    assert entry["k_irreducible"] and entry["f_roots"] == []
    # a polynomial with an F-rational root passes
    ok = alg_strongly_pac_probe(F, K, [R.parse("x + 1")])
    assert ok.overall_pass and ok.entries[0]["f_roots"] == ["1"]


def test_cyclic_group_structure():
    G = FiniteGroup.cyclic(4)
    assert len(G) == 4
    assert G.op(1, 3) == 0  # generator times its inverse
    assert G.inverse(1) == 3
