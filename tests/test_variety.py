"""Affine varieties: irreducibility, dominance, points, p-structure."""

import collections
import random

import pytest

from charpk.errors import (FieldError, PreconditionError, ResourceExhausted,
                           UnsupportedInstance)
from charpk.factor import gf_embedding
from charpk.fields import FieldScalar, iter_elements, make_field
from charpk.polys import MultiPoly, PolyRing, split_coeffs
from charpk.variety import (AffineVariety, FunctionFieldElem, RationalMapData,
                            enumerate_points, is_absolutely_irreducible,
                            is_dominant, is_irreducible, locus, _cross,
                            _differential_ranks, _peeled, peel_graph,
                            pindep_function_field, ppower_test,
                            projection_dominant)

from oracles import (differential_ranks, embed_by_terms, naive_point_scan,
                     ppower_ansatz, vanishes_at, weil_verdict)


def _curve(spec, text, variables=("x", "y")):
    K = make_field(spec)
    return AffineVariety(K, variables, [text])


def test_irreducible_examples():
    assert is_irreducible(_curve("GF(7,1)", "x^2 + y^2 - 1"))
    assert not is_irreducible(_curve("GF(7,1)", "x^2 - y^2"))
    assert is_irreducible(_curve("GF(5,1)", "y^2 - x^3 - x"))
    # the empty ambient space (no equations) is irreducible
    K = make_field("GF(3,1)")
    assert is_irreducible(AffineVariety(K, ("x", "y"), []))


def _monomial_curve(spec):
    """The locus of (s^3, s^4, s^5) over spec, and the same generators
    typed in."""
    K = make_field(spec)
    s = make_field("Fp(5;s)").gen("s")
    C = locus([s ** 3, s ** 4, s ** 5], K, ("x", "y", "z"))
    return C, AffineVariety(K, C.vars, [str(g) for g in C.ideal.gens])


def test_irreducibility_past_one_generator_is_refused():
    """The monomial curve (s^3, s^4, s^5) peels to three generators:
    neither verdict is decided on typed generators, and as a locus it is
    K-irreducible by construction, its absolute irreducibility still
    undecided."""
    W, V = _monomial_curve("GF(5,1)")
    assert len(peel_graph(V).gens) == 3
    for verdict in (is_irreducible, is_absolutely_irreducible):
        with pytest.raises(UnsupportedInstance,
                           match="at most one generator or is built as a "
                                 "locus; 3 generators remain"):
            verdict(V)
    assert is_irreducible(W) is True
    with pytest.raises(UnsupportedInstance, match="at most one generator"):
        is_absolutely_irreducible(W)


@pytest.mark.parametrize("spec", ["GF(5,1)", "GF(5,2)"])
def test_only_the_locus_of_the_monomial_curve_enters_k_of_v(spec):
    """Typed in, the generators of the monomial curve are refused at the
    gate into K(V); the locus, whose ideal is the kernel of a map into
    K(s), is accepted, base-changed to GF(25) too."""
    C, V = _monomial_curve(spec)
    with pytest.raises(UnsupportedInstance, match="3 generators remain"):
        V.function_field_elem("x")
    x, y, z = (C.function_field_elem(v) for v in C.vars)
    assert y * y == x * z and not (x * y - z).is_zero()
    assert ppower_test(x).status == "absent"
    assert ppower_test(x ** 5).status == "root"


@pytest.mark.parametrize("gens", [["x^2", "y"], ["y", "x^2"]])
def test_a_nilpotent_presentation_is_refused_at_the_gate(gens):
    """V(x^2, y) is a point as a set, but x is nilpotent in K[x, y] / I:
    the gate refuses it however the generators are ordered."""
    V = AffineVariety(make_field("GF(5,1)"), ("x", "y"), gens)
    with pytest.raises(PreconditionError, match="prime presentation"):
        V.function_field_elem("x")
    assert is_irreducible(V)


def test_absolute_irreducibility_matches_point_count_oracle():
    # x^2 + y^2 over F_7: K-irreducible but splits into two conjugate lines
    V = _curve("GF(7,1)", "x^2 + y^2")
    assert is_irreducible(V)
    assert not is_absolutely_irreducible(V)
    W = _curve("GF(7,1)", "x^2 + y^2 - 1")
    assert is_absolutely_irreducible(W)
    for spec, text, expect in [
        ("GF(7,1)", "x^2 + y^2", False),
        ("GF(7,1)", "x^2 + y^2 - 1", True),
        ("GF(2,1)", "y^2 + y + x^3", True),
        ("GF(3,1)", "y^2 - x^3 - x", True),
    ]:
        V = _curve(spec, text)
        f = V.ideal.gens[0]
        assert is_absolutely_irreducible(V) == weil_verdict(f, V.field), text


def test_absirr_over_ratfunc_base():
    # x^2 - t in char 2 is a single (thickened) geometric point
    V = AffineVariety(make_field("Fp(2;t)"), ("x",), ["x^2 - t"])
    assert is_absolutely_irreducible(V)
    W = AffineVariety(make_field("Fp(3;t)"), ("x",), ["x^2 - t^2"])
    assert not is_irreducible(W)
    # graphs (linear in one variable) are handled over F_p(t)
    G = AffineVariety(make_field("Fp(3;t)"), ("x", "u"), ["u - x^2"])
    assert is_absolutely_irreducible(G)
    # an integrally indecomposable Newton polygon proves it over F_p(t)
    C = AffineVariety(make_field("Fp(3;t)"), ("x", "y"), ["y^2 - x^3 - t"])
    assert is_absolutely_irreducible(C)
    # a decomposable polygon, linear in no variable: outside the class
    D = AffineVariety(make_field("Fp(3;t)"), ("x", "y"), ["x^2 + y^2 - t"])
    with pytest.raises(UnsupportedInstance):
        is_absolutely_irreducible(D)


def test_point_enumeration_matches_naive_scan():
    for spec in ("GF(5,1)", "GF(7,1)"):
        V = _curve(spec, "x^2 + y^2 - 1")
        got = sorted(tuple(str(c) for c in p) for p in enumerate_points(V))
        want = sorted(tuple(str(c) for c in p)
                      for p in naive_point_scan(V.ideal.gens, V.field, 2))
        assert got == want
    assert len(list(enumerate_points(_curve("GF(7,1)", "x^2 + y^2 - 1")))) == 8
    assert len(list(enumerate_points(_curve("GF(5,1)", "x^2 + y^2 - 1")))) == 4


@pytest.mark.parametrize("spec,gens", [
    ("Fp(3;t)", ["x*y - t"]),
    ("Fp(3;t)", ["x^2/t + (t + 1)*y - 1/(t^2 + 1)", "x - y^3/(t + 2)"]),
    ("Fp(2;t,s)", ["(s + 1)*x^3*y - t/(s*t + 1)", "x + y + s"]),
    ("Fp(5;t)", ["y - x^9/(t + 1) - t*x^4 + 2*x"])])
def test_point_membership_over_fpt_matches_evaluation(monkeypatch, spec,
                                                      gens):
    """Membership over F_p(t..) on cleared denominators agrees with
    evaluating each generator in F_p(t..), at points of height <= 1 and
    at points built on each generator; every generator is joined once
    per variety, not once per point."""
    from charpk import variety
    K = make_field(spec)
    varieties = [AffineVariety(K, ("x", "y"), [g]) for g in gens]
    varieties.append(AffineVariety(K, ("x", "y"), gens))
    joins = []
    join = variety.join_coeffs

    def counted(f, joined):
        joins.append(f)
        return join(f, joined)
    monkeypatch.setattr(variety, "join_coeffs", counted)
    coords = list(iter_elements(K, 1))[:12]
    y = PolyRing(K, ("y",)).var("y")
    for V in varieties:
        points = [(a, b) for a in coords for b in coords]
        for a in coords[1:]:
            # y solved from the first generator at x = a, when linear
            f = V.ideal.gens[0].substitute({"x": y.ring.from_scalar(a),
                                            "y": y})
            if f.degree_in("y") == 1:
                points.append((a, -f.coeff((0,)) / f.coeff((1,))))
        hits = 0
        for point in points:
            got = V.contains_point(point)
            assert got == vanishes_at(V.ideal.gens, point)
            hits += got
        assert hits or len(V.ideal.gens) > 1
    assert len(joins) == 2 * len(gens)


def test_hypersurface_nonemptiness_needs_no_groebner_basis(monkeypatch):
    """(f) = (1) iff f is a nonzero constant: V(x^2 + 1) over GF(3) has no
    GF(3)-point but is not empty over the algebraic closure."""
    from charpk import polys

    def refuse(*args, **kwargs):
        raise AssertionError("is_empty ran Buchberger")
    monkeypatch.setattr(polys, "buchberger", refuse)
    assert not AffineVariety(make_field("GF(3,1)"), ("x",),
                             ["x^2 + 1"]).is_empty()
    assert not _curve("Fp(3;t)", "x*y - 1").is_empty()
    constant = AffineVariety(make_field("GF(3,1)"), ("x", "y"), ["2"])
    assert constant.is_empty()
    with pytest.raises(PreconditionError):
        constant.require_nonempty()


def test_point_enumeration_ratfunc_needs_bound():
    V = AffineVariety(make_field("Fp(3;t)"), ("x",), ["x^2 - t^2"])
    with pytest.raises(PreconditionError):
        list(enumerate_points(V))
    pts = [str(p[0]) for p in enumerate_points(V, bound=1)]
    assert sorted(pts) == ["2*t", "t"]


def test_point_enumeration_cap(monkeypatch):
    from charpk import polys
    from charpk.errors import ResourceExhausted
    V = _curve("GF(7,1)", "x^2 + y^2 - 1")
    monkeypatch.setattr(polys, "MAX_POINT_CANDIDATES", 48)
    with pytest.raises(ResourceExhausted, match="past 48 candidates"):
        list(enumerate_points(V))
    # the cap counts the candidates actually tested: a search that stops
    # early, or a scan of exactly the cap, is unaffected
    assert next(enumerate_points(V)) == \
        naive_point_scan(V.ideal.gens, V.field, 2)[0]
    monkeypatch.setattr(polys, "MAX_POINT_CANDIDATES", 49)
    assert len(list(enumerate_points(V))) == 8


def test_point_enumeration_caps_the_coordinate_list(monkeypatch):
    """More coordinates than the cap raise once cap + 1 are listed: each
    coordinate starts a candidate.  When the p^C(m + b, m) polynomials of
    height <= b alone exceed the cap, nothing is listed: listing all of
    Fp(2;t1,t2,t3) up to height 3 would run for minutes."""
    from charpk import polys, variety
    from charpk.errors import ResourceExhausted
    drawn = []

    def counted(K, bound):
        for x in iter_elements(K, bound):
            drawn.append(x)
            yield x
    monkeypatch.setattr(variety, "iter_elements", counted)
    monkeypatch.setattr(polys, "MAX_POINT_CANDIDATES", 50)
    # 2^C(5, 1) = 32 polynomials, but more than 50 fractions
    V = AffineVariety(make_field("Fp(2;t1)"), ("x",), ["x - t1"])
    with pytest.raises(ResourceExhausted, match="past 50 candidates"):
        next(enumerate_points(V, bound=4))
    assert len(drawn) == 51
    drawn.clear()
    V = AffineVariety(make_field("Fp(2;t1,t2,t3)"), ("x",), ["x - t1"])
    with pytest.raises(ResourceExhausted, match="past 50 candidates"):
        next(enumerate_points(V, bound=3))
    assert drawn == []
    V = AffineVariety(make_field("GF(2,6)"), ("x",), ["x - 1"])
    with pytest.raises(ResourceExhausted, match="past 50 candidates"):
        next(enumerate_points(V))
    assert drawn == []
    # 2^C(3, 2) = 8 polynomials of height <= 1 in t1, t2: listed in full
    V = AffineVariety(make_field("Fp(2;t1,t2)"), ("x",), ["x - t1"])
    assert [str(p[0]) for p in enumerate_points(V, bound=1)] == ["t1"]
    assert list(enumerate_points(V, bound=-1)) == []


@pytest.mark.parametrize("spec, variables, text", [
    ("GF(5,1)", ("x",), "x^2"),
    ("GF(5,1)", ("x", "y"), "(x*y - 1)^2"),
])
def test_function_field_needs_a_prime_presentation(spec, variables, text):
    # V(x^2) is irreducible as a set, but x is nilpotent in K[V]
    V = _curve(spec, text, variables)
    assert is_irreducible(V)
    with pytest.raises(PreconditionError, match="prime presentation"):
        V.function_field_elem("x")
    W = _curve(spec, text, variables)
    assert is_absolutely_irreducible(W)
    with pytest.raises(PreconditionError, match="prime presentation"):
        W.function_field_elem("x")


@pytest.mark.parametrize("variables, gens", [
    (("x", "y"), ["(x^2 - 2)^2", "x*y - 1"]),
    (("x", "y", "z"), ["(x^2 - 2)^2", "x*y - 1", "z - y^2"]),
])
def test_prime_presentation_survives_the_graph_reduction(variables, gens):
    # V is a graph over V((x^2 - 2)^2) in the x-line, where x^2 - 2 is
    # nilpotent: 1 / (x^2 - 2) must not be built
    V = AffineVariety(make_field("GF(5,1)"), variables, gens)
    assert is_irreducible(V)
    with pytest.raises(PreconditionError, match="prime presentation"):
        V.function_field_elem("x")
    W = AffineVariety(make_field("GF(5,1)"), variables,
                      ["x^2 - 2"] + gens[1:])
    assert 1 / W.function_field_elem("x") == W.function_field_elem("y")


@pytest.mark.parametrize("spec", ["GF(5,1)", "Fp(3;t)"])
@pytest.mark.parametrize("gens", [["x*v - 1", "x*y"], ["x*v - 1", "x^2*y"]])
def test_graph_verdicts_do_not_depend_on_generator_order(spec, gens):
    """V = {y = 0, v = 1/x} is the multiplicative group in either order:
    x*v - 1 peels v = 1/x, and what is left is saturated by x, which
    x^2*y needs to give a prime presentation."""
    K = make_field(spec)
    reasons = set()
    for order in (gens, gens[::-1]):
        V = AffineVariety(K, ("x", "y", "v"), order)
        assert is_irreducible(V) and is_absolutely_irreducible(V)
        v = V.function_field_elem("v")
        assert v * V.function_field_elem("x") == 1
        reasons.add(tuple(ppower_test(f).reason for f in (v, v ** K.p)))
    assert len(reasons) == 1
    for order in (["x*v - 1", "x*y*(y - 1)"], ["x*y*(y - 1)", "x*v - 1"]):
        assert not is_irreducible(AffineVariety(K, ("x", "y", "v"), order))
    # the saturation of y^2 by x keeps y nilpotent
    for order in (["x*v - 1", "y^2"], ["y^2", "x*v - 1"]):
        V = AffineVariety(K, ("x", "y", "v"), order)
        with pytest.raises(PreconditionError, match="prime presentation"):
            V.function_field_elem("y")


def test_the_graph_is_peeled_once_per_variety(monkeypatch):
    """is_irreducible, behind every function-field element, peels V; the
    crossing and both p-structure tests read that peel."""
    from charpk import variety
    V = AffineVariety(make_field("Fp(3;t)"), ("x", "y"),
                      ["y - (2*t*x + x + t^2 + x^2)"])
    f = V.function_field_elem("x*y + t")
    peel = peel_graph(V)

    def refuse(*args):
        raise AssertionError("peeled twice")
    monkeypatch.setattr(variety, "_peel_step", refuse)
    assert _peeled(V)[0] is peel
    ppower_test(f)
    pindep_function_field([f, V.function_field_elem("x")])


def test_dominance_projection_and_rational_map():
    K = make_field("Fp(3;t)")
    # W = V(u - 1) inside the (x, u)-plane over V = the x-line
    V = AffineVariety(K, ("x",), [])
    W = AffineVariety(K, ("x", "u"), ["u - 1"])
    assert projection_dominant(W, V, ["x"])
    # projecting the graph of x -> x^2 onto the x-line is dominant;
    # onto a strict subvariety it is not
    G = AffineVariety(K, ("x", "y"), ["y - x^2"])
    assert projection_dominant(G, V, ["x"])
    # a single fibre does not project dominantly onto the line
    F = AffineVariety(K, ("x", "u"), ["u - 1", "x"])
    assert not projection_dominant(F, V, ["x"])
    # rational-map dominance with a function-field coordinate
    m = RationalMapData(G, V, [G.function_field_elem("y")])
    assert is_dominant(m)
    const = RationalMapData(G, V, [G.function_field_elem("1")])
    assert not is_dominant(const)


def test_every_map_into_the_point_is_dominant():
    """A^0 has no coordinates: the empty tuple's locus is A^0 itself."""
    K = make_field("GF(5,1)")
    W = AffineVariety(K, ("x",), [])
    assert is_dominant(RationalMapData(W, AffineVariety(K, (), []), []))


def test_dominance_requires_irreducible_source():
    K = make_field("GF(5,1)")
    V = AffineVariety(K, ("x", "y"), ["x^2 - y^2"])
    L = AffineVariety(K, ("x",), [])
    with pytest.raises(PreconditionError):
        is_dominant(RationalMapData(V, L, [V.function_field_elem("x")]))


def test_locus_construction():
    K = make_field("Fp(2;t)")
    t = K.gen("t")
    # the locus of (t, t^2) in two fresh variables carries y = x^2
    V = locus([t, t * t], K, ["x", "y"])
    x, y = V.ring.var("x"), V.ring.var("y")
    assert V.ideal.contains(y - x * x)
    assert not V.is_empty()


@pytest.mark.parametrize("big, sub, elems", [
    ("GF(2,4)", "GF(2,2)", ["g", "g^2+1"]),
    ("GF(2,4)", "GF(2,1)", ["g^3", "g+1"]),
    ("GF(3,4)", "GF(3,2,a^2+a+2)", ["g", "g^2"]),
])
def test_locus_over_finite_subfield_is_the_frobenius_orbit(big, sub, elems):
    L, K = make_field(big), make_field(sub)
    point = tuple(L.parse(e) for e in elems)
    V = locus(point, K)
    embed = gf_embedding(K, L)
    ring = PolyRing(L, V.vars)
    gens = [MultiPoly(ring, {e: embed(c) for e, c in g.items()})
            for g in V.ideal.gens]
    q = K.p ** K.k
    orbit = set()
    while point not in orbit:
        orbit.add(point)
        point = tuple(x ** q for x in point)
    assert set(naive_point_scan(gens, L, len(point))) == orbit


def test_ppower_exact_on_function_field_of_line():
    K = make_field("Fp(2;t)")
    V = AffineVariety(K, ("x",), [])
    sq = V.function_field_elem("x^2")
    v = ppower_test(sq)
    assert v.status == "root" and str(v.value) in ("x", "(x)/(1)")
    lin = V.function_field_elem("x")
    assert ppower_test(lin).status == "absent"


def test_pindep_exact_on_function_field_of_line():
    K = make_field("Fp(2;t)")
    V = AffineVariety(K, ("x",), [])
    x = V.function_field_elem("x")
    t = V.function_field_elem("t")
    assert pindep_function_field([x]).status == "independent"
    assert pindep_function_field([x, t]).status == "independent"
    assert pindep_function_field([x, x]).status == "dependent"
    sq = V.function_field_elem("x^2")
    assert pindep_function_field([sq]).status == "dependent"


def test_ppower_without_rational_model():
    # V(x^2*y + z^2) does not peel; y = (z/x)^2 in K(V) although y is no
    # square modulo the ideal, so no polynomial root needs to exist
    V = _curve("Fp(2;t)", "x^2*y + z^2", ("x", "y", "z"))
    v = ppower_test(V.function_field_elem("y"))
    assert v.status == "root"
    assert (str(v.value.num), str(v.value.den)) == ("z", "x")
    assert ppower_ansatz(V.function_field_elem("y")) is None
    # over F_3(t), dg = dt + x^3 dy leaves dy outside the span of dg
    W = _curve("Fp(3;t)", "x^3*y + z^3 + t", ("x", "y", "z"))
    assert ppower_test(W.function_field_elem("y")).status == "absent"
    # -z^3 = x^3*y + t on W
    f = W.function_field_elem("x^3*y + t")
    v = ppower_test(f)
    assert v.status == "root" and v.value == W.function_field_elem("-z")


@pytest.mark.parametrize("spec", ["GF(7,1)", "GF(3,2)"])
def test_ppower_over_a_perfect_field_without_rational_model(spec):
    """Over a finite K the circle is separable of degree 2 in x over
    GF(q)(y), and the root comes from the coefficients of f at 1, x^p."""
    V = _curve(spec, "x^2 + y^2 - 1")
    assert len(peel_graph(V).gens) == 1
    p = V.field.p
    for text, root in [(f"x^{p}", "x"), (f"(x + y)^{p}", "x + y"),
                       (f"x^{p}*y^{p} + 1", "x*y + 1")]:
        f = V.function_field_elem(text)
        v = ppower_test(f)
        assert v.status == "root"
        assert v.value == V.function_field_elem(root)
        assert v.value ** p == f
    assert ppower_test(V.function_field_elem("x")).status == "absent"


def test_ppower_answers_absent_without_a_gcd(monkeypatch):
    """r / delta is a p-th power in L0 iff r delta^(p-1) is one in A0, so
    "absent" takes no gcd, which on this input is slow; counted, not
    timed."""
    from charpk import variety
    V = _curve("Fp(3;t)", "x^3 + 2*t^2 + t", ("x", "y", "z"))
    f = V.function_field_elem("(t + 1)*x*y + t^2 + t", "y*z + t*x + 1")
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("gcd taken")
    monkeypatch.setattr(variety, "mp_gcd", refuse)
    v = ppower_test(f)
    assert calls == []
    assert (v.status, v.reason) == (
        "absent", "exact: K(V) = L0(t^3) of degree 2 over a rational L0 "
        "and f has no p-th root there")


def _coefficient_texts(K):
    if K.kind == "gf" and K.k > 1:
        return ["1", K.gen_name, f"{K.gen_name} + 1"]
    if K.kind == "gf":
        return [str(c) for c in range(1, K.p)]
    t = K.tvars
    return ["1", t[0], f"{t[-1]} + 1", f"1/{t[-1]}", f"{t[0]}*{t[-1]}"]


def _poly_text(rng, K, names, deg, nterms):
    coeffs = _coefficient_texts(K)
    terms = []
    for _ in range(nterms):
        mono = [rng.choice(names) for _ in range(rng.randint(0, deg))]
        terms.append("*".join([f"({rng.choice(coeffs)})"] + mono))
    return " + ".join(terms)


def _ppower_inputs(seed):
    """(V, f) on hypersurfaces V: random curves over GF(q); A*y + B,
    also with A and B p-th powers; x^p - h with h in the transcendentals
    (y over GF(q)), inseparable over K then; and functions that are p-th
    powers, the coordinate y, random, or a p-th power times x."""
    rng = random.Random(seed)
    for spec in ["GF(2,1)", "GF(3,1)", "GF(5,1)", "GF(2,2)", "GF(3,2)",
                 "Fp(2;t)", "Fp(3;t)", "Fp(5;t)", "Fp(2;t1,t2)",
                 "Fp(3;t1,t2)"]:
        K = make_field(spec)
        p = K.p
        names = ("x", "y") + (("z",) if K.kind == "ratfunc" else ())
        free = names[:1] + names[2:]
        shapes = ["linear", "powers", "radical"] + (
            ["curve"] * 2 if K.kind == "gf" else [])
        made = 0
        while made < 6:
            shape = rng.choice(shapes)
            if shape == "curve":
                G = _poly_text(rng, K, ("x", "y"), 3, 4)
            elif shape == "linear":
                G = (f"({_poly_text(rng, K, free, 2, 2)})*y + "
                     f"{_poly_text(rng, K, free, 2, 2)}")
            elif shape == "powers":
                G = (f"({_poly_text(rng, K, free, 1, 2)})^{p}*y + "
                     f"({_poly_text(rng, K, free, 1, 2)})^{p}")
            else:
                h = (_poly_text(rng, K, K.tvars, 1, 2) if K.tvars
                     else _poly_text(rng, K, ("y",), 3, 2))
                G = f"x^{p} - ({h})"
            V = AffineVariety(K, names, [G])
            try:
                V.function_field_elem("1")
            except (PreconditionError, UnsupportedInstance):
                continue
            made += 1
            u, v, w = (_poly_text(rng, K, names, 2, 3) for _ in range(3))
            if not V.ideal.gens:
                # the terms of G cancel: V is the whole space, no
                # hypersurface; drawing u, v, w first keeps the later
                # inputs of the seed as they were
                continue
            for num, den in [(f"({u})^{p}", f"({v})^{p}"), ("y", "1"),
                             (u, v), (f"x*({w})^{p}", "1"),
                             (f"({u} + {w})^{p}", "1")]:
                try:
                    yield V, V.function_field_elem(num, den)
                except FieldError:
                    continue
    # x^3 = t: t is a cube, the coordinate x its root
    V = AffineVariety(make_field("Fp(3;t)"), ("x",), ["x^3 - t"])
    yield V, V.function_field_elem("t")


def test_ppower_matches_differential_ranks_and_the_ansatz():
    """On seeded hypersurfaces over GF(p), GF(p^k), F_p(t) and
    F_p(t1,t2), the verdict is the differential-rank verdict, every root
    is there and verified, and it equals any root the degree ansatz
    finds."""
    counts, by_ansatz = collections.Counter(), 0
    for V, f in _ppower_inputs(20):
        v = ppower_test(f)
        r0, r1 = differential_ranks(V, [f])
        assert _differential_ranks(V, [f]) == (r0, r1), (V, f)
        assert v.status == ("absent" if r1 > r0 else "root"), (V, f)
        counts[v.status, len(peel_graph(V).gens)] += 1
        if v.status == "root":
            assert v.value is not None and v.value ** V.field.p == f
            h = ppower_ansatz(f)
            by_ansatz += h is not None
            assert h is None or h == v.value
    assert sum(counts.values()) >= 200 and min(counts.values()) >= 20
    assert len(counts) == 4
    assert counts["root", 0] + counts["root", 1] > by_ansatz
    V = AffineVariety(make_field("Fp(3;t)"), ("x",), ["x^3 - t"])
    v = ppower_test(V.function_field_elem("t"))
    assert v.value == V.function_field_elem("x")


def test_pindep_matches_differential_ranks():
    """On the seeded hypersurfaces of `_ppower_inputs` and on plane curves
    over GF(p^2), over GF(p), GF(p^k) and F_p(t..), with no generator and
    with one after peeling, p-independence is the differential-rank
    verdict.  The tuples are every function alone; over GF(q) also each
    with the next and with x; over F_p(t..) also the coordinate y with x
    and with t, since pairs of the random rational functions there cost
    the rank oracle up to seconds each."""
    by_variety = {}
    for V, f in _ppower_inputs(20):
        by_variety.setdefault(V, []).append(f)
    # the linear and powers shapes peel to no generator over GF(q); these
    # curves keep one, and fill the cells of one generator over GF(p^2)
    for spec, G in [("GF(2,2)", "y^2 + y + x^3"),
                    ("GF(2,2)", "y^3 + x^2 + x*y + g"),
                    ("GF(3,2)", "x^2 + y^2 - 1"),
                    ("GF(3,2)", "y^2 - x^3 - g*x")]:
        V = _curve(spec, G)
        p = V.field.p
        by_variety[V] = [V.function_field_elem(f) for f in
                         ["y", "x*y + 1", "x + g*y", f"y^{p}", f"x^{p}*y"]]
    cells = collections.Counter()
    for V, fs in by_variety.items():
        K = V.field
        x = V.function_field_elem("x")
        tuples = [[f] for f in fs]
        if K.kind == "gf":
            tuples += [[f, g] for f, g in zip(fs, fs[1:])]
            tuples += [[f, x] for f in fs]
        elif "y" in V.vars:
            y = V.function_field_elem("y")
            tuples += [[y, x], [y, V.function_field_elem(K.tvars[0])]]
        kind = "ratfunc" if K.kind == "ratfunc" else f"GF(p^{min(K.k, 2)})"
        ngens = len(_peeled(V)[0].gens)
        for items in tuples:
            v = pindep_function_field(items)
            r0, r1 = differential_ranks(V, items)
            assert _differential_ranks(V, items) == (r0, r1), (V, items)
            assert v.status == ("independent" if r1 - r0 == len(items)
                                else "dependent"), (V, items)
            cells[v.status, ngens, kind] += 1
    assert sum(cells.values()) >= 200
    assert len(cells) == 12 and min(cells.values()) >= 8


def _monomial_curves(seed):
    """(V, fs) on monomial curves (s^a, s^b, s^c) that peel to two or
    more generators: the locus of the triple over GF(p), GF(p^2) and
    F_p(t), with the same generators over each.  The functions
    are the coordinates, a p-th power, random polynomials and a random
    quotient."""
    rng = random.Random(seed)
    names = ("x", "y", "z")
    for p in (2, 3, 5):
        s = make_field(f"Fp({p};s)").gen("s")
        made = 0
        while made < 2:
            exps = sorted(rng.sample(range(2, 9), 3))
            C = locus([s ** e for e in exps], make_field(f"GF({p},1)"),
                      names)
            if len(peel_graph(C).gens) < 2:
                continue
            made += 1
            for spec in (f"GF({p},1)", f"GF({p},2)", f"Fp({p};t)"):
                K = make_field(spec)
                V = C if K == C.field else locus(
                    [s ** e for e in exps], K, names)
                assert [str(g) for g in V.ideal.gens] == \
                    [str(g) for g in C.ideal.gens]
                u, v, w = (_poly_text(rng, K, names + K.tvars, 2, 2)
                           for _ in range(3))
                texts = [("x", "1"), ("y", "z"), (f"({u})^{p}", "1"),
                         (u, "1"), (v, w)] + [(t, "1") for t in K.tvars]
                fs = []
                for num, den in texts:
                    try:
                        fs.append(V.function_field_elem(num, den))
                    except FieldError:
                        continue
                yield V, fs


def test_several_generators_match_the_fraction_rank():
    """On monomial curves that peel to two or more generators, over
    GF(p), GF(p^2) and F_p(t), the ranks modulo the Groebner basis are
    those of fraction elimination over K(V), and ppower_test and
    pindep_function_field give their verdicts."""
    statuses = collections.Counter()
    for V, fs in _monomial_curves(24):
        tuples = [[f] for f in fs] + [[f, g] for f, g in zip(fs, fs[1:])]
        for items in tuples:
            ranks = differential_ranks(V, items)
            assert _differential_ranks(V, items) == ranks, (V, items)
            r0, r1 = ranks
            v = pindep_function_field(items)
            assert v.status == ("independent" if r1 - r0 == len(items)
                                else "dependent"), (V, items)
            statuses[v.status] += 1
            if len(items) == 1:
                v = ppower_test(items[0])
                assert v.status == ("absent" if r1 > r0 else "root"), \
                    (V, items)
                statuses[v.status] += 1
    assert len(statuses) == 4 and min(statuses.values()) >= 8


def test_rank_modulo_is_the_rank_in_the_function_field():
    """On the monomial curve (s^3, s^4, s^5), y^2 - x*z is zero in K(V),
    also as a first entry, and so is the determinant of
    [[x, y], [y, z]]."""
    from charpk import linalg
    V = AffineVariety(make_field("GF(5,1)"), ("x", "y", "z"),
                      ["y^2 - x*z", "x^3 - y*z", "z^2 - x^2*y"])
    basis = V.ideal.groebner()
    g, x, y, z = (V.ring.parse(t) for t in ("y^2 - x*z", "x", "y", "z"))
    zero = V.ring.zero()
    for rows, rank in [([[g, x * g]], 0), ([[g, x], [zero, y]], 1),
                       ([[x, y], [y, z]], 1), ([[x, y], [z, x]], 2),
                       ([], 0)]:
        assert linalg.rank_modulo(rows, basis) == rank, rows


def test_differential_ranks_build_no_fraction(monkeypatch):
    """A pair whose ranks by fraction elimination over K(V) take seconds:
    modulo the Groebner basis they come with no fraction elimination and
    no function-field element built."""
    from charpk import linalg, variety
    V = AffineVariety(make_field("Fp(3;t1,t2)"), ("x", "y", "z"),
                      ["t1*t2*x*y + y*z/t2 + (t2 + 1)*z + t2 + 1"])
    fs = [V.function_field_elem("y + 2",
                                "(t2 + 1)*y + ((t1*t2^2 + 1)/t2)*z"),
          V.function_field_elem("t1")]

    def refuse(*args):
        raise AssertionError("fraction arithmetic reached")
    assert not {"echelon", "solve"} & set(vars(linalg))
    monkeypatch.setattr(variety.FunctionFieldElem, "__init__", refuse)
    assert _differential_ranks(V, fs) == (1, 3)


def test_ppower_on_at_most_one_generator_takes_no_differential_rank(
        monkeypatch):
    from charpk import variety

    def refuse(*args):
        raise AssertionError("differential ranks reached")
    monkeypatch.setattr(variety, "_differential_ranks", refuse)
    for spec, gens, variables, f in [
            ("Fp(2;t)", ["x^2*y + z^2"], ("x", "y", "z"), "y"),
            ("Fp(3;t)", ["x^3 - t"], ("x",), "t"),
            ("GF(3,2)", ["x^2 + y^2 - 1"], ("x", "y"), "x"),
            ("GF(5,1)", ["x^2 + y^2 - 1", "z - x*y"], ("x", "y", "z"), "z"),
            # z = y^2 / x on the circle
            ("GF(5,1)", ["x^2 + y^2 - 1", "x*z - y^2"], ("x", "y", "z"), "z"),
            ("Fp(5;t)", ["y - x^2 - t"], ("x", "y"), "y^5")]:
        V = AffineVariety(make_field(spec), variables, gens)
        ppower_test(V.function_field_elem(f))
    for spec, gens, variables, items, status, reason in [
            ("GF(3,2)", [], ("x", "y"), ["x", "y"], "independent",
             "Jacobian rank 2 of 2"),
            ("GF(3,2)", ["x^2 + y^2 - 1"], ("x", "y"), ["x"], "independent",
             "Jacobian rank 2 of 1 + 1 modulo G"),
            ("GF(3,2)", ["x^2 + y^2 - 1"], ("x", "y"), ["x", "y"],
             "dependent", "Jacobian rank 2 of 2 + 1 modulo G"),
            # the coordinate t shadows the transcendental in text
            ("Fp(3;t)", [], ("t", "y"), ["t", "y"], "independent",
             "Jacobian rank 2 of 2"),
            ("Fp(3;t)", [], ("t", "y"), ["t^3"], "dependent",
             "Jacobian rank 0 of 1"),
            ("Fp(2;t)", ["x^2*y + z^2"], ("x", "y", "z"), ["x", "z", "t"],
             "independent", "Jacobian rank 4 of 3 + 1 modulo G")]:
        V = AffineVariety(make_field(spec), variables, gens)
        v = pindep_function_field([V.function_field_elem(f) for f in items])
        assert (v.status, v.reason) == (status, "exact: " + reason)
    # the monomial curve (s^3, s^4, s^5) keeps three generators: the rank
    # decides
    V = _monomial_curve("GF(5,1)")[0]
    assert len(peel_graph(V).gens) == 3
    x, y = V.function_field_elem("x"), V.function_field_elem("y")
    with pytest.raises(AssertionError, match="differential ranks"):
        ppower_test(x)
    with pytest.raises(AssertionError, match="differential ranks"):
        pindep_function_field([x])
    monkeypatch.undo()
    for fs, status in [([x], "independent"), ([x, y], "dependent")]:
        v = pindep_function_field(fs)
        assert (v.status, v.reason) == (
            status, "exact: differential rank 3 with the df, 2 without")


GRAPHS = [
    # polynomial coefficients
    ("Fp(3;t)", ("x", "y"), ["y - x^2 - t"]),
    ("Fp(2;t1,t2)", ("x", "y", "z"), ["y - t1*x^2 - t2", "z - x*y + t1"]),
    ("GF(5,1)", ("x", "y"), ["y - x^3 - 2"]),
    # rational coefficients
    ("Fp(5;t)", ("x", "y"), ["(t + 1)*y - x^2 - 1/t"]),
    ("Fp(3;t1,t2)", ("x", "y", "z"),
     ["y - x/(t1 + t2)", "z - y^2 - x/t1 + t2/(t1 + 1)"]),
    # a coordinate named like the transcendental, which it shadows in text
    ("Fp(3;t)", ("x", "t"), ["t - x^2 - x"]),
    # rational graphs: y = (x + 1) / (t*x); z = y^2 / x on the circle
    ("Fp(5;t)", ("x", "y"), ["t*x*y - x - 1"]),
    ("GF(5,1)", ("x", "y", "z"), ["x^2 + y^2 - 1", "x*z - y^2"]),
    # x = 2 / y peels first, then y = 3 / z goes into its pair
    ("GF(5,1)", ("x", "y", "z"), ["x*y - 2", "y*z - 3"]),
]


@pytest.mark.parametrize("spec, variables, gens", GRAPHS)
def test_rational_model_round_trip(spec, variables, gens):
    """The crossing (a, b) of f, reduced in the rational function field
    F_p(t.., free coordinates) of K(V), agrees with term-by-term scalar
    arithmetic there, and split_coeffs of (a, b) gives f back in K(V)."""
    V = AffineVariety(make_field(spec), variables, gens)
    K = V.field
    names = K.tvars + peel_graph(V).free_vars
    big = make_field(f"Fp({K.p};{','.join(names)})")
    t = next((t for t in K.tvars if t not in variables), "2")
    x, y = variables[:2]
    for num, den in [(f"{x}*{y} + {t}", "1"), (f"{y}^2 + {t}*{x}", f"{x} + 1"),
                     (f"({t} + 1)*{x}^3 - {y}/{t}", y)]:
        f = V.function_field_elem(num, den)
        a, b = _cross(f)
        A = a.ring
        ren = dict(zip(A.vars, K.tvars))
        assert FieldScalar(big, [g.rename(big._ring, ren) for g in (a, b)]) \
            == embed_by_terms(f, big)
        assert FunctionFieldElem(V, *(split_coeffs(g, A.one(), V.ring)
                                      for g in (a, b))) == f


def test_polynomial_coefficients_cross_without_fraction_arithmetic(
        monkeypatch):
    """Reading texts with polynomial coefficients over F_p(t..), crossing
    such functions into GF(p)[t.., x..] and deciding their
    p-independence take no F_p(t..) sum, product or gcd."""
    from charpk import polys
    cases = []
    # h has a constant x^2 coefficient, so normal forms on V(y - h) keep
    # polynomial coefficients
    for spec, h, funcs in [
            ("Fp(3;t)", "2*t*x + x + t^2 + x^2",
             ["(t*x + 2*y)^3*x + (x + t)^3", "x*(y + t^2*x + 1)^3",
              "t*y^2 - 2*x*y + 1"]),
            ("Fp(2;t1,t2)", "x^2 + t2*x + t1",
             ["(t1*y + x)^2*x + (t2 + y)^2", "t1*t2*x*y - (x + t1)^3"])]:
        K = make_field(spec)
        V = AffineVariety(K, ("x", "y"), [f"y - ({h})"])
        cases.append((V, funcs, [V.function_field_elem(f) for f in funcs]))
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    for name in ("add", "sub", "mul"):
        monkeypatch.setattr(polys._RatFuncKernel, name,
                            counted(name, getattr(polys._RatFuncKernel, name)))
    monkeypatch.setattr(polys, "mp_gcd", counted("mp_gcd", polys.mp_gcd))
    verdicts = []
    for V, funcs, elems in cases:
        for text in funcs:
            V.ring.parse(text)
        for f in elems:
            _cross(f)
        for fs in (elems[:1], elems[:2], elems):
            verdicts.append(pindep_function_field(fs).status)
    assert calls == {}
    assert verdicts == ["independent", "dependent", "dependent",
                        "independent", "independent", "independent"]


def test_pindep_without_rational_model():
    V = _curve("Fp(2;t)", "x^2*y + z^2", ("x", "y", "z"))

    def verdict(items):
        return pindep_function_field(
            [V.function_field_elem(f) for f in items]).status

    assert verdict(["x", "z", "t"]) == "independent"
    assert verdict(["x", "y"]) == "dependent"
    assert verdict(["y"]) == "dependent"


def test_function_field_elem_arithmetic_and_evaluation():
    K = make_field("GF(5,1)")
    V = AffineVariety(K, ("x", "y"), ["x^2 + y^2 - 1"])
    f = V.function_field_elem("x", "y")
    g = V.function_field_elem("y", "x")
    h = f * g
    assert h == V.function_field_elem("1")
    pt = (K.from_int(0), K.from_int(1))
    assert str(f.evaluate(pt)) == "0"
    bad = (K.from_int(1), K.from_int(0))
    assert f.evaluate(bad) is None  # denominator vanishes
    # relations of the variety are respected in K(V)
    one = V.function_field_elem("x^2 + y^2")
    assert one == V.function_field_elem("1")


@pytest.mark.parametrize("gens", [["x^2 - 2", "y - x^3"],
                                  ["x^2 - 2", "x*y - 1"]])
def test_triangular_systems_are_decided_by_peeling(gens):
    # 2 is not a square mod 5, so V is one point over GF(25): irreducible
    # over GF(5), not absolutely; no lex basis is computed on the way
    K = make_field("GF(5,1)")
    V = AffineVariety(K, ("x", "y"), gens)
    assert is_irreducible(V)
    W = AffineVariety(K, ("x", "y"), gens)
    assert not is_absolutely_irreducible(W)
    assert "lex" not in V.ideal._gb and "lex" not in W.ideal._gb
