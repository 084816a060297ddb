"""Univariate and bivariate factorization over finite fields."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from charpk import factor
from charpk.errors import (FieldError, ResourceExhausted,
                           UnsupportedInstance)
from charpk.factor import (extend_gf, factor_poly, gf_embedding, mp_gcd,
                           project_to_subfield, uni_factor,
                           uni_is_irreducible, uni_roots)
from charpk.fields import iter_gf_elements, make_field
from charpk.polys import PolyRing
from oracles import (d_divmod, d_mul, minkowski_decomposable,
                     project_by_elimination)


def _udict(coeffs):
    """A FieldScalar coefficient list as a univariate oracle dict."""
    return {(d,): c for d, c in enumerate(coeffs) if not c.is_zero()}


def _trial_division_irreducible(coeffs, field):
    """Oracle: no monic divisor of degree 1..deg/2, by exhaustive search."""
    f = _udict(coeffs)
    n = max(f)[0]
    els = list(iter_gf_elements(field))
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(els, repeat=d):
            if not d_divmod(f, _udict(list(tail) + [field.one()]),
                            lambda e: e)[1]:
                return False
    return True


def test_uni_factor_reassembles_and_is_irreducible_by_trial_division():
    rng = random.Random(23)
    for spec in ("GF(2,1)", "GF(3,1)", "GF(2,2)", "GF(5,1)"):
        K = make_field(spec)
        els = list(iter_gf_elements(K))
        for _ in range(15):
            f = [rng.choice(els) for _ in range(rng.randrange(2, 7))]
            if all(c.is_zero() for c in f):
                continue
            while f[-1].is_zero():
                f.pop()
                if len(f) == 1:
                    break
            if len(f) < 2:
                continue
            unit, facs = uni_factor(f, K)
            prod = {(0,): unit}
            for g, m in facs:
                for _ in range(m):
                    prod = d_mul(prod, _udict(g))
            assert prod == _udict(f)
            for g, _ in facs:
                assert _trial_division_irreducible(g, K)


def test_uni_roots_and_irreducibility_examples():
    K = make_field("GF(5,1)")

    def coeffs(*cs):
        return [K.from_int(c) for c in cs]
    # x^2 - 1 = (x-1)(x+1)
    roots = sorted((str(r), m) for r, m in uni_roots(coeffs(4, 0, 1), K))
    assert roots == [("1", 1), ("4", 1)]
    # x^2 + 2 has no roots mod 5 and is irreducible
    g = coeffs(2, 0, 1)
    assert uni_is_irreducible(g, K)
    assert uni_roots(g, K) == []
    # inseparable power: x^5 - 1 = (x - 1)^5
    _, facs = uni_factor(coeffs(4, 0, 0, 0, 0, 1), K)
    assert len(facs) == 1 and facs[0][1] == 5


def test_bivariate_factor_examples():
    K = make_field("GF(3,1)")
    R = PolyRing(K, ("x", "y"))
    # a split product
    F = R.parse("x^2 - y^2")
    unit, facs = factor_poly(F)
    assert sorted(str(g) for g, _ in facs) == ["x + 2*y", "x + y"]
    # the circle over GF(3): x^2 + y^2 - 1 is irreducible
    G = R.parse("x^2 + y^2 - 1")
    _, gfacs = factor_poly(G)
    assert len(gfacs) == 1 and gfacs[0][1] == 1
    # repeated factor
    H = R.parse("x^2 + 2*x*y + y^2")
    _, hfacs = factor_poly(H)
    assert len(hfacs) == 1 and hfacs[0][1] == 2


def _counted_trial_divisors(monkeypatch):
    """A list that grows by one for each subset `_recombine` tries."""
    tried = []
    build = factor._b_to_mp

    def counted(*args):
        tried.append(args)
        return build(*args)
    monkeypatch.setattr(factor, "_b_to_mp", counted)
    return tried


def test_recombination_stops_at_its_subset_cap(monkeypatch):
    """(y^2 - x^2 - 1)(y^2 - x^2 - 4) over GF(5), of degree 4 in both
    variables, is specialised at x = 0 and has four local factors there:
    after the four singletons, the pairs holding the first factor are
    tried, and the third divides at the seventh subset.  Of the two
    factors left only the first is tried, since a half divides iff its
    complement does, so the answer takes eight subsets.  A cap of eight
    keeps it, a cap of seven raises on the eighth subset, before it is
    built."""
    from charpk import polys
    F = PolyRing(make_field("GF(5,1)"), ("x", "y")).parse(
        "(y^2 - x^2 - 1)*(y^2 - x^2 - 4)")
    tried = _counted_trial_divisors(monkeypatch)
    want = [(g, 1) for g in (F.ring.parse("x^2 + 4*y^2 + 1"),
                             F.ring.parse("x^2 + 4*y^2 + 4"))]
    monkeypatch.setattr(polys, "MAX_RECOMBINATION_SUBSETS", 8)
    assert factor_poly(F)[1] == want
    assert len(tried) == 8
    tried.clear()
    monkeypatch.setattr(polys, "MAX_RECOMBINATION_SUBSETS", 7)
    with pytest.raises(ResourceExhausted,
                       match="factor recombination past 7 subsets"):
        factor_poly(F)
    assert len(tried) == 7


def test_recombination_tries_at_most_half_of_the_local_factors(monkeypatch):
    """y^4 + x^4 + x*y + 4 over GF(5) is irreducible with four linear local
    factors at x = 0: the four singletons and the three pairs holding the
    first factor decide it, since a pair divides iff its complement does.
    That is seven trial divisions, where every pair would be ten and every
    nonempty subset fifteen."""
    F = PolyRing(make_field("GF(5,1)"), ("x", "y")).parse(
        "y^4 + x^4 + x*y + 4")
    tried = _counted_trial_divisors(monkeypatch)
    assert factor_poly(F)[1] == [(F, 1)]
    assert len(tried) == 7


def test_artin_schreier_curve_is_specialised_in_its_variable_of_larger_degree(
        monkeypatch):
    """y^16 + y + x^3 over GF(16) is specialised in y: x^3 + c has at most
    three local factors, where y^16 + y + c at x = 0 has sixteen.  At the
    least good y0 x^3 + c stays irreducible, so the curve is its own
    factor list with no subset tried."""
    F = PolyRing(make_field("GF(2,4)"), ("x", "y")).parse("y^16 + y + x^3")
    tried = _counted_trial_divisors(monkeypatch)
    assert factor_poly(F)[1] == [(F, 1)]
    assert tried == []


def _swap(F):
    return F.rename(F.ring, {"x": "y", "y": "x"})


def _wide_eisenstein(rng, K, R, d, e):
    """y^d + x a(x, y) of x-degree e, with a(0, 0) != 0 and deg_y a < d:
    Eisenstein at x, so irreducible over K."""
    els = list(iter_gf_elements(K))
    x, y = R.var("x"), R.var("y")
    F = y ** d + x * R.from_scalar(rng.choice(els[1:]))
    for j in range(d):
        for i in range(2 if j == 0 else 1, e + 1):
            c = rng.choice(els[1:] if (i, j) == (e, 0) else els)
            F = F + x ** i * y ** j * R.from_scalar(c)
    return F


@pytest.mark.parametrize("spec", ["GF(2,1)", "GF(3,1)", "GF(2,2)", "GF(5,1)",
                                  "GF(3,2)"])
def test_factoring_commutes_with_swapping_the_variables(spec):
    """Products of irreducible curves of unequal x- and y-degree, each
    possibly with x and y swapped: F and F with its variables swapped
    factor to the same list swapped back, and both to the construction."""
    K = make_field(spec)
    R = PolyRing(K, ("x", "y"))
    rng = random.Random(spec)
    for _ in range(4):
        want = {}
        while len(want) < rng.choice((2, 3)):
            d = rng.randrange(1, 4)
            e = rng.choice([n for n in range(1, 5) if n != d])
            G = _wide_eisenstein(rng, K, R, d, e)
            G = (_swap(G) if rng.random() < 0.5 else G).monic("grevlex")
            want.setdefault(G, rng.choice((1, 1, 1, 2)))
        F = R.one()
        for G, m in want.items():
            F = F * G ** m
        facs = _as_factor_set(factor_poly(F)[1])
        back = _as_factor_set((_swap(g), m)
                              for g, m in factor_poly(_swap(F))[1])
        assert facs == back == set(want.items())


def test_ascent_stops_at_the_least_extension_with_a_good_specialization(
        monkeypatch):
    """F = (y + x^2)(y + x^4 + x^2 + x) over GF(2): F(x0, y) is the square
    (y + x0^2)^2 for every x0 in GF(4), where x0^4 = x0, and every x0 of
    GF(8) outside GF(2) is good.  The ascent stops at GF(8); refused every
    good x0 below 2 deg^2 + 2 = 74 elements, it climbs to GF(128) and
    descends to the same factor list."""
    R = PolyRing(make_field("GF(2,1)"), ("x", "y"))
    F, want = _construction(R, [("y + x^2", 1), ("y + x^4 + x^2 + x", 1)])
    degrees = []
    extend = factor.extend_gf

    def counted(K, s):
        degrees.append(s)
        return extend(K, s)
    monkeypatch.setattr(factor, "extend_gf", counted)
    facs = factor_poly(F)[1]
    assert degrees == [2, 3]
    assert _as_factor_set(facs) == want
    search = factor._good_specialization

    def refused_below_74(G, xv, yv):
        field = G.ring.field
        return search(G, xv, yv) if field.p ** field.k >= 74 else None
    monkeypatch.setattr(factor, "_good_specialization", refused_below_74)
    degrees.clear()
    assert factor_poly(F)[1] == facs
    assert degrees == [2, 3, 4, 5, 6, 7]


def test_factor_determinism():
    K = make_field("GF(2,2)")
    R = PolyRing(K, ("x", "y"))
    F = R.parse("x^3*y + x*y^3 + x^2 + y^2 + x*y")
    out1 = factor_poly(F)
    out2 = factor_poly(F)
    assert str(out1) == str(out2)


def test_ratfunc_univariate_factor():
    K = make_field("Fp(3;t)")
    R = PolyRing(K, ("x",))
    t = R.from_scalar(K.gen("t"))
    x = R.var("x")
    # x^2 - t is irreducible over F_3(t)
    _, facs = factor_poly(x ** 2 - t)
    assert len(facs) == 1 and facs[0][1] == 1
    # (x - t)(x + t) splits
    _, facs2 = factor_poly(x ** 2 - t ** 2)
    assert sorted(str(g) for g, _ in facs2) == ["x + (2*t)", "x + t"]
    # three variables rejected
    R3 = PolyRing(make_field("GF(2,1)"), ("x", "y", "z"))
    with pytest.raises(UnsupportedInstance):
        factor_poly(R3.parse("x*y*z + x + y + z"))


@pytest.mark.parametrize("name", ["_X", "x"])
def test_a_transcendental_named_like_a_ring_variable(name):
    """F_3(T)[x] for T named like the variable of the crossing into
    GF(3)[T, x], or like the ring variable x itself."""
    from charpk.variety import (AffineVariety, is_absolutely_irreducible,
                                is_irreducible)
    K = make_field(f"Fp(3;{name})")
    R = PolyRing(K, ("x",))
    T = K.gen(name)
    t, x = R.from_scalar(T), R.var("x")
    assert factor_poly(x ** 2 - t ** 2)[1] == [(x - t, 1), (x + t, 1)]
    assert factor_poly(x ** 2 - t)[1] == [(x ** 2 - t, 1)]
    assert uni_is_irreducible([-T, K.zero(), K.one()], K)
    V = AffineVariety(K, ("x",), [x ** 2 - t])
    assert is_irreducible(V) is True and V._flags["prime"] is True
    assert is_absolutely_irreducible(AffineVariety(K, ("x",),
                                                   [x ** 2 - t])) is False


def _random_t_poly(rng, K, T, degree):
    return sum((K.from_int(rng.randrange(K.p)) * T ** i
                for i in range(degree + 1)), K.zero())


def _random_t_unit(rng, K, T):
    """A nonzero a(t) / b(t)."""
    while True:
        a, b = (_random_t_poly(rng, K, T, 2) for _ in range(2))
        if not a.is_zero() and not b.is_zero():
            return a / b


def _constructed_ratfunc_factor(rng, K, R, T):
    """(monic irreducible factor over F_p(t), absolutely irreducible):
    x - a(t)/b(t); an Eisenstein-at-t factor of degree 2 or 3 with a
    nonzero x-coefficient, so separable; or x^p - t, inseparable."""
    x, t = R.var("x"), R.from_scalar(T)
    kind = rng.randrange(3)
    if kind == 0:
        return x - R.from_scalar(_random_t_unit(rng, K, T)), True
    if kind == 1:
        n = rng.choice([2, 3])
        lower = [_random_t_poly(rng, K, T, 1) for _ in range(n)]
        lower[0] = lower[0] * T + K.one()   # t * unit at t = 0
        if lower[1].is_zero():
            lower[1] = K.one()
        return x ** n + sum((t * R.from_scalar(c) * x ** i
                             for i, c in enumerate(lower)), R.zero()), False
    return x ** K.p - t, True


@pytest.mark.parametrize("spec", ["Fp(2;t)", "Fp(3;t)", "Fp(5;t)"])
def test_ratfunc_factoring_matches_its_construction(spec):
    """Products of linear factors with rational roots, Eisenstein-at-t
    factors and x^p - t, some repeated, times a scalar unit with a
    denominator: `factor_poly` returns the constructed multiset, and every
    verdict and the prime flag follow from it."""
    from charpk.variety import (AffineVariety, is_absolutely_irreducible,
                                is_irreducible)
    rng = random.Random(f"ratfunc {spec}")
    K = make_field(spec)
    R = PolyRing(K, ("x",))
    T = K.gen("t")
    for _ in range(10):
        want = {}
        F = R.from_scalar(_random_t_unit(rng, K, T))
        for _ in range(rng.choice([1, 1, 2, 3])):
            g, absolute = _constructed_ratfunc_factor(rng, K, R, T)
            m = rng.choice([1, 1, 2])
            F = F * g ** m
            old = want.get(str(g), (g, 0, absolute))
            want[str(g)] = (g, old[1] + m, absolute)
        unit, facs = factor_poly(F)
        assert unit == F.leading()[1]
        assert sorted((str(g), m) for g, m in facs) == sorted(
            (k, m) for k, (_, m, _) in want.items())
        single = len(want) == 1
        _, m, absolute = next(iter(want.values()))
        parts = F.coeffs_in("x")
        coeffs = [parts[d].constant_value() if d in parts else K.zero()
                  for d in range(max(parts) + 1)]
        assert uni_is_irreducible(coeffs, K) is (single and m == 1)
        V = AffineVariety(K, ("x",), [F])
        assert is_irreducible(V) is single
        assert V._flags["prime"] is (single and m == 1)
        W = AffineVariety(K, ("x",), [F])
        assert is_absolutely_irreducible(W) is (single and absolute)


def test_linear_hypersurfaces_are_decided_in_every_variable_count():
    """A polynomial linear in a variable with coprime parts is absolutely
    irreducible, in three or more variables too; elsewhere three
    variables stay refused."""
    from charpk.factor import is_absolutely_irreducible_poly
    R = PolyRing(make_field("GF(3,1)"), ("x", "y", "z", "w"))
    for text in ("x*z + y*w", "x*y*z + x + 1"):
        assert is_absolutely_irreducible_poly(R.parse(text)) is True
    with pytest.raises(UnsupportedInstance):
        factor_poly(R.parse("x*y*z + x + 1"))
    with pytest.raises(UnsupportedInstance):
        is_absolutely_irreducible_poly(R.parse("x^2*y^2 + z^2 + 1"))


def test_mp_gcd_of_constructed_common_factor():
    K = make_field("GF(5,1)")
    R = PolyRing(K, ("x", "y"))
    d = R.parse("x + 2*y + 1")
    f = d * R.parse("x^2 + y")
    g = d * R.parse("y^2 + 3")
    h = mp_gcd(f, g)
    assert h.monic("grevlex") == d.monic("grevlex")


def test_mp_gcd_content_rules():
    R = PolyRing(make_field("GF(5,1)"), ("x", "y", "z"))
    P = R.parse
    # monomial contents x^2 y and x y^3 leave x y
    assert mp_gcd(P("x^2*y*(x + z)"), P("x*y^3*(x + z)*(z + 1)")) == \
        P("x*y*(x + z)")
    # x only in the first argument: its content in x, (y + 1)(y + 3),
    # shares only y + 1 with the second
    assert mp_gcd(P("(y + 1)*(y + 3)*(x + 1)"), P("(y + 1)*(y + 2)")) == \
        P("y + 1")
    assert mp_gcd(P("(y + 1)*(y + 2)"), P("(y + 1)*(y + 3)*(x*z + 1)")) == \
        P("y + 1")


class _PrsReached(Exception):
    pass


@pytest.mark.parametrize("spec, a", [("GF(5,1)", "2"), ("Fp(3;t)", "t")])
def test_univariate_mp_gcd_is_euclid_not_the_prs(monkeypatch, spec, a):
    """Univariate gcds, also in one variable of a larger ring, run the
    dense Euclid base case and never the pseudo-remainder sequence."""
    from charpk import polys

    def prem(*args):
        raise _PrsReached
    monkeypatch.setattr(polys, "_prem", prem)
    K = make_field(spec)
    for variables in (("x",), ("x", "y", "z")):
        R = PolyRing(K, variables)
        for v in variables:
            # v^2 + a is irreducible and prime to v - 1 over K
            f = R.parse(f"({v} + {a})^2*({v} - 1)")
            g = R.parse(f"({v} + {a})*({v}^2 + {a})")
            assert mp_gcd(f, g) == R.parse(f"{v} + {a}")
            assert mp_gcd(f, R.parse(f"{v}^3")) == R.one()
    # the patch is live: a bivariate gcd does reach the PRS
    with pytest.raises(_PrsReached):
        mp_gcd(R.parse("(x + y)*(x - y)"), R.parse("(x + y)*(x + 1)"))


def test_extend_gf_embedding_is_homomorphism():
    K = make_field("GF(2,2)")
    L, embed = extend_gf(K, 3)
    assert L.k == 6
    els = list(iter_gf_elements(K))
    for a in els:
        for b in els:
            assert embed(a * b) == embed(a) * embed(b)
            assert embed(a + b) == embed(a) + embed(b)
    # projection inverts the embedding on the image
    for a in els:
        assert project_to_subfield(embed(a), K) == a
    assert project_to_subfield(L.generator(), K) is None


@pytest.mark.parametrize("sub, big", [("GF(2,4)", "GF(2,8)"),
                                      ("GF(3,2)", "GF(3,6)"),
                                      ("GF(3,2,a^2+a+2)", "GF(3,4)"),
                                      ("GF(2,3,b^3+b^2+1)", "GF(2,6)"),
                                      ("GF(5,1)", "GF(5,2)")])
def test_projection_matches_the_linear_solve_on_every_element(sub, big):
    K, L = make_field(sub), make_field(big)
    found = 0
    for x in iter_gf_elements(L):
        want = project_by_elimination(x, K)
        assert project_to_subfield(x, K) == want, x
        found += want is not None
    assert found == K.size


@pytest.mark.parametrize("sub, big", [("GF(3,2,a^2+a+2)", "GF(3,4)"),
                                      ("GF(2,3,b^3+b^2+1)", "GF(2,6)"),
                                      ("GF(2,2)", "GF(2,4)"),
                                      ("GF(5,1)", "GF(5,2)")])
def test_gf_embedding_respects_the_subfield_modulus(sub, big):
    K, L = make_field(sub), make_field(big)
    embed = gf_embedding(K, L)
    els = list(iter_gf_elements(K))
    images = [embed(a) for a in els]
    assert len(set(images)) == len(els)
    for a, ea in zip(els, images):
        for b, eb in zip(els, images):
            assert embed(a + b) == ea + eb
            assert embed(a * b) == ea * eb
    gamma = embed(K.generator())
    assert K.k == 1 or sum((c * gamma ** i for i, c in enumerate(K.modulus)),
               L.zero()).is_zero()


def test_gf_embedding_rejects_non_subfields():
    with pytest.raises(FieldError):
        gf_embedding(make_field("GF(2,2)"), make_field("GF(2,3)"))
    with pytest.raises(FieldError):
        gf_embedding(make_field("GF(3,1)"), make_field("GF(2,2)"))


# -- the prime-degree cut in absolute irreducibility ------------------------

def _norm_curve(K, r, conjugate_factor):
    """prod_j sigma^j(C) over the q-Frobenius sigma, j < r, for the curve
    C = conjugate_factor(L, a) over L = GF(q^r), a the generator of L:
    by construction a K-polynomial with r conjugate absolute components
    (when C is absolutely irreducible and not defined over a smaller
    field), given in K[x, y]."""
    L, _ = extend_gf(K, r)
    q = K.p ** K.k
    a = L.generator()
    prod = {(0, 0): L.one()}
    for j in range(r):
        prod = d_mul(prod, conjugate_factor(L, a ** (q ** j)))
    R = PolyRing(K, ("x", "y"))
    terms = {e: project_to_subfield(c, K) for e, c in prod.items()}
    assert None not in terms.values()
    return R, terms


def _line(L, a):
    """y - a x - (a + 1)."""
    return {(0, 1): L.one(), (1, 0): -a, (0, 0): -(a + L.one())}


@pytest.mark.parametrize("spec, r", [("GF(2,1)", 3), ("GF(2,1)", 4),
                                     ("GF(3,1)", 4), ("GF(2,2)", 3),
                                     ("GF(2,1)", 6)])
def test_norm_of_a_line_is_not_absolutely_irreducible(spec, r):
    from charpk.factor import is_absolutely_irreducible_poly
    from charpk.polys import MultiPoly
    from charpk.variety import (AffineVariety, is_absolutely_irreducible,
                                is_irreducible)
    K = make_field(spec)
    R, terms = _norm_curve(K, r, _line)
    F = MultiPoly(R, terms)
    assert F.total_degree() == r
    assert is_absolutely_irreducible_poly(F) is False
    V = AffineVariety(K, ("x", "y"), [F])
    assert is_irreducible(V) is True
    assert is_absolutely_irreducible(V) is False


@pytest.mark.parametrize("spec", ["GF(2,1)", "GF(3,1)", "GF(2,2)"])
def test_norm_of_a_conic_is_not_absolutely_irreducible(spec):
    from charpk.factor import is_absolutely_irreducible_poly
    from charpk.polys import MultiPoly
    K = make_field(spec)
    for conic in (lambda L, a: {(1, 1): L.one(), (0, 0): -a},
                  lambda L, a: {(0, 2): L.one(), (1, 0): -a}):
        R, terms = _norm_curve(K, 2, conic)
        F = MultiPoly(R, terms)
        assert F.total_degree() == 4
        assert is_absolutely_irreducible_poly(F) is False


@pytest.mark.parametrize("spec, text", [
    ("GF(2,1)", "y^4 + x*y^2 + x*y + x^3 + x"),
    ("GF(3,1)", "y^4 + x*y + x^2 + x"),
    ("GF(2,2)", "y^3 + g*x*y + x^2 + x"),
    ("GF(2,1)", "y^6 + x*y^3 + x^4 + x"),
    ("GF(5,1)", "y^6 + 2*x*y + x")])
def test_eisenstein_curves_are_absolutely_irreducible(spec, text):
    """Monic in y, lower coefficients divisible by x, constant term
    divisible by x exactly once: irreducible over the algebraic closure
    of K(x)."""
    from charpk.factor import is_absolutely_irreducible_poly
    F = PolyRing(make_field(spec), ("x", "y")).parse(text)
    assert is_absolutely_irreducible_poly(F) is True


# -- the Newton-polygon certificate -----------------------------------------

@settings(derandomize=True, max_examples=150, deadline=None)
@given(support=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       min_size=1, max_size=5))
def test_polygon_check_matches_brute_force_minkowski(support):
    R = PolyRing(make_field("GF(2,1)"), ("x", "y"))
    F = R.from_raw({e: 1 for e in support})
    xs, ys = {x for x, _ in support}, {y for _, y in support}
    want = (xs != {0} and ys != {0} and min(xs) == 0 and min(ys) == 0
            and not minkowski_decomposable(support))
    assert factor._polygon_indecomposable(F) is want


def test_polygon_check_examples():
    R = PolyRing(make_field("GF(3,1)"), ("x", "y", "z"))
    for text, want in [
            ("x^2 + y^3", True),             # one primitive edge each way
            ("y^3 + x*y + x", True),         # Eisenstein at x
            ("x*z^2 + z + 1", True),         # the two variables used
            ("x^2 + y^2", False),            # a segment of lattice length 2
            ("x*y + x", False),              # the monomial factor x
            ("x^2 + x*y + y^2 + 1", False),  # twice the triangle 0, x, y
            ("x^2*z + y + 1", False),        # three variables, or one
            ("x^3 + 1", False)]:
        F = R.parse(text)
        assert factor._polygon_indecomposable(F) is want, text


GF4_EISENSTEIN = "y^3 + g*x*y + x^2 + x"


@pytest.mark.parametrize("spec, text", [
    ("GF(2,2)", GF4_EISENSTEIN),
    ("GF(2,2)", "y^4 + x*y^2 + g*x^2*y + x^3 + x"),
    ("GF(5,1)", "y^3 + 2*x*y + x^3 + 3*x"),
    ("GF(5,1)", "y^4 + x*y^3 + 4*x^2*y + x^2 + x"),
    ("GF(3,2)", "y^3 + x*y^2 + g*x*y + x^2 + g*x"),
    ("GF(3,2)", "y^3 + g*x^2*y + x^3 + x")])
def test_polygon_check_decides_eisenstein_without_factoring(monkeypatch,
                                                           spec, text):
    """The certificate answers before any bivariate factoring, over GF(q)
    or GF(q^s): `_fb` is what `factor_poly` and the decisions share."""
    from charpk.variety import (AffineVariety, is_absolutely_irreducible,
                                is_irreducible)

    def fallback(*args):
        raise AssertionError("reached the factoring fallback")
    monkeypatch.setattr(factor, "_fb", fallback)
    monkeypatch.setattr(factor, "_stays_irreducible", fallback)
    K = make_field(spec)
    F = PolyRing(K, ("x", "y")).parse(text)
    assert factor.is_absolutely_irreducible_poly(F) is True
    V = AffineVariety(K, ("x", "y"), [F])
    assert is_absolutely_irreducible(V) is True
    W = AffineVariety(K, ("x", "y"), [F])
    assert is_irreducible(W) is True
    assert W._flags["prime"] is True
    assert W.function_field_elem("x") != W.function_field_elem("y")


@pytest.mark.parametrize("spec, text", [
    ("GF(5,1)", "x*y"),
    ("GF(5,1)", "x^3 - y^3"),
    # (x + y^2)^2 - 2 (y + 1)^2, 2 a non-square: a norm form from GF(25)
    ("GF(5,1)", "x^2 + 2*x*y^2 + y^4 - 2*y^2 - 4*y - 2")])
def test_polygon_check_leaves_the_rest_to_factoring(monkeypatch, spec, text):
    from charpk.variety import (AffineVariety, is_absolutely_irreducible,
                                is_irreducible)

    class Fallback(Exception):
        pass

    def fallback(*args):
        raise Fallback
    K = make_field(spec)
    F = PolyRing(K, ("x", "y")).parse(text)
    assert factor.is_absolutely_irreducible_poly(F) is False
    monkeypatch.setattr(factor, "_fb", fallback)
    monkeypatch.setattr(factor, "_stays_irreducible", fallback)
    with pytest.raises(Fallback):
        factor.is_absolutely_irreducible_poly(F)
    with pytest.raises(Fallback):
        is_absolutely_irreducible(AffineVariety(K, ("x", "y"), [F]))
    with pytest.raises(Fallback):
        is_irreducible(AffineVariety(K, ("x", "y"), [F]))


# -- decisions read the checked list, not its canonical order ----------------

@pytest.mark.parametrize("spec, text", [
    ("GF(2,2)", GF4_EISENSTEIN),
    ("GF(5,1)", "y^3 + 2*x*y + x^3 + 3*x"),
    ("GF(3,2)", "y^3 + g*x^2*y + x^3 + x")])
def test_decisions_skip_the_canonical_order(monkeypatch, spec, text):
    """With `_normalize_factor_list` refused, products, squares and norm
    forms are still decided as constructed.  E is absolutely irreducible
    by its polygon, the norm of a line or conic from GF(q^2) irreducible
    with two conjugate absolute components."""
    from charpk.polys import MultiPoly
    from charpk.variety import (AffineVariety, is_absolutely_irreducible,
                                is_irreducible)

    def refuse(*args):
        raise AssertionError("a decision put the factors in canonical order")
    K = make_field(spec)
    R = PolyRing(K, ("x", "y"))
    E = R.parse(text)
    # (F, irreducible, prime, absolutely irreducible)
    cases = [(E * R.parse("x + y + 1"), False, False, False),
             (E ** 2, True, False, True)]
    for conic in (_line, lambda L, a: {(0, 2): L.one(), (1, 0): -a}):
        cases.append((MultiPoly(*_norm_curve(K, 2, conic)),
                      True, True, False))
    monkeypatch.setattr(factor, "_normalize_factor_list", refuse)
    for F, irreducible, prime, absolute in cases:
        assert factor.is_absolutely_irreducible_poly(F) is absolute
        V = AffineVariety(K, ("x", "y"), [F])
        assert is_irreducible(V) is irreducible
        assert V._flags["prime"] is prime
        W = AffineVariety(K, ("x", "y"), [F])
        assert is_absolutely_irreducible(W) is absolute
        assert W._flags["prime"] is prime


def test_the_self_check_guards_decisions_too(monkeypatch):
    """A worker that loses a factor is caught on the decision path as on
    `factor_poly`'s: the product check runs before the canonical order."""
    from charpk.errors import CharpkError
    from charpk.variety import AffineVariety, is_irreducible
    worker = factor._fb

    def dropping(F, xv, yv):
        return worker(F, xv, yv)[1:]
    K = make_field("GF(5,1)")
    F = PolyRing(K, ("x", "y")).parse("(y^2 + x)*(y + x + 1)")
    monkeypatch.setattr(factor, "_fb", dropping)
    check = "bivariate factorization self-check failed"
    with pytest.raises(CharpkError, match=check):
        is_irreducible(AffineVariety(K, ("x", "y"), [F]))
    with pytest.raises(CharpkError, match=check):
        factor_poly(F)


def test_a_shift_by_zero_is_the_polynomial_itself():
    K = make_field("GF(3,2)")
    F = PolyRing(K, ("x", "y")).parse("y^2 + g*x*y + x^3 + 1")
    assert factor._shift(F, "x", 0) is F
    G = factor._shift(F, "x", 1)
    assert G != F
    assert factor._shift(G, "x", K.kernel.neg(1)) == F


# -- squarefree by specialization --------------------------------------------

def _as_factor_set(facs):
    return {(g.monic("grevlex"), m) for g, m in facs}


def _construction(R, parts):
    """The product of (text, multiplicity) parts and its factor set."""
    F = R.one()
    for text, m in parts:
        F = F * R.parse(text) ** m
    return F, {(R.parse(t).monic("grevlex"), m) for t, m in parts}


@pytest.mark.parametrize("spec, parts", [
    # monic in y
    ("GF(5,1)", ["y^2 + x", "y + x + 1"]),
    ("GF(5,1)", ["y^3 + x*y + x", "y^2 + 2*x^2 + 3"]),
    ("GF(2,2)", ["y^2 + g*x*y + x", "y + g*x + 1"]),
    ("GF(3,2)", ["y^3 + g*x*y + x^2 + x", "y - x^2 - g"]),
    # non-monic in y
    ("GF(5,1)", ["x*y^2 + y + 1", "(x + 1)*y + 2"]),
    ("GF(2,2)", ["x*y^2 + g*y + x + 1", "x*y + g"]),
    ("GF(3,2)", ["(x + g)*y^2 + x", "x*y + y + 1"])])
def test_good_specialization_replaces_the_bivariate_gcd(monkeypatch, spec,
                                                        parts):
    """A squarefree primitive curve with a good specialization factors
    without the gcd of F and dF/dy, and Hensel-lifts from it over K."""
    def refuse(*args):
        raise AssertionError("took the bivariate gcd or the ascent")
    monkeypatch.setattr(factor, "mp_gcd", refuse)
    monkeypatch.setattr(factor, "_factor_by_ascent", refuse)
    R = PolyRing(make_field(spec), ("x", "y"))
    F, want = _construction(R, [(t, 1) for t in parts])
    unit, facs = factor_poly(F)
    assert _as_factor_set(facs) == want
    assert len(facs) == len(parts)


@pytest.mark.parametrize("spec, parts, path", [
    # no squarefree specialization: the gcd splits off the square
    ("GF(5,1)", [("y^2 + x", 2), ("y + x + 1", 1)], "mp_gcd"),
    ("GF(3,1)", [("y^2 + x", 2), ("y + x + 1", 1)], "mp_gcd"),
    # in K[x, y^p], y not of larger degree: dF/dy = 0, so the gcd with
    # dF/dx
    ("GF(3,1)", [("x + y^3", 2), ("x^2 + y^3 + 1", 1)], "mp_gcd"),
    ("GF(2,1)", [("x^2*y^2 + x + y^2", 1)], "mp_gcd"),
    # F(0, y) = F(1, y) = (y + 1)^2: no good x0 in GF(2)
    ("GF(2,1)", [("y^2 + x^2*y + x*y + x^3 + x + 1", 1)],
     "_factor_by_ascent")])
def test_curves_without_a_good_specialization_keep_the_old_paths(
        monkeypatch, spec, parts, path):
    calls = []
    original = getattr(factor, path)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(factor, path, counted)
    R = PolyRing(make_field(spec), ("x", "y"))
    F, want = _construction(R, parts)
    _, facs = factor_poly(F)
    assert _as_factor_set(facs) == want
    assert calls


def _eisenstein(rng, K, R, d):
    """y^d + x a(x, y) with a(0, 0) != 0: irreducible over the algebraic
    closure of K(x), so absolutely irreducible."""
    els = list(iter_gf_elements(K))
    x, y = R.var("x"), R.var("y")
    F = y ** d + x * R.from_scalar(rng.choice(els[1:]))
    for j in range(d):
        for i in range(2 if j == 0 else 1, d - j + 1):
            F = F + x ** i * y ** j * R.from_scalar(rng.choice(els))
    return F


@pytest.mark.parametrize("spec", ["GF(2,1)", "GF(3,1)", "GF(2,2)", "GF(5,1)",
                                  "GF(7,1)", "GF(2,3)", "GF(3,2)"])
def test_products_of_eisenstein_curves_factor_to_their_construction(spec):
    K = make_field(spec)
    R = PolyRing(K, ("x", "y"))
    rng = random.Random(spec)
    for _ in range(3):
        want = {}
        while len(want) < 2:
            G = _eisenstein(rng, K, R, rng.choice((1, 2, 3))).monic("grevlex")
            want.setdefault(G, rng.choice((1, 1, 2)))
        F = R.one()
        for G, m in want.items():
            F = F * G ** m
        _, facs = factor_poly(F)
        assert _as_factor_set(facs) == set(want.items())


@pytest.mark.parametrize("spec, text", [
    ("GF(5,1)", "(y^2 + x)*(y + x + 1)"),
    ("GF(5,1)", "(x*y^2 + y + 1)*((x + 1)*y + 2)"),
    ("GF(2,2)", "(x*y^2 + g*y + x + 1)*(x*y + g)"),
    ("GF(2,1)", "y^2 + x^2*y + x*y + x^3 + x + 1"),
    ("GF(3,1)", "(x + y^3)*(x^2 + y^3 + 1)")])
def test_one_specialization_search_per_squarefree_input(monkeypatch, spec,
                                                        text):
    searched = []
    original = factor._good_specialization

    def counted(F, xv, yv):
        searched.append((F.ring.field, frozenset(F.terms.items()), yv))
        return original(F, xv, yv)
    monkeypatch.setattr(factor, "_good_specialization", counted)
    F = PolyRing(make_field(spec), ("x", "y")).parse(text)
    factor_poly(F)
    assert searched
    assert len(set(searched)) == len(searched)
    base = [s for s in searched if s[0] == F.ring.field]
    assert len(base) == 1
