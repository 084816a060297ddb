"""Univariate and bivariate factorization over finite fields."""

import random

import pytest

from charpk.errors import FieldError, UnsupportedInstance
from charpk.factor import (extend_gf, factor_poly, gf_embedding, mp_gcd,
                           project_to_subfield, u_deg, u_from_mp, u_mul,
                           uni_factor, uni_is_irreducible, uni_roots)
from charpk.fields import iter_gf_elements, make_field
from charpk.polys import PolyRing


def _trial_division_irreducible(coeffs, field):
    """Oracle: no monic divisor of degree 1..deg/2, by exhaustive search."""
    from charpk.factor import u_divmod, u_is_zero, u_monic
    f = u_monic(list(coeffs))
    n = u_deg(f)
    els = list(iter_gf_elements(field))
    import itertools
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(els, repeat=d):
            g = list(tail) + [field.one()]
            if u_is_zero(u_divmod(f, g)[1]):
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
            if u_deg(f) < 1:
                continue
            unit, facs = uni_factor(f, K)
            prod = [unit]
            for g, m in facs:
                for _ in range(m):
                    prod = u_mul(prod, g)
            from charpk.factor import u_trim
            assert prod == u_trim(f)
            for g, _ in facs:
                assert _trial_division_irreducible(g, K)


def test_uni_roots_and_irreducibility_examples():
    K = make_field("GF(5,1)")
    R = PolyRing(K, ("x",))
    # x^2 - 1 = (x-1)(x+1)
    f = u_from_mp(R.parse("x^2 - 1"), "x")
    roots = sorted((str(r), m) for r, m in uni_roots(f, K))
    assert roots == [("1", 1), ("4", 1)]
    # x^2 + 2 has no roots mod 5 and is irreducible
    g = u_from_mp(R.parse("x^2 + 2"), "x")
    assert uni_is_irreducible(g, K)
    assert uni_roots(g, K) == []
    # inseparable power: x^5 - 1 = (x - 1)^5
    h = u_from_mp(R.parse("x^5 - 1"), "x")
    _, facs = uni_factor(h, K)
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


def test_mp_gcd_of_constructed_common_factor():
    K = make_field("GF(5,1)")
    R = PolyRing(K, ("x", "y"))
    d = R.parse("x + 2*y + 1")
    f = d * R.parse("x^2 + y")
    g = d * R.parse("y^2 + 3")
    h = mp_gcd(f, g)
    assert h.monic("grevlex") == d.monic("grevlex")


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
        assert project_to_subfield(embed(a), K, L, embed) == a
    assert project_to_subfield(L.generator(), K, L, embed) is None


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
