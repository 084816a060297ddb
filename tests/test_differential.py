"""Derivations, prolongations, the equalizer, and extension checks."""

import random

import pytest

from charpk.differential import (DerivationContext, derivation_extends,
                                 derive, equalizer, extension_oracle,
                                 kerprol_check, nabla_point, prolongation,
                                 scalar_hom)
from charpk.errors import FieldError, PreconditionError
from charpk.fields import iter_elements, make_field
from charpk.variety import AffineVariety

from oracles import leibniz_holds


def _ddt(spec="Fp(3;t)"):
    K = make_field(spec)
    return K, DerivationContext(K, {"t": K.one()})


def test_derive_rules_randomized():
    K, D = _ddt()
    rng = random.Random(13)
    pool = list(iter_elements(K, 1))
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(60)]
    assert leibniz_holds(lambda x: derive(x, D), pairs)
    for a, b in pairs:
        assert derive(a + b, D) == derive(a, D) + derive(b, D)
        if not b.is_zero():
            q = a / b
            assert derive(q, D) == (derive(a, D) * b - a * derive(b, D)) \
                / (b * b)
    # constants vanish, p-th powers vanish
    assert derive(K.from_int(2), D).is_zero()
    t = K.gen("t")
    assert derive(t ** 3, D).is_zero()
    assert str(derive(t, D)) == "1"


def test_prolongation_generators_of_graph():
    K, D = _ddt()
    V = AffineVariety(K, ("x",), ["x^2 - t"])
    bundle = prolongation(V, D)
    gens = sorted(str(g) for g in bundle.tau.ideal.gens)
    assert gens == ["2*x*u + 2", "x^2 + (2*t)"]


def test_nabla_point_lies_on_prolongation():
    K, D = _ddt()
    V = AffineVariety(K, ("x", "y"), ["y - x^2"])
    t = K.gen("t")
    pt = nabla_point((t, t * t), prolongation(V, D))
    assert [str(c) for c in pt] == ["t", "t^2", "1", "2*t"]
    # off-variety points are rejected
    with pytest.raises(PreconditionError):
        nabla_point((t, t), prolongation(V, D))


def test_nabla_point_in_extension_via_hom():
    # evaluate at a generic-style point with t -> s^2 in a bigger field
    K, D = _ddt("Fp(3;t)")
    L = make_field("Fp(3;s)")
    s = L.gen("s")
    V = AffineVariety(K, ("x",), ["x^2 - t"])
    lift = lambda c: scalar_hom(c, {"t": s * s}, L)
    # the pulled-back linearization 2*x*u + 2 forces u = 2/s at x = s
    pt = nabla_point((s,), prolongation(V, D), derivatives=(L.parse("2/s"),),
                     lift=lift)
    assert [str(c) for c in pt] == ["s", "2/s"]
    with pytest.raises(Exception):
        nabla_point((s,), prolongation(V, D), derivatives=(L.one(),),
                    lift=lift)


def test_nabla_point_embeds_the_base_field_by_names():
    """Without `lift`, a point over a field that carries K's
    transcendentals, or over any field of characteristic p for V over
    GF(p), is read through the canonical embedding; a field without one
    is refused."""
    K, D = _ddt("Fp(3;t)")
    bundle = prolongation(AffineVariety(K, ("x", "y"), ["y - x^2 - t"]), D)
    L = make_field("Fp(3;t,s)")
    t, s = L.gen("t"), L.gen("s")
    pt = nabla_point((s, s * s + t), bundle,
                     context=DerivationContext(L, {"t": L.one()}))
    assert [str(c) for c in pt] == ["s", str(s * s + t), "0", "1"]
    F = make_field("GF(3,1)")
    over_f = prolongation(AffineVariety(F, ("x", "y"), ["y - x^2 - 1"]),
                          DerivationContext(F))
    t = K.gen("t")
    pt = nabla_point((t, t * t + K.one()), over_f, context=D)
    assert [str(c) for c in pt] == ["t", str(t * t + K.one()), "1", "2*t"]
    M = make_field("Fp(3;s)")
    s = M.gen("s")
    with pytest.raises(FieldError, match="no canonical embedding"):
        nabla_point((s, s), bundle,
                    context=DerivationContext(M, {"s": M.one()}))


def test_derivation_extends_examples():
    K, D = _ddt("Fp(3;t)")
    V = AffineVariety(K, ("x",), [])
    # u = anything on the free line extends trivially
    W1 = AffineVariety(K, ("x", "u"), ["u - 1"])
    assert derivation_extends(V, W1, D)
    # char 3, V = V(x^3 - t): the prolongation has the inconsistent
    # linearization 0*u - 1, so no W sits inside it
    V3 = AffineVariety(K, ("x",), ["x^3 - t"])
    W3 = AffineVariety(K, ("x", "u"), ["x^3 - t", "u"])
    assert not derivation_extends(V3, W3, D)
    # a genuinely constrained containment
    V2 = AffineVariety(K, ("x",), ["x^2 - t"])
    W2 = AffineVariety(K, ("x", "u"), ["x^2 - t", "2*x*u + 2"])
    assert derivation_extends(V2, W2, D)
    bad = AffineVariety(K, ("x", "u"), ["x^2 - t", "u"])
    assert not derivation_extends(V2, bad, D)


def test_equalizer_shape():
    K, D = _ddt("Fp(3;t)")
    V = AffineVariety(K, ("x",), [])
    W = AffineVariety(K, ("x", "u"), ["u - 1"])
    E = equalizer(V, W, D)
    assert E.vars == ("x", "u", "xt", "ut")
    texts = {str(g) for g in E.ideal.gens}
    assert "2*u + xt" in texts  # the equalizing equation xt = u
    assert not E.is_empty()


def test_kerprol_matches_extension_oracle():
    K2, D2 = _ddt("Fp(2;t)")
    V = AffineVariety(K2, ("x",), [])
    # W = V(u^2 - x), char 2: the candidate derivative of x is forced to
    # be a square, which fails generically -- both checks say no
    W = AffineVariety(K2, ("x", "u"), ["u^2 - x"])
    assert kerprol_check(V, W, D2) == extension_oracle(V, W, D2) == False
    # W = V(u - 1): extension exists -- both checks say yes
    W1 = AffineVariety(K2, ("x", "u"), ["u - 1"])
    assert kerprol_check(V, W1, D2) == extension_oracle(V, W1, D2) == True
    # more agreement instances over char 3
    K3, D3 = _ddt("Fp(3;t)")
    V3 = AffineVariety(K3, ("x",), [])
    for w_text in ["u - x", "u - t", "u - x^2", "u"]:
        W3 = AffineVariety(K3, ("x", "u"), [w_text])
        assert kerprol_check(V3, W3, D3) == extension_oracle(V3, W3, D3)
    # over GF(5), K(W) = GF(25) is perfect: its only derivation is 0, not
    # x -> u = 1 / x
    K5 = make_field("GF(5,1)")
    D5 = DerivationContext(K5)
    V5 = AffineVariety(K5, ("x",), [])
    W5 = AffineVariety(K5, ("x", "u"), ["x^2 - 2", "x*u - 1"])
    assert kerprol_check(V5, W5, D5) == extension_oracle(V5, W5, D5) == False


def test_scalar_hom_is_fp_homomorphism():
    K = make_field("Fp(2;t)")
    L = make_field("Fp(2;s)")
    s = L.gen("s")
    images = {"t": s * s + s}
    rng = random.Random(29)
    pool = list(iter_elements(K, 1))
    for _ in range(30):
        a, b = rng.choice(pool), rng.choice(pool)
        ha = scalar_hom(a, images, L)
        hb = scalar_hom(b, images, L)
        assert scalar_hom(a + b, images, L) == ha + hb
        assert scalar_hom(a * b, images, L) == ha * hb


@pytest.mark.parametrize("gens, message", [
    # u = 1 / x peels, and what is left has the repeated factor x^2 - 2
    (["(x^2 - 2)^2", "x*u - 1"], "prime presentation"),
    (["(u - x)^2"], "prime presentation"),
    (["u^2 - x^2"], "K-irreducible variety"),
])
def test_extension_oracle_needs_a_prime_presentation(gens, message):
    K = make_field("GF(5,1)")
    D = DerivationContext(K)
    V = AffineVariety(K, ("x",), [])
    W = AffineVariety(K, ("x", "u"), gens)
    with pytest.raises(PreconditionError, match=message):
        extension_oracle(V, W, D)
