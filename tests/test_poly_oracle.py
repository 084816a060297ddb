"""Polynomial arithmetic on raw kernel values against the oracle.

`MultiPoly`, `mp_divmod_single`, `mp_gcd` and the dense univariate
routines compute on raw coefficients (int codes, reduced pairs);
`oracles.d_*` compute on dicts of FieldScalars.  Both must agree on
every field kind: prime fields, table-driven GF(p^k) (with the default
and a custom modulus), GF(2^17) above the table cap, and F_p(t).
`polys._reduce` is checked against the oracle's full-scan reduction.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from charpk.fields import (FieldScalar, _scalar as wrap, make_field, u_add,
                           u_deriv, u_divmod, u_gcd, u_mul, u_powmod, u_sub)
from charpk.polys import (MultiPoly, PolyRing, _reduce, mp_divmod_single,
                          mp_gcd)
from oracles import (d_add, d_divmod, d_gcd1, d_mul, d_neg, d_partial,
                     d_pow, d_powmod1, d_sub, d_substitute, gfp_gcd,
                     scan_reduce)

SPECS = ["GF(2,1)", "GF(7,1)", "GF(2,3)", "GF(3,2,a^2+a+2)", "GF(2,17)",
         "Fp(3;t)"]
CHECKS = settings(derandomize=True, max_examples=15, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def _grevlex(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def _scalar(data, K):
    if K.kind == "gf":
        return FieldScalar(K, [data.draw(st.integers(0, K.p - 1))
                               for _ in range(K.k)])
    t = K.gen("t")
    num = sum((K.from_int(data.draw(st.integers(0, 2))) * t ** i
               for i in range(3)), K.zero())
    return num / data.draw(st.sampled_from([K.one(), t, t + 1]))


def _poly(data, K, nvars, max_terms=4, max_deg=3, free=None):
    """A random polynomial as an oracle dict {exponents: FieldScalar},
    free of variable number `free` when one is given."""
    out = {}
    for _ in range(data.draw(st.integers(0, max_terms))):
        e = tuple(0 if i == free else data.draw(st.integers(0, max_deg))
                  for i in range(nvars))
        c = _scalar(data, K)
        if not c.is_zero():
            out[e] = c
    return out


def _mp(R, f):
    return MultiPoly(R, f)


def _d(f):
    return dict(f.items())


@pytest.mark.parametrize("spec", SPECS)
@CHECKS
@given(data=st.data())
def test_multipoly_arithmetic_matches_oracle(spec, data):
    K = make_field(spec)
    R = PolyRing(K, ("x", "y"))
    f, g, h = (_poly(data, K, 2) for _ in range(3))
    F, G, H = (_mp(R, a) for a in (f, g, h))
    assert _d(F + G) == d_add(f, g)
    assert _d(F - G) == d_sub(f, g)
    assert _d(-F) == d_neg(f)
    assert _d(F * G) == d_mul(f, g)
    n = data.draw(st.integers(0, 3))
    assert _d(F ** n) == d_pow(f, n, K, 2)
    assert _d(F.partial("x")) == d_partial(f, 0, K)
    assert _d(F.partial("y")) == d_partial(f, 1, K)
    assert _d(F.substitute({"x": G, "y": H})) == d_substitute(f, [g, h], K, 2)
    x = {(1, 0): K.one()}
    c = _scalar(data, K)
    shifted = d_add(x, {(0, 0): c}) if not c.is_zero() else x
    assert _d(F.substitute({"x": _mp(R, shifted)})) == \
        d_substitute(f, [shifted, {(0, 1): K.one()}], K, 2)


@pytest.mark.parametrize("spec", SPECS)
@CHECKS
@given(data=st.data())
def test_division_and_gcd_match_oracle(spec, data):
    K = make_field(spec)
    R = PolyRing(K, ("x", "y"))
    f, g = _poly(data, K, 2), _poly(data, K, 2)
    if g:
        q, r = mp_divmod_single(_mp(R, f), _mp(R, g))
        assert (_d(q), _d(r)) == d_divmod(f, g, _grevlex)
    # a constructed common factor h of a = h u m_a and b = h v m_b in
    # three variables, m_a and m_b monomials, and b free of one variable
    # when one is drawn: inputs for both content rules of mp_gcd
    R3 = PolyRing(K, ("x", "y", "z"))
    free = data.draw(st.sampled_from([None, 0, 1, 2]))
    h = _poly(data, K, 3, max_terms=3, max_deg=2, free=free)
    u = _poly(data, K, 3, max_terms=3, max_deg=2)
    v = _poly(data, K, 3, max_terms=3, max_deg=2, free=free)
    ma, mb = ({tuple(0 if i == free else data.draw(st.integers(0, 2))
                     for i in range(3)): K.one()} for _ in range(2))
    a, b = d_mul(d_mul(h, u), ma), d_mul(d_mul(h, v), mb)
    if a and b:
        gcd = _d(mp_gcd(_mp(R3, a), _mp(R3, b)))
        assert gcd[max(gcd, key=_grevlex)] == K.one()
        assert not d_divmod(a, gcd, _grevlex)[1]
        assert not d_divmod(b, gcd, _grevlex)[1]
        # h and the common part of the monomials divide the gcd
        (ea,), (eb,) = ma, mb
        common = {tuple(map(min, ea, eb)): K.one()}
        assert not d_divmod(gcd, d_mul(h, common), _grevlex)[1]
        if K.kind == "gf" and K.k == 1:
            # and nothing larger divides both
            assert {e: c.value for e, c in gcd.items()} == gfp_gcd(
                *({e: c.value for e, c in f.items()} for f in (a, b)),
                K.p, _grevlex)
    # univariate, in R1 and in one variable of R3, one argument sometimes
    # a nonzero constant: the monic Euclidean gcd exactly
    R1 = PolyRing(K, ("x",))
    f1, g1 = _poly(data, K, 1, max_deg=5), _poly(data, K, 1, max_deg=5)
    which, c0 = data.draw(st.sampled_from([None, 0, 1])), _scalar(data, K)
    if which == 0 and c0:
        f1 = {(0,): c0}
    if which == 1 and c0:
        g1 = {(0,): c0}
    i = data.draw(st.integers(0, 2))

    def in_r3(f):
        return {(0,) * i + e + (0,) * (2 - i): c for e, c in f.items()}

    if f1 or g1:
        want = d_gcd1(f1, g1)
        assert _d(mp_gcd(_mp(R1, f1), _mp(R1, g1))) == want
        assert _d(mp_gcd(_mp(R3, in_r3(f1)), _mp(R3, in_r3(g1)))) == \
            in_r3(want)
        if K.kind == "gf" and K.k == 1 and f1 and g1:
            assert {e: c.value for e, c in want.items()} == gfp_gcd(
                *({e: c.value for e, c in f.items()} for f in (f1, g1)),
                K.p, _grevlex)


def _raw(f, K):
    """Oracle univariate dict -> dense raw list."""
    out = [K.kernel.zero] * (max(f)[0] + 1 if f else 0)
    for (d,), c in f.items():
        out[d] = c.value
    return out


def _back(f, K):
    """Dense raw list -> oracle univariate dict."""
    return {(d,): wrap(K, c) for d, c in enumerate(f) if c}


@pytest.mark.parametrize("spec", SPECS)
@CHECKS
@given(data=st.data())
def test_univariate_routines_match_oracle(spec, data):
    K = make_field(spec)
    kern = K.kernel
    # F_p(t) coefficients grow fast under Euclid and powering
    size = 6 if K.kind == "gf" else 3
    f, g = _poly(data, K, 1, size, size), _poly(data, K, 1, size, size)
    rf, rg = _raw(f, K), _raw(g, K)
    assert _back(u_add(rf, rg, kern), K) == d_add(f, g)
    assert _back(u_sub(rf, rg, kern), K) == d_sub(f, g)
    assert _back(u_mul(rf, rg, kern), K) == d_mul(f, g)
    assert _back(u_deriv(rf, kern), K) == d_partial(f, 0, K)
    if g:
        q, r = u_divmod(rf, rg, kern)
        assert (_back(q, K), _back(r, K)) == d_divmod(f, g, lambda e: e)
        n = data.draw(st.integers(0, 40 if K.kind == "gf" else 4))
        assert _back(u_powmod(rf, n, rg, kern), K) == \
            d_powmod1(f, n, g, K)
    if f or g:
        assert _back(u_gcd(rf, rg, kern), K) == d_gcd1(f, g)


@pytest.mark.parametrize("order", ["lex", "grlex", "grevlex", ("elim", 1),
                                   ("elim", 2)])
@pytest.mark.parametrize("spec", ["GF(3,1)", "GF(2,3)", "Fp(3;t)"])
def test_heap_reduce_matches_the_scan(spec, order):
    """`polys._reduce` pops leading terms from a heap; the oracle scans
    for them.  Remainders and quotients agree on random divisions."""
    K = make_field(spec)
    R = PolyRing(K, ("x", "y", "z"))
    rng = random.Random(f"{spec}{order}")
    els = ([K.from_int(c) for c in range(1, K.p)] + [K.generator()]
           if K.kind == "gf" else [K.one(), K.gen("t"), K.gen("t") + K.one()])

    def rand(nterms, deg):
        return MultiPoly(R, {
            tuple(rng.randrange(deg + 1) for _ in range(3)): rng.choice(els)
            for _ in range(nterms)})
    for _ in range(12):
        g = rand(rng.randrange(1, 6), 3)
        if g.is_zero():
            continue
        f = rand(rng.randrange(0, 8), 3) * g + rand(rng.randrange(0, 5), 4)
        qa, qb = {}, {}
        assert _reduce(f, [g], order, qa) == scan_reduce(f, [g], order, qb)
        assert qa == qb
        basis = [b for b in (g, rand(3, 2), rand(2, 2)) if not b.is_zero()]
        assert _reduce(f, basis, order) == scan_reduce(f, basis, order)
