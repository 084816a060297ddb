"""Lambda-functions and p-independence."""

import itertools
import random
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from charpk.fields import iter_elements, make_field
from charpk.lambdafn import (is_p_independent, lambda_multi, lambda_solve,
                             monomial_exponents, p_independence_verdict,
                             p_monomials)


@lru_cache(maxsize=None)
def _elements_up_to(K, bound):
    return tuple(iter_elements(K, bound))


def _random_elements(K, rng, n, bound=1):
    pool = _elements_up_to(K, bound)
    return [rng.choice(pool) for _ in range(n)]


def test_monomial_exponents_shape():
    assert list(monomial_exponents(2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(list(monomial_exponents(3, 2))) == 9


def test_defining_identity_round_trip():
    """Case 3: c = sum_j lambda_j^p m_j(b)."""
    for p in (2, 3):
        K = make_field(f"Fp({p};t1,t2)")
        rng = random.Random(p)
        checked = 0
        for _ in range(12):
            bs = _random_elements(K, rng, 1)
            if not is_p_independent(bs, K):
                continue
            # force Case 3: build c inside the span of the p-monomials
            monos = p_monomials(bs)
            coeffs = _random_elements(K, rng, len(monos))
            c = K.zero()
            for a, m in zip(coeffs, monos):
                c = c + a ** p * m
            sol = lambda_solve(1, bs, c)
            assert sol is not None
            total = K.zero()
            for lam, m in zip(sol, monos):
                total = total + lam ** p * m
            assert total == c
            # the indexed accessor agrees with the solved vector
            assert lambda_multi(1, 1, bs, c) == sol[0]
            checked += 1
        assert checked >= 8


def test_degenerate_cases_return_zero():
    K = make_field("Fp(2;t)")
    t = K.gen("t")
    # case: basis not p-independent (a p-th power is dependent)
    assert lambda_solve(1, [t ** 2], t) is None
    assert lambda_multi(1, 1, [t ** 2], t).is_zero()
    # a constant basis element is p-dependent
    assert lambda_multi(2, 1, [K.one()], t).is_zero()


def test_p_independence_examples():
    K = make_field("Fp(2;t1,t2)")
    t1, t2 = K.gen("t1"), K.gen("t2")
    assert is_p_independent([t1], K)
    assert is_p_independent([t1, t2], K)
    assert not is_p_independent([t1, t1 ** 2], K)
    assert not is_p_independent([K.one()], K)
    assert is_p_independent([], K)
    v = p_independence_verdict([t1, t1], K)
    assert not v[0]


def test_perfect_field_has_no_p_independent_tuples():
    K = make_field("GF(2,2)")
    g = K.generator()
    assert not is_p_independent([g], K)
    assert is_p_independent([], K)


# Tuples whose p-structure is known by construction over F_p(t1,t2,t3).
# b_i = u_i^p t_sigma(i) + v_i^p (u_i != 0, sigma injective) generate the
# same field over K^p as t_sigma(1)..t_sigma(e), so they are p-independent;
# a sum c = sum_J a_J^p m_J(b_1..b_{e-1}) lies in K^p(b_1..b_{e-1}).
_TVARS = ("t1", "t2", "t3")


def _pool(K):
    """The polynomial pool of criterion 5 plus rational entries with
    monomial and non-monomial denominators: sums and products of their
    p-th powers have denominators that mix both kinds of factor, whose
    gcds stay fast only through both content rules of `mp_gcd`."""
    t1, t2, t3 = (K.gen(n) for n in _TVARS)
    one = K.one()
    return [K.zero(), one, t1, t2, t3, t1 + one, t2 + t3, t1 * t2,
            t1 + t2 + t3, t3 * t3,
            one / t2, t3 / t1, (t1 + one) / t2, (t2 + t3) / (t1 * t3),
            t3 / (t2 + one), (t1 + t2) / (t3 + one), one / (t1 * t2 + t3)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3]), e=st.integers(1, 3))
def test_constructed_tuples_p_structure(data, p, e):
    K = make_field(f"Fp({p};{','.join(_TVARS)})")
    pool = _pool(K)
    scalars = st.sampled_from(pool)
    sigma = data.draw(st.permutations(_TVARS))[:e]
    bs = []
    for name in sigma:
        u = data.draw(st.sampled_from(pool[1:]))
        bs.append(u ** p * K.gen(name) + data.draw(scalars) ** p)
    assert is_p_independent(bs, K)
    head = bs[:-1]
    c = K.zero()
    for exps in itertools.product(range(p), repeat=len(head)):
        term = data.draw(scalars) ** p
        for b, i in zip(head, exps):
            term = term * b ** i
        c = c + term
    assert not is_p_independent(head + [c], K)
    assert not is_p_independent(bs + [c], K)


def test_large_dependent_tuple():
    """(b1, b2, sum_J a_J^2 m_J(b1, b2)) with sizable entries over
    F_2(t1,t2,t3): dependent by construction, (b1, b2) independent."""
    K = make_field("Fp(2;t1,t2,t3)")
    b1 = K.parse("(t1*t2 + t3 + 1)^2*t1 + (t2 + t3^2)^2")
    b2 = K.parse("(t1 + t3)^2*t2 + (t1*t3 + 1)^2/(t2 + 1)^2")
    a = [K.parse(s) for s in ("t1 + t2*t3", "t3^2 + 1", "t1*t2 + t3",
                              "(t2 + 1)/t1")]
    # the p-monomials 1, b2, b1, b1*b2 in enumeration order
    monomials = [K.one(), b2, b1, b1 * b2]
    c = K.zero()
    for aj, m in zip(a, monomials):
        c = c + aj ** 2 * m
    assert is_p_independent([b1, b2], K)
    assert not is_p_independent([b1, b2, c], K)
