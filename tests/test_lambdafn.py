"""Lambda-functions and p-independence."""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from charpk import linalg, polys
from charpk.errors import FieldError
from charpk.fields import FieldScalar, iter_elements, make_field
from charpk.lambdafn import (PBasisContext, is_p_independent, lambda_basis,
                             lambda_multi, lambda_solve, monomial_exponents,
                             p_independence_verdict, p_monomials)
from charpk.variety import AffineVariety, pindep_function_field


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


# ---------------------------------------------------------------------------
# lambda_solve against the p-component elimination oracle
# ---------------------------------------------------------------------------

def _small_pool(K):
    """Entries of modest degree, with denominators below p = 5: their
    5th powers make the oracle's 25 x 26 elimination slow, and the
    denominator path is the same for every p."""
    t1, t2 = K.gen("t1"), K.gen("t2")
    one = K.one()
    pool = [one, t1, t2, t1 + one, t1 * t2]
    if K.p < 5:
        pool += [one / t2, t1 / (t2 + one), (t1 + t2) / t1]
    return pool


# (e, case) pairs that exist over F_p(t1,t2): the empty tuple is
# p-independent, and a p-independent pair is a p-basis (no Case 2)
_SHAPES = [(0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 3)]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e,case", _SHAPES)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(data=st.data())
def test_lambda_solve_matches_component_oracle(data, p, e, case):
    """Over F_p(t1,t2): Case 1 on a p-dependent tuple, Case 2 on an
    argument outside K^p(b), Case 3 on sum_J a_J^p b^J with a few nonzero
    a_J.  p = 5 is the first prime whose Taylor sum has 3! and 4!."""
    K = make_field(f"Fp({p};t1,t2)")
    entries = st.sampled_from(_small_pool(K))
    sigma = data.draw(st.permutations(("t1", "t2")))
    bs = [data.draw(entries) ** p * K.gen(name) + data.draw(entries) ** p
          for name in sigma[:e]]
    if case == 1:
        # b_e in K^p(b_1..b_{e-1}): a p-th power, or a^p b_1 + v^p
        last = data.draw(entries) ** p
        if e == 2:
            last = last * bs[0] + data.draw(entries) ** p
        bs[-1] = last
    if case == 2:
        c = data.draw(entries) ** p * K.gen(sigma[e]) \
            + data.draw(entries) ** p
    else:
        exps = monomial_exponents(p, e)
        picked = data.draw(st.lists(st.sampled_from(exps), min_size=1,
                                    max_size=3, unique=True))
        c = K.zero()
        for exps_j, mono in zip(exps, p_monomials(bs) if bs else [K.one()]):
            if exps_j in picked:
                c = c + data.draw(entries) ** p * mono
    got = lambda_solve(e, bs, c)
    assert got == oracles.lambda_by_components(bs, c)
    assert (got is not None) == (case == 3)



def test_lambda_solve_never_calls_the_linear_solver():
    """The cases are decided and Case 3 solved with no fraction solver
    in `linalg` to fall back to."""
    assert not {"echelon", "solve"} & set(vars(linalg))
    K = make_field("Fp(3;t1,t2)")
    t1, t2 = K.gen("t1"), K.gen("t2")
    one = K.one()
    a = [t1 + one, t2 / t1, one, t1 * t2]
    b = t2 ** 3 * t1 + one
    # Case 1: a p-th power, and a pair with b_2 in K^p(b_1)
    assert lambda_solve(1, [t1 ** 3], t2) is None
    assert lambda_solve(2, [b, a[0] ** 3 * b + one], t2) is None
    # Case 2: c outside K^p(b), including the empty tuple
    assert lambda_solve(1, [b], t2) is None
    assert lambda_solve(0, [], t1) is None
    # Case 3
    assert lambda_solve(0, [], a[1] ** 3) == [a[1]]
    assert lambda_solve(1, [b], a[0] ** 3 + a[1] ** 3 * b
                        + a[2] ** 3 * b * b) == a[:3]
    pair = [b, t2]
    c = sum((x ** 3 * m for x, m in zip(a, p_monomials(pair))), K.zero())
    assert lambda_solve(2, pair, c) == a + [K.zero()] * 5
    # a perfect field: only the empty tuple is p-independent
    F = make_field("GF(3,2)")
    g = F.generator()
    assert lambda_solve(1, [g], g) is None
    (root,) = lambda_solve(0, [], g)
    assert root ** 3 == g


def test_p_basis_context_recovers_the_coordinates():
    """On the p-basis (t1, t2) of F_3(t1,t2), lambda_basis(i, c) is the
    a_J of c = sum_J a_J^3 t^J, J in lexicographic order."""
    K = make_field("Fp(3;t1,t2)")
    t1, t2 = K.gen("t1"), K.gen("t2")
    ctx = PBasisContext(K, (t1, t2))
    coords = [t1 + t2, K.zero(), t2 / (t1 + K.one()), K.from_int(2), t1,
              K.zero(), K.one() / t2, t1 * t2, K.zero()]
    c = K.zero()
    for a, (i, j) in zip(coords, monomial_exponents(3, 2)):
        c = c + a ** 3 * t1 ** i * t2 ** j
    assert [lambda_basis(i, c, ctx) for i in range(1, 10)] == coords
    with pytest.raises(FieldError):
        lambda_basis(1, make_field("Fp(3;t1)").gen("t1"), ctx)


def test_p_basis_context_refuses_non_bases():
    K = make_field("Fp(3;t1,t2)")
    t1, t2 = K.gen("t1"), K.gen("t2")
    with pytest.raises(FieldError, match="length 2"):
        PBasisContext(K, (t1,))
    with pytest.raises(FieldError, match="length 2"):
        PBasisContext(K, (t1, t2, t1 + t2))
    with pytest.raises(FieldError, match="not p-independent"):
        PBasisContext(K, (t1, t1 + t2 ** 3))


# ---------------------------------------------------------------------------
# the fraction-free path against fraction elimination over K
# ---------------------------------------------------------------------------

def _fraction_free_pool(K):
    """Zero, constants, polynomials and rational entries of F_p(t..)."""
    ts = [K.gen(n) for n in K.tvars]
    one = K.one()
    pool = [K.zero(), one, K.from_int(2)]
    if ts:
        t, s = ts[0], ts[-1]
        pool += ts + [t + one, s * t + t, one / t, s / (t + one),
                      (t + s) / (t * s + one)]
    else:
        pool.append(K.generator())
    return pool


def _random_tuple(rng, K, pool, e):
    """e entries: u^p t_s + v^p for distinct t_s while there are any
    (p-independent when every u is nonzero), else pool entries."""
    p, names = K.p, list(K.tvars)
    rng.shuffle(names)
    bs = []
    for i in range(e):
        if i < len(names) and rng.random() < 0.7:
            bs.append(rng.choice(pool) ** p * K.gen(names[i])
                      + rng.choice(pool) ** p)
        else:
            bs.append(rng.choice(pool))
    return bs


def _random_argument(rng, K, pool, bs):
    """A pool entry, a p-th power or sum_J a_J^p b^J with a few a_J."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(pool)
    if kind == 1:
        return rng.choice(pool) ** K.p
    monos = p_monomials(bs) if bs else [K.one()]
    c = K.zero()
    for mono in rng.sample(monos, min(3, len(monos))):
        c = c + rng.choice(pool) ** K.p * mono
    return c


@pytest.mark.parametrize("spec", ["Fp(2;t1,t2)", "Fp(3;t1,t2,t3)",
                                  "Fp(5;t)", "GF(3,2)"])
def test_fraction_free_path_matches_fraction_elimination(spec):
    """Ranks, verdict texts and all three cases of lambda_solve against
    the fraction echelon of quotient-rule Jacobians and, where the
    p-component system is small, against `lambda_by_components`.  Tuples
    run from e = 0 to e = m + 1 and mix zero, constant, polynomial and
    rational entries.  The oracle's term-by-term Taylor sum over
    rational derivatives takes a minute on a 27-monomial Case 3, so
    Case 3 is compared there only up to p^e = 9 monomials."""
    K = make_field(spec)
    m = len(K.tvars)
    pool = _fraction_free_pool(K)
    rng = random.Random(K.p * 10 + m)
    cases = set()
    for _ in range(40):
        e = rng.randrange(m + 2)
        bs = _random_tuple(rng, K, pool, e)
        r = oracles.jacobian_rank_by_fractions(bs, K)
        assert p_independence_verdict(bs, K) == (r == e,
                                                 f"Jacobian rank {r} of {e}")
        c = _random_argument(rng, K, pool, bs)
        got = lambda_solve(e, bs, c)
        if got is None or K.p ** e <= 9:
            assert got == oracles.lambda_by_fraction_echelon(bs, c)
        if K.p ** (m + e) <= 81:
            assert got == oracles.lambda_by_components(bs, c)
        cases.add(1 if r < e else 2 if got is None else 3)
    assert cases == ({1, 2, 3} if m else {1, 3})


def test_lambdafn_never_reaches_the_fraction_echelon():
    """p-independence, all three cases of lambda_solve, a p-basis and
    `pindep_function_field` on a V that peels to an affine space eliminate
    fraction-free only: `linalg` has no fraction elimination."""
    assert not {"echelon", "solve"} & set(vars(linalg))
    K = make_field("Fp(3;t1,t2)")
    t1, t2 = K.gen("t1"), K.gen("t2")
    one = K.one()
    b = t2 ** 3 * t1 / (t2 + one) + one
    assert p_independence_verdict([b, t2], K) == (True, "Jacobian rank 2 of 2")
    assert p_independence_verdict([b, b ** 3], K) == (False,
                                                     "Jacobian rank 1 of 2")
    assert lambda_solve(2, [b, t2 ** 3], t1) is None
    assert lambda_solve(1, [b], t2 / t1) is None
    a = [t1 / (t2 + one), t2, one]
    c = a[0] ** 3 + a[1] ** 3 * b + a[2] ** 3 * b * b
    assert lambda_solve(1, [b], c) == a
    assert lambda_basis(2, c, PBasisContext(K, (b, t2))) == K.zero()
    V = AffineVariety(make_field("Fp(3;t)"), ("x", "y"), ["y - x^2 - t"])
    fs = [V.function_field_elem("x"), V.function_field_elem("2*x + t^3")]
    assert pindep_function_field(fs).status == "dependent"
    assert pindep_function_field(fs[:1]).status == "independent"


def test_polynomial_tuples_take_no_gcd(monkeypatch):
    """Rows of polynomial entries are eliminated with exact divisions
    only: `is_p_independent` calls `mp_gcd` nowhere."""
    calls = []
    gcd = polys.mp_gcd

    def counted(f, g):
        calls.append(1)
        return gcd(f, g)

    K = make_field("Fp(2;t1,t2,t3)")
    bs = [K.parse(s) for s in ("(t1*t2 + t3 + 1)^2*t1 + (t2 + t3^2)^2",
                               "(t1 + t3)^2*t2 + t1*t3 + t2^3",
                               "t1*t2*t3 + t1^3*t3")]
    monkeypatch.setattr(polys, "mp_gcd", counted)
    assert is_p_independent(bs, K)
    assert not is_p_independent(bs[:2] + [bs[0] * bs[1] ** 2], K)
    assert calls == []


@pytest.mark.parametrize("spec", ["Fp(2;t1,t2)", "Fp(3;t1,t2)", "Fp(5;t)"])
def test_fraction_free_echelon_is_the_scaled_reduced_form(spec):
    """On random polynomial matrices, some with a dependent row, the
    fraction-free elimination picks the pivots of the fraction echelon
    over K, its pivot rows are the last pivot times the reduced form and
    its other rows are zero."""
    K = make_field(spec)
    R = K._ring
    rng = random.Random(len(spec))

    def poly():
        f = R.zero()
        for _ in range(rng.randrange(3)):
            term = R.from_int(rng.randrange(1, K.p))
            for name in K.tvars:
                term = term * R.var(name) ** rng.randrange(3)
            f = f + term
        return f

    def scalar(f, d=R.one()):
        return K.zero() if f.is_zero() else FieldScalar(K, (f, d))

    for _ in range(40):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
        rows = [[poly() for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 2:
            a, b = poly(), poly()
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        reduced = [[scalar(f) for f in row] for row in rows]
        pivots = linalg.fraction_free_echelon(rows, ncols)
        assert pivots == oracles.echelon(reduced, ncols)
        for i, row in enumerate(rows):
            if i < len(pivots):
                delta = rows[0][pivots[0]]
                assert [scalar(f, delta) for f in row] == reduced[i]
            else:
                assert all(f.is_zero() for f in row)
