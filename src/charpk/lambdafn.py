"""p-independence and the multivariable lambda-functions.

p-independence over F_p(t1..tm) is decided exactly by a rank: b_1..b_e
are p-independent iff their differentials db_i are linearly independent,
i.e. iff the Jacobian J_b = [db_i/dt_j] has rank e (Matsumura,
Commutative Ring Theory, Thm 26.5).  Row i is D_i^2 db_i for b_i = N_i /
D_i, with entries N_t D - N D_t in GF(p)[t..], eliminated fraction-free
(`linalg.fraction_free_echelon`) with no gcd.

The p-monomials of a tuple b = (b_1..b_e) are b^J = b_1^{j_1}...b_e^{j_e}
with 0 <= j_i <= p-1, enumerated lexicographically on J, so the first is 1.
`lambda_solve` tells the three cases apart with one elimination on
[D^2 J_b | diag(D_i^2)]:

* Case 1, b p-dependent: J_b has fewer than e pivots.
* Case 2, (b, c) p-independent: dc is outside the span of the db_i.
* Case 3, c = sum_J lambda_J^p b^J.  With P the pivot columns, b and the
  t_j off P form a p-basis of K, and the right block is delta
  J_b[:, P]^{-1}, delta the last pivot.
  The derivations D_i = sum_r (J_b[:, P]^{-1})_{ri} d/dt_{P[r]} are dual
  to db_1..db_e and kill the other basis elements, so they act as the
  partials d/db_i: they commute, D_i^p = 0 and they vanish on K^p.  Every
  factorial below p is a unit, so Taylor's formula inverts c = sum_J
  mu_J b^J with mu_J in K^p:

      mu_J = sum_K (-b)^K D^{J+K} c / (J! K!)   over J + K <= p - 1,

  and lambda_J is the p-th root of mu_J.

The derivatives are taken of c' = c d^p, d the denominator of c: d^p is
a unit of K^p that every derivation kills, so c' is a polynomial with
the same cases as c, its gradient is polynomial, and lambda_J =
lambda'_J / d.  A Case-3 answer is checked against the defining formula
c = sum_J lambda_J^p b^J before it is returned.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import FieldError
from .fields import (FieldDescriptor, FieldScalar, _scalar, partial,
                     pth_root)


def monomial_exponents(p: int, e: int):
    """The fixed enumeration of p-monomial exponent vectors: lexicographic
    on (i_1..i_e), each 0 <= i_j <= p-1; the first entry is the constant 1."""
    return list(itertools.product(range(p), repeat=e))


def p_monomials(bs):
    """The p^e monomial values m_j(bs) in enumeration order."""
    if not bs:
        return []
    field = bs[0].field
    out = []
    for exps in monomial_exponents(field.p, len(bs)):
        m = field.one()
        for b, i in zip(bs, exps):
            if i:
                m = m * b ** i
        out.append(m)
    return out


def _jacobian_row(pair, names):
    """D^2 dx for x = N / D, pair = (N, D): the N_v D - N D_v for v in
    names; D dx = dN for a constant D (1 for a reduced fraction)."""
    num, den = pair
    if den.is_constant():
        return [num.partial(v) for v in names]
    return [num.partial(v) * den - num * den.partial(v) for v in names]


def p_independence_verdict(xs, K: FieldDescriptor):
    """(bool, reason) for p-independence of xs over K = F_p(t1..tm).

    xs is p-independent iff dx_1..dx_e are linearly independent in
    Omega_{K/F_p}, the K-space on dt_1..dt_m (Matsumura, Commutative Ring
    Theory, Thm 26.5), i.e. iff the Jacobian [dx_i/dt_j] has rank e.  A
    perfect K (m = 0), a zero entry and a tuple longer than m all show up
    as a rank below e."""
    rows = [_jacobian_row(x.value, K.tvars) if K.tvars else [] for x in xs]
    r = len(linalg.fraction_free_echelon(rows, len(K.tvars)))
    return r == len(rows), f"Jacobian rank {r} of {len(rows)}"


def is_p_independent(xs, K: FieldDescriptor) -> bool:
    """True iff the p-monomials of xs are linearly independent over K^p."""
    return p_independence_verdict(xs, K)[0]


def lambda_multi(i: int, e: int, bs, c: FieldScalar) -> FieldScalar:
    """lambda_{i,e}(b_1..b_e; c) under the fixed monomial enumeration.

    Case 1 (bs p-dependent) and Case 2 (bs + (c,) p-independent) return 0;
    Case 3 returns the unique solution of the defining formula
    c = sum_j lambda_j^p m_j(bs).
    """
    K = c.field
    bs = list(bs)
    if len(bs) != e:
        raise FieldError(f"arity mismatch: expected {e} basis entries")
    if not 1 <= i <= K.p ** e:
        raise FieldError(f"lambda index {i} out of range 1..{K.p ** e}")
    if any(b.field != K for b in bs):
        raise FieldError("mixed fields in lambda arguments")
    sol = lambda_solve(e, bs, c)
    if sol is None:
        return K.zero()
    return sol[i - 1]


def _derivative_table(c, dual, names, exps):
    """{a: D^a c} for a in exps, with D_i = sum_r dual[r][i] d/d names[r].
    D^a c is D_i of its predecessor, i the last nonzero place of a; the
    gradient of each entry is taken once and serves all its successors."""
    zero = c.field.zero()
    table = {exps[0]: c}
    grads = {}
    for a in exps[1:]:
        i = max(k for k, ak in enumerate(a) if ak)
        prev = a[:i] + (a[i] - 1,) + a[i + 1:]
        x = table[prev]
        if x:
            g = grads.get(prev)
            if g is None:
                g = grads[prev] = [partial(x, t) for t in names]
            x = zero
            for row, dx in zip(dual, g):
                if row[i] and dx:
                    x = x + row[i] * dx
        table[a] = x
    return table


def _taylor_inverse(table, bs, exps):
    """{J: mu_J} from the table of D^a c, where
    mu_J = sum_K (-b)^K D^{J+K} c / (J! K!) over J + K <= p - 1.  The
    weight is a product over coordinates, so the sum is taken one
    coordinate at a time."""
    K = table[exps[0]].field
    p, one = K.p, K.one()
    inv_fact = [1] * p
    for k in range(2, p):
        inv_fact[k] = inv_fact[k - 1] * pow(k, -1, p) % p
    for i, b in enumerate(bs):
        weights = [None]  # weights[k] = (-b)^k / k! for 1 <= k <= p - 1
        power = one
        for k in range(1, p):
            power = power * b
            w = (-1) ** k * inv_fact[k] % p
            weights.append(power if w == 1 else power * K.from_int(w))
        nxt = {}
        for a in exps:
            j = a[i]
            acc = table[a]
            for k in range(1, p - j):
                d = table[a[:i] + (j + k,) + a[i + 1:]]
                if d:
                    acc = acc + weights[k] * d
            if inv_fact[j] != 1 and acc:
                acc = acc * K.from_int(inv_fact[j])
            nxt[a] = acc
        table = nxt
    return table


def lambda_solve(e: int, bs, c: FieldScalar):
    """All p^e lambda values at once, or None in Cases 1-2."""
    K = c.field
    bs = list(bs)
    if len(bs) != e:
        raise FieldError(f"arity mismatch: expected {e} basis entries")
    p, tvars = K.p, K.tvars
    m = len(tvars)
    if e > m:
        return None  # Case 1: J_b has m columns
    cc, d, dual, pivots = c, None, [], []
    if m:
        ring, frac = K._ring, K.kernel.frac
        rows = [_jacobian_row(b.value, tvars)
                + [b.value[1] ** 2 if r == i else ring.zero()
                   for r in range(e)]
                for i, b in enumerate(bs)]
        pivots = linalg.fraction_free_echelon(rows, m)
        if len(pivots) < e:
            return None  # Case 1
        delta = rows[0][pivots[0]] if e else ring.one()
        # c' = c d^p = N d^(p-1) for c = N / d
        num, den = c.value
        if not den.is_constant():
            d = _scalar(K, frac(den, ring.one()))
            num = num * den ** (p - 1)
            cc = _scalar(K, frac(num, ring.one()))
        grad = [num.partial(t) for t in tvars]
        # Case 2: delta dc' - sum_r dc'[P[r]] row_r is nonzero off P
        for j in set(range(m)) - set(pivots):
            if (delta * grad[j] - sum((grad[k] * row[j] for row, k
                                       in zip(rows, pivots)),
                                      ring.zero())).terms:
                return None
        dual = [[_scalar(K, frac(x, delta)) for x in row[m:]]
                for row in rows]
    # Case 3: D_i = sum_r dual[r][i] d/dt_{P[r]}
    exps = monomial_exponents(p, e)
    table = _derivative_table(cc, dual, [tvars[j] for j in pivots], exps)
    table = _taylor_inverse(table, bs, exps)
    sol = []
    for a in exps:
        lam = pth_root(table[a])
        if lam is None:
            raise FieldError("lambda Taylor coefficient is not a p-th power")
        sol.append(lam if d is None else lam / d)
    # defining-formula round trip (exact self-check)
    acc = K.zero()
    for lam, mono in zip(sol, p_monomials(bs) if bs else [K.one()]):
        acc = acc + lam ** p * mono
    if acc != c:
        raise FieldError("lambda defining-formula verification failed")
    return sol


class PBasisContext:
    """A verified p-basis of K, fixing the unary lambda-functions."""

    __slots__ = ("field", "basis")

    def __init__(self, field: FieldDescriptor, basis):
        basis = tuple(basis)
        m = field.imperfection_exponent
        if len(basis) != m:
            raise FieldError(
                f"p-basis must have length {m} (spanning fails otherwise)")
        if not is_p_independent(basis, field):
            raise FieldError("candidate tuple is not p-independent")
        self.field = field
        self.basis = basis


def lambda_basis(i: int, c: FieldScalar, ctx: PBasisContext) -> FieldScalar:
    """Unary lambda-function with respect to a fixed p-basis; for a true
    p-basis the tuple extended by any c is p-dependent, so Case 2 never
    occurs and the defining formula always has a solution."""
    if c.field != ctx.field:
        raise FieldError("scalar not in the p-basis field")
    return lambda_multi(i, len(ctx.basis), ctx.basis, c)
