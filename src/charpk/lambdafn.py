"""p-independence and the multivariable lambda-functions.

p-independence over F_p(t1..tm) is decided exactly by a rank: b_1..b_e
are p-independent iff their differentials db_i are linearly independent,
i.e. iff the Jacobian [db_i/dt_j] has rank e.

The p-monomials of a tuple (b_1..b_e) are m_j = b_1^{i_1}...b_e^{i_e} with
0 <= i_j <= p-1, enumerated lexicographically on the exponent vector, so
m_1 = 1.  All Case-3 solves reduce, via the p-component decomposition of
F_p(t..) over its standard monomial K^p-basis, to ordinary linear algebra
over K: for unknowns v_j in K,

    c = sum_j v_j^p m_j   <=>   for all a:  sum_j v_j comp_a(m_j) = comp_a(c)

because comp_a is semilinear with respect to p-th powers.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import FieldError
from .fields import (FieldDescriptor, FieldScalar, _scalar, p_components,
                     partial, pth_root)


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


def _clear_pth(xs):
    """Multiply each x by den(x)^p: a p-th-power unit, so lambda solves
    transfer; returns (polynomial-valued scalars, denominators)."""
    out, dens = [], []
    for x in xs:
        field = x.field
        den = _scalar(field, field.kernel.frac(x.value[1], field._ring.one()))
        out.append(x * den ** field.p)
        dens.append(den)
    return out, dens


def _component_matrix(bs, K):
    """Rows indexed by exponent vectors a in (0..p-1)^m, columns by the
    p-monomials of bs; entry = comp_a(m_j(bs)).  Also returns the row index."""
    p, m = K.p, K.imperfection_exponent
    row_index = monomial_exponents(p, m)
    cols = []
    for mj in p_monomials(bs) if bs else [K.one()]:
        comps = p_components(mj)
        cols.append([comps.get(a, K.zero()) for a in row_index])
    matrix = [[cols[j][i] for j in range(len(cols))]
              for i in range(len(row_index))]
    return matrix, row_index


def p_independence_verdict(xs, K: FieldDescriptor):
    """(bool, reason) for p-independence of xs over K = F_p(t1..tm).

    xs is p-independent iff dx_1..dx_e are linearly independent in
    Omega_{K/F_p}, the K-space on dt_1..dt_m (Matsumura, Commutative Ring
    Theory, Thm 26.5), i.e. iff the Jacobian [dx_i/dt_j] has rank e.  A
    perfect K (m = 0), a zero entry and a tuple longer than m all show up
    as a rank below e."""
    jacobian = [[partial(x, t) for t in K.tvars] for x in xs]
    r = linalg.rank(jacobian)
    return r == len(jacobian), f"Jacobian rank {r} of {len(jacobian)}"


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


def lambda_solve(e: int, bs, c: FieldScalar):
    """All p^e lambda values at once, or None in Cases 1-2."""
    K = c.field
    bs = list(bs)
    if not is_p_independent(bs, K):
        return None  # Case 1
    if K.is_perfect:
        return [pth_root(c)]  # only the empty tuple is p-independent
    # Case 2 versus Case 3: since bs is p-independent, the span of its
    # p-monomials over K^p is the field K^p(bs), so c extends bs to a
    # p-independent tuple exactly when the defining linear system below
    # has no solution.  Deciding by attempted solve avoids a rank
    # computation on the larger (and, in Case 3, rank-deficient) matrix
    # of the extended tuple.
    # Clear denominators so every p-component is a polynomial over a
    # polynomial: b'_i = b_i d_i^p, c' = c d_c^p turn the solve into
    # mu_j = lambda_j * d_c * prod_i d_i^{i_j}.
    ys, dens = _clear_pth(bs)
    cc, (dc,) = _clear_pth([c])
    cc = cc[0]
    matrix, row_index = _component_matrix(ys, K)
    c_comps = p_components(cc)
    rhs = [c_comps.get(a, K.zero()) for a in row_index]
    mu = linalg.solve(matrix, rhs)
    if mu is None:
        return None  # Case 2
    sol = []
    for exps, mj in zip(monomial_exponents(K.p, e), mu):
        num = mj
        for d, i in zip(dens, exps):
            if i:
                num = num * d ** i
        sol.append(num / dc)
    # defining-formula round trip (exact self-check)
    acc = K.zero()
    for lam, m in zip(sol, p_monomials(bs) if bs else [K.one()]):
        acc = acc + lam ** K.p * m
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
