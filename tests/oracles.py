"""Independent brute-force oracles used by the test suite.

Nothing here calls the code paths under test: membership uses its own
normal-form reduction over a lex basis, absolute-component counts come
from rational-point counting over controlled extensions, point scans
and fixed sets are plain loops, and GF(p^k) arithmetic is
polynomial-basis arithmetic on coefficient tuples.
"""

from __future__ import annotations

import itertools

from charpk import factor
from charpk.fields import FieldDescriptor, iter_gf_elements
from charpk.polys import MultiPoly, PolyRing, buchberger, normal_form


# ---------------------------------------------------------------------------
# naive point scans
# ---------------------------------------------------------------------------

def naive_point_scan(gens, field, nvars):
    """All F_q-points of V(gens) by exhaustive nested iteration."""
    out = []
    for point in itertools.product(list(iter_gf_elements(field)),
                                   repeat=nvars):
        if all(_eval_poly(g, point).is_zero() for g in gens):
            out.append(point)
    return out


def _eval_poly(g: MultiPoly, point):
    values = dict(zip(g.ring.vars, point))
    return g.evaluate(values, lift=lambda c: c)


# ---------------------------------------------------------------------------
# fixed sets of automorphism groups
# ---------------------------------------------------------------------------

def fixed_set(act):
    """The elements of the acted-on finite field that every sigma_g fixes,
    by a scan of the whole field."""
    return {x for x in iter_gf_elements(act.field)
            if all(s(x) == x for s in act.sigmas)}


# ---------------------------------------------------------------------------
# ideal membership via an independently computed lex basis
# ---------------------------------------------------------------------------

def lex_member(f: MultiPoly, gens) -> bool:
    if not gens:
        return f.is_zero()
    basis = buchberger(list(gens), order="lex")
    return normal_form(f, basis, order="lex").is_zero()


# ---------------------------------------------------------------------------
# absolute-component counting for plane curves of degree <= 4
# ---------------------------------------------------------------------------

def point_count_extension(f: MultiPoly, K: FieldDescriptor, m: int) -> int:
    """Number of points of V(f) over GF(q^m), for f in K[x, y] over a
    finite K: iterate x over the extension and count y-roots of the
    specialized univariate by a gcd with y^Q - y."""
    L, embed = factor.extend_gf(K, m)
    Q = L.p ** L.k
    xv, yv = f.ring.vars
    count = 0
    for a in iter_gf_elements(L):
        uni = _specialize(f, xv, yv, a, embed, L)
        if not uni:
            count += Q  # the whole vertical line lies on the curve
            continue
        count += _root_count(uni, L, Q)
    return count


def _specialize(f, xv, yv, a, embed, L):
    """Coefficient list in y of f(a, y) over L (ascending)."""
    degy = f.degree_in(yv)
    coeffs = [L.zero() for _ in range(degy + 1)]
    for mono, c in f.terms.items():
        dx = mono[f.ring.vars.index(xv)]
        dy = mono[f.ring.vars.index(yv)]
        coeffs[dy] = coeffs[dy] + embed(c) * a ** dx
    return factor.u_trim(coeffs)


def _root_count(coeffs, L, Q):
    """Distinct roots in L of a univariate with coefficients in L."""
    if factor.u_deg(coeffs) == 0:
        return 0
    x = [L.zero(), L.one()]
    xq = factor.u_powmod(x, Q, coeffs)
    g = factor.u_gcd(factor.u_sub(xq, x), coeffs)
    return factor.u_deg(g)


def weil_verdict(f: MultiPoly, K: FieldDescriptor):
    """For a curve V(f) with a single K-component of degree d <= 4:
    True/False for 'one absolute component', decided by point counting
    over GF(q^m) with m coprime to 2, 3 and 4.

    If the curve splits into r > 1 conjugate absolute components, every
    GF(q^m)-rational point lies on two distinct conjugates, so there are
    at most sum d_i d_j <= 6 such points; one absolute component forces
    at least q^m - (d-1)(d-2) q^(m/2) - d - 1 points.  The gap is empty
    for the (q, m) pairs below, so the count is a decision procedure."""
    q = K.p ** K.k
    d = f.total_degree()
    if d > 4:
        raise ValueError("the counting bound is calibrated for degree <= 4")
    if d <= 1:
        return True
    # r, the number of conjugate components, divides d; m must be
    # coprime to every such r > 1 and the Weil lower bound must clear
    # the Bezout intersection ceiling.
    divisors = [r for r in range(2, d + 1) if d % r == 0]
    upper_split = 6
    m = None
    for cand in (2, 3, 4, 5, 7):
        if any(cand % r == 0 for r in divisors):
            continue
        low = (q ** cand
               - (d - 1) * (d - 2) * int(q ** (cand / 2) + 1)
               - d - 1)
        if low > upper_split:
            m, lower = cand, low
            break
    if m is None:
        raise ValueError(f"no separating extension degree for q={q}, d={d}")
    n = point_count_extension(f, K, m)
    if n > upper_split:
        return True
    if n <= upper_split and n < lower:
        return False
    raise AssertionError("point count in the forbidden gap")


def linear_absolute_factor(f: MultiPoly, K: FieldDescriptor, s: int) -> bool:
    """Exhaustive search for a linear factor of f over GF(q^s):
    substitutes y = a x + b and x = c.  Complete for detecting linear
    components."""
    L, embed = factor.extend_gf(K, s)
    xv, yv = f.ring.vars
    big = PolyRing(L, (xv, yv))
    F = f.map_coeffs(embed).rename(big)
    x = big.var(xv)
    elems = list(iter_gf_elements(L))
    for a in elems:
        for b in elems:
            sub = F.substitute({yv: big.from_scalar(a) * x
                                + big.from_scalar(b)})
            if sub.is_zero():
                return True
    for c in elems:
        if F.substitute({xv: big.from_scalar(c)}).is_zero():
            return True
    return False


def count_k_linear_factors(f: MultiPoly, K: FieldDescriptor):
    """Split off all linear factors a x + b y + c over K by exhaustive
    substitution; returns (number removed with multiplicity, cofactor)."""
    xv, yv = f.ring.vars
    ring = f.ring
    x, y = ring.var(xv), ring.var(yv)
    elems = list(iter_gf_elements(K))
    removed = 0
    work = f
    changed = True
    while changed and work.total_degree() > 0:
        changed = False
        candidates = [y - (ring.from_scalar(a) * x + ring.from_scalar(b))
                      for a in elems for b in elems]
        candidates += [x - ring.from_scalar(c) for c in elems]
        for lin in candidates:
            q, r = _divide_once(work, lin)
            if q is not None and r:
                work = q
                removed += 1
                changed = True
                break
    return removed, work


def _divide_once(f, lin):
    """(f / lin, True) when lin divides f exactly, else (None, False)."""
    var = None
    for v in f.ring.vars:
        if lin.degree_in(v) == 1:
            var = v
            break
    if var is None:
        return None, False
    q, r = _poly_divmod(f, lin, var)
    if r.is_zero():
        return q, True
    return None, False


def _poly_divmod(f, g, var):
    ring = f.ring
    q = ring.from_scalar(ring.field.zero())
    r = f
    dg = g.degree_in(var)
    lead_g = _lead_coeff(g, var, dg)
    while not r.is_zero() and r.degree_in(var) >= dg:
        dr = r.degree_in(var)
        lead_r = _lead_coeff(r, var, dr)
        # lead_g is linear-in-var with scalar leading coefficient
        scale = _scalar_of(lead_g)
        if scale is None:
            return ring.from_scalar(ring.field.zero()), f
        term = lead_r.scale(ring.field.one() / scale) \
            * ring.var(var) ** (dr - dg)
        q = q + term
        r = r - term * g
        if not r.is_zero() and r.degree_in(var) == dr \
                and _lead_coeff(r, var, dr) == lead_r:
            return ring.from_scalar(ring.field.zero()), f
    return q, r


def _lead_coeff(f, var, d):
    ring = f.ring
    idx = ring.vars.index(var)
    terms = {}
    for mono, c in f.terms.items():
        if mono[idx] == d:
            reduced = tuple(m if i != idx else 0
                            for i, m in enumerate(mono))
            terms[reduced] = c
    return MultiPoly(ring, terms)


def _scalar_of(f):
    if f.total_degree() != 0:
        return None
    return f.constant_value()


# ---------------------------------------------------------------------------
# direct Leibniz audit
# ---------------------------------------------------------------------------

def leibniz_holds(d_map, pairs) -> bool:
    """d_map(rs) == d_map(r) s + r d_map(s) on every pair."""
    for r, s in pairs:
        if d_map(r * s) != d_map(r) * s + r * d_map(s):
            return False
    return True


# ---------------------------------------------------------------------------
# GF(p^k) in the polynomial basis, on coefficient tuples (lowest degree
# first) modulo a monic defining polynomial
# ---------------------------------------------------------------------------

def gf_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def gf_neg(a, p):
    return tuple(-x % p for x in a)


def _reduce(prod, modulus, p):
    """prod mod the monic modulus, as a length-k tuple."""
    k = len(modulus) - 1
    prod = list(prod) + [0] * max(0, k - len(prod))
    for top in range(len(prod) - 1, k - 1, -1):
        lead = prod[top] % p
        for j in range(k + 1):
            prod[top - k + j] = (prod[top - k + j] - lead * modulus[j]) % p
    return tuple(c % p for c in prod[:k])


def gf_mul(a, b, modulus, p):
    """Schoolbook convolution, then reduction by the modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _reduce(prod, modulus, p)


def gf_pow(a, e, modulus, p):
    out = _reduce([1], modulus, p)
    for _ in range(e):
        out = gf_mul(out, a, modulus, p)
    return out


def _strip(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _pdivmod(f, g, p):
    f, g = _strip(f), _strip(g)
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(len(f) - len(g) + 1, 1)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        q[shift] = c
        for i, y in enumerate(g):
            f[shift + i] = (f[shift + i] - c * y) % p
        f = _strip(f)
    return q, f


def gf_inverse(a, modulus, p):
    """Extended Euclid in F_p[x]: s a + t modulus = 1."""
    r0, r1 = _strip(modulus), _strip(a)
    s0, s1 = [0], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        qs = [0] * (len(q) + len(s1) - 1)
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                qs[i + j] += x * y
        width = max(len(s0), len(qs))
        s0, s1 = s1, [((s0[i] if i < len(s0) else 0)
                       - (qs[i] if i < len(qs) else 0)) % p
                      for i in range(width)]
        r0, r1 = r1, r
    inv = pow(r0[-1], p - 2, p)
    return _reduce([c * inv for c in s0], modulus, p)
