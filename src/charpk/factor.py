"""Polynomial factorization over the supported coefficient fields.

* univariate over GF(p^k): squarefree decomposition (with p-th-power
  descent), distinct-degree splitting, Cantor-Zassenhaus equal-degree
  splitting (trace variant in characteristic 2);
* bivariate over GF(p^k): content/primitive split, p-th-power descent,
  squarefree reduction, then Hensel lifting from a squarefree
  specialization with subset recombination; when the base field is too
  small to host a good specialization, ascend to the least GF(p^{k r}),
  r >= 2, that hosts one, factor there and descend by grouping
  Frobenius orbits of the factors;
* univariate over F_p(t): cross F_p(t)[x] into GF(p)[t, x]
  (`polys.joined_ring`, `join_coeffs`), factor there, drop the factors
  free of x, which make up the content, a unit of F_p(t)[x], and cross
  the others back (`split_coeffs`): they are irreducible over F_p(t) by
  Gauss's lemma.

Squarefree by specialization.  Let F be primitive in y with dF/dy != 0.
A good specialization, an x0 in K with F(x0, y) squarefree of degree
deg_y F, proves gcd(F, dF/dy) = 1 without computing it: a common factor
g of positive y-degree has lc_y(g) | lc_y(F), which is nonzero at x0, so
g(x0, y) would be a nonconstant common factor of F(x0, y) and its
y-derivative; a common factor in K[x] alone would divide the y-content,
which is 1.  So the search for x0, which Hensel lifting needs anyway,
comes first, and the bivariate gcd is taken only when dF/dy = 0 or no x0
in K is good (von zur Gathen and Gerhard, Modern Computer Algebra,
sec. 15.6).  The variable specialised is the one of larger degree (the
first by name on a tie), so F(x0, y) has the smaller degree and fewer
local factors (Musser, J. ACM 22, 1975): y^32 + y + x^3 over GF(32)
specialises to x^3 + c, at most 3 of them, not to y^32 + y + c.

The multivariate gcd and exact division (`mp_gcd`, `mp_exact_div`,
`_content`) and the conversions between a univariate `MultiPoly` and a
dense list (`u_from_mp`, `u_to_mp`) live in `polys`, where F_p(t..)
arithmetic uses them too.

Everything runs on raw coefficients, the values the field's kernel
computes on (see `polys.MultiPoly`): univariate polynomials are the dense
lists of `fields.u_*`, multivariate ones `MultiPoly` terms.  The public
univariate functions (`uni_factor`, `uni_roots`, `uni_is_irreducible`)
take and return FieldScalar lists.  Factor lists are sorted by the
coefficient tuples `FieldScalar.rep`, not by codes.

Everything self-checks: the product of the returned factors is compared
with the input.  `_factor_list` is the one checked factor list for every
supported input; `factor_poly` puts it in canonical order, which the
irreducibility verdicts (`variety._hypersurface`) skip.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

from . import polys
from .errors import (CharpkError, FieldError, ResourceExhausted,
                     UnsupportedInstance)
from .fields import (FieldDescriptor, FieldScalar, _code_to_vec,
                     _prime_factors, _scalar, u_add, u_bezout, u_deg, u_deriv,
                     u_divmod, u_gcd, u_monic, u_mul, u_powmod, u_sub, u_trim)
from .polys import (MultiPoly, PolyRing, _content, _mp, join_coeffs,
                    joined_ring, mp_divmod_single, mp_exact_div, mp_gcd,
                    mp_pth_root, split_coeffs, u_from_mp, u_to_mp)

# ---------------------------------------------------------------------------
# dense univariate helpers on raw lists
# ---------------------------------------------------------------------------


def u_exact_div(f, g, K):
    q, r = u_divmod(f, g, K)
    if r:
        raise CharpkError("inexact univariate division")
    return q


def _coeffs_key(g, field):
    """Sort key of a raw coefficient list: the `rep` tuples for GF(p^k)
    (code order differs: a code's highest digit is its most significant),
    the printed forms for F_p(t..)."""
    if field.kind == "gf":
        return tuple(tuple(_code_to_vec(c, field.p, field.k)) for c in g)
    return tuple(str(_scalar(field, c)) for c in g)


def _raw(f):
    return [c.value for c in f]


def _scalars(f, field):
    return [_scalar(field, c) for c in f]


# ---------------------------------------------------------------------------
# univariate factorization over GF(p^k)
# ---------------------------------------------------------------------------

def uni_factor(f, field: FieldDescriptor):
    """Complete factorization over GF(p^k) of a FieldScalar list: (unit,
    [(monic irreducible coefficient list, multiplicity)]), deterministic."""
    unit, facs = _uni_factor(_raw(f), field)
    return (_scalar(field, unit),
            [(_scalars(g, field), m) for g, m in facs])


def _uni_factor(f, field):
    """uni_factor on a raw list."""
    if field.kind != "gf":
        raise UnsupportedInstance("uni_factor needs a finite base field")
    K = field.kernel
    f = u_trim(list(f))
    if not f:
        raise CharpkError("factorization of zero")
    unit = f[-1]
    f = u_monic(f, K)
    factors = _uni_factor_monic(f, field)
    # self-check
    prod = [K.one]
    for g, m in factors:
        for _ in range(m):
            prod = u_mul(prod, g, K)
    if prod != f:
        raise CharpkError("univariate factorization self-check failed")
    return unit, factors


def _merge(fac_lists, field):
    out = {}
    for facs in fac_lists:
        for g, m in facs:
            key = tuple(g)
            out[key] = out.get(key, 0) + m
    return sorted(([list(k), m] for k, m in out.items()),
                  key=lambda gm: (len(gm[0]), _coeffs_key(gm[0], field)))


def _uni_factor_monic(f, field):
    if u_deg(f) <= 0:
        return []
    p, K = field.p, field.kernel
    fp = u_deriv(f, K)
    if not fp:
        # f(x) = g(x^p) = (g^(1/p))(x)^p: take p-th roots of the
        # coefficients (Frobenius has order k, its inverse is power k-1)
        e = p ** (field.k - 1)
        g = [K.pow(c, e) for c in f[::p]]
        inner = _uni_factor_monic(g, field)
        return _merge([[(h, m * p) for h, m in inner]], field)
    g = u_gcd(f, fp, K)
    if u_deg(g) > 0:
        return _merge([_uni_factor_monic(g, field),
                       _uni_factor_monic(u_exact_div(f, g, K), field)],
                      field)
    return _merge([[(h, 1) for h in _uni_factor_squarefree(f, field)]],
                  field)


def _uni_factor_squarefree(f, field):
    """Distinct-degree then equal-degree splitting of a squarefree monic f."""
    K = field.kernel
    q = field.p ** field.k
    out = []
    x = [K.zero, K.one]
    h = x
    d = 0
    while u_deg(f) > 0:
        d += 1
        if 2 * d > u_deg(f):
            out.append(f)
            break
        h = u_powmod(h, q, f, K)
        g = u_gcd(u_sub(h, x, K), f, K)
        if u_deg(g) > 0:
            out.extend(_equal_degree_split(g, d, field))
            f = u_exact_div(f, g, K)
            h = u_divmod(h, f, K)[1]
    return out


def _equal_degree_split(g, d, field):
    K = field.kernel
    if u_deg(g) == d:
        return [u_monic(g, K)]
    p, k = field.p, field.k
    q = p ** k
    seed = hash((p, k, d, _coeffs_key(g, field))) & 0xFFFFFFFF
    rng = random.Random(seed)
    while True:
        r = u_trim([rng.randrange(q) for _ in range(u_deg(g))])
        if u_deg(r) < 1:
            continue
        if p == 2:
            s = []
            t = u_divmod(r, g, K)[1]
            for _ in range(k * d):
                s = u_add(s, t, K)
                t = u_divmod(u_mul(t, t, K), g, K)[1]
            h = u_gcd(s, g, K)
        else:
            s = u_powmod(r, (q ** d - 1) // 2, g, K)
            h = u_gcd(u_sub(s, [K.one], K), g, K)
        if 0 < u_deg(h) < u_deg(g):
            return (_equal_degree_split(h, d, field)
                    + _equal_degree_split(u_exact_div(g, h, K), d, field))


def vanishing_poly(roots, field):
    """prod (T - r) over the FieldScalars `roots`: its coefficients,
    lowest degree first, as FieldScalars."""
    K = field.kernel
    f = [K.one]
    for r in roots:
        f = u_mul(f, [K.neg(r.value), K.one], K)
    return _scalars(f, field)


def uni_roots(f, field):
    """Roots in the coefficient field, with multiplicity."""
    _, facs = _uni_factor(_raw(f), field)
    neg = field.kernel.neg
    return [(_scalar(field, neg(g[0])), m) for g, m in facs if len(g) == 2]


def uni_is_irreducible(f, field):
    """Over GF(p^k), or over F_p(t) by Gauss's lemma (`_factor_list`)."""
    f = _raw(f)
    if field.kind == "gf":
        facs = _uni_factor(f, field)[1]
    elif any(f):
        facs = _factor_list(u_to_mp(f, PolyRing(field, ("x",)), "x"))
    else:
        raise CharpkError("factorization of zero")
    return len(facs) == 1 and facs[0][1] == 1


# ---------------------------------------------------------------------------
# field extension ascent / descent
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def extend_gf(K: FieldDescriptor, s: int):
    """GF(p^(k s)) together with an embedding of GF(p^k)."""
    if K.kind != "gf":
        raise UnsupportedInstance("extend_gf needs a finite field")
    L = FieldDescriptor("gf", K.p, K.k * s)
    return L, gf_embedding(K, L)


@lru_cache(maxsize=None)
def _modulus_root(K: FieldDescriptor, L: FieldDescriptor):
    """The least root in L, by coefficient tuple, of K's defining
    polynomial."""
    roots = uni_roots([L.from_int(c) for c in K.modulus], L)
    if not roots:
        raise FieldError(f"{K.spec} does not embed into {L.spec}")
    return min((r for r, _ in roots), key=lambda r: r.rep).rep


def gf_embedding(K: FieldDescriptor, L: FieldDescriptor):
    """The embedding of GF(p^k) = K into L that sends K's generator to the
    least root in L of K's own defining polynomial (on F_p, the identity);
    raises FieldError when K is not a subfield of L."""
    if K.kind != "gf" or L.kind != "gf" or K.p != L.p or L.k % K.k:
        raise FieldError(f"{K.spec} is not a subfield of {L.spec}")
    if K.k == 1:
        return lambda x: L.from_int(x.value)
    beta = FieldScalar(L, _modulus_root(K, L))

    def embed(x):
        acc = L.zero()
        for c in reversed(x.rep):
            acc = acc * beta + L.from_int(c)
        return acc
    return embed


@lru_cache(maxsize=None)
def _trace_dual_basis(K: FieldDescriptor, L: FieldDescriptor):
    """Rows (d_i^(p^j) for j < k) in L for the trace-dual basis d_0..d_(k-1)
    of 1, b, .., b^(k-1), b the image of K's generator under
    `gf_embedding`: d_i = c_i / m'(b), where m is K's defining polynomial
    and m(X)/(X - b) = sum c_i X^i (Euler's formula; Lidl and
    Niederreiter, Finite Fields, Def. 2.30)."""
    b = gf_embedding(K, L)(K.generator())
    c = [L.one()]
    for m in reversed(K.modulus[1:-1]):
        c.append(L.from_int(m) + b * c[-1])
    c.reverse()
    dm = L.zero()  # m'(b) = (m(X)/(X - b)) at X = b
    for ci in reversed(c):
        dm = dm * b + ci
    rows = []
    for ci in c:
        d = [ci / dm]
        for _ in range(K.k - 1):
            d.append(d[-1] ** K.p)
        rows.append(tuple(d))
    return tuple(rows)


def project_to_subfield(x: FieldScalar, K: FieldDescriptor):
    """Pull x in L = x.field back along `gf_embedding(K, L)`, or None when
    x is not in the image: x is in it iff x^(p^k) = x, and then its i-th
    digit over K's power basis is Tr_{K/F_p}(x d_i), d_0..d_(k-1) the
    trace-dual basis (`_trace_dual_basis`)."""
    dual = _trace_dual_basis(K, x.field)
    conj = [x]
    for _ in range(K.k):
        conj.append(conj[-1] ** K.p)
    if conj.pop() != x:
        return None
    return FieldScalar(K, tuple(sum(a * d for a, d in zip(conj, row)).value
                                for row in dual))


def _map_raw(F: MultiPoly, ring: PolyRing, fn):
    """F moved to `ring` (same variables) by a map of raw coefficients
    that sends nonzero values to nonzero values."""
    return _mp(ring, {e: fn(c) for e, c in F.terms.items()})


def _embed_raw(F: MultiPoly, L, embed):
    K = F.ring.field
    return _map_raw(F, PolyRing(L, F.ring.vars),
                    lambda c: embed(_scalar(K, c)).value)


# ---------------------------------------------------------------------------
# bivariate factorization over GF(p^k)
# ---------------------------------------------------------------------------

def factor_poly(F: MultiPoly):
    """(unit scalar, [(monic irreducible MultiPoly, multiplicity)]).

    Complete for polynomials over GF(p^k) in at most two variables and for
    univariate polynomials over F_p(t) (one transcendental); raises
    UnsupportedInstance otherwise.  The checked `_factor_list(F)` in
    canonical order: that of `_normalize_factor_list` in two variables,
    by degree and coefficients (`_coeffs_key`) in one.
    """
    facs = _factor_list(F)
    used = sorted(F.variables_used())
    if len(used) == 2:
        return _normalize_factor_list(F, facs)
    if not used:
        return F.constant_value(), []
    facs = [(g.monic(), m) for g, m in facs]
    facs.sort(key=lambda gm: (gm[0].total_degree(), _coeffs_key(
        u_from_mp(gm[0], used[0]), F.ring.field)))
    return F.leading()[1], facs


def _factor_list(F: MultiPoly):
    """The irreducible factors of F with their multiplicities, checked
    against F up to a unit, in no canonical order: over GF(q) by
    `_uni_factor` in one variable and `_fb` in two; over F_p(t) in one
    variable x by crossing into GF(p)[t, x] (`polys.join_coeffs`), where
    the factors free of x make up the content, a unit of F_p(t)[x], and
    the others are irreducible over F_p(t) (Gauss's lemma)."""
    ring, field = F.ring, F.ring.field
    used = sorted(F.variables_used())
    if field.kind == "ratfunc" and (field.imperfection_exponent != 1
                                    or len(used) > 1):
        raise UnsupportedInstance(
            "factorization over rational-function fields is supported "
            "for one transcendental and one polynomial variable")
    if len(used) > 2:
        raise UnsupportedInstance(
            "factorization with three or more variables is not supported")
    if not used:
        return []
    if field.kind == "ratfunc":
        kind = "rational-function"
        joined = joined_ring(ring)
        facs = [(split_coeffs(g, joined.one(), ring), m)
                for g, m in _factor_list(join_coeffs(F, joined)[0])
                if g.degree_in(used[0])]
    elif len(used) == 1:
        kind = "univariate"
        facs = [(u_to_mp(g, ring, used[0]), m)
                for g, m in _uni_factor(u_from_mp(F, used[0]), field)[1]]
    else:
        kind = "bivariate"
        xv, yv = sorted(used, key=F.degree_in, reverse=True)
        facs = _fb(F, xv, yv)
    prod = math.prod((g ** m for g, m in facs), start=ring.one())
    if prod.scale(F.leading()[1] / prod.leading()[1]) != F:
        raise CharpkError(f"{kind} factorization self-check failed")
    return facs


def _normalize_factor_list(F, facs):
    """(unit, factors) in canonical order from a checked factor list: made
    monic, sorted by degree and exponents, ties broken by printed text."""
    def head(gm):
        return gm[0].total_degree(), sorted(gm[0].terms)
    out = sorted(((g.monic("grevlex"), m) for g, m in facs), key=head)
    # the printed text breaks ties only, so only tied factors print
    runs = [list(run) for _, run in itertools.groupby(out, head)]
    out = [gm for run in runs for gm in (
        sorted(run, key=lambda gm: str(gm[0])) if len(run) > 1 else run)]
    return F.leading()[1], out


def _merge_mp(fac_lists):
    out = {}
    for facs in fac_lists:
        for g, m in facs:
            g = g.monic("grevlex")
            key = frozenset(g.terms.items())
            out[key] = (g, out[key][1] + m) if key in out else (g, m)
    return list(out.values())


def _fb(F, xv, yv):
    """Recursive worker: list of (factor, mult), factors not normalized."""
    ring = F.ring
    field = ring.field
    if F.is_constant():
        return []
    for u, v in ((xv, yv), (yv, xv)):
        if F.degree_in(v) == 0:
            facs = _uni_factor(u_from_mp(F, u), field)[1]
            return [(u_to_mp(g, ring, u), m) for g, m in facs]
    # content with respect to yv lives in K[xv]
    cont = _content(F, yv)
    if not cont.is_constant():
        return _merge_mp([_fb(cont, xv, yv),
                          _fb(mp_exact_div(F, cont), xv, yv)])
    G = mp_pth_root(F)
    if G is not None:
        # F = G^p: every exponent divisible by p
        return [(g, m * field.p) for g, m in _fb(G, xv, yv)]
    Fx, Fy = F.partial(xv), F.partial(yv)
    if not Fy.is_zero():
        # a good specialization proves gcd(F, dF/dy) = 1 (module docstring)
        x0 = _good_specialization(F, xv, yv)
        if x0 is not None:
            return [(h, 1) for h in _factor_sqfree(F, xv, yv, x0)]
        sep, Fs = yv, Fy
    else:
        sep, Fs = xv, Fx
    g = mp_gcd(F, Fs)
    if not g.is_constant():
        return _merge_mp([_fb(g, xv, yv),
                          _fb(mp_exact_div(F, g), xv, yv)])
    # squarefree and primitive; orient so the separable variable is yv
    if sep == xv:
        xv, yv = yv, xv
        x0 = _good_specialization(F, xv, yv)
    return [(h, 1) for h in _factor_sqfree(F, xv, yv, x0)]


def _factor_sqfree(F, xv, yv, x0):
    """Irreducible factors (mult 1) of a squarefree primitive bivariate
    polynomial, separable in yv, given a raw x0 with F(x0, y) squarefree
    of full degree in yv, or None when no x0 in the base field is one.
    xv, specialised and lifted in, is of no smaller degree unless dF/dy = 0."""
    ring = F.ring
    K = ring.field.kernel
    dy = F.degree_in(yv)
    coeffs = F.coeffs_in(yv)
    lc = coeffs[dy]
    if not lc.is_constant():
        # G(x,y) = lc^(dy-1) F(x, y/lc) is monic in y, primitive and
        # squarefree, and its irreducible factors match those of F; x0
        # stays good for G, since lc(x0) != 0
        G = ring.var(yv) ** dy
        y = ring.var(yv)
        for j in range(dy):
            cj = coeffs.get(j, ring.zero())
            G = G + cj * lc ** (dy - 1 - j) * y ** j
        subfacs = _factor_sqfree(G, xv, yv, x0)
        out = []
        for H in subfacs:
            # substitute y -> lc * y and strip the K[x]-content
            Hs = H.substitute({yv: lc * y})
            c = _content(Hs, yv)
            out.append(mp_exact_div(Hs, c))
        return out
    if x0 is None:
        return _factor_by_ascent(F, xv, yv)
    F = F._scale(K.inv(lc.terms[(0,) * ring.nvars]))
    facs = _hensel_factor(_shift(F, xv, x0), xv, yv)
    return [_shift(G, xv, K.neg(x0)) for G in facs]


def _shift(F, var, c):
    """F with var -> var + c (raw c): a Taylor shift, by Horner's rule, of
    each coefficient of F in the other variables."""
    if not c:
        return F
    ring = F.ring
    K = ring.field.kernel
    i = ring._var_index[var]
    lines = {}
    for e, a in F.terms.items():
        line = lines.setdefault(e[:i] + (0,) + e[i + 1:], {})
        line[e[i]] = a
    lin = [c, K.one]
    terms = {}
    for rest, line in lines.items():
        acc = []
        for d in range(max(line), -1, -1):
            acc = u_mul(acc, lin, K)
            if d in line:
                acc = u_add(acc, [line[d]], K)
        for d, a in enumerate(acc):
            if a:
                terms[rest[:i] + (d,) + rest[i + 1:]] = a
    return _mp(ring, terms)


def _good_specialization(F, xv, yv):
    """The least raw x0 with F(x0, y) squarefree of degree deg_y F, or
    None when no element of the base field is one."""
    field = F.ring.field
    K = field.kernel
    dy = F.degree_in(yv)
    for x0 in range(field.p ** field.k):
        f0 = _specialize_x(F, xv, yv, x0)
        if u_deg(f0) != dy:
            continue
        if u_deg(u_gcd(f0, u_deriv(f0, K), K)) == 0:
            return x0
    return None


def _specialize_x(F, xv, yv, x0):
    K = F.ring.field.kernel
    add, mul, pw = K.add, K.mul, K.pow
    out = [K.zero] * (F.degree_in(yv) + 1)
    ix, iy = F.ring._var_index[xv], F.ring._var_index[yv]
    for e, c in F.terms.items():
        out[e[iy]] = add(out[e[iy]], mul(c, pw(x0, e[ix])))
    return u_trim(out)


def _factor_by_ascent(F, xv, yv):
    """No good specialization in the base field: factor over the least
    GF(p^{k r}), r >= 2, with one (or with p^{k r} >= 2 deg^2 + 2) and
    descend by Frobenius orbits, which is exact for every r."""
    field = F.ring.field
    q = field.p ** field.k
    need = 2 * (F.total_degree() ** 2) + 2
    for r in itertools.count(2):
        L, embed = extend_gf(field, r)
        FL = _embed_raw(F, L, embed)
        x0 = _good_specialization(FL, xv, yv)
        if x0 is not None or q ** r >= need:
            break
    ringL = FL.ring
    facsL = [g.monic("grevlex") for g in _factor_sqfree(FL, xv, yv, x0)]
    pw = L.kernel.pow

    def frob(G):
        return _map_raw(G, ringL, lambda c: pw(c, q)).monic("grevlex")

    remaining = list(facsL)
    out = []
    while remaining:
        g = remaining.pop(0)
        orbit = [g]
        h = frob(g)
        while h != g:
            if h not in remaining:
                raise CharpkError("Frobenius orbit escaped the factor list")
            remaining.remove(h)
            orbit.append(h)
            h = frob(h)
        prod = math.prod(orbit, start=ringL.one())
        down = {}
        for e, c in prod.terms.items():
            pc = project_to_subfield(_scalar(L, c), field)
            if pc is None:
                raise CharpkError("orbit product not defined over the base")
            down[e] = pc.value
        out.append(_mp(F.ring, down))
    return out


# -- Hensel lifting ---------------------------------------------------------

def _hensel_factor(F, xv, yv):
    """F monic in yv, F(0, y) squarefree of full degree: lift its
    factorization and recombine."""
    field = F.ring.field
    N = F.degree_in(xv) + 1
    f0 = _specialize_x(F, xv, yv, field.kernel.zero)
    parts = [g for g, m in _uni_factor(f0, field)[1]]
    if len(parts) == 1:
        return [F]
    # bivariate as x-power -> y-coefficient-list
    fb = _b_from_mp(F, xv, yv, N)
    lifted = _hensel_multi(fb, parts, N, field.kernel)
    return _recombine(F, lifted, N, xv, yv)


def _b_from_mp(F, xv, yv, N):
    K = F.ring.field.kernel
    ix, iy = F.ring._var_index[xv], F.ring._var_index[yv]
    out = [[K.zero] * (F.degree_in(yv) + 1) for _ in range(N)]
    for e, c in F.terms.items():
        if e[ix] < N:
            out[e[ix]][e[iy]] = c
    return [u_trim(row) for row in out]


def _b_to_mp(fb, ring, xv, yv):
    ix, iy = ring._var_index[xv], ring._var_index[yv]
    terms = {}
    for i, row in enumerate(fb):
        for j, c in enumerate(row):
            if c:
                e = [0] * ring.nvars
                e[ix], e[iy] = i, j
                terms[tuple(e)] = c
    return _mp(ring, terms)


def _b_coeff_of_product(g, h, k, K):
    """y-polynomial coefficient of x^k in g*h (lists of y-polys)."""
    acc = []
    for i in range(k + 1):
        if i < len(g) and (k - i) < len(h):
            acc = u_add(acc, u_mul(g[i], h[k - i], K), K)
    return acc


def _hensel_pair(fb, g0, h0, N, K):
    s, t = u_bezout(g0, h0, K)
    g = [list(g0)]
    h = [list(h0)]
    for k in range(1, N):
        e = u_sub(fb[k] if k < len(fb) else [],
                  _b_coeff_of_product(g, h, k, K), K)
        if not e:
            g.append([])
            h.append([])
            continue
        dg = u_divmod(u_mul(t, e, K), g0, K)[1]
        dh = u_exact_div(u_sub(e, u_mul(h0, dg, K), K), g0, K)
        g.append(dg)
        h.append(dh)
    return g, h


def _hensel_multi(fb, parts, N, K):
    if len(parts) == 1:
        return [fb]
    g0 = parts[0]
    h0 = [K.one]
    for q in parts[1:]:
        h0 = u_mul(h0, q, K)
    g, h = _hensel_pair(fb, g0, h0, N, K)
    return [g] + _hensel_multi(h, parts[1:], N, K)


def _recombine(F, lifted, N, xv, yv):
    """The factors of F from its lifted local factors: subsets by size
    (Zassenhaus), each product a trial divisor.  A split of the r remaining
    factors has a side of at most half of them, so when no such subset
    divides, what remains is irreducible.  A half divides iff its
    complement does, so only the halves holding the first index, which
    come first, are tried.  Trying more than
    `polys.MAX_RECOMBINATION_SUBSETS` subsets raises ResourceExhausted."""
    K = F.ring.field.kernel
    cap, tried = polys.MAX_RECOMBINATION_SUBSETS, itertools.count(1)
    remaining = list(range(len(lifted)))
    out = []
    target = F
    while True:
        r = len(remaining)
        for subset in itertools.chain.from_iterable(
                itertools.islice(itertools.combinations(remaining, size),
                                 math.comb(r - 1, size - 1)
                                 if 2 * size == r else None)
                for size in range(1, r // 2 + 1)):
            if next(tried) > cap:
                raise ResourceExhausted(
                    f"factor recombination past {cap} subsets")
            cand_b = lifted[subset[0]]
            for i in subset[1:]:
                cand_b = _b_mul_trunc(cand_b, lifted[i], N, K)
            cand = _b_to_mp(cand_b, F.ring, xv, yv)
            q, rem = mp_divmod_single(target, cand)
            if rem.is_zero():
                out.append(cand)
                target = q
                remaining = [i for i in remaining if i not in subset]
                break
        else:
            return out + [target]


def _b_mul_trunc(a, b, N, K):
    out = [[] for _ in range(N)]
    for i, ra in enumerate(a):
        if i >= N or not ra:
            continue
        for j, rb in enumerate(b):
            if i + j >= N or not rb:
                continue
            out[i + j] = u_add(out[i + j], u_mul(ra, rb, K), K)
    return out


# ---------------------------------------------------------------------------
# absolute irreducibility of polynomials
# ---------------------------------------------------------------------------

def is_absolutely_irreducible_poly(F: MultiPoly) -> bool:
    """Absolute irreducibility of F over K = GF(q): the verdict on the
    hypersurface V(F) (`variety._hypersurface`)."""
    if F.ring.field.kind != "gf":
        raise UnsupportedInstance(
            "extension-factoring absolute irreducibility needs a finite field")
    from . import variety
    return variety._hypersurface(F, absolute=True)[0]


def _stays_irreducible(G: MultiPoly) -> bool:
    """G irreducible over K = GF(q) stays irreducible over GF(q^s) for
    every prime s dividing d = deg G, that is, G is absolutely irreducible.

    G is squarefree over the algebraic closure (K is perfect), and its
    absolute components are the r Frobenius conjugates of one of them, of
    degree d / r each, so r divides d.  Over GF(q^s) the conjugates group
    into gcd(r, s) orbits of the q^s-Frobenius, so G has gcd(r, s) distinct
    factors there, each of multiplicity 1.  Thus G is absolutely
    irreducible (r = 1) iff it stays irreducible over GF(q^s) for every
    prime s | d: when r > 1, a prime s | r divides d and splits G."""
    for s in _prime_factors(G.total_degree()):
        L, embed = extend_gf(G.ring.field, s)
        if len(_factor_list(_embed_raw(G, L, embed))) > 1:
            return False
    return True


def _polygon_indecomposable(F: MultiPoly) -> bool:
    """True when F in two variables has no monomial factor and an
    integrally indecomposable Newton polygon; then F is absolutely
    irreducible.  False decides nothing.

    Over every field Newt(G H) = Newt(G) + Newt(H) (Ostrowski), so a
    factorization of F over the algebraic closure splits Newt(F) into
    lattice summands, one of them a point, that is, one factor a monomial
    (Gao, J. Algebra 237, 2001).  A polygon whose edges are n_i copies of
    primitive vectors v_i splits into two lattice polygons of more than
    one point each iff some sub-multiset of the v_i, neither empty nor all
    of them, sums to zero (Gao and Lauder, Discrete Comput. Geom. 26,
    2001).  Such a sub-multiset or its complement leaves out the last
    vector, so it suffices to find a nonempty zero sum among the others."""
    used = sorted(F.variables_used())
    if len(used) != 2:
        return False
    i, j = (F.ring._var_index[v] for v in used)
    points = sorted({(e[i], e[j]) for e in F.terms})
    if min(a for a, _ in points) or min(b for _, b in points):
        return False  # a monomial factor, or F a monomial
    hull = _convex_hull(points)
    edges = []
    for (a, b), (c, d) in zip(hull, hull[1:] + hull[:1]):
        g = math.gcd(c - a, d - b)
        edges += [((c - a) // g, (d - b) // g)] * g
    sums = set()
    for dx, dy in edges[:-1]:
        sums |= {(sx + dx, sy + dy) for sx, sy in sums}
        sums.add((dx, dy))
        if (0, 0) in sums:
            return False
    return True


def _convex_hull(points):
    """The vertices of the convex hull of two or more sorted distinct
    points, counterclockwise and without collinear points (Andrew's
    monotone chain)."""
    def chain(pts):
        out = []
        for x, y in pts:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (y - out[-2][1])
                    <= (out[-1][1] - out[-2][1]) * (x - out[-2][0])):
                out.pop()
            out.append((x, y))
        return out[:-1]
    return chain(points) + chain(points[::-1])
