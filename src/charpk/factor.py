"""Polynomial factorization over the supported coefficient fields.

* univariate over GF(p^k): squarefree decomposition (with p-th-power
  descent), distinct-degree splitting, Cantor-Zassenhaus equal-degree
  splitting (trace variant in characteristic 2);
* bivariate over GF(p^k): content/primitive split, p-th-power descent,
  gcd-based squarefree reduction, then Hensel lifting from a squarefree
  specialization with subset recombination; when the base field is too
  small to host a good specialization, ascend to GF(p^{k r}), factor
  there and descend by grouping Frobenius orbits of the factors;
* univariate over F_p(t): clear denominators and reduce to the bivariate
  case (Gauss lemma).

Everything self-checks: the product of the returned factors is compared
with the input.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from . import linalg
from .errors import CharpkError, FieldError, UnsupportedInstance
from .fields import (FieldDescriptor, FieldScalar, _gf, iter_gf_elements,
                     pth_root)
from .polys import MultiPoly, PolyRing, order_key

# ---------------------------------------------------------------------------
# dense univariate arithmetic over any FieldDescriptor (lists, ascending)
# ---------------------------------------------------------------------------

def u_trim(f):
    while f and f[-1].is_zero():
        f.pop()
    return f


def u_deg(f):
    return len(f) - 1


def u_is_zero(f):
    return not f


def u_add(f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else None
        b = g[i] if i < len(g) else None
        if a is None:
            out.append(b)
        elif b is None:
            out.append(a)
        else:
            out.append(a + b)
    return u_trim(out)


def u_neg(f):
    return [-c for c in f]


def u_sub(f, g):
    return u_add(f, u_neg(g))


def u_scale(f, c):
    if c.is_zero():
        return []
    return u_trim([a * c for a in f])


def u_mul(f, g):
    if not f or not g:
        return []
    field = f[0].field
    out = [field.zero() for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return u_trim(out)


def u_divmod(f, g):
    if u_is_zero(g):
        raise ZeroDivisionError("univariate division by zero")
    f = list(f)
    dg = u_deg(g)
    inv = g[-1].inverse()
    field = g[-1].field
    q = [field.zero() for _ in range(max(len(f) - dg, 0))]
    while not u_is_zero(f) and u_deg(f) >= dg:
        c = f[-1] * inv
        shift = u_deg(f) - dg
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = f[shift + i] - c * b
        u_trim(f)
    return u_trim(q), f


def u_exact_div(f, g):
    q, r = u_divmod(f, g)
    if not u_is_zero(r):
        raise CharpkError("inexact univariate division")
    return q


def u_monic(f):
    if u_is_zero(f):
        return f
    return u_scale(f, f[-1].inverse())


def u_gcd(f, g):
    f, g = list(f), list(g)
    while not u_is_zero(g):
        f, g = g, u_divmod(f, g)[1]
    return u_monic(f)


def u_deriv(f):
    if len(f) <= 1:
        return []
    field = f[0].field
    return u_trim([f[i] * field.from_int(i) for i in range(1, len(f))])


def u_powmod(f, n, mod):
    field = mod[-1].field
    result = [field.one()]
    base = u_divmod(list(f), mod)[1]
    while n:
        if n & 1:
            result = u_divmod(u_mul(result, base), mod)[1]
        base = u_divmod(u_mul(base, base), mod)[1]
        n >>= 1
    return result


def u_eval(f, x):
    acc = x.field.zero()
    for c in reversed(f):
        acc = acc * x + c
    return acc


def u_from_mp(f: MultiPoly, var: str):
    """Coefficient list of a MultiPoly using only `var`."""
    i = f.ring._var_index[var]
    d = f.degree_in(var)
    field = f.ring.field
    out = [field.zero() for _ in range(d + 1)]
    for e, c in f.terms.items():
        if any(x and j != i for j, x in enumerate(e)):
            raise CharpkError("polynomial is not univariate in " + var)
        out[e[i]] = out[e[i]] + c
    return u_trim(out)


def u_to_mp(coeffs, ring: PolyRing, var: str):
    i = ring._var_index[var]
    terms = {}
    for d, c in enumerate(coeffs):
        if not c.is_zero():
            e = [0] * ring.nvars
            e[i] = d
            terms[tuple(e)] = c
    return MultiPoly(ring, terms)


# ---------------------------------------------------------------------------
# univariate factorization over GF(p^k)
# ---------------------------------------------------------------------------

def _coeff_pth_root_list(f):
    return [pth_root(c) for c in f]


def uni_factor(f, field: FieldDescriptor):
    """Complete factorization over GF(p^k): (unit, [(monic irreducible
    coefficient list, multiplicity)]), deterministic."""
    if field.kind != "gf":
        raise UnsupportedInstance("uni_factor needs a finite base field")
    f = u_trim(list(f))
    if u_is_zero(f):
        raise CharpkError("factorization of zero")
    unit = f[-1]
    f = u_monic(f)
    factors = _uni_factor_monic(f, field)
    # self-check
    prod = [field.one()]
    for g, m in factors:
        for _ in range(m):
            prod = u_mul(prod, g)
    if u_scale(prod, unit) != u_scale(f, unit):
        raise CharpkError("univariate factorization self-check failed")
    return unit, factors


def _merge(fac_lists):
    out = {}
    for facs in fac_lists:
        for g, m in facs:
            key = tuple(g)
            out[key] = out.get(key, 0) + m
    return sorted(([list(k), m] for k, m in out.items()),
                  key=lambda gm: (len(gm[0]), _coeff_sort_key(gm[0])))


def _coeff_sort_key(g):
    out = []
    for c in g:
        out.append(c.rep if c.field.kind == "gf" else str(c))
    return tuple(out)


def _uni_factor_monic(f, field):
    if u_deg(f) <= 0:
        return []
    p = field.p
    fp = u_deriv(f)
    if u_is_zero(fp):
        g = _coeff_pth_root_list(f[::p])
        inner = _uni_factor_monic(u_trim(g), field)
        return _merge([[(h, m * p) for h, m in inner]])
    g = u_gcd(f, fp)
    if u_deg(g) > 0:
        return _merge([_uni_factor_monic(g, field),
                       _uni_factor_monic(u_exact_div(f, g), field)])
    return _merge([[(h, 1) for h in _uni_factor_squarefree(f, field)]])


def _uni_factor_squarefree(f, field):
    """Distinct-degree then equal-degree splitting of a squarefree monic f."""
    q = field.p ** field.k
    out = []
    h = [field.zero(), field.one()]  # x
    x = list(h)
    d = 0
    while u_deg(f) > 0:
        d += 1
        if 2 * d > u_deg(f):
            out.append(f)
            break
        h = u_powmod(h, q, f)
        g = u_gcd(u_sub(h, x), f)
        if u_deg(g) > 0:
            out.extend(_equal_degree_split(g, d, field))
            f = u_exact_div(f, g)
            h = u_divmod(h, f)[1]
    return out


def _equal_degree_split(g, d, field):
    if u_deg(g) == d:
        return [u_monic(g)]
    p, k = field.p, field.k
    q = p ** k
    seed = hash((p, k, d, tuple(_coeff_sort_key(g)))) & 0xFFFFFFFF
    rng = random.Random(seed)
    while True:
        r = u_trim([_gf(field, rng.randrange(q)) for _ in range(u_deg(g))])
        if u_deg(r) < 1:
            continue
        if p == 2:
            s = []
            t = u_divmod(list(r), g)[1]
            for _ in range(k * d):
                s = u_add(s, t)
                t = u_divmod(u_mul(t, t), g)[1]
            h = u_gcd(s, g)
        else:
            s = u_powmod(r, (q ** d - 1) // 2, g)
            h = u_gcd(u_sub(s, [field.one()]), g)
        if 0 < u_deg(h) < u_deg(g):
            return (_equal_degree_split(h, d, field)
                    + _equal_degree_split(u_exact_div(g, h), d, field))


def uni_roots(f, field):
    """Roots in the coefficient field, with multiplicity."""
    _, facs = uni_factor(f, field)
    out = []
    for g, m in facs:
        if u_deg(g) == 1:
            out.append((-g[0], m))
    return out


def uni_is_irreducible(f, field):
    if field.kind == "gf":
        _, facs = uni_factor(f, field)
        return len(facs) == 1 and facs[0][1] == 1 and u_deg(facs[0][0]) == u_deg(f)
    # rational function field with one transcendental: Gauss lemma route
    facs = ratfunc_uni_factor(f, field)
    return len(facs) == 1 and facs[0][1] == 1


# ---------------------------------------------------------------------------
# multivariate gcd (primitive PRS) and exact division
# ---------------------------------------------------------------------------

def mp_divmod_single(f: MultiPoly, g: MultiPoly, order="grevlex"):
    """Division of f by a single nonzero g: f = q g + r."""
    key = order_key(order)
    ring = f.ring
    ge, gc = g.leading(order)
    quotient = {}
    remainder = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        if c.is_zero():
            continue
        if all(x >= y for x, y in zip(e, ge)):
            shift = tuple(x - y for x, y in zip(e, ge))
            factor = c / gc
            quotient[shift] = quotient.get(shift, ring.field.zero()) + factor
            for te, tc in g.terms.items():
                ne = tuple(a + b for a, b in zip(te, shift))
                if ne == e:
                    continue
                cur = work.get(ne, ring.field.zero()) - factor * tc
                if cur.is_zero():
                    work.pop(ne, None)
                else:
                    work[ne] = cur
        else:
            remainder[e] = c
    return MultiPoly(ring, quotient), MultiPoly(ring, remainder)


def mp_exact_div(f: MultiPoly, g: MultiPoly):
    q, r = mp_divmod_single(f, g)
    if not r.is_zero():
        raise CharpkError("inexact polynomial division")
    return q


def _uni_coeffs_in(f: MultiPoly, var: str):
    """dict degree-in-var -> MultiPoly coefficient (var stripped out)."""
    i = f.ring._var_index[var]
    out = {}
    for e, c in f.terms.items():
        d = e[i]
        ne = list(e)
        ne[i] = 0
        key = tuple(ne)
        cur = out.setdefault(d, {})
        cur[key] = cur.get(key, f.ring.field.zero()) + c
    return {d: MultiPoly(f.ring, t) for d, t in out.items()}


def _content(f: MultiPoly, var: str):
    """gcd of the coefficients of f viewed as univariate in var."""
    coeffs = list(_uni_coeffs_in(f, var).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = mp_gcd(g, c)
        if g.is_constant():
            break
    return g.monic("grevlex")


def _prem(f: MultiPoly, g: MultiPoly, var: str):
    """Pseudo-remainder of f by g with respect to var."""
    ring = f.ring
    dg = g.degree_in(var)
    lcg = _uni_coeffs_in(g, var)[dg]
    r = f
    v = ring.var(var)
    while not r.is_zero() and r.degree_in(var) >= dg:
        dr = r.degree_in(var)
        lcr = _uni_coeffs_in(r, var)[dr]
        r = lcg * r - lcr * v ** (dr - dg) * g
    return r


def mp_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd over the coefficient field, monic under grevlex."""
    if f.is_zero():
        return g.monic("grevlex")
    if g.is_zero():
        return f.monic("grevlex")
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    used = sorted(f.variables_used() | g.variables_used())
    var = used[0]
    if f.degree_in(var) == 0 or g.degree_in(var) == 0:
        # var absent from one argument: gcd divides its content
        if f.degree_in(var) == 0:
            return mp_gcd(f, _content(g, var))
        return mp_gcd(_content(f, var), g)
    cf, cg = _content(f, var), _content(g, var)
    c = mp_gcd(cf, cg)
    fp, gp = mp_exact_div(f, cf), mp_exact_div(g, cg)
    if fp.degree_in(var) < gp.degree_in(var):
        fp, gp = gp, fp
    while not gp.is_zero():
        r = _prem(fp, gp, var)
        if r.is_zero():
            fp, gp = gp, r
        else:
            fp, gp = gp, mp_exact_div(r, _content(r, var))
    return (c * mp_exact_div(fp, _content(fp, var))).monic("grevlex")


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
        return lambda x: L.from_int(x.code)
    beta = FieldScalar(L, _modulus_root(K, L))

    def embed(x):
        acc = L.zero()
        for c in reversed(x.rep):
            acc = acc * beta + L.from_int(c)
        return acc
    return embed


def project_to_subfield(x: FieldScalar, K: FieldDescriptor, L, embed):
    """Pull x in L back to K when x is in the image of the embedding, else
    None: an F_p-linear solve on the images of K's power basis."""
    Fp = FieldDescriptor("gf", K.p, 1)
    gen = K.generator()
    cols = [embed(gen ** i).rep for i in range(K.k)]
    matrix = [[Fp.from_int(col[r]) for col in cols] for r in range(L.k)]
    sol = linalg.solve(matrix, [Fp.from_int(c) for c in x.rep])
    if sol is None:
        return None
    return FieldScalar(K, tuple(c.code for c in sol))


# ---------------------------------------------------------------------------
# bivariate factorization over GF(p^k)
# ---------------------------------------------------------------------------

def factor_poly(F: MultiPoly):
    """(unit scalar, [(monic irreducible MultiPoly, multiplicity)]).

    Complete for polynomials over GF(p^k) in at most two variables and for
    univariate polynomials over F_p(t) (one transcendental); raises
    UnsupportedInstance otherwise.
    """
    field = F.ring.field
    used = sorted(F.variables_used())
    if field.kind == "ratfunc":
        if field.imperfection_exponent != 1 or len(used) > 1:
            raise UnsupportedInstance(
                "factorization over rational-function fields is supported "
                "for one transcendental and one polynomial variable")
        if not used:
            return F.constant_value(), []
        facs = ratfunc_uni_factor(u_from_mp(F, used[0]), field)
        result = [(u_to_mp(coeffs, F.ring, used[0]), m) for coeffs, m in facs]
        prod = F.ring.one()
        for g, m in result:
            prod = prod * g ** m
        lead_f = _any_coeff(F)
        lead_p = _any_coeff(prod)
        unit = lead_f / lead_p
        return unit, result
    if len(used) == 0:
        return F.constant_value(), []
    if len(used) == 1:
        unit, facs = uni_factor(u_from_mp(F, used[0]), field)
        return unit, [(u_to_mp(g, F.ring, used[0]), m) for g, m in facs]
    if len(used) == 2:
        return _factor_bivariate(F, used[0], used[1])
    raise UnsupportedInstance(
        "factorization with three or more variables is not supported")


def _any_coeff(F):
    e = max(F.terms, key=order_key("grevlex"))
    return F.terms[e]


def _normalize_factor_list(F, facs):
    """Monic-normalize factors, compute the unit, and self-check."""
    ring = F.ring
    out = []
    for g, m in facs:
        out.append((g.monic("grevlex"), m))
    out.sort(key=lambda gm: (gm[0].total_degree(),
                             sorted(gm[0].terms),
                             str(gm[0])))
    prod = ring.one()
    for g, m in out:
        prod = prod * g ** m
    unit = _any_coeff(F) / _any_coeff(prod)
    if not (prod.scale(unit) - F).is_zero():
        raise CharpkError("bivariate factorization self-check failed")
    return unit, out


def _factor_bivariate(F, xv, yv):
    field = F.ring.field
    facs = _fb(F, xv, yv)
    return _normalize_factor_list(F, facs)


def _merge_mp(fac_lists):
    out = []
    seen = {}
    for facs in fac_lists:
        for g, m in facs:
            g = g.monic("grevlex")
            key = (frozenset((e, str(c)) for e, c in g.terms.items()))
            if key in seen:
                idx = seen[key]
                out[idx] = (out[idx][0], out[idx][1] + m)
            else:
                seen[key] = len(out)
                out.append((g, m))
    return out


def _fb(F, xv, yv):
    """Recursive worker: list of (factor, mult), factors not normalized."""
    ring = F.ring
    field = ring.field
    if F.is_constant():
        return []
    if F.degree_in(yv) == 0:
        unit, facs = uni_factor(u_from_mp(F, xv), field)
        return [(g_mp, m) for g, m in facs
                for g_mp in [u_to_mp(g, ring, xv)]]
    if F.degree_in(xv) == 0:
        unit, facs = uni_factor(u_from_mp(F, yv), field)
        return [(u_to_mp(g, ring, yv), m) for g, m in facs]
    # content with respect to yv lives in K[xv]
    cont = _content(F, yv)
    if not cont.is_constant():
        return _merge_mp([_fb(cont, xv, yv),
                          _fb(mp_exact_div(F, cont), xv, yv)])
    Fx, Fy = F.partial(xv), F.partial(yv)
    if Fx.is_zero() and Fy.is_zero():
        # every exponent divisible by p; perfect coefficients descend
        p = field.p
        terms = {tuple(e // p for e in ex): pth_root(c)
                 for ex, c in F.terms.items()}
        G = MultiPoly(ring, terms)
        return [(g, m * p) for g, m in _fb(G, xv, yv)]
    sep = yv if not Fy.is_zero() else xv
    Fs = Fy if not Fy.is_zero() else Fx
    g = mp_gcd(F, Fs)
    if not g.is_constant():
        return _merge_mp([_fb(g, xv, yv),
                          _fb(mp_exact_div(F, g), xv, yv)])
    # squarefree and primitive; orient so the separable variable is yv
    if sep == xv:
        xv, yv = yv, xv
    return [(h, 1) for h in _factor_sqfree(F, xv, yv)]


def _factor_sqfree(F, xv, yv):
    """Irreducible factors (mult 1) of a squarefree primitive bivariate
    polynomial, separable in yv."""
    ring = F.ring
    field = ring.field
    dy = F.degree_in(yv)
    coeffs = _uni_coeffs_in(F, yv)
    lc = coeffs[dy]
    if not lc.is_constant():
        # G(x,y) = lc^(dy-1) F(x, y/lc) is monic in y, primitive and
        # squarefree, and its irreducible factors match those of F
        G = ring.var(yv) ** dy
        y = ring.var(yv)
        for j in range(dy):
            cj = coeffs.get(j, ring.zero())
            G = G + cj * lc ** (dy - 1 - j) * y ** j
        subfacs = _factor_sqfree(G, xv, yv)
        out = []
        for H in subfacs:
            # substitute y -> lc * y and strip the K[x]-content
            Hs = H.substitute({yv: lc * y})
            c = _content(Hs, yv)
            out.append(mp_exact_div(Hs, c))
        return out
    F = F.scale(lc.constant_value().inverse())
    # find a specialization x0 with F(x0, y) squarefree of degree dy
    x0 = _good_specialization(F, xv, yv, dy)
    if x0 is None:
        return _factor_by_ascent(F, xv, yv)
    x = ring.var(xv)
    Fs = F.substitute({xv: x + ring.from_scalar(x0)})
    facs = _hensel_factor(Fs, xv, yv)
    return [G.substitute({xv: x - ring.from_scalar(x0)}) for G in facs]


def _good_specialization(F, xv, yv, dy):
    field = F.ring.field
    for x0 in iter_gf_elements(field):
        f0 = _specialize_x(F, xv, yv, x0)
        if u_deg(f0) != dy:
            continue
        if u_deg(u_gcd(f0, u_deriv(f0))) == 0:
            return x0
    return None


def _specialize_x(F, xv, yv, x0):
    field = F.ring.field
    d = F.degree_in(yv)
    out = [field.zero() for _ in range(d + 1)]
    ix = F.ring._var_index[xv]
    iy = F.ring._var_index[yv]
    for e, c in F.terms.items():
        out[e[iy]] = out[e[iy]] + c * x0 ** e[ix]
    return u_trim(out)


def _factor_by_ascent(F, xv, yv):
    """No good specialization in the base field: factor over GF(p^{k r})
    and descend by Frobenius orbits."""
    field = F.ring.field
    q = field.p ** field.k
    need = 2 * (F.total_degree() ** 2) + 2
    r = 2
    while q ** r < need:
        r += 1
    L, embed = extend_gf(field, r)
    ringL = PolyRing(L, F.ring.vars)
    FL = MultiPoly(ringL, {e: embed(c) for e, c in F.terms.items()})
    facsL = _factor_sqfree(FL, xv, yv)
    facsL = [g.monic("grevlex") for g in facsL]

    def frob(G):
        return MultiPoly(ringL, {e: c ** q for e, c in G.terms.items()})

    remaining = list(facsL)
    out = []
    while remaining:
        g = remaining.pop(0)
        orbit = [g]
        h = frob(g).monic("grevlex")
        while h != g:
            for i, other in enumerate(remaining):
                if other == h:
                    remaining.pop(i)
                    break
            else:
                raise CharpkError("Frobenius orbit escaped the factor list")
            orbit.append(h)
            h = frob(h).monic("grevlex")
        prod = ringL.one()
        for G in orbit:
            prod = prod * G
        down = {}
        for e, c in prod.terms.items():
            pc = project_to_subfield(c, field, L, embed)
            if pc is None:
                raise CharpkError("orbit product not defined over the base")
            down[e] = pc
        out.append(MultiPoly(F.ring, down))
    return out


# -- Hensel lifting ---------------------------------------------------------

def _bezout_uni(g, h):
    """s, t with s g + t h = 1 for coprime univariate g, h."""
    field = g[-1].field
    r0, r1 = list(g), list(h)
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while not u_is_zero(r1):
        q, r = u_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, u_sub(s0, u_mul(q, s1))
        t0, t1 = t1, u_sub(t0, u_mul(q, t1))
    inv = r0[-1].inverse()
    return u_scale(s0, inv), u_scale(t0, inv)


def _hensel_factor(F, xv, yv):
    """F monic in yv, F(0, y) squarefree of full degree: lift its
    factorization and recombine."""
    ring = F.ring
    field = ring.field
    dy = F.degree_in(yv)
    dx = F.degree_in(xv)
    N = dx + 1
    f0 = _specialize_x(F, xv, yv, field.zero())
    unit, facs0 = uni_factor(f0, field)
    parts = [g for g, m in facs0]
    if len(parts) == 1:
        return [F]
    # bivariate as x-power -> y-coefficient-list
    fb = _b_from_mp(F, xv, yv, N)
    lifted = _hensel_multi(fb, parts, N, field)
    return _recombine(F, lifted, N, xv, yv)


def _b_from_mp(F, xv, yv, N):
    field = F.ring.field
    ix = F.ring._var_index[xv]
    iy = F.ring._var_index[yv]
    dy = F.degree_in(yv)
    out = [[field.zero() for _ in range(dy + 1)] for _ in range(N)]
    for e, c in F.terms.items():
        if e[ix] < N:
            out[e[ix]][e[iy]] = out[e[ix]][e[iy]] + c
    return [u_trim(row) for row in out]


def _b_to_mp(fb, ring, xv, yv):
    ix = ring._var_index[xv]
    iy = ring._var_index[yv]
    terms = {}
    for i, row in enumerate(fb):
        for j, c in enumerate(row):
            if not c.is_zero():
                e = [0] * ring.nvars
                e[ix] = i
                e[iy] = j
                terms[tuple(e)] = c
    return MultiPoly(ring, terms)


def _b_coeff_of_product(g, h, k):
    """y-polynomial coefficient of x^k in g*h (lists of y-polys)."""
    acc = []
    for i in range(k + 1):
        if i < len(g) and (k - i) < len(h):
            acc = u_add(acc, u_mul(g[i], h[k - i]))
    return acc


def _hensel_pair(fb, g0, h0, N, field):
    s, t = _bezout_uni(g0, h0)
    g = [list(g0)]
    h = [list(h0)]
    for k in range(1, N):
        e = u_sub(fb[k] if k < len(fb) else [], _b_coeff_of_product(g, h, k))
        if u_is_zero(e):
            g.append([])
            h.append([])
            continue
        dg = u_divmod(u_mul(t, e), g0)[1]
        dh = u_exact_div(u_sub(e, u_mul(h0, dg)), g0)
        g.append(dg)
        h.append(dh)
    return g, h


def _hensel_multi(fb, parts, N, field):
    if len(parts) == 1:
        return [fb]
    g0 = parts[0]
    h0 = [field.one()]
    for q in parts[1:]:
        h0 = u_mul(h0, q)
    g, h = _hensel_pair(fb, g0, h0, N, field)
    return [g] + _hensel_multi(h, parts[1:], N, field)


def _recombine(F, lifted, N, xv, yv):
    ring = F.ring
    remaining = list(range(len(lifted)))
    out = []
    target = F
    while remaining:
        if len(remaining) == 1:
            out.append(target)
            break
        found = False
        for size in range(1, len(remaining) + 1):
            if found:
                break
            for subset in itertools.combinations(remaining, size):
                cand_b = lifted[subset[0]]
                for i in subset[1:]:
                    cand_b = _b_mul_trunc(cand_b, lifted[i], N)
                cand = _b_to_mp(cand_b, ring, xv, yv)
                q, r = mp_divmod_single(target, cand)
                if r.is_zero():
                    out.append(cand)
                    target = q
                    remaining = [i for i in remaining if i not in subset]
                    found = True
                    break
        if not found:
            raise CharpkError("Hensel recombination failed")
    return out


def _b_mul_trunc(a, b, N):
    out = [[] for _ in range(N)]
    for i, ra in enumerate(a):
        if i >= N or u_is_zero(ra):
            continue
        for j, rb in enumerate(b):
            if i + j >= N or u_is_zero(rb):
                continue
            out[i + j] = u_add(out[i + j], u_mul(ra, rb))
    return out


# ---------------------------------------------------------------------------
# univariate over F_p(t) via Gauss's lemma
# ---------------------------------------------------------------------------

def ratfunc_uni_factor(coeffs, field):
    """Factor a univariate polynomial over F_p(t): [(monic coefficient
    list, multiplicity)]."""
    if field.kind != "ratfunc" or field.imperfection_exponent != 1:
        raise UnsupportedInstance("need F_p(t) with one transcendental")
    coeffs = u_trim(list(coeffs))
    if u_is_zero(coeffs):
        raise CharpkError("factorization of zero")
    tname = field.tvars[0]
    p = field.p
    prime = FieldDescriptor("gf", p, 1)
    ring2 = PolyRing(prime, (tname, "_X"))
    # clear denominators
    den = field._ring.one
    for c in coeffs:
        den = den * c.rep.denom
    den_s = field.from_frac(field._frac(den))
    cleared = [c * den_s for c in coeffs]
    terms = {}
    for d, c in enumerate(cleared):
        num = c.rep.numer
        for (et,), cc in num.terms():
            terms[(et, d)] = prime.from_int(int(cc) % p)
    F2 = MultiPoly(ring2, terms)
    unit, facs = factor_poly(F2)
    out = []
    for g, m in facs:
        if g.degree_in("_X") == 0:
            continue  # content in F_p[t]: a unit of F_p(t)[x]
        # back to F_p(t)[x]
        dx = g.degree_in("_X")
        lifted = [field.zero() for _ in range(dx + 1)]
        for (et, d), c in g.terms.items():
            tpow = field.gen(tname) ** et if et else field.one()
            lifted[d] = lifted[d] + field.from_int(c.rep[0]) * tpow
        out.append((u_monic(lifted), m))
    out.sort(key=lambda gm: (len(gm[0]), _coeff_sort_key(gm[0])))
    # self-check
    prod = [field.one()]
    for g, m in out:
        for _ in range(m):
            prod = u_mul(prod, g)
    lead = coeffs[-1]
    if u_scale(prod, lead) != coeffs:
        raise CharpkError("rational-function factorization self-check failed")
    return out


# ---------------------------------------------------------------------------
# absolute irreducibility of polynomials
# ---------------------------------------------------------------------------

def distinct_factors(F: MultiPoly):
    unit, facs = factor_poly(F)
    return [g for g, _ in facs]


def is_absolutely_irreducible_poly(F: MultiPoly) -> bool:
    """Absolute irreducibility over GF(p^k) by re-factoring over GF(p^{k s})
    for s up to the total degree; the field of definition of any conjugate
    absolute factor has degree at most deg F."""
    field = F.ring.field
    if field.kind != "gf":
        raise UnsupportedInstance(
            "extension-factoring absolute irreducibility needs a finite field")
    used = sorted(F.variables_used())
    if len(used) == 0:
        return False
    if len(used) == 1:
        # an irreducible univariate of degree >= 2 splits over its root field
        _, facs = uni_factor(u_from_mp(F, used[0]), field)
        return len(facs) == 1 and u_deg(facs[0][0]) == 1
    facs = distinct_factors(F)
    if len(facs) > 1:
        return False
    G = facs[0]
    d = G.total_degree()
    for s in range(2, d + 1):
        L, embed = extend_gf(field, s)
        ringL = PolyRing(L, G.ring.vars)
        GL = MultiPoly(ringL, {e: embed(c) for e, c in G.terms.items()})
        if len(distinct_factors(GL)) > 1:
            return False
        if any(m > 1 for _, m in factor_poly(GL)[1]):
            return False
    return True
