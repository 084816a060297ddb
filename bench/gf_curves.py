"""Workload gf-curves: plane curves, Galois data and point counts over GF(q).

Every verdict is known by construction, so the check needs no saved
output:

* Eisenstein at x (monic in y, lower y-coefficients divisible by x, the
  y-free part divisible by x exactly once): irreducible over the
  algebraic closure of K(x), hence absolutely irreducible.
* (y - a(x)) * h with h Eisenstein at x and a(0) != 0, or
  (y - a(x)) * (y - b(x)) with a != b: two coprime non-constant factors,
  so at least two components.
* Norm forms g^2 - n h^2 (odd q, n a non-square) and g^2 + g h + c h^2
  (even q, T^2 + T + c irreducible) with g = x + a(y), h = y + b or a
  nonzero constant: two conjugate components over GF(q^2).

Curves avoid the linear-in-a-variable shortcut (degree >= 2 in both x
and y), so the verdicts run through factoring over GF(q) and its
extensions.
"""

from __future__ import annotations

import random

from charpk import fields, groups, variety
from common import Op
from oracle import GF, poly_text, prime_points_problem

# (p, k) of every field the curves live over, q = 2, 3, 4, 5, 7, 8, 9, 16
CURVE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (2, 4)]
# Eisenstein degrees per field, repeated where one curve's cost depends
# much on its coefficients; quartics stop at GF(5), since over GF(8) and
# up one quartic costs from 0.2 s to seconds depending on its coefficients
# and would swamp the round
EISENSTEIN_DEGREES = {2: (3, 4, 4), 3: (3, 4, 4), 4: (3, 3, 4), 5: (3, 3, 4),
                      7: (3, 3), 8: (3, 3), 9: (3, 3), 16: (3, 3)}
# conics, products and norm forms per field: each costs 10 to 50 ms
# depending on its coefficients and they sit around the median operation,
# so several of each keep `op_p50_ref` from following a few of them
CHEAP_COPIES = 3
# GF(p^(a n)) / GF(p^a)
GALOIS_CASES = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3),
                (2, 2, 2), (2, 2, 3), (5, 1, 2), (7, 1, 2), (3, 2, 2)]
COUNT_PRIMES = (2, 3, 5, 7, 11, 13)


def _nonzero(rng, F):
    return rng.randrange(1, F.q)


def _poly_x(rng, F, deg, nonzero_const=False):
    """Coefficients of a(x) with deg a <= deg, as {power: element}."""
    out = {e: rng.randrange(F.q) for e in range(deg + 1)}
    if nonzero_const:
        out[0] = _nonzero(rng, F)
    return out


def eisenstein(rng, F, d):
    """y^d + sum_{0<j<d} x a_j(x) y^j + x c(x), c(0) != 0, deg c >= 1,
    total degree d."""
    terms = {(0, d): 1}
    for j in range(1, d):
        for i in range(1, d - j + 1):
            terms[(i, j)] = _nonzero(rng, F)
    terms[(1, 0)] = _nonzero(rng, F)
    for i in range(2, d + 1):
        terms[(i, 0)] = _nonzero(rng, F)
    terms[(2, 0)] = _nonzero(rng, F)
    return terms


def _mul(F, f, g):
    out = {}
    for (i, j), a in f.items():
        for (k, l), b in g.items():
            key = (i + k, j + l)
            out[key] = F.add(out.get(key, 0), F.mul(a, b))
    return {m: c for m, c in out.items() if c}


def _line(F, a):
    """y - a(x)."""
    terms = {(0, 1): 1}
    for e, c in a.items():
        if c:
            terms[(e, 0)] = F.neg(c)
    return terms


def product_curve(rng, F, shape):
    if shape == "line-eisenstein":
        g = _line(F, _poly_x(rng, F, 2, nonzero_const=True))
        h = eisenstein(rng, F, 2)
        return _mul(F, g, h)
    a = _poly_x(rng, F, 2)
    a[2] = a[2] or _nonzero(rng, F)
    b = _poly_x(rng, F, 2)
    while b == a:
        b = _poly_x(rng, F, 2)
    return _mul(F, _line(F, a), _line(F, b))


def norm_form(rng, F):
    """Two conjugate components over GF(q^2)."""
    g = {(1, 0): 1, (0, 0): rng.randrange(F.q), (0, 1): rng.randrange(F.q),
         (0, 2): _nonzero(rng, F)}
    if rng.random() < 0.5:
        h = {(0, 1): 1, (0, 0): rng.randrange(F.q)}
    else:
        h = {(0, 0): _nonzero(rng, F)}
    hh = _mul(F, h, h)
    if F.p == 2:
        cs = [c for c in range(1, F.q)
              if all(F.add(F.mul(t, t), F.add(t, c)) for t in range(F.q))]
        c = rng.choice(cs)
        parts = [_mul(F, g, g), _mul(F, g, h), _mul(F, {(0, 0): c}, hh)]
    else:
        n = rng.choice([a for a in range(1, F.q) if not F.is_square(a)])
        parts = [_mul(F, g, g), _mul(F, {(0, 0): F.neg(n)}, hh)]
    out = {}
    for part in parts:
        for m, c in part.items():
            out[m] = F.add(out.get(m, 0), c)
    return {m: c for m, c in out.items() if c}


def _absirr_op(K_spec, family, text, want):
    def run():
        K = fields.make_field(K_spec)
        return variety.is_absolutely_irreducible(
            variety.AffineVariety(K, ("x", "y"), [text]))

    def check(got):
        if got is not want:
            return f"{family} over {K_spec}: got {got}, want {want}: {text}"
    return Op(f"absirr/{family}", run, check)


def _galois_op(p, a, n):
    def run():
        L = fields.make_field(f"GF({p},{a * n})")
        F = fields.make_field(f"GF({p},{a})")
        return groups.galois_group(L, F)

    def check(got):
        group, autos, _ = got
        if len(group) != n or len(autos) != n:
            return f"Gal(GF({p}^{a * n})/GF({p}^{a})) has order {len(group)}"
    return Op("galois", run, check)


def _invariants_op(p, a, n):
    def run():
        L = fields.make_field(f"GF({p},{a * n})")
        act = groups.FieldAction.cyclic_action(n, L, f"frobenius^{a}")
        return groups.invariants(act)

    def check(got):
        sub, _ = got
        if (sub.p, sub.k) != (p, a):
            return f"fixed field of frobenius^{a} on GF({p}^{a * n}) " \
                   f"is {sub.spec}"
    return Op("invariants", run, check)


def _points_op(p, terms):
    text = poly_text(terms, GF(p))

    def run():
        K = fields.make_field(f"GF({p},1)")
        V = variety.AffineVariety(K, ("x", "y"), [text])
        return [tuple(int(str(c)) for c in pt)
                for pt in variety.enumerate_points(V)]

    def check(got):
        problem = prime_points_problem(got, terms, p)
        return problem and f"{text} over GF({p}): {problem}"
    return Op("points", run, check)


def build(seed):
    rng = random.Random(seed)
    ops = []
    for p, k in CURVE_FIELDS:
        F = GF(p, k)
        curves = [(f"eisenstein-{d}", eisenstein(rng, F, d), True)
                  for d in EISENSTEIN_DEGREES[F.q]]
        for _ in range(CHEAP_COPIES):
            curves += [
                ("eisenstein-2", eisenstein(rng, F, 2), True),
                ("product", product_curve(rng, F, "line-eisenstein"), False),
                ("product", product_curve(rng, F, "lines"), False),
                ("norm-form", norm_form(rng, F), False)]
        for family, terms, want in curves:
            ops.append(_absirr_op(F.spec, family, poly_text(terms, F), want))
    for p, a, n in GALOIS_CASES:
        ops += [_galois_op(p, a, n), _invariants_op(p, a, n)]
    for p in COUNT_PRIMES:
        F = GF(p)
        terms = {m: rng.randrange(p) for m in
                 [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0),
                  (0, 3)]}
        terms[(2, 0)] = _nonzero(rng, F)
        ops.append(_points_op(p, terms))
    return ops
