"""Hand-worked cases for the benchmark's own arithmetic and checkers.

    python3 -m pytest bench/test_checkers.py -q
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import cli_instances as ci  # noqa: E402
import fpt_pstructure as fpt  # noqa: E402
import gf_curves as gfc  # noqa: E402
from oracle import (GF, RatFuncField, count_points_prime,  # noqa: E402
                    ratfunc_elements)

CIRCLE = {(2, 0): 1, (0, 2): 1, (0, 0): -1}


def test_circle_point_counts():
    # x^2 + y^2 = 1: q - 1 points when -1 is a square mod q, else q + 1
    assert count_points_prime(CIRCLE, 7) == 8
    assert count_points_prime(CIRCLE, 5) == 4


def test_default_moduli_and_products():
    assert GF(2, 4).modulus == [1, 1, 0, 0, 1]    # x^4 + x + 1
    assert GF(3, 2).modulus == [1, 0, 1]          # x^2 + 1
    F4 = GF(2, 2)                                  # g^2 = g + 1
    assert F4.mul(2, 2) == 3 and F4.text(3) == "1+g"
    assert F4.mul(3, 3) == 2                       # (g+1)^2 = g
    assert sorted(a for a in range(1, 7) if not GF(7).is_square(a)) \
        == [3, 5, 6]
    assert sum(not GF(3, 2).is_square(a) for a in range(1, 9)) == 4


def test_square_of_a_line_is_not_a_product_case():
    # over GF(2), x^2 + y^2 + 1 = (x + y + 1)^2: one component, so
    # the product family must use coprime factors, never a square
    F = GF(2)
    line = {(1, 0): 1, (0, 1): 1, (0, 0): 1}
    assert gfc._mul(F, line, line) == {(2, 0): 1, (0, 2): 1, (0, 0): 1}
    for seed in range(100):
        rng = random.Random(seed)
        for p, k in ((2, 1), (2, 2), (3, 2)):
            F = GF(p, k)
            f = gfc.product_curve(rng, F, "lines")
            # f = y^2 + B y + C is a square iff its discriminant
            # B^2 - 4C vanishes (iff B = 0 in characteristic 2)
            B = {(i, 0): c for (i, j), c in f.items() if j == 1}
            C = {(i, 0): c for (i, j), c in f.items() if j == 0}
            disc = dict(gfc._mul(F, B, B))
            for m, c in gfc._mul(F, {(0, 0): F.neg(4 % p)}, C).items():
                disc[m] = F.add(disc.get(m, 0), c)
            assert any(disc.values()) if p != 2 else bool(B)


def test_eisenstein_shape():
    rng = random.Random(3)
    for d in (2, 3, 4):
        f = gfc.eisenstein(rng, GF(3, 2), d)
        assert f[(0, d)] == 1
        assert all(i >= 1 for (i, j) in f if j < d)
        assert f[(1, 0)] and f[(2, 0)]
        assert max(i + j for i, j in f) == d


def test_norm_form_constants():
    # T^2 + T + c is irreducible over GF(2) only for c = 1, and over GF(4)
    # for c = g and g + 1; the norm forms in characteristic 2 rely on it
    for F, want in ((GF(2), [1]), (GF(2, 2), [2, 3])):
        assert [c for c in range(1, F.q)
                if all(F.add(F.mul(t, t), F.add(t, c)) for t in range(F.q))
                ] == want
    f = gfc.norm_form(random.Random(0), GF(2))
    assert f[(2, 0)] == 1 and f[(0, 4)] == 1


def test_ratfunc_oracle():
    R = RatFuncField(3, ("t",))
    t = R.gens[0]
    assert R.same(R.parse("(2*t^2 + 2*t + 2)/(2*t)"), R.parse("(t^2+t+1)/t"))
    assert R.is_pth_power(R.parse("t^3 + 1"))
    assert not R.is_pth_power(R.parse("t^3 + t"))
    assert R.same(R.pth_root(R.parse("(t^6 + 1)/t^3")), (t ** 2 + 1) / t)
    assert R.same(R.derive(t ** 2, {"t": R.field.one}), 2 * t)
    assert R.same(R.parse("x*y - t", {"x": "t", "y": "1"}), R.field.zero)
    assert R.same(R.parse(R.text((t + 2) / (t ** 2 + 1))),
                  (t + 2) / (t ** 2 + 1))


def test_height_one_elements_and_hyperbola_points():
    R = RatFuncField(3, ("t",))
    elems = list(ratfunc_elements(R, 1))
    # 0; 8 nonzero polynomials of degree <= 1; for each of the 3 monic
    # t + c, the 6 numerators of degree <= 1 prime to it
    assert len(elems) == 1 + 8 + 3 * 6
    t = R.gens[0]
    # x y = t: x = c, c t, c (t + a), c t / (t + a) with c, a != 0
    assert sum(1 for x in elems if x and R.height(t / x) <= 1) == 12


def test_lambda_monomial_order():
    R = RatFuncField(2, ("t1", "t2", "t3"))
    b1, b2 = R.gens[0], R.gens[1]
    assert fpt._monomials([b1, b2], R) == [R.field.one, b2, b1, b1 * b2]


def test_term_evaluation():
    R = RatFuncField(3, ("t",))
    t = R.gens[0]
    assert R.same(fpt._evaluate("l0(x)", R, t ** 3), t)
    assert fpt._evaluate("l0(x)", R, t) == R.field.zero
    assert R.same(fpt._evaluate("D((x * x))", R, t), 2 * t)
    assert R.same(fpt._evaluate("(l0(D(x)) + 2)", R, t), R.field(3))


def test_cli_checkers_accept_right_and_reject_wrong_payloads():
    assert ci.check_search_found(0, {"status": "witness-found",
                                     "witness": ["t"]}) is None
    # D(t^3) = 0, so (t^3, 0) is off W = V(u - 1)
    assert ci.check_search_found(0, {"status": "witness-found",
                                     "witness": ["t^3"]})
    assert ci.check_pac_open(0, {"status": "witness-found",
                                 "witness": ["0", "1"]}) is None
    assert ci.check_pac_open(0, {"status": "witness-found",
                                 "witness": ["1", "0"]})
    pts = [[str(x), str(y)] for x in range(7) for y in range(7)
           if (x * x + y * y - 1) % 7 == 0]
    check = ci._check_points_prime(7, CIRCLE)
    assert check(0, {"count": 8, "points": pts}) is None
    assert check(0, {"count": 7, "points": pts[1:]})
    probe = {"pass": False, "entries": [
        {"orbit_sizes": [3], "k_irreducible": True, "f_roots": [],
         "pass": False},
        {"orbit_sizes": [1, 1], "k_irreducible": False,
         "f_roots": ["0", "1"], "pass": True}]}
    assert ci.check_probe(1, probe) is None
    assert ci.check_probe(0, probe)
