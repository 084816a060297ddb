"""Workload fpt-pstructure: p-structure of F_p(t1,t2,t3) and of K(V).

Inputs are computed in the independent sympy arithmetic of `oracle` and
handed to the library as literals; every expected answer follows from
how the input was built:

* b_i = u_i^p t_sigma(i) + v_i^p (u_i != 0, sigma injective) spans
  K^p(t_sigma(1)..t_sigma(e)) over K^p, so the tuple is p-independent;
  appending an element of K^p(b_1..b_{e-1}) makes it dependent.
* lambda_solve: Case 1 on a dependent tuple and Case 2 on
  c = u^p t_tau + v^p (tau outside the image of sigma) return None; in
  Case 3 c = sum_j a_j^p m_j(b) and the representation is unique, so the
  solve must return exactly the a_j.
* K(V) for a graph V(y - h(x, t)) over F_p(t) is F_p(t, x): g^p is a
  p-th power (the returned root r must satisfy r^p = f on V), x g^p is
  not, and the p-independence of u^p x + v^p, u'^p t + v'^p is as above.
* nabla_point on the prolongation of V(y - h(x)) with D(t) = 1 must
  return (a, h(a), D a, D(h(a))), computed here by differentiation, and
  every generator of tau(V) must vanish there.
* correct_lambda0_D on a random l0/D term that holds at its witness:
  the corrected formula must hold at the extended witness, and each
  fixed term must be a non-p-th power there.
"""

from __future__ import annotations

import itertools
import random

from charpk import (differential, fields, formula, lambdafn, variety)
from common import Op
from oracle import RatFuncField

TVARS = ("t1", "t2", "t3")
# (p, tuple length e) of the F_p(t1,t2,t3) cases; p^e monomials per solve
TUPLE_SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
CORRECTION_TERMS = 6
# inputs of each kind per round: one tuple's cost depends on its entries,
# so a round averages over several
COPIES = 3


def _poly(rng, p, names, deg, nterms):
    """A polynomial literal whose k-th term has degree max(deg - k, 0),
    with random variables and nonzero coefficients: the seed moves the
    input, not its size, on which the exact solves' cost depends."""
    out = []
    for k in range(nterms):
        exps = [0] * len(names)
        for _ in range(max(deg - k, 0)):
            exps[rng.randrange(len(names))] += 1
        mono = "*".join(f"{n}^{e}" if e > 1 else n
                        for n, e in zip(names, exps) if e)
        c = rng.randrange(1, p)
        out.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(out)


def _element(rng, R, names, deg=1, nterms=2, rational=False):
    x = R.field.zero
    while x == R.field.zero:
        x = R.parse(_poly(rng, R.p, names, deg, nterms))
        if rational:
            den = R.parse(_poly(rng, R.p, names, 1, 2))
            x = x / den if den != R.field.zero else x
    return x


def _monomials(bs, R):
    """m_j(b) in the library's documented order: exponent vectors in
    (0..p-1)^e, lexicographic, so m_1 = 1."""
    out = []
    for exps in itertools.product(range(R.p), repeat=len(bs)):
        m = R.field.one
        for b, i in zip(bs, exps):
            m *= b ** i
        out.append(m)
    return out


def _indep_tuple(rng, R, tnames, e, rational):
    """b_i = u_i^p t_sigma(i) + v_i^p with u_i = c t_j (over a linear
    denominator for i = 1 when `rational`) and v_i = c t_j + c'."""
    sigma = rng.sample(range(len(tnames)), e)
    gens = dict(zip(R.names, R.gens))
    bs = []
    for i, s in enumerate(sigma):
        u = _element(rng, R, R.names, nterms=1)
        if i == 0 and rational:
            u = u / _element(rng, R, R.names, nterms=2)
        bs.append(u ** R.p * gens[tnames[s]]
                  + _element(rng, R, R.names) ** R.p)
    return bs, sigma


def _combination(rng, R, bs, nonzero=3):
    """sum_j a_j^p m_j(bs) with `nonzero` of the a_j random monomials
    (a_1 among them) and the rest 0; returns it and the a_j."""
    n = R.p ** len(bs)
    picked = {0} | set(rng.sample(range(1, n), min(nonzero, n) - 1))
    coeffs = [_element(rng, R, R.names, nterms=1) if j in picked
              else R.field.zero for j in range(n)]
    c = sum((a ** R.p * m for a, m in zip(coeffs, _monomials(bs, R))),
            R.field.zero)
    return c, coeffs


def _dependent(rng, R, bs):
    """bs[:-1] plus an element of K^p(bs[:-1]) that is not a constant:
    a^p for a 1-tuple, else c b_j + c' for constants c != 0, c'."""
    if len(bs) == 1:
        return [_element(rng, R, R.names, nterms=1) ** R.p]
    entry = R.field(rng.randrange(1, R.p)) * rng.choice(bs[:-1]) \
        + R.field(rng.randrange(R.p))
    return bs[:-1] + [entry]


# ---------------------------------------------------------------------------
# F_p(t1,t2,t3)
# ---------------------------------------------------------------------------

def _tuple_ops(rng, p, e):
    R = RatFuncField(p, TVARS)
    K = fields.make_field(f"Fp({p};{','.join(TVARS)})")

    def lib(x):
        return K.parse(R.text(x))

    bs, sigma = _indep_tuple(rng, R, TVARS, e, rational=p == 2 and e <= 2)
    dep = _dependent(rng, R, bs)
    tau = rng.choice([i for i in range(3) if i not in sigma] or [None])
    case3, coeffs = _combination(rng, R, bs)
    lib_bs, lib_dep, lib_c3 = [lib(b) for b in bs], [lib(b) for b in dep], \
        lib(case3)
    tag = f"p={p} e={e}"
    ops = [
        Op("is_p_independent", lambda: lambdafn.is_p_independent(lib_bs, K),
           lambda got: None if got is True
           else f"{tag}: independent tuple reported dependent"),
        Op("is_p_independent",
           lambda: lambdafn.is_p_independent(lib_dep, K),
           lambda got: None if got is False
           else f"{tag}: dependent tuple reported independent"),
        Op("lambda_solve", lambda: lambdafn.lambda_solve(e, lib_dep, lib_c3),
           lambda got: None if got is None
           else f"{tag}: Case 1 returned a solution"),
    ]
    if tau is not None:
        gens = dict(zip(R.names, R.gens))
        c2 = lib(_element(rng, R, R.names, nterms=1) ** p * gens[TVARS[tau]]
                 + _element(rng, R, R.names) ** p)
        ops.append(Op("lambda_solve",
                      lambda: lambdafn.lambda_solve(e, lib_bs, c2),
                      lambda got: None if got is None
                      else f"{tag}: Case 2 returned a solution"))

    def check_case3(got):
        if got is None or len(got) != len(coeffs):
            return f"{tag}: Case 3 returned {got}"
        if not all(R.same(R.parse(str(g)), a) for g, a in zip(got, coeffs)):
            return f"{tag}: Case 3 coefficients differ from the built ones"
    ops.append(Op("lambda_solve",
                  lambda: lambdafn.lambda_solve(e, lib_bs, lib_c3),
                  check_case3))
    return ops


# ---------------------------------------------------------------------------
# K(V) of graph varieties over F_p(t)
# ---------------------------------------------------------------------------

def _graph_ops(rng, p):
    R = RatFuncField(p, ("t", "x"))
    K = fields.make_field(f"Fp({p};t)")
    h = _poly(rng, p, ("t", "x"), 2, 3) + " + x^2"
    on_v = {"y": h}
    g = "0"
    while not R.parse(g, on_v):
        g = _poly(rng, p, ("t", "x", "y"), 2, 3)
    gens = [f"y - ({h})"]

    def function(num):
        V = variety.AffineVariety(K, ("x", "y"), gens)
        return V.function_field_elem(num)

    def check_root(got):
        if got.status != "root":
            return f"p={p}: ({g})^{p} reported {got.status}"
        r = R.parse(str(got.value.num), on_v) / R.parse(str(got.value.den),
                                                          on_v)
        if not R.same(r ** p, R.parse(f"({g})^{p}", on_v)):
            return f"p={p}: returned root of ({g})^{p} fails r^p = f"

    u = []
    while len(u) < 4:
        text = _poly(rng, p, ("t", "x", "y"), 1, 2)
        if R.parse(text, on_v):
            u.append(text)
    indep = [f"({u[0]})^{p}*x + ({u[1]})^{p}",
             f"({u[2]})^{p}*t + ({u[3]})^{p}"]
    dep = [indep[0],
           f"{rng.randrange(1, p)}*({indep[0]}) + {rng.randrange(p)}"]

    def pindep(items):
        V = variety.AffineVariety(K, ("x", "y"), gens)
        return variety.pindep_function_field(
            [V.function_field_elem(f) for f in items])

    return [
        Op("ppower_test",
           lambda: variety.ppower_test(function(f"({g})^{p}")), check_root),
        Op("ppower_test",
           lambda: variety.ppower_test(function(f"x*({g})^{p}")),
           lambda got: None if got.status == "absent"
           else f"p={p}: x*({g})^{p} reported {got.status}"),
        Op("pindep_function_field", lambda: pindep(indep),
           lambda got: None if got.status == "independent"
           else f"p={p}: {indep} reported {got.status}"),
        Op("pindep_function_field", lambda: pindep(dep),
           lambda got: None if got.status == "dependent"
           else f"p={p}: {dep} reported {got.status}"),
    ]


def _nabla_op(rng, p):
    R = RatFuncField(p, ("t",))
    K = fields.make_field(f"Fp({p};t)")
    h = _poly(rng, p, ("t", "x"), 3, 4) + " + x^2"
    a = _element(rng, R, ("t",), deg=2, nterms=3, rational=True)
    ha = R.parse(h, {"x": R.text(a)})
    one = {"t": R.field.one}
    want = [a, ha, R.derive(a, one), R.derive(ha, one)]
    point = (K.parse(R.text(a)), K.parse(R.text(ha)))

    def run():
        V = variety.AffineVariety(K, ("x", "y"), [f"y - ({h})"])
        D = differential.DerivationContext(K, {"t": K.one()})
        bundle = differential.prolongation(V, D)
        return bundle, differential.nabla_point(point, bundle)

    def check(got):
        bundle, pt = got
        if len(pt) != 4 or not all(R.same(R.parse(str(c)), w)
                                   for c, w in zip(pt, want)):
            return f"p={p}: nabla point on y = {h} differs from (a, h(a), " \
                   "Da, D(h(a)))"
        at = dict(zip(bundle.tau.vars, map(R.text, want)))
        if any(R.parse(str(g), at) for g in bundle.tau.ideal.gens):
            return f"p={p}: nabla point on y = {h} is off tau(V)"
    return Op("nabla_point", run, check)


# ---------------------------------------------------------------------------
# lambda0 / D correction
# ---------------------------------------------------------------------------

def _term(rng, depth):
    if depth == 0:
        return rng.choice(["x", "x", "t", "1", "2"])
    a, b = _term(rng, depth - 1), _term(rng, depth - 1)
    return rng.choice([f"({a} + {b})", f"({a} * {b})", f"D({a})",
                       f"l0({a})", f"l0(D({a}))"])


def _evaluate(text, R, x):
    """The value of a term in x, t, +, *, D and l0, read recursively."""
    def split(inner):
        depth = 0
        for i, ch in enumerate(inner):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and inner[i:i + 3] in (" + ", " * "):
                return inner[:i], inner[i + 1], inner[i + 3:]
    if text.startswith("D("):
        return R.derive(_evaluate(text[2:-1], R, x), {"t": R.field.one})
    if text.startswith("l0("):
        v = _evaluate(text[3:-1], R, x)
        return R.pth_root(v) or R.field.zero
    if text.startswith("("):
        left, op, right = split(text[1:-1])
        a, b = _evaluate(left, R, x), _evaluate(right, R, x)
        return a + b if op == "+" else a * b
    if text == "x":
        return x
    return R.gens[0] if text == "t" else R.field(int(text))


def _correction_op(rng, p):
    R = RatFuncField(p, ("t",))
    K = fields.make_field(f"Fp({p};t)")
    text = ""
    while "l0" not in text:
        text = _term(rng, rng.choice([2, 2, 3]))
    wx = rng.choice(["t", "t + 1", "t^2", f"t^{p}", f"t^{p} + 1",
                     f"(t + 1)^{p}", "t^2 + t", "2"])
    c0 = R.text(_evaluate(text, R, R.parse(wx)))
    structure = {"field": K,
                 "derivation": differential.DerivationContext(K, {"t": "1"})}
    phi = formula.parse(f"({text}) - c0 = 0", "lambda0_D",
                        {"vars": {"x", "c0"}, "field": K})
    witness = {"x": K.parse(wx), "c0": K.parse(c0)}

    def check(got):
        if not formula.eval_formula(got.formula, structure,
                                    got.extended_witness):
            return f"p={p}: corrected {text} fails at its extended witness"
        for ft in got.fixed_terms:
            value = formula.eval_term(ft, structure, got.extended_witness)
            if R.is_pth_power(R.parse(str(value))):
                return f"p={p}: fixed term of {text} is a p-th power"
    return Op("correct_lambda0_D",
              lambda: formula.correct_lambda0_D(phi, structure=structure,
                                                witness=witness), check)


def build(seed):
    rng = random.Random(seed)
    ops = []
    for p, e in TUPLE_SHAPES * COPIES:
        ops += _tuple_ops(rng, p, e)
    for p in (2, 3) * COPIES:
        ops += _graph_ops(rng, p)
        ops += [_nabla_op(rng, p) for _ in range(2)]
        ops += [_correction_op(rng, p) for _ in range(CORRECTION_TERMS)]
    return ops
