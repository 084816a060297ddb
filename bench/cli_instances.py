"""Workload cli-instances: the instance files in bench/inst, one fresh
`python -m charpk.cli ... --json` process per job, one job at a time.

Every job pays interpreter and sympy start-up, instance-file parsing and
any table a kernel builds, again.  The seed fixes the order of the jobs
in a round.  Each answer is checked from the exit code and the JSON
payload: witnesses and listed points are substituted back into the
instance's equations, point counts are redone independently, and group
orders are the extension degrees.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from charpk import cli, differential, fields, formula
from common import HERE, Op, run_child
from oracle import GF, RatFuncField, prime_points_problem, ratfunc_elements

INST = os.path.join(HERE, "inst")
DPAC_BULLETS = 5


def _inst(name):
    return os.path.join(INST, name)


def _dpac_witness_ok(p, w_gens, fns, witness):
    """x on V = A^1, (x, D x) on W, and no function a p-th power at x."""
    R = RatFuncField(p, ("t",))
    x = R.parse(witness[0])
    dx = R.text(R.derive(x, {"t": R.field.one}))
    on_w = all(not R.parse(g, {"x": witness[0], "u": dx}) for g in w_gens)
    return on_w and not any(R.is_pth_power(R.parse(f, {"x": witness[0]}))
                            for f in fns)


def _report(code, payload, want_code, status):
    if code != want_code or payload.get("status") != status:
        return f"exit {code}, status {payload.get('status')}; " \
               f"want exit {want_code}, status {status}"


def check_dpac_valid(code, payload):
    bad = _report(code, payload, 0, "valid-instance")
    verdicts = [b["verdict"] for b in payload.get("bullets", [])]
    return bad or (None if verdicts == ["pass"] * DPAC_BULLETS
                   else f"bullets {verdicts}")


def check_dpac_invalid(code, payload):
    bad = _report(code, payload, 1, "invalid")
    if not bad and payload.get("failed_bullet") != "E projects dominantly " \
                                                   "on W":
        bad = f"failed bullet {payload.get('failed_bullet')}"
    return bad


def check_search_found(code, payload):
    bad = _report(code, payload, 0, "witness-found")
    if not bad and not _dpac_witness_ok(3, ["u - 1"], ["x"],
                                        payload["witness"]):
        bad = f"witness {payload['witness']} fails the instance"
    return bad


def check_search_exhausted(code, payload):
    bad = _report(code, payload, 1, "exhausted")
    return bad or (None if payload.get("bound") == 2
                   else f"bound {payload.get('bound')}")


def check_pac_open(code, payload):
    bad = _report(code, payload, 0, "witness-found")
    if not bad:
        x, y = (int(c) for c in payload["witness"])
        if (x * x + y * y - 1) % 7 or y % 7 == 0:
            bad = f"witness {payload['witness']} is off the open part"
    return bad


def _check_points_prime(p, terms):
    def check(code, payload):
        pts = [tuple(int(c) for c in pt) for pt in payload.get("points", [])]
        problem = prime_points_problem(pts, terms, p)
        if code or problem or payload.get("count") != len(pts):
            return f"exit {code}, count {payload.get('count')}: {problem}"
    return check


def check_hyperbola(code, payload):
    """x y = t over F_3(t), heights <= 1: every x of height <= 1 with
    t/x of height <= 1 is a point, and nothing else."""
    R = RatFuncField(3, ("t",))
    t = R.gens[0]
    want = sum(1 for x in ratfunc_elements(R, 1)
               if x and R.height(t / x) <= 1)
    pts = [(R.parse(a), R.parse(b)) for a, b in payload.get("points", [])]
    off = [pt for pt in pts if not R.same(pt[0] * pt[1], t)]
    if code or off or len(pts) != want:
        return f"exit {code}: {len(pts)} points, {len(off)} off the curve, " \
               f"{want} by count"


def check_pindep(code, payload):
    if code or payload.get("status") != "independent":
        return f"exit {code}: (x, t) reported {payload.get('status')}"


def check_groebner(code, payload):
    """Every basis element vanishes on (s^2, s, s^3)."""
    R = RatFuncField(7, ("s",))
    curve = {"x": "s^2", "y": "s", "z": "s^3"}
    basis = payload.get("basis", [])
    if code or not basis or any(R.parse(g, curve) for g in basis):
        return f"exit {code}: basis {basis} does not vanish on the curve"


def check_dimension(code, payload):
    if code or payload.get("dimension") != 1:
        return f"exit {code}: dimension {payload.get('dimension')}, want 1"


def check_member(code, payload):
    # x z - y^5 vanishes on the curve, and the ideal is prime
    if code or payload.get("member") is not True:
        return f"exit {code}: x*z - y^5 reported {payload.get('member')}"


def check_galois(code, payload):
    order = payload.get("order")
    if code or order != 4 or len(set(payload.get("elements", []))) != 4:
        return f"exit {code}: Gal(GF(16)/GF(2)) of order {order}"


def check_probe(code, payload):
    """x^3 + x + 1 has no root in GF(4), so over GF(4) it is one orbit of
    size 3 with no root in GF(2): the probe fails on it.  x^2 + x has the
    roots 0 and 1 in GF(2) and passes."""
    F4 = GF(2, 2)
    if any(F4.add(F4.pow(a, 3), F4.add(a, 1)) == 0 for a in range(4)):
        return "x^3 + x + 1 has a root in GF(4)"
    entries = payload.get("entries", [])
    if code != 1 or payload.get("pass") is not False or len(entries) != 2:
        return f"exit {code}, payload {payload}"
    first, second = entries
    if first["orbit_sizes"] != [3] or not first["k_irreducible"] \
            or first["f_roots"] or first["pass"]:
        return f"x^3+x+1: {first}"
    if sorted(second["f_roots"]) != ["0", "1"] or not second["pass"]:
        return f"x^2+x: {second}"


def check_correction(code, payload):
    """The corrected formula holds at x = t^2, y1 = l0(x) = t."""
    if code or payload.get("fresh") != ["y1"] or payload.get("fixed_terms"):
        return f"exit {code}, payload {payload}"
    K = fields.make_field("Fp(2;t)")
    structure = {"field": K,
                 "derivation": differential.DerivationContext(K, {"t": "1"})}
    phi = formula.parse(payload["formula"], "lambda0_D",
                        {"vars": {"x", "y1"}, "field": K})
    if not formula.eval_formula(phi, structure, {"x": K.parse("t^2"),
                                                 "y1": K.parse("t")}):
        return f"{payload['formula']} fails at x = t^2, y1 = t"


JOBS = [
    (["axiom", "validate-dpac", _inst("dpac-valid.inst")], check_dpac_valid),
    (["axiom", "validate-dpac", _inst("dpac-invalid.inst")],
     check_dpac_invalid),
    (["axiom", "search-dpac", _inst("dpac-valid.inst")], check_search_found),
    (["axiom", "search-dpac", _inst("dpac-exhausted.inst")],
     check_search_exhausted),
    (["axiom", "pac-open", _inst("circle7.inst")], check_pac_open),
    (["variety", "points", _inst("circle7.inst")],
     _check_points_prime(7, {(2, 0): 1, (0, 2): 1, (0, 0): -1})),
    (["variety", "points", _inst("cubic11.inst")],
     _check_points_prime(11, {(0, 2): 1, (3, 0): -1, (1, 0): -3,
                              (0, 0): -5})),
    (["variety", "points", _inst("hyperbola3t.inst"), "--bound", "1"],
     check_hyperbola),
    (["variety", "pindep", _inst("pindep3t.inst")], check_pindep),
    (["poly", "gb", _inst("twisted-cubic7.inst"), "--order", "lex"],
     check_groebner),
    (["poly", "dim", _inst("twisted-cubic7.inst")], check_dimension),
    (["poly", "member", _inst("twisted-cubic7.inst"), "--poly",
      "x*z - y^5"], check_member),
    (["action", "galois", _inst("galois16.inst")], check_galois),
    (["action", "probe", _inst("probe4.inst")], check_probe),
    (["formula", "correct", _inst("correct2.inst")], check_correction),
]


def _payload(out):
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {}


def _job_op(argv, check):
    def run():
        code, out, _, _ = run_child([sys.executable, "-m", "charpk.cli",
                                     *argv, "--json"])
        return code, _payload(out)
    return Op(f"cli/{argv[0]} {argv[1]}", run, lambda got: check(*got))


def build(seed):
    jobs = list(JOBS)
    random.Random(seed).shuffle(jobs)
    return [_job_op(argv, check) for argv, check in jobs]


def run_in_process():
    """The job set through `cli.main` in this process: (all answers
    right, summed seconds of the main() calls)."""
    ok, total = True, 0.0
    for argv, check in JOBS:
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--json"])
        total += time.perf_counter() - start
        problem = check(code, _payload(out.getvalue()))
        if problem:
            print(f"WRONG in-process {argv[:2]}: {problem}", file=sys.stderr)
            ok = False
    return ok, total
