"""Command-line front end.

Exit codes: 0 = pass / witness found / true; 1 = fail / invalid /
exhausted / false; 2 = error / unsupported / resource cap, and any
internal error (one `internal error: <type>: <message>` line on stderr,
no traceback).

Inputs are instance files in the block DSL (see instancefile); every
subcommand accepts --json for a machine-readable report.  Each handler
imports the layers it uses, so a process that runs one job loads only
those.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (CharpkError, InstanceFileError, ResourceExhausted,
                     UnsupportedInstance)
from .fields import make_field
from .instancefile import (InstanceFile, build_action, build_derivation,
                           build_field, build_ideal, build_variety)


def _load(path) -> InstanceFile:
    return InstanceFile.load(path)


def _variety(inst, label=None):
    return build_variety(inst.require("variety", label))


def _derivation(inst, field=None):
    block = inst.find("derivation")
    if block is None:
        if field is None:
            raise InstanceFileError("no derivation block and no field")
        from .differential import DerivationContext
        return DerivationContext(field)
    return build_derivation(block, field=None if block.get("over") else field)


def _ideal(inst):
    return build_ideal(inst.find("ideal") or inst.require("variety"))


def _point(inst, V):
    block = inst.require("point")
    return tuple(V.field.parse(str(block.require(v))) for v in V.vars)


def _formula_block(inst):
    from . import formula as fmod
    block = inst.require("formula")
    field = build_field(block.require("over"))
    names = block.get("vars", [])
    if isinstance(names, str):
        names = [names]
    ctx = {"vars": set(str(v) for v in names), "field": field}
    phi = fmod.parse(str(block.require("text")),
                     str(block.get("language", "full")), ctx)
    return phi, field, [str(v) for v in names]


def _items(inst, kind):
    """The `items` of an optional block, as strings; [] without one."""
    block = inst.find(kind)
    return [str(t) for t in block.require("items")] if block else []


def _bound(inst):
    """The search bound of the optional `bound` block, 1 without one."""
    block = inst.find("bound")
    return _int(block, "value") if block else 1


def _int(block, key):
    """The integer value of `key` in an instance block."""
    value = block.require(key)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InstanceFileError(
            f"{key!r} of block {block.kind!r} must be an integer, "
            f"not {value!r}") from None


def _assignment(inst, field):
    block = inst.find("witness")
    if block is None:
        return None
    return {k: field.parse(str(v)) for k, v in block.fields.items()}


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# handlers: return (exit_code, payload, human lines)
# ---------------------------------------------------------------------------

def cmd_field(args):
    K = make_field(args.spec)
    info = {"p": K.p, "kind": K.kind}
    if K.kind == "gf":
        info["degree"] = K.k
        info["order"] = K.p ** K.k
        lines = [f"finite field of order {K.p}^{K.k} = {K.p ** K.k}",
                 f"canonical form: {K.spec}"]
    else:
        info["transcendentals"] = list(K.tvars)
        lines = [f"rational function field over F_{K.p} in "
                 f"{', '.join(K.tvars) or '(no variables)'}"]
    return 0, info, lines


def cmd_poly(args):
    inst = _load(args.file)
    ideal = _ideal(inst)
    if args.action == "gb":
        gb = ideal.groebner(args.order)
        return 0, {"basis": [str(g) for g in gb]}, [str(g) for g in gb]
    if args.action == "elim":
        drop = args.drop or list(ideal.ring.vars[:1])
        unknown = [v for v in drop if v not in ideal.ring.vars]
        if unknown:
            raise InstanceFileError(
                f"--drop names unknown variables: {', '.join(unknown)}")
        out = ideal.eliminate(drop)
        return 0, {"generators": [str(g) for g in out.gens]}, \
            [str(g) for g in out.gens]
    if args.action == "dim":
        d = ideal.dimension()
        return 0, {"dimension": d}, [f"dimension {d}"]
    if args.action == "member":
        f = ideal.ring.parse(args.poly)
        ok = ideal.contains(f)
        return (0 if ok else 1), {"member": ok}, \
            [f"{args.poly} is {'' if ok else 'not '}in the ideal"]
    raise InstanceFileError(f"unknown poly action {args.action}")


def cmd_variety(args):
    from . import variety as vmod
    inst = _load(args.file)
    if args.action == "locus":
        block = inst.require("locus")
        L = build_field(block.require("in"))
        K = build_field(block.require("base"))
        elems = [L.parse(str(e)) for e in block.require("elements")]
        names = block.get("vars")
        names = tuple(str(v) for v in names) if names else None
        V = vmod.locus(elems, K, variables=names)
        gens = [str(g) for g in V.ideal.gens]
        return 0, {"vars": list(V.vars), "generators": gens}, gens
    V = _variety(inst)
    if args.action == "irr":
        ok = vmod.is_irreducible(V)
        return (0 if ok else 1), {"irreducible": ok}, \
            [f"irreducible: {ok}"]
    if args.action == "absirr":
        ok = vmod.is_absolutely_irreducible(V)
        return (0 if ok else 1), {"absolutely_irreducible": ok}, \
            [f"absolutely irreducible: {ok}"]
    if args.action == "dominant":
        target = _variety(inst, label="target")
        block = inst.find("map")
        if block is not None:
            coords = [V.function_field_elem(str(c))
                      for c in block.require("coords")]
            m = vmod.RationalMapData(V, target, coords)
        else:
            unknown = [v for v in target.vars if v not in V.vars]
            if unknown:
                raise InstanceFileError(
                    "without a map block the target's variables must be "
                    f"the variety's; unknown: {', '.join(unknown)}")
            m = vmod.projection_map(V, target, target.vars)
        ok = vmod.is_dominant(m)
        return (0 if ok else 1), {"dominant": ok}, [f"dominant: {ok}"]
    if args.action == "points":
        pts = [[str(c) for c in p]
               for p in vmod.enumerate_points(V, bound=args.bound)]
        return 0, {"count": len(pts), "points": pts}, \
            [f"{len(pts)} points"] + ["(" + ", ".join(p) + ")" for p in pts]
    if args.action == "ppower":
        block = inst.require("function")
        f = V.function_field_elem(str(block.require("num")),
                                  str(block.get("den", "1")))
        v = vmod.ppower_test(f)
        payload = {"status": v.status, "reason": v.reason}
        if v.value is not None:
            payload["root"] = str(v.value)
        code = {"absent": 0, "root": 1}[v.status]
        return code, payload, [f"{v.status}: {v.reason}"]
    if args.action == "pindep":
        block = inst.require("functions")
        fs = [V.function_field_elem(str(t)) for t in block.require("items")]
        v = vmod.pindep_function_field(fs)
        code = {"independent": 0, "dependent": 1}[v.status]
        return code, {"status": v.status, "reason": v.reason}, \
            [f"{v.status}: {v.reason}"]
    raise InstanceFileError(f"unknown variety action {args.action}")


def cmd_diff(args):
    from . import differential
    inst = _load(args.file)
    V = _variety(inst, label="V") if inst.find("variety", "V") \
        else _variety(inst)
    D = _derivation(inst, field=V.field)
    if args.action == "prolong":
        bundle = differential.prolongation(V, D)
        gens = [str(g) for g in bundle.tau.ideal.gens]
        return 0, {"vars": list(bundle.tau.vars), "generators": gens}, gens
    if args.action == "nabla":
        bundle = differential.prolongation(V, D)
        point = _point(inst, V)
        full = differential.nabla_point(point, bundle)
        return 0, {"point": [str(c) for c in full]}, \
            ["(" + ", ".join(str(c) for c in full) + ")"]
    W = _variety(inst, label="W")
    if args.action == "extends":
        ok = differential.derivation_extends(V, W, D)
        return (0 if ok else 1), {"extends": ok}, [f"extends: {ok}"]
    if args.action == "equalizer":
        E = differential.equalizer(V, W, D)
        gens = [str(g) for g in E.ideal.gens]
        return 0, {"vars": list(E.vars), "generators": gens}, gens
    if args.action == "kerprol":
        ok = differential.kerprol_check(V, W, D)
        return (0 if ok else 1), {"dominant": ok}, \
            [f"E dominates W: {ok}"]
    raise InstanceFileError(f"unknown diff action {args.action}")


def cmd_action(args):
    from . import groups
    inst = _load(args.file)
    if args.action == "galois":
        block = inst.require("galois")
        L = build_field(block.require("field"))
        F = build_field(block.require("subfield"))
        group, _autos, _ = groups.galois_group(L, F)
        labels = list(group.elements)
        return 0, {"order": len(group), "elements": labels}, \
            [f"Galois group of order {len(group)}: {', '.join(labels)}"]
    if args.action == "kirred":
        block = inst.require("set")
        L = build_field(block.require("field"))
        K = build_field(block.require("base"))
        S = [L.parse(str(e)) for e in block.require("items")]
        ok = groups.finite_set_k_irreducible(S, K)
        return (0 if ok else 1), {"k_irreducible": ok}, \
            [f"irreducible over the base: {ok}"]
    if args.action == "probe":
        block = inst.require("probe")
        F = build_field(block.require("subfield"))
        K = build_field(block.require("field"))
        from .polys import PolyRing
        ring = PolyRing(F, ("x",))
        thetas = [ring.parse(str(t)) for t in block.require("thetas")]
        report = groups.alg_strongly_pac_probe(F, K, thetas)
        entries = report.entries
        ok = report.overall_pass
        lines = [f"overall: {'PASS' if ok else 'FAIL'}"]
        for e in entries:
            lines.append(f"  {e['theta']}: "
                         f"{'pass' if e['pass'] else 'FAIL'} "
                         f"orbits {e['orbit_sizes']}")
        return (0 if ok else 1), {"pass": ok, "entries": entries}, lines
    act = build_action(inst.require("action"))
    if args.action == "invariants":
        sub, _ = groups.invariants(act)
        return 0, {"invariants": sub.spec}, [f"invariant field: {sub.spec}"]
    if args.action == "faithful":
        ok = groups.is_faithful(act)
        return (0 if ok else 1), {"faithful": ok}, [f"faithful: {ok}"]
    if args.action == "check210":
        report = groups.check_galois_data(act)
        ok = report.all_pass()
        payload = {"algebraic_separable": report.algebraic_separable,
                   "normal": report.normal,
                   "iso_with_group": report.iso_with_group,
                   "invariant_field": report.invariant_field.spec,
                   "pass": ok}
        lines = [f"algebraic/separable: {report.algebraic_separable}",
                 f"normal: {report.normal}",
                 f"isomorphic to the given group: {report.iso_with_group}",
                 f"invariant field: {report.invariant_field.spec}"]
        return (0 if ok else 1), payload, lines
    raise InstanceFileError(f"unknown action subcommand {args.action}")


def cmd_formula(args):
    from . import formula as fmod
    inst = _load(args.file)
    phi, field, names = _formula_block(inst)
    if args.action == "parse":
        printed = (fmod.print_formula(phi)
                   if isinstance(phi, fmod.Formula)
                   else fmod.print_term(phi))
        return 0, {"canonical": printed}, [printed]
    D = None
    if inst.find("derivation") is not None:
        D = _derivation(inst, field=field)
    structure = {"field": field}
    if D is not None:
        structure["derivation"] = D
    if args.action == "eval":
        assignment = _assignment(inst, field) or {}
        ok = fmod.eval_formula(phi, structure, assignment)
        return (0 if ok else 1), {"holds": ok}, [f"holds: {ok}"]
    if args.action == "unravel":
        witness = _assignment(inst, field)
        if witness is None:
            raise InstanceFileError("unravelling needs a witness block")
        res = fmod.unravel_lambda_terms(phi, structure, witness)
        payload = {"names": list(res.names),
                   "values": {n: str(res.values[n]) for n in res.names},
                   "conditions": [fmod.print_term(c)
                                  for c in res.conditions],
                   "trace": res.trace}
        lines = ["extended tuple: " + ", ".join(
            f"{n} = {res.values[n]}" for n in res.names)]
        lines += ["condition: " + fmod.print_term(c) + " = 0"
                  for c in res.conditions]
        return 0, payload, lines
    if args.action == "correct":
        witness = _assignment(inst, field)
        cases_block = inst.find("cases")
        cases = ([str(c) for c in cases_block.require("items")]
                 if cases_block else None)
        res = fmod.correct_lambda0_D(phi, structure=structure,
                                     witness=witness, cases=cases)
        payload = {"formula": fmod.print_formula(res.formula),
                   "fixed_terms": [fmod.print_term(t)
                                   for t in res.fixed_terms],
                   "fresh": list(res.fresh_vars),
                   "trace": res.trace}
        lines = ["corrected: " + payload["formula"],
                 "fixed terms: " + (", ".join(payload["fixed_terms"])
                                    or "(none)")]
        return 0, payload, lines
    raise InstanceFileError(f"unknown formula action {args.action}")


def _report_exit(report):
    if report.status in ("valid-instance", "witness-found"):
        return 0
    if report.status in ("invalid", "exhausted"):
        return 1
    return 2


def _report_lines(report):
    lines = [f"status: {report.status}"]
    for b in report.bullets:
        lines.append(f"  [{b['verdict']}] {b['name']}"
                     + (f" ({b['detail']})" if b["detail"] else ""))
    if report.witness is not None:
        lines.append("witness: ("
                     + ", ".join(str(c) for c in report.witness) + ")")
    return lines


def _dpac_instance(inst):
    from .axioms import DPacInstance
    V = _variety(inst, label="V")
    W = _variety(inst, label="W")
    D = _derivation(inst, field=V.field)
    return DPacInstance(V.field, D, V, W, fns=_items(inst, "functions"),
                        bound=_bound(inst))


def cmd_axiom(args):
    from .axioms import (BAlgebra, GBdcfInstance, b_operator_check,
                         pac_witness_task, scf_reduce, search_dpac_witness,
                         validate_dpac_instance, validate_gbdcf_instance)
    inst = _load(args.file)
    if args.action == "validate-dpac":
        report = validate_dpac_instance(_dpac_instance(inst))
        return _report_exit(report), report.as_dict(), _report_lines(report)
    if args.action == "search-dpac":
        report = search_dpac_witness(_dpac_instance(inst))
        return _report_exit(report), report.as_dict(), _report_lines(report)
    if args.action == "pac-open":
        report = pac_witness_task(_variety(inst),
                                  avoid=_items(inst, "avoid"),
                                  bound=_bound(inst))
        return _report_exit(report), report.as_dict(), _report_lines(report)
    if args.action == "scf-reduce":
        phi, field, _ = _formula_block(inst)
        witness = _assignment(inst, field)
        if witness is None:
            raise InstanceFileError("the reduction needs a witness block")
        context = {"field": field}
        rblock = inst.find("rows")
        if rblock is not None:
            context["pindep"] = rblock.require("items")
        V, rows = scf_reduce(phi, context, witness,
                             audit_bound=args.bound)
        payload = {"vars": list(V.vars),
                   "generators": [str(g) for g in V.ideal.gens],
                   "rows": [[str(f) for f in row] for row in rows]}
        lines = (["locus generators:"]
                 + ["  " + str(g) for g in V.ideal.gens]
                 + [f"matrix rows: {len(rows)}"])
        return 0, payload, lines
    if args.action == "bop-check":
        block = inst.require("bop")
        n = _int(block, "n")
        field = build_field(block.require("over"))
        B = BAlgebra.truncated_polynomial(field, n)
        D = _derivation(inst, field=field)
        gens = [field.parse(str(g)) for g in block.require("generators")]
        maps = _bop_maps(block.require("maps"), field, D)
        ok = b_operator_check(maps, B, gens)
        return (0 if ok else 1), {"b_operator": ok}, \
            [f"B-operator: {ok}"]
    if args.action == "validate-gbdcf":
        V = _variety(inst, label="V")
        W = _variety(inst, label="W")
        bblock = inst.find("balgebra")
        n = _int(bblock, "n") if bblock else 2
        B = BAlgebra.truncated_polynomial(V.field, n)
        action = (build_action(inst.find("action"))
                  if inst.find("action") else None)
        D = (_derivation(inst, field=V.field)
             if inst.find("derivation") else None)
        gi = GBdcfInstance(V.field, B, V, W, action=action, derivation=D,
                           fns=_items(inst, "functions"), bound=_bound(inst))
        report = validate_gbdcf_instance(gi)
        return _report_exit(report), report.as_dict(), _report_lines(report)
    raise InstanceFileError(f"unknown axiom action {args.action}")


def _bop_maps(names, field, D):
    from .differential import derive
    maps = []
    for i, name in enumerate(names):
        name = str(name)
        if name == "id":
            maps.append(lambda x: x)
        elif name == "D":
            maps.append(lambda x: derive(x, D))
        elif name == "D2/2":
            if field.p == 2:
                raise UnsupportedInstance("D2/2 is undefined in "
                                          "characteristic 2")
            inv2 = field.one() / field.from_int(2)
            maps.append(lambda x, c=inv2: c * derive(derive(x, D), D))
        elif name == "frob":
            maps.append(lambda x: x ** field.p)
        else:
            raise InstanceFileError(f"unknown map name {name!r}")
    return maps


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="charpk",
        description="characteristic-p geometry and axiom-instance checks")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("field", help="inspect a field specification")
    p.add_argument("spec")
    p.set_defaults(handler=cmd_field)

    p = add_parser("poly", help="ideal computations")
    p.add_argument("action", choices=["gb", "elim", "dim", "member"])
    p.add_argument("file")
    p.add_argument("--order", default="grevlex")
    p.add_argument("--drop", nargs="+", metavar="VAR", default=[],
                   help="variables to eliminate (default: the first)")
    p.add_argument("--poly", default="0")
    p.set_defaults(handler=cmd_poly)

    p = add_parser("variety", help="affine variety questions")
    p.add_argument("action", choices=["irr", "absirr", "dominant", "points",
                                      "locus", "ppower", "pindep"])
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=None,
                   help="points: coordinate height bound over F_p(t..)")
    p.set_defaults(handler=cmd_variety)

    p = add_parser("diff", help="derivations and prolongations")
    p.add_argument("action", choices=["prolong", "nabla", "extends",
                                      "equalizer", "kerprol"])
    p.add_argument("file")
    p.set_defaults(handler=cmd_diff)

    p = add_parser("action", help="finite group actions on fields")
    p.add_argument("action", choices=["galois", "invariants", "faithful",
                                      "check210", "kirred", "probe"])
    p.add_argument("file")
    p.set_defaults(handler=cmd_action)

    p = add_parser("formula", help="formula parsing and rewriting")
    p.add_argument("action", choices=["parse", "eval", "unravel", "correct"])
    p.add_argument("file")
    p.set_defaults(handler=cmd_formula)

    p = add_parser("axiom", help="axiom-scheme instance checks")
    p.add_argument("action", choices=["validate-dpac", "search-dpac",
                                      "pac-open", "scf-reduce", "bop-check",
                                      "validate-gbdcf"])
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=None,
                   help="scf-reduce: number of sample points of the audit "
                   "(default: no audit); the other actions ignore it and take "
                   "their search bound from the instance's bound block")
    p.set_defaults(handler=cmd_axiom)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.handler(args)
    except (UnsupportedInstance, ResourceExhausted) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except CharpkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of charpk: exit 2, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _emit(args, payload, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
