"""Instance-level validation and witness search for the axiom schemes.

The D-PAC scheme: data (V, W, f_1..f_n) over a differential field
(K, D), with W in the doubled variables of V.  An instance is valid when

  1. W is absolutely irreducible,
  2. W lies inside the prolongation tau^D(V),
  3. the projection W -> V is dominant,
  4. the equalizer E projects dominantly on W,
  5. every f_i pulled back to K(W) avoids K(W)^p (admissibility).

One runner checks the bullets of either scheme: it stops at the first
failing bullet and reports a library error inside a bullet as
UnsupportedInstance naming that bullet.  One witness loop then hunts
through V(K) for a point its scheme accepts: for D-PAC, x with every
f_i(x) outside K^p and (x, D(x)) in W(K), bounded by coordinate height
so runs reproduce.

The same skeleton drives the G-B-DCF scheme, where a finite group acts
on K and the derivation is replaced by a B-operator for a truncated
polynomial algebra B = k[eta]/(eta^n); for n = 2 the geometry is the
classical prolongation (bullets 2-4 above, shared), and a trivial group
collapses the scheme bullet-for-bullet onto D-PAC.
"""

from __future__ import annotations

import json

from . import lambdafn, polys
from .differential import (DerivationContext, derivation_extends, derive,
                           kerprol_check, require_doubled_space)
from .errors import (CharpkError, PreconditionError, ResourceExhausted,
                     UnsupportedInstance)
from .fields import FieldDescriptor, is_pth_power, iter_gf_elements
from .variety import (AffineVariety, enumerate_points,
                      is_absolutely_irreducible, is_dominant, is_irreducible,
                      ppower_test, projection_map, _radical_contains)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class CheckReport:
    """Per-bullet verdicts plus an overall status; serializes to stable
    bytes.  status in {"valid-instance", "invalid", "witness-found",
    "exhausted"}."""

    __slots__ = ("bullets", "status", "failed_bullet", "witness", "bound")

    def __init__(self, bullets, status, failed_bullet=None, witness=None,
                 bound=None):
        self.bullets = list(bullets)
        self.status = status
        self.failed_bullet = failed_bullet
        self.witness = witness
        self.bound = bound

    def as_dict(self):
        d = {"status": self.status, "bullets": self.bullets}
        if self.failed_bullet is not None:
            d["failed_bullet"] = self.failed_bullet
        if self.witness is not None:
            d["witness"] = [str(c) for c in self.witness]
        if self.bound is not None:
            d["bound"] = self.bound
        return d

    def to_json(self) -> bytes:
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":")).encode()

    def __repr__(self):
        return f"<CheckReport {self.status}>"


def _bullet(name, verdict, detail=""):
    return {"name": name, "verdict": verdict, "detail": detail}


# ---------------------------------------------------------------------------
# the shared pipeline: one bullet runner, one witness loop
# ---------------------------------------------------------------------------

def _run_bullets(checks) -> CheckReport:
    """Run (name, check) pairs in order and stop at the first failure.  A
    check returns its verdict, or a (verdict, detail) pair; a library
    error inside it surfaces as UnsupportedInstance naming the bullet."""
    bullets = []
    for name, check in checks:
        try:
            verdict = check()
        except CharpkError as exc:
            raise UnsupportedInstance(f"bullet {name!r}: {exc}") from exc
        ok, detail = verdict if isinstance(verdict, tuple) else (verdict, "")
        bullets.append(_bullet(name, "pass" if ok else "fail", detail))
        if not ok:
            return CheckReport(bullets, "invalid", failed_bullet=name)
    return CheckReport(bullets, "valid-instance")


def _first_witness(V, bullets, bound, accept) -> CheckReport:
    """The first point of V(K) in the deterministic enumeration order
    (height <= bound over F_p(t..)) that `accept` takes, or exhausted."""
    for point in enumerate_points(V, bound=bound):
        if accept(point):
            return CheckReport(bullets, "witness-found", witness=point,
                               bound=bound)
    return CheckReport(bullets, "exhausted", bound=bound)


def _geometry_checks(inst):
    """The three geometric bullets shared by D-PAC and G-B-DCF."""
    V, W, D = inst.V, inst.W, inst.derivation
    return [
        ("W is contained in the prolongation of V",
         lambda: derivation_extends(V, W, D)),
        ("W projects dominantly on V",
         lambda: is_dominant(projection_map(W, V, V.vars))),
        ("E projects dominantly on W", lambda: kerprol_check(V, W, D)),
    ]


def _lifts_into_W(inst, point) -> bool:
    """(x, D(x)) lies on W."""
    dx = tuple(derive(c, inst.derivation) for c in point)
    return inst.W.contains_point(point + dx)


# ---------------------------------------------------------------------------
# D-PAC instances
# ---------------------------------------------------------------------------

class DPacInstance:
    """(K, D; V, W, f_1..f_n) with a height bound for the search."""

    __slots__ = ("field", "derivation", "V", "W", "fns", "bound")

    def __init__(self, field, derivation, V, W, fns=(), bound=1):
        if not isinstance(derivation, DerivationContext):
            derivation = DerivationContext(field, derivation)
        if V.field != field or W.field != field:
            raise PreconditionError("V and W must live over the base field")
        require_doubled_space(V, W)
        self.field = field
        self.derivation = derivation
        self.V = V
        self.W = W
        self.fns = [V.ring.parse(f) if isinstance(f, str) else f
                    for f in fns]
        self.bound = bound


def _dpac_checks(inst):
    """The five D-PAC bullets in fixed order."""
    def avoid_pth_powers():
        for f in inst.fns:
            pulled = inst.W.function_field_elem(f.rename(inst.W.ring))
            if ppower_test(pulled).status == "root":
                return False, f"{f} pulls back to a p-th power"
        return True

    return ([("W is absolutely irreducible",
              lambda: is_absolutely_irreducible(inst.W))]
            + _geometry_checks(inst)
            + [("the pulled-back functions avoid p-th powers",
                avoid_pth_powers)])


def validate_dpac_instance(inst: DPacInstance) -> CheckReport:
    """The five bullets in fixed order; stops at the first failure."""
    inst.V.require_nonempty()
    inst.W.require_nonempty()
    return _run_bullets(_dpac_checks(inst))


def _witness_ok(inst: DPacInstance, point) -> bool:
    """Independent re-verification of a candidate witness."""
    if not inst.V.contains_point(point):
        return False
    values = dict(zip(inst.V.vars, point))
    if any(is_pth_power(f.evaluate(values)) for f in inst.fns):
        return False
    return _lifts_into_W(inst, point)


def search_dpac_witness(inst: DPacInstance,
                        validated: CheckReport = None) -> CheckReport:
    """First witness in the deterministic height order, or exhausted."""
    report = validated or validate_dpac_instance(inst)
    if report.status != "valid-instance":
        raise PreconditionError(
            f"witness search needs a valid instance (got {report.status})")
    return _first_witness(inst.V, report.bullets, inst.bound,
                          lambda point: _witness_ok(inst, point))


# ---------------------------------------------------------------------------
# the open-subset PAC probe
# ---------------------------------------------------------------------------

def pac_witness_task(V: AffineVariety, avoid=(), bound=1) -> CheckReport:
    """Search V(K) for a point where some avoidance polynomial is
    nonzero (with empty `avoid`, any point).  V must be absolutely
    irreducible and the carved-open part nonempty."""
    V.require_nonempty()
    if not is_absolutely_irreducible(V):
        raise PreconditionError("V is not absolutely irreducible")
    avoid = [V.ring.parse(g) if isinstance(g, str) else g for g in avoid]
    if avoid and not any(not _radical_contains(V.ideal, g) for g in avoid):
        raise PreconditionError("the carved open subset is empty")
    bullets = [_bullet("V is absolutely irreducible", "pass"),
               _bullet("the open part is nonempty", "pass")]

    def accept(point):
        values = dict(zip(V.vars, point))
        return not avoid or any(not g.evaluate(values).is_zero()
                                for g in avoid)
    return _first_witness(V, bullets, bound, accept)


# ---------------------------------------------------------------------------
# reduction of a lambda-formula to a variety plus p-independence data
# ---------------------------------------------------------------------------

def scf_reduce(phi, context, witness, audit_bound=None):
    """Reduce a lambda-formula with a witnessing point to (V, rows):
    V is the locus of the extended witness tuple and rows is the matrix
    of coordinate functions whose rowwise p-independence at a point of V
    forces the formula.  `context` carries "field" and optionally
    "pindep": a list of rows, each a list of term strings over the
    formula variables."""
    from .formula import parse as parse_formula, unravel_lambda_terms

    field = context["field"]
    structure = {"field": field}
    if isinstance(phi, str):
        phi = parse_formula(
            phi, "lambda",
            {"vars": set(witness), "field": field})
    res = unravel_lambda_terms(phi, structure, witness)
    V = res.locus_variety()
    rows = []
    for row_spec in context.get("pindep", ()):  # the beta-conjuncts
        row = []
        for entry in row_spec:
            poly = (V.ring.parse(entry) if isinstance(entry, str)
                    else entry.rename(V.ring))
            row.append(V.function_field_elem(poly))
        rows.append(row)
    if audit_bound is not None:
        _scf_audit(phi, structure, res, V, rows, audit_bound)
    return V, rows


def _scf_audit(phi, structure, res, V, rows, nsamples):
    """Sample points of V over F_p(t..) as substitution-homomorphism
    images of the extended witness; wherever every matrix row is
    p-independent, the formula must hold on the original coordinates."""
    import itertools

    from .differential import scalar_hom
    from .formula import eval_formula, formula_variables

    K = structure["field"]
    frozen = _constant_tvars(phi, K)
    extras = []
    for n in K.tvars:
        g = K.gen(n)
        extras.extend([g + K.one(), g * g, g * g + g])
    pools = [[K.gen(n)] if n in frozen else [K.gen(n)] + extras
             for n in K.tvars]
    cap = polys.MAX_AUDIT_CHOICES
    count = 0
    for tried, choice in enumerate(itertools.product(*pools), 1):
        if count >= nsamples:
            break
        if tried > cap:
            raise ResourceExhausted(
                f"reduction audit: more than {cap} substitutions tried "
                f"for {count} of {nsamples} samples")
        images = dict(zip(K.tvars, choice))
        try:
            point = tuple(scalar_hom(res.values[n], images, K)
                          for n in res.names)
        except CharpkError:
            continue
        count += 1
        values = dict(zip(res.names, point))
        ok_rows = True
        lift = lambda c: K.from_int(c.rep[0])
        for row in rows:
            vals = []
            for f in row:
                den = f.den.evaluate(values, lift=lift)
                if den.is_zero():
                    ok_rows = False
                    break
                vals.append(f.num.evaluate(values, lift=lift) / den)
            if not ok_rows or not lambdafn.is_p_independent(vals, K):
                ok_rows = False
                break
        if not ok_rows:
            continue
        assignment = {v: values[v] for v in formula_variables(phi)}
        if not eval_formula(phi, structure, assignment):
            raise CharpkError(
                "reduction audit failed: a p-independent point of the "
                "locus does not satisfy the formula")


def _constant_tvars(phi, K):
    """Transcendentals appearing in the formula's constants; these are
    parameters and must stay fixed under audit substitutions."""
    from .formula import Const, _fold
    used = set()

    def leave(node, values):
        if isinstance(node, Const) and node.value.field.kind == "ratfunc":
            for poly in node.value.value:
                used.update(poly.variables_used())
    _fold(phi, leave)
    return used


# ---------------------------------------------------------------------------
# B-algebras and B-operators
# ---------------------------------------------------------------------------

class BAlgebra:
    """Finite local k-algebra with basis b_0 = 1, .., b_d, augmentation
    sending b_i (i > 0) to 0, and structure constants
    b_i * b_j = sum_k c[i][j][k] b_k."""

    __slots__ = ("field", "dim", "constants", "truncated")

    def __init__(self, field: FieldDescriptor, constants, truncated=False):
        dim = len(constants)
        for row in constants:
            if len(row) != dim or any(len(v) != dim for v in row):
                raise PreconditionError("structure constant shape mismatch")
        consts = [[[field.parse(c) if isinstance(c, str) else
                    (field.from_int(c) if isinstance(c, int) else c)
                    for c in vec] for vec in row] for row in constants]
        self.field = field
        self.dim = dim
        self.constants = consts
        self.truncated = truncated
        self._verify()

    @classmethod
    def truncated_polynomial(cls, field: FieldDescriptor, n: int):
        """k[eta]/(eta^n) with basis 1, eta, .., eta^(n-1)."""
        if n < 1:
            raise PreconditionError("need dimension at least 1")
        consts = [[[field.one() if (i + j == k and i + j < n)
                    else field.zero() for k in range(n)]
                   for j in range(n)] for i in range(n)]
        return cls(field, consts, truncated=True)

    def mul(self, u, v):
        out = [self.field.zero() for _ in range(self.dim)]
        for i, ui in enumerate(u):
            if ui.is_zero():
                continue
            for j, vj in enumerate(v):
                if vj.is_zero():
                    continue
                for k, c in enumerate(self.constants[i][j]):
                    out[k] = out[k] + ui * vj * c
        return out

    def _unit(self, i):
        return [self.field.one() if j == i else self.field.zero()
                for j in range(self.dim)]

    def _verify(self):
        units = [self._unit(i) for i in range(self.dim)]
        for i in range(self.dim):
            if self.mul(units[0], units[i]) != units[i]:
                raise PreconditionError("b_0 is not a unit element")
            for j in range(i, self.dim):
                if self.mul(units[i], units[j]) != self.mul(units[j],
                                                            units[i]):
                    raise PreconditionError("multiplication not commutative")
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    left = self.mul(self.mul(units[i], units[j]), units[k])
                    right = self.mul(units[i], self.mul(units[j], units[k]))
                    if left != right:
                        raise PreconditionError(
                            "multiplication not associative")
        # the augmentation kernel (span of b_1..b_d) must be nilpotent
        kernel = [self._unit(i) for i in range(1, self.dim)]
        power = kernel
        for _ in range(self.dim + 1):
            if all(all(c.is_zero() for c in v) for v in power):
                return
            power = [self.mul(u, v) for u in power for v in kernel] or []
            if not power:
                return
        raise PreconditionError("augmentation kernel is not nilpotent")


def b_operator_check(maps, B: BAlgebra, generators) -> bool:
    """maps = (d_0 .. d_d) given as callables on ring/field elements;
    verifies that r -> sum_i d_i(r) b_i is a k-algebra homomorphism on
    the listed generators: d_0 acts as the identity and multiplication
    is respected against the structure constants on every pair."""
    if len(maps) != B.dim:
        raise PreconditionError("number of maps must match the basis size")
    pairs = [(r, s) for r in generators for s in generators]
    for r in generators:
        if maps[0](r) != r:
            return False
    for r, s in pairs:
        rs = r * s
        image_r = [m(r) for m in maps]
        image_s = [m(s) for m in maps]
        expected = B.mul(image_r, image_s)
        actual = [m(rs) for m in maps]
        if expected != actual:
            return False
    return True


# ---------------------------------------------------------------------------
# G-B-DCF instances
# ---------------------------------------------------------------------------

class GBdcfInstance(DPacInstance):
    """(K with B-operator and group action; V, W over K).  `action` is a
    FieldAction or None for the trivial group; the B-operator for
    B = k[eta]/(eta^2) is (id, D) with D a DerivationContext (the zero
    derivation when None)."""

    __slots__ = ("action", "balgebra")

    def __init__(self, field, balgebra, V, W, action=None, derivation=None,
                 fns=(), bound=1):
        super().__init__(field, derivation, V, W, fns=fns, bound=bound)
        if action is not None and action.field != field:
            raise PreconditionError("the group must act on the base field")
        self.action = action
        self.balgebra = balgebra


_FAITHFUL = "the action of G on K is faithful"


def validate_gbdcf_instance(inst: GBdcfInstance) -> CheckReport:
    """Faithfulness, then either the D-PAC bullets (trivial group) or
    K-irreducibility of V and W and the three geometric bullets through
    the n = 2 prolongation; then witness search over V(K^G)."""
    if not inst.balgebra.truncated:
        raise UnsupportedInstance("unsupported B-algebra class: only "
                                  "k[eta]/(eta^n) drives the geometry")
    if inst.balgebra.dim > 2:
        raise UnsupportedInstance("the geometric pipeline supports "
                                  "k[eta]/(eta^2) (n = 2) only")
    if inst.action is None or len(inst.action.group) == 1:
        # definitional collapse onto the D-PAC scheme
        inst.V.require_nonempty()
        inst.W.require_nonempty()
        report = _run_bullets([(_FAITHFUL, lambda: (True, "trivial group"))]
                              + _dpac_checks(inst))
        if report.status != "valid-instance":
            return report
        return search_dpac_witness(inst, validated=report)

    # nontrivial group: finite base field, hence the zero derivation
    from .groups import invariants, is_faithful
    report = _run_bullets(
        [(_FAITHFUL, lambda: is_faithful(inst.action)),
         ("V and W are K-irreducible",
          lambda: is_irreducible(inst.V) and is_irreducible(inst.W))]
        + _geometry_checks(inst))
    if report.status != "valid-instance":
        return report
    # scan V(K) and keep the points with coordinates in K^G
    KG, embed = invariants(inst.action)
    cap = polys.MAX_INVARIANT_ELEMENTS
    if KG.size > cap:
        raise ResourceExhausted(f"invariant field past {cap} elements")
    fixed = {embed(x) for x in iter_gf_elements(KG)}
    return _first_witness(
        inst.V, report.bullets, inst.bound,
        lambda point: (all(c in fixed for c in point)
                       and _lifts_into_W(inst, point)))
