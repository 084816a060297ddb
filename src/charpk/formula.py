"""Quantifier-free formulas over characteristic-p structures.

Term constructors: constants, variables, + - *, D(.), l0(.) (the inverse
of Frobenius extended by zero), lam(i,e; b..; c) (the multivariable
lambda-functions) and s[g](.) (automorphism application).  A language
tag restricts the allowed constructors.  Formulas are boolean
combinations of atoms `term = 0`, held in negation normal form; the
canonical printer is fully parenthesized and parse(print(x)) == x.
Terms are read by the grammar that scalars and polynomials share
(`fields._Parser`), with unsigned exponents and `/` between constants
only.

Two syntactic engines operate on these:

* unravel_lambda_terms: replaces every lambda-subterm, innermost first,
  by fresh variables carrying the defining relation
  c = sum_j lam_j^p m_j(b..), steered by a witnessing point; negated
  equalities are first removed with an auxiliary-inverse variable.
  The output extended tuple feeds the locus construction.

* correct_lambda0_D: removes every l0 occurrence: a nonzero-p-th-power
  argument introduces a fresh y with defining atom y^p = s; a zero value
  substitutes 0 and, when the argument is nonzero at the witness,
  records it as a fixed term whose value must stay a non-p-th power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from . import fields, lambdafn
from .errors import FieldError, FormulaError, PreconditionError
from .fields import (FieldDescriptor, FieldScalar, is_pth_power, lambda0,
                     pth_root)


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """+ - * and unary - build Add, Sub and Mul nodes: -a is 0 - a and
    a ** n the left-nested product a * a * .. * a, with a ** 0 = 1."""

    def __add__(self, other):
        return Add(self, other)

    def __sub__(self, other):
        return Sub(self, other)

    def __mul__(self, other):
        return Mul(self, other)

    def __neg__(self):
        return Sub(IntConst(0), self)

    def __pow__(self, n):
        if n == 0:
            return IntConst(1)
        out = self
        for _ in range(n - 1):
            out = Mul(out, self)
        return out

    def is_zero(self):
        return False


@dataclass(frozen=True)
class IntConst(Term):
    value: int

    def is_zero(self):
        return self.value == 0


@dataclass(frozen=True)
class Const(Term):
    value: FieldScalar

    def __hash__(self):
        return hash(("Const", self.value))

    def is_zero(self):
        return self.value.is_zero()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Sub(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class DOp(Term):
    arg: Term


@dataclass(frozen=True)
class Lambda0(Term):
    arg: Term


@dataclass(frozen=True)
class Lam(Term):
    index: int
    arity: int
    basis: Tuple[Term, ...]
    arg: Term


@dataclass(frozen=True)
class Sigma(Term):
    element: str
    arg: Term


# formulas -------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    term: Term


@dataclass(frozen=True)
class NotF(Formula):
    sub: Formula


@dataclass(frozen=True)
class AndF(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class OrF(Formula):
    left: Formula
    right: Formula


# language tags --------------------------------------------------------------

_BASE = (IntConst, Const, Var, Add, Sub, Mul)
LANGUAGES = {
    "ring": _BASE,
    "lambda": _BASE + (Lam,),
    "lambda0_D": _BASE + (DOp, Lambda0),
    "G": _BASE + (Sigma,),
    "full": _BASE + (Lam, DOp, Lambda0, Sigma),
}


def check_language(node, tag: str):
    allowed = LANGUAGES.get(tag)
    if allowed is None:
        raise FormulaError(f"unknown language tag {tag!r}")

    def walk_term(t):
        if not isinstance(t, allowed):
            raise FormulaError(
                f"constructor {type(t).__name__} is not part of "
                f"the {tag!r} language")
        for child in _term_children(t):
            walk_term(child)

    def walk_formula(f):
        if isinstance(f, Atom):
            walk_term(f.term)
        elif isinstance(f, NotF):
            walk_formula(f.sub)
        elif isinstance(f, (AndF, OrF)):
            walk_formula(f.left)
            walk_formula(f.right)
        else:
            raise FormulaError("not a formula node")

    if isinstance(node, Formula):
        walk_formula(node)
    else:
        walk_term(node)
    return node


def _term_children(t):
    if isinstance(t, (Add, Sub, Mul)):
        return (t.left, t.right)
    if isinstance(t, (DOp, Lambda0, Sigma)):
        return (t.arg,)
    if isinstance(t, Lam):
        return t.basis + (t.arg,)
    return ()


def term_variables(t):
    out = set()

    def walk(u):
        if isinstance(u, Var):
            out.add(u.name)
        for c in _term_children(u):
            walk(c)
    walk(t)
    return out


def formula_variables(f):
    out = set()

    def walk(g):
        if isinstance(g, Atom):
            out.update(term_variables(g.term))
        elif isinstance(g, NotF):
            walk(g.sub)
        else:
            walk(g.left)
            walk(g.right)
    walk(f)
    return out


# ---------------------------------------------------------------------------
# canonical printing (fully parenthesized; parse o print = identity)
# ---------------------------------------------------------------------------

def print_term(t: Term) -> str:
    if isinstance(t, IntConst):
        return str(t.value)
    if isinstance(t, Const):
        s = str(t.value)
        return f"({s})" if any(ch in s for ch in "+-*/ ") else s
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Add):
        return f"({print_term(t.left)} + {print_term(t.right)})"
    if isinstance(t, Sub):
        return f"({print_term(t.left)} - {print_term(t.right)})"
    if isinstance(t, Mul):
        return f"({print_term(t.left)} * {print_term(t.right)})"
    if isinstance(t, DOp):
        return f"D({print_term(t.arg)})"
    if isinstance(t, Lambda0):
        return f"l0({print_term(t.arg)})"
    if isinstance(t, Lam):
        bs = ", ".join(print_term(b) for b in t.basis)
        return f"lam({t.index},{t.arity}; {bs}; {print_term(t.arg)})"
    if isinstance(t, Sigma):
        return f"s[{t.element}]({print_term(t.arg)})"
    raise FormulaError("unknown term node")


def print_formula(f: Formula) -> str:
    f = to_nnf(f)

    def walk(g):
        if isinstance(g, Atom):
            return f"{print_term(g.term)} = 0"
        if isinstance(g, NotF):
            return f"!({walk(g.sub)})"
        if isinstance(g, AndF):
            return f"({walk(g.left)} & {walk(g.right)})"
        if isinstance(g, OrF):
            return f"({walk(g.left)} | {walk(g.right)})"
        raise FormulaError("unknown formula node")
    return walk(f)


def to_nnf(f: Formula) -> Formula:
    def walk(g, neg):
        if isinstance(g, Atom):
            return NotF(g) if neg else g
        if isinstance(g, NotF):
            return walk(g.sub, not neg)
        if isinstance(g, AndF):
            cls = OrF if neg else AndF
            return cls(walk(g.left, neg), walk(g.right, neg))
        if isinstance(g, OrF):
            cls = AndF if neg else OrF
            return cls(walk(g.left, neg), walk(g.right, neg))
        raise FormulaError("unknown formula node")
    return walk(f, False)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Parser(fields._Parser):
    """Formulas over the term grammar of `fields._Parser`: `|`, `&`,
    `!(..)` and atoms `term = term`, where a parenthesized formula is
    tried before a parenthesized term.  The hooks build term nodes and
    `target` is the context {vars, field}."""

    what, error = "formula", FormulaError

    def parse(self):
        node = self.formula() if "=" in self.text else self.expr()
        if self.peek():
            raise FormulaError(
                f"trailing input at position {self.pos} in {self.text!r}")
        return node

    def eat(self, ch):
        if self.peek() != ch:
            raise FormulaError(
                f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    # -- formulas -----------------------------------------------------------

    def formula(self):
        left = self.conj()
        while self.peek() == "|":
            self.pos += 1
            left = OrF(left, self.conj())
        return left

    def conj(self):
        left = self.unit()
        while self.peek() == "&":
            self.pos += 1
            left = AndF(left, self.unit())
        return left

    def unit(self):
        if self.peek() == "!":
            self.pos += 1
            return NotF(self.argument(self.formula))
        if self.peek() == "(":
            # disambiguate "(formula)" from a parenthesized term by
            # backtracking
            save = self.pos
            try:
                f = self.argument(self.formula)
                if self.peek() in ("=", "+", "-", "*", "^"):
                    raise FormulaError("term context")
                return f
            except FormulaError:
                self.pos = save
        left = self.expr()
        self.eat("=")
        right = self.expr()
        if isinstance(right, IntConst) and right.value == 0:
            return Atom(left)
        return Atom(Sub(left, right))

    def argument(self, read):
        self.eat("(")
        node = read()
        self.eat(")")
        return node

    # -- term hooks ---------------------------------------------------------

    def number(self, n):
        return IntConst(n)

    def symbol(self, name):
        if name == "s" and self.text.startswith("[", self.pos):
            self.pos += 1
            self.skip()
            start = self.pos
            self.pos = fields._WORD.match(self.text, start).end()
            if self.pos == start:
                raise FormulaError(f"expected a name at position {start}")
            element = self.text[start:self.pos]
            self.eat("]")
            return Sigma(element, self.argument(self.expr))
        if self.peek() == "(":
            if name == "D":
                return DOp(self.argument(self.expr))
            if name == "l0":
                return Lambda0(self.argument(self.expr))
            if name == "lam":
                return self.argument(self.lam)
        declared = self.target.get("vars")
        if declared is None or name in declared:
            return Var(name)
        field = self.target.get("field")
        if field is not None:
            try:
                return Const(field.parse(name))
            except FieldError:
                pass
        return Var(name)

    def lam(self):
        """`i,e; b..; c` inside lam(..)."""
        i = self.natural()
        self.eat(",")
        e = self.natural()
        self.eat(";")
        basis = []
        if self.peek() != ";":
            basis.append(self.expr())
            while self.peek() == ",":
                self.pos += 1
                basis.append(self.expr())
        self.eat(";")
        return Lam(i, e, tuple(basis), self.expr())

    def divide(self, v, d):
        field = self.target.get("field")

        def value(t):
            if isinstance(t, Const):
                return t.value
            if isinstance(t, IntConst) and field is not None:
                return field.from_int(t.value)
            raise FormulaError("division is only defined between constants")
        num, den = value(v), value(d)
        if den.is_zero():
            raise FormulaError(f"division by zero in {self.text!r}")
        return Const(num / den)

    def natural(self):
        self.skip()
        return self.integer(
            message=f"expected a number at position {self.pos}")

    exponent = natural


def parse(text: str, tag: str = "full", context=None):
    """Parse a term or (when it contains '=') a formula; validates the
    language tag."""
    return check_language(_Parser(text, context or {}).parse(), tag)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_term(t: Term, structure, assignment):
    field = structure["field"]
    if isinstance(t, IntConst):
        return field.from_int(t.value)
    if isinstance(t, Const):
        if t.value.field != field:
            raise FieldError("constant from another field")
        return t.value
    if isinstance(t, Var):
        if t.name not in assignment:
            raise FormulaError(f"unassigned variable {t.name!r}")
        return assignment[t.name]
    if isinstance(t, Add):
        return (eval_term(t.left, structure, assignment)
                + eval_term(t.right, structure, assignment))
    if isinstance(t, Sub):
        return (eval_term(t.left, structure, assignment)
                - eval_term(t.right, structure, assignment))
    if isinstance(t, Mul):
        return (eval_term(t.left, structure, assignment)
                * eval_term(t.right, structure, assignment))
    if isinstance(t, DOp):
        from .differential import derive
        D = structure.get("derivation")
        if D is None:
            raise FormulaError("the structure carries no derivation")
        return derive(eval_term(t.arg, structure, assignment), D)
    if isinstance(t, Lambda0):
        return lambda0(eval_term(t.arg, structure, assignment))
    if isinstance(t, Lam):
        bs = [eval_term(b, structure, assignment) for b in t.basis]
        c = eval_term(t.arg, structure, assignment)
        return lambdafn.lambda_multi(t.index, t.arity, bs, c)
    if isinstance(t, Sigma):
        sigmas = structure.get("sigmas")
        if sigmas is None or t.element not in sigmas:
            raise FormulaError(f"no automorphism named {t.element!r}")
        return sigmas[t.element](eval_term(t.arg, structure, assignment))
    raise FormulaError("unknown term node")


def eval_formula(f: Formula, structure, assignment) -> bool:
    if isinstance(f, Atom):
        return eval_term(f.term, structure, assignment).is_zero()
    if isinstance(f, NotF):
        return not eval_formula(f.sub, structure, assignment)
    if isinstance(f, AndF):
        return (eval_formula(f.left, structure, assignment)
                and eval_formula(f.right, structure, assignment))
    if isinstance(f, OrF):
        return (eval_formula(f.left, structure, assignment)
                or eval_formula(f.right, structure, assignment))
    raise FormulaError("unknown formula node")


# ---------------------------------------------------------------------------
# the lambda-term unraveller
# ---------------------------------------------------------------------------

class UnravelResult:
    """Extended tuple recipe plus polynomial locus conditions: every
    coordinate of a point satisfying the conditions solves the original
    formula (branch choices frozen at the witness)."""

    __slots__ = ("names", "values", "conditions", "trace")

    def __init__(self, names, values, conditions, trace):
        self.names = tuple(names)
        self.values = dict(values)
        self.conditions = list(conditions)
        self.trace = list(trace)

    def locus_variety(self):
        from .variety import locus
        if not self.names:
            raise PreconditionError("the locus needs a witness coordinate")
        K = self.values[self.names[0]].field
        return locus([self.values[n] for n in self.names],
                     FieldDescriptor("gf", K.p, 1), variables=self.names)


def unravel_lambda_terms(phi: Formula, structure, witness) -> UnravelResult:
    """witness: dict variable -> FieldScalar satisfying phi; lambda-case
    branches and disjunct choices are resolved at the witness."""
    phi = to_nnf(phi)
    field = structure["field"]
    env = dict(witness)
    names = list(witness)
    conditions = []
    trace = []
    counter = {"lam": 0, "inv": 0}

    def value_of(term):
        return eval_term(term, structure, env)

    def rewrite_term(t):
        if isinstance(t, Lam):
            basis = [rewrite_term(b) for b in t.basis]
            arg = rewrite_term(t.arg)
            bvals = [value_of(b) for b in basis]
            cval = value_of(arg)
            sol = lambdafn.lambda_solve(t.arity, bvals, cval)
            if sol is None:
                trace.append({"kind": "lam", "case": "degenerate",
                              "index": t.index, "arity": t.arity})
                return IntConst(0)
            counter["lam"] += 1
            block = counter["lam"]
            fresh = [f"lm{block}_{j+1}" for j in range(len(sol))]
            for nm, v in zip(fresh, sol):
                env[nm] = v
                names.append(nm)
            # defining relation: c = sum_j lam_j^p m_j(basis)
            p = field.p
            acc = None
            for j, exps in enumerate(
                    lambdafn.monomial_exponents(p, t.arity)):
                piece = Var(fresh[j])
                for _ in range(p - 1):
                    piece = Mul(piece, Var(fresh[j]))
                for b, i in zip(basis, exps):
                    for _ in range(i):
                        piece = Mul(piece, b)
                acc = piece if acc is None else Add(acc, piece)
            conditions.append(Sub(arg, acc))
            trace.append({"kind": "lam", "case": "solved",
                          "index": t.index, "arity": t.arity,
                          "fresh": fresh})
            return Var(fresh[t.index - 1])
        children = _term_children(t)
        if not children:
            return t
        if isinstance(t, (Add, Sub, Mul)):
            cls = type(t)
            return cls(rewrite_term(t.left), rewrite_term(t.right))
        raise FormulaError(
            f"{type(t).__name__} is outside the lambda language")

    def handle(f):
        if isinstance(f, Atom):
            if not eval_formula(f, structure, env):
                raise FormulaError("the witness does not satisfy the "
                                   "chosen branch")
            conditions.append(rewrite_term(f.term))
            return
        if isinstance(f, NotF):
            inner = f.sub
            if not isinstance(inner, Atom):
                raise FormulaError("negation normal form violated")
            val = eval_term(inner.term, structure, env)
            if val.is_zero():
                raise FormulaError("the witness does not satisfy the "
                                   "chosen branch")
            t = rewrite_term(inner.term)
            counter["inv"] += 1
            aux = f"inv{counter['inv']}"
            env[aux] = field.one() / value_of(t)
            names.append(aux)
            conditions.append(Sub(Mul(t, Var(aux)), IntConst(1)))
            trace.append({"kind": "negation", "aux": aux})
            return
        if isinstance(f, AndF):
            handle(f.left)
            handle(f.right)
            return
        if isinstance(f, OrF):
            for branch in (f.left, f.right):
                if eval_formula(branch, structure, env):
                    trace.append({"kind": "disjunct",
                                  "chosen": print_formula(branch)})
                    handle(branch)
                    return
            raise FormulaError("the witness satisfies no disjunct")
        raise FormulaError("unknown formula node")

    handle(phi)
    # every condition must vanish at the extended witness
    for c in conditions:
        if not eval_term(c, structure, env).is_zero():
            raise FormulaError("unravelled condition fails at the witness")
    return UnravelResult(names, env, conditions, trace)


# ---------------------------------------------------------------------------
# the lambda0/D correction rewriter
# ---------------------------------------------------------------------------

def simplify_term(t: Term) -> Term:
    """Local arithmetic cleanups only; never merges D across sums."""
    if isinstance(t, (Add, Sub, Mul)):
        a = simplify_term(t.left)
        b = simplify_term(t.right)
        if isinstance(t, Add):
            if a.is_zero():
                return b
            if b.is_zero():
                return a
            return Add(a, b)
        if isinstance(t, Sub):
            if b.is_zero():
                return a
            return Sub(a, b)
        if a.is_zero() or b.is_zero():
            return IntConst(0)
        if _is_one_term(a):
            return b
        if _is_one_term(b):
            return a
        return Mul(a, b)
    if isinstance(t, DOp):
        a = simplify_term(t.arg)
        if isinstance(a, IntConst):
            return IntConst(0)
        if isinstance(a, Const) and a.value.field.kind == "gf":
            return IntConst(0)
        return DOp(a)
    if isinstance(t, Lambda0):
        return Lambda0(simplify_term(t.arg))
    if isinstance(t, Lam):
        return Lam(t.index, t.arity,
                   tuple(simplify_term(b) for b in t.basis),
                   simplify_term(t.arg))
    if isinstance(t, Sigma):
        return Sigma(t.element, simplify_term(t.arg))
    return t


def _is_one_term(t):
    return (isinstance(t, IntConst) and t.value == 1) or (
        isinstance(t, Const) and t.value.is_one())


class CorrectionResult:
    """phi' in the D-language over the original plus fresh variables,
    the fixed terms (values must stay non-p-th powers), the case trace,
    and the extended witness when one drove the rewriting."""

    __slots__ = ("formula", "fixed_terms", "trace", "fresh_vars",
                 "extended_witness")

    def __init__(self, formula, fixed_terms, trace, fresh_vars,
                 extended_witness):
        self.formula = formula
        self.fixed_terms = list(fixed_terms)
        self.trace = list(trace)
        self.fresh_vars = tuple(fresh_vars)
        self.extended_witness = extended_witness


def correct_lambda0_D(phi: Formula, structure=None, witness=None,
                      cases=None) -> CorrectionResult:
    """Case source: either (structure, witness) in a concrete
    differential field, or an explicit `cases` list assigning, per l0
    occurrence in traversal order (innermost first, left to right), one
    of "power" / "zero" / "nonpower"."""
    phi = to_nnf(phi)
    if _contains_negation(phi):
        raise FormulaError("negated equalities must be eliminated before "
                           "the correction")
    if (structure is None or witness is None) and cases is None:
        raise FormulaError("a witnessing point or an explicit case "
                           "assignment is required")
    env = dict(witness) if witness else {}
    defining = []
    fixed_terms = []
    trace = []
    fresh = []
    state = {"count": 0, "occurrence": 0}
    nonzero_args = []

    def decide(term, value):
        if cases is not None:
            idx = state["occurrence"]
            if idx >= len(cases):
                raise FormulaError("explicit case assignment too short")
            return cases[idx]
        if value.is_zero():
            return "zero"
        if is_pth_power(value):
            return "power"
        return "nonpower"

    def rw(t):
        children = _term_children(t)
        if isinstance(t, Lambda0):
            arg = rw(t.arg)
            value = (eval_term(arg, structure, env)
                     if structure is not None and witness is not None
                     else None)
            case = decide(arg, value)
            state["occurrence"] += 1
            if case == "power":
                state["count"] += 1
                y = f"y{state['count']}"
                fresh.append(y)
                p_power = Var(y)
                # y^p as an explicit product
                if structure is None:
                    raise FormulaError(
                        "explicit-case rewriting needs a structure to fix "
                        "the characteristic; pass structure= as well")
                p = structure["field"].p
                for _ in range(p - 1):
                    p_power = Mul(p_power, Var(y))
                defining.append(Atom(Sub(p_power, arg)))
                nonzero_args.append((arg, y))
                if value is not None:
                    env[y] = pth_root(value)
                trace.append({"occurrence": state["occurrence"],
                              "argument": print_term(arg),
                              "case": "nonzero p-th power",
                              "fresh": y})
                return Var(y)
            if case == "zero":
                trace.append({"occurrence": state["occurrence"],
                              "argument": print_term(arg),
                              "case": "argument is zero",
                              "note": "no fixed term recorded; the "
                                      "bookkeeping for identically-zero "
                                      "arguments is flagged, not decided"})
                return IntConst(0)
            if case == "nonpower":
                fixed_terms.append(arg)
                trace.append({"occurrence": state["occurrence"],
                              "argument": print_term(arg),
                              "case": "nonzero non-p-th power",
                              "fixed_term": print_term(arg)})
                return IntConst(0)
            raise FormulaError(f"unknown case label {case!r}")
        if not children:
            return t
        if isinstance(t, (Add, Sub, Mul)):
            return simplify_term(type(t)(rw(t.left), rw(t.right)))
        if isinstance(t, DOp):
            return simplify_term(DOp(rw(t.arg)))
        raise FormulaError(
            f"{type(t).__name__} is outside the lambda0-D language")

    def rw_formula(f):
        if isinstance(f, Atom):
            return Atom(simplify_term(rw(f.term)))
        if isinstance(f, AndF):
            return AndF(rw_formula(f.left), rw_formula(f.right))
        if isinstance(f, OrF):
            return OrF(rw_formula(f.left), rw_formula(f.right))
        raise FormulaError("unknown formula node")

    core = rw_formula(phi)
    out = core
    for d in reversed(defining):
        out = AndF(d, out)
    _check_assignment_consistency(out, nonzero_args, fixed_terms)
    extended = env if witness else None
    return CorrectionResult(out, fixed_terms, trace, fresh, extended)


def _contains_negation(f):
    if isinstance(f, Atom):
        return False
    if isinstance(f, NotF):
        return True
    return _contains_negation(f.left) or _contains_negation(f.right)


def _conjunct_atoms(f, out):
    if isinstance(f, Atom):
        out.append(f.term)
    elif isinstance(f, AndF):
        _conjunct_atoms(f.left, out)
        _conjunct_atoms(f.right, out)


def _check_assignment_consistency(formula, nonzero_args, fixed_terms):
    """An argument assigned a nonzero case cannot be forced to vanish by
    the rewritten formula (the inconsistent-branch detector)."""
    atoms = []
    _conjunct_atoms(formula, atoms)
    atom_set = {print_term(a) for a in atoms}
    for arg, _ in nonzero_args:
        if print_term(arg) in atom_set:
            raise FormulaError(
                f"inconsistent case assignment: {print_term(arg)} was "
                "declared a nonzero p-th power but the corrected formula "
                "forces it to vanish")
    for arg in fixed_terms:
        if print_term(arg) in atom_set:
            raise FormulaError(
                f"inconsistent case assignment: fixed term "
                f"{print_term(arg)} is forced to vanish")
