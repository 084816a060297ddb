"""Quantifier-free formulas over characteristic-p structures.

Term constructors: constants, variables, + - *, D(.), l0(.) (the inverse
of Frobenius extended by zero), lam(i,e; b..; c) (the multivariable
lambda-functions) and s[g](.) (automorphism application).  A language
tag restricts the allowed constructors.  Formulas are boolean
combinations of atoms `term = 0`, held in negation normal form.  Every
walker folds over one explicit-stack traversal, `_fold`, so the depth of
a tree never matters.  Terms are read by the grammar that scalars and
polynomials share (`fields._Parser`), with unsigned exponents and `/`
between constants only; powers may add at most `polys.MAX_TERM_NODES`
nodes and parentheses nest at most `fields.MAX_NESTING` deep.  Each `(`
is decided once, by the token after its matching `)`: one of
`= + - * / ^` (or no match) makes it a term, anything else a formula.  The
printer is fully parenthesized, and parse(print(x)) evaluates as x when
print(x) nests no deeper; a constant printed as an expression (`2*t`)
reads back as that expression.

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

import operator

from . import fields, lambdafn, polys
from .errors import (FieldError, FormulaError, PreconditionError,
                     ResourceExhausted)
from .fields import FieldDescriptor, is_pth_power, lambda0, pth_root


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------

class _Node:
    """A frozen node with the fields named in `__slots__`.  Each node class
    gets, when it is created, the methods dataclasses would write for it:
    `__init__` taking the fields by position or name, and `==` and `hash`
    by class and fields (a class may keep its own `__hash__`).  Nodes
    print as `Var(name='x')`, refuse assignment and copy by rebuilding."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        mine, theirs = ("".join(f"{who}.{n}, " for n in names)
                        for who in ("self", "other"))
        code = (f"def __init__(self, {', '.join(names)}):\n"
                + "".join(f" _set(self, {n!r}, {n})\n" for n in names)
                + " pass\n"
                "def __eq__(self, other):\n"
                " if other.__class__ is not self.__class__:\n"
                "  return NotImplemented\n"
                f" return ({mine}) == ({theirs})\n"
                f"def __hash__(self):\n return hash(({mine}))\n"
                f"def _fields(self):\n return ({mine})\n")
        # generated, as dataclasses does: a loop over the fields made
        # nodes 4-10x slower to build, compare and hash
        made = {"_set": object.__setattr__}
        exec(code, made)
        for name in ("__init__", "__eq__", "__hash__", "_fields"):
            if name not in cls.__dict__:
                made[name].__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, made[name])

    def __repr__(self):
        fields = (f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


class Term(_Node):
    """+ - * and unary - build Add, Sub and Mul nodes: -a is 0 - a and
    a ** n the left-nested product a * a * .. * a, with a ** 0 = 1."""

    __slots__ = ()

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


class IntConst(Term):
    __slots__ = ("value",)

    def is_zero(self):
        return self.value == 0


class Const(Term):
    """A field constant: `value` is a FieldScalar."""

    __slots__ = ("value",)

    def __hash__(self):
        return hash(("Const", self.value))

    def is_zero(self):
        return self.value.is_zero()


class Var(Term):
    __slots__ = ("name",)


class Add(Term):
    __slots__ = ("left", "right")


class Sub(Term):
    __slots__ = ("left", "right")


class Mul(Term):
    __slots__ = ("left", "right")


class DOp(Term):
    __slots__ = ("arg",)


class Lambda0(Term):
    __slots__ = ("arg",)


class Lam(Term):
    """lam(index, arity; basis..; arg), the basis a tuple of terms."""

    __slots__ = ("index", "arity", "basis", "arg")


class Sigma(Term):
    __slots__ = ("element", "arg")


# formulas -------------------------------------------------------------------

class Formula(_Node):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("term",)


class NotF(Formula):
    __slots__ = ("sub",)


class AndF(Formula):
    __slots__ = ("left", "right")


class OrF(Formula):
    __slots__ = ("left", "right")


# language tags --------------------------------------------------------------

_BASE = (IntConst, Const, Var, Add, Sub, Mul)
LANGUAGES = {
    "ring": _BASE,
    "lambda": _BASE + (Lam,),
    "lambda0_D": _BASE + (DOp, Lambda0),
    "G": _BASE + (Sigma,),
    "full": _BASE + (Lam, DOp, Lambda0, Sigma),
}


# ---------------------------------------------------------------------------
# the one traversal
# ---------------------------------------------------------------------------

def _children(node):
    """The direct subterms and subformulas of a node, left to right."""
    if isinstance(node, (Add, Sub, Mul, AndF, OrF)):
        return (node.left, node.right)
    if isinstance(node, (DOp, Lambda0, Sigma)):
        return (node.arg,)
    if isinstance(node, Lam):
        return node.basis + (node.arg,)
    if isinstance(node, Atom):
        return (node.term,)
    if isinstance(node, NotF):
        return (node.sub,)
    return ()


def _fold(root, leave, children=_children):
    """The fold of the tree under `root`: leave(node, values) for every
    node, children before their parent, `values` holding the children's
    folds in order.  The stack is explicit, so the depth of the tree
    never matters.  Entering a node calls children(node), after the
    node's left siblings are folded, and its items are entered one at a
    time, left to right, so a lazy iterable may choose later children by
    what was folded before."""
    stack = [(root, iter(children(root)), [])]
    while True:
        node, kids, values = stack[-1]
        kid = next(kids, None)
        if kid is not None:
            stack.append((kid, iter(children(kid)), []))
            continue
        stack.pop()
        value = leave(node, values)
        if not stack:
            return value
        stack[-1][2].append(value)


def _connectives(node):
    """The children of a connective: walks that stop at atoms."""
    return () if isinstance(node, Atom) else _children(node)


def check_language(node, tag: str):
    allowed = LANGUAGES.get(tag)
    if allowed is None:
        raise FormulaError(f"unknown language tag {tag!r}")

    def refuse(n):
        return FormulaError(f"constructor {type(n).__name__} is not part "
                            f"of the {tag!r} language")

    def enter(n):
        kids = _children(n)
        connective = isinstance(n, (NotF, AndF, OrF))
        if not (connective or isinstance(n, (Atom,) + allowed)):
            raise refuse(n)
        for k in kids:
            if isinstance(k, Formula) != connective:
                raise (FormulaError("not a formula node") if connective
                       else refuse(k))
        return kids

    _fold(node, lambda n, values: None, enter)
    return node


def term_variables(node):
    """The names of the variables in a term or formula."""
    names = set()

    def leave(n, values):
        if isinstance(n, Var):
            names.add(n.name)
    _fold(node, leave)
    return names


formula_variables = term_variables


# ---------------------------------------------------------------------------
# canonical printing (fully parenthesized)
# ---------------------------------------------------------------------------

_FORMATS = {Add: "({} + {})", Sub: "({} - {})", Mul: "({} * {})",
            DOp: "D({})", Lambda0: "l0({})", Atom: "{} = 0",
            NotF: "!({})", AndF: "({} & {})", OrF: "({} | {})"}


def _layout(node):
    """node's text as literal strings around its children, left to
    right."""
    if isinstance(node, str):
        return ()
    fmt = _FORMATS.get(type(node))
    if fmt is None:
        if isinstance(node, IntConst):
            return (str(node.value),)
        if isinstance(node, Const):
            return (_const_text(node.value),)
        if isinstance(node, Var):
            return (node.name,)
        if isinstance(node, Lam):
            fmt = (f"lam({node.index},{node.arity}; "
                   + ", ".join(["{}"] * len(node.basis)) + "; {})")
        elif isinstance(node, Sigma):
            fmt = f"s[{node.element}]({{}})"
        else:
            raise FormulaError("unknown term node")
    pieces = fmt.split("{}")
    return [x for pair in zip(pieces, _children(node)) for x in pair] + [
        pieces[-1]]


def _const_text(c):
    """A constant's value as text that reads back as a term of that
    value.  Over F_p(t..) a monomial denominator (monic, as every
    denominator is) is spelt as divisions by names, the one quotient the
    reader folds into a constant; no text makes any other denominator,
    and such a constant does not read back."""
    s = str(c)
    num, den = c.value if c.field.kind == "ratfunc" else (None, None)
    if den is not None and not den.is_constant() and len(den.terms) == 1:
        exps, = den.terms
        chain = "".join(f"/{name}" * e
                        for name, e in zip(c.field.tvars, exps))
        top = fields._ratpoly_str(num, c.field)
        s = (top + chain if fields._WORD.fullmatch(top)
             else f"({top})*(1{chain})")
    return f"({s})" if any(ch in s for ch in "+-*/ ") else s


def print_term(node) -> str:
    """The canonical text of a term, or of a formula as it stands."""
    out = []

    def leave(n, values):
        if isinstance(n, str):
            out.append(n)
    _fold(node, leave, _layout)
    return "".join(out)


def print_formula(f: Formula) -> str:
    return print_term(to_nnf(f))


def to_nnf(f: Formula) -> Formula:
    """Negations pushed down to the atoms (each atom kept as it is)."""
    def leave(g, values):
        """g and its negation, both in negation normal form."""
        if isinstance(g, Atom):
            return g, NotF(g)
        if isinstance(g, NotF):
            return values[0][::-1]
        if isinstance(g, (AndF, OrF)):
            (lp, ln), (rp, rn) = values
            dual = OrF if isinstance(g, AndF) else AndF
            return type(g)(lp, rp), dual(ln, rn)
        raise FormulaError("unknown formula node")
    return _fold(f, leave, _connectives)[0]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Parser(fields._Parser):
    """Formulas over the term grammar of `fields._Parser`: `|`, `&`,
    `!(..)` and atoms `term = term`.  `parse` first pairs the
    parentheses, and `unit` reads a formula at a `(` unless the token
    after its `)` continues a term, so no text is read twice.  The hooks
    build term nodes and `target` is the context {vars, field}."""

    what, error = "formula", FormulaError
    grown = 0   # term nodes the powers read so far added

    def parse(self):
        # for each "(" by token index, the token after its matching ")"
        self.after, opened = {}, []
        for i, tok in enumerate(self.toks):
            if tok == "(":
                opened.append(i)
            elif tok == ")" and opened:
                self.after[opened.pop()] = self.toks[i + 1]
        node = self.formula() if "=" in self.text else self.expr()
        if self.toks[self.i]:
            raise FormulaError(f"trailing input at position {self.offset()} "
                               f"in {self.text!r}")
        return node

    def eat(self, tok):
        if self.toks[self.i] != tok:
            raise FormulaError(f"expected {tok!r} at position "
                               f"{self.offset()} in {self.text!r}")
        self.i += 1

    # -- formulas -----------------------------------------------------------

    def formula(self):
        left = self.conj()
        while self.toks[self.i] == "|":
            self.i += 1
            left = OrF(left, self.conj())
        return left

    def conj(self):
        left = self.unit()
        while self.toks[self.i] == "&":
            self.i += 1
            left = AndF(left, self.unit())
        return left

    def unit(self):
        tok = self.toks[self.i]
        if tok == "!":
            self.i += 1
            return NotF(self.argument(self.formula))
        # an unmatched "(" reads as a term, which reports it unbalanced
        if tok == "(" and self.after.get(self.i, "=") not in (
                "=", "+", "-", "*", "/", "^"):
            return self.argument(self.formula)
        left = self.expr()
        self.eat("=")
        right = self.expr()
        if isinstance(right, IntConst) and right.value == 0:
            return Atom(left)
        return Atom(Sub(left, right))

    def argument(self, read):
        self.eat("(")
        node = self.inside(read)
        self.eat(")")
        return node

    # -- term hooks ---------------------------------------------------------

    def number(self, n):
        return IntConst(n)

    def symbol(self, name):
        toks, i = self.toks, self.i
        if (name == "s" and toks[i] == "["
                and self.offset(i) == self.offset(i - 1) + 1):
            # the element is one \w run, digits and letters alike
            start = self.offset(i + 1)
            end = fields._WORD.match(self.text, start).end()
            if end == start:
                raise FormulaError(f"expected a name at position {start}")
            while self.offset() < end:
                self.i += 1
            self.eat("]")
            return Sigma(self.text[start:end], self.argument(self.expr))
        if toks[i] == "(":
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
        if field is not None and (name == field.gen_name
                                  or name in field.tvars):
            return Const(field.parse(name))
        return Var(name)

    def lam(self):
        """`i,e; b..; c` inside lam(..)."""
        i = self.natural()
        self.eat(",")
        e = self.natural()
        self.eat(";")
        basis = []
        if self.toks[self.i] != ";":
            basis.append(self.expr())
            while self.toks[self.i] == ",":
                self.i += 1
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

    def power(self, v, n):
        """v ** n, refused before it is built when the powers of the text
        would add more than polys.MAX_TERM_NODES term nodes."""
        if n > 1:
            size = _fold(v, lambda node, sizes: 1 + sum(sizes))
            self._grow((n - 1) * (size + 1))
        return v ** n

    def _grow(self, added):
        self.grown += added
        if self.grown > polys.MAX_TERM_NODES:
            raise ResourceExhausted(
                f"formula powers expand past {polys.MAX_TERM_NODES} "
                "term nodes")

    def natural(self):
        if not self.toks[self.i].isdecimal():
            raise FormulaError(
                f"expected a number at position {self.offset()}")
        return self.integer()

    exponent = natural


def parse(text: str, tag: str = "full", context=None):
    """Parse a term or (when it contains '=') a formula; validates the
    language tag."""
    return check_language(_Parser(text, context or {}).parse(), tag)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def eval_term(node, structure, assignment):
    """The value of a term, or the truth of a formula; the right operand
    of & and | is not evaluated once the left one decides."""
    field = structure["field"]
    D = structure.get("derivation")
    sigmas = structure.get("sigmas")
    last = None     # the value folded last

    def operands(g):
        yield g.left
        if last == isinstance(g, AndF):
            yield g.right

    def enter(u):
        if isinstance(u, (AndF, OrF)):
            return operands(u)
        if isinstance(u, DOp) and D is None:
            raise FormulaError("the structure carries no derivation")
        if isinstance(u, Sigma) and (sigmas is None
                                     or u.element not in sigmas):
            raise FormulaError(f"no automorphism named {u.element!r}")
        return _children(u)

    def leave(u, values):
        nonlocal last
        op = _ARITHMETIC.get(type(u))
        if op is not None:
            last = op(*values)
        elif isinstance(u, IntConst):
            last = field.from_int(u.value)
        elif isinstance(u, Const):
            if u.value.field != field:
                raise FieldError("constant from another field")
            last = u.value
        elif isinstance(u, Var):
            if u.name not in assignment:
                raise FormulaError(f"unassigned variable {u.name!r}")
            last = assignment[u.name]
        elif isinstance(u, DOp):
            from .differential import derive
            last = derive(values[0], D)
        elif isinstance(u, Lambda0):
            last = lambda0(values[0])
        elif isinstance(u, Lam):
            last = lambdafn.lambda_multi(u.index, u.arity, values[:-1],
                                         values[-1])
        elif isinstance(u, Sigma):
            last = sigmas[u.element](values[0])
        elif isinstance(u, Atom):
            last = values[0].is_zero()
        elif isinstance(u, NotF):
            last = not values[0]
        elif isinstance(u, (AndF, OrF)):
            last = values[-1]
        else:
            raise FormulaError("unknown term node")
        return last

    return _fold(node, leave, enter)


eval_formula = eval_term


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

    def enter(g):
        if isinstance(g, NotF) and not isinstance(g.sub, Atom):
            raise FormulaError("negation normal form violated")
        if isinstance(g, (Atom, NotF)):
            if not eval_formula(g, structure, env):
                raise FormulaError("the witness does not satisfy the "
                                   "chosen branch")
            return (g.term if isinstance(g, Atom) else g.sub.term,)
        if isinstance(g, OrF):
            for branch in (g.left, g.right):
                if eval_formula(branch, structure, env):
                    trace.append({"kind": "disjunct",
                                  "chosen": print_formula(branch)})
                    return (branch,)
            raise FormulaError("the witness satisfies no disjunct")
        if not isinstance(g, (AndF, Lam, Add, Sub, Mul)) and _children(g):
            raise FormulaError(
                f"{type(g).__name__} is outside the lambda language")
        return _children(g)

    def leave(g, values):
        if isinstance(g, (Add, Sub, Mul)):
            return type(g)(*values)
        if isinstance(g, Lam):
            return solve(g, values[:-1], values[-1])
        if isinstance(g, Atom):
            conditions.append(values[0])
        elif isinstance(g, NotF):
            t = values[0]
            counter["inv"] += 1
            aux = f"inv{counter['inv']}"
            env[aux] = field.one() / value_of(t)
            names.append(aux)
            conditions.append(Sub(Mul(t, Var(aux)), IntConst(1)))
            trace.append({"kind": "negation", "aux": aux})
        elif not isinstance(g, (AndF, OrF)):
            return g

    def solve(t, basis, arg):
        sol = lambdafn.lambda_solve(t.arity, [value_of(b) for b in basis],
                                    value_of(arg))
        if sol is None:
            trace.append({"kind": "lam", "case": "degenerate",
                          "index": t.index, "arity": t.arity})
            return IntConst(0)
        counter["lam"] += 1
        fresh = [f"lm{counter['lam']}_{j+1}" for j in range(len(sol))]
        for nm, v in zip(fresh, sol):
            env[nm] = v
            names.append(nm)
        # defining relation: c = sum_j lam_j^p m_j(basis)
        acc = None
        for j, exps in enumerate(
                lambdafn.monomial_exponents(field.p, t.arity)):
            piece = Var(fresh[j]) ** field.p
            for b, i in zip(basis, exps):
                for _ in range(i):
                    piece = Mul(piece, b)
            acc = piece if acc is None else Add(acc, piece)
        conditions.append(Sub(arg, acc))
        trace.append({"kind": "lam", "case": "solved",
                      "index": t.index, "arity": t.arity,
                      "fresh": fresh})
        return Var(fresh[t.index - 1])

    _fold(phi, leave, enter)
    # every condition must vanish at the extended witness
    for c in conditions:
        if not eval_term(c, structure, env).is_zero():
            raise FormulaError("unravelled condition fails at the witness")
    return UnravelResult(names, env, conditions, trace)


# ---------------------------------------------------------------------------
# the lambda0/D correction rewriter
# ---------------------------------------------------------------------------

def _simplified(t, values):
    """t over its already simplified children `values`, with the local
    arithmetic cleanups at t itself."""
    if isinstance(t, Add):
        a, b = values
        if a.is_zero():
            return b
        return a if b.is_zero() else Add(a, b)
    if isinstance(t, Sub):
        a, b = values
        return a if b.is_zero() else Sub(a, b)
    if isinstance(t, Mul):
        a, b = values
        if a.is_zero() or b.is_zero():
            return IntConst(0)
        if _is_one_term(a):
            return b
        return a if _is_one_term(b) else Mul(a, b)
    if isinstance(t, DOp):
        a, = values
        if isinstance(a, IntConst) or (
                isinstance(a, Const) and a.value.field.kind == "gf"):
            return IntConst(0)
        return DOp(a)
    if isinstance(t, Lambda0):
        return Lambda0(*values)
    if isinstance(t, Lam):
        return Lam(t.index, t.arity, tuple(values[:-1]), values[-1])
    if isinstance(t, Sigma):
        return Sigma(t.element, *values)
    return t


def simplify_term(t: Term) -> Term:
    """Local arithmetic cleanups only; never merges D across sums."""
    return _fold(t, _simplified)


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
    phi = check_language(to_nnf(phi), "lambda0_D")
    if _fold(phi, lambda g, values: isinstance(g, NotF) or any(values),
             _connectives):
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
    state = {"occurrence": 0}
    nonzero_args = []

    def leave(t, values):
        if isinstance(t, Lambda0):
            return replace(values[0])
        if isinstance(t, (Atom, AndF, OrF)):
            return type(t)(*values)
        return _simplified(t, values)

    def replace(arg):
        """The term that takes the place of l0(arg)."""
        value = (eval_term(arg, structure, env)
                 if structure is not None and witness is not None
                 else None)
        if cases is None:
            case = ("zero" if value.is_zero() else
                    "power" if is_pth_power(value) else "nonpower")
        elif state["occurrence"] < len(cases):
            case = cases[state["occurrence"]]
        else:
            raise FormulaError("explicit case assignment too short")
        state["occurrence"] += 1
        entry = {"occurrence": state["occurrence"],
                 "argument": print_term(arg)}
        if case == "power":
            y = f"y{len(fresh) + 1}"
            fresh.append(y)
            if structure is None:
                raise FormulaError(
                    "explicit-case rewriting needs a structure to fix "
                    "the characteristic; pass structure= as well")
            defining.append(Atom(Sub(Var(y) ** structure["field"].p, arg)))
            nonzero_args.append((arg, y))
            if value is not None:
                env[y] = pth_root(value)
            trace.append({**entry, "case": "nonzero p-th power",
                          "fresh": y})
            return Var(y)
        if case == "zero":
            trace.append({**entry, "case": "argument is zero",
                          "note": "no fixed term recorded; the "
                                  "bookkeeping for identically-zero "
                                  "arguments is flagged, not decided"})
            return IntConst(0)
        if case == "nonpower":
            fixed_terms.append(arg)
            trace.append({**entry, "case": "nonzero non-p-th power",
                          "fixed_term": entry["argument"]})
            return IntConst(0)
        raise FormulaError(f"unknown case label {case!r}")

    out = _fold(phi, leave)
    for d in reversed(defining):
        out = AndF(d, out)
    _check_assignment_consistency(out, nonzero_args, fixed_terms)
    extended = env if witness else None
    return CorrectionResult(out, fixed_terms, trace, fresh, extended)


def _check_assignment_consistency(formula, nonzero_args, fixed_terms):
    """An argument assigned a nonzero case cannot be forced to vanish by
    the rewritten formula (the inconsistent-branch detector)."""
    atom_set = set()

    def leave(g, values):
        if isinstance(g, Atom):
            atom_set.add(print_term(g.term))
    _fold(formula, leave,
          lambda g: _children(g) if isinstance(g, AndF) else ())
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
