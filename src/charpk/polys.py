"""Sparse multivariate polynomials over a FieldDescriptor, ideals, Groebner
bases (Buchberger with the product/chain criteria), elimination and
dimension.

Default order is graded reverse lexicographic; elimination uses block
orders.  Bases are reduced, monic and deterministically sorted, so identical
inputs give identical bases.  Hard caps on basis size and degree raise
ResourceExhausted rather than returning a wrong answer.
"""

from __future__ import annotations

import itertools

from .errors import RingError, ResourceExhausted
from .fields import FieldDescriptor, FieldScalar, parse_scalar

MAX_BASIS = 400
MAX_DEGREE = 120


# ---------------------------------------------------------------------------
# monomial orders (key functions: larger key = larger monomial)
# ---------------------------------------------------------------------------

def _key_lex(exps):
    return tuple(exps)


def _key_grlex(exps):
    return (sum(exps), tuple(exps))


def _key_grevlex(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def order_key(order):
    if order == "lex":
        return _key_lex
    if order == "grlex":
        return _key_grlex
    if order == "grevlex":
        return _key_grevlex
    if isinstance(order, tuple) and order[0] == "elim":
        nb = order[1]

        def key(exps):
            return (_key_grevlex(exps[:nb]), _key_grevlex(exps[nb:]))
        return key
    raise RingError(f"unknown monomial order {order!r}")


class PolyRing:
    """K[x1..xn] with a fixed variable list."""

    __slots__ = ("field", "vars", "_var_index")

    def __init__(self, field: FieldDescriptor, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise RingError("duplicate ring variables")
        self.field = field
        self.vars = variables
        self._var_index = {v: i for i, v in enumerate(variables)}

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.field == other.field and self.vars == other.vars)

    def __hash__(self):
        return hash((self.field, self.vars))

    def __repr__(self):
        return f"PolyRing({self.field.spec}; {', '.join(self.vars)})"

    @property
    def nvars(self):
        return len(self.vars)

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return self.from_scalar(self.field.one())

    def from_scalar(self, c: FieldScalar):
        if c.is_zero():
            return self.zero()
        return MultiPoly(self, {(0,) * self.nvars: c})

    def from_int(self, n: int):
        return self.from_scalar(self.field.from_int(n))

    def var(self, name: str):
        e = [0] * self.nvars
        e[self._var_index[name]] = 1
        return MultiPoly(self, {tuple(e): self.field.one()})

    def gens(self):
        return tuple(self.var(v) for v in self.vars)

    def parse(self, text: str):
        if not isinstance(text, str):
            raise RingError(f"a polynomial must be given as text, not {text!r}")
        return _PolyParser(text, self).parse()


class MultiPoly:
    """Sparse polynomial: map exponent tuple -> nonzero FieldScalar."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    # -- basics ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        z = (0,) * self.ring.nvars
        return self.terms.get(z, self.ring.field.zero())

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str):
        i = self.ring._var_index[name]
        return max((e[i] for e in self.terms), default=0)

    def variables_used(self):
        used = set()
        for e in self.terms:
            for v, d in zip(self.ring.vars, e):
                if d:
                    used.add(v)
        return used

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero())

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(
            (e, c.rep if c.field.kind == "gf" else (c.rep.numer, c.rep.denom))
            for e, c in self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise RingError("mixed-ring arithmetic")
            return other
        if isinstance(other, FieldScalar):
            return self.ring.from_scalar(other)
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        zero = self.ring.field.zero()
        for e, c in other.terms.items():
            terms[e] = terms.get(e, zero) + c
        return MultiPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        zero = self.ring.field.zero()
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, zero) + c1 * c2
        return MultiPoly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise RingError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c: FieldScalar):
        return MultiPoly(self.ring, {e: c * v for e, v in self.terms.items()})

    # -- structure ---------------------------------------------------------

    def leading(self, order="grevlex"):
        """(exponents, coefficient) of the leading term."""
        if self.is_zero():
            raise RingError("leading term of zero")
        key = order_key(order)
        e = max(self.terms, key=key)
        return e, self.terms[e]

    def monic(self, order="grevlex"):
        if self.is_zero():
            return self
        _, lc = self.leading(order)
        return self.scale(lc.inverse())

    def partial(self, name: str):
        """Formal partial derivative with respect to a ring variable."""
        i = self.ring._var_index[name]
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                coef = c * self.ring.field.from_int(e[i])
                if not coef.is_zero():
                    terms[tuple(ne)] = terms.get(tuple(ne),
                                                 self.ring.field.zero()) + coef
        return MultiPoly(self.ring, terms)

    def map_coeffs(self, fn):
        """Apply fn to every coefficient (e.g. a derivation on K)."""
        return MultiPoly(self.ring, {e: fn(c) for e, c in self.terms.items()})

    def evaluate(self, values, lift=None):
        """Evaluate at values: dict var-name -> element of a target algebra
        supporting + and * with lifted coefficients.  lift embeds K into the
        target (identity by default)."""
        lift = lift or (lambda c: c)
        vals = [values[v] for v in self.ring.vars]
        acc = None
        for e, c in self.terms.items():
            term = lift(c)
            for val, d in zip(vals, e):
                if d:
                    term = term * _gen_pow(val, d)
            acc = term if acc is None else acc + term
        if acc is None:
            acc = lift(self.ring.field.zero())
        return acc

    def substitute(self, mapping):
        """Substitute polynomials for variables (missing vars map to
        themselves); mapping: var name -> MultiPoly of the target ring."""
        target = None
        for v in mapping.values():
            target = v.ring
            break
        target = target or self.ring
        full = {v: mapping.get(v, target.var(v)) for v in self.ring.vars}
        return self.evaluate(full, lift=target.from_scalar)

    def rename(self, target: PolyRing, var_map=None):
        """Move to another ring by variable name (var_map renames first)."""
        var_map = var_map or {}
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * target.nvars
            for v, d in zip(self.ring.vars, e):
                if d:
                    name = var_map.get(v, v)
                    if name not in target._var_index:
                        raise RingError(f"variable {name} not in target ring")
                    ne[target._var_index[name]] += d
            key = tuple(ne)
            terms[key] = terms.get(key, target.field.zero()) + c
        return MultiPoly(target, terms)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.terms, key=_key_grevlex, reverse=True):
            c = self.terms[e]
            factors = []
            for v, d in zip(self.ring.vars, e):
                if d == 1:
                    factors.append(v)
                elif d > 1:
                    factors.append(f"{v}^{d}")
            cs = str(c)
            needs_parens = ("+" in cs or "/" in cs
                            or ("-" in cs[1:]) or ("*" in cs))
            if not factors:
                parts.append(f"({cs})" if needs_parens else cs)
            elif c.is_one():
                parts.append("*".join(factors))
            else:
                head = f"({cs})" if needs_parens else cs
                parts.append(head + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def _gen_pow(val, n):
    result = None
    base = val
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


# ---------------------------------------------------------------------------
# parser for the polynomial DSL
# ---------------------------------------------------------------------------

class _PolyParser:
    """`3*x^2*y + t*x - 1` with ring variables and base-field literals."""

    def __init__(self, text, ring):
        self.text = text
        self.pos = 0
        self.ring = ring

    def parse(self):
        v = self.expr()
        self.skip()
        if self.pos != len(self.text):
            raise RingError(f"trailing input in polynomial {self.text!r}")
        return v

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        v = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                v = v + self.term()
            elif ch == "-":
                self.pos += 1
                v = v - self.term()
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                v = v * self.factor()
            elif ch == "/":
                self.pos += 1
                d = self.factor()
                if d.is_zero():
                    raise RingError(f"division by zero in {self.text!r}")
                if not d.is_constant():
                    raise RingError("division only by base-field constants")
                v = v.scale(d.constant_value().inverse())
            else:
                return v

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        v = self.atom()
        while self.peek() == "^":
            self.pos += 1
            self.skip()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise RingError("expected integer exponent")
            v = v ** int(self.text[start:self.pos])
        return v

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            v = self.expr()
            if self.peek() != ")":
                raise RingError(f"unbalanced parentheses in {self.text!r}")
            self.pos += 1
            return v
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return self.ring.from_int(int(self.text[start:self.pos]))
        if ch.isalpha() or ch == "_":
            start = self.pos
            while (self.pos < len(self.text)
                   and (self.text[self.pos].isalnum()
                        or self.text[self.pos] == "_")):
                self.pos += 1
            name = self.text[start:self.pos]
            if name in self.ring._var_index:
                return self.ring.var(name)
            return self.ring.from_scalar(parse_scalar(name, self.ring.field))
        raise RingError(f"unexpected character {ch!r} in polynomial")


# ---------------------------------------------------------------------------
# division and Buchberger
# ---------------------------------------------------------------------------

def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f: MultiPoly, basis, order="grevlex"):
    """Full reduction of f modulo a list of nonzero polynomials."""
    if not basis:
        return f
    key = order_key(order)
    lead = [(g.leading(order), g) for g in basis]
    ring = f.ring
    remainder = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        if c.is_zero():
            continue
        hit = None
        for (le, lc), g in lead:
            if _divides(le, e):
                hit = (le, lc, g)
                break
        if hit is None:
            remainder[e] = remainder.get(e, ring.field.zero()) + c
            continue
        le, lc, g = hit
        factor = c / lc
        shift = _exp_sub(e, le)
        for ge, gc in g.terms.items():
            ne = tuple(a + b for a, b in zip(ge, shift))
            if ne == e:
                continue
            cur = work.get(ne, ring.field.zero()) - factor * gc
            if cur.is_zero():
                work.pop(ne, None)
            else:
                work[ne] = cur
    return MultiPoly(ring, remainder)


def _s_poly(f, g, order):
    (fe, fc) = f.leading(order)
    (ge, gc) = g.leading(order)
    lcm = _exp_lcm(fe, ge)
    mf = MultiPoly(f.ring, {_exp_sub(lcm, fe): fc.inverse()})
    mg = MultiPoly(g.ring, {_exp_sub(lcm, ge): gc.inverse()})
    return mf * f - mg * g


def buchberger(gens, order="grevlex",
               max_basis=MAX_BASIS, max_degree=MAX_DEGREE):
    """Reduced Groebner basis of the given generators."""
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    key = order_key(order)
    basis = [g.monic(order) for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    def lcm_of(i, j):
        return _exp_lcm(basis[i].leading(order)[0], basis[j].leading(order)[0])

    while pairs:
        i, j = min(pairs, key=lambda ij: (key(lcm_of(*ij)), ij))
        pairs.discard((i, j))
        le_i = basis[i].leading(order)[0]
        le_j = basis[j].leading(order)[0]
        lcm = _exp_lcm(le_i, le_j)
        # product criterion
        if lcm == tuple(a + b for a, b in zip(le_i, le_j)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (_divides(basis[k].leading(order)[0], lcm)
                    and (max(i, k), min(i, k)) not in pairs
                    and (max(j, k), min(j, k)) not in pairs):
                skip = True
                break
        if skip:
            continue
        s = normal_form(_s_poly(basis[i], basis[j], order), basis, order)
        if s.is_zero():
            continue
        if s.total_degree() > max_degree:
            raise ResourceExhausted(
                f"degree cap {max_degree} exceeded during Buchberger")
        s = s.monic(order)
        basis.append(s)
        if len(basis) > max_basis:
            raise ResourceExhausted(
                f"basis size cap {max_basis} exceeded during Buchberger")
        new = len(basis) - 1
        pairs.update((new, k) for k in range(new))
    return _interreduce(basis, order)


def _interreduce(basis, order):
    # drop polynomials whose leading monomial is divisible by another's
    basis = [g for g in basis if not g.is_zero()]
    keep = []
    leads = [g.leading(order)[0] for g in basis]
    for idx, g in enumerate(basis):
        le = leads[idx]
        dominated = False
        for jdx, other in enumerate(basis):
            if jdx == idx:
                continue
            lo = leads[jdx]
            if _divides(lo, le) and (lo != le or jdx < idx):
                dominated = True
                break
        if not dominated:
            keep.append(g)
    # fully reduce each against the others
    key = order_key(order)
    reduced = []
    for idx, g in enumerate(keep):
        others = keep[:idx] + keep[idx + 1:]
        r = normal_form(g, others, order) if others else g
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: key(g.leading(order)[0]))
    return reduced


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

class Ideal:
    """Finitely generated ideal with a per-order Groebner cache."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise RingError("generator outside the ambient ring")
        self.ring = ring
        self.gens = gens
        self._gb = {}

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens) or '0'})"

    def groebner(self, order="grevlex"):
        if order not in self._gb:
            self._gb[order] = tuple(buchberger(self.gens, order))
        return self._gb[order]

    def contains(self, f: MultiPoly) -> bool:
        if f.ring != self.ring:
            raise RingError("membership test across rings")
        if f.is_zero():
            return True
        gb = self.groebner()
        if not gb:
            return False
        return normal_form(f, list(gb), "grevlex").is_zero()

    def is_trivial(self) -> bool:
        gb = self.groebner()
        return bool(gb) and gb[0].is_constant() and not gb[0].is_zero()

    def eliminate(self, drop):
        """I intersected with K[remaining variables], as an Ideal there."""
        drop = [v for v in self.ring.vars if v in set(drop)]
        keep = [v for v in self.ring.vars if v not in set(drop)]
        work_ring = PolyRing(self.ring.field, tuple(drop) + tuple(keep))
        order = ("elim", len(drop))
        gens = [g.rename(work_ring) for g in self.gens]
        gb = buchberger(gens, order)
        out_ring = PolyRing(self.ring.field, tuple(keep))
        kept = []
        for g in gb:
            if g.variables_used() <= set(keep):
                kept.append(g.rename(out_ring))
        return Ideal(out_ring, kept)

    def dimension(self):
        """Krull dimension of V(I) over the algebraic closure, or "empty"."""
        if self.is_trivial():
            return "empty"
        gb = self.groebner()
        if not gb:
            return self.ring.nvars
        leads = [g.leading("grevlex")[0] for g in gb]
        n = self.ring.nvars
        for size in range(n, -1, -1):
            for subset in itertools.combinations(range(n), size):
                sset = set(subset)
                ok = True
                for le in leads:
                    support = {i for i, d in enumerate(le) if d}
                    if support <= sset:
                        ok = False
                        break
                if ok:
                    return size
        return 0


# module-level functional wrappers ------------------------------------------

def groebner_basis(ideal: Ideal, order="grevlex"):
    return ideal.groebner(order)


def ideal_member(f: MultiPoly, ideal: Ideal) -> bool:
    return ideal.contains(f)


def eliminate(ideal: Ideal, drop) -> Ideal:
    return ideal.eliminate(drop)


def ideal_dimension(ideal: Ideal):
    return ideal.dimension()
