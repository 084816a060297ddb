"""Sparse multivariate polynomials over a FieldDescriptor, ideals, Groebner
bases (Buchberger with the product/chain criteria), elimination and
dimension.

`MultiPoly.terms` holds raw coefficients, the values of the field's
kernel (int codes for GF(p^k), reduced pairs of polynomials over GF(p)
for F_p(t..)), and the arithmetic calls the kernel on them; FieldScalars
are built only at the boundary (the constructor, `items`, `coeff`,
`leading`, `constant_value`, printing).

F_p(t..) itself runs on this module: its kernel, `_RatFuncKernel`,
keeps values with denominator 1 as polynomials and reduces every other
result with `mp_gcd`, the one multivariate gcd (Euclid on dense lists,
`fields.u_gcd`, when both arguments use one and the same variable;
otherwise the primitive PRS after two content rules), and
`mp_exact_div`.  Polynomials over F_p(t..) cross to GF(p)[t.., x..] and
back with `join_coeffs` and `split_coeffs`, one reduction per
coefficient; text over F_p(t..) is read on that side.

Default order is graded reverse lexicographic; elimination uses block
orders.  Bases are reduced, monic and deterministically sorted, so identical
inputs give identical bases.  Hard caps on basis size and degree raise
ResourceExhausted rather than returning a wrong answer.
"""

from __future__ import annotations

import heapq
import itertools
from operator import add as _eadd, neg as _neg

from .errors import CharpkError, FieldError, RingError, ResourceExhausted
from .fields import (FieldDescriptor, FieldScalar, _Parser, _scalar, u_gcd,
                     u_trim)

MAX_BASIS = 400
MAX_DEGREE = 120
MAX_POINT_CANDIDATES = 10 ** 6   # tuples variety.enumerate_points may test
MAX_AUDIT_CHOICES = 10 ** 4      # substitutions axioms._scf_audit may try
MAX_INVARIANT_ELEMENTS = 10 ** 5  # elements of K^G the G-B-DCF search lists
MAX_TERM_NODES = 10 ** 5         # term nodes formula powers may add
MAX_RECOMBINATION_SUBSETS = 2 ** 12  # subsets factor._recombine may try


# ---------------------------------------------------------------------------
# monomial orders (key functions: larger key = larger monomial)
# ---------------------------------------------------------------------------

def _key_grevlex(exps):
    return (sum(exps), tuple(map(_neg, reversed(exps))))


def order_key(order):
    if order == "lex":
        return tuple
    if order == "grlex":
        return lambda exps: (sum(exps), tuple(exps))
    if order == "grevlex":
        return _key_grevlex
    if isinstance(order, tuple) and order[0] == "elim":
        nb = order[1]

        def key(exps):
            return (_key_grevlex(exps[:nb]), _key_grevlex(exps[nb:]))
        return key
    raise RingError(f"unknown monomial order {order!r}")


def _rev_grevlex(exps):
    return (-sum(exps), exps[::-1])


def _reverse_key(order):
    """A key whose ascending order is the descending monomial order, for
    the min-heap of `_reduce`."""
    if order == "lex":
        return lambda exps: tuple(map(_neg, exps))
    if order == "grlex":
        return lambda exps: (-sum(exps), tuple(map(_neg, exps)))
    if order == "grevlex":
        return _rev_grevlex
    if isinstance(order, tuple) and order[0] == "elim":
        nb = order[1]

        def key(exps):
            return (_rev_grevlex(exps[:nb]), _rev_grevlex(exps[nb:]))
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
        return self is other or (isinstance(other, PolyRing)
                                 and self.field == other.field
                                 and self.vars == other.vars)

    def __hash__(self):
        return hash((self.field, self.vars))

    def __repr__(self):
        return f"PolyRing({self.field.spec}; {', '.join(self.vars)})"

    @property
    def nvars(self):
        return len(self.vars)

    def zero(self):
        return _mp(self, {})

    def one(self):
        return _mp(self, {(0,) * self.nvars: self.field._kernel.one})

    def _own(self, field):
        """Raw values of `field` are read as this ring's: refuse others."""
        if field is not self.field and field != self.field:
            raise RingError(f"coefficients outside {self.field.spec}")

    def from_scalar(self, c: FieldScalar):
        self._own(c.field)
        if c.is_zero():
            return self.zero()
        return _mp(self, {(0,) * self.nvars: c.value})

    def from_int(self, n: int):
        return self.from_scalar(self.field.from_int(n))

    def var(self, name: str):
        e = [0] * self.nvars
        e[self._var_index[name]] = 1
        return _mp(self, {tuple(e): self.field._kernel.one})

    def from_raw(self, terms):
        """The polynomial with raw coefficients {exponents: value}, zero
        values dropped."""
        return _mp(self, {e: c for e, c in terms.items() if c})

    def parse(self, text: str):
        if not isinstance(text, str):
            raise RingError(f"a polynomial must be given as text, not {text!r}")
        if self.field.kind == "ratfunc":
            return _FracParser(text, self).parse()
        return _PolyParser(text, self).parse()


class MultiPoly:
    """Sparse polynomial: `terms` maps exponent tuples to nonzero raw
    coefficients, the values the field's kernel computes on (int codes for
    GF(p^k), reduced pairs for F_p(t..)).  Scalars appear only at the
    boundary: the constructor takes {exponents: FieldScalar}, and `items`,
    `coeff`, `leading` and `constant_value` return FieldScalars."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        for c in terms.values():
            ring._own(c.field)
        self.ring = ring
        self.terms = {e: c.value for e, c in terms.items() if c.value}

    # -- basics ------------------------------------------------------------

    def items(self):
        """(exponents, FieldScalar) for every term."""
        field = self.ring.field
        return [(e, _scalar(field, c)) for e, c in self.terms.items()]

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        terms = self.terms
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

    def constant_value(self):
        return self.coeff((0,) * self.ring.nvars)

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

    def coeffs_in(self, name: str):
        """{d: coefficient of name^d}, each a MultiPoly without name."""
        i = self.ring._var_index[name]
        out = {}
        for e, c in self.terms.items():
            out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
        return {d: _mp(self.ring, t) for d, t in out.items()}

    def coeff(self, exps):
        field = self.ring.field
        return _scalar(field, self.terms.get(tuple(exps), field._kernel.zero))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return ((self.ring is other.ring or self.ring == other.ring)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
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
        return _mp(self.ring, _add_terms(self.terms, other.terms,
                                         self.ring.field.kernel.add))

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.kernel.neg
        return _mp(self.ring, {e: neg(c) for e, c in self.terms.items()})

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
        return _mp(self.ring, _mul_terms(self.terms, other.terms,
                                         self.ring.field.kernel))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise RingError("negative polynomial power")
        if n and len(self.terms) == 1:
            # a monomial: (c m)^n = c^n m^n, no products
            ((e, c),) = self.terms.items()
            return _mp(self.ring, {tuple(n * x for x in e):
                                   self.ring.field.kernel.pow(c, n)})
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: FieldScalar):
        return self._scale(c.value)

    def _scale(self, c):
        """Multiply by the raw scalar c."""
        if not c:
            return self.ring.zero()
        mul = self.ring.field.kernel.mul
        return _mp(self.ring, {e: mul(c, v) for e, v in self.terms.items()})

    # -- structure ---------------------------------------------------------

    def _lead(self, order="grevlex"):
        """(exponents, raw coefficient) of the leading term."""
        if not self.terms:
            raise RingError("leading term of zero")
        e = max(self.terms, key=order_key(order))
        return e, self.terms[e]

    def leading(self, order="grevlex"):
        """(exponents, coefficient) of the leading term."""
        e, c = self._lead(order)
        return e, _scalar(self.ring.field, c)

    def monic(self, order="grevlex"):
        if self.is_zero():
            return self
        return self._scale(self.ring.field.kernel.inv(self._lead(order)[1]))

    def partial(self, name: str):
        """Formal partial derivative with respect to a ring variable."""
        i = self.ring._var_index[name]
        K = self.ring.field.kernel
        terms = {}
        for e, c in self.terms.items():
            d = e[i]
            coef = K.mul(c, K.from_int(d)) if d else None
            if coef:
                # distinct exponents stay distinct after the shift
                terms[e[:i] + (d - 1,) + e[i + 1:]] = coef
        return _mp(self.ring, terms)

    def map_coeffs(self, fn):
        """Apply fn to every coefficient (e.g. a derivation on K)."""
        return MultiPoly(self.ring, {e: fn(c) for e, c in self.items()})

    def evaluate(self, values, lift=None):
        """Evaluate at values: dict var-name -> element of a target algebra
        supporting + and * with lifted coefficients.  lift embeds K into the
        target; without it the values are scalars of K, or elements of an
        algebra that takes K's scalars as they are."""
        field = self.ring.field
        vals = [values[v] for v in self.ring.vars]
        if lift is None and all(x.__class__ is FieldScalar and x.field == field
                                for x in vals):
            K = field.kernel
            add, mul, pw = K.add, K.mul, K.pow
            raw = [x.value for x in vals]
            acc = K.zero
            for e, c in self.terms.items():
                for x, d in zip(raw, e):
                    if d:
                        c = mul(c, pw(x, d))
                acc = add(acc, c)
            return _scalar(field, acc)
        lift = lift or (lambda c: c)
        acc = None
        for e, c in self.items():
            term = lift(c)
            for val, d in zip(vals, e):
                if d:
                    term = term * _gen_pow(val, d)
            acc = term if acc is None else acc + term
        if acc is None:
            acc = lift(field.zero())
        return acc

    def substitute(self, mapping):
        """Substitute polynomials for variables (missing vars map to
        themselves); mapping: var name -> MultiPoly of the target ring."""
        target = next(iter(mapping.values())).ring if mapping else self.ring
        target._own(self.ring.field)
        images = [mapping.get(v) or target.var(v) for v in self.ring.vars]
        powers = [[target.one(), g] for g in images]
        K = target.field.kernel
        acc = {}
        for e, c in self.terms.items():
            term = {(0,) * target.nvars: c}
            for pw, d in zip(powers, e):
                if d:
                    while len(pw) <= d:
                        pw.append(pw[-1] * pw[1])
                    term = _mul_terms(term, pw[d].terms, K)
            acc = _add_terms(acc, term, K.add)
        return _mp(target, acc)

    def rename(self, target: PolyRing, var_map=None):
        """Move to another ring by variable name (var_map renames first)."""
        var_map = var_map or {}
        target._own(self.ring.field)
        add = target.field.kernel.add
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
            terms[key] = add(terms[key], c) if key in terms else c
        return _mp(target, {e: c for e, c in terms.items() if c})

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        field = self.ring.field
        for e in sorted(self.terms, key=_key_grevlex, reverse=True):
            c = _scalar(field, self.terms[e])
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


_new_poly = object.__new__


def _mp(ring, terms):
    """The polynomial with the given raw terms, trusted to hold no zero
    coefficient (no filtering)."""
    f = _new_poly(MultiPoly)
    f.ring = ring
    f.terms = terms
    return f


def _add_terms(a, b, add):
    """Sum of two raw term dicts."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for e, c in b.items():
        old = out.get(e)
        if old is None:
            out[e] = c
        else:
            c = add(old, c)
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def _mul_terms(a, b, K):
    """Product of two raw term dicts."""
    add, mul = K.add, K.mul
    # by a monomial: exponents stay distinct and products nonzero
    if len(b) == 1:
        ((e2, c2),) = b.items()
        if any(e2):
            return {tuple(map(_eadd, e1, e2)): mul(c1, c2)
                    for e1, c1 in a.items()}
        return {e1: mul(c1, c2) for e1, c1 in a.items()}
    if len(a) == 1:
        ((e1, c1),) = a.items()
        return {tuple(map(_eadd, e1, e2)): mul(c1, c2)
                for e2, c2 in b.items()}
    out = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(_eadd, e1, e2))
            old = get(e)
            c = mul(c1, c2)
            out[e] = c if old is None else add(old, c)
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# parser for the polynomial DSL
# ---------------------------------------------------------------------------

class _PolyParser(_Parser):
    """`3*x^2*y + t*x - 1` with ring variables and base-field literals.
    A value is a monomial [c, e_1, .., e_n] (raw coefficient, exponents)
    or a raw term dict, and is fresh, so the hooks change it in place: a
    sum adds each term into one dict, a product or power of monomials is
    a monomial, and only a factor of two or more terms takes
    `_mul_terms` or `MultiPoly.__pow__`."""

    what, error = "polynomial", RingError
    chained_powers = True

    def __init__(self, text, ring):
        super().__init__(text, ring)
        self.ring, self.K = ring, ring.field.kernel
        self.zeros = [0] * ring.nvars

    def parse(self):
        return _mp(self.ring, self._terms(super().parse()))

    def _terms(self, v):
        if v.__class__ is dict:
            return v
        return {tuple(v[1:]): v[0]} if v[0] else {}

    def _mono(self, v):
        """The term dict v as a monomial, or None for two or more terms."""
        for e, c in v.items():
            return [c, *e] if len(v) == 1 else None
        return self.number(0)

    def is_zero(self, v):
        return not (v[0] if v.__class__ is list else v)

    def number(self, n):
        return [self.K.from_int(n)] + self.zeros

    def symbol(self, name):
        i = self.ring._var_index.get(name)
        if i is not None:
            v = [self.K.one] + self.zeros
            v[i + 1] = 1
            return v
        field = self.target.field
        if name != field.gen_name:
            kind = "generator" if field.kind == "gf" else "transcendental"
            raise FieldError(f"unknown {kind} {name!r}")
        return [field.generator().value] + self.zeros

    def add(self, a, b):
        acc, add = self._terms(a), self.K.add
        for e, c in (((tuple(b[1:]), b[0]),) if b.__class__ is list
                     else b.items()):
            old = acc.get(e)
            c = c if old is None else add(old, c)
            if c:
                acc[e] = c
            elif old is not None:
                del acc[e]
        return acc

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, v):
        return self.mul(v, self.number(-1))

    def mul(self, a, b):
        m = a if a.__class__ is list else self._mono(a)
        n = b if b.__class__ is list else self._mono(b)
        if m is None or n is None:
            return _mul_terms(self._terms(a), self._terms(b), self.K)
        m[0] = self.K.mul(m[0], n[0])
        for i in range(1, len(m)):
            m[i] += n[i]
        return m

    def power(self, v, n):
        m = v if v.__class__ is list else self._mono(v)
        if m is None:
            return (_mp(self.ring, v) ** n).terms
        m[0] = self.K.pow(m[0], n)
        for i in range(1, len(m)):
            m[i] *= n
        return m

    def divide(self, v, d):
        d = d if d.__class__ is list else self._mono(d)
        if d is None or any(d[1:]):
            raise RingError("division only by base-field constants")
        return self.mul(v, [self.K.inv(d[0])] + self.zeros)

    def exponent(self):
        return self.integer(message="expected integer exponent")


class _FracParser(_PolyParser):
    """The polynomial DSL over F_p(t..), read by `_PolyParser` in
    GF(p)[t.., x..]; `/` (only by a value free of ring variables) makes
    a pair (N, d) of MultiPolys there.  Pairs take no gcds, a sum keeps
    the denominator that the other divides, and one `split_coeffs` at
    the end reduces each coefficient once."""

    def __init__(self, text, ring):
        super().__init__(text, joined_ring(ring))
        self.target, self.one = ring, self.ring.one()

    def parse(self):
        return split_coeffs(*self._pair(_Parser.parse(self)), self.target)

    def _pair(self, v):
        if v.__class__ is tuple:
            return v
        return _mp(self.ring, self._terms(v)), self.one

    def is_zero(self, v):
        return not v[0].terms if v.__class__ is tuple else super().is_zero(v)

    def add(self, a, b):
        if a.__class__ is not tuple and b.__class__ is not tuple:
            return super().add(a, b)
        (an, ad), (bn, bd) = self._pair(a), self._pair(b)
        if ad == bd:
            return an + bn, ad
        q, r = mp_divmod_single(bd, ad)
        if not r.terms:
            return an * q + bn, bd
        q, r = mp_divmod_single(ad, bd)
        if not r.terms:
            return an + bn * q, ad
        return an * bd + bn * ad, ad * bd

    def mul(self, a, b):
        if a.__class__ is not tuple and b.__class__ is not tuple:
            return super().mul(a, b)
        (an, ad), (bn, bd) = self._pair(a), self._pair(b)
        return an * bn, ad * bd

    def power(self, v, n):
        if v.__class__ is not tuple:
            return super().power(v, n)
        return v[0] ** n, v[1] ** n

    def divide(self, v, d):
        (vn, vd), (dn, dd) = self._pair(v), self._pair(d)
        m = len(self.target.field.tvars)
        if any(any(e[m:]) for e in dn.terms):
            raise RingError("division only by base-field constants")
        return vn * dd, vd * dn


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
    return _mp(f.ring, _reduce(f, basis, order))


def _reduce(f, basis, order, quotient=None):
    """Raw remainder of f by the nonzero polynomials in basis: the largest
    term left is divided by the first leading term that divides it, or
    else moved to the remainder.  For basis [g], the quotient's terms go
    into the dict `quotient` when one is given.

    The terms left are popped from a heap of reversed order keys; an
    entry whose term has cancelled since it was pushed is skipped."""
    rkey = _reverse_key(order)
    K = f.ring.field.kernel
    mul, sub, neg = K.mul, K.sub, K.neg
    divisors = []
    for g in basis:
        le, lc = g._lead(order)
        divisors.append((le, K.inv(lc),
                         [(ge, gc) for ge, gc in g.terms.items() if ge != le]))
    remainder = {}
    work = dict(f.terms)
    heap = [(rkey(e), e) for e in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        e = pop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue
        for le, ilc, tail in divisors:
            if _divides(le, e):
                break
        else:
            # later terms are smaller, so e never comes back
            remainder[e] = c
            continue
        factor = mul(c, ilc)
        shift = _exp_sub(e, le)
        if quotient is not None:
            quotient[shift] = factor
        for ge, gc in tail:
            ne = tuple(map(_eadd, ge, shift))
            cur = work.get(ne)
            if cur is None:
                work[ne] = neg(mul(factor, gc))
                push(heap, (rkey(ne), ne))
                continue
            cur = sub(cur, mul(factor, gc))
            if cur:
                work[ne] = cur
            else:
                del work[ne]
    return remainder


def _s_poly(f, g, order):
    K = f.ring.field.kernel
    (fe, fc), (ge, gc) = f._lead(order), g._lead(order)
    lcm = _exp_lcm(fe, ge)
    mf = {_exp_sub(lcm, fe): K.inv(fc)}
    mg = {_exp_sub(lcm, ge): K.neg(K.inv(gc))}
    return _mp(f.ring, _add_terms(_mul_terms(mf, f.terms, K),
                                  _mul_terms(mg, g.terms, K), K.add))


def buchberger(gens, order="grevlex"):
    """Reduced Groebner basis of the given generators.  A basis element of
    total degree past `MAX_DEGREE`, or more than `MAX_BASIS` of them,
    raises ResourceExhausted."""
    basis = [g.monic(order) for g in gens if not g.is_zero()]
    if not basis:
        return []
    key = order_key(order)
    leads = [g._lead(order)[0] for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    while pairs:
        i, j = min(pairs, key=lambda ij: (key(_exp_lcm(leads[ij[0]],
                                                       leads[ij[1]])), ij))
        pairs.discard((i, j))
        le_i, le_j = leads[i], leads[j]
        lcm = _exp_lcm(le_i, le_j)
        # product criterion
        if lcm == tuple(map(_eadd, le_i, le_j)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (_divides(leads[k], lcm)
                    and (max(i, k), min(i, k)) not in pairs
                    and (max(j, k), min(j, k)) not in pairs):
                skip = True
                break
        if skip:
            continue
        s = normal_form(_s_poly(basis[i], basis[j], order), basis, order)
        if s.is_zero():
            continue
        if s.total_degree() > MAX_DEGREE:
            raise ResourceExhausted(
                f"degree cap {MAX_DEGREE} exceeded during Buchberger")
        s = s.monic(order)
        basis.append(s)
        leads.append(s._lead(order)[0])
        if len(basis) > MAX_BASIS:
            raise ResourceExhausted(
                f"basis size cap {MAX_BASIS} exceeded during Buchberger")
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
# multivariate gcd (primitive PRS) and exact division
# ---------------------------------------------------------------------------

def mp_divmod_single(f: MultiPoly, g: MultiPoly):
    """Division of f by a single nonzero g: f = q g + r, in grevlex."""
    quotient = {}
    remainder = _reduce(f, [g], "grevlex", quotient)
    return _mp(f.ring, quotient), _mp(f.ring, remainder)


def mp_exact_div(f: MultiPoly, g: MultiPoly):
    q, r = mp_divmod_single(f, g)
    if not r.is_zero():
        raise CharpkError("inexact polynomial division")
    return q


def _content(f: MultiPoly, var: str, g=None):
    """gcd of the coefficients of f viewed as univariate in var, and of g
    when one is given."""
    coeffs = list(f.coeffs_in(var).values())
    h = coeffs.pop() if g is None else g
    for c in coeffs:
        if h.is_constant():
            break
        h = mp_gcd(h, c)
    return h.monic("grevlex")


def _monomial_content(f: MultiPoly):
    """The exponents of the largest monomial dividing f."""
    return tuple(map(min, zip(*f.terms)))


def _prem(f: MultiPoly, g: MultiPoly, var: str, count=0):
    """Pseudo-remainder of f by g with respect to var, on the coefficients
    of f and g in var: r <- lc(g) r - lc(r) var^(deg r - deg g) g, once
    per step.  A count of at least deg f - deg g + 1 makes it the
    remainder of lc(g)^count f, so that remainders can share one power."""
    ring = f.ring
    K = ring.field.kernel
    gc = g.coeffs_in(var)
    dg = max(gc)
    lcg = gc[dg].terms
    r = {d: c.terms for d, c in f.coeffs_in(var).items()}
    neg_g = {d: {e: K.neg(c) for e, c in t.terms.items()}
             for d, t in gc.items() if d < dg}
    while r and max(r) >= dg:
        count -= 1
        dr = max(r)
        lcr = r.pop(dr)
        out = {d: _mul_terms(lcg, t, K) for d, t in r.items()}
        for d, t in neg_g.items():
            prod = _mul_terms(lcr, t, K)
            d += dr - dg
            s = _add_terms(out[d], prod, K.add) if d in out else prod
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        r = {d: t for d, t in out.items() if t}
    for _ in range(count):
        r = {d: _mul_terms(lcg, t, K) for d, t in r.items()}
    i = ring._var_index[var]
    terms = {}
    for d, t in r.items():
        for e, c in t.items():
            terms[e[:i] + (d,) + e[i + 1:]] = c
    return _mp(ring, terms)


def mp_pth_root(F: MultiPoly):
    """H with H^p = F over GF(p^k), or None when F is no p-th power: F is
    one iff every exponent is divisible by p, and H takes the coefficients
    through the inverse of Frobenius, its (k-1)-st power."""
    field = F.ring.field
    p = field.p
    if any(e % p for exps in F.terms for e in exps):
        return None
    terms = {tuple(e // p for e in exps): c for exps, c in F.terms.items()}
    if field.k > 1:
        root, pw = p ** (field.k - 1), field.kernel.pow
        terms = {e: pw(c, root) for e, c in terms.items()}
    return _mp(F.ring, terms)


def u_from_mp(f: MultiPoly, var: str):
    """Raw coefficient list of a MultiPoly using only `var`."""
    i = f.ring._var_index[var]
    out = [f.ring.field.kernel.zero] * (f.degree_in(var) + 1)
    for e, c in f.terms.items():
        d = e[i]
        if sum(e) != d:
            raise CharpkError("polynomial is not univariate in " + var)
        out[d] = c
    return u_trim(out)


def u_to_mp(coeffs, ring: PolyRing, var: str):
    i = ring._var_index[var]
    head, tail = (0,) * i, (0,) * (ring.nvars - i - 1)
    return _mp(ring, {head + (d,) + tail: c
                      for d, c in enumerate(coeffs) if c})


def mp_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd over the coefficient field, monic under grevlex (Geddes, Czapor
    and Labahn, Algorithms for Computer Algebra, ch. 7).

    When both arguments use the same single variable it is Euclid on dense
    coefficient lists (`fields.u_gcd`).  Otherwise two content rules come
    first:

    * Monomial content: the gcd is the least-exponent monomial of the two
      monomial contents times the gcd of what remains once they are
      divided out.
    * One-sided variable: for a variable only one argument uses, the gcd
      is that of the other argument and the coefficients in it.

    and then the primitive PRS in the first variable both arguments use.
    Each recursive call has fewer variables or no monomial content, so
    the recursion depth is bounded by the number of variables, and it
    bottoms out in a constant or in the univariate case."""
    if f.is_zero():
        return g.monic("grevlex")
    if g.is_zero():
        return f.monic("grevlex")
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    used_f, used_g = f.variables_used(), g.variables_used()
    if len(used_f) == 1 and used_f == used_g:
        (var,) = used_f
        return u_to_mp(u_gcd(u_from_mp(f, var), u_from_mp(g, var),
                             f.ring.field.kernel), f.ring, var)
    mf, mg = _monomial_content(f), _monomial_content(g)
    if any(mf) or any(mg):
        m = tuple(map(min, mf, mg))
        h = mp_gcd(_mp(f.ring, {_exp_sub(e, mf): c
                                for e, c in f.terms.items()}),
                   _mp(g.ring, {_exp_sub(e, mg): c
                                for e, c in g.terms.items()}))
        return _mp(f.ring, {tuple(map(_eadd, e, m)): c
                            for e, c in h.terms.items()})
    one_sided = sorted(used_f ^ used_g)
    if one_sided:
        var = one_sided[0]
        if var in used_f:
            return _content(f, var, g)
        return _content(g, var, f)
    var = min(used_f)
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
# F_p(t..) on pairs of polynomials over GF(p)
# ---------------------------------------------------------------------------

class _Frac(tuple):
    """An F_p(t..) value (numer, denom): MultiPolys over GF(p)[t..] with
    no common factor, denom monic under lex in `tvars` order, so equal
    values are equal pairs.  Falsy iff zero."""

    __slots__ = ()

    def __bool__(self):
        return bool(self[0].terms)


def _cancel(a: MultiPoly, b: MultiPoly):
    """a / g and b / g for g = gcd(a, b); no gcd is taken when a or b is
    constant, the common case of polynomial values."""
    if a.is_constant() or b.is_constant():
        return a, b
    g = mp_gcd(a, b)
    if g.is_constant():
        return a, b
    return mp_exact_div(a, g), mp_exact_div(b, g)


class _RatFuncKernel:
    """F_p(t..): raw values are `_Frac` pairs over `ring` = GF(p)[t..].

    While both denominators are 1, a sum, difference or product is the
    pair (polynomial result, 1), already in normal form (gcd(n, 1) = 1 and
    1 is lex-monic), so no gcd is taken.  Every other result is reduced
    through `mp_gcd` and `mp_exact_div`, taking gcds of the parts that can
    share a factor only (Henrici; Knuth, TAOCP vol. 2, 4.5.1).  Crossings
    between F_p(t..)[x..] and GF(p)[t.., x..] (`join_coeffs`,
    `split_coeffs`) reduce once per coefficient."""

    __slots__ = ("p", "ring", "zero", "one", "_one_terms")

    def __init__(self, ring: PolyRing):
        self.p, self.ring = ring.field.p, ring
        self.zero = _Frac((ring.zero(), ring.one()))
        self.one = _Frac((ring.one(), ring.one()))
        # a denominator is 1 iff its terms equal these: a constant
        # denominator is lex-monic, so it is 1
        self._one_terms = {(0,) * ring.nvars: 1}

    def frac(self, num: MultiPoly, den: MultiPoly):
        """num / den in normal form; den is nonzero."""
        if not num.terms:
            return self.zero
        if den.terms == self._one_terms:
            return _Frac((num, den))
        return self._monic(*_cancel(num, den))

    def _monic(self, num, den):
        """num / den for coprime num and den: den made monic under lex."""
        lc = den.terms[max(den.terms)]
        if lc != 1:
            inv = pow(lc, self.p - 2, self.p)
            num, den = num._scale(inv), den._scale(inv)
        return _Frac((num, den))

    def from_int(self, n):
        return self.frac(self.ring.from_int(n), self.ring.one())

    def add(self, a, b):
        (an, ad), (bn, bd) = a, b
        one = self._one_terms
        if ad.terms == one and bd.terms == one:
            return _Frac((an + bn, ad))
        if ad == bd:
            return self.frac(an + bn, ad)
        if (ad.is_constant() or bd.is_constant()
                or (g := mp_gcd(ad, bd)).is_constant()):
            # coprime denominators leave a reduced sum
            return self._monic(an * bd + bn * ad, ad * bd)
        ad1, bd1 = mp_exact_div(ad, g), mp_exact_div(bd, g)
        num = an * bd1 + bn * ad1
        if not num.terms:
            return self.zero
        # num is prime to ad1 and bd1, so only g can share a factor with
        # the denominator ad1 bd1 g
        num, g = _cancel(num, g)
        return self._monic(num, ad1 * bd1 * g)

    def sub(self, a, b):
        (an, ad), (bn, bd) = a, b
        one = self._one_terms
        if ad.terms == one and bd.terms == one:
            return _Frac((an - bn, ad))
        return self.add(a, self.neg(b))

    def neg(self, a):
        return _Frac((-a[0], a[1]))

    def mul(self, a, b):
        (an, ad), (bn, bd) = a, b
        one = self._one_terms
        if ad.terms == one and bd.terms == one:
            return _Frac((an * bn, ad))
        if not an.terms or not bn.terms:
            return self.zero
        an, bd = _cancel(an, bd)
        bn, ad = _cancel(bn, ad)
        return self._monic(an * bn, ad * bd)

    def inv(self, a):
        return self._monic(a[1], a[0])

    def pow(self, a, e):
        # a power of a lex-monic denominator is lex-monic
        return _Frac((a[0] ** e, a[1] ** e))

    def pth_root(self, a):
        """The value r with r^p = a, or None when a is no p-th power; t ->
        t^p keeps coprimality and the lex-leading term, so the pair of
        roots is in normal form."""
        num = mp_pth_root(a[0])
        den = None if num is None else mp_pth_root(a[1])
        return None if den is None else _Frac((num, den))


# ---------------------------------------------------------------------------
# crossings between F_p(t..)[x..] and GF(p)[t.., x..]
# ---------------------------------------------------------------------------

def joined_ring(ring: PolyRing) -> PolyRing:
    """GF(p)[t.., x..] for ring = F_p(t..)[x..] (or GF(p)[x..]): the
    transcendentals first, then ring's variables.  The t's are read by
    position, so a t that shares its name with a variable of ring is
    renamed here."""
    names = list(ring.field.tvars)
    for i, name in enumerate(names):
        while name in ring._var_index or name in names[:i]:
            name += "'"
        names[i] = name
    prime = ring.field.kernel.ring.field if names else ring.field
    return PolyRing(prime, tuple(names) + ring.vars)


def join_coeffs(f: MultiPoly, joined: PolyRing):
    """f over F_p(t..)[x..] as (N, d) in joined = `joined_ring(f.ring)`
    with f = N / d: d is free of x.., the lcm of the coefficients'
    denominators, and 1 when they are all polynomials.  Over GF(p), N is
    f itself."""
    if f.ring.field.kind == "gf":
        return _mp(joined, f.terms), joined.one()
    one = f.ring.field.kernel._one_terms
    den = None
    for _, d in f.terms.values():
        if d.terms != one and d != den:
            den = d if den is None else den * mp_exact_div(d, mp_gcd(den, d))
    terms = {}
    for e, (num, d) in f.terms.items():
        if den is not None and d != den:
            num = num * (den if d.terms == one else mp_exact_div(den, d))
        for te, c in num.terms.items():
            terms[te + e] = c
    if den is None:
        return _mp(joined, terms), joined.one()
    pad = (0,) * f.ring.nvars
    return _mp(joined, terms), _mp(joined, {e + pad: c
                                            for e, c in den.terms.items()})


def split_coeffs(N: MultiPoly, d: MultiPoly, ring: PolyRing) -> MultiPoly:
    """N / d as a polynomial over ring = F_p(t..)[x..], the inverse of
    `join_coeffs`: N and d in `joined_ring(ring)`, d nonzero and free of
    x...  N is grouped by x-exponents and each group reduced once with
    `kernel.frac`; no gcd is taken when d = 1."""
    kernel = ring.field.kernel
    if ring.field.kind == "gf":
        inv = kernel.inv(d.terms[(0,) * d.ring.nvars])
        return _mp(ring, {e: kernel.mul(c, inv) for e, c in N.terms.items()})
    m = len(ring.field.tvars)
    groups = {}
    for e, c in N.terms.items():
        groups.setdefault(e[m:], {})[e[:m]] = c
    tring = kernel.ring
    den = _mp(tring, {e[:m]: c for e, c in d.terms.items()})
    if den.terms == kernel._one_terms:
        return _mp(ring, {x: _Frac((_mp(tring, t), kernel.one[1]))
                          for x, t in groups.items()})
    return _mp(ring, {x: kernel.frac(_mp(tring, t), den)
                      for x, t in groups.items()})


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

