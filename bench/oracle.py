"""Independent arithmetic for the benchmark's answer checks.

Nothing here imports charpk.  Finite fields GF(p^k) are coded as ints
whose base-p digits are the coefficients over the polynomial basis of the
first monic irreducible of degree k in base-p counter order (the
library's documented default modulus, found again here by trial
division), so an int n and the library's n-th element in
`iter_gf_elements` order are the same element.  Rational-function fields
F_p(t..) use sympy's fraction fields directly; element texts move
between the two sides as strings in the library's literal syntax.
"""

from __future__ import annotations

import itertools
import re

import sympy
from sympy.polys.fields import field as sympy_field


# ---------------------------------------------------------------------------
# GF(p^k) with int-coded elements
# ---------------------------------------------------------------------------

def _digits(n, p, k):
    out = []
    for _ in range(k):
        out.append(n % p)
        n //= p
    return out


def _undigits(vec, p):
    n = 0
    for c in reversed(vec):
        n = n * p + c
    return n


def _polymod(f, g, p):
    """Remainder of f by monic g; ascending int coefficient lists."""
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg:
        c = f[-1] % p
        if c:
            shift = len(f) - 1 - dg
            for i, b in enumerate(g):
                f[shift + i] = (f[shift + i] - c * b) % p
        f.pop()
    return f


def _is_irreducible(f, p):
    """Trial division by every monic polynomial of degree <= deg f / 2."""
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for n in range(p ** d):
            g = _digits(n, p, d) + [1]
            if not any(c % p for c in _polymod(f, g, p)):
                return False
    return True


class GF:
    """GF(p^k) over the default polynomial basis; elements are ints."""

    def __init__(self, p, k=1):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = [0, 1]
        if k > 1:
            for n in range(p ** k):
                f = _digits(n, p, k) + [1]
                if _is_irreducible(f, p):
                    self.modulus = f
                    break
        self.spec = f"GF({p},{k})"

    def add(self, a, b):
        p = self.p
        return _undigits([(x + y) % p for x, y in
                          zip(_digits(a, p, self.k), _digits(b, p, self.k))],
                         p)

    def neg(self, a):
        p = self.p
        return _undigits([(-x) % p for x in _digits(a, p, self.k)], p)

    def mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return a * b % p
        fa, fb = _digits(a, p, k), _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(fa):
            for j, y in enumerate(fb):
                prod[i + j] = (prod[i + j] + x * y) % p
        rem = _polymod(prod, self.modulus, p)
        return _undigits(rem + [0] * (k - len(rem)), p)

    def pow(self, a, n):
        out = 1
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def is_square(self, a):
        return a == 0 or any(self.mul(x, x) == a for x in range(self.q))

    def text(self, a):
        """The element as a scalar literal in the generator name `g`."""
        if self.k == 1:
            return str(a)
        parts = []
        for e, c in enumerate(_digits(a, self.p, self.k)):
            if c:
                mono = "1" if e == 0 else ("g" if e == 1 else f"g^{e}")
                parts.append(mono if c == 1 and e else
                             (str(c) if e == 0 else f"{c}*{mono}"))
        return "+".join(parts) or "0"


def poly_text(terms, field):
    """{(i, j): coefficient int} -> polynomial text in x, y."""
    parts = []
    for (i, j), c in sorted(terms.items(), reverse=True):
        if not c:
            continue
        mono = "*".join(f"{v}^{e}" if e > 1 else v
                        for v, e in (("x", i), ("y", j)) if e)
        coeff = field.text(c)
        if not mono:
            parts.append(f"({coeff})")
        elif coeff == "1":
            parts.append(mono)
        else:
            parts.append(f"({coeff})*{mono}")
    return " + ".join(parts) or "0"


def count_points_prime(terms, p):
    """Affine points of sum c_ij x^i y^j = 0 over F_p, by plain ints."""
    return sum(1 for x, y in itertools.product(range(p), repeat=2)
               if sum(c * pow(x, i, p) * pow(y, j, p)
                      for (i, j), c in terms.items()) % p == 0)


def prime_points_problem(points, terms, p):
    """None when `points` (int pairs) are the affine points of
    sum c_ij x^i y^j = 0 over F_p, each once; else what is wrong."""
    off = [pt for pt in points
           if sum(c * pow(pt[0], i, p) * pow(pt[1], j, p)
                  for (i, j), c in terms.items()) % p]
    want = count_points_prime(terms, p)
    if off or len(set(points)) != len(points) or len(points) != want:
        return f"{len(points)} points listed, {want} by count, " \
               f"{len(off)} off the curve"


# ---------------------------------------------------------------------------
# F_p(t..) through sympy
# ---------------------------------------------------------------------------

class RatFuncField:
    """F_p(t1..tm) as a sympy fraction field, reading library literals."""

    def __init__(self, p, names):
        self.p = p
        self.names = tuple(names)
        self.field, *self.gens = sympy_field(",".join(names), sympy.GF(p))

    def parse(self, text, subs=None):
        """A library literal; `subs` gives literals for extra variable
        names, so that a polynomial in x, y can be evaluated on a graph."""
        env = dict(zip(self.names, self.gens))
        for name, value in (subs or {}).items():
            env[name] = self.parse(value)
        return _Reader(text, env, self.field).read()

    def text(self, x):
        """A literal the library parses back to x."""
        return f"({_ring_text(x.numer)})/({_ring_text(x.denom)})"

    @staticmethod
    def same(a, b):
        """Equality of fractions (sympy's == also compares the unit in the
        denominator)."""
        return not (a - b)

    def is_pth_power(self, x):
        p = self.p
        return all(e % p == 0 for poly in (x.numer, x.denom)
                   for mono, _ in poly.terms() for e in mono)

    def pth_root(self, x):
        """The p-th root of x, or None when x is not a p-th power."""
        if not self.is_pth_power(x):
            return None
        ring, p = self.field.ring, self.p
        num, den = (ring.from_dict({tuple(e // p for e in mono): c
                                    for mono, c in poly.terms()})
                    for poly in (x.numer, x.denom))
        return self.field(num) / self.field(den)

    @staticmethod
    def height(x):
        """max(total degree of numerator, of denominator)."""
        return max(sum(mono) for poly in (x.numer, x.denom)
                   for mono, _ in poly.terms())

    def derive(self, x, images):
        """D(x) for the derivation t_i -> images[t_i] (field elements)."""
        out = self.field.zero
        for gen, name in zip(self.gens, self.names):
            if name in images:
                out += x.diff(gen) * images[name]
        return out


def ratfunc_elements(R, bound):
    """Every element of F_p(t) (one transcendental) of height <= bound,
    each once: reduced num/den with den monic."""
    ring = R.field.ring
    t = ring.gens[0]
    polys = [sum((c * t ** i for i, c in enumerate(coeffs)), ring.zero)
             for coeffs in itertools.product(range(R.p), repeat=bound + 1)]
    yield R.field.zero
    for den in polys:
        if not den or den.LC != 1:
            continue
        for num in polys:
            if num and num.gcd(den) == ring.one:
                yield R.field(num) / R.field(den)


class _Reader:
    """Recursive descent over + - * / ^, parentheses, ints and names."""

    def __init__(self, text, env, field):
        self.tokens = re.findall(r"\d+|[A-Za-z_]\w*|\S", text)
        self.pos = 0
        self.env = env
        self.field = field

    def read(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing input at token {self.pos}")
        return value

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            value = value + self.term() if self.take() == "+" \
                else value - self.term()
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            value = value * self.factor() if self.take() == "*" \
                else value / self.factor()
        return value

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        value = self.atom()
        if self.peek() == "^":
            self.take()
            value = value ** int(self.take())
        return value

    def atom(self):
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            return value
        if tok.isdigit():
            return self.field(int(tok))
        return self.env[tok]


def _ring_text(poly):
    ring = poly.ring
    parts = []
    for mono, c in poly.terms():
        factors = [f"{s}^{e}" if e > 1 else str(s)
                   for s, e in zip(ring.symbols, mono) if e]
        parts.append("*".join([str(int(c))] + factors))
    return " + ".join(parts) or "0"
