"""Independent brute-force oracles used by the test suite.

Nothing here calls the code paths under test: membership uses its own
normal-form reduction over a lex basis, absolute-component counts come
from rational-point counting over controlled extensions, point scans
and fixed sets are plain loops, polynomial arithmetic is on dicts of
FieldScalars (`d_*`), GF(p^k) arithmetic is polynomial-basis
arithmetic on coefficient tuples, F_p(t..) arithmetic and gcds over
GF(p) are sympy's (a test-only dependency), lambda values come from
elimination on p-components, not from derivations, Jacobian ranks and
a second set of lambda values from fraction elimination over K of
quotient-rule Jacobians, where the library eliminates polynomial rows
fraction-free, and `scan_reduce` finds each leading term by a scan
where `polys._reduce` keeps a heap.
Scalar and polynomial text is read by the character-level reader
(`read_scalar`, `read_poly`: peek and skip per character, MultiPoly
arithmetic per term, pairs that multiply their denominators), where the
library scans tokens once and builds raw terms, and by `MultiPolyReader`,
with one F_p(t..) kernel operation per arithmetic step, where the
library reads pairs over GF(p)[t.., x..]; `embed_by_terms` sums a
function on a graph variety term by term in FieldScalars of the
rational field K(V) = F_p(t.., free), where the library crosses it
into GF(p)[t.., x..] by joining coefficients.  `ppower_ansatz` looks
for p-th roots in K(V) of bounded degree by a semilinear system on
normal forms modulo I(V), where the library solves over the basis
1, s^p, .. of K(V) over a rational subfield.  Formula text is read by
`read_formula`, a recursive descent with its own lexer and precedence
levels, where the library reads terms with the shared scalar and
polynomial grammar.  The fraction elimination is `echelon` (and `solve`
on it), which divides by each pivot; `project_by_elimination` pulls an
element back to a subfield by a linear solve, where the library takes
traces against a dual basis; `automorphism_by_root` applies a field map
by evaluating the coefficient vector at the generator's image, where the
library raises to a power of p.
"""

from __future__ import annotations

import itertools
import math
import re

from charpk import factor
from charpk.errors import FieldError, FormulaError, RingError
from charpk.fields import (FieldDescriptor, FieldScalar, iter_gf_elements,
                           p_components, partial, pth_root)
from charpk.formula import (Add, AndF, Atom, Const, DOp, IntConst, Lam,
                            Lambda0, Mul, NotF, OrF, Sigma, Sub, Var,
                            check_language)
from charpk.lambdafn import monomial_exponents
from charpk.polys import (MultiPoly, PolyRing, _mp, buchberger,
                          joined_ring, normal_form, order_key, split_coeffs)
from charpk.variety import FunctionFieldElem, peel_graph


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over a field, with a division per pivot
# ---------------------------------------------------------------------------

def echelon(rows, ncols):
    """In-place reduced row echelon form of rows whose entries have +, -,
    *, / and is_zero(); returns the list of pivot columns."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()),
                 None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def solve(matrix, rhs):
    """One solution of A x = b, free variables zero, or None if the
    system is inconsistent."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    pivots = echelon(rows, ncols)
    if any(not row[ncols].is_zero() for row in rows[len(pivots):]):
        return None
    sol = [rhs[0] - rhs[0]] * ncols
    for r, c in enumerate(pivots):
        sol[c] = rows[r][ncols]
    return sol


def project_by_elimination(x, K):
    """x in L = x.field pulled back along `factor.gf_embedding(K, L)`, or
    None: an F_p-linear solve on the images of K's power basis."""
    L = x.field
    Fp = FieldDescriptor("gf", K.p, 1)
    embed = factor.gf_embedding(K, L)
    cols = [embed(K.generator() ** i).rep for i in range(K.k)]
    matrix = [[Fp.from_int(col[r]) for col in cols] for r in range(L.k)]
    sol = solve(matrix, [Fp.from_int(c) for c in x.rep])
    return None if sol is None else FieldScalar(K, [c.value for c in sol])


def automorphism_by_root(x, root):
    """The image of x under the automorphism of x.field that sends its
    generator to `root`: x.rep evaluated at root by Horner's rule."""
    acc = root.field.zero()
    for c in reversed(x.rep):
        acc = acc * root + c
    return acc


# ---------------------------------------------------------------------------
# naive point scans
# ---------------------------------------------------------------------------

def naive_point_scan(gens, field, nvars):
    """All F_q-points of V(gens) by exhaustive nested iteration."""
    out = []
    for point in itertools.product(list(iter_gf_elements(field)),
                                   repeat=nvars):
        if vanishes_at(gens, point):
            out.append(point)
    return out


def vanishes_at(gens, point) -> bool:
    """Every generator is zero at point, by FieldScalar arithmetic."""
    return all(_eval_poly(g, point).is_zero() for g in gens)


def _eval_poly(g: MultiPoly, point):
    values = dict(zip(g.ring.vars, point))
    return g.evaluate(values, lift=lambda c: c)


# ---------------------------------------------------------------------------
# the character-level text reader: peek/skip per character, MultiPoly
# arithmetic per term, and N/d pairs over GF(p)[t.., x..] that multiply
# their denominators; the differential oracle for the token reader of
# `fields._Parser` and `polys.PolyRing.parse`
# ---------------------------------------------------------------------------

# \s and \w match exactly str.isspace() and (str.isalnum() or "_")
_SPACES = re.compile(r"\s*")
_WORD = re.compile(r"\w*")

# Deepest parenthesis nesting any reader takes.  Each level costs the
# recursive descent up to eight stack frames (`lam(` in a formula), so at
# this depth a reader stays under 550 frames, well inside Python's
# default recursion limit of 1000.
MAX_NESTING = 64


class _Parser:
    """Recursive descent over + - * / ^, parentheses, integer literals and
    names: the one text grammar of scalars, polynomials, GF(p^k) moduli
    and formula terms.  A leading minus negates the first term of a sum,
    any other unary minus the factor after it; a chain of minuses is
    read by a loop.  Parentheses nest at most MAX_NESTING deep.
    Subclasses build the values: `number`, `symbol`, `divide`, `power`
    and `exponent`; `what` and `error` name the input in error
    messages."""

    what, error = "scalar literal", FieldError
    chained_powers = False

    def __init__(self, text, target):
        self.text = text
        self.end = len(text)
        self.pos = 0
        self.depth = 0
        self.target = target

    def parse(self):
        v = self.expr()
        self.skip()
        if self.pos != self.end:
            raise self.error(f"trailing input in {self.what} {self.text!r}")
        return v

    def skip(self):
        pos = self.pos
        if pos < self.end and self.text[pos].isspace():
            self.pos = _SPACES.match(self.text, pos).end()

    def peek(self):
        """The next non-space character, or "" at the end."""
        pos = self.pos
        if pos < self.end:
            ch = self.text[pos]
            if not ch.isspace():
                return ch
            pos = self.pos = _SPACES.match(self.text, pos).end()
            if pos < self.end:
                return self.text[pos]
        return ""

    def expr(self):
        if self.peek() == "-":
            self.pos += 1
            v = -self.term()
        else:
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
                    raise self.error(f"division by zero in {self.text!r}")
                v = self.divide(v, d)
            else:
                return v

    def factor(self):
        minuses = 0
        while self.peek() == "-":
            self.pos += 1
            minuses += 1
        v = self.atom()
        while self.peek() == "^":
            self.pos += 1
            n = self.exponent()
            if n < 0 and v.is_zero():
                raise self.error(f"division by zero in {self.text!r}")
            v = self.power(v, n)
            if not self.chained_powers:
                break
        for _ in range(minuses):
            v = -v
        return v

    def inside(self, read):
        """read() one parenthesis deeper; nesting past MAX_NESTING is
        refused."""
        if self.depth == MAX_NESTING:
            raise self.error(f"{self.what} nests parentheses deeper than "
                             f"{MAX_NESTING}")
        self.depth += 1
        try:
            return read()
        finally:
            self.depth -= 1

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            v = self.inside(self.expr)
            if self.peek() != ")":
                raise self.error(f"unbalanced parentheses in {self.text!r}")
            self.pos += 1
            return v
        if ch.isdecimal():
            return self.number(self.integer())
        if ch.isalpha() or ch == "_":
            start = self.pos
            self.pos = _WORD.match(self.text, start).end()
            return self.symbol(self.text[start:self.pos])
        raise self.error(f"unexpected character {ch!r} in {self.what}")

    def integer(self, signed=False, message="expected integer"):
        self.skip()
        start = self.pos
        if signed and self.text.startswith("-", self.pos):
            self.pos += 1
        digits = self.pos
        while self.pos < self.end and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            raise self.error(message)
        return int(self.text[start:self.pos])

    # -- scalar literals over the field `target` -----------------------------

    def number(self, n):
        return self.target.from_int(n)

    def symbol(self, name):
        field = self.target
        if field.kind == "gf":
            if name != field.gen_name:
                raise FieldError(f"unknown generator {name!r}")
            return field.generator()
        if name not in field.tvars:
            raise FieldError(f"unknown transcendental {name!r}")
        return field.gen(name)

    def divide(self, v, d):
        return v / d

    def power(self, v, n):
        return v ** n

    def exponent(self):
        return self.integer(signed=True)


class _PolyParser(_Parser):
    """`3*x^2*y + t*x - 1` with ring variables and base-field literals."""

    what, error = "polynomial", RingError
    chained_powers = True

    def number(self, n):
        return self.target.from_int(n)

    def symbol(self, name):
        ring = self.target
        if name in ring._var_index:
            return ring.var(name)
        return ring.from_scalar(read_scalar(name, ring.field))

    def divide(self, v, d):
        if not d.is_constant():
            raise RingError("division only by base-field constants")
        return v.scale(d.constant_value().inverse())

    def exponent(self):
        return self.integer(message="expected integer exponent")


class _Pair:
    """N / d while reading a polynomial over F_p(t..): N and d in
    GF(p)[t.., x..], d free of x.. and None for 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num, self.den = num, den

    def is_zero(self):
        return not self.num.terms

    def __add__(self, other):
        if self.den == other.den:
            return _Pair(self.num + other.num, self.den)
        return _Pair(_times(self.num, other.den) + _times(other.num, self.den),
                     _times(self.den, other.den))

    def __neg__(self):
        return _Pair(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _Pair(self.num * other.num, _times(self.den, other.den))

    def __pow__(self, n):
        return _Pair(self.num ** n, None if self.den is None
                     else self.den ** n)


def _times(a, b):
    """a * b for polynomials or None, which stands for 1."""
    if a is None:
        return b
    return a if b is None else a * b


class _FracParser(_PolyParser):
    """The polynomial DSL over F_p(t..), read in GF(p)[t.., x..] as a
    pair N / d: `+ - * ^` act on pairs without gcds, `/` only by a value
    whose N has no ring variable, and one `split_coeffs` at the end
    reduces each coefficient once."""

    def __init__(self, text, ring):
        super().__init__(text, ring)
        self.joined = joined_ring(ring)

    def parse(self):
        v = super().parse()
        den = self.joined.one() if v.den is None else v.den
        return split_coeffs(v.num, den, self.target)

    def number(self, n):
        n %= self.target.field.p
        joined = self.joined
        return _Pair(_mp(joined, {(0,) * joined.nvars: n} if n else {}))

    def symbol(self, name):
        ring, tvars = self.target, self.target.field.tvars
        if name in ring._var_index:
            i = len(tvars) + ring._var_index[name]
        elif name in tvars:
            i = tvars.index(name)
        else:
            raise FieldError(f"unknown transcendental {name!r}")
        e = [0] * self.joined.nvars
        e[i] = 1
        return _Pair(_mp(self.joined, {tuple(e): 1}))

    def divide(self, v, d):
        m = len(self.target.field.tvars)
        if any(any(e[m:]) for e in d.num.terms):
            raise RingError("division only by base-field constants")
        return _Pair(_times(v.num, d.den), _times(v.den, d.num))


def read_scalar(text, field):
    """`text` as a scalar of `field`, by the character-level reader."""
    return _Parser(text, field).parse()


def read_poly(text, ring):
    """`text` as a polynomial of `ring`, by the character-level reader."""
    if ring.field.kind == "ratfunc":
        return _FracParser(text, ring).parse()
    return _PolyParser(text, ring).parse()


# ---------------------------------------------------------------------------
# polynomial text by MultiPoly arithmetic, and functions on graphs term by
# term in a rational field
# ---------------------------------------------------------------------------

class MultiPolyReader(_Parser):
    """`3*x^2*y + t*x - 1` in a PolyRing by the character-level reader,
    every step a MultiPoly operation: `MultiPolyReader(text, ring).parse()`."""

    what, error = "polynomial", RingError
    chained_powers = True

    def number(self, n):
        return self.target.from_int(n)

    def symbol(self, name):
        ring = self.target
        if name in ring.vars:
            return ring.var(name)
        return ring.from_scalar(read_scalar(name, ring.field))

    def divide(self, v, d):
        if not d.is_constant():
            raise RingError("division only by base-field constants")
        return v.scale(d.constant_value().inverse())

    def exponent(self):
        return self.integer(message="expected integer exponent")


def _big_scalar(c, big):
    """A scalar of K = GF(p) or F_p(t..) in big = F_p(t.., ..)."""
    if c.field.kind == "gf":
        return big.from_int(c.rep[0])
    return FieldScalar(big, [g.rename(big._ring) for g in c.value])


def embed_by_terms(f, big):
    """The function f on a graph variety V in big = F_p(t.., free
    coordinates), its function field: each peeled coordinate the quotient
    P / Q of its pair in the peel's `subst`, every polynomial summed term
    by term in big's scalars."""
    peel = peel_graph(f.variety)
    values = {v: big.gen(v) for v in peel.free_vars}

    def poly(g):
        acc = big.zero()
        for e, c in g.items():
            term = _big_scalar(c, big)
            for v, d in zip(g.ring.vars, e):
                if d:
                    term = term * values[v] ** d
            acc = acc + term
        return acc
    values.update({v: poly(P) / poly(Q) for v, (P, Q) in peel.subst.items()})
    return poly(f.num) / poly(f.den)


# ---------------------------------------------------------------------------
# p-th roots in K(V) by a degree ansatz: g = h / den with h of bounded
# degree, a semilinear system over K on normal forms modulo I(V); it may
# miss a root that exists
# ---------------------------------------------------------------------------

def _monomials_to_degree(ring, names, bound):
    out = []
    idx = [ring._var_index[v] for v in names]
    for combo in itertools.product(range(bound + 1), repeat=len(names)):
        if sum(combo) > bound:
            continue
        e = [0] * ring.nvars
        for i, d in zip(idx, combo):
            e[i] = d
        out.append(tuple(e))
    out.sort(key=lambda e: (sum(e), e))
    return out


def _semilinear_solve(cols, rhs, K):
    """Solve sum_j c_j^p cols[j] = rhs for c_j in K, where cols/rhs are
    K-vectors; exact via p-components (imperfect K) or direct substitution
    (perfect K).  Returns a solution list or None."""
    if K.is_perfect:
        sol = solve([list(r) for r in _transpose(cols)], rhs)
        if sol is None:
            return None
        return [pth_root(v) for v in sol]
    # imperfect: comp_a(sum c_j^p x) = sum c_j comp_a(x) is K-linear
    row_index = monomial_exponents(K.p, K.imperfection_exponent)
    matrix = []
    vec = []
    ncols = len(cols)
    comp_cols = []
    for col in cols:
        comp_cols.append([p_components(x) for x in col])
    comp_rhs = [p_components(x) for x in rhs]
    nrows = len(cols[0]) if cols else 0
    for i in range(nrows):
        for a in row_index:
            matrix.append([comp_cols[j][i].get(a, K.zero())
                           for j in range(ncols)])
            vec.append(comp_rhs[i].get(a, K.zero()))
    return solve(matrix, vec)


def _transpose(cols):
    return [[col[i] for col in cols] for i in range(len(cols[0]))]


def _nf_coeff_vector(poly, gb, standard, ring):
    r = normal_form(poly, gb) if gb else poly
    vec = {}
    for e, c in r.items():
        vec[e] = c
    for e in vec:
        if e not in standard:
            standard.append(e)
    return vec


def ppower_ansatz(f, bound=2):
    """Search g = h / den-power with h of degree <= bound: needs
    num * den^(p-1) = h^p mod I(V), a semilinear system over K."""
    V = f.variety
    K = V.field
    p = K.p
    ring = V.ring
    gb = list(V.ideal.groebner())
    target = f.num * f.den ** (p - 1)
    monos = _monomials_to_degree(ring, V.vars, bound)
    standard = []
    cols_raw = []
    for e in monos:
        mp = MultiPoly(ring, {e: K.one()}) ** p
        cols_raw.append(_nf_coeff_vector(mp, gb, standard, ring))
    rhs_raw = _nf_coeff_vector(target, gb, standard, ring)
    cols = [[col.get(e, K.zero()) for e in standard] for col in cols_raw]
    rhs = [rhs_raw.get(e, K.zero()) for e in standard]
    sol = _semilinear_solve(cols, rhs, K)
    if sol is None:
        return None
    h = ring.zero()
    for e, c in zip(monos, sol):
        if not c.is_zero():
            h = h + MultiPoly(ring, {e: c})
    return FunctionFieldElem(V, h, f.den)


# ---------------------------------------------------------------------------
# fixed sets of automorphism groups
# ---------------------------------------------------------------------------

def fixed_set(act):
    """The elements of the acted-on finite field that every sigma_g fixes,
    by a scan of the whole field."""
    return {x for x in iter_gf_elements(act.field)
            if all(s(x) == x for s in act.sigmas)}


# ---------------------------------------------------------------------------
# ideal membership via an independently computed lex basis
# ---------------------------------------------------------------------------

def lex_member(f: MultiPoly, gens) -> bool:
    if not gens:
        return f.is_zero()
    basis = buchberger(list(gens), order="lex")
    return normal_form(f, basis, order="lex").is_zero()


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: nonzero FieldScalar}, on FieldScalar
# operations only: the differential oracle for polys.MultiPoly and the
# dense univariate routines, which compute on raw kernel values
# ---------------------------------------------------------------------------

def d_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out[e] + c if e in out else c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def d_neg(a):
    return {e: -c for e, c in a.items()}


def d_sub(a, b):
    return d_add(a, d_neg(b))


def d_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def d_one(field, nvars):
    return {(0,) * nvars: field.one()}


def d_pow(a, n, field, nvars):
    out = d_one(field, nvars)
    for _ in range(n):
        out = d_mul(out, a)
    return out


def d_partial(a, i, field):
    out = {}
    for e, c in a.items():
        c = c * field.from_int(e[i])
        if e[i] and not c.is_zero():
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c
    return out


def d_divmod(f, g, key):
    """f = q g + r, dividing by the leading term of g under the monomial
    order `key` while one divides the leading term of the rest."""
    lead = max(g, key=key)
    q, r, work = {}, {}, dict(f)
    while work:
        e = max(work, key=key)
        if all(x >= y for x, y in zip(e, lead)):
            shift = tuple(x - y for x, y in zip(e, lead))
            c = work[e] / g[lead]
            q[shift] = c
            # work -= c * x^shift * g, term by term
            for ge, gc in g.items():
                ne = tuple(x + y for x, y in zip(ge, shift))
                v = work[ne] - c * gc if ne in work else -(c * gc)
                if v.is_zero():
                    work.pop(ne, None)
                else:
                    work[ne] = v
        else:
            r[e] = work.pop(e)
    return q, r


def d_substitute(f, images, field, nvars):
    """images[i] replaces variable i, by full expansion of every term."""
    powers = [[d_one(field, nvars)] for _ in images]
    out = {}
    for e, c in f.items():
        term = {(0,) * nvars: c}
        for img, pw, d in zip(images, powers, e):
            while len(pw) <= d:
                pw.append(d_mul(pw[-1], img))
            term = d_mul(term, pw[d])
        out = d_add(out, term)
    return out


def _deg1(e):
    return e


def d_gcd1(f, g):
    """Monic gcd of univariate dicts (exponents (d,)) by Euclid."""
    while g:
        f, g = g, d_divmod(f, g, _deg1)[1]
    if not f:
        return f
    lc = f[max(f)]
    return {e: c / lc for e, c in f.items()}


def gfp_gcd(f, g, p, key):
    """gcd over GF(p) of two nonzero dicts {exponents: residue} by sympy,
    made monic under the order `key`."""
    from sympy import GF
    from sympy.polys.rings import ring
    nvars = len(next(iter(f)))
    R = ring(",".join(f"x{i}" for i in range(nvars)), GF(p))[0]
    h = R.from_dict(f).gcd(R.from_dict(g))
    terms = {e: int(c) % p for e, c in h.terms()}
    inv = pow(terms[max(terms, key=key)], p - 2, p)
    return {e: c * inv % p for e, c in terms.items()}


def d_powmod1(f, n, mod, field):
    out, base = d_one(field, 1), d_divmod(f, mod, _deg1)[1]
    while n:
        if n & 1:
            out = d_divmod(d_mul(out, base), mod, _deg1)[1]
        base = d_divmod(d_mul(base, base), mod, _deg1)[1]
        n >>= 1
    return out


def _total_degree(f):
    return max((sum(e) for e in f), default=0)


# ---------------------------------------------------------------------------
# absolute-component counting for plane curves of degree <= 4
# ---------------------------------------------------------------------------

def point_count_extension(f: MultiPoly, K: FieldDescriptor, m: int) -> int:
    """Number of points of V(f) over GF(q^m), for f in K[x, y] over a
    finite K: iterate x over the extension and count y-roots of the
    specialized univariate by a gcd with y^Q - y."""
    L, embed = factor.extend_gf(K, m)
    Q = L.p ** L.k
    terms = [(e, embed(c)) for e, c in f.items()]
    count = 0
    for a in iter_gf_elements(L):
        uni = {}
        for (dx, dy), c in terms:
            uni = d_add(uni, {(dy,): c * a ** dx})
        if not uni:
            count += Q  # the whole vertical line lies on the curve
            continue
        count += _root_count(uni, L, Q)
    return count


def _root_count(f, L, Q):
    """Distinct roots in L of a univariate dict over L."""
    if max(f)[0] == 0:
        return 0
    x = {(1,): L.one()}
    return max(d_gcd1(d_sub(d_powmod1(x, Q, f, L), x), f))[0]


def weil_verdict(f: MultiPoly, K: FieldDescriptor):
    """For a curve V(f) with a single K-component of degree d <= 4:
    True/False for 'one absolute component', decided by point counting
    over GF(q^m) with m coprime to 2, 3 and 4.

    If the curve splits into r > 1 conjugate absolute components, every
    GF(q^m)-rational point lies on two distinct conjugates, so there are
    at most sum d_i d_j <= 6 such points; one absolute component forces
    at least q^m - (d-1)(d-2) q^(m/2) - d - 1 points.  The gap is empty
    for the (q, m) pairs below, so the count is a decision procedure."""
    q = K.p ** K.k
    d = f.total_degree()
    if d > 4:
        raise ValueError("the counting bound is calibrated for degree <= 4")
    if d <= 1:
        return True
    # r, the number of conjugate components, divides d; m must be
    # coprime to every such r > 1 and the Weil lower bound must clear
    # the Bezout intersection ceiling.
    divisors = [r for r in range(2, d + 1) if d % r == 0]
    upper_split = 6
    m = None
    for cand in (2, 3, 4, 5, 7):
        if any(cand % r == 0 for r in divisors):
            continue
        low = (q ** cand
               - (d - 1) * (d - 2) * int(q ** (cand / 2) + 1)
               - d - 1)
        if low > upper_split:
            m, lower = cand, low
            break
    if m is None:
        raise ValueError(f"no separating extension degree for q={q}, d={d}")
    n = point_count_extension(f, K, m)
    if n > upper_split:
        return True
    if n <= upper_split and n < lower:
        return False
    raise AssertionError("point count in the forbidden gap")


def linear_absolute_factor(f: MultiPoly, K: FieldDescriptor, s: int) -> bool:
    """Exhaustive search for a linear factor of f in K[x, y] over
    GF(q^s): f vanishes on some line y = a x + b or x = c.  On a line f
    restricts to a polynomial of degree <= d = deg f in the line's
    parameter, which is zero iff it has d + 1 distinct roots, so f is
    tested at d + 1 points of each line.  Complete for detecting linear
    components."""
    L, embed = factor.extend_gf(K, s)
    terms = [(i, j, embed(c)) for (i, j), c in f.items()]
    elems = list(iter_gf_elements(L))
    d = max(i + j for i, j, _ in terms)
    assert len(elems) > d, "too few points on a line"
    params = elems[:d + 1]

    def vanishes(points):
        return all(not sum((c * x ** i * y ** j for i, j, c in terms),
                           L.zero())
                   for x, y in points)
    for a in elems:
        for b in elems:
            if vanishes([(x, a * x + b) for x in params]):
                return True
    return any(vanishes([(c, y) for y in params]) for c in elems)


def _line_dicts(K):
    """y - (a x + b) and x - c for all a, b, c in K."""
    elems = list(iter_gf_elements(K))
    one = K.one()
    lines = [d_add({(0, 1): one}, d_neg(d_add({(1, 0): a}, {(0, 0): b})))
             for a in elems for b in elems]
    lines += [d_add({(1, 0): one}, {(0, 0): -c}) for c in elems]
    return lines


def count_k_linear_factors(f: MultiPoly, K: FieldDescriptor):
    """Split off all linear factors a x + b y + c over K by exhaustive
    trial division; returns (number removed with multiplicity, cofactor)."""
    work = dict(f.items())
    removed = 0
    changed = True
    while changed and _total_degree(work) > 0:
        changed = False
        for lin in _line_dicts(K):
            q, r = d_divmod(work, lin, _lex)
            if not r:
                work = q
                removed += 1
                changed = True
                break
    return removed, MultiPoly(f.ring, work)


def _lex(e):
    return e


def scan_reduce(f: MultiPoly, basis, order, quotient=None):
    """Raw remainder of f by basis, as `polys._reduce` defines it, with
    each leading term found by a scan over all the terms left."""
    key = order_key(order)
    K = f.ring.field.kernel
    divisors = []
    for g in basis:
        le = max(g.terms, key=key)
        divisors.append((le, K.inv(g.terms[le]),
                         [(ge, gc) for ge, gc in g.terms.items() if ge != le]))
    remainder = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for le, ilc, tail in divisors:
            if all(a <= b for a, b in zip(le, e)):
                break
        else:
            remainder[e] = c
            continue
        factor = K.mul(c, ilc)
        shift = tuple(a - b for a, b in zip(e, le))
        if quotient is not None:
            quotient[shift] = factor
        for ge, gc in tail:
            ne = tuple(a + b for a, b in zip(ge, shift))
            cur = K.sub(work.get(ne, K.zero), K.mul(factor, gc))
            if cur:
                work[ne] = cur
            else:
                work.pop(ne, None)
    return remainder


def _divide_once(f, lin):
    """(f / lin, True) when lin divides f exactly, else (None, False)."""
    q, r = d_divmod(dict(f.items()), dict(lin.items()), _lex)
    if r:
        return None, False
    return MultiPoly(f.ring, q), True


# ---------------------------------------------------------------------------
# Minkowski decomposability of lattice polygons, by enumeration
# ---------------------------------------------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_triangle(z, a, b, c):
    """z in the closed triangle abc, which may be a segment or a point."""
    if _cross(a, b, c) == 0:
        return (all(_cross(u, v, z) == 0 for u in (a, b, c)
                    for v in (a, b, c))
                and min(a[0], b[0], c[0]) <= z[0] <= max(a[0], b[0], c[0])
                and min(a[1], b[1], c[1]) <= z[1] <= max(a[1], b[1], c[1]))
    signs = (_cross(a, b, z), _cross(b, c, z), _cross(c, a, z))
    return all(s >= 0 for s in signs) or all(s <= 0 for s in signs)


def in_hull(z, points):
    """z in conv(points), by Caratheodory: in some (degenerate) triangle."""
    return any(_in_triangle(z, a, b, c) for a, b, c in
               itertools.combinations_with_replacement(points, 3))


def minkowski_decomposable(points) -> bool:
    """conv(points) = A + B for lattice polygons A and B of two or more
    lattice points each.  Any such A has a translate inside P and at most
    as many vertices as P; for each candidate A = conv(vertices), B is the
    lattice set {b : b + A in P}, and A + conv(B) = P iff every extreme
    point of P is a vertex of A plus a point of B."""
    points = sorted(set(points))
    xs, ys = [x for x, _ in points], [y for _, y in points]
    lattice = {z for z in itertools.product(range(min(xs), max(xs) + 1),
                                            range(min(ys), max(ys) + 1))
               if in_hull(z, points)}
    extreme = [z for z in points
               if not in_hull(z, [w for w in points if w != z])]
    for size in range(2, len(extreme) + 1):
        for verts in itertools.combinations(sorted(lattice), size):
            a0 = verts[0]
            B = {(x - a0[0], y - a0[1]) for x, y in lattice}
            B = {b for b in B
                 if all((b[0] + v[0], b[1] + v[1]) in lattice for v in verts)}
            if len(B) >= 2 and all(
                    any((z[0] - v[0], z[1] - v[1]) in B for v in verts)
                    for z in extreme):
                return True
    return False


# ---------------------------------------------------------------------------
# lambda-functions by the p-component elimination: the definition of the
# three cases, read off one linear system over K
# ---------------------------------------------------------------------------

def _cleared(x):
    """(x d^p, d) with d the denominator of x: a p-th-power unit factor,
    so that every p-component of x d^p is a polynomial over a polynomial."""
    K = x.field
    if K.kind == "gf":
        return x, K.one()
    den = FieldScalar(K, (x.value[1], K.one().value[0]))
    return x * den ** K.p, den


def lambda_by_components(bs, c):
    """The p^e lambda values of c against the tuple bs, or None in Cases
    1-2, by elimination on the p^m x (p^e + 1) matrix of p-components.

    comp_a is semilinear for p-th powers, so c = sum_J v_J^p b^J iff
    sum_J v_J comp_a(b^J) = comp_a(c) for every a in (0..p-1)^m.  The
    columns comp(b^J) have full rank iff the b^J are K^p-independent
    (Case 1 otherwise), and the system is consistent iff c lies in their
    K^p-span (Case 2 otherwise).  Denominators are cleared first:
    b'_i = b_i d_i^p, c' = c d_c^p turn the solution into
    v_J = lambda_J d_c / prod_i d_i^{j_i}."""
    K = c.field
    p = K.p
    cleared = [_cleared(b) for b in bs]
    cc, dc = _cleared(c)
    exps = list(itertools.product(range(p), repeat=len(bs)))
    cols = []
    for jj in exps:
        mono = K.one()
        for (b, _), j in zip(cleared, jj):
            mono = mono * b ** j
        cols.append(p_components(mono))
    cols.append(p_components(cc))
    rows = [[col.get(a, K.zero()) for col in cols]
            for a in itertools.product(range(p),
                                       repeat=K.imperfection_exponent)]
    pivots = echelon(rows, len(exps))
    if len(pivots) < len(exps):
        return None  # Case 1
    if any(row[-1] for row in rows[len(exps):]):
        return None  # Case 2
    sol = []
    for jj, row in zip(exps, rows):
        v = row[-1]
        for (_, d), j in zip(cleared, jj):
            v = v * d ** j
        sol.append(v / dc)
    return sol


# ---------------------------------------------------------------------------
# p-independence and lambda-functions by fraction elimination over K: the
# Jacobian entries by the quotient rule, eliminated with a division per
# pivot, and Taylor's formula summed term by term
# ---------------------------------------------------------------------------

def _fraction_rank(rows):
    """The rank of a matrix over a field, by fraction elimination."""
    rows = [list(r) for r in rows]
    return len(echelon(rows, len(rows[0]))) if rows else 0


def jacobian_rank_by_fractions(xs, K):
    """The rank of [dx_i/dt_j] over K, each entry a reduced fraction."""
    return _fraction_rank([[partial(x, t) for t in K.tvars] for x in xs])


def differential_ranks(V, fs):
    """(rank of the dg, rank of the dg and the df) in Omega_{K(V)/F_p},
    for the presented generators g of I(V), assumed prime: the rows dg
    and den^2 df over dt_1..dt_m, dx_1..dx_n, every entry a
    FunctionFieldElem, by fraction elimination over K(V)."""
    K = V.field

    def d(poly):
        return ([poly.map_coeffs(lambda c, t=t: partial(c, t))
                 for t in K.tvars] + [poly.partial(v) for v in V.vars])

    relations = [d(g) for g in V.ideal.gens]
    for f in fs:
        relations.append([f.den * a - f.num * b
                          for a, b in zip(d(f.num), d(f.den))])
    one = V.ring.one()
    rows = [[FunctionFieldElem(V, e, one) for e in row] for row in relations]
    ngens = len(V.ideal.gens)
    return _fraction_rank(rows[:ngens]), _fraction_rank(rows)


def lambda_by_fraction_echelon(bs, c):
    """The p^e lambda values of c against bs, or None in Cases 1-2.

    [J_b | I_e] is brought to reduced echelon form over K: fewer than e
    pivots is Case 1; dc outside the span of the pivot rows is Case 2.
    Otherwise the right block is J_b[:, P]^{-1}, whose columns give the
    derivations D_i dual to the db_i, and
    mu_J = sum_K (-b)^K D^{J+K} c / (J! K!) over J + K <= p - 1 is
    summed directly, with lambda_J the p-th root of mu_J."""
    K = c.field
    p, tvars, e = K.p, K.tvars, len(bs)
    m = len(tvars)
    zero, one = K.zero(), K.one()
    rows = [[partial(b, t) for t in tvars]
            + [one if r == i else zero for r in range(e)]
            for i, b in enumerate(bs)]
    pivots = echelon(rows, m)
    if len(pivots) < e:
        return None  # Case 1
    grad = [partial(c, t) for t in tvars]
    for row, j in zip(rows, pivots):
        f = grad[j]
        grad = [x - f * y for x, y in zip(grad, row)]
    if any(grad):
        return None  # Case 2

    derived = {(0,) * e: c}

    def derivative(a):
        """D^a c, applying D_i for the last nonzero place i of a."""
        if a not in derived:
            i = max(k for k, ak in enumerate(a) if ak)
            x = derivative(a[:i] + (a[i] - 1,) + a[i + 1:])
            derived[a] = sum((rows[r][m + i] * partial(x, tvars[j])
                              for r, j in enumerate(pivots)), zero)
        return derived[a]

    def factorial(a):
        return math.prod(math.factorial(k) for k in a)

    exps = list(itertools.product(range(p), repeat=e))
    sol = []
    for jj in exps:
        mu = zero
        for kk in exps:
            a = tuple(j + k for j, k in zip(jj, kk))
            if max(a, default=0) >= p:
                continue
            weight = (-1) ** sum(kk) * pow(factorial(jj) * factorial(kk),
                                           -1, p)
            term = K.from_int(weight) * derivative(a)
            for b, k in zip(bs, kk):
                term = term * b ** k
            mu = mu + term
        lam = pth_root(mu)
        if lam is None:
            raise FieldError("Taylor coefficient is not a p-th power")
        sol.append(lam)
    return sol


# ---------------------------------------------------------------------------
# direct Leibniz audit
# ---------------------------------------------------------------------------

def leibniz_holds(d_map, pairs) -> bool:
    """d_map(rs) == d_map(r) s + r d_map(s) on every pair."""
    for r, s in pairs:
        if d_map(r * s) != d_map(r) * s + r * d_map(s):
            return False
    return True


# ---------------------------------------------------------------------------
# GF(p^k) in the polynomial basis, on coefficient tuples (lowest degree
# first) modulo a monic defining polynomial
# ---------------------------------------------------------------------------

def gf_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def gf_neg(a, p):
    return tuple(-x % p for x in a)


def _reduce(prod, modulus, p):
    """prod mod the monic modulus, as a length-k tuple."""
    k = len(modulus) - 1
    prod = list(prod) + [0] * max(0, k - len(prod))
    for top in range(len(prod) - 1, k - 1, -1):
        lead = prod[top] % p
        for j in range(k + 1):
            prod[top - k + j] = (prod[top - k + j] - lead * modulus[j]) % p
    return tuple(c % p for c in prod[:k])


def gf_mul(a, b, modulus, p):
    """Schoolbook convolution, then reduction by the modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _reduce(prod, modulus, p)


def gf_pow(a, e, modulus, p):
    out = _reduce([1], modulus, p)
    for _ in range(e):
        out = gf_mul(out, a, modulus, p)
    return out


def _strip(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _pdivmod(f, g, p):
    f, g = _strip(f), _strip(g)
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(len(f) - len(g) + 1, 1)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        q[shift] = c
        for i, y in enumerate(g):
            f[shift + i] = (f[shift + i] - c * y) % p
        f = _strip(f)
    return q, f


def gf_inverse(a, modulus, p):
    """Extended Euclid in F_p[x]: s a + t modulus = 1."""
    r0, r1 = _strip(modulus), _strip(a)
    s0, s1 = [0], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        qs = [0] * (len(q) + len(s1) - 1)
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                qs[i + j] += x * y
        width = max(len(s0), len(qs))
        s0, s1 = s1, [((s0[i] if i < len(s0) else 0)
                       - (qs[i] if i < len(qs) else 0)) % p
                      for i in range(width)]
        r0, r1 = r1, r
    inv = pow(r0[-1], p - 2, p)
    return _reduce([c * inv for c in s0], modulus, p)


# ---------------------------------------------------------------------------
# F_p(t1..tm) through sympy's fraction fields (sympy is a test-only
# dependency; the library carries F_p(t..) on its own polynomials)
# ---------------------------------------------------------------------------

class RatFuncOracle:
    """F_p(t1..tm) as a sympy fraction field over GF(p).  Values enter as
    library literals (`parse`) and leave in the library's printed form
    (`text`): terms in descending lex order, coefficients in [0, p), the
    denominator made monic under lex."""

    def __init__(self, p, tvars):
        import sympy
        from sympy.polys.fields import field
        self.p, self.tvars = p, tuple(tvars)
        self.field, *self.gens = field(",".join(tvars), sympy.GF(p))

    def parse(self, text):
        """A library literal, evaluated in the fraction field: integer
        literals other than exponents become field constants."""
        code = re.sub(r"(?<!\*\*)\b(\d+)\b", r"_F(\1)",
                      text.replace("^", "**"))
        names = dict(zip(self.tvars, self.gens), _F=self.field)
        return self.field(eval(code, {"__builtins__": {}}, names))

    def normal(self, x):
        """(numer, denom) with denom monic under lex."""
        num, den = x.numer, x.denom
        lc = den.LC
        return num.quo_ground(lc), den.quo_ground(lc)

    def _poly_text(self, poly):
        parts = []
        for exps, c in sorted(poly.terms(), reverse=True):
            c = int(c) % self.p
            names = [n if e == 1 else f"{n}^{e}"
                     for n, e in zip(self.tvars, exps) if e]
            if not names:
                parts.append(str(c))
            else:
                parts.append(("" if c == 1 else f"{c}*") + "*".join(names))
        return "+".join(parts) or "0"

    def text(self, x):
        num, den = self.normal(x)
        ntext = self._poly_text(num)
        if den == den.ring.one:
            return ntext
        dtext = self._poly_text(den)
        if "+" in ntext:
            ntext = f"({ntext})"
        if "+" in dtext or "*" in dtext or "^" in dtext:
            dtext = f"({dtext})"
        return f"{ntext}/{dtext}"

    def pth_root(self, x):
        """The p-th root when every exponent is divisible by p, else None."""
        p = self.p
        parts = []
        for poly in self.normal(x):
            if any(e % p for exps in poly.monoms() for e in exps):
                return None
            parts.append(poly.ring.from_dict(
                {tuple(e // p for e in exps): c
                 for exps, c in poly.terms()}))
        return self.field(parts[0]) / self.field(parts[1])

    def p_components(self, x):
        """{a: c_a} with x = sum_a c_a^p t^a, 0 <= a_i < p, c_a nonzero:
        x = num den^(p-1) / den^p, its numerator split by exponent
        residues mod p."""
        p = self.p
        num, den = self.normal(x)
        buckets = {}
        for exps, c in (num * den ** (p - 1)).terms():
            key = tuple(e % p for e in exps)
            buckets.setdefault(key, {})[tuple(e // p for e in exps)] = c
        return {a: self.field(num.ring.from_dict(terms)) / self.field(den)
                for a, terms in buckets.items()}

    def partial(self, x, name):
        return x.diff(self.gens[self.tvars.index(name)])

    def evaluate(self, x, point):
        """x at the point (ints mod p), or None where the denominator
        vanishes."""
        def ev(poly):
            acc = 0
            for exps, c in poly.terms():
                term = int(c)
                for a, e in zip(point, exps):
                    term *= a ** e
                acc += term
            return acc % self.p
        num, den = self.normal(x)
        d = ev(den)
        if not d:
            return None
        return ev(num) * pow(d, self.p - 2, self.p) % self.p

    def height(self, x):
        return max(max((sum(e) for e in poly.monoms()), default=0)
                   for poly in self.normal(x))


# ---------------------------------------------------------------------------
# formula text by its own recursive descent
# ---------------------------------------------------------------------------

class FormulaReader:
    """The formula reader with its own lexer and precedence levels, kept
    as the differential oracle for `formula.parse`."""

    def __init__(self, text, tag, context):
        self.text = text
        self.pos = 0
        self.tag = tag
        self.context = context or {}

    # -- lexing helpers -----------------------------------------------------

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, s):
        self.skip()
        return self.text.startswith(s, self.pos)

    def eat(self, s):
        if not self.peek(s):
            raise FormulaError(
                f"expected {s!r} at position {self.pos} in {self.text!r}")
        self.pos += len(s)

    def at_end(self):
        self.skip()
        return self.pos >= len(self.text)

    def ident(self):
        self.skip()
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum()
                    or self.text[self.pos] == "_")):
            self.pos += 1
        if start == self.pos:
            raise FormulaError(f"expected a name at position {start}")
        return self.text[start:self.pos]

    def integer(self):
        self.skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            raise FormulaError(f"expected a number at position {start}")
        return int(self.text[start:self.pos])

    # -- formulas -----------------------------------------------------------

    def formula(self):
        left = self.conj()
        while self.peek("|"):
            self.eat("|")
            left = OrF(left, self.conj())
        return left

    def conj(self):
        left = self.unit(self.atom_or_paren)
        while self.peek("&"):
            self.eat("&")
            left = AndF(left, self.unit(self.atom_or_paren))
        return left

    def unit(self, inner):
        if self.peek("!"):
            self.eat("!")
            self.eat("(")
            f = self.formula()
            self.eat(")")
            return NotF(f)
        return inner()

    def atom_or_paren(self):
        # disambiguate "(formula)" from a parenthesized term by backtracking
        if self.peek("("):
            save = self.pos
            try:
                self.eat("(")
                f = self.formula()
                self.eat(")")
                if self.peek("=") or self.peek("+") or self.peek("-") \
                        or self.peek("*") or self.peek("^"):
                    raise FormulaError("term context")
                return f
            except FormulaError:
                self.pos = save
        return self.atom()

    def atom(self):
        left = self.expr()
        self.eat("=")
        right = self.expr()
        if isinstance(right, IntConst) and right.value == 0:
            return Atom(left)
        return Atom(Sub(left, right))

    # -- terms --------------------------------------------------------------

    def expr(self):
        if self.peek("-"):
            self.eat("-")
            left = Sub(IntConst(0), self.term())
        else:
            left = self.term()
        while True:
            if self.peek("+"):
                self.eat("+")
                left = Add(left, self.term())
            elif self.peek("-") and not self.peek("->"):
                self.eat("-")
                left = Sub(left, self.term())
            else:
                return left

    def term(self):
        left = self.power()
        while True:
            if self.peek("*"):
                self.eat("*")
                left = Mul(left, self.power())
            elif self.peek("/"):
                self.eat("/")
                right = self.power()
                left = self._const_div(left, right)
            else:
                return left

    def _const_div(self, left, right):
        lv = _formula_const(left, self.context)
        rv = _formula_const(right, self.context)
        if lv is None or rv is None:
            raise FormulaError("division is only defined between constants")
        return Const(lv / rv)

    def power(self):
        base = self.factor()
        if self.peek("^"):
            self.eat("^")
            n = self.integer()
            if n < 0:
                raise FormulaError("negative exponents are not terms")
            if n == 0:
                return IntConst(1)
            out = base
            for _ in range(n - 1):
                out = Mul(out, base)
            return out
        return base

    def factor(self):
        self.skip()
        if self.peek("("):
            self.eat("(")
            e = self.expr()
            self.eat(")")
            return e
        if self.pos < len(self.text) and self.text[self.pos].isdecimal():
            return IntConst(self.integer())
        if self.peek("s["):
            self.eat("s[")
            g = self.ident()
            self.eat("]")
            self.eat("(")
            e = self.expr()
            self.eat(")")
            return Sigma(g, e)
        name = self.ident()
        if name == "D" and self.peek("("):
            self.eat("(")
            e = self.expr()
            self.eat(")")
            return DOp(e)
        if name == "l0" and self.peek("("):
            self.eat("(")
            e = self.expr()
            self.eat(")")
            return Lambda0(e)
        if name == "lam" and self.peek("("):
            self.eat("(")
            i = self.integer()
            self.eat(",")
            e = self.integer()
            self.eat(";")
            basis = []
            if not self.peek(";"):
                basis.append(self.expr())
                while self.peek(","):
                    self.eat(",")
                    basis.append(self.expr())
            self.eat(";")
            c = self.expr()
            self.eat(")")
            return Lam(i, e, tuple(basis), c)
        declared = self.context.get("vars")
        if declared is None or name in declared:
            return Var(name)
        field = self.context.get("field")
        if field is not None:
            try:
                return Const(field.parse(name))
            except FieldError:
                pass
        return Var(name)


def _formula_const(t, context):
    if isinstance(t, Const):
        return t.value
    if isinstance(t, IntConst):
        field = (context or {}).get("field")
        if field is not None:
            return field.from_int(t.value)
        return None
    return None


def read_formula(text: str, tag: str = "full", context=None):
    """Parse a term or (when it contains '=') a formula; validates the
    language tag."""
    p = FormulaReader(text, tag, context)
    if "=" in text:
        node = p.formula()
    else:
        node = p.expr()
    if not p.at_end():
        raise FormulaError(
            f"trailing input at position {p.pos} in {text!r}")
    return check_language(node, tag)
