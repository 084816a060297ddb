"""Exact arithmetic for GF(p^k) and F_p(t1..tm), plus the characteristic-p
structure maps: Frobenius, p-th roots, lambda0 and p-component decomposition.

Scalars are canonically normalized so that equality of representations is
equality of values:

* GF(p^k): one int code, the coefficient vector over the polynomial basis
  of a stored irreducible defining polynomial read as a base-p counter
  (code = sum rep[i] p^i);
* F_p(t..): a reduced pair (numer, denom) of `polys.MultiPoly`s over
  GF(p)[t1..tm], the denominator monic under lex in `tvars` order.

GF(p^k) arithmetic runs on the codes: residues mod p for k = 1, log/antilog
and Zech tables for p^k <= GF_TABLE_CAP (Lidl-Niederreiter, Finite Fields,
ch. 2 and 9), and the polynomial basis above the cap.

F_p(t..) arithmetic is `polys._RatFuncKernel`, which reduces every
result with the one multivariate gcd, `polys.mp_gcd`; `polys` is imported
when the first such field is built.

Each descriptor's kernel (`FieldDescriptor.kernel`) computes on raw values
(the code, or the reduced pair); a FieldScalar is the field plus its raw
value.  The dense univariate routines `u_*` work on lists of raw values
with the kernel as their last argument.

The m = 0 rational-function field degenerates to the prime field.
"""

from __future__ import annotations

import itertools
import operator
import re
from functools import lru_cache

from .errors import FieldError

# Largest GF(p^k) order whose arithmetic runs on log/antilog and Zech
# tables; larger fields multiply in the polynomial basis.  The tables are
# built on a field's first arithmetic and hold O(q) ints: under this cap
# the largest take about 6 MB and 0.35 s to build (GF(3^10)), while
# polynomial-basis products in such fields cost tens of microseconds
# against under one for a table lookup.
GF_TABLE_CAP = 2 ** 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# dense univariate arithmetic on raw kernel values (lists, lowest degree
# first, no trailing zeros); K is the coefficient field's kernel
# ---------------------------------------------------------------------------

def u_trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def u_deg(f):
    return len(f) - 1


def u_add(f, g, K):
    if len(f) < len(g):
        f, g = g, f
    add = K.add
    out = list(f)
    for i, b in enumerate(g):
        out[i] = add(out[i], b)
    return u_trim(out)


def u_neg(f, K):
    neg = K.neg
    return [neg(c) for c in f]


def u_sub(f, g, K):
    return u_add(f, u_neg(g, K), K)


def u_scale(f, c, K):
    if not c:
        return []
    mul = K.mul
    return [mul(a, c) for a in f]


def u_mul(f, g, K):
    if not f or not g:
        return []
    if K.__class__ is _PrimeKernel and len(f) + len(g) > 16:
        return _kronecker_mul(f, g, K.p)
    add, mul = K.add, K.mul
    out = [K.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = add(out[i + j], mul(a, b))
    return u_trim(out)


def _kronecker_mul(f, g, p):
    """Product over F_p by one int multiplication: both factors evaluated
    at 2^bits, with bits wide enough for every coefficient sum."""
    bits = ((p - 1) * (p - 1) * min(len(f), len(g))).bit_length() + 1
    fi = sum(a << (bits * i) for i, a in enumerate(f))
    gi = sum(b << (bits * i) for i, b in enumerate(g))
    prod = fi * gi
    mask = (1 << bits) - 1
    out = []
    for _ in range(len(f) + len(g) - 1):
        out.append((prod & mask) % p)
        prod >>= bits
    return u_trim(out)


def u_divmod(f, g, K):
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    f = list(f)
    dg = len(g) - 1
    inv = K.inv(g[-1])
    mul, sub = K.mul, K.sub
    q = [K.zero] * max(len(f) - dg, 0)
    while len(f) > dg:
        c = mul(f.pop(), inv)
        shift = len(f) - dg
        q[shift] = c
        for i in range(dg):
            if g[i]:
                f[shift + i] = sub(f[shift + i], mul(c, g[i]))
        u_trim(f)
    return q, f


def u_monic(f, K):
    return u_scale(f, K.inv(f[-1]), K) if f else f


def u_gcd(f, g, K):
    while g:
        f, g = g, u_divmod(f, g, K)[1]
    return u_monic(f, K)


def u_bezout(g, h, K):
    """s, t with s g + t h = 1 for coprime g, h: extended Euclid."""
    r0, r1 = list(g), list(h)
    s0, s1 = [K.one], []
    t0, t1 = [], [K.one]
    while r1:
        q, r = u_divmod(r0, r1, K)
        r0, r1 = r1, r
        s0, s1 = s1, u_sub(s0, u_mul(q, s1, K), K)
        t0, t1 = t1, u_sub(t0, u_mul(q, t1, K), K)
    inv = K.inv(r0[-1])
    return u_scale(s0, inv, K), u_scale(t0, inv, K)


def u_deriv(f, K):
    mul, from_int = K.mul, K.from_int
    return u_trim([mul(f[i], from_int(i)) for i in range(1, len(f))])


def u_powmod(f, n, mod, K):
    result = [K.one]
    base = u_divmod(f, mod, K)[1]
    while n:
        if n & 1:
            result = u_divmod(u_mul(result, base, K), mod, K)[1]
        n >>= 1
        if n:
            base = u_divmod(u_mul(base, base, K), mod, K)[1]
    return result


def _code_to_vec(c, p, k):
    """The k base-p digits of c, lowest first: a GF(p^k) code's
    coefficient vector (`_vec_to_code` is the inverse)."""
    out = []
    for _ in range(k):
        c, d = divmod(c, p)
        out.append(d)
    return out


def _vec_to_code(vec, p):
    c = 0
    for d in reversed(vec):
        c = c * p + d
    return c


def _is_irreducible_p(f, p):
    """Irreducibility of a monic univariate polynomial over F_p."""
    k = len(f) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    K = _PrimeKernel(p)
    x = [0, 1]
    # x^(p^k) = x mod f, and gcd(x^(p^(k/r)) - x, f) = 1 for prime r | k
    if u_sub(u_powmod(x, p ** k, f, K), x, K):
        return False
    for r in _prime_factors(k):
        diff = u_sub(u_powmod(x, p ** (k // r), f, K), x, K)
        if len(u_gcd(f, diff, K)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def _default_modulus(p: int, k: int):
    """First monic irreducible of degree k over F_p in base-p counter order."""
    if k == 1:
        return (0, 1)
    for n in range(p ** k):
        f = _code_to_vec(n, p, k) + [1]
        if _is_irreducible_p(f, p):
            return tuple(f)
    raise FieldError(f"no irreducible polynomial of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# kernels: arithmetic on raw values (int codes for GF(p^k))
#
# Every kernel has add, sub, neg, mul, inv, pow and from_int on raw values
# and the raw `zero` and `one`; a raw value is zero iff it is falsy.
# ---------------------------------------------------------------------------

class _PrimeKernel:
    """GF(p): the code is the residue."""

    __slots__ = ("p",)
    zero, one = 0, 1

    def __init__(self, p):
        self.p = p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        return pow(a, e, self.p)


class _TableKernel(_PrimeKernel):
    """GF(p^k), odd p, q <= GF_TABLE_CAP, over a primitive element alpha.

    exp[i] is the code of alpha^i for 0 <= i < 2n (n = q - 1; doubled so a
    sum of two logs needs no reduction), log[c] the discrete log of the
    nonzero code c, and zech[i] = log(1 + alpha^i), or -1 where
    1 + alpha^i = 0.  Sums take one Zech lookup: alpha^i + alpha^j =
    alpha^(i + zech[j - i]), a negative j - i wrapping through Python's
    negative indexing of the length-n Zech table.  Integers are residues
    mod p, the codes below p.
    """

    __slots__ = ("n", "exp", "log", "zech")

    def __init__(self, p, k, modulus):
        self.p = p
        self.n = n = p ** k - 1
        self.exp, self.log = _log_tables(p, k, modulus)
        exp, log = self.exp, self.log
        zech = [-1] * n
        for i in range(n):
            c = exp[i]
            # 1 + alpha^i: add one to the constant digit of the code
            c = c + 1 if c % p != p - 1 else c + 1 - p
            if c:
                zech[i] = log[c]
        self.zech = zech

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        z = self.zech[self.log[b] - la]
        return self.exp[la + z] if z >= 0 else 0

    def neg(self, a):
        # -1 = alpha^(n/2)
        return self.exp[self.log[a] + self.n // 2] if a else 0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        return self.exp[self.n - self.log[a]]

    def pow(self, a, e):
        if not a:
            return 0 if e else 1
        return self.exp[self.log[a] * e % self.n]


class _BinaryTableKernel(_TableKernel):
    """GF(2^k), q <= GF_TABLE_CAP: sums are XOR, so no Zech table."""

    __slots__ = ()

    def __init__(self, p, k, modulus):
        self.p = 2
        self.n = 2 ** k - 1
        self.exp, self.log = _log_tables(p, k, modulus)
        self.zech = None

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a


class _PolyKernel(_PrimeKernel):
    """GF(p^k) above GF_TABLE_CAP: codes are decoded to coefficient
    vectors and multiplied in the polynomial basis."""

    __slots__ = ("k", "modulus", "fp")

    def __init__(self, p, k, modulus):
        self.p, self.k, self.modulus = p, k, list(modulus)
        self.fp = _PrimeKernel(p)

    def _vec(self, c):
        return u_trim(_code_to_vec(c, self.p, self.k))

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        return _vec_to_code(u_add(self._vec(a), self._vec(b), self.fp), self.p)

    def neg(self, a):
        return _vec_to_code(u_neg(self._vec(a), self.fp), self.p)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        fp = self.fp
        prod = u_mul(self._vec(a), self._vec(b), fp)
        return _vec_to_code(u_divmod(prod, self.modulus, fp)[1], self.p)

    def inv(self, a):
        return _vec_to_code(u_bezout(self._vec(a), self.modulus, self.fp)[0],
                            self.p)

    def pow(self, a, e):
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _log_tables(p, k, modulus):
    """(exp, log) over the primitive element alpha of lowest code >= p.

    Low codes are low-degree polynomials, so the walk alpha^i ->
    alpha^(i+1) costs one multiplication of packed ints and deg alpha
    reduction steps, plus the O(k) digit read-out for odd p."""
    q = p ** k
    n = q - 1
    mod = list(modulus)
    cofactors = [n // r for r in _prime_factors(n)]
    fp = _PrimeKernel(p)
    for code in range(p, q):
        alpha = u_trim(_code_to_vec(code, p, k))
        if all(u_powmod(alpha, e, mod, fp) != [1] for e in cofactors):
            break
    exp = [0] * (2 * n)
    log = [0] * q
    d = len(alpha) - 1
    if p == 2:
        # bit j of the code is the coefficient of x^j; products are
        # carry-less
        shifts = [s for s, a in enumerate(alpha) if a]
        m = _vec_to_code(mod, 2)
        v = 1
        for i in range(n):
            exp[i] = exp[i + n] = v
            log[v] = i
            w = 0
            for s in shifts:
                w ^= v << s
            for top in range(k + d - 1, k - 1, -1):
                if w >> top & 1:
                    w ^= m << (top - k)
            v = w
        return exp, log
    # digit j sits in bits [b j, b (j + 1)) of a packed int, wide enough
    # for the sums of one product and its reduction without carries
    b = ((2 * k + 1) * (p - 1) ** 2).bit_length()
    slot = (1 << b) - 1
    packed_alpha = sum(a << (b * s) for s, a in enumerate(alpha))
    negmod = sum(-c % p << (b * j) for j, c in enumerate(mod[:k]))
    low = (1 << (b * k)) - 1
    v, c = 1, 1
    for i in range(n):
        exp[i] = exp[i + n] = c
        log[c] = i
        w = v * packed_alpha
        for top in range(k + d - 1, k - 1, -1):
            lead = (w >> (b * top) & slot) % p
            if lead:
                w += lead * negmod << (b * (top - k))
        w &= low
        v = c = 0
        for j in range(b * (k - 1), -1, -b):
            digit = (w >> j & slot) % p
            c = c * p + digit
            v = v << b | digit
    return exp, log


# unbounded: a process meets few distinct fields, and evicting a table
# would only mean building it again
@lru_cache(maxsize=None)
def _build_kernel(p, k, modulus):
    if k == 1:
        return _PrimeKernel(p)
    if p ** k > GF_TABLE_CAP:
        return _PolyKernel(p, k, modulus)
    return (_BinaryTableKernel if p == 2 else _TableKernel)(p, k, modulus)


class _LazyKernel:
    """A GF descriptor's kernel until its first arithmetic, which builds
    (or fetches) the real one and installs it on the descriptor."""

    __slots__ = ("field",)
    zero, one = 0, 1

    def __init__(self, field):
        self.field = field

    def __getattr__(self, name):
        return getattr(self.field.kernel, name)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

class FieldDescriptor:
    """Immutable description of a supported base field.

    kind == "gf":      GF(p^k) with stored irreducible defining polynomial.
    kind == "ratfunc": F_p(t1..tm), m >= 0 named transcendentals.
    """

    __slots__ = ("kind", "p", "k", "modulus", "gen_name", "tvars",
                 "_ring", "_spec", "_kernel")

    def __init__(self, kind, p, k=1, modulus=None, gen_name="g", tvars=()):
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        self.kind = kind
        self.p = p
        if kind == "gf":
            if k < 1:
                raise FieldError("extension degree must be >= 1")
            self.k = k
            if modulus is None:
                modulus = _default_modulus(p, k)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise FieldError("defining polynomial must be monic of degree k")
            if not _is_irreducible_p(list(modulus), p):
                raise FieldError("defining polynomial is reducible")
            self.modulus = modulus
            self.gen_name = gen_name
            self.tvars = ()
            self._ring = None
            self._kernel = _LazyKernel(self)
        elif kind == "ratfunc":
            from .polys import PolyRing, _RatFuncKernel
            tvars = tuple(tvars)
            if len(set(tvars)) != len(tvars):
                raise FieldError("duplicate transcendental names")
            for name in tvars:
                if not (name[:1].isalpha() or name[:1] == "_") \
                        or _WORD.fullmatch(name) is None:
                    raise FieldError(
                        f"transcendental name {name!r} is not an identifier")
            self.k = 1
            self.modulus = None
            self.gen_name = None
            self.tvars = tvars
            self._ring = PolyRing(FieldDescriptor("gf", p, 1), tvars)
            self._kernel = _RatFuncKernel(self._ring)
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        self._spec = self._make_spec()

    def _make_spec(self):
        if self.kind == "gf":
            return f"GF({self.p},{self.k},{_gf_poly_str(self.modulus, self.gen_name)})"
        return f"Fp({self.p};{','.join(self.tvars)})"

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldDescriptor)
                                 and self._spec == other._spec)

    def __hash__(self):
        return hash(self._spec)

    def __repr__(self):
        return f"FieldDescriptor({self._spec})"

    # immutable: a copy is the descriptor itself, a pickle its spec (a copy
    # slot by slot would call `_LazyKernel.__getattr__` on an unset slot)
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return make_field, (self._spec,)

    @property
    def spec(self):
        return self._spec

    @property
    def kernel(self):
        """The arithmetic on raw values (built on first use for GF)."""
        kern = self._kernel
        if kern.__class__ is _LazyKernel:
            kern = self._kernel = _build_kernel(self.p, self.k, self.modulus)
        return kern

    @property
    def size(self):
        """Number of elements; None for infinite fields."""
        if self.kind == "gf":
            return self.p ** self.k
        return self.p if not self.tvars else None

    @property
    def imperfection_exponent(self):
        """m with [K : K^p] = p^m."""
        return len(self.tvars) if self.kind == "ratfunc" else 0

    @property
    def is_perfect(self):
        return self.imperfection_exponent == 0

    # -- element construction ---------------------------------------------

    def zero(self):
        return _scalar(self, self._kernel.zero)

    def one(self):
        return _scalar(self, self._kernel.one)

    def from_int(self, n: int) -> "FieldScalar":
        if self.kind == "gf":
            return _scalar(self, n % self.p)
        return _scalar(self, self._kernel.from_int(n))

    def generator(self) -> "FieldScalar":
        """The polynomial-basis generator of GF(p^k)."""
        if self.kind != "gf":
            raise FieldError("generator() is for GF(p^k) fields")
        return _scalar(self, self.p if self.k > 1 else 1)

    def gens(self):
        """The transcendental generators of F_p(t..) as scalars."""
        if self.kind != "ratfunc":
            raise FieldError("gens() is for rational-function fields")
        ring = self._ring
        return tuple(_scalar(self, self._kernel.frac(ring.var(v), ring.one()))
                     for v in self.tvars)

    def gen(self, name: str) -> "FieldScalar":
        return self.gens()[self.tvars.index(name)]

    def parse(self, text: str) -> "FieldScalar":
        return parse_scalar(text, self)


def _gf_poly_str(coeffs, name):
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}{name}" if e == 1 else f"{head}{name}^{e}")
    return "+".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class FieldScalar:
    """An element of a FieldDescriptor: the field and its raw `value`, on
    which the field's kernel computes (an int code for GF(p^k), a reduced
    pair (numer, denom) for F_p(t..)).  `FieldScalar(field, rep)` takes a
    coefficient vector, or any pair of polynomials over GF(p)[t..] with a
    nonzero denominator, which it reduces."""

    __slots__ = ("field", "value", "_rep")

    def __init__(self, field: FieldDescriptor, rep):
        self.field = field
        if field.kind == "gf":
            rep = tuple(c % field.p for c in rep)
            if len(rep) != field.k:
                raise FieldError("coefficient vector length mismatch")
            self.value = _vec_to_code(rep, field.p)
            self._rep = rep
        else:
            self.value = field._kernel.frac(*rep)
            self._rep = None

    @property
    def code(self):
        """The int code of a GF(p^k) scalar."""
        return self.value

    @property
    def rep(self):
        """GF(p^k): the coefficient tuple over the polynomial basis, lowest
        degree first; F_p(t..): the reduced pair (numer, denom) of
        MultiPolys over GF(p)[t..], denom monic under lex."""
        f = self.field
        if f.kind != "gf":
            return self.value
        rep = self._rep
        if rep is None:
            rep = self._rep = tuple(_code_to_vec(self.value, f.p, f.k))
        return rep

    # -- helpers -----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, FieldScalar):
            if isinstance(other, int):
                return self.field.from_int(other)
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            raise FieldError("mixed-field arithmetic")
        return other

    def is_zero(self):
        return not self.value

    def __bool__(self):
        return bool(self.value)

    def is_one(self):
        return self.value == self.field._kernel.one

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        f = self.field
        if other.__class__ is not FieldScalar or other.field is not f:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        return _scalar(f, f._kernel.add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return _scalar(f, f._kernel.neg(self.value))

    def __sub__(self, other):
        f = self.field
        if other.__class__ is not FieldScalar or other.field is not f:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        return _scalar(f, f._kernel.sub(self.value, other.value))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not FieldScalar or other.field is not f:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        return _scalar(f, f._kernel.mul(self.value, other.value))

    __rmul__ = __mul__

    def inverse(self):
        if not self.value:
            raise ZeroDivisionError("field scalar inverse of zero")
        f = self.field
        return _scalar(f, f._kernel.inv(self.value))

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        f = self.field
        return _scalar(f, f._kernel.pow(self.value, n))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldScalar):
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            return False
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"<{self} in {self.field.spec}>"

    def __str__(self):
        if self.field.kind == "gf":
            return _gf_poly_str(self.rep, self.field.gen_name)
        num, den = self.value
        num = _ratpoly_str(num, self.field)
        if den.is_constant():
            return num
        den = _ratpoly_str(den, self.field)
        if "+" in num or "-" in num[1:]:
            num = f"({num})"
        if "+" in den or "-" in den[1:] or "*" in den or "^" in den:
            den = f"({den})"
        return f"{num}/{den}"


_new_scalar = object.__new__


def _scalar(field, value):
    """The scalar with the given raw value (no validation)."""
    x = _new_scalar(FieldScalar)
    x.field = field
    x.value = value
    x._rep = None
    return x


def _ratpoly_str(poly, field):
    terms = sorted(poly.terms.items(), reverse=True)
    if not terms:
        return "0"
    parts = []
    for exps, ci in terms:
        factors = []
        for name, e in zip(field.tvars, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(ci))
        elif ci == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{ci}*" + "*".join(factors))
    return "+".join(parts)


# ---------------------------------------------------------------------------
# field specification / scalar literal parsing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def make_field(spec: str) -> FieldDescriptor:
    """Build a field from a spec string: GF(p,k[,poly]) or Fp(p; t,s,...).
    Interned: the same spec text returns the same descriptor, so the
    modulus is tested for irreducibility once and equal descriptors
    compare by identity; a bad spec raises on every call."""
    text = spec.strip()
    if text.startswith("GF(") and text.endswith(")"):
        inner = text[3:-1]
        parts = _split_top(inner, ",")
        if len(parts) not in (2, 3):
            raise FieldError(f"bad field spec {spec!r}")
        p, k = _spec_int(parts[0], spec), _spec_int(parts[1], spec)
        if len(parts) == 2:
            return FieldDescriptor("gf", p, k)
        gen_name, coeffs = _parse_gf_modulus(parts[2], p)
        return FieldDescriptor("gf", p, k, modulus=coeffs, gen_name=gen_name)
    if text.startswith("Fp(") and text.endswith(")"):
        inner = text[3:-1]
        if ";" not in inner:
            raise FieldError(f"bad field spec {spec!r} (missing ';')")
        head, tail = inner.split(";", 1)
        p = _spec_int(head, spec)
        names = tuple(n.strip() for n in tail.split(",") if n.strip())
        if not names:
            # F_p with an empty transcendence basis is the prime field
            return FieldDescriptor("gf", p, 1)
        return FieldDescriptor("ratfunc", p, tvars=names)
    raise FieldError(f"unrecognized field spec {spec!r}")


def _spec_int(text, spec):
    try:
        return int(text)
    except ValueError:
        raise FieldError(f"bad field spec {spec!r}: {text.strip()!r} "
                         "is not an integer") from None


def _split_top(text, sep):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [s.strip() for s in parts]


def _parse_gf_modulus(text, p):
    """Parse a defining polynomial in a single variable; returns (name, coeffs)."""
    names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text))
    if len(names) != 1:
        raise FieldError(f"defining polynomial must use one variable: {text!r}")
    name = names.pop()
    K = FieldDescriptor("ratfunc", p, tvars=(name,))
    num, den = parse_scalar(text, K).value
    if not den.is_constant():
        raise FieldError(f"defining polynomial must be a polynomial: {text!r}")
    coeffs = [0] * (1 + max((e for (e,) in num.terms), default=0))
    for (e,), c in num.terms.items():
        coeffs[e] = c
    return name, coeffs


# \s and \w match exactly str.isspace() and (str.isalnum() or "_")
_WORD = re.compile(r"\w*")
# The tokens of the shared grammar: a run of decimal digits, a word that
# does not start with one, or any other single non-space character.
_TOKEN = re.compile(r"\d+|[^\W\d]\w*|\S")

# Deepest parenthesis nesting any reader takes.  Each level costs the
# recursive descent over the token list five stack frames, and nine for
# `lam(` in a formula (found by bisecting sys.setrecursionlimit), so at
# this depth a reader stays under 600 frames, well inside Python's
# default recursion limit of 1000.
MAX_NESTING = 64


class _Parser:
    """Recursive descent over + - * / ^, parentheses, integer literals and
    names: the one text grammar of scalars, polynomials, GF(p^k) moduli
    and formula terms.  The text is scanned once, by one regex, into
    `toks` (ending in "", the end of the text), and the descent indexes
    that list; where token i starts, `offset(i)`, is found by the same
    regex when a message or an adjacency test first asks.  A leading minus
    negates the first term of a sum, any other unary minus the factor
    after it; a chain of minuses is read by a loop.  Parentheses nest at
    most MAX_NESTING deep.  Subclasses build the values: `number`,
    `symbol`, `divide`, `power` and `exponent`, and `add`, `sub`, `mul`,
    `neg` and `is_zero`, which default to the values' own operators;
    `what` and `error` name the input in error messages."""

    what, error = "scalar literal", FieldError
    chained_powers = False

    def __init__(self, text, target):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")
        self.i = 0
        self.depth = 0
        self.target = target
        self._offsets = None

    def parse(self):
        v = self.expr()
        if self.toks[self.i]:
            raise self.error(f"trailing input in {self.what} {self.text!r}")
        return v

    def offset(self, i=None):
        """Where token i (by default the next one) starts in the text."""
        if self._offsets is None:
            self._offsets = [m.start() for m in _TOKEN.finditer(self.text)]
            self._offsets.append(len(self.text))
        return self._offsets[self.i if i is None else i]

    # by default values combine by their operators (builtins take no self)
    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg

    def is_zero(self, v):
        return v.is_zero()

    def expr(self):
        toks = self.toks
        if toks[self.i] == "-":
            self.i += 1
            v = self.neg(self.term())
        else:
            v = self.term()
        while True:
            tok = toks[self.i]
            if tok == "+":
                self.i += 1
                v = self.add(v, self.term())
            elif tok == "-":
                self.i += 1
                v = self.sub(v, self.term())
            else:
                return v

    def term(self):
        v = self.factor()
        toks = self.toks
        while True:
            tok = toks[self.i]
            if tok == "*":
                self.i += 1
                v = self.mul(v, self.factor())
            elif tok == "/":
                self.i += 1
                d = self.factor()
                if self.is_zero(d):
                    raise self.error(f"division by zero in {self.text!r}")
                v = self.divide(v, d)
            else:
                return v

    def factor(self):
        toks = self.toks
        minuses = 0
        while toks[self.i] == "-":
            self.i += 1
            minuses += 1
        v = self.atom()
        while toks[self.i] == "^":
            self.i += 1
            n = self.exponent()
            if n < 0 and self.is_zero(v):
                raise self.error(f"division by zero in {self.text!r}")
            v = self.power(v, n)
            if not self.chained_powers:
                break
        for _ in range(minuses):
            v = self.neg(v)
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
        tok = self.toks[self.i]
        self.i += 1
        if tok == "(":
            v = self.inside(self.expr)
            if self.toks[self.i] != ")":
                raise self.error(f"unbalanced parentheses in {self.text!r}")
            self.i += 1
            return v
        if tok.isdecimal():
            return self.number(int(tok))
        head = tok[:1]
        if head.isalpha() or head == "_":
            return self.symbol(tok)
        raise self.error(f"unexpected character {head!r} in {self.what}")

    def integer(self, signed=False, message="expected integer"):
        toks, i = self.toks, self.i
        tok = toks[i]
        if (signed and tok == "-" and toks[i + 1].isdecimal()
                and self.offset(i + 1) == self.offset(i) + 1):
            self.i = i + 2
            return -int(toks[i + 1])
        if not tok.isdecimal():
            raise self.error(message)
        self.i = i + 1
        return int(tok)

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


def parse_scalar(text: str, field: FieldDescriptor) -> FieldScalar:
    return _Parser(text, field).parse()


# ---------------------------------------------------------------------------
# characteristic-p structure maps
# ---------------------------------------------------------------------------

def frobenius(x: FieldScalar) -> FieldScalar:
    """x ^ p."""
    return x ** x.field.p


def pth_root(x: FieldScalar):
    """The unique y with y^p = x when x is a p-th power, else None.

    GF(p^k) is perfect, so the root always exists.  For F_p(t..) membership
    in K^p is read off the canonical form: all exponents of the reduced
    numerator and denominator divisible by p (prime-field coefficients are
    automatically p-th powers).
    """
    field = x.field
    p = field.p
    if field.kind == "gf":
        # Frobenius has order k; its inverse is the (k-1)-st power.
        return x ** (p ** (field.k - 1)) if field.k > 1 else x
    root = field.kernel.pth_root(x.value)
    return None if root is None else _scalar(field, root)


def lambda0(x: FieldScalar) -> FieldScalar:
    """Inverse of Frobenius on p-th powers, identically 0 elsewhere."""
    r = pth_root(x)
    return r if r is not None else x.field.zero()


def is_pth_power(x: FieldScalar) -> bool:
    return pth_root(x) is not None


def p_components(x: FieldScalar) -> dict:
    """Decompose x = sum_a comp_a^p * t^a over the standard monomial
    K^p-basis {t^a : 0 <= a_i < p} of F_p(t..).

    Returns {exponent tuple a: comp_a}.  For perfect fields the only
    component is {(): pth_root(x)}.
    """
    field = x.field
    p = field.p
    if field.is_perfect:
        return {(): pth_root(x)}
    num, den = x.value
    # x = num * den^(p-1) / den^p; split the numerator by residues mod p.
    buckets = {}
    for exps, c in (num * den ** (p - 1)).terms.items():
        a = tuple(e % p for e in exps)
        buckets.setdefault(a, {})[tuple(e // p for e in exps)] = c
    # prime-field coefficients equal their own p-th roots
    kernel, ring = field.kernel, field._ring
    return {a: _scalar(field, kernel.frac(ring.from_raw(terms), den))
            for a, terms in buckets.items()}


def partial(x: FieldScalar, name: str) -> FieldScalar:
    """The partial derivative d x / d name for a transcendental of
    F_p(t..), by the quotient rule; GF(p^k) scalars have derivative 0."""
    field = x.field
    if field.kind == "gf":
        return field.zero()
    num, den = x.value
    dnum = num.partial(name) * den - num * den.partial(name)
    return _scalar(field, field.kernel.frac(dnum, den * den))


def evaluate_scalar(x: FieldScalar, images: dict, target: FieldDescriptor):
    """Evaluate an F_p(t..) scalar at a point of a target field.

    images maps each transcendental name to a target FieldScalar; returns
    None when the denominator vanishes at the point.
    """
    field = x.field
    if field.kind == "gf":
        raise FieldError("evaluate_scalar is for rational-function scalars")
    if field.p != target.p:
        raise FieldError("characteristic mismatch in evaluation")

    def lift(c):
        return target.from_int(c.value)

    num, den = x.value
    den = den.evaluate(images, lift)
    if den.is_zero():
        return None
    return num.evaluate(images, lift) / den


def scalar_height(x: FieldScalar) -> int:
    """max(total degree of numerator, total degree of denominator)."""
    if x.field.kind == "gf":
        return 0
    return max(poly.total_degree() for poly in x.value)


# ---------------------------------------------------------------------------
# deterministic element enumeration
# ---------------------------------------------------------------------------

def iter_gf_elements(field: FieldDescriptor):
    """All elements of GF(p^k) in base-p counter order (constants first)."""
    for n in range(field.p ** field.k):
        yield _scalar(field, n)


def _iter_polys(field, deg, monic=False):
    """Nonzero ring polynomials of total degree exactly `deg`, in a
    deterministic order (monic: lex-leading coefficient 1).

    Coefficient vectors run as little-endian base-p counters over the
    monomial list sorted ascending by (total degree, exponents).
    """
    p = field.p
    ring = field._ring
    m = len(field.tvars)
    monos = sorted(
        (e for e in itertools.product(range(deg + 1), repeat=m) if sum(e) <= deg),
        key=lambda e: (sum(e), e))
    for n in range(1, p ** len(monos)):
        coeffs = []
        v = n
        for _ in monos:
            coeffs.append(v % p)
            v //= p
        top = [c for e, c in zip(monos, coeffs) if sum(e) == deg]
        if deg > 0 and not any(top):
            continue
        poly = ring.from_raw(dict(zip(monos, coeffs)))
        if monic and poly.terms[max(poly.terms)] != 1:
            continue
        yield poly


def iter_ratfunc_elements(field: FieldDescriptor, bound: int):
    """All of F_p(t..) with height <= bound, in a deterministic order:
    by height, then denominator (monic, by degree), then numerator."""
    p = field.p
    if not field.tvars:
        yield from iter_gf_elements(FieldDescriptor("gf", p, 1))
        return
    ring, frac = field._ring, field.kernel.frac
    for h in range(bound + 1):
        for dd in range(h + 1):
            for den in _iter_polys(field, dd, monic=True):
                for dn in range(h + 1):
                    if max(dn, dd) != h:
                        continue
                    if dn == 0:
                        nums = [ring.from_int(c)
                                for c in range(0 if h == 0 else 1, p)]
                    else:
                        nums = _iter_polys(field, dn)
                    for num in nums:
                        x = frac(num, den)
                        # a common factor shows as a smaller denominator
                        if x[1] == den:
                            yield _scalar(field, x)


def iter_elements(field: FieldDescriptor, bound: int = 0):
    if field.kind == "gf":
        return iter_gf_elements(field)
    return iter_ratfunc_elements(field, bound)
