"""Affine varieties over the supported base fields.

Varieties are presented by generators of an ideal in a fixed variable
list.  The module decides K-irreducibility and absolute irreducibility
for an explicit instance class (presentations that peel to at most one
generator, loci), enumerates rational points, tests dominance of
rational maps by elimination, and carries the characteristic-p structure
of function fields, decided exactly.  K(V) is entered only through one
gate (`_require_prime`), which needs a recorded fact that the presented
ideal is prime.  A presented V is peeled once (`peel_graph`) into free
coordinates, each removed one a quotient P / Q of polynomials in them,
and residual equations.  Where at most one equation G is left, every
function crosses once into A = GF(q)[t.., x..] (`_cross`): p-th roots
come from the basis 1, s^p, .. of K(V) over a rational subfield, and
p-independence from the rank of the Jacobian rows over A, modulo G when
there is one.  Otherwise both are decided by the rank of the
differentials, polynomial rows over K[x..] modulo the Groebner basis of
the presented ideal.  Every rank modulo an ideal is
`linalg.rank_modulo`.

`_hypersurface` is the one verdict on V(f), f the generator left after
peeling, and says whether (f) is prime; `is_irreducible`,
`is_absolutely_irreducible` and `factor.is_absolutely_irreducible_poly`
read it.  A primitive linear f needs no factoring.  A plane curve with
no monomial factor and an integrally indecomposable Newton polygon is
absolutely irreducible over every K (Ostrowski; Gao, J. Algebra 237,
2001).  Otherwise the checked `factor._factor_list` decides, over K and,
for the absolute verdict, over GF(q^s).  Only `_decide_irreducible`,
from that verdict, and `_eliminate_locus` write V._flags["prime"].
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import lambdafn, linalg, polys
from .errors import (CharpkError, FieldError, PreconditionError,
                     ResourceExhausted, RingError, UnsupportedInstance)
from .fields import FieldDescriptor, FieldScalar, iter_elements, partial
from .polys import (Ideal, MultiPoly, PolyRing, _prem, join_coeffs,
                    joined_ring, mp_exact_div, mp_gcd, mp_pth_root,
                    normal_form, split_coeffs, u_to_mp)


class AffineVariety:
    """V(I) in K^n with cached structure flags."""

    __slots__ = ("field", "vars", "ideal", "_flags")

    def __init__(self, field: FieldDescriptor, variables, gens):
        self.field = field
        self.vars = tuple(variables)
        if isinstance(gens, Ideal):
            self.ideal = gens
        else:
            ring = PolyRing(field, self.vars)
            out = []
            for g in gens:
                if isinstance(g, str):
                    g = ring.parse(g)
                elif g.ring.vars != self.vars or g.ring.field != field:
                    g = g.rename(ring)
                out.append(g)
            self.ideal = Ideal(ring, out)
        self._flags = {}

    @property
    def ring(self) -> PolyRing:
        return self.ideal.ring

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.ideal.gens) or "0"
        return f"V({gens}) in K[{', '.join(self.vars)}]"

    def is_empty(self) -> bool:
        if "empty" not in self._flags:
            gens = self.ideal.gens
            # one nonzero f: (f) = (1) iff f is constant (Nullstellensatz)
            self._flags["empty"] = (
                gens[0].is_constant() if len(gens) == 1 and gens[0].terms
                else self.ideal.is_trivial())
        return self._flags["empty"]

    def require_nonempty(self):
        if self.is_empty():
            raise PreconditionError("operation requires a nonempty variety")

    def contains_point(self, point) -> bool:
        """Whether every generator vanishes at point.  Over F_p(t..) a
        generator is N / d over GF(p)[t.., x..] (`join_coeffs`, once per
        variety), and N vanishes at x = num / den iff
        sum_e N_e prod_i num_i^e_i den_i^(D_i - e_i) = 0, D_i the degree
        of N in x_i: one polynomial over GF(p)[t..], no gcd."""
        K = self.field
        if K.kind == "gf" or any(x.field != K for x in point):
            values = dict(zip(self.vars, point))
            return all(g.evaluate(values).is_zero()
                       for g in self.ideal.gens)
        if "cleared" not in self._flags:
            joined = joined_ring(self.ring)
            hs = [split_coeffs(join_coeffs(g, joined)[0], joined.one(),
                               self.ring) for g in self.ideal.gens]
            self._flags["cleared"] = [
                (h, [h.degree_in(v) for v in self.vars]) for h in hs]
        cleared = self._flags["cleared"]
        top = [max(ds) for ds in zip(*(degs for _, degs in cleared))]
        powers = [(_powers(num, n), None if den.is_constant()
                   else _powers(den, n))
                  for (num, den), n in zip((x.value for x in point), top)]
        for h, degs in cleared:
            acc = K._ring.zero()
            for e, (c, _) in h.terms.items():
                for (nums, dens), ei, di in zip(powers, e, degs):
                    if ei:
                        c = c * nums[ei]
                    if dens and di > ei:
                        c = c * dens[di - ei]
                acc = acc + c
            if acc.terms:
                return False
        return True

    def function_field_elem(self, num, den=None) -> "FunctionFieldElem":
        ring = self.ring
        if isinstance(num, str):
            num = ring.parse(num)
        if den is None:
            den = ring.one()
        elif isinstance(den, str):
            den = ring.parse(den)
        return FunctionFieldElem(self, num, den)


def _powers(x, n):
    """[1, x, .., x^n]."""
    out = [x.ring.one()]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


# ---------------------------------------------------------------------------
# graph peeling: a generator A*v + B that is a graph over the other
# variables removes v; full peeling exhibits V as open in an affine space
# ---------------------------------------------------------------------------

class PeeledPresentation(NamedTuple):
    """V rewritten over free variables: every removed variable v carries a
    pair (P, Q) of polynomials in the free ones with x_v = P / Q; `gens`
    are the residual equations among the free variables (empty = V is
    open in an affine space)."""

    variety: AffineVariety
    free_vars: tuple
    gens: list
    subst: dict


def peel_graph(V: AffineVariety) -> PeeledPresentation:
    """V peeled one generator g = A*v + B (B free of v) at a time, once per
    variety (kept in V._flags).  A constant A is tried first: x_v = -B / A
    goes into the other generators.  Otherwise g peels when v is in no
    other generator and (others, A, B) is the unit ideal: then A has no
    zero on V, K[V] = K[others][1/A], and the closure of V's image is
    V(others : A^inf) (Cox, Little and O'Shea, Ideals, Varieties, and
    Algorithms, ch. 4 sec. 4), so the others give way to generators of
    that saturation and x_v = -B / A.  Each x_v is put into the earlier
    pairs (`_put_in`)."""
    if "peel" in V._flags:
        return V._flags["peel"]
    ring = V.ring
    gens = [g for g in V.ideal.gens if not g.is_zero()]
    subst = {}
    while (step := _peel_step(ring, gens)) is not None:
        gi, v, A, B = step
        others = gens[:gi] + gens[gi + 1:]
        if A.is_constant():
            P, Q = B.scale(-A.constant_value().inverse()), ring.one()
            others = [h.substitute({v: P}) for h in others]
        else:
            P, Q = -B, A
            if others:
                others = _inverted(others, A, "sat_aux").eliminate(
                    ("sat_aux",)).gens
        for w, (R, S) in subst.items():
            (R, rq), (S, sq) = _put_in(R, v, P, Q), _put_in(S, v, P, Q)
            subst[w] = (R * sq, S * rq)
        subst[v] = (P, Q)
        gens = [h for h in others if not h.is_zero()]
    V._flags["peel"] = PeeledPresentation(
        V, tuple(v for v in V.vars if v not in subst), gens, subst)
    return V._flags["peel"]


def _peel_step(ring, gens):
    """(index, v, A, B) of the first generator A*v + B that peels, or None:
    every constant A before any other.  A peeled v is in no generator."""
    later = []
    for gi, g in enumerate(gens):
        for v in ring.vars:
            if g.degree_in(v) == 1:
                parts = g.coeffs_in(v)
                A, B = parts[1], parts.get(0, ring.zero())
                if A.is_constant():
                    return gi, v, A, B
                later.append((gi, v, A, B))
    for gi, v, A, B in later:
        others = gens[:gi] + gens[gi + 1:]
        if not any(h.degree_in(v) for h in others) and \
                Ideal(ring, others + [A, B]).is_trivial():
            return gi, v, A, B
    return None


def _inverted(gens, f: MultiPoly, aux: str) -> Ideal:
    """The ideal (gens, aux*f - 1) in the ring of f with aux added."""
    ring = f.ring
    work = PolyRing(ring.field, ring.vars + (aux,))
    return Ideal(work, [g.rename(work) for g in gens]
                 + [work.var(aux) * f.rename(work) - work.one()])


def _put_in(N: MultiPoly, v: str, P: MultiPoly, q: MultiPoly):
    """(M, q^D) with N = M / q^D once x_v = P / q, D the x_v-degree of N:
    Horner's rule on the homogenized N = sum_k N_k x_v^k, as
    sum_k N_k P^k q^(D-k)."""
    parts = N.coeffs_in(v)
    top = max(parts, default=0)
    if not top:
        return N, q.ring.one()
    unit = q == q.ring.one()
    acc, qpow = parts[top], None
    for k in range(top - 1, -1, -1):
        acc = acc * P
        if not unit:
            qpow = q if qpow is None else qpow * q
        if k in parts:
            acc = acc + (parts[k] if unit else parts[k] * qpow)
    return acc, q if unit else qpow


# ---------------------------------------------------------------------------
# crossing into A = GF(q)[t.., x..] (`polys.joined_ring`): every function
# f = a / b on V with a, b in A and the peeled variables put in
# ---------------------------------------------------------------------------

def _peeled(V: AffineVariety):
    """(peel_graph(V), A, images), kept in V._flags: images maps each
    peeled variable v to its pair joined into A, (P, q) with x_v = P / q."""
    if "peeled" not in V._flags:
        peel = peel_graph(V)
        joined = joined_ring(V.ring)
        images = {}
        for v, (P, Q) in peel.subst.items():
            (P, d), (Q, e) = (join_coeffs(x, joined) for x in (P, Q))
            images[v] = (P * e, d * Q)
        V._flags["peeled"] = (peel, joined, images)
    return V._flags["peeled"]


def _join(f: MultiPoly, joined, images):
    """(N, d) in joined with f = N / d on V: f joined (see
    `polys.join_coeffs`), then each x_v = P / q put in (`_put_in`), d
    multiplied by q^D.  The coefficients are reduced once per crossing."""
    N, d = join_coeffs(f, joined)
    for v, (P, q) in images.items():
        N, qpow = _put_in(N, v, P, q)
        d = d * qpow
    return N, d


def _cross(f: "FunctionFieldElem"):
    """(a, b) in A with f = a / b on V, free of the peeled variables."""
    _, joined, images = _peeled(f.variety)
    (nn, nd), (dn, dd) = (_join(g, joined, images) for g in (f.num, f.den))
    if not dn.terms:
        raise FieldError("denominator vanishes identically on V")
    return nn * dd, dn * nd


# ---------------------------------------------------------------------------
# function-field elements and rational maps
# ---------------------------------------------------------------------------

def _require_prime(V: AffineVariety):
    """The one gate into K(V): the presented ideal of V must be prime, as
    only `locus` and `_decide_irreducible` record."""
    if not is_irreducible(V):
        raise PreconditionError(
            "function-field elements need a K-irreducible variety")
    if not V._flags.get("prime"):
        raise PreconditionError(
            "function-field elements need a prime presentation: the "
            "generator has a repeated factor")


class FunctionFieldElem:
    """num/den in K(V), both in normal form modulo the Groebner basis of
    the prime ideal of V, so that zero in K(V) is the zero polynomial;
    equality is cross-multiplied ideal membership."""

    __slots__ = ("variety", "num", "den")

    def __init__(self, variety: AffineVariety, num: MultiPoly,
                 den: MultiPoly):
        _require_prime(variety)
        gb = variety.ideal.groebner()
        num, den = normal_form(num, gb), normal_form(den, gb)
        if not den.terms:
            raise FieldError("denominator vanishes on the variety")
        self.variety = variety
        self.num = num
        self.den = den

    def __repr__(self):
        if self.den.is_constant():
            c = self.den.constant_value()
            return str(self.num.scale(c.inverse()))
        return f"({self.num})/({self.den})"

    def _coerce(self, other):
        if isinstance(other, FunctionFieldElem):
            if other.variety is not self.variety:
                raise RingError("function-field elements on different varieties")
            return other
        ring = self.variety.ring
        if isinstance(other, int):
            other = self.variety.field.from_int(other)
        if isinstance(other, FieldScalar):
            return FunctionFieldElem(self.variety, ring.from_scalar(other),
                                     ring.one())
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FunctionFieldElem(self.variety,
                                 self.num * o.den + o.num * self.den,
                                 self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return FunctionFieldElem(self.variety, -self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FunctionFieldElem(self.variety, self.num * o.num,
                                 self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise ZeroDivisionError("division by zero in K(V)")
        return FunctionFieldElem(self.variety, self.num * o.den,
                                 self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        base = self if n >= 0 else 1 / self
        return FunctionFieldElem(self.variety, base.num ** abs(n),
                                 base.den ** abs(n))

    def is_zero(self) -> bool:
        return not self.num.terms

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.variety.ideal.contains(
            self.num * o.den - o.num * self.den)

    def __hash__(self):
        raise TypeError("function-field elements are unhashable")

    def evaluate(self, point):
        """Value at a point of V(K), or None if the denominator vanishes."""
        values = dict(zip(self.variety.vars, point))
        d = self.den.evaluate(values)
        if d.is_zero():
            return None
        n = self.num.evaluate(values)
        return n / d


class RationalMapData:
    """W -> V by coordinate functions in K(W); checked to satisfy I(V)."""

    __slots__ = ("source", "target", "coords")

    def __init__(self, source: AffineVariety, target: AffineVariety,
                 coords):
        coords = list(coords)
        if len(coords) != len(target.vars):
            raise RingError("coordinate count does not match the target")
        for f in coords:
            if f.variety is not source:
                raise RingError("coordinate function on the wrong variety")
        for g in target.ideal.gens:
            values = dict(zip(target.vars, coords))
            img = g.evaluate(values,
                             lift=lambda c, s=source: s.function_field_elem(
                                 s.ring.from_scalar(c)))
            if not img.is_zero():
                raise RingError(
                    f"coordinates do not satisfy the target equation {g}")
        self.source = source
        self.target = target
        self.coords = coords


def projection_map(source: AffineVariety, target: AffineVariety,
                   names) -> RationalMapData:
    """The map picking out the listed source coordinates."""
    coords = [source.function_field_elem(source.ring.var(n)) for n in names]
    return RationalMapData(source, target, coords)


# ---------------------------------------------------------------------------
# locus
# ---------------------------------------------------------------------------

def locus(elems, K: FieldDescriptor, variables=None) -> AffineVariety:
    """The K-Zariski closure of the tuple: kernel of K[x..] -> K(tuple),
    by elimination.  Always K-irreducible."""
    elems = list(elems)
    n = len(elems)
    variables = tuple(variables) if variables else tuple(
        f"x{i+1}" for i in range(n))
    if len(variables) != n:
        raise RingError("variable count mismatch")
    if n == 0:
        return AffineVariety(K, (), [])
    if all(isinstance(a, FunctionFieldElem) for a in elems):
        return _locus_function_field(elems, K, variables)
    if not all(isinstance(a, FieldScalar) for a in elems):
        raise UnsupportedInstance("locus needs scalars or function-field "
                                  "elements")
    L = elems[0].field
    if any(a.field != L for a in elems):
        raise RingError("locus tuple spans several fields")
    if L == K:
        ring = PolyRing(K, variables)
        gens = [ring.var(v) - ring.from_scalar(a)
                for v, a in zip(variables, elems)]
        return AffineVariety(K, variables, gens)
    if L.kind == "ratfunc":
        return _locus_ratfunc(elems, K, variables, L)
    if L.kind == "gf" and K.kind == "gf":
        return _locus_gf(elems, K, variables, L)
    raise UnsupportedInstance("unsupported ambient algebra for locus")


def _locus_ratfunc(elems, K, variables, L):
    """Tuple of rational functions over the prime field of K."""
    if K.p != L.p:
        raise FieldError("characteristic mismatch")
    aux = tuple(f"{t}_aux" for t in L.tvars)

    def mover(work):
        values = {t: work.var(a) for t, a in zip(L.tvars, aux)}
        return lambda g: g.evaluate(values, lambda c: work.from_int(c.value))
    return _eliminate_locus(K, aux, variables, mover,
                            [a.value for a in elems])


def _locus_gf(elems, K, variables, L):
    """Elements of GF(q^k) over K = GF(q): each a_i = sum_d c_d gamma^d is
    the class of a_i(gen) in K[gen] / (minimal polynomial of gamma)."""
    if L.k % K.k != 0 or K.p != L.p:
        raise FieldError("not a subfield")
    aux = ("gen_aux",)
    ring = PolyRing(K, aux)
    lift = K.kernel.from_int
    minpoly = u_to_mp([c.value for c in _minpoly_over_subfield(L, K)],
                      ring, aux[0])
    pairs = [(u_to_mp([lift(c) for c in a.rep], ring, aux[0]), ring.one())
             for a in elems]
    return _eliminate_locus(K, aux, variables,
                            lambda work: lambda g: g.rename(work), pairs,
                            [minpoly])


def _minpoly_over_subfield(L, K):
    """Monic minimal polynomial over K of the generator gamma of L: the
    product of (x - gamma^(q^j)) for j < [L:K], q = |K|, with each
    coefficient pulled back to K by `factor.project_to_subfield`."""
    from . import factor
    q = K.p ** K.k
    gamma = L.generator()
    prod = factor.vanishing_poly([gamma ** (q ** j)
                                  for j in range(L.k // K.k)], L)
    coeffs = [factor.project_to_subfield(c, K) for c in prod]
    if any(c is None for c in coeffs):
        raise CharpkError("minimal polynomial not defined over the subfield")
    return coeffs


def _locus_function_field(elems, K, variables):
    W = elems[0].variety
    if any(f.variety is not W for f in elems):
        raise RingError("locus tuple on several varieties")
    if W.field != K:
        raise UnsupportedInstance("locus base field must match the variety")
    aux = tuple(f"{v}_aux" for v in W.vars)
    ren = dict(zip(W.vars, aux))
    return _eliminate_locus(K, aux, variables,
                            lambda work: lambda g: g.rename(work, ren),
                            [(f.num, f.den) for f in elems], W.ideal.gens)


def _eliminate_locus(K, aux, variables, mover, pairs, gens=()):
    """The locus over K of the quotients num_i / den_i of polynomials
    over K[aux] / (gens): all of them moved into the work ring
    K[aux, variables, inv_aux] by mover(work), then the generators
    v_i den_i - num_i and inv_aux prod den_i - 1 added, and aux and
    inv_aux eliminated."""
    inv = "inv_aux"
    work = PolyRing(K, aux + variables + (inv,))
    move = mover(work)
    gens, dens = [move(g) for g in gens], work.one()
    for v, (num, den) in zip(variables, pairs):
        num, den = move(num), move(den)
        gens.append(work.var(v) * den - num)
        dens = dens * den
    gens.append(work.var(inv) * dens - work.one())
    V = AffineVariety(K, variables, Ideal(work, gens).eliminate(aux + (inv,)))
    # the kernel of a map into a field is prime
    V._flags.update(irreducible=True, prime=True)
    return V


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def _linear_in_var_primitive(f: MultiPoly):
    """True if f = A*v + B with B free of v and gcd(A, B) = 1: then f is
    irreducible, and absolutely so (gcds persist under field extension)."""
    for v in sorted(f.variables_used()):
        if f.degree_in(v) == 1:
            parts = f.coeffs_in(v)
            if mp_gcd(parts[1], parts.get(0, f.ring.zero())).is_constant():
                return True
    return False


def _single_geometric_root(h: MultiPoly, var: str) -> bool:
    """h irreducible univariate: exactly one root over the closure iff h is
    x - c or an iterated p-th power of such (h(x) = g(x^p) descends on
    exponents only)."""
    d = h.degree_in(var)
    if d <= 1:
        return True
    p = h.ring.field.p
    iv = h.ring._var_index[var]
    if all(e[iv] % p == 0 for e in h.terms):
        g = MultiPoly(h.ring, {tuple(x // p if i == iv else x
                                     for i, x in enumerate(e)): c
                               for e, c in h.items()})
        return _single_geometric_root(g, var)
    return False


def is_irreducible(V: AffineVariety) -> bool:
    if "irreducible" not in V._flags:
        V.require_nonempty()
        V._flags["irreducible"] = _decide_irreducible(V, absolute=False)
    return V._flags["irreducible"]


def is_absolutely_irreducible(V: AffineVariety) -> bool:
    if "abs_irreducible" in V._flags:
        return V._flags["abs_irreducible"]
    V.require_nonempty()
    result = _decide_irreducible(V, absolute=True)
    V._flags["abs_irreducible"] = result
    if result:
        V._flags["irreducible"] = True
    return result


def _decide_irreducible(V: AffineVariety, absolute: bool) -> bool:
    """The verdict on V; whether its presented ideal is prime goes into
    V._flags: it is with no generator left after peeling, and with one,
    f, `_hypersurface(f)` says."""
    gens = peel_graph(V).gens
    if len(gens) > 1:
        raise UnsupportedInstance(
            "irreducibility is decided only where V peels to at most one "
            f"generator or is built as a locus; {len(gens)} generators "
            "remain after peeling")
    # no generator: V is open in an affine space
    verdict, V._flags["prime"] = (_hypersurface(gens[0], absolute) if gens
                                  else (True, True))
    return verdict


def _hypersurface(f: MultiPoly, absolute: bool):
    """(verdict, prime) for V(f): whether V(f) is K-irreducible, or
    absolutely irreducible, and whether (f) is prime.  A primitive linear
    f, or one certified by its Newton polygon, is absolutely irreducible
    with (f) prime; otherwise the checked `factor._factor_list(f)` decides,
    with `_single_geometric_root` in one variable and
    `factor._stays_irreducible` in two for the absolute verdict."""
    used = sorted(f.variables_used())
    if _linear_in_var_primitive(f):
        return True, True
    # factor loads only here, so a process that never factors (point
    # listing, p-independence, linear hypersurfaces) does not compile it
    from . import factor
    if len(used) == 2 and factor._polygon_indecomposable(f):
        return True, True
    if len(used) > 1 and f.ring.field.kind != "gf":
        raise UnsupportedInstance(
            "hypersurface irreducibility over F_p(t..) beyond the linear-in-a-"
            "variable and Newton-polygon classes is unsupported")
    if len(used) > 2:
        raise UnsupportedInstance(
            "absolute irreducibility beyond two variables" if absolute else
            "irreducibility for this variable count is unsupported")
    facs = factor._factor_list(f)
    prime = len(facs) == 1 and facs[0][1] == 1
    if len(facs) != 1 or not absolute:
        return len(facs) == 1, prime
    if len(used) == 1:
        return _single_geometric_root(facs[0][0], used[0]), prime
    return factor._stays_irreducible(facs[0][0]), prime


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

def _radical_contains(ideal: Ideal, f: MultiPoly) -> bool:
    """f in sqrt(I) by the auxiliary-inverse test: 1 in I + <z f - 1>."""
    if f.is_zero():
        return True
    if ideal.contains(f):
        return True
    return _inverted(ideal.gens, f, "rad_aux").is_trivial()


def is_dominant(m: RationalMapData) -> bool:
    """The pullback K[V] -> K(W) is injective: the coordinate-function
    locus ideal must be contained in the radical of I(V)."""
    if not is_irreducible(m.source):
        raise PreconditionError("dominance needs a K-irreducible source")
    J = locus(m.coords, m.source.field, m.target.vars)
    for g in J.ideal.gens:
        if not _radical_contains(m.target.ideal,
                                 g.rename(m.target.ring)):
            return False
    return True


def projection_dominant(source: AffineVariety, target: AffineVariety,
                        names) -> bool:
    """Dominance of the coordinate projection source -> target picking the
    listed source variables (no irreducibility demanded of the source)."""
    names = list(names)
    drop = [v for v in source.vars if v not in set(names)]
    J = source.ideal.eliminate(drop)
    ren = dict(zip(names, target.vars))
    for g in J.gens:
        if not _radical_contains(target.ideal, g.rename(target.ring, ren)):
            return False
    return True


# ---------------------------------------------------------------------------
# rational points
# ---------------------------------------------------------------------------

def enumerate_points(V: AffineVariety, bound=None):
    """All points of V(K): exhaustive for finite K; for F_p(t..), all
    points of coordinate height <= bound.  Deterministic order.  Testing
    more than `polys.MAX_POINT_CANDIDATES` tuples raises
    ResourceExhausted; a caller that stops early tests fewer.  More
    coordinates than that raise it too, before any is listed when a
    lower bound on their number shows it, else once cap + 1 are listed:
    each coordinate starts a candidate."""
    K = V.field
    n = len(V.vars)
    if n == 0:
        if not V.is_empty():
            yield ()
        return
    if K.kind != "gf" and bound is None:
        raise PreconditionError(
            "point enumeration over F_p(t..) needs a height bound")
    cap = polys.MAX_POINT_CANDIDATES
    if K.kind == "gf":
        least = K.p ** K.k
    elif bound >= 0:
        # the polynomials of degree <= bound alone number p^C(m + b, m);
        # an exponent of cap.bit_length() already exceeds the cap
        least = K.p ** min(math.comb(len(K.tvars) + bound, bound),
                           cap.bit_length())
    else:
        least = 0  # no height is negative
    if least > cap:
        raise ResourceExhausted(f"point enumeration past {cap} candidates")
    coords = list(itertools.islice(iter_elements(K, bound), cap + 1))
    if len(coords) > cap:
        raise ResourceExhausted(f"point enumeration past {cap} candidates")
    for count, point in enumerate(itertools.product(coords, repeat=n), 1):
        if count > cap:
            raise ResourceExhausted(
                f"point enumeration past {cap} candidates")
        if V.contains_point(point):
            yield point


# ---------------------------------------------------------------------------
# p-th powers and p-independence in K(V)
# ---------------------------------------------------------------------------

class PStructureVerdict:
    """Outcome of a p-th-power or p-independence test in K(V): `reason`
    names the exact procedure that decided it; a "root" carries a verified
    p-th root in `value` unless V peels to several generators."""

    __slots__ = ("status", "value", "reason")

    def __init__(self, status, value=None, reason=""):
        self.status = status
        self.value = value
        self.reason = reason

    def __repr__(self):
        return f"<{self.status}: {self.reason}>"


def _differential_ranks(V: AffineVariety, fs):
    """(rank of the dg, rank of the dg and the df) in Omega_{K(V)/F_p}.

    Omega_{K(V)/F_p} is spanned over K(V) by dt_1..dt_m (the
    transcendentals of K) and dx_1..dx_n, subject to dg = 0 for each
    presented generator g of I(V).  The rows dg and den^2 df are
    polynomials over V.ring, ranked modulo the Groebner basis of I(V)
    (`linalg.rank_modulo`); that the ideal is prime is checked by the
    gate into K(V) (`_require_prime`), as for every FunctionFieldElem."""
    K = V.field

    def d(poly):
        return ([poly.map_coeffs(lambda c, t=t: partial(c, t))
                 for t in K.tvars] + [poly.partial(v) for v in V.vars])

    rows = [d(g) for g in V.ideal.gens]
    for f in fs:
        # den^2 df: scaling a row keeps the rank
        rows.append([f.den * a - f.num * b
                     for a, b in zip(d(f.num), d(f.den))])
    basis = V.ideal.groebner()
    ngens = len(V.ideal.gens)
    return (linalg.rank_modulo(rows[:ngens], basis),
            linalg.rank_modulo(rows, basis))


def ppower_test(f: FunctionFieldElem) -> PStructureVerdict:
    """Is f a p-th power in K(V)?  status "root" or "absent", exactly.

    When V peels (`peel_graph`) to at most one generator G, f = a / b is
    crossed into A = GF(q)[t.., x..] (`_cross`) and written
    f = sum_k (r_k / delta) m_k^p, where r_k and delta lie in a
    polynomial ring A0 and both the m_k and the m_k^p are bases of K(V)
    over L0 = Frac(A0): without G, L0 = K(V) = Frac(A), m_0 = 1 and
    f = a / b; with G, see `_coordinates`.  f is then a p-th power iff
    every r_k / delta is one in L0, that is, iff every r_k delta^(p-1) is
    one in A0 (A0 is factorial), which "absent" answers without a gcd.
    Then also, with h the gcd of delta and the r_k, delta / h and every
    r_k / h are p-th powers in A0, and the root
    sum_k (r_k / h)^(1/p) m_k / (delta / h)^(1/p) is in lowest terms; it
    is re-verified.

    With more generators, f is a p-th power iff df = 0 in
    Omega_{K(V)/F_p} (Matsumura, Commutative Ring Theory, Thm 26.5),
    read off as a rank that df does not raise, and a "root" carries no
    value.  That the presented ideal of V is prime is checked by the gate
    into K(V) (`_require_prime`)."""
    V = f.variety
    peel, A, _ = _peeled(V)
    if len(peel.gens) > 1:
        r0, r1 = _differential_ranks(V, [f])
        return PStructureVerdict(
            "absent" if r1 > r0 else "root",
            reason=f"exact: differential rank {r1} with df, {r0} without")
    a, b = _cross(f)
    if peel.gens:
        delta, coords, where = _coordinates(a, b, peel.gens[0], A)
    else:
        delta, coords, where = (b, [(a, A.one())],
                                "K(V) is a rational function field")
    lift = delta ** (V.field.p - 1)
    if any(mp_pth_root(r * lift) is None for r, _ in coords):
        return PStructureVerdict(
            "absent", reason=f"exact: {where} and f has no p-th root there")
    h = delta
    for r, _ in coords:
        h = mp_gcd(h, r)
    den, *roots = [mp_pth_root(x if h.is_constant() else mp_exact_div(x, h))
                   for x in [delta] + [r for r, _ in coords]]
    inv = A.field.kernel.inv(den._lead()[1])
    num = sum((r * m for r, (_, m) in zip(roots, coords)), A.zero())
    g = FunctionFieldElem(V, *(split_coeffs(x._scale(inv), A.one(), V.ring)
                               for x in (num, den)))
    if not (g ** V.field.p - f).is_zero():
        raise CharpkError("p-th root verification failed")
    return PStructureVerdict("root", value=g, reason="exact root")


def _generator(G: MultiPoly, A: PolyRing):
    """(H, s): H = G made monic and joined into A, primitive over
    GF(p)[t..] and so prime in A, and a variable s of A with dH/ds != 0
    (else H would be a p-th power) and the least d = deg_s H, coordinates
    first.  The other variables are then independent, so
    K(V) = L0[s]/(H) is separable of degree d over L0 = Frac(A without s),
    a rational field."""
    H = join_coeffs(G.monic(), A)[0]
    m = len(A.vars) - len(G.ring.vars)
    s = min((v for v in A.vars[m:] + A.vars[:m] if H.partial(v).terms),
            key=H.degree_in)
    return H, s


def _coordinates(a: MultiPoly, b: MultiPoly, G: MultiPoly, A: PolyRing):
    """(delta, [(r_k, s^k)..], where) with a / b = sum_k (r_k / delta)
    s^(pk) in K(V) = Frac(A / (H)), r_k and delta free of s, for
    (H, s) = `_generator(G, A)`; `where` describes K(V).

    K(V) = L0[s]/(H) separable of degree d gives K(V) = L0(s^p), with
    L0-basis 1, s^p, .., s^(p(d-1)) (Mac Lane; Lang, Algebra, VIII 4).
    The coordinates f_k of f = a / b = sum_k f_k s^(pk) solve
    sum_k f_k b s^(pk) = a, one system over A on pseudo-remainders modulo
    H, all taken with the same power of lc_s(H); fraction-free
    elimination leaves f_k = r_k / delta."""
    H, s = _generator(G, A)
    d, p = H.degree_in(s), A.field.p
    count = max(b.degree_in(s) + p * (d - 1), a.degree_in(s)) - d + 1
    cols = [_prem(F, H, s, count).coeffs_in(s)
            for F in [b * A.var(s) ** (p * k) for k in range(d)] + [a]]
    rows = [[col.get(j, A.zero()) for col in cols] for j in range(d)]
    if len(linalg.fraction_free_echelon(rows, d)) < d:
        raise CharpkError("the p-th powers of s are dependent modulo G")
    where = f"K(V) = L0({s}^{p}) of degree {d} over a rational L0"
    return rows[0][0], [(row[d], A.var(s) ** k)
                        for k, row in enumerate(rows)], where


def pindep_function_field(fs) -> PStructureVerdict:
    """p-independence of fs in K(V): status "independent" or "dependent",
    exactly: fs is p-independent iff the df_i are linearly independent in
    Omega_{K(V)/F_p} (Matsumura, Commutative Ring Theory, Thm 26.5).

    Where V peels to at most one generator G, each f = a / b is crossed
    into A (`_cross`), whose Omega is free on the dv (Omega of GF(q) is
    0), and gives the row b^2 df = (a_v b - a b_v) over the variables v
    of A.  Without G these are ranked in K(V) = Frac(A); with G, in
    K(V) = Frac(A / (H)) together with dH (`linalg.rank_modulo`).  With
    more generators the rank comes from the presented ideal, whose
    primality is checked by the gate into K(V) (`_require_prime`)."""
    fs = list(fs)
    if not fs:
        return PStructureVerdict("independent", reason="empty tuple")
    V = fs[0].variety
    if any(f.variety is not V for f in fs):
        raise RingError("functions on different varieties")
    peel, A, _ = _peeled(V)
    if len(peel.gens) > 1:
        r0, r1 = _differential_ranks(V, fs)
        ok = r1 - r0 == len(fs)
        why = f"differential rank {r1} with the df, {r0} without"
    else:
        rows = [lambdafn._jacobian_row(_cross(f), A.vars) for f in fs]
        if peel.gens:
            # (H) is prime in A, and {H} a Groebner basis of it
            H = _generator(peel.gens[0], A)[0]
            r = linalg.rank_modulo([[H.partial(v) for v in A.vars]] + rows,
                                   [H])
            ok = r == len(fs) + 1
            why = f"Jacobian rank {r} of {len(fs)} + 1 modulo G"
        else:
            r = len(linalg.fraction_free_echelon(rows, len(A.vars)))
            ok = r == len(fs)
            why = f"Jacobian rank {r} of {len(fs)}"
    return PStructureVerdict("independent" if ok else "dependent",
                             reason="exact: " + why)
