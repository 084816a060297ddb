"""Finite group actions on finite fields by automorphisms.

Every automorphism of GF(p^k) is a power x -> x^(p^j) of Frobenius
(Lidl and Niederreiter, Finite Fields, Thm 2.21), so it is kept as its
exponent j mod k: applying it is one power, composing adds exponents,
and an explicit generator image is read as the j with gen^(p^j) equal
to it.  The module computes automorphism groups of extensions, fixed
subfields, the Galois-correspondence report, codes of finite sets
(vanishing-polynomial coefficients), K-irreducibility of finite
Galois-stable sets (orbit transitivity), and the strongly-PAC probe over
a family of zero-dimensional defining polynomials.
"""

from __future__ import annotations

from math import gcd

from .errors import (CharpkError, FieldError, PreconditionError,
                     UnsupportedInstance)
from .fields import FieldDescriptor, FieldScalar, _scalar, u_deriv, u_gcd
from . import factor


class FiniteGroup:
    """Element labels with a verified multiplication table."""

    __slots__ = ("elements", "table", "identity")

    def __init__(self, elements, table, identity=0):
        self.elements = tuple(elements)
        n = len(self.elements)
        self.table = tuple(tuple(row) for row in table)
        self.identity = identity
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise CharpkError("multiplication table shape mismatch")
        t, e, r = self.table, identity, range(n)
        if any(t[e][i] != i or t[i][e] != i for i in r):
            raise CharpkError("identity law fails")
        if any(e not in row for row in t):
            raise CharpkError("missing inverse")
        if any(t[t[i][j]][k] != t[i][t[j][k]]
               for i in r for j in r for k in r):
            raise CharpkError("associativity fails")

    @classmethod
    def cyclic(cls, n: int, labels=None) -> "FiniteGroup":
        labels = labels or ["e"] + [f"g^{i}" if i > 1 else "g"
                                    for i in range(1, n)]
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(labels, table, 0)

    def __len__(self):
        return len(self.elements)

    def op(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        for j in range(len(self.elements)):
            if self.table[i][j] == self.identity:
                return j
        raise CharpkError("no inverse")


class _Automorphism:
    """x -> x^(p^j) on GF(p^k), kept as its Frobenius exponent j mod k."""

    __slots__ = ("field", "exponent")

    def __init__(self, field: FieldDescriptor, exponent: int):
        if field.kind != "gf":
            raise UnsupportedInstance(
                "automorphism actions are supported on finite fields")
        self.field = field
        self.exponent = exponent % field.k

    def __call__(self, x: FieldScalar) -> FieldScalar:
        return x ** (self.field.p ** self.exponent)

    def compose(self, other: "_Automorphism") -> "_Automorphism":
        return _Automorphism(self.field, self.exponent + other.exponent)

    def __eq__(self, other):
        return (isinstance(other, _Automorphism)
                and self.field == other.field
                and self.exponent == other.exponent)

    def __hash__(self):
        return hash((self.field, self.exponent))


def _sending_generator_to(field: FieldDescriptor,
                          image: FieldScalar) -> _Automorphism:
    """The automorphism that sends the generator to `image`: the roots of
    the defining polynomial are exactly gen^(p^j), j < k.  On GF(p) every
    image gives the identity."""
    if not isinstance(image, FieldScalar) or image.field != field:
        raise FieldError("generator image outside the field")
    if field.k == 1:
        return identity_automorphism(field)
    roots = [field.generator() ** (field.p ** j) for j in range(field.k)]
    if image not in roots:
        raise FieldError(
            "generator image is not a root of the defining polynomial")
    return _Automorphism(field, roots.index(image))


def frobenius_automorphism(field: FieldDescriptor,
                           power: int = 1) -> _Automorphism:
    return _Automorphism(field, power)


def identity_automorphism(field: FieldDescriptor) -> _Automorphism:
    return _Automorphism(field, 0)


class FieldAction:
    """A homomorphism G -> Aut(K) given on group elements."""

    __slots__ = ("group", "field", "sigmas")

    def __init__(self, group: FiniteGroup, field: FieldDescriptor, sigmas):
        sigmas = list(sigmas)
        if len(sigmas) != len(group):
            raise CharpkError("one automorphism per group element required")
        r = range(len(group))
        if any(sigmas[i].compose(sigmas[j]) != sigmas[group.op(i, j)]
               for i in r for j in r):
            raise CharpkError("the assignment is not a group homomorphism")
        if sigmas[group.identity] != identity_automorphism(field):
            raise CharpkError("identity must act trivially")
        self.group = group
        self.field = field
        self.sigmas = sigmas

    @classmethod
    def cyclic_action(cls, n: int, field: FieldDescriptor,
                      generator_image) -> "FieldAction":
        """Z/n acting with the generator mapped to a named automorphism
        ("frobenius", "frobenius^j") or an explicit generator image."""
        group = FiniteGroup.cyclic(n)
        if isinstance(generator_image, _Automorphism):
            if generator_image.field != field:
                raise FieldError("the automorphism acts on another field")
            sigma = generator_image
        elif isinstance(generator_image, str):
            text = generator_image.strip()
            if text == "frobenius":
                sigma = frobenius_automorphism(field)
            elif text.startswith("frobenius^"):
                try:
                    power = int(text[len("frobenius^"):])
                except ValueError as exc:
                    raise FieldError(
                        f"bad Frobenius power in {text!r}") from exc
                sigma = frobenius_automorphism(field, power)
            else:
                sigma = _sending_generator_to(field, field.parse(text))
        else:
            sigma = _sending_generator_to(field, generator_image)
        sigmas = [_Automorphism(field, i * sigma.exponent) for i in range(n)]
        return cls(group, field, sigmas)


# ---------------------------------------------------------------------------
# Galois groups and invariants
# ---------------------------------------------------------------------------

def galois_group(L: FieldDescriptor, F: FieldDescriptor):
    """(group, automorphisms, embedding of F) for a finite extension of
    finite fields: Gal(L/F) is cyclic of order n = [L:F], generated by
    x -> x^(p^[F:F_p])."""
    if L.kind != "gf" or F.kind != "gf" or L.p != F.p or L.k % F.k != 0:
        raise UnsupportedInstance("galois_group needs finite fields F <= L")
    n = L.k // F.k
    autos = [frobenius_automorphism(L, F.k * i) for i in range(n)]
    labels = ["id"] + [f"frob^{F.k * i}" for i in range(1, n)]
    if F.k == 1 and n > 1:
        labels[1] = "frob"
    group = FiniteGroup.cyclic(n, labels)
    return group, autos, factor.gf_embedding(F, L)


def invariants(act: FieldAction):
    """(descriptor of K^G, embedding into K) for the field K acted on:
    the fixed field of the Frobenius powers j_g is GF(p^d),
    d = gcd(k, j_g over all g) (Lidl-Niederreiter, Finite Fields, ch. 2)."""
    L = act.field
    K = FieldDescriptor("gf", L.p, gcd(L.k, *(s.exponent for s in act.sigmas)))
    embed = factor.gf_embedding(K, L)
    gamma = embed(K.generator())
    if any(s(gamma) != gamma for s in act.sigmas):
        raise CharpkError("computed subfield is not fixed")
    return K, embed


def is_faithful(act: FieldAction) -> bool:
    return len({s.exponent for s in act.sigmas}) == len(act.group)


class GaloisDataReport:
    """The three Galois-correspondence checks plus the isomorphism."""

    __slots__ = ("algebraic_separable", "normal", "iso_with_group",
                 "invariant_field", "isomorphism")

    def __init__(self, algebraic_separable, normal, iso_with_group,
                 invariant_field, isomorphism):
        self.algebraic_separable = algebraic_separable
        self.normal = normal
        self.iso_with_group = iso_with_group
        self.invariant_field = invariant_field
        self.isomorphism = isomorphism

    def all_pass(self):
        return (self.algebraic_separable and self.normal
                and self.iso_with_group)


def check_galois_data(act: FieldAction) -> GaloisDataReport:
    if not is_faithful(act):
        raise PreconditionError("the Galois-data report needs a faithful "
                                "action")
    L = act.field
    F, embed = invariants(act)
    # (1) every element of L is separably algebraic over the fixed field:
    # for finite fields, x satisfies prod over the orbit of (T - sigma(x)),
    # which has fixed coefficients and distinct roots
    gamma = L.generator()
    orbit = sorted({s(gamma).rep for s in act.sigmas})
    coeffs = factor.vanishing_poly([FieldScalar(L, rep) for rep in orbit], L)
    fixed_ok = all(all(s(c) == c for s in act.sigmas) for c in coeffs)
    raw, K = [c.value for c in coeffs], L.kernel
    sqfree = len(u_gcd(raw, u_deriv(raw, K), K)) == 1
    alg = fixed_ok and sqfree
    # (2) normality: each sigma_g restricts to the identity on the fixed
    # field and permutes L (so sigma(L) = L over the invariants)
    fixed = embed(F.generator())
    normal = all(s(fixed) == fixed
                 and len({s(gamma ** i).rep for i in range(L.k)}) == L.k
                 for s in act.sigmas)
    # (3) Aut(L/F) is isomorphic to G via g -> sigma_g
    group_auto, autos, _ = galois_group(L, F)
    auto_index = {a.exponent: i for i, a in enumerate(autos)}
    iso = {}
    iso_ok = len(act.group) == len(autos)
    if iso_ok:
        for g, s in enumerate(act.sigmas):
            if s.exponent not in auto_index:
                iso_ok = False
                break
            iso[g] = auto_index[s.exponent]
        r = range(len(act.group))
        iso_ok = iso_ok and len(set(iso.values())) == len(iso) and all(
            group_auto.op(iso[i], iso[j]) == iso[act.group.op(i, j)]
            for i in r for j in r)
    return GaloisDataReport(alg, normal, iso_ok, F, iso)


# ---------------------------------------------------------------------------
# finite-set codes and K-irreducibility
# ---------------------------------------------------------------------------

class FiniteSetCode:
    """Coefficients of the monic vanishing polynomial of the set."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def __eq__(self, other):
        return (isinstance(other, FiniteSetCode)
                and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"FiniteSetCode({', '.join(str(c) for c in self.coeffs)})"


def code_finite_set(S) -> FiniteSetCode:
    S = list(S)
    if not S:
        raise PreconditionError("the code of the empty set is undefined")
    field = S[0].field
    seen = []
    for x in S:
        if x.field != field:
            raise FieldError("set elements in different fields")
        if x not in seen:
            seen.append(x)
    poly = factor.vanishing_poly(sorted(seen, key=_scalar_key), field)
    return FiniteSetCode(field, poly[:-1])


def _scalar_key(x: FieldScalar):
    return x.rep if x.field.kind == "gf" else str(x)


def finite_set_k_irreducible(S, K: FieldDescriptor) -> bool:
    """Transitivity of the K-Galois (Frobenius) action on S; elements in
    a common finite field, tuples allowed coordinatewise."""
    S = [s if isinstance(s, tuple) else (s,) for s in S]
    if not S:
        raise PreconditionError("empty set")
    L = S[0][0].field
    if L.kind != "gf" or K.kind != "gf" or K.p != L.p or L.k % K.k != 0:
        raise UnsupportedInstance("supported for finite fields K <= L")
    q = K.p ** K.k
    pts = {tuple(x.rep for x in s) for s in S}

    def frob(s):
        return tuple((x ** q) for x in s)

    for s in S:
        img = tuple(x.rep for x in frob(s))
        if img not in pts:
            raise PreconditionError("set is not stable under the K-Galois "
                                    "action")
    start = S[0]
    orbit = {tuple(x.rep for x in start)}
    cur = start
    while True:
        cur = frob(cur)
        key = tuple(x.rep for x in cur)
        if key in orbit:
            break
        orbit.add(key)
    return len(orbit) == len(pts)


# ---------------------------------------------------------------------------
# the strongly-PAC probe
# ---------------------------------------------------------------------------

class ProbeReport:
    """Per-theta verdicts; overall_pass iff no K-irreducible theta misses
    an F-rational solution."""

    __slots__ = ("entries", "overall_pass")

    def __init__(self, entries):
        self.entries = entries
        self.overall_pass = all(e["pass"] for e in entries)


def alg_strongly_pac_probe(F: FieldDescriptor, K: FieldDescriptor,
                           thetas) -> ProbeReport:
    """For each univariate theta over F with finitely many roots: if the
    root set is K-irreducible (one K-Galois orbit), check theta has a root
    in F; a K-irreducible theta without one certifies failure."""
    if F.kind != "gf" or K.kind != "gf" or F.p != K.p or K.k % F.k != 0:
        raise UnsupportedInstance("probe supports finite fields F <= K")
    embed = factor.gf_embedding(F, K)
    entries = []
    for theta in thetas:
        coeffs = _theta_coeffs(theta, F)
        if len(coeffs) < 2:
            raise PreconditionError("theta must be nonconstant")
        # orbit structure over K: degrees of the distinct irreducible
        # factors over K
        coeffs_K = [embed(c) for c in coeffs]
        _, facs_K = factor.uni_factor(coeffs_K, K)
        orbit_sizes = sorted(len(g) - 1 for g, _ in facs_K)
        k_irreducible = len(orbit_sizes) == 1
        roots_F = [r for r, _ in factor.uni_roots(coeffs, F)]
        entry = {
            "theta": "[" + ", ".join(str(c) for c in coeffs) + "]",
            "orbit_sizes": orbit_sizes,
            "k_irreducible": k_irreducible,
            "f_roots": [str(r) for r in roots_F],
            "pass": (not k_irreducible) or bool(roots_F),
        }
        entries.append(entry)
    return ProbeReport(entries)


def _theta_coeffs(theta, F):
    if isinstance(theta, (list, tuple)):
        coeffs = [c if isinstance(c, FieldScalar) else F.from_int(c)
                  for c in theta]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        return coeffs
    # MultiPoly in one variable
    used = sorted(theta.variables_used())
    if len(used) != 1:
        raise UnsupportedInstance("theta must be univariate")
    return [_scalar(F, c) for c in factor.u_from_mp(theta, used[0])]
