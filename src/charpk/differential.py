"""Derivations and prolongation geometry.

A derivation on the base field is determined by its images on the
transcendentals (zero on GF(p^k): D(x) = D(x^q) = q x^(q-1) D(x) = 0).
The prolongation tau^D(V) lives in doubled variables and is cut out by
the generators of I(V) together with their chain-rule linearizations
sum_i dg/dx_i * u_i + g^D.  On top of this the module builds the
equalizer E of the two canonical maps tau^D(W) -> tau^D(V) and decides
dominance of E -> W, plus an independent linear-algebra oracle for the
existence of the extending derivation.
"""

from __future__ import annotations

from . import linalg
from .errors import FieldError, PreconditionError, RingError
from .fields import (FieldDescriptor, FieldScalar, _scalar, evaluate_scalar,
                     partial)
from .polys import Ideal, MultiPoly, PolyRing
from .variety import (AffineVariety, _require_prime, is_irreducible,
                      projection_dominant)


class DerivationContext:
    """D on K, given by images of the transcendentals (empty on GF)."""

    __slots__ = ("field", "images")

    def __init__(self, field: FieldDescriptor, images=None):
        images = dict(images or {})
        if field.kind == "gf":
            for v in images.values():
                val = field.parse(v) if isinstance(v, str) else v
                if not val.is_zero():
                    raise FieldError(
                        "a perfect base field forces the zero derivation")
            images = {}
        else:
            out = {}
            for name, v in images.items():
                if name not in field.tvars:
                    raise FieldError(f"unknown transcendental {name!r}")
                val = field.parse(v) if isinstance(v, str) else v
                if val.field != field:
                    raise FieldError("derivation image outside the field")
                out[name] = val
            images = out
        self.field = field
        self.images = images

    def __repr__(self):
        imgs = ", ".join(f"D({n}) = {v}" for n, v in self.images.items())
        return f"DerivationContext({imgs or 'D = 0'})"


def _derive_scalar(x: FieldScalar, D: DerivationContext) -> FieldScalar:
    K = x.field
    if K.kind == "gf":
        return K.zero()
    if K != D.field:
        raise FieldError("derivation context field mismatch")
    acc = K.zero()
    for name, img in D.images.items():
        if not img.is_zero():
            acc = acc + partial(x, name) * img
    return acc


def derive(f, D: DerivationContext, coordinate_images=None):
    """D(f).  Scalars: additivity + Leibniz + quotient rule.  Polynomials:
    coefficientwise f^D by default; with coordinate_images, the total
    derivative sum_v df/dv * image_v + f^D."""
    if isinstance(f, FieldScalar):
        return _derive_scalar(f, D)
    if isinstance(f, MultiPoly):
        fd = f.map_coeffs(lambda c: _derive_scalar(c, D))
        if coordinate_images is None:
            return fd
        acc = fd
        for v, img in coordinate_images.items():
            acc = acc + f.partial(v) * img
        return acc
    raise RingError("derive expects a scalar or a polynomial")


class ProlongationBundle:
    """tau^D(V) with its generator provenance."""

    __slots__ = ("source", "tau", "uvars", "provenance", "derivation")

    def __init__(self, source, tau, uvars, provenance, derivation):
        self.source = source
        self.tau = tau
        self.uvars = tuple(uvars)
        self.provenance = list(provenance)
        self.derivation = derivation


def _default_uvars(xvars):
    if len(xvars) == 1:
        return ("u",)
    return tuple(f"u{i+1}" for i in range(len(xvars)))


def prolongation(V: AffineVariety, D: DerivationContext,
                 uvars=None) -> ProlongationBundle:
    """tau^D(V) in (x.., u..): generators g_j of I(V) plus their
    linearizations sum_i dg_j/dx_i * u_i + g_j^D."""
    xvars = V.vars
    uvars = tuple(uvars) if uvars else _default_uvars(xvars)
    if len(uvars) != len(xvars) or set(uvars) & set(xvars):
        raise RingError("derivative variables must be fresh, one per "
                        "coordinate")
    ring = PolyRing(V.field, xvars + uvars)
    gens = []
    provenance = []
    images = {xv: ring.var(uv) for xv, uv in zip(xvars, uvars)}
    for g in V.ideal.gens:
        gg = g.rename(ring)
        gens.append(gg)
        lin = derive(gg, D, images)
        provenance.append((gg, lin))
        if not lin.is_zero():
            gens.append(lin)
    tau = AffineVariety(V.field, xvars + uvars, Ideal(ring, gens))
    return ProlongationBundle(V, tau, uvars, provenance, D)


def nabla_point(a, bundle: ProlongationBundle, derivatives=None,
                context: DerivationContext = None, lift=None):
    """(a, D(a)) in tau^D(V).  Derivative coordinates are computed from
    `context` (default: the bundle's derivation; pass a context on the
    coordinate field when the point lives in an extension) unless
    supplied explicitly.  `lift` embeds K into the coordinate field when
    the embedding is not by matching transcendental names."""
    V = bundle.source
    a = tuple(a)
    if len(a) != len(V.vars):
        raise RingError("point arity mismatch")
    if not _on_variety(V, a, lift):
        raise PreconditionError("point does not lie on the variety")
    if derivatives is None:
        ctx = context or bundle.derivation
        field = a[0].field if a else V.field
        if field != ctx.field:
            raise FieldError("supply a derivation context on the "
                             "coordinate field or explicit derivatives")
        derivatives = tuple(derive(c, ctx) for c in a)
    else:
        derivatives = tuple(derivatives)
    point = a + derivatives
    if not _on_variety(bundle.tau, point, lift):
        raise FieldError("chain-rule identity fails at the point")
    return point


def _on_variety(V: AffineVariety, point, lift=None) -> bool:
    """Membership allowing coordinates in an extension field carrying the
    transcendentals of K (or via an explicit embedding `lift`)."""
    if not point:
        return not V.is_empty()
    L = point[0].field
    K = V.field
    if lift is None and L == K:
        return V.contains_point(point)
    lift = lift or _field_lift(K, L)
    values = dict(zip(V.vars, point))
    return all(g.evaluate(values, lift=lift).is_zero()
               for g in V.ideal.gens)


def scalar_hom(c: FieldScalar, images, L: FieldDescriptor) -> FieldScalar:
    """Apply the F_p-homomorphism sending each transcendental to its image
    in L; raises on a vanishing denominator."""
    K = c.field
    if K.kind == "gf":
        if K.k != 1:
            raise FieldError("only prime-field constants embed canonically")
        return L.from_int(c.rep[0])
    value = evaluate_scalar(c, images, L)
    if value is None:
        raise FieldError("homomorphism undefined: denominator vanishes")
    return value


def _field_lift(K: FieldDescriptor, L: FieldDescriptor):
    if K == L:
        return lambda c: c
    if K.kind == "gf" and K.k == 1:
        return lambda c: L.from_int(c.rep[0])
    if (K.kind == "ratfunc" and L.kind == "ratfunc"
            and set(K.tvars) <= set(L.tvars) and K.p == L.p):
        def lift(c):
            num, den = (f.rename(L._ring) for f in c.value)
            return _scalar(L, L.kernel.frac(num, den))
        return lift
    raise FieldError(f"no canonical embedding of {K} into {L}")


def require_doubled_space(V: AffineVariety, W: AffineVariety):
    """W must live in the doubled variable space (x, u) of V."""
    n = len(V.vars)
    if len(W.vars) != 2 * n or W.vars[:n] != V.vars:
        raise PreconditionError(
            "W must live in the doubled variable space of V")


def derivation_extends(V: AffineVariety, W: AffineVariety,
                       D: DerivationContext) -> bool:
    """W subseteq tau^D(V), by membership of every generator of I(tau) in
    I(W); W must live in the doubled variable space of V."""
    return _violated_generator(V, W, D) is None


def _violated_generator(V, W, D):
    """A generator of I(tau^D(V)) outside I(W), or None."""
    require_doubled_space(V, W)
    n = len(V.vars)
    bundle = prolongation(V, D, uvars=W.vars[n:])
    for g in bundle.tau.ideal.gens:
        if not W.ideal.contains(g.rename(W.ring)):
            return g
    return None


def equalizer(V: AffineVariety, W: AffineVariety,
              D: DerivationContext) -> AffineVariety:
    """E inside tau^D(W): points whose tau^D(alpha)-image and iota-image
    in tau^D(V) agree; concretely tau^D(W) plus the equations
    (derivative of x_i) = u_i."""
    bad = _violated_generator(V, W, D)
    if bad is not None:
        raise PreconditionError(
            f"W is not contained in the prolongation: generator {bad} "
            "fails on W")
    if not is_irreducible(W):
        raise PreconditionError("equalizer needs a K-irreducible W")
    tvars = tuple(v + "t" for v in W.vars)
    if set(tvars) & set(W.vars):
        raise RingError("variable name collision for the equalizer")
    bundle = prolongation(W, D, uvars=tvars)
    ring = bundle.tau.ring
    gens = list(bundle.tau.ideal.gens)
    n = len(V.vars)
    for xv, uv in zip(W.vars[:n], W.vars[n:]):
        gens.append(ring.var(xv + "t") - ring.var(uv))
    return AffineVariety(W.field, W.vars + tvars, Ideal(ring, gens))


def kerprol_check(V: AffineVariety, W: AffineVariety,
                  D: DerivationContext) -> bool:
    """Dominance of the projection E -> W."""
    E = equalizer(V, W, D)
    return projection_dominant(E, W, W.vars)


def extension_oracle(V: AffineVariety, W: AffineVariety,
                     D: DerivationContext) -> bool:
    """Independent decision: a derivation D' on K(W) with D'(x_i) = u_i
    extending D exists iff the chain-rule system
        sum_i dg/dx_i * u_i + sum_j dg/du_j * xi_j + g^D = 0   (g in I(W))
    is solvable for xi_j in K(W), that is, iff the matrix [dg/du_j] has
    the rank over K(W) of the matrix extended by the column of constants
    (`linalg.rank_modulo`, modulo the Groebner basis of I(W)).  That the
    presented ideal of W is prime is checked by the gate into K(W)."""
    require_doubled_space(V, W)
    _require_prime(W)
    n = len(V.vars)
    ring = W.ring
    xvars, uvars = W.vars[:n], W.vars[n:]
    images = {xv: ring.var(uv) for xv, uv in zip(xvars, uvars)}
    rows = [[g.partial(uv) for uv in uvars] + [derive(g, D, images)]
            for g in W.ideal.gens]
    basis = W.ideal.groebner()
    return (linalg.rank_modulo([row[:-1] for row in rows], basis)
            == linalg.rank_modulo(rows, basis))
