"""Field cores: construction, canonical forms, Frobenius structure."""

import copy
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from charpk import fields
from charpk.errors import FieldError
from charpk.fields import (FieldScalar, evaluate_scalar, frobenius,
                           is_pth_power, iter_elements, iter_gf_elements,
                           iter_ratfunc_elements, lambda0, make_field,
                           p_components, partial, pth_root, scalar_height)
from oracles import (RatFuncOracle, gf_add, gf_inverse, gf_mul, gf_neg,
                     gf_pow)


def test_spec_strings():
    K = make_field("GF(2,4)")
    assert K.kind == "gf" and K.p == 2 and K.k == 4
    L = make_field("Fp(3;t)")
    assert L.kind == "ratfunc" and L.tvars == ("t",)
    M = make_field("Fp(7;)")
    assert M.kind == "gf" and M.p == 7 and M.k == 1


def test_bad_specs_rejected():
    for bad in ["GF(3)", "GF(4,1)", "Fp(3)", "Q", "GF(2,0)", "GF(x,2)",
                "GF(2,k)", "Fp(x;t)"]:
        with pytest.raises(FieldError):
            make_field(bad)
        with pytest.raises(FieldError):
            make_field(bad)  # not cached: a bad spec raises every time


@pytest.mark.parametrize("spec", ["Fp(2;t1 t1,t2)", "Fp(2;1)", "Fp(2;t,2u)",
                                  "Fp(3;\u00b2)", "Fp(3;t-1)"])
def test_transcendental_names_are_identifiers(spec):
    """A name no literal can reference is refused."""
    with pytest.raises(FieldError, match="is not an identifier"):
        make_field(spec)
    assert make_field("Fp(3;_t, t_1, \u00e9)").tvars == ("_t", "t_1", "\u00e9")


def test_gf_modulus_reads_the_scalar_grammar():
    """A defining polynomial is polynomial text in its one variable."""
    K = make_field("GF(5,2,g^2+2)")
    for text in ["g*g+2", "g^2 + 2", "(g + 0)^2 - 3", "2*g^2 + g^2 - 2*g^2+7",
                 "-(4*g^2 + 3)"]:
        assert make_field(f"GF(5,2,{text})") == K
    assert make_field(K.spec) is K
    assert make_field("GF(3,3,g^3+2*g+1)").spec == "GF(3,3,g^3+2*g+1)"
    for text in ["1/g+g^2", "6g^2+1", "g^2+h", "g^-1", "2", "g-g"]:
        with pytest.raises(FieldError):
            make_field(f"GF(5,2,{text})")


@pytest.mark.parametrize("spec", ["GF(5,1)", "GF(2,4)", "GF(3,2,a^2+1)",
                                  "Fp(3;t)", "Fp(2;t1,t2)"])
def test_make_field_interns_descriptors(spec):
    K = make_field(spec)
    assert make_field(spec) is K
    assert make_field(spec).one() == K.one()


@pytest.mark.parametrize("spec, text", [
    ("GF(5,1)", "3"), ("GF(3,2)", "g + 1"), ("GF(2,3)", "g^2"),
    ("Fp(3;t)", "(t^2 + 1)/(t + 2)"), ("Fp(2;t,u)", "t/u + 1")])
def test_scalars_copy_and_pickle(spec, text):
    """A descriptor copies as itself and pickles as its spec, so scalars
    copy and pickle, over a GF field also before its first arithmetic."""
    K = make_field(spec)
    for L in [K, fields.FieldDescriptor("gf", K.p, K.k + 1)]:
        assert copy.copy(L) is L and copy.deepcopy(L) is L
        assert pickle.loads(pickle.dumps(L)) == L
    x = K.parse(text)
    for y in [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]:
        assert y.field == K and y == x and str(y) == str(x)
        assert y * x == x * x


def test_gf_field_axioms_exhaustive():
    K = make_field("GF(3,2)")
    els = list(iter_gf_elements(K))
    assert len(els) == 9
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if not a.is_zero():
            assert a * (K.one() / a) == K.one()


def test_ratfunc_arithmetic_and_normalization():
    K = make_field("Fp(2;t)")
    t = K.gen("t")
    x = (t * t + t) / (t + K.one())
    assert x == t  # cancellation to canonical form
    assert str((K.one() / t) + (K.one() / t)) == "0"
    # denominators sharing t, and a sum that shares it again
    one = K.one()
    assert str(one / (t * t + t) + one / (t ** 3 + t * t + t)) == "t/(t^3+1)"


def test_frobenius_and_pth_root_inverse():
    for spec in ["GF(2,4)", "GF(3,2)", "GF(5,1)"]:
        K = make_field(spec)
        for x in iter_gf_elements(K):
            assert pth_root(frobenius(x)) == x
            assert frobenius(pth_root(x)) == x  # perfect field


def test_pth_root_imperfect():
    K = make_field("Fp(3;t)")
    t = K.gen("t")
    assert pth_root(t) is None
    assert pth_root(t ** 3) == t
    assert is_pth_power(t ** 3) and not is_pth_power(t)
    assert lambda0(t ** 3) == t
    assert lambda0(t).is_zero()
    assert lambda0(K.zero()).is_zero()


def test_p_components_reassemble():
    K = make_field("Fp(2;t1,t2)")
    rng = random.Random(11)
    els = list(iter_elements(K, 1))
    for _ in range(25):
        x = rng.choice(els)
        comps = p_components(x)
        t1, t2 = K.gen("t1"), K.gen("t2")
        total = K.zero()
        for (e1, e2), c in comps.items():
            total = total + (c ** 2) * t1 ** e1 * t2 ** e2
        assert total == x


def test_kronecker_multiplication_matches_schoolbook():
    """The packed-integer product agrees with a naive convolution."""
    from charpk.fields import _PrimeKernel, u_mul, u_trim

    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            f = [rng.randrange(p) for _ in range(rng.randrange(1, 24))]
            g = [rng.randrange(p) for _ in range(rng.randrange(1, 24))]
            naive = [0] * (len(f) + len(g) - 1)
            for i, a in enumerate(f):
                for j, b in enumerate(g):
                    naive[i + j] = (naive[i + j] + a * b) % p
            assert u_mul(f, g, _PrimeKernel(p)) == u_trim(naive)


def test_iter_elements_deterministic_height_order():
    K = make_field("Fp(3;t)")
    first = [str(x) for x in iter_elements(K, 1)]
    second = [str(x) for x in iter_elements(K, 1)]
    assert first == second
    assert first[:4] == ["0", "1", "2", "t"]


def test_scalar_parsing_round_trip():
    K = make_field("Fp(5;t)")
    for text in ["0", "1", "t", "t^2+1", "(t+1)/(t^2+4)", "3*t"]:
        x = K.parse(text)
        assert K.parse(str(x)) == x
    # any str.isspace() character separates tokens, and only separates
    assert K.parse("\t(t +1)\n/ ( t^2 + 4 ) ") == K.parse("(t+1)/(t^2+4)")
    with pytest.raises(FieldError, match="trailing input in scalar literal "
                                         "'t 1 '"):
        K.parse("t 1 ")
    L = make_field("GF(2,3)")
    for text in ["0", "1", "g", "g^2+g+1"]:
        x = L.parse(text)
        assert L.parse(str(x)) == x


@pytest.mark.parametrize("spec, zero", [("GF(7,1)", "(g-g)"),
                                        ("GF(2,4)", "(g+g)"),
                                        ("Fp(3;t1,t2)", "(t1-t1)")])
def test_negative_power_of_zero_is_a_parse_error(spec, zero):
    K = make_field(spec)
    for text in ["0^-1", f"{zero}^-2", f"1 + 2*{zero}^-1"]:
        with pytest.raises(FieldError, match="division by zero in "):
            K.parse(text)
    assert K.parse(f"{zero}^2") == K.zero()


# every field of order <= 64, plus custom defining polynomials
SMALL_GF = ["GF(2,1)", "GF(2,2)", "GF(2,3)", "GF(2,4)", "GF(2,5)", "GF(2,6)",
            "GF(3,1)", "GF(3,2)", "GF(3,3)", "GF(5,1)", "GF(5,2)", "GF(7,1)",
            "GF(7,2)", "GF(61,1)", "GF(3,2,a^2+a+2)", "GF(2,4,b^4+b^3+1)",
            "GF(5,2,c^2+c+2)"]


def _digits(n, p, k):
    return tuple(n // p ** i % p for i in range(k))


def _check_scalar_ops(K, pairs):
    """Every kernel operation on the given pairs against the
    polynomial-basis oracle."""
    p, mod = K.p, K.modulus
    for a, b in pairs:
        ra, rb = a.rep, b.rep
        assert (a + b).rep == gf_add(ra, rb, p)
        assert (a - b).rep == gf_add(ra, gf_neg(rb, p), p)
        assert (-a).rep == gf_neg(ra, p)
        assert (a * b).rep == gf_mul(ra, rb, mod, p)
        if not b.is_zero():
            assert b.inverse().rep == gf_inverse(rb, mod, p)
            assert (a / b).rep == gf_mul(ra, gf_inverse(rb, mod, p), mod, p)
        else:
            with pytest.raises(ZeroDivisionError):
                b.inverse()
        e = sum(rb) % 5
        assert (a ** e).rep == gf_pow(ra, e, mod, p)
        root = pth_root(a)
        assert gf_pow(root.rep, p, mod, p) == ra
        assert FieldScalar(K, ra) == a and FieldScalar(K, ra).code == a.code


@pytest.mark.parametrize("spec", SMALL_GF)
def test_gf_kernel_matches_polynomial_oracle(spec):
    K = make_field(spec)
    els = list(iter_gf_elements(K))
    assert [x.rep for x in els] == [_digits(n, K.p, K.k)
                                    for n in range(K.size)]
    _check_scalar_ops(K, [(a, b) for a in els for b in els])


@pytest.mark.parametrize("spec", SMALL_GF)
def test_polynomial_basis_kernel_matches_oracle(spec):
    """The kernel used above the table cap, exhaustively on small
    fields."""
    K = make_field(spec)
    ops = fields._PolyKernel(K.p, K.k, K.modulus)
    p, mod, q = K.p, K.modulus, K.size
    for a in range(q):
        ra = _digits(a, p, K.k)
        assert _digits(ops.neg(a), p, K.k) == gf_neg(ra, p)
        if a:
            assert _digits(ops.inv(a), p, K.k) == gf_inverse(ra, mod, p)
        assert _digits(ops.pow(a, 3), p, K.k) == gf_pow(ra, 3, mod, p)
        for b in range(q):
            rb = _digits(b, p, K.k)
            assert _digits(ops.add(a, b), p, K.k) == gf_add(ra, rb, p)
            assert _digits(ops.sub(a, b), p, K.k) == \
                gf_add(ra, gf_neg(rb, p), p)
            assert _digits(ops.mul(a, b), p, K.k) == gf_mul(ra, rb, mod, p)


@pytest.mark.parametrize("spec", ["GF(2,17)", "GF(3,11)",
                                  "GF(3,11,a^11+a^2+2)"])
def test_gf_kernel_above_table_cap_matches_oracle(spec):
    K = make_field(spec)
    assert K.size > fields.GF_TABLE_CAP
    rng = random.Random(5)

    def rand():
        return FieldScalar(K, [rng.randrange(K.p) for _ in range(K.k)])
    pairs = [(rand(), rand()) for _ in range(60)]
    pairs.append((rand(), K.zero()))
    _check_scalar_ops(K, pairs)


# ---------------------------------------------------------------------------
# F_p(t..) against sympy's fraction fields
# ---------------------------------------------------------------------------

def _poly_text(data, K, min_terms):
    """A drawn polynomial over GF(p)[t..] as text, with at least
    min_terms distinct terms.  Exponents stay small in three variables,
    where the oracle's subresultant gcds grow fast."""
    top = 2 if len(K.tvars) < 3 else 1
    exps = data.draw(st.lists(
        st.tuples(*[st.integers(0, top)] * len(K.tvars)),
        min_size=min_terms, max_size=3, unique=True))
    terms = []
    for e in exps:
        c = data.draw(st.integers(1, K.p - 1))
        terms.append("*".join([str(c)] + [f"{n}^{d}" for n, d in
                                          zip(K.tvars, e) if d]))
    return " + ".join(terms) or "0"


def _fraction_texts(data, K):
    """Two fractions n1 / (d e1) and n2 / (d e2): d has two or more terms,
    so the denominators are not monomials, share d, and are often not
    prime to the numerators."""
    d = _poly_text(data, K, 2)
    return [f"({_poly_text(data, K, 0)})/(({d})*({_poly_text(data, K, 1)}))"
            for _ in range(2)]


@pytest.mark.parametrize("spec", ["Fp(2;t1,t2,t3)", "Fp(3;t1,t2)",
                                  "Fp(5;t)"])
@settings(derandomize=True, max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_ratfunc_matches_sympy_oracle(spec, data):
    K = make_field(spec)
    O = RatFuncOracle(K.p, K.tvars)
    polynomial = data.draw(st.booleans())
    texts = ([_poly_text(data, K, 0) for _ in range(2)] if polynomial
             else _fraction_texts(data, K))
    (x, y), (ox, oy) = ([K.parse(s) for s in texts],
                        [O.parse(s) for s in texts])

    def same(got, want):
        text = O.text(want)
        assert str(got) == text
        again = K.parse(text)
        assert got == again and hash(got) == hash(again)

    same(x, ox)
    same(y, oy)
    same(x + y, ox + oy)
    same(x - y, ox - oy)
    same(x * y, ox * oy)
    if polynomial:
        # sums, differences and products of polynomials keep denominator 1
        one = K._ring.one()
        assert all(z.value[1] == one
                   for z in (x, y, x + y, x - y, x * y, x ** 2))
    if not y.is_zero():
        same(x / y, ox / oy)
    n = data.draw(st.integers(1 if x.is_zero() else -2, 2))
    same(x ** n, ox ** n)
    root, want = pth_root(x ** K.p), O.pth_root(ox ** K.p)
    same(root, want)
    assert (pth_root(x) is None) == (O.pth_root(ox) is None)
    comps, want = p_components(x), O.p_components(ox)
    assert comps.keys() == want.keys()
    for a, comp in comps.items():
        same(comp, want[a])
    for name in K.tvars:
        same(partial(x, name), O.partial(ox, name))
    point = [data.draw(st.integers(0, K.p - 1)) for _ in K.tvars]
    Fp = make_field(f"GF({K.p},1)")
    got = evaluate_scalar(x, {n: Fp.from_int(a)
                              for n, a in zip(K.tvars, point)}, Fp)
    want = O.evaluate(ox, point)
    assert (got is None and want is None) or got == Fp.from_int(want)
    assert scalar_height(x) == O.height(ox)


def test_ratfunc_enumeration_order_is_pinned():
    assert [str(x) for x in iter_ratfunc_elements(
        make_field("Fp(2;t1,t2)"), 1)] == [
        '0', '1', 't2', 't2+1', 't1', 't1+1', 't1+t2', 't1+t2+1', '1/t2',
        '(t2+1)/t2', 't1/t2', '(t1+1)/t2', '(t1+t2)/t2', '(t1+t2+1)/t2',
        '1/(t2+1)', 't2/(t2+1)', 't1/(t2+1)', '(t1+1)/(t2+1)',
        '(t1+t2)/(t2+1)', '(t1+t2+1)/(t2+1)', '1/t1', 't2/t1', '(t2+1)/t1',
        '(t1+1)/t1', '(t1+t2)/t1', '(t1+t2+1)/t1', '1/(t1+1)', 't2/(t1+1)',
        '(t2+1)/(t1+1)', 't1/(t1+1)', '(t1+t2)/(t1+1)', '(t1+t2+1)/(t1+1)',
        '1/(t1+t2)', 't2/(t1+t2)', '(t2+1)/(t1+t2)', 't1/(t1+t2)',
        '(t1+1)/(t1+t2)', '(t1+t2+1)/(t1+t2)', '1/(t1+t2+1)',
        't2/(t1+t2+1)', '(t2+1)/(t1+t2+1)', 't1/(t1+t2+1)',
        '(t1+1)/(t1+t2+1)', '(t1+t2)/(t1+t2+1)']
    assert [str(x) for x in iter_ratfunc_elements(
        make_field("Fp(3;t)"), 1)] == [
        '0', '1', '2', 't', 't+1', 't+2', '2*t', '2*t+1', '2*t+2', '1/t',
        '2/t', '(t+1)/t', '(t+2)/t', '(2*t+1)/t', '(2*t+2)/t', '1/(t+1)',
        '2/(t+1)', 't/(t+1)', '(t+2)/(t+1)', '2*t/(t+1)', '(2*t+1)/(t+1)',
        '1/(t+2)', '2/(t+2)', 't/(t+2)', '(t+1)/(t+2)', '2*t/(t+2)',
        '(2*t+2)/(t+2)']


@pytest.mark.parametrize("spec", ["GF(5,1)", "GF(3,2)", "Fp(2;t)",
                                  "Fp(3;t1,t2)"])
def test_scalar_truth_value_is_nonzero(spec):
    K = make_field(spec)
    assert not K.zero() and not bool(K.one() - K.one())
    assert K.one() and K.from_int(-1)
    x = K.gen(K.tvars[0]) if K.kind == "ratfunc" else K.generator()
    assert x and (x / x) and not (x - x)
    # the guard `if y: x / y` no longer divides by zero
    assert [K.one() / y for y in (K.zero(), x) if y] == [K.one() / x]
