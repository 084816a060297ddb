"""The shared text reader (`fields._Parser` and the polynomial readers of
`polys`) against the character-level reader kept in `oracles`: equal
values or the same refusal on generated and mutated texts, reading in
linear work, F_p(t..) denominators that stay small, and the stack depth
that each nesting level costs."""

import random
import sys

import pytest

from charpk import formula, polys
from charpk.errors import CharpkError
from charpk.fields import MAX_NESTING, make_field
from charpk.polys import PolyRing

import oracles

# (field spec, ring variables); a ring variable may shadow a transcendental
READERS = [("GF(5,1)", ("x", "y")), ("GF(2,3)", ("x", "y")),
           ("GF(3,2,a^2+1)", ("x", "y")), ("GF(7,1)", ("x",)),
           ("Fp(3;t)", ("x", "y")), ("Fp(2;t,u)", ("x", "y")),
           ("Fp(5;t1,t2)", ("x",)), ("Fp(3;t,s)", ("t", "x"))]

MUTATIONS = " \t()+-*/^²01279xytgau_[;"


def _atom(rng, names, p):
    r = rng.random()
    if r < 0.45:
        return rng.choice(names)
    if r < 0.9:
        return str(rng.randrange(p + 2))
    return rng.choice(["zz", "_q", "12345678901234567890", "0"])


def _random_text(rng, names, p, depth, signed):
    """+ - * / ^, unary minus chains, nested parentheses and random
    spacing; exponents are small, and negative only where `signed`."""
    if depth == 0 or rng.random() < 0.25:
        return _atom(rng, names, p)
    a = _random_text(rng, names, p, depth - 1, signed)
    kind = rng.choice("+-*/^()n")
    space = rng.choice(["", " ", "  ", "\t"])
    if kind in "+-*/":
        b = _random_text(rng, names, p, depth - 1, signed)
        if kind == "/" and rng.random() < 0.7:
            b = f"({b})"
        return f"{a}{space}{kind}{space}{b}"
    if kind == "^":
        low = -2 if signed else 0
        return f"({a})^{space}{rng.randint(low, 3)}"
    if kind == "(":
        return f"({space}{a}{space})"
    return "-" * rng.randint(1, 3) + a


def _mutated(rng, text):
    """text with one character deleted, inserted, replaced or doubled."""
    i = rng.randrange(len(text) + 1)
    ch = rng.choice(MUTATIONS)
    how = rng.randrange(4)
    if how == 0:
        return text[:i] + text[i + 1:]
    if how == 1:
        return text[:i] + ch + text[i:]
    if how == 2:
        return text[:i] + ch + text[i + 1:]
    return text[:i] + text[i:i + 3] + text[i:]


def _read(reader, text, target):
    try:
        value = reader(text, target)
    except CharpkError as exc:
        return "refused", (type(exc), str(exc))
    return "ok", (value, str(value))


def _readers(kind, spec, variables):
    field = make_field(spec)
    if kind == "scalar":
        return field, (lambda s, K: K.parse(s)), oracles.read_scalar
    ring = PolyRing(field, variables)
    return ring, (lambda s, R: R.parse(s)), oracles.read_poly


def test_differential_against_the_character_level_reader():
    """Generated and mutated scalar and polynomial texts over GF(p),
    GF(p^k) and F_p(t..) read to equal values, printed alike, or are
    refused with the same error class and message."""
    rng = random.Random(18)
    counts = {"ok": 0, "refused": 0}
    texts = 0
    for n in range(2200):
        kind = "scalar" if n % 3 == 0 else "poly"
        spec, variables = READERS[n % len(READERS)]
        target, new, old = _readers(kind, spec, variables)
        field = make_field(spec)
        names = list(field.tvars) or [field.gen_name]
        if kind == "poly":
            names += list(variables)
        base = _random_text(rng, names, field.p, 3, kind == "scalar")
        for text in (base, _mutated(rng, base)):
            texts += 1
            got, want = _read(new, text, target), _read(old, text, target)
            assert got == want, (spec, kind, text)
            counts[got[0]] += 1
    assert texts >= 4000
    assert min(counts.values()) >= 1000, counts


@pytest.mark.parametrize("spec, variables", READERS)
def test_every_refusal_names_the_same_place(spec, variables):
    """Refusals at fixed places: trailing input, a signed exponent split
    by a space, superscripts, digits glued to names, deep nesting."""
    ring = PolyRing(make_field(spec), variables)
    texts = ["x^- 1", "x^-1", "2x", "x2", "x^²", "x²", "(x", "x)", "x y",
             "x/(x + 1)", "x/0", "x^", "", "  ", "-", "x ^ 2 ^ 2", "_x",
             "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)]
    for text in texts:
        assert _read(lambda s, R: R.parse(s), text, ring) == \
            _read(oracles.read_poly, text, ring), text
        K = ring.field
        scalar = text.replace("x", K.tvars[-1] if K.tvars else K.gen_name)
        assert _read(lambda s, F: F.parse(s), scalar, K) == \
            _read(oracles.read_scalar, scalar, K), scalar


# formula text and what the character-level formula reader made of it
FORMULA_PLACES = {
    "lam(1 1; t; x) = 0": "expected ',' at position 6 in 'lam(1 1; t; x) = 0'",
    "lam(1,; t; x) = 0": "expected a number at position 6",
    "lam( 1 , x; t; x) = 0": "expected a number at position 9",
    "x = 0 y": "trailing input at position 6 in 'x = 0 y'",
    "lam(1,1; t; x)  = 0 )":
        "trailing input at position 20 in 'lam(1,1; t; x)  = 0 )'",
    "s[ ](x) = 0": "expected a name at position 3",
    "  s [g](x) = 0": "expected '=' at position 4 in '  s [g](x) = 0'",
    "lam(1,1; t; x": "expected ')' at position 13 in 'lam(1,1; t; x'",
    "D(x": "expected ')' at position 3 in 'D(x'",
    "!(x = 0": "expected ')' at position 7 in '!(x = 0'",
    "s[g]": "expected '(' at position 4 in 's[g]'",
    "x^ = 0": "expected a number at position 3",
    "x^-1 = 0": "expected a number at position 2",
    "x = 0 &": "unexpected character '' in formula",
    "(x = 0": "unbalanced parentheses in '(x = 0'",
    "s[g] (x) = 0": "Atom(term=Sigma(element='g', arg=Var(name='x')))",
    "s[12ab](x) = 0": "Atom(term=Sigma(element='12ab', arg=Var(name='x')))",
}


@pytest.mark.parametrize("text", FORMULA_PLACES)
def test_formula_refusals_keep_their_character_positions(text):
    ctx = {"vars": {"x"}, "field": make_field("Fp(3;t)")}
    try:
        got = repr(formula.parse(text, "full", ctx))
    except CharpkError as exc:
        got = str(exc)
    assert got == FORMULA_PLACES[text]


def test_a_long_sum_writes_each_term_once(monkeypatch):
    """Reading is linear in the number of terms, counted, not timed: the
    dict entries the sums write while reading 16,000 distinct terms stay
    under twice the term count (a sum that copied its dict per term
    would write about n^2 / 2)."""
    ring = PolyRing(make_field("GF(7,1)"), ("x", "y"))
    n = 16000
    text = " + ".join(f"{i % 6 + 1}*x^{i % 97}*y^{i // 97}" for i in range(n))
    written = [0]
    add = polys._PolyParser.add

    def counted(self, a, b):
        before = len(a) if a.__class__ is dict else 0
        out = add(self, a, b)
        written[0] += len(out) - (before if out is a else 0)
        return out
    monkeypatch.setattr(polys._PolyParser, "add", counted)
    f = ring.parse(text)
    assert len(f.terms) == n
    assert written[0] < 2 * n


def test_products_of_monomials_take_no_polynomial_product(monkeypatch):
    """Numbers, variables, the generator, their powers and parenthesised
    single terms multiply as one monomial; only a parenthesised factor
    with more terms reaches `_mul_terms` or `MultiPoly.__pow__`."""
    ring = PolyRing(make_field("GF(3,2,g^2+1)"), ("x", "y"))
    monomials = "(2+2*g)*x^4*y + (1+g)*x^3 + (2)*x^2*y^2*g^3 + -(g)^2*x + (1)"
    sums = "(x + 1)^2*(y + g)"
    want = [oracles.read_poly(text, ring) for text in (monomials, sums)]
    calls = []
    mul_terms, power = polys._mul_terms, polys.MultiPoly.__pow__
    monkeypatch.setattr(polys, "_mul_terms",
                        lambda *a: calls.append("mul") or mul_terms(*a))
    monkeypatch.setattr(polys.MultiPoly, "__pow__",
                        lambda *a: calls.append("pow") or power(*a))
    assert ring.parse(monomials) == want[0]
    assert calls == []
    assert ring.parse(sums) == want[1]
    # the square takes two products, and the factor (y + g) one more
    assert calls == ["pow", "mul", "mul", "mul"]


def test_fraction_sums_keep_the_larger_denominator(monkeypatch):
    """x/(t + 1) + x^2/(t + 1)^2 + .. + x^30/(t + 1)^30: each denominator
    divides the next, so the pair keeps a denominator of degree 30 where
    multiplying them gave degree 465; the value is the old reader's."""
    ring = PolyRing(make_field("Fp(3;t)"), ("x",))
    text = " + ".join(f"x^{i}/(t + 1)^{i}" for i in range(1, 31))
    degrees = []
    split = polys.split_coeffs

    def spy(N, d, target):
        degrees.append(d.total_degree())
        return split(N, d, target)
    monkeypatch.setattr(polys, "split_coeffs", spy)
    got = ring.parse(text)
    assert degrees == [30]
    assert got == oracles.read_poly(text, ring)
    mixed = "x/(t + 1) - x/(t + 2) + x^2/((t + 1)*(t + 2)) + 1/(2*t + 2)"
    assert ring.parse(mixed) == oracles.read_poly(mixed, ring)
    assert degrees[-1] == 2


# ---------------------------------------------------------------------------
# stack frames per nesting level, by bisecting the recursion limit
# ---------------------------------------------------------------------------

def _frames_needed(read, text):
    """The fewest frames above the caller's that read(text) runs in."""
    def fits(limit):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(base + limit)
        try:
            read(text)
            return True
        except RecursionError:
            return False
        finally:
            sys.setrecursionlimit(old)
    base = _depth()
    low, high = 10, 900
    assert fits(high)
    while low < high:
        mid = (low + high) // 2
        if fits(mid):
            high = mid
        else:
            low = mid + 1
    return low


def _depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


NESTINGS = {
    "scalar": (lambda s: make_field("Fp(3;t)").parse(s), "(", "t", ")"),
    "GF polynomial": (PolyRing(make_field("GF(5,1)"), ("x",)).parse,
                      "(", "x", ")"),
    "F_p(t) polynomial": (PolyRing(make_field("Fp(3;t)"), ("x",)).parse,
                          "(", "x", ")"),
    "formula term": (formula.parse, "(", "x", ") = 0"),
    "formula": (formula.parse, "!(", "x = 0", ")"),
    "formula lam": (formula.parse, "lam(1,1; t; ", "x", ") = 0"),
}


@pytest.mark.parametrize("name", NESTINGS)
def test_each_nesting_level_costs_at_most_nine_frames(name):
    """The MAX_NESTING comment in `fields`: a level costs five frames, and
    nine for `lam(`, so at MAX_NESTING levels a reader stays under 600."""
    read, opening, inner, closing = NESTINGS[name]

    def text(n):
        return opening * n + inner + closing[0] * (n - 1) + closing
    shallow, deep = (_frames_needed(read, text(n)) for n in (1, MAX_NESTING))
    per_level = (deep - shallow) / (MAX_NESTING - 1)
    assert per_level <= (9 if "lam" in name else 5), (name, per_level)
    assert deep < 600, (name, deep)
