"""Quantifier-free formulas: parsing, printing, evaluation, rewriting."""

import collections
import random
import re

import pytest

from charpk.differential import DerivationContext
from charpk.errors import CharpkError, FormulaError
from charpk.fields import make_field
from charpk.formula import (Atom, Formula, IntConst, Mul, Sub, Var,
                            correct_lambda0_D, eval_formula, eval_term,
                            formula_variables, parse, print_formula,
                            print_term, simplify_term, term_variables,
                            unravel_lambda_terms)

from oracles import read_formula


def _structure(spec="Fp(3;t)"):
    K = make_field(spec)
    D = DerivationContext(K, {"t": K.one()})
    return K, {"field": K, "derivation": D}


def test_parse_print_round_trip_fixed_examples():
    K, _ = _structure()
    ctx = {"vars": {"x", "y"}, "field": K}
    for text in [
        "x + y",
        "(x * y) - 1",
        "D(x) + l0(y)",
        "lam(2,1; t; x)",
        "x = 0",
        "(x = 0 & y = 0) | !(x - y = 0)",
        "D(D(x)) * x",
    ]:
        node = parse(text, "full", ctx)
        printed = (print_formula(node) if "=" in text
                   else print_term(node))
        again = parse(printed, "full", ctx)
        reprinted = (print_formula(again) if "=" in text
                     else print_term(again))
        assert printed == reprinted


def test_random_round_trip():
    K, _ = _structure()
    ctx = {"vars": {"x", "y"}, "field": K}
    rng = random.Random(41)

    def rand_term(depth):
        if depth == 0:
            return rng.choice(["x", "y", "1", "2", "t"])
        a, b = rand_term(depth - 1), rand_term(depth - 1)
        return rng.choice([f"({a} + {b})", f"({a} * {b})",
                           f"({a} - {b})", f"D({a})", f"l0({a})"])

    for _ in range(40):
        text = rand_term(3)
        node = parse(text, "full", ctx)
        printed = print_term(node)
        assert print_term(parse(printed, "full", ctx)) == printed


def test_language_tags_enforced():
    K, _ = _structure()
    ctx = {"vars": {"x"}, "field": K}
    parse("x + 1", "ring", ctx)
    with pytest.raises(FormulaError):
        parse("D(x)", "ring", ctx)
    with pytest.raises(FormulaError):
        parse("lam(1,1; t; x)", "lambda0_D", ctx)
    parse("l0(D(x))", "lambda0_D", ctx)


def test_eval_term_and_formula():
    K, structure = _structure()
    t = K.gen("t")
    ctx = {"vars": {"x"}, "field": K}
    assign = {"x": t * t}
    assert eval_term(parse("D(x)", "full", ctx), structure, assign) == t + t
    assert eval_term(parse("l0(x)", "full", ctx), structure, assign).is_zero()
    cube = {"x": t ** 3}
    assert eval_term(parse("l0(x)", "full", ctx), structure, cube) == t
    assert eval_formula(parse("D(x) - 2*t = 0", "full", ctx),
                        structure, assign)
    assert not eval_formula(parse("x = 0", "full", ctx), structure, assign)


def test_simplify_term():
    K, _ = _structure()
    ctx = {"vars": {"x"}, "field": K}
    assert print_term(simplify_term(parse("0 + x", "full", ctx))) == "x"
    assert print_term(simplify_term(parse("0 * x", "full", ctx))) == "0"
    assert print_term(simplify_term(parse("1 * x", "full", ctx))) == "x"
    assert print_term(simplify_term(parse("D(2)", "full", ctx))) == "0"


def test_unravel_produces_verified_conditions():
    K, structure = _structure("Fp(2;t)")
    t = K.gen("t")
    ctx = {"vars": {"x"}, "field": K}
    phi = parse("lam(1,1; t; x) - t = 0", "full", ctx)
    witness = {"x": t ** 3 + t ** 2}
    res = unravel_lambda_terms(phi, structure, witness)
    assert res.names[0] == "x"
    assert any(n.startswith("lm1_") for n in res.names)
    # the recorded values satisfy every condition term
    from charpk.formula import eval_term as _ev
    for cond in res.conditions:
        assert _ev(cond, structure, res.values).is_zero()
    V = res.locus_variety()
    assert not V.is_empty()


def test_correction_nonpower_case_freezes_argument():
    # D(l0(x)) + D(x) = 0 with x declared a non-p-th-power: the l0 term
    # collapses to 0 and x is recorded as a fixed term
    K, structure = _structure("Fp(2;t)")
    ctx = {"vars": {"x"}, "field": K}
    phi = parse("D(l0(x)) + D(x) = 0", "full", ctx)
    res = correct_lambda0_D(phi, structure=structure, cases=["nonpower"])
    assert res.fixed_terms and print_term(res.fixed_terms[0]) == "x"
    assert print_formula(res.formula) == "D(x) = 0"
    assert res.fresh_vars == ()


def test_correction_square_case_introduces_fresh_variable():
    K, structure = _structure("Fp(2;t)")
    t = K.gen("t")
    ctx = {"vars": {"x"}, "field": K}
    phi = parse("D(l0(x)) + x = 0", "full", ctx)
    res = correct_lambda0_D(phi, structure=structure,
                            witness={"x": t ** 2})
    assert res.fresh_vars == ("y1",)
    out = print_formula(res.formula)
    assert "(y1 * y1)" in out and "D(y1)" in out
    # explicit cases reproduce the same rewriting
    res2 = correct_lambda0_D(phi, structure=structure, cases=["power"])
    assert print_formula(res2.formula) == out


def test_correction_rejects_inconsistent_cases():
    K, structure = _structure("Fp(2;t)")
    ctx = {"vars": {"x"}, "field": K}
    phi = parse("(D(l0(D(l0(x)) + D(x))) + x) = 0", "full", ctx)
    with pytest.raises(FormulaError):
        correct_lambda0_D(phi, structure=structure,
                          cases=["power", "nonpower"])


def test_correction_nested_example_both_squares():
    K, structure = _structure("Fp(2;t)")
    ctx = {"vars": {"x"}, "field": K}
    phi = parse("(D(l0(D(l0(x)) + D(x))) + x) = 0", "full", ctx)
    res = correct_lambda0_D(phi, structure=structure,
                            cases=["power", "power"])
    out = print_formula(res.formula)
    assert out == ("(((y1 * y1) - x) = 0 & (((y2 * y2) - (D(y1) + D(x)))"
                   " = 0 & (D(y2) + x) = 0))")
    assert res.fixed_terms == []


def test_term_operators_build_the_reader_nodes():
    x, y = Var("x"), Var("y")
    assert x ** 3 == Mul(Mul(x, x), x)
    assert x ** 0 == IntConst(1)
    assert -x * y == Mul(Sub(IntConst(0), x), y)
    assert parse("-x*y") == Sub(IntConst(0), Mul(x, y))
    assert parse("x^3") == x ** 3 and parse("x^0") == IntConst(1)


def test_unary_minus_as_in_polynomial_text():
    """A minus inside a product or after a binary minus negates the
    factor after it, as polynomial text allows."""
    t, b = Var("t"), Var("b")
    assert parse("x*-t") == Mul(Var("x"), Sub(IntConst(0), t))
    assert parse("a - -b") == Sub(Var("a"), Sub(IntConst(0), b))
    K, _ = _structure()
    ctx = {"vars": {"x"}, "field": K}
    node = parse("x*-t = 0", "full", ctx)
    assert print_formula(node) == "(x * (0 - t)) = 0"


@pytest.mark.parametrize("text", ["\u00b2x = 0", "y + \u00b2 = 0"])
def test_names_start_with_a_letter_or_underscore(text):
    with pytest.raises(FormulaError, match="unexpected character '\u00b2'"):
        parse(text)


@pytest.mark.parametrize("text", ["x - 1/0 = 0", "0/0 = x", "t/0", "1/3"])
def test_constant_division_by_zero_is_a_formula_error(text):
    ctx = {"vars": {"x"}, "field": make_field("Fp(3;t)")}
    with pytest.raises(FormulaError, match="division by zero in "):
        parse(text, "full", ctx)


def test_constant_division():
    K, _ = _structure()
    ctx = {"vars": {"x"}, "field": K}
    assert print_term(parse("2/t + x", "full", ctx)) == "((2/t) + x)"
    with pytest.raises(FormulaError, match="only defined between constants"):
        parse("x/2", "full", ctx)
    with pytest.raises(FormulaError, match="only defined between constants"):
        parse("1/2")


_TOKEN = re.compile(r"\s+|\w+|.", re.S)
_MUTATIONS = ["-", "- -", "*-", "\u00b2", "\u00b2x", "/0", "1/0", "t/0",
              "0/0", "a/2", "^", "^-1", "(", ")", "=", "&", "|", "!(", ",",
              ";", "s[g]", "s [g]", "D", "lam(", " "]


def _random_term(rng, depth):
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(["x", "y", "z", "t", "a", "u", "0", "1", "2", "3"])
    a = _random_term(rng, depth - 1)
    kind = rng.randrange(11)
    if kind < 3:
        op = rng.choice([" + ", " - ", "*"])
        return f"{a}{op}{_random_term(rng, depth - 1)}"
    if kind == 3:
        return f"({a})"
    if kind == 4:
        return f"{a}^{rng.randrange(4)}"
    if kind == 5:
        return f"-{a}"
    if kind == 6:
        return (f"{rng.choice(['1', '2', 't', 'a', '(t + 1)'])}/"
                f"{rng.choice(['2', '3', 't', 'a', '0', '(t - 1)'])}")
    if kind == 7:
        return f"{rng.choice(['D', 'l0'])}({a})"
    if kind == 8:
        basis = ", ".join(_random_term(rng, depth - 2)
                          for _ in range(rng.randrange(3)))
        return f"lam({rng.randrange(1, 3)},{rng.randrange(3)}; {basis}; {a})"
    if kind == 9:
        return f"s[{rng.choice(['g', 'h1'])}]({a})"
    return f"{a} {rng.choice(['+', '-'])} ({_random_term(rng, depth - 1)})"


def _random_formula(rng, depth):
    kind = rng.randrange(6) if depth else 0
    if kind < 2:
        right = rng.choice(["0", _random_term(rng, 2)])
        return f"{_random_term(rng, 3)} = {right}"
    a, b = _random_formula(rng, depth - 1), _random_formula(rng, depth - 1)
    if kind == 2:
        return f"{a} & {b}"
    if kind == 3:
        return f"({a}) | {b}"
    if kind == 4:
        return f"!({a})"
    return f"({a} & {b})"


def _mutated(rng, text):
    tokens = _TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        kind = rng.randrange(4)
        if kind == 0 and len(tokens) > 1:
            del tokens[i]
        elif kind == 1:
            tokens.insert(i, tokens[i] + " ")
        elif kind == 2:
            ops = [j for j, tok in enumerate(tokens) if tok in "+-*/^=&|"]
            if ops:
                tokens[rng.choice(ops)] = rng.choice("+-*/^=&|")
        else:
            tokens.insert(i, rng.choice(_MUTATIONS))
    return "".join(tokens)


def _read(reader, text, ctx):
    try:
        return "ok", reader(text, "full", ctx)
    except CharpkError as exc:
        return "refused", exc
    except Exception as exc:  # the old reader's crashes
        return "crash", exc


def _has_inner_unary_minus(text):
    """A minus right after * / + or another minus: a unary minus that
    the old formula reader refused."""
    return re.search(r"[*/+-]\s*-", text) is not None


def _starts_with_non_decimal_digit(node):
    names = (formula_variables(node) if isinstance(node, Formula)
             else term_variables(node))
    return any(n[0].isalnum() and not n[0].isalpha()
               and not n[0].isdecimal() for n in names)


def test_differential_against_the_old_formula_reader():
    """Generated and mutated texts, each read with and without a
    {vars, field} context, by `parse` and by the old reader with its own
    lexer: identical ASTs wherever the old reader accepts, except names
    starting with a non-decimal digit, which are now refused; refusals
    stay refusals except a unary minus inside a product or after a
    binary minus; and `parse` raises nothing but a CharpkError."""
    rng = random.Random(15)
    specs = ["Fp(3;t)", "GF(3,2,a^2+1)", "Fp(2;t,u)"]
    counts = collections.Counter()
    texts = 0
    for n in range(2000):
        base = (_random_formula(rng, 2) if n % 3 else
                _random_term(rng, 4))
        for text in (base, _mutated(rng, base)):
            texts += 1
            field = make_field(specs[n % len(specs)])
            for ctx in (None, {"vars": {"x", "y"}, "field": field}):
                old, old_value = _read(read_formula, text, ctx)
                new, new_value = _read(parse, text, ctx)
                assert new != "crash", (text, new_value)
                if old == new == "ok":
                    assert new_value == old_value, text
                    counts["identical"] += 1
                elif old == "ok":
                    assert _starts_with_non_decimal_digit(old_value), text
                    counts["newly refused"] += 1
                elif new == "ok":
                    assert old == "refused"
                    assert _has_inner_unary_minus(text), text
                    counts["newly accepted"] += 1
                else:
                    counts[f"{old}, still refused"] += 1
    assert texts == 4000
    assert counts["identical"] >= 1000, counts
    assert counts["newly accepted"] and counts["newly refused"], counts
    assert counts["crash, still refused"], counts
