"""Quantifier-free formulas: parsing, printing, evaluation, rewriting."""

import collections
import copy
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from charpk import polys
from charpk.differential import DerivationContext
from charpk.errors import (CharpkError, FieldError, FormulaError,
                           ResourceExhausted, RingError)
from charpk.fields import MAX_NESTING, make_field
from charpk.formula import (Add, AndF, Atom, Const, DOp, Formula, IntConst,
                            Lam, Lambda0, Mul, NotF, OrF, Sub, Var,
                            check_language, correct_lambda0_D, eval_formula,
                            eval_term, formula_variables, parse,
                            print_formula, print_term, simplify_term,
                            term_variables, to_nnf, unravel_lambda_terms)
from charpk.polys import PolyRing

from oracles import read_formula


def _structure(spec="Fp(3;t)"):
    K = make_field(spec)
    D = DerivationContext(K, {"t": K.one()})
    return K, {"field": K, "derivation": D}


def test_nodes_build_compare_hash_print_and_refuse_assignment():
    """Nodes take their fields by position or name, compare and hash by
    class and fields (a Const by its value), print as `Var(name='x')`,
    refuse assignment and deletion, and copy and pickle."""
    K = make_field("Fp(3;t)")
    x = Var("x")
    assert x == Var(name="x") and x != Var("y") and x != IntConst(0)
    assert Add(x, IntConst(1)) != Sub(x, IntConst(1))
    assert hash(Add(x, x)) == hash((x, x)) and hash(x) == hash(("x",))
    assert hash(Const(K.gen("t"))) == hash(("Const", K.gen("t")))
    assert {Mul(x, x), Mul(x, x), Formula()} == {Mul(x, x), Formula()}
    assert repr(Atom(Sub(x, IntConst(2)))) == \
        "Atom(term=Sub(left=Var(name='x'), right=IntConst(value=2)))"
    assert repr(Formula()) == "Formula()"
    with pytest.raises(AttributeError, match="cannot assign to field 'name'"):
        x.name = "y"
    with pytest.raises(AttributeError, match="field 'left'"):
        del Add(x, x).left
    node = Lam(1, 1, (Const(K.gen("t")),), Mul(x, Const(K.from_int(2))))
    assert copy.deepcopy(node) == node == pickle.loads(pickle.dumps(node))
    for bad in [lambda: Var(), lambda: Var("x", "y"),
                lambda: Add(x, left=x), lambda: Var(nom="x")]:
        with pytest.raises(TypeError):
            bad()


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


@pytest.mark.parametrize("text", ["x = 0 | x = t^3 + t^2",
                                  "x = t^3 + t^2 | x = 0"])
def test_unravel_keeps_the_disjunct_the_witness_satisfies(text):
    K, structure = _structure("Fp(2;t)")
    witness = {"x": K.parse("t^3 + t^2")}
    res = unravel_lambda_terms(parse(text, "full", {"vars": {"x"},
                                                    "field": K}),
                               structure, witness)
    kept = "(x - (((t * t) * t) + (t * t)))"
    assert res.names == ("x",)
    assert [print_term(c) for c in res.conditions] == [kept]
    assert res.trace == [{"kind": "disjunct", "chosen": kept + " = 0"}]


def test_unravel_removes_a_negation_by_an_inverse_and_a_degenerate_lam():
    K, structure = _structure("Fp(2;t)")
    x = K.parse("t^3 + t^2")
    ctx = {"vars": {"x"}, "field": K}
    res = unravel_lambda_terms(parse("!(x = 0) & x = t^3 + t^2", "full",
                                     ctx), structure, {"x": x})
    assert res.names == ("x", "inv1")
    assert res.values["inv1"] == K.one() / x
    assert print_term(res.conditions[0]) == "((x * inv1) - 1)"
    assert res.trace == [{"kind": "negation", "aux": "inv1"}]
    # t^2 is a square, so the basis is p-dependent and lam is 0
    res = unravel_lambda_terms(parse("lam(1,1; t^2; x) = 0", "full", ctx),
                               structure, {"x": x})
    assert res.names == ("x",)
    assert [print_term(c) for c in res.conditions] == ["0"]
    assert res.trace == [{"kind": "lam", "case": "degenerate", "index": 1,
                          "arity": 1}]


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


# ---------------------------------------------------------------------------
# depth and size: deep trees, the nesting cap and the term-node cap
# ---------------------------------------------------------------------------

# text, its printed form, and its truth at x = 1 over F_3(t)
DEEP = {
    "x^3000": ("x^3000 = 0",
               "(" * 2999 + "x" + " * x)" * 2999 + " = 0", False),
    "3000-term sum": (" + ".join(["x"] * 3000) + " = 0",
                      "(" * 2999 + "x" + " + x)" * 2999 + " = 0", True),
    "3000 conjuncts": (" & ".join(["x = 0"] * 3000),
                       "(" * 2999 + "x = 0" + " & x = 0)" * 2999, False),
    "5000 unary minuses": ("-" * 5000 + "x = 0",
                           "(0 - " * 5000 + "x" + ")" * 5000 + " = 0",
                           False),
}


@pytest.mark.parametrize("name", DEEP)
def test_deep_trees_go_through_every_walker(name):
    """Trees thousands of nodes deep are read, printed, checked,
    evaluated, corrected and unravelled.  Printed text is compared,
    because node == recurses."""
    text, printed, at_one = DEEP[name]
    K, structure = _structure()
    ctx = {"vars": {"x"}, "field": K}
    phi = parse(text, "lambda0_D", ctx)
    assert print_formula(phi) == printed
    assert check_language(phi, "ring") is phi
    assert formula_variables(phi) == {"x"}
    zero = {"x": K.zero()}
    assert eval_formula(phi, structure, zero)
    assert eval_formula(phi, structure, {"x": K.one()}) is at_one
    res = correct_lambda0_D(phi, structure=structure, witness=zero)
    assert print_formula(res.formula) == printed and res.trace == []
    unravelled = unravel_lambda_terms(phi, structure, zero)
    atoms = printed.count(" = 0")
    assert len(unravelled.conditions) == atoms
    assert {print_term(c) for c in unravelled.conditions} == {
        printed[:-len(" = 0")] if atoms == 1 else "x"}


def test_eval_formula_short_circuits():
    """No conjunct or disjunct is evaluated once the answer is known: y
    is unassigned, and evaluating it would raise."""
    K, structure = _structure()
    ctx = {"vars": {"x", "y"}, "field": K}
    at = {"x": K.zero()}
    assert eval_formula(parse("x = 0 | y = 0", "full", ctx), structure, at)
    assert not eval_formula(parse("x = 1 & y = 0", "full", ctx),
                            structure, at)
    assert eval_formula(parse("!(x = 1 & D(y) = 0) | y = 0", "full", ctx),
                        structure, at) is True
    with pytest.raises(FormulaError, match="unassigned variable 'y'"):
        eval_formula(parse("x = 0 & y = 0", "full", ctx), structure, at)


def _nested(n, opening, inner, closing=")"):
    return opening * n + inner + closing * n


@pytest.mark.parametrize("opening, inner, closing", [
    ("(", "x", ") = 0"), ("(", "x = 0", ")"), ("!(", "x = 0", ")"),
    ("D(", "x", ") = 0"), ("lam(1,1; t; ", "x", ") = 0"),
    ("s[g](", "x", ")"), ("(-", "x", ")"),
])
def test_parentheses_nest_at_most_max_nesting(opening, inner, closing):
    ctx = {"vars": {"x"}, "field": make_field("Fp(3;t)")}
    n = MAX_NESTING
    text = opening * n + inner + closing[0] * (n - 1) + closing
    parse(text, "full", ctx)
    deeper = opening + text + closing[0]
    with pytest.raises(FormulaError,
                       match=f"formula nests parentheses deeper than {n}$"):
        parse(deeper, "full", ctx)


def test_every_reader_refuses_deep_nesting_and_loops_over_minuses():
    K = make_field("Fp(3;t)")
    R = PolyRing(K, ("x",))
    with pytest.raises(FieldError, match="scalar literal nests"):
        K.parse(_nested(2000, "(", "t"))
    with pytest.raises(RingError, match="polynomial nests"):
        R.parse(_nested(2000, "(", "x"))
    with pytest.raises(FormulaError, match="formula nests"):
        parse(_nested(2000, "(", "x") + " = 0")
    assert K.parse("-" * 5000 + "t") == K.parse("t")
    assert str(R.parse("-" * 5001 + "x^2")) == str(R.parse("-x^2"))
    assert print_term(parse("--x^2")) == "(0 - (0 - (x * x)))"


@pytest.mark.parametrize("text", ["x^10000000 = 0",
                                  "(((x^40)^40)^40)^40 = 0",
                                  "x^40000 + x^40000 = 0",
                                  "((x^30000)) * x^30000 = 0"])
def test_powers_past_the_term_node_cap_are_refused_unbuilt(text):
    start = time.perf_counter()
    with pytest.raises(ResourceExhausted,
                       match=f"past {polys.MAX_TERM_NODES} term nodes"):
        parse(text)
    assert time.perf_counter() - start < 1.0


def test_term_node_cap_counts_each_power_once():
    """Each parenthesis is read once, so its powers count once and the
    text below, just under the cap, is read."""
    phi = parse("(((x^50000))) = 0")
    assert print_formula(phi).count("x") == 50000


def test_a_parenthesized_term_is_read_once_per_position(monkeypatch):
    """Each "(" is decided once, by the token after its ")", before it
    is read: 64 levels build the power as often as one level does."""
    from charpk.formula import Term
    calls = []
    power = Term.__pow__

    def counted(self, n):
        calls.append(n)
        return power(self, n)
    monkeypatch.setattr(Term, "__pow__", counted)
    one = parse("(x^500) = 0")
    once = len(calls)
    calls.clear()
    deep = parse(_nested(MAX_NESTING, "(", "x^500") + " = 0")
    assert len(calls) == once
    assert print_formula(deep) == print_formula(one)


@pytest.mark.parametrize("text, message", [
    ("(x = )", "unexpected character ')' in formula"),
    ("((x =/0))", "unexpected character '/' in formula"),
    ("(x) & y = 0", "expected '=' at position 2 in '(x) & y = 0'"),
])
def test_a_formula_parenthesis_reports_its_own_error(text, message):
    """A "(" whose ")" is not followed by = + - * / ^ holds a formula, so
    an error inside it is reported where it is, not as a term's
    unbalanced parentheses."""
    with pytest.raises(FormulaError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("op, rest", [("=", " x"), ("+", " x = 0"),
                                      ("-", " x = 0"), ("*", " x = 0"),
                                      ("/", "t = x"), ("^", "2 = x")])
def test_each_term_operator_after_a_parenthesis_makes_it_a_term(op, rest):
    ctx = {"vars": {"x"}, "field": make_field("Fp(3;t)")}
    assert print_formula(parse(f"(t) {op}{rest}", "full", ctx)) == \
        print_formula(parse(f"t {op}{rest}", "full", ctx))


# ---------------------------------------------------------------------------
# printing: parse(print(x)) evaluates as x, composite constants included
# ---------------------------------------------------------------------------

_COMPOSITE = {"Fp(3;t)": ["t^2 + 2*t", "2*t", "1/t^2", "(t + 1)/t^2",
                          "t^3/t^5", "2/t"],
              "GF(3,2,a^2+1)": ["a + 1", "2*a", "2*a + 2", "a"]}


def _term_strategy(K, constants):
    leaves = st.one_of(st.sampled_from([Var("x"), Var("y")]),
                       st.integers(0, 4).map(IntConst),
                       st.sampled_from(constants).map(
                           lambda c: Const(K.parse(c))))

    def extend(children):
        binary = st.tuples(st.sampled_from([Add, Sub, Mul]), children,
                           children).map(lambda a: a[0](a[1], a[2]))
        unary = st.tuples(st.sampled_from([DOp, Lambda0]),
                          children).map(lambda a: a[0](a[1]))
        return binary | unary
    return st.recursive(leaves, extend, max_leaves=12)


def _formula_strategy(terms):
    def extend(children):
        return (st.tuples(st.sampled_from([AndF, OrF]), children, children)
                .map(lambda a: a[0](a[1], a[2]))
                | children.map(NotF))
    return st.recursive(terms.map(Atom), extend, max_leaves=4)


@pytest.mark.parametrize("spec", sorted(_COMPOSITE))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_printed_formulas_read_back_to_equal_values(spec, data):
    K = make_field(spec)
    images = {t: K.one() for t in K.tvars}
    structure = {"field": K, "derivation": DerivationContext(K, images)}
    ctx = {"vars": {"x", "y"}, "field": K}
    phi = data.draw(_formula_strategy(_term_strategy(K, _COMPOSITE[spec])))
    text = print_formula(phi)
    again = parse(text, "full", ctx)
    # a second round trip is exact
    assert parse(print_formula(again), "full", ctx) == again
    values = [K.parse(v) for v in _COMPOSITE[spec]] + [K.zero(), K.one()]
    for _ in range(4):
        at = {"x": data.draw(st.sampled_from(values)),
              "y": data.draw(st.sampled_from(values))}
        assert eval_formula(again, structure, at) == \
            eval_formula(phi, structure, at), text
        for old, new in zip(_atom_terms(phi), _atom_terms(again)):
            assert eval_term(new, structure, at) == \
                eval_term(old, structure, at), text


def _atom_terms(phi):
    """The terms of phi's atoms, left to right."""
    from charpk.formula import _fold
    terms = []

    def leave(g, values):
        if isinstance(g, Atom):
            terms.append(g.term)
    _fold(to_nnf(phi), leave)
    return terms


def test_composite_constants_print_as_text_that_reads_back():
    K, _ = _structure()
    ctx = {"vars": {"x"}, "field": K}
    for text, printed in [("x*(t/2)", "(x * (2*t))"),
                          ("x*(1/t/t)", "(x * (1/t/t))"),
                          ("x*(t/t/t/t)", "(x * (1/t/t))"),
                          ("x*(2/t)", "(x * (2/t))")]:
        assert print_term(parse(text, "full", ctx)) == printed
    two_t = Const(K.parse("(t + 1)/t^2"))
    assert print_term(two_t) == "((t+1)*(1/t/t))"
    assert print_term(parse(print_term(two_t), "full", ctx)) == \
        "((t + 1) * (1/t/t))"
