"""Instance files and the command-line surface."""

import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import charpk
from charpk.cli import main
from charpk.errors import InstanceFileError
from charpk.instancefile import InstanceFile


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


DPAC3 = """
variety V { vars: [x]; over: "Fp(3;t)"; gens: [] }
variety W { vars: [x, u]; over: "Fp(3;t)"; gens: ["u - 1"] }
derivation { over: "Fp(3;t)"; images: {t: "1"} }
functions { items: ["x"] }
bound { value: 1 }
"""

DPAC2 = """
variety V { vars: [x]; over: "Fp(2;t)"; gens: [] }
variety W { vars: [x, u]; over: "Fp(2;t)"; gens: ["u*u - x"] }
derivation { over: "Fp(2;t)"; images: {t: "1"} }
"""

# V(x^2*y + z^2) peels to one generator, so K(V) is no rational function
# field: functions are ranked and rooted modulo the generator
ONE_GEN = """
variety { vars: [x, y, z]; over: "Fp(2;t)"; gens: ["x^2*y + z^2"] }
"""

CIRCLE7 = """
variety { vars: [x, y]; over: "Fp(7;)"; gens: ["x^2+y^2-1"] }
avoid { items: ["y"] }
"""


def test_instancefile_parser_basics():
    text = """
    # a comment
    variety V { vars: [x, u]; over: "GF(5,1)"; gens: ["x^2 - u"] }
    bound { value: 3 }
    """
    inst = InstanceFile.parse(text)
    blk = inst.require("variety", "V")
    assert blk.require("vars") == ["x", "u"]
    assert blk.require("over") == "GF(5,1)"
    assert int(inst.require("bound").require("value")) == 3
    assert inst.find("missing") is None
    with pytest.raises(InstanceFileError):
        inst.require("missing")
    with pytest.raises(InstanceFileError):
        blk.require("nokey")


def test_instancefile_rejects_malformed_input():
    for bad in ["variety {", "variety { vars: }", "{}", 'x { a: "unterminated }']:
        with pytest.raises(InstanceFileError):
            InstanceFile.parse(bad)


def test_instancefile_refuses_lists_and_maps_nested_too_deep(tmp_path,
                                                             capsys):
    from charpk.fields import MAX_NESTING
    n = MAX_NESTING
    inst = InstanceFile.parse("b { v: " + "[" * n + "x" + "]" * n + " }")
    value = inst.require("b").require("v")
    for _ in range(n):
        value, = value
    assert value == "x"
    mixed = "{k: [" * (n // 2)
    assert InstanceFile.parse("b { v: " + mixed + "x" + "]}" * (n // 2)
                              + " }")
    deeper = "b { v: " + "[" * (n + 1) + "x" + "]" * (n + 1) + " }"
    with pytest.raises(InstanceFileError,
                       match=f"nest deeper than {n} at position {7 + n}$"):
        InstanceFile.parse(deeper)
    path = _write(tmp_path, "deep.inst", "variety { vars: " + "[" * 3000)
    assert main(["variety", "irr", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "nest deeper" in captured.err


def test_cli_validate_and_search_dpac(tmp_path, capsys):
    path = _write(tmp_path, "good.inst", DPAC3)
    assert main(["axiom", "validate-dpac", path]) == 0
    out = capsys.readouterr().out
    assert "status: valid-instance" in out
    assert main(["axiom", "search-dpac", path]) == 0
    out = capsys.readouterr().out
    assert "witness: (t)" in out


def test_cli_invalid_instance_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.inst", DPAC2)
    assert main(["axiom", "validate-dpac", path]) == 1
    out = capsys.readouterr().out
    assert "E projects dominantly on W" in out


def test_cli_json_output_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "good.inst", DPAC3)
    assert main(["axiom", "validate-dpac", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["axiom", "validate-dpac", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["status"] == "valid-instance"
    assert [b["verdict"] for b in payload["bullets"]] == ["pass"] * 5


def test_cli_pac_open_circle(tmp_path, capsys):
    path = _write(tmp_path, "circle.inst", CIRCLE7)
    assert main(["axiom", "pac-open", path]) == 0
    out = capsys.readouterr().out
    assert "witness-found" in out


def test_cli_variety_points(tmp_path, capsys):
    path = _write(tmp_path, "circle.inst", CIRCLE7)
    assert main(["variety", "points", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 8


def test_cli_poly_subcommands(tmp_path, capsys):
    path = _write(tmp_path, "ideal.inst", """
ideal { vars: [x, y, z]; over: "GF(7,1)"; gens: ["x - y^2", "z - y^3"] }
""")
    assert main(["poly", "dim", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 1
    assert main(["poly", "member", path, "--poly", "x*z - y^5"]) == 0
    capsys.readouterr()
    assert main(["poly", "member", path, "--poly", "x - 1"]) == 1
    capsys.readouterr()
    assert main(["poly", "gb", path, "--order", "lex"]) == 0
    assert capsys.readouterr().out.strip()
    assert main(["poly", "elim", path, "--drop", "y", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["generators"] == \
        ["x^3 + 6*z^2"]
    assert main(["poly", "elim", path, "--drop", "1"]) == 2
    assert "unknown variables: 1" in capsys.readouterr().err


def test_cli_field_and_errors(tmp_path, capsys):
    assert main(["field", "GF(2,4)"]) == 0
    capsys.readouterr()
    assert main(["field", "GF(3)"]) == 2  # malformed spec
    capsys.readouterr()
    assert main(["field", "GF(x,2)"]) == 2
    assert "not an integer" in capsys.readouterr().err
    assert main(["axiom", "validate-dpac", str(tmp_path / "nope.inst")]) == 2
    capsys.readouterr()
    for gens in ['["x - 1/0"]', "[3]"]:
        path = _write(tmp_path, "gens.inst", f"""
variety {{ vars: [x]; over: "GF(5,1)"; gens: {gens} }}
""")
        assert main(["variety", "points", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    for over in ("[1]", "3"):
        path = _write(tmp_path, "over.inst", f"""
variety {{ vars: [x]; over: {over}; gens: ["x"] }}
""")
        assert main(["variety", "points", path]) == 2
        assert capsys.readouterr().err == \
            f"error: field spec must be a string, not {json.loads(over)!r}\n"
    path = _write(tmp_path, "image.inst", """
variety V { vars: [x]; over: "Fp(3;t)"; gens: ["x^2 - t"] }
derivation { over: "Fp(3;t)"; images: {t: "1/0"} }
""")
    assert main(["diff", "prolong", path]) == 2
    assert "division by zero" in capsys.readouterr().err
    for image in ("frobenius^x", "frobenius^"):
        path = _write(tmp_path, "action.inst", f"""
action {{ group: cyclic(2); field: "GF(2,4)"; generator_image: "{image}" }}
""")
        assert main(["action", "invariants", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_action_probe_and_galois(tmp_path, capsys):
    probe = _write(tmp_path, "probe.inst", """
probe { subfield: "GF(2,1)"; field: "GF(2,2)"; thetas: ["x^3+x+1"] }
""")
    assert main(["action", "probe", probe]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "orbits [3]" in out
    gal = _write(tmp_path, "galois.inst", """
galois { field: "GF(2,4)"; subfield: "GF(2,1)" }
""")
    assert main(["action", "galois", gal, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 4


def test_cli_locus_and_invariants_over_finite_fields(tmp_path, capsys):
    path = _write(tmp_path, "locus.inst", """
locus { in: "GF(2,4)"; base: "GF(2,2)"; elements: ["g", "g^2+1"] }
""")
    assert main(["variety", "locus", path, "--json"]) == 0
    assert capsys.readouterr().out.strip() == (
        '{"generators":["x1 + x2 + (g+1)","x2^2 + x2 + (g+1)"],'
        '"vars":["x1","x2"]}')
    path = _write(tmp_path, "action.inst", """
action { group: cyclic(3); field: "GF(2,6)"; generator_image: "frobenius^2" }
""")
    assert main(["action", "invariants", path, "--json"]) == 0
    assert capsys.readouterr().out.strip() == (
        '{"invariants":"GF(2,2,g^2+g+1)"}')
    assert main(["action", "invariants", path]) == 0
    assert capsys.readouterr().out.strip() == \
        "invariant field: GF(2,2,g^2+g+1)"
    assert main(["field", "GF(2,2)"]) == 0
    assert "canonical form: GF(2,2,g^2+g+1)" in capsys.readouterr().out


def test_cli_internal_error_exits_2_without_traceback(monkeypatch, capsys):
    import charpk.cli as cli

    def broken(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "cmd_field", broken)
    assert main(["field", "GF(2,1)"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in captured.out + captured.err


GBDCF_FROB = """
variety V { vars: [x]; over: "GF(2,2)"; gens: [] }
variety W { vars: [x, u]; over: "GF(2,2)"; gens: ["u"] }
action { group: cyclic(2); field: "GF(2,2)"; generator_image: "frobenius" }
"""


@pytest.mark.parametrize("action, text", [("validate-dpac", DPAC3),
                                          ("validate-gbdcf", DPAC3),
                                          ("validate-gbdcf", GBDCF_FROB)])
def test_cli_error_inside_a_bullet_exits_2(tmp_path, monkeypatch, capsys,
                                           action, text):
    import charpk.axioms as axioms
    from charpk.errors import CharpkError

    def broken(*args):
        raise CharpkError("injected")
    monkeypatch.setattr(axioms, "is_dominant", broken)
    path = _write(tmp_path, "broken.inst", text)
    assert main(["axiom", action, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("unsupported: bullet 'W projects dominantly on "
                            "V': injected\n")


def test_cli_formula_correct(tmp_path, capsys):
    path = _write(tmp_path, "formula.inst", """
formula { text: "D(l0(D(l0(x)) + D(x))) + x = 0"; language: "lambda0_D";
          over: "Fp(2;t)"; vars: [x] }
derivation { over: "Fp(2;t)"; images: {t: "1"} }
witness { x: "t" }
""")
    assert main(["formula", "correct", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["formula"] == ("(((y1 * y1) - D(x)) = 0 & "
                                  "(D(y1) + x) = 0)")
    assert payload["fixed_terms"] == ["x"]


PARABOLA7 = 'variety { vars: [x, y]; over: "GF(7,1)"; gens: ["y - x^2"] }\n'
DIFF3 = """
variety V { vars: [x]; over: "Fp(3;t)"; gens: [] }
variety W { vars: [x, u]; over: "Fp(3;t)"; gens: ["u - 1"] }
derivation { over: "Fp(3;t)"; images: {t: "1"} }
"""
FROBENIUS9 = ('action { group: cyclic(2); field: "GF(3,2)"; '
              'generator_image: "frobenius" }\n')


@pytest.mark.parametrize("argv, text, code, payload", [
    (["variety", "irr"],
     'variety { vars: [x, y]; over: "GF(7,1)"; gens: ["x^2 + y^2"] }',
     0, {"irreducible": True}),
    (["variety", "absirr"],
     'variety { vars: [x, y]; over: "GF(7,1)"; gens: ["x^2 + y^2"] }',
     1, {"absolutely_irreducible": False}),
    (["variety", "dominant"],
     PARABOLA7 + 'variety target { vars: [x]; over: "GF(7,1)"; gens: [] }',
     0, {"dominant": True}),
    (["variety", "dominant"],
     PARABOLA7 + 'variety target { vars: [u, v]; over: "GF(7,1)"; '
     'gens: ["v - u^2"] }\nmap { coords: ["x + 1", "y + 2*x + 1"] }',
     0, {"dominant": True}),
    (["variety", "dominant"],
     PARABOLA7 + 'variety target { vars: [u]; over: "GF(7,1)"; gens: [] }'
     '\nmap { coords: ["y - x^2"] }',
     1, {"dominant": False}),
    (["diff", "extends"], DIFF3, 0, {"extends": True}),
    (["diff", "equalizer"], DIFF3, 0,
     {"generators": ["u + 2", "ut", "2*u + xt"],
      "vars": ["x", "u", "xt", "ut"]}),
    (["diff", "kerprol"], DIFF3, 0, {"dominant": True}),
    (["action", "kirred"],
     'set { field: "GF(2,2)"; base: "GF(2,1)"; items: ["g", "g+1"] }',
     0, {"k_irreducible": True}),
    (["action", "faithful"], FROBENIUS9, 0, {"faithful": True}),
    (["action", "faithful"], FROBENIUS9.replace("cyclic(2)", "cyclic(4)"),
     1, {"faithful": False}),
    (["action", "check210"], FROBENIUS9, 0,
     {"algebraic_separable": True, "invariant_field": "GF(3,1,g)",
      "iso_with_group": True, "normal": True, "pass": True}),
    (["axiom", "scf-reduce"], """
formula { text: "lam(1,1; t; x) = t"; language: "lambda"; over: "Fp(2;t)";
          vars: [x] }
witness { x: "t^3 + t^2" }
rows { items: [["x", "lm1_2"], ["lm1_1^2"]] }
""", 0, {"generators": ["lm1_1 + lm1_2", "lm1_2^3 + lm1_2^2 + x"],
         "rows": [["x", "lm1_2"], ["lm1_2^2"]],
         "vars": ["x", "lm1_1", "lm1_2"]}),
])
def test_cli_handlers_exit_codes_and_payloads(tmp_path, capsys, argv, text,
                                              code, payload):
    path = _write(tmp_path, "job.inst", text)
    assert main([*argv, path, "--json"]) == code
    captured = capsys.readouterr()
    assert (json.loads(captured.out), captured.err) == (payload, "")


def test_cli_check210_prints_the_invariant_field_spec(tmp_path, capsys):
    assert main(["action", "check210",
                 _write(tmp_path, "act.inst", FROBENIUS9)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "invariant field: GF(3,1,g)"


def test_cli_projection_to_unknown_variables_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "dom.inst", PARABOLA7 + (
        'variety target { vars: [u]; over: "GF(7,1)"; gens: [] }'))
    assert main(["variety", "dominant", path]) == 2
    assert capsys.readouterr().err == (
        "error: without a map block the target's variables must be the "
        "variety's; unknown: u\n")


def test_cli_scf_reduce_without_witness_coordinates(tmp_path, capsys):
    path = _write(tmp_path, "empty.inst", """
formula { text: "t = t"; language: "lambda"; over: "Fp(2;t)"; vars: [] }
witness { }
""")
    assert main(["axiom", "scf-reduce", path]) == 2
    assert capsys.readouterr().err == (
        "error: the locus needs a witness coordinate\n")


def test_cli_formula_unravel(tmp_path, capsys):
    path = _write(tmp_path, "unravel.inst", """
formula { text: "lam(1,1; t; x) = t"; language: "lambda";
          over: "Fp(2;t)"; vars: [x] }
witness { x: "t^3 + t^2" }
""")
    assert main(["formula", "unravel", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["names"][0] == "x"
    assert payload["conditions"]


def test_cli_diff_and_bop(tmp_path, capsys):
    diff = _write(tmp_path, "diff.inst", """
variety V { vars: [x]; over: "Fp(3;t)"; gens: ["x^2 - t"] }
derivation { over: "Fp(3;t)"; images: {t: "1"} }
""")
    assert main(["diff", "prolong", diff, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vars"] == ["x", "u"]
    assert sorted(payload["generators"]) == ["2*x*u + 2", "x^2 + (2*t)"]
    bop = _write(tmp_path, "bop.inst", """
bop { n: 2; over: "Fp(3;t)"; maps: [id, D];
      generators: ["t", "t+1", "t^2"] }
derivation { over: "Fp(3;t)"; images: {t: "1"} }
""")
    assert main(["axiom", "bop-check", bop]) == 0


def test_cli_diff_nabla(tmp_path, capsys):
    path = _write(tmp_path, "nabla.inst", """
variety V { vars: [x, y]; over: "Fp(3;t)"; gens: ["y - x^2"] }
derivation { over: "Fp(3;t)"; images: {t: "1"} }
point { x: "t"; y: "t^2" }
""")
    assert main(["diff", "nabla", path]) == 0
    assert capsys.readouterr().out == "(t, t^2, 1, 2*t)\n"
    assert main(["diff", "nabla", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "point": ["t", "t^2", "1", "2*t"]}
    off = _write(tmp_path, "off.inst", open(path).read().replace(
        'y: "t^2"', 'y: "t"'))
    assert main(["diff", "nabla", off]) == 2
    assert capsys.readouterr().err == \
        "error: point does not lie on the variety\n"


def _formula_file(tmp_path, text):
    return _write(tmp_path, "deep.inst", f'formula {{ text: "{text}"; '
                  'language: "lambda0_D"; over: "Fp(2;t)"; vars: [x] }\n'
                  'derivation { over: "Fp(2;t)"; images: {t: "1"} }\n'
                  'witness { x: "0" }\n')


def test_cli_deep_formulas_keep_the_exit_code_contract(tmp_path, capsys):
    path = _formula_file(tmp_path, "x^3000 = 0")
    assert main(["formula", "parse", path]) == 0
    captured = capsys.readouterr()
    assert captured.out == "(" * 2999 + "x" + " * x)" * 2999 + " = 0\n"
    assert captured.err == ""
    for action in ("eval", "correct", "unravel"):
        assert main(["formula", action, path, "--json"]) == 0
        capsys.readouterr()
    path = _formula_file(tmp_path, "x^10000000 = 0")
    start = time.perf_counter()
    assert main(["formula", "parse", path]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("unsupported: formula powers expand past "
                            "100000 term nodes\n")
    path = _formula_file(tmp_path, "(" * 2000 + "x" + ")" * 2000 + " = 0")
    assert main(["formula", "parse", path]) == 2
    assert capsys.readouterr().err == \
        "error: formula nests parentheses deeper than 64\n"


@pytest.mark.parametrize("action, block", [
    ("search-dpac", "bound { value: x2 }"),
    ("validate-dpac", "bound { value: [1] }"),
    ("validate-gbdcf", "balgebra { n: two }"),
])
def test_cli_non_integer_count_exits_2(tmp_path, capsys, action, block):
    path = _write(tmp_path, "count.inst", DPAC3.replace(
        "bound { value: 1 }", block))
    assert main(["axiom", action, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be an integer" in err
    assert "internal error:" not in err


def test_cli_ppower_exit_codes(tmp_path, capsys):
    sq = _write(tmp_path, "sq.inst", """
variety { vars: [x]; over: "Fp(2;t)"; gens: [] }
function { num: "x^2" }
""")
    assert main(["variety", "ppower", sq]) == 1  # a root exists
    capsys.readouterr()
    lin = _write(tmp_path, "lin.inst", """
variety { vars: [x]; over: "Fp(2;t)"; gens: [] }
function { num: "x" }
""")
    assert main(["variety", "ppower", lin]) == 0  # no p-th root
    capsys.readouterr()
    onegen = _write(tmp_path, "onegen.inst", ONE_GEN + """
function { num: "y" }
""")
    assert main(["variety", "ppower", onegen, "--json"]) == 1  # y = (z/x)^2
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["root"]) == ("root", "(z)/(x)")


def test_cli_pindep_without_rational_model(tmp_path, capsys):
    for items, status, code in [('["x", "z", "t"]', "independent", 0),
                                ('["x", "y"]', "dependent", 1)]:
        path = _write(tmp_path, "pindep.inst", ONE_GEN + f"""
functions {{ items: {items} }}
""")
        assert main(["variety", "pindep", path]) == code
        assert capsys.readouterr().out.startswith(f"{status}: exact: ")


def test_cli_pstructure_on_a_cubic_over_ratfunc(tmp_path, capsys):
    """V(y^2 - x^3 - t) over F_3(t) is absolutely irreducible by its
    Newton polygon, and both p-structure jobs decide it modulo G."""
    cubic = """
variety { vars: [x, y]; over: "Fp(3;t)"; gens: ["y^2 - x^3 - t"] }
"""
    for items, status, rank, code in [('["x", "y"]', "independent", 3, 0),
                                      ('["y", "t"]', "dependent", 2, 1)]:
        path = _write(tmp_path, "pindep.inst", cubic + f"""
functions {{ items: {items} }}
""")
        assert main(["variety", "pindep", path]) == code
        assert capsys.readouterr().out == (
            f"{status}: exact: Jacobian rank {rank} of 2 + 1 modulo G\n")
    path = _write(tmp_path, "ppower.inst", cubic + """
function { num: "y^3" }
""")
    assert main(["variety", "ppower", path, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["root"]) == ("root", "y")


def test_cli_jobs_do_not_import_sympy(tmp_path):
    path = _write(tmp_path, "cubic.inst", """
variety { vars: [x, y]; over: "GF(11,1)"; gens: ["y^2 - x^3 - 3*x - 5"] }
""")
    script = f"""
import sys
import time
import charpk.cli
assert 'sympy' not in sys.modules, 'import'
assert charpk.cli.main(['variety', 'points', {path!r}, '--json']) == 0
assert charpk.cli.main(['field', 'GF(2,4)']) == 0
assert 'sympy' not in sys.modules, 'GF job'
assert charpk.cli.main(['field', 'Fp(3;t)']) == 0
assert 'sympy' not in sys.modules, 'F_p(t) job'
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(charpk.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_jobs_import_only_the_layers_they_use(tmp_path):
    ideal = _write(tmp_path, "ideal.inst", """
ideal { vars: [x, y, z]; over: "GF(7,1)"; gens: ["x - y^2", "z - y^3"] }
""")
    circle = _write(tmp_path, "circle.inst", CIRCLE7)
    # linear in x with coprime parts: decided before any factoring
    linear = _write(tmp_path, "linear.inst", """
variety { vars: [x, y, z, w]; over: "GF(3,1)"; gens: ["x*z + y*w"] }
""")
    dpac = _write(tmp_path, "dpac.inst", DPAC3)
    gbdcf = _write(tmp_path, "gbdcf.inst", GBDCF_FROB)
    galois = _write(tmp_path, "galois.inst", """
galois { field: "GF(2,4)"; subfield: "GF(2,1)" }
""")
    scf = _write(tmp_path, "scf.inst", """
formula { text: "lam(1,1; t; x) - t = 0"; language: "lambda";
          over: "Fp(2;t)"; vars: [x] }
witness { x: "t^3 + t^2" }
""")
    actions = _write(tmp_path, "actions.inst", """
probe { subfield: "GF(2,1)"; field: "GF(2,2)"; thetas: ["x^3+x+1"] }
action { group: cyclic(2); field: "GF(3,2)"; generator_image: "g^3" }
""")
    action_script = f"""
import sys
from charpk.cli import main
assert main(['action', 'galois', {galois!r}]) == 0
for action in ('probe', 'invariants', 'faithful', 'check210'):
    assert main(['action', action, {actions!r}]) in (0, 1)
loaded = {{m[len('charpk.'):] for m in sys.modules if m.startswith('charpk.')}}
assert not loaded & {{'linalg', 'lambdafn', 'variety', 'differential',
                      'formula', 'axioms'}}, ('action', loaded)
"""
    script = f"""
import sys
import time

def loaded():
    return {{m[len('charpk.'):] for m in sys.modules
            if m.startswith('charpk.')}}

import charpk
assert loaded() == set(), ('import charpk', loaded())
from charpk.cli import main
assert main(['poly', 'gb', {ideal!r}]) == 0
assert main(['poly', 'member', {ideal!r}, '--poly', 'x*z - y^5']) == 0
heavy = {{'variety', 'factor', 'differential', 'groups', 'formula',
          'axioms'}}
assert not loaded() & heavy, ('poly', loaded())
assert main(['variety', 'points', {circle!r}]) == 0
assert not loaded() & {{'formula', 'axioms', 'groups', 'factor'}}, \
    ('points', loaded())
for action in ('irr', 'absirr'):
    assert main(['variety', action, {linear!r}]) == 0
assert 'factor' not in loaded(), ('linear hypersurface', loaded())
for action in ('validate-dpac', 'search-dpac'):
    assert main(['axiom', action, {dpac!r}]) == 0
assert not loaded() & {{'groups', 'factor', 'formula'}}, ('dpac', loaded())
assert main(['field', 'GF(2,4)']) == 0
assert main(['diff', 'prolong', {dpac!r}]) == 0
assert main(['action', 'galois', {galois!r}]) == 0
for action, path in [('pac-open', {circle!r}),
                     ('validate-gbdcf', {gbdcf!r})]:
    assert main(['axiom', action, path]) in (0, 1)
assert 'formula' not in loaded(), 'a job that reads no formula'
assert main(['axiom', 'scf-reduce', {scf!r}]) == 0
assert 'formula' in loaded(), 'scf-reduce'
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(charpk.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for code in (script, action_script):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("action, code, line", [
    ("irr", 0, "irreducible: True"),
    ("absirr", 1, "absolutely irreducible: False")])
def test_cli_transcendental_named_like_the_crossing_variable(
        tmp_path, capsys, action, code, line):
    """x^2 - _X over F_3(_X) is irreducible, with two geometric roots."""
    path = _write(tmp_path, "x.inst", """
variety { vars: [x]; over: "Fp(3;_X)"; gens: ["x^2 - _X"] }
""")
    assert main(["variety", action, path]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (line + "\n", "")


def test_cli_integer_generator_image_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "int.inst", 'action { group: cyclic(2); field: '
                  '"GF(3,2)"; generator_image: 2 }\n')
    assert main(["action", "faithful", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: generator image must be a string, "
                            "not 2\n")


def test_gbdcf_action_on_another_field_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "mismatch.inst", GBDCF_FROB.replace(
        'field: "GF(2,2)"; generator_image: "frobenius"',
        'field: "GF(2,4)"; generator_image: "frobenius^2"'))
    assert main(["axiom", "validate-gbdcf", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the group must act on the base "
                            "field\n")


def test_cli_superscript_digits_are_parse_errors(tmp_path, capsys):
    """Superscripts pass str.isdigit() but not int(): a parse error."""
    path = _write(tmp_path, "sup.inst", 'variety { vars: [x, y]; over: '
                  '"GF(7,1)"; gens: ["x^² + y - 1"] }\n')
    assert main(["variety", "points", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: expected integer exponent\n"
    path = _write(tmp_path, "supf.inst", 'formula { text: "x^² - t = 0";'
                  ' language: "lambda"; over: "Fp(2;t)"; vars: [x] }\n'
                  'witness { x: "t" }\n')
    assert main(["axiom", "scf-reduce", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: expected a number at position 2\n"


def test_cli_negative_power_of_zero_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "zero.inst",
                  DPAC3.replace('images: {t: "1"}', 'images: {t: "0^-1"}'))
    assert main(["axiom", "validate-dpac", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: division by zero in '0^-1'\n"


@pytest.mark.parametrize("text", ["x - 1/0 = 0", "0/0 = x", "t/0 = x"])
def test_cli_formula_division_by_zero_exits_2(tmp_path, capsys, text):
    path = _write(tmp_path, "zero.inst", f'formula {{ text: "{text}"; '
                  'language: "full"; over: "Fp(2;t)"; vars: [x] }\n')
    assert main(["formula", "parse", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: division by zero in {text!r}\n"


@pytest.mark.parametrize("spec, name", [("Fp(2;t1 t1,t2)", "t1 t1"),
                                        ("Fp(2;1)", "1")])
def test_cli_field_names_must_be_identifiers(capsys, spec, name):
    assert main(["field", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: transcendental name {name!r} is not "
                            "an identifier\n")


def test_cli_point_enumeration_cap_exits_2(tmp_path, monkeypatch, capsys):
    from charpk import polys
    monkeypatch.setattr(polys, "MAX_POINT_CANDIDATES", 10)
    path = _write(tmp_path, "circle.inst", CIRCLE7)
    assert main(["variety", "points", path]) == 2
    assert capsys.readouterr().err == (
        "unsupported: point enumeration past 10 candidates\n")
    # the search stops at its witness (0, 1), the second candidate
    assert main(["axiom", "pac-open", path]) == 0
    assert "witness: (0, 1)" in capsys.readouterr().out
    # more coordinates than the cap: refused before they are all listed
    path = _write(tmp_path, "t3.inst", 'variety { vars: [x]; over: '
                  '"Fp(2;t1,t2,t3)"; gens: ["x - t1"] }\n')
    assert main(["variety", "points", path, "--bound", "3"]) == 2
    assert capsys.readouterr().err == (
        "unsupported: point enumeration past 10 candidates\n")
    # at the real cap: 2^C(6, 3) = 2^20 polynomials of height <= 3 alone
    # exceed 10^6, so nothing is listed
    monkeypatch.undo()
    start = time.perf_counter()
    assert main(["variety", "points", path, "--bound", "3"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "unsupported: point enumeration past 1000000 candidates\n")


def _counted_trial_divisors(monkeypatch):
    """A list that grows by one for each subset `_recombine` tries."""
    from charpk import factor
    tried = []
    build = factor._b_to_mp

    def counted(*args):
        tried.append(args)
        return build(*args)
    monkeypatch.setattr(factor, "_b_to_mp", counted)
    return tried


def test_cli_recombination_cap_exits_2(tmp_path, monkeypatch, capsys):
    """(y^32 + y + x^3)(x^32 + x + y^3) over GF(32) has degree 33 in both
    variables and no good x0 in GF(32); at the least good x0 in GF(1024)
    it takes 19 local factors (three lines and 16 quadratics): the
    recombination stops at the cap of tried subsets, not after the 2^16
    subsets of the quadratics."""
    from charpk import polys
    tried = _counted_trial_divisors(monkeypatch)
    path = _write(tmp_path, "as.inst", 'variety { vars: [x, y]; over: '
                  '"GF(2,5)"; gens: ["(y^32 + y + x^3)*(x^32 + x + y^3)"] '
                  '}\n')
    assert main(["variety", "irr", path]) == 2
    cap = polys.MAX_RECOMBINATION_SUBSETS
    assert capsys.readouterr().err == (
        f"unsupported: factor recombination past {cap} subsets\n")
    assert len(tried) == cap


def test_cli_artin_schreier_times_a_line_is_reducible(tmp_path, monkeypatch,
                                                      capsys):
    """(y^32 + y + x^3)(x + y) over GF(32) is specialised in y, its
    variable of larger degree: at the least good y0 in GF(1024) the
    product takes four local factors, x^3 + c and x + y0, so the four
    singletons answer where the specialisation in x met 2^16."""
    tried = _counted_trial_divisors(monkeypatch)
    path = _write(tmp_path, "as.inst", 'variety { vars: [x, y]; over: '
                  '"GF(2,5)"; gens: ["(y^32 + y + x^3)*(x + y)"] }\n')
    assert main(["variety", "irr", path]) == 1
    assert capsys.readouterr().out == "irreducible: False\n"
    assert len(tried) == 4


# ---------------------------------------------------------------------------
# the exit-code contract under mutated input
# ---------------------------------------------------------------------------

FUZZ_JOBS = [
    (["axiom", "validate-dpac"], DPAC3),
    (["axiom", "search-dpac"], DPAC3),
    (["variety", "points"], CIRCLE7),
    (["variety", "points", "--bound", "1"],
     'variety { vars: [x, y]; over: "Fp(3;t)"; gens: ["x*y - t"] }'),
    (["variety", "ppower"], """
variety { vars: [x, y]; over: "Fp(3;t)"; gens: ["y - (t*x^2 + 2*x)/(t + 1)"] }
function { num: "(x + t)^3*y"; den: "x - t/2" }
"""),
    (["variety", "pindep"], """
variety { vars: [x, y]; over: "Fp(2;t1,t2)";
          gens: ["y - x^2*t1 - t2/(t1 + 1)"] }
functions { items: ["x", "t1*y", "(t2 + x)^2"] }
"""),
    (["poly", "gb"], 'ideal { vars: [x, y]; over: "Fp(5;t)"; '
                     'gens: ["x^2 - t*y", "(t + 1)*x*y - 3/t"] }'),
    (["formula", "parse"], """
formula { text: "D(l0(x)) - 1 = 0"; language: "lambda0_D";
          over: "Fp(2;t)"; vars: [x] }
derivation { over: "Fp(2;t)"; images: {t: "1"} }
witness { x: "t^2" }
"""),
    (["formula", "parse"], """
formula { text: "lam(1,1; t; x) - s[g](t) + x*(t/2) = 0"; language: "full";
          over: "Fp(3;t)"; vars: [x] }
"""),
    (["axiom", "scf-reduce"], """
formula { text: "lam(1,1; t; x) - t = 0 | x*(1/t) = 0"; language: "lambda";
          over: "Fp(2;t)"; vars: [x] }
witness { x: "t^3 + t^2" }
"""),
    # a long exponent, a long sum and deep nesting
    (["formula", "correct"], """
formula { text: "D(l0(x^2999)) + x^9999 - 1 = 0"; language: "lambda0_D";
          over: "Fp(2;t)"; vars: [x] }
derivation { over: "Fp(2;t)"; images: {t: "1"} }
witness { x: "1" }
"""),
    (["formula", "eval"], f"""
formula {{ text: "{' + '.join(['x*t'] * 1500)} = 0 & x = 0";
           language: "ring"; over: "Fp(3;t)"; vars: [x] }}
witness {{ x: "0" }}
"""),
    (["formula", "unravel"], f"""
formula {{ text: "{'(' * 60}x{' + t)' * 60} = {'-' * 3000}t*60";
           language: "lambda"; over: "Fp(2;t)"; vars: [x] }}
witness {{ x: "0" }}
"""),
]
FUZZ_SPECS = ["GF(2,4)", "GF(3,2,a^2+1)", "GF(7,1)", "Fp(5;t)",
              "Fp(2;t1,t2)", "Fp(7;)"]
_TOKEN = re.compile(r"\s+|\w+|.", re.S)
_OPERATORS = "+-*/^"
_INSERTS = ["^-1", "/0", "(t-t)", "/(t-t)", "0^-1", "\u00b2", "\u0663"]
FUZZ_SECONDS = 5


@st.composite
def _mutated(draw, text):
    """text with one to three token deletions, duplications, operator
    swaps or insertions, half of them inside its quoted strings other
    than field specs."""
    tokens = _TOKEN.findall(text)
    for _ in range(draw(st.integers(1, 3))):
        quoted, inside = [], None
        for i, tok in enumerate(tokens):
            if tok == '"':
                inside = [] if inside is None else None
            elif inside is not None:
                inside.append(i)
                if tokens[inside[0]] not in ("Fp", "GF"):
                    quoted.append(i)
        pool = quoted if quoted and draw(st.booleans()) else \
            range(len(tokens))
        i = draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap",
                                     "insert"]))
        if kind == "delete" and len(tokens) > 1:
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i] + " ")
        elif kind == "swap":
            ops = [j for j in pool if tokens[j] in _OPERATORS]
            if ops:
                tokens[draw(st.sampled_from(ops))] = draw(
                    st.sampled_from(_OPERATORS))
        else:
            tokens.insert(i, draw(st.sampled_from(_INSERTS)))
    return "".join(tokens)


class _Timeout(BaseException):
    """Raised by the alarm; not an Exception, so `main` cannot map it."""


def _alarm(signum, frame):
    raise _Timeout


def _run_contract(argv):
    """main(argv + --json) in process under an alarm: the exit code is
    0, 1 or 2, exit 1 carries a verdict payload, and stderr holds no
    traceback and no internal error."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--json"])
    except _Timeout:
        pytest.fail(f"{argv} ran past {FUZZ_SECONDS} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "internal error:" not in err, \
        (argv, err)
    if code == 1:
        payload = json.loads(out.getvalue().splitlines()[-1])
        assert isinstance(payload, dict) and payload, (argv, payload)


@settings(derandomize=True, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract_holds_on_mutated_input(tmp_path_factory, data):
    if data.draw(st.integers(0, 5)) == 0:
        spec = data.draw(st.sampled_from(FUZZ_SPECS))
        _run_contract(["field", data.draw(_mutated(spec))])
        return
    argv, text = data.draw(st.sampled_from(FUZZ_JOBS))
    path = tmp_path_factory.mktemp("fuzz") / "case.inst"
    path.write_text(data.draw(_mutated(text)), encoding="utf-8")
    _run_contract([argv[0], argv[1], str(path), *argv[2:]])
