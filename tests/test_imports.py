"""Every module-level import in src/charpk is used by its module, every
module-level private name is referenced somewhere in the package, no
module imports sympy, and the package re-exports its public API.

The package `__init__` re-exports the public API lazily; names that
appear only inside string annotations count as used.
"""

import ast
import importlib
import os
import re

import pytest

import charpk

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "charpk")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in _annotations(node):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(re.findall(r"[A-Za-z_]\w*", ann.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def _annotations(node):
    if isinstance(node, ast.arg):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


@pytest.mark.parametrize("module", MODULES)
def test_module_level_imports_are_used(module):
    with open(os.path.join(SRC, module)) as fh:
        assert _unused_imports(fh.read()) == []


def test_the_check_sees_an_unused_import():
    assert _unused_imports('import os\nfrom x import a, b, c\n"a"\n'
                           'def f(y: "c"): b()\n') == [(1, "os"), (2, "a")]


def _imported_modules(source):
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_imports_sympy(module):
    """sympy is a test-only oracle: the library carries F_p(t..) itself."""
    with open(os.path.join(SRC, module)) as fh:
        assert "sympy" not in _imported_modules(fh.read())


def test_the_sympy_check_sees_nested_imports():
    assert "sympy" in _imported_modules(
        "def f():\n    from sympy.polys import ring\n")


def _private_definitions(tree):
    """(name, top-level statement) for each module-level `_private`
    function, class or constant; dunder names are not private."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = getattr(stmt, "targets", None) or [stmt.target]
            names = [node.id for target in targets
                     for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _references(stmt):
    """Names a statement loads, reads as attributes or imports."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _unreferenced_privates(sources):
    """(module, name) for each module-level private name that no other
    top-level statement of any module references; `sources` maps module
    names to their text.  A helper only its own body calls is unused."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    refs = [(stmt, _references(stmt)) for stmt in statements]
    return sorted(
        (m, name) for m, tree in trees.items()
        for name, home in _private_definitions(tree)
        if not any(name in names for stmt, names in refs if stmt is not home))


def test_every_private_name_is_referenced_in_the_package():
    sources = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module)) as fh:
            sources[module] = fh.read()
    assert _unreferenced_privates(sources) == []


def test_the_check_sees_an_unreferenced_private():
    sources = {
        "a.py": "def _used(): pass\n"
                "def _orphan(n): return _orphan(n - 1)\n"
                "_CONST, _PAIR = 1, 2\n"
                "class _Kept: pass\n"
                "__all__ = []\n",
        "b.py": "from a import _used\n"
                "import a\n"
                "x = a._PAIR + _used()\n"
                "y = _Kept\n",
    }
    assert _unreferenced_privates(sources) == [("a.py", "_CONST"),
                                               ("a.py", "_orphan")]


def _calls(tree):
    """(name, positional count, starred, keywords) for each call in tree,
    by the name of its callee.  `cls(...)` goes by the enclosing class,
    `super().__init__(...)` by each base of it; a `**` argument is the
    keyword None."""
    out = []

    def visit(node, home):
        if isinstance(node, ast.ClassDef):
            home = node
        if isinstance(node, ast.Call):
            names = _callee_names(node.func, home)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            out.extend((name, len(node.args), starred, keywords)
                       for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, home)
    visit(tree, None)
    return out


def _callee_names(func, home):
    """The names a call of func inside class home (or None) goes by."""
    if isinstance(func, ast.Name):
        return [home.name if func.id == "cls" and home else func.id]
    if not isinstance(func, ast.Attribute):
        return []
    inner = getattr(func.value, "func", None)
    if func.attr == "__init__" and getattr(inner, "id", None) == "super":
        return [base.id for base in getattr(home, "bases", ())
                if isinstance(base, ast.Name)]
    return [func.attr]


def _defaulted_parameters(tree):
    """(callee, function, parameter, slot) for each defaulted parameter of
    a function or method in tree, dunders other than `__init__` left out:
    `__init__` of class C goes by the callee C, and `slot` is the index
    of the positional argument that passes the parameter at a call (None
    for a keyword-only one; `self` and `cls` take no slot)."""
    def visit(node, home):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, home)
                continue
            name, args = child.name, child.args
            if name == "__init__" or not name.startswith("__"):
                params = args.posonlyargs + args.args
                bound = home is not None and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in child.decorator_list)
                callee = home.name if name == "__init__" else name
                first = len(params) - len(args.defaults)
                for i in range(first, len(params)):
                    yield callee, name, params[i].arg, i - bound
                for param, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield callee, name, param.arg, None
            yield from visit(child, None)
    yield from visit(tree, None)


def _defaults_without_a_caller(definitions, callers):
    """(module, function, parameter) for each defaulted parameter of a
    function in `definitions` (module names to text) that no call in
    `callers` (texts) passes, by keyword or by position.  Calls are
    matched by the callee's name only, which is lenient."""
    calls = [call for text in callers for call in _calls(ast.parse(text))]
    return sorted(
        (module, function, param)
        for module, text in definitions.items()
        for callee, function, param, slot in _defaulted_parameters(
            ast.parse(text))
        if not any(name == callee and (
            param in keywords or None in keywords
            or (slot is not None and (count > slot or starred)))
            for name, count, starred, keywords in calls))


def test_every_defaulted_parameter_has_a_caller():
    """A default that no caller in src/, tests/ or bench/ overrides is a
    knob nothing turns: the parameter should be a constant."""
    root = os.path.dirname(os.path.dirname(SRC))
    callers = []
    for top in ("src", "tests", "bench"):
        for folder, _, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as fh:
                        callers.append(fh.read())
    definitions = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module)) as fh:
            definitions[module] = fh.read()
    assert _defaults_without_a_caller(definitions, callers) == []


def test_the_check_sees_an_unused_default():
    definitions = {"a.py": (
        "def f(x, y=1, *, z=2): pass\n"
        "def g(x, y=1): pass\n"
        "def h(x=1): pass\n"
        "class C:\n"
        "    def __init__(self, a, b=0, c=0): pass\n"
        "    def m(self, d=0): pass\n"
        "    def __eq__(self, other=None): pass\n"
        "    @classmethod\n"
        "    def make(cls): return cls(1, 2)\n"
        "class D(C):\n"
        "    def __init__(self, e=0):\n"
        "        super().__init__(1, c=e)\n")}
    callers = [definitions["a.py"],
               "f(1, 2)\ng(1, **kw)\nh(*args)\nobj.m(3)\n"]
    assert _defaults_without_a_caller(definitions, callers) == [
        ("a.py", "__init__", "e"), ("a.py", "f", "z")]


# the names `charpk` has exported since its eager `__init__`
PUBLIC_API = """
AffineVariety BAlgebra CharpkError CheckReport CorrectionResult
DPacInstance DerivationContext FieldAction FieldDescriptor FieldError
FieldScalar FiniteGroup Formula FormulaError FunctionFieldElem
GBdcfInstance Ideal InstanceFile InstanceFileError MultiPoly PolyRing
PreconditionError ProlongationBundle RationalMapData ResourceExhausted
RingError Term UnravelResult UnsupportedInstance
alg_strongly_pac_probe b_operator_check check_galois_data
code_finite_set correct_lambda0_D derivation_extends derive
enumerate_points equalizer eval_formula evaluate_scalar
extension_oracle factor_poly finite_set_k_irreducible frobenius
frobenius_automorphism galois_group invariants
is_absolutely_irreducible is_absolutely_irreducible_poly is_dominant
is_faithful is_irreducible is_p_independent is_pth_power iter_elements
iter_gf_elements kerprol_check lambda0 lambda_basis lambda_multi
lambda_solve locus make_field nabla_point normal_form p_components
p_independence_verdict p_monomials pac_witness_task parse parse_scalar
pindep_function_field ppower_test print_formula print_term
projection_map prolongation pth_root scalar_height scalar_hom
scf_reduce search_dpac_witness uni_factor uni_is_irreducible uni_roots
unravel_lambda_terms validate_dpac_instance validate_gbdcf_instance
""".split()


def test_the_package_re_exports_its_public_api():
    assert sorted(charpk.__all__) == sorted(PUBLIC_API)
    assert set(charpk.__all__) <= set(dir(charpk))
    for name in charpk.__all__:
        obj = getattr(charpk, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("charpk.")
        assert getattr(home, name) is obj, name
    with pytest.raises(AttributeError, match="no_such_name"):
        charpk.no_such_name
