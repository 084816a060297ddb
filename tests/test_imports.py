"""Every module-level import in src/charpk is used by its module, and no
module imports sympy.

The package `__init__` re-exports the public API, so its imports are
exempt; names that appear only inside string annotations count as used.
"""

import ast
import os
import re

import pytest

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
