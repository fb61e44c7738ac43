"""Static checks on the sources, by an `ast` pass over each module of the
package (the package `__init__`, which imports to re-export, aside) and each
test module: no imported name goes unused, and no f-string lacks a
placeholder.  Across the package, no function imports a package module (the
module graph is acyclic, so every such import belongs at the top), and every
module-level private function and class is referenced by some package
module, so none lives on for tests alone.  The dense Bareiss elimination
is a test oracle: no package module binds its names.  Importing the package
searches for no prime: the characteristic polynomial's primes are found on
its first call."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "simplexion").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
SOURCES += sorted((ROOT / "tests").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, [f"{path.name}:{line}: {name} imported but unused" for line, name in unused]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_fstring_without_placeholder(path):
    tree = _tree(path)
    specs = {id(node.format_spec) for node in ast.walk(tree)
             if isinstance(node, ast.FormattedValue) and node.format_spec is not None}
    bare = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) and id(node) not in specs
            and not any(isinstance(v, ast.FormattedValue) for v in node.values)]
    assert not bare, [f"{path.name}:{line}: f-string without placeholders" for line in bare]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_local_import_from_a_module_imported_at_top(path):
    tree = _tree(path)
    local = [f"{path.name}:{node.lineno}: package import inside a function"
             for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if (isinstance(node, ast.ImportFrom)
                 and (node.level or (node.module or "").split(".")[0] == "simplexion"))
             or (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "simplexion" for a in node.names))]
    assert not local, local


def test_private_definitions_are_used_by_the_package():
    defined, used = {}, set()
    for path in PACKAGE:
        tree = _tree(path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined[node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(f"{where}: {name}" for name, where in defined.items() if name not in used)
    assert not unused, [f"{entry} is referenced by no package module" for entry in unused]


# the dense fraction-free elimination of `tests/oracles.py`; the library
# eliminates L only by its sparse LDL^T
ORACLE_ONLY = {"echelon", "Echelon", "factor", "_fits_int64", "_promote"}


def test_no_package_module_binds_the_dense_elimination():
    bound = set()
    for path in PACKAGE:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            else:
                continue
            bound.update(f"{path.name}:{node.lineno}: {n}" for n in names if n in ORACLE_ONLY)
    assert not bound, sorted(bound)


IMPORT_PROBE = """
import sys
searched = []
sys.setprofile(lambda frame, event, arg: searched.append(1)
               if event == "call" and frame.f_code.co_name == "_is_prime" else None)
import simplexion, simplexion.cli
sys.setprofile(None)
from simplexion import exact
assert not searched and exact._PRIMES == {}, (len(searched), exact._PRIMES)
exact.charpoly([[1, 2], [3, 4]])
assert exact._PRIMES
"""


def test_import_searches_no_primes():
    # a fresh interpreter, so no earlier test has filled the prime table
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True, env=env, timeout=120)
