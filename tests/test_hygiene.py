"""Static checks on the sources, by an `ast` pass over each module of the
package (the package `__init__`, which imports to re-export, aside) and each
test module: no imported name goes unused, and no f-string lacks a
placeholder."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "simplexion").glob("*.py") if p.name != "__init__.py")
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
