"""Every top-level function and class of the package is reached: some module
under ``src/``, or the acceptance tests, names it besides its own definition.
A name that only unit tests use is test code and belongs under ``tests/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "odeguide"


def _names_used(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_top_level_definition_is_referenced():
    files = sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*(_names_used(ast.parse(f.read_text())) for f in files))
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    unreached = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, defs) and node.name not in used
    ]
    assert not unreached, f"referenced nowhere in src/ or the acceptance tests: {unreached}"
