"""Guards on the shape of the source tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "linarr"

# Exact Gaussian elimination lives in tests/exact_linalg.py as the oracle;
# linarr answers every dimension on split primes (linalg.certified_nullity).
EXACT_ENGINE = {"echelon", "kernel_basis", "kernel_vector", "_complexity",
                "_EXACT_COLS"}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_exact_elimination_in_src():
    modules = sorted(SRC.glob("*.py"))
    assert any(path.name == "linalg.py" for path in modules)
    found = {
        (path.name, name)
        for path in modules
        for name in _names(ast.parse(path.read_text(), str(path)))
        if name in EXACT_ENGINE
    }
    assert not found
