import ast
from pathlib import Path

import transgress

PACKAGE = Path(transgress.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # Invariants must raise; assert statements vanish under python -O.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_spectral_is_integer_only():
    # The E3 path (Weyl enumeration, Chevalley table, d2) must not fall back
    # on rational arithmetic.
    banned = {"fractions", "Fraction", "solve_rational", "root_coordinates"}
    path = PACKAGE / "spectral.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{name}:{node.lineno}" for name in names if name in banned]
    assert found == []
