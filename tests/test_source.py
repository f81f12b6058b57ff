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
