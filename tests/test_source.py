import ast
import os
import subprocess
import sys
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


def test_root_data_parse_and_spectral_are_integer_only():
    # The spec parse and root data under every subcommand, and the E3 path
    # (Weyl enumeration, Chevalley root data, d2), must not fall back on rational
    # arithmetic; the rational reference lives in tests/rational_reference.py.
    # d2 reads the roots' coordinates in theta, not tau's rational solve.
    banned = {
        "fractions", "Fraction", "solve_rational", "root_coordinates",
        "transgression", "transgression_matrix", "transition_matrix",
    }
    found = []
    for name in ("groupspec.py", "rootdata.py", "spectral.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{name}:{node.lineno}:{n}" for n in names if n in banned]
    assert found == []


def test_cli_import_path_stays_light():
    # Every CLI call pays for this import.  dataclasses brings inspect with
    # it, and the fixture corpus brings importlib.resources; neither belongs
    # on the path of the answering subcommands.  Only what the import adds
    # is checked, so modules that site preloads do not matter.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import transgress.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split()
    assert "transgress.cli" in added
    assert {"dataclasses", "inspect", "transgress.fixtures"}.isdisjoint(added)


def test_e3_path_never_loads_fractions():
    # fractions brings decimal and numbers; only the tau path solves over Q.
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import transgress.cli\n"
        "for argv in (['e3', 'C3:adj'], ['e3', 'D4:pi1=[1,0,0,0]', '--coeff', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert transgress.cli.main(argv) == 0, argv\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split()
    assert "transgress.cli" in added and "transgress.spectral" in added
    assert "fractions" not in added
