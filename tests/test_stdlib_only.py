"""The package is pure Python: every module imports only pfsym and the stdlib."""
import ast
import sys
from pathlib import Path

import pfsym

PACKAGE = Path(pfsym.__file__).parent


def foreign_imports(source: str) -> list[str]:
    """Top-level names imported by `source` that are neither pfsym nor stdlib."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = (name.partition(".")[0] for name in names)
    return [top for top in tops if top != "pfsym" and top not in sys.stdlib_module_names]


def test_foreign_imports_finds_every_import_form():
    source = "import numpy\nfrom scipy.linalg import det\nimport os.path, sympy as sp\nfrom . import cli\n"
    assert sorted(foreign_imports(source)) == ["numpy", "scipy", "sympy"]
    assert foreign_imports("def f():\n    import mpmath\n") == ["mpmath"]


def test_every_module_imports_only_pfsym_and_the_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        assert foreign_imports(path.read_text()) == [], path.name
