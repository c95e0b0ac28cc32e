import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fluenttrack"


def imported_modules(path: Path) -> set:
    """The top-level name of every absolute import in the file at ``path``."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_every_third_party_import_is_a_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                for spec in project["dependencies"]}
    imported = set().union(*map(imported_modules, PACKAGE.rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", PACKAGE.name}
    assert {"numpy", "orjson"} <= third_party  # the scan sees the package's imports
    assert sorted(third_party - declared) == []  # imported, not in [project] dependencies
