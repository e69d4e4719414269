import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")   # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent


def _normalize(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def _imported_packages():
    """Top-level name of every absolute import in src/radstyle, with
    the modules that import it; imports inside functions count too."""
    found = {}
    for path in sorted((ROOT / "src" / "radstyle").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(path.name)
    return found


def test_declared_dependencies_match_imports():
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {_normalize(re.match(r"[A-Za-z0-9._-]+", spec).group())
                for spec in project["dependencies"]}
    distributions = packages_distributions()
    used = {}
    for name, modules in _imported_packages().items():
        if name in sys.stdlib_module_names or name == "radstyle":
            continue
        for dist in distributions.get(name, [name]):
            used.setdefault(_normalize(dist), set()).update(modules)
    undeclared = {dist: sorted(mods) for dist, mods in used.items()
                  if dist not in declared}
    assert undeclared == {}, "imported but not in pyproject dependencies"
    assert declared - set(used) == set(), "declared but never imported"
