import ast
import importlib
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "radstyle"


def _normalize(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def _imported_packages():
    """Top-level name of every absolute import in src/radstyle, with
    the modules that import it; imports inside functions count too."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
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
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
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


def _radstyle_modules_imported(path):
    """Each ``radstyle.<module>`` the file at ``path`` imports; inside
    the package a relative import names ``radstyle``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and path.parent != PACKAGE:
                continue
            base = ".".join((["radstyle"] if node.level else [])
                            + ([node.module] if node.module else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {name.split(".")[1] for name in names
            if name.startswith("radstyle.")}


def test_every_module_is_imported_and_every_named_module_exists():
    """Each package module but ``__init__`` is imported by another
    package module, by ``scripts/`` or by ``perfbench/``: the package
    ships only what something runs. The README names no module that is
    gone."""
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    imported = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").rglob("*.py"),
                 *(ROOT / "perfbench").rglob("*.py")]:
        found = _radstyle_modules_imported(path)
        if path.parent == PACKAGE:
            found.discard(path.stem)   # importing itself does not count
        imported |= found
    assert sorted(modules - imported) == [], "imported by nothing"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\bradstyle\.(\w+)", readme))
    assert sorted(named - modules) == [], "named in README, not in src"


def _importable(module, name):
    """Whether ``from <module> import <name>`` finds ``name``: an
    attribute of the module, or else a submodule."""
    try:
        if hasattr(importlib.import_module(module), name):
            return True
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_name_imported_from_the_package_exists():
    """Each name that ``scripts/`` or ``perfbench/`` imports from a
    package module exists there, so moving a name out of its module fails
    here, not only when the script or the benchmark runs."""
    missing = []
    for path in [*(ROOT / "scripts").rglob("*.py"),
                 *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "radstyle"):
                missing += [f"{path.relative_to(ROOT)}: {node.module}."
                            f"{alias.name}" for alias in node.names
                            if not _importable(node.module, alias.name)]
    assert missing == []
