"""Every third-party import of ``src/`` and ``tests/`` is declared.

CI installs ``requirements.txt`` and nothing else, so a test module that
imports an undeclared package fails collection on a clean runner even
though it passes wherever the package happens to be installed.  These
tests scan the imports with :mod:`ast` (standard library taken from
``sys.stdlib_module_names``, first-party names from the scanned trees) and
check each against the declared dependencies: ``requirements.txt`` for
everything, ``pyproject.toml``'s ``dependencies`` for the library and its
``test`` extra for the tests.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def first_party(root: Path) -> set[str]:
    """Top-level names importable from inside the scanned trees."""
    names = {"repro", "tests"}
    for path in root.rglob("*.py"):
        names.add(path.stem)
    return names


def third_party_imports(tree: str) -> dict[str, set[str]]:
    """Top-level third-party module -> files importing it, under ``tree``."""
    root = ROOT / tree
    local = first_party(root)
    found: dict[str, set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top in sys.stdlib_module_names or top in local:
                    continue
                found.setdefault(top, set()).add(
                    str(path.relative_to(ROOT)))
    return found


def requirement_name(spec: str) -> str:
    """Distribution name of a requirement line, normalized like an import."""
    name = re.split(r"[\s\[<>=!~;@]", spec.strip(), maxsplit=1)[0]
    return name.lower().replace("-", "_")


def requirements_txt() -> set[str]:
    lines = (ROOT / "requirements.txt").read_text().splitlines()
    return {requirement_name(line) for line in lines
            if line.strip() and not line.lstrip().startswith("#")}


def undeclared(imports: dict[str, set[str]], declared: set[str]) -> dict:
    return {name: sorted(files) for name, files in imports.items()
            if name.lower() not in declared}


def test_scan_sees_known_imports():
    """Guard against a scanner that finds nothing and passes vacuously."""
    assert "numpy" in third_party_imports("src")
    assert {"pytest", "hypothesis"} <= set(third_party_imports("tests"))
    assert "repro" not in third_party_imports("tests")


@pytest.mark.parametrize("tree", ["src", "tests"])
def test_requirements_txt_declares_every_import(tree):
    assert undeclared(third_party_imports(tree), requirements_txt()) == {}


def test_pyproject_declares_library_and_test_imports():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = {requirement_name(s) for s in project["dependencies"]}
    test = {requirement_name(s)
            for s in project["optional-dependencies"]["test"]}
    assert undeclared(third_party_imports("src"), runtime) == {}
    assert undeclared(third_party_imports("tests"), runtime | test) == {}
