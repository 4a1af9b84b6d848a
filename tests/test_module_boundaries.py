"""Each module of the package uses only the public names of its siblings."""

import ast
from pathlib import Path

import nandarrange

PACKAGE = Path(nandarrange.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _crossings(path):
    """(line, text) of every private sibling name that the module at ``path`` uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package_level = (node.level == 1 and node.module is None) or (
            node.level == 0 and node.module == "nandarrange"
        )
        if package_level:
            for alias in node.names:
                if alias.name in MODULES:
                    siblings.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((node.lineno, f"from package import {alias.name}"))
            continue
        module = node.module or ""
        if node.level == 1 or module.startswith("nandarrange."):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"from {module} import {alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reaches_into_a_sibling():
    crossings = {
        path.name: found for path in sorted(PACKAGE.glob("*.py")) if (found := _crossings(path))
    }
    assert crossings == {}


def test_the_guard_sees_both_kinds_of_crossing(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import scoring\n"
        "from .scoring import _cell_lut, score_table\n"
        "from .core import __all__\n"
        "scoring._tensor_builds\n"
        "scoring.__name__\n"
    )
    assert _crossings(probe) == [
        (2, "from scoring import _cell_lut"),
        (4, "scoring._tensor_builds"),
    ]
