"""Each module of the package uses only the public names of its siblings,
only core makes or changes a BlockPattern past its constructor, and no
module holds a writable array."""

import ast
import importlib
from pathlib import Path

import numpy as np

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


def _is_block_pattern(node):
    return (isinstance(node, ast.Name) and node.id == "BlockPattern") or (
        isinstance(node, ast.Attribute) and node.attr == "BlockPattern"
    )


def _constructor_bypasses(path):
    """(line, text) of every call in the module at ``path`` that could make or
    change a BlockPattern without its constructor's level check: a
    ``__new__`` given BlockPattern, and an ``object.__setattr__`` on anything
    but ``self`` or of a ``cells`` attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        method, args = node.func.attr, node.args
        if method == "__new__" and any(_is_block_pattern(arg) for arg in args):
            found.append((node.lineno, ast.unparse(node)))
        elif (
            method == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and (
                not (args and isinstance(args[0], ast.Name) and args[0].id == "self")
                or any(isinstance(arg, ast.Constant) and arg.value == "cells" for arg in args)
            )
        ):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_only_core_makes_a_block_pattern_past_its_constructor():
    # BlockPattern may keep a caller's read-only array uncopied, so its level
    # check must stay the only way a pattern's cells are set.
    bypasses = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "core" and (found := _constructor_bypasses(path))
    }
    assert bypasses == {}


def test_the_constructor_guard_sees_every_bypass(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import core\n"
        "from .core import BlockPattern\n"
        "p = object.__new__(BlockPattern)\n"
        "q = core.BlockPattern.__new__(core.BlockPattern)\n"
        "object.__setattr__(p, 'cells', None)\n"
        "object.__setattr__(self, 'cells', None)\n"
        "object.__setattr__(self, 'order', ())\n"
        "r = object.__new__(dict)\n"
    )
    assert [line for line, _ in _constructor_bypasses(probe)] == [3, 4, 5, 6]


def test_no_module_holds_a_writable_array():
    # A module-level array is shared by every caller in the process, so one
    # that can be written is global mutable state.
    modules = [importlib.import_module(f"nandarrange.{stem}") for stem in MODULES - {"__init__"}]
    writable = [
        f"{module.__name__}.{name}"
        for module in [nandarrange, *modules]
        for name, value in vars(module).items()
        if isinstance(value, np.ndarray) and value.flags.writeable
    ]
    assert writable == []
