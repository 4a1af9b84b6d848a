"""Each module of the package uses only the public names of its siblings,
neural imports nothing from the scorer, only the command line builds a score
tensor for a solver, a training step in neural builds no array, only core
makes or changes a BlockPattern past its constructor, and no module holds a
writable array."""

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


def _sibling_imports(path):
    """Names of the sibling modules that the module at ``path`` imports, or
    imports a name from."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "nandarrange" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module:
                found.add(module.split(".")[0])
            elif module.startswith("nandarrange."):
                found.add(module.split(".")[1])
            elif (node.level == 1 and not module) or module == "nandarrange":
                found.update(alias.name for alias in node.names if alias.name in MODULES)
    return found


def test_neural_imports_nothing_from_the_scorer():
    # Training takes the score tensors its caller built and inference needs
    # none, so no function in neural can build one.
    assert "scoring" not in _sibling_imports(PACKAGE / "neural.py")


def test_the_import_guard_sees_every_form(tmp_path):
    forms = [
        "from .scoring import build_score_tensor",
        "from . import scoring",
        "from nandarrange import scoring",
        "from nandarrange.scoring import build_score_tensor",
        "import nandarrange.scoring",
    ]
    for form in forms:
        probe = tmp_path / "probe.py"
        probe.write_text(f"{form}\nfrom .core import BlockPattern\nimport numpy\n")
        assert _sibling_imports(probe) == {"scoring", "core"}, form


def _names_of(path, name):
    """Lines of the module at ``path`` that define, import, bind or read ``name``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(name in (alias.name, alias.asname) for alias in node.names):
                found.add(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            found.add(node.lineno)
    return sorted(found)


def test_only_the_command_line_builds_a_score_tensor():
    # Solvers search the tensor their caller built, so that one build per
    # block serves them all; the package namespace only re-exports the name.
    naming = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if _names_of(path, "build_score_tensor")
    }
    assert naming == {"scoring", "cli", "__init__"}


def test_the_build_guard_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .scoring import build_score_tensor\n"
        "from . import scoring\n"
        "scoring.build_score_tensor(p, c)\n"
        "from .scoring import block_score as build_score_tensor\n"
        "build = build_score_tensor\n"
        "scoring.block_score(p, c)\n"
        "def build_score_tensor(p, c):\n"
        "    pass\n"
    )
    assert _names_of(probe, "build_score_tensor") == [1, 3, 4, 5, 7]


ARRAY_CONSTRUCTORS = {"empty", "zeros", "ones", "full", "array", "copy", "concatenate", "stack"}


def _workspace_allocations(path):
    """(function, line, call) of every array constructor that a ``_..._into``
    function of the module at ``path`` calls, and the names of those functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stages = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_") and node.name.endswith("_into")
    ]
    found = []
    for stage in stages:
        for node in ast.walk(stage):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ARRAY_CONSTRUCTORS or name.endswith("_like"):
                found.append((stage.name, node.lineno, ast.unparse(node)))
    return sorted(found), {stage.name for stage in stages}


def test_no_training_stage_builds_an_array():
    # A training step writes only into the workspace train allocates once per
    # run, so a new stage or head inherits that rule here.
    found, stages = _workspace_allocations(PACKAGE / "neural.py")
    assert found == []
    assert {
        "_backward_into", "_contract_into", "_seqgen_back_into", "_head_back_into",
        "_lstm_back_into",
    } <= stages


def test_the_workspace_guard_sees_every_constructor(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from numpy import zeros\n"
        "def _stage_into(ws, x):\n"
        "    np.multiply(x, 2.0, out=ws.a)\n"
        "    a = np.empty(3)\n"
        "    b = zeros(3)\n"
        "    c = np.full_like(x, 1.0)\n"
        "    d = x.copy()\n"
        "    e = np.concatenate([x, x])\n"
        "    f = np.stack([x, x])\n"
        "    g = np.array(x)\n"
        "    h = np.ones(2)\n"
        "def _helper(x):\n"
        "    return np.empty(3)\n"
        "def _into_nothing(x):\n"
        "    return np.zeros(3)\n"
    )
    found, stages = _workspace_allocations(probe)
    assert stages == {"_stage_into"}
    assert [line for _, line, _ in found] == list(range(5, 13))


def test_every_tracer_target_names_a_package_callable():
    # bench/tracer.py wraps its targets by name, so a rename breaks only a
    # traced benchmark run. Its source is compiled and run here, not imported,
    # so the check writes nothing under bench/.
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    namespace = {"__name__": "tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    missing = [
        f"{module}.{function}"
        for module, function, _ in namespace["TARGETS"]
        if not callable(getattr(importlib.import_module(f"nandarrange.{module}"), function, None))
    ]
    assert namespace["TARGETS"] and missing == []


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
