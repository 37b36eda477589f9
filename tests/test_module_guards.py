"""Guards on whole modules and on the names they define.

Every ``src/repro`` module has a caller: a walk of the imports reachable
from the ``tbd`` entry point (``repro.cli``) and from ``benchmarks/`` must
reach it, or it is one of the few listed exceptions.  A package
``__init__`` that re-exports a submodule does not call it: the walk
follows ``from repro.pkg import name`` to the module ``name`` comes from.
Every public top-level function and class of a reached module is named by
a reached file other than a package ``__init__``, or is listed with its
reason.  A module or name only tests and examples reach pays for itself
neither in wall time nor in an answer.

The two record modules (``tests.test_paper_answers`` and
``tests.test_memory_peaks``) rewrite and check their committed records from
their ``__main__``, which must run on an interpreter with no test runner.
"""

from __future__ import annotations

import ast
import functools
import os
import re
import subprocess
import sys

import pytest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_SRC = os.path.join(_ROOT, "src")
_BENCHMARKS = os.path.join(_ROOT, "benchmarks")

#: Modules (a package stands for all its modules) that no entry point
#: reaches but that stay, each for its reason.
UNCALLED_BY_DESIGN = (
    # The real-training substrate (DESIGN §6): it trains miniature models
    # to a verifiable accuracy and checks the five-way memory taxonomy
    # against real allocations, answers nothing else gives.
    "repro.tensor",
    # Waits for the FP16 gradient-exchange decision (ROADMAP item 5).
    "repro.distributed.compression",
)

#: Public top-level names no reached file calls but that stay, each with
#: its reason.
NAMES_UNCALLED_BY_DESIGN = (
    (
        "repro.engine.keys.clear_fingerprint_caches",
        "tests empty the process-wide fingerprint memo between cases",
    ),
    (
        "repro.engine.merge.write_grid_jsonl",
        "the byte-level reference the compile differential compares grids by",
    ),
    (
        "repro.kernels.misc.adam_update",
        "the Adam kernel the plan should charge once it models the optimizer",
    ),
    (
        "repro.observability.exporters.parse_jsonl",
        "tests read span logs back through it",
    ),
    (
        "repro.observability.tracer.get_tracer",
        "tests inspect the process-global tracer through it",
    ),
    (
        "repro.observability.tracer.telemetry_enabled",
        "tests check that telemetry is off outside a tracing block",
    ),
    (
        "repro.plan.symbolic.compile_symbolic",
        "benchmarks/wall/layers.py patches it by name until that benchmark "
        "drops the plan.symbolic layers",
    ),
)

_DOTTED = re.compile(r"repro(\.[A-Za-z_]\w*)+")


def _source_modules(src: str = _SRC) -> dict:
    """``{dotted name: path}`` of every module under ``src/repro``."""
    modules = {}
    for directory, _, files in os.walk(os.path.join(src, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            parts = os.path.relpath(path, src)[: -len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            modules[".".join(parts)] = path
    return modules


def _with_parents(name: str) -> list:
    """Importing ``a.b.c`` runs ``a`` and ``a.b`` first."""
    parts = name.split(".")
    return [".".join(parts[:end]) for end in range(1, len(parts) + 1)]


@functools.lru_cache(maxsize=None)
def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _imported_names(path: str, module: str) -> set:
    """Every module name, or ``module.name``, one file may import: import
    statements at any depth (function-level ones included), ``"repro.x"``
    strings (the lazy export maps) and, in a package ``__init__``, bare
    names of its own submodules (the ``importlib.import_module(
    f"{__name__}.{name}")`` registries: the exhibit names ``tbd exhibit``
    looks up in ``ALL_EXPERIMENTS``).

    A package ``__init__``'s import of its own submodule is not a caller:
    the walk follows ``from repro.pkg import name`` to the module ``name``
    comes from instead (:func:`_targets`)."""
    tree = _parse(path)
    is_package = path.endswith("__init__.py")
    # ``__all__`` declares what a star import takes; it calls nothing.
    declared = {
        id(constant)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["__all__"]
        for constant in ast.walk(node.value)
    }
    names = set()
    for node in ast.walk(tree):
        if id(node) in declared:
            continue
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # The tree has no relative imports; one would show up here as
            # an uncalled module.
            imported = [node.module]
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                names.add(node.value)
            elif is_package and node.value.isidentifier():
                names.add(f"{module}.{node.value}")
            continue
        else:
            continue
        if is_package:
            imported = [name for name in imported if not name.startswith(module + ".")]
        names.update(imported)
    return names


def _reexports(path: str) -> dict:
    """``{name: "module.name"}`` for each name a package ``__init__``
    imports at its top level."""
    return {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in _parse(path).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _targets(name: str, modules: dict) -> list:
    """The modules importing ``name`` reaches: the module itself and its
    parents and, for a name a package re-exports, the module that defines
    it."""
    targets = [candidate for candidate in _with_parents(name) if candidate in modules]
    package, _, attribute = name.rpartition(".")
    if name not in modules and modules.get(package, "").endswith("__init__.py"):
        source = _reexports(modules[package]).get(attribute)
        if source is not None:
            targets += _targets(source, modules)
    return targets


def _walk(modules: dict, pending: list) -> set:
    """The modules reached from ``pending`` ``(path, module)`` files."""
    reached = {module for _, module in pending if module in modules}
    while pending:
        path, module = pending.pop()
        for name in _imported_names(path, module):
            for candidate in _targets(name, modules):
                if candidate not in reached:
                    reached.add(candidate)
                    pending.append((modules[candidate], candidate))
    return reached


def _benchmark_files() -> list:
    return [
        os.path.join(directory, name)
        for directory, _, files in os.walk(_BENCHMARKS)
        for name in files
        if name.endswith(".py")
    ]


def reachable_modules() -> set:
    """The ``src/repro`` modules the walk reaches from ``repro.cli`` and
    from every file under ``benchmarks/``."""
    modules = _source_modules()
    pending = [(modules[name], name) for name in _with_parents("repro.cli")]
    pending += [(path, "benchmarks") for path in _benchmark_files()]
    return _walk(modules, pending)


def _defined_names(path: str) -> list:
    """The public functions and classes a module defines at its top level."""
    return [
        node.name
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _referenced_names(path: str) -> set:
    """Every name one file reads or imports, as a bare name or as an
    attribute of something."""
    names = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def uncalled_names(modules: dict, reached: set, callers: list) -> list:
    """``module.name`` for each public top-level function and class of a
    reached module that no file in ``callers`` references."""
    referenced = set().union(*map(_referenced_names, callers))
    return sorted(
        f"{module}.{name}"
        for module in reached
        for name in _defined_names(modules[module])
        if name not in referenced
    )


def _callers(modules: dict, reached: set) -> list:
    """The reached files whose references count: every one but a package
    ``__init__`` (a re-export calls nothing)."""
    return [
        modules[module]
        for module in reached
        if not modules[module].endswith("__init__.py")
    ]


def _uncalled_names_in_tree() -> tuple:
    """``(every public top-level name of a reached module, those no
    reached module and no benchmark names)``."""
    modules = _source_modules()
    reached = reachable_modules()
    defined = {
        f"{module}.{name}"
        for module in reached
        for name in _defined_names(modules[module])
    }
    callers = _callers(modules, reached) + _benchmark_files()
    return defined, uncalled_names(modules, reached, callers)


def _excepted(module: str) -> bool:
    return any(
        module == name or module.startswith(name + ".")
        for name in UNCALLED_BY_DESIGN
    )


def test_every_module_has_a_caller():
    uncalled = sorted(
        module
        for module in set(_source_modules()) - reachable_modules()
        if not _excepted(module)
    )
    assert not uncalled, (
        "no tbd command and no benchmark reaches these modules; delete "
        f"them or give them a caller: {uncalled}"
    )


def test_every_exception_is_still_uncalled_and_present():
    """An exception that gains a caller, or whose module is gone, leaves
    the list."""
    modules = _source_modules()
    assert [name for name in UNCALLED_BY_DESIGN if name not in modules] == []
    assert sorted(filter(_excepted, reachable_modules())) == []


def test_every_public_name_has_a_caller():
    excepted = {name for name, _ in NAMES_UNCALLED_BY_DESIGN}
    uncalled = [
        name for name in _uncalled_names_in_tree()[1] if name not in excepted
    ]
    assert not uncalled, (
        "no tbd command and no benchmark names these functions or classes; "
        f"delete them or give them a caller: {uncalled}"
    )


def test_every_name_exception_is_present_uncalled_and_has_a_reason():
    defined, uncalled = _uncalled_names_in_tree()
    for name, reason in NAMES_UNCALLED_BY_DESIGN:
        assert name in defined, f"{name} is gone; drop its exception"
        assert name in uncalled, f"{name} has a caller now; drop its exception"
        assert reason.strip(), f"{name} needs a reason"


def _package(root, files: dict) -> dict:
    """Write ``{relative path: source}`` under ``root/repro``; return the
    tree's modules."""
    for relative, source in files.items():
        path = root / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return _source_modules(str(root))


def test_a_package_reexport_reaches_only_the_module_a_caller_names(tmp_path):
    modules = _package(tmp_path, {
        "__init__.py": "",
        "pkg/__init__.py": (
            "from repro.pkg.used import helper\n"
            "from repro.pkg.unused import other\n"
            "__all__ = ['helper', 'other', 'unused']\n"
        ),
        "pkg/used.py": "def helper():\n    pass\n",
        "pkg/unused.py": "def other():\n    pass\n",
        "cli.py": "from repro.pkg import helper\n",
    })
    reached = _walk(modules, [(modules["repro.cli"], "repro.cli")])
    assert reached == {"repro", "repro.cli", "repro.pkg", "repro.pkg.used"}


def test_name_check_counts_only_reached_non_package_callers(tmp_path):
    modules = _package(tmp_path, {
        "__init__.py": "",
        "pkg/__init__.py": "from repro.pkg.lib import Called, reexported\n",
        "pkg/lib.py": (
            "class Called:\n"
            "    pass\n"
            "def reexported():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "def tested_only():\n"
            "    pass\n"
        ),
        "cli.py": "from repro.pkg import Called\nCalled()\n",
    })
    reached = _walk(modules, [(modules["repro.cli"], "repro.cli")])
    assert uncalled_names(modules, reached, _callers(modules, reached)) == [
        "repro.pkg.lib.reexported",
        "repro.pkg.lib.tested_only",
    ]


def test_walk_follows_every_kind_of_import(tmp_path):
    package = tmp_path / "__init__.py"
    package.write_text(
        "import repro.a\n"
        "from repro.b import c, name\n"
        "from repro.pkg.own import reexported\n"
        "import repro.pkg.other\n"
        "LAZY = {'thing': 'repro.lazy.module'}\n"
        "EXHIBITS = ('fig1',)\n"
        "__all__ = ['reexported', 'declared']\n"
        "def command():\n"
        "    from repro.late import helper\n"
    )
    assert _imported_names(str(package), "repro.pkg") == {
        "repro.a",
        "repro.b", "repro.b.c", "repro.b.name",
        "repro.lazy.module",
        "repro.pkg.thing", "repro.pkg.fig1",
        "repro.late", "repro.late.helper",
    }


@pytest.mark.parametrize(
    "module", ["tests.test_paper_answers", "tests.test_memory_peaks"]
)
def test_record_module_imports_without_pytest(module):
    """The record's entry point is the way to rewrite and check it on an
    interpreter with no test runner, so the module must not need one."""
    code = (
        "import importlib, sys; sys.modules['pytest'] = None; "
        f"importlib.import_module({module!r})"
    )
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, _ROOT]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=_ROOT,
        env=environment,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
