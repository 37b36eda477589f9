"""Guards on whole modules.

Every ``src/repro`` module has a caller: a walk of the imports reachable
from the ``tbd`` entry point (``repro.cli``) and from ``benchmarks/`` must
reach it, or it is one of the few listed exceptions.  A module only tests
and examples reach pays for itself neither in wall time nor in an answer.

The two record modules (``tests.test_paper_answers`` and
``tests.test_memory_peaks``) rewrite and check their committed records from
their ``__main__``, which must run on an interpreter with no test runner.
"""

from __future__ import annotations

import ast
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

_DOTTED = re.compile(r"repro(\.[A-Za-z_]\w*)+")


def _source_modules() -> dict:
    """``{dotted name: path}`` of every module under ``src/repro``."""
    modules = {}
    for directory, _, files in os.walk(os.path.join(_SRC, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            parts = os.path.relpath(path, _SRC)[: -len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            modules[".".join(parts)] = path
    return modules


def _with_parents(name: str) -> list:
    """Importing ``a.b.c`` runs ``a`` and ``a.b`` first."""
    parts = name.split(".")
    return [".".join(parts[:end]) for end in range(1, len(parts) + 1)]


def _imported_names(path: str, module: str) -> set:
    """Every module name one file may import: import statements at any
    depth (function-level ones included), each imported name that is
    itself a submodule, ``"repro.x"`` strings (the lazy export maps) and,
    in a package ``__init__``, bare names of its own submodules (the
    ``importlib.import_module(f"{__name__}.{name}")`` registries: the
    exhibit names ``tbd exhibit`` looks up in ``ALL_EXPERIMENTS``)."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    is_package = path.endswith("__init__.py")
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # The tree has no relative imports; one would show up here as
            # an uncalled module.
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                names.add(node.value)
            elif is_package and node.value.isidentifier():
                names.add(f"{module}.{node.value}")
    return names


def reachable_modules() -> set:
    """The ``src/repro`` modules the walk reaches from ``repro.cli`` and
    from every file under ``benchmarks/``."""
    modules = _source_modules()
    reached = set(_with_parents("repro.cli"))
    pending = [(modules[name], name) for name in reached]
    for directory, _, files in os.walk(_BENCHMARKS):
        pending += [
            (os.path.join(directory, name), "benchmarks")
            for name in files
            if name.endswith(".py")
        ]
    while pending:
        path, module = pending.pop()
        for name in _imported_names(path, module):
            for candidate in _with_parents(name):
                if candidate in modules and candidate not in reached:
                    reached.add(candidate)
                    pending.append((modules[candidate], candidate))
    return reached


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


def test_walk_follows_every_kind_of_import(tmp_path):
    package = tmp_path / "__init__.py"
    package.write_text(
        "import repro.a\n"
        "from repro.b import c, name\n"
        "LAZY = {'thing': 'repro.lazy.module'}\n"
        "EXHIBITS = ('fig1',)\n"
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
