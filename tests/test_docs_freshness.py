"""Documentation anti-rot: module paths and commands the docs reference
must exist."""

import importlib
import os
import re

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    os.path.join("docs", "architecture.md"),
    os.path.join("docs", "toolchain.md"),
    os.path.join("docs", "calibration.md"),
    os.path.join("examples", "README.md"),
)

_MODULE_PATTERN = re.compile(r"`(repro(?:\.[a-z_0-9]+)+)`")


def _doc_text(name: str) -> str:
    with open(os.path.join(_ROOT, name)) as handle:
        return handle.read()


@pytest.mark.parametrize("doc", _DOC_FILES)
def test_doc_exists_and_substantial(doc):
    text = _doc_text(doc)
    assert len(text) > 500, doc


@pytest.mark.parametrize("doc", _DOC_FILES)
def test_referenced_modules_exist(doc):
    text = _doc_text(doc)
    missing = []
    for reference in set(_MODULE_PATTERN.findall(text)):
        module_path = reference
        # References may point at module attributes; try progressively
        # shorter prefixes until one imports, then getattr the rest.
        parts = module_path.split(".")
        resolved = False
        for cut in range(len(parts), 0, -1):
            try:
                module = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            obj = module
            ok = True
            for attribute in parts[cut:]:
                if not hasattr(obj, attribute):
                    ok = False
                    break
                obj = getattr(obj, attribute)
            if ok:
                resolved = True
            break
        if not resolved:
            missing.append(reference)
    assert not missing, f"{doc} references missing modules: {missing}"


def test_readme_example_scripts_exist():
    text = _doc_text("README.md")
    for match in re.findall(r"python (examples/[a-z_]+\.py)", text):
        assert os.path.exists(os.path.join(_ROOT, match)), match


def test_examples_readme_lists_every_script():
    text = _doc_text(os.path.join("examples", "README.md"))
    scripts = [
        name
        for name in os.listdir(os.path.join(_ROOT, "examples"))
        if name.endswith(".py")
    ]
    for script in scripts:
        assert script in text, f"examples/README.md misses {script}"


def test_design_lists_every_package():
    text = _doc_text("DESIGN.md")
    src = os.path.join(_ROOT, "src", "repro")
    packages = [
        name
        for name in os.listdir(src)
        if os.path.isdir(os.path.join(src, name)) and not name.startswith("__")
    ]
    for package in packages:
        assert f"{package}/" in text or f"repro.{package}" in text, package


def _design_layout_files() -> dict:
    """``{directory: [*.py names]}`` from DESIGN.md's source-layout block:
    a line ``  <dir>/  ...`` opens a directory, deeper-indented lines
    continue it, and a top-level file line (``  cli.py``) closes it."""
    text = _doc_text("DESIGN.md")
    block = text[text.index("```\nsrc/repro/\n") + 4 :]
    block = block[: block.index("```")]
    named: dict = {}
    current = None
    for line in block.splitlines()[1:]:
        opener = re.match(r"  ([a-z_]+)/\s", line)
        if opener:
            current = opener.group(1)
            named.setdefault(current, [])
            line = line[opener.end() :]
        elif not line.startswith("   "):
            current = None
        if current is not None:
            named[current].extend(re.findall(r"\b([a-z_0-9]+\.py)\b", line))
    return named


def test_design_layout_names_only_existing_files():
    named = _design_layout_files()
    assert "graph" in named and "plan" in named
    src = os.path.join(_ROOT, "src", "repro")
    missing = [
        f"{directory}/{name}"
        for directory, names in named.items()
        for name in names
        if not os.path.exists(os.path.join(src, directory, name))
    ]
    assert not missing, f"DESIGN.md's source layout names missing files: {missing}"


_FENCED_PYTHON = re.compile(r"```python\n(.*?)```", re.DOTALL)
_FROM_IMPORT = re.compile(
    r"^\s*from (repro(?:\.[a-z_0-9]+)*) import ([^#\n]+)", re.MULTILINE
)


def _importable(module, name: str) -> bool:
    """Would ``from <module> import <name>`` succeed?"""
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module.__name__}.{name}")
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("doc", _DOC_FILES)
def test_python_examples_import_existing_names(doc):
    """Every ``from repro... import a, b`` line of a fenced python block
    names a module and attributes that exist."""
    broken = []
    for block in _FENCED_PYTHON.findall(_doc_text(doc)):
        for module_name, names in _FROM_IMPORT.findall(block):
            module = importlib.import_module(module_name)
            for name in names.strip().strip("()").split(","):
                name = name.split(" as ")[0].strip()
                if name and not _importable(module, name):
                    broken.append(f"from {module_name} import {name}")
    assert not broken, f"{doc} imports missing names: {broken}"
