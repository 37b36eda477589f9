"""Experiment generators: one module per table and figure of the paper's
evaluation.  Each module exposes

- ``generate(...)`` — run the experiment and return plain data, and
- ``render(...)`` — format that data the way the paper prints it.

The benchmark harness (``benchmarks/``) times and prints these; the
integration tests assert their shapes against the paper's findings.
"""

import importlib

#: The paper's exhibits, in registry order; each is a submodule.
_EXHIBITS = (
    "table1",
    "fig1_fig3",
    "table2_3",
    "table4",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "table5_6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
)
#: Exhibits beyond the paper's evaluation (suite extensions).
_EXTENSIONS = ("extension_yolo",)


def __getattr__(name):
    """Exhibit modules and the two registries import on first use (PEP
    562), so ``repro.experiments.common`` loads no figure module."""
    if name in _EXHIBITS or name in _EXTENSIONS:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "ALL_EXPERIMENTS":
        return {key: importlib.import_module(f"{__name__}.{key}") for key in _EXHIBITS}
    if name == "EXTENSION_EXPERIMENTS":
        return {key: importlib.import_module(f"{__name__}.{key}") for key in _EXTENSIONS}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["ALL_EXPERIMENTS", "EXTENSION_EXPERIMENTS", *_EXHIBITS]
