"""Import target for the host wall-clock benchmark; no logic lives here.

Every plan comes from :func:`repro.plan.compiler.compile_graph`.  The
symbolic compiler that used to live here is gone, but
``benchmarks/wall/layers.py`` still wraps three names of this module in
every traced run, so they stay until that benchmark stops asking for
them.  Nothing under ``repro`` imports this module.
"""

from repro.plan.executor import replay

__all__ = ["SymbolicPlanSet", "compile_symbolic", "replay"]

_GONE = "the symbolic plan compiler is gone; use repro.plan.compiler.compile_graph"


def compile_symbolic(*args, **kwargs):
    """Always raises :class:`NotImplementedError` (see the module docstring)."""
    raise NotImplementedError(_GONE)


class SymbolicPlanSet:
    """Placeholder whose :meth:`specialize` always raises."""

    def specialize(self, batch: int):
        """Always raises :class:`NotImplementedError`."""
        raise NotImplementedError(_GONE)
