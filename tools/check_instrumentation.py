"""Instrumentation lint: fail if a core entry point loses its telemetry.

The observability runtime only works if the instrumentation points stay
instrumented; an innocent refactor of ``TrainingSession.run_iteration``
that drops its ``trace_span`` call would silently produce empty traces.
This tool walks the source AST (no imports, no execution) and asserts that
every required entry point still contains a ``trace_span(...)`` call.

Run:  python tools/check_instrumentation.py
Exit status 0 when every entry point is instrumented, 1 otherwise.
"""

from __future__ import annotations

import ast
import os
import sys

#: (module path relative to the source root, class name or None, function
#: name) -> every listed function body must contain a trace_span(...) call.
REQUIRED = [
    ("repro/training/session.py", "TrainingSession", "run_iteration"),
    ("repro/training/session.py", "TrainingSession", "execute_plan"),
    ("repro/training/session.py", "TrainingSession", "profile_memory"),
    ("repro/plan/compiler.py", None, "compile_graph"),
    ("repro/plan/symbolic.py", None, "compile_symbolic"),
    ("repro/plan/symbolic.py", "SymbolicPlanSet", "specialize"),
    ("repro/plan/cache.py", "PlanCache", "get"),
    ("repro/plan/transform.py", "PlanTransform", "apply"),
    ("repro/core/analysis.py", "AnalysisPipeline", "run"),
    ("repro/distributed/allreduce.py", "RingAllReduceExchange", "cost"),
    ("repro/distributed/parameter_server.py", "ParameterServerExchange", "cost"),
    ("repro/distributed/data_parallel.py", "DataParallelTrainer", "run_iteration"),
    ("repro/data/pipeline.py", "DataPipelineModel", "cost"),
    ("repro/engine/executor.py", "SweepEngine", "run_grid"),
    ("repro/engine/executor.py", "SweepEngine", "_compute_inline"),
    ("repro/faults/trainer.py", "FaultTolerantTrainer", "_simulate"),
    ("repro/faults/trainer.py", "FaultTolerantTrainer", "_recover_outage"),
    ("repro/faults/trainer.py", "FaultTolerantTrainer", "_recover_crash"),
    ("repro/faults/trainer.py", "FaultTolerantTrainer", "_recover_timeout"),
    ("repro/conformance/runner.py", "ConformanceRunner", "run"),
    ("repro/conformance/generator.py", None, "shrink"),
    ("repro/bench/runner.py", "InterleavedRunner", "run"),
    ("repro/tune/search.py", "Autotuner", "rank"),
    ("repro/tune/search.py", "Autotuner", "_score"),
    ("repro/schedule/integrator.py", None, "integrate_schedule"),
    ("repro/schedule/accuracy.py", None, "scheduled_time_to_accuracy"),
]

#: Entry points that must additionally record metrics: the function body
#: must contain a counter/gauge/histogram call (or reach the registry via
#: get_metrics).  Spans tell you *that* a bench ran; the counters are what
#: exporters scrape, so losing them silently blinds dashboards.
REQUIRED_METRICS = [
    ("repro/bench/runner.py", "InterleavedRunner", "run"),
    ("repro/plan/symbolic.py", None, "compile_symbolic"),
    ("repro/plan/symbolic.py", "SymbolicPlanSet", "specialize"),
    ("repro/tune/search.py", "Autotuner", "rank"),
    ("repro/schedule/integrator.py", None, "integrate_schedule"),
    ("repro/schedule/accuracy.py", None, "scheduled_time_to_accuracy"),
]

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _calls_trace_span(function: ast.FunctionDef) -> bool:
    """True if the function body contains a ``trace_span(...)`` call
    (either the module-level helper or a ``tracer.span(...)`` method)."""
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == "trace_span":
            return True
        if isinstance(callee, ast.Attribute) and callee.attr in ("span", "trace_span"):
            return True
    return False


def _records_metrics(function: ast.FunctionDef) -> bool:
    """True if the function body touches the metrics registry: a
    ``get_metrics()`` call or a ``.counter/.gauge/.histogram`` method."""
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == "get_metrics":
            return True
        if isinstance(callee, ast.Attribute) and callee.attr in (
            "counter",
            "gauge",
            "histogram",
            "get_metrics",
        ):
            return True
    return False


def _find_function(tree: ast.Module, class_name: str | None, function_name: str):
    scopes = [tree]
    if class_name is not None:
        scopes = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == class_name
        ]
    for scope in scopes:
        for node in scope.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == function_name
            ):
                return node
    return None


def check_instrumentation(source_root: str = _SRC) -> list:
    """Returns a list of human-readable problems (empty = all good)."""
    problems = []
    trees: dict = {}

    def resolve(relative, class_name, function_name):
        path = os.path.join(source_root, relative)
        where = f"{relative}::{class_name + '.' if class_name else ''}{function_name}"
        if path not in trees:
            try:
                with open(path) as handle:
                    trees[path] = ast.parse(handle.read(), filename=path)
            except (OSError, SyntaxError) as exc:
                trees[path] = exc
        tree = trees[path]
        if isinstance(tree, Exception):
            problems.append(f"{where}: cannot parse module ({tree})")
            return where, None
        function = _find_function(tree, class_name, function_name)
        if function is None:
            problems.append(f"{where}: entry point not found")
        return where, function

    for relative, class_name, function_name in REQUIRED:
        where, function = resolve(relative, class_name, function_name)
        if function is not None and not _calls_trace_span(function):
            problems.append(f"{where}: no trace_span(...) call in body")
    for relative, class_name, function_name in REQUIRED_METRICS:
        where, function = resolve(relative, class_name, function_name)
        if function is not None and not _records_metrics(function):
            problems.append(f"{where}: no metrics (counter/gauge/histogram) call in body")
    return problems


def main() -> int:
    problems = check_instrumentation()
    if problems:
        print("instrumentation lint FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"instrumentation lint OK: {len(REQUIRED)} entry points instrumented, "
        f"{len(REQUIRED_METRICS)} recording metrics"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
