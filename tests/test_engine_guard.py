"""Benchmark guard: the engine must never pay for a point twice.

Pins the engine's work accounting with call-count instrumentation on
``TrainingSession.run_iteration``: a full-grid ``run_sweeps`` against a
partially warm cache executes exactly one training session per *missing*
point, and a fully warm rerun executes none.  Also guards the
observability contract — the instrumentation lint must keep covering the
engine's entry points.
"""

import math
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.engine import PointSpec, SweepEngine, grid_for
from repro.experiments.common import SWEEP_PANELS, run_sweeps
from repro.plan.compiled import AllocationRecord
import repro.plan.compiler as plan_compiler
from repro.training.session import TrainingSession
from repro.tune.search import Autotuner

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
)
from check_instrumentation import REQUIRED, check_instrumentation  # noqa: E402

#: Panels pre-warmed before the guarded full-grid run (10 of 60 points).
PREWARM_PANELS = (
    ("resnet-50", ("tensorflow", "mxnet")),
)


def _fresh_python(script: str, *args: str) -> str:
    """Run ``script`` with ``args`` in a new interpreter on this source
    tree; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.fixture
def counted_iterations(monkeypatch):
    calls = []
    original = TrainingSession.run_iteration

    def counting(self, batch_size=None, pipeline=()):
        calls.append((self.spec.key, self.framework.key, batch_size))
        return original(self, batch_size, pipeline)

    monkeypatch.setattr(TrainingSession, "run_iteration", counting)
    return calls


class TestAtMostOneSessionPerMissingPoint:
    def test_full_grid_executes_once_per_missing_point(
        self, tmp_path, counted_iterations
    ):
        cache_root = str(tmp_path / "cache")
        full_grid = grid_for(SWEEP_PANELS)
        prewarm_grid = grid_for(PREWARM_PANELS)
        missing = len(full_grid) - len(prewarm_grid)
        assert missing > 0

        SweepEngine(jobs=1, cache=cache_root).run_grid(prewarm_grid)
        assert len(counted_iterations) == len(prewarm_grid)
        counted_iterations.clear()

        engine = SweepEngine(jobs=1, cache=cache_root)
        run_sweeps("throughput", engine=engine, panels=SWEEP_PANELS)
        assert len(counted_iterations) == missing, (
            "every missing point costs exactly one training session"
        )
        assert engine.stats.points_computed == missing
        assert engine.stats.cache_hits == len(prewarm_grid)
        # No duplicate executions hiding inside the count.
        assert len(set(counted_iterations)) == len(counted_iterations)

    def test_warm_rerun_executes_zero_sessions(self, tmp_path, counted_iterations):
        cache_root = str(tmp_path / "cache")
        grid = grid_for(PREWARM_PANELS)
        SweepEngine(jobs=1, cache=cache_root).run_grid(grid)
        counted_iterations.clear()

        warm = SweepEngine(jobs=1, cache=cache_root)
        run_sweeps("throughput", engine=warm, panels=PREWARM_PANELS)
        assert counted_iterations == []
        assert warm.stats.points_computed == 0
        assert warm.stats.cache_hits == len(grid)

    def test_uncached_engine_still_computes_each_point_once(self, counted_iterations):
        grid = grid_for(PREWARM_PANELS)
        SweepEngine(jobs=1, cache=None).run_grid(grid)
        assert len(counted_iterations) == len(grid)
        assert len(set(counted_iterations)) == len(grid)

    def test_repeated_single_point_run_hits_after_first(
        self, tmp_path, counted_iterations
    ):
        engine = SweepEngine(jobs=1, cache=str(tmp_path / "cache"))
        spec = PointSpec("a3c", "mxnet", 64)
        first = engine.run_grid([spec])
        for _ in range(3):
            assert engine.run_grid([spec]) == first
        assert len(counted_iterations) == 1


@pytest.fixture
def counted_compiles(monkeypatch):
    """Counts every concrete graph compile (build + lower + time +
    replay).  The session and the plan transforms both call through the
    module reference, so patching the module attribute intercepts every
    compile."""
    calls = []
    original = plan_compiler.compile_graph

    def counting(graph, framework, gpu, roofline=None):
        calls.append((graph.model_name, framework.key, graph.batch_size))
        return original(graph, framework, gpu, roofline=roofline)

    monkeypatch.setattr(plan_compiler, "compile_graph", counting)
    return calls


@pytest.fixture
def counted_builds(monkeypatch):
    """Counts every plan-cache factory call (one graph build plus one
    concrete compile) — the unit of per-point plan work."""
    calls = []
    original = TrainingSession._build_plan

    def counting(self, batch):
        calls.append((self.spec.key, self.framework.key, int(batch)))
        return original(self, batch)

    monkeypatch.setattr(TrainingSession, "_build_plan", counting)
    return calls


class TestOneCompilePerPoint:
    """The plan cache's core promise: a warm session never re-lowers a
    point, no matter which consumer asks next."""

    def test_session_consumers_share_one_build_per_batch(self, counted_builds):
        session = TrainingSession("resnet-50", "mxnet")
        ladder = session.spec.batch_sizes
        best = session.max_batch_size()
        probes = len(counted_builds)
        assert 0 < probes <= math.ceil(math.log2(len(ladder))) + 1, (
            "the OOM probe bisects the ladder: at most ceil(log2 n) + 1 "
            "plan builds"
        )
        assert len(set(counted_builds)) == probes, "one build per probed batch"
        assert ("resnet-50", "mxnet", best) in counted_builds
        session.run_iteration(best)
        session.profile_memory(best)
        session.compile(best).timeline
        session.run_iteration(best)
        assert len(counted_builds) == probes, (
            "the bisection's plans stay cached: warm consumers must add "
            "zero plan builds"
        )
        assert session.plan_cache.stats.compile_count == probes

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 64])
    def test_bisected_oom_probe_builds_logarithmically_many_plans(
        self, counted_builds, count
    ):
        # sockeye/mxnet runs out of P4000 memory at batch 123, so every
        # ladder but the shortest straddles the boundary.
        session = TrainingSession("sockeye", "mxnet")
        candidates = [160 * (index + 1) // count for index in range(count)]
        bisected = session.max_batch_size(candidates)
        assert len(counted_builds) <= math.ceil(math.log2(count)) + 1
        assert len(set(counted_builds)) == len(counted_builds)
        searched = session.max_batch_size(candidates, search=True)
        assert bisected == searched
        assert bisected == max((b for b in candidates if b <= 122), default=0)

    def test_searched_oom_probe_still_compiles_once_per_batch(
        self, counted_builds
    ):
        session = TrainingSession("resnet-50", "mxnet")
        best = session.max_batch_size(search=True)
        probes = len(counted_builds)
        assert probes > 0
        assert len(set(counted_builds)) == probes, "one build per probed batch"
        session.run_iteration(best)
        assert len(counted_builds) == probes, (
            "the searched probe's plans stay cached for later consumers"
        )

    def test_suite_sweep_builds_each_point_exactly_once(self, counted_builds):
        from repro.core.suite import standard_suite

        suite = standard_suite()
        points = suite.sweep("resnet-50", "mxnet")
        assert len(counted_builds) == len(points)
        assert len(set(counted_builds)) == len(counted_builds)

    def test_every_question_answers_with_the_concrete_compiler(
        self, tmp_path, counted_builds, counted_compiles
    ):
        """Sweeps, tuning and OOM probes build every plan through
        ``compile_graph``: each plan-cache build compiles concretely, and
        graph-rewriting transforms compile again."""
        from repro.core.suite import standard_suite

        standard_suite().sweep("resnet-50", "mxnet")
        SweepEngine(jobs=1, cache=str(tmp_path / "cache")).sweep("nmt", "tensorflow")
        TrainingSession("deep-speech-2", "mxnet").max_batch_size()
        Autotuner("a3c", "mxnet").tune(cache=None, confirm=True)
        assert len(counted_builds) > 0
        assert len(counted_compiles) >= len(counted_builds)

    def test_no_module_imports_the_symbolic_library(self):
        """Importing every other module under ``repro`` never loads the
        ``repro.plan.symbolic`` stub: only the wall benchmark's layer
        table imports it, and it goes when that table stops asking."""
        script = textwrap.dedent(
            """
            import importlib, pkgutil, sys
            import repro

            library = {"repro.plan.symbolic"}
            for module in pkgutil.walk_packages(repro.__path__, "repro."):
                if module.name not in library:
                    importlib.import_module(module.name)
            print(sorted(library & set(sys.modules)))
            """
        )
        assert _fresh_python(script) == "[]"

    def test_a_sweep_imports_only_what_it_runs(self, tmp_path):
        """A cold and a warm sweep, from the entry points a sweep process
        imports, load neither numpy nor the analysis, profiling, archive,
        distributed, figure or process-pool layers: set-up time is spent
        only on layers the answer uses."""
        script = textwrap.dedent(
            """
            import sys

            sys.modules["numpy"] = None  # any numpy import raises
            import repro.cli
            import repro.engine.cache
            import repro.engine.executor
            import repro.experiments.common
            from repro.engine.executor import SweepEngine

            for _ in ("cold", "warm"):
                SweepEngine(cache=sys.argv[1]).sweep("resnet-50", "mxnet")
            unused = {"numpy", "repro.core.analysis", "concurrent.futures", "subprocess"}
            unused |= {f"repro.observability.{name}" for name in ("exporters", "archive", "runner")}
            prefixes = ("repro.profiling", "repro.distributed", "repro.experiments.")
            print(sorted(
                name for name, module in sys.modules.items()
                if module is not None
                and (name in unused or name.startswith(prefixes))
                and name != "repro.experiments.common"
            ))
            """
        )
        assert _fresh_python(script, str(tmp_path / "cache")) == "[]"

    def test_an_unconfirmed_tune_loads_no_numpy(self):
        """``tbd tune --no-confirm`` draws no noisy sample, so it runs with
        numpy unimportable and never loads the A/B runner."""
        script = textwrap.dedent(
            """
            import contextlib
            import io
            import sys

            sys.modules["numpy"] = None  # any numpy import raises
            from repro.cli import main

            with contextlib.redirect_stdout(io.StringIO()):
                code = main([
                    "tune", "nmt", "-f", "tensorflow", "-b", "64",
                    "--budget", "4", "--no-confirm", "--no-cache",
                ])
            print(code, sorted(
                name for name in sys.modules if name.startswith("repro.bench")
            ))
            """
        )
        assert _fresh_python(script) == "0 []"

    def test_tuning_builds_no_allocation_record(self, monkeypatch):
        """A tune reads allocation traces only as columns: compiling,
        rewriting and replaying every candidate constructs no per-record
        row."""
        built = []
        plain_init = AllocationRecord.__init__

        def counted_init(self, *args, **kwargs):
            built.append(args)
            plain_init(self, *args, **kwargs)

        monkeypatch.setattr(AllocationRecord, "__init__", counted_init)
        result = Autotuner("resnet-50", "mxnet").tune(cache=None)
        assert result.candidates
        assert built == []
        # The hook counts rows when a consumer does read them.
        list(Autotuner("a3c", "mxnet")._session.compile(4).allocations[:2])
        assert len(built) == 2

    def test_the_cli_parser_loads_no_command_internals(self):
        """``tbd`` builds its parser without the conformance harness, the
        autotuner or the schedule integrator: each loads when its command
        runs."""
        script = textwrap.dedent(
            """
            import sys
            import repro.cli

            repro.cli.build_parser()
            deferred = {
                f"repro.conformance.{name}"
                for name in ("invariants", "relations", "generator", "runner")
            }
            deferred |= {"repro.tune.search", "repro.tune.store"}
            deferred |= {
                f"repro.schedule.{name}" for name in ("accuracy", "integrator", "spec")
            }
            print(sorted(deferred & set(sys.modules)))
            """
        )
        assert _fresh_python(script) == "[]"

    def test_optimization_whatifs_reuse_the_session_plan(self, counted_builds):
        from repro.plan.pipeline import parse_transform_spec

        session = TrainingSession("resnet-50", "mxnet")
        session.run_iteration(16, parse_transform_spec("offload:0.5"))
        assert len(counted_builds) == 1
        # Same batch: the cached base plan, no recompile.
        session.run_iteration(16, parse_transform_spec("offload:0.8"))
        assert len(counted_builds) == 1


class TestInstrumentationLintCoversEngine:
    def test_engine_entry_points_are_required(self):
        engine_entries = {
            (class_name, function)
            for path, class_name, function in REQUIRED
            if path == "repro/engine/executor.py"
        }
        assert ("SweepEngine", "run_grid") in engine_entries
        assert ("SweepEngine", "_compute_inline") in engine_entries

    def test_lint_passes_on_current_tree(self):
        assert check_instrumentation() == []
