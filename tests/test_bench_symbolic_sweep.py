"""The symbolic-sweep bench suite: compile-count guards and the
volatile-field trajectory semantics.

The suite's wall-clock numbers are machine noise; what CI must hold
invariant is the deterministic half: a 7-point sweep performs exactly one
symbolic compile per (model, framework, GPU), a warm sweep performs zero,
the symbolic path never calls the concrete compiler, and every
specialized plan is bit-identical to the concrete compiler's output.
"""

from __future__ import annotations

from repro.bench.store import BenchStore
from repro.bench.symbolic_sweep import (
    SUITE_NAME,
    SWEEP_CASES,
    build_sweep_record,
    gate_doc_for,
    run_symbolic_sweep,
)
from repro.frameworks import get_framework
from repro.hardware.devices import QUADRO_P4000
from repro.models.registry import get_model
from repro.plan.symbolic import shared_plan_set, shared_plan_sets_clear
from repro.training.session import TrainingSession


class TestSweepGuards:
    def test_every_case_compiles_once_and_matches_bit_for_bit(self):
        results = run_symbolic_sweep(repeats=1, cases=SWEEP_CASES[:2])
        for result in results:
            assert len(result.batches) == 7
            assert result.symbolic_compiles == 1, result.name
            assert result.warm_symbolic_compiles == 0, result.name
            assert result.concrete_compiles_on_symbolic_path == 0, result.name
            assert result.identical, result.name
            assert result.guards_ok
        gate = gate_doc_for(results)
        assert gate == {"passed": True, "failures": []}

    def test_shared_sweep_traces_once_and_rides_warm_cache(self):
        """A 7-point sweep through the process-wide shared plan set costs
        one traced compile, a second lookup of the same configuration
        costs zero, and a session sweep over the same batches (concrete
        compiles only) leaves the shared trace untouched."""
        shared_plan_sets_clear()
        model, framework, batches = SWEEP_CASES[0]
        spec, fw = get_model(model), get_framework(framework)
        sset = shared_plan_set(spec, fw, QUADRO_P4000)
        for batch in batches:
            sset.specialize(batch)
        assert sset.compile_count == 1
        assert sset.specialize_count == len(batches)

        warm_set = shared_plan_set(spec, fw, QUADRO_P4000)
        for batch in batches:
            warm_set.specialize(batch)
        assert warm_set is sset  # process-wide shared trace
        assert warm_set.compile_count == 1  # zero new symbolic compiles

        session = TrainingSession(model, framework)
        for batch in batches:
            session.compile(batch)
        assert sset.compile_count == 1
        assert sset.specialize_count == 2 * len(batches)

    def test_gate_reports_guard_failures_by_name(self):
        results = run_symbolic_sweep(repeats=1, cases=SWEEP_CASES[:1])
        broken = results[0].__class__(
            **{**results[0].__dict__, "symbolic_compiles": 2}
        )
        gate = gate_doc_for([broken])
        assert not gate["passed"]
        assert gate["failures"] == [broken.name]


class TestVolatileTrajectory:
    def test_measured_fields_do_not_fork_the_record(self, tmp_path):
        """Two runs whose wall-clock differs but whose guards agree must
        converge on ONE trajectory record (the volatile digest)."""
        results = run_symbolic_sweep(repeats=1, cases=SWEEP_CASES[:1])
        store = BenchStore(str(tmp_path))
        first = build_sweep_record(results, repeats=1)
        key_a = store.append(SUITE_NAME, first, volatile=("measured",))
        jittered = dict(first)
        jittered["measured"] = {
            name: {field: value * 1.37 for field, value in doc.items()}
            for name, doc in first["measured"].items()
        }
        key_b = store.append(SUITE_NAME, jittered, volatile=("measured",))
        assert key_a == key_b
        records = store.records(SUITE_NAME)
        assert len(records) == 1
        # The replace keeps the latest measurement.
        assert records[0]["measured"] == jittered["measured"]

    def test_guard_change_forks_the_record(self, tmp_path):
        results = run_symbolic_sweep(repeats=1, cases=SWEEP_CASES[:1])
        store = BenchStore(str(tmp_path))
        first = build_sweep_record(results, repeats=1)
        store.append(SUITE_NAME, first, volatile=("measured",))
        forked = dict(first)
        forked["results"] = [
            {**doc, "symbolic_compiles": 2} for doc in first["results"]
        ]
        store.append(SUITE_NAME, forked, volatile=("measured",))
        assert len(store.records(SUITE_NAME)) == 2
