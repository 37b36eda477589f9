"""Property-based tests over the execution-model layers added after the
core calibration: timelines, fusion, statistics composition and session
determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frameworks.registry import MXNET, TENSORFLOW
from repro.hardware.devices import QUADRO_P4000
from repro.hardware.roofline import RooflineModel
from repro.kernels.base import Kernel, KernelCategory
from repro.plan.executor import ExecutionReplay, replay
from repro.plan.transform import fuse_recurrent_layers
from repro.training.session import TrainingSession

_roofline = RooflineModel(QUADRO_P4000)

_kernel_strategy = st.builds(
    Kernel,
    name=st.sampled_from(["k1", "k2", "k3"]),
    category=st.sampled_from(list(KernelCategory)),
    flops=st.floats(min_value=0.0, max_value=1e10),
    bytes_accessed=st.floats(min_value=1.0, max_value=1e9),
    max_compute_efficiency=st.floats(min_value=0.05, max_value=1.0),
    max_memory_efficiency=st.floats(min_value=0.05, max_value=1.0),
    host_sync=st.booleans(),
)


def _execution(timings, framework):
    """The replay of a kernel stream that has no plan."""
    durations = [timing.duration_s for timing in timings]
    host_syncs = [timing.kernel.host_sync for timing in timings]
    return ExecutionReplay(
        [timing.kernel for timing in timings], durations, host_syncs, framework,
        makespan_s=replay(durations, host_syncs, framework),
    )


class TestTimelineProperties:
    @given(kernels=st.lists(_kernel_strategy, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_events_never_overlap_and_cover_busy_time(self, kernels):
        timings = _roofline.time_kernels(kernels)
        timeline = _execution(timings, TENSORFLOW).timeline
        events = timeline.events
        for before, after in zip(events, events[1:]):
            assert after.start_s >= before.end_s - 1e-12
        assert timeline.busy_s == pytest.approx(
            sum(t.duration_s for t in timings)
        )
        assert timeline.makespan_s >= timeline.busy_s - 1e-12

    @given(kernels=st.lists(_kernel_strategy, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_timeline_agrees_with_the_aggregates(self, kernels):
        """The recorded timeline and the replay's aggregates must agree on
        makespan and busy time (one recurrence produces both)."""
        timings = _roofline.time_kernels(kernels)
        replayed = _execution(timings, MXNET)
        timeline = replayed.timeline
        assert timeline.makespan_s == replayed.makespan_s
        # busy_s sums per-event extents (bit-compatible with the historic
        # timeline builder) while gpu_busy_s sums raw durations
        # (bit-compatible with the historic session executor) — equal to
        # within float accumulation order.
        assert timeline.busy_s == pytest.approx(replayed.gpu_busy_s)

    @given(kernels=st.lists(_kernel_strategy, min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_gaps_and_events_are_disjoint(self, kernels):
        timings = _roofline.time_kernels(kernels)
        timeline = _execution(timings, TENSORFLOW).timeline
        intervals = [(e.start_s, e.end_s) for e in timeline.events] + [
            (g.start_s, g.end_s) for g in timeline.gaps
        ]
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-12


class TestFusionProperties:
    @given(
        batch=st.sampled_from((2, 4, 8)),
        seq=st.integers(min_value=1, max_value=12),
        hidden=st.sampled_from((8, 16, 32)),
        layers=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_fusion_preserves_flops_for_any_geometry(self, batch, seq, hidden, layers):
        from repro.models.seq2seq import build_seq2seq

        graph = build_seq2seq(
            batch,
            hidden=hidden,
            seq_len=seq,
            encoder_layers=layers,
            decoder_layers=1,
        )
        fused = fuse_recurrent_layers(graph)
        assert fused.iteration_flops() == pytest.approx(
            graph.iteration_flops(), rel=1e-9
        )
        assert not any(k.host_sync for k in fused.iteration_kernels())


class TestDeterminism:
    def test_sessions_are_deterministic(self):
        a = TrainingSession("sockeye", "mxnet").run_iteration(32)
        b = TrainingSession("sockeye", "mxnet").run_iteration(32)
        assert a.iteration_time_s == b.iteration_time_s
        assert a.gpu_flops == b.gpu_flops
        assert a.memory.peak_total == b.memory.peak_total

    def test_experiments_are_deterministic(self):
        from repro.experiments import fig10

        first = fig10.generate()
        second = fig10.generate()
        for label in first:
            assert [p.throughput for p in first[label]] == [
                p.throughput for p in second[label]
            ]
