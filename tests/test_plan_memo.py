"""Differential tests for the concrete compiler's per-kernel memos.

The recurrent lowering repeats one frozen kernel object per timestep
launch.  ``RooflineModel.time_kernels`` memoizes timings by kernel value
for the life of the roofline (a session's roofline serves every batch the
session compiles), and ``Framework.specialize_kernels`` memoizes within
one kernel stream; both look a kernel up by identity first, in a map that
lives only for the call.  None of this may be visible in any plan:

- every paper-grid point compiled through one session, in sweep order,
  equals a fresh ``compile_graph`` with its own new ``RooflineModel``,
  bit for bit (:func:`repro.plan.symbolic.plan_difference`);
- every tune baseline (each panel at its reference batch) equals a
  fresh compile, and so does every single-stage candidate the tuner
  scores, against the same stage applied to the fresh compile;
- the memoized kernel stream and timings equal the kernel-by-kernel
  reference with no memo at all.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import SWEEP_PANELS
from repro.hardware.roofline import RooflineModel
from repro.plan.compiler import compile_graph, iteration_stream
from repro.plan.pipeline import parse_transform_spec
from repro.plan.symbolic import plan_difference
from repro.training.session import TrainingSession
from repro.tune.search import Autotuner

PANEL_PAIRS = [(model, fw) for model, fws in SWEEP_PANELS for fw in fws]


def _fresh_plan(session: TrainingSession, batch: int):
    return compile_graph(
        session.spec.build(batch),
        session.framework,
        session.gpu,
        roofline=RooflineModel(session.gpu),
    )


def _exact(value) -> str:
    return f"{type(value).__name__}:{value!r}"


def _kernel_rows(kernels) -> list:
    return [
        (
            k.name,
            k.category,
            _exact(k.flops),
            _exact(k.bytes_accessed),
            _exact(k.max_compute_efficiency),
            _exact(k.max_memory_efficiency),
            k.host_sync,
        )
        for k in kernels
    ]


def _timing_rows(timings) -> list:
    return [
        (
            _kernel_rows([t.kernel])[0],
            _exact(t.duration_s),
            _exact(t.compute_time_s),
            _exact(t.memory_time_s),
            _exact(t.launch_latency_s),
            _exact(t.fp32_utilization),
        )
        for t in timings
    ]


@pytest.mark.parametrize("model,framework", PANEL_PAIRS)
def test_session_plans_equal_fresh_compiles(model, framework):
    session = TrainingSession(model, framework)
    for batch in session.spec.batch_sizes:
        difference = plan_difference(
            session.compile(batch), _fresh_plan(session, batch)
        )
        assert difference is None, f"{model}/{framework} b={batch}: {difference}"


@pytest.mark.parametrize("model,framework", PANEL_PAIRS)
def test_tune_plans_equal_fresh_compiles(model, framework):
    tuner = Autotuner(model, framework)
    result = tuner.rank()
    session = tuner._session
    batch = tuner.batch_size
    fresh = _fresh_plan(session, batch)
    assert plan_difference(session.compile(batch), fresh) is None
    assert result.candidates, "the tuner scored no candidate"
    for spec in tuner.candidate_specs():
        if "+" in spec:
            continue  # multi-stage pipelines reuse these stages' plans
        pipeline = parse_transform_spec(spec)
        difference = plan_difference(
            session.compile_transformed(batch, pipeline), pipeline.apply(fresh)
        )
        assert difference is None, f"{model}/{framework} {spec}: {difference}"


@pytest.mark.parametrize("model,framework", PANEL_PAIRS)
def test_memoized_stream_equals_kernel_by_kernel_reference(model, framework):
    session = TrainingSession(model, framework)
    batch = session.spec.batch_sizes[-1]
    session.compile(session.spec.batch_sizes[0])  # warm the roofline memo
    plan = session.compile(batch)
    reference_kernels = [
        session.framework.specialize_kernel(kernel)
        for kernel in iteration_stream(plan.graph)
    ]
    roofline = RooflineModel(session.gpu)
    reference_timings = [roofline.time_kernel(k) for k in reference_kernels]
    assert _kernel_rows(plan.kernels) == _kernel_rows(reference_kernels)
    assert _timing_rows(plan.timings) == _timing_rows(reference_timings)


def test_deep_speech_2_times_far_fewer_kernels_than_it_lowers():
    """Most recurrent timesteps repeat one kernel value: the session's
    roofline times each distinct value once."""
    session = TrainingSession("deep-speech-2", "mxnet")
    plan = session.compile(session.spec.batch_sizes[0])
    distinct = len(session._roofline._timings)
    assert len(plan.kernels) > 10_000
    assert distinct * 100 < len(plan.kernels)
    assert distinct == len(set(plan.kernels))


def test_equal_kernels_share_one_timing_object():
    session = TrainingSession("nmt", "tensorflow")
    plan = session.compile(16)
    by_kernel = {}
    for kernel, timing in zip(plan.kernels, plan.timings):
        assert by_kernel.setdefault(kernel, timing) is timing
    assert len(by_kernel) < len(plan.kernels)
