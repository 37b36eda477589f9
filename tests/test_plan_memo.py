"""Differential tests for the concrete compiler's per-kernel memos.

The recurrent lowering repeats one frozen kernel object per timestep
launch.  ``RooflineModel.time_kernels`` memoizes timings by kernel value
for the life of the roofline (a session's roofline serves every batch the
session compiles), and ``Framework.specialize_kernels`` memoizes within
one kernel stream; both look a kernel up by identity first, in a map that
lives only for the call.  None of this may be visible in any plan:

- every paper-grid point compiled through one session, in sweep order,
  equals a fresh ``compile_graph`` with its own new ``RooflineModel``,
  bit for bit (:func:`tests.plans.plan_difference`);
- every tune baseline (each panel at its reference batch) equals a
  fresh compile, and so does every single-stage candidate the tuner
  scores, against the same stage applied to the fresh compile;
- the memoized kernel stream and timings equal the kernel-by-kernel
  reference with no memo at all.

Graphs are memoized too, per process: ``shared_graph`` keeps the five
most recent, so the sessions of every framework at one paper-grid
(model, batch) compile one graph object, a paper-grid sweep builds 40
graphs for its 60 points, and a ``depth:N`` variant is built once for
two frameworks.  Graphs are shared read-only values: after every
candidate pipeline of the 12 panels has compiled, each memoized graph
still equals a fresh build.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import SWEEP_PANELS
from repro.hardware.roofline import RooflineModel
from repro.models.registry import get_model, shared_graph
from repro.models.resnet import build_resnet_with_depth
from repro.plan.compiler import compile_graph, iteration_stream
from repro.plan.pipeline import parse_transform_spec
from repro.training.session import TrainingSession
from repro.tune.search import DEPTH_BLOCKS, Autotuner
from tests.plans import exact, plan_difference

PANEL_PAIRS = [(model, fw) for model, fws in SWEEP_PANELS for fw in fws]


def _fresh_plan(session: TrainingSession, batch: int):
    return compile_graph(
        session.spec.build(batch),
        session.framework,
        session.gpu,
        roofline=RooflineModel(session.gpu),
    )


def _kernel_rows(kernels) -> list:
    return [
        (
            k.name,
            k.category,
            exact(k.flops),
            exact(k.bytes_accessed),
            exact(k.max_compute_efficiency),
            exact(k.max_memory_efficiency),
            k.host_sync,
        )
        for k in kernels
    ]


def _timing_rows(timings) -> list:
    return [
        (
            _kernel_rows([t.kernel])[0],
            exact(t.duration_s),
            exact(t.compute_time_s),
            exact(t.memory_time_s),
            exact(t.launch_latency_s),
            exact(t.fp32_utilization),
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


def test_a_sweep_compiles_one_graph_per_model_and_batch():
    """In sweep order, every framework of a (model, batch) compiles the one
    graph the memo built for it."""
    shared_graph.cache_clear()
    graphs = {}
    points = 0
    for model, frameworks in SWEEP_PANELS:
        for framework in frameworks:
            session = TrainingSession(model, framework)
            for batch in session.spec.batch_sizes:
                graph = session.compile(batch).graph
                assert graphs.setdefault((model, batch), graph) is graph, (
                    f"{model}/{framework} b={batch} built its own graph"
                )
                points += 1
    distinct = sum(len(get_model(model).batch_sizes) for model, _ in SWEEP_PANELS)
    assert (points, distinct) == (60, 40)
    assert shared_graph.cache_info().misses == distinct


def test_a_depth_variant_is_built_once_for_two_frameworks():
    shared_graph.cache_clear()
    pipeline = parse_transform_spec("depth:23")
    tf, mx = (
        TrainingSession("resnet-50", framework).compile_transformed(32, pipeline)
        for framework in ("tensorflow", "mxnet")
    )
    assert tf.graph is mx.graph
    assert tf.graph == build_resnet_with_depth(32, 23)
    # One ResNet-50 graph and one depth variant.
    assert shared_graph.cache_info().misses == 2


@pytest.mark.parametrize("model,framework", PANEL_PAIRS)
def test_candidate_pipelines_leave_the_shared_graphs_as_built(model, framework):
    """The mutation guard: no transform writes into a graph it was given."""
    shared_graph.cache_clear()
    tuner = Autotuner(model, framework)
    batch = tuner.batch_size
    specs = tuner.candidate_specs()
    for spec in specs:
        tuner._session.compile_transformed(batch, parse_transform_spec(spec))
    builds = [(tuner.spec.build, batch)] + [
        (build_resnet_with_depth, batch, blocks)
        for blocks in DEPTH_BLOCKS
        if f"depth:{blocks}" in specs
    ]
    misses = shared_graph.cache_info().misses
    assert misses == len(builds)
    for build, *args in builds:
        assert shared_graph(build, *args) == build(*args), (build, args)
    assert shared_graph.cache_info().misses == misses, "a graph left the memo"
