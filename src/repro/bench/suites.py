"""Named benchmark suites: the comparisons CI tracks over time.

A suite is a fixed list of A/B cases — (model, framework, batch,
treatment) — run under one noise seed and recorded as one trajectory
point, plus the verdict every case must come back with.  Two ship by
default, plus one built on demand:

- ``noop``: baseline vs an independently-built second baseline on three
  architecture families.  Every case must come back
  ``indistinguishable``; this is the gate's false-positive control.
- ``slowdown5``: baseline vs a deterministic 5% kernel-time slowdown.
  Every case must come back ``regression``; this is the power control —
  proof the gate actually fires when the code gets slower.
- ``tune``: the modeled-speedup gate on the three RNN workloads.  Per
  workload it measures the autotuner's winning pipeline and the
  single-stage ``fused_rnn`` transform against the baseline.  The
  winners are *derived* — the cost-model search runs when the suite is
  requested, so the trajectory records whatever ``tbd tune`` currently
  picks — and every case must come back ``improvement``: a tuned config
  or a transform the A/B runner cannot confirm is a bug worth failing
  CI over.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import InterleavedRunner
from repro.bench.subjects import subject_for
from repro.observability.tracer import trace_span


@dataclass(frozen=True)
class BenchCase:
    """One A/B comparison inside a suite."""

    model: str
    framework: str
    batch_size: int
    treatment: str
    baseline: str = "baseline"

    @property
    def name(self) -> str:
        return f"{self.model}/{self.framework}/b{self.batch_size}:{self.treatment}"


@dataclass(frozen=True)
class BenchSuite:
    """A named, ordered list of cases plus the verdict the gate expects
    of every one of them."""

    name: str
    description: str
    cases: tuple
    #: Expected verdict for every case: ``"improvement"``,
    #: ``"regression"`` or ``"indistinguishable"``.
    expect: str


_RNN_POINTS = (
    ("nmt", "tensorflow", 64),
    ("sockeye", "mxnet", 64),
    ("deep-speech-2", "mxnet", 16),
)

_CONTROL_POINTS = (
    ("resnet-50", "tensorflow", 32),
    ("nmt", "tensorflow", 64),
    ("sockeye", "mxnet", 64),
)

_SUITES = {
    "noop": BenchSuite(
        name="noop",
        description=(
            "Baseline vs an independent second baseline — the gate's "
            "false-positive control; every verdict must be "
            "'indistinguishable'"
        ),
        cases=tuple(
            BenchCase(model, framework, batch, "baseline")
            for model, framework, batch in _CONTROL_POINTS
        ),
        expect="indistinguishable",
    ),
    "slowdown5": BenchSuite(
        name="slowdown5",
        description=(
            "Baseline vs a deterministic 5% kernel-time slowdown — the "
            "gate's power control; every verdict must be 'regression'"
        ),
        cases=tuple(
            BenchCase(model, framework, batch, "slowdown:5")
            for model, framework, batch in _CONTROL_POINTS
        ),
        expect="regression",
    ),
}


def _build_tune_suite() -> BenchSuite:
    """The derived ``tune`` suite: per RNN workload, the autotuner's
    current cost-model winner and the single-stage ``fused_rnn``
    transform, each against the baseline.  Built on demand (the search
    compiles candidate pipelines), so the static :func:`suite_catalog`
    stays cheap to list."""
    from repro.tune.search import Autotuner

    cases = []
    for model, framework, batch in _RNN_POINTS:
        result = Autotuner(model, framework, batch_size=batch).rank()
        if result.winner is not None and result.winner.spec != "fused_rnn":
            cases.append(BenchCase(model, framework, batch, result.winner.spec))
        cases.append(BenchCase(model, framework, batch, "fused_rnn"))
    return BenchSuite(
        name="tune",
        description=(
            "Autotuner winners (tbd tune) and the fused_rnn transform vs "
            "baseline on the three RNN workloads; every case must verify "
            "as an improvement"
        ),
        cases=tuple(cases),
        expect="improvement",
    )


def get_suite(name: str) -> BenchSuite:
    if name == "tune":
        return _build_tune_suite()
    try:
        return _SUITES[name]
    except KeyError:
        known = ", ".join(sorted([*_SUITES, "tune"]))
        raise ValueError(f"unknown bench suite {name!r}; known: {known}") from None


def suite_catalog() -> list:
    """All registered suites, sorted by name."""
    return [_SUITES[name] for name in sorted(_SUITES)]


def run_suite(
    suite, runner: InterleavedRunner | None = None, samples: int | None = None
) -> list:
    """Run every case of ``suite`` (a name or a :class:`BenchSuite`)
    through ``runner`` (default: an :class:`InterleavedRunner` at its
    defaults) and return the :class:`~repro.bench.runner.BenchResult`
    list, in case order.

    Both sides of every case are built independently — even a "noop" case
    constructs two separate baseline subjects — so the runner's
    distinct-subject contract holds and the A/B really exercises two
    measurement streams.
    """
    if isinstance(suite, str):
        suite = get_suite(suite)
    runner = runner if runner is not None else InterleavedRunner()
    results = []
    with trace_span(
        "bench.suite", suite=suite.name, cases=len(suite.cases), seed=runner.noise.seed
    ):
        for case in suite.cases:
            baseline = subject_for(
                case.baseline, case.model, case.framework, case.batch_size
            )
            treatment = subject_for(
                case.treatment, case.model, case.framework, case.batch_size
            )
            results.append(
                runner.run(baseline, treatment, name=case.name, samples=samples)
            )
    return results
