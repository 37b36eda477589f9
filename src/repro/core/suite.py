"""The TBD suite object: the runnable catalog of Table 2.

    suite = standard_suite()
    result = suite.run("resnet-50", framework="mxnet", batch_size=32)
    sweep  = suite.sweep("nmt", framework="tensorflow")
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import IterationMetrics
from repro.data.registry import dataset_catalog, get_dataset
from repro.frameworks.registry import framework_catalog, get_framework
from repro.hardware.devices import GPUSpec, QUADRO_P4000
from repro.models.registry import ModelSpec, get_model, model_catalog
from repro.training.hyperparams import assert_comparable, defaults_for
from repro.training.session import TrainingSession


@dataclass
class SweepPoint:
    """One (batch size, metrics) point of a mini-batch sweep.

    Exactly one of the two outcomes holds: either the configuration ran
    and ``metrics`` is populated, or it exceeded GPU memory and ``oom`` is
    set with ``metrics`` left ``None``.  Mixed states are construction
    errors, so an OOM point can never masquerade as a measured one.
    """

    batch_size: int
    metrics: IterationMetrics | None = None
    oom: bool = False

    def __post_init__(self) -> None:
        if self.oom and self.metrics is not None:
            raise ValueError(
                f"OOM sweep point (batch {self.batch_size}) cannot carry metrics"
            )
        if not self.oom and self.metrics is None:
            raise ValueError(
                f"sweep point (batch {self.batch_size}) ran but has no metrics; "
                "mark it oom=True if it exceeded GPU memory"
            )


class TBDSuite:
    """The Training Benchmark for DNNs.

    Holds the model/framework/dataset catalogs and runs configurations on a
    chosen GPU.  The suite enforces the paper's comparability rule
    (Section 3.4.1) whenever one model is compared across frameworks: all
    implementations must share hyper-parameters.
    """

    def __init__(self, gpu: GPUSpec = QUADRO_P4000):
        self.gpu = gpu
        self.models = model_catalog()
        self.frameworks = framework_catalog()
        self.datasets = dataset_catalog()

    # ------------------------------------------------------------------
    # catalogs
    # ------------------------------------------------------------------

    def model(self, key: str) -> ModelSpec:
        """Look up one model spec."""
        return get_model(key)

    def configurations(self):
        """Yield every (model, framework) pair the paper evaluates."""
        for spec in self.models.values():
            for framework_key in spec.frameworks:
                yield spec, get_framework(framework_key)

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------

    def session(self, model: str, framework: str) -> TrainingSession:
        """Create a training session on this suite's GPU."""
        return TrainingSession(model, framework, gpu=self.gpu)

    def engine(self, jobs: int = 1, cache=None, check_memory: bool = True):
        """A :class:`~repro.engine.executor.SweepEngine` bound to this
        suite's GPU — the execution path of :meth:`sweep` and the figure
        experiments, and the parallel/memoized one for :meth:`run`."""
        from repro.engine.executor import SweepEngine

        return SweepEngine(
            jobs=jobs, cache=cache, gpu=self.gpu, check_memory=check_memory
        )

    def run(
        self, model: str, framework: str, batch_size: int | None = None, engine=None
    ) -> IterationMetrics:
        """Run one configuration and return its headline metrics.

        ``engine`` (a :meth:`engine` product) routes execution through the
        sweep engine: results are served from its content-addressed cache
        when possible and memoized when not.

        Raises:
            OutOfMemoryError: if the configuration exceeds GPU memory.
            ValueError: if the paper has no such implementation.
        """
        if engine is not None:
            return engine.run(model, framework, batch_size)
        session = self.session(model, framework)
        profile = session.run_iteration(batch_size)
        return IterationMetrics.from_profile(
            profile, throughput_unit=session.spec.throughput_unit
        )

    def sweep(
        self, model: str, framework: str, batch_sizes=None, engine=None
    ) -> list:
        """Run the model's mini-batch sweep (Figs. 4-6 x-axes); OOM points
        are recorded, not raised.  Points run through ``engine``, by
        default :meth:`engine` (in this process, uncached); pass a parallel
        or caching one to fan the sweep out and memoize each point."""
        engine = engine if engine is not None else self.engine()
        return engine.sweep(model, framework, batch_sizes)

    def compare_frameworks(self, model: str, batch_size: int | None = None) -> dict:
        """Run one model on every framework that implements it, after
        checking implementations are comparable (same hyper-parameters)."""
        spec = get_model(model)
        reference = defaults_for(spec.key)
        assert_comparable(spec.key, *([reference] * len(spec.frameworks)))
        results = {}
        for framework_key in spec.frameworks:
            results[framework_key] = self.run(model, framework_key, batch_size)
        return results

    def run_all(self) -> list:
        """Run every configuration at its reference batch size."""
        results = []
        for spec, framework in self.configurations():
            results.append(self.run(spec.key, framework.key))
        return results

    def validate_dataset_bindings(self) -> None:
        """Ensure every model's dataset exists (catalog integrity check)."""
        for spec in self.models.values():
            get_dataset(spec.dataset)


def standard_suite(gpu: GPUSpec = QUADRO_P4000) -> TBDSuite:
    """The paper's suite on its primary evaluation GPU (Quadro P4000)."""
    return TBDSuite(gpu=gpu)
