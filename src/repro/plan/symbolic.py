"""Symbolic plan compilation: trace once per (model, framework, GPU),
specialize per batch.

``compile_symbolic`` runs the *existing* concrete pipeline — model
builder, kernel lowering, framework specialization, roofline timing,
allocation recording — with a :class:`~repro.plan.symexpr.SymValue`
standing in for the batch size.  The result is a :class:`SymbolicPlan`:
every batch-dependent quantity in the graph, kernel stream, timings and
allocation trace is an expression DAG, and every branch the concrete code
took is pinned by a guard.  ``specialize(batch)`` substitutes a concrete
batch into the DAG (replaying the recorded operations exactly) and runs
the real dispatch/execute replay, producing a
:class:`~repro.plan.compiled.CompiledPlan` that is bit-for-bit identical
to what ``compile_graph`` would have built — the differential harness in
``tests/test_symbolic_differential.py`` is the proof.

:class:`SymbolicPlanSet` manages guard regions the way TorchDynamo does:
a specialization whose batch violates a variant's guards re-traces with
that batch as the new hint, so models whose kernel selection flips with
batch (gemm efficiency tiers, transformer sentence packing) get one
variant per region instead of one compile per point.  On top of the
traced expressions it solves analytically for OOM boundaries and
throughput-saturation points — evaluations of the traced allocation /
timing expressions instead of per-batch recompiles.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.hardware.memory import GPUMemoryAllocator, OutOfMemoryError
from repro.hardware.roofline import RooflineModel
from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span
from repro.plan import compiler as plan_compiler
from repro.plan.compiled import CompiledPlan
from repro.plan.executor import ExecutionReplay, replay
from repro.plan.symexpr import (
    GuardViolation,
    LinearTape,
    NotPolynomial,
    Polynomial,
    SymTracer,
    SymValue,
    TraceEscape,
    as_polynomial,
)

__all__ = [
    "GuardViolation",
    "NotPolynomial",
    "SymbolicPlan",
    "SymbolicPlanSet",
    "TraceEscape",
    "compile_symbolic",
    "plan_difference",
    "plan_fingerprint",
    "shared_plan_set",
    "shared_plan_sets_clear",
]

#: Leaf types the materializer passes through untouched.
_ATOMS = (str, bytes, bool, int, float, complex, type(None))


def _compile_recipe(obj, tape: LinearTape, registry: dict):
    """Compile a traced object graph into a *materialization recipe*.

    Returns ``None`` when the subtree is batch-independent (specialize
    reuses the template object as-is) or a builder ``f(slots, memo)`` that
    constructs the concrete object from a :class:`LinearTape` slot array.
    The walk — ``isinstance`` chains, ``dataclasses.fields``, unchanged
    detection — happens exactly once per variant; each ``specialize`` then
    only executes the builders for the batch-dependent spine.

    ``registry`` memoizes recipes by template identity and ``memo``
    (per specialize call) memoizes built objects the same way, so a
    timing's ``kernel`` stays the same object as its entry in the kernel
    list, exactly like the concrete compiler's output.  Dataclasses are
    rebuilt field-by-field without re-running ``__post_init__``: the
    validations already ran at trace time and their outcomes are pinned
    by guards."""
    if isinstance(obj, SymValue):
        slot = tape.slot(obj)
        return lambda slots, memo, _slot=slot: slots[_slot]
    if isinstance(obj, _ATOMS) or isinstance(obj, enum.Enum):
        return None
    key = id(obj)
    if key in registry:
        return registry[key]
    cls = type(obj)
    recipe = None
    if cls is list or cls is tuple:
        parts = [_compile_recipe(item, tape, registry) for item in obj]
        if any(part is not None for part in parts):
            pairs = [(i, part) for i, part in enumerate(parts) if part is not None]
            template = list(obj)

            def recipe(slots, memo, _key=key, _cls=cls, _template=template, _pairs=pairs):
                built = memo.get(_key)
                if built is None:
                    built = _template.copy()
                    for index, part in _pairs:
                        built[index] = part(slots, memo)
                    if _cls is tuple:
                        built = tuple(built)
                    memo[_key] = built
                return built

    elif cls is dict:
        parts = {k: _compile_recipe(v, tape, registry) for k, v in obj.items()}
        if any(part is not None for part in parts.values()):
            pairs = [(k, part) for k, part in parts.items() if part is not None]

            def recipe(slots, memo, _key=key, _template=obj, _pairs=pairs):
                built = memo.get(_key)
                if built is None:
                    built = dict(_template)
                    for name, part in _pairs:
                        built[name] = part(slots, memo)
                    memo[_key] = built
                return built

    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        static = []
        dynamic = []
        for field in dataclasses.fields(obj):
            current = getattr(obj, field.name)
            part = _compile_recipe(current, tape, registry)
            if part is None:
                static.append((field.name, current))
            else:
                dynamic.append((field.name, part))
        if dynamic:

            def recipe(slots, memo, _key=key, _cls=cls, _static=static, _dynamic=dynamic):
                built = memo.get(_key)
                if built is None:
                    built = object.__new__(_cls)
                    setattr_ = object.__setattr__
                    for name, current in _static:
                        setattr_(built, name, current)
                    for name, part in _dynamic:
                        setattr_(built, name, part(slots, memo))
                    memo[_key] = built
                return built

    registry[key] = recipe
    return recipe


def compile_symbolic(spec, framework, gpu, roofline=None, hint=None) -> "SymbolicPlan":
    """Trace one model through the concrete compiler with a symbolic batch.

    ``hint`` picks the guard region (the concrete value branches resolve
    against); it defaults to the model's reference batch.  Raises
    :class:`TraceEscape` when the model's builder performs an operation
    the tracer cannot keep exact — callers fall back to ``compile_graph``.
    """
    hint = int(spec.reference_batch if hint is None else hint)
    with trace_span(
        "plan.symbolic.compile",
        model=spec.key,
        framework=framework.key,
        device=gpu.name,
        hint=hint,
    ) as span:
        tracer = SymTracer(name="batch", hint=hint)
        batch = tracer.value()
        model = roofline if roofline is not None else RooflineModel(gpu)
        graph = spec.build(batch)
        # Kernel by kernel: the memoized stream helpers hash kernels, and
        # hashing a symbolic value escapes the trace.
        kernels = [
            framework.specialize_kernel(kernel)
            for kernel in plan_compiler.iteration_stream(graph)
        ]
        timings = [model.time_kernel(kernel) for kernel in kernels]
        allocations = plan_compiler.record_allocations(graph, framework)
        backward_spans = plan_compiler._backward_spans(graph)
        span.set_attributes(guards=len(tracer.guards), kernels=len(kernels))
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "plan_symbolic_compiles_total", {"model": spec.key}
            ).inc()
    return SymbolicPlan(
        spec=spec,
        framework=framework,
        gpu=gpu,
        tracer=tracer,
        graph=graph,
        kernels=kernels,
        timings=timings,
        allocations=allocations,
        backward_spans=backward_spans,
    )


class SymbolicPlan:
    """One traced (model, framework, GPU) point: symbolic templates plus
    the guards that delimit the batch region they are valid in."""

    def __init__(
        self,
        spec,
        framework,
        gpu,
        tracer: SymTracer,
        graph,
        kernels: list,
        timings: list,
        allocations: list,
        backward_spans: tuple,
    ):
        self.spec = spec
        self.framework = framework
        self.gpu = gpu
        self.tracer = tracer
        self.graph = graph
        self.kernels = kernels
        self.timings = timings
        self.allocations = allocations
        self.backward_spans = tuple(backward_spans)
        # Compiled lazily on first use: the trace flattened to a linear
        # instruction tape plus materialization recipes for each template.
        self._tape: LinearTape | None = None
        self._recipes = None
        self._timing_plan = None
        self._host_syncs = None
        self._slots_cache: dict = {}

    @property
    def hint(self) -> int:
        return self.tracer.hint

    @property
    def guards(self) -> list:
        return self.tracer.guards

    def _ensure_compiled(self) -> LinearTape:
        tape = self._tape
        if tape is None:
            tape = LinearTape(self.tracer)
            registry: dict = {}
            self._recipes = tuple(
                _compile_recipe(template, tape, registry)
                for template in (
                    self.graph,
                    self.kernels,
                    self.timings,
                    self.allocations,
                )
            )
            self._timing_plan = [
                (
                    tape.slot(timing.duration_s)
                    if isinstance(timing.duration_s, SymValue)
                    else None,
                    timing.duration_s,
                )
                for timing in self.timings
            ]
            self._host_syncs = [timing.kernel.host_sync for timing in self.timings]
            self._tape = tape
        return tape

    def _slots(self, value: int) -> list:
        """Every traced expression evaluated at ``value`` (cached)."""
        slots = self._slots_cache.get(value)
        if slots is None:
            slots = self._ensure_compiled().run(value)
            if len(self._slots_cache) >= 64:
                self._slots_cache.pop(next(iter(self._slots_cache)))
            self._slots_cache[value] = slots
        return slots

    def guards_hold(self, batch: int) -> bool:
        """Is ``batch`` inside this variant's guard region?  An arithmetic
        error while replaying the trace (e.g. a division that was safe in
        the traced region) counts as outside."""
        value = int(batch)
        try:
            slots = self._slots(value)
        except ArithmeticError:
            return False
        return self._tape.guards_hold(slots)

    # -- specialization (the bit-identity path) -------------------------

    def specialize(self, batch: int) -> CompiledPlan:
        """The concrete :class:`CompiledPlan` at ``batch`` — bit-identical
        to ``compile_graph(spec.build(batch), framework, gpu)``.

        Raises:
            GuardViolation: ``batch`` lies outside this variant's guard
                region (the caller should re-trace with ``hint=batch``).
        """
        value = int(batch)
        if not self.guards_hold(value):
            raise GuardViolation(self._violation_message(value))
        slots = self._slots(value)
        memo: dict = {}
        graph_r, kernels_r, timings_r, allocations_r = self._recipes
        graph = self.graph if graph_r is None else graph_r(slots, memo)
        kernels = self.kernels if kernels_r is None else kernels_r(slots, memo)
        timings = self.timings if timings_r is None else timings_r(slots, memo)
        allocations = (
            self.allocations
            if allocations_r is None
            else allocations_r(slots, memo)
        )
        durations = [timing.duration_s for timing in timings]
        host_syncs = [kernel.host_sync for kernel in kernels]
        execution = ExecutionReplay(
            kernels,
            durations,
            host_syncs,
            self.framework,
            makespan_s=replay(durations, host_syncs, self.framework),
        )
        return CompiledPlan(
            graph=graph,
            framework=self.framework,
            gpu=self.gpu,
            kernels=kernels,
            timings=timings,
            execution=execution,
            allocations=allocations,
            backward_spans=self.backward_spans,
        )

    def _violation_message(self, value: int) -> str:
        try:
            guard = self.tracer.first_failing_guard(value)
            detail = (
                "arithmetic outside the traced domain"
                if guard is None
                else guard.describe()
            )
        except ArithmeticError:
            detail = "arithmetic outside the traced domain"
        return (
            f"batch {value} violates trace guard {detail} "
            f"(traced at hint {self.hint})"
        )

    # -- analytic views (evaluation, never recompilation) ---------------

    def _eval(self, quantity, slots: list):
        if isinstance(quantity, SymValue):
            return slots[self._tape.slot(quantity)]
        return quantity

    def allocation_bytes(self, batch: int) -> list:
        """The concrete ``(num_bytes, tag, label)`` trace at ``batch``."""
        slots = self._slots(int(batch))
        return [
            (self._eval(record.num_bytes, slots), record.tag, record.label)
            for record in self.allocations
        ]

    def check_memory(self, batch: int, capacity_bytes: float):
        """Replay the evaluated allocation trace through a real
        :class:`GPUMemoryAllocator` — same prefix sums, same pool
        overhead, same error message as the specialized plan would give."""
        allocator = GPUMemoryAllocator(
            capacity_bytes, pool_overhead=self.framework.pool_overhead
        )
        for num_bytes, tag, label in self.allocation_bytes(batch):
            allocator.allocate(num_bytes, tag, label)
        return allocator.snapshot()

    def fits(self, batch: int, capacity_bytes: float) -> bool:
        try:
            self.check_memory(batch, capacity_bytes)
        except OutOfMemoryError:
            return False
        return True

    def charged_memory_polynomial(self) -> Polynomial:
        """Total allocator-charged bytes as an exact polynomial of batch
        (allocation bytes times the framework's pool overhead).  With no
        frees in a plan trace the final total is the peak, so the OOM
        boundary is the largest integer root region of
        ``poly(b) <= capacity``.  Raises :class:`NotPolynomial` when any
        record's size is not polynomial in batch."""
        total = Polynomial.constant(0)
        for record in self.allocations:
            total = total + as_polynomial(record.num_bytes)
        return total * Polynomial.constant(self.framework.pool_overhead)

    def flops_polynomial(self) -> Polynomial:
        """Iteration FLOPs as an exact polynomial of batch."""
        total = Polynomial.constant(0)
        for kernel in self.kernels:
            total = total + as_polynomial(kernel.flops)
        return total

    def bytes_polynomial(self) -> Polynomial:
        """Iteration DRAM traffic as an exact polynomial of batch."""
        total = Polynomial.constant(0)
        for kernel in self.kernels:
            total = total + as_polynomial(kernel.bytes_accessed)
        return total

    def lean_makespan(self, batch: int) -> float:
        """Device makespan at ``batch``: :func:`replay` over evaluated
        durations — no event timeline, no plan object."""
        slots = self._slots(int(batch))
        durations = [
            const if slot is None else slots[slot] for slot, const in self._timing_plan
        ]
        return replay(durations, self._host_syncs, self.framework)

    def effective_samples(self, batch: int) -> float:
        value = int(batch)
        samples = self.graph.samples_per_iteration
        if samples is not None:
            return self._eval(samples, self._slots(value))
        return float(value)

    def device_throughput(self, batch: int) -> float:
        """Samples per device-second — the saturation-analysis proxy
        (host-side pipeline costs are batch-smooth and excluded)."""
        return self.effective_samples(batch) / self.lean_makespan(batch)

    # -- presentation ----------------------------------------------------

    def describe(self) -> str:
        lines = [
            f"symbolic plan: {self.spec.key} / {self.framework.name} on "
            f"{self.gpu.name} (traced at hint batch={self.hint})",
            f"  kernels        {len(self.kernels)}",
            f"  allocations    {len(self.allocations)}",
            f"  guards         {len(self.guards)}",
        ]
        for name, fn in (
            ("flops(b)", self.flops_polynomial),
            ("bytes(b)", self.bytes_polynomial),
            ("memory(b)", self.charged_memory_polynomial),
        ):
            try:
                poly = fn()
            except NotPolynomial as exc:
                lines.append(f"  {name:12s} not polynomial ({exc})")
            else:
                lines.append(f"  {name:12s} {poly!r}")
        return "\n".join(lines)


class SymbolicPlanSet:
    """Guard-region registry for one (model, framework, GPU): the unit the
    session/engine integration holds.  One symbolic compile per region,
    cheap specializations for every batch inside it."""

    def __init__(self, spec, framework, gpu, roofline=None):
        self.spec = spec
        self.framework = framework
        self.gpu = gpu
        self.roofline = roofline if roofline is not None else RooflineModel(gpu)
        self.variants: list = []
        self.compile_count = 0
        self.specialize_count = 0
        self.guard_misses = 0

    def variant_for(self, batch: int) -> SymbolicPlan:
        """The variant whose guard region contains ``batch``, tracing a
        new one (dynamo-style) when every existing region excludes it."""
        value = int(batch)
        for variant in self.variants:
            if variant.guards_hold(value):
                return variant
        metrics = get_metrics()
        if self.variants:
            self.guard_misses += 1
            if metrics.enabled:
                metrics.counter(
                    "plan_symbolic_guard_misses_total", {"model": self.spec.key}
                ).inc()
        variant = compile_symbolic(
            self.spec, self.framework, self.gpu, roofline=self.roofline, hint=value
        )
        self.compile_count += 1
        self.variants.append(variant)
        return variant

    def specialize(self, batch: int) -> CompiledPlan:
        """The concrete plan at ``batch`` (one traced compile per guard
        region, then pure expression evaluation)."""
        value = int(batch)
        with trace_span(
            "plan.symbolic.specialize",
            model=self.spec.key,
            framework=self.framework.key,
            batch_size=value,
        ) as span:
            variant = self.variant_for(value)
            plan = variant.specialize(value)
            span.set_attributes(hint=variant.hint, variants=len(self.variants))
        self.specialize_count += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "plan_symbolic_specializations_total", {"model": self.spec.key}
            ).inc()
        return plan

    # -- analytic queries ------------------------------------------------

    def fits(self, batch: int, capacity_bytes: float) -> bool:
        return self.variant_for(batch).fits(batch, capacity_bytes)

    def max_batch_size(self, candidates, capacity_bytes: float) -> int:
        """Largest candidate that fits, stopping at the first that does
        not — the searched loop's exact semantics, zero plan compiles."""
        best = 0
        for batch in sorted(candidates):
            if not self.fits(int(batch), capacity_bytes):
                break
            best = batch
        return best

    def oom_boundary(self, capacity_bytes: float, limit: int = 1 << 22) -> int:
        """The exact OOM boundary: the largest batch in ``[1, limit]``
        whose allocation trace fits ``capacity_bytes``.

        The peak-memory polynomial seeds the bracket (root-finding on
        exact rational coefficients); the allocator replay then confirms
        the boundary, because the ground truth accumulates in floating
        point with the framework's pool overhead and the analytic answer
        must match the searched answer bit-for-bit.  Memory footprints
        are nondecreasing in batch (a registered conformance invariant),
        which is what makes the bracket/bisect exact."""
        if not self.fits(1, capacity_bytes):
            return 0
        lo = 1  # known fitting
        hi = None  # known not fitting
        seed = self._polynomial_boundary_seed(capacity_bytes, limit)
        if seed is not None:
            for probe in (seed, seed + 1):
                probe = max(1, min(probe, limit))
                if self.fits(probe, capacity_bytes):
                    lo = max(lo, probe)
                else:
                    hi = probe if hi is None else min(hi, probe)
        while hi is None:
            probe = min(lo * 2, limit)
            if self.fits(probe, capacity_bytes):
                lo = probe
                if probe == limit:
                    return limit
            else:
                hi = probe
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.fits(mid, capacity_bytes):
                lo = mid
            else:
                hi = mid
        return lo

    def _polynomial_boundary_seed(self, capacity_bytes: float, limit: int):
        """Largest integer where the charged-memory polynomial stays under
        capacity — exact rational bisection, no allocator calls.  None when
        the trace is not polynomial or not provably monotone."""
        try:
            poly = self.variant_for(1).charged_memory_polynomial()
        except (NotPolynomial, TraceEscape):
            return None
        if poly.degree < 1 or not poly.has_nonnegative_coefficients:
            return None
        if poly.evaluate(1) > capacity_bytes:
            return 1
        lo, hi = 1, None
        probe = 2
        while hi is None and probe <= limit:
            if poly.evaluate(probe) <= capacity_bytes:
                lo = probe
                probe *= 2
            else:
                hi = probe
        if hi is None:
            return limit
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if poly.evaluate(mid) <= capacity_bytes:
                lo = mid
            else:
                hi = mid
        return lo

    def saturation_batch(
        self, theta: float = 0.95, limit: int | None = None
    ) -> int:
        """Smallest batch whose device throughput reaches ``theta`` of the
        throughput at the largest feasible batch (the paper's
        diminishing-returns knee), found by bisection over the traced
        timing expressions — no recompiles, no plan objects."""
        if not 0.0 < theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        if limit is None:
            limit = self.oom_boundary(self.gpu.memory_bytes)
        if limit < 1:
            return 0
        target = theta * self.variant_for(limit).device_throughput(limit)
        lo, hi = 1, limit
        while lo < hi:
            mid = (lo + hi) // 2
            if self.variant_for(mid).device_throughput(mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def describe(self) -> str:
        lines = [
            f"symbolic plan set: {self.spec.key} / {self.framework.name} on "
            f"{self.gpu.name}",
            f"  variants       {len(self.variants)} "
            f"(hints: {[v.hint for v in self.variants]})",
            f"  compiles       {self.compile_count}",
            f"  specializations {self.specialize_count}",
            f"  guard misses   {self.guard_misses}",
        ]
        for variant in self.variants:
            lines.append("")
            lines.append(variant.describe())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# process-wide shared sets (trace once per process, not once per session)
# ----------------------------------------------------------------------

_SHARED_SETS: dict = {}
_SHARED_SETS_CAP = 32


def _shared_key(spec, framework, gpu, roofline, constants) -> tuple:
    """Everything a traced expression can bake in.

    Specs are registry singletons, so ``(key, id)`` identifies one (the
    cache holds a strong reference via the set, pinning the id).  The
    framework is keyed by ``repr`` — it is a frozen dataclass whose dict
    field defeats hashing, and sensitivity sweeps build value-variants
    with ``dataclasses.replace``.  The roofline contributes its instance
    state *and* the current class methods, so a monkeypatched timing
    model (the conformance mutants, the ramp-exponent sweep) misses the
    cache instead of replaying a stale trace.  ``_TILE_HALF_DIM`` is the
    one module-level calibration constant experiments mutate in place.
    """
    from repro.kernels import gemm as _gemm

    return (
        spec.key,
        id(spec),
        repr(framework),
        gpu,
        type(roofline),
        roofline.device,
        roofline._ramp_s,
        RooflineModel.time_kernel,
        RooflineModel.__init__,
        _gemm._TILE_HALF_DIM,
        tuple(constants),
    )


def shared_plan_set(
    spec, framework, gpu, roofline=None, constants=()
) -> SymbolicPlanSet:
    """The process-wide :class:`SymbolicPlanSet` for this configuration.

    Sessions come and go per test / per CLI invocation, but the trace
    only depends on the configuration — so the expensive symbolic
    compile is shared across every session in the process.  Anything
    that could invalidate a trace participates in the key (see
    :func:`_shared_key`); ``shared_plan_sets_clear`` drops the cache
    when a test wants a provably cold trace.
    """
    roofline = roofline if roofline is not None else RooflineModel(gpu)
    key = _shared_key(spec, framework, gpu, roofline, constants)
    sset = _SHARED_SETS.get(key)
    metrics = get_metrics()
    if sset is None:
        if len(_SHARED_SETS) >= _SHARED_SETS_CAP:
            _SHARED_SETS.pop(next(iter(_SHARED_SETS)))
        sset = SymbolicPlanSet(spec, framework, gpu, roofline=roofline)
        _SHARED_SETS[key] = sset
        if metrics.enabled:
            metrics.counter(
                "plan_symbolic_shared_misses_total", {"model": spec.key}
            ).inc()
    elif metrics.enabled:
        metrics.counter(
            "plan_symbolic_shared_hits_total", {"model": spec.key}
        ).inc()
    return sset


def shared_plan_sets_clear() -> None:
    """Drop every cached shared set (tests that need a cold trace)."""
    _SHARED_SETS.clear()


# ----------------------------------------------------------------------
# bit-identity fingerprints (the differential harness's comparator)
# ----------------------------------------------------------------------


def _exact(value):
    """A float-exact, type-distinguishing token (repr keeps every bit and
    ``int`` vs ``float`` distinct, which ``==`` would conflate)."""
    return f"{type(value).__name__}:{value!r}"


def plan_fingerprint(plan: CompiledPlan) -> dict:
    """Every observable quantity of a plan, rendered exactly.  Two plans
    with equal fingerprints are interchangeable for every consumer in the
    repo (sessions, transforms, exporters, the memory checker)."""
    graph = plan.graph
    timeline = plan.timeline
    return {
        "graph": {
            "model_name": graph.model_name,
            "batch_size": _exact(graph.batch_size),
            "input_bytes": _exact(graph.input_bytes),
            "samples_per_iteration": (
                None
                if graph.samples_per_iteration is None
                else _exact(graph.samples_per_iteration)
            ),
            "feature_map_overallocation": _exact(graph.feature_map_overallocation),
            "layers": [
                {
                    "name": layer.name,
                    "kind": layer.kind,
                    "weight_elements": _exact(layer.weight_elements),
                    "output_elements": _exact(layer.output_elements),
                    "workspace_bytes": _exact(layer.workspace_bytes),
                    "inplace": layer.inplace,
                    "forward_kernels": len(layer.forward_kernels),
                    "backward_kernels": len(layer.backward_kernels),
                }
                for layer in graph.layers
            ],
        },
        "kernels": [
            {
                "name": kernel.name,
                "category": kernel.category.value,
                "flops": _exact(kernel.flops),
                "bytes_accessed": _exact(kernel.bytes_accessed),
                "max_compute_efficiency": _exact(kernel.max_compute_efficiency),
                "max_memory_efficiency": _exact(kernel.max_memory_efficiency),
                "host_sync": kernel.host_sync,
            }
            for kernel in plan.kernels
        ],
        "timings": [
            {
                "duration_s": _exact(timing.duration_s),
                "compute_time_s": _exact(timing.compute_time_s),
                "memory_time_s": _exact(timing.memory_time_s),
                "launch_latency_s": _exact(timing.launch_latency_s),
            }
            for timing in plan.timings
        ],
        "execution": {
            "makespan_s": _exact(plan.makespan_s),
            "gpu_busy_s": _exact(plan.gpu_busy_s),
            "dispatch_cpu_s": _exact(plan.dispatch_cpu_s),
            "events": [
                (
                    event.name,
                    _exact(event.issued_s),
                    _exact(event.start_s),
                    _exact(event.end_s),
                )
                for event in timeline.events
            ],
            "gaps": [
                (gap.cause, _exact(gap.start_s), _exact(gap.end_s))
                for gap in timeline.gaps
            ],
        },
        "allocations": [
            (record.tag.value, record.label, _exact(record.num_bytes))
            for record in plan.allocations
        ],
        "backward_spans": list(plan.backward_spans),
        "total_flops": _exact(plan.total_flops),
    }


def plan_difference(a: CompiledPlan, b: CompiledPlan) -> str | None:
    """First point of disagreement between two plans' fingerprints, as a
    dotted path — None when bit-identical.  The conformance invariant and
    the differential harness both report through this."""
    return _first_difference(plan_fingerprint(a), plan_fingerprint(b), "plan")


def _first_difference(a, b, path):
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in a:
            if key not in b:
                return f"{path}.{key}: missing on right"
            found = _first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        extra = [key for key in b if key not in a]
        if extra:
            return f"{path}.{extra[0]}: missing on left"
        return None
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for index, (left, right) in enumerate(zip(a, b)):
            found = _first_difference(left, right, f"{path}[{index}]")
            if found:
                return found
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None
