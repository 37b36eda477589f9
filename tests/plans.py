"""Bit-identity comparator for compiled plans, shared by the differential
tests: two plans with equal :func:`plan_fingerprint` are interchangeable
for every consumer in the repo, and :func:`plan_difference` names the
first point where they are not."""

from __future__ import annotations

from repro.plan.compiled import CompiledPlan


def exact(value):
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
            "batch_size": exact(graph.batch_size),
            "input_bytes": exact(graph.input_bytes),
            "samples_per_iteration": (
                None
                if graph.samples_per_iteration is None
                else exact(graph.samples_per_iteration)
            ),
            "feature_map_overallocation": exact(graph.feature_map_overallocation),
            "layers": [
                {
                    "name": layer.name,
                    "kind": layer.kind,
                    "weight_elements": exact(layer.weight_elements),
                    "output_elements": exact(layer.output_elements),
                    "workspace_bytes": exact(layer.workspace_bytes),
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
                "flops": exact(kernel.flops),
                "bytes_accessed": exact(kernel.bytes_accessed),
                "max_compute_efficiency": exact(kernel.max_compute_efficiency),
                "max_memory_efficiency": exact(kernel.max_memory_efficiency),
                "host_sync": kernel.host_sync,
            }
            for kernel in plan.kernels
        ],
        "timings": [
            {
                "duration_s": exact(timing.duration_s),
                "compute_time_s": exact(timing.compute_time_s),
                "memory_time_s": exact(timing.memory_time_s),
                "launch_latency_s": exact(timing.launch_latency_s),
            }
            for timing in plan.timings
        ],
        "execution": {
            "makespan_s": exact(plan.makespan_s),
            "gpu_busy_s": exact(plan.gpu_busy_s),
            "dispatch_cpu_s": exact(plan.dispatch_cpu_s),
            "events": [
                (
                    event.name,
                    exact(event.issued_s),
                    exact(event.start_s),
                    exact(event.end_s),
                )
                for event in timeline.events
            ],
            "gaps": [
                (gap.cause, exact(gap.start_s), exact(gap.end_s))
                for gap in timeline.gaps
            ],
        },
        "allocations": [
            (record.tag.value, record.label, exact(record.num_bytes))
            for record in plan.allocations
        ],
        "backward_spans": list(plan.backward_spans),
        "total_flops": exact(plan.total_flops),
    }


def plan_difference(a: CompiledPlan, b: CompiledPlan) -> str | None:
    """First point of disagreement between two plans' fingerprints, as a
    dotted path — None when bit-identical."""
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
