"""Result serialization and ordered merging for the sweep engine.

Every result the engine produces — computed inline, computed in a worker
process, or loaded from the cache — passes through the same plain-dict
*payload* form defined here.  That single representation is what makes
the differential guarantees cheap to state: parallel, serial and cached
runs cannot diverge in serialization because there is exactly one
serializer, and Python's exact repr-roundtrip floats make the JSON form
lossless.
"""

from __future__ import annotations

import dataclasses

from repro.core.metrics import IterationMetrics
from repro.core.suite import SweepPoint
from repro.engine.keys import canonical_json

#: Payload-format version carried inside each cache entry's ``point``.
PAYLOAD_VERSION = 1


def point_to_payload(point: SweepPoint) -> dict:
    """``SweepPoint`` -> JSON-able dict (the cache/worker wire format)."""
    return {
        "version": PAYLOAD_VERSION,
        "batch_size": point.batch_size,
        "oom": bool(point.oom),
        "metrics": (
            None if point.metrics is None else dataclasses.asdict(point.metrics)
        ),
    }


def payload_to_point(payload: dict) -> SweepPoint:
    """Inverse of :func:`point_to_payload`.

    Raises:
        ValueError: if the payload is not a valid point (the cache treats
            that as corruption and recomputes).
    """
    try:
        if payload["version"] != PAYLOAD_VERSION:
            raise ValueError(f"unknown payload version {payload.get('version')!r}")
        metrics = payload["metrics"]
        return SweepPoint(
            batch_size=int(payload["batch_size"]),
            metrics=None if metrics is None else IterationMetrics(**metrics),
            oom=bool(payload["oom"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed sweep-point payload: {exc}") from exc


def merge_ordered(total: int, indexed_results) -> list:
    """Merge ``(index, result)`` pairs — from any number of workers, in
    any completion order — back into grid order.

    Raises:
        ValueError: on a missing or duplicated index (a worker-accounting
            bug; never silently drop or double a point).
    """
    slots: list = [None] * total
    filled = [False] * total
    for index, result in indexed_results:
        if not 0 <= index < total:
            raise ValueError(f"merge index {index} outside grid of {total}")
        if filled[index]:
            raise ValueError(f"duplicate result for grid index {index}")
        slots[index] = result
        filled[index] = True
    missing = [index for index, present in enumerate(filled) if not present]
    if missing:
        raise ValueError(f"grid indices never produced a result: {missing}")
    return slots


def grid_record(spec, point: SweepPoint) -> dict:
    """One exportable record: the grid coordinates plus the point payload.

    Each scenario dimension the spec uses appears as its canonical text;
    unused ones (``schedule="fixed"`` included) are left out.
    """
    payload = point_to_payload(point)
    return {
        "model": spec.model,
        "framework": spec.framework,
        "batch_size": point.batch_size,
        "oom": payload["oom"],
        "metrics": payload["metrics"],
        **spec.scenario.used,
    }


def write_grid_jsonl(path: str, specs, points) -> int:
    """Write one canonical-JSON line per grid point; returns line count.

    Byte-determinism is part of the contract: the differential harness
    asserts serial, parallel and warm-cache runs export identical files.
    """
    if len(specs) != len(points):
        raise ValueError(
            f"grid/result length mismatch: {len(specs)} specs, {len(points)} points"
        )
    with open(path, "w", encoding="utf-8") as handle:
        for spec, point in zip(specs, points):
            handle.write(canonical_json(grid_record(spec, point)))
            handle.write("\n")
    return len(points)
