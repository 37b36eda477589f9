"""The ``--faults`` spec mini-language.

A fault scenario is one compact, semicolon-separated string — the form a
CLI flag or a sweep-grid dimension can carry:

``cluster=2M1G:1gbe; steps=60; seed=3; straggler=0x1.5@10:40;``
``degrade=bw0.5+loss0.1@20:50; crash=1@30; timeout=2x0.5@15``

Fields (any order, whitespace ignored, keys repeatable where sensible):

- ``cluster=<m>M<g>G[:<fabric>]`` — the Fig. 10-style configuration the
  scenario runs on (default ``2M1G:infiniband``).
- ``steps=N`` — scheduled run length (default 50).
- ``seed=N`` — drives the plan's deterministic jitter (default 0).
- ``straggler=<worker>x<factor>@<start>[:<end>]`` — worker slowdown
  window (no end = forever).
- ``degrade=bw<f>[+loss<p>][+lat<seconds>]@<start>[:<end>]`` — link
  degradation window; ``loss1.0`` is a full outage.
- ``crash=<machines>@<step>`` — machine crash.
- ``timeout=<failures>x<seconds>@<step>`` — transient allreduce timeout.

:attr:`FaultScenario.canonical` re-renders a parsed scenario with its
fields in a fixed order and every default explicit; that text, not the
spelling it was parsed from, is what the result cache hashes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.faults.plan import (
    AllReduceTimeout,
    FaultPlan,
    LinkFault,
    StragglerFault,
    WorkerCrash,
)
from repro.hardware.cluster import ClusterSpec, parse_configuration
from repro.plan.pipeline import spec_number

#: Default scheduled run length when the spec does not say.
DEFAULT_STEPS = 50

_WINDOW_RE = re.compile(r"^(\d+)(?::(\d+)?)?$")
_STRAGGLER_RE = re.compile(r"^(\d+)x([0-9.]+)@(.+)$")
_DEGRADE_PART_RE = re.compile(r"^(bw|loss|lat)([0-9.e-]+)$")
_CRASH_RE = re.compile(r"^(\d+)@(\d+)$")
_TIMEOUT_RE = re.compile(r"^(\d+)x([0-9.]+)@(\d+)$")


class FaultSpecError(ValueError):
    """A ``--faults`` string that does not parse."""


@dataclass(frozen=True)
class FaultScenario:
    """A parsed ``--faults`` spec: the cluster it runs on, the scheduled
    run length, and the plan itself."""

    cluster: ClusterSpec
    steps: int
    plan: FaultPlan

    @property
    def canonical(self) -> str:
        """The spec text with fields in a fixed order (cluster, steps,
        seed, then the events as given: link faults compose in that
        order), defaults explicit and windows in one spelling — the cache
        dimension.  ``parse_fault_spec(s.canonical) == s``."""
        cluster = f"{self.cluster.machine_count}M{self.cluster.machine.gpu_count}G"
        if self.cluster.is_distributed:
            cluster += f":{self.cluster.inter_link.name.lower()}"
        fields = [f"cluster={cluster}", f"steps={self.steps}", f"seed={self.plan.seed}"]
        fields.extend(_render_event(event) for event in self.plan.events)
        return "; ".join(fields)

    def describe(self) -> str:
        """Multi-line human rendering of the scenario."""
        return (
            f"scenario: {self.cluster.name}, {self.steps} step(s)\n"
            f"{self.plan.describe()}"
        )


def _render_window(event) -> str:
    end = "" if event.end_step is None else f":{event.end_step}"
    return f"{event.start_step}{end}"


def _render_event(event) -> str:
    if isinstance(event, StragglerFault):
        return (
            f"straggler={event.worker}x{spec_number(event.factor)}"
            f"@{_render_window(event)}"
        )
    if isinstance(event, LinkFault):
        return (
            f"degrade=bw{spec_number(event.bandwidth_factor)}"
            f"+loss{spec_number(event.packet_loss)}"
            f"+lat{spec_number(event.extra_latency_s)}@{_render_window(event)}"
        )
    if isinstance(event, WorkerCrash):
        return f"crash={event.machines}@{event.step}"
    return f"timeout={event.failures}x{spec_number(event.timeout_s)}@{event.step}"


def _parse_window(text: str, field: str) -> tuple:
    match = _WINDOW_RE.match(text)
    if not match:
        raise FaultSpecError(
            f"bad {field} window {text!r}; expected '<start>', '<start>:' "
            "or '<start>:<end>'"
        )
    start = int(match.group(1))
    end = int(match.group(2)) if match.group(2) is not None else None
    return start, end


def _parse_straggler(value: str) -> StragglerFault:
    match = _STRAGGLER_RE.match(value)
    if not match:
        raise FaultSpecError(
            f"bad straggler {value!r}; expected '<worker>x<factor>@<start>[:<end>]'"
        )
    start, end = _parse_window(match.group(3), "straggler")
    return StragglerFault(
        worker=int(match.group(1)),
        factor=float(match.group(2)),
        start_step=start,
        end_step=end,
    )


def _parse_degrade(value: str) -> LinkFault:
    if "@" not in value:
        raise FaultSpecError(
            f"bad degrade {value!r}; expected 'bw<f>[+loss<p>][+lat<s>]@<start>[:<end>]'"
        )
    parts_text, window_text = value.rsplit("@", 1)
    start, end = _parse_window(window_text, "degrade")
    bandwidth, loss, latency = 1.0, 0.0, 0.0
    for part in parts_text.split("+"):
        match = _DEGRADE_PART_RE.match(part)
        if not match:
            raise FaultSpecError(
                f"bad degrade component {part!r}; expected bw<f>, loss<p> or lat<s>"
            )
        amount = float(match.group(2))
        if match.group(1) == "bw":
            bandwidth = amount
        elif match.group(1) == "loss":
            loss = amount
        else:
            latency = amount
    return LinkFault(
        bandwidth_factor=bandwidth,
        packet_loss=loss,
        extra_latency_s=latency,
        start_step=start,
        end_step=end,
    )


def _parse_crash(value: str) -> WorkerCrash:
    match = _CRASH_RE.match(value)
    if not match:
        raise FaultSpecError(f"bad crash {value!r}; expected '<machines>@<step>'")
    return WorkerCrash(step=int(match.group(2)), machines=int(match.group(1)))


def _parse_timeout(value: str) -> AllReduceTimeout:
    match = _TIMEOUT_RE.match(value)
    if not match:
        raise FaultSpecError(
            f"bad timeout {value!r}; expected '<failures>x<seconds>@<step>'"
        )
    return AllReduceTimeout(
        step=int(match.group(3)),
        failures=int(match.group(1)),
        timeout_s=float(match.group(2)),
    )


def parse_fault_spec(text: str) -> FaultScenario:
    """Parse one ``--faults`` string into a :class:`FaultScenario`.

    Raises:
        FaultSpecError: on any malformed field (with the offending piece
            named, never a bare traceback from a downstream constructor).
    """
    cluster_label, fabric = "2M1G", "infiniband"
    steps, seed = DEFAULT_STEPS, 0
    events: list = []
    for raw_field in text.split(";"):
        field = raw_field.strip()
        if not field:
            continue
        if "=" not in field:
            raise FaultSpecError(f"bad fault field {field!r}; expected key=value")
        key, value = (piece.strip() for piece in field.split("=", 1))
        try:
            if key == "cluster":
                cluster_label, _, fabric_part = value.partition(":")
                fabric = fabric_part or "infiniband"
            elif key == "steps":
                steps = int(value)
            elif key == "seed":
                seed = int(value)
            elif key == "straggler":
                events.append(_parse_straggler(value))
            elif key == "degrade":
                events.append(_parse_degrade(value))
            elif key == "crash":
                events.append(_parse_crash(value))
            elif key == "timeout":
                events.append(_parse_timeout(value))
            else:
                raise FaultSpecError(f"unknown fault field {key!r}")
        except FaultSpecError:
            raise
        except (ValueError, KeyError) as exc:
            raise FaultSpecError(f"bad fault field {field!r}: {exc}") from exc
    if steps < 1:
        raise FaultSpecError(f"steps must be >= 1, got {steps}")
    try:
        cluster = parse_configuration(cluster_label, fabric=fabric)
    except (ValueError, KeyError) as exc:
        raise FaultSpecError(f"bad cluster {cluster_label!r}: {exc}") from exc
    return FaultScenario(
        cluster=cluster,
        steps=steps,
        plan=FaultPlan(events=tuple(events), seed=seed),
    )
