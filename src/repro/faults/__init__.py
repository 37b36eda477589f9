"""Deterministic fault injection and elastic recovery for the simulated
cluster.

The layer splits into four pieces:

- :mod:`repro.faults.plan` — the fault-plan IR: seed-driven straggler,
  link-degradation, crash, and allreduce-timeout events on a
  step-indexed timeline.
- :mod:`repro.faults.recovery` — what the cluster does about them:
  exponential backoff, checkpoint/restart with elastic shrink, and
  straggler-aware bucket rebalancing.
- :mod:`repro.faults.trainer` — the run simulator that threads a
  data-parallel run through a plan, emitting spans and counters.
- :mod:`repro.faults.spec` — the compact ``--faults`` string the CLI and
  the sweep engine's cacheable grid dimension share.
"""

from repro.faults.plan import (
    AllReduceTimeout,
    CLEAN_STEP,
    FaultPlan,
    LinkFault,
    StepConditions,
    StragglerFault,
    WorkerCrash,
)
from repro.faults.recovery import (
    RebalanceDecision,
    UnrecoverableFaultError,
    plan_rebalance,
)
from repro.faults.spec import (
    DEFAULT_STEPS,
    FaultScenario,
    FaultSpecError,
    parse_fault_spec,
)
from repro.faults.trainer import (
    FaultTolerantTrainer,
    FaultTrainingResult,
    RunEvent,
)

__all__ = [
    "AllReduceTimeout",
    "CLEAN_STEP",
    "DEFAULT_STEPS",
    "FaultPlan",
    "FaultScenario",
    "FaultSpecError",
    "FaultTolerantTrainer",
    "FaultTrainingResult",
    "LinkFault",
    "RebalanceDecision",
    "RunEvent",
    "StepConditions",
    "StragglerFault",
    "UnrecoverableFaultError",
    "WorkerCrash",
    "parse_fault_spec",
    "plan_rebalance",
]
