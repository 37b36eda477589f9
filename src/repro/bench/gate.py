"""The CI gate.

Every suite declares the verdict each of its cases must come back with,
and the gate fails on any case that does not.  The verdicts are the
runner's conservative ones: ``regression`` and ``improvement`` need a
one-sided Welch p-value below alpha *and* a median effect above the
``min_effect`` noise floor, so noise alone reads ``indistinguishable``.
That one rule covers all three suites: the ``noop`` false-positive
control (must stay ``indistinguishable``), the ``slowdown5`` power
control (must see its injected ``regression``) and the ``tune``
modeled-speedup gate (every tuned winner and ``fused_rnn`` must verify as
an ``improvement``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GateReport:
    """Outcome of gating one suite run."""

    suite: str
    passed: bool
    #: Case names that came back ``regression``.
    regressions: tuple
    #: ``(case name, expected, actual)`` for every case whose verdict is
    #: not the suite's expectation.
    mismatches: tuple
    cases: int

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "regressions": list(self.regressions),
            "mismatches": [list(entry) for entry in self.mismatches],
            "cases": self.cases,
        }

    def format_summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"gate {status}: {self.cases} case(s)"]
        if self.regressions:
            parts.append(f"regressions: {', '.join(self.regressions)}")
        if self.mismatches:
            parts.append(
                "mismatches: "
                + ", ".join(
                    f"{name} expected {expected} got {actual}"
                    for name, expected, actual in self.mismatches
                )
            )
        return "; ".join(parts)


def evaluate_gate(suite, results) -> GateReport:
    """Gate one run of ``suite`` (a :class:`~repro.bench.suites.BenchSuite`):
    it passes only if every case's verdict is the suite's ``expect``."""
    mismatches = tuple(
        (r.name, suite.expect, r.verdict) for r in results if r.verdict != suite.expect
    )
    return GateReport(
        suite=suite.name,
        passed=not mismatches,
        regressions=tuple(r.name for r in results if r.verdict == "regression"),
        mismatches=mismatches,
        cases=len(results),
    )
