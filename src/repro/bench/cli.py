"""CLI surface of the bench harness: ``tbd bench run|compare|history|gate``.

Kept next to the harness (mirroring :mod:`repro.conformance.cli`) so flag
semantics and runner construction live in one place.

- ``run SUITE`` — run a suite, print the per-case table, and append one
  record to ``BENCH_<suite>.json`` under ``--dir``.
- ``compare MODEL TREATMENT`` — one ad-hoc A/B (no trajectory write).
- ``history SUITE`` — print the stored trajectory, newest last.
- ``gate SUITE`` — run + record + evaluate the regression gate; exit 1
  on a statistically significant slowdown (or, for control suites, on
  any verdict that contradicts the control's expectation).
"""

from __future__ import annotations

from repro.bench import schedule_suite, symbolic_sweep
from repro.bench.gate import evaluate_gate
from repro.bench.noise import NoiseModel
from repro.bench.runner import InterleavedRunner
from repro.bench.store import BenchStore, build_record
from repro.bench.subjects import subject_for
from repro.bench.suites import get_suite, run_suite, suite_catalog


def register_bench_command(subparsers) -> None:
    """Add ``tbd bench run|compare|history|gate`` to the subparser set."""
    # The suites ``run`` and ``gate`` accept: the catalog A/B suites plus
    # the derived and self-gating ones.
    suites = sorted(
        [suite.name for suite in suite_catalog()]
        + ["tune", symbolic_sweep.SUITE_NAME, schedule_suite.SUITE_NAME]
    )
    bench = subparsers.add_parser(
        "bench",
        help="statistical differential benchmarking: noise-modeled "
        "interleaved A/B runs, BENCH_*.json trajectory, regression gate",
    )
    sub = bench.add_subparsers(dest="bench_command", required=True)

    def add_run_arguments(parser, with_store: bool) -> None:
        parser.add_argument(
            "--seed", type=int, default=0, help="noise-model seed (default 0)"
        )
        parser.add_argument(
            "--samples",
            type=int,
            default=None,
            help="per-side sample count (default: adaptive from pilot variance)",
        )
        parser.add_argument(
            "--alpha",
            type=float,
            default=0.05,
            help="significance level for verdicts (default 0.05)",
        )
        parser.add_argument(
            "--min-effect",
            type=float,
            default=0.01,
            help="median-effect noise floor below which verdicts stay "
            "'indistinguishable' (default 0.01 = 1%%)",
        )
        if with_store:
            parser.add_argument(
                "--dir",
                default="benchmarks/trajectory",
                help="trajectory directory holding BENCH_<suite>.json "
                "(default benchmarks/trajectory)",
            )
            parser.add_argument(
                "--repeats",
                type=int,
                default=5,
                help="wall-clock repeats for the symbolic-sweep suite "
                "(default 5; ignored by the A/B suites)",
            )

    run = sub.add_parser(
        "run", help="run one suite and append its trajectory record"
    )
    run.add_argument(
        "suite", choices=suites, help="suite name (see 'tbd bench history --list')"
    )
    add_run_arguments(run, with_store=True)

    compare = sub.add_parser(
        "compare", help="one ad-hoc A/B: a treatment vs baseline on one point"
    )
    compare.add_argument("model")
    compare.add_argument(
        "treatment",
        help="'fused-rnn', 'fp16-storage', 'pipeline:<spec>', or "
        "'slowdown:<pct>'",
    )
    compare.add_argument("-f", "--framework", default="tensorflow")
    compare.add_argument("-b", "--batch", type=int, default=None)
    add_run_arguments(compare, with_store=False)

    history = sub.add_parser("history", help="print a suite's stored trajectory")
    history.add_argument("suite", nargs="?", help="suite name")
    history.add_argument(
        "--dir",
        default="benchmarks/trajectory",
        help="trajectory directory (default benchmarks/trajectory)",
    )
    history.add_argument(
        "--list", action="store_true", help="list known suites and stored files"
    )

    gate = sub.add_parser(
        "gate",
        help="run one suite, record it, and fail on significant regressions",
    )
    gate.add_argument("suite", choices=suites)
    add_run_arguments(gate, with_store=True)

    bench.set_defaults(func=cmd_bench)


def _run_symbolic_sweep(args) -> bool:
    """Run the compile-count/bit-identity sweep suite; returns the gate
    verdict (it measures the compiler itself, so it bypasses the noise-model
    A/B machinery)."""
    results, gate_doc, path = symbolic_sweep.run_and_record(
        args.dir, repeats=args.repeats
    )
    for result in results:
        print(result.format_row())
    print(f"trajectory: {path}")
    if not gate_doc["passed"]:
        print("guard failures: " + ", ".join(gate_doc["failures"]))
    return gate_doc["passed"]


def _run_schedule_suite(args) -> bool:
    """Run the adaptive-vs-fixed schedule suite; returns the gate verdict
    (fully simulated, hence deterministic: the comparison itself is
    gated, not just its preconditions)."""
    results, gate_doc, path = schedule_suite.run_and_record(args.dir)
    for result in results:
        print(result.format_row())
    print(f"trajectory: {path}")
    if not gate_doc["passed"]:
        print("guard failures: " + ", ".join(gate_doc["failures"]))
    return gate_doc["passed"]


def _run_and_record(args, record: bool):
    suite = get_suite(args.suite)
    noise = NoiseModel(seed=args.seed)
    results = run_suite(
        suite,
        noise=noise,
        samples=args.samples,
        alpha=args.alpha,
        min_effect=args.min_effect,
    )
    report = evaluate_gate(suite, results)
    for result in results:
        print(result.format_row())
    if record:
        store = BenchStore(args.dir)
        store.append(
            suite.name,
            build_record(
                suite.name, args.seed, noise.to_doc(), results, report.to_doc()
            ),
        )
        print(f"trajectory: {store.path(suite.name)}")
    return report


def _cmd_run(args) -> int:
    if args.suite == symbolic_sweep.SUITE_NAME:
        _run_symbolic_sweep(args)
        return 0
    if args.suite == schedule_suite.SUITE_NAME:
        _run_schedule_suite(args)
        return 0
    _run_and_record(args, record=True)
    return 0


def _cmd_gate(args) -> int:
    if args.suite == symbolic_sweep.SUITE_NAME:
        return 0 if _run_symbolic_sweep(args) else 1
    if args.suite == schedule_suite.SUITE_NAME:
        return 0 if _run_schedule_suite(args) else 1
    report = _run_and_record(args, record=True)
    print(report.format_summary())
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    noise = NoiseModel(seed=args.seed)
    runner = InterleavedRunner(
        noise=noise, alpha=args.alpha, min_effect=args.min_effect
    )
    baseline = subject_for("baseline", args.model, args.framework, args.batch)
    treatment = subject_for(args.treatment, args.model, args.framework, args.batch)
    result = runner.run(baseline, treatment, samples=args.samples)
    print(result.format_row())
    print(
        f"  medians: baseline {result.median_baseline_s * 1e3:.3f} ms, "
        f"treatment {result.median_treatment_s * 1e3:.3f} ms "
        f"({result.slowdown_fraction * 100.0:+.2f}%)"
    )
    return 0


def _cmd_history(args) -> int:
    store = BenchStore(args.dir)
    if args.list or not args.suite:
        print("suites:")
        for suite in suite_catalog():
            print(f"  {suite.name:<12} {suite.description}")
        print(
            f"  {symbolic_sweep.SUITE_NAME:<12} batch sweeps vs per-point "
            "recompiles: compile-count guard + bit-identity, wall-clock "
            "speedups recorded"
        )
        print(
            f"  {'tune':<12} autotuner winners (tbd tune) vs baseline on "
            "the RNN workloads; derived on demand, every winner must "
            "verify as an improvement"
        )
        print(
            f"  {schedule_suite.SUITE_NAME:<12} adaptive batch schedule "
            "vs fixed b32 on P4000 and Titan Xp, with and without a "
            "fault plan; conservation + fixed-equivalence guards"
        )
        stored = store.suites()
        print(f"stored trajectories under {store.root}: " + (", ".join(stored) or "none"))
        return 0
    records = store.records(args.suite)
    if not records:
        print(f"no trajectory for suite {args.suite!r} under {store.root}")
        return 0
    for record in records:
        gate = record["gate"]
        status = "PASS" if gate["passed"] else "FAIL"
        seed = f"seed={record['seed']} " if "seed" in record else ""
        print(
            f"record {record['key'][:12]} {seed}"
            f"code={record['environment']['code'][:12]} gate={status}"
        )
        for result in record["results"]:
            if "adaptive_s" in result:
                print(
                    f"  {result['name']:<40} "
                    f"fixed {result['fixed_s']:.0f}s adaptive "
                    f"{result['adaptive_s']:.0f}s x{result['speedup']:.3f} "
                    f"beats={result['adaptive_beats_fixed']} "
                    f"conserved={result['conservation_ok']} "
                    f"fixed-eq={result['fixed_equals_elastic']}"
                )
                continue
            if "speedup_ci" not in result:
                measured = record.get("measured", {}).get(result["name"], {})
                print(
                    f"  {result['name']:<40} "
                    f"compiles={result['symbolic_compiles']} "
                    f"warm={result['warm_symbolic_compiles']} "
                    f"cold x{measured.get('cold_speedup', 0.0):.2f} "
                    f"warm x{measured.get('warm_speedup', 0.0):.2f} "
                    f"identical={result['identical']}"
                )
                continue
            low, high = result["speedup_ci"]
            print(
                f"  {result['name']:<40} x{result['speedup']:.3f} "
                f"[{low:.3f}, {high:.3f}] p(slower)={result['p_regression']:.4f} "
                f"{result['verdict']}"
            )
    return 0


def cmd_bench(args) -> int:
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "history": _cmd_history,
        "gate": _cmd_gate,
    }
    return handlers[args.bench_command](args)
