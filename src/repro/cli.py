"""``tbd`` — command-line interface to the suite and toolchain.

Subcommands:

- ``tbd run MODEL [-f FW] [-b BATCH] [-g GPU]`` — one configuration, all
  headline metrics.
- ``tbd sweep MODEL [-f FW] [--jobs N] [--cache-dir DIR] [--no-cache]
  [--faults SPEC] [--transforms SPEC] [--schedule SPEC]`` — the model's
  mini-batch sweep, fanned out across worker processes and memoized in
  the content-addressed result cache; ``--faults`` runs every point
  under a fault scenario, ``--transforms`` under an optimization
  pipeline, and ``--schedule`` under an adaptive batch schedule (each
  its own cache dimension; transforms and a schedule compose, faults
  combine with neither, and a bad spec exits 2).
- ``tbd schedule show|compare`` — adaptive batch schedules: print a
  spec's canonical form and segment tiling, or race it against the
  fixed baseline on a cluster (optionally under a fault scenario).
- ``tbd tune MODEL [-f FW] [-b BATCH] [-g GPU]`` — the cost-model-guided
  autotuner: enumerate transform pipelines under the analytic OOM
  boundary, rank by modeled makespan, confirm the winner with the
  interleaved A/B runner, and persist it in the result cache.
- ``tbd faults run|show|demo`` — fault-injection scenarios: run one
  model through a scenario, describe a parsed spec, or the elastic
  recovery demo (crash mid-training, finish anyway).
- ``tbd cache stats|clear`` — inspect or empty the sweep result cache.
- ``tbd conformance run|list|shrink`` — the conformance harness: check
  the paper's physical invariants over the grid plus seeded fuzz cases,
  list the registries, or shrink one failing spec to a minimal
  counterexample.
- ``tbd compare MODEL FRAMEWORK SIDE -b BATCH [--seed N] [--samples N]
  [--alpha A] [--min-effect E]`` — one interleaved A/B under the seeded
  noise model: ``FRAMEWORK`` vs ``SIDE`` when ``SIDE`` names a framework,
  otherwise ``SIDE`` is a treatment (``fused-rnn``, ``fused_rnn+fp16``,
  ``slowdown:5``) measured against ``FRAMEWORK``'s baseline.  Bad input
  exits 2.
- ``tbd analyze MODEL [-f FW] [-b BATCH]`` — the full Fig. 3 pipeline
  report, plus the optimization advisor's recommendations.
- ``tbd exhibit NAME [...]`` — regenerate tables/figures (``all`` = paper
  order).
- ``tbd observations`` — verify the 13 observations.
- ``tbd memory MODEL [-f FW] [-b BATCH]`` — the five-way breakdown.
- ``tbd distributed [-b BATCH]`` — the Fig. 10 configurations.
- ``tbd trace MODEL [-f FW] [-b BATCH]`` — run the pipeline under
  telemetry: span tree to stdout, JSONL events + Chrome trace + metrics
  archived under the runs directory.
- ``tbd runs list|show|diff`` — query the archived-run provenance store.
- ``tbd plan show MODEL [-f FW] [-b BATCH] [-g GPU]`` — dump one
  configuration's compiled execution plan (kernel stream, timeline,
  allocation trace) from :mod:`repro.plan`.
- ``tbd models`` / ``tbd frameworks`` / ``tbd datasets`` — the catalogs.
"""

from __future__ import annotations

import argparse
import sys

from repro.conformance.cli import register_conformance_command
from repro.core.analysis import AnalysisPipeline
from repro.core.observations import verify_all
from repro.core.recommendations import advise
from repro.core.suite import standard_suite, TBDSuite
from repro.data.registry import dataset_catalog
from repro.engine.cli import (
    add_engine_arguments,
    add_faults_argument,
    add_schedule_argument,
    add_transforms_argument,
    register_cache_command,
)
from repro.schedule.cli import register_schedule_command
from repro.tune.cli import register_tune_command
from repro.frameworks.registry import framework_catalog, get_framework
from repro.hardware.devices import get_gpu
from repro.models.registry import extension_catalog, get_model, model_catalog


def _suite(args) -> TBDSuite:
    gpu = get_gpu(args.gpu) if getattr(args, "gpu", None) else None
    return TBDSuite(gpu=gpu) if gpu else standard_suite()


def _cmd_run(args) -> int:
    suite = _suite(args)
    metrics = suite.run(args.model, args.framework, args.batch)
    print(metrics.format_row())
    return 0


def _cmd_sweep(args) -> int:
    from repro.engine.cli import engine_from_args, format_engine_summary
    from repro.engine.scenario import ScenarioError, parse_scenario
    from repro.faults.spec import FaultSpecError
    from repro.plan.pipeline import TransformSpecError
    from repro.schedule.spec import ScheduleSpecError

    try:
        parse_scenario(args.faults, args.transforms, args.schedule).validate(
            get_model(args.model).key
        )
    except (FaultSpecError, TransformSpecError, ScheduleSpecError, ScenarioError) as exc:
        print(f"tbd sweep: error: {exc}", file=sys.stderr)
        return 2
    engine = engine_from_args(args)
    points = engine.sweep(
        args.model,
        args.framework,
        faults=args.faults,
        transforms=args.transforms,
        schedule=args.schedule,
    )
    for point in points:
        if point.oom:
            print(f"b={point.batch_size:<6d} OOM")
        else:
            print(point.metrics.format_row())
    print(format_engine_summary(engine))
    return 0


def _cmd_analyze(args) -> int:
    gpu = get_gpu(args.gpu) if args.gpu else None
    kwargs = {"gpu": gpu} if gpu else {}
    report = AnalysisPipeline(args.model, args.framework, **kwargs).run(args.batch)
    print(report.summary())
    recommendations = advise(report)
    if recommendations:
        print("\nrecommendations:")
        for recommendation in recommendations:
            print(f"  {recommendation}")
    else:
        print("\nno optimization recommendations triggered")
    return 0


def _render_exhibit(names) -> int:
    from repro.experiments import ALL_EXPERIMENTS, table5_6

    order = (
        "table1", "fig1_fig3", "table2_3", "fig2", "table4", "fig4", "fig5",
        "fig6", "table5_6", "fig7", "fig8", "fig9", "fig10",
    )
    wanted = list(order) if names == ["all"] else names
    unknown = [name for name in wanted if name not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown exhibit(s): {unknown}; known: {sorted(ALL_EXPERIMENTS)}")
        return 2
    for name in wanted:
        module = ALL_EXPERIMENTS[name]
        print("=" * 72)
        print(name)
        print("=" * 72)
        print(module.render_both() if module is table5_6 else module.render())
        print()
    return 0


def _cmd_observations(_args) -> int:
    results = verify_all()
    failures = 0
    for result in results:
        mark = "PASS" if result.holds else "FAIL"
        failures += 0 if result.holds else 1
        print(f"[{mark}] Obs {result.number:2d}: {result.title}")
        print(f"       {result.evidence}")
    return 1 if failures else 0


def _cmd_memory(args) -> int:
    from repro.profiling.memory_profiler import MemoryProfiler

    gpu = get_gpu(args.gpu) if args.gpu else None
    profile = MemoryProfiler(gpu=gpu).profile(
        args.model, args.framework, args.batch or _suite(args).model(args.model).reference_batch
    )
    print(profile.format_row())
    return 0


def _cmd_distributed(args) -> int:
    from repro.distributed import DataParallelTrainer
    from repro.distributed.topology import standard_configurations

    batch = args.batch or 32
    for label, cluster in standard_configurations().items():
        trainer = DataParallelTrainer(args.model, args.framework, cluster)
        profile = trainer.run_iteration(batch)
        print(
            f"{label:22s} {profile.throughput:9.1f} samples/s  "
            f"(eff {profile.scaling_efficiency * 100:5.1f}%, "
            f"comm {profile.communication_fraction * 100:4.1f}%)"
        )
    return 0


def _cmd_models(_args) -> int:
    for spec in model_catalog().values():
        frameworks = ",".join(spec.frameworks)
        print(
            f"{spec.key:16s} {spec.application:28s} layers={spec.paper_layer_count:<4d} "
            f"[{frameworks}]"
        )
    print("-- extensions --")
    for spec in extension_catalog().values():
        print(f"{spec.key:16s} {spec.application:28s} {spec.notes[:50]}")
    return 0


def _cmd_frameworks(_args) -> int:
    for framework in framework_catalog().values():
        print(
            f"{framework.name:12s} v{framework.version:8s} "
            f"dispatch={framework.dispatch_cost_s * 1e6:.0f}us "
            f"pool={framework.pool_overhead:.2f} "
            f"momentum={framework.momentum_allocation.value}"
        )
    return 0


def _cmd_inspect(args) -> int:
    from repro.models.inspect import render_summary

    print(render_summary(args.model, args.batch))
    return 0


def _cmd_report(args) -> int:
    from repro.core.html_report import write_report

    write_report(args.output, observations=not args.no_observations)
    print(f"wrote {args.output}")
    return 0


def _names_framework(name: str) -> bool:
    try:
        get_framework(name)
    except KeyError:
        return False
    return True


def _compare_lines(args, runner) -> list:
    """Run ``tbd compare``'s one A/B and return the lines it prints."""
    from repro.bench.subjects import subject_for
    from repro.plan.pipeline import TransformSpecError
    from repro.profiling.comparison import ab_compare

    if _names_framework(args.side):
        report = ab_compare(
            args.model,
            args.framework,
            args.side,
            args.batch,
            samples=args.samples,
            runner=runner,
        )
        return [
            report.result.format_row(),
            f"  throughput: {report.label_a} {report.throughput_a:.1f} vs "
            f"{report.label_b} {report.throughput_b:.1f} samples/s",
            report.verdict,
        ]
    baseline = subject_for("baseline", args.model, args.framework, args.batch)
    try:
        treatment = subject_for(args.side, args.model, args.framework, args.batch)
    except TransformSpecError as exc:
        raise TransformSpecError(
            f"{args.side!r} names no framework and no treatment: {exc}"
        ) from None
    result = runner.run(baseline, treatment, samples=args.samples)
    return [
        result.format_row(),
        f"  medians: baseline {result.median_baseline_s * 1e3:.3f} ms, "
        f"treatment {result.median_treatment_s * 1e3:.3f} ms "
        f"({result.slowdown_fraction * 100.0:+.2f}%)",
    ]


def _cmd_compare(args) -> int:
    from repro.bench.noise import NoiseModel
    from repro.bench.runner import InterleavedRunner
    from repro.hardware.memory import OutOfMemoryError

    # Every error below comes from the command line: an unknown model,
    # framework or treatment, a pairing the paper lacks, a batch that is
    # not positive or does not fit, or runner settings out of range.
    try:
        runner = InterleavedRunner(
            noise=NoiseModel(seed=args.seed),
            alpha=args.alpha,
            min_effect=args.min_effect,
        )
        lines = _compare_lines(args, runner)
    except (KeyError, ValueError, OutOfMemoryError) as exc:
        print(f"tbd compare: error: {exc.args[0]}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def _cmd_trace(args) -> int:
    from repro.observability.runner import traced_run

    gpu = get_gpu(args.gpu) if args.gpu else None
    result = traced_run(
        args.model,
        args.framework,
        batch_size=args.batch,
        gpu=gpu,
        archive=not args.no_archive,
        archive_root=args.dir,
    )
    print(result.tracer.render_tree())
    print()
    if result.run_dir:
        print(f"archived run {result.manifest.run_id} -> {result.run_dir}")
        for kind, name in sorted(result.artifacts.items()):
            print(f"  {kind:10s} {name}")
    else:
        print(f"run {result.manifest.run_id} (not archived)")
    return 0


def _cmd_runs(args) -> int:
    from repro.observability.archive import RunArchive

    archive = RunArchive(args.dir)
    if args.runs_command == "list":
        runs = archive.list()
        if not runs:
            print(f"no archived runs under {archive.root}")
            return 0
        for run_id in runs:
            manifest = archive.load(run_id)
            throughput = manifest.metrics.get("throughput", 0.0)
            print(
                f"{run_id:36s} {manifest.device:14s} {throughput:9.1f} samples/s  "
                f"{manifest.created_at}"
            )
        return 0
    if args.runs_command == "show":
        manifest = archive.load(args.run_id)
        print(manifest.to_json(), end="")
        return 0
    # diff
    drifts = archive.diff(args.baseline, args.candidate)
    print(archive.delta_table(args.baseline, args.candidate))
    if drifts:
        print(f"\n{len(drifts)} metric(s) outside tolerance:")
        for drift in drifts:
            print(f"  {drift}")
        return 1
    print("\nall headline metrics within tolerance")
    return 0


def _cmd_plan(args) -> int:
    from repro.training.session import TrainingSession

    gpu = get_gpu(args.gpu) if args.gpu else None
    kwargs = {"gpu": gpu} if gpu else {}
    session = TrainingSession(args.model, args.framework, **kwargs)
    plan = session.compile(args.batch)
    print(plan.describe())
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import (
        FaultSpecError,
        FaultTolerantTrainer,
        UnrecoverableFaultError,
        parse_fault_spec,
    )

    if args.faults_command == "show":
        try:
            scenario = parse_fault_spec(args.spec)
        except FaultSpecError as exc:
            print(f"bad fault spec: {exc}")
            return 2
        print(scenario.describe())
        return 0

    if args.faults_command == "demo":
        return _faults_demo(args)

    # run
    try:
        scenario = parse_fault_spec(args.spec)
    except FaultSpecError as exc:
        print(f"bad fault spec: {exc}")
        return 2
    trainer = FaultTolerantTrainer(
        args.model,
        args.framework,
        scenario.cluster,
        args.batch or 16,
        plan=scenario.plan,
    )
    try:
        result = trainer.run(steps=scenario.steps)
    except UnrecoverableFaultError as exc:
        print(f"UNRECOVERABLE ({exc.kind} at step {exc.step}): {exc}")
        return 1
    print(scenario.describe())
    print(
        f"{result.model} on {result.framework}, {result.configuration}, "
        f"b={result.per_gpu_batch}"
    )
    print(
        f"  {result.steps_completed:g} step(s) in {result.wall_clock_s:.2f}s "
        f"({result.lost_s:.2f}s lost to faults)"
    )
    print(
        f"  throughput {result.throughput:.1f} vs fault-free "
        f"{result.baseline_throughput:.1f} samples/s "
        f"(slowdown x{result.slowdown:.3f})"
    )
    if result.shrank:
        print(
            f"  elastic shrink: {result.initial_machines} -> "
            f"{result.final_machines} machine(s)"
        )
    print(result.event_log())
    return 0


def _faults_demo(args) -> int:
    """Fig.-10-style elastic-recovery demo: lose a machine mid-training
    and still reach the accuracy target, just later."""
    from repro.faults import (
        AllReduceTimeout,
        FaultPlan,
        StragglerFault,
        WorkerCrash,
    )
    from repro.hardware.cluster import parse_configuration
    from repro.observability.tracer import tracing
    from repro.schedule.accuracy import scheduled_time_to_accuracy

    cluster = parse_configuration("4M1G", fabric="infiniband")
    plan = FaultPlan(
        events=(
            StragglerFault(worker=1, factor=1.4, start_step=10, end_step=25),
            AllReduceTimeout(step=20, failures=2, timeout_s=0.5),
            WorkerCrash(step=30, machines=1),
        ),
        seed=args.seed,
    )
    with tracing() as tracer:
        point = scheduled_time_to_accuracy(
            args.model, args.framework, cluster, args.batch or 16, plan=plan
        )
    result = point.segment_runs[0].result
    print(f"elastic-recovery demo: {args.model} on {args.framework}, {cluster.name}")
    print(plan.describe())
    print(
        f"  time-to-accuracy {point.time_to_accuracy_s:.1f}s vs fault-free "
        f"{point.baseline_time_s:.1f}s (x{point.overhead:.3f})"
    )
    print(
        f"  machines {result.initial_machines} -> {result.final_machines}, "
        f"{result.samples:.0f} samples over {result.steps_completed:.1f} step(s)"
    )
    print(result.event_log())
    span_names = set()

    def collect(record):
        span_names.add(record.name)
        for child in record.children:
            collect(child)

    for root in tracer.roots:
        collect(root)
    interesting = sorted(
        name
        for name in span_names
        if name.startswith("fault.") or name.startswith("recovery.")
    )
    print(f"  trace spans: {', '.join(interesting)}")
    return 0


def _cmd_datasets(_args) -> int:
    for dataset in dataset_catalog().values():
        samples = f"{dataset.num_samples:,}" if dataset.num_samples else "N/A"
        print(f"{dataset.key:22s} {samples:>10s}  {dataset.size_description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``tbd`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="tbd", description="TBD: Training Benchmark for DNNs (reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p, batch_default=None):
        p.add_argument("model")
        p.add_argument("-f", "--framework", default="tensorflow")
        p.add_argument("-b", "--batch", type=int, default=batch_default)
        p.add_argument("-g", "--gpu", default=None, help="p4000 | 'titan xp' | gtx580")

    run = sub.add_parser("run", help="run one configuration")
    add_config(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="mini-batch sweep (parallel + cached)")
    sweep.add_argument("model")
    sweep.add_argument("-f", "--framework", default="tensorflow")
    sweep.add_argument("-g", "--gpu", default=None)
    add_engine_arguments(sweep)
    add_faults_argument(sweep)
    add_transforms_argument(sweep)
    add_schedule_argument(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    register_cache_command(sub)
    register_conformance_command(sub)
    register_tune_command(sub)
    register_schedule_command(sub)

    analyze = sub.add_parser("analyze", help="full analysis pipeline + advice")
    add_config(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    exhibit = sub.add_parser("exhibit", help="regenerate tables/figures")
    exhibit.add_argument("names", nargs="+", help="fig4 table5_6 ... or 'all'")
    exhibit.set_defaults(func=lambda args: _render_exhibit(args.names))

    observations = sub.add_parser("observations", help="verify the 13 observations")
    observations.set_defaults(func=_cmd_observations)

    memory = sub.add_parser("memory", help="five-way memory breakdown")
    add_config(memory)
    memory.set_defaults(func=_cmd_memory)

    distributed = sub.add_parser("distributed", help="Fig. 10 configurations")
    distributed.add_argument("model", nargs="?", default="resnet-50")
    distributed.add_argument("-f", "--framework", default="mxnet")
    distributed.add_argument("-b", "--batch", type=int, default=None)
    distributed.set_defaults(func=_cmd_distributed)

    inspect = sub.add_parser("inspect", help="per-layer model summary")
    inspect.add_argument("model")
    inspect.add_argument("-b", "--batch", type=int, default=None)
    inspect.set_defaults(func=_cmd_inspect)

    report = sub.add_parser("report", help="write the full HTML report")
    report.add_argument("-o", "--output", default="tbd_report.html")
    report.add_argument("--no-observations", action="store_true")
    report.set_defaults(func=_cmd_report)

    trace = sub.add_parser("trace", help="instrumented run: span tree + archive")
    add_config(trace)
    trace.add_argument(
        "--dir", default=None, help="runs directory (default ./runs or $TBD_RUNS_DIR)"
    )
    trace.add_argument(
        "--no-archive", action="store_true", help="print the trace without archiving"
    )
    trace.set_defaults(func=_cmd_trace)

    runs = sub.add_parser("runs", help="query the run archive")
    runs.add_argument(
        "--dir", default=None, help="runs directory (default ./runs or $TBD_RUNS_DIR)"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_sub.add_parser("list", help="list archived runs")
    show = runs_sub.add_parser("show", help="print one run's manifest")
    show.add_argument("run_id")
    diff = runs_sub.add_parser("diff", help="headline-metric deltas of two runs")
    diff.add_argument("baseline")
    diff.add_argument("candidate")
    runs.set_defaults(func=_cmd_runs)

    plan = sub.add_parser("plan", help="inspect compiled execution plans")
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)
    plan_show = plan_sub.add_parser("show", help="dump one configuration's plan")
    add_config(plan_show)
    plan.set_defaults(func=_cmd_plan)

    faults = sub.add_parser(
        "faults", help="fault-injection scenarios and elastic recovery"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_run = faults_sub.add_parser(
        "run", help="run one model through a fault scenario"
    )
    faults_run.add_argument("spec", help="fault scenario, e.g. 'crash=1@30; steps=60'")
    faults_run.add_argument("model", nargs="?", default="resnet-50")
    faults_run.add_argument("-f", "--framework", default="mxnet")
    faults_run.add_argument("-b", "--batch", type=int, default=None)
    faults_show = faults_sub.add_parser("show", help="parse and describe a scenario")
    faults_show.add_argument("spec")
    faults_demo = faults_sub.add_parser(
        "demo", help="elastic-recovery demo: crash mid-training, finish anyway"
    )
    faults_demo.add_argument("model", nargs="?", default="resnet-50")
    faults_demo.add_argument("-f", "--framework", default="mxnet")
    faults_demo.add_argument("-b", "--batch", type=int, default=None)
    faults_demo.add_argument("--seed", type=int, default=0)
    faults.set_defaults(func=_cmd_faults)

    compare = sub.add_parser(
        "compare",
        help="interleaved A/B: two frameworks, or a treatment vs its "
        "framework's baseline",
    )
    compare.add_argument("model")
    compare.add_argument("framework")
    compare.add_argument(
        "side",
        help="a second framework, or a treatment of FRAMEWORK: a transform "
        "spec (e.g. 'fused-rnn', 'fused_rnn+fp16') or 'slowdown:<pct>'",
    )
    compare.add_argument("-b", "--batch", type=int, required=True)
    compare.add_argument(
        "--seed", type=int, default=0, help="noise-model seed (default 0)"
    )
    compare.add_argument(
        "--samples",
        type=int,
        default=None,
        help="per-side sample count (default: adaptive from pilot variance)",
    )
    compare.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help="significance level for verdicts (default 0.05)",
    )
    compare.add_argument(
        "--min-effect",
        type=float,
        default=0.01,
        help="median-effect noise floor below which verdicts stay "
        "'indistinguishable' (default 0.01 = 1%%)",
    )
    compare.set_defaults(func=_cmd_compare)

    for name, handler in (
        ("models", _cmd_models),
        ("frameworks", _cmd_frameworks),
        ("datasets", _cmd_datasets),
    ):
        lister = sub.add_parser(name, help=f"list {name}")
        lister.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
