"""CLI surface of the conformance harness: ``tbd conformance run|list|shrink``.

Kept next to the harness (mirroring :mod:`repro.engine.cli`) so flag
semantics and runner construction live in one place.  The harness itself
loads only when a ``conformance`` command runs.
"""

from __future__ import annotations

from repro.engine.cache import ResultCache
from repro.engine.cli import add_engine_arguments
from repro.engine.executor import PointSpec


def register_conformance_command(subparsers) -> None:
    """Add ``tbd conformance run|list|shrink`` to the subparser set."""
    conformance = subparsers.add_parser(
        "conformance",
        help="check the simulator's physics: invariants, metamorphic "
        "relations, seeded fuzzing",
    )
    sub = conformance.add_subparsers(dest="conformance_command", required=True)

    run = sub.add_parser(
        "run", help="paper grid + fuzzed specs through every registered check"
    )
    add_engine_arguments(run)
    run.add_argument(
        "--budget", type=int, default=50, help="fuzz cases to generate (default 50)"
    )
    run.add_argument(
        "--seed", type=int, default=7, help="fuzz generator seed (default 7)"
    )
    run.add_argument(
        "--report",
        default="conformance_report.json",
        help="machine-readable violation report path "
        "(default conformance_report.json; 'none' to skip)",
    )
    run.add_argument(
        "--no-grid",
        action="store_true",
        help="skip the paper-grid/deep/scaling phases; fuzz only",
    )
    run.add_argument(
        "--no-shrink",
        action="store_true",
        help="report violations without minimizing them",
    )

    lister = sub.add_parser("list", help="the registered invariants and relations")

    shrink_cmd = sub.add_parser(
        "shrink", help="minimize one failing configuration by hand"
    )
    shrink_cmd.add_argument("check", help="invariant or relation name")
    shrink_cmd.add_argument("model")
    shrink_cmd.add_argument("framework")
    shrink_cmd.add_argument("batch", type=int)
    shrink_cmd.add_argument("--faults", default="", help="fault scenario text")
    shrink_cmd.add_argument(
        "--gpu",
        default=None,
        help="GPU registry key (default: the harness's default GPU)",
    )
    add_engine_arguments(shrink_cmd)

    conformance.set_defaults(func=cmd_conformance)


def _cache_from_args(args) -> ResultCache | None:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir)  # None -> default location


def _cmd_run(args) -> int:
    from repro.conformance.runner import ConformanceRunner

    runner = ConformanceRunner(
        seed=args.seed,
        budget=args.budget,
        jobs=args.jobs,
        cache=_cache_from_args(args),
        include_grid=not args.no_grid,
        shrink_failures=not args.no_shrink,
    )
    report = runner.run()
    print(report.render())
    if args.report and args.report != "none":
        report.write(args.report)
        print(f"\nreport written to {args.report}")
    return 0 if report.ok else 1


def _cmd_list(args) -> int:
    from repro.conformance.invariants import invariant_registry
    from repro.conformance.relations import relation_registry

    print("invariants:")
    for inv in invariant_registry():
        print(f"  {inv.name:<34} [{inv.scope}]")
        print(f"      {inv.description}")
    print("\nmetamorphic relations:")
    for rel in relation_registry():
        print(f"  {rel.name}")
        print(f"      {rel.description}")
    return 0


def _cmd_shrink(args) -> int:
    from repro.conformance.generator import shrink
    from repro.conformance.relations import DEFAULT_GPU
    from repro.conformance.runner import ConformanceRunner

    runner = ConformanceRunner(
        jobs=1, cache=_cache_from_args(args), include_grid=False, budget=0
    )
    spec = PointSpec(args.model, args.framework, args.batch, args.faults)
    gpu = args.gpu if args.gpu is not None else DEFAULT_GPU
    if not runner.violates(args.check, spec, gpu):
        print(
            f"{args.check} holds for {args.model}/{args.framework} "
            f"b{args.batch} on {gpu} — nothing to shrink"
        )
        return 0
    minimal, gpu, evals = shrink(
        spec,
        gpu,
        lambda s, g: runner.violates(args.check, s, g),
    )
    print(
        f"{args.check} violated; minimal reproduction after {evals} eval(s):\n"
        f"  model={minimal.model} framework={minimal.framework} "
        f"batch={minimal.batch_size} faults={minimal.faults!r} gpu={gpu}"
    )
    return 1


def cmd_conformance(args) -> int:
    """Handler for ``tbd conformance ...``."""
    if args.conformance_command == "run":
        return _cmd_run(args)
    if args.conformance_command == "list":
        return _cmd_list(args)
    return _cmd_shrink(args)
