"""CLI surface of the autotuner: the ``tbd tune`` subcommand."""

from __future__ import annotations

from repro.engine.cache import ResultCache
from repro.engine.keys import canonical_json
from repro.hardware.devices import get_gpu


def register_tune_command(subparsers) -> None:
    """Add ``tbd tune`` to the top-level subparser set."""
    tune = subparsers.add_parser(
        "tune",
        help="search transform pipelines for the fastest fitting config",
    )
    tune.add_argument("model")
    tune.add_argument("-f", "--framework", default="tensorflow")
    tune.add_argument("-b", "--batch", type=int, default=None)
    tune.add_argument("-g", "--gpu", default=None, help="p4000 | 'titan xp' | gtx580")
    tune.add_argument(
        "--budget",
        type=int,
        default=None,
        help="max candidate pipelines to score (default: the full enumeration)",
    )
    tune.add_argument(
        "--seed", type=int, default=0, help="noise seed for the confirming A/B run"
    )
    tune.add_argument(
        "--alpha", type=float, default=0.05, help="significance level of the A/B run"
    )
    tune.add_argument(
        "--min-effect",
        type=float,
        default=0.01,
        help="practical-significance floor of the A/B run",
    )
    tune.add_argument(
        "--samples",
        type=int,
        default=None,
        help="pin the A/B samples per side (default: adaptive)",
    )
    tune.add_argument(
        "--no-confirm",
        action="store_true",
        help="cost-model ranking only; skip the interleaved A/B confirmation",
    )
    tune.add_argument(
        "--retune",
        action="store_true",
        help="ignore a cached tuned config and search again",
    )
    tune.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default $TBD_CACHE_DIR or .tbd-cache)",
    )
    tune.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or persist tuned configs",
    )
    tune.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the full tune record as canonical JSON",
    )
    tune.set_defaults(func=cmd_tune)


def cmd_tune(args) -> int:
    """Handler for ``tbd tune``.  The A/B runner (and with it numpy) is
    loaded only when the winner is confirmed."""
    from repro.tune.search import Autotuner

    gpu = get_gpu(args.gpu) if args.gpu else None
    kwargs = {"gpu": gpu} if gpu else {}
    tuner = Autotuner(
        args.model, args.framework, batch_size=args.batch, **kwargs
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = None
    if not args.no_confirm:
        from repro.bench.noise import NoiseModel
        from repro.bench.runner import InterleavedRunner

        runner = InterleavedRunner(
            noise=NoiseModel(seed=args.seed),
            alpha=args.alpha,
            min_effect=args.min_effect,
        )
    result = tuner.tune(
        cache=cache,
        budget=args.budget,
        confirm=not args.no_confirm,
        retune=args.retune,
        runner=runner,
        samples=args.samples,
    )
    print(result.format_report())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(result.to_doc()))
            handle.write("\n")
        print(f"wrote {args.report}")
    return 0
