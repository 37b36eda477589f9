"""CLI surface of the sweep engine: the ``--jobs``/``--cache-dir``/
``--no-cache`` options and the ``tbd cache`` maintenance subcommand.

Kept next to the engine (rather than inside ``repro.cli``) so the flag
semantics, the default cache location, and the engine construction logic
live in one place and stay in lockstep.
"""

from __future__ import annotations

from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.executor import SweepEngine
from repro.hardware.devices import QUADRO_P4000, get_gpu


def add_engine_arguments(parser) -> None:
    """Attach the engine options to an argparse (sub)parser."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep grid (default 1: serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache directory (default $TBD_CACHE_DIR or {default_cache_dir()!r})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point; do not read or write the result cache",
    )


def add_faults_argument(parser) -> None:
    """Attach the ``--faults`` scenario option to a sweep-shaped parser."""
    parser.add_argument(
        "--faults",
        default="",
        metavar="SPEC",
        help=(
            "fault scenario to run every point under, e.g. "
            "'cluster=2M1G:1gbe; straggler=0x1.5@10:40; crash=1@30' "
            "(default: none; cached as its own grid dimension)"
        ),
    )


def add_transforms_argument(parser) -> None:
    """Attach the ``--transforms`` pipeline option to a sweep-shaped parser."""
    parser.add_argument(
        "--transforms",
        default="",
        metavar="SPEC",
        help=(
            "transform pipeline to run every point under, e.g. "
            "'fused_rnn+fp16+offload:0.5' "
            "(default: none; cached as its own grid dimension)"
        ),
    )


def add_schedule_argument(parser) -> None:
    """Attach the ``--schedule`` option to a sweep-shaped parser."""
    parser.add_argument(
        "--schedule",
        default="",
        metavar="SPEC",
        help=(
            "batch schedule to grow every point's batch under, e.g. "
            "'geometric:factor=2,every=50' or 'gns:ceiling=256' "
            "(default: none; 'fixed' is byte-identical to none; adaptive "
            "schedules are cached as their own grid dimension)"
        ),
    )


def engine_from_args(args) -> SweepEngine:
    """Build the :class:`SweepEngine` an engine-aware command asked for,
    on ``args.gpu`` when it names one (default: the Quadro P4000)."""
    cache = None
    if not getattr(args, "no_cache", False):
        cache = ResultCache(args.cache_dir)  # None -> default location
    gpu = getattr(args, "gpu", None)
    return SweepEngine(
        jobs=args.jobs,
        cache=cache,
        gpu=get_gpu(gpu) if gpu else QUADRO_P4000,
    )


def format_engine_summary(engine: SweepEngine) -> str:
    """One status line for command output, e.g.
    ``engine: jobs=4, 12 hit(s), 3 computed (cache .tbd-cache)``."""
    stats = engine.stats
    if engine.cache is None:
        return f"engine: jobs={engine.jobs}, {stats.points_computed} computed (cache off)"
    return (
        f"engine: jobs={engine.jobs}, {stats.cache_hits} hit(s), "
        f"{stats.points_computed} computed (cache {engine.cache.root})"
    )


def register_cache_command(subparsers) -> None:
    """Add ``tbd cache stats|clear`` to the top-level subparser set."""
    cache = subparsers.add_parser("cache", help="inspect or clear the sweep result cache")
    cache.add_argument(
        "--dir",
        default=None,
        help=f"cache directory (default $TBD_CACHE_DIR or {default_cache_dir()!r})",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="entry counts and on-disk size")
    cache_sub.add_parser("clear", help="delete every cached point (safe mid-sweep)")
    cache.set_defaults(func=cmd_cache)


def cmd_cache(args) -> int:
    """Handler for ``tbd cache stats|clear``."""
    store = ResultCache(args.dir)
    if args.cache_command == "stats":
        print(store.stats().format_report())
        return 0
    removed = store.clear()
    print(f"cleared {removed} cached point(s) from {store.root}")
    return 0
