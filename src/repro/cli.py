"""Command-line interface: regenerate any paper table or figure.

Usage::

    read-repro list
    read-repro fig8 --scale small
    read-repro all --scale tiny --jobs 4
    read-repro sweep --suite mobile --scale micro
    python -m repro fig10 --no-cache

Each experiment subcommand prints the same rows/series the paper reports
(as text tables; this library is plot-free by design) and carries its own
``--help`` with a one-line description and an example invocation.  The
engine flags apply to every job the runners submit: ``--backend`` selects
the simulator implementation, ``--jobs N`` fans cache-missing work out
over N worker processes (``1``, the default, over one per usable CPU,
since ``python -m repro`` pins BLAS to one thread), and ``--no-cache``
disables the on-disk result cache.

``read-repro all`` goes through the orchestrator
(:func:`repro.experiments.run_all`): every figure's job batches run in
lockstep rounds, each round deduplicated across figures and executed as
one parallel cache-reusing sweep, and the renderings are written to an
artifacts directory with a provenance ``manifest.json`` (see
``docs/experiments.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from contextlib import contextmanager
from typing import Iterator, List, Optional

from .engine import backend_names, configure_default_engine
from .engine.cache import parse_byte_count
from .experiments import MODEL_RECIPES, RUNNERS, SCALES, get_scale, run_all
from .experiments.orchestrator import SCALELESS
from .faults.aggregate import DEFAULT_CI_WIDTH
from .faults.injection_job import (
    DEFAULT_SHARD_TRIALS,
    INJECTION_RUNTIMES,
    configure_injection_runtime,
)
from .scenarios import suite_names


def _positive_int(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return jobs


def _doc_line(module) -> str:
    """First docstring line: the subcommand's one-line description."""
    return (module.__doc__ or "").strip().splitlines()[0]


def _engine_flags(parser: argparse.ArgumentParser) -> None:
    """Engine flags shared by every work-submitting subcommand."""
    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help=(
            "simulation backend (default: $REPRO_BACKEND or 'vector'; "
            "'reference' gives bit-identical results, slower)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "worker processes for engine jobs; 1 uses one per usable CPU "
            "(default: $REPRO_JOBS or 1)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--injection-runtime",
        choices=INJECTION_RUNTIMES,
        default=None,
        help=(
            "fault-injection trial execution: 'batched' (default; one stacked "
            "forward pass per campaign) or 'serial' (the reference loop — "
            "bit-identical, slower); default: $REPRO_INJECTION_RUNTIME"
        ),
    )


def _scale_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="experiment sizing (default: $REPRO_SCALE or 'small')",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="read-repro",
        description="Reproduce the tables and figures of the READ paper (DATE 2023).",
        epilog="docs/experiments.md maps every artifact to its command and paper claim.",
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")

    subparsers.add_parser(
        "list",
        help="show every available artifact with its description",
        description="List every table/figure runner and its one-line description.",
        epilog="example: read-repro list",
    )

    all_parser = subparsers.add_parser(
        "all",
        help="orchestrated sweep of every artifact + artifacts/manifest.json",
        description=(
            "Plan the full job graph of all artifacts, deduplicate shared jobs, "
            "execute one parallel cache-reusing sweep, and write each rendering "
            "plus a provenance manifest.json to the artifacts directory."
        ),
        epilog="example: read-repro all --scale tiny --jobs 4",
    )
    _scale_flag(all_parser)
    _engine_flags(all_parser)
    all_parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="artifacts directory (default: artifacts/<scale>/)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a scenario suite (grouped convs, head-as-conv, mixed precision)",
        description=(
            "Run one named scenario suite as a single orchestrated engine sweep: "
            "every scenario's layer-TER jobs (per conv group, classifier head "
            "included), then the injection campaigns built from them, are "
            "deduplicated and executed through the shared cache and process "
            "pool.  Suites: " + ", ".join(suite_names()) + "."
        ),
        epilog="example: read-repro sweep --suite mobile --scale micro --jobs 4",
    )
    sweep_parser.add_argument(
        "--suite",
        choices=suite_names(),
        required=True,
        help="scenario suite to run (see repro.scenarios.SUITES)",
    )
    _scale_flag(sweep_parser)
    _engine_flags(sweep_parser)
    sweep_parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write manifest.json (per-GEMM TERs, READ-reorder verdicts, "
        "run provenance) to this directory",
    )

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="differential conformance fuzz of the simulation backends",
        description=(
            "Draw randomized job specifications over the full axis cross "
            "product (widths x dataflows x strategies x corners x groups x "
            "bits), run every registered backend on the same jobs, and check "
            "the conformance contract (outputs and every statistic, TER "
            "included, bit-equal to reference; stacked run_network == "
            "per-job run).  Failures are minimized and "
            "printed as a single replayable --spec command."
        ),
        epilog=(
            "examples: read-repro fuzz --seed 7 --cases 200  |  "
            "read-repro fuzz --spec 'n_pixels=1,c_eff=3,...' --backend vector"
        ),
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=7, help="campaign seed (default: 7)"
    )
    fuzz_parser.add_argument(
        "--cases",
        type=_positive_int,
        default=None,
        metavar="N",
        help="number of drawn cases (default: $REPRO_FUZZ_ITERS or 200)",
    )
    fuzz_parser.add_argument(
        "--case",
        type=int,
        default=None,
        metavar="I",
        help="replay exactly one (seed, index) case instead of a campaign",
    )
    fuzz_parser.add_argument(
        "--spec",
        default=None,
        metavar="K=V,...",
        help="replay one explicit case spec (as printed by a failure repro)",
    )
    fuzz_parser.add_argument(
        "--backend",
        action="append",
        choices=backend_names(),
        default=None,
        help="restrict to specific backends (repeatable; default: all)",
    )
    fuzz_parser.add_argument(
        "--failures-file",
        default=None,
        metavar="PATH",
        help="write minimized repro commands for failures to PATH (CI artifact)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the resident engine daemon (warm pool, coalescing, shared cache)",
        description=(
            "Start a long-lived engine daemon on a Unix socket.  Clients "
            "with $REPRO_ENGINE_SOCKET pointing at it route every "
            "run_many/run_stream batch through one warm engine: the process "
            "pool and per-worker memos stay hot across requests, and "
            "identical jobs submitted by concurrent clients coalesce into a "
            "single simulation.  Stop with SIGTERM/SIGINT or the shutdown "
            "verb (see docs/engine.md)."
        ),
        epilog="example: read-repro serve --socket /tmp/repro.sock --jobs 4",
    )
    serve_parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="Unix socket path (default: $REPRO_ENGINE_SOCKET or <cache>/engine.sock)",
    )
    _engine_flags(serve_parser)

    ping_parser = subparsers.add_parser(
        "ping",
        help="probe a running engine daemon",
        description=(
            "Connect to the engine daemon, verify the protocol handshake, "
            "and print its pid/backend.  Exit status 1 when nothing answers."
        ),
        epilog="example: read-repro ping --socket /tmp/repro.sock",
    )
    ping_parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="Unix socket path (default: $REPRO_ENGINE_SOCKET)",
    )

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect or garbage-collect the on-disk result cache",
        description=(
            "Operate directly on the shared result store ($REPRO_CACHE or "
            "the repo .cache/).  Safe while a daemon or campaign is live: "
            "every mutation takes the same per-shard advisory locks the "
            "engine's writers hold."
        ),
        epilog="examples: read-repro cache stats  |  read-repro cache gc --max-bytes 100000000",
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats",
        help="entry/byte/shard/orphan counts",
        description="Print entry, byte, shard and orphaned-tmp counts.",
    )
    cache_gc_parser = cache_sub.add_parser(
        "gc",
        help="sweep orphaned tmp files; optionally evict LRU entries",
        description=(
            "Remove temp files orphaned by killed writers, then — when a "
            "size bound is given via --max-bytes or $REPRO_CACHE_MAX_BYTES — "
            "evict least-recently-used entries until the store fits."
        ),
    )
    cache_gc_parser.add_argument(
        "--max-bytes",
        type=parse_byte_count,
        default=None,
        metavar="N",
        help="evict LRU entries above this total size, plain or scientific "
        "notation (default: $REPRO_CACHE_MAX_BYTES)",
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="sharded, resumable, statistically-stopped injection campaign",
        description=(
            "Run one accuracy-under-injection campaign with a per-cell trial "
            "budget, sharded into content-addressed sub-jobs with sequential "
            "early stopping: a (strategy x corner) cell stops as soon as its "
            "Wilson interval separates from the fault-free baseline or shrinks "
            "to --ci-width.  A killed campaign resumes from the result cache "
            "(completed shards are warm hits); the manifest is deterministic "
            "modulo its 'run' block."
        ),
        epilog=(
            "example: read-repro campaign --recipe vgg16_cifar10 --scale micro "
            "--max-trials 64 --ci-width 0.05 --jobs 4"
        ),
    )
    campaign_parser.add_argument(
        "--recipe",
        choices=sorted(MODEL_RECIPES),
        required=True,
        help="model/dataset combination to campaign on",
    )
    campaign_parser.add_argument(
        "--max-trials",
        type=_positive_int,
        default=64,
        metavar="N",
        help="per-cell trial budget (default: 64)",
    )
    campaign_parser.add_argument(
        "--ci-width",
        type=float,
        default=DEFAULT_CI_WIDTH,
        metavar="W",
        help=f"target Wilson-interval width for the converged stop (default: {DEFAULT_CI_WIDTH})",
    )
    campaign_parser.add_argument(
        "--shard-trials",
        type=_positive_int,
        default=DEFAULT_SHARD_TRIALS,
        metavar="N",
        help=f"trials per shard, the cancellation granularity (default: {DEFAULT_SHARD_TRIALS})",
    )
    campaign_parser.add_argument(
        "--topk",
        type=_positive_int,
        default=1,
        metavar="K",
        help="top-k evaluation protocol (default: 1)",
    )
    campaign_parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "record this invocation as a resume (completed shards are warm "
            "cache hits either way — resume IS the cache)"
        ),
    )
    campaign_parser.add_argument(
        "--max-shards",
        type=int,
        default=None,
        metavar="N",
        help="stop after N shard results (deterministic mid-flight kill, for tests)",
    )
    campaign_parser.add_argument(
        "--no-early-stop",
        action="store_true",
        help="run every cell to its full budget (no sequential stopping)",
    )
    campaign_parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="artifacts directory (default: artifacts/campaigns/<recipe>-<scale>/)",
    )
    _scale_flag(campaign_parser)
    _engine_flags(campaign_parser)

    for name in sorted(RUNNERS):
        sub = subparsers.add_parser(
            name,
            help=_doc_line(RUNNERS[name]),
            description=_doc_line(RUNNERS[name]),
            epilog=f"example: read-repro {name}"
            + ("" if name in SCALELESS else " --scale small --jobs 4"),
        )
        if name not in SCALELESS:
            _scale_flag(sub)
        _engine_flags(sub)
    return parser


def run_one(name: str, scale_name: Optional[str]) -> str:
    """Execute one experiment and return its rendering."""
    module = RUNNERS[name]
    if name in SCALELESS:
        result = module.run()
    else:
        result = module.run(scale=get_scale(scale_name))
    return module.render(result)


def _print_engine_summary(engine) -> None:
    # Name only the backends that actually simulated — with
    # $REPRO_ENGINE_SOCKET set, that is the daemon's backend — so a
    # fully warm run names none.
    used = "+".join(sorted(engine.used_backends))
    print(
        f"engine[{used + ', ' if used else ''}jobs={engine.jobs}, "
        f"cache={'on' if engine.cache is not None else 'off'}]: "
        f"{engine.stats.describe()}"
    )


def _run_fuzz(args) -> int:
    """``read-repro fuzz``: campaign, single-case replay, or spec replay."""
    import os

    from .engine.fuzz import (
        DEFAULT_CASES,
        FuzzCase,
        draw_case,
        fuzz,
        repro_command,
        run_case,
    )

    if args.spec is not None and args.case is not None:
        print("error: --spec and --case are mutually exclusive", file=sys.stderr)
        return 2
    backends = args.backend  # None -> all registered
    if args.spec is not None or args.case is not None:
        case = (
            FuzzCase.from_spec(args.spec)
            if args.spec is not None
            else draw_case(args.seed, args.case)
        )
        print(f"case: {case.to_spec()}")
        problems = run_case(case, backends)
        for problem in problems:
            print(f"[{problem.backend}] {problem.what}: {problem.detail}")
        print("FAIL" if problems else "PASS")
        return 1 if problems else 0

    n_cases = args.cases
    if n_cases is None:
        n_cases = int(os.environ.get("REPRO_FUZZ_ITERS", DEFAULT_CASES))
    report = fuzz(args.seed, n_cases, backends=backends, log=print)
    if report.ok:
        print(f"fuzz: {n_cases} cases, seed {args.seed}: all conformant")
        return 0
    lines = [repro_command(case, backends) for _, case, _ in report.failures]
    if args.failures_file:
        with open(args.failures_file, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"fuzz: wrote {len(lines)} repro command(s) to {args.failures_file}")
    print(
        f"fuzz: {len(report.failures)} failing case(s) out of <= {n_cases} "
        f"(seed {args.seed}); minimized repro commands above"
    )
    return 1


def _run_serve(args) -> int:
    """``read-repro serve``: block in the daemon's accept loop."""
    import os
    import signal

    from .engine import ENGINE_SOCKET_ENV, cache_root
    from .engine.server import EngineServer

    socket_path = (
        args.socket
        or os.environ.get(ENGINE_SOCKET_ENV)
        or str(cache_root() / "engine.sock")
    )
    # Exported via the environment so the daemon's pool workers inherit it.
    configure_injection_runtime(args.injection_runtime)
    # Bundles the daemon loads file their clean accuracy through the
    # process default engine: give it the daemon's cache choice.
    configure_default_engine(use_cache=not args.no_cache)
    server = EngineServer(
        socket_path,
        backend=args.backend,
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )

    def _stop(signum, frame):  # graceful: finish in-flight replies
        server.shutdown()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    engine = server.engine
    print(
        f"engine daemon on {socket_path} "
        f"(pid={os.getpid()}, backend={engine.backend_name}, jobs={engine.jobs}, "
        f"cache={'on' if engine.cache is not None else 'off'})",
        flush=True,
    )
    server.serve_forever()
    print(f"engine daemon stopped: {server.metrics.describe()}")
    return 0


def _run_ping(args) -> int:
    """``read-repro ping``: one handshake round trip."""
    import os

    from .engine import ENGINE_SOCKET_ENV
    from .engine.client import EngineClient, EngineClientError

    socket_path = args.socket or os.environ.get(ENGINE_SOCKET_ENV)
    if not socket_path:
        print(
            f"error: no socket given (--socket or ${ENGINE_SOCKET_ENV})",
            file=sys.stderr,
        )
        return 2
    try:
        reply = EngineClient(socket_path).ping()
    except EngineClientError as exc:
        print(f"no engine daemon at {socket_path}: {exc}", file=sys.stderr)
        return 1
    print(
        f"pong from {socket_path}: pid {reply['pid']}, "
        f"backend {reply['backend']}, protocol {reply['protocol']}"
    )
    return 0


def _run_cache(args) -> int:
    """``read-repro cache stats|gc``: direct, lock-safe store maintenance."""
    from .engine import ResultCache

    from .engine.arena import default_arena

    cache = ResultCache()
    arena = default_arena()
    if args.cache_command == "stats":
        print(f"cache[{cache.root}]: {cache.stats().describe()}")
        if arena is not None:
            print(f"arena[{arena.root}]: {arena.stats().describe()}")
    else:
        print(f"cache[{cache.root}]: {cache.gc(max_bytes=args.max_bytes).describe()}")
        if arena is not None:
            # Reclaim operand-arena segments orphaned by killed workers
            # alongside the result store's own orphan sweep.
            print(f"arena[{arena.root}]: {arena.sweep().describe()}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``read-repro`` script)."""
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in sorted(RUNNERS):
            print(f"{name:8s} {_doc_line(RUNNERS[name])}")
        return 0
    if args.experiment == "fuzz":
        return _run_fuzz(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "ping":
        return _run_ping(args)
    if args.experiment == "cache":
        return _run_cache(args)
    engine = configure_default_engine(
        backend=args.backend,
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
    )
    try:
        with _each_warning_once():
            return _run_engine_command(args, engine)
    finally:
        # Sweeps the operand arena: without it the segments this run
        # published outlive the process (atexit only drops leases).
        engine.close()


@contextmanager
def _each_warning_once() -> Iterator[None]:
    """Show each distinct warning message once per command.

    Python's once-per-location registry forgets what it has shown
    whenever the warning filters change, and a lazy ``scipy`` import
    changes them mid-run; so the command keeps its own record.
    """
    shown = set()
    show = warnings.showwarning

    def show_once(message, category, *rest) -> None:
        if (category, str(message)) not in shown:
            shown.add((category, str(message)))
            show(message, category, *rest)

    warnings.showwarning = show_once
    try:
        yield
    finally:
        warnings.showwarning = show


def _run_engine_command(args, engine) -> int:
    """Run an experiment / sweep / campaign / ``all`` on ``engine``."""
    # Exported via the environment so engine pool workers inherit it.
    configure_injection_runtime(args.injection_runtime)
    if args.experiment == "sweep":
        from .experiments.sweep import render as render_suite, run_suite

        scale = get_scale(args.scale)
        start = time.time()
        result = run_suite(args.suite, scale=scale, engine=engine)
        print(f"=== sweep:{args.suite} " + "=" * max(0, 52 - len(args.suite)))
        print(render_suite(result))
        if args.artifacts:
            from .experiments.sweep import write_suite_manifest

            path = write_suite_manifest(result, args.artifacts, engine=engine)
            print(f"manifest: {path}")
        print(f"--- sweep:{args.suite} done in {time.time() - start:.1f}s\n")
        _print_engine_summary(engine)
        return 0
    if args.experiment == "campaign":
        from .experiments.campaign import render as render_campaign, run_campaign

        scale = get_scale(args.scale)
        start = time.time()
        result = run_campaign(
            args.recipe,
            scale=scale,
            max_trials=args.max_trials,
            ci_width=args.ci_width,
            shard_trials=args.shard_trials,
            topk=args.topk,
            engine=engine,
            artifacts_dir=args.artifacts,
            resume=args.resume,
            max_shards=args.max_shards,
            early_stop=not args.no_early_stop,
        )
        print(f"=== campaign:{args.recipe} " + "=" * max(0, 48 - len(args.recipe)))
        print(render_campaign(result))
        print(f"--- campaign done in {time.time() - start:.1f}s\n")
        _print_engine_summary(engine)
        print(f"manifest: {result.manifest_path}")
        return 0
    if args.experiment == "all":
        scale = get_scale(args.scale)
        result = run_all(scale=scale, artifacts_dir=args.artifacts, engine=engine)
        for name, text in result.texts.items():
            print(f"=== {name} " + "=" * max(0, 60 - len(name)))
            print(text)
            print()
        _print_engine_summary(engine)
        print(f"artifacts: {result.artifacts_dir}")
        print(f"manifest:  {result.manifest_path}")
        return 0
    scale_name = getattr(args, "scale", None)
    start = time.time()
    print(f"=== {args.experiment} " + "=" * max(0, 60 - len(args.experiment)))
    print(run_one(args.experiment, scale_name))
    print(f"--- {args.experiment} done in {time.time() - start:.1f}s\n")
    _print_engine_summary(engine)
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
