"""Job scheduling: cache lookup, process-pool fan-out, result collection.

:class:`SimEngine` is the single entry point the experiment runners use:
hand it a batch of :class:`~repro.engine.job.EngineJob`\\ s (layer
simulations, fault-injection campaigns, or a mix) and it returns one
result per job, in submission order.  Per job it

1. consults the on-disk :class:`~repro.engine.cache.ResultCache` (keyed
   by the job's content hash) and **deduplicates** same-key jobs within
   the batch so shared work is computed once;
2. dispatches the misses — over a
   ``concurrent.futures.ProcessPoolExecutor`` of ``jobs`` workers when
   ``jobs > 1``; at ``jobs == 1`` over one worker per usable CPU when
   BLAS is pinned to one thread (:func:`_default_workers`), inline
   otherwise (both TER evaluation and injection trials are
   embarrassingly parallel across jobs);
3. stores each fresh result back into the cache as it lands, so a
   failing job loses none of its batch's finished work.

A process-wide *default engine* carries the CLI's ``--backend`` /
``--jobs`` / ``--no-cache`` choices (or their ``REPRO_BACKEND`` /
``REPRO_JOBS`` / ``REPRO_NO_CACHE`` environment equivalents) to every
runner without threading an argument through each ``run()`` signature.

When ``$REPRO_ENGINE_SOCKET`` names a running ``read-repro serve``
daemon, :meth:`SimEngine.run_many` and :meth:`SimEngine.run_stream`
transparently route their batches through it (warm memos, hot process
pool, cross-client coalescing) and fall back to in-process execution —
with a :class:`RuntimeWarning` — when nothing answers.  Results are
byte-identical either way: the daemon executes the very same jobs
through the very same cache serializers.
"""

from __future__ import annotations

import math
import os
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.pipeline import plans_diagnosed
from ..errors import ConfigurationError
from .backends import SimulationBackend, backend_factory, get_backend
from .cache import ResultCache
from .job import EngineJob, NetworkJob, SimJob

if TYPE_CHECKING:  # the daemon client and the pool load where they are used
    from concurrent.futures import ProcessPoolExecutor

    from .client import EngineClient

#: Points `run_many`/`run_stream` (and `read-repro ping`) at a running
#: daemon's Unix socket; unset means "always in-process".
ENGINE_SOCKET_ENV = "REPRO_ENGINE_SOCKET"

#: How long a failed daemon probe suppresses further probes.  After this
#: many seconds (or :data:`REMOTE_REPROBE_REQUESTS` skipped probes,
#: whichever comes first) the engine pings the socket again, so a client
#: that outlives a daemon restart reattaches instead of staying
#: in-process forever.  Module-level so tests can shrink the thresholds.
REMOTE_REPROBE_SECONDS = 30.0

#: Request-count arm of the re-probe: a client hammering out batches
#: re-probes after this many skipped probes even inside the time window.
REMOTE_REPROBE_REQUESTS = 50


def _execute_job(factory: Callable[[], SimulationBackend], job: EngineJob):
    """Top-level worker entry point (must be picklable for the pool).

    Receives the backend *factory* rather than its registry name so
    spawned workers — which only know the built-in registrations — can
    run third-party backends registered in the submitting process.  Job
    kinds that do not simulate on the array ignore the factory.

    Worker context for injection jobs: process-wide execution choices
    travel through the environment (``REPRO_INJECTION_RUNTIME`` is set by
    ``configure_injection_runtime`` before any pool exists, and pools
    inherit the submitting process's environment), while per-process
    operand state — the rebuilt ``TrainedBundle``, the fault-free
    operand pass, active-MSB tables — is memoized inside each worker so a
    grid of same-bundle jobs pays its setup once per worker, not once per
    job (mirroring ``SimJob.build_plan``'s plan memo).

    Returns ``(result, counters)``: the runtime work-avoidance counters
    (deduped trials, arena traffic) accumulated in this worker
    while the job ran travel home with the result and fold into the
    submitting engine's :class:`EngineMetrics`.  The submitting process
    already diagnosed the job, so the planner does not repeat the
    diagnostic here.
    """
    _drained_counters()  # stray counters from before this job are not ours
    with plans_diagnosed():
        result = job.execute(factory)
    return result, _drained_counters()


def _drained_counters() -> Dict[str, int]:
    """Drain this process's injection-runtime counters (lazy import:
    the faults package imports engine.job at module level)."""
    from ..faults.injection_job import drain_runtime_counters

    return drain_runtime_counters()


def _default_workers() -> int:
    """Worker processes a ``jobs=1`` engine spreads a batch's misses over.

    One per usable CPU when BLAS runs one thread per process —
    ``python -m repro`` sets ``OPENBLAS_NUM_THREADS=1`` before numpy
    loads, and forked workers inherit it — and 1 (inline) otherwise:
    workers that each start a multi-threaded BLAS put more busy threads
    than cores on the host, which measured slower than one process.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _fused_units(
    jobs: Sequence[EngineJob],
    pending: Sequence[int],
    workers: int,
    factory: Callable[[], SimulationBackend],
) -> List[Tuple[List[int], EngineJob]]:
    """Pool work units for the cache-missing jobs: ``(indices, job)``.

    When the configured backend overrides
    :meth:`~repro.engine.backends.SimulationBackend.run_network`, the
    pending :class:`SimJob`\\ s are chunked into one stacked
    :class:`NetworkJob` per worker (contiguous, submission order) so
    every worker runs one whole-batch fold instead of per-layer tasks;
    a loop-only backend (or a single simulation) keeps raw per-job
    units, and non-simulation kinds always travel alone.
    """
    sim_idx = [i for i in pending if isinstance(jobs[i], SimJob)]
    units: List[Tuple[List[int], EngineJob]] = []
    stacks = (
        len(sim_idx) > 1
        and type(factory()).run_network is not SimulationBackend.run_network
    )
    if stacks:
        chunk = math.ceil(len(sim_idx) / workers)
        for start in range(0, len(sim_idx), chunk):
            idxs = sim_idx[start : start + chunk]
            if len(idxs) == 1:
                units.append((idxs, jobs[idxs[0]]))
            else:
                units.append(
                    (idxs, NetworkJob(jobs=tuple(jobs[i] for i in idxs)))
                )
    else:
        units.extend(([i], jobs[i]) for i in sim_idx)
    units.extend(([i], jobs[i]) for i in pending if not isinstance(jobs[i], SimJob))
    return units


@dataclass
class EngineMetrics:
    """The engine's counter struct, shared by local stats and the daemon.

    One flat record of everything the engine counts: per-job outcomes
    (``hits`` / ``misses`` / ``deduped`` / ``cancelled`` — the original
    :class:`EngineStats` quartet), cross-client ``coalesced`` jobs (a
    submission that attached to another client's identical in-flight
    computation instead of simulating), and request-level accounting
    (``requests`` round trips, cumulative ``latency_seconds``).  The
    serve-mode daemon reports one of these from its ``metrics`` verb;
    :class:`EngineStats` subclasses it so a client engine folds daemon
    deltas straight into its lifetime counters.
    """

    hits: int = 0
    misses: int = 0
    deduped: int = 0
    #: Jobs cancelled before they ever executed (:meth:`SimEngine.run_stream`
    #: early stopping); they are not hits, misses or dedups.
    cancelled: int = 0
    #: Jobs that rode another client's identical in-flight computation
    #: (serve mode only; always 0 for a purely in-process engine).
    coalesced: int = 0
    #: Daemon round trips (client side) / requests served (daemon side).
    requests: int = 0
    #: Wall-clock seconds spent in those requests, cumulatively.
    latency_seconds: float = 0.0
    #: Always 0: the lanes walk no longer prunes masked trials.  Kept so
    #: the summary's ``N trial(s) pruned, M deduped`` text, which
    #: benchmark tooling parses, keeps its shape.
    trials_pruned: int = 0
    #: Injection trials whose flip draws collapsed onto an
    #: already-evaluated representative (zero-flip or duplicate draws).
    trials_deduped: int = 0
    #: Shared-memory operand arena traffic: segments attached instead of
    #: rebuilt, and segments published by this process's jobs.
    arena_hits: int = 0
    arena_stores: int = 0
    #: Arena operations that degraded to a local rebuild after an OS or
    #: layout error (publish/attach/sweep failures).  The arena is a
    #: best-effort optimization, so these are never fatal — but a
    #: non-zero count is the visible trace of the degradation.
    arena_errors: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses + self.deduped + self.cancelled + self.coalesced

    def describe(self) -> str:
        text = (
            f"{self.total} job(s): {self.hits} cache hit(s), "
            f"{self.deduped} deduplicated, {self.misses} simulated"
        )
        if self.coalesced:
            text += f", {self.coalesced} coalesced"
        if self.cancelled:
            text += f", {self.cancelled} cancelled"
        if self.trials_pruned or self.trials_deduped:
            text += (
                f"; {self.trials_pruned} trial(s) pruned, "
                f"{self.trials_deduped} deduped"
            )
        if self.arena_hits or self.arena_stores or self.arena_errors:
            text += f"; arena: {self.arena_hits} hit(s), {self.arena_stores} store(s)"
        if self.arena_errors:
            text += f", {self.arena_errors} error(s)"
        return text

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, delta: Mapping[str, object]) -> None:
        """Fold a counter-delta mapping (unknown keys ignored) into self."""
        for f in fields(self):
            if f.name in delta:
                setattr(self, f.name, getattr(self, f.name) + delta[f.name])

    def snapshot(self) -> "EngineMetrics":
        return type(self)(**self.as_dict())

    def since(self, earlier: "EngineMetrics") -> "EngineMetrics":
        """Counter deltas accumulated after ``earlier`` was snapshotted."""
        return type(self)(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )


@dataclass
class EngineStats(EngineMetrics):
    """Counters accumulated over an engine's lifetime.

    Exactly an :class:`EngineMetrics` — the subclass exists so engine
    call sites keep their established name while the daemon, the
    ``metrics`` verb and the benchmarks share the struct definition.
    """


class SimEngine:
    """Batched, cached, multi-process front end to the backends.

    Parameters
    ----------
    backend:
        Registered backend name (``"vector"``, the default, or
        ``"reference"``; see :func:`repro.engine.backend_names`).  Only
        consulted by job kinds that simulate on the array
        (:class:`~repro.engine.job.SimJob`).
    jobs:
        Worker processes for cache-missing work; higher values fan out
        over a process pool.  ``1`` (default) runs inline, or — in a
        process whose BLAS is pinned to one thread, as under ``python -m
        repro``, and without ``keep_pool`` — spreads :meth:`run_many`
        batches over one worker per usable CPU (:func:`_default_workers`).
    use_cache:
        Consult/populate the on-disk result cache.
    cache_dir:
        Override the cache root (defaults to the repo ``.cache/`` or
        ``$REPRO_CACHE``); accepts a path or a prebuilt
        :class:`ResultCache`.
    keep_pool:
        Keep one :class:`ProcessPoolExecutor` alive across batches
        instead of building/tearing one down per call — the serve-mode
        daemon's "hot pool".  Call :meth:`close` to release it.
    remote:
        Permit routing through a ``$REPRO_ENGINE_SOCKET`` daemon.  The
        daemon's own engine sets this False (it must never route to
        itself), as do tests pinning in-process execution.
    """

    def __init__(
        self,
        backend: str = "vector",
        jobs: int = 1,
        use_cache: bool = True,
        cache_dir: Union[None, str, Path, ResultCache] = None,
        keep_pool: bool = False,
        remote: bool = True,
    ):
        get_backend(backend)  # validate the name eagerly
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.backend_name = backend
        self.jobs = jobs
        #: Pool size for :meth:`run_many` (1: inline).  A daemon's hot
        #: pool (``keep_pool``) keeps ``jobs`` workers.
        self.workers = jobs if jobs > 1 or keep_pool else _default_workers()
        self.keep_pool = keep_pool
        self.remote = remote
        self._persistent_pool: Optional[ProcessPoolExecutor] = None
        #: Whether a worker pool ever ran for this engine: its workers may
        #: have published arena segments that :meth:`close` must sweep.
        self._pooled = False
        #: Latched (with a monotonic timestamp) after a failed daemon
        #: probe so a long sweep stays in-process rather than re-probing
        #: per batch.  The latch *expires* — after
        #: :data:`REMOTE_REPROBE_SECONDS` or
        #: :data:`REMOTE_REPROBE_REQUESTS` skipped probes the daemon is
        #: pinged again — so a long-lived client reattaches to a
        #: restarted daemon instead of degrading in-process forever.
        self._remote_down_since: Optional[float] = None
        #: Probes skipped while latched (the request-count re-probe arm).
        self._remote_skipped = 0
        #: The unreachable warning fires once per engine, not per probe.
        self._remote_warned = False
        if not use_cache:
            self.cache: Optional[ResultCache] = None
        elif isinstance(cache_dir, ResultCache):
            self.cache = cache_dir
        else:
            self.cache = ResultCache(cache_dir)
        self.stats = EngineStats()
        #: Backends that actually simulated a cache-missing :class:`SimJob`
        #: for this engine — a daemon reports its own backend through
        #: :meth:`_merge_remote` — so summaries report what really ran,
        #: not just what was configured.
        self.used_backends: set = set()

    def effective_backend(self) -> str:
        """What actually simulated: every backend that executed a
        cache-missing simulation job, '+'-joined, or the configured
        backend when none did."""
        return "+".join(sorted(self.used_backends)) or self.backend_name

    # ------------------------------------------------------------------ #
    @contextmanager
    def _acquire_pool(self, workers: int):
        """A worker pool for one batch: per-call, or the persistent one.

        With ``keep_pool`` the pool is sized ``self.jobs`` once and
        survives across batches (the daemon's warm workers — their
        per-process bundle/plan/pass memos are the whole point); without
        it the historical build-use-teardown per batch is preserved.
        """
        from concurrent.futures import ProcessPoolExecutor

        self._pooled = True
        if self.keep_pool:
            if self._persistent_pool is None:
                self._persistent_pool = ProcessPoolExecutor(max_workers=self.jobs)
            yield self._persistent_pool
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                yield pool

    def close(self) -> None:
        """Release the persistent pool (no-op without ``keep_pool``) and
        this process's operand-arena leases.

        Forked pool workers leave through ``os._exit`` and run no
        ``atexit`` hook, so they exit still holding their leases (as
        does a SIGKILLed worker); after the pool shutdown the follow-up
        sweep detects those pid-named leases as dead and reclaims every
        segment the engine's fan-out was keeping alive.  An engine that
        ran no pool, in a process that never loaded the arena (a warm
        run: every job a cache hit), has published nothing to sweep and
        leaves the arena module unloaded.
        """
        if self._persistent_pool is not None:
            self._persistent_pool.shutdown()
            self._persistent_pool = None
        if self._pooled or f"{__package__}.arena" in sys.modules:
            from .arena import shutdown_arena

            shutdown_arena()

    # ------------------------------------------------------------------ #
    def _remote_client(self) -> Optional[EngineClient]:
        """A pinged client for the ``$REPRO_ENGINE_SOCKET`` daemon, or None.

        None when routing is disabled, no socket is configured, the probe
        failed (which warns once and latches the fallback), or the latch
        is still fresh.  A stale latch — older than
        :data:`REMOTE_REPROBE_SECONDS`, or with
        :data:`REMOTE_REPROBE_REQUESTS` probes skipped — triggers one
        re-probe, so the engine reattaches to a restarted daemon.
        """
        if not self.remote:
            return None
        socket_path = os.environ.get(ENGINE_SOCKET_ENV)
        if not socket_path:
            return None
        if self._remote_down_since is not None:
            self._remote_skipped += 1
            fresh = (
                time.monotonic() - self._remote_down_since < REMOTE_REPROBE_SECONDS
                and self._remote_skipped < REMOTE_REPROBE_REQUESTS
            )
            if fresh:
                return None
        from .client import EngineClient, EngineClientError

        client = EngineClient(socket_path)
        try:
            client.ping()
        except EngineClientError as exc:
            self._remote_fallback(exc)
            return None
        self._remote_down_since = None
        self._remote_skipped = 0
        return client

    def _remote_fallback(self, exc: Exception) -> None:
        self._remote_down_since = time.monotonic()
        self._remote_skipped = 0
        if not self._remote_warned:
            self._remote_warned = True
            warnings.warn(
                f"{ENGINE_SOCKET_ENV} is set but the engine daemon did not answer "
                f"({exc}); falling back to in-process execution",
                RuntimeWarning,
                stacklevel=4,
            )

    def _merge_counters(self, delta: Mapping[str, int]) -> None:
        """Fold drained runtime counters (worker or inline) into stats."""
        if delta:
            self.stats.merge(delta)

    def _merge_remote(self, delta: Mapping[str, object], elapsed: float) -> None:
        """Fold one daemon response's counter delta into lifetime stats."""
        self.stats.merge(delta)
        self.stats.requests += 1
        self.stats.latency_seconds += elapsed
        backend = delta.get("backend")
        if backend and delta.get("misses"):
            self.used_backends.add(str(backend))

    def _run_many_remote(
        self, client: EngineClient, submitted: List[EngineJob]
    ) -> List[object]:
        for job in submitted:
            job.check()  # submit-time diagnostics stay in this process
        start = time.perf_counter()
        results, delta = client.submit(submitted)
        self._merge_remote(delta, time.perf_counter() - start)
        return results

    def _run_stream_remote(
        self,
        client: EngineClient,
        jobs: List[EngineJob],
        on_result: Optional[Callable[[int, object], Optional[Iterable[int]]]],
    ) -> List[Optional[object]]:
        for job in jobs:
            job.check()
        start = time.perf_counter()
        results, delta = client.submit_stream(jobs, on_result)
        self._merge_remote(delta, time.perf_counter() - start)
        return results

    # ------------------------------------------------------------------ #
    def run(self, job: EngineJob):
        """Execute (or recall) a single job."""
        return self.run_many([job])[0]

    def run_many(self, jobs: Sequence[EngineJob]) -> List[object]:
        """Execute a batch of jobs; results come back in submission order.

        Cache hits are returned without computing; within the batch,
        same-key jobs are deduplicated (computed once, shared); the
        remaining misses run on the configured backend, in parallel when
        ``self.workers > 1``.  Deduplication requires the cache to be
        enabled — with ``use_cache=False`` no keys are derived and every
        job is executed as submitted.

        A :class:`~repro.engine.job.NetworkJob` is expanded into its
        member :class:`~repro.engine.job.SimJob`\\ s *before* any of the
        above — hits, misses, dedup, stats and cache stores all happen
        per member key, and the stacked result list is reassembled at
        the end.  A warm per-layer cache therefore fully satisfies a
        stacked submission (0 simulated), and a stacked run warms the
        per-layer cache for later solo submissions.  Conversely, the
        cache-missing *simulation* jobs of any batch — expanded or
        submitted plain — are fused back into stacked
        :meth:`~repro.engine.backends.SimulationBackend.run_network`
        calls when the configured backend overrides it (one unit per
        worker on the pool, one inline), so whole-network batching does
        not depend on how the caller grouped its submissions.

        With ``$REPRO_ENGINE_SOCKET`` set (and a daemon answering), the
        whole batch is executed by the daemon instead — same jobs, same
        serializers, bit-identical results — and the response's
        hit/miss/coalesce counters fold into this engine's stats.
        """
        submitted = list(jobs)
        client = self._remote_client()
        if client is not None:
            from .client import EngineClientError

            try:
                return self._run_many_remote(client, submitted)
            except EngineClientError as exc:
                self._remote_fallback(exc)
        spans: List[Tuple[int, int, bool]] = []  # (start, count, stacked?)
        flat: List[EngineJob] = []
        for job in submitted:
            if isinstance(job, NetworkJob):
                spans.append((len(flat), len(job.jobs), True))
                flat.extend(job.jobs)
            else:
                spans.append((len(flat), 1, False))
                flat.append(job)
        results_flat = self._run_flat(flat)
        if all(not stacked for _, _, stacked in spans):
            return results_flat
        return [
            list(results_flat[start : start + count]) if stacked
            else results_flat[start]
            for start, count, stacked in spans
        ]

    def _run_flat(self, jobs: List[EngineJob]) -> List[object]:
        """:meth:`run_many` after NetworkJob expansion (no stacked kinds)."""
        results: List[Optional[object]] = [None] * len(jobs)
        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(jobs)
        first_index_for_key: Dict[str, int] = {}
        duplicate_of: Dict[int, int] = {}

        for i, job in enumerate(jobs):
            # Run submit-time diagnostics in the submitting process for
            # every job: strict jobs raise up front, non-strict ones warn
            # even when the result is a cache hit or computes in a worker
            # process (whose warnings never reach the caller).
            job.check()
            if self.cache is not None:
                keys[i] = job.key()
                if keys[i] in first_index_for_key:
                    duplicate_of[i] = first_index_for_key[keys[i]]
                    continue
                cached = self.cache.load(keys[i], job)
                if cached is not None:
                    results[i] = cached
                    first_index_for_key[keys[i]] = i
                    self.stats.hits += 1
                    continue
                first_index_for_key[keys[i]] = i
            pending.append(i)

        def finish(i: int, result: object) -> None:
            # Stored as it lands: a job that fails later in the batch
            # costs no finished work.
            results[i] = result
            self.stats.misses += 1
            if self.cache is not None:
                assert keys[i] is not None
                self.cache.store(keys[i], jobs[i], result)

        # check() above already diagnosed every job, so the planner
        # inside the backend does not repeat it (plans_diagnosed, here
        # and in _execute_job).
        factory = backend_factory(self.backend_name)
        if len(pending) > 1 and self.workers > 1:
            workers = min(self.workers, len(pending))
            units = _fused_units(jobs, pending, workers, factory)
            from concurrent.futures import as_completed

            with self._acquire_pool(workers) as pool:
                futures = {
                    pool.submit(_execute_job, factory, unit): idxs
                    for idxs, unit in units
                }
                try:
                    for future in as_completed(futures):
                        idxs = futures[future]
                        value, counters = future.result()
                        self._merge_counters(counters)
                        for i, result in zip(idxs, [value] if len(idxs) == 1 else value):
                            finish(i, result)
                except BaseException:
                    # Withdraw the units no worker has started, so the
                    # error surfaces without running the rest of the batch.
                    for future in futures:
                        future.cancel()
                    raise
        else:
            with plans_diagnosed():
                _drained_counters()  # not ours: accumulated outside the engine
                try:
                    sim_pending = [i for i in pending if isinstance(jobs[i], SimJob)]
                    if len(sim_pending) > 1:
                        # Stack all missing simulations through one
                        # run_network call; a loop-only backend's default
                        # is exactly the per-job loop this replaces.
                        batch = factory().run_network([jobs[i] for i in sim_pending])
                        for i, result in zip(sim_pending, batch):
                            finish(i, result)
                        rest = [i for i in pending if not isinstance(jobs[i], SimJob)]
                    else:
                        rest = pending
                    for i in rest:
                        finish(i, jobs[i].execute(factory))
                finally:
                    self._merge_counters(_drained_counters())

        if any(jobs[i].kind == "sim" for i in pending):
            self.used_backends.add(self.backend_name)
        for i, source in duplicate_of.items():
            results[i] = results[source]
            self.stats.deduped += 1
        return results  # type: ignore[return-value]

    def run_stream(
        self,
        jobs: Sequence[EngineJob],
        on_result: Optional[Callable[[int, object], Optional[Iterable[int]]]] = None,
    ) -> List[Optional[object]]:
        """Execute a batch, streaming each result as it lands.

        The campaign runner's entry point: ``on_result(index, result)``
        is invoked once per completed job and may return job indices to
        **cancel** — the cooperative early-stopping hook.  Cancellation
        is best-effort and only ever prevents work that has not started:
        inline, upcoming jobs are skipped; on the pool, not-yet-started
        futures are withdrawn (a job already running completes, and its
        result is still delivered and cached — early stopping saves
        work, it never discards finished work).

        Differences from :meth:`run_many`:

        * Cache hits are delivered first, in submission order — they are
          free, so they are never cancelled, and give a stopping rule
          its head start on resume.
        * No within-batch deduplication: stream callers (campaign
          shards) construct distinct-key jobs by design.
        * The returned list holds ``None`` at every cancelled index.

        Pool completion order is nondeterministic; callers needing a
        deterministic outcome must derive it from result *content* (see
        the campaign runner's contiguous-prefix rule), not arrival order.

        Like :meth:`run_many`, a configured ``$REPRO_ENGINE_SOCKET``
        daemon takes the stream: results arrive frame-by-frame over the
        socket, ``on_result`` fires per frame, and cancellation requests
        travel back mid-flight.  A connection error *before* any result
        was delivered falls back to in-process execution; once delivery
        has started the error propagates (a silent rerun would replay
        ``on_result`` callbacks the caller already consumed).
        """
        jobs = list(jobs)
        client = self._remote_client()
        if client is not None:
            from .client import EngineClientError

            try:
                return self._run_stream_remote(client, jobs, on_result)
            except EngineClientError as exc:
                if exc.partial:
                    raise
                self._remote_fallback(exc)
        results: List[Optional[object]] = [None] * len(jobs)
        done = [False] * len(jobs)
        cancel_requested: set = set()

        def deliver(i: int, result: object) -> None:
            results[i] = result
            done[i] = True
            if on_result is not None:
                requested = on_result(i, result)
                if requested:
                    for j in requested:
                        if 0 <= j < len(jobs) and not done[j]:
                            cancel_requested.add(j)

        keys: List[Optional[str]] = [None] * len(jobs)
        pending: List[int] = []
        for i, job in enumerate(jobs):
            job.check()
            if self.cache is not None:
                keys[i] = job.key()
        for i, job in enumerate(jobs):
            if keys[i] is not None:
                cached = self.cache.load(keys[i], job)
                if cached is not None:
                    self.stats.hits += 1
                    deliver(i, cached)
                    continue
            pending.append(i)

        factory = backend_factory(self.backend_name)
        executed: List[int] = []

        def record(i: int, result: object) -> None:
            executed.append(i)
            self.stats.misses += 1
            if self.cache is not None:
                assert keys[i] is not None
                self.cache.store(keys[i], jobs[i], result)
            deliver(i, result)

        if len(pending) > 1 and self.jobs > 1:
            workers = min(self.jobs, len(pending))
            from concurrent.futures import as_completed

            with self._acquire_pool(workers) as pool:
                futures = {}
                for i in pending:
                    if i in cancel_requested:  # cancelled by a hit delivery
                        self.stats.cancelled += 1
                        done[i] = True
                        continue
                    futures[pool.submit(_execute_job, factory, jobs[i])] = i
                try:
                    for future in as_completed(list(futures)):
                        i = futures[future]
                        if future.cancelled():
                            self.stats.cancelled += 1
                            done[i] = True
                            continue
                        value, counters = future.result()
                        self._merge_counters(counters)
                        record(i, value)
                        if cancel_requested:
                            for fut, j in futures.items():
                                if j in cancel_requested and not fut.done():
                                    fut.cancel()
                except BaseException:
                    for future in futures:  # as in _run_flat
                        future.cancel()
                    raise
        else:
            with plans_diagnosed():
                _drained_counters()  # not ours: accumulated outside the engine
                for i in pending:
                    if i in cancel_requested:
                        self.stats.cancelled += 1
                        done[i] = True
                        continue
                    record(i, jobs[i].execute(factory))
                self._merge_counters(_drained_counters())

        if any(jobs[i].kind == "sim" for i in executed):
            self.used_backends.add(self.backend_name)
        return results


# ---------------------------------------------------------------------- #
# Process-wide default engine
# ---------------------------------------------------------------------- #
_default_engine: Optional[SimEngine] = None


def _env_jobs() -> int:
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"REPRO_JOBS must be an integer, got {raw!r}") from None


def configure_default_engine(
    backend: Optional[str] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Union[None, str, Path, ResultCache] = None,
) -> SimEngine:
    """Install the process-wide default engine (CLI flags land here).

    Each ``None`` argument falls back to its environment default
    (``REPRO_BACKEND``, ``REPRO_JOBS``, ``REPRO_NO_CACHE``); explicit
    arguments win without the environment value even being parsed.
    """
    global _default_engine
    _default_engine = SimEngine(
        backend=backend or os.environ.get("REPRO_BACKEND") or "vector",
        jobs=jobs if jobs is not None else _env_jobs(),
        use_cache=use_cache
        if use_cache is not None
        else os.environ.get("REPRO_NO_CACHE", "") not in ("1", "true", "yes"),
        cache_dir=cache_dir,
    )
    return _default_engine


def default_engine() -> SimEngine:
    """The process-wide engine, created from the environment on first use."""
    global _default_engine
    if _default_engine is None:
        _default_engine = configure_default_engine()
    return _default_engine


def reset_default_engine() -> None:
    """Drop the installed default engine (tests / re-configuration)."""
    global _default_engine
    _default_engine = None


@contextmanager
def engine_context(engine: SimEngine):
    """Temporarily install ``engine`` as the process default.

    The orchestrator uses this so every runner's ``default_engine()``
    call resolves to the sweep's engine, then restores whatever was
    installed before (including "nothing").
    """
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    try:
        yield engine
    finally:
        _default_engine = previous
