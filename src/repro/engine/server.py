"""The serve-mode engine daemon (``read-repro serve``).

:class:`EngineServer` keeps one warm :class:`~repro.engine.scheduler.
SimEngine` resident — persistent process pool, per-worker bundle/plan/
pass memos, shared :class:`~repro.engine.cache.ResultCache` — and serves
job batches to any number of concurrent clients over a Unix domain
socket (see :mod:`repro.engine.protocol` for the framing and
:mod:`repro.engine.client` for the caller side).

**Coalescing** is the daemon's reason to exist beyond warmth: identical
jobs submitted by different clients while one is already in flight
attach to that computation instead of re-simulating — one simulation, N
responses.  The granularity is the *flat* job key (``NetworkJob``\\ s
are expanded first, mirroring ``run_many``'s cache fan-out), so two
clients coalesce even when one stacked its submission and the other did
not.  The in-flight registry maps ``key -> _Inflight`` (an event plus
the eventual result); a claimant that loses the race waits on the
event.  If the owning computation is cancelled or fails, waiters
recompute for themselves — coalescing is an optimization, never a new
failure mode.

**Execution is serialized** through one internal lock: concurrent
requests interleave at the claim/wait layer (which is where coalescing
happens — a waiting request consumes no engine at all), while distinct
work runs through the engine one batch at a time, sharing its process
pool at full width.  Per-request counter deltas (hits / misses /
deduped / coalesced / cancelled) are derived per request and folded into
one :class:`~repro.engine.scheduler.EngineMetrics`, which the
``metrics`` verb reports and clients merge into their own stats.
"""

from __future__ import annotations

import os
import resource
import socket
import threading
import time
import traceback
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cache import ResultCache
from .job import EngineJob, NetworkJob
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_jobs,
    encode_result,
    recv_message,
    send_message,
)
from .scheduler import EngineMetrics, SimEngine

#: How often the accept loop wakes to check for shutdown.
_ACCEPT_POLL_SECONDS = 0.2


class _Inflight:
    """One in-flight computation other clients can attach to."""

    __slots__ = ("event", "result", "error", "cancelled")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: object = None
        self.error: Optional[BaseException] = None
        self.cancelled = False


def _rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes (Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class EngineServer:
    """A resident engine behind a Unix-socket request loop."""

    def __init__(
        self,
        socket_path: str,
        backend: Optional[str] = None,
        jobs: Optional[int] = None,
        use_cache: bool = True,
        cache_dir=None,
    ):
        self.socket_path = Path(socket_path)
        # The daemon's engine: hot pool across requests, and remote
        # routing hard-disabled — an engine that consulted
        # $REPRO_ENGINE_SOCKET here would connect back to itself.
        self.engine = SimEngine(
            backend=backend or "vector",
            jobs=jobs if jobs is not None else max(1, (os.cpu_count() or 2) - 1),
            use_cache=use_cache,
            cache_dir=cache_dir,
            keep_pool=True,
            remote=False,
        )
        self.metrics = EngineMetrics()
        self.started = time.time()
        self._metrics_lock = threading.Lock()
        self._inflight: Dict[str, _Inflight] = {}
        self._inflight_lock = threading.Lock()
        #: Serializes engine executions (claim/wait stays concurrent).
        self._run_lock = threading.Lock()
        self._stop = threading.Event()
        self._listener: Optional[socket.socket] = None
        #: Test hook: called (with the request's flat job count) after a
        #: batch claims its work and before it executes — lets the
        #: coalescing tests hold the first batch open deterministically.
        self._before_execute = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def serve_forever(self, ready: Optional[threading.Event] = None) -> None:
        """Bind, listen, and serve until :meth:`shutdown` (or the verb)."""
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            # A stale socket file from a dead daemon would fail bind();
            # a live daemon would still be accepting on it — probe.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(1.0)
                probe.connect(str(self.socket_path))
            except OSError:
                self.socket_path.unlink(missing_ok=True)
            else:
                probe.close()
                raise OSError(
                    f"another engine daemon is already serving {self.socket_path}"
                )
            finally:
                probe.close()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(str(self.socket_path))
            listener.listen(64)
            listener.settimeout(_ACCEPT_POLL_SECONDS)
            self._listener = listener
            if ready is not None:
                ready.set()
            while not self._stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                threading.Thread(
                    target=self._handle_connection, args=(conn,), daemon=True
                ).start()
        finally:
            self._listener = None
            listener.close()
            self.socket_path.unlink(missing_ok=True)
            self.engine.close()

    def shutdown(self) -> None:
        """Stop the accept loop (in-flight requests finish their reply)."""
        self._stop.set()

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    def _handle_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    header, blobs = recv_message(conn)
                except EOFError:
                    return
                except (ProtocolError, OSError):
                    return
                try:
                    if not self._dispatch(conn, header, blobs):
                        return
                except OSError:
                    return  # client went away mid-reply
                except Exception as exc:  # noqa: BLE001 — reply, don't die
                    traceback.print_exc()
                    try:
                        send_message(conn, {"ok": False, "error": str(exc)})
                    except OSError:
                        return

    def _dispatch(
        self, conn: socket.socket, header: Dict[str, object], blobs: List[bytes]
    ) -> bool:
        """Serve one message; False ends the connection (shutdown verb)."""
        verb = header.get("verb")
        if verb == "ping":
            send_message(
                conn,
                {
                    "ok": True,
                    "pid": os.getpid(),
                    "protocol": PROTOCOL_VERSION,
                    "backend": self.engine.backend_name,
                },
            )
        elif verb == "status":
            send_message(conn, {"ok": True, **self._status()})
        elif verb == "metrics":
            send_message(conn, {"ok": True, **self._metrics_dump()})
        elif verb == "shutdown":
            send_message(conn, {"ok": True, "pid": os.getpid()})
            self.shutdown()
            return False
        elif verb == "cache_stats":
            cache = self._require_cache()
            send_message(conn, {"ok": True, "stats": cache.stats().as_dict()})
        elif verb == "cache_gc":
            cache = self._require_cache()
            raw = header.get("max_bytes")
            report = cache.gc(max_bytes=int(raw) if raw is not None else None)
            send_message(conn, {"ok": True, "report": report.as_dict()})
        elif verb == "submit":
            jobs = decode_jobs(blobs[0]) if blobs else []
            if header.get("mode") == "stream":
                # A stream owns its connection: its cancel-reader thread
                # keeps recv'ing until the peer closes, so no further
                # request may share this socket.
                self._handle_stream(conn, jobs)
                return False
            self._handle_batch(conn, jobs)
        else:
            raise ProtocolError(f"unknown verb {verb!r}")
        return True

    def _require_cache(self) -> ResultCache:
        cache = self.engine.cache
        if cache is None:
            raise ProtocolError("this daemon runs with the cache disabled")
        return cache

    @staticmethod
    def _arena_stats() -> Optional[Dict[str, object]]:
        """Registry snapshot of the operand arena (None when disabled)."""
        from .arena import default_arena

        arena = default_arena()
        return arena.stats().as_dict() if arena is not None else None

    def _status(self) -> Dict[str, object]:
        cache = self.engine.cache
        return {
            "pid": os.getpid(),
            "socket": str(self.socket_path),
            "backend": self.engine.backend_name,
            "jobs": self.engine.jobs,
            "uptime_seconds": time.time() - self.started,
            "inflight": len(self._inflight),
            "rss_kb": _rss_kb(),
            "cache": cache.stats().as_dict() if cache is not None else None,
            "arena": self._arena_stats(),
        }

    def _metrics_dump(self) -> Dict[str, object]:
        with self._metrics_lock:
            counters = self.metrics.as_dict()
        cache = self.engine.cache
        return {
            "metrics": counters,
            "uptime_seconds": time.time() - self.started,
            "rss_kb": _rss_kb(),
            "cache": cache.stats().as_dict() if cache is not None else None,
            "arena": self._arena_stats(),
        }

    # ------------------------------------------------------------------ #
    # Coalescing core
    # ------------------------------------------------------------------ #
    def _claim(
        self, unique: "OrderedDict[str, EngineJob]"
    ) -> Tuple[Dict[str, _Inflight], Dict[str, _Inflight]]:
        """Partition unique keys into owned (we compute) and waited."""
        owned: Dict[str, _Inflight] = {}
        waited: Dict[str, _Inflight] = {}
        with self._inflight_lock:
            for key in unique:
                inflight = self._inflight.get(key)
                if inflight is None:
                    inflight = _Inflight()
                    self._inflight[key] = inflight
                    owned[key] = inflight
                else:
                    waited[key] = inflight
        return owned, waited

    def _resolve(
        self,
        owned: Dict[str, _Inflight],
        results: Optional[Dict[str, object]] = None,
        error: Optional[BaseException] = None,
        cancelled: bool = False,
    ) -> None:
        """Publish owned outcomes and wake every attached waiter."""
        with self._inflight_lock:
            for key in owned:
                self._inflight.pop(key, None)
        for key, inflight in owned.items():
            if results is not None and key in results:
                inflight.result = results[key]
            inflight.error = error
            inflight.cancelled = cancelled and (
                results is None or key not in results
            )
            inflight.event.set()

    def _await_or_recompute(self, key: str, inflight: _Inflight, job: EngineJob):
        """Collect a waited result; recompute if the owner never produced it.

        The owner may have been cancelled (its client's early stopping)
        or errored; either way this request still owes its client a
        result, and the cache-then-execute path in ``run`` handles both
        (an errored job will re-raise here, now attributed to us).
        """
        inflight.event.wait()
        if inflight.error is None and not inflight.cancelled:
            return inflight.result
        with self._run_lock:
            return self.engine.run(job)

    def _record(self, delta: Dict[str, object], elapsed: float) -> Dict[str, object]:
        """Fold a per-request counter delta into the daemon metrics."""
        with self._metrics_lock:
            self.metrics.merge(delta)
            self.metrics.requests += 1
            self.metrics.latency_seconds += elapsed
        delta = dict(delta)
        delta["backend"] = self.engine.backend_name
        return delta

    def _run_counted(self, fn):
        """Run one engine call under the run lock, capturing the runtime
        work-avoidance counters (deduped trials, arena traffic)
        it accumulated — the per-request delta the job-outcome counters
        in ``_handle_batch``/``_handle_stream`` cannot see, because the
        engine folds them straight into its lifetime stats."""
        with self._run_lock:
            before = self.engine.stats.snapshot()
            value = fn()
            diff = self.engine.stats.since(before)
        return value, {
            "trials_pruned": diff.trials_pruned,
            "trials_deduped": diff.trials_deduped,
            "arena_hits": diff.arena_hits,
            "arena_stores": diff.arena_stores,
        }

    # ------------------------------------------------------------------ #
    # submit: batch mode
    # ------------------------------------------------------------------ #
    def _handle_batch(self, conn: socket.socket, submitted: List[EngineJob]) -> None:
        start = time.perf_counter()
        # NetworkJob fan-out mirrors run_many: coalescing and accounting
        # happen per member key, so stacked and flat submissions of the
        # same work coalesce with each other.
        spans: List[Tuple[int, int, bool]] = []
        flat: List[EngineJob] = []
        for job in submitted:
            if isinstance(job, NetworkJob):
                spans.append((len(flat), len(job.jobs), True))
                flat.extend(job.jobs)
            else:
                spans.append((len(flat), 1, False))
                flat.append(job)
        for job in flat:
            job.check()
        keys = [job.key() for job in flat]
        unique: "OrderedDict[str, EngineJob]" = OrderedDict()
        occurrences: Dict[str, int] = {}
        for key, job in zip(keys, flat):
            unique.setdefault(key, job)
            occurrences[key] = occurrences.get(key, 0) + 1

        owned, waited = self._claim(unique)
        if self._before_execute is not None:
            self._before_execute(len(flat))
        cache = self.engine.cache
        probed_hits = sum(
            1 for key in owned if cache is not None and cache.has(key)
        )
        owned_jobs = [unique[key] for key in owned]
        try:
            owned_results, runtime_delta = self._run_counted(
                lambda: self.engine.run_many(owned_jobs)
            )
        except BaseException as exc:
            self._resolve(owned, error=exc)
            raise
        by_key = dict(zip(owned, owned_results))
        self._resolve(owned, results=by_key)
        for key, inflight in waited.items():
            by_key[key] = self._await_or_recompute(key, inflight, unique[key])

        flat_results = [by_key[key] for key in keys]
        results: List[object] = [
            list(flat_results[s : s + n]) if stacked else flat_results[s]
            for s, n, stacked in spans
        ]
        blobs = [
            encode_result(job, result) for job, result in zip(submitted, results)
        ]
        coalesced = sum(occurrences[key] for key in waited)
        delta = self._record(
            {
                "hits": probed_hits,
                "misses": len(owned) - probed_hits,
                "deduped": sum(occurrences[key] - 1 for key in owned),
                "coalesced": coalesced,
                **runtime_delta,
            },
            time.perf_counter() - start,
        )
        send_message(conn, {"ok": True, "stats": delta}, blobs)

    # ------------------------------------------------------------------ #
    # submit: stream mode
    # ------------------------------------------------------------------ #
    def _handle_stream(self, conn: socket.socket, jobs: List[EngineJob]) -> None:
        start = time.perf_counter()
        for job in jobs:
            job.check()
        keys = [job.key() for job in jobs]
        key_indices: Dict[str, List[int]] = {}
        unique: "OrderedDict[str, EngineJob]" = OrderedDict()
        for i, (key, job) in enumerate(zip(keys, jobs)):
            key_indices.setdefault(key, []).append(i)
            unique.setdefault(key, job)
        owned, waited = self._claim(unique)
        if self._before_execute is not None:
            self._before_execute(len(jobs))

        send_lock = threading.Lock()
        results: List[Optional[object]] = [None] * len(jobs)
        delivered: Set[str] = set()

        def send(header: Dict[str, object], blobs: Sequence[bytes] = ()) -> None:
            with send_lock:
                send_message(conn, header, blobs)

        def deliver_key(key: str, result: object) -> None:
            delivered.add(key)
            for i in key_indices[key]:
                results[i] = result
                send({"type": "result", "index": i}, [encode_result(jobs[i], result)])

        # Cancellation requests arrive on the same socket while results
        # stream out; a reader thread collects the client's original
        # indices and the on_result hook below converts the ones we own
        # into engine-local cancellations.
        cancel_lock = threading.Lock()
        cancel_original: Set[int] = set()

        def read_cancels() -> None:
            while True:
                try:
                    header, _ = recv_message(conn)
                except (EOFError, ProtocolError, OSError):
                    return
                if header.get("type") == "cancel":
                    with cancel_lock:
                        for j in header.get("indices", ()):
                            cancel_original.add(int(j))

        reader = threading.Thread(target=read_cancels, daemon=True)
        reader.start()

        # Waiters for keys some other request is computing: each sends
        # its frames the moment the owning computation publishes.
        def waiter(key: str) -> None:
            result = self._await_or_recompute(key, waited[key], unique[key])
            try:
                deliver_key(key, result)
            except OSError:
                pass  # client went away; the result is cached regardless

        waiter_threads = [
            threading.Thread(target=waiter, args=(key,), daemon=True)
            for key in waited
        ]
        for thread in waiter_threads:
            thread.start()

        cache = self.engine.cache
        probed_hits = sum(1 for key in owned if cache is not None and cache.has(key))
        owned_keys = list(owned)
        owned_jobs = [unique[key] for key in owned_keys]
        local_index = {key: li for li, key in enumerate(owned_keys)}

        def on_result(li: int, result: object) -> List[int]:
            key = owned_keys[li]
            self._resolve({key: owned[key]}, results={key: result})
            deliver_key(key, result)
            with cancel_lock:
                requested = list(cancel_original)
                cancel_original.clear()
            cancels: List[int] = []
            for j in requested:
                if 0 <= j < len(jobs):
                    jkey = keys[j]
                    if jkey in local_index and jkey not in delivered:
                        cancels.append(local_index[jkey])
            return cancels

        error: Optional[BaseException] = None
        runtime_delta: Dict[str, int] = {}
        try:
            _, runtime_delta = self._run_counted(
                lambda: self.engine.run_stream(owned_jobs, on_result)
            )
        except BaseException as exc:  # noqa: BLE001 — publish, then report
            error = exc
        # Anything we still own produced no result: cancelled (or the
        # run died).  Publish so attached waiters recompute for
        # themselves instead of blocking forever.
        leftovers = {
            key: owned[key] for key in owned_keys if key not in delivered
        }
        self._resolve(leftovers, error=error, cancelled=error is None)
        for thread in waiter_threads:
            thread.join()
        if error is not None:
            send({"type": "error", "error": str(error)})
            return

        cancelled_indices = [i for i, r in enumerate(results) if r is None]
        cancelled_keys = {keys[i] for i in cancelled_indices}
        delta = self._record(
            {
                "hits": probed_hits,
                "misses": len(owned) - probed_hits - len(cancelled_keys),
                "cancelled": len(cancelled_indices),
                "coalesced": sum(len(key_indices[key]) for key in waited),
                **runtime_delta,
            },
            time.perf_counter() - start,
        )
        send(
            {"type": "done", "stats": delta, "cancelled": cancelled_indices}
        )


def serve(
    socket_path: str,
    backend: Optional[str] = None,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    cache_dir=None,
    ready: Optional[threading.Event] = None,
) -> EngineServer:
    """Build an :class:`EngineServer` and serve until shutdown (blocking)."""
    server = EngineServer(
        socket_path,
        backend=backend,
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
    )
    server.serve_forever(ready=ready)
    return server
