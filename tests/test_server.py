"""Engine daemon tests: protocol, coalescing, routing, lifecycle.

The serve-mode contract this module pins:

* a daemon-routed batch is **bit-identical** to in-process execution
  (same jobs, same cache serializers — a round trip is a cache hit by
  construction); ``run_many`` expands a stacked ``NetworkJob`` before it
  routes, and the daemon refuses one sent to it directly;
* identical jobs submitted by concurrent clients **coalesce**: exactly
  one simulation per unique key, every client gets the result, and the
  ``coalesced`` counter says so;
* with ``$REPRO_ENGINE_SOCKET`` set, ``run_many``/``run_stream`` route
  transparently — stats fold back into the client engine — and fall
  back in-process (with one RuntimeWarning) when no daemon answers, or
  when it dies before a callback consumed a result;
* ``run_many`` and ``run_stream`` agree inline, on a pool and routed;
* results arrive frame-by-frame with mid-flight cancellation;
* a SIGKILLed daemon loses nothing: restart + resubmit is 100% cache
  hits (the kill-and-restart mirror of the campaign's SIGTERM chain);
* 50 request rounds leave the daemon's RSS bounded;
* a daemon-routed ``run_all`` sweep writes the same manifest as an
  in-process one, modulo the volatile ``run`` block.
"""

import hashlib
import json
import os
import signal as signal_mod
import socket as socket_mod
import subprocess
import sys
import threading
import time
import warnings as warnings_mod
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    ENGINE_SOCKET_ENV,
    EngineClient,
    EngineClientError,
    EngineJob,
    EngineMetrics,
    EngineServer,
    EngineStats,
    NetworkJob,
    SimEngine,
    SimJob,
    feed_hash,
)
from repro.engine import client as client_module
from repro.engine.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_jobs,
    decode_result,
    encode_result,
    recv_message,
    send_frame,
    send_message,
)
from repro.engine.server import _rss_kb
from repro.experiments import SCALES, run_all
from repro.faults.injection_job import InjectionJob, InjectionResult
from repro.hw.variations import PAPER_CORNERS

pytestmark = pytest.mark.concurrency

REPO_ROOT = Path(__file__).resolve().parents[1]
MICRO = SCALES["micro"]


def make_job(seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    kwargs.setdefault("corners", PAPER_CORNERS[:2])
    kwargs.setdefault("group_size", 4)
    return SimJob(
        acts=rng.integers(0, 128, size=(9, 16)),
        weights=rng.integers(-64, 64, size=(16, 8)),
        **kwargs,
    )


@dataclass(frozen=True)
class SlowJob(EngineJob):
    """Test-only job: sleeps ``delay`` seconds, returns ``value * 2``
    (or raises, with ``fail``)."""

    value: int = 0
    delay: float = 0.0
    fail: bool = False

    kind = "slow"

    def key(self) -> str:
        h = hashlib.sha256()
        feed_hash(h, "test-slowjob", self.value, self.delay, self.fail)
        return h.hexdigest()

    def execute(self, backend_factory):
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError(f"slow job {self.value} failed")
        return self.value * 2

    @staticmethod
    def serialize_result(result):
        return {"value": np.array(result, dtype=np.int64)}

    @staticmethod
    def deserialize_result(data):
        return int(data["value"])


@pytest.fixture()
def server(tmp_path):
    """An in-thread daemon on a fresh socket with its own cache."""
    instance = EngineServer(
        str(tmp_path / "engine.sock"),
        backend="vector",
        jobs=1,
        cache_dir=tmp_path / "daemon-cache",
    )
    ready = threading.Event()
    thread = threading.Thread(
        target=instance.serve_forever, kwargs={"ready": ready}, daemon=True
    )
    thread.start()
    assert ready.wait(10), "daemon did not come up"
    yield instance
    instance.shutdown()
    thread.join(10)
    assert not thread.is_alive()


@pytest.fixture()
def client(server):
    return EngineClient(str(server.socket_path))


def hold_first_request(server):
    """Park the daemon's first request after it claims its keys, until a
    second request has claimed (and so attached to) the same keys.

    Returns the list of claim sizes, which fills as requests arrive.
    """
    gate = threading.Event()
    claims = []

    def hold(n_flat):
        claims.append(n_flat)
        if len(claims) == 1:
            assert gate.wait(20), "second request never arrived"
        else:
            gate.set()

    server._before_execute = hold
    return claims


def wait_for_claim(claims):
    deadline = time.time() + 20
    while not claims and time.time() < deadline:
        time.sleep(0.005)
    assert claims, "first request never claimed"


def solo_results(jobs):
    """In-process ground truth (cacheless, no daemon)."""
    return SimEngine(backend="vector", use_cache=False, remote=False).run_many(jobs)


def assert_reports_identical(a, b):
    assert set(a) == set(b)
    for name in a:
        assert a[name].ter == b[name].ter
        assert a[name].sign_flip_rate == b[name].sign_flip_rate
        assert np.array_equal(a[name].outputs, b[name].outputs)
        assert a[name].n_cycles == b[name].n_cycles


# ---------------------------------------------------------------------- #
# Wire protocol
# ---------------------------------------------------------------------- #
class TestProtocol:
    def test_message_round_trip(self):
        left, right = socket_mod.socketpair()
        with left, right:
            send_message(left, {"verb": "x", "n": 3}, [b"alpha", b""])
            header, blobs = recv_message(right)
            assert header["verb"] == "x" and header["n"] == 3
            assert blobs == [b"alpha", b""]

    def test_clean_close_is_eof_mid_frame_is_protocol_error(self):
        left, right = socket_mod.socketpair()
        with right:
            left.close()
            with pytest.raises(EOFError):
                recv_message(right)
        left, right = socket_mod.socketpair()
        with right:
            left.sendall(b"\x00\x00\x00\x10abc")  # promises 16 bytes, sends 3
            left.close()
            with pytest.raises(ProtocolError):
                recv_message(right)

    def test_garbage_header_is_protocol_error(self):
        left, right = socket_mod.socketpair()
        with left, right:
            send_frame(left, b"\xff\xfenot json")
            with pytest.raises(ProtocolError):
                recv_message(right)

    def test_oversized_frame_rejected(self):
        left, right = socket_mod.socketpair()
        with left, right:
            left.sendall(b"\xff\xff\xff\xff")  # 4 GiB length prefix
            with pytest.raises(ProtocolError):
                recv_message(right)

    def test_result_frame_round_trip_is_byte_identical(self):
        """Result frames decode through the cache's one-read path."""
        sim = make_job(5)
        injection = InjectionResult(
            trial_accuracies=(0.25, 0.5), flips_injected=3,
            trial_correct=(8, 16), n_images=32,
        )
        # The codecs only use the job's (static) serializers.
        for job, result in ((sim, solo_results([sim])[0]), (InjectionJob, injection)):
            decoded = decode_result(job, encode_result(job, result))
            before = job.serialize_result(result)
            after = job.serialize_result(decoded)
            assert list(before) == list(after)
            for name, array in before.items():
                assert after[name].dtype == array.dtype, name
                assert after[name].tobytes() == array.tobytes(), name
        assert decoded == injection


# ---------------------------------------------------------------------- #
# EngineMetrics
# ---------------------------------------------------------------------- #
class TestEngineMetrics:
    def test_stats_is_a_metrics(self):
        assert isinstance(EngineStats(), EngineMetrics)

    def test_describe_mentions_coalesced_only_when_nonzero(self):
        stats = EngineStats(hits=2, misses=1)
        assert "coalesced" not in stats.describe()
        stats.coalesced = 3
        assert ", 3 coalesced" in stats.describe()
        assert stats.total == 6

    def test_merge_folds_known_keys_and_ignores_the_rest(self):
        stats = EngineStats(hits=1)
        stats.merge({"hits": 2, "coalesced": 4, "backend": "vector", "junk": 9})
        assert stats.hits == 3 and stats.coalesced == 4

    def test_snapshot_and_since_cover_every_counter(self):
        stats = EngineStats(hits=1, coalesced=2, requests=3, latency_seconds=0.5)
        earlier = stats.snapshot()
        stats.merge({"hits": 1, "coalesced": 1, "latency_seconds": 0.25})
        delta = stats.since(earlier)
        assert (delta.hits, delta.coalesced) == (1, 1)
        assert delta.latency_seconds == pytest.approx(0.25)
        assert type(earlier) is EngineStats


# ---------------------------------------------------------------------- #
# Verbs and batch submission
# ---------------------------------------------------------------------- #
class TestServerBasics:
    def test_ping_status_metrics(self, server, client, monkeypatch):
        pong = client.ping()
        assert pong["pid"] == os.getpid() and pong["backend"] == "vector"
        assert pong["protocol"] == PROTOCOL_VERSION == 2
        status = client.status()
        assert status["jobs"] == 1 and status["inflight"] == 0
        assert status["cache"]["entries"] == 0
        metrics = client.metrics()
        assert metrics["metrics"]["requests"] == 0
        assert metrics["rss_kb"] > 0
        # a client of the previous protocol refuses this daemon (and so
        # falls back in-process)
        monkeypatch.setattr(client_module, "PROTOCOL_VERSION", 1)
        with pytest.raises(EngineClientError, match="speaks protocol 2"):
            client.ping()

    def test_batch_bit_identical_and_warm_resubmit(self, server, client):
        jobs = [make_job(seed) for seed in range(3)]
        results, delta = client.submit(jobs)
        assert delta["hits"] == 0 and delta["misses"] == 3
        for got, want in zip(results, solo_results(jobs)):
            assert_reports_identical(got, want)
        # warm daemon resubmit: 0 simulated
        rewarm, delta2 = client.submit(jobs)
        assert delta2["hits"] == 3 and delta2["misses"] == 0
        for got, want in zip(rewarm, results):
            assert_reports_identical(got, want)
        counters = client.metrics()["metrics"]
        assert counters["misses"] == 3 and counters["hits"] == 3
        assert counters["requests"] == 2 and counters["latency_seconds"] > 0

    def test_network_job_rides_flat_submissions_cache(
        self, server, client, monkeypatch
    ):
        # run_many expands a NetworkJob before it routes, so its members
        # coalesce with an in-flight flat submission of the same jobs.
        jobs = [make_job(seed) for seed in (7, 8)]
        claims = hold_first_request(server)
        flat = {}

        def flat_client():
            flat["results"], flat["stats"] = EngineClient(
                str(server.socket_path)
            ).submit(jobs)

        thread = threading.Thread(target=flat_client)
        thread.start()
        wait_for_claim(claims)
        monkeypatch.setenv(ENGINE_SOCKET_ENV, str(server.socket_path))
        engine = SimEngine(backend="vector", use_cache=False)
        stacked = engine.run_many([NetworkJob(jobs=tuple(jobs))])
        thread.join(30)
        assert not thread.is_alive()
        assert claims == [2, 2]  # the daemon saw two flat jobs each time
        assert flat["stats"]["misses"] == 2
        assert engine.stats.coalesced == 2 and engine.stats.misses == 0
        assert isinstance(stacked[0], list) and len(stacked[0]) == 2
        for got, want in zip(stacked[0], flat["results"]):
            assert_reports_identical(got, want)
        # cached per member key only
        assert client.cache_stats()["stats"]["entries"] == 2

    def test_network_job_is_refused_and_stores_nothing(self, server, client):
        stacked = NetworkJob(jobs=(make_job(9), make_job(10)))
        with pytest.raises(EngineClientError, match="flat jobs"):
            client.submit([stacked])
        assert client.cache_stats()["stats"]["entries"] == 0
        assert server.metrics.requests == 0
        assert client.ping()["ok"]  # the daemon survives

    def test_duplicate_keys_within_a_batch_dedupe(self, server, client):
        job = make_job(21)
        results, delta = client.submit([job, job, job])
        assert delta["misses"] == 1 and delta["deduped"] == 2
        assert_reports_identical(results[0], results[2])

    def test_cache_verbs(self, server, client):
        client.submit([make_job(31)])
        stats = client.cache_stats()["stats"]
        assert stats["entries"] == 1 and stats["bytes"] > 0
        report = client.cache_gc(max_bytes=0)["report"]
        assert report["evicted"] == 1 and report["entries"] == 0

    def test_unknown_verb_is_an_error_reply(self, server, client):
        with pytest.raises(EngineClientError, match="unknown verb"):
            client._request({"verb": "frobnicate"})

    def test_undecodable_submission_reports_error_daemon_survives(
        self, server, client
    ):
        with pytest.raises(EngineClientError):
            client._request({"verb": "submit"}, [b"garbage"])
        assert client.ping()["ok"]


# ---------------------------------------------------------------------- #
# Transparent routing ($REPRO_ENGINE_SOCKET)
# ---------------------------------------------------------------------- #
class TestRouting:
    def test_run_many_routes_and_folds_stats(self, server, monkeypatch):
        monkeypatch.setenv(ENGINE_SOCKET_ENV, str(server.socket_path))
        jobs = [make_job(seed) for seed in range(4)]
        engine = SimEngine(backend="reference", use_cache=False)
        results = engine.run_many(jobs)
        for got, want in zip(results, solo_results(jobs)):
            assert_reports_identical(got, want)
        assert engine.stats.requests == 1
        assert engine.stats.misses == 4 and engine.stats.latency_seconds > 0
        # the daemon simulated on ITS backend; the summary reports it
        assert engine.effective_backend() == "vector"
        warm = SimEngine(backend="reference", use_cache=False)
        warm.run_many(jobs)
        assert warm.stats.hits == 4 and warm.stats.misses == 0
        assert ", 0 simulated" in warm.stats.describe()

    def test_run_stream_routes_with_cancellation(self, server, monkeypatch):
        monkeypatch.setenv(ENGINE_SOCKET_ENV, str(server.socket_path))
        jobs = [SlowJob(value=1), SlowJob(value=2, delay=0.5), SlowJob(value=3)]
        engine = SimEngine(use_cache=False)
        seen = []

        def cancel_last(i, result):
            seen.append((i, result))
            return [2] if i == 0 else None

        results = engine.run_stream(jobs, cancel_last)
        assert results[:2] == [2, 4]
        # job 2 was cancelled server-side while job 1 slept
        assert results[2] is None
        assert seen[0] == (0, 2)
        assert engine.stats.cancelled == 1 and engine.stats.requests == 1
        assert server.metrics.cancelled == 1

    @pytest.mark.parametrize("route", ["inline", "jobs2", "daemon"])
    def test_run_many_and_run_stream_agree(self, server, tmp_path, monkeypatch, route):
        jobs = [make_job(seed, corners=PAPER_CORNERS[:1]) for seed in (70, 71, 72)]
        batch = [jobs[0], jobs[1], jobs[0], jobs[2], jobs[1]]  # two duplicates

        def engine_with_one_warm_entry(name):
            # jobs[2] is a cache hit, jobs[0] and jobs[1] simulate
            if route == "daemon":
                client = EngineClient(str(server.socket_path))
                client.cache_gc(max_bytes=0)
                client.submit([jobs[2]])
                monkeypatch.setenv(ENGINE_SOCKET_ENV, str(server.socket_path))
                return SimEngine(use_cache=False)
            engine = SimEngine(
                jobs=2 if route == "jobs2" else 1,
                cache_dir=tmp_path / name,
                remote=False,
            )
            engine.run(jobs[2])
            return engine

        def counted(engine, method, *args):
            before = engine.stats.snapshot()
            results = getattr(engine, method)(*args)
            delta = engine.stats.since(before)
            return results, (delta.hits, delta.misses, delta.deduped, delta.units)

        engine = engine_with_one_warm_entry("many")
        many, many_counts = counted(engine, "run_many", batch)
        # a NetworkJob's result is its members' flat results
        stacked, _ = counted(engine, "run_many", [NetworkJob(jobs=tuple(batch))])
        seen = []
        streamed, stream_counts = counted(
            engine_with_one_warm_entry("stream"),
            "run_stream",
            batch,
            lambda i, result: seen.append(i),
        )
        assert many_counts == stream_counts
        assert many_counts[:3] == (1, 2, 2) and many_counts[3] >= 1
        assert sorted(seen) == list(range(len(batch)))
        assert len(stacked) == 1 and len(stacked[0]) == len(batch)
        for got_many, got_stacked, got_stream, want in zip(
            many, stacked[0], streamed, solo_results(batch)
        ):
            for got in (got_many, got_stacked, got_stream):
                assert_reports_identical(got, want)

    def test_daemon_dying_mid_reply(self, tmp_path, monkeypatch):
        """run_many falls back; a stream whose callback saw a result raises."""
        socket_path = tmp_path / "dying.sock"
        listener = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        listener.bind(str(socket_path))
        listener.listen(8)
        listener.settimeout(0.2)
        stop = threading.Event()

        def serve():
            # answers ping, then dies after a submission's first result
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket_mod.timeout:
                    continue
                with conn:
                    header, blobs = recv_message(conn)
                    if header["verb"] == "ping":
                        send_message(conn, {"ok": True, "protocol": PROTOCOL_VERSION})
                        continue
                    first = decode_jobs(blobs[0])[0]
                    send_message(
                        conn,
                        {"type": "result", "index": 0},
                        [encode_result(first, first.execute(None))],
                    )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv(ENGINE_SOCKET_ENV, str(socket_path))
            jobs = [SlowJob(value=v) for v in (1, 2, 3)]
            engine = SimEngine(use_cache=False)
            with pytest.warns(RuntimeWarning, match="falling back to in-process"):
                assert engine.run_many(jobs) == [2, 4, 6]
            assert engine.stats.requests == 0 and engine.stats.misses == 3
            seen = []
            with pytest.raises(EngineClientError, match="submit failed"):
                SimEngine(use_cache=False).run_stream(
                    jobs, lambda i, result: seen.append((i, result))
                )
            assert seen == [(0, 2)]
        finally:
            stop.set()
            thread.join(10)
            listener.close()

    def test_fallback_warns_once_and_runs_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENGINE_SOCKET_ENV, str(tmp_path / "nobody-home.sock"))
        engine = SimEngine(backend="vector", use_cache=False)
        jobs = [make_job(17)]
        with pytest.warns(RuntimeWarning, match="falling back to in-process"):
            results = engine.run_many(jobs)
        assert_reports_identical(results[0], solo_results(jobs)[0])
        assert engine.stats.requests == 0 and engine.stats.misses == 1
        # the probe failure is latched: no second warning, no re-probe
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error", RuntimeWarning)
            engine.run_many(jobs)

    def test_fallback_latch_expires_and_reattaches(self, tmp_path, monkeypatch):
        from repro.engine import scheduler

        socket_path = tmp_path / "late-daemon.sock"
        monkeypatch.setenv(ENGINE_SOCKET_ENV, str(socket_path))
        # zero-width window: every batch after the latch re-probes
        monkeypatch.setattr(scheduler, "REMOTE_REPROBE_SECONDS", 0.0)
        engine = SimEngine(backend="vector", use_cache=False)
        jobs = [make_job(23)]
        with pytest.warns(RuntimeWarning, match="falling back to in-process"):
            engine.run_many(jobs)
        assert engine.stats.requests == 0 and engine.stats.misses == 1
        # daemon still down: the re-probe fails again, silently
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error", RuntimeWarning)
            engine.run_many(jobs)
        assert engine.stats.requests == 0
        # daemon comes up on the same socket: the next batch reattaches
        instance = EngineServer(
            str(socket_path),
            backend="vector",
            jobs=1,
            cache_dir=tmp_path / "daemon-cache",
        )
        ready = threading.Event()
        thread = threading.Thread(
            target=instance.serve_forever, kwargs={"ready": ready}, daemon=True
        )
        thread.start()
        assert ready.wait(10), "daemon did not come up"
        try:
            results = engine.run_many(jobs)
            assert_reports_identical(results[0], solo_results(jobs)[0])
            assert engine.stats.requests == 1
            assert instance.metrics.requests == 1
        finally:
            instance.shutdown()
            thread.join(10)
            assert not thread.is_alive()

    def test_fallback_reprobes_after_skipped_requests(self, tmp_path, monkeypatch):
        from repro.engine import scheduler

        monkeypatch.setenv(ENGINE_SOCKET_ENV, str(tmp_path / "nobody-home.sock"))
        monkeypatch.setattr(scheduler, "REMOTE_REPROBE_REQUESTS", 2)
        engine = SimEngine(backend="vector", use_cache=False)
        jobs = [make_job(27)]
        with pytest.warns(RuntimeWarning, match="falling back to in-process"):
            engine.run_many(jobs)
        down_since = engine._remote_down_since
        assert down_since is not None
        engine.run_many(jobs)  # skipped probe 1 of 2: still latched
        assert engine._remote_down_since == down_since
        engine.run_many(jobs)  # probe 2 hits the request arm: re-probe
        assert engine._remote_down_since != down_since
        assert engine._remote_skipped == 0  # counter reset by the re-probe

    def test_remote_false_pins_in_process(self, server, monkeypatch):
        monkeypatch.setenv(ENGINE_SOCKET_ENV, str(server.socket_path))
        assert server.engine.remote is False  # the daemon never self-routes
        engine = SimEngine(backend="vector", use_cache=False, remote=False)
        engine.run_many([make_job(19)])
        assert engine.stats.requests == 0 and engine.stats.misses == 1
        assert server.metrics.requests == 0


# ---------------------------------------------------------------------- #
# Cross-client coalescing
# ---------------------------------------------------------------------- #
class TestCoalescing:
    def test_identical_concurrent_batches_simulate_once(self, server, client):
        jobs = [make_job(seed, corners=PAPER_CORNERS[:1]) for seed in range(40, 43)]
        # first request: it claimed every key; park it until the second
        # request has registered against the same keys
        claims = hold_first_request(server)
        first_out = {}

        def first_client():
            first_out["results"], first_out["stats"] = EngineClient(
                str(server.socket_path)
            ).submit(jobs)

        thread = threading.Thread(target=first_client)
        thread.start()
        wait_for_claim(claims)
        assert claims == [3], "first batch never claimed"
        # second client submits the identical batch mid-flight; its
        # handler's _before_execute call releases the gate only after it
        # attached to all three in-flight keys
        second_results, second_stats = client.submit(jobs)
        thread.join(30)
        assert not thread.is_alive()

        # exactly one simulation per unique key, second batch coalesced
        # in full
        assert first_out["stats"]["misses"] == 3
        assert second_stats["coalesced"] == 3
        assert second_stats["misses"] == 0 and second_stats["hits"] == 0
        assert server.metrics.misses == 3 and server.metrics.coalesced == 3
        assert server.engine.stats.misses == 3
        # bit-identical to a solo in-process run, for both clients
        solo = solo_results(jobs)
        for got_a, got_b, want in zip(first_out["results"], second_results, solo):
            assert_reports_identical(got_a, want)
            assert_reports_identical(got_b, want)
        assert not server._inflight  # registry drains

    def test_failed_recompute_fails_the_waiting_request(self, server, client):
        # The owner's run fails, so the waiting request recomputes; that
        # fails too, and its client must get an error, not a None result.
        job = SlowJob(value=98, fail=True)
        claims = hold_first_request(server)
        first = {}

        def first_client():
            try:
                EngineClient(str(server.socket_path)).submit([job])
            except EngineClientError as exc:
                first["error"] = exc

        thread = threading.Thread(target=first_client)
        thread.start()
        wait_for_claim(claims)
        with pytest.raises(EngineClientError, match="slow job 98 failed"):
            client.submit([job])
        thread.join(30)
        assert not thread.is_alive()
        assert "slow job 98 failed" in str(first["error"])
        assert not server._inflight

    def test_soak_50_rounds_bounded_rss(self, server, client):
        jobs = [make_job(seed, corners=PAPER_CORNERS[:1]) for seed in (50, 51)]
        client.submit(jobs)  # cold round
        baseline_kb = _rss_kb()
        for _ in range(49):
            _, delta = client.submit(jobs)
            assert delta["misses"] == 0
        growth_kb = _rss_kb() - baseline_kb
        assert growth_kb < 60_000, f"daemon RSS grew {growth_kb} KB over 50 rounds"
        counters = client.metrics()["metrics"]
        assert counters["requests"] == 50
        assert counters["hits"] == 2 * 49 and counters["misses"] == 2


# ---------------------------------------------------------------------- #
# Daemon lifecycle (subprocess): kill -9, restart, resubmit
# ---------------------------------------------------------------------- #
class TestDaemonLifecycle:
    def _spawn(self, socket_path, cache_dir):
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_CACHE=str(cache_dir),
        )
        env.pop(ENGINE_SOCKET_ENV, None)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--socket",
                str(socket_path),
                "--backend",
                "vector",
                "--jobs",
                "1",
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        client = EngineClient(str(socket_path))
        deadline = time.time() + 30
        while time.time() < deadline:
            try:
                client.ping()
                return proc, client
            except EngineClientError:
                assert proc.poll() is None, f"daemon died: {proc.stdout.read()}"
                time.sleep(0.1)
        proc.kill()
        raise AssertionError("daemon never answered ping")

    def test_sigkill_restart_resubmit_is_all_hits(self, tmp_path):
        socket_path = tmp_path / "daemon.sock"
        cache_dir = tmp_path / "shared-cache"
        jobs = [make_job(seed, corners=PAPER_CORNERS[:1]) for seed in (60, 61, 62)]

        proc, client = self._spawn(socket_path, cache_dir)
        try:
            ping = subprocess.run(
                [sys.executable, "-m", "repro", "ping", "--socket", str(socket_path)],
                env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
            )
            assert ping.returncode == 0 and "pong" in ping.stdout
            cold, delta = client.submit(jobs)
            assert delta["misses"] == 3
        finally:
            # SIGKILL: no shutdown handshake, stale socket file left behind
            proc.kill()
            proc.wait(10)
        assert socket_path.exists()
        with pytest.raises(EngineClientError):
            client.ping()

        # restart on the same (stale) socket path; the store survived
        proc, client = self._spawn(socket_path, cache_dir)
        try:
            warm, delta = client.submit(jobs)
            assert delta["hits"] == 3 and delta["misses"] == 0  # 100% cache hits
            for got, want in zip(warm, cold):
                assert_reports_identical(got, want)
            assert client.shutdown()["ok"]
            assert proc.wait(15) == 0
            assert not socket_path.exists()  # graceful exit cleans up
        finally:
            if proc.poll() is None:
                proc.kill()


# ---------------------------------------------------------------------- #
# Acceptance: daemon-routed sweep == in-process sweep
# ---------------------------------------------------------------------- #
class TestRoutedSweep:
    def test_fig2_manifest_identical_modulo_run_block(
        self, tmp_path, server, monkeypatch
    ):
        local = run_all(
            scale=MICRO,
            artifacts_dir=tmp_path / "local",
            engine=SimEngine(
                backend="vector", jobs=1, cache_dir=tmp_path / "local-cache", remote=False
            ),
            names=["fig2"],
        )
        monkeypatch.setenv(ENGINE_SOCKET_ENV, str(server.socket_path))
        routed_engine = SimEngine(
            backend="vector", jobs=1, cache_dir=tmp_path / "routed-cache"
        )
        routed = run_all(
            scale=MICRO,
            artifacts_dir=tmp_path / "routed",
            engine=routed_engine,
            names=["fig2"],
        )
        assert routed_engine.stats.requests >= 1  # it really went remote
        assert server.metrics.misses > 0
        # renderings identical, manifests identical modulo "run"
        assert routed.texts["fig2"] == local.texts["fig2"]
        stable = lambda m: {k: v for k, v in m.items() if k != "run"}  # noqa: E731
        disk_local = json.loads((tmp_path / "local" / "manifest.json").read_text())
        disk_routed = json.loads((tmp_path / "routed" / "manifest.json").read_text())
        assert stable(disk_routed) == stable(disk_local)

        # warm daemon resubmit: a fresh client engine reports 0 simulated
        warm_engine = SimEngine(
            backend="vector", jobs=1, cache_dir=tmp_path / "warm-cache"
        )
        run_all(
            scale=MICRO,
            artifacts_dir=tmp_path / "warm",
            engine=warm_engine,
            names=["fig2"],
        )
        assert warm_engine.stats.misses == 0
        assert ", 0 simulated" in warm_engine.stats.describe()


class TestServeCommand:
    @pytest.mark.parametrize("flags, cached", [([], True), (["--no-cache"], False)])
    def test_default_engine_carries_the_daemon_cache_choice(
        self, tmp_path, monkeypatch, flags, cached
    ):
        # Bundles a daemon loads file their clean accuracy through the
        # process default engine, so `serve --no-cache` must leave it
        # without a cache too.
        from repro import cli
        from repro.engine import scheduler, server as server_module

        seen = []

        class Stub:
            def __init__(self, socket_path, backend=None, jobs=None, use_cache=True):
                self.engine = SimEngine(use_cache=use_cache, cache_dir=tmp_path, remote=False)
                self.metrics = EngineMetrics()

            def serve_forever(self):
                seen.append(scheduler.default_engine().cache is not None)

        monkeypatch.setattr(server_module, "EngineServer", Stub)
        monkeypatch.setattr(scheduler, "_default_engine", None)
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        handlers = {
            sig: signal_mod.getsignal(sig) for sig in (signal_mod.SIGTERM, signal_mod.SIGINT)
        }
        try:
            cli.main(["serve", "--socket", str(tmp_path / "engine.sock"), *flags])
        finally:
            for sig, handler in handlers.items():
                signal_mod.signal(sig, handler)
        assert seen == [cached]
