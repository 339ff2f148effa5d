"""Tests of the shared-memory operand arena (``repro.engine.arena``).

The arena is an exactness-preserving optimization: everything it serves
must round-trip bit-identically, and every failure mode must degrade to
"caller rebuilds locally" rather than an exception.  The lifecycle tests
pin the lease protocol the SIGKILL-safety argument rests on: a segment
lives exactly as long as some *live* pid holds a lease file on it, and
``sweep`` — not the interpreter's resource tracker — reclaims the rest.

The cross-process tests fork (workers must inherit the loaded package)
and carry the ``concurrency`` marker so CI can run them in its isolated
concurrency job alongside the cache crash-safety suite.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine.arena import (
    ARENA_DIR_ENV,
    ARENA_GATE_ENV,
    OperandArena,
    arena_enabled,
    arena_root,
    default_arena,
    reset_default_arena,
)

_MP = multiprocessing.get_context("fork")


@pytest.fixture
def arena(tmp_path):
    a = OperandArena(tmp_path / "arena")
    yield a
    a.release_all()
    a.sweep()


def bundle(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "acts": rng.integers(-128, 127, size=(3, 17, 9), dtype=np.int64),
        "scales": rng.normal(size=(5,)).astype(np.float32),
        "mask": rng.integers(0, 2, size=(4, 4)).astype(bool),
    }


class TestRoundTrip:
    def test_publish_attach_is_bit_identical(self, arena):
        arrays = bundle()
        assert arena.publish("k", arrays, meta={"n": 3}) is True
        entry = arena.attach("k")
        assert entry is not None
        assert entry.meta == {"n": 3}
        assert sorted(entry.arrays) == sorted(arrays)
        for name, arr in arrays.items():
            got = entry.arrays[name]
            assert got.dtype == arr.dtype
            assert got.shape == arr.shape
            np.testing.assert_array_equal(got, arr)

    def test_views_are_read_only(self, arena):
        arena.publish("k", bundle())
        entry = arena.attach("k")
        with pytest.raises(ValueError):
            entry.arrays["acts"][0, 0, 0] = 1

    def test_repeat_attach_is_memoized(self, arena):
        arena.publish("k", bundle())
        assert arena.attach("k") is arena.attach("k")

    def test_publish_is_first_writer_wins(self, arena):
        assert arena.publish("k", bundle(0)) is True
        assert arena.publish("k", bundle(1)) is False
        np.testing.assert_array_equal(
            arena.attach("k").arrays["acts"], bundle(0)["acts"]
        )

    def test_empty_bundle_round_trips(self, arena):
        assert arena.publish("empty", {}, meta={"why": "edge"}) is True
        entry = arena.attach("empty")
        assert entry.arrays == {}
        assert entry.meta == {"why": "edge"}


class TestDegradation:
    def test_attach_missing_key_is_none(self, arena):
        assert arena.attach("never-published") is None

    def test_attach_corrupt_descriptor_is_none(self, arena):
        arena.publish("k", bundle())
        for descriptor in arena.root.glob("*.json"):
            descriptor.write_text("{not json")
        fresh = OperandArena(arena.root)
        assert fresh.attach("k") is None

    def test_degradations_are_counted(self, arena):
        from repro.engine import arena as arena_mod
        from repro.faults.injection_job import drain_runtime_counters

        drain_runtime_counters()  # isolate this test's deltas
        before = arena_mod.arena_error_count()
        arena.publish("k", bundle())
        for descriptor in arena.root.glob("*.json"):
            descriptor.write_text("{not json")
        fresh = OperandArena(arena.root)
        assert fresh.attach("k") is None
        assert arena_mod.arena_error_count() == before + 1
        stats = fresh.stats()
        assert stats.errors == before + 1
        assert f"{before + 1} error(s)" in stats.describe()
        # the degradation rode the runtime-counter drain the engine folds
        assert drain_runtime_counters().get("arena_errors") == 1

    def test_missing_key_is_not_a_degradation(self, arena):
        from repro.engine.arena import arena_error_count

        before = arena_error_count()
        assert arena.attach("never-published") is None
        assert arena_error_count() == before

    def test_descriptor_without_segment_is_none(self, arena, tmp_path):
        # A descriptor naming a segment that no longer exists (host
        # reboot cleared /dev/shm but not the registry dir).
        (arena.root / "deadbeef.json").write_text(
            json.dumps({"key": "k", "segment": "repro-arena-gone", "nbytes": 1})
        )
        assert arena.attach("k") is None

    def test_gate_env_disables_default_arena(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ARENA_DIR_ENV, str(tmp_path / "gated"))
        reset_default_arena()
        monkeypatch.setenv(ARENA_GATE_ENV, "0")
        assert not arena_enabled()
        assert default_arena() is None
        monkeypatch.setenv(ARENA_GATE_ENV, "1")
        assert arena_enabled()
        assert default_arena() is not None
        assert default_arena().root == tmp_path / "gated"
        reset_default_arena()

    def test_arena_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ARENA_DIR_ENV, str(tmp_path / "rooted"))
        assert arena_root() == tmp_path / "rooted"


class TestLifecycle:
    def test_sweep_keeps_leased_segments(self, arena):
        arena.publish("k", bundle())
        arena.attach("k")
        report = arena.sweep()
        assert report.segments_removed == 0
        assert report.segments == 1
        assert arena.stats().segments == 1

    def test_release_then_sweep_reclaims(self, arena):
        arena.publish("k", bundle())
        arena.attach("k")
        arena.release("k")
        report = arena.sweep()
        assert report.segments_removed == 1
        stats = arena.stats()
        assert (stats.segments, stats.bytes, stats.leases) == (0, 0, 0)

    def test_released_views_stay_valid_for_process_life(self, arena):
        # The engine shutdown hook (release_all + sweep) runs while the
        # memoized fault-free pass still holds views into attached
        # segments.  Releasing must drop the *lease* only: numpy views
        # over the shared buffer do not pin the mapping (no BufferError
        # from SharedMemory.close), so unmapping here would make the
        # next injection read a dangling pointer — this test segfaulted
        # before the mapping was parked until process exit.
        arena.publish("k", bundle())
        view = arena.attach("k").arrays["acts"]
        expected = view.copy()
        arena.release_all()
        arena.sweep()  # no lease left: the segment itself is reclaimed
        np.testing.assert_array_equal(view, expected)
        # the registry really is empty — a fresh attach rebuilds locally
        assert OperandArena(arena.root).attach("k") is None

    def test_release_all_drops_publish_lease_too(self, arena):
        # publish() takes a lease without attach(); release_all must
        # still find it (suffix match), or shutdown would strand it.
        arena.publish("k", bundle())
        arena.release_all()
        assert arena.sweep().segments_removed == 1

    def test_publish_reclaims_orphan_segment(self, arena):
        # A publisher that died mid-write leaves a segment with no
        # descriptor; the next publish of the same key must reclaim it
        # rather than fail on FileExistsError.
        from repro.engine.arena import _open_shm, _segment_name

        shm = _open_shm(_segment_name("k"), create=True, size=64)
        shm.close()
        assert arena.publish("k", bundle()) is True
        np.testing.assert_array_equal(
            arena.attach("k").arrays["acts"], bundle()["acts"]
        )


def _publish_and_exit(root):
    """A pool worker's end: publish, then exit without dropping the lease."""
    OperandArena(root).publish("k", bundle())
    os._exit(0)


@pytest.mark.concurrency
class TestShutdownSweep:
    def test_sweeps_segments_published_only_by_dead_workers(self, monkeypatch, tmp_path):
        """The parent of a pool whose workers did all the publishing never
        touched the arena itself; its shutdown must still reclaim the
        segments those exited workers left leased."""
        from repro.engine.arena import _open_shm, _segment_name, shutdown_arena

        root = tmp_path / "arena"
        monkeypatch.setenv(ARENA_DIR_ENV, str(root))
        reset_default_arena()
        worker = _MP.Process(target=_publish_and_exit, args=(root,))
        worker.start()
        worker.join(timeout=60)
        try:
            assert worker.exitcode == 0
            assert OperandArena(root).stats().segments == 1
            report = shutdown_arena()
        finally:
            reset_default_arena()
            OperandArena(root).sweep()  # reclaim even when the test fails
        assert report is not None and report.segments_removed == 1
        with pytest.raises(FileNotFoundError):
            _open_shm(_segment_name("k")).close()

    def test_creates_no_registry(self, monkeypatch, tmp_path):
        from repro.engine.arena import shutdown_arena

        root = tmp_path / "never-used"
        monkeypatch.setenv(ARENA_DIR_ENV, str(root))
        reset_default_arena()
        assert shutdown_arena() is None
        assert not root.exists()


def _attach_and_hang(root, ready):
    arena = OperandArena(root)
    entry = arena.attach("k")
    ready.put(entry is not None and arena.stats().leases >= 2)
    signal.pause()  # hold the mapping until SIGKILL


@pytest.mark.concurrency
class TestSigkillSafety:
    def test_sigkilled_worker_leaks_no_segments(self, arena):
        """ISSUE acceptance: arena survives worker SIGKILL without leaks.

        A forked worker attaches (taking its pid-named lease) and is
        SIGKILLed while holding the mapping — the worst case: no atexit,
        no release, nothing runs in the victim.  The next sweep must
        drop the dead pid's lease; once the parent releases too, the
        segment itself must be reclaimed from /dev/shm.
        """
        arrays = bundle()
        assert arena.publish("k", arrays) is True
        assert arena.attach("k") is not None

        ready = _MP.Queue()
        worker = _MP.Process(target=_attach_and_hang, args=(arena.root, ready))
        worker.start()
        try:
            assert ready.get(timeout=30) is True
            os.kill(worker.pid, signal.SIGKILL)
        finally:
            worker.join(timeout=30)
        assert worker.exitcode == -signal.SIGKILL

        # The dead worker's lease goes; the parent's keeps the segment
        # alive — a sweep must never pull a mapping out from under a
        # live process.
        report = arena.sweep()
        assert report.leases_removed >= 1
        assert report.segments_removed == 0
        np.testing.assert_array_equal(arena.attach("k").arrays["acts"], arrays["acts"])

        arena.release_all()
        report = arena.sweep()
        assert report.segments_removed == 1
        stats = arena.stats()
        assert (stats.segments, stats.bytes, stats.leases) == (0, 0, 0)
        # Nothing left in the kernel either: the segment name must be
        # re-creatable, which SharedMemory(create=True) proves.
        from repro.engine.arena import _segment_name, _unlink_segment, _open_shm

        probe = _open_shm(_segment_name("k"), create=True, size=16)
        probe.close()
        _unlink_segment(_segment_name("k"))


#: Runs ``read-repro`` with ``OperandArena.publish`` wrapped to log the
#: name of every segment the run creates (argv: log path, CLI args).
_LOGGING_CLI = """
import sys
from repro.engine import arena
from repro.cli import main

publish = arena.OperandArena.publish

def logged(self, key, arrays, meta=None):
    created = publish(self, key, arrays, meta)
    if created:
        with open(sys.argv[1], "a") as log:
            log.write(arena._segment_name(key) + "\\n")
    return created

arena.OperandArena.publish = logged
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.concurrency
class TestCliExit:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cli_exit_leaves_no_segments(self, tmp_path, jobs):
        """A normal ``read-repro`` exit reclaims what the run published.

        Without the engine shutdown sweep only ``atexit``'s lease drop
        runs, and every segment outlives the process in ``/dev/shm``.
        With ``--jobs 2`` the pool workers publish and exit holding
        their leases while the parent never touches the arena, so the
        parent's sweep must run all the same.
        """
        from repro.engine.arena import _open_shm
        from repro.experiments.common import SCALES, get_bundle, save_model_state

        micro = SCALES["micro"]
        cache = tmp_path / "cache"
        cache.mkdir()
        # Seed the trained snapshot so the run does not retrain.
        save_model_state(
            get_bundle("vgg16_cifar10", micro).model,
            cache / f"vgg16_cifar10-micro-w{micro.width}-n{micro.n_train}"
            f"-e{micro.epochs}-s0.npz",
        )
        registry = tmp_path / "arena"
        log = tmp_path / "published.txt"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            REPRO_CACHE=str(cache),
            REPRO_ARENA_DIR=str(registry),
        )
        proc = subprocess.run(
            [sys.executable, "-c", _LOGGING_CLI, str(log), "campaign",
             "--recipe", "vgg16_cifar10", "--scale", "micro", "--jobs", jobs,
             "--max-trials", "2", "--shard-trials", "2", "--max-shards", "4",
             "--artifacts", str(tmp_path / "artifacts")],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        published = log.read_text().split() if log.exists() else []
        assert published, "the run published no segment: the test proves nothing"
        assert sorted(p.name for p in registry.iterdir() if p.name != ".lock") == []
        for name in published:
            with pytest.raises(FileNotFoundError):
                _open_shm(name).close()
