"""The ``jobs=1`` fan-out, job-key memo and the entry point's BLAS pin.

``python -m repro`` pins BLAS to one thread before numpy loads, which
needs ``import repro`` to load no numpy.  In a process whose BLAS is
pinned, a ``jobs=1`` engine spreads each batch's cache-missing work over
one worker process per usable CPU; elsewhere it runs inline.  Whatever
the fan-out, every result equals the job's own ``execute()`` run alone,
and the runtime counters (deduped trials) sum exactly.  ``run_many`` and
``run_stream`` share that one dispatch loop: a failing unit withdraws
the units no worker has started, and so does a streamed cancellation,
which cancels a fused unit only once every job it delivers is cancelled.
"""

import os
import pickle
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine import SimEngine, SimJob, job
from repro.engine.backends import backend_factory
from repro.engine.job import EngineJob
from repro.experiments.common import SCALES, get_bundle
from repro.faults import drain_runtime_counters, injection_job_for_bundle
from repro.hw.variations import PAPER_CORNERS

MICRO = SCALES["micro"]
SRC = Path(repro.__file__).resolve().parent.parent
#: Upper bound on any child process in this module.
TIMEOUT_S = 120
#: More workers than this host's cores, so the pool really interleaves.
FAN_OUT = max(3, 2 * (os.cpu_count() or 1))


@pytest.fixture(scope="module")
def bundle():
    return get_bundle("vgg16_cifar10", MICRO)


@pytest.fixture
def pinned_blas(monkeypatch):
    """This process looks pinned and owns ``FAN_OUT`` CPUs."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(FAN_OUT)))


def sim_job(seed, **kwargs):
    rng = np.random.default_rng(seed)
    return SimJob(
        acts=rng.integers(0, 256, size=(17, 24)),
        weights=rng.integers(-128, 128, size=(24, 8)),
        corners=PAPER_CORNERS,
        group_size=4,
        **kwargs,
    )


def injection_job(bundle, base_seed, runtime, ber=3e-6):
    layers = [qc.name for qc in bundle.qnet.qconvs()[:4]]
    return injection_job_for_bundle(
        bundle,
        {name: ber for name in layers},
        inject_n=16,
        n_trials=3,
        base_seed=base_seed,
        runtime=runtime,
    )


def same_result(a, b):
    if isinstance(a, dict):  # SimJob: per-corner reports
        return pickle.dumps(SimJob.serialize_result(a)) == pickle.dumps(
            SimJob.serialize_result(b)
        )
    return a == b


@dataclass(frozen=True, eq=False)
class _PidJob(EngineJob):
    """Returns the pid of the process that executed it."""

    n: int
    kind = "pid"

    def key(self) -> str:
        return f"pid-{self.n}"

    def execute(self, backend_factory=None):
        return os.getpid()

    serialize_result = staticmethod(lambda result: {})
    deserialize_result = staticmethod(lambda data: None)


class TestFanOut:
    def test_default_workers_follow_the_blas_pin(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        for value in (None, "2", ""):
            if value is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
            assert SimEngine(use_cache=False, remote=False).workers == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert SimEngine(use_cache=False, remote=False).workers == 3
        assert SimEngine(jobs=2, use_cache=False, remote=False).workers == 2
        # A daemon's hot pool keeps the worker count it was given.
        assert SimEngine(keep_pool=True, use_cache=False, remote=False).workers == 1

    def test_pinned_jobs_1_runs_the_batch_on_worker_processes(self, pinned_blas):
        engine = SimEngine(jobs=1, use_cache=False, remote=False)
        try:
            pids = engine.run_many([_PidJob(n) for n in range(FAN_OUT)])
        finally:
            engine.close()
        assert os.getpid() not in pids

    def test_unpinned_jobs_1_runs_inline(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        engine = SimEngine(jobs=1, use_cache=False, remote=False)
        assert engine.run_many([_PidJob(n) for n in range(3)]) == [os.getpid()] * 3

    def test_mixed_batch_matches_sequential_execution(
        self, bundle, tmp_path, pinned_blas
    ):
        unique = [sim_job(seed) for seed in range(4)]
        unique += [injection_job(bundle, seed, "batched") for seed in (3, 4)]
        unique += [injection_job(bundle, seed, "serial") for seed in (7,)]
        twins = [sim_job(2, label="twin"), injection_job(bundle, 4, "batched")]
        batch = unique[:3] + twins[:1] + unique[3:] + twins[1:]

        factory = backend_factory("vector")
        drain_runtime_counters()
        expected = [unit.execute(factory) for unit in unique]
        deduped = drain_runtime_counters().get("trials_deduped", 0)
        assert deduped > 0  # the counter assertion below must mean something

        engine = SimEngine(jobs=1, cache_dir=tmp_path / "results", remote=False)
        try:
            results = engine.run_many(batch)
        finally:
            engine.close()
        assert engine.workers == FAN_OUT
        by_key = {unit.key(): value for unit, value in zip(unique, expected)}
        for submitted, got in zip(batch, results):
            assert same_result(got, by_key[submitted.key()]), submitted.label
        assert engine.stats.misses == len(unique)
        assert engine.stats.deduped == len(twins)
        assert engine.stats.trials_deduped == deduped


@dataclass(frozen=True, eq=False)
class _MarkJob(EngineJob):
    """Sleeps, leaves a marker file named ``n`` in ``marks``, returns ``n``.

    With ``fail`` it raises instead, once ``wait_for`` markers exist (so
    the jobs it waits for have finished before it fails).
    """

    n: int
    marks: str
    sleep_s: float = 0.0
    fail: bool = False
    wait_for: int = 0
    kind = "mark"

    def key(self) -> str:
        return f"mark-{self.n}"

    def execute(self, backend_factory=None):
        deadline = time.monotonic() + TIMEOUT_S
        while len(os.listdir(self.marks)) < self.wait_for and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(self.sleep_s)
        Path(self.marks, str(self.n)).touch()
        if self.fail:
            raise RuntimeError(f"job {self.n} failed")
        return self.n

    serialize_result = staticmethod(lambda result: {"n": np.asarray(result)})
    deserialize_result = staticmethod(lambda data: int(data["n"]))


class TestFailedBatch:
    """A job that raises keeps its batch's finished results and stops the rest."""

    @pytest.fixture
    def marks(self, tmp_path):
        path = tmp_path / "marks"
        path.mkdir()
        return path

    def test_pool_stores_results_that_landed_before_the_failure(self, tmp_path, marks):
        others = [_MarkJob(n, str(marks), sleep_s=0.02) for n in range(1, 10)]
        # Fails once the other nine have run (plus a margin for their
        # results to reach the parent first).
        failing = _MarkJob(0, str(marks), sleep_s=0.2, fail=True, wait_for=len(others))
        engine = SimEngine(jobs=2, cache_dir=tmp_path / "results", remote=False)
        with pytest.raises(RuntimeError, match="job 0 failed"):
            engine.run_many([failing, *others])
        assert engine.stats.misses == len(others)
        rerun = SimEngine(jobs=2, cache_dir=tmp_path / "results", remote=False)
        assert rerun.run_many(others) == list(range(1, 10))
        assert rerun.stats.hits == len(others)

    @pytest.mark.parametrize("keep_pool", [False, True])
    @pytest.mark.parametrize("method", ["run_many", "run_stream"])
    def test_pool_cancels_the_units_no_worker_started(
        self, tmp_path, marks, method, keep_pool
    ):
        jobs = [_MarkJob(0, str(marks), fail=True)]
        jobs += [_MarkJob(n, str(marks), sleep_s=0.3) for n in range(1, 10)]
        engine = SimEngine(
            jobs=2, cache_dir=tmp_path / "results", keep_pool=keep_pool, remote=False
        )
        try:
            with pytest.raises(RuntimeError, match="job 0 failed"):
                getattr(engine, method)(jobs)
        finally:
            engine.close()  # a kept pool drains whatever it still holds
        assert len(os.listdir(marks)) < len(jobs)

    def test_inline_stores_results_computed_before_the_failure(
        self, tmp_path, marks, monkeypatch
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # jobs=1 runs inline
        jobs = [_MarkJob(n, str(marks), fail=n == 3) for n in range(5)]
        engine = SimEngine(jobs=1, cache_dir=tmp_path / "results", remote=False)
        with pytest.raises(RuntimeError, match="job 3 failed"):
            engine.run_many(jobs)
        assert engine.workers == 1
        assert sorted(os.listdir(marks)) == ["0", "1", "2", "3"]
        rerun = SimEngine(jobs=1, cache_dir=tmp_path / "results", remote=False)
        assert rerun.run_many(jobs[:3] + jobs[4:]) == [0, 1, 2, 4]
        assert (rerun.stats.hits, rerun.stats.misses) == (3, 1)


class TestStreamCancellation:
    """A callback's cancellation prevents only work that has not started."""

    @pytest.mark.parametrize("keep_pool", [False, True])
    def test_pool_withdraws_only_the_units_no_worker_started(self, tmp_path, keep_pool):
        marks = tmp_path / "marks"
        marks.mkdir()
        jobs = [_MarkJob(n, str(marks), sleep_s=0.2) for n in range(10)]
        engine = SimEngine(
            jobs=2, cache_dir=tmp_path / "results", keep_pool=keep_pool, remote=False
        )
        try:
            # the first result cancels the whole batch
            results = engine.run_stream(jobs, lambda i, result: range(len(jobs)))
        finally:
            engine.close()
        ran = sorted(int(name) for name in os.listdir(marks))
        # every unit that started was delivered, none that did not
        assert ran == [i for i, result in enumerate(results) if result is not None]
        assert all(results[i] == i for i in ran)
        assert engine.stats.misses == len(ran)
        assert engine.stats.cancelled == len(jobs) - len(ran) > 0

    @pytest.mark.parametrize(
        "asked, cancelled",
        [((1,), 0), ((1, 2), 0), ((2, 3), 0), ((1, 2, 3), 3)],
    )
    def test_fused_unit_is_cancelled_only_with_all_its_jobs(
        self, tmp_path, monkeypatch, asked, cancelled
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # jobs=1 runs inline
        warm, first, second = (sim_job(seed) for seed in (10, 11, 12))
        engine = SimEngine(cache_dir=tmp_path, remote=False)
        assert engine.workers == 1
        engine.run(warm)
        before = engine.stats.snapshot()
        # first and second fuse into one stacked unit; index 3 duplicates
        # first, so it rides that unit too
        batch = [warm, first, second, sim_job(11, label="twin")]
        results = engine.run_stream(batch, lambda i, result: asked if i == 0 else None)
        delta = engine.stats.since(before)
        assert (delta.hits, delta.cancelled) == (1, cancelled)
        assert [result is None for result in results] == [False] + [cancelled > 0] * 3
        if not cancelled:
            assert (delta.misses, delta.units, delta.deduped) == (2, 1, 1)
            assert same_result(results[1], results[3])


class TestJobKeyMemo:
    def test_key_is_derived_once_per_job(self, monkeypatch):
        derived = []
        original = job.job_key
        monkeypatch.setattr(job, "job_key", lambda j: derived.append(j) or original(j))
        unit = sim_job(0)
        assert unit.key() == unit.key() == original(unit)
        assert len(derived) == 1

    def test_pickled_job_derives_its_own_key(self, monkeypatch):
        # Pool workers and the daemon receive pickled jobs; each process
        # keys them with its own code, never with the sender's memo.
        unit = sim_job(0)
        unit.key()
        monkeypatch.setattr(job, "job_key", lambda j: "receiver-key")
        assert pickle.loads(pickle.dumps(unit)).key() == "receiver-key"

    def test_run_many_reuses_keys_the_caller_derived(self, tmp_path, monkeypatch):
        units = [sim_job(seed) for seed in range(3)]
        for unit in units:
            unit.key()
        derived = []
        original = job.job_key
        monkeypatch.setattr(job, "job_key", lambda j: derived.append(j) or original(j))
        SimEngine(cache_dir=tmp_path, remote=False).run_many(units)
        assert derived == []


def _python(code, **env):
    merged = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    merged.update(env, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=merged,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


class TestEntryPoint:
    def test_import_repro_loads_no_numpy(self):
        assert _python("import sys, repro; print('numpy' in sys.modules)") == ["False"]

    def test_star_import_yields_every_public_name(self):
        names = {}
        exec("from repro import *", names)
        names.pop("__builtins__")
        assert sorted(names) == sorted(repro.__all__)
        assert len(names) == 39

    def test_pin_keeps_a_user_set_thread_count(self):
        code = (
            "import os, runpy, sys\n"
            "sys.argv = ['repro', 'list']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'],"
            " os.environ['MKL_NUM_THREADS'])\n"
        )
        assert _python(code, OPENBLAS_NUM_THREADS="3")[-3:] == ["3", "1", "1"]
