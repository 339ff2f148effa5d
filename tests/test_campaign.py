"""Sharded campaign correctness: partition bit-equality, kill/resume, stopping.

The three guarantees behind ``read-repro campaign``:

1. **Partition bit-equality** — any hypothesis-drawn partition of a
   campaign's trial range merges to the monolithic ``InjectionJob``
   result, bit for bit (``trial_seed`` purity + integer-domain merges).
2. **Resume determinism** — a campaign killed at any point (cooperative
   ``max_shards`` cutoff or a real SIGTERM against a live process) and
   resumed reproduces the uninterrupted manifest byte-identically modulo
   the volatile ``run`` block.
3. **Early-stop soundness** — sequential stopping never changes the
   decision a full-budget run would have made, on synthetic Bernoulli
   grids and on the real micro campaign (where it must also save trials).
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MappingStrategy
from repro.engine import ResultCache, SimEngine
from repro.engine.job import EngineJob, feed_hash
from repro.errors import ConfigurationError
from repro.experiments.campaign import run_campaign, render
from repro.experiments.common import SCALES, get_bundle, save_model_state
from repro.faults import (
    CellAggregate,
    InjectionShard,
    decide,
    merge_results,
    plan_shards,
    stop_reason,
    wilson_interval,
)
from repro.faults.evaluate import injection_job_for_bundle
from repro.hw.variations import PAPER_CORNERS
from repro.nn.quantize import QuantizedNetwork

MICRO = SCALES["micro"]
RECIPE = "vgg16_cifar10"


@pytest.fixture(scope="module")
def vgg():
    return get_bundle(RECIPE, MICRO)


def faulty_job(bundle, n_trials, ber=2e-3, base_seed=7, **kwargs):
    names = [qc.name for qc in bundle.qnet.qconvs()][:2]
    return injection_job_for_bundle(
        bundle, {name: ber for name in names},
        n_trials=n_trials, base_seed=base_seed, **kwargs,
    )


#: Memo of executed [lo, hi) ranges so the hypothesis partition test
#: re-executes each contiguous range at most once across all examples.
_RANGE_RESULTS = {}


def range_result(job, lo, hi):
    key = (job.key(), lo, hi)
    if key not in _RANGE_RESULTS:
        _RANGE_RESULTS[key] = InjectionShard(job=job, trial_lo=lo, trial_hi=hi).execute()
    return _RANGE_RESULTS[key]


class TestShardContract:
    N_TRIALS = 6

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(cuts=st.sets(st.integers(min_value=1, max_value=N_TRIALS - 1), max_size=5))
    def test_any_partition_merges_to_monolithic(self, vgg, cuts):
        """Acceptance keystone: drawn partitions == the monolithic job."""
        job = faulty_job(vgg, self.N_TRIALS)
        mono = range_result(job, 0, self.N_TRIALS)
        bounds = [0] + sorted(cuts) + [self.N_TRIALS]
        parts = [range_result(job, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        merged = merge_results(parts)
        assert merged.trial_accuracies == mono.trial_accuracies
        assert merged.trial_correct == mono.trial_correct
        assert merged.flips_injected == mono.flips_injected
        assert merged.n_images == mono.n_images

    def test_monolithic_execute_equals_full_range(self, vgg):
        job = faulty_job(vgg, 2)
        assert job.execute() == job.execute_range(0, 2)

    def test_shard_key_independent_of_campaign_budget(self, vgg):
        small = faulty_job(vgg, 6)
        large = faulty_job(vgg, 12)
        assert small.key() != large.key()  # job keys still budget-specific
        assert (
            InjectionShard(job=small, trial_lo=0, trial_hi=2).key()
            == InjectionShard(job=large, trial_lo=0, trial_hi=2).key()
        )

    def test_shard_keys_differ_by_range_and_from_job(self, vgg):
        job = faulty_job(vgg, 6)
        keys = {s.key() for s in plan_shards(job, 2)}
        assert len(keys) == 3
        assert job.key() not in keys

    def test_plan_shards_partitions_exactly(self, vgg):
        job = faulty_job(vgg, 7)
        shards = plan_shards(job, 3)
        assert [(s.trial_lo, s.trial_hi) for s in shards] == [(0, 3), (3, 6), (6, 7)]
        assert sum(s.n_trials for s in shards) == 7
        with pytest.raises(ConfigurationError):
            plan_shards(job, 0)

    def test_shard_validation(self, vgg):
        job = faulty_job(vgg, 4)
        for lo, hi in [(-1, 2), (2, 2), (3, 2), (0, 5)]:
            with pytest.raises(ConfigurationError):
                InjectionShard(job=job, trial_lo=lo, trial_hi=hi)
        with pytest.raises(ConfigurationError):
            InjectionShard(job="not a job", trial_lo=0, trial_hi=1)

    def test_shard_label_autogenerated(self, vgg):
        job = faulty_job(vgg, 4)
        shard = InjectionShard(job=job, trial_lo=1, trial_hi=3)
        assert shard.label == f"{RECIPE}[1:3)"
        assert InjectionShard(job=job, trial_lo=0, trial_hi=1, label="x").label == "x"

    def test_cache_roundtrip_preserves_columns(self, vgg, tmp_path):
        shard = InjectionShard(job=faulty_job(vgg, 4), trial_lo=0, trial_hi=2)
        result = range_result(shard.job, 0, 2)
        cache = ResultCache(tmp_path)
        cache.store(shard.key(), shard, result)
        assert cache.has(shard.key())
        loaded = cache.load(shard.key(), shard)
        assert loaded == result
        assert loaded.trial_correct == result.trial_correct
        assert loaded.n_images == result.n_images

    def test_warm_shards_are_all_hits(self, vgg, tmp_path):
        shards = plan_shards(faulty_job(vgg, 6), 2)
        engine = SimEngine(backend="vector", jobs=1, cache_dir=tmp_path)
        engine.run_many(shards)
        before = engine.stats.snapshot()
        again = engine.run_many(shards)
        delta = engine.stats.since(before)
        assert delta.hits == len(shards) and delta.misses == 0
        assert merge_results(again).trial_correct == range_result(
            shards[0].job, 0, 6
        ).trial_correct

    def test_pool_stream_matches_inline(self, vgg, tmp_path):
        shards = plan_shards(faulty_job(vgg, 6), 2)
        inline = [range_result(shards[0].job, s.trial_lo, s.trial_hi) for s in shards]
        engine = SimEngine(backend="vector", jobs=2, cache_dir=tmp_path)
        streamed = engine.run_stream(shards)
        assert streamed == inline


# ---------------------------------------------------------------------- #
# run_stream semantics on a cheap synthetic job kind
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, eq=False)
class DummyJob(EngineJob):
    kind = "dummy"
    value: int

    def key(self):
        import hashlib

        h = hashlib.sha256()
        feed_hash(h, "dummy", self.value)
        return h.hexdigest()

    def execute(self, backend_factory=None):
        return self.value

    @staticmethod
    def serialize_result(result):
        return {"value": np.asarray(result, dtype=np.int64)}

    @staticmethod
    def deserialize_result(data):
        return int(data["value"])


class TestRunStream:
    def test_streams_in_order_inline(self, tmp_path):
        jobs = [DummyJob(value=v) for v in range(5)]
        engine = SimEngine(jobs=1, cache_dir=tmp_path)
        seen = []
        results = engine.run_stream(jobs, lambda i, r: seen.append((i, r)))
        assert results == [0, 1, 2, 3, 4]
        assert seen == [(i, i) for i in range(5)]

    def test_cancellation_skips_unstarted(self, tmp_path):
        jobs = [DummyJob(value=v) for v in range(5)]
        engine = SimEngine(jobs=1, cache_dir=tmp_path)

        def stop_after_two(i, result):
            return range(3, 5) if result == 1 else None

        results = engine.run_stream(jobs, stop_after_two)
        assert results == [0, 1, 2, None, None]
        assert engine.stats.cancelled == 2
        assert engine.stats.misses == 3
        # cancelled jobs never reached the cache
        assert not engine.cache.has(jobs[4].key())
        assert "2 cancelled" in engine.stats.describe()

    def test_hits_delivered_first(self, tmp_path):
        engine = SimEngine(jobs=1, cache_dir=tmp_path)
        engine.run_many([DummyJob(value=7), DummyJob(value=9)])
        order = []
        engine.run_stream(
            [DummyJob(value=1), DummyJob(value=7), DummyJob(value=9)],
            lambda i, r: order.append(r),
        )
        # cached 7 and 9 land before the computed 1
        assert order == [7, 9, 1]

    def test_duplicates_are_computed_once_and_delivered_per_index(self, tmp_path):
        jobs = [DummyJob(value=v) for v in (5, 6, 5, 5)]
        engine = SimEngine(jobs=1, cache_dir=tmp_path)
        seen = []
        assert engine.run_stream(jobs, lambda i, r: seen.append((i, r))) == [5, 6, 5, 5]
        assert sorted(seen) == [(0, 5), (1, 6), (2, 5), (3, 5)]
        assert (engine.stats.misses, engine.stats.deduped) == (2, 2)
        # a duplicate is cancelled only along with the job it duplicates
        rerun = SimEngine(jobs=1, cache_dir=tmp_path / "cold")
        results = rerun.run_stream(jobs, lambda i, r: [2, 3] if i == 1 else None)
        assert results == [5, 6, 5, 5] and rerun.stats.cancelled == 0

    def test_no_callback_equals_run_many(self, tmp_path):
        jobs = [DummyJob(value=v) for v in (3, 1, 4)]
        engine = SimEngine(jobs=1, cache_dir=tmp_path)
        assert engine.run_stream(jobs) == [3, 1, 4]


# ---------------------------------------------------------------------- #
# End-to-end campaigns (micro scale, restricted grid)
# ---------------------------------------------------------------------- #
STRATS = [MappingStrategy.BASELINE]
CORNERS3 = list(PAPER_CORNERS[:3])


def micro_campaign(cache_dir, artifacts_dir, jobs=1, **kwargs):
    engine = SimEngine(backend="vector", jobs=jobs, cache_dir=Path(cache_dir))
    kwargs.setdefault("max_trials", 12)
    kwargs.setdefault("shard_trials", 3)
    kwargs.setdefault("strategies", STRATS)
    kwargs.setdefault("corners", CORNERS3)
    result = run_campaign(
        RECIPE, MICRO, engine=engine, artifacts_dir=Path(artifacts_dir), **kwargs
    )
    return result, engine


def stable_manifest(manifest):
    body = {k: v for k, v in manifest.items() if k != "run"}
    return json.dumps(body, sort_keys=True)


@pytest.fixture(scope="module")
def warm(vgg, tmp_path_factory):
    """One completed campaign: (cache_dir, artifacts_dir, result)."""
    cache = tmp_path_factory.mktemp("campaign-cache")
    art = tmp_path_factory.mktemp("campaign-art")
    result, _ = micro_campaign(cache, art)
    return cache, art, result


class TestCampaignEndToEnd:
    def test_manifest_shape_and_totals(self, warm):
        _, _, result = warm
        manifest = result.manifest
        assert manifest["complete"]
        assert len(manifest["cells"]) == len(STRATS) * len(CORNERS3)
        totals = manifest["totals"]
        assert totals["planned_trials"] == sum(
            c["planned_trials"] for c in manifest["cells"].values()
        )
        assert totals["counted_trials"] == sum(
            c["trials"] for c in manifest["cells"].values()
        )
        for cell in manifest["cells"].values():
            assert cell["stop_reason"] in (
                "separated", "converged", "budget", "fault-free",
            )
            lo, hi = cell["ci"]
            assert 0.0 <= lo <= cell["mean_accuracy"] <= hi <= 1.0
            assert cell["trials"] >= 1 and cell["shard_keys"]
        peak = manifest["run"]["peak_rss_mb"]
        assert set(peak) == {"parent", "workers"} and peak["parent"] > 0
        # deterministic block carries no filesystem paths
        assert "/" not in "".join(manifest["campaign"]["corners"])
        assert str(result.artifacts_dir) not in stable_manifest(manifest)

    def test_manifest_file_and_columnar_trials(self, warm):
        _, _, result = warm
        on_disk = json.loads(result.manifest_path.read_text())
        assert stable_manifest(on_disk) == stable_manifest(result.manifest)
        with np.load(result.trials_path) as data:
            for cell_key, cell in result.manifest["cells"].items():
                correct = data[f"{cell_key}/correct"]
                assert correct.dtype == np.int64
                assert correct.shape == (cell["trials"],)
                assert int(correct.sum()) == round(
                    cell["mean_accuracy"] * cell["trials"] * cell["n_images"]
                )

    def test_render_mentions_every_cell(self, warm):
        _, _, result = warm
        text = render(result)
        for cell_key in result.manifest["cells"]:
            assert cell_key in text

    def test_warm_resume_all_hits_same_manifest(self, warm, tmp_path):
        cache, _, result = warm
        resumed, engine = micro_campaign(cache, tmp_path, resume=True)
        assert stable_manifest(resumed.manifest) == stable_manifest(result.manifest)
        assert resumed.manifest["run"]["resumed"] is True
        assert engine.stats.misses == 0  # every shard + TER job warm
        assert ", 0 simulated" in engine.stats.describe()

    def test_rerun_serves_the_baseline_from_the_clean_accuracy_entry(
        self, vgg, warm, tmp_path, monkeypatch
    ):
        cache, _, result = warm
        x, y = vgg.test_images(MICRO.inject_n)
        assert result.manifest["baseline"]["accuracy"] == vgg.qnet.evaluate(x, y)
        calls = []
        evaluate = QuantizedNetwork.evaluate

        def counted(self, *args, **kwargs):
            calls.append(args[0].shape[0])
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(QuantizedNetwork, "evaluate", counted)
        rerun, _ = micro_campaign(cache, tmp_path)
        assert calls == []
        assert rerun.manifest["baseline"] == result.manifest["baseline"]

    @pytest.mark.parametrize("kill_after", [0, 2, 5])
    def test_kill_at_shard_then_resume_reproduces_manifest(
        self, warm, tmp_path, kill_after
    ):
        """The cooperative kill: stop after N shard results, then resume."""
        _, _, reference = warm
        cache = tmp_path / "cache"
        killed, _ = micro_campaign(cache, tmp_path / "a", max_shards=kill_after)
        assert not killed.manifest["complete"]
        resumed, _ = micro_campaign(cache, tmp_path / "b", resume=True)
        assert resumed.manifest["complete"]
        assert stable_manifest(resumed.manifest) == stable_manifest(
            reference.manifest
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fanned_out_campaign_reproduces_manifest(
        self, warm, tmp_path, monkeypatch, jobs
    ):
        """With BLAS pinned, a jobs=1 campaign streams its shards over one
        worker per CPU, as jobs=2 does: the manifest is the same."""
        _, _, reference = warm
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        result, engine = micro_campaign(tmp_path / "cache", tmp_path / "art", jobs=jobs)
        assert engine.workers == 2
        assert result.manifest["complete"]
        assert stable_manifest(result.manifest) == stable_manifest(reference.manifest)

    def test_early_stop_sound_and_saves_trials(self, warm, tmp_path):
        """Acceptance: same decisions as full budget, measurably fewer trials."""
        cache, _, _ = warm
        stopped, _ = micro_campaign(
            cache, tmp_path / "stopped", max_trials=32, shard_trials=4
        )
        full, _ = micro_campaign(
            cache, tmp_path / "full", max_trials=32, shard_trials=4, early_stop=False
        )
        assert stopped.manifest["totals"]["trials_saved"] > 0
        assert full.manifest["totals"]["trials_saved"] == 0
        for key, cell in stopped.manifest["cells"].items():
            assert cell["decision"] == full.manifest["cells"][key]["decision"], key

    def test_campaign_validation(self, vgg, tmp_path):
        with pytest.raises(ConfigurationError):
            micro_campaign(tmp_path, tmp_path, max_trials=0)
        with pytest.raises(ConfigurationError):
            micro_campaign(tmp_path, tmp_path, ci_width=0.0)
        with pytest.raises(ConfigurationError):
            micro_campaign(tmp_path, tmp_path, max_shards=-1)


class TestRecallCount:
    """``run.recalled_shards`` rides the *validated* ``has()`` probe.

    Regression for the serve-mode cache hardening: a torn cache entry (a
    writer killed mid-``store``, a full disk) must probe as a miss, so a
    resume's recall report never claims shards that ``load()`` would then
    reject and recompute anyway.
    """

    @pytest.mark.concurrency
    def test_cold_campaign_recalls_nothing(self, warm):
        _, _, result = warm
        assert result.manifest["run"]["recalled_shards"] == 0

    @pytest.mark.concurrency
    def test_torn_entry_never_inflates_recall(self, warm, tmp_path):
        cache, _, result = warm
        executed = result.manifest["run"]["executed_shards"]
        assert executed >= 1
        store = ResultCache(Path(cache))
        # Tear the first cell's first shard entry: shard 0 of any
        # non-fault-free cell is always executed, so it is in the cache,
        # and the contiguous-prefix rule forces its recompute on resume.
        victim = next(
            cell["shard_keys"][0]
            for cell in result.manifest["cells"].values()
            if cell["shard_keys"]
        )
        assert store.has(victim)
        store.path_for(victim).write_bytes(b"")
        assert not store.has(victim)

        resumed, engine = micro_campaign(cache, tmp_path, resume=True)
        # every other executed shard recalls; the torn one honestly does
        # not — and is recomputed and re-stored, bit-identically
        assert resumed.manifest["run"]["recalled_shards"] == executed - 1
        assert engine.stats.misses >= 1
        assert store.has(victim)
        assert stable_manifest(resumed.manifest) == stable_manifest(result.manifest)


class TestSigtermResume:
    def test_sigterm_mid_campaign_then_resume(self, vgg, tmp_path, monkeypatch):
        """A real SIGTERM against a live campaign process: the resumed
        manifest must reproduce an uninterrupted run's bit for bit
        (modulo the volatile ``run`` block)."""
        cache_ref = tmp_path / "cache-ref"
        cache_kill = tmp_path / "cache-kill"
        # Share the trained snapshot so both caches host the same network.
        for cache in (cache_ref, cache_kill):
            cache.mkdir()
            state = cache / (
                f"{RECIPE}-{MICRO.name}-w{MICRO.width}-n{MICRO.n_train}"
                f"-e{MICRO.epochs}-s0.npz"
            )
            save_model_state(vgg.model, state)

        monkeypatch.setenv("REPRO_CACHE", str(cache_ref))
        reference, _ = micro_campaign(cache_ref, tmp_path / "art-ref")

        script = tmp_path / "campaign_script.py"
        script.write_text(
            "import sys\n"
            "from repro.core import MappingStrategy\n"
            "from repro.engine import SimEngine\n"
            "from repro.experiments.campaign import run_campaign\n"
            "from repro.experiments.common import SCALES\n"
            "from repro.hw.variations import PAPER_CORNERS\n"
            f"run_campaign({RECIPE!r}, SCALES['micro'], max_trials=12,\n"
            "    shard_trials=3, strategies=[MappingStrategy.BASELINE],\n"
            "    corners=list(PAPER_CORNERS[:3]),\n"
            "    engine=SimEngine(backend='vector', jobs=1),\n"
            "    artifacts_dir=sys.argv[1])\n"
        )
        env = dict(os.environ)
        env["REPRO_CACHE"] = str(cache_kill)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src)
        proc = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path / "art-kill")],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Let it get past TER measurement into the shard stream, then kill.
        results_dir = cache_kill / "sim-results"
        deadline = time.time() + 120
        while time.time() < deadline and proc.poll() is None:
            if sum(1 for _ in results_dir.glob("*/*.npz")) >= 16:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            assert proc.returncode != 0
        # else: the campaign finished before the kill — the resume check
        # below still holds (and the cooperative-kill test covers mid-
        # flight interruption deterministically).

        monkeypatch.setenv("REPRO_CACHE", str(cache_kill))
        resumed, _ = micro_campaign(cache_kill, tmp_path / "art-resume", resume=True)
        assert resumed.manifest["complete"]
        assert stable_manifest(resumed.manifest) == stable_manifest(
            reference.manifest
        )


# ---------------------------------------------------------------------- #
# Early-stop soundness on synthetic Bernoulli grids
# ---------------------------------------------------------------------- #
def simulate_cell(p, n_images, shard_trials, n_shards, rng):
    """Per-shard exact-count results for a Bernoulli(p) cell."""
    shards = []
    for _ in range(n_shards):
        counts = rng.binomial(n_images, p, size=shard_trials)
        shards.append(
            CellAggregate(
                n_images=n_images,
                n_trials=shard_trials,
                correct=int(counts.sum()),
                correct_sq=int((counts.astype(np.int64) ** 2).sum()),
            )
        )
    return shards


def run_rule(shards, baseline_ci, ci_width, early_stop):
    agg = None
    for shard in shards:
        agg = shard if agg is None else agg.merge(shard)
        if early_stop:
            reason = stop_reason(agg.wilson_ci(), baseline_ci, ci_width)
            if reason is not None:
                return agg, reason
    return agg, "budget"


class TestEarlyStopSoundness:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        base_p=st.sampled_from([0.3, 0.5, 0.7]),
        gap=st.sampled_from([-0.4, -0.3, 0.0, 0.3, 0.4]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_stopping_never_flips_the_decision(self, base_p, gap, seed):
        """On grids that are decidable (|gap| >= 0.3, far beyond the CI
        resolution) or exactly null (gap = 0), stopping early must yield
        the decision the full budget would: the drawn effect sizes are
        bounded away from the decision boundary, so Wilson intervals at
        these sample sizes cannot cross it."""
        rng = np.random.default_rng(seed)
        p = min(0.98, max(0.02, base_p + gap))
        baseline_ci = wilson_interval(int(round(base_p * 4096)), 4096)
        shards = simulate_cell(
            p, n_images=64, shard_trials=4, n_shards=40, rng=rng
        )
        stopped_agg, stopped_reason = run_rule(
            shards, baseline_ci, ci_width=0.08, early_stop=True
        )
        full_agg, _ = run_rule(shards, baseline_ci, ci_width=0.08, early_stop=False)
        stopped_decision = decide(stopped_agg.wilson_ci(), baseline_ci)
        full_decision = decide(full_agg.wilson_ci(), baseline_ci)
        assert stopped_decision == full_decision
        if gap == 0.0:
            assert stopped_decision == "indistinguishable"
            assert stopped_reason in ("converged", "budget")
        else:
            assert stopped_reason == "separated"
            assert stopped_decision == ("degraded" if gap < 0 else "elevated")
        # early stopping must actually save work on separated cells
        if stopped_reason == "separated":
            assert stopped_agg.n_trials < full_agg.n_trials
