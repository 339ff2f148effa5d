"""Engine-scheduled fault injection: hashing, caching, reproducibility.

The regression at the heart of this module: a seeded injection campaign
must be *bit-identical* however it executes — inline (``--jobs 1``),
across a process pool (``--jobs N``), cold, or recalled from the on-disk
cache.  Anything less would make cached accuracy grids silently diverge
from fresh ones.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import SimEngine
from repro.errors import ConfigurationError
from repro.experiments.common import SCALES, get_bundle
from repro.faults import (
    FaultInjectionEvaluator,
    InjectionJob,
    InjectionResult,
    bers_from_layer_ters,
    evaluate_bundle_under_injection,
    injection_job_for_bundle,
    injection_runtime,
    run_injection_trials,
    trial_seed,
)
from repro.faults.injection_job import INJECTION_SCHEMA_VERSION

MICRO = SCALES["micro"]


@pytest.fixture(scope="module")
def bundle():
    return get_bundle("vgg16_cifar10", MICRO)


def make_job(bundle, ber=1e-3, base_seed=7, n_trials=2, **kwargs):
    layers = [qc.name for qc in bundle.qnet.qconvs()[:3]]
    return injection_job_for_bundle(
        bundle,
        {name: ber for name in layers},
        inject_n=16,
        n_trials=n_trials,
        base_seed=base_seed,
        **kwargs,
    )


class TestJobKey:
    def test_provenance_excluded(self, bundle):
        a = make_job(bundle, corner="Ideal", label="first")
        b = make_job(bundle, corner="Aging-10y", label="second")
        assert a.key() == b.key()

    def test_bers_normalized(self, bundle):
        layers = [qc.name for qc in bundle.qnet.qconvs()[:2]]
        as_dict = injection_job_for_bundle(
            bundle, {layers[0]: 1e-3, layers[1]: 2e-3}, inject_n=8, n_trials=1
        )
        as_pairs = injection_job_for_bundle(
            bundle, [(layers[1], 2e-3), (layers[0], 1e-3)], inject_n=8, n_trials=1
        )
        assert as_dict.key() == as_pairs.key()
        assert as_dict.bers == as_pairs.bers

    @pytest.mark.parametrize(
        "variation",
        [
            dict(base_seed=8),
            dict(n_trials=3),
            dict(topk=3),
            dict(ber=2e-3),
        ],
    )
    def test_key_changes_with_spec(self, bundle, variation):
        assert make_job(bundle).key() != make_job(bundle, **variation).key()

    def test_key_changes_with_scale_and_recipe(self, bundle):
        base = make_job(bundle)
        other_scale = InjectionJob(
            recipe=base.recipe,
            scale=SCALES["tiny"],
            bers=base.bers,
            inject_n=base.inject_n,
            n_trials=base.n_trials,
            base_seed=base.base_seed,
        )
        assert base.key() != other_scale.key()

    def test_validation(self, bundle):
        with pytest.raises(ConfigurationError):
            make_job(bundle, ber=1.5)
        with pytest.raises(ConfigurationError):
            make_job(bundle, n_trials=0)
        with pytest.raises(ConfigurationError):
            InjectionJob(recipe="x", scale=MICRO, bers={}, inject_n=0, n_trials=1)
        with pytest.raises(ConfigurationError, match="n_test"):
            InjectionJob(
                recipe="x", scale=MICRO, bers={}, inject_n=MICRO.n_test + 1, n_trials=1
            )
        with pytest.raises(ConfigurationError):
            InjectionJob(
                recipe="x", scale=MICRO, bers={}, inject_n=1, n_trials=1, mode="sideways"
            )
        with pytest.raises(ConfigurationError):
            InjectionJob(recipe="x", scale=object(), bers={}, inject_n=1, n_trials=1)
        with pytest.raises(ConfigurationError):
            InjectionJob(
                recipe="x", scale=MICRO, bers={}, inject_n=1, n_trials=1,
                runtime="vectorized-maybe",
            )

    def test_schema_version_bumped_for_v2_protocol(self):
        # v2 = per-(trial, layer) substreams + full-batch MSB windows;
        # v1 cache entries must miss rather than deserialize as current.
        assert INJECTION_SCHEMA_VERSION >= 2

    def test_runtime_excluded_from_key(self, bundle):
        # Both runtimes are bit-identical by contract, so — like the
        # engine backend for SimJob — the choice must not split the cache.
        a = make_job(bundle, runtime="serial")
        b = make_job(bundle, runtime="batched")
        assert a.key() == b.key() == make_job(bundle).key()

    def test_runtime_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_INJECTION_RUNTIME", raising=False)
        assert injection_runtime() == "batched"
        assert injection_runtime("serial") == "serial"
        monkeypatch.setenv("REPRO_INJECTION_RUNTIME", "serial")
        assert injection_runtime() == "serial"
        assert injection_runtime("batched") == "batched"  # explicit wins
        with pytest.raises(ConfigurationError):
            injection_runtime("sideways")

    def test_configure_without_flag_restores_launch_env(self, monkeypatch):
        # A flag-less CLI run after a flagged one must see the default
        # again, not the leaked flag of the previous invocation.
        from repro.faults import configure_injection_runtime
        import repro.faults.injection_job as ij

        monkeypatch.delenv("REPRO_INJECTION_RUNTIME", raising=False)
        monkeypatch.setattr(ij, "_ENV_BEFORE_CONFIGURE", None)
        assert configure_injection_runtime("serial") == "serial"
        assert injection_runtime() == "serial"
        assert configure_injection_runtime(None) == "batched"
        assert injection_runtime() == "batched"
        # a user-launched env value survives the configure round trip
        monkeypatch.setenv("REPRO_INJECTION_RUNTIME", "serial")
        configure_injection_runtime("batched")
        assert injection_runtime() == "batched"
        assert configure_injection_runtime(None) == "serial"


class TestReproducibility:
    """Same (job, seed) -> bit-identical accuracies, any execution mode."""

    def test_trial_seeds_are_spec_derived(self):
        assert trial_seed(0, 0) == 17
        assert trial_seed(3, 2) == 2020

    def test_trial_seed_sequence_pinned(self):
        # The shard/resume contract: trial t of a base_seed-7 campaign
        # draws exactly these seeds, forever.  Changing trial_seed
        # silently invalidates every cached shard — if this test fails,
        # bump INJECTION_SCHEMA_VERSION instead of repinning.
        assert [trial_seed(7, t) for t in range(5)] == [24, 1024, 2024, 3024, 4024]

    def test_inline_deterministic(self, bundle):
        job = make_job(bundle)
        assert job.execute() == job.execute()

    def test_bundle_memo_keyed_by_training_seed(self, bundle):
        # bundle_seed feeds the job hash, so the in-memory bundle memo
        # must distinguish seeds too — otherwise an inline run would
        # reuse seed-0 weights for a seed-1 job while a fresh pool
        # worker would train the real seed-1 model.
        other = get_bundle("vgg16_cifar10", MICRO, seed=1)
        assert other is not bundle
        assert get_bundle("vgg16_cifar10", MICRO, seed=0) is bundle

    def test_pool_matches_inline_cold(self, bundle):
        jobs = [make_job(bundle, base_seed=s) for s in (11, 12)]
        inline = SimEngine(backend="vector", use_cache=False).run_many(jobs)
        pooled = SimEngine(backend="vector", jobs=2, use_cache=False).run_many(jobs)
        for i, p in zip(inline, pooled):
            assert i.trial_accuracies == p.trial_accuracies
            assert i.flips_injected == p.flips_injected

    def test_cache_hit_is_byte_identical_to_cold_run(self, bundle, tmp_path):
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        job = make_job(bundle)
        cold = engine.run(job)
        assert engine.stats.misses == 1
        warm = engine.run(job)
        assert engine.stats.hits == 1
        assert isinstance(warm, InjectionResult)
        assert cold.trial_accuracies == warm.trial_accuracies
        assert cold.flips_injected == warm.flips_injected

    def test_result_count_matches_trials(self, bundle):
        result = make_job(bundle, n_trials=2).execute()
        assert len(result.trial_accuracies) == 2
        assert result.flips_injected > 0

    def test_batched_path_through_pool_and_cache(self, bundle, tmp_path):
        """The stacked runtime end-to-end: pool fan-out + warm cache + the
        serial reference all agree bit-for-bit on the same job batch."""
        jobs = [make_job(bundle, base_seed=s, runtime="batched") for s in (21, 22)]
        serial_jobs = [dataclasses.replace(j, runtime="serial") for j in jobs]
        pooled = SimEngine(backend="vector", jobs=2, use_cache=False).run_many(jobs)
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        cold = engine.run_many(jobs)
        warm = engine.run_many(jobs)
        assert engine.stats.hits == len(jobs)
        serial = SimEngine(backend="vector", use_cache=False).run_many(serial_jobs)
        for p, c, w, s in zip(pooled, cold, warm, serial):
            assert p.trial_accuracies == c.trial_accuracies == w.trial_accuracies
            assert s.trial_accuracies == c.trial_accuracies
            assert p.flips_injected == c.flips_injected == s.flips_injected

    def test_operand_pass_memoized_across_jobs(self, bundle):
        """A grid of same-bundle jobs shares one fault-free operand pass
        (and the in-process bundle memo), instead of paying per job."""
        import repro.faults.injection_job as ij

        ij._PASS_CACHE.clear()
        jobs = [make_job(bundle, base_seed=s, runtime="batched") for s in (31, 32, 33)]
        first = jobs[0].execute()
        assert len(ij._PASS_CACHE) == 1
        key, pass_before = next(iter(ij._PASS_CACHE.items()))
        for job in jobs[1:]:
            job.execute()
        assert len(ij._PASS_CACHE) == 1
        assert ij._PASS_CACHE[key] is pass_before  # reused, not rebuilt
        assert first.flips_injected > 0

    def test_operand_pass_cache_bounded_by_bytes(self, bundle, monkeypatch):
        """The pass LRU evicts on total bytes, keeping the freshest pass."""
        import repro.faults.injection_job as ij

        ij._PASS_CACHE.clear()
        make_job(bundle, base_seed=41, runtime="batched").execute()
        assert len(ij._PASS_CACHE) == 1
        one_pass = next(iter(ij._PASS_CACHE.values()))
        monkeypatch.setattr(ij, "_PASS_CACHE_MAX_BYTES", one_pass.nbytes())
        # a second bundle identity (different inject_n) must evict the first
        job = InjectionJob(
            recipe=bundle.recipe,
            scale=bundle.scale,
            bers=dict(make_job(bundle).bers),
            inject_n=8,
            n_trials=1,
            runtime="batched",
        )
        job.execute()
        assert len(ij._PASS_CACHE) == 1
        assert next(iter(ij._PASS_CACHE.values())) is not one_pass
        ij._PASS_CACHE.clear()

    def test_runtimes_share_cache_entries(self, bundle, tmp_path):
        """A serial job recalls a batched job's cached result (same key)."""
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        batched = engine.run(make_job(bundle, runtime="batched"))
        assert engine.stats.misses == 1
        recalled = engine.run(make_job(bundle, runtime="serial"))
        assert engine.stats.hits == 1
        assert recalled.trial_accuracies == batched.trial_accuracies


class TestAgainstInlineEvaluator:
    """The scheduled path must reproduce the inline evaluator exactly."""

    def test_engine_routed_equals_inline(self, bundle, tmp_path):
        layers = [qc.name for qc in bundle.qnet.qconvs()[:3]]
        bers = {name: 1e-3 for name in layers}
        x, y = bundle.x_test[:16], bundle.y_test[:16]

        inline = FaultInjectionEvaluator(bundle.qnet, n_trials=2).run(
            x, y, bers, base_seed=5
        )
        routed = evaluate_bundle_under_injection(
            bundle,
            bers,
            inject_n=16,
            n_trials=2,
            base_seed=5,
            engine=SimEngine(backend="vector", cache_dir=tmp_path),
        )
        assert routed.trial_accuracies == inline.trial_accuracies
        assert routed.mean_accuracy == inline.mean_accuracy
        assert routed.std_accuracy == inline.std_accuracy
        assert routed.ber_per_layer == inline.ber_per_layer

    def test_zero_ber_short_circuits_to_single_clean_trial(self, bundle):
        result = run_injection_trials(
            bundle.qnet,
            bundle.x_test[:16],
            bundle.y_test[:16],
            {"conv0": 0.0},
            n_trials=5,
        )
        assert len(result.trial_accuracies) == 1
        assert result.flips_injected == 0

    def test_eq1_pipeline_composes(self, bundle):
        # TER -> Eq.1 BER -> campaign, all through the public helpers.
        n_macs = {qc.name: qc.n_macs_per_output for qc in bundle.qnet.qconvs()}
        ters = {name: 1e-5 for name in n_macs}
        bers = bers_from_layer_ters(ters, n_macs)
        job = injection_job_for_bundle(bundle, bers, inject_n=8, n_trials=1)
        result = job.execute()
        assert 0.0 <= result.trial_accuracies[0] <= 1.0


class TestBaseSeedValidation:
    """``base_seed`` is validated uniformly at every entry point.

    An out-of-range seed that only failed deep inside numpy's RNG would
    poison the content-addressed cache with a key for a job that can
    never execute; both doors must reject it up front with the same
    error type.
    """

    BAD_SEEDS = [-1, 2**32, "7", 7.0, True]

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_job_construction_rejects(self, seed):
        with pytest.raises(ConfigurationError):
            InjectionJob(
                recipe="x", scale=MICRO, bers={"conv0": 1e-3},
                inject_n=1, n_trials=1, base_seed=seed,
            )

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_run_injection_trials_rejects(self, bundle, seed):
        with pytest.raises(ConfigurationError):
            run_injection_trials(
                bundle.qnet,
                bundle.x_test[:4],
                bundle.y_test[:4],
                {"conv0": 1e-3},
                n_trials=1,
                base_seed=seed,
            )

    def test_boundary_seeds_accepted(self):
        for seed in (0, 2**32 - 1):
            job = InjectionJob(
                recipe="x", scale=MICRO, bers={"conv0": 1e-3},
                inject_n=1, n_trials=1, base_seed=seed,
            )
            assert job.base_seed == seed


class TestColumnarSerialization:
    """The slim integer-only cache payload (no schema bump needed).

    ``serialize_result`` stores three integer arrays; the float
    accuracies are reconstructed as the exact ``correct / n_images``
    ratios — indistinguishable from the stored originals, because the
    evaluators compute them as exactly that division.  Entries written
    before the slimming (carrying a ``trial_accuracies`` column) must
    still load.
    """

    RESULT = InjectionResult(
        trial_accuracies=(10 / 16, 13 / 16, 0.0),
        flips_injected=42,
        trial_correct=(10, 13, 0),
        n_images=16,
    )

    def test_payload_is_integer_only(self):
        payload = InjectionJob.serialize_result(self.RESULT)
        assert sorted(payload) == ["flips_injected", "n_images", "trial_correct"]
        for arr in payload.values():
            assert arr.dtype == np.int64

    def test_round_trip_is_bit_identical(self):
        restored = InjectionJob.deserialize_result(
            InjectionJob.serialize_result(self.RESULT)
        )
        assert restored == self.RESULT

    def test_legacy_payload_with_accuracies_still_loads(self):
        legacy = dict(InjectionJob.serialize_result(self.RESULT))
        legacy["trial_accuracies"] = np.asarray(
            self.RESULT.trial_accuracies, dtype=np.float64
        )
        restored = InjectionJob.deserialize_result(legacy)
        assert restored == self.RESULT

    def test_cache_round_trip_through_engine(self, bundle, tmp_path):
        job = make_job(bundle)
        engine = SimEngine(cache_dir=tmp_path, remote=False)
        fresh = engine.run(job)
        recalled = SimEngine(cache_dir=tmp_path, remote=False).run(job)
        assert recalled == fresh
        assert recalled.trial_accuracies == fresh.trial_accuracies
        assert recalled.trial_correct == fresh.trial_correct
