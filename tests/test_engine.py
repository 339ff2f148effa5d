"""Engine tests: backend equivalence, cache semantics, job hashing.

The heart of this module is the equivalence matrix that licenses the
``vector`` backend to substitute for the reference simulator anywhere:
across both dataflows, all paper PVTA corners and all three mapping
strategies, ``vector`` must reproduce the reference
``LayerReliabilityReport`` bit for bit — functional outputs, integer-
valued statistics and the TER alike.  Property tests
cover the planner's output-channel permutation (always a bijection) and
the result cache (hits are byte-identical to cold runs).
"""

import struct
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.cache as cache_module
from repro.arch import AcceleratorConfig, Dataflow
from repro.core import MappingStrategy, plan_layer
from repro.engine import (
    ResultCache,
    SimEngine,
    SimJob,
    backend_names,
    get_backend,
    job_key,
    register_backend,
)
from repro.errors import ConfigurationError, MappingError, MappingFallbackWarning
from repro.hw.variations import PAPER_CORNERS, TER_EVAL_CORNER, corner_by_name


def make_case(seed=0, n_pixels=13, c_eff=24, k=8):
    rng = np.random.default_rng(seed)
    acts = rng.integers(0, 256, size=(n_pixels, c_eff))
    weights = rng.integers(-128, 128, size=(c_eff, k))
    return acts, weights


def make_job(seed=0, n_pixels=13, c_eff=24, k=8, **kwargs):
    acts, weights = make_case(seed, n_pixels, c_eff, k)
    kwargs.setdefault("corners", PAPER_CORNERS)
    kwargs.setdefault("group_size", 4)
    return SimJob(acts=acts, weights=weights, **kwargs)


def assert_reports_equivalent(ref, got):
    assert set(ref) == set(got)
    for name in ref:
        r, f = ref[name], got[name]
        assert np.array_equal(r.outputs, f.outputs)
        assert r.outputs.dtype == f.outputs.dtype
        assert r.ter == f.ter
        assert r.sign_flip_rate == f.sign_flip_rate
        assert r.mean_chain_length == f.mean_chain_length
        assert r.n_cycles == f.n_cycles
        assert r.n_macs_per_output == f.n_macs_per_output
        assert r.strategy == f.strategy
        assert r.corner_name == f.corner_name == name


class TestBackendEquivalence:
    """``vector`` must be indistinguishable from ``reference``."""

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    @pytest.mark.parametrize("strategy", list(MappingStrategy))
    def test_equivalence_matrix(self, dataflow, strategy):
        job = make_job(
            seed=hash(dataflow.value) % 100,
            strategy=strategy,
            config=AcceleratorConfig(dataflow=dataflow),
            pixel_chunk=5,  # 13 pixels -> chunks of 5, 5, 3
        )
        ref = get_backend("reference").run(job)
        vector = get_backend("vector").run(job)
        assert len(ref) == len(PAPER_CORNERS)
        assert_reports_equivalent(ref, vector)

    @pytest.mark.parametrize("n_pixels", [1, 4, 11])
    def test_weight_stationary_chunk_boundaries(self, n_pixels):
        # 11 pixels at chunk 5 ends in a singleton chunk; 1 pixel is all
        # boundary — the cases where WS flip bookkeeping can drift.
        job = make_job(
            seed=3,
            n_pixels=n_pixels,
            strategy=MappingStrategy.REORDER,
            config=AcceleratorConfig(dataflow=Dataflow.WEIGHT_STATIONARY),
            pixel_chunk=5,
        )
        assert_reports_equivalent(
            get_backend("reference").run(job), get_backend("vector").run(job)
        )

    def test_equivalence_with_indivisible_k(self):
        # K=10 at group 4 exercises the clustering fallback and a
        # narrower trailing group in both backends.
        with pytest.warns(MappingFallbackWarning):
            job = make_job(seed=5, k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
            ref = get_backend("reference").run(job)
        with pytest.warns(MappingFallbackWarning):
            vector = get_backend("vector").run(job)
        assert_reports_equivalent(ref, vector)

    def test_equivalence_under_pixel_blocking(self, monkeypatch):
        # Force the vector backend's cache-sized tiles down to one pixel
        # chunk so a job spans several blocks; results must not move.
        from repro.engine import vector

        job = make_job(
            seed=21,
            n_pixels=23,
            strategy=MappingStrategy.REORDER,
            config=AcceleratorConfig(dataflow=Dataflow.WEIGHT_STATIONARY),
            pixel_chunk=4,
        )
        unblocked = get_backend("vector").run(job)
        monkeypatch.setattr(vector, "_MAX_BLOCK_ELEMENTS", 1)  # 1 chunk per block
        blocked = get_backend("vector").run(job)
        ref = get_backend("reference").run(job)
        assert_reports_equivalent(ref, blocked)
        assert_reports_equivalent(unblocked, blocked)

    def test_equivalence_with_out_of_range_operands(self):
        # Operands wider than the configured MAC datapath (SimJob does
        # not range-check, matching run_gemm_corners): both backends'
        # delay histograms must grow rather than crash.
        rng = np.random.default_rng(17)
        acts = rng.integers(0, 70000, size=(6, 8))
        weights = rng.integers(-3, 4, size=(8, 4))
        job = SimJob(acts=acts, weights=weights, corners=PAPER_CORNERS, group_size=2)
        assert_reports_equivalent(
            get_backend("reference").run(job), get_backend("vector").run(job)
        )

    def test_vector_matches_expected_ber_helper(self):
        job = make_job(seed=9)
        ref = get_backend("reference").run(job)[TER_EVAL_CORNER.name]
        vector = get_backend("vector").run(job)[TER_EVAL_CORNER.name]
        assert ref.expected_output_ber() == vector.expected_output_ber()


class TestPlanPermutationProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        c_eff=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=1, max_value=24),
        group_size=st.integers(min_value=1, max_value=8),
        strategy=st.sampled_from(list(MappingStrategy)),
        seed=st.integers(min_value=0, max_value=4),
    )
    def test_output_channel_permutation_is_bijection(
        self, c_eff, k, group_size, strategy, seed
    ):
        rng = np.random.default_rng(seed * 1009 + c_eff * 31 + k)
        weights = rng.integers(-128, 128, size=(c_eff, k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MappingFallbackWarning)
            plan = plan_layer(weights, group_size=group_size, strategy=strategy, seed=seed)
        perm = plan.output_channel_permutation()
        assert perm.shape == (k,)
        assert sorted(perm.tolist()) == list(range(k))


class TestResultCache:
    def test_cache_hit_is_byte_identical_to_cold_run(self, tmp_path):
        engine = SimEngine(backend="reference", cache_dir=tmp_path)
        job = make_job(seed=11, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
        cold = engine.run(job)
        assert engine.stats.misses == 1 and engine.stats.hits == 0
        warm = engine.run(job)
        assert engine.stats.hits == 1
        for name in cold:
            c, w = cold[name], warm[name]
            assert c.outputs.tobytes() == w.outputs.tobytes()
            assert c.outputs.dtype == w.outputs.dtype and c.outputs.shape == w.outputs.shape
            # exact float equality: npz round-trips float64 bit-for-bit
            assert c.ter == w.ter
            assert c.sign_flip_rate == w.sign_flip_rate
            assert c.mean_chain_length == w.mean_chain_length
            assert (c.n_cycles, c.n_macs_per_output) == (w.n_cycles, w.n_macs_per_output)
            assert (c.strategy, c.corner_name) == (w.strategy, w.corner_name)

    def test_cache_is_backend_agnostic(self, tmp_path):
        # Backends produce identical bits (equivalence suite above), so
        # the cache key deliberately excludes the backend name.
        job = make_job(seed=12)
        vector_engine = SimEngine(backend="vector", cache_dir=tmp_path)
        cold = vector_engine.run(job)
        ref_engine = SimEngine(backend="reference", cache_dir=tmp_path)
        warm = ref_engine.run(job)
        assert ref_engine.stats.hits == 1
        assert warm[TER_EVAL_CORNER.name].ter == cold[TER_EVAL_CORNER.name].ter
        # The hit is exactly what reference itself would have computed.
        fresh = SimEngine(backend="reference", use_cache=False).run(job)
        assert_reports_equivalent(fresh, warm)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job(seed=13)
        key = job.key()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz")
        assert cache.load(key, job) is None
        assert not path.exists()  # removed so it cannot keep missing
        assert cache.load(key, job) is None

    def test_corrupt_deflate_stream_is_a_miss(self, tmp_path):
        # A member whose deflate stream is damaged raises zlib.error, not
        # BadZipFile; it must be a miss that deletes the entry too, or
        # every rerun would trip over the same file.
        # The cache writes stored members; this entry is deflated, as
        # earlier versions wrote theirs, and must still load.
        cache = ResultCache(tmp_path)
        job = make_job(seed=15)
        key = job.key()
        result = SimEngine(backend="vector", use_cache=False).run(job)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **job.serialize_result(result), __kind__=np.array(job.kind))
        assert_reports_equivalent(result, cache.load(key, job))
        assert path.exists()  # a good deflated entry is kept
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("ter.npy")
        assert info.compress_type == zipfile.ZIP_DEFLATED
        blob = bytearray(path.read_bytes())
        local = info.header_offset
        name_len, extra_len = struct.unpack_from("<HH", blob, local + 26)
        payload = local + 30 + name_len + extra_len
        # 0xFF opens a final block of the reserved deflate block type.
        blob[payload : payload + info.compress_size] = b"\xff" * info.compress_size
        path.write_bytes(bytes(blob))
        assert cache.load(key, job) is None
        assert not path.exists()

    def test_refused_zip_header_field_is_a_miss(self, tmp_path):
        # zipfile refuses a member whose central-directory record claims
        # encryption (RuntimeError) or an unknown compression method
        # (NotImplementedError); both are damaged entries, hence misses.
        cache = ResultCache(tmp_path)
        job = make_job(seed=16)
        key = job.key()
        result = SimEngine(backend="vector", use_cache=False).run(job)
        path = cache.path_for(key)
        for offset, value in ((8, b"\x01\x00"), (10, b"\x63\x00")):  # flags, method
            cache.store(key, job, result)
            blob = bytearray(path.read_bytes())
            record = blob.index(b"PK\x01\x02")  # first central-directory record
            blob[record + offset : record + offset + 2] = value
            path.write_bytes(bytes(blob))
            assert cache.load(key, job) is None
            assert not path.exists()

    def test_non_decode_error_propagates_and_keeps_the_entry(self, tmp_path, monkeypatch):
        # Only decode errors mark an entry corrupt; anything else (here a
        # SystemError, standing for an interpreter fault or a bug in a
        # deserializer) must surface without deleting a valid entry.
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        job = make_job(seed=14)
        engine.run(job)
        key = job.key()
        path = engine.cache.path_for(key)

        def flaky(source):
            raise SystemError("error return without exception set")

        monkeypatch.setattr(cache_module, "read_npz", flaky)
        fresh = ResultCache(tmp_path)
        with pytest.raises(SystemError):
            fresh.load(key, job)
        assert path.exists()
        monkeypatch.undo()
        assert fresh.load(key, job) is not None

    def test_clear_and_len(self, tmp_path):
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        engine.run_many([make_job(seed=s) for s in (20, 21)])
        cache = engine.cache
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_in_flight_temp_files_invisible_to_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        orphan = cache.root / "ab" / ".abcd.12345.tmp"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"half-written entry")
        assert len(cache) == 0
        assert cache.clear() == 0
        assert orphan.exists()  # clear() must not race a concurrent store

    def test_strict_job_raises_even_on_cache_hit(self, tmp_path):
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        with pytest.warns(MappingFallbackWarning):
            relaxed = make_job(k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
            engine.run(relaxed)  # caches the degraded fallback result
        strict_twin = make_job(
            k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER, strict=True
        )
        with pytest.raises(MappingError):
            engine.run(strict_twin)

    def test_fallback_warning_survives_cache_hit(self, tmp_path):
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        with pytest.warns(MappingFallbackWarning):
            engine.run(make_job(k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER))
        with pytest.warns(MappingFallbackWarning):  # hit must stay loud
            engine.run(make_job(k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER))
        assert engine.stats.hits == 1

    def test_fallback_warning_fires_exactly_once_per_inline_miss(self):
        engine = SimEngine(backend="vector", use_cache=False)
        job = make_job(k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.run(job)
        fallbacks = [w for w in caught if issubclass(w.category, MappingFallbackWarning)]
        assert len(fallbacks) == 1  # scheduler warns; backend repeat suppressed

    def test_engine_leaves_the_warning_registry_alone(self, tmp_path):
        # Under the default once-per-location filter a repeat of the same
        # fallback shows once: running a miss must not mutate the warning
        # filters, which would make Python forget what it has shown.
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        job = make_job(seed=52, k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            engine.run(job)  # miss: simulated inline
            engine.run(job)  # hit
        fallbacks = [w for w in caught if issubclass(w.category, MappingFallbackWarning)]
        assert len(fallbacks) == 1
        assert engine.stats.hits == 1

    def test_cli_shows_each_distinct_warning_once(self):
        from repro.cli import _each_warning_once

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with _each_warning_once():
                for _ in range(3):
                    warnings.warn("first", MappingFallbackWarning)
                    warnings.warn("second", MappingFallbackWarning)
        assert [str(w.message) for w in caught] == ["first", "second"]


class TestCacheReadPath:
    """One file read per cached result: each npz member is read once."""

    @staticmethod
    def stored(tmp_path, seeds=(40,)):
        cache = ResultCache(tmp_path)
        jobs = [make_job(seed=s) for s in seeds]
        results = SimEngine(backend="vector", use_cache=False).run_many(jobs)
        for job, result in zip(jobs, results):
            cache.store(job.key(), job, result)
        return ResultCache(tmp_path), jobs

    def test_load_reads_each_member_once(self, tmp_path, monkeypatch):
        cache, (job,) = self.stored(tmp_path)
        with zipfile.ZipFile(cache.path_for(job.key())) as archive:
            members = len(archive.namelist())
        original = cache_module._read_member
        calls = []

        def counting(data, member):
            calls.append(member.name)
            return original(data, member)

        monkeypatch.setattr(cache_module, "_read_member", counting)
        reports = cache.load(job.key(), job)
        assert len(reports) == len(job.corners)
        assert sorted(calls) == sorted(set(calls)) and len(calls) == members


class TestJobKey:
    def test_key_is_content_addressed(self):
        a = make_job(seed=30, label="first")
        b = make_job(seed=30, label="relabelled")  # label excluded from key
        assert job_key(a) == job_key(b)

    @pytest.mark.parametrize(
        "variation",
        [
            dict(seed=31),
            dict(strategy=MappingStrategy.REORDER),
            dict(group_size=8),
            dict(criteria="mag_first"),
            dict(pixel_chunk=7),
            dict(corners=(TER_EVAL_CORNER,)),
            dict(config=AcceleratorConfig(dataflow=Dataflow.WEIGHT_STATIONARY)),
        ],
    )
    def test_key_changes_with_spec(self, variation):
        base = make_job(seed=30)
        assert job_key(base) != job_key(make_job(**{"seed": 30, **variation}))


class TestScheduler:
    def test_run_many_preserves_order_with_mixed_hits(self, tmp_path):
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        jobs = [make_job(seed=s, strategy=MappingStrategy.BASELINE) for s in range(3)]
        engine.run(jobs[1])  # pre-populate the middle job
        results = engine.run_many(jobs)
        for job, reports in zip(jobs, results):
            direct = get_backend("vector").run(job)
            assert np.array_equal(
                reports[TER_EVAL_CORNER.name].outputs, direct[TER_EVAL_CORNER.name].outputs
            )
        assert engine.stats.hits == 1

    def test_same_key_jobs_deduplicate_within_batch(self, tmp_path):
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        job = make_job(seed=60)
        twin = make_job(seed=60, label="relabelled")  # same key, new label
        results = engine.run_many([job, twin, make_job(seed=61)])
        assert engine.stats.misses == 2  # the duplicate never simulates
        assert engine.stats.deduped == 1
        for name in results[0]:
            assert results[0][name].ter == results[1][name].ter
            assert np.array_equal(results[0][name].outputs, results[1][name].outputs)

    def test_no_dedup_without_cache(self):
        # With the cache off no keys are derived; every job executes.
        engine = SimEngine(backend="vector", use_cache=False)
        job = make_job(seed=62)
        engine.run_many([job, job])
        assert engine.stats.misses == 2
        assert engine.stats.deduped == 0

    def test_process_pool_matches_inline(self, tmp_path):
        jobs = [make_job(seed=s) for s in (40, 41, 42)]
        inline = SimEngine(backend="vector", use_cache=False).run_many(jobs)
        pooled = SimEngine(backend="vector", jobs=2, use_cache=False).run_many(jobs)
        for i, p in zip(inline, pooled):
            assert_reports_equivalent(i, p)

    def test_fallback_warning_reaches_parent_with_process_pool(self):
        # Worker-process warnings never reach the caller; the scheduler
        # must diagnose degraded clustering in the submitting process.
        jobs = [
            make_job(seed=s, k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
            for s in (50, 51)
        ]
        engine = SimEngine(backend="vector", jobs=2, use_cache=False)
        with pytest.warns(MappingFallbackWarning):
            engine.run_many(jobs)

    def test_env_jobs_parsed_lazily(self, monkeypatch):
        from repro.engine import configure_default_engine, reset_default_engine

        monkeypatch.setenv("REPRO_JOBS", "four")
        try:
            # explicit argument wins without parsing the env value
            engine = configure_default_engine(jobs=2)
            assert engine.jobs == 2
            with pytest.raises(ConfigurationError):
                configure_default_engine()
        finally:
            reset_default_engine()

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SimEngine(backend="warp-drive")
        with pytest.raises(ConfigurationError):
            SimEngine(jobs=0)
        with pytest.raises(ConfigurationError):
            get_backend("nope")
        with pytest.raises(ConfigurationError):
            register_backend("vector", lambda: None)  # duplicate name

    def test_backend_names(self):
        assert backend_names() == ["reference", "vector"]


class TestSimJobValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(MappingError):
            SimJob(acts=np.ones(4), weights=np.ones((4, 2)), corners=PAPER_CORNERS)
        with pytest.raises(MappingError):
            SimJob(acts=np.ones((2, 5)), weights=np.ones((4, 2)), corners=PAPER_CORNERS)
        with pytest.raises(MappingError):
            SimJob(acts=np.ones((2, 4)), weights=np.ones((4, 2)), corners=())

    def test_accepts_strategy_string(self):
        job = make_job(strategy="cluster_then_reorder")
        assert job.strategy is MappingStrategy.CLUSTER_THEN_REORDER

    def test_group_size_defaults_to_config_cols(self):
        acts, weights = make_case()
        job = SimJob(acts=acts, weights=weights, corners=PAPER_CORNERS)
        assert job.resolved_group_size == job.config.cols


class TestNameLookups:
    """Satellite: lookup errors list valid names the same way everywhere."""

    def test_corner_lookup_is_case_insensitive(self):
        assert corner_by_name("aging&vt-5%") is TER_EVAL_CORNER
        assert corner_by_name("IDEAL").name == "Ideal"

    @pytest.mark.parametrize(
        "lookup, bad",
        [
            (MappingStrategy.from_name, "zigzag"),
            (Dataflow.from_name, "row_stationary"),
            (corner_by_name, "Aging-99y"),
            (get_backend, "gpu"),
        ],
    )
    def test_error_messages_list_valid_names(self, lookup, bad):
        with pytest.raises(ConfigurationError) as excinfo:
            lookup(bad)
        message = str(excinfo.value)
        assert message.startswith("unknown ")
        assert repr(bad) in message
        assert "expected one of: " in message


class TestStrictPlanning:
    """Satellite: the clustering fallback is loud, and strict raises."""

    def test_fallback_warns(self):
        rng = np.random.default_rng(0)
        with pytest.warns(MappingFallbackWarning, match="not divisible"):
            plan_layer(rng.integers(-5, 5, (8, 10)), 4, MappingStrategy.CLUSTER_THEN_REORDER)
        with pytest.warns(MappingFallbackWarning, match="single group"):
            plan_layer(rng.integers(-5, 5, (8, 4)), 4, MappingStrategy.CLUSTER_THEN_REORDER)

    def test_strict_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MappingError):
            plan_layer(
                rng.integers(-5, 5, (8, 10)),
                4,
                MappingStrategy.CLUSTER_THEN_REORDER,
                strict=True,
            )

    def test_strict_job_raises_at_plan_time(self):
        job = make_job(k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER, strict=True)
        with pytest.raises(MappingError):
            get_backend("vector").run(job)

    def test_no_warning_when_clustering_succeeds(self):
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", MappingFallbackWarning)
            plan = plan_layer(
                rng.integers(-5, 5, (8, 16)), 4, MappingStrategy.CLUSTER_THEN_REORDER
            )
        assert plan.clustering is not None
