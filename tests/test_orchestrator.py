"""``read-repro all`` orchestrator: manifest, artifacts, cache reuse.

Runs the full sweep twice at the smallest scale against a private result
cache: the first (cold) run must produce an artifacts directory whose
manifest lists every figure with its job hashes; the second (warm) run
must be served entirely from the cache, reading each key once, and
produce a byte-identical manifest modulo the volatile ``"run"`` block.
"""

import json
import os

import pytest

from repro.engine import ResultCache, SimEngine, engine_context
from repro.experiments import RUNNERS, SCALES, common, fig10, run_all
from repro.experiments.orchestrator import SCALELESS, VOLATILE_MANIFEST_FIELDS
from repro.nn.datasets import SyntheticImageDataset
from repro.nn.quantize import QuantizedDynamicMatmul, QuantizedNetwork

SMALLEST = SCALES["micro"]

#: Figures whose measurements are engine simulations (vs. pure analyses).
SIM_FIGURES = {"fig2", "fig7", "fig8", "fig10", "fig11"}
INJECTION_FIGURES = {"fig10", "fig11"}


def _stripped(manifest_path):
    manifest = json.loads(manifest_path.read_text())
    for fld in VOLATILE_MANIFEST_FIELDS:
        manifest.pop(fld, None)
    return manifest


class CountingCache(ResultCache):
    """A result cache that records every key ``load`` is asked for."""

    def __init__(self, root):
        super().__init__(root)
        self.loaded = []

    def load(self, key, job):
        self.loaded.append(key)
        return super().load(key, job)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("orchestrator") / "cache"


@pytest.fixture(scope="module")
def warm_cache(cache_dir):
    return CountingCache(cache_dir)


@pytest.fixture(scope="module")
def sweeps(cache_dir, warm_cache):
    cold = run_all(
        scale=SMALLEST,
        artifacts_dir=cache_dir.parent / "cold",
        engine=SimEngine(backend="vector", jobs=1, cache_dir=cache_dir),
    )
    warm = run_all(
        scale=SMALLEST,
        artifacts_dir=cache_dir.parent / "warm",
        engine=SimEngine(backend="vector", jobs=1, cache_dir=warm_cache),
    )
    return cold, warm


class TestManifest:
    def test_lists_every_figure(self, sweeps):
        cold, _ = sweeps
        assert set(cold.manifest["experiments"]) == set(RUNNERS)

    def test_run_block_records_peak_rss(self, sweeps):
        for result in sweeps:
            on_disk = json.loads(result.manifest_path.read_text())
            for manifest in (result.manifest, on_disk):
                peak = manifest["run"]["peak_rss_mb"]
                assert set(peak) == {"parent", "workers"}
                assert peak["parent"] > 0 and peak["workers"] >= 0

    def test_outputs_written(self, sweeps):
        cold, _ = sweeps
        for name, entry in cold.manifest["experiments"].items():
            path = cold.artifacts_dir / entry["output"]
            assert path.exists() and path.stat().st_size > 0
            assert entry["description"]

    def test_engine_and_scale_recorded(self, sweeps):
        cold, _ = sweeps
        assert cold.manifest["scale"] == SMALLEST.name
        assert cold.manifest["engine"] == {"backend": "vector", "jobs": 1, "cache": True}

    def test_every_simulating_figure_submits_only_engine_jobs(self, sweeps):
        cold, _ = sweeps
        experiments = cold.manifest["experiments"]
        for name in SIM_FIGURES:
            assert experiments[name]["sim_jobs"], f"{name} plans no sim jobs"
        for name in INJECTION_FIGURES:
            assert experiments[name]["injection_jobs"], f"{name} plans no injections"
        for name in set(RUNNERS) - SIM_FIGURES:
            assert not experiments[name]["sim_jobs"]

    def test_job_records_carry_provenance(self, sweeps):
        cold, _ = sweeps
        jobs = cold.manifest["jobs"]
        assert jobs, "no job records in manifest"
        kinds = {record["kind"] for record in jobs.values()}
        assert kinds == {"sim", "injection"}
        referenced = set()
        for entry in cold.manifest["experiments"].values():
            referenced.update(entry["sim_jobs"])
            referenced.update(entry["injection_jobs"])
        assert referenced == set(jobs)
        sim_record = next(r for r in jobs.values() if r["kind"] == "sim")
        assert sim_record["corners"], "sim jobs must record their corners"

    def test_cross_figure_dedup(self, sweeps):
        # fig8 and fig10 measure the same layer TERs; fig2's
        # output-stationary half overlaps both — the planned job graph
        # must collapse the shared keys.
        cold, _ = sweeps
        sweep = cold.manifest["run"]["sweep"]
        assert sweep["unique"] < sweep["planned"]
        experiments = cold.manifest["experiments"]
        assert set(experiments["fig8"]["sim_jobs"]) <= set(experiments["fig10"]["sim_jobs"])


class TestCacheReuse:
    def test_cold_run_simulates(self, sweeps):
        cold, _ = sweeps
        assert cold.manifest["run"]["total"]["computed"] > 0
        assert cold.manifest["run"]["sweep"]["misses"] > 0

    def test_cold_run_reads_back_nothing_it_stored(self, sweeps):
        cold, _ = sweeps
        total = cold.manifest["run"]["total"]
        assert total["cache_hits"] == 0
        assert total["computed"] == cold.manifest["run"]["sweep"]["unique"]

    def test_warm_run_is_100_percent_cache_hits(self, sweeps):
        _, warm = sweeps
        run = warm.manifest["run"]
        assert run["total"]["computed"] == 0
        assert run["sweep"]["misses"] == 0
        assert run["total"]["cache_hits"] > 0

    def test_rounds_account_for_the_run(self, sweeps):
        cold, warm = sweeps
        for result, misses in ((cold, [295, 72]), (warm, [0, 0])):
            run = result.manifest["run"]
            rounds = run["rounds"]
            assert [r["unique"] for r in rounds] == [295, 72]
            assert [r["misses"] for r in rounds] == misses
            # The cold run's simulations stack into one fold per worker
            # and each grid corner's three cells into one injection unit.
            if misses[0]:
                assert 1 <= rounds[0]["units"] <= max(os.cpu_count() or 1, 1)
                assert rounds[1]["units"] == 24
            else:
                assert [r["units"] for r in rounds] == [0, 0]
            accounted = sum(r["wall_s"] for r in rounds) + sum(run["per_experiment_s"].values())
            assert accounted <= run["wall_clock_s"] + 0.01
            assert accounted >= 0.9 * run["wall_clock_s"] - 0.05

    def test_warm_run_reads_each_key_once(self, sweeps, warm_cache):
        _, warm = sweeps
        run = warm.manifest["run"]
        assert len(warm_cache.loaded) == len(set(warm_cache.loaded))
        assert set(warm_cache.loaded) == set(warm.manifest["jobs"])
        assert run["total"]["submitted"] == run["sweep"]["unique"]

    def test_warm_bundle_reload_evaluates_nothing_and_draws_only_recorded_images(
        self, sweeps, cache_dir, tmp_path, monkeypatch
    ):
        cold, _ = sweeps
        # Bundles this process built before the cold run filed their clean
        # accuracy in another cache: reload them once against this one.
        monkeypatch.setattr(common, "_BUNDLE_CACHE", {})
        run_all(
            scale=SMALLEST,
            artifacts_dir=tmp_path / "fill",
            engine=SimEngine(backend="vector", jobs=1, cache_dir=cache_dir),
        )
        monkeypatch.setattr(common, "_BUNDLE_CACHE", {})

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm bundle reload ran a quantized forward")

        forward_nhwc = QuantizedNetwork._forward_nhwc

        def recording_only(qnet, *args, **kwargs):
            # Recording the operand streams runs this walk; nothing else may.
            if not all(qc.record for qc in qnet.qconvs(include_shortcuts=True)):
                forbidden()
            return forward_nhwc(qnet, *args, **kwargs)

        monkeypatch.setattr(QuantizedNetwork, "evaluate", forbidden)
        monkeypatch.setattr(QuantizedNetwork, "_forward_nhwc", recording_only)
        drawn = []
        sample = SyntheticImageDataset.sample

        def counted(self, n, stream_seed, count=None):
            drawn.append(n if count is None else count)
            return sample(self, n, stream_seed, count)

        monkeypatch.setattr(SyntheticImageDataset, "sample", counted)
        loads = CountingCache(cache_dir)
        warm = run_all(
            scale=SMALLEST,
            artifacts_dir=tmp_path / "warm",
            engine=SimEngine(backend="vector", jobs=1, cache_dir=loads),
        )
        assert drawn == [SMALLEST.ter_images] * len(common._BUNDLE_CACHE)
        # Each job's entry once, plus one clean-accuracy entry per bundle.
        assert len(loads.loaded) == len(warm.manifest["jobs"]) + len(common._BUNDLE_CACHE)
        assert warm.texts == cold.texts

    def test_int64_recording_reproduces_every_job_key(
        self, sweeps, cache_dir, tmp_path, monkeypatch
    ):
        # Job keys hash the recorded operand streams, which a conv network
        # records on the BLAS walk.  Recorded on the int64 forward instead
        # (the oracle, and the path before), every key must be the cold
        # run's: the warm cache then answers every job.
        cold, _ = sweeps
        monkeypatch.setattr(common, "_BUNDLE_CACHE", {})

        def int64_recording(qnet, x_images):
            qnet.set_recording(True)
            try:
                qnet.forward(x_images)
                return {
                    op.name: op.recorded_operands
                    if isinstance(op, QuantizedDynamicMatmul)
                    else op.recorded_cols
                    for op in qnet.gemm_ops()
                }
            finally:
                qnet.set_recording(False)

        monkeypatch.setattr(common, "record_operand_streams", int64_recording)
        engine = SimEngine(backend="vector", jobs=1, cache_dir=cache_dir)
        oracle = run_all(scale=SMALLEST, artifacts_dir=tmp_path / "int64", engine=engine)
        assert sorted(oracle.manifest["jobs"]) == sorted(cold.manifest["jobs"])
        assert engine.stats.misses == 0 and engine.stats.hits == len(cold.manifest["jobs"])

    def test_manifests_byte_identical_modulo_timing(self, sweeps):
        cold, warm = sweeps
        assert _stripped(cold.manifest_path) == _stripped(warm.manifest_path)

    def test_renderings_identical_across_runs(self, sweeps):
        cold, warm = sweeps
        for name in RUNNERS:
            assert cold.texts[name] == warm.texts[name]


class TestDrivers:
    def test_no_cache_run_simulates_each_unique_job_once(self, sweeps, tmp_path):
        cold, _ = sweeps
        result = run_all(
            scale=SMALLEST,
            artifacts_dir=tmp_path,
            engine=SimEngine(backend="vector", jobs=1, use_cache=False),
            names=["fig8", "fig10"],
        )
        run = result.manifest["run"]
        assert run["sweep"]["unique"] < run["sweep"]["planned"]
        assert run["total"]["computed"] == run["sweep"]["unique"]
        assert run["total"]["submitted"] == run["sweep"]["unique"]
        experiments = result.manifest["experiments"]
        assert experiments["fig10"]["injection_jobs"]
        for name in ("fig8", "fig10"):
            assert experiments[name] == cold.manifest["experiments"][name]
            assert result.texts[name] == cold.texts[name]

    def test_standalone_run_renders_like_the_sweep(self, sweeps, cache_dir):
        cold, _ = sweeps
        engine = SimEngine(backend="vector", jobs=1, cache_dir=cache_dir)
        with engine_context(engine):
            text = fig10.render(fig10.run(scale=SMALLEST))
        assert text == cold.texts["fig10"]
        assert engine.stats.misses == 0


class TestScaleless:
    def test_scaleless_set_matches_run_signatures(self):
        import inspect

        for name, module in RUNNERS.items():
            takes_scale = "scale" in inspect.signature(module.run).parameters
            assert (name not in SCALELESS) == takes_scale
