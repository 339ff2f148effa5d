"""``read-repro all`` orchestrator: manifest, artifacts, cache reuse.

Runs the full sweep twice at the smallest scale against a private result
cache: the first (cold) run must produce an artifacts directory whose
manifest lists every figure with its job hashes; the second (warm) run
must be served entirely from the cache and produce a byte-identical
manifest modulo the volatile ``"run"`` block.
"""

import json

import pytest

from repro.engine import SimEngine
from repro.experiments import RUNNERS, SCALES, run_all
from repro.experiments.orchestrator import SCALELESS, VOLATILE_MANIFEST_FIELDS

SMALLEST = SCALES["micro"]

#: Figures whose measurements are engine simulations (vs. pure analyses).
SIM_FIGURES = {"fig2", "fig7", "fig8", "fig10", "fig11"}
INJECTION_FIGURES = {"fig10", "fig11"}


def _stripped(manifest_path):
    manifest = json.loads(manifest_path.read_text())
    for fld in VOLATILE_MANIFEST_FIELDS:
        manifest.pop(fld, None)
    return manifest


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    root = tmp_path_factory.mktemp("orchestrator")
    cache = root / "cache"
    cold = run_all(
        scale=SMALLEST,
        artifacts_dir=root / "cold",
        engine=SimEngine(backend="vector", jobs=1, cache_dir=cache),
    )
    warm = run_all(
        scale=SMALLEST,
        artifacts_dir=root / "warm",
        engine=SimEngine(backend="vector", jobs=1, cache_dir=cache),
    )
    return cold, warm


class TestManifest:
    def test_lists_every_figure(self, sweeps):
        cold, _ = sweeps
        assert set(cold.manifest["experiments"]) == set(RUNNERS)

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

    def test_warm_run_is_100_percent_cache_hits(self, sweeps):
        _, warm = sweeps
        run = warm.manifest["run"]
        assert run["total"]["computed"] == 0
        assert run["sweep"]["misses"] == 0
        assert run["total"]["cache_hits"] > 0

    def test_manifests_byte_identical_modulo_timing(self, sweeps):
        cold, warm = sweeps
        assert _stripped(cold.manifest_path) == _stripped(warm.manifest_path)

    def test_renderings_identical_across_runs(self, sweeps):
        cold, warm = sweeps
        for name in RUNNERS:
            assert cold.texts[name] == warm.texts[name]


class TestScaleless:
    def test_scaleless_set_matches_run_signatures(self):
        import inspect

        for name, module in RUNNERS.items():
            takes_scale = "scale" in inspect.signature(module.run).parameters
            assert (name not in SCALELESS) == takes_scale
