"""``read-repro all``: one planned, deduplicated, provenance-tracked sweep.

Instead of running the nine artifacts back to back (each submitting its
own engine batches), the orchestrator builds the full job graph up front
and executes it as one cache-reusing sweep:

1. **Plan (simulation phase)** — every runner's ``plan(scale)`` is
   collected; same-key jobs shared across figures (fig2's
   output-stationary half, fig8/fig10's layer TERs, fig7's group-size-4
   variants) deduplicate to a single submission.
2. **Plan (injection phase)** — runners with ``plan_injections(scale)``
   (fig10, fig11) derive their BER tables from the now-cached TERs and
   contribute their :class:`~repro.faults.InjectionJob`\\ s; the *Ideal*
   cells deduplicate across strategies.
3. **Sweep** — each phase is one ``SimEngine.run_many`` call, so
   ``--jobs N`` fans the union of all figures' work over one process
   pool instead of nine smaller ones.
4. **Render** — each runner's ``run()`` then re-submits its own jobs and
   hits the warm cache; renderings land in an artifacts directory next
   to a ``manifest.json`` recording, per experiment, the output path and
   the content hashes of every job it submits, plus per-job provenance
   (kind, label, corners) and the engine configuration.

The manifest is deterministic except for the ``"run"`` block (wall
clocks and cache-hit counters), which is what lets the test suite assert
byte-identical manifests across runs modulo timing.

With the cache disabled (``--no-cache``) the up-front sweep is skipped —
pre-computing results that cannot be stored would double the work — and
so is injection planning (deriving BER tables costs a layer-TER
simulation pass of its own); the runners then execute their batches
directly and the manifest carries only the simulation-phase job hashes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..engine import EngineJob, SimEngine, default_engine, engine_context
from . import RUNNERS
from .common import ExperimentScale, get_scale

#: Manifest layout version.
MANIFEST_SCHEMA = 1

#: Runners whose ``run()`` takes no scale argument (pure/static demos).
SCALELESS = frozenset({"table1", "fig3"})

#: Timing/counter fields excluded from manifest determinism guarantees.
VOLATILE_MANIFEST_FIELDS = ("run",)


@dataclass
class OrchestratorResult:
    """Everything ``read-repro all`` produced."""

    manifest: Dict[str, object]
    texts: Dict[str, str]               # experiment name -> rendering
    artifacts_dir: Path
    manifest_path: Path


@dataclass
class _PlannedExperiment:
    name: str
    sim_keys: List[str] = field(default_factory=list)
    injection_keys: List[str] = field(default_factory=list)


def default_artifacts_dir(scale: ExperimentScale) -> Path:
    """``artifacts/<scale>/`` under the repository root (git-ignored)."""
    return Path(__file__).resolve().parents[3] / "artifacts" / scale.name


def _dedup(
    jobs: List[EngineJob], keys: Optional[List[str]] = None
) -> Tuple[List[EngineJob], Dict[str, Dict[str, object]]]:
    """Order-preserving unique-by-key jobs plus their provenance records.

    ``keys`` are the jobs' keys, when the caller already derived them.
    """
    if keys is None:
        keys = [job.key() for job in jobs]
    unique: List[EngineJob] = []
    described: Dict[str, Dict[str, object]] = {}
    for job, key in zip(jobs, keys):
        if key not in described:
            described[key] = job.describe()
            unique.append(job)
    return unique, described


def _plan_phase(
    names: List[str],
    scale: ExperimentScale,
    attr: str,
    planned: Dict[str, _PlannedExperiment],
    key_list: str,
) -> Tuple[List[EngineJob], List[str]]:
    """Collect one phase's jobs, and their keys, from every runner exposing ``attr``."""
    jobs: List[EngineJob] = []
    keys: List[str] = []
    for name in names:
        plan_fn = getattr(RUNNERS[name], attr, None)
        if plan_fn is None:
            continue
        experiment_jobs = list(plan_fn(scale))
        experiment_keys = [job.key() for job in experiment_jobs]
        getattr(planned[name], key_list).extend(experiment_keys)
        jobs.extend(experiment_jobs)
        keys.extend(experiment_keys)
    return jobs, keys


def run_all(
    scale: Optional[ExperimentScale] = None,
    artifacts_dir: Optional[Path] = None,
    engine: Optional[SimEngine] = None,
    names: Optional[List[str]] = None,
) -> OrchestratorResult:
    """Plan, sweep and render every experiment; write artifacts + manifest."""
    scale = scale or get_scale()
    engine = engine or default_engine()
    names = list(names) if names is not None else sorted(RUNNERS)
    artifacts_dir = Path(artifacts_dir) if artifacts_dir else default_artifacts_dir(scale)
    artifacts_dir.mkdir(parents=True, exist_ok=True)

    planned = {name: _PlannedExperiment(name) for name in names}
    job_records: Dict[str, Dict[str, object]] = {}
    started = time.time()
    baseline_stats = engine.stats.snapshot()
    sweep_stats = {"planned": 0, "unique": 0, "hits": 0, "misses": 0}

    with engine_context(engine):
        # Phase 1+2: build the graph up front and sweep it once.  Without
        # a cache the sweeps are skipped (the runners would recompute
        # everything anyway) and so is injection *planning*, which itself
        # costs a layer-TER simulation pass to derive the BER tables —
        # those job hashes are then absent from the manifest.
        phases = [("plan", "sim_keys")]
        if engine.cache is not None:
            phases.append(("plan_injections", "injection_keys"))
        for attr, key_list in phases:
            jobs, keys = _plan_phase(names, scale, attr, planned, key_list)
            unique, described = _dedup(jobs, keys)
            job_records.update(described)
            sweep_stats["planned"] += len(jobs)
            sweep_stats["unique"] += len(unique)
            if engine.cache is not None and unique:
                before = engine.stats.snapshot()
                engine.run_many(unique)
                delta = engine.stats.since(before)
                sweep_stats["hits"] += delta.hits
                sweep_stats["misses"] += delta.misses

        # Phase 3: render each experiment from the warm cache.
        texts: Dict[str, str] = {}
        per_experiment_s: Dict[str, float] = {}
        for name in names:
            module = RUNNERS[name]
            t0 = time.time()
            result = module.run() if name in SCALELESS else module.run(scale=scale)
            texts[name] = module.render(result)
            per_experiment_s[name] = round(time.time() - t0, 3)
            (artifacts_dir / f"{name}.txt").write_text(texts[name] + "\n")

    total_stats = engine.stats.since(baseline_stats)
    manifest: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "scale": scale.name,
        "engine": {
            "backend": engine.backend_name,
            "jobs": engine.jobs,
            "cache": engine.cache is not None,
        },
        "experiments": {
            name: {
                "output": f"{name}.txt",
                "description": (RUNNERS[name].__doc__ or "").strip().splitlines()[0],
                "sim_jobs": planned[name].sim_keys,
                "injection_jobs": planned[name].injection_keys,
            }
            for name in names
        },
        "jobs": job_records,
        "run": {
            "wall_clock_s": round(time.time() - started, 3),
            "per_experiment_s": per_experiment_s,
            "sweep": sweep_stats,
            "total": {
                "submitted": total_stats.total,
                "cache_hits": total_stats.hits,
                "deduplicated": total_stats.deduped,
                "computed": total_stats.misses,
            },
        },
    }
    manifest_path = artifacts_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return OrchestratorResult(
        manifest=manifest,
        texts=texts,
        artifacts_dir=artifacts_dir,
        manifest_path=manifest_path,
    )
