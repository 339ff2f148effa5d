"""``read-repro all``: every experiment in lockstep over one engine sweep.

Instead of running the nine artifacts back to back (each submitting its
own engine batches), the orchestrator drives every engine-using
runner's ``steps(scale)`` generator at once (see :func:`lockstep`):

1. **Round 1** — each runner yields its layer-TER
   :class:`~repro.engine.SimJob` batch; same-key jobs shared across
   figures (fig2's output-stationary half, fig8/fig10's layer TERs,
   fig7's group-size-4 variants) deduplicate to a single submission.
2. **Round 2** — fig10 and fig11 turn the reports they were just sent
   into BER tables and yield their
   :class:`~repro.faults.InjectionJob`\\ s.
3. **Sweep** — each round is one ``SimEngine.run_many`` call over its
   unique jobs, so ``--jobs N`` fans the union of all figures' work over
   one process pool, and each unique job is built, keyed, submitted and
   read once, with or without the result cache.
4. **Render** — each runner's result (from its generator, or from
   ``run()`` for the pure analyses without ``steps``) is rendered into
   an artifacts directory next to a ``manifest.json`` recording, per
   experiment, the output path and the content hashes of every job it
   submits, plus per-job provenance (kind, label, corners) and the
   engine configuration.

The manifest is deterministic except for the ``"run"`` block (wall
clocks and cache-hit counters), which is what lets the test suite assert
byte-identical manifests across runs modulo timing.  Its ``rounds`` list
times each round's engine call beside its unique jobs, misses and work
units; with ``per_experiment_s`` (the runners' own time, rendering
included) it accounts for the run's ``wall_clock_s``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from ..engine import EngineJob, SimEngine, default_engine, engine_context
from . import RUNNERS
from .common import ExperimentScale, Steps, get_scale

#: Manifest layout version.
MANIFEST_SCHEMA = 1

#: Runners whose ``run()`` takes no scale argument (pure/static demos).
SCALELESS = frozenset({"table1", "fig3"})

#: Timing/counter fields excluded from manifest determinism guarantees.
VOLATILE_MANIFEST_FIELDS = ("run",)

#: The manifest list each job kind's keys go to, per experiment.
_KEY_LISTS = {"sim": "sim_jobs", "injection": "injection_jobs"}


@dataclass
class OrchestratorResult:
    """Everything ``read-repro all`` produced."""

    manifest: Dict[str, object]
    texts: Dict[str, str]               # experiment name -> rendering
    artifacts_dir: Path
    manifest_path: Path


def default_artifacts_dir(scale: ExperimentScale) -> Path:
    """``artifacts/<scale>/`` under the repository root (git-ignored)."""
    return Path(__file__).resolve().parents[3] / "artifacts" / scale.name


def lockstep(
    steps: Mapping[Hashable, Steps],
    engine: SimEngine,
    on_batch: Optional[Callable[[Hashable, List[EngineJob], List[str]], None]] = None,
    seconds: Optional[Dict[Hashable, float]] = None,
    rounds: Optional[List[Dict[str, object]]] = None,
) -> Dict[Hashable, object]:
    """Drive several ``steps`` generators in rounds; return their results by name.

    Each round takes every live generator's batch, in ``steps`` order,
    keys each job once, deduplicates the union by key, makes one
    ``engine.run_many`` call over the unique jobs and sends every
    generator its own jobs' results.  ``on_batch(name, jobs, keys)`` sees
    each batch before it runs; ``seconds`` accumulates the time spent
    inside each generator, keying and recording its batches included.
    ``rounds`` receives one record per round: its ``wall_s`` (dedup and
    the engine call), the ``unique`` jobs it submitted, the ``misses``
    the engine computed and the work ``units`` they ran as.
    """
    outcomes: Dict[Hashable, object] = {}
    batches: Dict[Hashable, Tuple[List[EngineJob], List[str]]] = {}

    def advance(name: Hashable, results: Optional[List[object]]) -> None:
        started = time.perf_counter()
        try:
            jobs = list(steps[name].send(results))
            keys = [job.key() for job in jobs]
            if on_batch is not None:
                on_batch(name, jobs, keys)
            batches[name] = (jobs, keys)
        except StopIteration as done:
            outcomes[name] = done.value
        finally:
            if seconds is not None:
                seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - started

    def run_round() -> None:
        # A function of its own, so this round's jobs and results are
        # freed before the next round runs.
        nonlocal batches
        current, batches = batches, {}
        started = time.perf_counter()
        before = engine.stats.snapshot()
        unique: Dict[str, EngineJob] = {}
        for jobs, keys in current.values():
            for job, key in zip(jobs, keys):
                unique.setdefault(key, job)
        by_key = dict(zip(unique, engine.run_many(list(unique.values()))))
        if rounds is not None:
            done = engine.stats.since(before)
            rounds.append(
                {
                    "wall_s": round(time.perf_counter() - started, 3),
                    "unique": len(unique),
                    "misses": done.misses,
                    "units": done.units,
                }
            )
        for name, (_, keys) in current.items():
            advance(name, [by_key[key] for key in keys])

    for name in steps:
        advance(name, None)
    while batches:
        run_round()
    return outcomes


def run_all(
    scale: Optional[ExperimentScale] = None,
    artifacts_dir: Optional[Path] = None,
    engine: Optional[SimEngine] = None,
    names: Optional[List[str]] = None,
) -> OrchestratorResult:
    """Sweep and render every experiment; write artifacts + manifest."""
    scale = scale or get_scale()
    engine = engine or default_engine()
    names = list(names) if names is not None else sorted(RUNNERS)
    artifacts_dir = Path(artifacts_dir) if artifacts_dir else default_artifacts_dir(scale)
    artifacts_dir.mkdir(parents=True, exist_ok=True)

    key_lists = {name: {field: [] for field in _KEY_LISTS.values()} for name in names}
    job_records: Dict[str, Dict[str, object]] = {}
    planned = 0

    def record(name: Hashable, jobs: List[EngineJob], keys: List[str]) -> None:
        nonlocal planned
        planned += len(jobs)
        for job, key in zip(jobs, keys):
            key_lists[name][_KEY_LISTS[job.kind]].append(key)
            if key not in job_records:
                job_records[key] = job.describe()

    started = time.time()
    baseline_stats = engine.stats.snapshot()
    per_experiment_s: Dict[str, float] = {}
    rounds: List[Dict[str, object]] = []
    with engine_context(engine):
        steps = {
            name: RUNNERS[name].steps(scale)
            for name in names
            if hasattr(RUNNERS[name], "steps")
        }
        results = lockstep(
            steps, engine, on_batch=record, seconds=per_experiment_s, rounds=rounds
        )
        swept = engine.stats.since(baseline_stats)

        texts: Dict[str, str] = {}
        for name in names:
            module = RUNNERS[name]
            t0 = time.perf_counter()
            if name in results:
                result = results[name]
            else:
                result = module.run() if name in SCALELESS else module.run(scale=scale)
            texts[name] = module.render(result)
            per_experiment_s[name] = round(
                per_experiment_s.get(name, 0.0) + time.perf_counter() - t0, 3
            )
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
                **key_lists[name],
            }
            for name in names
        },
        "jobs": job_records,
        "run": {
            "wall_clock_s": round(time.time() - started, 3),
            "per_experiment_s": per_experiment_s,
            "rounds": rounds,
            "sweep": {
                "planned": planned,
                "unique": len(job_records),
                "hits": swept.hits,
                "misses": swept.misses,
            },
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
