"""Sharded, resumable, statistically-stopped injection campaigns.

``read-repro campaign`` turns the fig10-style accuracy grid into a
measurement service: every (strategy x corner) cell is one
:class:`~repro.faults.InjectionJob` with a ``--max-trials`` budget,
partitioned into content-addressed :class:`~repro.faults.InjectionShard`
sub-jobs and streamed through
:meth:`~repro.engine.scheduler.SimEngine.run_stream`.  As shard results
land they fold into the exact integer-domain
:class:`~repro.faults.CellAggregate`; once a cell's Wilson interval
separates from the fault-free baseline (or collapses to ``--ci-width``)
its remaining shards are cancelled — the sequential stopping rule that
makes 10^5-trial budgets affordable.

Three properties carry the correctness story (and are enforced by
``tests/test_campaign.py`` plus the CI kill/resume job):

* **Partition bit-equality** — shard trials draw exactly the seeds the
  monolithic job would (:func:`~repro.faults.trial_seed` is pure), so
  any partition of ``[0, max_trials)`` merges to the monolithic result
  bit for bit.
* **Resume is the cache** — shards are content-addressed without the
  campaign's total budget, so a killed campaign (SIGTERM, ``--max-shards``
  cutoff, power loss) re-plans and every completed shard is a warm hit;
  there is no separate checkpoint file to corrupt.
* **Deterministic manifests** — stopping decisions are evaluated on a
  cell's *contiguous shard prefix*, one shard at a time, so they cannot
  depend on pool completion order; everything racy (timings, hit/miss
  counts) lives in the manifest's volatile ``"run"`` block, and an
  interrupted-then-resumed campaign reproduces the uninterrupted
  manifest byte-identically modulo that block.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import MappingStrategy
from ..engine import SimEngine, default_engine, engine_context
from ..errors import ConfigurationError
from ..faults import (
    INJECTION_SCHEMA_VERSION,
    CellAggregate,
    InjectionJob,
    InjectionResult,
    InjectionShard,
    decide,
    plan_shards,
    stop_reason,
    wilson_interval,
)
from ..faults.aggregate import DEFAULT_CI_WIDTH
from ..faults.injection_job import DEFAULT_SHARD_TRIALS, injection_runtime
from ..hw.variations import PAPER_CORNERS, PvtaCondition
from .common import (
    ALL_STRATEGIES,
    ExperimentScale,
    bundle_ter_batch,
    clean_accuracy,
    get_bundle,
    get_scale,
    peak_rss_mb,
    render_table,
)
from .fig10 import grid_injection_jobs

#: Campaign manifest layout version.
CAMPAIGN_SCHEMA = 1

#: Fields excluded from the manifest determinism guarantee (timings,
#: hit/miss counters, resume provenance) — same convention as the
#: orchestrator's ``VOLATILE_MANIFEST_FIELDS``.
VOLATILE_MANIFEST_FIELDS = ("run",)


@dataclass
class CampaignCell:
    """Mutable per-(strategy x corner) state while a campaign streams."""

    strategy: str
    corner: str
    job: InjectionJob
    shards: List[InjectionShard] = field(default_factory=list)
    #: shard index -> its landed result (possibly out of order).
    results: Dict[int, InjectionResult] = field(default_factory=dict)
    #: Contiguous completed-shard prefix folded into ``aggregate``.
    prefix: int = 0
    aggregate: Optional[CellAggregate] = None
    #: Stop reason, once decided ("separated"/"converged"/"budget"/
    #: "fault-free"); ``None`` while sampling (or cut off mid-flight).
    stop: Optional[str] = None

    @property
    def fault_free(self) -> bool:
        table = self.job.ber_table()
        return not table or all(b == 0.0 for b in table.values())

    @property
    def key(self) -> str:
        return f"{self.strategy}:{self.corner}"

    @property
    def planned_trials(self) -> int:
        # A fault-free BER table short-circuits to one clean trial no
        # matter the budget, so its plan is honest about that.
        return 1 if self.fault_free else self.job.n_trials

    @property
    def counted_trials(self) -> int:
        """Trials folded into the deterministic prefix aggregate."""
        return self.aggregate.n_trials if self.aggregate is not None else 0


@dataclass
class CampaignResult:
    """Everything one ``read-repro campaign`` invocation produced."""

    manifest: Dict[str, object]
    cells: List[CampaignCell]
    artifacts_dir: Path
    manifest_path: Path
    trials_path: Path


def default_campaign_dir(recipe: str, scale: ExperimentScale) -> Path:
    """``artifacts/campaigns/<recipe>-<scale>/`` under the repo root."""
    root = Path(__file__).resolve().parents[3]
    return root / "artifacts" / "campaigns" / f"{recipe}-{scale.name}"


def _fold_prefix(
    cell: CampaignCell, baseline_ci: Tuple[float, float], ci_width: float,
    early_stop: bool,
) -> bool:
    """Advance the cell's contiguous prefix; True when it just stopped.

    One shard at a time, re-evaluating the stopping rule after each merge:
    the decision depends only on the deterministic aggregate of the first
    ``prefix`` shards, never on the (racy) order the rest arrive in.
    """
    stopped = False
    while cell.stop is None and cell.prefix in cell.results:
        agg = CellAggregate.from_result(cell.results[cell.prefix])
        cell.aggregate = (
            agg if cell.aggregate is None else cell.aggregate.merge(agg)
        )
        cell.prefix += 1
        if early_stop:
            reason = stop_reason(cell.aggregate.wilson_ci(), baseline_ci, ci_width)
            if reason is not None:
                cell.stop = reason
                stopped = True
        if cell.stop is None and cell.prefix == len(cell.shards):
            cell.stop = "budget"
    return stopped


def run_campaign(
    recipe: str,
    scale: Optional[ExperimentScale] = None,
    *,
    max_trials: int = 64,
    ci_width: float = DEFAULT_CI_WIDTH,
    shard_trials: int = DEFAULT_SHARD_TRIALS,
    corners: Sequence[PvtaCondition] = PAPER_CORNERS,
    strategies: Sequence[MappingStrategy] = ALL_STRATEGIES,
    topk: int = 1,
    engine: Optional[SimEngine] = None,
    artifacts_dir: Optional[Path] = None,
    resume: bool = False,
    max_shards: Optional[int] = None,
    early_stop: bool = True,
) -> CampaignResult:
    """Run one sharded, statistically-stopped accuracy campaign.

    Parameters beyond the fig10 grid's:

    max_trials:
        Per-cell trial budget (the monolithic job each cell's shards
        partition).
    ci_width:
        Target Wilson-interval width for the "converged" stop.
    shard_trials:
        Trials per shard — the cancellation granularity.
    resume:
        Provenance only: completed shards are warm cache hits either
        way (resume *is* the cache).  Recorded in the volatile ``run``
        block.
    max_shards:
        Stop submitting after this many shard results (a deterministic
        mid-flight kill, used by the resume property tests and the CI
        kill/resume job); the manifest is then marked incomplete.
    early_stop:
        Disable to run every cell to its full budget (the soundness
        suite compares decisions against this).
    """
    if max_trials < 1:
        raise ConfigurationError(f"max_trials must be >= 1, got {max_trials}")
    if not 0.0 < ci_width < 1.0:
        raise ConfigurationError(f"ci_width must be in (0, 1), got {ci_width}")
    if max_shards is not None and max_shards < 0:
        raise ConfigurationError(f"max_shards must be >= 0, got {max_shards}")
    scale = scale or get_scale()
    engine = engine or default_engine()
    started = time.time()
    baseline_stats = engine.stats.snapshot()

    with engine_context(engine):
        bundle = get_bundle(recipe, scale)
        ters = bundle_ter_batch(bundle, corners, strategies)
        jobs = grid_injection_jobs(
            bundle,
            ters.records(engine.run_many(ters.jobs)),
            corners,
            strategies,
            label_prefix=f"campaign:{recipe}:",
            topk=topk,
            n_trials=max_trials,
        )
        cells = [
            CampaignCell(strategy=s.value, corner=c.name, job=job)
            for (s, c), job in zip(itertools.product(strategies, corners), jobs)
        ]

        # Fault-free baseline: clean top-k accuracy of the injected
        # slice, the anchor every cell's interval is compared against.
        n_base = scale.inject_n
        base_acc = clean_accuracy(bundle, topk, engine)
        base_correct = int(round(base_acc * n_base))
        baseline_ci = wilson_interval(base_correct, n_base)

        # Fault-free (Ideal) cells short-circuit to one clean trial —
        # sharding them would violate partition bit-equality, so they run
        # as plain jobs (deduplicated across strategies by the engine).
        clean_cells = [cell for cell in cells if cell.fault_free]
        clean_results = engine.run_many([cell.job for cell in clean_cells])
        for cell, result in zip(clean_cells, clean_results):
            cell.results[0] = result
            cell.aggregate = CellAggregate.from_result(result)
            cell.prefix = 1
            cell.stop = "fault-free"

        # Round-major shard interleave: every cell gets its early shards
        # before any cell gets its late ones, so the stopping rule sees
        # each cell's evidence grow at a similar rate.
        for cell in cells:
            if not cell.fault_free:
                cell.shards = plan_shards(cell.job, shard_trials)
        # How many planned shards a resume will recall without
        # computing.  has() is a validated probe (size + magic bytes),
        # so a writer killed mid-store never inflates this count with a
        # torn entry that load() would then reject.
        recalled_shards = (
            sum(
                1
                for cell in cells
                for shard in cell.shards
                if engine.cache.has(shard.key())
            )
            if engine.cache is not None
            else 0
        )
        flat: List[Tuple[int, int]] = []   # stream index -> (cell, shard)
        for round_idx in itertools.count():
            layer = [
                (ci, round_idx)
                for ci, cell in enumerate(cells)
                if round_idx < len(cell.shards)
            ]
            if not layer:
                break
            flat.extend(layer)
        stream_index = {pair: i for i, pair in enumerate(flat)}
        stream_jobs = [cells[ci].shards[si] for ci, si in flat]

        processed = 0

        def on_result(i: int, result: object) -> Set[int]:
            nonlocal processed
            processed += 1
            ci_, si = flat[i]
            cell = cells[ci_]
            cell.results[si] = result
            cancel: Set[int] = set()
            if _fold_prefix(cell, baseline_ci, ci_width, early_stop):
                cancel.update(
                    stream_index[(ci_, s)]
                    for s in range(cell.prefix, len(cell.shards))
                )
            if max_shards is not None and processed >= max_shards:
                cancel.update(range(len(flat)))
            return cancel

        if max_shards != 0:
            engine.run_stream(stream_jobs, on_result)

    # ------------------------------------------------------------------ #
    # Deterministic manifest (everything racy goes in the "run" block).
    # ------------------------------------------------------------------ #
    cells_block: Dict[str, Dict[str, object]] = {}
    for cell in cells:
        agg = cell.aggregate
        entry: Dict[str, object] = {
            "planned_trials": cell.planned_trials,
            "trials": cell.counted_trials,
            "stop_reason": cell.stop,
            "shard_keys": [shard.key() for shard in cell.shards]
            or [cell.job.key()],
        }
        if agg is not None:
            lo, hi = agg.wilson_ci()
            entry.update(
                n_images=agg.n_images,
                mean_accuracy=agg.mean_accuracy,
                std_accuracy=agg.trial_std() if agg.n_trials > 1 else 0.0,
                ci=[lo, hi],
                decision=decide((lo, hi), baseline_ci),
                flips_injected=agg.flips,
                trials_saved=cell.planned_trials - cell.counted_trials,
            )
        cells_block[cell.key] = entry

    complete = all(cell.stop is not None for cell in cells)
    totals = {
        "planned_trials": sum(cell.planned_trials for cell in cells),
        "counted_trials": sum(cell.counted_trials for cell in cells),
        "trials_saved": sum(
            cell.planned_trials - cell.counted_trials
            for cell in cells
            if cell.stop is not None
        ),
        "cells": len(cells),
        "stopped_early": sum(
            1 for cell in cells if cell.stop in ("separated", "converged")
        ),
    }
    stats = engine.stats.since(baseline_stats)
    manifest: Dict[str, object] = {
        "schema": CAMPAIGN_SCHEMA,
        "injection_schema": INJECTION_SCHEMA_VERSION,
        "campaign": {
            "recipe": recipe,
            "scale": scale.name,
            "max_trials": max_trials,
            "ci_width": ci_width,
            "shard_trials": shard_trials,
            "topk": topk,
            "corners": [c.name for c in corners],
            "strategies": [s.value for s in strategies],
            "early_stop": early_stop,
        },
        "baseline": {
            "accuracy": base_acc,
            "correct": base_correct,
            "n_images": n_base,
            "ci": [baseline_ci[0], baseline_ci[1]],
        },
        "complete": complete,
        "cells": cells_block,
        "totals": totals,
        "run": {
            "wall_clock_s": round(time.time() - started, 3),
            "peak_rss_mb": peak_rss_mb(),
            "resumed": resume,
            "injection_runtime": injection_runtime(),
            "engine": {
                "backend": engine.effective_backend(),
                "jobs": engine.jobs,
                "cache": engine.cache is not None,
            },
            "cache_hits": stats.hits,
            "computed": stats.misses,
            "cancelled_shards": stats.cancelled,
            "executed_shards": sum(len(cell.results) for cell in cells),
            "recalled_shards": recalled_shards,
            # Work-avoidance counters of the batched injection runtime
            # (``trials_pruned`` stays 0: the lanes walk prunes no
            # masked trials).  Volatile by nature: resumed runs recall
            # shards from the cache and never re-execute the trials
            # behind these events.
            "trials_pruned": stats.trials_pruned,
            "trials_deduped": stats.trials_deduped,
        },
    }

    artifacts_dir = (
        Path(artifacts_dir) if artifacts_dir else default_campaign_dir(recipe, scale)
    )
    artifacts_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = artifacts_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    # Columnar trial-level artifact: per cell, the prefix trials' exact
    # counts and accuracies as packed arrays (never per-trial JSON).
    columns: Dict[str, np.ndarray] = {}
    for cell in cells:
        prefix_results = [cell.results[s] for s in range(cell.prefix)]
        if not prefix_results:
            continue
        columns[f"{cell.key}/correct"] = np.concatenate(
            [np.asarray(r.trial_correct, dtype=np.int64) for r in prefix_results]
        )
        columns[f"{cell.key}/accuracies"] = np.concatenate(
            [np.asarray(r.trial_accuracies, dtype=np.float64) for r in prefix_results]
        )
    trials_path = artifacts_dir / "trials.npz"
    with open(trials_path, "wb") as handle:
        np.savez_compressed(handle, **columns)

    return CampaignResult(
        manifest=manifest,
        cells=cells,
        artifacts_dir=artifacts_dir,
        manifest_path=manifest_path,
        trials_path=trials_path,
    )


def render(result: CampaignResult) -> str:
    """Text table: one row per cell with trials, CI, stop and decision."""
    baseline = result.manifest["baseline"]
    headers = ["Cell", "Trials", "Mean", "95% CI", "Stop", "Decision"]
    rows = []
    for cell in result.cells:
        agg = cell.aggregate
        if agg is None:
            rows.append([cell.key, f"0/{cell.planned_trials}", "-", "-", "-", "-"])
            continue
        lo, hi = agg.wilson_ci()
        rows.append(
            [
                cell.key,
                f"{cell.counted_trials}/{cell.planned_trials}",
                f"{agg.mean_accuracy * 100:.1f}%",
                f"[{lo * 100:.1f}%, {hi * 100:.1f}%]",
                cell.stop or "cut-off",
                decide((lo, hi), (baseline["ci"][0], baseline["ci"][1])),
            ]
        )
    totals = result.manifest["totals"]
    run = result.manifest["run"]
    status = "complete" if result.manifest["complete"] else "INCOMPLETE (resume to finish)"
    return (
        f"campaign {result.manifest['campaign']['recipe']} "
        f"@ {result.manifest['campaign']['scale']} — {status}; baseline "
        f"{baseline['accuracy'] * 100:.1f}% "
        f"[{baseline['ci'][0] * 100:.1f}%, {baseline['ci'][1] * 100:.1f}%] "
        f"on {baseline['n_images']} images\n"
        + render_table(headers, rows)
        + (
            f"\ntrials: {totals['counted_trials']}/{totals['planned_trials']} "
            f"counted, {totals['trials_saved']} saved by early stopping "
            f"({totals['stopped_early']}/{totals['cells']} cells stopped early)"
        )
        + (
            f"\nruntime: {run['trials_pruned']} trial(s) pruned, "
            f"{run['trials_deduped']} deduped"
            if run.get("trials_pruned") or run.get("trials_deduped")
            else ""
        )
    )
