"""``read-repro sweep --suite <name>``: one scenario suite, one engine sweep.

The scenario-matrix counterpart of ``read-repro all``: every scenario in
the suite (see :mod:`repro.scenarios`) contributes its layer-TER
simulation jobs and its injection campaigns, and the whole suite
executes with the orchestrator's plan -> dedup -> sweep -> render
discipline:

1. **Plan (simulation phase)** — each scenario's bundle is trained (or
   loaded), its operand streams recorded, and its (layer x strategy x
   conv-group) :class:`~repro.engine.SimJob` batch collected.  Same-key
   jobs shared between scenarios — e.g. the dense suites re-measuring a
   recipe another figure already measured — deduplicate to a single
   submission.
2. **Plan (injection phase)** — per (scenario, strategy, injection
   corner), the now-cached TERs convert through Eq. 1 into a BER table
   over *every* layer (grouped convs and the lowered classifier head
   included) and one :class:`~repro.faults.InjectionJob` is planned;
   the scenario's mixed-precision bit widths travel inside the job.
3. **Sweep** — each phase is one ``SimEngine.run_many`` call: ``--jobs``
   fans the union over one process pool, warm reruns are 100 % cache
   hits (the CLI's engine summary line shows the hit count).
4. **Render** — one per-layer TER table per scenario (depthwise groups
   annotated) plus the strategy x corner injected-accuracy grid.

With the cache disabled the phase-1 prepass is skipped (results could
not be stored, so pre-computing them would double the work) and the
injection phase derives its BER tables from directly-executed batches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..engine import EngineJob, NetworkJob, SimEngine, default_engine, engine_context
from ..faults import bers_from_layer_ters, injection_job_for_bundle
from ..scenarios import Scenario, get_suite, layer_names_for_recipe
from .common import (
    ExperimentScale,
    LayerTerRecord,
    TrainedBundle,
    gemm_reorder_applicability,
    get_bundle,
    get_scale,
    layer_ter_jobs,
    macs_per_layer,
    measure_layer_ters,
    record_operand_streams,
    render_table,
    ters_for_corner,
)
from .fig10 import corner_seed
from .orchestrator import MANIFEST_SCHEMA, _dedup


@dataclass(frozen=True)
class ScenarioReport:
    """Everything the sweep measured for one scenario."""

    scenario: Scenario
    quant_accuracy: float
    #: strategy value -> per-layer records (execution order).
    records: Dict[str, List[LayerTerRecord]]
    #: strategy value -> corner name -> mean injected accuracy.
    injected_accuracy: Dict[str, Dict[str, float]]
    #: Resolved per-layer bit widths (non-default entries only).
    bits: Tuple[Tuple[str, int], ...]
    #: GEMM name -> READ-reorder applicability verdict (does every
    #: per-column PSUM trace cross zero at most once on this op's real
    #: operands?) — see :func:`repro.experiments.common.reorder_applicability`.
    reorder_applicability: Dict[str, Dict[str, object]] = field(default_factory=dict)


@dataclass(frozen=True)
class SuiteResult:
    """One ``read-repro sweep`` invocation's output."""

    suite: str
    scale: str
    reports: List[ScenarioReport]


def scenario_bundle(scenario: Scenario, scale: ExperimentScale) -> TrainedBundle:
    """Train-or-load the bundle a scenario prescribes (bits resolved)."""
    resolved = scenario.resolve_bits(layer_names_for_recipe(scenario.recipe, scale))
    return get_bundle(
        scenario.recipe,
        scale,
        seed=scenario.seed,
        bits_per_layer=resolved,
        default_bits=scenario.default_bits,
    )


def _scenario_streams(scenario: Scenario, scale: ExperimentScale):
    """One recorded quantized forward per scenario (shared by both phases)."""
    bundle = scenario_bundle(scenario, scale)
    return record_operand_streams(bundle.qnet, bundle.x_test[: scale.ter_images])


def _scenario_sim_jobs(
    scenario: Scenario, scale: ExperimentScale, streams
) -> List[EngineJob]:
    """Phase-1 jobs: the scenario's (layer x strategy x group) TER batch."""
    bundle = scenario_bundle(scenario, scale)
    return layer_ter_jobs(
        bundle.qnet,
        streams,
        scenario.corners,
        strategies=scenario.strategies,
        max_pixels=scale.ter_pixels,
        seed=scenario.seed,
        label_prefix=f"sweep:{scenario.name}:",
    )


def _scenario_records(
    scenario: Scenario, scale: ExperimentScale, engine: SimEngine, streams
) -> Dict[str, List[LayerTerRecord]]:
    bundle = scenario_bundle(scenario, scale)
    return measure_layer_ters(
        bundle.qnet,
        bundle.x_test[: scale.ter_images],
        corners=list(scenario.corners),
        strategies=scenario.strategies,
        max_pixels=scale.ter_pixels,
        seed=scenario.seed,
        engine=engine,
        streams=streams,
    )


def _scenario_injection_jobs(
    scenario: Scenario,
    scale: ExperimentScale,
    records: Dict[str, List[LayerTerRecord]],
) -> List[EngineJob]:
    """Phase-2 jobs: one campaign per (strategy, injection corner)."""
    bundle = scenario_bundle(scenario, scale)
    n_macs = macs_per_layer(records)
    jobs: List[EngineJob] = []
    for strategy in scenario.strategies:
        for corner in scenario.inject_corners:
            ters = ters_for_corner(records, strategy, corner.name)
            bers = bers_from_layer_ters(ters, n_macs)
            jobs.append(
                injection_job_for_bundle(
                    bundle,
                    bers,
                    topk=scenario.topk,
                    base_seed=corner_seed(corner),
                    corner=corner.name,
                    label=f"sweep:{scenario.name}:{strategy.value}:{corner.name}",
                )
            )
    return jobs


def run_suite(
    suite: str,
    scale: Optional[ExperimentScale] = None,
    engine: Optional[SimEngine] = None,
) -> SuiteResult:
    """Plan, deduplicate and execute one suite as a two-phase engine sweep."""
    scale = scale or get_scale()
    scenarios = get_suite(suite)
    engine = engine or default_engine()

    with engine_context(engine):
        # One recorded forward per scenario, shared by job planning and
        # record assembly — the operand streams are the expensive
        # Python-side work the engine cache cannot memoize.
        streams = {sc.name: _scenario_streams(sc, scale) for sc in scenarios}

        # Phase 1: the union of every scenario's TER jobs, deduplicated.
        # Skipped without a cache — the per-scenario measurements below
        # would re-simulate everything the prepass computed.
        if engine.cache is not None:
            sim_jobs, _ = _dedup(
                [
                    job
                    for sc in scenarios
                    for job in _scenario_sim_jobs(sc, scale, streams[sc.name])
                ]
            )
            if sim_jobs:
                # Stacked prepass: one NetworkJob folds every distinct
                # layer simulation of the suite through the backend's
                # whole-network path; the scheduler still caches (and
                # counts) each member under its own per-layer key.
                engine.run_many(
                    [NetworkJob(jobs=tuple(sim_jobs), label=f"sweep:{suite}")]
                )

        # Per-scenario assembly reads from the warm cache.
        all_records = {
            sc.name: _scenario_records(sc, scale, engine, streams[sc.name])
            for sc in scenarios
        }

        # Phase 2: the union of every scenario's injection campaigns.
        injection_jobs: List[EngineJob] = []
        spans: List[Tuple[Scenario, int, int]] = []
        for sc in scenarios:
            jobs = _scenario_injection_jobs(sc, scale, all_records[sc.name])
            spans.append((sc, len(injection_jobs), len(injection_jobs) + len(jobs)))
            injection_jobs.extend(jobs)
        results = engine.run_many(injection_jobs)

    reports: List[ScenarioReport] = []
    for sc, start, stop in spans:
        grid: Dict[str, Dict[str, float]] = {}
        job_iter = iter(zip(injection_jobs[start:stop], results[start:stop]))
        for strategy in sc.strategies:
            grid[strategy.value] = {}
            for corner in sc.inject_corners:
                _, result = next(job_iter)
                grid[strategy.value][corner.name] = result.mean_accuracy
        bundle = scenario_bundle(sc, scale)
        reports.append(
            ScenarioReport(
                scenario=sc,
                quant_accuracy=bundle.quant_accuracy,
                records=all_records[sc.name],
                injected_accuracy=grid,
                bits=bundle.bits_per_layer,
                reorder_applicability=gemm_reorder_applicability(
                    bundle.qnet,
                    streams[sc.name],
                    max_pixels=scale.ter_pixels,
                    seed=sc.seed,
                ),
            )
        )
    return SuiteResult(suite=suite, scale=scale.name, reports=reports)


# ---------------------------------------------------------------------- #
# Manifest
# ---------------------------------------------------------------------- #
def suite_manifest(result: SuiteResult, engine: Optional[SimEngine] = None) -> Dict[str, object]:
    """JSON-able provenance record of one suite run.

    Mirrors the orchestrator manifest discipline: everything except the
    volatile ``run`` block is deterministic for a given (suite, scale,
    code version), so manifests diff cleanly across machines.  The
    ``reorder_applicability`` section records, per GEMM, whether READ's
    single-zero-crossing property held on the op's real operand sample —
    the paper's invariant is proven only for non-negative activations,
    and this is where the measured answer for signed attention operands
    lands.
    """
    scenarios = []
    for report in result.reports:
        scenarios.append(
            {
                "scenario": report.scenario.describe(),
                "quant_accuracy": report.quant_accuracy,
                "bits": [list(rule) for rule in report.bits],
                "injected_accuracy": report.injected_accuracy,
                "reorder_applicability": report.reorder_applicability,
                "layer_ters": {
                    strategy: [
                        {
                            "layer": r.layer,
                            "n_macs_per_output": r.n_macs_per_output,
                            "groups": r.groups,
                            "ter_by_corner": r.ter_by_corner,
                        }
                        for r in records
                    ]
                    for strategy, records in report.records.items()
                },
            }
        )
    manifest: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "suite": result.suite,
        "scale": result.scale,
        "scenarios": scenarios,
    }
    if engine is not None:
        manifest["run"] = {
            "backend": engine.backend_name,
            "stats": engine.stats.as_dict(),
        }
    return manifest


def write_suite_manifest(
    result: SuiteResult, artifacts_dir: Path, engine: Optional[SimEngine] = None
) -> Path:
    """Write ``manifest.json`` for one sweep into ``artifacts_dir``."""
    artifacts_dir = Path(artifacts_dir)
    artifacts_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = artifacts_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(suite_manifest(result, engine=engine), indent=2, sort_keys=True) + "\n"
    )
    return manifest_path


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #
def _layer_label(record: LayerTerRecord, bits: Dict[str, int], default_bits: int) -> str:
    tags = []
    if record.groups > 1:
        tags.append(f"g={record.groups}")
    n_bits = bits.get(record.layer, default_bits)
    if n_bits != 8:
        tags.append(f"{n_bits}b")
    return record.layer + (f" [{','.join(tags)}]" if tags else "")


def render_scenario(report: ScenarioReport) -> str:
    """Per-layer TER table + injected-accuracy grid for one scenario."""
    sc = report.scenario
    eval_corner = sc.inject_corners[0].name
    bits = dict(report.bits)
    strategies = [s.value for s in sc.strategies]

    layer_rows = []
    by_strategy = {s: {r.layer: r for r in report.records[s]} for s in strategies}
    for record in report.records[strategies[0]]:
        row = [
            _layer_label(record, bits, sc.default_bits),
            record.n_macs_per_output,
        ]
        row += [by_strategy[s][record.layer].ter_by_corner[eval_corner] for s in strategies]
        verdict = report.reorder_applicability.get(record.layer)
        if verdict is not None:
            row.append(
                "yes" if verdict["holds"] else f"no (max {verdict['max_zero_crossings']}x)"
            )
        layer_rows.append(row)
    headers = ["Layer", "N"] + strategies
    if report.reorder_applicability:
        headers.append("0x<=1")
    ter_table = render_table(headers, layer_rows)

    acc_rows = []
    for strategy in strategies:
        acc_rows.append(
            [strategy]
            + [
                f"{report.injected_accuracy[strategy][c.name] * 100:.1f}%"
                for c in sc.inject_corners
            ]
        )
    acc_table = render_table(
        ["Strategy"] + [c.name for c in sc.inject_corners], acc_rows
    )
    header = (
        f"scenario {sc.name} ({sc.recipe}, default {sc.default_bits}-bit"
        + (f", {len(bits)} mixed-precision layer(s)" if bits else "")
        + f"; clean quantized top-{sc.topk} accuracy {report.quant_accuracy * 100:.1f}%)"
    )
    return (
        f"{header}\n\nper-layer TER at {eval_corner}:\n{ter_table}\n\n"
        f"injected top-{sc.topk} accuracy:\n{acc_table}"
    )


def render(result: SuiteResult) -> str:
    """Render every scenario of the suite."""
    sections = [
        f"suite {result.suite} @ scale {result.scale} "
        f"({len(result.reports)} scenario(s))"
    ]
    sections += [render_scenario(report) for report in result.reports]
    return "\n\n".join(sections)
