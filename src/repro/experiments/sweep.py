"""``read-repro sweep --suite <name>``: one scenario suite, one engine sweep.

The scenario-matrix counterpart of ``read-repro all``: every scenario in
the suite (see :mod:`repro.scenarios`) is one :func:`scenario_steps`
generator, and the orchestrator's :func:`~repro.experiments.orchestrator.lockstep`
driver runs them all at once:

1. **Round 1** — each scenario's bundle is trained (or loaded), its
   operand streams recorded once, and its (layer x strategy x
   conv-group) :class:`~repro.engine.SimJob` batch yielded.  Same-key
   jobs shared between scenarios deduplicate to a single submission.
2. **Round 2** — per (scenario, strategy, injection corner), the TERs
   the scenario was just sent convert through Eq. 1 into a BER table
   over *every* layer (grouped convs and the lowered classifier head
   included), and one :class:`~repro.faults.InjectionJob` is yielded;
   the scenario's mixed-precision bit widths travel inside the job.
3. **Sweep** — each round is one ``SimEngine.run_many`` call over its
   unique jobs: ``--jobs`` fans the union over one process pool, warm
   reruns are 100 % cache hits (the CLI's engine summary line shows the
   hit count), and without a cache each unique job still runs once.
4. **Render** — one per-layer TER table per scenario (depthwise groups
   annotated) plus the strategy x corner injected-accuracy grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..engine import SimEngine, default_engine, engine_context
from ..scenarios import Scenario, get_suite, layer_names_for_recipe
from .common import (
    ExperimentScale,
    LayerTerRecord,
    Steps,
    TrainedBundle,
    bundle_ter_batch,
    clean_accuracy,
    gemm_reorder_applicability,
    get_bundle,
    get_scale,
    layer_ter_steps,
    peak_rss_mb,
    render_table,
)
from .fig10 import grid_injection_jobs
from .orchestrator import MANIFEST_SCHEMA, lockstep


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


def scenario_steps(scenario: Scenario, scale: ExperimentScale) -> Steps:
    """Yield one scenario's layer-TER batch, then its campaigns; return its report."""
    bundle = scenario_bundle(scenario, scale)
    label_prefix = f"sweep:{scenario.name}:"
    (records,) = yield from layer_ter_steps(
        [
            bundle_ter_batch(
                bundle,
                scenario.corners,
                strategies=scenario.strategies,
                seed=scenario.seed,
                label_prefix=label_prefix,
            )
        ]
    )
    jobs = grid_injection_jobs(
        bundle,
        records,
        scenario.inject_corners,
        scenario.strategies,
        label_prefix=label_prefix,
        topk=scenario.topk,
    )
    results = iter((yield jobs))
    grid = {
        strategy.value: {
            corner.name: next(results).mean_accuracy for corner in scenario.inject_corners
        }
        for strategy in scenario.strategies
    }
    return ScenarioReport(
        scenario=scenario,
        quant_accuracy=clean_accuracy(bundle, scenario.topk),
        records=records,
        injected_accuracy=grid,
        bits=bundle.bits_per_layer,
        reorder_applicability=gemm_reorder_applicability(
            bundle.qnet,
            bundle.operand_streams(scale.ter_images),
            max_pixels=scale.ter_pixels,
            seed=scenario.seed,
        ),
    )


def run_suite(
    suite: str,
    scale: Optional[ExperimentScale] = None,
    engine: Optional[SimEngine] = None,
) -> SuiteResult:
    """Run every scenario of one suite in lockstep over one engine sweep."""
    scale = scale or get_scale()
    scenarios = get_suite(suite)
    engine = engine or default_engine()
    with engine_context(engine):
        reports = lockstep(
            {i: scenario_steps(sc, scale) for i, sc in enumerate(scenarios)}, engine
        )
    return SuiteResult(
        suite=suite, scale=scale.name, reports=[reports[i] for i in range(len(scenarios))]
    )


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
            "peak_rss_mb": peak_rss_mb(),
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
