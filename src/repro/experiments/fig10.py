"""Fig. 10: inference accuracy under PVTA corners (VGG-16 & ResNet-18).

The full READ pipeline: per-layer TERs measured on the systolic array at
each of the six corners -> Eq. 1 output BERs -> repeated bit-flip
injection inference -> accuracy.  The paper's qualitative result: the
baseline collapses under aging (especially combined with VT fluctuation)
while reorder and cluster-then-reorder retain accuracy over the whole
range.

Both stages are engine workloads: the layer TERs are a
:class:`~repro.engine.SimJob` batch and every (strategy, corner) cell of
the accuracy grid is one :class:`~repro.faults.InjectionJob`, so the
whole figure — simulation and injection — runs as two cached, parallel
``run_many`` submissions with no bespoke loops.  Injection cells execute
on the trial-batched runtime by default (one stacked forward per cell,
the grid sharing one fault-free operand pass per network;
``--injection-runtime serial`` / ``$REPRO_INJECTION_RUNTIME`` fall back
to the bit-identical reference loop).

Example: ``read-repro fig10 --scale small --jobs 4`` (the TER grids
default to the ``vector`` backend; ``--backend`` overrides).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import MappingStrategy
from ..engine import EngineJob, default_engine
from ..faults import (
    CellAggregate,
    InjectionJob,
    bers_from_layer_ters,
    injection_job_for_bundle,
)
from ..hw.variations import PAPER_CORNERS, PvtaCondition
from .common import (
    ALL_STRATEGIES,
    ExperimentScale,
    get_bundle,
    get_scale,
    layer_ter_jobs,
    macs_per_layer,
    measure_layer_ters,
    record_operand_streams,
    render_table,
    ters_for_corner,
)

#: The two networks of Fig. 10.
DEFAULT_RECIPES = ("vgg16_cifar10", "resnet18_cifar10")


@dataclass(frozen=True)
class AccuracyGrid:
    """Accuracy of one network: strategy x corner."""

    recipe: str
    corners: List[str]
    accuracy: Dict[str, List[float]]   # strategy -> accuracy per corner
    mean_ber: Dict[str, List[float]]   # strategy -> mean injected BER per corner
    clean_accuracy: float
    topk: int
    #: strategy -> per-corner Wilson 95% CI on the pooled (trial, image)
    #: Bernoulli samples, via the campaign aggregator (schema v4 results;
    #: empty when assembled from payloads without per-trial counts).
    ci: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)


@dataclass(frozen=True)
class Fig10Result:
    """Both networks of Fig. 10."""

    grids: List[AccuracyGrid]


def corner_seed(corner: PvtaCondition) -> int:
    """Stable per-corner base seed (str hash is process-salted, avoid it)."""
    return sum(ord(ch) for ch in corner.name) % 10000


def injection_jobs_for_grid(
    recipe: str,
    scale: ExperimentScale,
    corners: Sequence[PvtaCondition] = PAPER_CORNERS,
    strategies: Sequence[MappingStrategy] = ALL_STRATEGIES,
    topk: int = 1,
    only_layers: Optional[Sequence[str]] = None,
    figure: str = "fig10",
    n_trials: Optional[int] = None,
) -> List[InjectionJob]:
    """One :class:`InjectionJob` per (strategy, corner) cell of a grid.

    Derives the BER tables from the layer-TER measurement (an engine
    batch itself, so warm runs only touch the cache), in strategy-major
    order matching :func:`measure_accuracy_grid`'s assembly.
    ``n_trials`` overrides the scale's trial count (the campaign runner
    passes its ``--max-trials`` budget here).
    """
    bundle = get_bundle(recipe, scale)
    records = measure_layer_ters(
        bundle.qnet,
        bundle.x_test[: scale.ter_images],
        corners=list(corners),
        strategies=strategies,
        max_pixels=scale.ter_pixels,
    )
    n_macs = macs_per_layer(records)
    jobs: List[InjectionJob] = []
    for strategy in strategies:
        for corner in corners:
            ters = ters_for_corner(records, strategy, corner.name)
            bers = bers_from_layer_ters(ters, n_macs, only_layers=only_layers)
            jobs.append(
                injection_job_for_bundle(
                    bundle,
                    bers,
                    n_trials=n_trials,
                    topk=topk,
                    base_seed=corner_seed(corner),
                    corner=corner.name,
                    label=f"{figure}:{recipe}:{strategy.value}:{corner.name}",
                )
            )
    return jobs


def measure_accuracy_grid(
    recipe: str,
    scale: ExperimentScale,
    corners: Sequence[PvtaCondition] = PAPER_CORNERS,
    strategies: Sequence[MappingStrategy] = ALL_STRATEGIES,
    topk: int = 1,
    only_layers: Optional[Sequence[str]] = None,
    figure: str = "fig10",
) -> AccuracyGrid:
    """Accuracy grid of one network (shared with Fig. 11).

    All (strategy, corner) campaigns go out as one engine batch: the
    *Ideal* columns of the three strategies deduplicate to a single job
    (their BER tables are identically zero), and ``--jobs N`` fans the
    rest over worker processes.
    """
    bundle = get_bundle(recipe, scale)
    jobs = injection_jobs_for_grid(
        recipe, scale, corners, strategies, topk, only_layers, figure
    )
    results = default_engine().run_many(jobs)

    accuracy: Dict[str, List[float]] = {s.value: [] for s in strategies}
    mean_ber: Dict[str, List[float]] = {s.value: [] for s in strategies}
    ci: Dict[str, List[Tuple[float, float]]] = {s.value: [] for s in strategies}
    job_iter = iter(zip(jobs, results))
    for strategy in strategies:
        for _corner in corners:
            job, result = next(job_iter)
            table = job.ber_table()
            accuracy[strategy.value].append(result.mean_accuracy)
            mean_ber[strategy.value].append(
                float(sum(table.values()) / len(table)) if table else 0.0
            )
            # Every cell routes through the campaign aggregator so the
            # figure carries the same Wilson intervals a sharded campaign
            # would report for it.
            ci[strategy.value].append(CellAggregate.from_result(result).wilson_ci())
    return AccuracyGrid(
        recipe=recipe,
        corners=[c.name for c in corners],
        accuracy=accuracy,
        mean_ber=mean_ber,
        clean_accuracy=bundle.quant_accuracy,
        topk=topk,
        ci=ci,
    )


def plan(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
) -> List[EngineJob]:
    """Phase-1 engine jobs: the layer-TER measurements of both networks."""
    scale = scale or get_scale()
    jobs: List[EngineJob] = []
    for recipe in recipes or DEFAULT_RECIPES:
        bundle = get_bundle(recipe, scale)
        streams = record_operand_streams(bundle.qnet, bundle.x_test[: scale.ter_images])
        jobs.extend(
            layer_ter_jobs(
                bundle.qnet,
                streams,
                PAPER_CORNERS,
                strategies=ALL_STRATEGIES,
                max_pixels=scale.ter_pixels,
                label_prefix=f"fig10:{recipe}:",
            )
        )
    return jobs


def plan_injections(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
) -> List[EngineJob]:
    """Phase-2 engine jobs: the injection campaigns (need phase-1 TERs)."""
    scale = scale or get_scale()
    jobs: List[EngineJob] = []
    for recipe in recipes or DEFAULT_RECIPES:
        jobs.extend(injection_jobs_for_grid(recipe, scale))
    return jobs


def run(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
) -> Fig10Result:
    """Fig. 10: top-1 accuracy of VGG-16 and ResNet-18 on CIFAR-10-like."""
    scale = scale or get_scale()
    recipes = list(recipes or DEFAULT_RECIPES)
    grids = [measure_accuracy_grid(recipe, scale) for recipe in recipes]
    return Fig10Result(grids=grids)


def render_grid(grid: AccuracyGrid) -> str:
    """One accuracy table (strategies as rows, corners as columns)."""
    headers = ["Strategy"] + grid.corners
    rows = []
    for strategy, values in grid.accuracy.items():
        rows.append([strategy] + [f"{v * 100:.1f}%" for v in values])
    return (
        f"{grid.recipe} (clean quantized top-1 accuracy "
        f"{grid.clean_accuracy * 100:.1f}%; the Ideal column is the clean "
        f"top-{grid.topk} accuracy of the injected subset):\n"
        + render_table(headers, rows)
    )


def render(result: Fig10Result) -> str:
    """Render both networks' accuracy grids."""
    return "\n\n".join(render_grid(grid) for grid in result.grids)


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))
