"""Fig. 10: inference accuracy under PVTA corners (VGG-16 & ResNet-18).

The full READ pipeline: per-layer TERs measured on the systolic array at
each of the six corners -> Eq. 1 output BERs -> repeated bit-flip
injection inference -> accuracy.  The paper's qualitative result: the
baseline collapses under aging (especially combined with VT fluctuation)
while reorder and cluster-then-reorder retain accuracy over the whole
range.

Both stages are engine workloads: :func:`steps` yields the layer TERs
as one :class:`~repro.engine.SimJob` batch, then, built from those very
reports, one :class:`~repro.faults.InjectionJob` per (strategy, corner)
cell of the accuracy grid, so the whole figure — simulation and
injection — runs as two cached, parallel ``run_many`` submissions with
no bespoke loops and measures each TER once.  Injection cells execute
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
    LayerTerRecord,
    Steps,
    TrainedBundle,
    bundle_ter_batch,
    drive,
    get_bundle,
    get_scale,
    layer_ter_steps,
    macs_per_layer,
    render_table,
    split_results,
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


def grid_injection_jobs(
    bundle: TrainedBundle,
    records: Dict[str, List[LayerTerRecord]],
    corners: Sequence[PvtaCondition],
    strategies: Sequence[MappingStrategy],
    label_prefix: str,
    topk: int = 1,
    only_layers: Optional[Sequence[str]] = None,
    n_trials: Optional[int] = None,
) -> List[InjectionJob]:
    """One :class:`InjectionJob` per (strategy, corner) cell of a grid.

    Eq. 1 turns the network's layer-TER ``records`` at each corner into
    the cell's BER table; cells come strategy-major, as
    :func:`accuracy_grid` reads them.  The one builder of accuracy-grid
    campaigns: Figs. 10 and 11, ``read-repro campaign`` (which passes
    its ``--max-trials`` budget as ``n_trials``) and ``read-repro
    sweep`` all go through it.
    """
    n_macs = macs_per_layer(records)
    return [
        injection_job_for_bundle(
            bundle,
            bers_from_layer_ters(
                ters_for_corner(records, strategy, corner.name),
                n_macs,
                only_layers=only_layers,
            ),
            n_trials=n_trials,
            topk=topk,
            base_seed=corner_seed(corner),
            corner=corner.name,
            label=f"{label_prefix}{strategy.value}:{corner.name}",
        )
        for strategy in strategies
        for corner in corners
    ]


def accuracy_grid(
    bundle: TrainedBundle,
    jobs: Sequence[InjectionJob],
    results: Sequence[object],
    topk: int,
) -> AccuracyGrid:
    """Assemble one network's grid from its :func:`grid_injection_jobs` results."""
    accuracy: Dict[str, List[float]] = {s.value: [] for s in ALL_STRATEGIES}
    mean_ber: Dict[str, List[float]] = {s.value: [] for s in ALL_STRATEGIES}
    ci: Dict[str, List[Tuple[float, float]]] = {s.value: [] for s in ALL_STRATEGIES}
    job_iter = iter(zip(jobs, results))
    for strategy in ALL_STRATEGIES:
        for _corner in PAPER_CORNERS:
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
        recipe=bundle.recipe,
        corners=[c.name for c in PAPER_CORNERS],
        accuracy=accuracy,
        mean_ber=mean_ber,
        clean_accuracy=bundle.quant_accuracy,
        topk=topk,
        ci=ci,
    )


def grid_steps(
    scale: ExperimentScale,
    recipes: Sequence[str],
    figure: str,
    topk: int = 1,
    only_layers: Optional[Dict[str, Sequence[str]]] = None,
) -> Steps:
    """Yield the networks' layer-TER batch, then their campaigns; return the grids.

    Shared with Fig. 11.  The first batch holds every network's
    layer-TER jobs (per recipe, layer-major); the second, built from
    those very reports, one injection campaign per (network, strategy,
    corner) cell, which ``--jobs N`` fans over worker processes.
    ``only_layers`` maps a recipe to the layers its campaigns inject.
    """
    bundles = [get_bundle(recipe, scale) for recipe in recipes]
    all_records = yield from layer_ter_steps(
        [
            bundle_ter_batch(bundle, PAPER_CORNERS, label_prefix=f"{figure}:{bundle.recipe}:")
            for bundle in bundles
        ]
    )
    cells = [
        grid_injection_jobs(
            bundle,
            records,
            PAPER_CORNERS,
            ALL_STRATEGIES,
            label_prefix=f"{figure}:{bundle.recipe}:",
            topk=topk,
            only_layers=(only_layers or {}).get(bundle.recipe),
        )
        for bundle, records in zip(bundles, all_records)
    ]
    results = yield [job for jobs in cells for job in jobs]
    return [
        accuracy_grid(bundle, jobs, part, topk)
        for bundle, jobs, part in zip(bundles, cells, split_results(results, cells))
    ]


def steps(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
) -> Steps:
    """Yield both networks' layer-TER batch, then their campaigns; return the result."""
    grids = yield from grid_steps(scale or get_scale(), list(recipes or DEFAULT_RECIPES), "fig10")
    return Fig10Result(grids=grids)


def run(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
) -> Fig10Result:
    """Fig. 10: top-1 accuracy of VGG-16 and ResNet-18 on CIFAR-10-like."""
    return drive(steps(scale, recipes))


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
