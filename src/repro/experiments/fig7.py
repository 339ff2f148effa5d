"""Fig. 7: TER vs. channels-per-cluster for each reordering algorithm.

Sweeps the number of output channels that share one input-channel order
(4, 8, 16, 32) and compares: the un-reordered baseline, ``sign_first``
reordering, ``mag_first`` reordering, and cluster-then-reorder.  Paper
findings reproduced here: all reorderings beat the baseline; reordering
gets less effective as the group widens; ``sign_first`` beats
``mag_first``; clustering helps most at large group sizes.

Example: ``read-repro fig7 --scale small --backend vector``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..arch import AcceleratorConfig
from ..core import MappingStrategy
from ..engine import EngineJob, SimJob, default_engine
from ..hw.variations import PAPER_CORNERS, TER_EVAL_CORNER, PvtaCondition
from .common import (
    ExperimentScale,
    get_bundle,
    get_scale,
    render_table,
    sample_layer_acts,
)

#: The four algorithm variants plotted in Fig. 7.
VARIANTS = (
    ("baseline", MappingStrategy.BASELINE, "sign_first"),
    ("reorder_sign_first", MappingStrategy.REORDER, "sign_first"),
    ("reorder_mag_first", MappingStrategy.REORDER, "mag_first"),
    ("cluster_then_reorder", MappingStrategy.CLUSTER_THEN_REORDER, "sign_first"),
)


@dataclass(frozen=True)
class Fig7Result:
    """TER per (variant, channels-per-cluster) on one layer."""

    layer: str
    group_sizes: List[int]
    ter: Dict[str, List[float]]  # variant -> TER per group size
    corner_name: str


def plan(
    scale: Optional[ExperimentScale] = None,
    recipe: str = "vgg16_cifar10",
    layer_index: int = 6,
    group_sizes: Sequence[int] = (4, 8, 16, 32),
    corner: PvtaCondition = TER_EVAL_CORNER,
) -> List[EngineJob]:
    """The engine jobs this figure submits (group-size-major).

    Measured at all ``PAPER_CORNERS`` (when the requested corner is one of
    them) and sampled with the shared per-layer RNG, so the group-size-4
    ``sign_first`` variants hash to the same cache keys as the
    fig8/fig10 layer-TER jobs for this layer.
    """
    scale = scale or get_scale()
    bundle = get_bundle(recipe, scale)
    qconvs = bundle.qnet.qconvs()
    layer_index = min(layer_index, len(qconvs) - 1)
    qc = qconvs[layer_index]

    streams = bundle.operand_streams(scale.ter_images)
    acts = sample_layer_acts(streams, qc.name, scale.ter_pixels)
    wmat = qc.lowered_weight_matrix()
    corners = PAPER_CORNERS if corner in PAPER_CORNERS else (corner,)

    config = AcceleratorConfig()
    usable_sizes = [g for g in group_sizes if g <= wmat.shape[1]]
    return [
        SimJob(
            acts=acts,
            weights=wmat,
            corners=corners,
            group_size=group_size,
            strategy=strategy,
            criteria=criteria,
            config=config,
            label=f"fig7:{qc.name}:g{group_size}:{name}",
        )
        for group_size in usable_sizes
        for name, strategy, criteria in VARIANTS
    ]


def run(
    scale: Optional[ExperimentScale] = None,
    recipe: str = "vgg16_cifar10",
    layer_index: int = 6,
    group_sizes: Sequence[int] = (4, 8, 16, 32),
    corner: PvtaCondition = TER_EVAL_CORNER,
) -> Fig7Result:
    """Sweep channels-per-cluster on one trained conv layer."""
    scale = scale or get_scale()
    bundle = get_bundle(recipe, scale)
    qconvs = bundle.qnet.qconvs()
    layer_index = min(layer_index, len(qconvs) - 1)
    qc = qconvs[layer_index]

    jobs = plan(scale, recipe, layer_index, group_sizes, corner)
    usable_sizes = [g for g in group_sizes if g <= qc.lowered_weight_matrix().shape[1]]
    all_reports = default_engine().run_many(jobs)

    ter: Dict[str, List[float]] = {name: [] for name, _, _ in VARIANTS}
    report_iter = iter(all_reports)
    for group_size in usable_sizes:
        for name, _, _ in VARIANTS:
            ter[name].append(next(report_iter)[corner.name].ter)
    return Fig7Result(
        layer=qc.name, group_sizes=list(usable_sizes), ter=ter, corner_name=corner.name
    )


def render(result: Fig7Result) -> str:
    """Render the Fig. 7 series as a table (rows = channels/cluster)."""
    headers = ["Channels/Cluster"] + [name for name, _, _ in VARIANTS]
    rows = []
    for i, g in enumerate(result.group_sizes):
        rows.append([g] + [result.ter[name][i] for name, _, _ in VARIANTS])
    return (
        f"Layer {result.layer} at corner {result.corner_name}:\n"
        + render_table(headers, rows)
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))
