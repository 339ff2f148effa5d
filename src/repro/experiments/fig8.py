"""Fig. 8: layer-wise TER for VGG-16 and ResNet-18, plus headline numbers.

For every conv layer of both networks, measure the TER of the baseline,
direct-reorder and cluster-then-reorder mappings at the aged + VT-5 %
corner, then summarize the per-layer reduction factors.  The paper
reports average reductions of 4.9x (reorder) and 7.8x (cluster-then-
reorder) and a best layer of 37.9x; the reproduction reports the same
statistics over our substrate.

Example: ``read-repro fig8 --scale small --backend vector --jobs 4``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import MappingStrategy
from ..hw.variations import PAPER_CORNERS, TER_EVAL_CORNER, PvtaCondition
from .common import (
    ALL_STRATEGIES,
    ExperimentScale,
    Steps,
    bundle_ter_batch,
    drive,
    geometric_mean,
    get_bundle,
    get_scale,
    layer_ter_steps,
    render_table,
)

#: The two networks of Fig. 8.
DEFAULT_RECIPES = ("vgg16_cifar10", "resnet18_cifar10")


def _measurement_corners(corner: PvtaCondition) -> Tuple[PvtaCondition, ...]:
    """Corners fed to the layer-TER jobs.

    All paper corners when the requested one is among them — the extra
    corners ride along on the same simulation pass, and the resulting
    jobs are byte-identical to fig2/fig10/fig11's, so the figures share
    one set of cache entries.
    """
    return PAPER_CORNERS if corner in PAPER_CORNERS else (corner,)


@dataclass(frozen=True)
class NetworkLayerTers:
    """Per-layer TERs of one network under the three strategies."""

    recipe: str
    layers: List[str]
    ter: Dict[str, List[float]]  # strategy value -> TER per layer
    sign_flip_rate: Dict[str, List[float]]


@dataclass(frozen=True)
class Fig8Result:
    """Both networks plus the reduction summary."""

    networks: List[NetworkLayerTers]
    corner_name: str

    def reductions(self, strategy: MappingStrategy) -> List[float]:
        """Per-layer TER reduction factors baseline/strategy, all layers."""
        factors = []
        for net in self.networks:
            for base, opt in zip(net.ter["baseline"], net.ter[strategy.value]):
                if opt > 0 and base > 0:
                    factors.append(base / opt)
        return factors

    def average_reduction(self, strategy: MappingStrategy) -> float:
        """Geometric-mean reduction (the paper's 'average TER reduction')."""
        return geometric_mean(self.reductions(strategy))

    def max_reduction(self, strategy: MappingStrategy) -> float:
        """Best single-layer reduction (the paper's 'up to 37.9x')."""
        return max(self.reductions(strategy))


def steps(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
    corner: PvtaCondition = TER_EVAL_CORNER,
) -> Steps:
    """Yield both networks' layer-TER batch (per recipe, layer-major); return the result."""
    scale = scale or get_scale()
    recipes = list(recipes or DEFAULT_RECIPES)
    all_records = yield from layer_ter_steps(
        [
            bundle_ter_batch(
                get_bundle(recipe, scale),
                _measurement_corners(corner),
                label_prefix=f"fig8:{recipe}:",
            )
            for recipe in recipes
        ]
    )
    networks = []
    for recipe, records in zip(recipes, all_records):
        networks.append(
            NetworkLayerTers(
                recipe=recipe,
                layers=[r.layer for r in records["baseline"]],
                ter={
                    s.value: [r.ter_by_corner[corner.name] for r in records[s.value]]
                    for s in ALL_STRATEGIES
                },
                sign_flip_rate={
                    s.value: [r.sign_flip_rate for r in records[s.value]]
                    for s in ALL_STRATEGIES
                },
            )
        )
    return Fig8Result(networks=networks, corner_name=corner.name)


def run(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
    corner: PvtaCondition = TER_EVAL_CORNER,
) -> Fig8Result:
    """Measure both networks of Fig. 8 (VGG-16 and ResNet-18)."""
    return drive(steps(scale, recipes, corner))


def render(result: Fig8Result) -> str:
    """Layer-wise tables plus the headline reduction summary."""
    sections = []
    for net in result.networks:
        headers = ["#", "Layer", "Baseline", "Reorder", "Cluster-then-Reorder", "Red(x)"]
        rows = []
        for i, layer in enumerate(net.layers):
            base = net.ter["baseline"][i]
            ctr = net.ter["cluster_then_reorder"][i]
            red = base / ctr if ctr > 0 else float("inf")
            rows.append(
                [i + 1, layer, base, net.ter["reorder"][i], ctr, f"{red:.1f}"]
            )
        sections.append(f"{net.recipe} (corner {result.corner_name}):\n" + render_table(headers, rows))
    summary = (
        "\nSummary (vs. paper: reorder avg 4.9x; cluster-then-reorder avg 7.8x, max 37.9x):\n"
        f"  reorder              avg {result.average_reduction(MappingStrategy.REORDER):6.1f}x  "
        f"max {result.max_reduction(MappingStrategy.REORDER):6.1f}x\n"
        f"  cluster-then-reorder avg {result.average_reduction(MappingStrategy.CLUSTER_THEN_REORDER):6.1f}x  "
        f"max {result.max_reduction(MappingStrategy.CLUSTER_THEN_REORDER):6.1f}x"
    )
    return "\n\n".join(sections) + summary


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))
