"""Fig. 11: top-3 accuracy on the larger benchmarks under PVTA corners.

VGG-16 on CIFAR-100-like and ResNet-34 on ImageNet-32-like, top-3
accuracy, with errors injected only into the vulnerable early layers —
exactly the paper's cost-saving protocol ("to speed up the simulation, we
injected errors only into several vulnerable layers (those closer to the
inputs)").

Like Fig. 10, both the layer-TER measurements and the per-(strategy,
corner) injection campaigns are engine job batches, and the injection
cells run on the trial-batched runtime by default (``--injection-runtime
serial`` / ``$REPRO_INJECTION_RUNTIME`` select the bit-identical
reference loop): one stacked forward per (strategy, corner) cell, all
cells of a network sharing one cached fault-free operand pass.

Example: ``read-repro fig11 --scale small --jobs 4`` (the TER grids
default to the ``vector`` backend; ``--backend`` overrides).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..engine import EngineJob
from ..hw.variations import PAPER_CORNERS
from .common import (
    ALL_STRATEGIES,
    ExperimentScale,
    get_bundle,
    get_scale,
    layer_ter_jobs,
)
from .fig10 import (
    AccuracyGrid,
    injection_jobs_for_grid,
    measure_accuracy_grid,
    render_grid,
)

#: The two larger benchmarks of Fig. 11.
DEFAULT_RECIPES = ("vgg16_cifar100", "resnet34_imagenet32")


@dataclass(frozen=True)
class Fig11Result:
    """Both networks of Fig. 11 (top-3 accuracy grids)."""

    grids: List[AccuracyGrid]
    injected_layers: int


def _early_layers(recipe: str, scale: ExperimentScale, n: int) -> List[str]:
    """Names of the first ``n`` conv layers (the paper's injection set)."""
    bundle = get_bundle(recipe, scale)
    return [qc.name for qc in bundle.qnet.qconvs()[:n]]


def plan(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
) -> List[EngineJob]:
    """Phase-1 engine jobs: layer-TER measurements of both benchmarks."""
    scale = scale or get_scale()
    jobs: List[EngineJob] = []
    for recipe in recipes or DEFAULT_RECIPES:
        bundle = get_bundle(recipe, scale)
        streams = bundle.operand_streams(scale.ter_images)
        jobs.extend(
            layer_ter_jobs(
                bundle.qnet,
                streams,
                PAPER_CORNERS,
                strategies=ALL_STRATEGIES,
                max_pixels=scale.ter_pixels,
                label_prefix=f"fig11:{recipe}:",
            )
        )
    return jobs


def plan_injections(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
    n_vulnerable_layers: int = 4,
    topk: int = 3,
) -> List[EngineJob]:
    """Phase-2 engine jobs: the top-k early-layer injection campaigns."""
    scale = scale or get_scale()
    jobs: List[EngineJob] = []
    for recipe in recipes or DEFAULT_RECIPES:
        jobs.extend(
            injection_jobs_for_grid(
                recipe,
                scale,
                topk=topk,
                only_layers=_early_layers(recipe, scale, n_vulnerable_layers),
                figure="fig11",
            )
        )
    return jobs


def run(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
    n_vulnerable_layers: int = 4,
    topk: int = 3,
) -> Fig11Result:
    """Fig. 11 with injection restricted to the first ``n`` conv layers."""
    scale = scale or get_scale()
    recipes = list(recipes or DEFAULT_RECIPES)
    grids = [
        measure_accuracy_grid(
            recipe,
            scale,
            topk=topk,
            only_layers=_early_layers(recipe, scale, n_vulnerable_layers),
            figure="fig11",
        )
        for recipe in recipes
    ]
    return Fig11Result(grids=grids, injected_layers=n_vulnerable_layers)


def render(result: Fig11Result) -> str:
    """Render both top-3 accuracy grids."""
    note = (
        f"(errors injected into the first {result.injected_layers} conv layers "
        "only, per the paper's protocol)\n\n"
    )
    return note + "\n\n".join(render_grid(grid) for grid in result.grids)


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))
