"""Fig. 11: top-3 accuracy on the larger benchmarks under PVTA corners.

VGG-16 on CIFAR-100-like and ResNet-34 on ImageNet-32-like, top-3
accuracy, with errors injected only into the vulnerable early layers —
exactly the paper's cost-saving protocol ("to speed up the simulation, we
injected errors only into several vulnerable layers (those closer to the
inputs)").

Like Fig. 10 (whose :func:`~repro.experiments.fig10.grid_steps` it
shares), both the layer-TER measurements and the per-(strategy, corner)
injection campaigns built from them are engine job batches, and the injection
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

from .common import ExperimentScale, Steps, drive, get_bundle, get_scale
from .fig10 import AccuracyGrid, grid_steps, render_grid

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


def steps(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
    n_vulnerable_layers: int = 4,
    topk: int = 3,
) -> Steps:
    """Yield both benchmarks' layer-TER batch, then their early-layer campaigns."""
    scale = scale or get_scale()
    recipes = list(recipes or DEFAULT_RECIPES)
    grids = yield from grid_steps(
        scale,
        recipes,
        "fig11",
        topk=topk,
        only_layers={r: _early_layers(r, scale, n_vulnerable_layers) for r in recipes},
    )
    return Fig11Result(grids=grids, injected_layers=n_vulnerable_layers)


def run(
    scale: Optional[ExperimentScale] = None,
    recipes: Optional[List[str]] = None,
    n_vulnerable_layers: int = 4,
    topk: int = 3,
) -> Fig11Result:
    """Fig. 11 with injection restricted to the first ``n`` conv layers."""
    return drive(steps(scale, recipes, n_vulnerable_layers, topk))


def render(result: Fig11Result) -> str:
    """Render both top-3 accuracy grids."""
    note = (
        f"(errors injected into the first {result.injected_layers} conv layers "
        "only, per the paper's protocol)\n\n"
    )
    return note + "\n\n".join(render_grid(grid) for grid in result.grids)


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))
