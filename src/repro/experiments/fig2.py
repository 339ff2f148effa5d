"""Fig. 2: sign-flip rate vs. timing error rate correlation.

The paper collects (sign-flip rate, TER) pairs "from different MAC units
running different convolution layers with different dataflow" and shows a
strong positive correlation — the evidence that PSUM sign flips are the
dominant critical input pattern.

We reproduce the scatter with real trained-layer operand streams: every
conv layer of a trained VGG-16, under both dataflows and all three
mapping strategies (which is what varies the sign-flip rate), measured at
the TER evaluation corner.  The runner reports the Pearson correlation of
log(sign-flip rate) vs. log(TER).

Example: ``read-repro fig2 --scale small --backend vector --jobs 4``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..arch import AcceleratorConfig, Dataflow
from ..hw.variations import PAPER_CORNERS, TER_EVAL_CORNER
from .common import (
    ALL_STRATEGIES,
    ExperimentScale,
    Steps,
    bundle_ter_batch,
    drive,
    get_bundle,
    get_scale,
    render_table,
)


@dataclass(frozen=True)
class ScatterPoint:
    """One point of the Fig. 2 scatter."""

    layer: str
    strategy: str
    dataflow: str
    sign_flip_rate: float
    ter: float


@dataclass(frozen=True)
class Fig2Result:
    """Scatter points plus the log-log Pearson correlation."""

    points: List[ScatterPoint]
    correlation: float


def steps(scale: Optional[ExperimentScale] = None, recipe: str = "vgg16_cifar10") -> Steps:
    """Yield the scatter's one job batch (layer-major, OS then WS); return the result.

    Every (dataflow, layer, strategy) point is one engine job.  Jobs are
    measured at all ``PAPER_CORNERS`` even though the figure only reads
    the evaluation corner: a multi-corner job costs one simulation pass
    either way, and it makes the output-stationary half of this batch
    byte-identical to the fig8/fig10 layer-TER jobs — one shared cache
    entry instead of three.
    """
    scale = scale or get_scale()
    bundle = get_bundle(recipe, scale)
    dataflows = (Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY)
    all_reports = yield [
        job
        for dataflow in dataflows
        for job in bundle_ter_batch(
            bundle,
            PAPER_CORNERS,
            config=AcceleratorConfig(dataflow=dataflow),
            label_prefix=f"fig2:{dataflow.value}:",
        ).jobs
    ]

    layers = [qc.name for qc in bundle.qnet.qconvs()]
    points: List[ScatterPoint] = []
    report_iter = iter(all_reports)
    for dataflow in dataflows:
        for layer in layers:
            for strategy in ALL_STRATEGIES:
                report = next(report_iter)[TER_EVAL_CORNER.name]
                points.append(
                    ScatterPoint(
                        layer=layer,
                        strategy=strategy.value,
                        dataflow=dataflow.value,
                        sign_flip_rate=report.sign_flip_rate,
                        ter=report.ter,
                    )
                )
    return Fig2Result(points=points, correlation=correlation(points))


def run(scale: Optional[ExperimentScale] = None, recipe: str = "vgg16_cifar10") -> Fig2Result:
    """Collect the scatter and compute the correlation (one engine batch)."""
    return drive(steps(scale, recipe))


def correlation(points: List[ScatterPoint]) -> float:
    """Pearson correlation of log sign-flip rate vs. log TER."""
    usable = [p for p in points if p.sign_flip_rate > 0 and p.ter > 0]
    if len(usable) < 3:
        return float("nan")
    x = np.log([p.sign_flip_rate for p in usable])
    y = np.log([p.ter for p in usable])
    return float(np.corrcoef(x, y)[0, 1])


def render(result: Fig2Result) -> str:
    """Text rendering: the scatter as a table plus the correlation."""
    headers = ["Layer", "Strategy", "Dataflow", "SignFlipRate", "TER"]
    rows = [
        [p.layer, p.strategy, p.dataflow, p.sign_flip_rate, p.ter] for p in result.points
    ]
    table = render_table(headers, rows)
    return (
        f"{table}\n\nPearson correlation (log-log): {result.correlation:.3f}\n"
        "Paper: 'the sign flip rate and the TER demonstrate a strong correlation'."
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))
