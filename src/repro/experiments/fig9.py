"""Fig. 9: PSUM accumulation trajectories, original vs. reordered.

A fine-grained view of *why* reordering works: the PSUM of a MAC
computing one output activation oscillates around zero in the original
weight order, but rises monotonically and then falls after ``sign_first``
reordering — crossing the zero line (the red dashed line of the paper's
figure) at most once.

Example: ``read-repro fig9 --scale small``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..arch import sample_pixel_rows
from ..core import MappingStrategy, count_sign_flips, plan_layer, prefix_sums
from .common import ExperimentScale, get_bundle, get_scale


@dataclass(frozen=True)
class PsumTrace:
    """Trajectories of several output activations on one MAC column."""

    strategy: str
    psums: np.ndarray          # (n_outputs, n_cycles), normalized by `norm`
    sign_flips: np.ndarray     # (n_outputs,)
    norm: float = 1.0          # max |PSUM|, for denormalization

    @property
    def total_sign_flips(self) -> int:
        return int(self.sign_flips.sum())


@dataclass(frozen=True)
class Fig9Result:
    """Original vs. reordered trajectories for the same outputs."""

    layer: str
    original: PsumTrace
    reordered: PsumTrace


def plan(scale: Optional[ExperimentScale] = None) -> List[object]:
    """No engine jobs: exact PSUM trajectories via prefix sums (no DTA)."""
    return []


def run(
    scale: Optional[ExperimentScale] = None,
    recipe: str = "vgg16_cifar10",
    layer_index: int = 4,
    n_outputs: int = 6,
    column: int = 0,
) -> Fig9Result:
    """Trace the PSUM of ``n_outputs`` activations before/after reorder."""
    scale = scale or get_scale()
    bundle = get_bundle(recipe, scale)
    qconvs = bundle.qnet.qconvs()
    layer_index = min(layer_index, len(qconvs) - 1)
    qc = qconvs[layer_index]

    streams = bundle.operand_streams(1)
    cols = streams[qc.name]
    rng = np.random.default_rng(1)
    rows = sample_pixel_rows(cols.shape[0], n_outputs, rng)
    acts = cols[rows].astype(np.int64)              # (n_outputs, C_eff)
    wmat = qc.lowered_weight_matrix()
    weights = wmat[:, column].astype(np.int64)      # single output channel

    traces = {}
    for strategy in (MappingStrategy.BASELINE, MappingStrategy.REORDER):
        plan = plan_layer(wmat, group_size=1, strategy=strategy)
        # column "column" lives in group "column" when group_size == 1
        order = plan.groups[column].order
        products = acts[:, order] * weights[order][None, :]
        psums = prefix_sums(products)
        norm = float(np.abs(psums).max()) or 1.0
        traces[strategy.value] = PsumTrace(
            strategy=strategy.value,
            psums=psums / norm,
            sign_flips=count_sign_flips(products),
            norm=norm,
        )
    return Fig9Result(
        layer=qc.name,
        original=traces["baseline"],
        reordered=traces["reorder"],
    )


def ascii_plot(psums: np.ndarray, height: int = 11, width: int = 64) -> str:
    """Terminal sparkline of the first trajectory (zero line marked)."""
    series = psums[0]
    idx = np.linspace(0, len(series) - 1, min(width, len(series))).astype(int)
    series = series[idx]
    lo, hi = float(series.min()), float(series.max())
    span = max(hi - lo, 1e-9)
    rows = []
    for level in range(height - 1, -1, -1):
        y_lo = lo + span * level / height
        y_hi = lo + span * (level + 1) / height
        line = []
        for v in series:
            if y_lo <= v < y_hi or (level == height - 1 and v == hi):
                line.append("*")
            elif y_lo <= 0 < y_hi:
                line.append("-")
            else:
                line.append(" ")
        rows.append("".join(line))
    return "\n".join(rows)


def render(result: Fig9Result) -> str:
    """Render both trajectories with their sign-flip counts."""
    return (
        f"Layer {result.layer}, {result.original.psums.shape[0]} outputs, "
        f"{result.original.psums.shape[1]} MAC cycles each\n\n"
        f"(a) original order — total sign flips {result.original.total_sign_flips}:\n"
        f"{ascii_plot(result.original.psums)}\n\n"
        f"(b) reordered — total sign flips {result.reordered.total_sign_flips}:\n"
        f"{ascii_plot(result.reordered.psums)}\n"
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))
