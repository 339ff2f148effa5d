"""Fig. 5: weight-sign concentration after reordering + clustering convergence.

(a)-(c): the proportion of non-negative vs. negative weights per
row-position quantile of a VGG-16 conv layer's weight matrix — roughly
uniform initially, concentrated toward the front after ``mag_first``
reordering and even more so after ``sign_first`` (the paper's
observation that ``sign_first`` sorts better).

(d): convergence of the balanced output-channel clustering — the
non-negative-weight ratio of the top 25 % / 50 % of the (reordered)
matrix per clustering iteration, which the paper shows improving and
converging within ~30 iterations.

Example: ``read-repro fig5 --scale small``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core import (
    BalancedSignClusterer,
    nonnegative_ratio_by_quantile,
    reorder_groups,
    top_fraction_nonnegative_ratio,
)
from .common import ExperimentScale, get_bundle, get_scale, render_table


@dataclass(frozen=True)
class Fig5Result:
    """Quantile profiles (a-c) and clustering convergence series (d)."""

    layer: str
    quantiles: np.ndarray
    initial_ratio: np.ndarray
    mag_first_ratio: np.ndarray
    sign_first_ratio: np.ndarray
    top25_by_iteration: List[float]
    top50_by_iteration: List[float]
    clustering_objective: List[int]


def _position_aligned(wmat: np.ndarray, group_size: int, criteria: str) -> np.ndarray:
    """Reorder each array-width column group and align rows by *position*.

    The accelerator reorders input channels independently per column
    group, so 'position i of the weight matrix' (the paper's Fig. 5
    x-axis) means the i-th streamed channel of each group.  Stacking the
    per-group reordered sub-matrices column-wise yields a matrix whose
    row i collects exactly those weights.
    """
    from ..core import contiguous_clusters

    groups = reorder_groups(
        wmat, contiguous_clusters(wmat.shape[1], group_size), criteria=criteria
    )
    return np.concatenate([g.weights for g in groups], axis=1)


def run(
    scale: Optional[ExperimentScale] = None,
    recipe: str = "vgg16_cifar10",
    layer_index: int = 6,
    n_quantiles: int = 20,
    cluster_size: int = 4,
    max_iterations: int = 30,
) -> Fig5Result:
    """Reorder one trained VGG conv layer and profile the sign layout.

    ``layer_index`` defaults to a middle layer (the paper uses 'a
    convolution layer of the VGG-16'); any layer shows the same shape.
    """
    scale = scale or get_scale()
    bundle = get_bundle(recipe, scale)
    qconvs = bundle.qnet.qconvs()
    layer_index = min(layer_index, len(qconvs) - 1)
    qc = qconvs[layer_index]
    wmat = qc.lowered_weight_matrix()

    initial = nonnegative_ratio_by_quantile(wmat, n_quantiles)
    mag = nonnegative_ratio_by_quantile(
        _position_aligned(wmat, cluster_size, "mag_first"), n_quantiles
    )
    sign = nonnegative_ratio_by_quantile(
        _position_aligned(wmat, cluster_size, "sign_first"), n_quantiles
    )

    # (d): re-run the clustering capturing the reordered-matrix quality
    # after each iteration's assignment.
    k = wmat.shape[1]
    usable = k - (k % cluster_size)
    w_cluster = wmat[:, :usable]
    top25, top50, objectives = [], [], []
    for n_iter in range(1, max_iterations + 1):
        clusterer = BalancedSignClusterer(
            cluster_size=cluster_size, max_iterations=n_iter, seed=0
        )
        result = clusterer.fit(w_cluster)
        reordered = np.concatenate(
            [g.weights for g in reorder_groups(w_cluster, result.clusters)], axis=1
        )
        top25.append(top_fraction_nonnegative_ratio(reordered, 0.25))
        top50.append(top_fraction_nonnegative_ratio(reordered, 0.50))
        objectives.append(result.objective)
        if result.history.n_iterations < n_iter:
            break  # converged: later iterations are identical

    return Fig5Result(
        layer=qc.name,
        quantiles=np.linspace(100.0 / n_quantiles, 100.0, len(initial)),
        initial_ratio=initial,
        mag_first_ratio=mag,
        sign_first_ratio=sign,
        top25_by_iteration=top25,
        top50_by_iteration=top50,
        clustering_objective=objectives,
    )


def front_loading(profile: np.ndarray) -> float:
    """Summary statistic: mean non-negative ratio of the front half minus
    the back half (0 for a uniform layout, positive when concentrated in
    front — the property Fig. 5(b-c) visualizes)."""
    half = len(profile) // 2
    return float(profile[:half].mean() - profile[half:].mean())


def render(result: Fig5Result) -> str:
    """Render the quantile table and the convergence series."""
    headers = ["Quantile %", "Initial nonneg", "mag_first", "sign_first"]
    rows = [
        [f"{q:.0f}", a, b, c]
        for q, a, b, c in zip(
            result.quantiles, result.initial_ratio, result.mag_first_ratio,
            result.sign_first_ratio,
        )
    ]
    table = render_table(headers, rows)
    conv_rows = [
        [i + 1, t25, t50, obj]
        for i, (t25, t50, obj) in enumerate(
            zip(result.top25_by_iteration, result.top50_by_iteration, result.clustering_objective)
        )
    ]
    conv = render_table(["Iteration", "Top-25% nonneg", "Top-50% nonneg", "SD objective"], conv_rows)
    return (
        f"Layer: {result.layer}\n\n(a-c) sign layout by quantile:\n{table}\n\n"
        f"front-loading: initial={front_loading(result.initial_ratio):+.3f} "
        f"mag_first={front_loading(result.mag_first_ratio):+.3f} "
        f"sign_first={front_loading(result.sign_first_ratio):+.3f}\n\n"
        f"(d) clustering convergence:\n{conv}"
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))
