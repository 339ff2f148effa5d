"""Fig. 3: the paper's 1x4 convolution computed in three orders.

The worked example of Section IV-A: the same four products accumulated in
different orders yield identical results but different PSUM sign-flip
counts — 4 flips in an unlucky order, 0 when the output is non-negative
and the non-negative weights go first, 1 when the output is negative.

Example: ``read-repro fig3``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core import count_sign_flips, optimal_single_channel_order, prefix_sums
from .common import render_table


@dataclass(frozen=True)
class OrderDemo:
    """One accumulation order of the example convolution."""

    label: str
    weights: Tuple[int, ...]
    acts: Tuple[int, ...]
    psums: Tuple[int, ...]
    final: int
    sign_flips: int


def _demo(label: str, acts, weights) -> OrderDemo:
    acts = np.asarray(acts, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    products = acts * weights
    psums = prefix_sums(products)
    return OrderDemo(
        label=label,
        weights=tuple(int(w) for w in weights),
        acts=tuple(int(a) for a in acts),
        psums=tuple(int(p) for p in psums),
        final=int(psums[-1]),
        sign_flips=int(count_sign_flips(products)),
    )


def run() -> List[OrderDemo]:
    """Build the three sub-figures of Fig. 3.

    (a) an adversarial alternating order with 4 sign flips;
    (b) non-negative weights first with a non-negative final output: 0
        flips;
    (c) the same reordering with a negative final output: exactly 1 flip.
    """
    # (a) alternating signs: the psum crosses zero on every cycle
    acts_a = np.asarray([3, 2, 3, 2])
    weights_a = np.asarray([-1, 7, -5, 4])
    demo_a = _demo("(a) original", acts_a, weights_a)

    # (b) same products, non-negative weights first -> rise then fall, >= 0
    order = optimal_single_channel_order(weights_a)
    demo_b = _demo("(b) reordered (final >= 0)", acts_a[order], weights_a[order])

    # (c) reordered but the output is negative -> exactly one flip
    acts_c = np.asarray([3, 6, 2, 1])
    weights_c = np.asarray([-1, -5, 7, 4])
    order_c = optimal_single_channel_order(weights_c)
    demo_c = _demo("(c) reordered (final < 0)", acts_c[order_c], weights_c[order_c])
    return [demo_a, demo_b, demo_c]


def render(demos: List[OrderDemo]) -> str:
    """Render the three orders with their PSUM trajectories."""
    headers = ["Case", "Weights", "Inputs", "PSUM trajectory", "Final", "Sign flips"]
    rows = [
        [d.label, list(d.weights), list(d.acts), list(d.psums), d.final, d.sign_flips]
        for d in demos
    ]
    return render_table(headers, rows)


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))
