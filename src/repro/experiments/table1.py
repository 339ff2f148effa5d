"""Table I: qualitative comparison of timing-error-resilience techniques.

The paper's Table I is a feature matrix of the representative
state-of-the-art methods; it carries no measurements, so the reproduction
simply encodes and renders it (and the test suite checks the claims that
matter: READ is the only dataflow-layer technique, with no accuracy loss,
negligible overhead and no throughput drop).

Example: ``read-repro table1``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .common import render_table


@dataclass(frozen=True)
class TechniqueFeatures:
    """One row of Table I."""

    method: str
    layer: str
    scalable_with_technology: bool
    accuracy_loss: bool
    hardware_overhead: str
    throughput_drop: bool
    design_effort: str


TABLE1: List[TechniqueFeatures] = [
    TechniqueFeatures("Guardbanding", "circuit-layer", False, False, "High", True, "Low"),
    TechniqueFeatures("Sensitivity analysis [13,14]", "algorithm-layer", True, True, "Negligible", False, "Medium"),
    TechniqueFeatures("ABFT [11,12]", "algorithm-layer", True, False, "Medium", True, "High"),
    TechniqueFeatures("Timing error detection [7,15,6]", "circuit-layer", True, False, "High", False, "Medium"),
    TechniqueFeatures("Timing error prediction [10,16]", "circuit-layer", True, True, "Medium", False, "High"),
    TechniqueFeatures("READ (ours)", "dataflow", True, False, "Negligible", False, "Low"),
]


def run() -> List[TechniqueFeatures]:
    """Return the Table I rows (kept as a runner for CLI uniformity)."""
    return TABLE1


def render(rows: List[TechniqueFeatures]) -> str:
    """Render Table I in the paper's column order."""
    headers = [
        "Method", "Layer", "Scalable w/ Tech", "Accuracy Loss",
        "HW Overhead", "Throughput Drop", "Design Effort",
    ]
    body = [
        [
            r.method,
            r.layer,
            "yes" if r.scalable_with_technology else "no",
            "yes" if r.accuracy_loss else "no",
            r.hardware_overhead,
            "yes" if r.throughput_drop else "no",
            r.design_effort,
        ]
        for r in rows
    ]
    return render_table(headers, body)


def main() -> None:  # pragma: no cover - CLI entry
    print(render(run()))
