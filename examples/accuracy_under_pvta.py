#!/usr/bin/env python3
"""End-to-end accuracy of a network under PVTA variation (Fig. 10 flow).

The paper's full evaluation pipeline on one network:

    layer TERs (systolic DTA)  ->  Eq. 1 output BERs
        ->  seeded bit-flip injection  ->  accuracy per corner

and the punchline: the baseline mapping collapses under aging while READ
keeps the network usable over the same range of operating conditions.

Run:  REPRO_SCALE=tiny python examples/accuracy_under_pvta.py [recipe]
      (recipe defaults to resnet18_cifar10; see repro.experiments.MODEL_RECIPES)
"""

import sys

from repro.experiments import fig10, get_scale


def main() -> None:
    recipe = sys.argv[1] if len(sys.argv) > 1 else "resnet18_cifar10"
    scale = get_scale()
    print(f"recipe: {recipe}, scale: {scale.name}\n")
    grid = fig10.run(scale, recipes=[recipe]).grids[0]
    print(fig10.render_grid(grid))

    base = grid.accuracy["baseline"]
    ctr = grid.accuracy["cluster_then_reorder"]
    worst = min(range(len(base)), key=lambda i: base[i])
    print(
        f"\nAt the corner where the baseline is weakest ({grid.corners[worst]}): "
        f"baseline {base[worst] * 100:.1f}% vs cluster-then-reorder "
        f"{ctr[worst] * 100:.1f}% — READ's computation-order change, with zero "
        "impact on the fault-free result, keeps the accelerator usable."
    )


if __name__ == "__main__":
    main()
