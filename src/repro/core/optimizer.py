"""Per-layer deployment optimizer: strategy selection under a LUT budget.

A practical extension of the paper's flow: cluster-then-reorder needs an
activation-address LUT per layer, and a deployment may cap the total LUT
storage.  Given the measured per-layer TERs of every strategy (from
:func:`repro.experiments.common.measure_layer_ters` or any equivalent
table), pick for each layer the strategy that minimizes the *network
error exposure* — the expected number of corrupted output activations,
``sum_l BER_l(strategy_l) * outputs_l`` — subject to the LUT budget.

The baseline strategy needs no LUT; reorder needs a single shared table
(weights reordered offline, one activation order for the whole layer is
NOT sufficient when groups differ, so reorder is charged one table as
well by default — the conservative model of Section IV-D).  Greedy
selection by exposure-reduction per LUT byte is optimal here because the
per-layer choices are independent and costs are additive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from .lut import LutCostModel
from .pipeline import MappingStrategy


@dataclass(frozen=True)
class LayerChoice:
    """One layer's strategy candidates and the eventual pick."""

    layer: str
    strategy: MappingStrategy
    ter: float
    exposure: float       # expected corrupted outputs per inference
    lut_bytes: float


@dataclass(frozen=True)
class DeploymentPlan:
    """Outcome of the budgeted optimization."""

    choices: List[LayerChoice]
    total_lut_bytes: float
    total_exposure: float
    baseline_exposure: float

    @property
    def exposure_reduction(self) -> float:
        """Factor by which the expected error count dropped."""
        if self.total_exposure <= 0:
            return float("inf")
        return self.baseline_exposure / self.total_exposure

    def strategy_for(self, layer: str) -> MappingStrategy:
        for choice in self.choices:
            if choice.layer == layer:
                return choice.strategy
        raise ConfigurationError(f"unknown layer {layer!r}")


def optimize_deployment(
    layer_ters: Dict[str, Dict[str, float]],
    n_macs: Dict[str, int],
    n_outputs: Dict[str, int],
    lut_budget_bytes: float,
    lut_model: Optional[LutCostModel] = None,
) -> DeploymentPlan:
    """Choose a per-layer strategy mix under a total LUT budget.

    Parameters
    ----------
    layer_ters:
        ``{layer: {strategy_value: ter}}`` — must include ``"baseline"``
        for every layer; other strategies are optional candidates.
    n_macs / n_outputs:
        Per-layer reduction length (Eq. 1's N) and output activation
        count per inference.
    lut_budget_bytes:
        Total activation-LUT storage available across layers.
    """
    # Lazy: the faults package imports the engine, which imports core.
    from ..faults.ber import ber_from_ter

    if lut_budget_bytes < 0:
        raise ConfigurationError("lut_budget_bytes must be non-negative")
    lut_model = lut_model or LutCostModel()

    def exposure(layer: str, ter: float) -> float:
        return float(ber_from_ter(ter, n_macs[layer])) * n_outputs[layer]

    # start everyone at baseline (free), then greedily spend budget on the
    # best exposure-reduction-per-byte upgrades
    current: Dict[str, LayerChoice] = {}
    for layer, table in layer_ters.items():
        if "baseline" not in table:
            raise ConfigurationError(f"layer {layer}: missing baseline TER")
        if layer not in n_macs or layer not in n_outputs:
            raise ConfigurationError(f"layer {layer}: missing shape information")
        current[layer] = LayerChoice(
            layer=layer,
            strategy=MappingStrategy.BASELINE,
            ter=table["baseline"],
            exposure=exposure(layer, table["baseline"]),
            lut_bytes=0.0,
        )
    baseline_exposure = sum(c.exposure for c in current.values())

    spent = 0.0
    while True:
        best_gain_rate = 0.0
        best: Optional[LayerChoice] = None
        for layer, table in layer_ters.items():
            cost = lut_model.lut_bytes(n_macs[layer])
            extra = cost - current[layer].lut_bytes
            if spent + extra > lut_budget_bytes:
                continue
            for name, ter in table.items():
                strategy = MappingStrategy.from_name(name)
                if strategy is MappingStrategy.BASELINE:
                    continue
                gain = current[layer].exposure - exposure(layer, ter)
                rate = gain / max(extra, 1e-9)
                if gain > 0 and rate > best_gain_rate:
                    best_gain_rate = rate
                    best = LayerChoice(
                        layer=layer,
                        strategy=strategy,
                        ter=ter,
                        exposure=exposure(layer, ter),
                        lut_bytes=cost,
                    )
        if best is None:
            break
        spent += best.lut_bytes - current[best.layer].lut_bytes
        current[best.layer] = best

    choices = [current[layer] for layer in layer_ters]
    return DeploymentPlan(
        choices=choices,
        total_lut_bytes=sum(c.lut_bytes for c in choices),
        total_exposure=sum(c.exposure for c in choices),
        baseline_exposure=baseline_exposure,
    )
