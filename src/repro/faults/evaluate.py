"""End-to-end accuracy evaluation under timing-error injection.

Implements the paper's protocol (Section V-C): per-layer TERs (from the
systolic-array DTA) -> Eq. 1 BERs -> repeated seeded bit-flip inference
runs -> mean/std accuracy.  The paper uses batch 128 and five repetitions
per corner; those are the defaults.

Two execution tiers share the same trial primitive
(:func:`~repro.faults.injection_job.run_injection_trials`):

* :func:`evaluate_bundle_under_injection` — the scheduled path.  For a
  network with an identity (a trained
  :class:`~repro.experiments.common.TrainedBundle`), the campaign is
  expressed as an :class:`~repro.faults.injection_job.InjectionJob` and
  submitted through the engine, so it shares the process pool and the
  on-disk result cache with every other experiment.  This is what the
  figure runners use.
* :class:`FaultInjectionEvaluator` — the inline path for ad-hoc networks
  that have no content-addressable identity (e.g. the per-layer probes in
  :mod:`repro.faults.sensitivity`).  Uncached, single-process.

Both tiers execute their trials on the trial-batched runtime by default
(one stacked forward pass per campaign — see
:func:`~repro.faults.injection_job.injection_runtime` for the serial
escape hatch); the runtimes are bit-identical, so the choice is purely
about speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..engine import SimEngine, default_engine
from ..errors import ConfigurationError
from ..nn.quantize import QuantizedNetwork
from .ber import ber_from_ter
from .injection_job import InjectionJob, InjectionResult, run_injection_trials

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.common import TrainedBundle


@dataclass(frozen=True)
class InjectionOutcome:
    """Accuracy statistics of one (strategy, corner) evaluation."""

    mean_accuracy: float
    std_accuracy: float
    trial_accuracies: List[float]
    ber_per_layer: Dict[str, float]
    topk: int

    @property
    def mean_ber(self) -> float:
        """Average output BER across the injected layers."""
        if not self.ber_per_layer:
            return 0.0
        return float(np.mean(list(self.ber_per_layer.values())))


def outcome_from_result(
    result: InjectionResult, ber_per_layer: Dict[str, float], topk: int
) -> InjectionOutcome:
    """Wrap an engine :class:`InjectionResult` into the reporting type."""
    return InjectionOutcome(
        mean_accuracy=result.mean_accuracy,
        std_accuracy=result.std_accuracy,
        trial_accuracies=list(result.trial_accuracies),
        ber_per_layer=dict(ber_per_layer),
        topk=topk,
    )


def bers_from_layer_ters(
    ters: Dict[str, float], n_macs: Dict[str, int], only_layers: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Convert per-layer TERs into the injector's BER table via Eq. 1.

    ``only_layers`` restricts injection to a subset (the paper injects
    only the vulnerable early layers for Fig. 11 to bound simulation
    cost).
    """
    bers = {}
    for name, ter in ters.items():
        if only_layers is not None and name not in only_layers:
            continue
        if name not in n_macs:
            raise ConfigurationError(f"missing MAC count for layer {name}")
        bers[name] = float(ber_from_ter(ter, n_macs[name]))
    return bers


def injection_job_for_bundle(
    bundle: "TrainedBundle",
    ber_per_layer: Dict[str, float],
    *,
    inject_n: Optional[int] = None,
    n_trials: Optional[int] = None,
    topk: int = 1,
    base_seed: int = 0,
    batch_size: int = 128,
    runtime: str = "",
    corner: str = "",
    label: str = "",
) -> InjectionJob:
    """Express one campaign on a trained bundle as a schedulable job.

    ``inject_n`` and ``n_trials`` default to the bundle's experiment
    scale, matching the figure runners; the bundle's seed and
    mixed-precision bit widths travel with the job so workers rebuild
    the identical quantized network.
    """
    return InjectionJob(
        recipe=bundle.recipe,
        scale=bundle.scale,
        bundle_seed=bundle.seed,
        bers=ber_per_layer,
        inject_n=inject_n if inject_n is not None else bundle.scale.inject_n,
        n_trials=n_trials if n_trials is not None else bundle.scale.n_trials,
        topk=topk,
        base_seed=base_seed,
        batch_size=batch_size,
        bits=bundle.bits_per_layer,
        default_bits=bundle.default_bits,
        runtime=runtime,
        corner=corner,
        label=label,
    )


def evaluate_bundle_under_injection(
    bundle: "TrainedBundle",
    ber_per_layer: Dict[str, float],
    *,
    inject_n: Optional[int] = None,
    n_trials: Optional[int] = None,
    topk: int = 1,
    base_seed: int = 0,
    batch_size: int = 128,
    engine: Optional[SimEngine] = None,
) -> InjectionOutcome:
    """Scheduled accuracy-under-injection: one engine job, cached, poolable.

    Equivalent to :class:`FaultInjectionEvaluator` on the bundle's test
    slice, but routed through the engine so repeated sweeps hit the
    on-disk cache and batched sweeps fan out over worker processes.
    """
    job = injection_job_for_bundle(
        bundle,
        ber_per_layer,
        inject_n=inject_n,
        n_trials=n_trials,
        topk=topk,
        base_seed=base_seed,
        batch_size=batch_size,
    )
    result = (engine or default_engine()).run(job)
    return outcome_from_result(result, ber_per_layer, topk)


class FaultInjectionEvaluator:
    """Inline repeated-trial accuracy measurement under per-layer BERs.

    For networks without a trained-bundle identity; runs in-process and
    uncached.  Campaigns on :class:`TrainedBundle`\\ s should go through
    :func:`evaluate_bundle_under_injection` (or batched
    :class:`InjectionJob` submissions) instead so they share the engine's
    cache and process pool.

    Parameters
    ----------
    network:
        Calibrated quantized network.
    batch_size:
        Inference batch size (paper: 128).
    n_trials:
        Independent injection repetitions, each with a distinct seed
        (paper: 5).
    """

    def __init__(
        self,
        network: QuantizedNetwork,
        batch_size: int = 128,
        n_trials: int = 5,
        bit_low: int = 20,
        bit_high: int = 23,
    ) -> None:
        if n_trials < 1:
            raise ConfigurationError("n_trials must be >= 1")
        self.network = network
        self.batch_size = batch_size
        self.n_trials = n_trials
        self.bit_low = bit_low
        self.bit_high = bit_high

    def run(
        self,
        x: np.ndarray,
        y: np.ndarray,
        ber_per_layer: Dict[str, float],
        topk: int = 1,
        base_seed: int = 0,
    ) -> InjectionOutcome:
        """Evaluate accuracy under the given BER table.

        A BER table that is empty or all-zero short-circuits to a single
        fault-free run (the *Ideal* corner).
        """
        result = run_injection_trials(
            self.network,
            x,
            y,
            ber_per_layer,
            n_trials=self.n_trials,
            base_seed=base_seed,
            topk=topk,
            batch_size=self.batch_size,
            bit_low=self.bit_low,
            bit_high=self.bit_high,
        )
        return outcome_from_result(result, ber_per_layer, topk)
