"""Layer- and network-level READ mapping plans.

Ties the pieces together:

* :class:`MappingStrategy` — baseline / reorder / cluster-then-reorder.
* :class:`LayerMappingPlan` — for one layer's ``(C_eff, K)`` weight
  matrix, the output-channel grouping and the per-group input-channel
  sequences, plus application helpers for weights and activations and the
  LUT cost.
* :func:`plan_network` — per-layer plans for a whole network with the
  cross-layer permutation bookkeeping of Section IV-D: the output-channel
  order chosen for layer *l* permutes the channel axis that layer *l+1*
  reads, so layer *l+1*'s plan is built on its accordingly-permuted weight
  matrix (the channel-permutation composition of ref. [24]).

Everything here is pure bookkeeping — no value ever changes, only the
order of MAC operations — which is the paper's compute-correctness
property and is enforced by the integration tests.
"""

from __future__ import annotations

import enum
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import (
    ConfigurationError,
    MappingError,
    MappingFallbackWarning,
    ShapeError,
    unknown_name_error,
)
from .clustering import BalancedSignClusterer, ClusteringResult, contiguous_clusters
from .lut import LutCostModel
from .reorder import ReorderResult, reorder_groups


class MappingStrategy(enum.Enum):
    """The three computation-sequence strategies compared in the paper."""

    BASELINE = "baseline"
    REORDER = "reorder"
    CLUSTER_THEN_REORDER = "cluster_then_reorder"

    @classmethod
    def from_name(cls, name: str) -> "MappingStrategy":
        for member in cls:
            if member.value == name or member.name.lower() == name.lower():
                return member
        raise unknown_name_error("strategy", name, [m.value for m in cls])


@dataclass(frozen=True)
class LayerMappingPlan:
    """The computation sequence for one layer on the accelerator.

    Attributes
    ----------
    strategy:
        Which READ variant produced the plan.
    groups:
        One :class:`ReorderResult` per output-channel group, in streaming
        order.  For the baseline the per-group order is the identity.
    n_input_channels / n_output_channels:
        Dimensions of the planned ``(C_eff, K)`` matrix.
    clustering:
        The clustering result when strategy is cluster-then-reorder.
    """

    strategy: MappingStrategy
    groups: List[ReorderResult]
    n_input_channels: int
    n_output_channels: int
    criteria: str = "sign_first"
    clustering: Optional[ClusteringResult] = None

    # -------------------------------------------------------------- #
    def output_channel_permutation(self) -> np.ndarray:
        """Order in which output channels are produced by the plan."""
        return np.concatenate([g.columns for g in self.groups])

    def input_orders(self) -> List[np.ndarray]:
        """Per-group input-channel sequences (the LUT contents)."""
        return [g.order for g in self.groups]

    def reordered_weights(self) -> List[np.ndarray]:
        """Per-group weight sub-matrices as streamed to the array."""
        return [g.weights for g in self.groups]

    def apply_to_activations(self, act_matrix: np.ndarray, group: int) -> np.ndarray:
        """Reorder an im2col activation matrix ``(pixels, C_eff)`` for a group."""
        act_matrix = np.asarray(act_matrix)
        if act_matrix.ndim != 2 or act_matrix.shape[1] != self.n_input_channels:
            raise ShapeError(
                f"activation matrix must be (pixels, {self.n_input_channels}), "
                f"got {act_matrix.shape}"
            )
        return act_matrix[:, self.groups[group].order]

    def lut_bytes(self, model: Optional[LutCostModel] = None) -> float:
        """Size of the activation address LUT supporting this plan."""
        model = model or LutCostModel()
        return model.lut_bytes(self.n_input_channels, n_clusters=len(self.groups))

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.strategy.value}: {self.n_input_channels}x{self.n_output_channels} "
            f"in {len(self.groups)} group(s) of "
            f"{self.groups[0].columns.size if self.groups else 0}"
        )


#: True while :func:`plans_diagnosed` is active.
_DIAGNOSED: ContextVar[bool] = ContextVar("repro_plans_diagnosed", default=False)


@contextmanager
def plans_diagnosed() -> Iterator[None]:
    """Skip :func:`check_clustering_request` inside: the caller already ran it.

    The engine's scheduler diagnoses every job when it is submitted and
    executes the jobs inside this context, so the planner does not repeat
    the diagnostic.  Unlike a ``warnings`` filter, it leaves the filters
    alone, and with them Python's record of the warnings already shown.
    """
    token = _DIAGNOSED.set(True)
    try:
        yield
    finally:
        _DIAGNOSED.reset(token)


def check_clustering_request(
    k: int,
    group_size: int,
    strategy: MappingStrategy,
    strict: bool = False,
    stacklevel: int = 2,
) -> None:
    """Diagnose a clustering request that would degrade to segmentation.

    Shared by :func:`plan_layer` and the simulation engine's scheduler
    (which must surface the diagnostic even when the planned result is
    recalled from the cache and no plan is built).  Emits a
    :class:`~repro.errors.MappingFallbackWarning`, or raises
    :class:`~repro.errors.MappingError` with ``strict=True``; a no-op for
    feasible requests, non-clustering strategies and inside
    :func:`plans_diagnosed`.
    """
    if strategy is not MappingStrategy.CLUSTER_THEN_REORDER or _DIAGNOSED.get():
        return
    if k % group_size == 0 and k > group_size:
        return
    reason = (
        f"K={k} is not divisible by group_size={group_size}"
        if k % group_size != 0
        else f"K={k} fits in a single group of {group_size}"
    )
    message = f"cluster_then_reorder cannot form balanced clusters ({reason})"
    if strict:
        raise MappingError(
            f"{message}; pass strict=False to fall back to contiguous segmentation"
        )
    warnings.warn(
        f"{message}; falling back to contiguous segmentation with per-group "
        "reordering (the plan is still labelled cluster_then_reorder)",
        MappingFallbackWarning,
        stacklevel=stacklevel,
    )


def plan_layer(
    weights: np.ndarray,
    group_size: int,
    strategy: MappingStrategy = MappingStrategy.CLUSTER_THEN_REORDER,
    criteria: str = "sign_first",
    cluster_iterations: int = 30,
    seed: int = 0,
    strict: bool = False,
) -> LayerMappingPlan:
    """Build the READ mapping plan for one layer.

    Parameters
    ----------
    weights:
        The layer's lowered weight matrix, shape ``(C_eff, K)`` with
        ``C_eff = C * Fx * Fy`` (Section IV's formulation assumes the 1x1
        case; larger kernels lower to the same GEMM).
    group_size:
        Output channels processed concurrently per array pass — the
        systolic-array column count ``Ac``, or the channels-per-cluster
        sweep value of Fig. 7.
    strategy / criteria:
        READ variant and Algorithm 1 sorting criteria.
    strict:
        A cluster-then-reorder request that cannot form balanced clusters
        (``K`` indivisible by ``group_size``, or a single group) degrades
        to contiguous segmentation + reorder.  By default this emits a
        :class:`~repro.errors.MappingFallbackWarning`; with
        ``strict=True`` it raises :class:`~repro.errors.MappingError`.
    """
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise ShapeError("plan_layer expects a 2-D (C_eff, K) weight matrix")
    if isinstance(strategy, str):
        strategy = MappingStrategy.from_name(strategy)
    c_eff, k = weights.shape
    clustering: Optional[ClusteringResult] = None

    check_clustering_request(k, group_size, strategy, strict=strict, stacklevel=3)
    if strategy is MappingStrategy.CLUSTER_THEN_REORDER and k % group_size == 0 and k > group_size:
        clusterer = BalancedSignClusterer(
            cluster_size=group_size, max_iterations=cluster_iterations, seed=seed
        )
        clustering = clusterer.fit(weights)
        groups_cols: Sequence[np.ndarray] = clustering.clusters
    else:
        # baseline/reorder by design; degraded clustering was diagnosed above.
        groups_cols = contiguous_clusters(k, group_size)

    if strategy is MappingStrategy.BASELINE:
        groups = []
        for cols in groups_cols:
            cols = np.asarray(cols)
            groups.append(
                ReorderResult(
                    columns=cols,
                    order=np.arange(c_eff),
                    weights=weights[:, cols],
                )
            )
    else:
        groups = reorder_groups(weights, groups_cols, criteria=criteria)

    return LayerMappingPlan(
        strategy=strategy,
        groups=groups,
        n_input_channels=c_eff,
        n_output_channels=k,
        criteria=criteria,
        clustering=clustering,
    )


@dataclass(frozen=True)
class NetworkMappingPlan:
    """Per-layer plans plus the cross-layer permutation bookkeeping.

    ``incoming_permutations[name]`` records the output-channel order of
    the producing layer — i.e. the permutation along which layer ``name``
    reads its input channel axis from memory (Section IV-D).  The first
    layer reads the unpermuted input image.
    """

    layers: Dict[str, LayerMappingPlan]
    incoming_permutations: Dict[str, np.ndarray]

    def total_lut_bytes(self, model: Optional[LutCostModel] = None) -> float:
        """Sum of activation-LUT storage across all layers."""
        return sum(plan.lut_bytes(model) for plan in self.layers.values())


def plan_network(
    layer_weights: Dict[str, np.ndarray],
    group_size: int,
    strategy: MappingStrategy = MappingStrategy.CLUSTER_THEN_REORDER,
    criteria: str = "sign_first",
    kernel_areas: Optional[Dict[str, int]] = None,
    propagate: bool = True,
    seed: int = 0,
    strict: bool = False,
) -> NetworkMappingPlan:
    """Plan every layer of a sequential network with permutation propagation.

    Parameters
    ----------
    layer_weights:
        Ordered mapping layer-name -> lowered ``(C_eff, K)`` weight
        matrix, in execution order (dict insertion order is used).
    kernel_areas:
        Per-layer ``Fx * Fy`` so the previous layer's K-permutation can be
        expanded along the current layer's lowered C axis (each previous
        output channel contributes ``Fx*Fy`` consecutive rows).  Defaults
        to 1 for every layer (1x1 lowering).
    propagate:
        Apply each layer's output-channel permutation to the next layer's
        input rows before planning it (the paper's scheme).  With False,
        layers are planned independently and activations must instead be
        physically re-permuted between layers.
    strict:
        Forwarded to :func:`plan_layer`: raise instead of warning when a
        clustering request degrades to contiguous segmentation.
    """
    if isinstance(strategy, str):
        strategy = MappingStrategy.from_name(strategy)
    kernel_areas = kernel_areas or {}
    plans: Dict[str, LayerMappingPlan] = {}
    incoming: Dict[str, np.ndarray] = {}
    prev_out_perm: Optional[np.ndarray] = None

    for name, weights in layer_weights.items():
        weights = np.asarray(weights)
        area = int(kernel_areas.get(name, 1))
        c_eff = weights.shape[0]
        if c_eff % area != 0:
            raise ConfigurationError(
                f"layer {name}: C_eff={c_eff} not divisible by kernel area {area}"
            )
        c_channels = c_eff // area

        if propagate and prev_out_perm is not None and prev_out_perm.size == c_channels:
            # expand the previous layer's K-permutation along this layer's
            # lowered C axis: channel c owns rows [c*area, (c+1)*area).
            row_perm = (
                prev_out_perm[:, None] * area + np.arange(area)[None, :]
            ).reshape(-1)
            weights = weights[row_perm]
            incoming[name] = prev_out_perm
        else:
            incoming[name] = np.arange(c_channels)

        plan = plan_layer(
            weights,
            group_size=group_size,
            strategy=strategy,
            criteria=criteria,
            seed=seed,
            strict=strict,
        )
        plans[name] = plan
        prev_out_perm = plan.output_channel_permutation()

    return NetworkMappingPlan(layers=plans, incoming_permutations=incoming)
