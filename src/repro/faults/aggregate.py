"""Online statistical aggregation for sharded injection campaigns.

A production-scale campaign (10^5-10^6 trials) cannot keep per-trial
records in one process, and must be able to stop a (strategy x corner)
cell as soon as its accuracy estimate is good enough.  This module is the
statistics layer behind ``read-repro campaign``:

* :class:`RunningStats` — Welford's online mean/variance with Chan's
  parallel merge, for streaming float observations.
* :func:`wilson_interval` — the Wilson score confidence interval for a
  binomial proportion (robust near 0/1 where the normal interval
  collapses; every per-image classification outcome is a Bernoulli
  draw).
* :class:`CellAggregate` — the per-cell summary merged across shards.
  Trial outcomes are *exact integer counts* (``InjectionResult`` v4
  carries per-trial correct counts), so shard summaries merge in the
  integer domain: the merged aggregate is bit-identical for **any**
  partition of the trial range and any merge order — the property the
  resumable campaign's determinism rests on.  (A float Welford merge
  would re-round differently per partition; it is kept for streaming
  diagnostics, not for campaign state.)
* :func:`stop_reason` / :func:`decide` — the sequential stopping rule
  and the decision it protects: a cell stops once its Wilson interval
  separates from the fault-free baseline (the comparison is already
  decided) or shrinks to the configured width while overlapping it
  (indistinguishable at the resolution asked for).

The statistical-correctness suite (``tests/test_aggregate.py``,
``tests/test_campaign.py``) checks these against closed-form references,
nominal coverage over simulated campaigns, and early-stop soundness on
drawn Bernoulli grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .injection_job import InjectionResult

#: z-score of the default 95% two-sided interval.
DEFAULT_Z = 1.959963984540054


# ---------------------------------------------------------------------- #
# Welford / Chan streaming moments
# ---------------------------------------------------------------------- #
@dataclass
class RunningStats:
    """Online mean/variance (Welford), mergeable (Chan et al.).

    ``push`` folds one observation in O(1) without storing the stream;
    ``merge`` combines two partial summaries exactly as if their streams
    had been concatenated (up to float rounding, which is why campaign
    *state* uses the integer-domain :class:`CellAggregate` instead).
    """

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def push(self, x: float) -> "RunningStats":
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)
        return self

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Summary of the concatenated streams (Chan's parallel update)."""
        if other.n == 0:
            return RunningStats(self.n, self.mean, self.m2)
        if self.n == 0:
            return RunningStats(other.n, other.mean, other.m2)
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * other.n / n
        m2 = self.m2 + other.m2 + delta * delta * self.n * other.n / n
        return RunningStats(n, mean, m2)

    def variance(self, ddof: int = 1) -> float:
        if self.n <= ddof:
            return float("nan")
        return self.m2 / (self.n - ddof)

    def std(self, ddof: int = 1) -> float:
        return math.sqrt(self.variance(ddof))


# ---------------------------------------------------------------------- #
# Wilson score interval
# ---------------------------------------------------------------------- #
def wilson_interval(successes: int, n: int, z: float = DEFAULT_Z) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Unlike the Wald interval it never degenerates at ``k = 0`` / ``k = n``
    and keeps near-nominal coverage at campaign-relevant sample sizes
    (checked empirically in ``tests/test_aggregate.py``).
    """
    if n < 1:
        raise ConfigurationError(f"wilson_interval needs n >= 1, got {n}")
    if not 0 <= successes <= n:
        raise ConfigurationError(f"successes {successes} outside [0, {n}]")
    if z <= 0:
        raise ConfigurationError(f"z must be > 0, got {z}")
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def interval_width(ci: Tuple[float, float]) -> float:
    return ci[1] - ci[0]


def intervals_separated(a: Tuple[float, float], b: Tuple[float, float]) -> bool:
    """True when the two closed intervals are disjoint."""
    return a[1] < b[0] or a[0] > b[1]


# ---------------------------------------------------------------------- #
# Per-cell exact aggregation
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CellAggregate:
    """Summary of one (strategy x corner) cell, exact under shard merges.

    All state is integer: total correct classifications, the sum of
    squared per-trial correct counts (for the trial-level variance), the
    trial count and flips.  Integer addition is associative and exact,
    so ``merge`` produces bit-identical aggregates for any partition of
    the trial range into shards and any merge order — and every derived
    float (mean, std, Wilson bounds) is computed once from the same
    integers, so it is deterministic too.
    """

    n_images: int          # images evaluated per trial
    n_trials: int          # trials folded in
    correct: int           # total correct over all (trial, image) pairs
    correct_sq: int        # sum over trials of (per-trial correct)^2
    flips: int = 0         # total injected bit flips

    def __post_init__(self) -> None:
        if self.n_images < 1:
            raise ConfigurationError("n_images must be >= 1")
        if self.n_trials < 1:
            raise ConfigurationError("n_trials must be >= 1")
        if not 0 <= self.correct <= self.n_trials * self.n_images:
            raise ConfigurationError(
                f"correct {self.correct} outside [0, {self.n_trials * self.n_images}]"
            )

    @classmethod
    def from_result(cls, result: "InjectionResult") -> "CellAggregate":
        """Fold one shard's :class:`InjectionResult` (v4 carries counts)."""
        counts = result.trial_correct
        if not counts or result.n_images < 1:
            raise ConfigurationError(
                "InjectionResult carries no per-trial counts (pre-v4 payload?)"
            )
        return cls(
            n_images=result.n_images,
            n_trials=len(counts),
            correct=int(sum(counts)),
            correct_sq=int(sum(c * c for c in counts)),
            flips=result.flips_injected,
        )

    def merge(self, other: "CellAggregate") -> "CellAggregate":
        """Exact (integer-domain) merge of two shard summaries."""
        if self.n_images != other.n_images:
            raise ConfigurationError(
                f"cannot merge aggregates over {self.n_images} vs "
                f"{other.n_images} images per trial"
            )
        return CellAggregate(
            n_images=self.n_images,
            n_trials=self.n_trials + other.n_trials,
            correct=self.correct + other.correct,
            correct_sq=self.correct_sq + other.correct_sq,
            flips=self.flips + other.flips,
        )

    # -------------------------------------------------------------- #
    @property
    def n_samples(self) -> int:
        """Pooled Bernoulli sample count: every (trial, image) outcome."""
        return self.n_trials * self.n_images

    @property
    def mean_accuracy(self) -> float:
        return self.correct / self.n_samples

    def trial_std(self, ddof: int = 1) -> float:
        """Std of the per-trial accuracies, from the exact integer sums."""
        if self.n_trials <= ddof:
            return float("nan")
        # sum (c_t - c̄)^2 = sum c_t^2 - (sum c_t)^2 / T, in counts²
        ss = self.correct_sq - self.correct * self.correct / self.n_trials
        return math.sqrt(max(0.0, ss) / (self.n_trials - ddof)) / self.n_images

    def wilson_ci(self, z: float = DEFAULT_Z) -> Tuple[float, float]:
        return wilson_interval(self.correct, self.n_samples, z=z)


# ---------------------------------------------------------------------- #
# Sequential stopping rule
# ---------------------------------------------------------------------- #
#: Stop reasons a cell can carry in a campaign manifest.
STOP_REASONS = ("separated", "converged", "budget", "fault-free")


#: Default target Wilson-interval width for the "converged" stop.
DEFAULT_CI_WIDTH = 0.05


def stop_reason(
    cell_ci: Tuple[float, float],
    baseline_ci: Tuple[float, float],
    ci_width: float,
) -> Optional[str]:
    """Why (if at all) a cell may stop sampling now.

    * ``"separated"`` — the cell's interval is disjoint from the
      fault-free baseline's: the qualitative comparison (degraded /
      elevated) is already decided, more trials cannot change it at this
      confidence level.
    * ``"converged"`` — the interval still overlaps the baseline but has
      shrunk to ``ci_width``: the cell is indistinguishable from the
      baseline at the resolution the campaign asked for.
    * ``None`` — keep sampling.
    """
    if intervals_separated(cell_ci, baseline_ci):
        return "separated"
    if interval_width(cell_ci) <= ci_width:
        return "converged"
    return None


def decide(cell_ci: Tuple[float, float], baseline_ci: Tuple[float, float]) -> str:
    """The qualitative decision a campaign reports per cell.

    ``"degraded"``/``"elevated"`` when the cell interval lies entirely
    below/above the baseline interval, ``"indistinguishable"`` otherwise.
    The early-stop soundness suite checks that stopping early never flips
    this relative to a full-budget run on decidable grids.
    """
    if cell_ci[1] < baseline_ci[0]:
        return "degraded"
    if cell_ci[0] > baseline_ci[1]:
        return "elevated"
    return "indistinguishable"


def merge_all(aggregates: Sequence[CellAggregate]) -> CellAggregate:
    """Left fold of :meth:`CellAggregate.merge` (exact in any order)."""
    if not aggregates:
        raise ConfigurationError("merge_all needs at least one aggregate")
    total = aggregates[0]
    for agg in aggregates[1:]:
        total = total.merge(agg)
    return total
