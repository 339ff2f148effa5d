"""Process/voltage/temperature/aging (PVTA) variation models.

The paper evaluates TER with Liberty-Variation-Format (LVF) libraries
generated by Siliconsmart at nominal, 3 % and 5 % voltage/temperature
fluctuation, plus an NBTI aging model for 10-year stress (Section V-A).
Those commercial models are unavailable, so this module provides the
standard analytic equivalents used throughout the variability literature:

* **VT fluctuation** — a multiplicative path-delay derate whose mean grows
  with the fluctuation amplitude (slower silicon at low V / high T) and
  whose per-cycle standard deviation models the LVF local/dynamic spread.
* **NBTI aging** — the classic power law ``dD/D = a * t^n`` (t in years,
  n around 0.2-0.3 for FinFET NBTI [Guo ICCAD'17]), a deterministic mean
  shift plus a small stochastic component for workload-dependent stress.

A :class:`PvtaCondition` composes the two into a per-cycle derate
distribution ``derate ~ Normal(mean, sigma)`` that the dynamic timing
analyzer applies to every triggered path.  The six evaluation corners of
Figs. 10-11 are provided as module constants.

Calibration: coefficients are chosen so the baseline (un-reordered)
accelerator lands in the paper's TER window (1e-6 .. 1e-4 at the
aged + VT-5 % corner) — see ``benchmarks/test_bench_fig8.py`` for the
measured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, unknown_name_error


def gaussian_survival(z: np.ndarray) -> np.ndarray:
    """Standard normal survival function, vectorized and overflow-safe.

    Shared by the per-cycle DTA (:mod:`repro.hw.dta`) and the backends'
    histogram pricing, so every path prices a Gaussian corner with
    bit-identical float math.  ``scipy`` is imported here, on first
    use, so a run served from the result cache never loads it.
    """
    from scipy.special import erfc

    return 0.5 * erfc(z / np.sqrt(2.0))


def error_probability_matrix(
    delays_ps: np.ndarray, corners: Sequence["PvtaCondition"], clock_ps: float
) -> np.ndarray:
    """Per-corner timing-error probability of each triggered delay.

    The broadcast core of the backends' pricing: given ``n`` distinct
    triggered-path delays (picoseconds) and ``m`` PVTA corners, return the
    ``(m, n)`` matrix ``P[i, j] = P(delay j misses the clock at corner
    i)``.  A cycle with delay ``d`` fails iff its sampled derate exceeds
    ``clock / d``; Gaussian corners evaluate through
    :func:`gaussian_survival` in one call over the whole grid, and
    degenerate ``sigma <= 0`` corners use the deterministic threshold —
    both matching :meth:`DynamicTimingAnalyzer.error_probabilities`
    exactly.
    """
    delays_ps = np.asarray(delays_ps, dtype=np.float64)
    probs = np.empty((len(corners), delays_ps.size), dtype=np.float64)
    inv = clock_ps / delays_ps
    gaussian = [i for i, corner in enumerate(corners) if corner.sigma_derate > 0]
    degenerate = [i for i, corner in enumerate(corners) if corner.sigma_derate <= 0]
    if degenerate:
        means = np.array([corners[i].mean_derate for i in degenerate])
        probs[degenerate] = (
            delays_ps[None, :] * means[:, None] > clock_ps
        ).astype(np.float64)
    if gaussian:
        means = np.array([corners[i].mean_derate for i in gaussian])
        sigmas = np.array([corners[i].sigma_derate for i in gaussian])
        z = (inv[None, :] - means[:, None]) / sigmas[:, None]
        probs[gaussian] = gaussian_survival(z)
    return probs


@dataclass(frozen=True)
class VoltageTemperatureModel:
    """Mean/sigma delay derate as a function of VT fluctuation amplitude.

    ``mean_per_percent`` is the fractional mean-delay increase per percent
    of combined voltage/temperature fluctuation; ``sigma_floor`` and
    ``sigma_per_percent`` set the per-cycle spread (LVF-like local and
    dynamic variation).
    """

    mean_per_percent: float = 0.005
    sigma_floor: float = 0.005
    sigma_per_percent: float = 0.0036

    def mean_shift(self, vt_percent: float) -> float:
        """Fractional mean delay increase at the given fluctuation level."""
        if vt_percent < 0:
            raise ConfigurationError("vt_percent must be non-negative")
        return self.mean_per_percent * vt_percent

    def sigma(self, vt_percent: float) -> float:
        """Per-cycle derate standard deviation at the given level."""
        if vt_percent < 0:
            raise ConfigurationError("vt_percent must be non-negative")
        return self.sigma_floor + self.sigma_per_percent * vt_percent


@dataclass(frozen=True)
class NbtiAgingModel:
    """NBTI-dominated aging as a delay power law ``dD/D = a * t^n``.

    NBTI dominates transistor aging in digital logic (paper Section V-A,
    ref [27]); the fractional delay degradation over ``t`` years follows a
    saturating power law.  Defaults give ~3 % mean degradation at 10
    years, typical for nanometer FinFET at nominal stress, plus a
    workload/local-variation spread.
    """

    coefficient: float = 0.0225
    exponent: float = 0.25
    sigma_at_10y: float = 0.020

    def mean_shift(self, years: float) -> float:
        """Fractional mean delay increase after ``years`` of stress."""
        if years < 0:
            raise ConfigurationError("aging years must be non-negative")
        if years == 0:
            return 0.0
        return self.coefficient * years**self.exponent

    def sigma(self, years: float) -> float:
        """Workload-dependent spread of the aging shift (scales as t^n)."""
        if years <= 0:
            return 0.0
        return self.sigma_at_10y * (years / 10.0) ** self.exponent


@dataclass(frozen=True)
class PvtaCondition:
    """A named PVTA operating corner.

    The composed per-cycle path-delay derate is Gaussian:
    ``mean = 1 + VT shift + aging shift``, variances add.
    """

    name: str
    vt_percent: float = 0.0
    aging_years: float = 0.0
    vt_model: VoltageTemperatureModel = VoltageTemperatureModel()
    aging_model: NbtiAgingModel = NbtiAgingModel()

    @property
    def mean_derate(self) -> float:
        """Mean multiplicative path-delay derate (>= 1)."""
        return (
            1.0
            + self.vt_model.mean_shift(self.vt_percent)
            + self.aging_model.mean_shift(self.aging_years)
        )

    @property
    def sigma_derate(self) -> float:
        """Per-cycle derate standard deviation (independent sources add in quadrature)."""
        sv = self.vt_model.sigma(self.vt_percent)
        sa = self.aging_model.sigma(self.aging_years)
        return float(np.hypot(sv, sa))

    def sample_derates(self, shape, rng: np.random.Generator) -> np.ndarray:
        """Draw per-cycle derate samples (used by the sampling-mode DTA)."""
        return rng.normal(self.mean_derate, self.sigma_derate, size=shape)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: The six evaluation corners of Figs. 10-11.
IDEAL = PvtaCondition("Ideal")
VT_3 = PvtaCondition("VT-3%", vt_percent=3.0)
VT_5 = PvtaCondition("VT-5%", vt_percent=5.0)
AGING_10Y = PvtaCondition("Aging-10y", aging_years=10.0)
AGING_VT_3 = PvtaCondition("Aging&VT-3%", vt_percent=3.0, aging_years=10.0)
AGING_VT_5 = PvtaCondition("Aging&VT-5%", vt_percent=5.0, aging_years=10.0)

#: Order used on the x-axes of Figs. 10 and 11.
PAPER_CORNERS = (IDEAL, VT_3, VT_5, AGING_10Y, AGING_VT_3, AGING_VT_5)

#: The corner used for the TER studies of Figs. 7 and 8
#: ("10-year aging and 5 % voltage and temperature fluctuation").
TER_EVAL_CORNER = AGING_VT_5


def corner_by_name(name: str) -> PvtaCondition:
    """Look up one of the paper corners by its display name.

    Matching is case-insensitive (``"aging&vt-5%"`` works); the error on
    a failed lookup lists the valid names in the same format as
    :meth:`~repro.core.pipeline.MappingStrategy.from_name` and
    :meth:`~repro.arch.config.Dataflow.from_name`.
    """
    for corner in PAPER_CORNERS:
        if corner.name.lower() == str(name).lower():
            return corner
    raise unknown_name_error("corner", name, [c.name for c in PAPER_CORNERS])
