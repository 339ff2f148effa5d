"""Dynamic timing analysis (DTA) of MAC operand streams.

This is the reproduction's stand-in for AVATAR [Zhang et al., DAC'22], the
aging- and variation-aware dynamic timing analyzer the paper uses to
evaluate TER (Section V-A).  Given the *actual* operand stream a MAC unit
executes, the DTA:

1. computes every cycle's triggered-path delay with the structural
   surrogate (:mod:`repro.hw.timing`) from the measured carry activity;
2. applies a PVTA corner's per-cycle Gaussian delay derate
   (:mod:`repro.hw.variations`);
3. reports the probability that each cycle misses the clock, and the
   aggregate **timing error rate** ``TER = E[errors] / cycles``.

Two evaluation modes are provided:

* **analytic** (default) — the per-cycle error probability is computed in
  closed form, ``p = P(derate > clock / delay)``; the TER is then exact
  with respect to the derate model and free of sampling noise.  This is
  what the figures use.
* **sampling** — derates are drawn per cycle and errors materialize as
  booleans; used by tests and by fault-injection cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .mac import MacConfig, MacTrace, MacUnit
from .timing import DelayModel, StaticTimingAnalyzer
from .variations import (
    IDEAL,
    PvtaCondition,
    error_probability_matrix,
    gaussian_survival,
)

#: Backwards-compatible alias; the implementation lives in
#: :func:`repro.hw.variations.gaussian_survival` so the backends' pricing
#: and the per-cycle DTA share one definition.
_gaussian_sf = gaussian_survival


def histogram_expected_errors(
    delay_bins: np.ndarray,
    n_spans: int,
    delay_model: DelayModel,
    corners,
    clock_ps: float,
) -> np.ndarray:
    """Expected error count at each corner from a packed delay histogram.

    Both simulation backends reduce a job to
    ``delay_bins[mult_bits * n_spans + span] = cycle count``: the
    triggered delay — and hence the per-corner error probability — is a
    function of the bin, so the expected number of violating cycles is a
    probability-weighted count sum over the occupied bins.  Delays come
    from :meth:`DelayModel.bin_delays_ps` and probabilities from
    :func:`repro.hw.variations.error_probability_matrix`, so each corner
    prices a bin with the exact float expression of
    :meth:`DynamicTimingAnalyzer.error_probabilities` — the only
    difference from the per-cycle path is float summation order.

    Returns one expected-error sum per corner, aligned with ``corners``.

    The contraction is one elementwise multiply plus pairwise ``np.sum``
    per corner rather than a matrix product or a BLAS dot: GEMM results
    depend on the matrix shape and ``ddot`` on buffer alignment (its
    SIMD prologue peels a different head per 64-byte offset), while
    numpy's pairwise reduction runs in fixed index order — identical
    values give an identical sum no matter how many corners (or, through
    :func:`histogram_expected_errors_many`, how many jobs) share the
    call.  This is the fused-corner/fused-network bit-equality contract
    pinned by ``tests/test_backend_conformance.py``.
    """
    return histogram_expected_errors_many(
        [delay_bins], n_spans, delay_model, [corners], clock_ps
    )[0]


def histogram_expected_errors_many(
    delay_bins_list,
    n_spans: int,
    delay_model: DelayModel,
    corners_list,
    clock_ps: float,
):
    """Price many delay histograms against one shared probability grid.

    Fused-pricing core of the ``vector`` backend's whole-network path:
    the union of every job's occupied bins is priced once per distinct
    corner (``bin_delays_ps`` and the probability rows are elementwise,
    so a union row restricted to one job's bins carries the exact floats
    a solo :func:`histogram_expected_errors` call would compute), and
    each job then contracts its own counts against its gathered row
    subset with the same alignment-independent multiply-sum.  Results
    are therefore bit-identical to pricing each ``(histogram, corners)``
    pair alone.

    Returns one per-corner expected-error vector per job, aligned with
    ``delay_bins_list`` / ``corners_list``.
    """
    occupied = [np.nonzero(np.asarray(bins))[0] for bins in delay_bins_list]
    if not occupied:
        return []
    solo = len(occupied) == 1
    union = occupied[0] if solo else np.unique(np.concatenate(occupied))
    delays = delay_model.bin_delays_ps(union, n_spans)
    row_of: dict = {}
    unique_corners: list = []
    for corners in corners_list:
        for corner in corners:
            if corner not in row_of:
                row_of[corner] = len(unique_corners)
                unique_corners.append(corner)
    rows = error_probability_matrix(delays, unique_corners, clock_ps)
    out = []
    for occ, bins, corners in zip(occupied, delay_bins_list, corners_list):
        counts = np.asarray(bins)[occ].astype(np.float64)
        # Row slices are stride-1 either way: a C-contiguous row view
        # when solo, a fresh contiguous gather otherwise.
        sub = rows if solo else rows[:, np.searchsorted(union, occ)]
        sums = np.empty(len(corners), dtype=np.float64)
        for i, corner in enumerate(corners):
            # Not np.dot: BLAS ddot peels by buffer alignment, so equal
            # values can sum differently between a solo and a fused call.
            sums[i] = np.sum(sub[row_of[corner]] * counts)
        out.append(sums)
    return out


@dataclass(frozen=True)
class TimingAnalysisResult:
    """Aggregate outcome of a DTA run over one operand stream.

    Attributes
    ----------
    ter:
        Timing error rate — expected fraction of cycles that violate
        timing at the analyzed corner.
    sign_flip_rate:
        Fraction of cycles that flipped the PSUM sign bit (the paper's
        critical-pattern proxy; Fig. 2 plots this against TER).
    n_cycles:
        Number of MAC cycles analyzed.
    error_prob:
        Per-cycle error probabilities, same shape as the trace cycles.
    mean_chain_length:
        Average triggered carry-chain length (diagnostic).
    clock_ps:
        Clock period the delays were compared against.
    corner:
        The PVTA condition analyzed.
    """

    ter: float
    sign_flip_rate: float
    n_cycles: int
    error_prob: np.ndarray = field(repr=False)
    mean_chain_length: float = 0.0
    clock_ps: float = 0.0
    corner: PvtaCondition = IDEAL

    @property
    def expected_errors(self) -> float:
        """Expected number of timing-violating cycles in the stream."""
        return self.ter * self.n_cycles


class DynamicTimingAnalyzer:
    """Evaluate TER of MAC operand streams under a PVTA corner.

    Parameters
    ----------
    mac_config:
        Datapath bit widths; the clock period is derived from these via STA.
    delay_model / sta:
        Override the delay surrogate or the STA margin.  By default a
        single STA run at construction fixes ``clock_ps`` for the lifetime
        of the analyzer, mirroring a taped-out design.
    """

    def __init__(
        self,
        mac_config: MacConfig | None = None,
        delay_model: DelayModel | None = None,
        sta: StaticTimingAnalyzer | None = None,
    ) -> None:
        self.mac_config = mac_config or MacConfig()
        self.delay_model = delay_model or DelayModel()
        self.sta = sta or StaticTimingAnalyzer(delay_model=self.delay_model)
        if sta is not None and delay_model is not None and sta.delay_model is not delay_model:
            raise ConfigurationError("sta and delay_model disagree; pass one or the other")
        self.clock_ps = self.sta.nominal_clock_ps(self.mac_config)
        self._mac = MacUnit(self.mac_config)

    # ------------------------------------------------------------------ #
    # Core analysis
    # ------------------------------------------------------------------ #
    def error_probabilities(
        self, trace: MacTrace, corner: PvtaCondition
    ) -> np.ndarray:
        """Closed-form per-cycle timing-error probability at ``corner``.

        A cycle with triggered delay ``d`` fails iff its sampled derate
        exceeds ``clock / d``; with ``derate ~ N(mu, sigma)`` this is the
        Gaussian survival function evaluated at ``(clock/d - mu) / sigma``.
        """
        delays = self.delay_model.cycle_delays(trace)
        sigma = corner.sigma_derate
        if sigma <= 0:
            return (delays * corner.mean_derate > self.clock_ps).astype(np.float64)
        z = (self.clock_ps / delays - corner.mean_derate) / sigma
        return _gaussian_sf(z)

    def analyze_trace(
        self, trace: MacTrace, corner: PvtaCondition
    ) -> TimingAnalysisResult:
        """Analytic TER of an already-executed :class:`MacTrace`."""
        probs = self.error_probabilities(trace, corner)
        return TimingAnalysisResult(
            ter=float(probs.mean()),
            sign_flip_rate=trace.sign_flip_rate(),
            n_cycles=int(np.prod(trace.sign_flips.shape)),
            error_prob=probs,
            mean_chain_length=float(trace.chain_lengths.mean()),
            clock_ps=self.clock_ps,
            corner=corner,
        )

    def analyze(
        self, acts: np.ndarray, weights: np.ndarray, corner: PvtaCondition
    ) -> TimingAnalysisResult:
        """Run the MAC on operand streams and analyze the resulting trace.

        ``acts`` and ``weights`` have shape ``(..., n_cycles)``; leading
        axes are independent accumulations (PEs).
        """
        trace = self._mac.run(acts, weights, validate=False)
        return self.analyze_trace(trace, corner)

    # ------------------------------------------------------------------ #
    # Sampling mode
    # ------------------------------------------------------------------ #
    def sample_errors(
        self,
        trace: MacTrace,
        corner: PvtaCondition,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Materialize timing errors by sampling per-cycle derates.

        Returns a boolean array with the trace's cycle shape.  The mean of
        many samples converges to :meth:`error_probabilities` — checked by
        the test suite.
        """
        delays = self.delay_model.cycle_delays(trace)
        derates = corner.sample_derates(delays.shape, rng)
        return delays * derates > self.clock_ps
