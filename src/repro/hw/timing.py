"""Structural delay surrogate and static timing analysis for the MAC.

The authors synthesize the MAC with Synopsys Design Compiler on the
Nangate 15 nm library and fix the nominal frequency with PrimeTime STA
(Section V-A).  We replace the netlist with a *structural delay surrogate*
that preserves what matters for READ:

``delay(cycle) = launch + mult_per_bit * (act_bits + weight_bits)
               + settle_per_bit * toggle_span``

* The multiplier term models the active partial-product depth of an array
  multiplier, which grows with the operands' significant bits.
* The settle term models the accumulator: a synthesized 24-bit adder is a
  parallel-prefix structure whose bit-*i* output cone spans all lower
  propagate/generate signals, so the triggered path length scales with
  the highest output bit that has to resettle — the per-cycle *measured*
  ``toggle_span`` from :mod:`repro.hw.carry`.  A PSUM sign flip toggles
  the full sign region (span = 24), so exactly the paper's critical input
  patterns approach the static worst case; non-flip cycles settle within
  the product magnitude (span <= ~16 for 8x8 products) except for the
  occasional deep ripple across a power-of-two boundary — which is why
  the paper's Fig. 2 correlation is strong but not perfect.

:class:`StaticTimingAnalyzer` plays PrimeTime's role: it reports the
worst-case path delay over the whole input space (which the surrogate
gives in closed form) and derives the nominal clock period, with a small
design margin representing STA pessimism vs. typical silicon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .mac import MacConfig, MacTrace


@dataclass(frozen=True)
class DelayModel:
    """Coefficients of the structural delay surrogate (picoseconds).

    Defaults are loosely calibrated to a 15 nm standard-cell MAC: a
    ~0.5 ns critical path, of which the accumulator carry chain is the
    dominant component — matching the paper's observation that the
    critical paths live in the accumulator.
    """

    launch_ps: float = 150.0
    mult_per_bit_ps: float = 1.0
    settle_per_bit_ps: float = 12.0

    def __post_init__(self) -> None:
        if min(self.launch_ps, self.mult_per_bit_ps, self.settle_per_bit_ps) < 0:
            raise ConfigurationError("delay coefficients must be non-negative")

    def cycle_delays(self, trace: MacTrace) -> np.ndarray:
        """Triggered-path delay of every cycle in a :class:`MacTrace` (ps)."""
        mult_bits = trace.act_bits + trace.weight_bits
        return (
            self.launch_ps
            + self.mult_per_bit_ps * mult_bits.astype(np.float64)
            + self.settle_per_bit_ps * trace.toggle_spans.astype(np.float64)
        )

    def bin_delays_ps(self, bins: np.ndarray, n_spans: int) -> np.ndarray:
        """Triggered-path delay of packed ``(mult_bits, toggle_span)`` bins.

        The simulation backends collapse a whole job into a histogram over
        ``bin = mult_bits * n_spans + toggle_span``; this evaluates the
        surrogate once per *occupied bin* instead of once per cycle.  The
        float expression matches :meth:`cycle_delays` term for term, so a
        bin's delay is bit-identical to the per-cycle delay of any cycle
        it counts.
        """
        bins = np.asarray(bins)
        return (
            self.launch_ps
            + self.mult_per_bit_ps * (bins // n_spans).astype(np.float64)
            + self.settle_per_bit_ps * (bins % n_spans).astype(np.float64)
        )

    def max_delay_ps(self, config: MacConfig) -> float:
        """Worst structural path: full multiplier depth + full-span settle."""
        mult_bits = config.act_width + config.weight_width
        return (
            self.launch_ps
            + self.mult_per_bit_ps * mult_bits
            + self.settle_per_bit_ps * config.psum_width
        )


@dataclass(frozen=True)
class StaticTimingAnalyzer:
    """Derive the nominal clock period from the delay surrogate.

    ``margin`` is the fractional slack between the STA worst case and the
    chosen clock period (STA corners are pessimistic relative to typical
    silicon; a few percent is standard).  At the *Ideal* corner this margin
    makes timing errors vanishingly rare, matching the paper's error-free
    nominal operation.
    """

    delay_model: DelayModel = DelayModel()
    margin: float = 0.11

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ConfigurationError("STA margin must be non-negative")

    def nominal_clock_ps(self, config: MacConfig) -> float:
        """Clock period = worst-case structural delay * (1 + margin)."""
        return self.delay_model.max_delay_ps(config) * (1.0 + self.margin)

    def nominal_frequency_ghz(self, config: MacConfig) -> float:
        """Convenience: nominal frequency implied by the clock period."""
        return 1000.0 / self.nominal_clock_ps(config)

    def slack_ps(self, trace: MacTrace, config: MacConfig) -> np.ndarray:
        """Per-cycle slack at the nominal corner (positive = meets timing)."""
        return self.nominal_clock_ps(config) - self.delay_model.cycle_delays(trace)
