"""Hardware substrate: bit-accurate MAC datapath, timing and PVTA models.

This package replaces the paper's EDA flow (Design Compiler synthesis,
PrimeTime STA, Siliconsmart LVF libraries and the AVATAR dynamic timing
analyzer) with behavioural models that preserve the mechanism READ
exploits: partial-sum sign flips exciting the accumulator carry chain,
i.e. the *critical input patterns* of Section III.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "carry": (
            "AdditionTrace",
            "accumulation_chain_lengths",
            "add_trace",
            "highest_set_bit",
            "longest_one_run",
        ),
        "dta": (
            "DynamicTimingAnalyzer",
            "TimingAnalysisResult",
        ),
        "fixedpoint": (
            "ACT_WIDTH",
            "PRODUCT_WIDTH",
            "PSUM_WIDTH",
            "WEIGHT_WIDTH",
            "flip_bits",
            "from_field",
            "saturate",
            "significant_bits",
            "to_field",
            "wrap",
        ),
        "mac": (
            "MacConfig",
            "MacTrace",
            "MacUnit",
        ),
        "razor": (
            "RazorConfig",
            "SpeculationOutcome",
            "TimingSpeculationModel",
        ),
        "timing": (
            "DelayModel",
            "StaticTimingAnalyzer",
        ),
        "variations": (
            "AGING_10Y",
            "AGING_VT_3",
            "AGING_VT_5",
            "IDEAL",
            "PAPER_CORNERS",
            "TER_EVAL_CORNER",
            "VT_3",
            "VT_5",
            "NbtiAgingModel",
            "PvtaCondition",
            "VoltageTemperatureModel",
            "corner_by_name",
        ),
    },
)
