"""Fault framework: Eq. 1 BER math, bit flips, accuracy eval, baselines."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "aggregate": (
            "DEFAULT_Z",
            "STOP_REASONS",
            "CellAggregate",
            "RunningStats",
            "decide",
            "interval_width",
            "intervals_separated",
            "merge_all",
            "stop_reason",
            "wilson_interval",
        ),
        "abft": (
            "AbftReport",
            "check_and_correct",
            "encode_operands",
            "overhead_macs",
            "protected_gemm",
        ),
        "ber": (
            "ber_from_ter",
            "ter_from_ber",
        ),
        "evaluate": (
            "FaultInjectionEvaluator",
            "InjectionOutcome",
            "bers_from_layer_ters",
            "evaluate_bundle_under_injection",
            "injection_job_for_bundle",
            "outcome_from_result",
        ),
        "injection": (
            "BitFlipInjector",
            "active_msb_from_max",
            "layer_stream",
            "measure_active_msbs",
            "msb_weighted_positions",
        ),
        "injection_job": (
            "INJECTION_RUNTIMES",
            "INJECTION_SCHEMA_VERSION",
            "InjectionJob",
            "InjectionResult",
            "InjectionShard",
            "configure_injection_runtime",
            "drain_runtime_counters",
            "injection_runtime",
            "merge_results",
            "plan_shards",
            "record_runtime_counters",
            "run_injection_trials",
            "trial_seed",
        ),
        "sensitivity": (
            "LayerSensitivity",
            "SensitivityReport",
            "analyze_sensitivity",
            "selective_hardening",
        ),
    },
)
