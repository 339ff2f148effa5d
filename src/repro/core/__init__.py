"""READ's primary contribution: critical-input-pattern reduction.

Sign-flip metrics (Section IV-A), Algorithm 1 input-channel reordering
(Section IV-B), balanced output-channel clustering (Section IV-C), the
address-LUT hardware cost model (Section IV-D) and layer/network mapping
plans that compose them.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "clustering": (
            "BalancedSignClusterer",
            "ClusteringHistory",
            "ClusteringResult",
            "clustering_objective",
            "contiguous_clusters",
            "sign_difference",
            "submatrix_sign_difference",
        ),
        "lut": (
            "LutCostModel",
            "address_bits",
        ),
        "pipeline": (
            "LayerMappingPlan",
            "MappingStrategy",
            "NetworkMappingPlan",
            "check_clustering_request",
            "plan_layer",
            "plan_network",
        ),
        "optimizer": (
            "DeploymentPlan",
            "LayerChoice",
            "optimize_deployment",
        ),
        "serialize": (
            "network_plan_from_json",
            "network_plan_to_json",
            "plan_from_dict",
            "plan_to_dict",
        ),
        "reorder": (
            "CRITERIA",
            "ReorderResult",
            "channel_magnitude_metric",
            "channel_sign_metric",
            "nonnegative_ratio_by_quantile",
            "optimal_single_channel_order",
            "reorder_groups",
            "segment_matrix",
            "sort_input_channels",
            "top_fraction_nonnegative_ratio",
        ),
        "signflip": (
            "conv1d_sign_flips",
            "count_sign_flips",
            "is_rise_then_fall",
            "matrix_sign_flips",
            "minimum_sign_flips",
            "paper_sign",
            "prefix_sums",
            "sign_flip_rate",
        ),
    },
)
