"""Spatial-accelerator substrate: geometry, lowering, schedules, costs."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "config": (
            "PAPER_ARRAY",
            "AcceleratorConfig",
            "Dataflow",
        ),
        "dataflow": (
            "GemmWorkload",
            "ScheduleBuilder",
            "ScheduleStats",
        ),
        "energy": (
            "AcceleratorCostModel",
            "EnergyModel",
            "LayerEnergyReport",
        ),
        "mapper": (
            "ConvShape",
            "conv2d_reference",
            "im2col",
            "lower_weights",
            "sample_pixel_rows",
            "tile_ranges",
        ),
        "systolic": (
            "LayerReliabilityReport",
            "SystolicArraySimulator",
        ),
    },
)
