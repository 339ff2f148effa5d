"""READ reproduction: reliability-enhanced accelerator dataflow optimization.

A full from-scratch implementation of the DATE 2023 paper "READ:
Reliability-Enhanced Accelerator Dataflow Optimization using Critical
Input Pattern Reduction" (Zhang et al.), including every substrate the
paper depends on: a bit-accurate MAC datapath with carry-chain dynamic
timing analysis, PVTA variation models, a systolic-array simulator, a
numpy DNN training/quantization stack, and a fault-injection framework.

Quickstart
----------
>>> import numpy as np
>>> from repro import plan_layer, MappingStrategy, SystolicArraySimulator
>>> rng = np.random.default_rng(0)
>>> weights = rng.integers(-128, 128, size=(64, 16))
>>> acts = rng.integers(0, 256, size=(32, 64))
>>> plan = plan_layer(weights, group_size=4,
...                   strategy=MappingStrategy.CLUSTER_THEN_REORDER)
>>> report = SystolicArraySimulator().run_gemm(acts, weights, plan)
>>> report.ter <= 1.0
True

Batches of such simulations go through the engine (see ``docs/engine.md``):
describe each as a :class:`SimJob`, pick a backend (the default
``"vector"`` or the cycle-behavioural ``"reference"``; their reports are
bit-identical), and :class:`SimEngine` adds multi-process fan-out plus an
on-disk result cache keyed by a content hash of the job spec:

>>> from repro import SimEngine, SimJob, TER_EVAL_CORNER
>>> engine = SimEngine(use_cache=False)
>>> job = SimJob(acts=acts, weights=weights, corners=(TER_EVAL_CORNER,),
...              group_size=4, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
>>> vector_report = engine.run(job)[TER_EVAL_CORNER.name]
>>> vector_report.ter == report.ter
True
>>> bool(np.array_equal(vector_report.outputs, report.outputs))
True
"""

from ._lazy import lazy_exports

#: Where each public name lives.  The names load on first access (PEP
#: 562), so ``import repro`` imports no submodule and no numpy: the
#: ``python -m repro`` entry point must set BLAS threading before numpy
#: loads.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "arch": (
            "PAPER_ARRAY",
            "AcceleratorConfig",
            "Dataflow",
            "LayerReliabilityReport",
            "SystolicArraySimulator",
        ),
        "core": (
            "BalancedSignClusterer",
            "LayerMappingPlan",
            "LutCostModel",
            "MappingStrategy",
            "NetworkMappingPlan",
            "count_sign_flips",
            "plan_layer",
            "plan_network",
            "sort_input_channels",
        ),
        "engine": (
            "SimEngine",
            "SimJob",
            "backend_names",
            "configure_default_engine",
            "default_engine",
            "get_backend",
            "job_key",
            "register_backend",
        ),
        "errors": (
            "ConfigurationError",
            "MappingError",
            "MappingFallbackWarning",
            "QuantizationError",
            "ReproError",
            "ShapeError",
            "TrainingError",
        ),
        "hw": (
            "PAPER_CORNERS",
            "TER_EVAL_CORNER",
            "DelayModel",
            "DynamicTimingAnalyzer",
            "MacConfig",
            "MacUnit",
            "PvtaCondition",
            "StaticTimingAnalyzer",
            "corner_by_name",
        ),
    },
)

__version__ = "1.0.0"
__all__.append("__version__")
