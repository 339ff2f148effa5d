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

import importlib

#: Where each public name lives.  The names load on first access (PEP
#: 562), so ``import repro`` imports no submodule and no numpy: the
#: ``python -m repro`` entry point must set BLAS threading before numpy
#: loads.
_EXPORTS = {
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
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


__version__ = "1.0.0"

__all__ = [
    "AcceleratorConfig",
    "BalancedSignClusterer",
    "ConfigurationError",
    "Dataflow",
    "DelayModel",
    "DynamicTimingAnalyzer",
    "LayerMappingPlan",
    "LayerReliabilityReport",
    "LutCostModel",
    "MacConfig",
    "MacUnit",
    "MappingError",
    "MappingFallbackWarning",
    "MappingStrategy",
    "NetworkMappingPlan",
    "PAPER_ARRAY",
    "PAPER_CORNERS",
    "PvtaCondition",
    "QuantizationError",
    "ReproError",
    "ShapeError",
    "SimEngine",
    "SimJob",
    "StaticTimingAnalyzer",
    "SystolicArraySimulator",
    "TER_EVAL_CORNER",
    "TrainingError",
    "backend_names",
    "configure_default_engine",
    "count_sign_flips",
    "corner_by_name",
    "default_engine",
    "get_backend",
    "job_key",
    "plan_layer",
    "plan_network",
    "register_backend",
    "sort_input_channels",
    "__version__",
]
