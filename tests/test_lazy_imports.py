"""Each command imports only the modules it calls.

The package ``__init__`` modules resolve their public names on first
access (PEP 562), and modules that only some commands or pool workers
run are imported where they are used.  So ``import repro.cli`` loads no
daemon, campaign, sweep, trainer, bit-flip injector or process pool (nor
the ``engine.arena`` placeholder, which only the benchmark tracer
imports), while every public name the packages export, the backend
registry and the runner registry stay what they were.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser
from repro.engine import backend_names
from repro.experiments import RUNNERS

#: Modules a command loads only when it calls them.  A warm ``read-repro
#: all`` calls none of them (CI checks its ``-X importtime`` log too).
DEFERRED = (
    "concurrent.futures",
    "concurrent.futures.process",
    "repro.engine.arena",
    "repro.engine.client",
    "repro.engine.protocol",
    "repro.engine.server",
    "repro.experiments.campaign",
    "repro.experiments.sweep",
    "repro.faults.injection",
    "repro.nn.training",
)

#: Every package's public names, as exported before they loaded lazily.
PUBLIC_NAMES = {
    "repro": (
        "AcceleratorConfig", "BalancedSignClusterer", "ConfigurationError", "Dataflow",
        "DelayModel", "DynamicTimingAnalyzer", "LayerMappingPlan",
        "LayerReliabilityReport", "LutCostModel", "MacConfig", "MacUnit",
        "MappingError", "MappingFallbackWarning", "MappingStrategy",
        "NetworkMappingPlan", "PAPER_ARRAY", "PAPER_CORNERS", "PvtaCondition",
        "QuantizationError", "ReproError", "ShapeError", "SimEngine", "SimJob",
        "StaticTimingAnalyzer", "SystolicArraySimulator", "TER_EVAL_CORNER",
        "TrainingError", "__version__", "backend_names", "configure_default_engine",
        "corner_by_name", "count_sign_flips", "default_engine", "get_backend",
        "job_key", "plan_layer", "plan_network", "register_backend",
        "sort_input_channels",
    ),
    "repro.arch": (
        "AcceleratorConfig", "AcceleratorCostModel", "ConvShape", "Dataflow",
        "EnergyModel", "GemmWorkload", "LayerEnergyReport", "LayerReliabilityReport",
        "PAPER_ARRAY", "ScheduleBuilder", "ScheduleStats", "SystolicArraySimulator",
        "conv2d_reference", "im2col", "lower_weights", "sample_pixel_rows",
        "tile_ranges",
    ),
    "repro.core": (
        "BalancedSignClusterer", "CRITERIA", "ClusteringHistory", "ClusteringResult",
        "DeploymentPlan", "LayerChoice", "LayerMappingPlan", "LutCostModel",
        "MappingStrategy", "NetworkMappingPlan", "ReorderResult", "address_bits",
        "channel_magnitude_metric", "channel_sign_metric", "check_clustering_request",
        "clustering_objective", "contiguous_clusters", "conv1d_sign_flips",
        "count_sign_flips", "is_rise_then_fall", "matrix_sign_flips",
        "minimum_sign_flips", "network_plan_from_json", "network_plan_to_json",
        "nonnegative_ratio_by_quantile", "optimal_single_channel_order",
        "optimize_deployment", "paper_sign", "plan_from_dict", "plan_layer",
        "plan_network", "plan_to_dict", "prefix_sums", "reorder_groups",
        "segment_matrix", "sign_difference", "sign_flip_rate", "sort_input_channels",
        "submatrix_sign_difference", "top_fraction_nonnegative_ratio",
    ),
    "repro.engine": (
        "CACHE_ENV_VAR", "CACHE_MAX_BYTES_ENV_VAR", "CACHE_SCHEMA_VERSION",
        "CacheGcReport", "CacheStats", "ENGINE_SOCKET_ENV", "EngineClient",
        "EngineClientError", "EngineJob", "EngineMetrics", "EngineServer",
        "EngineStats", "NetworkJob", "PROTOCOL_VERSION", "ProtocolError",
        "ReferenceBackend", "ResultCache", "SimEngine", "SimJob",
        "SimulationBackend", "VectorBackend", "backend_factory", "backend_names",
        "cache_root", "configure_default_engine", "default_engine",
        "engine_context", "feed_hash", "get_backend", "job_key", "register_backend",
        "reset_default_engine", "serve",
    ),
    "repro.experiments": (
        "ALL_STRATEGIES", "CampaignResult", "ExperimentScale", "LayerTerRecord",
        "MODEL_RECIPES", "OrchestratorResult", "RUNNERS", "SCALES", "SuiteResult",
        "TrainedBundle", "campaign", "fig10", "fig11", "fig2", "fig3", "fig5", "fig7",
        "fig8", "fig9", "geometric_mean", "get_bundle", "get_scale",
        "measure_layer_ters", "orchestrator", "record_operand_streams",
        "render_table", "run_all", "run_campaign", "run_suite", "sweep", "table1",
    ),
    "repro.faults": (
        "AbftReport", "BitFlipInjector", "CellAggregate", "DEFAULT_Z",
        "FaultInjectionEvaluator", "INJECTION_RUNTIMES", "INJECTION_SCHEMA_VERSION",
        "InjectionJob", "InjectionOutcome", "InjectionResult", "InjectionShard",
        "LayerSensitivity", "RunningStats", "STOP_REASONS", "SensitivityReport",
        "active_msb_from_max", "analyze_sensitivity", "ber_from_ter",
        "bers_from_layer_ters", "check_and_correct", "configure_injection_runtime",
        "decide", "drain_runtime_counters", "encode_operands",
        "evaluate_bundle_under_injection", "injection_job_for_bundle",
        "injection_runtime", "interval_width", "intervals_separated", "layer_stream",
        "measure_active_msbs", "merge_all", "merge_results", "msb_weighted_positions",
        "outcome_from_result", "overhead_macs", "plan_shards", "protected_gemm",
        "record_runtime_counters", "run_injection_trials", "selective_hardening",
        "stop_reason", "ter_from_ber", "trial_seed", "wilson_interval",
    ),
    "repro.hw": (
        "ACT_WIDTH", "AGING_10Y", "AGING_VT_3", "AGING_VT_5", "AdditionTrace",
        "DelayModel", "DynamicTimingAnalyzer", "IDEAL", "MacConfig", "MacTrace",
        "MacUnit", "NbtiAgingModel", "PAPER_CORNERS", "PRODUCT_WIDTH", "PSUM_WIDTH",
        "PvtaCondition", "RazorConfig", "SpeculationOutcome", "StaticTimingAnalyzer",
        "TER_EVAL_CORNER", "TimingAnalysisResult", "TimingSpeculationModel", "VT_3",
        "VT_5", "VoltageTemperatureModel", "WEIGHT_WIDTH", "accumulation_chain_lengths",
        "add_trace", "corner_by_name", "flip_bits", "from_field", "highest_set_bit",
        "longest_one_run", "saturate", "significant_bits", "to_field", "wrap",
    ),
    "repro.nn": (
        "BasicBlock", "BatchNorm2d", "ClassifierNetwork", "CompositeRegularizer",
        "Conv2d", "ConvLayerInfo", "DATASET_SPECS", "DatasetSpec", "Flatten",
        "GlobalAvgPool", "Linear", "MaxPool2d", "Module", "NegativeWeightPenalty",
        "Parameter", "QuantizedConv", "QuantizedNetwork", "RESNET_STAGES", "ReLU",
        "Sequential", "SgdMomentum", "SignCoherencePenalty", "SyntheticImageDataset",
        "TrainHistory", "Trainer", "VGG16_LAYOUT", "WeightRegularizer", "build_model",
        "build_resnet", "build_vgg16", "fold_batchnorm", "functional", "load_dataset",
        "quantize_weights", "read_friendly_regularizer",
    ),
}


def _modules_after(code: str) -> set:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(proc.stdout.split())


class TestDeferredModules:
    def test_cli_import_loads_none_of_them(self):
        loaded = _modules_after("import repro.cli")
        assert "repro.experiments.orchestrator" in loaded  # the control
        assert sorted(loaded & set(DEFERRED)) == []

    def test_package_import_loads_no_submodule(self):
        loaded = _modules_after("import repro.engine, repro.faults, repro.nn")
        assert sorted(m for m in loaded if m.startswith("repro.")) == [
            "repro._lazy",
            "repro.engine",
            "repro.faults",
            "repro.nn",
        ]

    @pytest.mark.parametrize(
        "name,module",
        [
            ("repro.experiments.run_campaign", "repro.experiments.campaign"),
            ("repro.experiments.sweep", "repro.experiments.sweep"),
            ("repro.engine.EngineServer", "repro.engine.server"),
            ("repro.nn.Trainer", "repro.nn.training"),
        ],
    )
    def test_a_public_name_loads_its_module(self, name, module):
        package, attr = name.rsplit(".", 1)
        loaded = _modules_after(f"import {package}\n{package}.{attr}")
        assert module in loaded


class TestPublicNames:
    @pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
    def test_star_import_exports_the_pinned_names(self, package):
        module = __import__(package, fromlist=["*"])
        assert sorted(module.__all__) == sorted(PUBLIC_NAMES[package])
        namespace = {}
        exec(f"from {package} import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(PUBLIC_NAMES[package])
        for name, value in namespace.items():
            assert getattr(module, name) is value
        assert set(PUBLIC_NAMES[package]) <= set(dir(module))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            repro.engine.missing  # noqa: B018

    def test_backend_registry(self):
        assert backend_names() == ["reference", "vector"]
        commands = build_parser()._subparsers._group_actions[0].choices
        for name in ("all", "fig2", "sweep", "campaign", "serve"):
            (backend,) = [a for a in commands[name]._actions if a.dest == "backend"]
            assert backend.choices == ["reference", "vector"]

    def test_runner_registry(self):
        assert list(RUNNERS) == [
            "table1", "fig2", "fig3", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11",
        ]
        for name, module in RUNNERS.items():
            assert isinstance(module, types.ModuleType)
            assert module.__name__ == f"repro.experiments.{name}"
            assert callable(module.run) and callable(module.render)
