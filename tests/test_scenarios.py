"""Scenario registry, suite sweep and head-coverage regression tests.

Covers the scenario-matrix expansion end to end at micro scale:

* the declarative :class:`repro.scenarios.Scenario` spec (bit-width rule
  resolution, validation, suite registry);
* per-group simulation jobs and their cycle-weighted aggregation for
  grouped/depthwise layers;
* the satellite fix: the classifier head (now a lowered 1x1 conv) is
  covered by the MSB pass and by fault injection — injecting into it
  changes the network's outputs deterministically;
* ``run_suite``: the mobile suite runs end to end with depthwise,
  pointwise and head layers all present in the per-layer TER report.
"""

import numpy as np
import pytest

from repro.engine import default_engine
from repro.errors import ConfigurationError
from repro.experiments.common import clean_accuracy, drive, get_bundle, get_scale
from repro.experiments.sweep import (
    render,
    run_suite,
    scenario_bundle,
    scenario_steps,
    suite_manifest,
)
from repro.faults.injection import BitFlipInjector, measure_active_msbs
from repro.faults.injection_job import run_injection_trials
from repro.hw.variations import AGING_VT_5, IDEAL, TER_EVAL_CORNER
from repro.scenarios import (
    SUITES,
    Scenario,
    get_suite,
    layer_names_for_recipe,
    suite_names,
)

MICRO = get_scale("micro")


class TestScenarioSpec:
    def test_bits_rules_first_match_wins(self):
        sc = Scenario(
            name="s", recipe="vgg16_cifar10",
            bits=(("conv0", 8), ("conv*", 6), ("fc", 4)),
        )
        resolved = sc.resolve_bits(["conv0", "conv1", "conv12", "fc", "other"])
        # conv0 hits the first rule (== default -> omitted), conv* the second
        assert resolved == {"conv1": 6, "conv12": 6, "fc": 4}

    def test_unmatched_bit_rule_raises(self):
        # a typo'd pattern must not silently degrade to uniform precision
        sc = Scenario(
            name="s", recipe="vgg16_cifar10", bits=(("convX*", 4), ("fc", 4)),
        )
        with pytest.raises(ConfigurationError, match="convX"):
            sc.resolve_bits(["conv0", "conv1", "fc"])

    def test_strategy_names_accepted(self):
        sc = Scenario(name="s", recipe="vgg16_cifar10", strategies=("reorder",))
        assert sc.strategies[0].value == "reorder"

    def test_invalid_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="s", recipe="r", bits=(("*", 1),))

    def test_inject_corner_must_be_simulated(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                name="s", recipe="r",
                corners=(IDEAL,), inject_corners=(AGING_VT_5,),
            )

    def test_registry_names(self):
        assert suite_names() == sorted(SUITES)
        assert {
            "paper", "mobile", "mixed-precision", "stress", "transformer"
        } <= set(SUITES)
        with pytest.raises(ConfigurationError):
            get_suite("nope")

    def test_suite_scenarios_resolve_against_their_recipes(self):
        for suite in SUITES.values():
            for sc in suite:
                names = layer_names_for_recipe(sc.recipe, MICRO)
                assert names, sc.recipe
                assert "fc" in names
                sc.resolve_bits(names)  # must not raise

    def test_layer_names_cover_head_and_shortcuts(self):
        names = layer_names_for_recipe("resnet18_cifar10", MICRO)
        assert "fc" in names and any("shortcut" in n for n in names)


class TestGroupedTerJobs:
    @pytest.fixture(scope="class")
    def mobile_bundle(self):
        return get_bundle("mobilenet_cifar10", MICRO)

    def test_one_job_per_group(self, mobile_bundle):
        from repro.experiments.common import layer_ter_batch, record_operand_streams

        qnet = mobile_bundle.qnet
        streams = record_operand_streams(qnet, mobile_bundle.x_test[:1])
        jobs = layer_ter_batch(
            qnet, streams, [TER_EVAL_CORNER], strategies=[], max_pixels=4
        ).jobs
        assert jobs == []
        jobs = layer_ter_batch(
            qnet, streams, [TER_EVAL_CORNER], max_pixels=4
        ).jobs
        expected = sum(qc.groups for qc in qnet.qconvs()) * 3  # 3 strategies
        assert len(jobs) == expected
        # every grouped job's GEMM is the group's own short reduction
        dw = next(qc for qc in qnet.qconvs() if qc.groups > 1)
        dw_jobs = [j for j in jobs if j.label.startswith(f"{dw.name}[")]
        assert len(dw_jobs) == dw.groups * 3
        for job in dw_jobs:
            assert job.acts.shape[1] == dw.n_macs_per_output == 9
            assert job.weights.shape == (9, dw.out_channels // dw.groups)

    def test_aggregation_weighted_by_cycles(self):
        from repro.experiments.common import aggregate_group_reports
        from repro.core import MappingStrategy

        class R:
            def __init__(self, ter, cycles):
                self.ter = ter
                self.n_cycles = cycles
                self.sign_flip_rate = 0.5
                self.n_macs_per_output = 9

        reports = [{"c": R(0.1, 10)}, {"c": R(0.3, 30)}]
        rec = aggregate_group_reports("l", MappingStrategy.REORDER, reports)
        assert rec.groups == 2
        assert rec.ter_by_corner["c"] == pytest.approx((0.1 * 10 + 0.3 * 30) / 40)

    def test_mixed_precision_bundle_caches_by_bits(self):
        dense = get_bundle("vgg16_cifar10", MICRO)
        mixed = get_bundle("vgg16_cifar10", MICRO, bits_per_layer={"fc": 4})
        assert dense is not mixed
        assert mixed.qnet.qconvs()[-1].weight_bits == 4
        # same trained float parameters, different quantization
        for p_dense, p_mixed in zip(dense.model.parameters(), mixed.model.parameters()):
            assert np.array_equal(p_dense.data, p_mixed.data)
        assert np.array_equal(dense.qnet.qconvs()[0].weight_q, mixed.qnet.qconvs()[0].weight_q)
        assert not np.array_equal(
            dense.qnet.qconvs()[-1].weight_q, mixed.qnet.qconvs()[-1].weight_q
        )
        assert get_bundle("vgg16_cifar10", MICRO, bits_per_layer={"fc": 4}) is mixed


class TestHeadCoverage:
    """The satellite fix: no more classifier-head special case."""

    @pytest.fixture(scope="class")
    def bundle(self):
        return get_bundle("vgg16_cifar10", MICRO)

    def test_msb_pass_covers_head(self, bundle):
        x = bundle.x_test[: MICRO.inject_n]
        msbs = measure_active_msbs(bundle.qnet, x)
        assert "fc" in msbs
        prefix = bundle.qnet.fault_free_pass(x)
        assert "fc" in prefix.acc and "fc" in prefix.max_abs_acc

    def test_head_injection_changes_outputs_deterministically(self, bundle):
        x = bundle.x_test[: MICRO.inject_n]
        y = bundle.y_test[: MICRO.inject_n]
        clean = bundle.qnet.forward(x)
        injector = BitFlipInjector({"fc": 0.5}, seed=3)
        corrupted = bundle.qnet.evaluate(x, y, injector=injector)
        assert injector.flips_injected > 0
        bundle.qnet.set_injector(BitFlipInjector({"fc": 0.5}, seed=3))
        flipped_logits = bundle.qnet.forward(x)
        bundle.qnet.set_injector(None)
        assert not np.array_equal(clean, flipped_logits)

        # bit-identical across repeats and across both runtimes
        results = [
            run_injection_trials(
                bundle.qnet, x, y, {"fc": 0.5}, n_trials=3, base_seed=7,
                runtime=runtime, batch_size=batch,
            )
            for runtime in ("serial", "batched")
            for batch in (5, 128)
        ]
        for result in results[1:]:
            assert result.trial_accuracies == results[0].trial_accuracies
            assert result.flips_injected == results[0].flips_injected


class TestRunSuite:
    def test_mobile_suite_end_to_end(self):
        result = run_suite("mobile", MICRO)
        assert result.suite == "mobile" and len(result.reports) == 1
        report = result.reports[0]
        layers = [r.layer for r in report.records["reorder"]]
        # depthwise + pointwise + the lowered classifier head all present
        assert {"dw1", "pw1", "fc"} <= set(layers)
        assert any(r.groups > 1 for r in report.records["reorder"])
        for strategy in report.injected_accuracy:
            for corner, acc in report.injected_accuracy[strategy].items():
                assert 0.0 <= acc <= 1.0
        text = render(result)
        assert "dw1 [g=" in text and "fc" in text
        peak = suite_manifest(result, engine=default_engine())["run"]["peak_rss_mb"]
        assert set(peak) == {"parent", "workers"} and peak["parent"] > 0

    def test_topk_scenario_reports_its_clean_topk_accuracy(self):
        # The report (and so the rendering and the manifest) labels the
        # clean accuracy top-{topk}: it must be measured that way, not be
        # the bundle's top-1 value.
        sc = Scenario(
            name="top3",
            recipe="vgg16_cifar100",
            strategies=("baseline",),
            corners=(TER_EVAL_CORNER,),
            topk=3,
        )
        report = drive(scenario_steps(sc, MICRO))
        bundle = scenario_bundle(sc, MICRO)
        assert report.quant_accuracy == clean_accuracy(bundle, 3)
        # On this bundle the two protocols differ (0.125 against 0.0).
        assert clean_accuracy(bundle, 3) != bundle.quant_accuracy

    def test_scenario_bundle_resolves_bits(self):
        sc = get_suite("mixed-precision")[0]
        bundle = scenario_bundle(sc, MICRO)
        assert dict(bundle.bits_per_layer)["fc"] == 4
