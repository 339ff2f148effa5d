"""Cross-module integration tests: the full READ pipeline end to end."""

import numpy as np
import pytest

from repro.arch import AcceleratorConfig, SystolicArraySimulator
from repro.core import MappingStrategy, plan_layer, plan_network
from repro.experiments.common import (
    SCALES,
    get_bundle,
    macs_per_layer,
    measure_layer_ters,
    ters_for_corner,
)
from repro.faults import BitFlipInjector, FaultInjectionEvaluator, bers_from_layer_ters
from repro.hw.variations import AGING_VT_5, IDEAL

TINY = SCALES["tiny"]


@pytest.fixture(scope="module")
def bundle():
    return get_bundle("vgg16_cifar10", TINY)


@pytest.fixture(scope="module")
def ter_records(bundle):
    return measure_layer_ters(
        bundle.qnet,
        bundle.x_test[:2],
        corners=[IDEAL, AGING_VT_5],
        max_pixels=16,
    )


class TestTerPipeline:
    def test_all_layers_measured(self, bundle, ter_records):
        # 13 feature convs + the lowered classifier head
        for strategy in ("baseline", "reorder", "cluster_then_reorder"):
            assert len(ter_records[strategy]) == 14

    def test_reorder_improves_every_layer(self, ter_records):
        base = ters_for_corner(ter_records, MappingStrategy.BASELINE, AGING_VT_5.name)
        reord = ters_for_corner(ter_records, MappingStrategy.REORDER, AGING_VT_5.name)
        for layer in base:
            assert reord[layer] < base[layer]

    def test_ideal_corner_near_zero(self, ter_records):
        ideal = ters_for_corner(ter_records, MappingStrategy.BASELINE, IDEAL.name)
        assert all(t < 1e-10 for t in ideal.values())

    def test_mac_counts_match_lowering(self, bundle, ter_records):
        n_macs = macs_per_layer(ter_records)
        for qc in bundle.qnet.qconvs():
            assert n_macs[qc.name] == qc.n_macs_per_output


class TestFaultPipelineEndToEnd:
    def test_accuracy_ordering_baseline_vs_read(self, bundle, ter_records):
        """The paper's bottom line on a single stressed corner."""
        n_macs = macs_per_layer(ter_records)
        evaluator = FaultInjectionEvaluator(bundle.qnet, n_trials=2)
        x, y = bundle.x_test[:48], bundle.y_test[:48]

        accs = {}
        for strategy in (MappingStrategy.BASELINE, MappingStrategy.CLUSTER_THEN_REORDER):
            ters = ters_for_corner(ter_records, strategy, AGING_VT_5.name)
            bers = bers_from_layer_ters(ters, n_macs)
            accs[strategy.value] = evaluator.run(x, y, bers).mean_accuracy
        clean = bundle.quant_accuracy
        assert accs["cluster_then_reorder"] >= accs["baseline"]
        assert accs["baseline"] < clean + 1e-9

    def test_ideal_corner_keeps_clean_accuracy(self, bundle, ter_records):
        n_macs = macs_per_layer(ter_records)
        evaluator = FaultInjectionEvaluator(bundle.qnet, n_trials=1)
        ters = ters_for_corner(ter_records, MappingStrategy.BASELINE, IDEAL.name)
        bers = bers_from_layer_ters(ters, n_macs)
        out = evaluator.run(bundle.x_test[:48], bundle.y_test[:48], bers)
        assert out.mean_accuracy == pytest.approx(
            bundle.qnet.evaluate(bundle.x_test[:48], bundle.y_test[:48]), abs=0.05
        )

    def test_injector_statistics_tracked(self, bundle):
        injector = BitFlipInjector({qc.name: 0.5 for qc in bundle.qnet.qconvs()}, seed=0)
        bundle.qnet.evaluate(
            bundle.x_test[:4], bundle.y_test[:4], injector=injector
        )
        assert injector.flips_injected > 0
        assert injector.elements_seen > injector.flips_injected


class TestNetworkPlanOnSimulator:
    def test_two_layer_propagated_plan_is_exact(self):
        """Cross-layer permutation bookkeeping preserves the computation.

        Layer 1's outputs, produced in the clustered channel order, are
        consumed by layer 2 whose plan was built on the permuted rows —
        the final result must match the unpermuted reference.
        """
        rng = np.random.default_rng(0)
        w1 = rng.integers(-60, 60, size=(16, 8))
        w2 = rng.integers(-60, 60, size=(8, 8))
        net = plan_network({"l1": w1, "l2": w2}, group_size=4,
                           strategy=MappingStrategy.CLUSTER_THEN_REORDER)
        acts = rng.integers(0, 128, size=(5, 16))

        perm1 = net.layers["l1"].output_channel_permutation()
        # layer 1 emits channels in perm1 order
        out1 = np.zeros((5, 8), dtype=np.int64)
        for g, group in enumerate(net.layers["l1"].groups):
            out1[:, group.columns] = net.layers["l1"].apply_to_activations(acts, g) @ group.weights
        out1_relu = np.maximum(out1, 0)
        stored = out1_relu[:, perm1]  # memory layout after layer 1

        # layer 2's plan was built on w2 rows permuted by perm1, so feeding
        # the stored (permuted) activations reproduces the reference GEMM
        out2 = np.zeros((5, 8), dtype=np.int64)
        for g, group in enumerate(net.layers["l2"].groups):
            out2[:, group.columns] = net.layers["l2"].apply_to_activations(stored, g) @ group.weights
        reference = np.maximum(acts @ w1, 0) @ w2
        assert np.array_equal(out2, reference)

    def test_simulator_consumes_network_plan(self):
        rng = np.random.default_rng(1)
        w = rng.integers(-60, 60, size=(16, 8))
        net = plan_network({"l1": w}, group_size=4)
        sim = SystolicArraySimulator(AcceleratorConfig())
        acts = rng.integers(0, 128, size=(6, 16))
        report = sim.run_gemm(acts, w, net.layers["l1"], AGING_VT_5)
        assert np.array_equal(report.outputs, acts @ w)


class TestCli:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table1" in out

    def test_static_experiment_runs(self, capsys):
        from repro.cli import main

        assert main(["fig3"]) == 0
        assert "Sign flips" in capsys.readouterr().out

    def test_rejects_unknown_experiment(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_cache_gc_accepts_scientific_notation(self, capsys, tmp_path, monkeypatch):
        # The docs advertise `cache gc --max-bytes 2e9`; the parser must
        # take byte bounds as humans write them, not just plain ints.
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        assert main(["cache", "gc", "--max-bytes", "2e9"]) == 0
        assert "evicted 0 entrie(s)" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["cache", "gc", "--max-bytes", "lots"])

    def test_parse_byte_count(self):
        from repro.engine.cache import parse_byte_count

        assert parse_byte_count("2e9") == 2_000_000_000
        assert parse_byte_count("1048576") == 1048576
        for bad in ("lots", "-1", ""):
            with pytest.raises(ValueError):
                parse_byte_count(bad)

    def test_engine_summary_names_only_backends_that_simulated(
        self, capsys, tmp_path, monkeypatch
    ):
        # A warm run simulates nothing, so its summary names no backend;
        # the "engine[...]: N job(s): ..." shape stays for the parsers.
        from repro.cli import main
        from repro.engine import reset_default_engine
        from repro.experiments import fig7

        micro = SCALES["micro"]
        n = len(next(fig7.steps(micro)))  # also loads the bundle in memory
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))  # a cold result cache
        summaries = []
        try:
            for _ in range(2):
                assert main(["fig7", "--scale", "micro", "--backend", "vector"]) == 0
                summaries.append(capsys.readouterr().out.splitlines()[-1])
        finally:
            reset_default_engine()
        assert summaries == [
            f"engine[vector, jobs=1, cache=on]: {n} job(s): 0 cache hit(s), "
            f"0 deduplicated, {n} simulated",
            f"engine[jobs=1, cache=on]: {n} job(s): {n} cache hit(s), "
            "0 deduplicated, 0 simulated",
        ]
