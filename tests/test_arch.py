"""Tests for the accelerator substrate: config, lowering, systolic sim."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import PAPER_ARRAY, AcceleratorConfig, Dataflow
from repro.arch.mapper import (
    ConvShape,
    conv2d_reference,
    im2col,
    lower_weights,
    sample_pixel_rows,
    tile_ranges,
)
from repro.arch.systolic import SystolicArraySimulator
from repro.core import MappingStrategy, plan_layer
from repro.hw.mac import MacUnit
from repro.errors import ConfigurationError, MappingError, ShapeError
from repro.hw.variations import AGING_VT_5, IDEAL, PAPER_CORNERS


class TestConfig:
    def test_paper_array_dimensions(self):
        assert PAPER_ARRAY.rows == 16
        assert PAPER_ARRAY.cols == 4
        assert PAPER_ARRAY.dataflow is Dataflow.OUTPUT_STATIONARY
        assert PAPER_ARRAY.n_pes == 64

    def test_dataflow_from_name(self):
        assert Dataflow.from_name("weight_stationary") is Dataflow.WEIGHT_STATIONARY
        with pytest.raises(ConfigurationError):
            Dataflow.from_name("input_stationary")

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            AcceleratorConfig(rows=0)

    def test_nominal_clock_consistent_with_sta(self):
        cfg = AcceleratorConfig()
        assert cfg.nominal_clock_ps() == cfg.sta().nominal_clock_ps(cfg.mac)


class TestConvShape:
    def test_output_dims(self):
        shape = ConvShape(n=2, c=3, h=32, w=32, k=8, fy=3, fx=3, stride=1, padding=1)
        assert (shape.out_h, shape.out_w) == (32, 32)
        assert shape.n_pixels == 2 * 32 * 32
        assert shape.reduction == 27

    def test_strided(self):
        shape = ConvShape(n=1, c=1, h=8, w=8, k=1, fy=3, fx=3, stride=2, padding=1)
        assert (shape.out_h, shape.out_w) == (4, 4)


class TestIm2col:
    def test_1x1_kernel_is_reshape(self):
        x = np.arange(2 * 3 * 4 * 4).reshape(2, 3, 4, 4)
        cols = im2col(x, 1, 1)
        assert cols.shape == (32, 3)
        assert np.array_equal(cols[0], x[0, :, 0, 0])

    def test_column_order_is_c_outer(self):
        x = np.arange(1 * 2 * 3 * 3).reshape(1, 2, 3, 3)
        cols = im2col(x, 3, 3)
        # single output pixel: columns must be channel-major then fy, fx
        assert np.array_equal(cols[0], x[0].reshape(-1))

    def test_padding_zero_fill(self):
        x = np.ones((1, 1, 2, 2))
        cols = im2col(x, 3, 3, padding=1)
        assert cols.shape == (4, 9)
        assert cols[0, 0] == 0  # top-left window corner is padding

    def test_rejects_too_large_kernel(self):
        with pytest.raises(ShapeError):
            im2col(np.ones((1, 1, 2, 2)), 3, 3)

    def test_rejects_3d(self):
        with pytest.raises(ShapeError):
            im2col(np.ones((1, 2, 2)), 1, 1)

    @given(
        st.integers(1, 2), st.integers(1, 3), st.integers(4, 7), st.integers(1, 3),
        st.integers(1, 2), st.integers(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_convolution(self, n, c, hw, f, stride, padding):
        if (hw + 2 * padding - f) < 0:
            return
        rng = np.random.default_rng(0)
        x = rng.integers(0, 10, size=(n, c, hw, hw))
        k = 2
        w = rng.integers(-5, 5, size=(k, c, f, f))
        out = conv2d_reference(x, w, stride=stride, padding=padding)
        # naive reference
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        oh = (hw + 2 * padding - f) // stride + 1
        for ni in range(n):
            for ki in range(k):
                for yi in range(oh):
                    for xi in range(oh):
                        patch = xp[ni, :, yi * stride : yi * stride + f, xi * stride : xi * stride + f]
                        assert out[ni, ki, yi, xi] == (patch * w[ki]).sum()


class TestLowerWeights:
    def test_shape(self):
        w = np.arange(2 * 3 * 3 * 3).reshape(2, 3, 3, 3)
        assert lower_weights(w).shape == (27, 2)

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            lower_weights(np.ones((3, 3)))


class TestTiling:
    def test_tile_ranges(self):
        assert list(tile_ranges(10, 4)) == [(0, 4), (4, 8), (8, 10)]

    def test_tile_rejects_zero(self):
        with pytest.raises(ShapeError):
            list(tile_ranges(10, 0))

    def test_sample_pixel_rows_small_passthrough(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(sample_pixel_rows(5, 10, rng), np.arange(5))

    def test_sample_pixel_rows_subsamples(self):
        rng = np.random.default_rng(0)
        rows = sample_pixel_rows(100, 10, rng)
        assert rows.shape == (10,)
        assert len(set(rows.tolist())) == 10


class TestSystolicSimulator:
    @pytest.fixture()
    def operands(self):
        rng = np.random.default_rng(0)
        acts = rng.integers(0, 128, size=(20, 48))
        weights = np.clip(rng.normal(0, 15, size=(48, 12)), -128, 127).astype(np.int64)
        return acts, weights

    def test_outputs_exact_for_all_strategies(self, operands):
        """Compute correctness on the simulated array itself."""
        acts, weights = operands
        sim = SystolicArraySimulator()
        golden = sim.golden_gemm(acts, weights)
        for strategy in MappingStrategy:
            plan = plan_layer(weights, 4, strategy)
            report = sim.run_gemm(acts, weights, plan, AGING_VT_5)
            assert np.array_equal(report.outputs, golden)

    def test_reorder_reduces_sign_flips(self, operands):
        acts, weights = operands
        sim = SystolicArraySimulator()
        base = sim.run_gemm(acts, weights, plan_layer(weights, 4, "baseline"), AGING_VT_5)
        reord = sim.run_gemm(acts, weights, plan_layer(weights, 4, "reorder"), AGING_VT_5)
        assert reord.sign_flip_rate < base.sign_flip_rate

    def test_reorder_reduces_ter(self, operands):
        acts, weights = operands
        sim = SystolicArraySimulator()
        base = sim.run_gemm(acts, weights, plan_layer(weights, 4, "baseline"), AGING_VT_5)
        reord = sim.run_gemm(acts, weights, plan_layer(weights, 4, "reorder"), AGING_VT_5)
        assert reord.ter < base.ter

    def test_multi_corner_consistent_with_single(self, operands):
        acts, weights = operands
        sim = SystolicArraySimulator()
        plan = plan_layer(weights, 4, "baseline")
        multi = sim.run_gemm_corners(acts, weights, PAPER_CORNERS, plan)
        single = sim.run_gemm(acts, weights, plan, AGING_VT_5)
        assert multi[AGING_VT_5.name].ter == pytest.approx(single.ter)

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_histogram_ter_matches_per_cycle_definition(self, operands, dataflow):
        """The priced delay histogram equals the mean per-cycle probability.

        Replays ``run_gemm_corners``' tile walk and averages
        ``DynamicTimingAnalyzer.error_probabilities`` over every cycle:
        the two may differ only by float summation order.
        """
        acts, weights = operands
        sim = SystolicArraySimulator(AcceleratorConfig(dataflow=dataflow), pixel_chunk=7)
        plan = plan_layer(weights, 4, "reorder")
        reports = sim.run_gemm_corners(acts, weights, PAPER_CORNERS, plan)
        sums = dict.fromkeys((c.name for c in PAPER_CORNERS), 0.0)
        n_cycles = 0
        for group in plan.groups:
            w_sub = np.asarray(group.weights, dtype=np.int64)
            for start, stop in tile_ranges(acts.shape[0], sim.pixel_chunk):
                tile = acts[start:stop][:, group.order]
                a_stream = np.broadcast_to(
                    tile[:, None, :], (stop - start, w_sub.shape[1], tile.shape[1])
                )
                w_stream = np.broadcast_to(w_sub.T[None, :, :], a_stream.shape)
                trace = MacUnit(sim.config.mac).run(a_stream, w_stream, validate=False)
                trace, _, _ = sim._apply_dataflow_adjacency(trace)
                n_cycles += trace.sign_flips.size
                for corner in PAPER_CORNERS:
                    sums[corner.name] += sim.dta.error_probabilities(trace, corner).sum()
        assert n_cycles == reports[AGING_VT_5.name].n_cycles
        for corner in PAPER_CORNERS:
            per_cycle = sums[corner.name] / n_cycles
            assert reports[corner.name].ter == pytest.approx(per_cycle, rel=1e-12, abs=0)

    def test_ter_monotone_across_corners(self, operands):
        acts, weights = operands
        sim = SystolicArraySimulator()
        reports = sim.run_gemm_corners(acts, weights, PAPER_CORNERS)
        ters = [reports[c.name].ter for c in PAPER_CORNERS]
        assert all(a <= b * (1 + 1e-9) for a, b in zip(ters, ters[1:]))

    def test_ideal_corner_error_free(self, operands):
        acts, weights = operands
        sim = SystolicArraySimulator()
        assert sim.run_gemm(acts, weights, corner=IDEAL).ter < 1e-12

    def test_chunking_invariant(self, operands):
        """Pixel chunk size is a speed knob, not a semantics knob (OS)."""
        acts, weights = operands
        plan = plan_layer(weights, 4, "reorder")
        r1 = SystolicArraySimulator(pixel_chunk=3).run_gemm(acts, weights, plan, AGING_VT_5)
        r2 = SystolicArraySimulator(pixel_chunk=64).run_gemm(acts, weights, plan, AGING_VT_5)
        assert r1.ter == pytest.approx(r2.ter)
        assert np.array_equal(r1.outputs, r2.outputs)

    def test_weight_stationary_differs_in_flip_rate(self, operands):
        acts, weights = operands
        plan = plan_layer(weights, 4, "baseline")
        os_sim = SystolicArraySimulator(AcceleratorConfig(dataflow=Dataflow.OUTPUT_STATIONARY))
        ws_sim = SystolicArraySimulator(AcceleratorConfig(dataflow=Dataflow.WEIGHT_STATIONARY))
        os_rep = os_sim.run_gemm(acts, weights, plan, AGING_VT_5)
        ws_rep = ws_sim.run_gemm(acts, weights, plan, AGING_VT_5)
        assert os_rep.sign_flip_rate != ws_rep.sign_flip_rate
        assert np.array_equal(os_rep.outputs, ws_rep.outputs)

    def test_expected_output_ber_matches_eq1(self, operands):
        acts, weights = operands
        sim = SystolicArraySimulator()
        report = sim.run_gemm(acts, weights, corner=AGING_VT_5)
        expected = 1 - (1 - report.ter) ** report.n_macs_per_output
        assert report.expected_output_ber() == pytest.approx(expected)

    def test_shape_validation(self):
        sim = SystolicArraySimulator()
        with pytest.raises(MappingError):
            sim.run_gemm(np.ones((2, 3)), np.ones((4, 2)))
        with pytest.raises(MappingError):
            sim.run_gemm(np.ones(3), np.ones((3, 2)))

    def test_plan_reduction_mismatch_rejected(self, operands):
        acts, weights = operands
        sim = SystolicArraySimulator()
        wrong_plan = plan_layer(np.ones((12, 12)), 4)
        with pytest.raises(MappingError):
            sim.run_gemm(acts, weights, wrong_plan)
