"""Transformer workload: token layers, matmul lowering, per-GEMM TERs.

The transformer suite opens the one regime the conv pipeline never
touches: GEMMs with *signed* operand statistics (LayerNorm outputs into
Q/K/V, the QK^T score product) and runtime activation-activation
products with a different stationary matrix per image.  These tests pin

* the token layer zoo's forward/backward math (finite differences);
* the quantized lowering: every GEMM of the mixer recipe — static and
  dynamic — appears in ``gemm_ops`` with calibrated signedness, behind
  the same injector/recording surface as the conv pipeline;
* :func:`repro.experiments.common.gemm_sim_units` — the single source
  of truth that turns a GEMM into SimJobs (per-instance sampling for
  dynamic ops, signed MAC configs) — and the job emission/reassembly
  built on it;
* serial/batched injection parity on token networks (the token trial
  loop is serial by construction; both runtime names must agree);
* the per-GEMM READ applicability measurement the sweep manifest
  records: proven-to-hold for the unsigned ops, measured for the rest.
"""

import numpy as np
import pytest

from repro.arch import AcceleratorConfig
from repro.core import MappingStrategy
from repro.experiments.common import (
    MAX_DYNAMIC_INSTANCES,
    gemm_reorder_applicability,
    gemm_sim_units,
    layer_ter_batch,
    measure_layer_ters,
    record_operand_streams,
)
from repro.faults.injection_job import run_injection_trials
from repro.hw.variations import IDEAL
from repro.nn.layers import (
    EncoderBlock,
    LayerNorm,
    PatchExtract,
    SelfAttention,
    TokenLinear,
    TokenMean,
)
from repro.nn.models import MIXER_PATCH, build_mixer
from repro.nn.quantize import (
    QuantizedDynamicMatmul,
    QuantizedMatmul,
    QuantizedTokenNetwork,
    quantize_model,
)

RNG = np.random.default_rng(0)

#: Every GEMM of the width-0.125 mixer, in execution order.
MIXER_GEMMS = ["embed"] + [
    f"block{i}.{op}"
    for i in range(2)
    for op in ("attn.q", "attn.k", "attn.v", "attn.qk", "attn.av",
               "attn.proj", "ffn1", "ffn2")
] + ["fc"]


def numeric_grad(f, x, eps=1e-5):
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f()
        x[idx] = orig - eps
        lo = f()
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def check_input_gradient(module, x, atol=1e-6):
    out = module.forward(x)
    grad_in = module.backward(np.ones_like(out))

    def scalar():
        return float(module.forward(x).sum())

    np.testing.assert_allclose(grad_in, numeric_grad(scalar, x), atol=atol, rtol=1e-4)


def check_param_gradient(module, x, param, atol=1e-6):
    module.forward(x)
    param.zero_grad()
    out = module.forward(x)
    module.backward(np.ones_like(out))
    analytic = param.grad.copy()

    def scalar():
        return float(module.forward(x).sum())

    np.testing.assert_allclose(
        analytic, numeric_grad(scalar, param.data), atol=atol, rtol=1e-4
    )


# ---------------------------------------------------------------------- #
# Token layers
# ---------------------------------------------------------------------- #
class TestTokenLayers:
    def test_patch_extract_shape_and_content(self):
        x = RNG.normal(size=(2, 3, 32, 32))
        out = PatchExtract(MIXER_PATCH).forward(x)
        assert out.shape == (2, 16, 3 * MIXER_PATCH * MIXER_PATCH)
        # token 0 is the top-left patch, channel-major
        np.testing.assert_array_equal(
            out[0, 0], x[0, :, :MIXER_PATCH, :MIXER_PATCH].reshape(-1)
        )

    def test_patch_extract_gradient(self):
        check_input_gradient(PatchExtract(2), RNG.normal(size=(2, 2, 4, 4)))

    def test_token_linear_matches_manual(self):
        layer = TokenLinear(5, 3, rng=RNG, name="tl")
        x = RNG.normal(size=(2, 4, 5))
        out = layer.forward(x)
        assert out.shape == (2, 4, 3)
        np.testing.assert_allclose(
            out, x @ layer.weight.data + layer.bias.data, atol=1e-12
        )

    def test_token_linear_gradients(self):
        layer = TokenLinear(4, 3, rng=RNG, name="tl")
        x = RNG.normal(size=(2, 3, 4))
        check_input_gradient(layer, x)
        check_param_gradient(layer, x, layer.weight)
        check_param_gradient(layer, x, layer.bias)

    def test_layer_norm_normalizes_last_axis(self):
        ln = LayerNorm(6)
        out = ln.forward(RNG.normal(size=(2, 5, 6)) * 3 + 1)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layer_norm_gradients(self):
        ln = LayerNorm(5)
        x = RNG.normal(size=(2, 3, 5))
        check_input_gradient(ln, x, atol=1e-5)
        check_param_gradient(ln, x, ln.gamma, atol=1e-5)
        check_param_gradient(ln, x, ln.beta, atol=1e-5)

    def test_token_mean_and_gradient(self):
        x = RNG.normal(size=(2, 4, 3))
        tm = TokenMean()
        np.testing.assert_allclose(tm.forward(x), x.mean(axis=1), atol=1e-12)
        check_input_gradient(tm, x)

    def test_self_attention_shape_and_dynamic_names(self):
        attn = SelfAttention(4, rng=RNG, name="attn")
        out = attn.forward(RNG.normal(size=(2, 3, 4)))
        assert out.shape == (2, 3, 4)
        assert attn.dynamic_gemm_names == ("attn.qk", "attn.av")

    def test_self_attention_gradient(self):
        attn = SelfAttention(3, rng=RNG, name="attn")
        check_input_gradient(attn, RNG.normal(size=(2, 3, 3)), atol=1e-5)

    def test_encoder_block_gradient(self):
        block = EncoderBlock(3, 5, rng=RNG, name="b")
        check_input_gradient(block, RNG.normal(size=(2, 3, 3)), atol=1e-5)


# ---------------------------------------------------------------------- #
# Quantized lowering of the mixer recipe
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def mixer():
    """A calibrated width-0.125 mixer (untrained weights: lowering only)."""
    model = build_mixer(n_classes=4, width=0.125, seed=0)
    rng = np.random.default_rng(1)
    x = rng.random((4, 3, 32, 32))
    y = rng.integers(0, 4, size=4)
    qnet = quantize_model(model)
    assert isinstance(qnet, QuantizedTokenNetwork)
    qnet.calibrate(x)
    return model, qnet, x, y


class TestMixerLowering:
    def test_gemm_ops_cover_every_gemm_in_order(self, mixer):
        _, qnet, _, _ = mixer
        assert [op.name for op in qnet.gemm_ops()] == MIXER_GEMMS
        assert qnet.qconvs() == []

    def test_calibrated_signedness_matches_the_architecture(self, mixer):
        """Signedness is measured per GEMM: patch pixels and post-ReLU /
        post-softmax streams are unsigned, LayerNorm-fed ops signed."""
        _, qnet, _, _ = mixer
        ops = {op.name: op for op in qnet.gemm_ops()}
        assert ops["embed"].act_signed is False
        assert ops["block0.ffn2"].act_signed is False  # post-ReLU
        for name in ("block0.attn.q", "block0.attn.k", "block0.attn.v",
                     "block0.attn.proj", "block0.ffn1", "fc"):
            assert ops[name].act_signed is True, name
        for i in range(2):
            qk, av = ops[f"block{i}.attn.qk"], ops[f"block{i}.attn.av"]
            assert isinstance(qk, QuantizedDynamicMatmul)
            assert qk.a_signed and qk.b_signed  # Q and K are signed
            assert av.a_signed is False  # softmax rows are non-negative
            assert av.b_signed is True

    def test_quantized_logits_track_float(self, mixer):
        model, qnet, x, _ = mixer
        f_logits = model.forward(x).reshape(x.shape[0], -1)
        q_logits = qnet.forward(x)
        assert q_logits.shape == f_logits.shape
        assert np.corrcoef(f_logits.ravel(), q_logits.ravel())[0, 1] > 0.95

    def test_fault_free_pass_covers_every_gemm(self, mixer):
        _, qnet, x, _ = mixer
        pass_ = qnet.fault_free_pass(x)
        assert sorted(pass_.max_abs_acc) == sorted(MIXER_GEMMS)
        assert pass_.n_images == x.shape[0]
        # The serial trial loop reads no accumulators, so none are kept.
        assert not pass_.acc and not pass_.block_inputs and pass_.features is None
        assert pass_.nbytes() == 0
        for name in MIXER_GEMMS:
            assert pass_.max_abs_acc[name] >= 0

    def test_recording_captures_both_dynamic_operands(self, mixer):
        _, qnet, x, _ = mixer
        streams = record_operand_streams(qnet, x)
        assert sorted(streams) == sorted(MIXER_GEMMS)
        for op in qnet.gemm_ops():
            if isinstance(op, QuantizedDynamicMatmul):
                a_q, b_q = streams[op.name]
                assert a_q.ndim == 3 and b_q.ndim == 3
                assert a_q.shape[0] == b_q.shape[0] == x.shape[0]
                assert a_q.shape[2] == b_q.shape[1]  # shared reduction K
                assert a_q.dtype == b_q.dtype == np.int64
            else:
                assert streams[op.name].shape[1] == op.in_features

    def test_injection_changes_outputs_and_runtimes_agree(self, mixer):
        """Flipping accumulator bits in attention GEMMs must move the
        outputs, deterministically, identically under both runtime names
        (the token trial loop is serial either way)."""
        _, qnet, x, y = mixer
        bers = {"block0.attn.qk": 0.05, "fc": 0.05}
        serial = run_injection_trials(
            qnet, x, y, bers, n_trials=2, base_seed=7, runtime="serial",
        )
        batched = run_injection_trials(
            qnet, x, y, bers, n_trials=2, base_seed=7, runtime="batched",
        )
        assert serial.trial_accuracies == batched.trial_accuracies
        assert serial.flips_injected == batched.flips_injected
        again = run_injection_trials(
            qnet, x, y, bers, n_trials=2, base_seed=7, runtime="serial",
        )
        assert again.trial_accuracies == serial.trial_accuracies
        assert again.flips_injected == serial.flips_injected


# ---------------------------------------------------------------------- #
# GEMM simulation units and job emission
# ---------------------------------------------------------------------- #
class TestGemmSimUnits:
    @pytest.fixture(scope="class")
    def recorded(self, mixer):
        _, qnet, x, _ = mixer
        return qnet, record_operand_streams(qnet, x), x

    def test_static_op_is_one_unit_with_its_signedness(self, recorded):
        qnet, streams, _ = recorded
        config = AcceleratorConfig()
        for op in qnet.gemm_ops():
            if isinstance(op, QuantizedDynamicMatmul):
                continue
            units = gemm_sim_units(op, streams, config, max_pixels=4)
            assert len(units) == 1 and units[0].suffix == ""
            assert units[0].config.mac.act_signed == op.act_signed
            np.testing.assert_array_equal(units[0].weights, op.weight_q)
            assert units[0].acts.shape[1] == op.in_features

    def test_dynamic_op_samples_instances(self, recorded):
        qnet, streams, x = recorded
        config = AcceleratorConfig()
        op = next(
            o for o in qnet.gemm_ops() if isinstance(o, QuantizedDynamicMatmul)
        )
        units = gemm_sim_units(op, streams, config, max_pixels=4)
        assert len(units) == min(x.shape[0], MAX_DYNAMIC_INSTANCES)
        assert [u.suffix for u in units] == [f"[i{j}]" for j in range(len(units))]
        a_q, b_q = streams[op.name]
        for unit in units:
            assert unit.config.mac.act_signed == op.a_signed
            assert unit.acts.shape[0] <= 4
            assert unit.acts.shape[1] == a_q.shape[2]
            assert any(np.array_equal(unit.weights, b_q[i]) for i in range(b_q.shape[0]))

    def test_unit_sampling_is_deterministic(self, recorded):
        qnet, streams, _ = recorded
        config = AcceleratorConfig()
        for op in qnet.gemm_ops():
            first = gemm_sim_units(op, streams, config, max_pixels=4, seed=3)
            second = gemm_sim_units(op, streams, config, max_pixels=4, seed=3)
            for a, b in zip(first, second):
                assert a.suffix == b.suffix
                np.testing.assert_array_equal(a.acts, b.acts)
                np.testing.assert_array_equal(a.weights, b.weights)

    def test_job_emission_is_gemm_major_and_labelled(self, recorded):
        qnet, streams, x = recorded
        jobs = layer_ter_batch(
            qnet, streams, [IDEAL], strategies=[MappingStrategy.REORDER],
            max_pixels=4,
        ).jobs
        n_dynamic = sum(
            1 for o in qnet.gemm_ops() if isinstance(o, QuantizedDynamicMatmul)
        )
        n_static = len(qnet.gemm_ops()) - n_dynamic
        expected = n_static + n_dynamic * min(x.shape[0], MAX_DYNAMIC_INSTANCES)
        assert len(jobs) == expected
        labels = [j.label for j in jobs]
        assert len(set(labels)) == len(labels)
        assert labels[0].startswith("embed:")
        # signed ops simulate on a signed MAC configuration
        by_label = {j.label: j for j in jobs}
        assert by_label["embed:reorder"].config.mac.act_signed is False
        assert by_label["block0.attn.q:reorder"].config.mac.act_signed is True
        assert by_label["block0.attn.qk[i0]:reorder"].config.mac.act_signed is True

    def test_measure_layer_ters_one_record_per_gemm(self, mixer):
        _, qnet, x, _ = mixer
        results = measure_layer_ters(
            qnet, x[:2], [IDEAL], strategies=[MappingStrategy.REORDER],
            max_pixels=4,
        )
        assert list(results) == ["reorder"]
        records = results["reorder"]
        assert [r.layer for r in records] == MIXER_GEMMS
        for record in records:
            assert len(record.ter_by_corner) == 1
            assert record.n_macs_per_output >= 1


# ---------------------------------------------------------------------- #
# READ applicability verdicts
# ---------------------------------------------------------------------- #
class TestReorderApplicability:
    def test_verdicts_cover_every_gemm(self, mixer):
        _, qnet, x, _ = mixer
        streams = record_operand_streams(qnet, x)
        verdicts = gemm_reorder_applicability(qnet, streams, max_pixels=8)
        assert list(verdicts) == MIXER_GEMMS
        for name, v in verdicts.items():
            assert set(v) == {
                "holds", "signed_acts", "traces", "violating_traces",
                "max_zero_crossings",
            }
            assert v["traces"] > 0
            assert 0 <= v["violating_traces"] <= v["traces"]
            assert v["holds"] == (v["violating_traces"] == 0)

    def test_unsigned_streams_always_hold(self, mixer):
        """The paper's single-zero-crossing proof covers non-negative
        activations; the measurement must agree wherever it applies."""
        _, qnet, x, _ = mixer
        streams = record_operand_streams(qnet, x)
        verdicts = gemm_reorder_applicability(qnet, streams, max_pixels=8)
        for name in ("embed", "block0.attn.av", "block1.attn.av",
                     "block0.ffn2", "block1.ffn2"):
            assert verdicts[name]["signed_acts"] is False
            assert verdicts[name]["holds"] is True, (name, verdicts[name])
        assert verdicts["block0.attn.q"]["signed_acts"] is True


# ---------------------------------------------------------------------- #
# Scenario integration
# ---------------------------------------------------------------------- #
def test_layer_names_include_dynamic_gemms():
    from repro.experiments.common import get_scale
    from repro.scenarios import layer_names_for_recipe

    names = layer_names_for_recipe("mixer_cifar10", get_scale("micro"))
    assert "embed" in names and "fc" in names
    for i in range(2):
        assert f"block{i}.attn.qk" in names
        assert f"block{i}.attn.av" in names
