"""Tests for batch-norm folding, int8 quantization and integer inference."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.experiments.common import MODEL_RECIPES, SCALES, get_bundle, record_operand_streams
from repro.nn.datasets import DatasetSpec, SyntheticImageDataset
from repro.nn.layers import BatchNorm2d, Conv2d
from repro.nn.models import build_model
from repro.nn.quantize import (
    QuantizedNetwork,
    _to_nchw,
    fold_batchnorm,
    quantize_weights,
)

RNG = np.random.default_rng(0)
MICRO = SCALES["micro"]


@pytest.fixture(scope="module")
def trained_setup():
    """A briefly-trained model + data (module-scoped: training is slow)."""
    ds = SyntheticImageDataset(DatasetSpec(name="t", n_classes=4, image_size=16))
    x, y = ds.sample(128, stream_seed=0)
    model = build_model("resnet18", n_classes=4, width=0.0625, seed=0)
    from repro.nn.training import Trainer

    Trainer(model, lr=0.03, batch_size=32, seed=0).fit(x, y, epochs=3)
    return model, x, y


class TestFoldBatchnorm:
    def test_fold_equivalence(self):
        """conv' must equal bn(conv(.)) with running statistics."""
        conv = Conv2d(3, 5, 3, padding=1, rng=RNG, name="c")
        bn = BatchNorm2d(5, name="b")
        # give the BN non-trivial statistics
        bn.running_mean[...] = RNG.normal(size=5)
        bn.running_var[...] = RNG.uniform(0.5, 2.0, size=5)
        bn.gamma.data[...] = RNG.uniform(0.5, 1.5, size=5)
        bn.beta.data[...] = RNG.normal(size=5)
        bn.training = False

        x = RNG.normal(size=(2, 3, 6, 6))
        expected = bn.forward(conv.forward(x))

        w_eff, b_eff = fold_batchnorm(conv, bn)
        folded = Conv2d(3, 5, 3, padding=1, rng=RNG)
        folded.weight.data[...] = w_eff
        folded.bias.data[...] = b_eff
        np.testing.assert_allclose(folded.forward(x), expected, atol=1e-10)

    def test_fold_without_bn_is_identity(self):
        conv = Conv2d(2, 2, 1, rng=RNG)
        w, b = fold_batchnorm(conv, None)
        assert np.array_equal(w, conv.weight.data)
        assert np.array_equal(b, conv.bias.data)


class TestQuantizeWeights:
    def test_range(self):
        w_q, scale = quantize_weights(RNG.normal(size=(4, 4)))
        assert w_q.min() >= -128 and w_q.max() <= 127

    def test_roundtrip_error_bounded(self):
        w = RNG.normal(size=(64,))
        w_q, scale = quantize_weights(w)
        assert np.abs(w_q * scale - w).max() <= scale / 2 + 1e-12

    def test_zero_weights(self):
        w_q, scale = quantize_weights(np.zeros((3, 3)))
        assert np.all(w_q == 0) and scale == 1.0

    def test_max_magnitude_maps_to_qmax(self):
        w = np.array([0.5, -1.0])
        w_q, scale = quantize_weights(w)
        assert int(np.abs(w_q).max()) in (127, 128)


class TestQuantizedNetwork:
    def test_requires_calibration(self, trained_setup):
        model, x, y = trained_setup
        qnet = QuantizedNetwork(model)
        with pytest.raises(QuantizationError):
            qnet.forward(x[:2])
        with pytest.raises(QuantizationError):  # the clean BLAS walk too
            qnet.evaluate(x[:2], y[:2])

    def test_quantized_close_to_float(self, trained_setup):
        model, x, y = trained_setup
        qnet = QuantizedNetwork(model)
        qnet.calibrate(x[:32])
        model.eval()
        float_logits = model.forward(x[:16])
        quant_logits = qnet.forward(x[:16])
        float_top = float_logits.argmax(axis=1)
        quant_top = quant_logits.argmax(axis=1)
        assert (float_top == quant_top).mean() >= 0.8

    def test_qconv_count_matches_model(self, trained_setup):
        model, x, _ = trained_setup
        qnet = QuantizedNetwork(model)
        # every main-path conv plus the classifier head lowered to a 1x1 conv
        assert len(qnet.qconvs()) == len(model.conv_layers()) + 1
        assert qnet.qconvs()[-1].name == "fc"

    def test_lowered_weight_matrix_shape(self, trained_setup):
        model, x, _ = trained_setup
        qnet = QuantizedNetwork(model)
        qc = qnet.qconvs()[1]
        k, c, fy, fx = qc.weight_q.shape
        assert qc.lowered_weight_matrix().shape == (c * fy * fx, k)
        assert qc.n_macs_per_output == c * fy * fx

    def test_recording_captures_streams(self, trained_setup):
        model, x, _ = trained_setup
        qnet = QuantizedNetwork(model)
        qnet.calibrate(x[:16])
        qnet.set_recording(True)
        qnet.forward(x[:2])
        for qc in qnet.qconvs():
            assert qc.recorded_cols is not None
            assert qc.recorded_cols.shape[1] == qc.n_macs_per_output
            assert qc.recorded_cols.min() >= 0  # ReLU inputs are non-negative
            assert qc.recorded_cols.max() <= 255
        qnet.set_recording(False)
        assert qnet.qconvs()[0].recorded_cols is None

    def test_injector_applied_and_cleared(self, trained_setup):
        model, x, y = trained_setup
        qnet = QuantizedNetwork(model)
        qnet.calibrate(x[:16])
        calls = []

        def injector(acc, layer):
            calls.append(layer.name)
            return acc

        qnet.evaluate(x[:4], y[:4], injector=injector)
        assert len(calls) >= len(qnet.qconvs())
        assert all(qc.injector is None for qc in qnet.qconvs(include_shortcuts=True))

    def test_injector_changes_output(self, trained_setup):
        model, x, _ = trained_setup
        qnet = QuantizedNetwork(model)
        qnet.calibrate(x[:16])
        clean = qnet.forward(x[:2])

        def nuke(acc, layer):
            return np.zeros_like(acc)

        qnet.set_injector(nuke)
        corrupted = qnet.forward(x[:2])
        qnet.set_injector(None)
        assert not np.allclose(clean, corrupted)

    def test_evaluate_accuracy_range(self, trained_setup):
        model, x, y = trained_setup
        qnet = QuantizedNetwork(model)
        qnet.calibrate(x[:16])
        acc = qnet.evaluate(x[:32], y[:32])
        assert 0.0 <= acc <= 1.0

    def test_uncalibrated_layer_rejected(self, trained_setup):
        model, x, _ = trained_setup
        qnet = QuantizedNetwork(model)
        with pytest.raises(QuantizationError):
            qnet.qconvs()[0].quantize_input(x[:1])


def _int64_pass(qnet, x):
    """Logits and per-conv int64 accumulators of the channels-first forward."""
    accs = {}

    def capture(acc, qc):
        accs[qc.name] = acc.copy()
        return acc

    qnet.set_injector(capture)
    try:
        return qnet.forward(x), accs
    finally:
        qnet.set_injector(None)


def _blas_pass(qnet, x):
    """Logits and per-conv accumulators of the channels-last BLAS walk."""
    accs = {}
    state = qnet._forward_nhwc(
        x, on_conv=lambda qc, acc, out: accs.__setitem__(qc.name, acc)
    )
    return _to_nchw(state).reshape(x.shape[0], -1), accs


class TestCleanEvaluationOracle:
    """Clean ``evaluate`` runs the exact channels-last BLAS walk; the int64
    ``forward`` (the serial injection oracle) must agree bit for bit on
    every conv family, the 1x1-lowered classifier head included."""

    @pytest.mark.parametrize(
        "recipe,family",
        [
            ("vgg16_cifar10", "dense"),
            ("resnet18_cifar10", "shortcut"),
            ("mobilenet_cifar10", "depthwise"),
        ],
    )
    def test_blas_walk_matches_int64_forward(self, recipe, family):
        bundle = get_bundle(recipe, MICRO)
        qnet, x, y = bundle.qnet, bundle.x_test, bundle.y_test
        convs = qnet.qconvs(include_shortcuts=True)
        head = convs[-1]
        assert head.name == "fc" and head.weight_q.shape[2:] == (1, 1)
        if family == "shortcut":
            assert any("shortcut" in qc.name for qc in convs)
        if family == "depthwise":
            assert any(qc.groups > 1 and qc.weight_q.shape[1] == 1 for qc in convs)

        ref_logits, ref_accs = _int64_pass(qnet, x)
        logits, accs = _blas_pass(qnet, x)
        assert np.array_equal(logits, ref_logits)
        assert list(accs) == list(ref_accs)
        for name, acc in ref_accs.items():
            assert np.array_equal(accs[name], acc), name

        def identity(acc, qc):  # any injector routes evaluate to forward
            return acc

        for batch_size, topk in ((128, 1), (7, 1), (64, 3)):
            clean = qnet.evaluate(x, y, topk=topk, batch_size=batch_size)
            oracle = qnet.evaluate(
                x, y, topk=topk, batch_size=batch_size, injector=identity
            )
            assert clean == oracle


#: Every recipe whose network is a conv network (the mixer is a token network).
CONV_RECIPES = sorted(name for name, (model, _) in MODEL_RECIPES.items() if model != "mixer")


class TestRecordingOnBlasWalk:
    """A conv network records its operand streams on the exact BLAS walk;
    the int64 forward, which recorded them before, is the oracle: every
    GEMM's int64 operand matrix must equal its own byte for byte (the
    matrices feed the job keys)."""

    @pytest.mark.parametrize("recipe", CONV_RECIPES)
    def test_streams_equal_the_int64_forward(self, recipe, monkeypatch):
        bundle = get_bundle(recipe, MICRO)
        qnet, x = bundle.qnet, bundle.test_images(8)[0]
        assert isinstance(qnet, QuantizedNetwork)

        def forbidden(*args, **kwargs):
            raise AssertionError("recording ran the int64 forward")

        with monkeypatch.context() as patch:
            patch.setattr(QuantizedNetwork, "forward", forbidden)
            streams = record_operand_streams(qnet, x)
        qnet.set_recording(True)
        try:
            qnet.forward(x)
            want = {op.name: op.recorded_cols for op in qnet.gemm_ops()}
        finally:
            qnet.set_recording(False)
        assert list(streams) == list(want)
        for name, cols in want.items():
            got = streams[name]
            assert got.dtype == cols.dtype == np.int64, name
            assert got.shape == cols.shape and got.flags.c_contiguous, name
            assert got.tobytes() == cols.tobytes(), name
        if recipe.startswith("mobilenet"):
            assert any(qc.groups > 1 for qc in qnet.qconvs())
