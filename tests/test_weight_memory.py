"""What a process holds per network: each weight tensor once.

READ only reorders the MACs of fixed integer weights, so a loaded
network needs its float parameters, its narrow quantized weights, the
float copy its exact BLAS walk multiplies, and one int64 lowering per
GEMM op, shared by the int64 reference GEMM and every simulation job.
These tests pin that nothing else survives: no gradient buffer, no
BN-folded float copy once an op is calibrated, no per-job or
per-experiment int64 lowering, no int64 ``weight_q``, and no backward
cache once training returns or after any inference pass — with
tracemalloc bounds on loading the four micro paper bundles, on training
one and on evaluating a float model.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.experiments import common, fig2, fig7, fig8
from repro.experiments.common import (
    MODEL_RECIPES,
    SCALES,
    bundle_ter_batch,
    get_bundle,
)
from repro.hw.variations import PAPER_CORNERS
from repro.errors import TrainingError
from repro.nn.datasets import DatasetSpec, SyntheticImageDataset, load_dataset
from repro.nn.layers import BatchNorm2d, Module
from repro.nn.models import build_model
from repro.nn.quantize import QuantizedConv, QuantizedMatmul, quantize_model, quantize_weights
from repro.nn.training import Trainer

MICRO = SCALES["micro"]
PAPER = ("vgg16_cifar10", "resnet18_cifar10", "vgg16_cifar100", "resnet34_imagenet32")

#: tracemalloc bound on the four micro paper bundles, reloaded, with two
#: experiments' layer-TER batches built over them.  Measured: 26.8 MB
#: (the parameters 8 MB, one int64 lowering 8 MB, the float32 BLAS
#: weights 4 MB, the recorded operand streams); 57.0 MB while every
#: bundle kept gradient buffers, int64 and BN-folded float weight copies
#: and each batch built its own lowering.
LOADED_BOUND_MB = 40

#: tracemalloc bound after ``get_bundle`` trains a micro ResNet-34.
#: Measured: 6.2 MB; 309.8 MB while the float model kept the last
#: batch's im2col columns, BatchNorm caches and ReLU masks.
TRAINED_BOUND_MB = 24

#: tracemalloc bound after ``Trainer.evaluate`` of 64 32x32 images on a
#: width-0.125 ResNet-18.  Measured: 0.0 MB; 326.4 MB while every module
#: kept its backward state (the im2col columns above all) in eval mode.
EVAL_BOUND_MB = 8


def _backward_state(model: Module):
    """Every ``(module, attr)`` still holding backward state, and every gradient."""
    held = [
        (type(module).__name__, attr)
        for module in model.modules()
        for attr in Module._BACKWARD_STATE
        if getattr(module, attr, None) is not None
    ]
    held += [p.name for p in model.parameters() if p._grad is not None]
    return held


@pytest.fixture
def reloaded(monkeypatch):
    """Reload bundles from their trained-state files, as a fresh process would."""
    for recipe in PAPER:
        get_bundle(recipe, MICRO)  # train once if no state file exists yet
    monkeypatch.setattr(common, "_BUNDLE_CACHE", {})
    gc.collect()


class TestNoGradientBuffers:
    def test_a_loaded_bundle_holds_no_gradient_buffer(self, reloaded):
        bundle = get_bundle("resnet18_cifar10", MICRO)
        params = list(bundle.model.parameters())
        assert params and all(p._grad is None for p in params)

    def test_gradient_is_allocated_on_first_use_and_freed_by_none(self):
        model = build_model("resnet18", n_classes=3, width=0.0625, seed=0)
        p = next(iter(model.parameters()))
        p.zero_grad()
        assert p._grad is None
        p.grad += 1.0
        assert p._grad.shape == p.data.shape and np.all(p.grad == 1.0)
        p.zero_grad()
        assert np.all(p.grad == 0.0)
        p.grad = None
        assert p._grad is None


class TestTrainingLeavesNoBackwardState:
    def test_fit_drops_every_cache_and_gradient(self):
        ds = SyntheticImageDataset(DatasetSpec(name="t", n_classes=3, image_size=32))
        x, y = ds.sample(32, stream_seed=0)
        for name in ("resnet18", "vgg16", "mixer"):
            model = build_model(name, n_classes=3, width=0.0625, seed=0)
            Trainer(model, lr=0.02, batch_size=32, seed=0).fit(x, y, epochs=1)
            assert _backward_state(model) == [], name

    def test_training_a_bundle_leaves_a_bounded_heap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        monkeypatch.setattr(common, "_BUNDLE_CACHE", {})
        gc.collect()
        tracemalloc.start()
        try:
            bundle = get_bundle("resnet34_imagenet32", MICRO)
            gc.collect()
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traced / 1e6 < TRAINED_BOUND_MB, f"{traced / 1e6:.1f} MB traced"
        assert (tmp_path / "resnet34_imagenet32-micro-w0.125-n192-e1-s0.npz").exists()
        assert _backward_state(bundle.model) == []


class TestInferenceKeepsNoBackwardState:
    @pytest.fixture(scope="class")
    def images(self):
        ds = SyntheticImageDataset(DatasetSpec(name="t", n_classes=10, image_size=32))
        return ds.sample(64, stream_seed=0)

    def test_evaluate_leaves_a_bounded_heap(self, images):
        model = build_model("resnet18", n_classes=10, width=0.125, seed=0)
        gc.collect()
        tracemalloc.start()
        try:
            Trainer(model, seed=0).evaluate(*images)
            gc.collect()
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traced / 1e6 < EVAL_BOUND_MB, f"{traced / 1e6:.1f} MB traced"

    @pytest.mark.parametrize("name", ["resnet18", "vgg16", "mobilenet", "mixer"])
    def test_eval_forward_keeps_nothing_and_changes_no_bit(self, images, name):
        x, _ = images
        model = build_model(name, n_classes=10, width=0.125, seed=0)
        model.forward(x[:8])  # training mode: every module caches
        assert _backward_state(model)
        logits = model.eval().forward(x)
        assert _backward_state(model) == []
        with pytest.raises(TrainingError, match="backward called before forward"):
            model.backward(np.ones_like(logits))
        # Flagged as training, every module but batch norm (whose
        # statistics read the mode) caches as in a training step: the
        # logits are the same bytes.
        for module in model.modules():
            module.training = not isinstance(module, BatchNorm2d)
        assert model.forward(x).tobytes() == logits.tobytes()
        assert _backward_state(model)


class TestCalibratedOpsHoldNoFloatWeights:
    @pytest.mark.parametrize("recipe", ["resnet18_cifar10", "mobilenet_cifar10", "mixer_cifar10"])
    def test_calibrate_and_restore_drop_the_float_copy(self, recipe):
        bundle = get_bundle(recipe, MICRO)
        fresh = quantize_model(bundle.model)
        static = [op for op in fresh.gemm_ops() if hasattr(op, "weight_float")]
        assert static and all(op.weight_float is not None for op in static)
        x_train, _ = load_dataset(MODEL_RECIPES[recipe][1]).train_split(MICRO.n_train)
        fresh.calibrate(x_train[:64])
        restored = quantize_model(bundle.model)
        restored.restore_calibration(fresh.calibration())
        for qnet in (fresh, restored, bundle.qnet):
            ops = [op for op in qnet.gemm_ops() if isinstance(op, (QuantizedConv, QuantizedMatmul))]
            if hasattr(qnet, "qconvs"):
                ops += qnet.qconvs(include_shortcuts=True)
            assert ops and all(op.weight_float is None for op in ops)


class TestNarrowQuantizedWeights:
    @pytest.mark.parametrize("bits, dtype", [(2, np.int8), (8, np.int8), (9, np.int16), (16, np.int16)])
    def test_weight_q_is_narrow_and_equal_to_quantize_weights(self, bits, dtype):
        rng = np.random.default_rng(bits)
        weight = rng.normal(size=(8, 6, 3, 3))
        qc = QuantizedConv("c", weight, np.zeros(8), 1, 1, act_bits=bits, weight_bits=bits, groups=2)
        w_q, scale = quantize_weights(weight, n_bits=bits)
        assert w_q.dtype == np.int64
        assert qc.weight_q.dtype == dtype and not qc.weight_q.flags.writeable
        assert np.array_equal(qc.weight_q, w_q) and qc.w_scale == scale
        lowered = qc.lowered_group_weights()
        for g, w in enumerate(lowered):
            assert w.dtype == np.int64 and w.flags.c_contiguous and not w.flags.writeable
            assert np.array_equal(w, w_q[g * 4 : (g + 1) * 4].reshape(4, -1).T)
        q_max = (1 << bits) - 1
        assert qc.acc_bound() == q_max * int(np.abs(w_q).reshape(8, -1).sum(axis=1).max())

    def test_bundle_layers_follow_their_bit_widths(self):
        bundle = get_bundle("vgg16_cifar10", MICRO)
        qnet = quantize_model(bundle.model, bits_per_layer={"fc": 12, "conv0": 4})
        for qc in qnet.qconvs(include_shortcuts=True):
            bits = qnet.layer_bits(qc.name)
            assert qc.weight_q.dtype == (np.int8 if bits <= 8 else np.int16)
        assert {qnet.layer_bits(qc.name) for qc in qnet.qconvs()} >= {4, 8, 12}


class TestOneLoweringPerOp:
    def test_every_job_shares_its_ops_read_only_lowering(self):
        batches = {
            "fig2": next(fig2.steps(MICRO)),
            "fig7": next(fig7.steps(MICRO)),
            "fig8": next(fig8.steps(MICRO)),
            "bundle_ter_batch": bundle_ter_batch(
                get_bundle("vgg16_cifar10", MICRO), PAPER_CORNERS
            ).jobs,
        }
        lowered = [
            w
            for bundle in common._BUNDLE_CACHE.values()
            for op in bundle.qnet.gemm_ops()
            if hasattr(op, "lowered_group_weights")  # not the dynamic matmuls
            for w in op.lowered_group_weights()
        ]
        for name, jobs in batches.items():
            assert jobs, name
            for job in jobs:
                assert not job.weights.flags.writeable, (name, job.label)
                owners = [w for w in lowered if np.shares_memory(job.weights, w)]
                assert len(owners) == 1, (name, job.label)
        # fig7's layer is measured by every one of these experiments, each
        # under several strategies: one buffer serves them all.
        fig7_layer = get_bundle("vgg16_cifar10", MICRO).qnet.qconvs()[6]
        (buffer,) = fig7_layer.lowered_group_weights()
        for name, jobs in batches.items():
            sharing = [job for job in jobs if np.shares_memory(job.weights, buffer)]
            assert len(sharing) >= 3, name

    def test_reference_gemm_reads_the_same_lowering(self):
        bundle = get_bundle("mobilenet_cifar10", MICRO)
        qc = next(qc for qc in bundle.qnet.qconvs() if qc.groups > 1)
        before = qc.lowered_group_weights()
        bundle.qnet.forward(bundle.test_images(2)[0])  # the int64 GEMM
        assert len(before) == qc.groups
        assert all(a is b for a, b in zip(before, qc._lowered))
        assert all(a is b for a, b in zip(before, qc.lowered_group_weights()))


def test_loading_the_paper_bundles_holds_each_weight_once(reloaded):
    tracemalloc.start()
    try:
        bundles = [get_bundle(recipe, MICRO) for recipe in PAPER]
        batches = [
            bundle_ter_batch(bundle, PAPER_CORNERS) for _ in range(2) for bundle in bundles
        ]
        gc.collect()
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(batch.jobs) for batch in batches) > 0
    assert traced / 1e6 < LOADED_BOUND_MB, f"{traced / 1e6:.1f} MB traced"
