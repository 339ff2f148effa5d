"""The trained-state file: parameters plus calibration observations.

A bundle reload restores the quantizer's activation scales from the
observations stored beside the trained parameters instead of re-running
the float calibration pass, draws only the test split, and records each
operand stream once.  These tests pin that the restored state equals a
fresh calibration bit for bit, that a warm reload does none of the
skipped work, that older parameters-only files are upgraded once, and
that importing the CLI does not load ``scipy``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.experiments import common, fig2, fig7, fig9
from repro.experiments.common import (
    MODEL_RECIPES,
    SCALES,
    get_bundle,
    record_operand_streams,
    save_model_state,
)
from repro.nn.datasets import SyntheticImageDataset, load_dataset
from repro.nn.quantize import (
    CALIBRATION_VERSION,
    QuantizedDynamicMatmul,
    QuantizedNetwork,
    QuantizedTokenNetwork,
    quantize_model,
)

MICRO = SCALES["micro"]
RECIPE = "vgg16_cifar10"

#: Every attribute the calibration fixes, across the three GEMM op kinds.
_CALIBRATED = ("in_scale", "act_signed", "a_scale", "b_scale", "a_signed", "b_signed", "_k")


def calibrated_state(qnet):
    """``{op: {attr: value}}`` of every op the calibration pass fixes."""
    ops = qnet.qconvs(include_shortcuts=True) or qnet.gemm_ops()
    return {
        op.name: {attr: getattr(op, attr) for attr in _CALIBRATED if hasattr(op, attr)}
        for op in ops
    }


def calibration_batch(recipe):
    """The batch ``get_bundle`` calibrates on: the training split's first 64."""
    x_train, _ = load_dataset(MODEL_RECIPES[recipe][1]).train_split(MICRO.n_train)
    return x_train[:64]


class TestRestoredCalibration:
    @pytest.mark.parametrize(
        "recipe",
        ["vgg16_cifar10", "resnet18_cifar10", "mobilenet_cifar10", "mixer_cifar10"],
    )
    def test_restore_equals_a_fresh_calibration(self, recipe):
        bundle = get_bundle(recipe, MICRO)
        fresh = quantize_model(bundle.model)
        fresh.calibrate(calibration_batch(recipe))
        observations = fresh.calibration()
        names = set(observations)
        if recipe == "resnet18_cifar10":
            assert any("shortcut" in name for name in names)
        if recipe == "mobilenet_cifar10":
            assert any(qc.groups > 1 for qc in fresh.qconvs())
        if recipe == "mixer_cifar10":
            assert any(isinstance(op, QuantizedDynamicMatmul) for op in fresh.gemm_ops())

        restored = quantize_model(bundle.model)
        restored.restore_calibration(observations)
        expected = calibrated_state(fresh)
        assert calibrated_state(restored) == expected
        # The bundle's own network came through get_bundle: restored from
        # its state file, or calibrated in this process.
        assert calibrated_state(bundle.qnet) == expected
        x = bundle.x_test[:8]
        assert np.array_equal(restored.forward(x), fresh.forward(x))

        # The observations do not depend on the bit widths: one stored
        # set serves every precision variant.
        fresh6 = quantize_model(bundle.model, default_bits=6)
        fresh6.calibrate(calibration_batch(recipe))
        restored6 = quantize_model(bundle.model, default_bits=6)
        restored6.restore_calibration(observations)
        assert calibrated_state(restored6) == calibrated_state(fresh6)
        assert np.array_equal(restored6.forward(x), fresh6.forward(x))

    @pytest.mark.parametrize("network", [QuantizedNetwork, QuantizedTokenNetwork])
    def test_calibration_requires_a_calibrated_network(self, network):
        recipe = "mixer_cifar10" if network is QuantizedTokenNetwork else RECIPE
        qnet = network(get_bundle(recipe, MICRO).model)
        with pytest.raises(QuantizationError):
            qnet.calibration()

    def test_restore_rejects_missing_ops(self):
        bundle = get_bundle(RECIPE, MICRO)
        observations = bundle.qnet.calibration()
        del observations["fc"]
        with pytest.raises(QuantizationError, match="fc"):
            quantize_model(bundle.model).restore_calibration(observations)


@pytest.fixture
def legacy_cache(tmp_path, monkeypatch):
    """A fresh cache holding a parameters-only VGG state file.

    Written by :func:`save_model_state` without ``calibration``, as older
    versions and the campaign/arena test fixtures write it.
    """
    trained = get_bundle(RECIPE, MICRO)
    state = tmp_path / (
        f"{RECIPE}-{MICRO.name}-w{MICRO.width}-n{MICRO.n_train}-e{MICRO.epochs}-s0.npz"
    )
    save_model_state(trained.model, state)
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    monkeypatch.setattr(common, "_BUNDLE_CACHE", {})
    return trained, state


def _forbidden(*args, **kwargs):
    raise AssertionError("a warm bundle reload must not get here")


class TestBundleReload:
    def test_legacy_state_file_is_upgraded_once(self, legacy_cache, monkeypatch):
        trained, state = legacy_cache
        with np.load(state) as data:
            assert "calibration_version" not in data.files
        calls = []
        calibrate = QuantizedNetwork.calibrate

        def counted(self, x):
            calls.append(x.shape[0])
            return calibrate(self, x)

        monkeypatch.setattr(QuantizedNetwork, "calibrate", counted)
        first = get_bundle(RECIPE, MICRO)
        assert calls == [64]
        with np.load(state) as data:
            assert int(data["calibration_version"]) == CALIBRATION_VERSION

        monkeypatch.setattr(common, "_BUNDLE_CACHE", {})
        second = get_bundle(RECIPE, MICRO)
        assert calls == [64]  # the upgraded file restores, no second pass
        assert calibrated_state(first.qnet) == calibrated_state(trained.qnet)
        assert calibrated_state(second.qnet) == calibrated_state(trained.qnet)
        assert second.quant_accuracy == first.quant_accuracy == trained.quant_accuracy

    def test_warm_reload_neither_calibrates_nor_draws_training_data(
        self, legacy_cache, monkeypatch
    ):
        trained, _ = legacy_cache
        get_bundle(RECIPE, MICRO)  # upgrade the file
        monkeypatch.setattr(common, "_BUNDLE_CACHE", {})
        monkeypatch.setattr(QuantizedNetwork, "calibrate", _forbidden)
        monkeypatch.setattr(SyntheticImageDataset, "train_split", _forbidden)

        warm = get_bundle(RECIPE, MICRO)
        assert np.array_equal(warm.x_test, trained.x_test)
        assert np.array_equal(warm.y_test, trained.y_test)
        assert warm.quant_accuracy == trained.quant_accuracy
        x = trained.x_test[:4]
        assert np.array_equal(warm.qnet.forward(x), trained.qnet.forward(x))
        # A precision variant restores from the same stored observations.
        variant = get_bundle(RECIPE, MICRO, bits_per_layer={"conv0": 4})
        assert variant.qnet.qconvs()[0].act_bits == 4


class TestSharedStreams:
    @pytest.mark.parametrize("recipe", [RECIPE, "mixer_cifar10"])
    def test_read_only_and_equal_to_a_fresh_recording(self, recipe):
        bundle = get_bundle(recipe, MICRO)
        shared = bundle.operand_streams(MICRO.ter_images)
        assert bundle.operand_streams(MICRO.ter_images) is shared
        fresh = record_operand_streams(bundle.qnet, bundle.x_test[: MICRO.ter_images])
        assert list(shared) == list(fresh)
        for name, value in shared.items():
            arrays = value if isinstance(value, tuple) else (value,)
            expected = fresh[name] if isinstance(value, tuple) else (fresh[name],)
            assert len(arrays) == len(expected)
            for arr, ref in zip(arrays, expected):
                assert not arr.flags.writeable
                assert arr.dtype.itemsize <= 2 < ref.dtype.itemsize  # kept narrow
                assert np.array_equal(arr, ref)
        first = next(iter(shared.values()))
        with pytest.raises(ValueError):
            (first[0] if isinstance(first, tuple) else first)[...] = 0

    def test_runners_record_each_bundle_once(self, monkeypatch):
        monkeypatch.setattr(common, "_BUNDLE_CACHE", {})
        calls = []
        record = common.record_operand_streams

        def counted(qnet, x_images):
            calls.append(x_images.shape[0])
            return record(qnet, x_images)

        monkeypatch.setattr(common, "record_operand_streams", counted)
        fig2.plan(MICRO)
        fig7.plan(MICRO)
        fig9.run(MICRO)
        assert calls == [MICRO.ter_images]  # fig9 reads 1 image, micro records 1


def test_cli_import_does_not_load_scipy():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
