"""The one ``.npz`` decode path: :func:`repro.engine.cache.read_npz`.

Result entries, daemon result frames and trained-state files all decode
through ``read_npz``, which parses each distinct ``.npy`` header once
per process and returns read-only views of the member bytes.
``np.load(..., allow_pickle=False)`` is its oracle: for every array
kind the result serializers and ``save_model_state`` write, stored or
deflated, the decoded arrays must match it in dtype, shape, memory
layout and bytes.  Malformed members must raise one of the cache's
decode errors, so a damaged entry stays a miss, and trained-state files
in the earlier deflated format must restore exactly what the stored
format does.
"""

import io
import zipfile

import numpy as np
import pytest

from repro.engine.cache import _DECODE_ERRORS, _npy_header, read_npz
from repro.experiments.common import load_model_state, save_model_state
from repro.nn.datasets import load_dataset
from repro.nn.layers import BatchNorm2d
from repro.nn.models import build_model
from repro.nn.quantize import CALIBRATION_VERSION, quantize_model

_RNG = np.random.default_rng(19)

#: Every array kind the result serializers and ``save_model_state`` write.
ARRAY_KINDS = {
    "float64": np.array([0.25, -0.0, np.inf, np.nan, 5e-324]),
    "int64": np.arange(-3, 5, dtype=np.int64),
    "float64_0d": np.array(0.1),
    "int64_0d": np.array(-7, dtype=np.int64),
    "unicode": np.array(["vector", "reorder_then_cluster", ""]),
    "unicode_0d": np.array("sim"),
    "int64_2d": np.arange(12, dtype=np.int64).reshape(3, 4) - 6,
    "fortran": np.asfortranarray(_RNG.integers(-(2**40), 2**40, size=(3, 5))),
    "empty": np.zeros(0),
    "empty_2d": np.zeros((0, 3), dtype=np.int64),
    "conv_weight": _RNG.normal(size=(4, 3, 3, 3)),
}

COMPRESSION = pytest.mark.parametrize("compressed", [False, True], ids=["stored", "deflated"])


def npz_bytes(arrays, compressed):
    buf = io.BytesIO()
    (np.savez_compressed if compressed else np.savez)(buf, **arrays)
    return buf.getvalue()


def oracle(blob):
    with np.load(io.BytesIO(blob), allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def member(raw):
    """A one-member archive holding ``raw`` as ``x.npy`` (valid CRC)."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as archive:
        archive.writestr("x.npy", raw)
    return buf.getvalue()


class TestDifferential:
    @COMPRESSION
    @pytest.mark.parametrize("kind", sorted(ARRAY_KINDS))
    def test_matches_np_load(self, kind, compressed):
        blob = npz_bytes({kind: ARRAY_KINDS[kind]}, compressed)
        (want,) = oracle(blob).values()
        got = read_npz(io.BytesIO(blob))[kind]
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes(order="A") == want.tobytes(order="A")
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert not got.flags.writeable
        if got.size:
            with pytest.raises(ValueError):
                got.flat[0] = got.flat[0]

    @COMPRESSION
    def test_every_member_once_in_archive_order(self, compressed):
        blob = npz_bytes(ARRAY_KINDS, compressed)
        got = read_npz(io.BytesIO(blob))
        want = oracle(blob)
        assert list(got) == list(want) == list(ARRAY_KINDS)
        for name in want:
            assert got[name].tobytes(order="A") == want[name].tobytes(order="A")

    @COMPRESSION
    def test_object_member_raises(self, compressed):
        blob = npz_bytes({"ok": np.arange(3), "obj": np.array([{"a": 1}, None])}, compressed)
        with pytest.raises(ValueError):
            oracle(blob)
        with pytest.raises(ValueError):
            read_npz(io.BytesIO(blob))

    def test_each_distinct_header_is_parsed_once(self):
        blob = npz_bytes({"a": np.arange(3.0), "b": np.ones(3), "c": np.arange(4.0)}, False)
        _npy_header.cache_clear()
        read_npz(io.BytesIO(blob))
        read_npz(io.BytesIO(blob))
        info = _npy_header.cache_info()
        assert (info.misses, info.hits) == (2, 4)


def _npy(header: bytes, payload: bytes = b"", version: bytes = b"\x01\x00") -> bytes:
    length = len(header).to_bytes(2 if version[0] == 1 else 4, "little")
    return b"\x93NUMPY" + version + length + header + payload


_GOOD = b"{'descr': '<i8', 'fortran_order': False, 'shape': (2,), }\n"


class TestMalformed:
    """Members with a valid CRC but a bad ``.npy`` body: decode errors."""

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(b"", id="empty"),
            pytest.param(b"\x93NUMPY", id="magic-only"),
            pytest.param(b"PK\x03\x04not an npy", id="not-npy"),
            pytest.param(_npy(_GOOD, bytes(16), b"\x03\x00"), id="version-3.0"),
            pytest.param(_npy(_GOOD, bytes(16), b"\x01\x01"), id="version-1.1"),
            pytest.param(_npy(_GOOD, bytes(15)), id="short-payload"),
            pytest.param(_npy(_GOOD, bytes(17)), id="long-payload"),
            pytest.param(_npy(_GOOD)[:-9], id="truncated-header"),
            pytest.param(_npy(b"[1, 2]\n", bytes(16)), id="not-a-dict"),
            pytest.param(_npy(_GOOD.replace(b"(2,)", b"(-2,)"), bytes(16)), id="negative-dim"),
            pytest.param(_npy(_GOOD.replace(b"<i8", b"<q9"), bytes(16)), id="bad-descr"),
            pytest.param(_npy(_GOOD.replace(b"(2,)", b"((2,"), bytes(16)), id="unbalanced"),
            pytest.param(_npy(_GOOD.replace(b"False", b"'''"), bytes(16)), id="open-string"),
            pytest.param(_npy(_GOOD.replace(b"<i8", b"|O"), bytes(16)), id="object"),
        ],
    )
    def test_raises_a_decode_error(self, raw):
        with pytest.raises(_DECODE_ERRORS):
            read_npz(io.BytesIO(member(raw)))

    def test_well_formed_control(self):
        (got,) = read_npz(io.BytesIO(member(_npy(_GOOD, np.arange(2).tobytes())))).values()
        assert got.tolist() == [0, 1]


class TestTrainedStateFiles:
    def test_deflated_and_stored_files_restore_the_same_state(self, tmp_path):
        model = build_model("resnet18", n_classes=10, width=0.125, seed=3)
        rng = np.random.default_rng(3)
        for module in model.modules():
            if isinstance(module, BatchNorm2d):
                module.running_mean[...] = rng.normal(size=module.running_mean.shape)
                module.running_var[...] = rng.uniform(0.5, 2.0, size=module.running_var.shape)
        qnet = quantize_model(model)
        qnet.calibrate(load_dataset("cifar10_like").train_split(16)[0])
        calibration = qnet.calibration()
        assert any("shortcut" in name for name in calibration)

        stored = tmp_path / "stored.npz"
        save_model_state(model, stored, calibration)
        # The earlier on-disk format: the same members, deflated.
        deflated = tmp_path / "deflated.npz"
        members = oracle(stored.read_bytes())
        assert int(members["calibration_version"]) == CALIBRATION_VERSION
        np.savez_compressed(deflated, **members)
        for path, method in ((stored, zipfile.ZIP_STORED), (deflated, zipfile.ZIP_DEFLATED)):
            with zipfile.ZipFile(path) as archive:
                assert {info.compress_type for info in archive.infolist()} == {method}

        def state(net):
            arrays = [p.data for p in net.parameters()]
            for module in net.modules():
                if isinstance(module, BatchNorm2d):
                    arrays += [module.running_mean, module.running_var]
            return arrays

        for path in (stored, deflated):
            fresh = build_model("resnet18", n_classes=10, width=0.125, seed=4)
            restored = load_model_state(fresh, path)
            for got, want in zip(state(fresh), state(model), strict=True):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert sorted(restored) == sorted(calibration)
            for name, values in calibration.items():
                assert restored[name].dtype == values.dtype
                assert restored[name].tobytes() == values.tobytes()
