"""The one ``.npz`` decode path: :func:`repro.engine.cache.read_npz`.

Result entries, daemon result frames and trained-state files all decode
through ``read_npz``, which walks the zip central directory itself,
parses each distinct ``.npy`` header once per process and returns
read-only views of the member bytes.  ``np.load(..., allow_pickle=False)``
is its oracle: for every array kind the result serializers and
``save_model_state`` write, stored or deflated, the decoded arrays must
match it in dtype, shape, memory layout and bytes.  On any input at all
the decoder either returns exactly ``np.load``'s arrays or raises one of
the cache's decode errors, so a damaged entry stays a miss: crafted
archives (comments, data descriptors, zip64 records, bad CRCs, renamed
headers, malformed members) and a seeded single-byte-flip fuzz of real
entries check that.  Trained-state files in the earlier deflated format
must restore exactly what the stored format does.  The one writer,
:func:`~repro.engine.cache.npz_bytes`, builds stored archives both
readers decode alike, and :meth:`~repro.engine.cache.ResultCache.store`
writes each in one ``write``.
"""

import io
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import MappingStrategy
from repro.engine import ResultCache, SimEngine, SimJob
from repro.engine import cache as cache_module
from repro.engine.cache import _DECODE_ERRORS, _npy_header, read_npz
from repro.engine.cache import npz_bytes as write_npz
from repro.experiments.common import load_model_state, save_model_state
from repro.nn.datasets import load_dataset
from repro.nn.layers import BatchNorm2d
from repro.nn.models import build_model
from repro.hw import TER_EVAL_CORNER
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


def decodes_like_np_load(blob):
    """The decoder's contract on any bytes: ``np.load``'s arrays, or a decode error.

    Returns whether it decoded.  The oracle runs only when the decoder
    accepts, so whatever it accepts ``np.load`` must accept too.
    """
    try:
        got = read_npz(io.BytesIO(blob))
    except _DECODE_ERRORS:
        return False
    want = oracle(blob)
    assert list(got) == list(want)
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype, name
        assert got[name].shape == arr.shape, name
        assert got[name].tobytes(order="A") == arr.tobytes(order="A"), name
    return True


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
        assert not decodes_like_np_load(member(raw))

    def test_well_formed_control(self):
        (got,) = read_npz(io.BytesIO(member(_npy(_GOOD, np.arange(2).tobytes())))).values()
        assert got.tolist() == [0, 1]


def local_header(blob, index=0):
    """Offset of the ``index``-th local file header."""
    at = -1
    for _ in range(index + 1):
        at = blob.index(b"PK\x03\x04", at + 1)
    return at


def central_record(blob, index=0):
    """Offset of the ``index``-th central-directory record."""
    at = -1
    for _ in range(index + 1):
        at = blob.index(b"PK\x01\x02", at + 1)
    return at


def patched(blob, at, value):
    out = bytearray(blob)
    out[at : at + len(value)] = value
    return bytes(out)


def written(arrays, *, comment=b"", seekable=True, compression=zipfile.ZIP_STORED):
    """An archive written through ``zipfile`` (np.savez's own writer)."""

    class Unseekable(io.BytesIO):
        def seek(self, *args):
            raise OSError("not seekable")

    buf = io.BytesIO() if seekable else Unseekable()
    with zipfile.ZipFile(buf, "w", compression=compression) as archive:
        for name, arr in arrays.items():
            npy = io.BytesIO()
            np.lib.format.write_array(npy, arr)
            archive.writestr(name + ".npy", npy.getvalue())
        archive.comment = comment
    return buf.getvalue()


#: Two members, one of each dtype kind a result entry holds.
PAIR = {"acc": np.arange(6.0).reshape(2, 3), "names": np.array(["vector", "ref"])}


class TestArchiveStructure:
    """Zip layouts the decoder reads as np.load does, and damage it refuses."""

    def test_archive_comment(self):
        blob = written(PAIR, comment=b"a comment, not a member")
        assert blob.endswith(b"a comment, not a member")
        assert decodes_like_np_load(blob)

    @pytest.mark.parametrize("compression", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED])
    def test_data_descriptor_members(self, compression):
        blob = written(PAIR, seekable=False, compression=compression)
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            assert all(info.flag_bits & 0x08 for info in archive.infolist())
        # The local headers hold no sizes: the directory's must be used.
        assert struct.unpack_from("<2L", blob, local_header(blob) + 18) == (0, 0)
        assert decodes_like_np_load(blob)

    @COMPRESSION
    def test_zip64_local_headers(self, compressed):
        blob = npz_bytes(PAIR, compressed)
        at = local_header(blob)
        assert struct.unpack_from("<2L", blob, at + 18) == (0xFFFFFFFF, 0xFFFFFFFF)
        (n_extra,) = struct.unpack_from("<H", blob, at + 28)
        assert n_extra and decodes_like_np_load(blob)

    def test_zip64_end_records(self, monkeypatch):
        monkeypatch.setattr(zipfile, "ZIP_FILECOUNT_LIMIT", 1)
        blob = written(PAIR)
        assert b"PK\x06\x06" in blob and b"PK\x06\x07" in blob
        assert decodes_like_np_load(blob)

    @COMPRESSION
    def test_crc_mismatch_is_refused(self, compressed):
        blob = npz_bytes(PAIR, compressed)
        crc = central_record(blob) + 16
        (value,) = struct.unpack_from("<L", blob, crc)
        bad = patched(blob, crc, struct.pack("<L", value ^ 1))
        with pytest.raises(zipfile.BadZipFile, match="CRC"):
            read_npz(io.BytesIO(bad))
        with pytest.raises(zipfile.BadZipFile):
            oracle(bad)

    def test_payload_damage_is_refused(self):
        blob = npz_bytes(PAIR, False)
        last = blob.index(b"PK\x03\x04", local_header(blob) + 1) - 1  # member 0's last byte
        assert not decodes_like_np_load(patched(blob, last, bytes([blob[last] ^ 0x10])))

    def test_local_and_central_names_must_match(self):
        blob = npz_bytes(PAIR, False)
        name = local_header(blob) + 30
        assert blob[name : name + 7] == b"acc.npy"
        bad = patched(blob, name, b"b")  # the header now names "bcc.npy"
        with pytest.raises(zipfile.BadZipFile, match="differ"):
            read_npz(io.BytesIO(bad))
        with pytest.raises(zipfile.BadZipFile):
            oracle(bad)

    def test_member_overlapping_the_next_is_refused(self):
        blob = npz_bytes(PAIR, True)
        size = central_record(blob) + 20
        (value,) = struct.unpack_from("<L", blob, size)
        bad = patched(blob, size, struct.pack("<L", value + 40))
        with pytest.raises(zipfile.BadZipFile, match="overlaps"):
            read_npz(io.BytesIO(bad))

    def test_not_a_zip_is_refused(self):
        for blob in (b"", b"PK\x05\x06", b"\x93NUMPY" + bytes(64)):
            with pytest.raises(_DECODE_ERRORS):
                read_npz(io.BytesIO(blob))

    def test_tracked_deflated_trained_state_files(self):
        paths = sorted((Path(__file__).resolve().parents[1] / ".cache").glob("*-tiny-*.npz"))
        assert len(paths) >= 4
        for path in paths:
            with zipfile.ZipFile(path) as archive:
                assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}
            assert decodes_like_np_load(path.read_bytes()), path


def _result_entry(tmp_path):
    """A real result entry, as ``ResultCache.store`` writes it (stored)."""
    rng = np.random.default_rng(5)
    job = SimJob(
        acts=rng.integers(0, 256, size=(6, 8)),
        weights=rng.integers(-128, 128, size=(8, 4)),
        corners=(TER_EVAL_CORNER,),
        group_size=4,
        strategy=MappingStrategy.BASELINE,
    )
    result = SimEngine(backend="vector", use_cache=False).run(job)
    return ResultCache(tmp_path).store(job.key(), job, result).read_bytes()


def _trained_state_like():
    """Members as ``save_model_state`` writes them (stored, zip64 local headers)."""
    return npz_bytes(
        {
            "p0": np.linspace(-1, 1, 12).reshape(3, 4),
            "rm0": np.zeros(3),
            "calibration_version": np.array(CALIBRATION_VERSION),
            "calibration.conv1": np.array([2.5]),
        },
        False,
    )


class TestSingleByteFlips:
    """Every byte of a real entry, XORed with a seeded nonzero mask."""

    @pytest.mark.parametrize("kind", ["result-entry", "trained-state"])
    def test_each_flip_decodes_like_np_load_or_is_refused(self, kind, tmp_path):
        blob = _result_entry(tmp_path) if kind == "result-entry" else _trained_state_like()
        assert decodes_like_np_load(blob)
        masks = np.random.default_rng(23).integers(1, 256, size=len(blob))
        decoded = sum(
            decodes_like_np_load(patched(blob, at, bytes([blob[at] ^ int(masks[at])])))
            for at in range(len(blob))
        )
        # Flips in fields zipfile ignores (times, versions, local sizes)
        # still decode; most damage is refused.
        assert 0 < decoded < len(blob) // 2


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


class TestWriter:
    """``npz_bytes``: result entries and daemon frames, stored, in memory."""

    def test_every_array_kind_reads_back_like_np_load(self):
        blob = write_npz(ARRAY_KINDS)
        assert decodes_like_np_load(blob)
        got = read_npz(io.BytesIO(blob))
        assert list(got) == list(ARRAY_KINDS)
        for name, want in ARRAY_KINDS.items():
            assert got[name].dtype == want.dtype and got[name].shape == want.shape
            assert got[name].tobytes("A") == want.tobytes("A")
            assert got[name].flags.f_contiguous == want.flags.f_contiguous
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            assert archive.testzip() is None
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}

    def test_equal_arrays_make_equal_bytes(self):
        copy = {name: np.array(arr, order="K") for name, arr in ARRAY_KINDS.items()}
        assert write_npz(ARRAY_KINDS) == write_npz(copy)

    def test_non_ascii_member_names(self):
        blob = write_npz({"größe": np.arange(3), "plain": np.zeros(2)})
        assert decodes_like_np_load(blob)
        assert list(read_npz(io.BytesIO(blob))) == ["größe", "plain"]


class TestLeanStore:
    """``ResultCache.store``: one write, mkdir only for a new shard, no
    unlink of a temp file ``os.replace`` consumed."""

    def _job_and_result(self):
        rng = np.random.default_rng(8)
        job = SimJob(
            acts=rng.integers(0, 256, size=(6, 8)),
            weights=rng.integers(-128, 128, size=(8, 4)),
            corners=(TER_EVAL_CORNER,),
            group_size=4,
            strategy=MappingStrategy.BASELINE,
        )
        return job, SimEngine(backend="vector", use_cache=False).run(job)

    def test_store_writes_one_stored_archive(self, tmp_path, monkeypatch):
        job, result = self._job_and_result()
        cache = ResultCache(tmp_path)
        writes = []
        real_open = open

        def counting_open(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            if str(path).endswith(".tmp"):
                write = handle.write
                handle = _Recorder(handle, lambda data: (writes.append(len(data)), write(data))[1])
            return handle

        monkeypatch.setattr(cache_module, "open", counting_open, raising=False)
        path = cache.store(job.key(), job, result)
        assert len(writes) == 1 and writes[0] == path.stat().st_size
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
        assert decodes_like_np_load(path.read_bytes())
        assert cache.load(job.key(), job) is not None

    def test_mkdir_and_unlink_only_when_needed(self, tmp_path, monkeypatch):
        job, result = self._job_and_result()
        cache = ResultCache(tmp_path)
        calls = []
        for name in ("mkdir", "unlink"):
            real = getattr(Path, name)

            def spy(self, *args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(Path, name, spy)
        cache.store(job.key(), job, result)
        assert calls == ["mkdir"]  # a new shard
        calls.clear()
        cache.store(job.key(), job, result)
        assert calls == []  # an existing shard, and the temp file was renamed
        monkeypatch.setattr(cache_module.os, "replace", _failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            cache.store(job.key(), job, result)
        assert calls == ["unlink"]
        assert not list(cache.path_for(job.key()).parent.glob("*.tmp"))


def _failing_replace(src, dst):
    raise OSError("replace failed")


class _Recorder:
    """A file handle whose ``write`` goes through ``write``."""

    def __init__(self, handle, write):
        self._handle, self.write = handle, write

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._handle.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._handle, name)
