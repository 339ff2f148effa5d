"""Content-addressed on-disk cache for engine job results.

Extends the repository's existing ``.cache/`` convention (which already
holds trained-model snapshots) with a ``sim-results/`` namespace: each
:class:`~repro.engine.job.EngineJob` result is stored as one ``.npz`` of
stored (uncompressed) members, built in memory by :func:`npz_bytes` and
written in one ``write``, under ``<root>/sim-results/<key[:2]>/<key>.npz``,
where ``key`` is the job's SHA-256 content hash (e.g.
:func:`~repro.engine.job.job_key` for :class:`~repro.engine.job.SimJob`).
Entries deflated by earlier versions still load.

The cache itself is kind-agnostic: each job class supplies its own
``serialize_result`` / ``deserialize_result`` pair, and entries carry a
``__kind__`` tag so a key collision across job kinds (or a stale entry
from an older layout) deserializes as a miss, never as garbage.  Payloads
are columnar by convention — packed numpy arrays, never per-item JSON —
which is what lets a 10^5-trial injection shard round-trip as a few
kilobytes (``InjectionResult``'s v4 per-trial count columns).

Properties the test suite relies on:

* **byte-identical round trips** — results are plain float64 / int64 /
  str fields plus exact integer matrices, all of which ``.npz`` preserves
  bit-for-bit, so a cache hit is indistinguishable from a cold run;
* **atomic writes** — entries are written to a temp file and
  ``os.replace``d into place, so concurrent readers never observe a
  partial entry;
* **self-invalidation** — the schema version participates in the job key
  and unreadable entries are treated as misses (and removed), so stale
  or corrupt files can only cost a re-simulation, never wrong results.

Since the serve-mode daemon made the store a genuinely *shared* resource
(many client processes and one resident server over a single directory),
the cache is additionally concurrency-safe:

* **per-shard advisory locks** — every mutation (``store``, ``clear``,
  ``gc``, corrupt-entry deletion) holds an ``fcntl`` lock on the
  two-hex-digit shard it touches, so writers never trample each other's
  temp files and ``clear()`` under concurrent writers never raises;
* **validated probes** — :meth:`ResultCache.has` is a size-and-magic
  check, so a zero-byte or truncated entry (a writer killed mid-write)
  probes as a miss instead of inflating recall counts;
* **garbage collection** — :meth:`ResultCache.gc` sweeps orphaned
  ``.tmp`` files (safe under the shard lock: a live writer would be
  holding it) and optionally enforces a size-bounded LRU eviction policy
  (recency = entry mtime, refreshed on every cache hit).

Reads go through one decode path: :func:`read_npz` reads every member
of an entry out of the archive exactly once and hands the job's
deserializer a plain dict; the daemon's result frames and the
trained-state files decode through the same helper.  Only the parsed
``.npy`` headers are memoized (a run meets a few dozen distinct ones
across thousands of members); results are not: the experiment drivers
submit each unique job once per process (see
:func:`repro.experiments.orchestrator.lockstep`), so every load reads
its file once.  Decoded arrays are read-only views of the member bytes,
because within-batch deduplication shares one decoded result between
same-key jobs.
"""

from __future__ import annotations

import fcntl
import functools
import io
import math
import os
import struct
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from .job import EngineJob

#: Environment variable overriding the cache root (shared with the
#: trained-model cache in :mod:`repro.experiments.common`).
CACHE_ENV_VAR = "REPRO_CACHE"

#: Environment variable providing the default ``gc`` size bound
#: (bytes; unset means "no eviction unless asked").
CACHE_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"

#: Every valid entry is a ``.npz`` — a zip archive — and zip archives
#: start with the local-file-header magic.  A zero-byte or truncated
#: file cannot match.
_NPZ_MAGIC = b"PK\x03\x04"

#: Smallest conceivable valid entry (an empty zip's end-of-central-
#: directory record is 22 bytes; real entries always carry ``__kind__``).
_MIN_ENTRY_BYTES = 23

#: What decoding an unreadable, truncated, schema-incompatible or
#: kind-mismatched entry raises: a bad zip structure, a corrupt deflate
#: stream (``zlib.error``), a malformed ``.npy`` header or payload, a
#: missing field.  Only these mark an entry corrupt; any other error
#: (say, a ``MemoryError`` or a bug in a deserializer) propagates and
#: leaves the entry on disk.
_DECODE_ERRORS = (OSError, ValueError, KeyError, zipfile.BadZipFile, EOFError, zlib.error)

#: The zip records :func:`read_npz` walks (PKWARE APPNOTE 4.3): their
#: signatures and fixed-size layouts.  A local header starts with
#: ``_NPZ_MAGIC``.
_CENTRAL_SIG = b"PK\x01\x02"
_END_SIG = b"PK\x05\x06"
_END64_LOCATOR_SIG = b"PK\x06\x07"
_END64_SIG = b"PK\x06\x06"
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_CENTRAL_HEADER = struct.Struct("<4s4B4HL2L5H2L")
_END_RECORD = struct.Struct("<4s4H2LH")
_END64_LOCATOR = struct.Struct("<4sLQL")
_END64_RECORD = struct.Struct("<4sQ2H2L4Q")
_MAX32, _MAX64 = (1 << 32) - 1, (1 << 64) - 1

#: General-purpose flag bits zipfile will not read past: encrypted (0),
#: compressed patched data (5), strong encryption (6).
_REFUSED_FLAGS = 0x0061

#: Flag bit 11: the member name is UTF-8 (otherwise cp437).
_UTF8_NAME = 0x0800

#: Newest "version needed to extract" zipfile accepts (6.3).
_MAX_EXTRACT_VERSION = 63

#: The compression methods ``np.savez`` and ``np.savez_compressed`` write.
_STORED, _DEFLATED = 0, 8

#: The DOS date of every member :func:`npz_bytes` writes (1980-01-01,
#: the format's epoch), so equal arrays always make equal bytes.
_DOS_EPOCH_DATE = (1 << 5) | 1

#: Per-shard lock file name (dot-prefixed: invisible to the ``*.npz``
#: globs and to the ``.*.tmp`` orphan sweep).
_LOCK_FILE = ".lock"

#: The ``.npy`` format versions ``np.save`` writes: 1.0, or 2.0 for a
#: header past 64 KiB (3.0 only for structured dtypes with non-latin-1
#: field names, which nothing here stores).  Each maps to the width of
#: its header-length field and numpy's parser of its header.
_NPY_FORMATS = {
    (1, 0): (2, np.lib.format.read_array_header_1_0),
    (2, 0): (4, np.lib.format.read_array_header_2_0),
}


@functools.lru_cache(maxsize=1024)
def _npy_header(prefix: bytes) -> Tuple[Tuple[int, ...], bool, np.dtype]:
    """``(shape, fortran_order, dtype)`` of one ``.npy`` header.

    ``prefix`` is the member's bytes up to its payload: magic, version,
    length and header.  Memoized on those bytes, because numpy's parser
    runs ``ast.literal_eval`` and a warm ``read-repro all`` decodes
    thousands of members that share a few dozen headers.
    """
    stream = io.BytesIO(prefix)
    _, read_header = _NPY_FORMATS[np.lib.format.read_magic(stream)]
    try:
        shape, fortran_order, dtype = read_header(stream)
    except (SyntaxError, tokenize.TokenError) as exc:
        # A header ``ast`` rejects goes through numpy's tokenizing
        # Python 2 filter, which can fail in these ways too.
        raise ValueError(f"cannot parse .npy header: {exc}") from exc
    if dtype.hasobject:
        raise ValueError("object arrays cannot be loaded without pickle")
    if any(dim < 0 for dim in shape):
        raise ValueError(f"negative dimension in .npy shape {shape}")
    return shape, fortran_order, dtype


def _npy_array(raw: Union[bytes, memoryview]) -> np.ndarray:
    """A read-only view of the array one ``.npy`` member's bytes hold."""
    version = tuple(raw[6:8])
    if raw[:6] != np.lib.format.MAGIC_PREFIX or version not in _NPY_FORMATS:
        raise ValueError("not a version 1.0 or 2.0 .npy member")
    width, _ = _NPY_FORMATS[version]
    start = 8 + width + int.from_bytes(raw[8 : 8 + width], "little")
    shape, fortran_order, dtype = _npy_header(bytes(raw[:start]))
    count = math.prod(shape)
    if len(raw) - start != count * dtype.itemsize:
        raise ValueError(
            f".npy payload holds {len(raw) - start} byte(s), header needs "
            f"{count * dtype.itemsize}"
        )
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=start)
    return arr.reshape(shape, order="F" if fortran_order else "C")


class _Member(NamedTuple):
    """One central-directory record, zip64 fields resolved."""

    name: str
    flags: int
    method: int
    crc: int
    compress_size: int
    file_size: int
    #: Where the member's local header starts in the archive's bytes.
    offset: int
    #: Where the next member's local header (or the directory) starts.
    end: int


def _member_name(raw: bytes, flags: int) -> str:
    """A member name decoded as zipfile decodes it."""
    if raw.isascii():  # the same in both encodings, and the usual case
        return raw.decode("ascii")
    return raw.decode("utf-8" if flags & _UTF8_NAME else "cp437")


def _zip64_fields(extra: bytes, sizes: List[int]) -> List[int]:
    """``[file_size, compress_size, offset]`` with their zip64 values.

    The zip64 extra field (APPNOTE 4.5.3) holds a 64-bit value for each
    of the three 32-bit fields that is saturated, in that order; a field
    that runs past the extra data is corrupt, as zipfile rules.
    """
    while len(extra) >= 4:
        kind, length = struct.unpack_from("<HH", extra)
        if length + 4 > len(extra):
            raise zipfile.BadZipFile(f"Corrupt extra field {kind:04x} (size={length})")
        if kind == 1:
            values = extra[4 : length + 4]
            saturated = (sizes[0] in (_MAX32, _MAX64), sizes[1] == _MAX32, sizes[2] == _MAX32)
            for i in (i for i, full in enumerate(saturated) if full):
                if len(values) < 8:
                    raise zipfile.BadZipFile("Corrupt zip64 extra field")
                sizes[i] = int.from_bytes(values[:8], "little")
                values = values[8:]
        extra = extra[length + 4 :]
    return sizes


def _directory_span(data: bytes) -> Tuple[int, int]:
    """``(start, end)`` of the central directory, found as zipfile finds it.

    The directory ends where the end-of-central-directory record (or its
    zip64 form) starts, and starts the size that record states before
    that.  zipfile would also take a stated offset elsewhere as bytes
    prepended to the archive and shift every member by the difference;
    nothing here writes such archives, so it is refused.
    """
    at = len(data) - _END_RECORD.size
    if at < 0:
        raise zipfile.BadZipFile("File is not a zip file")
    if not (data.startswith(_END_SIG, at) and data.endswith(b"\0\0")):
        # The record is followed by an archive comment of up to 64 KiB.
        at = data.rfind(_END_SIG, max(at - (1 << 16), 0))
        if at < 0 or at + _END_RECORD.size > len(data):
            raise zipfile.BadZipFile("File is not a zip file")
    *_, size, offset, _ = _END_RECORD.unpack_from(data, at)
    locator = at - _END64_LOCATOR.size
    if locator >= 0 and data.startswith(_END64_LOCATOR_SIG, locator):
        _, disk, _, disks = _END64_LOCATOR.unpack_from(data, locator)
        if disk != 0 or disks > 1:
            raise zipfile.BadZipFile("zipfiles that span multiple disks are not supported")
        record = locator - _END64_RECORD.size
        if record < 0:
            raise zipfile.BadZipFile("File is not a zip file")
        if data.startswith(_END64_SIG, record):
            *_, size, offset = _END64_RECORD.unpack_from(data, record)
            at = record
    if at - size != offset:
        raise zipfile.BadZipFile("Bad offset for central directory")
    return offset, at


def _central_directory(data: bytes) -> List[_Member]:
    """The members an archive's central directory lists, in its order.

    Refuses what zipfile refuses to list: a bad signature, a truncated
    record, a corrupt extra field, a version past 6.3.  Each member's
    ``end`` is the next member's header (or the directory), so no member
    can claim bytes of another.
    """
    if not data.startswith((_NPZ_MAGIC, _END_SIG)):
        # np.load's own check: anything else it would read as a pickle.
        raise zipfile.BadZipFile("File is not a zip file")
    start, end = _directory_span(data)
    directory = data[start:end]
    records = []
    at = 0
    while at < len(directory):
        record = directory[at : at + _CENTRAL_HEADER.size]
        if len(record) != _CENTRAL_HEADER.size:
            raise zipfile.BadZipFile("Truncated central directory")
        (sig, _, _, version, _, flags, method, _, _, crc, compress_size, file_size,
         n_name, n_extra, n_comment, _, _, _, local) = _CENTRAL_HEADER.unpack(record)
        if sig != _CENTRAL_SIG:
            raise zipfile.BadZipFile("Bad magic number for central directory")
        at += _CENTRAL_HEADER.size
        name = _member_name(directory[at : at + n_name], flags)
        if version > _MAX_EXTRACT_VERSION:
            raise zipfile.BadZipFile(f"zip file version {version / 10:.1f}")
        if n_extra:
            file_size, compress_size, local = _zip64_fields(
                directory[at + n_name : at + n_name + n_extra], [file_size, compress_size, local]
            )
        records.append((name, flags, method, crc, compress_size, file_size, local))
        at += n_name + n_extra + n_comment
    order = sorted(range(len(records)), key=lambda i: records[i][6])
    ends = [start] * len(records)
    for i, j in zip(order, order[1:]):
        ends[i] = records[j][6]
    return [_Member(*record, end) for record, end in zip(records, ends)]


def _read_member(data: bytes, member: _Member) -> Union[bytes, memoryview]:
    """One member's bytes: found by its local header, inflated and checked.

    Refuses what zipfile refuses to read (the encryption and patch flag
    bits, an unknown compression method, a header whose name differs
    from the directory's) and, beyond it, a member whose data runs into
    the next one, a deflate stream that does not end exactly with the
    member, or a CRC-32 or length that differs from the directory's.
    Stored and deflated are the methods ``np.savez`` writes; a stored
    member is a view of ``data``, not a copy, so reading a trained-state
    file holds its bytes once.
    """
    if member.flags & _REFUSED_FLAGS:
        raise zipfile.BadZipFile(f"{member.name!r} is encrypted or patched")
    if member.method not in (_STORED, _DEFLATED):
        raise zipfile.BadZipFile(f"{member.name!r}: compression method {member.method}")
    header = data[member.offset : member.offset + _LOCAL_HEADER.size]
    if len(header) != _LOCAL_HEADER.size:
        raise zipfile.BadZipFile("Truncated file header")
    sig, _, _, flags, *_, n_name, n_extra = _LOCAL_HEADER.unpack(header)
    if sig != _NPZ_MAGIC:
        raise zipfile.BadZipFile("Bad magic number for file header")
    start = member.offset + _LOCAL_HEADER.size
    if _member_name(data[start : start + n_name], flags) != member.name:
        raise zipfile.BadZipFile(f"File name in directory {member.name!r} and header differ")
    start += n_name + n_extra
    stop = start + member.compress_size
    if stop > member.end:
        raise zipfile.BadZipFile(f"{member.name!r} overlaps the next member")
    raw = memoryview(data)[start:stop]
    if member.method == _DEFLATED:
        inflater = zlib.decompressobj(-zlib.MAX_WBITS)
        # One byte past the stated size is enough to fail the length
        # check below, so a stream that inflates further stops there.
        raw = inflater.decompress(raw, member.file_size + 1)
        if not inflater.eof or inflater.unused_data:
            raise zipfile.BadZipFile(f"{member.name!r}: deflate stream does not end the member")
    if len(raw) != member.file_size or zlib.crc32(raw) != member.crc:
        raise zipfile.BadZipFile(f"Bad CRC-32 or size for file {member.name!r}")
    return raw


def read_npz(source: Union[str, Path, BinaryIO]) -> Dict[str, np.ndarray]:
    """Every member of an ``.npz`` archive, each read once, read-only.

    The one decode path of cached results and trained-state files:
    :meth:`ResultCache.load` and the daemon's
    :func:`~repro.engine.protocol.decode_result` hand the job's
    ``deserialize_result`` the dict this returns, and
    :func:`~repro.experiments.common.load_model_state` restores from it.
    Decodes each member as ``np.load(source, allow_pickle=False)`` does
    (its test oracle), but in one pass over the archive's bytes (read
    from a file object's current position): the central directory is
    walked here, not through ``zipfile``, each distinct ``.npy`` header
    is parsed once per process, and each array is a read-only view of
    its member's bytes (decoded results are shared by within-batch
    dedup).  Sizes come from the central directory, since ``np.savez``
    writes zip64 local headers without them.  Stored and deflated
    members both read; anything malformed (see :func:`_read_member`)
    raises one of ``_DECODE_ERRORS``.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            data = handle.read()
    else:
        data = source.read()
    arrays = {}
    for member in _central_directory(data):
        # zipfile's name for a member ends at its first NUL byte.
        name = member.name.split("\0", 1)[0]
        arrays[name[:-4] if name.endswith(".npy") else name] = _npy_array(
            _read_member(data, member)
        )
    return arrays


def npz_bytes(arrays: Mapping[str, np.ndarray]) -> bytes:
    """``arrays`` as the bytes of one ``.npz`` archive of stored members.

    What ``np.savez`` writes, read back equally by ``np.load`` and
    :func:`read_npz`, but built in memory in one pass and without
    ``zipfile``: each member is its array's ``.npy`` bytes behind a plain
    local header, with a fixed timestamp, so equal arrays make equal
    archives.  There are no zip64 records: a member or archive past
    4 GiB raises ``ValueError`` (a cached result is kilobytes).  The
    result cache's entries and the daemon's result frames are written
    with it.
    """
    parts: List[bytes] = []
    directory: List[bytes] = []
    offset = 0
    for name, value in arrays.items():
        member = io.BytesIO()
        np.lib.format.write_array(member, np.asanyarray(value), allow_pickle=False)
        data = member.getvalue()
        fname = f"{name}.npy".encode("utf-8")
        flags = 0 if fname.isascii() else _UTF8_NAME
        crc, size = zlib.crc32(data), len(data)
        if offset + size >= _MAX32:
            raise ValueError(f"npz member {name!r} ends past 4 GiB")
        parts += [
            _LOCAL_HEADER.pack(
                _NPZ_MAGIC, 20, 0, flags, _STORED, 0, _DOS_EPOCH_DATE, crc, size, size,
                len(fname), 0,
            ),
            fname,
            data,
        ]
        directory += [
            _CENTRAL_HEADER.pack(
                _CENTRAL_SIG, 20, 0, 20, 0, flags, _STORED, 0, _DOS_EPOCH_DATE, crc, size,
                size, len(fname), 0, 0, 0, 0, 0, offset,
            ),
            fname,
        ]
        offset += _LOCAL_HEADER.size + len(fname) + size
    central = b"".join(directory)
    end = _END_RECORD.pack(_END_SIG, 0, 0, len(arrays), len(arrays), len(central), offset, 0)
    return b"".join(parts) + central + end


def cache_root() -> Path:
    """Root of the repo-local on-disk cache (``$REPRO_CACHE`` or ``.cache``)."""
    return Path(os.environ.get(CACHE_ENV_VAR, Path(__file__).resolve().parents[3] / ".cache"))


def parse_byte_count(text: str) -> int:
    """A byte bound as humans write it: ``2000000000`` or ``2e9``."""
    try:
        value = int(float(text))
    except ValueError:
        raise ValueError(f"not a byte count: {text!r}") from None
    if value < 0:
        raise ValueError(f"byte count must be >= 0, got {text!r}")
    return value


@dataclass(frozen=True)
class CacheStats:
    """One ``stats()`` snapshot of the store (also the ``cache stats`` CLI)."""

    entries: int
    bytes: int
    shards: int
    tmp_files: int

    def as_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        return (
            f"{self.entries} entrie(s), {self.bytes} byte(s) across "
            f"{self.shards} shard(s), {self.tmp_files} orphaned tmp file(s)"
        )


@dataclass(frozen=True)
class CacheGcReport:
    """What one ``gc()`` pass did (also the ``cache gc`` CLI / daemon verb)."""

    tmp_removed: int
    evicted: int
    #: Entries / bytes remaining after the pass.
    entries: int
    bytes: int

    def as_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        return (
            f"removed {self.tmp_removed} orphaned tmp file(s), evicted "
            f"{self.evicted} entrie(s); {self.entries} entrie(s) "
            f"({self.bytes} bytes) remain"
        )


class ResultCache:
    """Store/load per-job results keyed by content hash."""

    def __init__(self, root: Optional[Path] = None):
        base = Path(root) if root is not None else cache_root()
        self.root = base / "sim-results"
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        """Cache-entry path for a job key (two-level fan-out by prefix)."""
        return self.root / key[:2] / f"{key}.npz"

    def _shards(self) -> List[Path]:
        try:
            return sorted(p for p in self.root.iterdir() if p.is_dir())
        except OSError:
            return []

    @contextmanager
    def _shard_lock(self, shard: Path) -> Iterator[None]:
        """Advisory exclusive lock on one shard directory.

        Serializes mutations (store / clear / gc / corrupt-entry
        deletion) per shard; reads stay lock-free — ``os.replace`` makes
        a visible entry always whole.  The lock dies with its holder
        (``flock`` is released by the kernel on process exit), so a
        SIGKILLed writer can never wedge the store.
        """
        try:
            handle = open(shard / _LOCK_FILE, "wb")
        except FileNotFoundError:  # the shard's first entry
            shard.mkdir(parents=True, exist_ok=True)
            handle = open(shard / _LOCK_FILE, "wb")
        with handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def has(self, key: str) -> bool:
        """Validated existence probe (no deserialization).

        The campaign planner uses this to report how many shards a
        resume will recall without paying a full ``load`` per probe, so
        it must not report a torn entry as a hit: the probe checks the
        entry's size and zip magic bytes, which a zero-byte or
        truncated-at-the-start file (a writer killed mid-``store``, a
        full disk) cannot satisfy.  An entry corrupted *past* its header
        still resolves as a miss at ``load`` time.
        """
        path = self.path_for(key)
        try:
            if path.stat().st_size < _MIN_ENTRY_BYTES:
                return False
            with open(path, "rb") as handle:
                return handle.read(len(_NPZ_MAGIC)) == _NPZ_MAGIC
        except OSError:
            return False

    def load(self, key: str, job: EngineJob):
        """Return the cached result for ``key``, or None on a miss.

        ``job`` supplies the deserializer and the expected kind tag.
        Unreadable, schema-incompatible or kind-mismatched entries are
        deleted and treated as misses; other errors raised while
        decoding propagate and leave the entry in place.  A successful
        read refreshes the entry's mtime — the recency signal ``gc``'s
        LRU eviction sorts by.
        """
        path = self.path_for(key)
        try:
            handle = open(path, "rb")
        except OSError:
            return None
        with handle:
            try:
                arrays = read_npz(handle)
                # Entries written before job kinds existed carry no tag;
                # they are all SimJob results.
                kind = str(arrays.pop("__kind__", "sim"))
                if kind != job.kind:
                    raise ValueError(f"kind mismatch: entry {kind!r}, job {job.kind!r}")
                result = job.deserialize_result(arrays)
            except _DECODE_ERRORS:
                self._discard_corrupt(path, os.fstat(handle.fileno()))
                return None
        try:
            os.utime(path)  # LRU touch; racing with eviction is benign
        except OSError:
            pass
        return result

    def _discard_corrupt(self, path: Path, read_stat: os.stat_result) -> None:
        """Delete a corrupt entry — unless a writer already replaced it.

        Guarded by the shard lock and an inode comparison: between our
        failed read and this deletion, a concurrent ``store`` may have
        atomically swapped a *valid* entry into place, which a blind
        unlink would destroy.
        """
        with self._shard_lock(path.parent):
            try:
                current = os.stat(path)
            except OSError:
                return
            if (current.st_ino, current.st_dev) == (read_stat.st_ino, read_stat.st_dev):
                path.unlink(missing_ok=True)

    def store(self, key: str, job: EngineJob, result) -> Path:
        """Atomically persist ``result`` under ``key``; returns the path.

        The archive is built in memory (:func:`npz_bytes`) and written in
        one ``write``.  The whole tmp-write + rename runs under the shard
        lock, which is what licenses ``gc``'s orphan sweep: any ``.tmp``
        visible while holding the lock belongs to a dead writer.
        """
        path = self.path_for(key)
        arrays = dict(job.serialize_result(result))
        arrays["__kind__"] = np.array(job.kind)
        data = npz_bytes(arrays)
        # ".tmp" suffix (no ".npz") keeps in-flight writes invisible to
        # the "*/*.npz" globs used by __len__/clear().
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        with self._shard_lock(path.parent):
            try:
                with open(tmp, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            except BaseException:
                tmp.unlink(missing_ok=True)  # os.replace did not consume it
                raise
        return path

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.npz"))

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed.

        Safe under concurrent writers: each shard is cleared under its
        lock, and entries that vanish mid-walk (another ``clear``, an
        eviction) are skipped, never raised on.
        """
        removed = 0
        for shard in self._shards():
            with self._shard_lock(shard):
                for entry in shard.glob("*.npz"):
                    try:
                        entry.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def stats(self) -> CacheStats:
        """Entry/byte/shard/orphan counts (the ``cache stats`` verb)."""
        entries = total = tmp_files = 0
        shards = self._shards()
        for shard in shards:
            for entry in shard.glob("*.npz"):
                try:
                    total += entry.stat().st_size
                    entries += 1
                except OSError:
                    pass
            tmp_files += sum(1 for _ in shard.glob(".*.tmp"))
        return CacheStats(
            entries=entries, bytes=total, shards=len(shards), tmp_files=tmp_files
        )

    def gc(self, max_bytes: Optional[int] = None) -> CacheGcReport:
        """Sweep orphaned temp files; optionally enforce a size bound.

        * **Orphan sweep** — any ``.tmp`` file observed while holding
          its shard's lock was left by a writer that died mid-``store``
          (live writers hold the lock across the whole tmp-write +
          rename), so it is removed unconditionally.
        * **LRU eviction** — when ``max_bytes`` is given (default:
          ``$REPRO_CACHE_MAX_BYTES``, unset = unbounded), entries are
          evicted oldest-mtime-first until the store fits.  ``load``
          refreshes mtime on every hit, so recency tracks use, not
          creation.  Evicting a live entry only ever costs a
          re-simulation.
        """
        if max_bytes is None:
            raw = os.environ.get(CACHE_MAX_BYTES_ENV_VAR)
            max_bytes = parse_byte_count(raw) if raw else None
        tmp_removed = 0
        entries: List[Tuple[float, int, Path]] = []
        for shard in self._shards():
            with self._shard_lock(shard):
                for tmp in shard.glob(".*.tmp"):
                    try:
                        tmp.unlink()
                        tmp_removed += 1
                    except OSError:
                        pass
            for entry in shard.glob("*.npz"):
                try:
                    st = entry.stat()
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, entry))
        total = sum(size for _, size, _ in entries)
        count = len(entries)
        evicted = 0
        if max_bytes is not None and total > max_bytes:
            for _, size, path in sorted(entries, key=lambda e: (e[0], str(e[2]))):
                if total <= max_bytes:
                    break
                with self._shard_lock(path.parent):
                    try:
                        path.unlink()
                    except OSError:
                        continue
                total -= size
                count -= 1
                evicted += 1
        return CacheGcReport(
            tmp_removed=tmp_removed, evicted=evicted, entries=count, bytes=total
        )
