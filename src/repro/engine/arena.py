"""Shared-memory operand arena: one copy of big operands per host.

Campaign shards fan out over pool workers and daemon requests, and every
process used to rebuild the same large read-only operands — the
fault-free prefix activations and accumulators — in its own address
space.  The arena stores each such operand bundle once, in a POSIX
shared-memory segment (:mod:`multiprocessing.shared_memory`),
content-addressed by a caller-supplied key; every other process attaches
the segment zero-copy and reads the arrays in place.  Payload bytes
round-trip exactly (the segment holds the raw array buffers), so an
arena-served operand is bit-identical to a locally built one — the same
exactness contract as the result cache.

Lifecycle is lease-based and SIGKILL-safe:

* a sidecar *registry* directory (``$REPRO_ARENA_DIR`` or a per-user
  tempdir) holds one JSON descriptor per segment plus one empty
  ``<digest>.<pid>.lease`` file per attached process;
* :meth:`OperandArena.release_all` (wired to engine/daemon shutdown and
  ``atexit``) drops this process's leases; the mappings themselves are
  kept until process exit, because consumers (the memoized fault-free
  pass) hold numpy views into them and unmapping under a live view is
  a segfault (see :class:`ArenaEntry`);
* :meth:`OperandArena.sweep` — run on shutdown and by ``read-repro
  cache gc`` — removes leases whose pid is dead (a SIGKILLed worker
  cannot clean up, but its pid stops existing) and unlinks any segment
  with no live leases left.  ``flock`` on the registry serializes
  publishers and sweepers, and dies with its holder.

Segments are deliberately *not* left to the interpreter's
``resource_tracker``: its exit-time unlink would destroy a segment the
moment the first attached process exits, defeating cross-process reuse.
The arena untracks every mapping and owns reclamation itself.

Every entry point degrades gracefully: any failure to create, attach or
sweep returns ``None``/``False``/empty and the caller rebuilds locally —
the arena is an optimization, never a correctness dependency.
"""

from __future__ import annotations

import atexit
import fcntl
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional

import numpy as np

#: Overrides the registry directory (and thereby which processes share).
ARENA_DIR_ENV = "REPRO_ARENA_DIR"

#: Gate: "0"/"false"/"no" disables the arena entirely (local rebuilds).
ARENA_GATE_ENV = "REPRO_ARENA"

#: Payload arrays are aligned to this many bytes inside a segment.
_ALIGN = 64

_LOCK_FILE = ".lock"


def arena_enabled() -> bool:
    """Whether the arena may be used at all (``$REPRO_ARENA`` gate)."""
    return os.environ.get(ARENA_GATE_ENV, "1").strip().lower() not in (
        "0",
        "false",
        "no",
    )


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _digest(key: str) -> str:
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]


def _segment_name(key: str) -> str:
    return f"repro-arena-{_digest(key)}"


#: Degraded arena operations in this process (publish/attach/sweep/init
#: failures that fell back to a local rebuild).  Mirrored into the
#: engine's runtime counters so the degradation is visible in the engine
#: summary line and ``cache stats`` instead of vanishing silently.
_ERROR_COUNT = 0


def arena_error_count() -> int:
    """Degraded arena operations recorded in this process so far."""
    return _ERROR_COUNT


def _record_error(context: str, exc: Exception) -> None:
    """Count one degradation and forward it to the engine metrics.

    The forward import is lazy (the faults package imports the engine
    package); if the counter plumbing itself is unavailable the local
    count still advances — degradations must never become failures.
    """
    global _ERROR_COUNT
    _ERROR_COUNT += 1
    try:
        from ..faults.injection_job import record_runtime_counters
    except ImportError:  # pragma: no cover - partial-install guard
        return
    record_runtime_counters(arena_errors=1)


def _untrack(name: str) -> None:
    """Remove a segment from the resource tracker's exit-time cleanup."""
    try:  # pragma: no cover - tracker registration varies by version
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except (ImportError, AttributeError, KeyError, ValueError, OSError):
        # Not registered / tracker API drift: expected version variation,
        # not an arena degradation — nothing to count.
        pass


def _open_shm(name: str, create: bool = False, size: int = 0):
    """A :class:`SharedMemory` handle outside resource-tracker custody."""
    try:
        shm = shared_memory.SharedMemory(
            name=name, create=create, size=size, track=False
        )
    except TypeError:  # Python < 3.13: no track parameter
        shm = shared_memory.SharedMemory(name=name, create=create, size=size)
        _untrack(name)
    return shm


def _unlink_segment(name: str) -> None:
    """Destroy a segment through a *tracked* handle.

    ``unlink()`` unregisters the name from the resource tracker, so the
    open must have registered it — using :func:`_open_shm` here would
    unregister twice and crash the tracker thread.
    """
    shm = shared_memory.SharedMemory(name=name)
    try:
        shm.unlink()
    finally:
        shm.close()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


@dataclass
class ArenaEntry:
    """One attached segment: zero-copy read-only array views + metadata.

    The views alias the shared mapping and stay valid for the life of
    the process: releasing an entry drops its *lease* (the reclamation
    token other processes look at), never the mapping.  Closing the
    mapping while views exist would be a use-after-unmap — numpy views
    built over the shared buffer hold only a pointer plus an object
    reference, not a live buffer export, so ``SharedMemory.close()``
    does NOT fail with ``BufferError`` the way a raw memoryview consumer
    would make it; it silently unmaps and the next read of any view
    (e.g. a memoized fault-free pass) segfaults.  Retired entries are
    therefore parked until interpreter shutdown; consumers treat the
    views exactly like locally built frozen operands.
    """

    key: str
    meta: Dict[str, object]
    arrays: Dict[str, np.ndarray]
    _shm: object = field(repr=False, default=None)


@dataclass(frozen=True)
class ArenaStats:
    """One snapshot of the registry (``cache stats`` / daemon status).

    ``errors`` is process-local (degraded operations recorded by this
    process — see :func:`arena_error_count`), the other fields reflect
    the on-disk registry shared by every process on the host.
    """

    segments: int
    bytes: int
    leases: int
    errors: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        text = (
            f"{self.segments} arena segment(s), {self.bytes} byte(s), "
            f"{self.leases} lease(s)"
        )
        if self.errors:
            text += f", {self.errors} error(s)"
        return text


@dataclass(frozen=True)
class ArenaSweepReport:
    """What one :meth:`OperandArena.sweep` pass did."""

    leases_removed: int
    segments_removed: int
    #: Segments / bytes remaining after the pass.
    segments: int
    bytes: int

    def as_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        return (
            f"removed {self.leases_removed} dead lease(s), "
            f"{self.segments_removed} segment(s); {self.segments} "
            f"segment(s) ({self.bytes} bytes) remain"
        )


def arena_root() -> Path:
    """The registry directory (``$REPRO_ARENA_DIR`` or a per-user tempdir)."""
    raw = os.environ.get(ARENA_DIR_ENV)
    if raw:
        return Path(raw)
    return Path(tempfile.gettempdir()) / f"repro-arena-{os.getuid()}"


class OperandArena:
    """Content-addressed shared-memory store of read-only operand bundles."""

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else arena_root()
        self.root.mkdir(parents=True, exist_ok=True)
        #: Segments this process has attached (key -> entry), so repeat
        #: attaches are free and release knows which leases it holds.
        self._attached: Dict[str, ArenaEntry] = {}
        #: Entries released while the process lives.  Their shm handles
        #: are parked here so nothing garbage-collects them
        #: (``SharedMemory.__del__`` would unmap under any consumer
        #: still holding views — see :class:`ArenaEntry`); the OS tears
        #: the mappings down at process exit.
        self._retired: List[ArenaEntry] = []
        self._atexit_registered = False

    # ------------------------------------------------------------------ #
    @contextmanager
    def _registry_lock(self) -> Iterator[None]:
        """Advisory exclusive lock over registry mutations.

        Serializes publish / lease / sweep so an attacher can never
        observe a half-written descriptor and a sweeper can never unlink
        a segment between a descriptor read and its lease write.  The
        kernel releases the lock when its holder dies.
        """
        with open(self.root / _LOCK_FILE, "wb") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _descriptor(self, key: str) -> Path:
        return self.root / f"{_digest(key)}.json"

    def _lease(self, key: str, pid: Optional[int] = None) -> Path:
        return self.root / f"{_digest(key)}.{pid if pid is not None else os.getpid()}.lease"

    def _ensure_atexit(self) -> None:
        if not self._atexit_registered:
            self._atexit_registered = True
            atexit.register(self.release_all)

    # ------------------------------------------------------------------ #
    def publish(
        self,
        key: str,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Mapping[str, object]] = None,
    ) -> bool:
        """Store an operand bundle once per host; False if present/failed.

        Layout: an 8-byte little-endian header length, a JSON header
        (metadata + per-array dtype/shape/offset), then the raw array
        payloads at 64-byte-aligned offsets.  The whole write happens
        under the registry lock *before* the descriptor appears, so a
        successful :meth:`attach` always maps complete data.
        """
        try:
            specs = []
            offset = 0
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                offset = _align(offset)
                specs.append(
                    {
                        "name": str(name),
                        "dtype": str(arr.dtype),
                        "shape": list(arr.shape),
                        "offset": offset,
                    }
                )
                offset += arr.nbytes
            header = json.dumps(
                {"meta": dict(meta or {}), "arrays": specs}
            ).encode("utf-8")
            base = _align(8 + len(header))
            total = max(base + offset, 1)
            segment = _segment_name(key)
            with self._registry_lock():
                descriptor = self._descriptor(key)
                if descriptor.exists():
                    return False
                try:
                    shm = _open_shm(segment, create=True, size=total)
                except FileExistsError:
                    # Orphaned segment without a descriptor (a publisher
                    # died mid-write): reclaim it and start over.
                    try:
                        _unlink_segment(segment)
                    except OSError:
                        return False
                    shm = _open_shm(segment, create=True, size=total)
                try:
                    shm.buf[0:8] = len(header).to_bytes(8, "little")
                    shm.buf[8 : 8 + len(header)] = header
                    for spec, arr in zip(specs, arrays.values()):
                        view = np.ndarray(
                            tuple(spec["shape"]),
                            dtype=np.dtype(spec["dtype"]),
                            buffer=shm.buf,
                            offset=base + spec["offset"],
                        )
                        np.copyto(view, arr, casting="no")
                        del view
                finally:
                    shm.close()
                tmp = descriptor.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(
                    json.dumps({"key": key, "segment": segment, "nbytes": total})
                )
                os.replace(tmp, descriptor)
                self._lease(key).touch()
            self._ensure_atexit()
            return True
        except (OSError, ValueError, TypeError) as exc:
            # Segment creation, payload copy, or descriptor write failed
            # (e.g. /dev/shm full, permissions): degrade to local builds.
            _record_error("publish", exc)
            return False

    def attach(self, key: str) -> Optional[ArenaEntry]:
        """Map a published bundle zero-copy, or None when absent/failed.

        Takes this process's lease under the registry lock (so a
        concurrent sweep cannot unlink the segment from under the
        mapping), then builds read-only array views over the shared
        buffer.  Repeat attaches return the already-mapped entry.
        """
        entry = self._attached.get(key)
        if entry is not None:
            return entry
        try:
            with self._registry_lock():
                descriptor = self._descriptor(key)
                if not descriptor.exists():
                    return None
                info = json.loads(descriptor.read_text())
                shm = _open_shm(str(info["segment"]))
                self._lease(key).touch()
            hlen = int.from_bytes(bytes(shm.buf[0:8]), "little")
            header = json.loads(bytes(shm.buf[8 : 8 + hlen]).decode("utf-8"))
            base = _align(8 + hlen)
            arrays: Dict[str, np.ndarray] = {}
            for spec in header["arrays"]:
                view = np.ndarray(
                    tuple(spec["shape"]),
                    dtype=np.dtype(spec["dtype"]),
                    buffer=shm.buf,
                    offset=base + spec["offset"],
                )
                view.flags.writeable = False
                arrays[spec["name"]] = view
            entry = ArenaEntry(
                key=key, meta=dict(header["meta"]), arrays=arrays, _shm=shm
            )
            self._attached[key] = entry
            self._ensure_atexit()
            return entry
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Missing/corrupt descriptor or segment, header layout drift:
            # the caller rebuilds locally.
            _record_error("attach", exc)
            return None

    def release(self, key: str) -> None:
        """Drop this process's lease on one bundle.

        The lease is the reclamation token — without it, any sweep may
        unlink the segment.  The *mapping* is deliberately kept (parked
        on ``_retired``): consumers such as the memoized fault-free
        pass hold numpy views into it, and unmapping under them is a
        segfault, not an exception (see :class:`ArenaEntry`).  An
        unlinked-but-mapped segment stays readable for this process
        until exit, which is exactly POSIX shm semantics.
        """
        entry = self._attached.pop(key, None)
        if entry is not None:
            self._retired.append(entry)
        try:
            self._lease(key).unlink(missing_ok=True)
        except OSError:
            pass

    def release_all(self) -> None:
        """Shutdown hook: drop every lease this process holds."""
        for key in list(self._attached):
            self.release(key)
        # Leases from publish-without-attach (and stale reruns of this
        # pid) are cleaned by suffix match.
        suffix = f".{os.getpid()}.lease"
        try:
            for lease in self.root.glob(f"*{suffix}"):
                lease.unlink(missing_ok=True)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    def stats(self) -> ArenaStats:
        segments = total = leases = 0
        try:
            for descriptor in self.root.glob("*.json"):
                try:
                    info = json.loads(descriptor.read_text())
                    total += int(info.get("nbytes", 0))
                    segments += 1
                except (OSError, ValueError):
                    continue
            leases = sum(1 for _ in self.root.glob("*.lease"))
        except OSError as exc:
            _record_error("stats", exc)
        return ArenaStats(
            segments=segments, bytes=total, leases=leases, errors=arena_error_count()
        )

    def sweep(self) -> ArenaSweepReport:
        """Reclaim: drop dead-pid leases, unlink segments nobody leases.

        SIGKILL-safety rests on leases being *pid-named files*: a killed
        worker cannot release, but its pid stops existing, so the next
        sweep — engine shutdown, daemon shutdown, ``cache gc`` — removes
        its leases and, when a segment's last lease is gone, the segment
        itself.
        """
        leases_removed = segments_removed = 0
        segments = total = 0
        try:
            with self._registry_lock():
                for descriptor in sorted(self.root.glob("*.json")):
                    digest = descriptor.stem
                    live = 0
                    for lease in self.root.glob(f"{digest}.*.lease"):
                        try:
                            pid = int(lease.name.split(".")[-2])
                        except (ValueError, IndexError):
                            pid = -1
                        if pid > 0 and _pid_alive(pid):
                            live += 1
                            continue
                        try:
                            lease.unlink()
                            leases_removed += 1
                        except OSError:
                            pass
                    if live:
                        try:
                            info = json.loads(descriptor.read_text())
                            total += int(info.get("nbytes", 0))
                        except (OSError, ValueError):
                            pass
                        segments += 1
                        continue
                    try:
                        info = json.loads(descriptor.read_text())
                        _unlink_segment(str(info["segment"]))
                    except FileNotFoundError:
                        pass  # segment already gone: nothing left to free
                    except (OSError, ValueError, KeyError) as exc:
                        _record_error("sweep", exc)
                    try:
                        descriptor.unlink()
                        segments_removed += 1
                    except OSError as exc:
                        _record_error("sweep", exc)
        except OSError as exc:
            # Registry lock or directory scan failed: report what was
            # reclaimed so far rather than raising from a cleanup path.
            _record_error("sweep", exc)
        return ArenaSweepReport(
            leases_removed=leases_removed,
            segments_removed=segments_removed,
            segments=segments,
            bytes=total,
        )


# ---------------------------------------------------------------------- #
# Process-wide default arena
# ---------------------------------------------------------------------- #
_default: Optional[OperandArena] = None


def default_arena() -> Optional[OperandArena]:
    """The process-wide arena, or None when disabled/unavailable."""
    global _default
    if not arena_enabled():
        return None
    if _default is None:
        try:
            _default = OperandArena()
        except OSError as exc:
            # Registry directory could not be created: run without the
            # arena (counted — this silently halves sharing otherwise).
            _record_error("init", exc)
            return None
    return _default


def reset_default_arena() -> None:
    """Drop the memoized default (tests that re-point ``$REPRO_ARENA_DIR``)."""
    global _default
    if _default is not None:
        _default.release_all()
    _default = None


def shutdown_arena() -> Optional[ArenaSweepReport]:
    """Release this process's leases and reclaim unreferenced segments.

    The engine/daemon shutdown hook.  It sweeps whenever the registry
    directory exists (creating none), also in a process that never used
    the arena: a parent whose pool workers published, then exited still
    holding their leases.  Returns None when there is nothing to sweep.
    """
    arena = _default or (default_arena() if arena_root().is_dir() else None)
    if arena is None:
        return None
    arena.release_all()
    return arena.sweep()
