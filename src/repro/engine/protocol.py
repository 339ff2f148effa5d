"""Wire protocol of the serve-mode engine daemon.

One message = one length-prefixed JSON **header frame** followed by
``header["n_blobs"]`` length-prefixed **binary frames** (each frame is a
4-byte big-endian length, then that many payload bytes).  The header
carries the verb / type and all small metadata; the blobs carry the bulk
payloads — pickled job lists on the way in, per-job ``.npz`` result
archives on the way out.  Result blobs reuse the jobs' cache
serializers (:meth:`~repro.engine.job.EngineJob.serialize_result` /
``deserialize_result``), so a daemon round trip is byte-identical to an
in-process run for exactly the same reason a cache hit is.

Trust model: the transport is a Unix domain socket, so the peer is
whoever the socket file's filesystem permissions admit — the same trust
boundary as the result cache directory itself.  That is what licenses
pickle for the job frames (jobs are plain frozen dataclasses from this
package); there is no network exposure.
"""

from __future__ import annotations

import io
import json
import pickle
import socket
import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from .cache import read_npz
from .job import EngineJob

#: Bump on any frame-layout or verb-semantics change; client and server
#: exchange it in `ping` and refuse mismatches loudly.
PROTOCOL_VERSION = 1

#: Frames above this are rejected as corruption rather than allocated
#: (a desynchronized peer would otherwise read garbage as a length).
MAX_FRAME_BYTES = 1 << 31

_LEN = struct.Struct(">I")


class ProtocolError(ReproError):
    """Malformed frame, truncated stream, or version mismatch."""


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int, eof_ok: bool = False) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if eof_ok and not buf:
                raise EOFError("peer closed the connection")
            raise ProtocolError(
                f"peer closed mid-frame ({len(buf)}/{n} bytes received)"
            )
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket) -> bytes:
    raw = _recv_exact(sock, _LEN.size)
    size = _LEN.unpack(raw)[0]
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {size} exceeds {MAX_FRAME_BYTES}")
    return _recv_exact(sock, size)


def send_message(
    sock: socket.socket, header: Dict[str, object], blobs: Sequence[bytes] = ()
) -> None:
    """One header frame + its binary frames, atomically ordered.

    ``n_blobs`` is stamped into the header so the receiver knows how
    many frames belong to this message without peeking ahead.
    """
    stamped = dict(header)
    stamped["n_blobs"] = len(blobs)
    send_frame(sock, json.dumps(stamped).encode("utf-8"))
    for blob in blobs:
        send_frame(sock, blob)


def recv_message(sock: socket.socket) -> Tuple[Dict[str, object], List[bytes]]:
    """Inverse of :func:`send_message`.

    Raises :class:`EOFError` on a clean close *between* messages (the
    peer is done) and :class:`ProtocolError` on a close mid-message.
    """
    header_raw = _recv_exact(sock, _LEN.size, eof_ok=True)
    size = _LEN.unpack(header_raw)[0]
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {size} exceeds {MAX_FRAME_BYTES}")
    try:
        header = json.loads(_recv_exact(sock, size).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable header frame: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError(f"header must be a JSON object, got {type(header).__name__}")
    blobs = [recv_frame(sock) for _ in range(int(header.get("n_blobs", 0)))]
    return header, blobs


# ---------------------------------------------------------------------- #
# Payload codecs
# ---------------------------------------------------------------------- #
def encode_jobs(jobs: Sequence[EngineJob]) -> bytes:
    """Pickle a job batch for transport (jobs already cross pool pickling)."""
    return pickle.dumps(list(jobs), protocol=pickle.HIGHEST_PROTOCOL)


def decode_jobs(blob: bytes) -> List[EngineJob]:
    jobs = pickle.loads(blob)
    if not isinstance(jobs, list) or not all(isinstance(j, EngineJob) for j in jobs):
        raise ProtocolError("job frame did not decode to a list of EngineJobs")
    return jobs


def encode_result(job: EngineJob, result: object) -> bytes:
    """One result as an in-memory ``.npz`` via the job's cache serializer."""
    buf = io.BytesIO()
    np.savez_compressed(buf, **job.serialize_result(result))
    return buf.getvalue()


def decode_result(job: EngineJob, blob: bytes) -> object:
    """Inverse of :func:`encode_result`: the cache's one-read decode path."""
    return job.deserialize_result(read_npz(io.BytesIO(blob)))
