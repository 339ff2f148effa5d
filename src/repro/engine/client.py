"""Client side of the serve-mode engine daemon.

:class:`EngineClient` speaks the :mod:`repro.engine.protocol` framing to
a ``read-repro serve`` daemon over its Unix socket.  The scheduler uses
it transparently (``$REPRO_ENGINE_SOCKET`` routing of
:meth:`~repro.engine.scheduler.SimEngine.run_many` and
:meth:`~repro.engine.scheduler.SimEngine.run_stream`, which both send
their flat batch through the one :meth:`EngineClient.submit`); the
CLI's ``ping`` and the daemon lifecycle tests use it directly.

Every failure mode — no socket file, nobody listening, a daemon that
died mid-conversation, a malformed frame, a rejected submission —
surfaces as :class:`EngineClientError`, whose ``partial`` flag tells
the scheduler whether the caller's ``on_result`` hook already consumed
a result (a silent in-process fallback would then replay it).
"""

from __future__ import annotations

import socket
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .job import EngineJob
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_result,
    encode_jobs,
    recv_message,
    send_message,
)

#: How long `connect()` may take before the daemon counts as absent.
DEFAULT_CONNECT_TIMEOUT = 5.0


class EngineClientError(ReproError):
    """The daemon is unreachable, died mid-request, or answered garbage."""

    def __init__(self, message: str, partial: bool = False):
        super().__init__(message)
        #: True when the caller's ``on_result`` hook consumed a result
        #: before the failure — the scheduler must not silently rerun.
        self.partial = partial


class EngineClient:
    """One daemon address; each request opens its own connection."""

    def __init__(
        self,
        socket_path: str,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        self.socket_path = str(socket_path)
        self.connect_timeout = connect_timeout

    # ------------------------------------------------------------------ #
    @contextmanager
    def _connect(self) -> Iterator[socket.socket]:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.connect_timeout)
            try:
                sock.connect(self.socket_path)
            except OSError as exc:
                raise EngineClientError(
                    f"cannot connect to engine daemon at {self.socket_path}: {exc}"
                ) from None
            # Requests may legitimately block for as long as a cold
            # simulation takes; only the connect is deadline-bound.
            sock.settimeout(None)
            yield sock
        finally:
            sock.close()

    def _request(
        self, header: Dict[str, object], blobs: Sequence[bytes] = ()
    ) -> Tuple[Dict[str, object], List[bytes]]:
        """One verb round trip: connect, send, read the single reply."""
        with self._connect() as sock:
            try:
                send_message(sock, header, blobs)
                reply, reply_blobs = recv_message(sock)
            except (OSError, EOFError, ProtocolError) as exc:
                raise EngineClientError(
                    f"engine daemon request {header.get('verb')!r} failed: {exc}"
                ) from None
        if not reply.get("ok", False):
            raise EngineClientError(
                f"engine daemon rejected {header.get('verb')!r}: "
                f"{reply.get('error', 'unknown error')}"
            )
        return reply, reply_blobs

    # ------------------------------------------------------------------ #
    def ping(self) -> Dict[str, object]:
        """Liveness + protocol handshake; raises unless compatible."""
        reply, _ = self._request({"verb": "ping"})
        version = reply.get("protocol")
        if version != PROTOCOL_VERSION:
            raise EngineClientError(
                f"engine daemon speaks protocol {version}, "
                f"this client speaks {PROTOCOL_VERSION}"
            )
        return reply

    def status(self) -> Dict[str, object]:
        return self._request({"verb": "status"})[0]

    def metrics(self) -> Dict[str, object]:
        return self._request({"verb": "metrics"})[0]

    def shutdown(self) -> Dict[str, object]:
        """Ask the daemon to stop accepting and exit its serve loop."""
        return self._request({"verb": "shutdown"})[0]

    def cache_stats(self) -> Dict[str, object]:
        return self._request({"verb": "cache_stats"})[0]

    def cache_gc(self, max_bytes: Optional[int] = None) -> Dict[str, object]:
        header: Dict[str, object] = {"verb": "cache_gc"}
        if max_bytes is not None:
            header["max_bytes"] = int(max_bytes)
        return self._request(header)[0]

    # ------------------------------------------------------------------ #
    def submit(
        self,
        jobs: Sequence[EngineJob],
        on_result: Optional[Callable[[int, object], Optional[Iterable[int]]]] = None,
    ) -> Tuple[List[Optional[object]], Dict[str, object]]:
        """Run a flat batch on the daemon: the mirror of :meth:`SimEngine.run_stream`.

        Returns the results in submission order, decoded through each
        job's own cache deserializer, and the request's counter delta.
        Result frames arrive in the daemon's completion order (cache hits
        first); ``on_result`` fires per frame and its returned indices
        travel back as a cancellation message while the rest of the
        batch is still in flight.  Cancelled jobs come back None.
        """
        jobs = list(jobs)
        results: List[Optional[object]] = [None] * len(jobs)
        consumed = False  # has on_result seen a result?
        with self._connect() as sock:
            try:
                send_message(sock, {"verb": "submit"}, [encode_jobs(jobs)])
                while True:
                    header, blobs = recv_message(sock)
                    if not header.get("ok", True):
                        raise EngineClientError(
                            f"engine daemon rejected 'submit': "
                            f"{header.get('error', 'unknown error')}",
                            partial=consumed,
                        )
                    kind = header.get("type")
                    if kind == "done":
                        return results, dict(header.get("stats", {}))
                    if kind != "result":
                        raise ProtocolError(f"unexpected submit frame {kind!r}")
                    index = int(header["index"])
                    if not 0 <= index < len(jobs) or len(blobs) != 1:
                        raise ProtocolError(
                            f"bad result frame (index {index}, {len(blobs)} blobs)"
                        )
                    results[index] = decode_result(jobs[index], blobs[0])
                    if on_result is not None:
                        consumed = True
                        requested = on_result(index, results[index])
                        if requested:
                            send_message(
                                sock,
                                {"type": "cancel", "indices": [int(j) for j in requested]},
                            )
            except (OSError, EOFError, ProtocolError) as exc:
                raise EngineClientError(
                    f"engine daemon submit failed: {exc}", partial=consumed
                ) from None
