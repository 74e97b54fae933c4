"""Blocking socket client of the network serving tier.

:class:`SimulationClient` mirrors the in-process
:class:`~repro.serve.server.SimulationServer` API over the wire
protocol of :mod:`repro.serve.net`: ``submit``/``submit_many`` return
:class:`concurrent.futures.Future` objects, admission errors
(:class:`~repro.errors.ServerQueueFull`, validation
:class:`~repro.errors.SimulationError`, ...) raise synchronously from
the submit call, and per-request failures
(:class:`~repro.errors.DeadlineExceeded`,
:class:`~repro.errors.ShardFailed`, ...) come back through the
futures — typed, exactly as a local caller would see them.  Reports are
bit-identical to solo runs because the socket moves the same codec the
process shards speak (:mod:`repro.serve.codec`): each report's outputs
arrive as the raw bytes of its ``(waves, n_outputs)`` bool matrix, and
nothing on the path touches payload semantics.  Replies are decoded,
never unpickled: a frame the codec refuses ends the connection with
:class:`~repro.errors.ConnectionLost`.

One background reader thread demultiplexes replies; submissions from
any number of caller threads are safe (frame writes are serialized, the
pending-future table is lock-guarded).  Netlists are shipped once per
connection and referenced by token afterwards; a server-side cache
eviction answers ``miss`` and the client re-ships transparently.  If
the connection dies, every pending future fails with
:class:`~repro.errors.ConnectionLost` — futures never strand.
"""

from __future__ import annotations

import itertools
import socket
import struct
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from types import TracebackType
from typing import BinaryIO, Optional, Sequence

from ..core.wavepipe.clocking import ClockingScheme
from ..core.wavepipe.components import WaveNetlist
from ..core.wavepipe.simulator import WaveSimulationReport
from ..errors import (
    ConnectionLost,
    ServeError,
    SessionClosed,
    WireProtocolError,
)
from .codec import LENGTH, REPLIES, REQUESTS, unwire_error
from .net import DEFAULT_MAX_FRAME_BYTES
from .queue import WaveStream
from .shards import _wire_streams

#: Default bound on one burst's admission round-trip (the server
#: answers admitted/rejected/miss immediately after enqueueing; hitting
#: this means a dead or wedged serving process).
ADMISSION_TIMEOUT_S = 60.0


@dataclass
class _Burst:
    """One submit burst awaiting its admission verdict."""

    event: threading.Event = field(default_factory=threading.Event)
    #: ("admitted",) | ("rejected", kind, msg) | ("miss",) | ("lost", msg)
    verdict: Optional[tuple] = None


class ClientSession:
    """One streaming session over the wire (:meth:`SimulationClient.open_stream`).

    The network mirror of
    :class:`~repro.serve.server.ServerSession`: :meth:`feed` appends a
    chunk of waves to the server-side stream and returns a
    :class:`~concurrent.futures.Future` for its report — bit-identical
    to the matching slice of a solo run — and :meth:`close` with
    ``drain=True`` blocks until every feed's result frame has arrived.
    Feed futures fail typed: :class:`~repro.errors.DeadlineExceeded`,
    :class:`~repro.errors.SessionClosed` (server discarded the session
    without draining), :class:`~repro.errors.ShardFailed` (replay
    budget exhausted), or :class:`~repro.errors.ConnectionLost` if the
    socket dies — never stranded.  Obtain only via ``open_stream``; use
    as a context manager or :meth:`close` explicitly.
    """

    def __init__(self, client: "SimulationClient", session_id: int) -> None:
        self._client = client
        self.session_id = session_id
        self._closed = False  # guarded by client._lock

    def feed(
        self,
        vectors: WaveStream,
        *,
        deadline_s: Optional[float] = None,
    ) -> "Future[WaveSimulationReport]":
        """Append a chunk of waves to the stream; returns its future.

        Raises :class:`~repro.errors.SessionClosed` after
        :meth:`close`, :class:`~repro.errors.ConnectionLost` if the
        socket is gone.  Server-side refusals (unknown session after a
        server restart, deadline misses, quarantine) come back through
        the future with their wire types.
        """
        client = self._client
        with client._lock:
            client._ensure_usable()
            if self._closed:
                raise SessionClosed(
                    f"feed() on closed client session {self.session_id}"
                )
            request_id = next(client._ids)
            future: "Future[WaveSimulationReport]" = Future()
            client._pending[request_id] = future
        try:
            (block,) = _wire_streams([vectors])
            client._send(
                ("s_feed", request_id, self.session_id, block, deadline_s)
            )
        except BaseException:
            client._drop_pending([request_id])
            raise
        return future

    def close(
        self, *, drain: bool = True, timeout_s: Optional[float] = None
    ) -> None:
        """End the stream; with ``drain=True`` waits for every result.

        Blocks until the server's ``s_closed`` acknowledgement — which,
        by the protocol's FIFO reply ordering, arrives *after* every
        feed future of a drained session has resolved.  Idempotent.
        Raises :class:`~repro.errors.ConnectionLost` if the socket dies
        mid-close (the feed futures fail the same way — nothing
        strands).
        """
        client = self._client
        with client._lock:
            if self._closed:
                return
            self._closed = True
            if client._closing or client._lost is not None:
                # connection teardown already closed the server side
                return
            tag = next(client._ids)
            waiter: "Future[None]" = Future()
            client._stream_waiters[tag] = waiter
        client._send(("s_close", tag, self.session_id, bool(drain)))
        waiter.result(timeout_s)

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


class SimulationClient:
    """Blocking client of one :class:`~repro.serve.net.SocketServer`.

    Parameters
    ----------
    host / port:
        The socket server's bound address
        (:attr:`~repro.serve.net.SocketServer.address`).
    connect_timeout_s:
        Bound on establishing the TCP connection.
    admission_timeout_s:
        Bound on one burst's admission round-trip.
    max_frame_bytes:
        Refuse inbound frames above this size (matches the server's
        limit; a reply this large means a corrupt stream).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout_s: float = 10.0,
        admission_timeout_s: float = ADMISSION_TIMEOUT_S,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._admission_timeout_s = float(admission_timeout_s)
        self._max_frame_bytes = int(max_frame_bytes)
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout_s
        )
        self._sock.settimeout(None)
        self._rfile: BinaryIO = self._sock.makefile("rb")
        # _lock guards every mutable table below; _send_lock serializes
        # whole frames onto the socket (two interleaved sendall calls
        # would corrupt the stream)
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending: "dict[int, Future[WaveSimulationReport]]" = {}
        self._bursts: "dict[int, _Burst]" = {}
        self._health_waiters: "dict[int, Future[dict[str, object]]]" = {}
        #: tag -> waiter for s_opened / s_open_failed / s_closed replies
        self._stream_waiters: "dict[int, Future[None]]" = {}
        #: (netlist id, version) -> wire token of a shipped netlist
        self._tokens: "dict[tuple[int, int], int]" = {}
        #: token -> netlist: pins object ids used in token keys
        self._token_pins: "dict[int, WaveNetlist]" = {}
        self._closing = False
        self._lost: Optional[str] = None
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-serve-client", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------
    # submission API (mirrors SimulationServer)
    # ------------------------------------------------------------------
    def submit_many(
        self,
        netlist: WaveNetlist,
        streams: Sequence[WaveStream],
        *,
        clocking: Optional[ClockingScheme] = None,
        pipelined: Optional[bool] = None,
        deadline_s: Optional[float] = None,
    ) -> "list[Future[WaveSimulationReport]]":
        """Submit a burst; one future per stream, admission errors raise.

        Blocks only for the admission round-trip: the server answers
        admitted/rejected before any simulation happens, so queue-full
        backpressure and validation errors raise here, synchronously,
        with their in-process types — while the results themselves
        arrive through the returned futures as the server resolves
        them.
        """
        if not streams:
            return []
        n_phases = None if clocking is None else clocking.n_phases
        key = (id(netlist), netlist.version)
        with self._lock:
            self._ensure_usable()
            token = self._tokens.get(key)
            if token is None:
                token = next(self._ids)
                self._tokens[key] = token
                self._token_pins[token] = netlist
                ship = True
            else:
                ship = False
            request_ids = [next(self._ids) for _ in range(len(streams))]
            futures: "list[Future[WaveSimulationReport]]" = []
            for request_id in request_ids:
                future: "Future[WaveSimulationReport]" = Future()
                self._pending[request_id] = future
                futures.append(future)
        try:
            wire = _wire_streams(streams)
        except BaseException:
            self._drop_pending(request_ids)
            raise
        for resend in (False, True):
            with self._lock:
                burst_id = next(self._ids)
                burst = _Burst()
                self._bursts[burst_id] = burst
            try:
                self._send(
                    (
                        "submit",
                        burst_id,
                        token,
                        netlist if (ship or resend) else None,
                        request_ids,
                        wire,
                        n_phases,
                        pipelined,
                        deadline_s,
                    )
                )
            except BaseException:
                # nothing reached the server: no future may strand
                with self._lock:
                    self._bursts.pop(burst_id, None)
                self._drop_pending(request_ids)
                raise
            if not burst.event.wait(self._admission_timeout_s):
                with self._lock:
                    self._bursts.pop(burst_id, None)
                self._drop_pending(request_ids)
                raise ServeError(
                    f"no admission reply within "
                    f"{self._admission_timeout_s:.1f}s"
                )
            verdict = burst.verdict
            assert verdict is not None
            if verdict[0] == "admitted":
                return futures
            if verdict[0] == "miss":
                continue  # server evicted the token: re-ship and retry
            self._drop_pending(request_ids)
            if verdict[0] == "lost":
                raise ConnectionLost(verdict[1])
            raise unwire_error(verdict[1], verdict[2])
        self._drop_pending(request_ids)
        raise WireProtocolError(
            "server reported a netlist miss immediately after a re-ship"
        )

    def submit(
        self,
        netlist: WaveNetlist,
        vectors: WaveStream,
        *,
        clocking: Optional[ClockingScheme] = None,
        pipelined: Optional[bool] = None,
        deadline_s: Optional[float] = None,
    ) -> "Future[WaveSimulationReport]":
        """Submit one wave stream; returns its completion future."""
        (future,) = self.submit_many(
            netlist,
            [vectors],
            clocking=clocking,
            pipelined=pipelined,
            deadline_s=deadline_s,
        )
        return future

    def simulate(
        self,
        netlist: WaveNetlist,
        vectors: WaveStream,
        *,
        clocking: Optional[ClockingScheme] = None,
        pipelined: Optional[bool] = None,
        deadline_s: Optional[float] = None,
        timeout_s: Optional[float] = None,
    ) -> WaveSimulationReport:
        """Submit one stream and block for its report."""
        return self.submit(
            netlist,
            vectors,
            clocking=clocking,
            pipelined=pipelined,
            deadline_s=deadline_s,
        ).result(timeout_s)

    def open_stream(
        self,
        netlist: WaveNetlist,
        *,
        clocking: Optional[ClockingScheme] = None,
        pipelined: Optional[bool] = None,
        timeout_s: Optional[float] = None,
    ) -> ClientSession:
        """Open a streaming session on the server; see :class:`ClientSession`.

        Ships the netlist with the open frame (sessions are long-lived;
        the one-time cost is amortized over the stream) and blocks for
        the server's verdict: open-time refusals — an unbalanced
        netlist's :class:`~repro.errors.SimulationError`, a draining
        server's :class:`~repro.errors.ServerClosed` — raise here with
        their wire types.  *timeout_s* defaults to the client's
        admission timeout.
        """
        n_phases = None if clocking is None else clocking.n_phases
        with self._lock:
            self._ensure_usable()
            session_id = next(self._ids)
            tag = next(self._ids)
            waiter: "Future[None]" = Future()
            self._stream_waiters[tag] = waiter
        self._send(
            ("s_open", tag, session_id, netlist, n_phases, pipelined)
        )
        if timeout_s is None:
            timeout_s = self._admission_timeout_s
        try:
            waiter.result(timeout_s)
        except TimeoutError:
            with self._lock:
                self._stream_waiters.pop(tag, None)
            raise ServeError(
                f"no open_stream reply within {timeout_s:.1f}s"
            ) from None
        return ClientSession(self, session_id)

    def health(
        self, *, timeout_s: Optional[float] = 10.0
    ) -> dict[str, object]:
        """Round-trip the server's health snapshot (net section included)."""
        with self._lock:
            self._ensure_usable()
            tag = next(self._ids)
            future: "Future[dict[str, object]]" = Future()
            self._health_waiters[tag] = future
        self._send(("health", tag))
        return future.result(timeout_s)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection; pending futures fail (never strand)."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(5.0)
        self._fail_all("client closed with requests pending")

    def __enter__(self) -> "SimulationClient":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ensure_usable(self) -> None:
        """Caller holds ``self._lock``."""
        if self._closing:  # lint: unguarded-ok(caller holds _lock per the docstring contract)
            raise ServeError("client is closed")
        lost = self._lost  # lint: unguarded-ok(caller holds _lock per the docstring contract)
        if lost is not None:
            raise ConnectionLost(lost)

    def _drop_pending(self, request_ids: Sequence[int]) -> None:
        with self._lock:
            for request_id in request_ids:
                self._pending.pop(request_id, None)

    def _send(self, message: tuple) -> None:
        frame = REQUESTS.frame(message)
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as error:
            self._fail_all(f"send failed: {error}")
            raise ConnectionLost(f"send failed: {error}") from None

    def _read_loop(self) -> None:
        detail = "server closed the connection"
        try:
            while True:
                header = self._rfile.read(LENGTH.size)
                if header is None or len(header) < LENGTH.size:
                    break
                (length,) = LENGTH.unpack(header)
                if length > self._max_frame_bytes:
                    detail = (
                        f"inbound frame of {length} bytes exceeds the "
                        f"{self._max_frame_bytes}-byte limit"
                    )
                    break
                payload = self._rfile.read(length)
                if payload is None or len(payload) < length:
                    break
                try:
                    message = REPLIES.decode(payload)
                except WireProtocolError as error:
                    detail = f"undecodable reply frame: {error}"
                    break
                if not self._on_message(message):
                    with self._lock:
                        detail = str(self._lost or "fatal server reply")
                    break
        except (OSError, ValueError, struct.error) as error:
            detail = f"connection lost: {error}"
        self._fail_all(detail)

    def _on_message(self, message: tuple) -> bool:
        """Handle one reply; False ends the reader (fatal)."""
        kind = message[0]
        if kind in ("admitted", "rejected", "miss"):
            with self._lock:
                burst = self._bursts.pop(message[1], None)
            if burst is not None:
                burst.verdict = (kind, *message[2:])
                burst.event.set()
            return True
        if kind == "result":
            with self._lock:
                future = self._pending.pop(message[1], None)
            if future is not None:
                future.set_result(message[2])
            return True
        if kind == "error":
            with self._lock:
                future = self._pending.pop(message[1], None)
            if future is not None:
                future.set_exception(unwire_error(message[2], message[3]))
            return True
        if kind in ("s_opened", "s_closed"):
            with self._lock:
                stream_waiter = self._stream_waiters.pop(message[1], None)
            if stream_waiter is not None:
                stream_waiter.set_result(None)
            return True
        if kind == "s_open_failed":
            with self._lock:
                stream_waiter = self._stream_waiters.pop(message[1], None)
            if stream_waiter is not None:
                stream_waiter.set_exception(
                    unwire_error(message[2], message[3])
                )
            return True
        if kind == "health":
            with self._lock:
                waiter = self._health_waiters.pop(message[1], None)
            if waiter is not None:
                waiter.set_result(message[2])
            return True
        if kind == "pong":
            return True
        if kind == "fatal":
            with self._lock:
                self._lost = f"server closed the connection: {message[2]}"
            return False
        # an unknown reply kind means the stream is out of sync:
        # treat it as fatal rather than guessing at frame boundaries
        with self._lock:
            self._lost = f"unknown reply kind {kind!r}"
        return False

    def _fail_all(self, detail: str) -> None:
        """Resolve everything pending with ConnectionLost (idempotent)."""
        with self._lock:
            if self._lost is None:
                self._lost = detail
            pending = list(self._pending.values())
            self._pending.clear()
            bursts = list(self._bursts.values())
            self._bursts.clear()
            waiters = list(self._health_waiters.values())
            self._health_waiters.clear()
            stream_waiters = list(self._stream_waiters.values())
            self._stream_waiters.clear()
            closing = self._closing
        reason = detail if not closing else "client closed"
        for future in pending:
            if not future.done():
                future.set_exception(ConnectionLost(reason))
        for waiter in waiters:
            if not waiter.done():
                waiter.set_exception(ConnectionLost(reason))
        for stream_waiter in stream_waiters:
            if not stream_waiter.done():
                stream_waiter.set_exception(ConnectionLost(reason))
        for burst in bursts:
            if burst.verdict is None:
                burst.verdict = ("lost", reason)
                burst.event.set()
