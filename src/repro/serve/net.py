"""Network serving tier: the serving codec behind a TCP socket.

:class:`SocketServer` fronts one in-process
:class:`~repro.serve.server.SimulationServer` with an asyncio socket
server running on a dedicated background thread — the serving process
keeps its shard threads (or worker processes) exactly as before, and
the event loop only ever does framing, dispatch, and reply fan-out.

Wire protocol
-------------
Length-prefixed frames: a 4-byte big-endian payload size, then one
message of :mod:`repro.serve.codec` — a struct header, JSON metadata
naming every field, then the raw numpy buffers.  The process shards'
pipes carry the same encoding: one wire format everywhere, and no
pickle on either boundary.  Array fields travel as buffers: each
request stream as one ``(waves, inputs)`` bool block (an empty stream
as ``[]``), each report's outputs as one ``(waves, n_outputs)`` bool
matrix beside its scalar fields, and a netlist as its ``kinds`` /
``fanins`` / ``outputs`` arrays plus names, validated on arrival by
:meth:`~repro.core.wavepipe.components.WaveNetlist.from_arrays`.  A
frame that does not decode — over the size cap, truncated, malformed,
of an unknown kind, or carrying an invalid netlist — gets a ``fatal``
reply and closes only its own connection.  Client -> server::

    ("submit", burst_id, token, netlist | None, request_ids,
     streams, n_phases | None, pipelined | None, deadline_s | None)
    ("s_open", tag, session_id, netlist, n_phases | None,
     pipelined | None)                # open a streaming session
    ("s_feed", request_id, session_id, block, deadline_s | None)
    ("s_close", tag, session_id, drain)
    ("health", tag)
    ("ping", tag)

A netlist is shipped once per connection and cached server-side under
the client-chosen *token* (a bounded LRU, mirroring the worker-side
netlist cache); later submissions send the token alone.  Streaming
sessions (:meth:`SimulationClient.open_stream`) use client-chosen
session ids from the same id space; each ``s_feed`` resolves through
the ordinary ``result``/``error`` demux, and connection teardown
closes every session the connection opened (``drain=False`` — their
unresolved feeds fail typed, nothing strands).  Server -> client::

    ("admitted", burst_id)            # burst enqueued; futures pending
    ("rejected", burst_id, kind, msg) # typed refusal (queue_full, ...)
    ("miss", burst_id)                # token unknown: re-send netlist
    ("result", request_id, report)    # one request completed
    ("error", request_id, kind, msg)  # one request failed, typed
    ("s_opened", tag)                 # session is live
    ("s_open_failed", tag, kind, msg) # typed open refusal
    ("s_closed", tag)                 # session closed; results flushed
    ("health", tag, snapshot)
    ("pong", tag)
    ("fatal", kind, msg)              # protocol violation; conn closes

Reply ordering is FIFO per connection, and a session's ``close`` only
returns after every feed future resolved — so every ``result`` /
``error`` frame of a drained session is on the wire *before* its
``s_closed`` frame.

``kind`` is a stable string (see
:data:`repro.serve.codec.WIRE_ERROR_KINDS`) mapping back to the
exception hierarchy on the client, so ``ServerQueueFull``,
``DeadlineExceeded``, ``ShardFailed`` & co. round-trip the socket with
their types intact.

Backpressure and lifecycle
--------------------------
* Queue-full admission maps to a typed ``rejected`` reply — the wire
  form of the in-process synchronous raise.
* Slow readers are bounded: each connection's transport carries a write
  -buffer limit and the per-connection writer task awaits ``drain()``
  after every frame, so a stalled client stalls only its own replies
  (the reply backlog itself is bounded by the server's ``max_pending``).
* Clients that disconnect mid-request never strand futures: the
  underlying server resolves them regardless, and the done-callbacks
  simply drop replies for a dead connection.
* :meth:`SocketServer.close` with ``drain=True`` mirrors
  :func:`~repro.serve.server.graceful_drain`: stop accepting, refuse
  new submissions (typed), flush every in-flight reply, then tear the
  connections down; :meth:`SocketServer.serve_forever` wires that to
  SIGTERM/SIGINT for ``repro serve``.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial
from types import TracebackType
from typing import Optional

from ..core.wavepipe.clocking import ClockingScheme
from ..core.wavepipe.components import WaveNetlist
from ..core.wavepipe.simulator import WaveSimulationReport
from ..errors import ReproError, ServeError, WireProtocolError
from .codec import LENGTH, REPLIES, REQUESTS, wire_error
from .server import ServerSession, SimulationServer

#: Refuse frames above this many payload bytes (a corrupt or hostile
#: length prefix must not allocate unbounded buffers server-side).
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Per-connection outbound transport buffer bound: past it the writer
#: task blocks in ``drain()`` instead of buffering without limit.
DEFAULT_WRITE_BUFFER_BYTES = 1 << 20

#: Per-connection cap on cached client netlists (mirrors the process
#: shards' worker-side cache; eviction only costs a ``miss`` re-ship).
CONNECTION_NETLIST_CACHE = 32

@dataclass
class _Connection:
    """Loop-thread state of one accepted client connection."""

    peer: str
    writer: asyncio.StreamWriter
    #: outbound frames; ``None`` is the writer task's close sentinel
    replies: "asyncio.Queue[Optional[bytes]]"
    #: token -> netlist: this client's shipped models (bounded LRU)
    netlists: "OrderedDict[int, WaveNetlist]" = field(
        default_factory=OrderedDict
    )
    #: client session id -> live server session this connection opened
    sessions: "dict[int, ServerSession]" = field(default_factory=dict)
    inflight: int = 0  # admitted requests without a sent reply
    closed: bool = False  # no further replies may be enqueued


class SocketServer:
    """Serve one :class:`SimulationServer` over a TCP socket.

    ``start()`` spins up an asyncio event loop on a daemon thread and
    binds ``host:port`` (port ``0`` picks a free port — read
    :attr:`address` back).  Every accepted connection gets a reader
    task (framing + dispatch) and a writer task (ordered, backpressured
    replies); simulation results flow from the shard threads into the
    loop via ``call_soon_threadsafe`` done-callbacks.  The server object
    itself stays usable in-process — the socket tier is a front, not a
    wrapper.
    """

    def __init__(
        self,
        server: SimulationServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        write_buffer_bytes: int = DEFAULT_WRITE_BUFFER_BYTES,
    ) -> None:
        if max_frame_bytes < 1:
            raise ServeError("max_frame_bytes must be >= 1")
        self._server = server
        self._host = host
        self._port = int(port)
        self._max_frame_bytes = int(max_frame_bytes)
        self._write_buffer_bytes = int(write_buffer_bytes)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._address: Optional[tuple[str, int]] = None
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._connections: "list[_Connection]" = []  # loop thread only
        self._handlers: "set[asyncio.Task[None]]" = set()
        self._draining = False
        self._closed = False
        self._close_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._counters: dict[str, int] = {
            key: 0
            for key in (
                "connections_opened",
                "connections_closed",
                "open_connections",
                "frames_in",
                "frames_out",
                "bytes_in",
                "bytes_out",
                "admitted_bursts",
                "rejected_bursts",
                "netlist_misses",
                "protocol_errors",
                "dropped_replies",
                "sessions_opened",
                "sessions_refused",
                "sessions_closed",
            )
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SocketServer":
        """Bind and start accepting; raises on bind failure."""
        if self._thread is not None:
            raise ServeError("socket server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-net", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join(1.0)
            raise ServeError(
                f"could not bind {self._host}:{self._port}: "
                f"{self._startup_error}"
            ) from self._startup_error
        return self

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._address is None:
            raise ServeError("socket server is not started")
        return self._address

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        self._asyncio_server = server
        sockname = server.sockets[0].getsockname()
        self._address = (str(sockname[0]), int(sockname[1]))
        self._ready.set()
        async with server:
            await self._stop_event.wait()

    def close(
        self, *, drain: bool = True, timeout: Optional[float] = 30.0
    ) -> None:
        """Stop the socket tier (the wrapped server stays up).

        ``drain=True`` refuses new submissions with a typed wire error,
        waits — bounded by *timeout* — until every in-flight request's
        reply has been flushed, then closes the connections;
        ``drain=False`` closes immediately (clients see
        :class:`~repro.errors.ConnectionLost` on whatever was pending).
        Idempotent and thread-safe.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        loop = self._loop
        thread = self._thread
        if loop is None or thread is None or self._address is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(drain, timeout), loop
        )
        grace = None if timeout is None else timeout + 5.0
        try:
            future.result(grace)
        except TimeoutError:  # pragma: no cover - shutdown wedged
            future.cancel()
        thread.join(grace)

    async def _shutdown(
        self, drain: bool, timeout: Optional[float]
    ) -> None:
        self._draining = True
        assert self._asyncio_server is not None
        assert self._stop_event is not None
        self._asyncio_server.close()
        await self._asyncio_server.wait_closed()
        if drain:
            await self._wait_drained(timeout)
        for conn in list(self._connections):
            conn.closed = True
            await conn.replies.put(None)
        # the writer tasks close the transports, which EOFs the reader
        # tasks; give the handlers a moment, then cancel stragglers
        for _ in range(100):
            if not self._handlers:
                break
            await asyncio.sleep(0.01)
        for task in list(self._handlers):  # lint: determinism-unordered-ok(cancellation only; the straggler tasks are independent and no result path observes the order)
            task.cancel()
        self._stop_event.set()

    async def _wait_drained(self, timeout: Optional[float]) -> None:
        """Best-effort wait until no admitted request lacks its reply."""
        loop = asyncio.get_running_loop()
        deadline_at = (
            None if timeout is None else loop.time() + timeout
        )
        while any(
            conn.inflight > 0 or not conn.replies.empty()
            for conn in self._connections
        ):
            if deadline_at is not None and loop.time() >= deadline_at:
                return
            await asyncio.sleep(0.01)
        # the last reply may still sit in a transport buffer: one more
        # tick lets the writer tasks flush it before teardown
        await asyncio.sleep(0.05)

    def serve_forever(self, *, duration_s: Optional[float] = None) -> None:
        """Block until SIGTERM/SIGINT (or *duration_s*), then drain-close.

        The network mirror of
        :func:`~repro.serve.server.graceful_drain`: the signal only
        sets an event; the drain itself runs here, in the calling
        frame, after the wait returns.  Signal handlers are installed
        only when called from the main thread (elsewhere only the
        duration bound applies).
        """
        stop_requested = threading.Event()
        previous: "dict[int, object]" = {}
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous[signum] = signal.signal(
                    signum, lambda _s, _f: stop_requested.set()
                )
        try:
            stop_requested.wait(duration_s)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)  # type: ignore[arg-type]
            self.close(drain=True)

    def __enter__(self) -> "SocketServer":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def _count(self, key: str, delta: int = 1) -> None:
        with self._counter_lock:
            self._counters[key] += delta

    def health(self) -> dict[str, object]:
        """The wrapped server's health plus a ``net`` section."""
        snapshot = self._server.health()
        with self._counter_lock:
            counters: dict[str, object] = dict(self._counters)
        with self._close_lock:
            closed = self._closed
        counters["listening"] = self._address is not None and not closed
        counters["address"] = (
            list(self._address) if self._address is not None else None
        )
        snapshot["net"] = counters
        return snapshot

    # ------------------------------------------------------------------
    # per-connection tasks (loop thread)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        peername = writer.get_extra_info("peername")
        peer = (
            f"{peername[0]}:{peername[1]}"
            if isinstance(peername, tuple) and len(peername) >= 2
            else str(peername)
        )
        conn = _Connection(
            peer=peer, writer=writer, replies=asyncio.Queue()
        )
        transport = writer.transport
        transport.set_write_buffer_limits(high=self._write_buffer_bytes)
        self._connections.append(conn)
        self._count("connections_opened")
        self._count("open_connections")
        writer_task = asyncio.ensure_future(self._write_loop(conn))
        try:
            await self._read_loop(conn, reader)
        finally:
            conn.closed = True
            await self._close_conn_sessions(conn)
            await conn.replies.put(None)
            try:
                await writer_task
            except asyncio.CancelledError:  # pragma: no cover
                pass
            if conn in self._connections:
                self._connections.remove(conn)
            self._count("connections_closed")
            self._count("open_connections", -1)
            self._handlers.discard(task)

    async def _read_loop(
        self, conn: _Connection, reader: asyncio.StreamReader
    ) -> None:
        while True:
            try:
                header = await reader.readexactly(LENGTH.size)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return  # EOF or reset — normal disconnect paths
            (length,) = LENGTH.unpack(header)
            if length > self._max_frame_bytes:
                self._fatal(
                    conn,
                    f"frame of {length} bytes exceeds the "
                    f"{self._max_frame_bytes}-byte limit",
                )
                return
            try:
                payload = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return  # truncated frame: peer went away mid-send
            self._count("frames_in")
            self._count("bytes_in", LENGTH.size + length)
            try:
                message = REQUESTS.decode(payload)
            except WireProtocolError as error:
                self._fatal(conn, str(error))
                return
            try:
                await self._dispatch(conn, message)
            except WireProtocolError as error:
                self._fatal(conn, str(error))
                return
            except (TypeError, ValueError, IndexError, KeyError) as error:
                self._fatal(conn, f"malformed message: {error!r}")
                return

    async def _write_loop(self, conn: _Connection) -> None:
        try:
            while True:
                frame = await conn.replies.get()
                if frame is None:
                    break
                conn.writer.write(frame)
                await conn.writer.drain()
                self._count("frames_out")
                self._count("bytes_out", len(frame))
        except (ConnectionError, OSError):
            conn.closed = True  # reader may still be alive: stop replies
        finally:
            try:
                conn.writer.close()
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # dispatch (loop thread)
    # ------------------------------------------------------------------
    def _enqueue_reply(self, conn: _Connection, message: tuple) -> None:
        if conn.closed:
            self._count("dropped_replies")
            return
        conn.replies.put_nowait(REPLIES.frame(message))

    def _fatal(self, conn: _Connection, detail: str) -> None:
        self._count("protocol_errors")
        self._enqueue_reply(conn, ("fatal", "protocol", detail))

    async def _dispatch(self, conn: _Connection, message: tuple) -> None:
        kind = message[0]
        if kind == "submit":
            await self._handle_submit(conn, message)
        elif kind == "s_open":
            await self._handle_s_open(conn, message)
        elif kind == "s_feed":
            await self._handle_s_feed(conn, message)
        elif kind == "s_close":
            await self._handle_s_close(conn, message)
        elif kind == "health":
            self._enqueue_reply(conn, ("health", message[1], self.health()))
        elif kind == "ping":
            self._enqueue_reply(conn, ("pong", message[1]))
        else:
            raise WireProtocolError(f"unknown message kind {kind!r}")

    async def _handle_submit(
        self, conn: _Connection, message: tuple
    ) -> None:
        (
            _,
            burst_id,
            token,
            netlist,
            request_ids,
            streams,
            n_phases,
            pipelined,
            deadline_s,
        ) = message
        if netlist is not None:
            conn.netlists[token] = netlist
            conn.netlists.move_to_end(token)
            while len(conn.netlists) > CONNECTION_NETLIST_CACHE:
                conn.netlists.popitem(last=False)
        model = conn.netlists.get(token)
        if model is None:
            # evicted (or never shipped): ask the client to re-send —
            # the same self-healing protocol the process shards speak
            self._count("netlist_misses")
            self._enqueue_reply(conn, ("miss", burst_id))
            return
        conn.netlists.move_to_end(token)
        if len(request_ids) != len(streams):
            raise WireProtocolError(
                f"submit burst {burst_id}: {len(request_ids)} request "
                f"ids for {len(streams)} streams"
            )
        if self._draining:
            self._count("rejected_bursts")
            self._enqueue_reply(
                conn,
                ("rejected", burst_id, "closed",
                 "socket server is draining"),
            )
            return
        loop = asyncio.get_running_loop()
        try:
            clocking = None if n_phases is None else ClockingScheme(n_phases)
            # admission validates and may compile: off the event loop
            futures = await loop.run_in_executor(
                None,
                partial(
                    self._server.submit_many,
                    model,
                    streams,
                    clocking=clocking,
                    pipelined=pipelined,
                    deadline_s=deadline_s,
                ),
            )
        except ReproError as error:
            self._count("rejected_bursts")
            self._enqueue_reply(
                conn, ("rejected", burst_id, *wire_error(error))
            )
            return
        conn.inflight += len(futures)
        self._count("admitted_bursts")
        self._enqueue_reply(conn, ("admitted", burst_id))
        for request_id, future in zip(request_ids, futures):
            future.add_done_callback(
                partial(self._on_future_done, conn, request_id)
            )

    # ------------------------------------------------------------------
    # streaming sessions (loop thread)
    # ------------------------------------------------------------------
    async def _handle_s_open(
        self, conn: _Connection, message: tuple
    ) -> None:
        _, tag, session_id, netlist, n_phases, pipelined = message
        if session_id in conn.sessions:
            raise WireProtocolError(
                f"session id {session_id} is already open on this "
                "connection"
            )
        if self._draining:
            self._count("sessions_refused")
            self._enqueue_reply(
                conn,
                ("s_open_failed", tag, "closed",
                 "socket server is draining"),
            )
            return
        loop = asyncio.get_running_loop()
        try:
            clocking = None if n_phases is None else ClockingScheme(n_phases)
            # opening compiles the plan and spins the session up:
            # off the event loop, like submit admission
            session = await loop.run_in_executor(
                None,
                partial(
                    self._server.open_stream,
                    netlist,
                    clocking=clocking,
                    pipelined=pipelined,
                ),
            )
        except ReproError as error:
            self._count("sessions_refused")
            self._enqueue_reply(
                conn, ("s_open_failed", tag, *wire_error(error))
            )
            return
        conn.sessions[session_id] = session
        self._count("sessions_opened")
        self._enqueue_reply(conn, ("s_opened", tag))

    async def _handle_s_feed(
        self, conn: _Connection, message: tuple
    ) -> None:
        _, request_id, session_id, block, deadline_s = message
        session = conn.sessions.get(session_id)
        if session is None:
            self._enqueue_reply(
                conn,
                ("error", request_id, "session_closed",
                 f"no open session {session_id} on this connection"),
            )
            return
        if self._draining:
            self._enqueue_reply(
                conn,
                ("error", request_id, "closed",
                 "socket server is draining"),
            )
            return
        loop = asyncio.get_running_loop()
        try:
            # feed() validates in the caller's thread: off the loop
            future = await loop.run_in_executor(
                None, partial(session.feed, block, deadline_s=deadline_s)
            )
        except ReproError as error:
            self._enqueue_reply(
                conn, ("error", request_id, *wire_error(error))
            )
            return
        conn.inflight += 1
        future.add_done_callback(
            partial(self._on_future_done, conn, request_id)
        )

    async def _handle_s_close(
        self, conn: _Connection, message: tuple
    ) -> None:
        _, tag, session_id, drain = message
        session = conn.sessions.pop(session_id, None)
        if session is None:
            # idempotent: double-close (or teardown race) is not an error
            self._enqueue_reply(conn, ("s_closed", tag))
            return
        loop = asyncio.get_running_loop()
        try:
            # a draining close blocks until every feed resolved; their
            # result frames are scheduled before this executor call
            # returns, so FIFO puts them on the wire before s_closed
            await loop.run_in_executor(
                None, partial(session.close, drain=bool(drain))
            )
        except ReproError:
            pass  # quarantined mid-drain: its feed errors already went out
        self._count("sessions_closed")
        self._enqueue_reply(conn, ("s_closed", tag))

    async def _close_conn_sessions(self, conn: _Connection) -> None:
        """Teardown path: the peer is gone, so nothing can drain.

        Every session the connection opened closes with ``drain=False``
        — unresolved feed futures fail with
        :class:`~repro.errors.SessionClosed` (their replies drop on the
        closed connection) and the per-plan state is discarded.
        """
        sessions = list(conn.sessions.values())
        conn.sessions.clear()
        loop = asyncio.get_running_loop()
        for session in sessions:
            try:
                await loop.run_in_executor(
                    None, partial(session.close, drain=False)
                )
            except ReproError:  # pragma: no cover - already closing
                pass
            self._count("sessions_closed")

    # ------------------------------------------------------------------
    # result fan-out (shard threads -> loop thread)
    # ------------------------------------------------------------------
    def _on_future_done(
        self,
        conn: _Connection,
        request_id: int,
        future: "Future[WaveSimulationReport]",
    ) -> None:
        if future.cancelled():
            message: tuple = (
                "error", request_id, "closed",
                "request cancelled at server shutdown",
            )
        else:
            error = future.exception()
            if error is None:
                message = ("result", request_id, future.result())
            else:
                message = ("error", request_id, *wire_error(error))
        loop = self._loop
        if loop is None:  # pragma: no cover - post-teardown resolution
            return
        try:
            loop.call_soon_threadsafe(self._finish_request, conn, message)
        except RuntimeError:
            # the loop closed while this future resolved: the reply has
            # nowhere to go, but the future itself is resolved — nothing
            # strands, the client (if any) sees ConnectionLost
            self._count("dropped_replies")

    def _finish_request(self, conn: _Connection, message: tuple) -> None:
        conn.inflight -= 1
        self._enqueue_reply(conn, message)
