"""One execution core for both shard transports.

:class:`ShardCore` is the only code in :mod:`repro.serve` that calls
the packed engine.  Its :meth:`~ShardCore.handle` takes a decoded
:data:`~repro.serve.codec.WORKER_REQUESTS` message and returns the
reply a shard sends back, so both ways a
:class:`~repro.serve.server.SimulationServer` executes work run the
same code:

* **process shards** — each worker process
  (:func:`repro.serve.shards._worker_main`) is a pipe loop around one
  core: decode, run the message's fault directive, ``handle``, send;
* **thread shards** — :class:`InProcessPool` is the same core without
  the pipe: it builds the same message tuples and calls ``handle`` on
  the caller's thread, offering the server the methods of
  :class:`~repro.serve.shards.ProcessShardPool`.

A core holds two tables: a small LRU of netlists by dispatch key, and
the open engine sessions by session id.  One lock guards both, held for
table operations only and never across a kernel call: thread shards and
session dispatchers share one core and must simulate concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Optional, Sequence

from ..core.wavepipe.batch import (
    PackedSession,
    open_packed_session,
    simulate_streams_packed,
)
from ..core.wavepipe.clocking import ClockingScheme
from ..core.wavepipe.components import WaveNetlist
from ..core.wavepipe.kernels import compile_netlist
from ..errors import ServeError, ShardFailed
from .faults import Fault, FaultPlan
from .queue import WaveStream

#: Cap on a core's cached netlists (serving netlist churn must not grow
#: a shard without bound; eviction only costs a re-ship).
WORKER_NETLIST_CACHE = 32


class SessionWorkerLost(Exception):
    """A streaming session's worker — and its engine state — was lost.

    Raised by the transports' ``session_feed`` / ``session_close``:
    by :class:`~repro.serve.shards.ProcessShardPool` after the slot has
    been respawned and accounted under supervision, and by
    :class:`InProcessPool` when an injected fault dropped the session.
    Deliberately *not* a :class:`~repro.errors.ServeError`: it never
    reaches users.  The serving layer catches it, re-opens the session,
    and replays the session's feed log from scratch — bit-identical to
    the uninterrupted run because the packed kernels are deterministic.
    """

    def __init__(self, slot: int, reason: str) -> None:
        super().__init__(f"slot {slot}: {reason}")
        self.slot = slot
        self.reason = reason


class ShardCore:
    """Executes decoded worker messages against the packed engine.

    ``handle(message)`` accepts these messages and replies:

    * ``("run", key, netlist | None, n_phases, pipelined, streams,
      fault)`` -> ``("ok", reports)``, or ``("miss", key)`` when the
      netlist was not shipped and *key* is not cached;
    * ``("warm", key, netlist, n_phases)`` -> ``None``: no reply.  The
      netlist is cached and its plan pre-compiled, best-effort — a
      netlist that cannot compile fails later, at dispatch, typed;
    * ``("s_open", sid, netlist, n_phases, pipelined)`` ->
      ``("ok", None)``, discarding any live session of that id first
      (a feed-log replay re-opens over poisoned state);
    * ``("s_feed", sid, block, flush, fault)`` -> ``("ok", [(feed
      index, report), ...])`` listing every feed that *newly* resolved,
      or ``("s_lost", sid)`` when no such session is open;
    * ``("s_close", sid, drain)`` -> ``("ok", [(feed index, report),
      ...])``: a drain resolves every remaining feed, an undrained close
      drops the state.  An unknown *sid* is ``("s_lost", sid)`` only
      when draining — the caller must replay to rebuild the reports.

    ``fault`` fields belong to the transport and are ignored here.
    Engine errors raise with their own types; turning them into wire
    errors is the worker loop's job.  Streams and netlists were
    validated where the request was admitted, so the engine does not
    validate them again.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._netlists: "OrderedDict[tuple, WaveNetlist]" = OrderedDict()
        self._sessions: dict[str, PackedSession] = {}

    def _netlist(
        self, key: tuple, shipped: Optional[WaveNetlist]
    ) -> Optional[WaveNetlist]:
        """Cache a *shipped* netlist under *key*, else look *key* up.

        A found netlist becomes the most recent entry; ``None`` means
        nothing was shipped and *key* is not cached.
        """
        with self._lock:
            if shipped is not None:
                self._netlists[key] = shipped
            cached = self._netlists.get(key)
            if cached is not None:
                self._netlists.move_to_end(key)
            while len(self._netlists) > WORKER_NETLIST_CACHE:
                self._netlists.popitem(last=False)
            return cached

    def handle(self, message: tuple) -> Optional[tuple]:
        """Execute one worker message; returns its reply (see class doc)."""
        kind = message[0]
        if kind == "run":
            _, key, netlist, n_phases, pipelined, streams, _ = message
            cached = self._netlist(key, netlist)
            if cached is None:
                # cache desync (e.g. this side evicted the key while
                # the parent still advertises it): ask for a re-ship
                # instead of failing the batch
                return ("miss", key)
            reports = simulate_streams_packed(
                cached,
                streams,
                clocking=ClockingScheme(n_phases),
                pipelined=pipelined,
                strict=False,
                validate=False,
            )
            return ("ok", reports)
        if kind == "warm":
            _, key, netlist, n_phases = message
            self._netlist(key, netlist)
            try:
                compile_netlist(netlist, ClockingScheme(n_phases))
            except Exception:
                pass  # best-effort: the dispatch raises it typed
            return None
        if kind == "s_open":
            _, sid, netlist, n_phases, pipelined = message
            with self._lock:
                stale = self._sessions.pop(sid, None)
            if stale is not None:
                stale.discard()  # replay: throw away poisoned state
            session = open_packed_session(
                netlist,
                clocking=ClockingScheme(n_phases),
                pipelined=pipelined,
                validate=False,
            )
            with self._lock:
                self._sessions[sid] = session
            return ("ok", None)
        if kind == "s_feed":
            _, sid, block, flush, _ = message
            with self._lock:
                found = self._sessions.get(sid)
            if found is None:
                return ("s_lost", sid)
            found.feed(block)
            if flush:
                found.flush()
                done = found.take_done()
            else:
                # pump() consumes the take_done cursor itself
                done = found.pump()
            return ("ok", [(handle.index, handle.report) for handle in done])
        if kind == "s_close":
            _, sid, drain = message
            with self._lock:
                found = self._sessions.pop(sid, None)
            if found is None:
                return ("s_lost", sid) if drain else ("ok", [])
            if not drain:
                found.discard()
                return ("ok", [])
            found.close()
            done = found.take_done()
            return ("ok", [(handle.index, handle.report) for handle in done])
        raise ServeError(f"a shard core cannot handle {kind!r} messages")


class InProcessPool:
    """Thread-mode transport: a :class:`ShardCore` called directly.

    Offers the server the methods of
    :class:`~repro.serve.shards.ProcessShardPool`.  Each builds the
    message a worker process would receive and hands it to one shared
    core on the calling thread: no codec, no sticky routing, no slot
    lock.  Engine errors keep their own types.

    A :class:`~repro.serve.faults.FaultPlan` is consulted where the
    pool consults it — once per batch and once per session feed, with
    the same route keys.  Nothing here can be killed or reaped, so
    ``slow`` sleeps and ``hang`` is skipped (the plan counts it as
    skipped); the worker-killing kinds
    fail a batch with :class:`~repro.errors.ShardFailed`, and on a feed
    they drop the session's state and raise :class:`SessionWorkerLost`,
    which the server answers with a feed-log replay.
    """

    #: ``health()["mode"]`` of a server on this transport.
    mode = "thread"

    def __init__(self, faults: Optional[FaultPlan] = None) -> None:
        self._core = ShardCore()
        self._faults = faults

    def _fault(self, route: object) -> Optional[Fault]:
        """Draw one dispatch's fault; returns it if it kills a worker."""
        if self._faults is None:
            return None
        fault = self._faults.next_fault(route_key=route)
        if fault is None or fault.kind == "hang":
            if fault is not None:  # nothing could reap a hung call here
                self._faults.note_skipped(fault.kind)
            return None
        if fault.kind == "slow":
            time.sleep(fault.delay_s)
            return None
        return fault

    def _handle(self, message: tuple) -> Any:
        """The payload of *message*'s ``ok`` reply from the core."""
        reply = self._core.handle(message)
        if reply is None or reply[0] != "ok":
            raise SessionWorkerLost(0, f"{message[0]} was answered {reply}")
        return reply[1]

    def simulate(
        self,
        netlist: WaveNetlist,
        streams: Sequence[WaveStream],
        *,
        n_phases: int = 3,
        pipelined: bool = True,
        route_key: object = None,
    ) -> list:
        """Run one batch; returns its reports (see the class doc)."""
        key = (id(netlist), netlist.version)
        fault = self._fault(route_key if route_key is not None else key)
        if fault is not None:
            raise ShardFailed(
                f"injected {fault.kind} fault (in-process stand-in for "
                "a worker crash)"
            )
        return self._handle(
            ("run", key, netlist, n_phases, pipelined, streams, None)
        )

    def session_open(
        self,
        session_id: str,
        netlist: WaveNetlist,
        *,
        n_phases: int = 3,
        pipelined: bool = True,
        route_key: object = None,
    ) -> int:
        """Open (or re-open, for a replay) a session; its slot is 0."""
        self._handle(("s_open", session_id, netlist, n_phases, pipelined))
        return 0

    def session_feed(
        self,
        session_id: str,
        slot: int,
        block: object,
        *,
        flush: bool,
        route_key: object = None,
    ) -> list:
        """One feed; returns the newly resolved (index, report)s."""
        fault = self._fault(route_key if route_key is not None else session_id)
        if fault is not None:
            self._core.handle(("s_close", session_id, False))
            raise SessionWorkerLost(
                slot, f"injected {fault.kind} fault dropped the session"
            )
        return self._handle(("s_feed", session_id, block, flush, None))

    def session_close(
        self, session_id: str, slot: int, *, drain: bool
    ) -> list:
        """Close a session; returns the drain's (index, report)s."""
        return self._handle(("s_close", session_id, drain))

    def health(self) -> dict[str, object]:
        """No worker processes to report."""
        return {"workers": []}

    def close(self, timeout: Optional[float] = None) -> None:
        """Nothing to stop: the core runs on its callers' threads."""

    def kill(self) -> None:
        """Nothing to kill (see :meth:`close`)."""
