"""Process-level sharding: netlist groups routed to worker processes.

The PR-4 server is *thread*-sharded: independent netlist groups overlap
only where the packed kernels release the GIL inside numpy.  That covers
the ufunc-heavy step loop, but batching, packing, report slicing, and
every piece of Python glue still serialize on one core.
:class:`ProcessShardPool` removes that ceiling: each shard is a separate
OS process with its own interpreter, GIL, and
:func:`~repro.core.wavepipe.kernels.compile_netlist` cache.

Design
------
* **Wire format.**  The serve package is transport-agnostic by design —
  a request's payload is one ``(waves, inputs)`` bool block (or an empty
  list), exactly what :func:`~repro.core.wavepipe.batch.
  simulate_streams_packed` consumes.  Parent and worker exchange the
  messages of :mod:`repro.serve.codec` over a :class:`multiprocessing.Pipe`
  with ``send_bytes``/``recv_bytes`` (never the pickling ``send``/
  ``recv``): blocks go as raw bool buffers, a netlist as its three
  arrays plus names, and the reply to a batch as its reports' scalar
  fields plus one ``(waves, n_outputs)`` bool buffer each —
  bit-identical to an in-process run because the kernels are
  deterministic.  A worker-side error comes back as its wire-error
  ``(kind, message)`` pair and re-raises typed in the parent.
* **Sticky routing.**  A netlist group is always routed to the same
  worker (``hash(route key) % n_workers``), so each worker compiles a
  netlist at most once per version: the netlist itself is shipped only
  on the worker's first batch for that ``(id, version)`` — later batches
  send the key alone and hit the worker-side cache (a small LRU).
* **Supervised crash recovery.**  A worker that dies under a batch
  (OOM killer, segfault, ``kill -9``, injected chaos) surfaces as a
  broken pipe or a silent exit; one that *hangs* is detected by the
  bounded ``Connection.poll`` dispatch loop (``dispatch_timeout_s``)
  and SIGKILL-reaped.  Either way the slot is respawned under the
  :class:`~repro.serve.supervisor.WorkerSupervisor` policy — exponential
  backoff per consecutive failure, a crash-loop circuit breaker that
  takes a flapping slot out of rotation (sticky groups are rerouted to
  the next healthy slot until a half-open probe succeeds) — and the
  batch is retried, bit-identically, up to its retry budget.  A batch
  that exhausts the budget is **quarantined**: only its futures fail,
  with :class:`~repro.errors.ShardFailed`, and the pool keeps serving
  (the batch itself is the likely killer).  Restarts are reported
  through the ``on_restart`` callback, hangs through ``on_hang``,
  breaker trips through ``on_breaker_open`` (the server counts all
  three in its metrics); :meth:`ProcessShardPool.health` snapshots the
  per-slot state.
* **Deterministic chaos.**  A :class:`~repro.serve.faults.FaultPlan`
  threads seeded fault decisions through the dispatch path: the parent
  kills its own worker (``crash_before_dispatch``) or ships an in-band
  directive the worker executes (``crash``/``eof``/``hang``/``slow``) —
  so the whole supervision surface above is exercised reproducibly, by
  seed, in the chaos suite and ``repro serve-bench --faults``.
* **Spawn, not fork.**  Workers use the ``spawn`` start method: the
  parent runs shard *threads*, and forking a threaded process can
  deadlock on arbitrarily-held locks.  Spawned children import
  :mod:`repro` fresh, which is exactly the per-process compile cache the
  routing exploits.

The pool is usable on its own (``pool.simulate(...)`` is a synchronous
call, safe from concurrent threads — per-worker pipes are locked), but
its intended seat is ``SimulationServer(process_shards=N)``, where each
shard thread drives one worker process and the batcher/deadline logic
stays in the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from types import TracebackType
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..core.wavepipe.components import WaveNetlist
from ..errors import ServeError, ShardFailed
from .codec import WORKER_REPLIES, WORKER_REQUESTS, unwire_error, wire_error
from .faults import FaultPlan
from .queue import WaveStream
from .supervisor import SupervisorConfig, WorkerSupervisor

#: Worker-side cap on cached netlists (serving netlist churn must not
#: grow a worker without bound; eviction only costs a re-ship).
WORKER_NETLIST_CACHE = 32

#: Seconds a graceful worker shutdown may take before escalating to
#: terminate()/kill().
DEFAULT_STOP_TIMEOUT_S = 10.0

#: Poll granularity of the bounded dispatch-reply loop: every reply wait
#: is a sequence of short ``Connection.poll`` ticks (never an indefinite
#: ``recv``), so worker death without EOF and dispatch-timeout expiry
#: are both detected within one tick.
POLL_TICK_S = 0.05


def _post(conn: Connection, message: tuple) -> None:
    """Send one parent -> worker message over the pipe."""
    conn.send_bytes(WORKER_REQUESTS.encode(message))


def _worker_main(conn: Connection) -> None:  # pragma: no cover - runs in a child
    """Loop of one shard process: receive batches, simulate, reply.

    (Excluded from coverage measurement: this body runs in spawned
    child processes, outside the parent's coverage tracer.)
    """
    # the engine entry points, imported inside the child that runs them
    from ..core.wavepipe.batch import (
        open_packed_session,
        simulate_streams_packed,
    )
    from ..core.wavepipe.clocking import ClockingScheme
    from ..core.wavepipe.kernels import compile_netlist

    netlists: "OrderedDict[tuple, object]" = OrderedDict()
    sessions: dict = {}  # session id -> PackedSession (worker-side state)

    def _send_reply(reply: tuple) -> bool:
        try:
            conn.send_bytes(WORKER_REPLIES.encode(reply))
            return True
        except OSError:
            return False  # pipe gone: the parent is closing or died

    def _run_fault(fault: object) -> None:
        # injected chaos (see serve/faults.py): executed worker-side so
        # the failure is indistinguishable from the real thing
        if fault is None:
            return
        name, delay = fault  # type: ignore[misc]
        if name == "crash":
            os._exit(13)  # mid-batch death: no reply, no cleanup
        if name == "eof":
            conn.close()  # clean pipe EOF without a reply
            os._exit(0)
        if name in ("hang", "slow"):
            # a hang is a slow whose delay outlives the dispatch
            # timeout: the parent reaps us mid-sleep
            time.sleep(float(delay))

    while True:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError):
            return  # parent went away; nothing sane left to do
        message = WORKER_REQUESTS.decode(payload)
        kind = message[0]
        if kind == "stop":
            conn.close()
            return
        if kind == "ping":
            if not _send_reply(("pong", os.getpid())):
                return
            continue
        if kind == "warm":
            # ("warm", key, netlist, n_phases): cache the netlist and
            # pre-compile its plan so the first real batch after a
            # (re)spawn skips the compile miss.  Reply-less by design —
            # warming happens while the parent carries on — and
            # best-effort: a netlist that cannot compile simply fails
            # later, at dispatch, with the engine's own typed error
            _, key, netlist, n_phases = message
            netlists[key] = netlist
            netlists.move_to_end(key)
            while len(netlists) > WORKER_NETLIST_CACHE:
                netlists.popitem(last=False)
            try:
                compile_netlist(netlist, ClockingScheme(n_phases))
            except Exception:
                pass
            continue
        reply: tuple
        if kind == "s_open":
            # ("s_open", sid, netlist, n_phases, pipelined): create (or
            # recreate, for a feed-log replay) the worker-side engine
            # session.  The netlist is always shipped — sessions are
            # long-lived, so the one-time encoding cost is amortized
            # across every feed that follows.
            _, sid, netlist, n_phases, pipelined = message
            try:
                stale = sessions.pop(sid, None)
                if stale is not None:
                    stale.discard()  # replay: throw away poisoned state
                sessions[sid] = open_packed_session(
                    netlist,
                    clocking=ClockingScheme(n_phases),
                    pipelined=pipelined,
                    validate=False,  # validated in the parent at open time
                )
                reply = ("ok", None)
            except BaseException as error:
                reply = ("error", *wire_error(error))
            if not _send_reply(reply):
                return
            continue
        if kind == "s_feed":
            # ("s_feed", sid, block, flush, fault) -> ("ok", [(feed
            # index, report), ...]) listing every feed that *newly*
            # resolved, or ("s_lost", sid) when this worker has no such
            # session (a respawn ate the state): the parent replays the
            # session's feed log.
            _, sid, block, flush, fault = message
            _run_fault(fault)
            session = sessions.get(sid)
            if session is None:
                if not _send_reply(("s_lost", sid)):
                    return
                continue
            try:
                session.feed(block)
                if flush:
                    session.flush()
                    done = session.take_done()
                else:
                    # pump() consumes the take_done cursor itself
                    done = session.pump()
                reply = ("ok", [(h.index, h.report) for h in done])
            except BaseException as error:
                reply = ("error", *wire_error(error))
            if not _send_reply(reply):
                return
            continue
        if kind == "s_close":
            # ("s_close", sid, drain): drain resolves every remaining
            # feed (reply lists them); an undrained close just drops the
            # state.  An unknown sid is only a problem when draining —
            # the parent must replay to reconstruct the reports.
            _, sid, drain = message
            session = sessions.pop(sid, None)
            if session is None:
                reply = ("s_lost", sid) if drain else ("ok", [])
            else:
                try:
                    if drain:
                        session.close()
                        done = session.take_done()
                        reply = ("ok", [(h.index, h.report) for h in done])
                    else:
                        session.discard()
                        reply = ("ok", [])
                except BaseException as error:
                    reply = ("error", *wire_error(error))
            if not _send_reply(reply):
                return
            continue
        # ("run", key, netlist | None, n_phases, pipelined, streams, fault)
        _, key, netlist, n_phases, pipelined, streams, fault = message
        _run_fault(fault)
        try:
            if netlist is not None:
                netlists[key] = netlist
                netlists.move_to_end(key)  # re-ship of an old key
                while len(netlists) > WORKER_NETLIST_CACHE:
                    netlists.popitem(last=False)
            cached = netlists.get(key)
            if cached is None:
                # cache desync (e.g. this side evicted the key while
                # the parent still advertises it): ask for a re-ship
                # instead of failing the batch
                if not _send_reply(("miss", key)):
                    return
                continue
            netlists.move_to_end(key)  # LRU hit
            reports = simulate_streams_packed(
                cached,
                streams,
                clocking=ClockingScheme(n_phases),
                pipelined=pipelined,
                strict=False,
                validate=False,  # validated in the parent at submit time
            )
            reply = ("ok", reports)
        except BaseException as error:
            reply = ("error", *wire_error(error))
        if not _send_reply(reply):
            return


@dataclass
class _Worker:
    """Parent-side handle of one shard process."""

    process: BaseProcess
    conn: Connection
    # the lambda (rather than `threading.Lock` itself) resolves the
    # module's `threading` binding at *instantiation* time, so the
    # REPRO_SANITIZE=1 lock sanitizer instruments worker locks too
    lock: threading.Lock = field(
        default_factory=lambda: threading.Lock()
    )
    #: (netlist id, version) -> netlist: the keys this worker is known
    #: to have cached, holding a *strong* netlist reference.  The pin
    #: matters for correctness, not just speed: the key contains
    #: ``id(netlist)``, and only the pinned reference guarantees that
    #: id cannot be recycled by a different netlist while the worker
    #: still holds the old one under that key.  Bounded like the
    #: worker-side cache; reset on respawn (a fresh process has a
    #: fresh cache).  Desync in either direction is harmless — the
    #: worker answers ``miss`` and the batch is re-shipped.
    known: "OrderedDict[tuple, object]" = field(
        default_factory=OrderedDict
    )


class _AttemptFailed(Exception):
    """Internal: one dispatch attempt lost its worker (crash/hang/EOF)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _SlotUnavailable(Exception):
    """Internal: the chosen slot broke before the batch was dispatched."""


class SessionWorkerLost(Exception):
    """A streaming session's worker — and its engine state — was lost.

    Raised by :meth:`ProcessShardPool.session_feed` /
    :meth:`~ProcessShardPool.session_close` after the slot has been
    respawned and accounted under supervision.  Deliberately *not* a
    :class:`~repro.errors.ServeError`: it never reaches users.  The
    serving layer catches it, re-opens the worker-side session, and
    replays the session's feed log from scratch — bit-identical to the
    uninterrupted run because the packed kernels are deterministic.
    """

    def __init__(self, slot: int, reason: str) -> None:
        super().__init__(f"slot {slot}: {reason}")
        self.slot = slot
        self.reason = reason


def _wire_streams(
    streams: Sequence[WaveStream],
) -> list:
    """Payloads in the numpy wire format: one bool block per stream.

    ndarray payloads pass through untouched; list payloads are packed
    into ``(waves, inputs)`` bool blocks, which the codec ships as raw
    buffers.  Empty streams stay the empty list — their report is
    synthesized without touching the kernels on either side.
    """
    wire: list[object] = []
    for vectors in streams:
        if isinstance(vectors, np.ndarray) or len(vectors) == 0:
            wire.append(vectors if len(vectors) else [])
        else:
            wire.append(np.asarray(vectors, dtype=bool))
    return wire


class ProcessShardPool:
    """Fixed pool of simulation worker processes with sticky routing.

    Parameters
    ----------
    n_workers:
        Shard processes to spawn (eagerly, so routing and the chaos
        tests see live pids immediately).
    on_restart:
        Optional zero-argument callback invoked once per dead-worker
        respawn (the server wires its ``worker_restarts`` metric here).
    on_hang:
        Optional callback invoked once per hung worker detected and
        reaped by the dispatch timeout.
    on_breaker_open:
        Optional callback invoked once per crash-loop circuit breaker
        trip.
    dispatch_timeout_s:
        Upper bound on one dispatch's reply wait.  A worker that has
        neither replied nor died within it is *hung*: it is SIGKILLed,
        the hang counts as a slot failure, and the batch retries under
        its budget.  ``None`` (default) disables hang detection — the
        reply wait is still a bounded poll loop (worker death without
        EOF is detected within :data:`POLL_TICK_S`), it just never
        gives up on a live worker.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` — the seeded
        chaos schedule consulted once per dispatch attempt.
    supervision:
        :class:`~repro.serve.supervisor.SupervisorConfig` overriding the
        default backoff/breaker/retry-budget policy.
    warm_netlists:
        Netlists every worker is told about *at spawn* — each is
        shipped (and its plan pre-compiled, worker-side, reply-less)
        before the first batch, so a freshly spawned **or respawned**
        worker never pays the compile miss on its first dispatch.
        Bounded by the worker cache size: only the last
        :data:`WORKER_NETLIST_CACHE` entries are kept.
    warm_n_phases:
        Clocking phase count the warm pre-compile targets (matches the
        dispatch-time ``n_phases`` for the warm plans to be the ones
        reused).
    """

    def __init__(
        self,
        n_workers: int,
        *,
        on_restart: Optional[Callable[[], None]] = None,
        on_hang: Optional[Callable[[], None]] = None,
        on_breaker_open: Optional[Callable[[], None]] = None,
        dispatch_timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        supervision: Optional[SupervisorConfig] = None,
        warm_netlists: Optional[Sequence[WaveNetlist]] = None,
        warm_n_phases: int = 3,
    ) -> None:
        if n_workers < 1:
            raise ServeError("a process pool needs at least one worker")
        if dispatch_timeout_s is not None and dispatch_timeout_s <= 0:
            raise ServeError("dispatch_timeout_s must be > 0")
        self._ctx = multiprocessing.get_context("spawn")
        self._on_restart = on_restart
        self._on_hang = on_hang
        self._on_breaker_open = on_breaker_open
        self._dispatch_timeout_s = dispatch_timeout_s
        self._faults = faults
        self._supervisor = WorkerSupervisor(int(n_workers), supervision)
        # (dispatch key, pinned netlist, phases) shipped on every spawn;
        # the pinned reference keeps id(netlist) — part of the key —
        # unrecycled for the pool's lifetime, mirroring _Worker.known
        self._warm: "list[tuple[tuple, WaveNetlist, int]]" = [
            ((id(netlist), netlist.version), netlist, int(warm_n_phases))
            for netlist in (warm_netlists or [])
        ][-WORKER_NETLIST_CACHE:]
        self._closed = False
        self._state_lock = threading.Lock()
        self._workers: list[_Worker] = [
            self._spawn() for _ in range(int(n_workers))
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        try:
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn,),
                name="repro-serve-worker",
                daemon=True,
            )
            process.start()
        except BaseException:
            # a failed spawn (fork/exec error, interpreter shutdown)
            # must not leak the pipe pair
            parent_conn.close()
            child_conn.close()
            raise
        try:
            child_conn.close()  # the child holds its own copy
        except BaseException:
            # close failing leaves a started worker nobody owns yet:
            # reap it before propagating
            process.terminate()
            parent_conn.close()
            raise
        worker = _Worker(process=process, conn=parent_conn)
        # warm pre-compile: pipe messages are FIFO, so by the time any
        # batch reaches this worker the warm netlists are cached (and,
        # compile being serialized worker-side, their plans built) —
        # respawned slots re-warm automatically because every spawn
        # goes through here.  known is pre-populated so the parent
        # skips the re-ship on the first dispatch too
        for key, netlist, n_phases in self._warm:
            try:
                _post(worker.conn, ("warm", key, netlist, n_phases))
            except (OSError, ValueError):  # pragma: no cover - spawn race
                break  # a worker this broken fails at dispatch, typed
            worker.known[key] = netlist
            worker.known.move_to_end(key)
        return worker

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def worker_pids(self) -> list[int]:
        """Live worker pids (the chaos tests' kill targets)."""
        return [
            worker.process.pid
            for worker in self._workers
            if worker.process.is_alive() and worker.process.pid is not None
        ]

    def health(self) -> dict[str, object]:
        """Supervision snapshot: per-slot state plus pool-wide counters.

        Each worker entry carries the slot index, pid, liveness, the
        supervisor's state machine (``healthy`` / ``broken`` /
        ``probe-ready`` / ``probing``), restart and consecutive-failure
        counts, and the breaker status; the top level adds the
        cumulative ``hung_reaped`` / ``quarantined_batches`` /
        ``breaker_opens`` / ``worker_restarts`` totals.
        """
        now = time.monotonic()
        states = self._supervisor.slot_states(now)
        workers: list[dict[str, object]] = []
        for index, state in enumerate(states):
            worker = self._workers[index]
            entry: dict[str, object] = {
                "slot": index,
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
            }
            entry.update(state)
            workers.append(entry)
        snapshot: dict[str, object] = {"workers": workers}
        snapshot.update(self._supervisor.totals())
        return snapshot

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop every worker: graceful stop, then terminate, then kill.

        *timeout* is one **shared deadline budget** across the whole
        pool, not a per-worker join allowance: with N slow workers total
        graceful shutdown is still bounded by ~*timeout* (plus the short
        fixed terminate/kill escalation grace), never N x *timeout*.
        """
        timeout = DEFAULT_STOP_TIMEOUT_S if timeout is None else timeout
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        for worker in self._workers:
            # the per-worker lock serializes this stop frame against a
            # simulate() mid-send from another thread (interleaving two
            # writers would corrupt the pipe stream); holding it means
            # graceful close waits for the in-flight batch, which is
            # the drain semantics close promises
            with worker.lock:
                try:
                    _post(worker.conn, ("stop",))
                except (OSError, ValueError):
                    pass  # already dead or pipe gone: terminate below
        deadline_at = time.monotonic() + max(0.0, float(timeout))
        for worker in self._workers:
            worker.process.join(
                max(0.0, deadline_at - time.monotonic())
            )
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            if worker.process.is_alive():  # pragma: no cover - last resort
                worker.process.kill()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass

    def kill(self) -> None:
        """Hard teardown: SIGKILL every worker, close pipes, **no locks**.

        The deadlock-guard path of ``SimulationServer.close`` calls
        this when a shard thread failed to stop: that thread may be
        blocked mid-conversation still *holding its worker's dispatch
        lock*, so the graceful :meth:`close` (which takes every worker
        lock to drain in-flight batches) could hang behind it forever.
        Killing without the locks is safe here — the workers are being
        discarded, not drained, and a SIGKILL'd child cannot corrupt
        parent state.  Idempotent, and safe to call after
        :meth:`close`.
        """
        with self._state_lock:
            self._closed = True
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _worker_for(self, route_key: object) -> int:
        # lint: determinism-hash-ok(sticky routing only needs within-process consistency; the hash never crosses a run or a process)
        return hash(route_key) % len(self._workers)

    def _reap_slot(self, index: int) -> None:
        """Tear the slot's process and pipe down (it is being replaced)."""
        old = self._workers[index]
        try:
            old.conn.close()
        except OSError:  # pragma: no cover
            pass
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(1.0)

    def _respawn_slot(self, index: int) -> _Worker:
        """Spawn a fresh worker into *index* (caller holds its lock slot)."""
        with self._state_lock:
            if self._closed:
                raise ServeError("process shard pool is closed")
        old = self._workers[index]
        fresh = self._spawn()
        # carry the in-flight dispatch lock over: the caller already
        # holds old.lock, and per-index serialization must continue to
        # funnel through that same lock object
        fresh.lock = old.lock
        self._workers[index] = fresh
        if self._on_restart is not None:
            self._on_restart()
        return fresh

    def _revive(self, index: int) -> _Worker:
        """Replace a worker found dead *at dispatch* (crash-between-
        batches discovery): the death counts toward the slot's failure
        streak and backoff, but not toward any batch's retry budget —
        no batch was in flight when it died.  Raises
        :class:`_SlotUnavailable` when the streak opens the breaker
        (the caller reroutes instead of respawning a crash-looper).
        """
        if self._supervisor.breaker_open(index):
            # a breaker-open slot is deliberately left dead, so finding
            # its worker dead during the half-open probe is expected —
            # respawn without charging a failure; the probe's verdict
            # is the dispatch that follows
            self._reap_slot(index)
            return self._respawn_slot(index)
        backoff_s, opened = self._supervisor.record_failure(
            index, time.monotonic()
        )
        self._reap_slot(index)
        if opened:
            if self._on_breaker_open is not None:
                self._on_breaker_open()
            raise _SlotUnavailable(f"slot {index} breaker opened")
        if backoff_s > 0.0:
            time.sleep(backoff_s)
        return self._respawn_slot(index)

    def _fail_slot(self, index: int, reason: str) -> None:
        """Handle a slot failure *under a batch*: respawn or break.

        Accounts the failure with the supervisor, then either respawns
        the slot after its exponential backoff or — when the streak
        opens the circuit breaker — leaves it dead for routing to skip.
        Either way the caller's batch retries (within its budget) via
        a fresh :meth:`_attempt`.
        """
        backoff_s, opened = self._supervisor.record_failure(
            index, time.monotonic()
        )
        self._reap_slot(index)
        if opened:
            if self._on_breaker_open is not None:
                self._on_breaker_open()
            return
        if backoff_s > 0.0:
            time.sleep(backoff_s)
        try:
            self._respawn_slot(index)
        except ServeError:
            # pool closed mid-recovery: leave the slot dead; the retry
            # loop will observe the closed pool and fail the batch
            pass

    def _receive(self, index: int, worker: _Worker) -> Tuple[str, object]:
        """Await one reply via bounded polls; never an indefinite recv.

        Returns ``(status, payload)``; an ``error`` reply's payload is
        its decoded typed exception, for the caller to raise.  Detects,
        within one :data:`POLL_TICK_S` tick: a reply (returned),
        worker death without EOF (``_AttemptFailed``), pipe EOF/reset
        (``_AttemptFailed``), and — when ``dispatch_timeout_s`` is set —
        a hung worker, which is SIGKILL-reaped before the attempt fails.
        """
        timeout_s = self._dispatch_timeout_s
        deadline_at = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        while True:
            tick = POLL_TICK_S
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0.0:
                    # hung: neither a reply nor a death within the
                    # dispatch timeout — reap it so the slot (and the
                    # batch) can move on
                    worker.process.kill()
                    worker.process.join(1.0)
                    self._supervisor.note_hang_reaped()
                    if self._on_hang is not None:
                        self._on_hang()
                    raise _AttemptFailed(
                        f"worker hung past the {timeout_s:.3f}s "
                        "dispatch timeout and was killed"
                    )
                tick = min(tick, max(0.0, remaining))
            try:
                if worker.conn.poll(tick):
                    message = WORKER_REPLIES.decode(worker.conn.recv_bytes())
                    if message[0] == "error":
                        return "error", unwire_error(message[1], message[2])
                    return message[0], message[1]
            except (EOFError, BrokenPipeError, ConnectionResetError,
                    OSError):
                raise _AttemptFailed(
                    "worker pipe closed under the batch"
                ) from None
            if not worker.process.is_alive() and not worker.conn.poll(0):
                # dead with no reply left in the pipe buffer
                raise _AttemptFailed("worker died under the batch")

    def _attempt(
        self,
        index: int,
        key: tuple,
        netlist: WaveNetlist,
        wire: list,
        n_phases: int,
        pipelined: bool,
        route: object,
    ) -> list:
        """One dispatch attempt on slot *index* (its lock is held).

        Raises :class:`_SlotUnavailable` if the slot broke before the
        batch was sent, :class:`_AttemptFailed` if the worker was lost
        under the batch; worker-side simulation errors re-raise as the
        in-process engine would have raised them.
        """
        worker = self._workers[index]
        if not worker.process.is_alive():
            worker = self._revive(index)
        fault = (
            None
            if self._faults is None
            else self._faults.next_fault(route_key=route)
        )
        if fault is not None and fault.kind == "crash_before_dispatch":
            # parent-side chaos: the worker dies between batches and the
            # dispatch path discovers it — the revive-at-dispatch case
            worker.process.kill()
            worker.process.join(1.0)
            worker = self._revive(index)
            fault = None
        directive = None if fault is None else fault.wire()
        # identity check, not just key membership: the pinned reference
        # is what keeps id(netlist) unrecycled, so a key whose pin is a
        # *different* object must re-ship
        ship_netlist = worker.known.get(key) is not netlist
        while True:
            try:
                _post(
                    worker.conn,
                    (
                        "run",
                        key,
                        netlist if ship_netlist else None,
                        int(n_phases),
                        bool(pipelined),
                        wire,
                        directive,
                    ),
                )
            except (OSError, ValueError):
                raise _AttemptFailed(
                    "worker pipe closed at dispatch"
                ) from None
            status, payload = self._receive(index, worker)
            if status == "miss":
                # the worker evicted (or never had) this key while the
                # parent advertised it: re-ship and retry — self-healing
                # against any cache desync.  The injected fault (if any)
                # was not consumed by the miss round trip exactly once,
                # so clear it rather than double-inject
                ship_netlist = True
                directive = None
                continue
            if status == "error":
                self._supervisor.record_success(index)  # the slot is fine
                raise payload  # type: ignore[misc]
            worker.known[key] = netlist
            worker.known.move_to_end(key)
            while len(worker.known) > WORKER_NETLIST_CACHE:
                worker.known.popitem(last=False)
            self._supervisor.record_success(index)
            return payload  # type: ignore[return-value]

    def simulate(
        self,
        netlist: WaveNetlist,
        streams: Sequence[WaveStream],
        *,
        n_phases: int = 3,
        pipelined: bool = True,
        route_key: object = None,
    ) -> list:
        """Run one batch on this group's worker; returns the reports.

        Synchronous: blocks until the worker replies (concurrent calls
        for *different* groups proceed in parallel on their own
        workers).  Worker death or hang is absorbed by supervised
        respawn-and-retry — every retry is bit-identical because
        simulation is deterministic — up to the batch's retry budget;
        past it the batch is quarantined with
        :class:`~repro.errors.ShardFailed` (and
        :class:`ShardFailed` is also raised, without any dispatch, when
        every slot's circuit breaker is open).  Worker-side simulation
        errors re-raise here exactly as the in-process engine would
        have raised them.
        """
        with self._state_lock:
            if self._closed:
                raise ServeError("process shard pool is closed")
        key = (id(netlist), netlist.version)
        route = route_key if route_key is not None else key
        home = self._worker_for(route)
        wire = _wire_streams(streams)
        budget = self._supervisor.config.max_batch_retries
        failures = 0
        reroutes = 0
        while True:
            with self._state_lock:
                if self._closed:
                    raise ServeError("process shard pool is closed")
            index = self._supervisor.pick_slot(home, time.monotonic())
            if index is None:
                raise ShardFailed(
                    f"every worker slot's circuit breaker is open; "
                    f"batch of {len(wire)} streams was not dispatched"
                )
            slot_lock = self._workers[index].lock
            try:
                with slot_lock:
                    try:
                        return self._attempt(
                            index, key, netlist, wire, int(n_phases),
                            bool(pipelined), route,
                        )
                    except _AttemptFailed as failed:
                        # recover the slot while still holding its lock:
                        # reaping/respawning unlocked would race another
                        # thread's fresh dispatch on the same slot (the
                        # backoff cap is far below the sanitizer's lock
                        # hold threshold)
                        self._fail_slot(index, failed.reason)
                        raise
            except _SlotUnavailable:
                # the slot broke before this batch was sent: reroute
                # without charging the batch's retry budget, but bound
                # the scan so cascading breakers cannot loop forever
                reroutes += 1
                if reroutes > len(self._workers):
                    raise ShardFailed(
                        f"no dispatchable worker slot left for a batch "
                        f"of {len(wire)} streams: every slot is broken "
                        "or breaking"
                    ) from None
                continue
            except _AttemptFailed as failed:
                failures += 1
                if failures > budget:
                    self._supervisor.note_quarantine()
                    raise ShardFailed(
                        f"batch of {len(wire)} streams failed "
                        f"{failures} dispatch attempts (last: "
                        f"{failed.reason}); quarantined as a poison "
                        "batch — only this batch fails, the pool keeps "
                        "serving"
                    ) from None
                continue

    # ------------------------------------------------------------------
    # streaming sessions
    # ------------------------------------------------------------------
    def session_open(
        self,
        session_id: str,
        netlist: WaveNetlist,
        *,
        n_phases: int = 3,
        pipelined: bool = True,
        route_key: object = None,
    ) -> int:
        """Open (or re-open, for a feed-log replay) a worker session.

        Routes sticky (``hash(route key) % n_workers``) and returns the
        slot index the session landed on — every later
        :meth:`session_feed` / :meth:`session_close` must target that
        slot.  Worker loss during the open retries on a healthy slot
        under the batch retry budget (the session has no state yet, so
        a plain retry is safe); worker-side open errors (e.g. an
        unbalanced netlist) re-raise typed.
        """
        with self._state_lock:
            if self._closed:
                raise ServeError("process shard pool is closed")
        route = route_key if route_key is not None else session_id
        home = self._worker_for(route)
        budget = self._supervisor.config.max_batch_retries
        failures = 0
        reroutes = 0
        while True:
            with self._state_lock:
                if self._closed:
                    raise ServeError("process shard pool is closed")
            index = self._supervisor.pick_slot(home, time.monotonic())
            if index is None:
                raise ShardFailed(
                    f"every worker slot's circuit breaker is open; "
                    f"session {session_id!r} cannot be opened"
                )
            slot_lock = self._workers[index].lock
            try:
                with slot_lock:
                    try:
                        worker = self._workers[index]
                        if not worker.process.is_alive():
                            worker = self._revive(index)
                        try:
                            _post(
                                worker.conn,
                                (
                                    "s_open",
                                    session_id,
                                    netlist,
                                    int(n_phases),
                                    bool(pipelined),
                                ),
                            )
                        except (OSError, ValueError):
                            raise _AttemptFailed(
                                "worker pipe closed at session open"
                            ) from None
                        status, payload = self._receive(index, worker)
                        if status == "error":
                            # the slot is fine; the *session* is not
                            self._supervisor.record_success(index)
                            raise payload  # type: ignore[misc]
                        self._supervisor.record_success(index)
                        return index
                    except _AttemptFailed as failed:
                        self._fail_slot(index, failed.reason)
                        raise
            except _SlotUnavailable:
                reroutes += 1
                if reroutes > len(self._workers):
                    raise ShardFailed(
                        f"no dispatchable worker slot left to open "
                        f"session {session_id!r}: every slot is broken "
                        "or breaking"
                    ) from None
                continue
            except _AttemptFailed as failed:
                failures += 1
                if failures > budget:
                    self._supervisor.note_quarantine()
                    raise ShardFailed(
                        f"session {session_id!r} failed {failures} open "
                        f"attempts (last: {failed.reason})"
                    ) from None
                continue

    def session_feed(
        self,
        session_id: str,
        slot: int,
        block: object,
        *,
        flush: bool,
        route_key: object = None,
    ) -> list:
        """One feed round trip; returns newly resolved (index, report)s.

        Single attempt, no silent retry: losing the worker loses the
        session's engine state, so the *caller* must replay the feed log
        — signalled by :class:`SessionWorkerLost`, raised only after the
        slot has been respawned and accounted under supervision.  The
        seeded fault plan is consulted exactly like a batch dispatch;
        worker-side engine errors re-raise typed.
        """
        with self._state_lock:
            if self._closed:
                raise ServeError("process shard pool is closed")
        route = route_key if route_key is not None else session_id
        with self._workers[slot].lock:
            worker = self._workers[slot]
            if not worker.process.is_alive():
                # died between feeds: the engine state is gone either
                # way — account + respawn, then have the caller replay
                self._fail_slot(slot, "worker died between session feeds")
                raise SessionWorkerLost(
                    slot, "worker died between session feeds"
                )
            fault = (
                None
                if self._faults is None
                else self._faults.next_fault(route_key=route)
            )
            if fault is not None and fault.kind == "crash_before_dispatch":
                worker.process.kill()
                worker.process.join(1.0)
                self._fail_slot(slot, "injected crash before dispatch")
                raise SessionWorkerLost(
                    slot, "injected crash before dispatch"
                )
            directive = None if fault is None else fault.wire()
            try:
                _post(
                    worker.conn,
                    ("s_feed", session_id, block, bool(flush), directive),
                )
            except (OSError, ValueError):
                self._fail_slot(
                    slot, "worker pipe closed at session feed"
                )
                raise SessionWorkerLost(
                    slot, "worker pipe closed at session feed"
                ) from None
            try:
                status, payload = self._receive(slot, worker)
            except _AttemptFailed as failed:
                self._fail_slot(slot, failed.reason)
                raise SessionWorkerLost(slot, failed.reason) from None
            if status == "s_lost":
                # a respawn ate the worker-side session (another group's
                # dispatch revived the slot): the state is gone but the
                # slot is healthy — replay without charging a failure
                self._supervisor.record_success(slot)
                raise SessionWorkerLost(
                    slot, "worker-side session state lost to a respawn"
                )
            if status == "error":
                self._supervisor.record_success(slot)
                raise payload  # type: ignore[misc]
            self._supervisor.record_success(slot)
            return payload  # type: ignore[return-value]

    def session_close(
        self, session_id: str, slot: int, *, drain: bool
    ) -> list:
        """Close a worker session; returns the drain's (index, report)s.

        With ``drain`` the worker flushes the session first and the
        reply lists every feed the drain resolved; without it the state
        is dropped on the floor (an unknown sid is then not an error).
        Worker loss raises :class:`SessionWorkerLost` — actionable only
        when draining (an undrained close has nothing left to lose).
        """
        with self._state_lock:
            if self._closed:
                raise ServeError("process shard pool is closed")
        with self._workers[slot].lock:
            worker = self._workers[slot]
            if not worker.process.is_alive():
                self._fail_slot(slot, "worker died before session close")
                raise SessionWorkerLost(
                    slot, "worker died before session close"
                )
            try:
                _post(worker.conn, ("s_close", session_id, bool(drain)))
            except (OSError, ValueError):
                self._fail_slot(
                    slot, "worker pipe closed at session close"
                )
                raise SessionWorkerLost(
                    slot, "worker pipe closed at session close"
                ) from None
            try:
                status, payload = self._receive(slot, worker)
            except _AttemptFailed as failed:
                self._fail_slot(slot, failed.reason)
                raise SessionWorkerLost(slot, failed.reason) from None
            if status == "s_lost":
                self._supervisor.record_success(slot)
                raise SessionWorkerLost(
                    slot, "worker-side session state lost to a respawn"
                )
            if status == "error":
                self._supervisor.record_success(slot)
                raise payload  # type: ignore[misc]
            self._supervisor.record_success(slot)
            return payload  # type: ignore[return-value]
