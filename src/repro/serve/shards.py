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
* **One execution core.**  A worker is a pipe loop around one
  :class:`~repro.serve.core.ShardCore`: it decodes a message, executes
  the message's fault directive, and sends back the core's reply.
  Thread shards run the same core in process
  (:class:`~repro.serve.core.InProcessPool`), so this module holds only
  the transport: pipes, routing, and supervision.
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
from typing import Any, Callable, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..core.wavepipe.components import WaveNetlist
from ..errors import ServeError, ShardFailed
from .codec import WORKER_REPLIES, WORKER_REQUESTS, unwire_error, wire_error
from .core import WORKER_NETLIST_CACHE, SessionWorkerLost, ShardCore
from .faults import FaultPlan
from .queue import WaveStream
from .supervisor import SupervisorConfig, WorkerSupervisor

_T = TypeVar("_T")

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
    """Loop of one shard process: a pipe around one :class:`ShardCore`.

    Each message is decoded, its fault directive (``run`` and
    ``s_feed`` carry one) is executed worker-side so that injected
    chaos is indistinguishable from the real thing, and the core's
    reply goes back in one ``send_bytes`` — an exception as its
    wire-error pair.  ``warm`` has no reply.

    (Excluded from coverage measurement: this body runs in spawned
    child processes, outside the parent's coverage tracer.)
    """
    core = ShardCore()
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
        if kind in ("run", "s_feed") and message[-1] is not None:
            name, delay = message[-1]
            if name == "crash":
                os._exit(13)  # mid-batch death: no reply, no cleanup
            if name == "eof":
                conn.close()  # clean pipe EOF without a reply
                os._exit(0)
            # hang or slow: a hang is a slow whose delay outlives the
            # dispatch timeout, so the parent reaps us mid-sleep
            time.sleep(float(delay))
        try:
            reply = core.handle(message)
        except BaseException as error:
            reply = ("error", *wire_error(error))
        if reply is None:
            continue
        try:
            conn.send_bytes(WORKER_REPLIES.encode(reply))
        except OSError:
            return  # pipe gone: the parent is closing or died


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

    #: ``health()["mode"]`` of a server on this transport.
    mode = "process"

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
        self._check_open()
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

    def _fail_slot(self, index: int) -> Optional[_Worker]:
        """Account a slot failure, then respawn the slot or break it.

        The failure joins the slot's streak; the slot is respawned
        after its exponential backoff or — when the streak opens the
        circuit breaker — left dead for routing to skip.  Returns the
        fresh worker, or ``None`` when the slot was left dead or the
        pool closed mid-recovery (the caller's loop then observes the
        closed pool).
        """
        backoff_s, opened = self._supervisor.record_failure(
            index, time.monotonic()
        )
        self._reap_slot(index)
        if opened:
            if self._on_breaker_open is not None:
                self._on_breaker_open()
            return None
        if backoff_s > 0.0:
            time.sleep(backoff_s)
        try:
            return self._respawn_slot(index)
        except ServeError:
            return None

    def _revive(self, index: int) -> _Worker:
        """Replace a worker found dead *at dispatch* (crash-between-
        batches discovery): the death counts toward the slot's failure
        streak and backoff, but not toward any batch's retry budget —
        no batch was in flight when it died.  Raises
        :class:`_SlotUnavailable` when the slot is left dead (the
        caller reroutes instead of respawning a crash-looper).
        """
        if self._supervisor.breaker_open(index):
            # a breaker-open slot is deliberately left dead, so finding
            # its worker dead during the half-open probe is expected —
            # respawn without charging a failure; the probe's verdict
            # is the dispatch that follows
            self._reap_slot(index)
            return self._respawn_slot(index)
        worker = self._fail_slot(index)
        if worker is None:
            raise _SlotUnavailable(f"slot {index} was left dead")
        return worker

    def _exchange(
        self, index: int, worker: _Worker, message: tuple
    ) -> Tuple[str, Any]:
        """Post *message* to slot *index*'s worker and await its reply.

        The caller holds the slot's lock.  The wait is a sequence of
        :data:`POLL_TICK_S` polls, never an indefinite ``recv``, so
        within one tick it detects a reply, worker death without EOF,
        pipe EOF or reset, and — when ``dispatch_timeout_s`` is set — a
        hung worker, which is SIGKILL-reaped.  A lost worker raises
        :class:`_AttemptFailed`.  Any reply shows the worker alive and
        counts as the slot's success; an ``error`` reply then re-raises
        as the in-process engine would have raised it.
        """
        try:
            _post(worker.conn, message)
        except (OSError, ValueError):
            raise _AttemptFailed(
                f"worker pipe closed at {message[0]}"
            ) from None
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
                    reply = WORKER_REPLIES.decode(worker.conn.recv_bytes())
                    break
            except (EOFError, BrokenPipeError, ConnectionResetError,
                    OSError):
                raise _AttemptFailed(
                    "worker pipe closed under the batch"
                ) from None
            if not worker.process.is_alive() and not worker.conn.poll(0):
                # dead with no reply left in the pipe buffer
                raise _AttemptFailed("worker died under the batch")
        self._supervisor.record_success(index)
        if reply[0] == "error":
            raise unwire_error(reply[1], reply[2])
        return reply[0], reply[1]

    def _check_open(self) -> None:
        with self._state_lock:
            if self._closed:
                raise ServeError("process shard pool is closed")

    def _supervised(
        self,
        route: object,
        what: str,
        attempt: Callable[[int, _Worker], _T],
    ) -> _T:
        """Run *attempt* on *route*'s slot under supervision.

        Picks the sticky slot (passing over open breakers), holds its
        lock for the attempt, and hands *attempt* a live worker — one
        found dead is revived first.  A slot that breaks before the
        attempt is rerouted without charging the retry budget; an
        attempt that loses its worker is retried on a fresh one, and
        past the budget *what* is quarantined with
        :class:`~repro.errors.ShardFailed`.
        """
        home = self._worker_for(route)
        budget = self._supervisor.config.max_batch_retries
        failures = 0
        reroutes = 0
        while True:
            self._check_open()
            index = self._supervisor.pick_slot(home, time.monotonic())
            if index is None:
                raise ShardFailed(
                    f"every worker slot's circuit breaker is open; "
                    f"{what} was not dispatched"
                )
            try:
                with self._workers[index].lock:
                    try:
                        worker = self._workers[index]
                        if not worker.process.is_alive():
                            worker = self._revive(index)
                        return attempt(index, worker)
                    except _AttemptFailed as failed:
                        # recover the slot while still holding its lock:
                        # reaping/respawning unlocked would race another
                        # thread's fresh dispatch on the same slot (the
                        # backoff cap is far below the sanitizer's lock
                        # hold threshold)
                        self._fail_slot(index)
                        raise
            except _SlotUnavailable:
                # the slot broke before this attempt: reroute without
                # charging the retry budget, but bound the scan so
                # cascading breakers cannot loop forever
                reroutes += 1
                if reroutes > len(self._workers):
                    raise ShardFailed(
                        f"no dispatchable worker slot left for {what}: "
                        "every slot is broken or breaking"
                    ) from None
            except _AttemptFailed as failed:
                failures += 1
                if failures > budget:
                    self._supervisor.note_quarantine()
                    raise ShardFailed(
                        f"{what} failed {failures} dispatch attempts "
                        f"(last: {failed.reason}); quarantined as a "
                        "poison — only it fails, the pool keeps serving"
                    ) from None

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
        key = (id(netlist), netlist.version)
        route = route_key if route_key is not None else key
        wire = _wire_streams(streams)

        def attempt(index: int, worker: _Worker) -> list:
            fault = (
                None
                if self._faults is None
                else self._faults.next_fault(route_key=route)
            )
            if fault is not None and fault.kind == "crash_before_dispatch":
                # parent-side chaos: the worker dies between batches and
                # the dispatch path discovers it — the revive-at-dispatch
                # case
                worker.process.kill()
                worker.process.join(1.0)
                worker = self._revive(index)
                fault = None
            directive = None if fault is None else fault.wire()
            # identity check, not just key membership: the pinned
            # reference is what keeps id(netlist) unrecycled, so a key
            # whose pin is a *different* object must re-ship
            ship = worker.known.get(key) is not netlist
            while True:
                status, payload = self._exchange(
                    index,
                    worker,
                    (
                        "run",
                        key,
                        netlist if ship else None,
                        int(n_phases),
                        bool(pipelined),
                        wire,
                        directive,
                    ),
                )
                if status == "ok":
                    break
                # a miss: the worker evicted (or never had) this key
                # while the parent advertised it — re-ship and retry,
                # self-healing against any cache desync.  The injected
                # fault (if any) ran with the miss round trip, so clear
                # it rather than double-inject
                ship = True
                directive = None
            worker.known[key] = netlist
            worker.known.move_to_end(key)
            while len(worker.known) > WORKER_NETLIST_CACHE:
                worker.known.popitem(last=False)
            return payload

        return self._supervised(
            route, f"batch of {len(wire)} streams", attempt
        )

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
        message = (
            "s_open", session_id, netlist, int(n_phases), bool(pipelined)
        )

        def attempt(index: int, worker: _Worker) -> int:
            self._exchange(index, worker, message)
            return index

        return self._supervised(
            route_key if route_key is not None else session_id,
            f"session {session_id!r}",
            attempt,
        )

    def _session_call(
        self, slot: int, message: tuple, route: object = None
    ) -> list:
        """One session round trip on *slot*: a single attempt, no retry.

        Losing the worker loses the session's engine state, so the
        *caller* must replay the feed log — signalled by
        :class:`SessionWorkerLost`, raised only after the slot has been
        respawned and accounted under supervision.  With a *route* (a
        feed) the seeded fault plan is consulted exactly like a batch
        dispatch, its directive riding in the message's last field;
        worker-side engine errors re-raise typed.
        """
        self._check_open()
        with self._workers[slot].lock:
            worker = self._workers[slot]
            try:
                if not worker.process.is_alive():
                    # died between calls: the engine state is gone
                    # either way — account + respawn, then replay
                    raise _AttemptFailed(
                        f"worker died before {message[0]}"
                    )
                if route is not None:
                    fault = (
                        None
                        if self._faults is None
                        else self._faults.next_fault(route_key=route)
                    )
                    if (
                        fault is not None
                        and fault.kind == "crash_before_dispatch"
                    ):
                        worker.process.kill()
                        worker.process.join(1.0)
                        raise _AttemptFailed(
                            "injected crash before dispatch"
                        )
                    message = message[:-1] + (
                        None if fault is None else fault.wire(),
                    )
                status, payload = self._exchange(slot, worker, message)
            except _AttemptFailed as failed:
                self._fail_slot(slot)
                raise SessionWorkerLost(slot, failed.reason) from None
        if status == "s_lost":
            # a respawn ate the worker-side session (another group's
            # dispatch revived the slot): the state is gone but the
            # slot is healthy — replay without charging a failure
            raise SessionWorkerLost(
                slot, "worker-side session state lost to a respawn"
            )
        return payload

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

        See :meth:`_session_call` for worker loss and faults.
        """
        return self._session_call(
            slot,
            ("s_feed", session_id, block, bool(flush), None),
            route_key if route_key is not None else session_id,
        )

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
        return self._session_call(
            slot, ("s_close", session_id, bool(drain))
        )
