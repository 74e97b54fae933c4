"""Micro-batching simulation server over the packed wave engine.

:class:`SimulationServer` turns the one-shot
:func:`~repro.core.wavepipe.simulator.simulate_streams` API into a
serving subsystem — the deployment model the paper's wave pipelining
exists for: many independent requests amortized over one pipeline sweep.

Architecture
------------
**Bounded admission.**  :meth:`SimulationServer.submit` validates the
request, warms the per-``WaveNetlist.version`` compiled-plan cache
(:func:`~repro.core.wavepipe.kernels.compile_netlist` — shared across
batches, requests, and shards), and enqueues it into a bounded
:class:`~repro.serve.queue.RequestQueue`; past ``max_pending`` requests
the submit raises :class:`~repro.errors.ServerQueueFull` (backpressure —
the caller retries after draining futures).  The caller immediately gets
a :class:`concurrent.futures.Future` that resolves to the request's own
:class:`~repro.core.wavepipe.simulator.WaveSimulationReport`.

**Per-netlist coalescing.**  Pending requests are grouped per
(netlist, version, phase count, injection mode); the
:class:`~repro.serve.batcher.Batcher` drains the groups round-robin and
coalesces each into one
:func:`~repro.core.wavepipe.batch.simulate_streams_packed` pass, sized by
the packed engine's own lane planner
(:func:`~repro.core.wavepipe.batch.plan_stream_batch`).  Batching **never
changes results**: every stream in a packed pass gets its own lane group,
so each report is bit-identical to a solo ``simulate_waves`` run — the
property ``tests/test_serving.py`` locks down.

**Shard dispatch.**  ``shards`` worker threads each serve one group at a
time; a group being simulated is marked busy so two shards never split
one netlist's queue (order-preserving), while *independent* netlist
groups simulate concurrently.  A shard that seeds a non-full batch may
*linger* — up to ``max_linger_steps`` waits of ``linger_wait_s`` each —
to coalesce requests that arrive moments later (the classic micro-batch
latency/throughput knob).

**Sync and async façades.**  ``submit`` / ``Future.result`` is the
thread-world API; :meth:`SimulationServer.submit_async` awaits the same
future on an asyncio loop.  :meth:`SimulationServer.simulate` is the
one-call convenience (submit + result).

**Deadline scheduling.**  ``submit(..., deadline_s=...)`` (or a
server-wide ``default_deadline_s``) attaches a deadline to a request.
Expired requests are dropped at batch-formation time — before any
packing or kernel work — and their futures fail with
:class:`~repro.errors.DeadlineExceeded` (the ``expired`` metric counts
them); pending groups are drained earliest-deadline-first whenever any
queued request carries a deadline (see
:meth:`~repro.serve.queue.RequestQueue.next_key`).

**Thread or process shards.**  Every batch and session step is one
message to a :class:`~repro.serve.core.ShardCore`, the only code here
that calls the packed engine, through one transport the server holds.
By default the server is *thread*-sharded: the shard threads call one
shared core in process (:class:`~repro.serve.core.InProcessPool`); the
packed kernels spend their time in numpy ufuncs that release the GIL,
so independent groups overlap on multicore hosts and one shared
compiled-plan cache serves every shard.  ``process_shards=N`` escapes
the GIL entirely: the same messages are routed (sticky per netlist
group) to a :class:`~repro.serve.shards.ProcessShardPool` of worker
processes, each a pipe loop around its own core and compile cache;
dead workers are respawned and their batch retried, bit-identically.
The batcher, deadline logic, and metrics stay in the parent either way.

**Supervision and chaos.**  Process shards are supervised (see
:mod:`repro.serve.shards` and :mod:`repro.serve.supervisor`): hung
workers are detected by ``dispatch_timeout_s`` and SIGKILL-reaped,
respawns back off exponentially, a crash-looping slot's circuit breaker
takes it out of rotation (sticky groups reroute to the next healthy
slot), and a batch that exhausts its retry budget is quarantined — only
its futures fail, with :class:`~repro.errors.ShardFailed`, while the
server keeps serving.  A seeded :class:`~repro.serve.faults.FaultPlan`
(``faults=`` here, ``--faults`` on the serve bench) injects
reproducible chaos at one site per dispatch in either transport: once
per batch and once per session feed.  With thread shards a fault that
would kill a worker fails its batch with ``ShardFailed`` and makes a
session replay its feed log, exactly as a lost worker does.
:meth:`SimulationServer.health` snapshots the whole story;
:func:`graceful_drain` turns SIGTERM into
serve-everything-admitted-then-stop.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from types import TracebackType
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..core.wavepipe.clocking import ClockingScheme
from ..core.wavepipe.components import WaveNetlist
from ..core.wavepipe.kernels import compile_netlist
from ..core.wavepipe.simulator import (
    WaveSimulationReport,
    _validate_vectors,
)
from ..errors import (
    DeadlineExceeded,
    ServeError,
    ServerClosed,
    ServerQueueFull,
    SessionClosed,
    ShardFailed,
    SimulationError,
)
from .batcher import (
    DEFAULT_MAX_BATCH_REQUESTS,
    Batch,
    Batcher,
    adaptive_max_batch_waves,
)
from .core import InProcessPool, SessionWorkerLost
from .faults import FaultPlan
from .metrics import ServerMetrics
from .queue import GroupKey, RequestQueue, SimulationRequest, WaveStream
from .shards import ProcessShardPool
from .supervisor import SupervisorConfig

#: Default bound on admitted-but-undispatched requests (backpressure).
DEFAULT_MAX_PENDING = 1024

#: Default linger rounds a non-full batch waits for late arrivals.
DEFAULT_MAX_LINGER_STEPS = 1

#: Default upper bound of one linger round, in seconds.
DEFAULT_LINGER_WAIT_S = 0.002

#: Safety margin the deadline-aware linger keeps ahead of the most
#: urgent queued/batched deadline: lingering stops once the slack to
#: that deadline falls under this margin, so a request admitted with a
#: tight-but-servable deadline is dispatched instead of expiring in the
#: linger wait.
DEADLINE_LINGER_MARGIN_S = 0.005

#: How many worker losses one streaming session absorbs — each paid
#: back by a full feed-log replay — before the session is quarantined
#: with :class:`~repro.errors.ShardFailed` (mirrors the batch path's
#: retry budget: a session whose feeds keep killing workers is the
#: likely culprit).
SESSION_REPLAY_BUDGET = 3

#: Bound on the server's per-netlist plan-reuse records: serving
#: netlist-churn traffic must not pin every netlist (and its weakly
#: cached compiled tables) forever.  Eviction only forgets accounting —
#: a re-submission simply counts one fresh miss; in-flight requests
#: keep their own strong netlist references regardless.
PLAN_CACHE_LIMIT = 256


class SimulationServer:
    """Micro-batching request scheduler over ``simulate_streams_packed``.

    Parameters
    ----------
    shards:
        Worker threads.  Each serves one netlist group at a time;
        sharding pays off exactly when traffic spans several netlists
        (or clocking configurations) — single-netlist traffic is
        order-preserved on one shard and extra shards idle.
    max_pending:
        Queue bound; :meth:`submit` raises
        :class:`~repro.errors.ServerQueueFull` past it.
    max_batch_requests / max_batch_waves:
        Coalescing caps of one packed pass.  ``max_batch_waves=None``
        (default) derives the cap from the lane planner's word budget
        via :func:`~repro.serve.batcher.adaptive_max_batch_waves` (see
        :mod:`repro.serve.batcher` for the rationale).
    max_linger_steps / linger_wait_s:
        How long a non-full batch waits for late arrivals: linger
        rounds are condition waits of at most ``linger_wait_s`` seconds
        each, and the batch dispatches after ``max_linger_steps``
        *consecutive rounds that coalesced nothing* (rounds that grew
        the batch reset the budget, so an in-flight burst is absorbed
        whole).  ``0`` steps dispatches immediately (lowest latency,
        least coalescing); the idle-traffic latency cost is bounded by
        ``max_linger_steps * linger_wait_s``.
    default_deadline_s:
        Server-wide request timeout: every submission without an
        explicit ``deadline_s`` inherits this budget (``None`` = no
        deadline).  A request still queued past its deadline is dropped
        before packing and its future fails with
        :class:`~repro.errors.DeadlineExceeded`.
    process_shards:
        ``0`` (default) keeps PR-4 thread sharding.  ``N > 0`` spawns a
        :class:`~repro.serve.shards.ProcessShardPool` of N worker
        processes and dispatches every batch there (sticky per netlist
        group); the shard *thread* count is raised to at least N so
        every worker can be driven concurrently.
    dispatch_timeout_s:
        Process-shard hang detection: a worker that neither replies nor
        dies within this many seconds of a dispatch is SIGKILL-reaped
        and the batch retried under its budget (``None`` = no hang
        detection; worker *death* is always detected promptly).
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` — seeded chaos
        injected into the dispatch path.  Process shards exercise the
        full kill/hang/EOF surface.  With thread shards ``slow`` sleeps,
        ``hang`` is skipped, and a worker-killing fault fails its batch
        with :class:`~repro.errors.ShardFailed` or drops a session's
        engine state, which the session rebuilds by feed-log replay.
        Testing and benchmarking only.
    supervision:
        :class:`~repro.serve.supervisor.SupervisorConfig` overriding
        the process-shard backoff/breaker/retry-budget policy.
    clocking / pipelined:
        Server-wide simulation defaults, both overridable per request in
        :meth:`submit` (the group key keeps incompatible requests apart).
        Every batch and session runs the packed engine's kernels with
        wave-id tracking elided exactly when the netlist's balance
        proves interference impossible.
    warm_netlists:
        Netlists to pre-compile before the first request: in thread
        mode their plans are built here, at construction; with process
        shards they are additionally shipped to every worker at spawn
        (and re-shipped on every supervised respawn), so the first
        batch after a restart never pays the compile miss.  The server
        pins references to them for its lifetime.
    start:
        Spawn the shard threads immediately (default).  ``start=False``
        leaves the server paused — submissions queue up (backpressure
        included) until :meth:`start` — which the tests use to pin
        queue-full behaviour deterministically.
    """

    def __init__(
        self,
        *,
        shards: int = 2,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_batch_requests: int = DEFAULT_MAX_BATCH_REQUESTS,
        max_batch_waves: Optional[int] = None,
        max_linger_steps: int = DEFAULT_MAX_LINGER_STEPS,
        linger_wait_s: float = DEFAULT_LINGER_WAIT_S,
        default_deadline_s: Optional[float] = None,
        process_shards: int = 0,
        dispatch_timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        supervision: Optional[SupervisorConfig] = None,
        clocking: Optional[ClockingScheme] = None,
        pipelined: bool = True,
        warm_netlists: Optional[Sequence[WaveNetlist]] = None,
        start: bool = True,
    ) -> None:
        if shards < 1:
            raise ServeError("a server needs at least one shard")
        if max_linger_steps < 0:
            raise ServeError("max_linger_steps must be >= 0")
        if linger_wait_s < 0:
            raise ServeError("linger_wait_s must be >= 0")
        if default_deadline_s is not None and default_deadline_s < 0:
            raise ServeError("default_deadline_s must be >= 0")
        if process_shards < 0:
            raise ServeError("process_shards must be >= 0")
        # every worker process needs its own dispatching thread to be
        # driven concurrently (the thread blocks on the worker's pipe)
        self._shards = max(int(shards), int(process_shards))
        self._clocking = clocking or ClockingScheme()
        self._pipelined = bool(pipelined)
        self._max_linger_steps = int(max_linger_steps)
        self._linger_wait_s = float(linger_wait_s)
        self._default_deadline_s = (
            None if default_deadline_s is None else float(default_deadline_s)
        )

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue = RequestQueue(max_pending)
        self._batcher = Batcher(
            self._queue,
            max_batch_requests,
            # None derives the wave cap from the lane planner's own word
            # budget instead of the static default (see batcher module)
            adaptive_max_batch_waves()
            if max_batch_waves is None
            else max_batch_waves,
        )
        self._busy: set[GroupKey] = set()
        #: (netlist id, phase count) -> (netlist ref, version): the
        #: LRU-bounded record behind the plan-cache hit metrics; the
        #: strong netlist reference pins the weak kernel-compile cache
        #: entry (and keeps object ids stable) while the entry lives,
        #: and :data:`PLAN_CACHE_LIMIT` keeps netlist churn bounded.
        self._plans: "OrderedDict[tuple[int, int], tuple[WaveNetlist, int]]" = (
            OrderedDict()
        )
        self._threads: list[threading.Thread] = []
        self._started = False
        self._closing = False
        self._sessions: "dict[str, ServerSession]" = {}
        self._session_seq = itertools.count(1)
        self.metrics = ServerMetrics()
        # pin the warm netlists: the compile cache is weak-keyed and
        # the pool's warm keys embed object ids, so the server must
        # hold strong references for as long as it may serve them
        self._warm_netlists: list[WaveNetlist] = list(warm_netlists or [])
        for netlist in self._warm_netlists:
            compile_netlist(netlist, self._clocking)
        self._pool: "ProcessShardPool | InProcessPool"
        if process_shards:
            self._pool = ProcessShardPool(
                int(process_shards),
                on_restart=self.metrics.record_worker_restart,
                on_hang=self.metrics.record_hung_worker,
                on_breaker_open=self.metrics.record_breaker_open,
                dispatch_timeout_s=dispatch_timeout_s,
                faults=faults,
                supervision=supervision,
                warm_netlists=self._warm_netlists,
                warm_n_phases=self._clocking.n_phases,
            )
        else:
            self._pool = InProcessPool(faults)
        if start:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the shard workers (idempotent)."""
        with self._cond:
            if self._closing:
                raise ServerClosed("cannot start a closed server")
            if self._started:
                return
            self._started = True
            for index in range(self._shards):
                thread = threading.Thread(
                    target=self._worker,
                    name=f"repro-serve-shard-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def close(
        self,
        *,
        cancel_pending: bool = False,
        timeout: Optional[float] = None,
    ) -> None:
        """Stop accepting requests and shut the shards down.

        By default every already-admitted request is still served (drain
        semantics) and every open streaming session is drained — all its
        in-flight feed futures resolve with reports;
        ``cancel_pending=True`` cancels queued futures instead
        (in-flight batches always finish) and cancels open sessions,
        whose unresolved feed futures fail with
        :class:`~repro.errors.SessionClosed`.  Either way no future is
        left unresolved.  *timeout* bounds the join per shard; expiry
        raises :class:`~repro.errors.ServeError` — the deadlock guard
        the stress tests rely on.  Idempotent.
        """
        with self._cond:
            self._closing = True
            if cancel_pending or not self._started:
                # an unstarted server has nothing to drain the queue with
                dropped = self._queue.drain()
                for request in dropped:
                    request.future.cancel()
                if dropped:
                    self.metrics.record_cancelled(len(dropped))
            self._cond.notify_all()
            threads, self._threads = self._threads, []
            sessions = list(self._sessions.values())
        # sessions close before the pool does: a draining session still
        # needs its worker for the final flush
        for session in sessions:
            session.close(drain=not cancel_pending, timeout=timeout)
        stuck = []
        for thread in threads:
            thread.join(timeout)
            if thread.is_alive():
                stuck.append(thread.name)
        if stuck:
            # deadlock guard: a stuck shard may be blocked inside a
            # worker conversation still holding that worker's dispatch
            # lock, so the graceful pool close below could hang behind
            # it — tear the workers down without taking any lock, then
            # report the stuck shard(s)
            self._pool.kill()
            raise ServeError(
                f"shard {', '.join(stuck)} did not stop within "
                f"{timeout}s"
            )
        # after the shard threads joined no batch is in flight, so the
        # workers are idle and stop gracefully
        self._pool.close(timeout)

    def stop(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Shut the server down; *drain* picks the queued requests' fate.

        ``drain=True`` (default) serves every already-admitted request
        before stopping — :meth:`close`'s drain semantics.
        ``drain=False`` cancels queued futures instead (in-flight
        batches still finish).  Either way **no future is left
        unresolved**: by the time ``stop`` returns, every admitted
        future holds a report, an exception, or a cancellation — the
        invariant the chaos suite pins under concurrent load.
        """
        self.close(cancel_pending=not drain, timeout=timeout)

    def __enter__(self) -> "SimulationServer":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        with self._lock:
            return self._closing

    @property
    def pending(self) -> int:
        """Requests admitted but not yet picked into a batch."""
        with self._lock:
            return len(self._queue)

    def health(self) -> dict[str, object]:
        """Operational snapshot: mode, queue depth, workers, metrics.

        One call answers "is this server healthy": the sharding mode,
        whether it is closed, the queue depth, the full metrics
        snapshot, and — with process shards — the pool's per-slot
        supervision state (pid, liveness, breaker status, restart
        counts) plus its hang/quarantine/breaker totals.  Thread-mode
        servers report an empty ``workers`` list.
        """
        with self._lock:
            sessions = list(self._sessions.values())
        snapshot: dict[str, object] = {
            "mode": self._pool.mode,
            "closed": self.closed,
            "pending": self.pending,
            "metrics": self.metrics.snapshot(),
            "sessions": [session.metrics() for session in sessions],
        }
        snapshot.update(self._pool.health())
        return snapshot

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _admit(
        self,
        netlist: WaveNetlist,
        streams: Sequence[WaveStream],
        clocking: Optional[ClockingScheme],
        pipelined: Optional[bool],
        deadline_s: Optional[float] = None,
    ) -> list[SimulationRequest]:
        """Validate, compile, and enqueue a burst under one lock hold.

        The shared admission path of :meth:`submit` (burst of one) and
        :meth:`submit_many`.  Admission is all-or-nothing: if the burst
        does not fit under ``max_pending`` nothing is enqueued and
        :class:`~repro.errors.ServerQueueFull` carries the whole burst
        back to the caller.  *deadline_s* (``None`` inherits the
        server's ``default_deadline_s``) is resolved to an absolute
        deadline against the submission clock; an already-expired
        request is still admitted — it fails fast with
        :class:`~repro.errors.DeadlineExceeded` at batch formation,
        never reaching a kernel.
        """
        clocking = clocking or self._clocking
        pipelined = (
            self._pipelined if pipelined is None else bool(pipelined)
        )
        if deadline_s is None:
            deadline_s = self._default_deadline_s
        elif deadline_s < 0:
            raise ServeError("deadline_s must be >= 0")
        # snapshot list payloads row-deep (callers may reuse and mutate
        # their buffers — including the inner rows — after submitting);
        # ndarray payloads are taken by reference: the documented wire
        # format is an immutable-by-convention (waves, inputs) block,
        # and copying it per request would dominate the admission cost
        snapshots = [
            vectors if isinstance(vectors, np.ndarray)
            else [list(row) for row in vectors]
            for vectors in streams
        ]
        for vectors in snapshots:
            _validate_vectors(netlist, vectors)
        compiled = compile_netlist(netlist, clocking)
        if compiled.depth == 0:
            raise SimulationError("cannot wave-simulate a depth-0 netlist")
        key = GroupKey(
            netlist_id=id(netlist),
            version=netlist.version,
            n_phases=clocking.n_phases,
            pipelined=pipelined,
        )
        submitted_at = time.perf_counter()
        deadline_at = (
            None if deadline_s is None else submitted_at + deadline_s
        )
        requests = [
            SimulationRequest(
                netlist=netlist,
                vectors=vectors,
                clocking=clocking,
                pipelined=pipelined,
                future=Future(),
                key=key,
                submitted_at=submitted_at,
                deadline_at=deadline_at,
            )
            for vectors in snapshots
        ]
        if len(requests) > self._queue.max_pending:
            # no amount of draining can ever admit this burst — a
            # retry loop on ServerQueueFull would spin forever, so
            # report the misuse distinctly
            raise ServeError(
                f"burst of {len(requests)} requests exceeds the "
                f"server's capacity ({self._queue.max_pending}); "
                "split the burst"
            )
        with self._cond:
            if self._closing:
                raise ServerClosed("server is closed")
            try:
                self._queue.ensure_room(len(requests))
            except ServerQueueFull:
                # all-or-nothing admission refuses the whole burst, so
                # the rejected ledger grows by every request in it
                self.metrics.record_rejected(len(requests))
                raise
            # plan-cache accounting only for admitted submissions, so
            # hits + misses == admission bursts and rejected traffic
            # never pins a netlist
            plan_key = (id(netlist), clocking.n_phases)
            known = self._plans.get(plan_key)
            if known is not None and known[1] == netlist.version:
                self._plans.move_to_end(plan_key)
                self.metrics.record_plan_cache(hit=True)
            else:
                self._plans[plan_key] = (netlist, netlist.version)
                self.metrics.record_plan_cache(hit=False)
                while len(self._plans) > PLAN_CACHE_LIMIT:
                    self._plans.popitem(last=False)
            for request in requests:
                self._queue.push(request)
            self.metrics.record_submitted(
                len(requests),
                sum(request.n_waves for request in requests),
            )
            self._cond.notify_all()
        return requests

    def submit(
        self,
        netlist: WaveNetlist,
        vectors: WaveStream,
        *,
        clocking: Optional[ClockingScheme] = None,
        pipelined: Optional[bool] = None,
        deadline_s: Optional[float] = None,
    ) -> "Future[WaveSimulationReport]":
        """Enqueue one wave stream; returns its completion future.

        Validation (vector widths, unsimulatable netlist) happens here,
        in the caller's thread, so malformed requests fail fast with the
        engine's own :class:`~repro.errors.SimulationError` instead of
        poisoning a batch.  The netlist is compiled (memoized per
        :attr:`~repro.core.wavepipe.components.WaveNetlist.version`) at
        most once per version — later submissions and every batch reuse
        the cached plan, which the ``plan_cache_*`` metrics record.

        *deadline_s* bounds how long the request may wait for dispatch
        (``None`` inherits the server's ``default_deadline_s``); past
        it the future fails with
        :class:`~repro.errors.DeadlineExceeded` without the request
        ever being simulated.

        Raises :class:`~repro.errors.ServerClosed` after :meth:`close`
        and :class:`~repro.errors.ServerQueueFull` when the bounded
        queue is at capacity.
        """
        (request,) = self._admit(
            netlist, [vectors], clocking, pipelined, deadline_s
        )
        return request.future

    def submit_many(
        self,
        netlist: WaveNetlist,
        streams: Sequence[WaveStream],
        *,
        clocking: Optional[ClockingScheme] = None,
        pipelined: Optional[bool] = None,
        deadline_s: Optional[float] = None,
    ) -> "list[Future[WaveSimulationReport]]":
        """Enqueue a burst of wave streams; one future per stream.

        The multiplexed-client API: one admission (one lock hold, one
        compiled-plan lookup, all-or-nothing backpressure) admits the
        whole burst, which the batcher is then free to coalesce with
        everyone else's traffic.  Semantically identical to calling
        :meth:`submit` per stream — every report is still bit-identical
        to that stream's solo run — just with the per-request admission
        overhead amortized.  *deadline_s* applies to every stream of
        the burst, measured from this one admission.
        """
        if not streams:
            return []
        requests = self._admit(
            netlist, streams, clocking, pipelined, deadline_s
        )
        return [request.future for request in requests]

    async def submit_async(
        self,
        netlist: WaveNetlist,
        vectors: WaveStream,
        *,
        clocking: Optional[ClockingScheme] = None,
        pipelined: Optional[bool] = None,
        deadline_s: Optional[float] = None,
    ) -> WaveSimulationReport:
        """Asyncio façade: await the report of one submitted stream.

        Submission itself (validation, compile, backpressure) runs
        inline in the event-loop thread — it is cheap and raising
        :class:`~repro.errors.ServerQueueFull` synchronously is exactly
        the backpressure an async caller wants — while the simulation
        happens on the shard threads and the returned future is awaited
        without blocking the loop.
        """
        future = self.submit(
            netlist, vectors, clocking=clocking, pipelined=pipelined,
            deadline_s=deadline_s,
        )
        return await asyncio.wrap_future(future)

    def simulate(
        self,
        netlist: WaveNetlist,
        vectors: WaveStream,
        *,
        clocking: Optional[ClockingScheme] = None,
        pipelined: Optional[bool] = None,
        deadline_s: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> WaveSimulationReport:
        """Submit one stream and block for its report (submit + result)."""
        return self.submit(
            netlist, vectors, clocking=clocking, pipelined=pipelined,
            deadline_s=deadline_s,
        ).result(timeout)

    # ------------------------------------------------------------------
    # streaming sessions
    # ------------------------------------------------------------------
    def open_stream(
        self,
        netlist: WaveNetlist,
        *,
        clocking: Optional[ClockingScheme] = None,
        pipelined: Optional[bool] = None,
        route_key: object = None,
    ) -> "ServerSession":
        """Open a streaming session over *netlist* (see :class:`ServerSession`).

        The session's packed engine state — step counter, value matrix,
        lane layout — persists across :meth:`~ServerSession.feed` calls,
        so a stream of chunks costs one pipeline fill instead of one per
        chunk; with process shards the session is sticky to one worker
        slot (*route_key* overrides the routing key, default: the
        session id) and survives worker crashes by feed-log replay.
        Raises the engine's :class:`~repro.errors.SimulationError` here,
        synchronously, when *netlist* is not wave-ready — streaming
        bit-identity is impossible without path balance — and
        :class:`~repro.errors.ServerClosed` after :meth:`close`.
        """
        clocking = clocking or self._clocking
        pipelined = (
            self._pipelined if pipelined is None else bool(pipelined)
        )
        with self._cond:
            if self._closing:
                raise ServerClosed("server is closed")
            session_id = f"stream-{next(self._session_seq)}"
        session = ServerSession(
            self, session_id, netlist, clocking, pipelined, route_key
        )
        with self._cond:
            lost_race = self._closing
            if not lost_race:
                self._sessions[session_id] = session
        if lost_race:
            # close() ran between the id grab and the registration: the
            # new session would never be drained by it, so cancel now
            session.close(drain=False)
            raise ServerClosed("server is closed")
        self.metrics.record_session_open()
        return session

    def _forget_session(self, session_id: str) -> None:
        """Drop a finished session from the registry (dispatcher thread)."""
        with self._cond:
            self._sessions.pop(session_id, None)

    # ------------------------------------------------------------------
    # shard workers
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        """One shard: expire, seed a batch, linger, simulate, resolve."""
        while True:
            batch: Optional[Batch] = None
            expired: list[SimulationRequest] = []
            stop = False
            with self._cond:
                while True:
                    # deadline admission: requests already past their
                    # deadline leave the queue *before* a batch is
                    # packed around them, so they never cost kernel or
                    # packing work; their futures are failed outside
                    # the lock (Future callbacks may re-enter submit)
                    expired.extend(
                        self._batcher.expire(time.perf_counter())
                    )
                    # lint: determinism-unordered-ok(membership-only skip set; start_batch never iterates it)
                    batch = self._batcher.start_batch(self._busy)
                    if batch is not None:
                        # claim the group *before* lingering: another
                        # shard must not split this netlist's queue into
                        # a concurrent batch (responses would reorder
                        # and coalescing would fragment)
                        self._busy.add(batch.key)
                        break
                    if expired:
                        break  # fail them promptly, then come back
                    if self._closing and len(self._queue) == 0:
                        stop = True
                        break
                    self._cond.wait()
                if (
                    batch is not None
                    and self._max_linger_steps
                    and not self._closing
                    and not self._batcher.is_full(batch)
                ):
                    # adaptive linger: a round that coalesced something
                    # resets the budget, so a burst mid-arrival keeps
                    # growing the batch; only max_linger_steps *empty*
                    # rounds in a row dispatch a non-full batch
                    empty_rounds = 0
                    while empty_rounds < self._max_linger_steps:
                        # deadline-aware linger: the most urgent
                        # deadline already in the batch (or still
                        # queued for this group) caps the wait —
                        # lingering must never expire the very
                        # requests it is batching
                        wait_s = self._linger_wait_s
                        urgent = batch.earliest_deadline
                        queued = self._queue.group_deadline(batch.key)
                        if queued is not None and (
                            urgent is None or queued < urgent
                        ):
                            urgent = queued
                        if urgent is not None:
                            slack_s = (
                                urgent
                                - time.perf_counter()
                                - DEADLINE_LINGER_MARGIN_S
                            )
                            if slack_s <= 0.0:
                                break  # dispatch now, before expiry
                            wait_s = min(wait_s, slack_s)
                        self._cond.wait(timeout=wait_s)
                        expired.extend(
                            self._batcher.expire(
                                time.perf_counter(), key=batch.key
                            )
                        )
                        added = self._batcher.top_up(batch)
                        if self._closing or self._batcher.is_full(batch):
                            break
                        empty_rounds = 0 if added else empty_rounds + 1
            if expired:
                self._fail_expired(expired)
            if stop:
                return
            if batch is None:
                continue
            try:
                self._run_batch(batch)
            finally:
                with self._cond:
                    self._busy.discard(batch.key)
                    self._cond.notify_all()

    def _fail_expired(self, requests: list[SimulationRequest]) -> None:
        """Resolve expired requests: ``DeadlineExceeded``, never a kernel.

        Called outside the server lock.  Requests whose futures were
        already cancelled by the caller count as cancellations, exactly
        like cancelled requests reaped at dispatch.
        """
        live = [
            request
            for request in requests
            if request.future.set_running_or_notify_cancel()
        ]
        if dropped := len(requests) - len(live):
            self.metrics.record_cancelled(dropped)
        if not live:
            return
        now = time.perf_counter()
        for request in live:
            assert request.deadline_at is not None  # only deadlined expire
            late_ms = (now - request.deadline_at) * 1e3
            request.future.set_exception(
                DeadlineExceeded(
                    f"request deadline passed {late_ms:.1f} ms before "
                    "dispatch; the request was dropped without being "
                    "simulated"
                )
            )
        self.metrics.record_expired(len(live))

    def _run_batch(self, batch: Batch) -> None:
        """Execute one coalesced batch and resolve its futures."""
        # last deadline check before any packing work: the linger (or a
        # long wait for a busy shard) may have outlasted a deadline
        now = time.perf_counter()
        overdue = [r for r in batch.requests if r.expired(now)]
        if overdue:
            batch.requests = [
                r for r in batch.requests if not r.expired(now)
            ]
            self._fail_expired(overdue)
        live = [
            request
            for request in batch.requests
            if request.future.set_running_or_notify_cancel()
        ]
        if dropped := len(batch.requests) - len(live):
            self.metrics.record_cancelled(dropped)
        if not live:
            return
        try:
            plan = self._batcher.plan(batch)
            reports = self._pool.simulate(
                batch.netlist,
                [request.vectors for request in live],
                n_phases=batch.clocking.n_phases,
                pipelined=batch.pipelined,
                route_key=batch.key,
            )
        except BaseException as error:  # resolve futures, never kill a shard
            for request in live:
                request.future.set_exception(error)
            self.metrics.record_failed(len(live))
            if isinstance(error, ShardFailed):
                self.metrics.record_shard_failed(len(live))
            return
        # metrics first: a client that observes its resolved future may
        # immediately read metrics.snapshot() and must not see the
        # completed batch under-counted
        self.metrics.record_batch(
            len(live),
            sum(request.n_waves for request in live),
            plan["words"],
        )
        self.metrics.record_completed(len(live))
        for request, report in zip(live, reports):
            request.future.set_result(report)


@dataclass
class _FeedItem:
    """One queued :meth:`ServerSession.feed` awaiting dispatch."""

    future: "Future[WaveSimulationReport]"
    block: object  # wire block: (waves, inputs) bool ndarray, or []
    n_waves: int
    deadline_at: Optional[float]
    resolved: bool = False  # future already carries a result/exception


#: Stands in the feed log for every feed resolved with a report: the
#: session keeps the feed's input block for replay, never its report.
_DELIVERED = _FeedItem(Future(), [], 0, None, resolved=True)


class ServerSession:
    """One streaming simulation session (see :meth:`SimulationServer.open_stream`).

    A session is a stateful counterpart of :meth:`SimulationServer.submit`:
    every :meth:`feed` appends waves to **one persistent packed engine**
    (:class:`~repro.core.wavepipe.batch.PackedSession`) instead of
    packing a fresh batch, so the pipeline fill and the per-plan state
    are amortized across the whole stream.  Feeds resolve through
    futures, in feed order, with reports bit-identical to the matching
    slice of one solo run over the concatenated waves.

    Execution model: each session owns a dispatcher thread draining its
    own FIFO — feeds of one session are strictly ordered (the state is
    cumulative), while different sessions run concurrently on their own
    workers.  The engine lives in a :class:`~repro.serve.core.ShardCore`:
    with process shards in a worker process, sticky to one slot
    (``hash(route key) % n_workers``); with thread shards in the
    server's own core, stepped on the dispatcher thread.  A feed
    dequeued with more feeds behind it is *pumped* (inject only — the
    pipeline stays warm); a feed that empties the queue is *flushed* so
    its future resolves promptly — a blocking feed-then-wait client
    never deadlocks, and a pipelined client keeps the engine hot.

    Supervision: losing the worker mid-session (crash, hang, injected
    chaos) does not lose the stream — the session keeps a **feed log**
    of every dispatched block and replays it onto a freshly opened
    worker-side session, bit-identically by kernel determinism, up to
    :data:`SESSION_REPLAY_BUDGET` losses (then
    :class:`~repro.errors.ShardFailed` quarantines the session).
    Deadlines are honored at dispatch: an expired feed's waves are
    dropped — never simulated, never logged — and its future fails with
    :class:`~repro.errors.DeadlineExceeded`.

    Obtain sessions only via :meth:`SimulationServer.open_stream`; use
    as a context manager or :meth:`close` explicitly (the lifecycle
    lint tracks sessions like files and locks).
    """

    def __init__(
        self,
        server: "SimulationServer",
        session_id: str,
        netlist: WaveNetlist,
        clocking: ClockingScheme,
        pipelined: bool,
        route_key: object,
    ) -> None:
        self._server = server
        self.session_id = session_id
        self._netlist = netlist
        self._clocking = clocking
        self._pipelined = pipelined
        self._route = route_key if route_key is not None else session_id
        self._cond = threading.Condition(threading.Lock())
        self._queue: "deque[_FeedItem]" = deque()
        self._sent: list[_FeedItem] = []  # dispatched; index == worker index
        self._log: list[object] = []  # blocks of dispatched feeds (replay)
        self._closed = False
        self._drain = True
        self._done = threading.Event()
        self._broken: Optional[BaseException] = None
        self._n_feeds = 0
        self._fed_waves = 0
        self._expired = 0
        self._cancelled = 0
        self._replays = 0
        # open the engine before the dispatcher exists, so open-time
        # errors (unbalanced netlist, depth 0) raise synchronously from
        # open_stream with their engine types
        self._slot = self._open()
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-serve-{session_id}",
            daemon=True,
        )
        self._thread.start()

    # -- public surface ------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def feed(
        self,
        vectors: WaveStream,
        *,
        deadline_s: Optional[float] = None,
    ) -> "Future[WaveSimulationReport]":
        """Append a chunk of waves to the stream; returns its future.

        Validation happens here, synchronously in the caller's thread
        (malformed chunks fail fast, exactly like :meth:`SimulationServer.
        submit`); the simulation itself runs on the session's dispatcher
        and the future resolves once every wave of *this* chunk has
        retired from the pipeline.  *deadline_s* (``None`` inherits the
        server's ``default_deadline_s``) bounds how long the chunk may
        wait for dispatch.  Raises :class:`~repro.errors.SessionClosed`
        after :meth:`close`.
        """
        with self._cond:
            if self._closed:
                raise SessionClosed(
                    f"feed() on closed session {self.session_id}"
                )
            broken = self._broken
        if broken is not None:
            raise SessionClosed(
                f"session {self.session_id} is broken: {broken}"
            )
        _validate_vectors(self._netlist, vectors)
        if deadline_s is None:
            deadline_s = self._server._default_deadline_s
        elif deadline_s < 0:
            raise ServeError("deadline_s must be >= 0")
        deadline_at = (
            None
            if deadline_s is None
            else time.perf_counter() + deadline_s
        )
        count = len(vectors)
        # same snapshot convention as request admission: list payloads
        # are copied by the asarray, ndarray payloads pass by reference
        # (the documented immutable-by-convention wire block)
        block: object = (
            np.asarray(vectors, dtype=bool) if count else []
        )
        item = _FeedItem(Future(), block, count, deadline_at)
        with self._cond:
            if self._closed:
                raise SessionClosed(
                    f"feed() on closed session {self.session_id}"
                )
            self._queue.append(item)
            self._n_feeds += 1
            self._fed_waves += count
            self._cond.notify_all()
        self._server.metrics.record_session_feed(count)
        return item.future

    def close(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """End the stream; blocks until every feed future is resolved.

        ``drain=True`` (default) dispatches everything still queued and
        flushes the engine, so every future resolves with its report —
        the session-level mirror of the server's drain semantics.
        ``drain=False`` cancels instead: queued and in-flight feeds fail
        with :class:`~repro.errors.SessionClosed` and the engine state
        is dropped.  Either way **no feed future is left unresolved**.
        Idempotent; *timeout* bounds the wait and raises
        :class:`~repro.errors.ServeError` on expiry.
        """
        dropped: list[_FeedItem] = []
        with self._cond:
            if not self._closed:
                self._closed = True
                self._drain = drain
                if not drain:
                    dropped = list(self._queue)
                    self._queue.clear()
                self._cond.notify_all()
        for item in dropped:
            if item.future.set_running_or_notify_cancel():
                item.resolved = True
                item.future.set_exception(
                    SessionClosed(
                        f"session {self.session_id} cancelled before "
                        "this feed was dispatched"
                    )
                )
            else:
                self._cancelled += 1
        if not self._done.wait(timeout):
            raise ServeError(
                f"session {self.session_id} did not close within "
                f"{timeout}s"
            )

    def __enter__(self) -> "ServerSession":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    def metrics(self) -> dict[str, object]:
        """Per-session counters (the ``open_stream`` metrics surface)."""
        with self._cond:
            pending = len(self._queue)
            closed = self._closed
            n_feeds = self._n_feeds
            fed_waves = self._fed_waves
        return {
            "session_id": self.session_id,
            "mode": self._server._pool.mode,
            "slot": self._slot,
            "feeds": n_feeds,
            "waves": fed_waves,
            "dispatched": len(self._sent),
            "resolved": sum(1 for item in self._sent if item.resolved),
            "expired": self._expired,
            "cancelled": self._cancelled,
            "replays": self._replays,
            "pending_feeds": pending,
            "closed": closed,
        }

    # -- dispatcher thread ---------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._queue:
                    item = self._queue.popleft()
                    backlog = bool(self._queue)
                else:
                    drain = self._drain
                    break
            # backlog => pump (keep the pipeline warm for the feeds
            # right behind); empty queue => flush (resolve promptly)
            self._process(item, flush=not backlog)
        self._finish(drain)
        self._done.set()

    def _process(self, item: _FeedItem, flush: bool) -> None:
        if self._broken is not None:
            self._fail_unrun(
                item,
                SessionClosed(
                    f"session {self.session_id} is broken: {self._broken}"
                ),
            )
            return
        now = time.perf_counter()
        if item.deadline_at is not None and now > item.deadline_at:
            self._expired += 1
            late_ms = (now - item.deadline_at) * 1e3
            self._fail_unrun(
                item,
                DeadlineExceeded(
                    f"session feed deadline passed {late_ms:.1f} ms "
                    "before dispatch; its waves were dropped without "
                    "being simulated"
                ),
            )
            return
        if not item.future.set_running_or_notify_cancel():
            self._cancelled += 1
            return
        # from here the feed is part of the stream: its block enters the
        # replay log and its worker-side index is len(_sent) - 1
        self._sent.append(item)
        self._log.append(item.block)
        try:
            pairs = self._dispatch(
                lambda: self._feed(item.block, flush),
                replay=len(self._log) - 1,
            )
        except BaseException as error:
            # the engine (or the pool, past its replay budget) refused
            # the feed; whether the block was applied is unknowable, so
            # poison the session rather than risk a divergent stream
            self._sent.pop()
            self._log.pop()
            self._broken = error
            item.resolved = True
            item.future.set_exception(error)
            return
        self._apply(pairs)

    def _fail_unrun(
        self, item: _FeedItem, error: BaseException
    ) -> None:
        """Fail a feed that never dispatched (respecting cancellation)."""
        if item.future.set_running_or_notify_cancel():
            item.resolved = True
            item.future.set_exception(error)
        else:
            self._cancelled += 1

    def _apply(self, pairs: list) -> None:
        """Resolve futures from worker ``(feed index, report)`` pairs.

        Replays re-deliver reports for feeds that resolved before the
        crash; determinism makes them equal, so they are skipped.
        """
        for index, report in pairs:
            item = self._sent[index]
            if not item.resolved:
                item.resolved = True
                self._sent[index] = _DELIVERED
                item.future.set_result(report)

    def _open(self) -> int:
        """Open (or re-open) the engine session; returns its slot."""
        return self._server._pool.session_open(
            self.session_id,
            self._netlist,
            n_phases=self._clocking.n_phases,
            pipelined=self._pipelined,
            route_key=self._route,
        )

    def _feed(self, block: object, flush: bool) -> list:
        """One feed; returns the newly resolved (index, report) pairs."""
        return self._server._pool.session_feed(
            self.session_id,
            self._slot,
            block,
            flush=flush,
            route_key=self._route,
        )

    def _dispatch(self, call: Callable[[], list], replay: int) -> list:
        """Return *call*'s result, rebuilding the session after each loss.

        *call* is one feed or the draining close.  After it loses the
        engine session (:class:`~repro.serve.core.SessionWorkerLost`),
        the checkpoint is the feed log itself: a fresh session is
        opened, the first *replay* logged blocks — every feed before
        the one in flight — are re-fed in order, and *call* runs again.
        Kernel determinism makes the replay **bit-identical** to the
        uninterrupted run: reports that already resolved re-resolve to
        equal values (and :meth:`_apply` drops them); unresolved feeds
        pick up exactly where they were.  A loss mid-replay is one more
        counted attempt; past :data:`SESSION_REPLAY_BUDGET` losses the
        session is quarantined with :class:`~repro.errors.ShardFailed`.
        """
        attempts = 0
        while True:
            try:
                if attempts:
                    self._replays += 1
                    self._server.metrics.record_session_replay()
                    self._slot = self._open()
                    for block in self._log[:replay]:
                        self._apply(self._feed(block, flush=False))
                return call()
            except SessionWorkerLost as lost:
                attempts += 1
                if attempts > SESSION_REPLAY_BUDGET:
                    raise ShardFailed(
                        f"session {self.session_id} lost its worker "
                        f"{attempts} times (last: {lost.reason}); "
                        "session quarantined — only this stream fails, "
                        "the server keeps serving"
                    ) from None

    def _finish(self, drain: bool) -> None:
        """Close the engine and resolve whatever is still unresolved."""
        error: Optional[BaseException] = None
        pool = self._server._pool
        try:
            if drain and self._broken is None:
                self._apply(
                    self._dispatch(
                        lambda: pool.session_close(
                            self.session_id, self._slot, drain=True
                        ),
                        replay=len(self._log),
                    )
                )
            else:
                try:
                    pool.session_close(
                        self.session_id, self._slot, drain=False
                    )
                except (SessionWorkerLost, ServeError):
                    pass  # an undrained close has nothing to lose
        except BaseException as caught:
            error = caught
        leftover: BaseException = (
            error
            if error is not None
            else SessionClosed(
                f"session {self.session_id} closed without draining"
            )
        )
        for item in self._sent:
            if not item.resolved:
                item.resolved = True
                item.future.set_exception(leftover)
        self._server._forget_session(self.session_id)
        self._server.metrics.record_session_close()


@contextmanager
def graceful_drain(server: SimulationServer) -> Iterator[SimulationServer]:
    """SIGTERM => drain: serve every admitted request, then stop.

    Inside the ``with`` block a SIGTERM (the orchestration world's
    shutdown signal) closes *server* with drain semantics from a
    background thread: new submissions fail with
    :class:`~repro.errors.ServerClosed` immediately, every
    already-admitted future still resolves, and the signal handler
    itself returns at once (``server.stop`` blocks, so it cannot run in
    the handler frame).  The previous SIGTERM disposition is restored on
    exit.  Signal handlers are a main-thread-only facility; calling this
    from another thread raises :class:`~repro.errors.ServeError`.
    """
    if threading.current_thread() is not threading.main_thread():
        raise ServeError(
            "graceful_drain installs a signal handler and must be "
            "entered from the main thread"
        )

    def _drain(signum: int, frame: object) -> None:
        threading.Thread(
            target=lambda: server.stop(drain=True),
            name="repro-serve-drain",
            daemon=True,
        ).start()

    previous = signal.signal(signal.SIGTERM, _drain)
    try:
        yield server
    finally:
        signal.signal(signal.SIGTERM, previous)
