"""Micro-batching serving layer over the packed wave-simulation engine.

Public surface:

* :class:`SimulationServer` — bounded request queue, per-netlist
  coalescing batcher, deadline-aware scheduling (``deadline_s`` /
  ``default_deadline_s`` / :class:`~repro.errors.DeadlineExceeded`),
  thread- or process-sharded dispatch, ``submit``/``Future`` plus an
  asyncio façade (see :mod:`repro.serve.server` for the architecture);
* :class:`ServerSession` — streaming sessions
  (``server.open_stream(netlist)``): ``feed(waves) -> Future`` against
  one packed engine session, sticky worker routing, crash recovery
  by bit-identical feed-log replay, per-session metrics, drain-aware
  close (mirrored over the wire by
  :meth:`SimulationClient.open_stream`);
* :class:`ProcessShardPool` — the worker-process pool behind
  ``SimulationServer(process_shards=N)`` (sticky netlist routing,
  per-worker compile caches, supervised respawn with backoff and
  crash-loop breakers, hang detection, poison-batch quarantine);
* :class:`FaultPlan` / :class:`FaultRates` / :class:`Fault` — the
  seeded, replayable fault-injection schedule
  (``SimulationServer(faults=...)``, ``repro serve-bench --faults``);
* :class:`SupervisorConfig` — retry-budget/backoff/breaker knobs of
  the worker supervision policy;
* :func:`graceful_drain` — SIGTERM => drain-then-stop context manager
  for serving processes;
* :class:`ServerMetrics` — batching/plan-cache/expiry/supervision
  counters (``server.metrics.snapshot()``; see also
  ``server.health()``);
* :func:`run_closed_loop` / :class:`LoadReport` — the closed-loop load
  generator behind ``repro serve-bench`` and
  ``benchmarks/bench_serving.py``;
* :func:`run_open_loop` / :class:`OpenLoopScenario` /
  :class:`OpenLoopReport` — the seeded open-loop generator (Poisson /
  uniform / bursty arrivals, heavy-tail size mixes, SLO-ledger JSON)
  behind ``repro serve-bench --open-loop``;
* :func:`run_streaming` / :class:`StreamingReport` — the streaming
  -session generator (concurrent ``open_stream`` sessions, per-feed
  latency, replay totals) behind ``repro serve-bench --stream`` and
  ``benchmarks/bench_streaming.py``;
* :class:`SocketServer` / :class:`SimulationClient` — the network
  serving tier (``repro serve --listen HOST:PORT``): length-prefixed
  framing over TCP, typed wire errors, per-client backpressure, drain
  -aware shutdown (see :mod:`repro.serve.net`);
* :class:`ClientSession` — streaming sessions over the wire
  (``client.open_stream(netlist)``), with session ids in the frame
  protocol and typed ``SessionClosed`` / ``ConnectionLost`` semantics;
* batching knobs re-exported from :mod:`repro.serve.batcher`.

Quick start (and see ``examples/serving.py`` for the walkthrough)::

    from repro.serve import SimulationServer

    with SimulationServer(shards=2) as server:
        future = server.submit(netlist, vectors)   # -> Future
        report = future.result()                   # bit-identical to a
                                                   #    solo simulate_waves
"""

from .batcher import (
    ADAPTIVE_WAVES_PER_LANE,
    DEFAULT_MAX_BATCH_REQUESTS,
    DEFAULT_MAX_BATCH_WAVES,
    Batch,
    Batcher,
    adaptive_max_batch_waves,
)
from .client import ClientSession, SimulationClient
from .faults import FAULT_KINDS, Fault, FaultPlan, FaultRates
from .loadgen import (
    ARRIVALS,
    HEAVY_TAIL_SIZES,
    REQUEST_TIMEOUT_S,
    LoadReport,
    OpenLoopReport,
    OpenLoopScenario,
    StreamingReport,
    run_closed_loop,
    run_open_loop,
    run_streaming,
)
from .metrics import ServerMetrics
from .net import SocketServer
from .queue import GroupKey, RequestQueue, SimulationRequest
from .server import (
    DEFAULT_LINGER_WAIT_S,
    DEFAULT_MAX_LINGER_STEPS,
    DEFAULT_MAX_PENDING,
    SESSION_REPLAY_BUDGET,
    ServerSession,
    SimulationServer,
    graceful_drain,
)
from .shards import ProcessShardPool
from .supervisor import SupervisorConfig, WorkerSupervisor

__all__ = [
    "ADAPTIVE_WAVES_PER_LANE",
    "ARRIVALS",
    "Batch",
    "Batcher",
    "ClientSession",
    "DEFAULT_LINGER_WAIT_S",
    "DEFAULT_MAX_BATCH_REQUESTS",
    "DEFAULT_MAX_BATCH_WAVES",
    "DEFAULT_MAX_LINGER_STEPS",
    "DEFAULT_MAX_PENDING",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultRates",
    "GroupKey",
    "HEAVY_TAIL_SIZES",
    "LoadReport",
    "OpenLoopReport",
    "OpenLoopScenario",
    "ProcessShardPool",
    "REQUEST_TIMEOUT_S",
    "RequestQueue",
    "SESSION_REPLAY_BUDGET",
    "ServerMetrics",
    "ServerSession",
    "SimulationClient",
    "SimulationRequest",
    "SimulationServer",
    "SocketServer",
    "StreamingReport",
    "SupervisorConfig",
    "WorkerSupervisor",
    "adaptive_max_batch_waves",
    "graceful_drain",
    "run_closed_loop",
    "run_open_loop",
    "run_streaming",
]
