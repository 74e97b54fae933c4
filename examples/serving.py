#!/usr/bin/env python
"""Serving walkthrough: the micro-batching SimulationServer in practice.

The paper's wave pipelining exists for exactly one deployment story:
many independent operands streaming through one deep majority pipeline.
``repro.serve`` turns that into a serving subsystem — this walkthrough
covers:

1. starting a server and submitting requests (``submit`` -> ``Future``);
2. how coalescing works and what the metrics show (batches formed, plan
   cache hits vs misses);
3. the batching knobs — ``max_batch_requests`` / ``max_batch_waves``
   (coalescing caps, sized for the packed engine's lane planner) and
   ``max_linger_steps`` / ``linger_wait_s`` (how long a non-full batch
   waits for late arrivals: each linger round waits up to
   ``linger_wait_s``; rounds that coalesce something reset the budget,
   and ``max_linger_steps`` consecutive *empty* rounds dispatch).
   Lower linger = lower idle latency; higher = bigger batches under
   bursty arrivals;
4. when sharding helps: shards serve distinct (netlist, clocking)
   groups concurrently.  One netlist's requests never split across
   shards (order preserved, coalescing intact), so ``shards=1`` is
   right for single-model traffic and more shards pay off exactly when
   traffic mixes models — as shown with two netlists below;
5. backpressure (``ServerQueueFull``) and the asyncio façade;
6. deadline scheduling — ``submit(..., deadline_s=...)`` or a
   server-wide ``default_deadline_s``: a request still queued past its
   deadline fails fast with ``DeadlineExceeded`` *without ever being
   simulated* (the ``expired`` metric counts it), and queue drains are
   ordered earliest-deadline-first.  Deadlines turn an overloaded
   server from "everything slow" into "fresh traffic on time, stale
   traffic rejected cheaply" — the latency-bound serving trade;
7. process shards — ``SimulationServer(process_shards=N)`` routes each
   netlist group to one of N worker *processes* (own interpreter, own
   GIL, own compile cache) over the numpy wire format.  Threads are
   enough while the time is spent inside numpy ufuncs (they release
   the GIL); processes win once Python-side batching glue or mixed
   models contend — and they survive worker crashes (respawn + retry,
   bit-identically);
8. fault injection and supervision — a seeded ``FaultPlan`` replays
   the same worker crashes/hangs on every run, supervised respawn
   (backoff, crash-loop circuit breakers, poison-batch quarantine via
   ``ShardFailed``) absorbs them, and ``server.health()`` snapshots
   the per-worker state an operator would page on;
9. every served report is bit-identical to a solo ``simulate_waves``
   run — batching, sharding, and crash recovery are execution details,
   never semantic ones;
10. the network tier — ``SocketServer`` fronts the same server over a
    TCP socket (length-prefixed frames, the numpy wire format the
    process shards already speak), and ``SimulationClient`` mirrors
    ``submit``/``submit_many``/``Future`` across it: typed errors
    round-trip (``ServerQueueFull`` raises synchronously from the
    client's submit, ``DeadlineExceeded`` comes through the future),
    reports stay bit-identical, and a dying connection fails its
    pending futures with ``ConnectionLost`` — never strands them.
    ``warm_netlists=[...]`` pre-compiles known models at startup (and
    ships them to worker processes), so the first request after a
    restart skips the compile miss;
11. open-loop load — ``run_open_loop`` drives a seeded
    ``OpenLoopScenario`` (Poisson/uniform/bursty arrivals at a fixed
    offered rate, heavy-tail size mixes) and measures latency from
    each request's *scheduled* arrival: no coordinated omission, and
    the offered-traffic ledger (completed + timed out + expired +
    rejected + shard-failed == offered) must balance;
12. streaming sessions — ``server.open_stream(netlist)`` returns a
    session whose ``feed(waves) -> Future`` calls all run against
    *one* packed engine session: the netlist is compiled once, and
    the feeds waiting in the session run together as one overlap-free
    block (on a wave-ready netlist no wave depends on another, so no
    simulation state outlives a block).  Feeds are sticky to one
    shard, a worker crash replays the session's feed log
    bit-identically (a counted ``replay``), and ``stream.metrics()``
    exposes the per-session counters.  ``SimulationClient.open_stream`` mirrors
    the same session over the socket with typed ``SessionClosed`` /
    ``ConnectionLost`` semantics, and ``run_streaming`` /
    ``repro serve-bench --stream`` load-test it: ten 64-wave feeds
    through one session match one 640-wave solo run, wave for wave.

Run with::

    PYTHONPATH=src python examples/serving.py
"""

import asyncio
import time

import numpy as np

from repro.core.wavepipe import (
    WaveNetlist,
    random_vectors,
    simulate_waves,
    wave_pipeline,
)
from repro.errors import DeadlineExceeded, ServerQueueFull, ShardFailed
from repro.serve import (
    FaultPlan,
    FaultRates,
    OpenLoopScenario,
    SimulationClient,
    SimulationServer,
    SocketServer,
    SupervisorConfig,
    run_closed_loop,
    run_open_loop,
)
from repro.suite.circuits import array_multiplier, ripple_carry_adder


def main() -> None:
    # two wave-ready "models" to serve: a multiplier and an adder
    multiplier = wave_pipeline(array_multiplier(4), fanout_limit=3).netlist
    adder = wave_pipeline(ripple_carry_adder(8), fanout_limit=3).netlist
    print(f"model A : {multiplier}")
    print(f"model B : {adder}")

    # ------------------------------------------------------------------
    # 1. submit/result — and bit-identity with solo runs
    # ------------------------------------------------------------------
    with SimulationServer(shards=2) as server:
        request = random_vectors(multiplier.n_inputs, 32, seed=1)
        future = server.submit(multiplier, request)  # returns immediately
        report = future.result()
        solo = simulate_waves(multiplier, request, engine="python")
        assert report == solo  # outputs, events, counters: identical
        print(
            f"\none request : {report.waves_retired} waves, "
            f"report bit-identical to a solo run: {report == solo}"
        )

        # --------------------------------------------------------------
        # 2. coalescing: concurrent requests share one packed pass
        # --------------------------------------------------------------
        futures = [
            server.submit(
                multiplier, random_vectors(multiplier.n_inputs, 32, seed=s)
            )
            for s in range(40)
        ] + [
            server.submit(
                adder, random_vectors(adder.n_inputs, 32, seed=s)
            )
            for s in range(40)
        ]
        for f in futures:
            f.result()
        m = server.metrics.snapshot()
        print(
            f"80 requests : {m['batches']} batches "
            f"(mean {m['mean_batch_requests']:.1f} requests each), "
            f"plan cache {m['plan_cache_hits']} hits / "
            f"{m['plan_cache_misses']} misses"
        )
        # two misses — one compiled plan per netlist version — and
        # every other submission reused it: that is the serving win
        # beyond batching itself.

    # ------------------------------------------------------------------
    # 3. knobs: latency/throughput trade-off of the linger
    # ------------------------------------------------------------------
    for linger, label in ((0, "no linger"), (2, "linger 2 rounds")):
        with SimulationServer(
            shards=1,
            max_linger_steps=linger,
            linger_wait_s=0.002,
            max_batch_requests=64,   # coalescing caps: one packed pass
            max_batch_waves=4096,    # never exceeds these
        ) as server:
            load = run_closed_loop(
                server,
                multiplier,
                [
                    random_vectors(multiplier.n_inputs, 16, seed=s)
                    for s in range(64)
                ],
                concurrency=32,
            )
            m = server.metrics.snapshot()
            print(
                f"{label:<16}: mean batch "
                f"{m['mean_batch_requests']:5.1f} requests, "
                f"p50 {load.p50_s * 1e3:5.1f} ms, "
                f"{load.waves_per_s:8.0f} waves/s"
            )

    # ------------------------------------------------------------------
    # 4. sharding: multi-model traffic overlaps, one model does not
    # ------------------------------------------------------------------
    mixed = [
        (multiplier, random_vectors(multiplier.n_inputs, 24, seed=s))
        for s in range(24)
    ] + [
        (adder, random_vectors(adder.n_inputs, 24, seed=s))
        for s in range(24)
    ]
    for shards in (1, 2):
        with SimulationServer(shards=shards, max_linger_steps=0) as server:
            started = time.perf_counter()
            futures = [server.submit(n, v) for n, v in mixed]
            for f in futures:
                f.result()
            elapsed = time.perf_counter() - started
        print(f"shards={shards}  : mixed 48-request burst in "
              f"{elapsed * 1e3:.1f} ms")
    # (on a multicore host shards=2 overlaps the two models' passes; the
    # packed kernels release the GIL inside numpy, so independent
    # groups really do run concurrently)

    # ------------------------------------------------------------------
    # 5. backpressure + async façade
    # ------------------------------------------------------------------
    throttled = SimulationServer(shards=1, max_pending=2, start=False)
    throttled.submit(adder, random_vectors(adder.n_inputs, 4, seed=0))
    throttled.submit(adder, random_vectors(adder.n_inputs, 4, seed=1))
    try:
        throttled.submit(adder, random_vectors(adder.n_inputs, 4, seed=2))
    except ServerQueueFull as error:
        print(f"backpressure: {error}")
    throttled.close(cancel_pending=True)

    async def async_clients(server: SimulationServer) -> int:
        reports = await asyncio.gather(
            *(
                server.submit_async(
                    adder, random_vectors(adder.n_inputs, 8, seed=s)
                )
                for s in range(10)
            )
        )
        return sum(r.waves_retired for r in reports)

    with SimulationServer(shards=1) as server:
        waves = asyncio.run(async_clients(server))
    print(f"async façade: 10 coroutine clients retired {waves} waves")

    # ------------------------------------------------------------------
    # 6. deadlines: stale requests fail fast instead of being simulated
    # ------------------------------------------------------------------
    # start=False stages the scenario: with the shards paused, the
    # 0-deadline request is guaranteed stale by the time serving begins
    # (in production the same thing happens whenever queueing delay
    # exceeds the caller's latency budget)
    with SimulationServer(shards=1, start=False) as server:
        stale = server.submit(
            adder, random_vectors(adder.n_inputs, 8, seed=0),
            deadline_s=0.0,
        )
        fresh = server.submit(
            adder, random_vectors(adder.n_inputs, 8, seed=1),
            deadline_s=30.0,
        )
        server.start()
        fresh.result()
        try:
            stale.result()
        except DeadlineExceeded as error:
            print(f"deadlines   : {error}")
        m = server.metrics.snapshot()
        # the stale request never reached a kernel: only the fresh one
        # was batched
        print(
            f"deadlines   : {m['expired']} expired, "
            f"{m['batched_requests']} simulated (of {m['submitted']} "
            "submitted)"
        )

    # ------------------------------------------------------------------
    # 7. process shards: true multi-core sharding, crash-safe
    # ------------------------------------------------------------------
    # same API, worker *processes* underneath; the trade-off: ~IPC cost
    # per batch bought back by real parallelism across netlist groups
    # and zero GIL contention with the batching glue.  Throughput-wise:
    # threads suffice for single-model numpy-bound traffic; processes
    # pay off for multi-model mixes and many-core hosts (compare
    # `repro serve-bench ctrl,i2c` with and without --process-shards).
    with SimulationServer(shards=2, process_shards=2) as server:
        for netlist in (multiplier, adder):  # warm each worker's cache
            server.simulate(netlist, [])
        started = time.perf_counter()
        futures = [server.submit(n, v) for n, v in mixed]
        for f in futures:
            f.result()
        elapsed = time.perf_counter() - started
        m = server.metrics.snapshot()
    print(
        f"process x2  : mixed 48-request burst in {elapsed * 1e3:.1f} ms "
        f"({m['worker_restarts']} worker restarts)"
    )

    # ------------------------------------------------------------------
    # 8. fault injection + supervision: seeded chaos, health snapshots
    # ------------------------------------------------------------------
    # a FaultPlan is a *replayable* chaos schedule: every decision is a
    # pure function of (seed, kind, visit), so a failure seen once is a
    # test case forever.  Here every second-or-so dispatch kills its
    # worker mid-batch; supervision respawns the slot (exponential
    # backoff, circuit breaker on crash loops) and retries the batch —
    # the client just sees a correct, bit-identical report, slower.
    plan = FaultPlan(7, FaultRates(crash_mid_batch=0.4))
    with SimulationServer(
        shards=2,
        process_shards=1,
        dispatch_timeout_s=5.0,       # hung workers are reaped past this
        faults=plan,
        supervision=SupervisorConfig(  # fast lab policy; defaults are
            backoff_base_s=0.01,       # production-shaped
            backoff_cap_s=0.05,
            max_batch_retries=6,
        ),
    ) as server:
        request = random_vectors(adder.n_inputs, 16, seed=3)
        solo = simulate_waves(adder, request, engine="python")
        for _ in range(6):
            try:
                assert server.simulate(adder, request) == solo
            except ShardFailed as error:
                # the quarantine outcome: a batch that kills every
                # worker it touches fails alone, typed — the server
                # keeps serving
                print(f"quarantined : {error}")
        health = server.health()
        m = server.metrics.snapshot()
    print(
        f"chaos       : injected {plan.injected()['crash_mid_batch']} "
        f"crashes (plan '{plan.describe()}'), "
        f"{m['worker_restarts']} supervised restarts, reports still "
        "bit-identical"
    )
    # health() is the operator view: per-worker slot state (healthy /
    # broken / probing), restart and breaker counters, queue depth,
    # and the full metrics snapshot in one call
    worker_states = [w["state"] for w in health["workers"]]
    print(
        f"health      : workers {worker_states}, "
        f"{health['hung_reaped']} hung reaped, "
        f"{health['quarantined_batches']} batches quarantined"
    )

    # ------------------------------------------------------------------
    # 10. the network tier: same API, same reports, over a socket
    # ------------------------------------------------------------------
    # warm_netlists pre-compiles the known models at startup — a
    # restarted serving process answers its first request at steady-
    # state latency instead of paying the compile miss in-band
    with SimulationServer(
        shards=2, warm_netlists=[multiplier, adder]
    ) as server:
        with SocketServer(server) as net:  # port 0: the OS picks
            host, port = net.start().address
            print(f"\nnetwork     : listening on {host}:{port}")
            with SimulationClient(host, port) as client:
                request = random_vectors(multiplier.n_inputs, 16, seed=9)
                served = client.simulate(multiplier, request)
                solo = simulate_waves(multiplier, request, engine="python")
                print(
                    "network     : served report bit-identical over "
                    f"the socket: {served == solo}"
                )
                # typed errors cross the wire too: a full queue raises
                # ServerQueueFull from client.submit, a missed deadline
                # comes back through the future as DeadlineExceeded
                health = client.health()
                net_stats = health["net"]
                print(
                    f"network     : {net_stats['frames_in']} frames in / "
                    f"{net_stats['frames_out']} out, "
                    f"{net_stats['admitted_bursts']} bursts admitted"
                )

    # ------------------------------------------------------------------
    # 11. open-loop load: a fixed offered rate, an honest ledger
    # ------------------------------------------------------------------
    # closed loops hide overload (clients wait, so the arrival rate
    # sags to match the service rate — "coordinated omission").  The
    # open loop fires requests on a seeded schedule no matter what and
    # measures latency from each *scheduled* arrival; re-running the
    # same scenario replays the identical schedule, sizes and payloads.
    scenario = OpenLoopScenario(
        rate_rps=150.0,
        n_requests=60,
        arrival="bursty",
        seed=11,
        size_mix=((8, 70.0), (32, 25.0), (128, 5.0)),  # heavy-tailed
    )
    with SimulationServer(
        shards=2, warm_netlists=[adder]
    ) as server:
        open_report = run_open_loop(server, adder, scenario)
    ledger = open_report.ledger()
    print(
        f"open loop   : {scenario.describe()}"
    )
    print(
        f"open loop   : offered {open_report.offered_rate_rps:.0f} rps, "
        f"achieved {open_report.achieved_rate_rps:.0f} rps, "
        f"p99 {open_report.p99_s * 1e3:.1f} ms"
    )
    print(
        f"open loop   : ledger {ledger} "
        f"(balanced: {open_report.ledger_balanced})"
    )
    assert open_report.ledger_balanced

    # ------------------------------------------------------------------
    # 12. streaming sessions: one warm engine, many feeds, resumable
    # ------------------------------------------------------------------
    # submit() pays plan lookup + batch assembly per request; a stream
    # compiles the plan once and keeps the packed engine's state matrix
    # warm, so consecutive feeds resume where the last wave left off.
    # The whole session is bit-identical to one solo run over the
    # concatenated waves — pause/resume is an execution detail.
    chunks = [
        random_vectors(adder.n_inputs, 16, seed=20 + i) for i in range(6)
    ]
    everything = [wave for chunk in chunks for wave in chunk]
    solo = simulate_waves(adder, everything, engine="python")
    with SimulationServer(shards=1) as server:
        with server.open_stream(adder) as stream:
            streamed = [stream.feed(chunk) for chunk in chunks]
            # each feed's report holds a (waves, n_outputs) bool array:
            # stacked, they are the solo run's, shape and every bit
            outputs = np.concatenate(
                [future.result().bits for future in streamed]
            )
            session_stats = stream.metrics()
        assert np.array_equal(outputs, solo.bits)
        print(
            f"\nstreaming   : {session_stats['feeds']} feeds / "
            f"{session_stats['waves']} waves through one session, "
            f"outputs bit-identical to one solo run: "
            f"{np.array_equal(outputs, solo.bits)}"
        )
        # a worker crash replays the session's feed log (stream
        # metrics count it as a 'replay'), and the server-wide
        # snapshot keeps session traffic out of the request ledger
        m = server.metrics.snapshot()
        print(
            f"streaming   : server saw {m['session_feeds']} session "
            f"feeds / {m['session_waves']} waves "
            f"({m['session_replays']} replays) and "
            f"{m['submitted']} ordinary submissions"
        )

    # over the wire it is the same object shape: session ids ride in
    # the frame protocol, feeds return futures, and a lost connection
    # fails them typed (ConnectionLost) instead of stranding them
    with SimulationServer(shards=1, warm_netlists=[adder]) as server:
        with SocketServer(server) as net:
            host, port = net.start().address
            with SimulationClient(host, port) as client:
                with client.open_stream(adder) as stream:
                    wired = [stream.feed(chunk) for chunk in chunks]
                    outputs = np.concatenate(
                        [future.result().bits for future in wired]
                    )
                assert np.array_equal(outputs, solo.bits)
                print(
                    "streaming   : same session over the socket, "
                    "still bit-identical: "
                    f"{np.array_equal(outputs, solo.bits)}"
                )


if __name__ == "__main__":
    main()
