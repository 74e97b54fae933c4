#!/usr/bin/env python
"""JSON benchmark: micro-batching serving layer vs solo packed runs.

Drives closed-loop request load (``repro.serve.run_closed_loop`` — the
same generator behind ``repro serve-bench``) through a sharded
:class:`~repro.serve.SimulationServer` on wave-pipelined suite
benchmarks, times the one-request-at-a-time packed baseline on the same
payloads, verifies every served report is bit-identical to its solo-run
counterpart, and emits one JSON document with throughput, latency
percentiles, batching metrics, and platform metadata.

The headline case is the ISSUE-4 acceptance scenario — ``ctrl`` at 256
concurrent 64-wave requests — whose sustained served throughput must be
>= 5x the solo rate.  ``--baseline old.json --max-regression 0.30``
turns the diff against a committed reference
(``benchmarks/baselines/bench_serving_quick.json``) into a CI gate,
exactly like ``bench_wave_sim.py``.

The ISSUE-5 cases drive a **two-netlist mix** through thread shards and
through ``process_shards`` worker processes on the same payloads (the
``vs_threads_speedup`` field compares them), with the mixed-case
reports additionally verified bit-identical against solo
*scalar-oracle* runs — the strongest identity reference the repo has.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full
    PYTHONPATH=src python benchmarks/bench_serving.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_serving.py --quick \\
        --baseline benchmarks/baselines/bench_serving_quick.json \\
        --max-regression 0.30                                    # CI gate
"""

import sys
import time

import numpy

from repro.core.wavepipe import (
    ClockingScheme,
    random_vectors,
    simulate_waves,
    simulate_waves_packed,
    wave_pipeline,
)
from repro.serve import SimulationServer, run_closed_loop
from repro.suite.table import build_benchmark

from _common import bench_parser, check_baseline, emit, metadata, parse_args

#: (benchmarks, requests, waves/request, concurrency, shards,
#:  process_shards, oracle_check).  process_shards 0 = thread shards;
#:  a multi-benchmark tuple interleaves the netlists per request (the
#:  traffic shape where sharding — thread or process — pays off).
FULL_CASES = (
    (("ctrl",), 256, 64, 256, 2, 0, False),  # ISSUE-4 acceptance
    (("ctrl",), 512, 32, 256, 2, 0, False),  # shorter streams (2 windows)
    (("i2c",), 128, 64, 128, 2, 0, False),  # larger netlist
    # ISSUE-5 acceptance pair: the same 2-netlist mix through thread
    # shards and through 2 worker processes, scalar-oracle verified
    (("ctrl", "i2c"), 128, 32, 128, 2, 0, True),
    (("ctrl", "i2c"), 128, 32, 128, 2, 2, True),
)
QUICK_CASES = (
    (("ctrl",), 96, 32, 96, 2, 0, False),
    (("ctrl", "i2c"), 48, 16, 48, 2, 0, True),
    (("ctrl", "i2c"), 48, 16, 48, 2, 2, True),
)

#: Closed-loop trials per case, and solo passes; the best rate of each
#: is kept (the load generator shares one core with the server in CI).
TRIALS = 3


def bench_case(
    names, n_requests: int, n_waves: int, concurrency: int,
    shards: int, process_shards: int = 0, oracle_check: bool = False,
    seed: int = 7,
) -> dict:
    """Serve one load case; verify every report against its solo run."""
    netlists = [
        wave_pipeline(build_benchmark(name), fanout_limit=3,
                      verify=False).netlist
        for name in names
    ]
    clocking = ClockingScheme()
    mixed = len(netlists) > 1
    models = [netlists[index % len(netlists)]
              for index in range(n_requests)]
    # payloads in the serving wire format: one (waves, inputs) bool
    # block per request, shared verbatim with the solo baseline
    requests = [
        numpy.asarray(
            random_vectors(
                models[index].n_inputs, n_waves, seed=seed + index
            ),
            dtype=bool,
        ).reshape(n_waves, models[index].n_inputs)
        for index in range(n_requests)
    ]
    total_waves = n_requests * n_waves

    # warm-up must run the kernel (empty streams short-circuit before
    # it): compile and scratch setup stay out of both measured windows
    # — one real stream per netlist
    warm_streams = [
        numpy.asarray(
            random_vectors(netlist.n_inputs, n_waves, seed=seed),
            dtype=bool,
        ).reshape(n_waves, netlist.n_inputs)
        for netlist in netlists
    ]
    for netlist, warm in zip(netlists, warm_streams):
        simulate_waves_packed(netlist, warm, clocking=clocking)
    # best of TRIALS solo passes, as the served rate is the best of
    # TRIALS runs: one short pass swings with host noise
    solo_seconds = float("inf")
    for _ in range(TRIALS):
        solo_started = time.perf_counter()
        solo = [
            simulate_waves_packed(model, stream, clocking=clocking)
            for model, stream in zip(models, requests)
        ]
        solo_seconds = min(solo_seconds, time.perf_counter() - solo_started)
    solo_rate = total_waves / solo_seconds
    oracle_identical = None
    if oracle_check:
        # the scalar oracle as the identity reference (row lists — the
        # scalar loop does not consume ndarray blocks)
        oracle = [
            simulate_waves(model, stream.tolist(), clocking=clocking,
                           engine="python")
            for model, stream in zip(models, requests)
        ]
        oracle_identical = oracle == solo

    identical = True
    best = None
    with SimulationServer(
        shards=shards,
        process_shards=process_shards,
        max_pending=max(n_requests, 1024),
        clocking=clocking,
    ) as server:
        for netlist, warm in zip(netlists, warm_streams):
            server.submit(netlist, warm).result()  # warm shards/workers
        for _ in range(TRIALS):
            load = run_closed_loop(
                server,
                None if mixed else netlists[0],
                requests,
                netlists=models if mixed else None,
                clocking=clocking,
                concurrency=concurrency,
            )
            identical = identical and load.reports == solo
            if best is None or load.waves_per_s > best.waves_per_s:
                best = load
        metrics = server.metrics.snapshot()

    return {
        "benchmark": "+".join(names),
        "components": sum(n.stats().size for n in netlists),
        "requests": n_requests,
        "waves_per_request": n_waves,
        "concurrency": concurrency,
        "shards": shards,
        "process_shards": process_shards,
        "total_waves": total_waves,
        "solo_seconds": round(solo_seconds, 6),
        "served_seconds": round(best.elapsed_s, 6),
        "solo_waves_per_s": round(solo_rate, 1),
        "served_waves_per_s": round(best.waves_per_s, 1),
        "throughput_speedup": round(best.waves_per_s / solo_rate, 2),
        "p50_ms": round(best.p50_s * 1e3, 3),
        "p99_ms": round(best.p99_s * 1e3, 3),
        "batches": metrics["batches"],
        "mean_batch_requests": round(metrics["mean_batch_requests"], 2),
        "plan_cache_hit_rate": round(metrics["plan_cache_hit_rate"], 4),
        "worker_restarts": metrics["worker_restarts"],
        "identical_reports": (
            identical and (oracle_identical is not False)
        ),
        "oracle_checked": oracle_check,
    }


def _case_key(row: dict) -> tuple:
    return (
        row["benchmark"],
        row["requests"],
        row["waves_per_request"],
        row.get("process_shards", 0),
    )


def annotate_process_rows(rows: list[dict]) -> None:
    """Add ``vs_threads_speedup`` to each process-shard row.

    The thread twin is the row with the same mix/load and
    ``process_shards == 0`` — the ISSUE-5 acceptance comparison
    (process shards must reach at least the thread-shard rate).
    """
    threads = {
        _case_key(row)[:3]: row["served_waves_per_s"]
        for row in rows
        if not row.get("process_shards")
    }
    for row in rows:
        if not row.get("process_shards"):
            continue
        twin = threads.get(_case_key(row)[:3])
        if twin:
            row["vs_threads_speedup"] = round(
                row["served_waves_per_s"] / twin, 2
            )


def main(argv=None) -> int:
    args = parse_args(
        bench_parser(__doc__.splitlines()[0], ratio="throughput_speedup"),
        argv,
    )

    cases = QUICK_CASES if args.quick else FULL_CASES
    rows = [bench_case(*case) for case in cases]
    annotate_process_rows(rows)
    # the acceptance scenario (largest request x wave product) leads
    headline = max(
        rows, key=lambda row: (row["total_waves"], row["components"])
    )
    document = {
        "bench": "serving_layer",
        "mode": "quick" if args.quick else "full",
        "meta": metadata("quick" if args.quick else "full"),
        "cases": rows,
        "headline": {
            "benchmark": headline["benchmark"],
            "requests": headline["requests"],
            "waves_per_request": headline["waves_per_request"],
            "throughput_speedup": headline["throughput_speedup"],
            "served_waves_per_s": headline["served_waves_per_s"],
            "identical_reports": headline["identical_reports"],
        },
    }
    emit(document, args.output)

    if not all(row["identical_reports"] for row in rows):
        print("FATAL: served reports diverged from solo runs",
              file=sys.stderr)
        return 1
    return check_baseline(args, document, _case_key, "throughput_speedup")


if __name__ == "__main__":
    sys.exit(main())
