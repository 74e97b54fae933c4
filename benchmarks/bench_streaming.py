#!/usr/bin/env python
"""JSON benchmark: streaming sessions vs solo packed runs.

The resumability contract of the streaming tier (ISSUE 10), measured:

* **Engine resume** — the acceptance scenario: a single
  :func:`~repro.core.wavepipe.batch.open_packed_session` stream fed 10
  chunks of 64 waves (pumped between feeds, flushed at the end) must
  reach at least :data:`MIN_RESUME_RATIO` (0.9x) of the throughput of
  one solo 640-wave packed run of the concatenated waves — pausing and
  resuming after every chunk may not cost more than 10%.  The two
  alternate, one pass each, for :data:`MIN_TIMED_S` per side, and each
  side's median pass sets its rate.  The streamed outputs are verified
  **bit-identical** to the solo run in every pass.
* **Serving tier** — concurrent ``server.open_stream`` sessions driven
  by :func:`~repro.serve.run_streaming` (the generator behind ``repro
  serve-bench --stream``), each feed verified bit-identical to its
  slice of that session's solo concatenated run.

``--baseline old.json --max-regression 0.30`` turns the diff against a
committed reference (``benchmarks/baselines/bench_streaming_quick.
json``) into a CI gate, exactly like ``bench_serving.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_streaming.py           # full
    PYTHONPATH=src python benchmarks/bench_streaming.py --quick   # CI
    PYTHONPATH=src python benchmarks/bench_streaming.py --quick \\
        --baseline benchmarks/baselines/bench_streaming_quick.json \\
        --max-regression 0.30                                     # gate
"""

import sys
import time

import numpy

from repro.core.wavepipe import (
    ClockingScheme,
    random_vectors,
    simulate_waves_packed,
    wave_pipeline,
)
from repro.core.wavepipe.batch import open_packed_session
from repro.serve import SimulationServer, run_streaming
from repro.suite.table import build_benchmark

from _common import bench_parser, check_baseline, emit, metadata, parse_args

#: The acceptance floor: a chunked session must sustain at least this
#: fraction of the solo concatenated run's throughput.
MIN_RESUME_RATIO = 0.9

#: Engine-level cases: (benchmark, feeds, waves per feed).  The first
#: is the acceptance scenario — 10 x 64-wave feeds vs one 640-wave run.
ENGINE_FULL = (
    ("ctrl", 10, 64),
    ("ctrl", 20, 32),
    ("i2c", 10, 64),
)
ENGINE_QUICK = (("ctrl", 10, 64),)

#: Serving-tier cases: (benchmark, sessions, feeds, waves per feed).
SERVE_FULL = (
    ("ctrl", 4, 16, 64),
    ("ctrl", 8, 8, 64),
)
SERVE_QUICK = (("ctrl", 2, 8, 32),)

#: Serving-tier trials per case; the best rate is kept (the generator
#: shares cores with the server in CI).
TRIALS = 5

#: Minimum wall time of each side's passes in an engine case, seconds.
#: One pass of the acceptance scenario takes about 0.4 ms, and the host
#: shifts between speed levels from one stretch of passes to the next,
#: so the solo run and the session alternate, one pass each, until each
#: side has run this long, and each side reports its median pass: both
#: medians then come from the same stretch of host time.
MIN_TIMED_S = 0.5


def _payload(netlist, n_waves: int, seed: int):
    return numpy.asarray(
        random_vectors(netlist.n_inputs, n_waves, seed=seed), dtype=bool
    ).reshape(n_waves, netlist.n_inputs)


def bench_engine_case(
    name: str, n_feeds: int, waves_per_feed: int, seed: int = 7
) -> dict:
    """One chunked session vs one solo run of the concatenated waves."""
    netlist = wave_pipeline(
        build_benchmark(name), fanout_limit=3, verify=False
    ).netlist
    clocking = ClockingScheme()
    total_waves = n_feeds * waves_per_feed
    waves = _payload(netlist, total_waves, seed)
    chunks = [
        waves[index * waves_per_feed:(index + 1) * waves_per_feed]
        for index in range(n_feeds)
    ]
    # warm both paths: kernel compile, plan cache, session scratch
    simulate_waves_packed(netlist, waves, clocking=clocking)
    with open_packed_session(netlist, clocking=clocking) as warm:
        warm.feed(chunks[0])
    identical = True
    solo_s = []
    stream_s = []
    while min(sum(solo_s), sum(stream_s)) < MIN_TIMED_S:
        started = time.perf_counter()
        solo = simulate_waves_packed(netlist, waves, clocking=clocking)
        middle = time.perf_counter()
        session = open_packed_session(netlist, clocking=clocking)
        done = []
        for chunk in chunks:
            session.feed(chunk)
            done += session.pump()  # pause and resume after every chunk
        session.close()
        done += session.take_done()
        stream_s.append(time.perf_counter() - middle)
        solo_s.append(middle - started)
        outputs = numpy.concatenate(
            [
                handle.report.bits
                for handle in sorted(done, key=lambda entry: entry.index)
            ]
        )
        identical = identical and numpy.array_equal(outputs, solo.bits)
    median_solo_s = float(numpy.median(solo_s))
    median_stream_s = float(numpy.median(stream_s))
    solo_rate = total_waves / median_solo_s
    stream_rate = total_waves / median_stream_s
    resume_ratio = stream_rate / solo_rate
    return {
        "tier": "engine",
        "benchmark": name,
        "feeds": n_feeds,
        "waves_per_feed": waves_per_feed,
        "total_waves": total_waves,
        "passes": len(solo_s),
        "solo_seconds": round(median_solo_s, 6),
        "streamed_seconds": round(median_stream_s, 6),
        "solo_waves_per_s": round(solo_rate, 1),
        "streamed_waves_per_s": round(stream_rate, 1),
        "resume_ratio": round(resume_ratio, 3),
        "meets_floor": resume_ratio >= MIN_RESUME_RATIO,
        "identical_reports": identical,
    }


def bench_serving_case(
    name: str,
    sessions: int,
    n_feeds: int,
    waves_per_feed: int,
    seed: int = 7,
) -> dict:
    """Concurrent server sessions, each vs its solo concatenated run."""
    netlist = wave_pipeline(
        build_benchmark(name), fanout_limit=3, verify=False
    ).netlist
    clocking = ClockingScheme()
    total_waves = sessions * n_feeds * waves_per_feed
    payloads = [
        [
            _payload(
                netlist,
                waves_per_feed,
                seed + session * n_feeds + feed,
            )
            for feed in range(n_feeds)
        ]
        for session in range(sessions)
    ]
    concatenated = [numpy.concatenate(chunks) for chunks in payloads]
    simulate_waves_packed(netlist, concatenated[0], clocking=clocking)
    solo_started = time.perf_counter()
    solo = [
        simulate_waves_packed(netlist, block, clocking=clocking)
        for block in concatenated
    ]
    solo_seconds = time.perf_counter() - solo_started
    solo_rate = total_waves / solo_seconds
    slices = [
        [
            solo[session].bits[
                feed * waves_per_feed:(feed + 1) * waves_per_feed
            ]
            for feed in range(n_feeds)
        ]
        for session in range(sessions)
    ]
    identical = True
    best = None
    with SimulationServer(shards=2, clocking=clocking) as server:
        with server.open_stream(netlist) as warm:
            warm.feed(payloads[0][0]).result()
        for _ in range(TRIALS):
            load = run_streaming(
                server, netlist, clocking=clocking, payloads=payloads
            )
            for session in range(sessions):
                for feed in range(n_feeds):
                    report = load.reports[session][feed]
                    identical = identical and (
                        report is not None
                        and numpy.array_equal(
                            report.bits, slices[session][feed]
                        )
                    )
            if best is None or load.waves_per_s > best.waves_per_s:
                best = load
        metrics = server.metrics.snapshot()
    return {
        "tier": "serving",
        "benchmark": name,
        "sessions": sessions,
        "feeds": n_feeds,
        "waves_per_feed": waves_per_feed,
        "total_waves": total_waves,
        "solo_seconds": round(solo_seconds, 6),
        "streamed_seconds": round(best.elapsed_s, 6),
        "solo_waves_per_s": round(solo_rate, 1),
        "streamed_waves_per_s": round(best.waves_per_s, 1),
        "resume_ratio": round(best.waves_per_s / solo_rate, 3),
        "p50_ms": round(best.p50_s * 1e3, 3),
        "p99_ms": round(best.p99_s * 1e3, 3),
        "session_replays": metrics["session_replays"],
        "identical_reports": identical,
    }


def _case_key(row: dict) -> tuple:
    return (
        row["tier"],
        row["benchmark"],
        row.get("sessions", 1),
        row["feeds"],
        row["waves_per_feed"],
    )


def main(argv=None) -> int:
    args = parse_args(
        bench_parser(__doc__.splitlines()[0], ratio="resume_ratio"), argv
    )

    engine_cases = ENGINE_QUICK if args.quick else ENGINE_FULL
    serve_cases = SERVE_QUICK if args.quick else SERVE_FULL
    rows = [bench_engine_case(*case) for case in engine_cases]
    rows += [bench_serving_case(*case) for case in serve_cases]
    # the acceptance scenario leads: the first engine case (10 x 64)
    headline = rows[0]
    document = {
        "bench": "streaming_sessions",
        "mode": "quick" if args.quick else "full",
        "min_resume_ratio": MIN_RESUME_RATIO,
        "meta": metadata("quick" if args.quick else "full"),
        "cases": rows,
        "headline": {
            "benchmark": headline["benchmark"],
            "feeds": headline["feeds"],
            "waves_per_feed": headline["waves_per_feed"],
            "resume_ratio": headline["resume_ratio"],
            "streamed_waves_per_s": headline["streamed_waves_per_s"],
            "identical_reports": headline["identical_reports"],
        },
    }
    emit(document, args.output)

    if not all(row["identical_reports"] for row in rows):
        print("FATAL: streamed reports diverged from solo runs",
              file=sys.stderr)
        return 1
    if headline["resume_ratio"] < MIN_RESUME_RATIO:
        print(
            f"FATAL: resume ratio {headline['resume_ratio']} below the "
            f"{MIN_RESUME_RATIO} acceptance floor (a chunked session "
            "must keep within 10% of the solo concatenated run)",
            file=sys.stderr,
        )
        return 1

    return check_baseline(args, document, _case_key, "resume_ratio")


if __name__ == "__main__":
    sys.exit(main())
