#!/usr/bin/env python
"""JSON benchmark: scalar vs bit-packed wave-simulation engines.

Runs the scalar oracle and the packed engine's kernels on wave-pipelined
suite benchmarks, verifies every report is bit-identical (scalar vs the
default packed path vs the tracked step loop), and emits one JSON
document with the timings, speedups, platform metadata, and the kernel
each case ran (the functional pass's MAJ levels and words, or the step
loop's lane plan), so the engine's performance is tracked in the bench
trajectory (CI uploads the JSON as a workflow artifact).

On these wave-ready netlists the default path is the functional pass;
``tracked_seconds`` times the phase-accurate step loop (``track=True``)
beside it.  Cases may pin the step loop's lane count (``lanes``) to
force the multi-word layout — ``lanes=256`` packs four ``uint64`` state
words — so the >64-lane path is measured and identity-checked on every
run, not just when the planner would choose it; a lane pin names a
step-loop plan, so pinned cases run with ``track=True`` in both packed
columns.  The headline is the largest case the engine sizes itself:
the default path against the scalar oracle.

``--baseline old.json`` diffs a previous run of this bench: per-case
speedup deltas are printed, and ``--max-regression 0.30`` turns the diff
into a CI gate that fails when the headline packed speedup regresses by
more than 30% (the committed reference lives in
``benchmarks/baselines/``).

Usage::

    PYTHONPATH=src python benchmarks/bench_wave_sim.py            # full
    PYTHONPATH=src python benchmarks/bench_wave_sim.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_wave_sim.py -o out.json
    PYTHONPATH=src python benchmarks/bench_wave_sim.py --quick \\
        --baseline benchmarks/baselines/bench_wave_sim_quick.json \\
        --max-regression 0.30                                     # CI gate
"""

import sys
import time

from repro.core.wavepipe import (
    describe_packed_run,
    random_vectors,
    simulate_waves,
    simulate_waves_packed,
    wave_pipeline,
)
from repro.suite.table import build_benchmark

from _common import bench_parser, check_baseline, emit, metadata, parse_args

#: (suite benchmark, waves, scalar repeats, packed repeats, forced lanes)
#: lanes=None leaves the run to the engine; an explicit value pins the
#: step loop's packing (values > 64 exercise the multi-word layout).
FULL_CASES = (
    ("ctrl", 256, 3, 10, None),
    ("ctrl", 4096, 1, 3, None),  # planner goes multi-word on its own
    ("i2c", 256, 1, 5, None),
    ("i2c", 256, 1, 5, 256),  # forced 4-word packing
)
QUICK_CASES = (
    ("ctrl", 64, 1, 3, None),
    ("ctrl", 96, 1, 3, 96),  # >64 waves, 2-word packing, identity-checked
)


def _time_best(function, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_case(name: str, n_waves: int, scalar_repeats: int,
               packed_repeats: int, lanes=None, seed: int = 7) -> dict:
    """Time the engines on one benchmark; verify report bit-identity."""
    mig = build_benchmark(name)
    netlist = wave_pipeline(mig, fanout_limit=3, verify=False).netlist
    vectors = random_vectors(netlist.n_inputs, n_waves, seed=seed)

    # a lane pin names a plan of the tracked step loop
    track = None if lanes is None else True
    compile_started = time.perf_counter()
    plan = describe_packed_run(netlist, n_waves, lanes=lanes, track=track)
    compile_seconds = time.perf_counter() - compile_started

    scalar_seconds, scalar = _time_best(
        lambda: simulate_waves(netlist, vectors, engine="python"),
        scalar_repeats,
    )
    # the default packed path (the functional pass), or the pinned plan
    packed_seconds, packed = _time_best(
        lambda: simulate_waves_packed(
            netlist, vectors, lanes=lanes, track=track
        ),
        packed_repeats,
    )
    # forced wave-id tracking: the phase-accurate step loop, kept
    # measured so the functional pass's win stays visible
    tracked_seconds, tracked = _time_best(
        lambda: simulate_waves_packed(
            netlist, vectors, lanes=lanes, track=True
        ),
        packed_repeats,
    )
    identical = scalar == packed == tracked  # dataclass ==: every field

    stats = netlist.stats()
    return {
        "benchmark": name,
        "components": stats.size,
        "total_cells": netlist.n_components,
        "depth": stats.depth,
        "waves": n_waves,
        "lanes": "auto" if lanes is None else lanes,
        "plan": plan,  # the kernel and its levels or lane plan
        "steps": packed.steps_run,
        "coherent": packed.coherent,
        "compile_seconds": round(compile_seconds, 6),
        "scalar_seconds": round(scalar_seconds, 6),
        "packed_seconds": round(packed_seconds, 6),
        "tracked_seconds": round(tracked_seconds, 6),
        "speedup": round(scalar_seconds / packed_seconds, 2),
        "tracked_speedup": round(scalar_seconds / tracked_seconds, 2),
        "identical_reports": identical,
    }


def _case_key(row: dict) -> tuple:
    return (row["benchmark"], row["waves"], row["lanes"])


def main(argv=None) -> int:
    parser = bench_parser(__doc__.splitlines()[0], ratio="speedup")
    parser.add_argument(
        "--waves", type=int, default=None,
        help="override the wave count of every case",
    )
    args = parse_args(parser, argv)

    cases = QUICK_CASES if args.quick else FULL_CASES
    rows = [
        bench_case(
            name,
            waves if args.waves is None else args.waves,
            scalar_repeats,
            packed_repeats,
            lanes,
        )
        for name, waves, scalar_repeats, packed_repeats, lanes in cases
    ]
    # the largest case the engine sizes itself: pinned cases time the
    # step loop, not the default path
    headline = max(
        rows,
        key=lambda row: (
            row["lanes"] == "auto", row["components"], row["waves"],
        ),
    )
    document = {
        "bench": "wave_sim_engines",
        "mode": "quick" if args.quick else "full",
        "meta": metadata("quick" if args.quick else "full"),
        "cases": rows,
        "headline": {
            "benchmark": headline["benchmark"],
            "components": headline["components"],
            "waves": headline["waves"],
            "lanes": headline["lanes"],
            "speedup": headline["speedup"],
            "identical_reports": headline["identical_reports"],
        },
    }
    emit(document, args.output)

    if not all(row["identical_reports"] for row in rows):
        print("FATAL: engines diverged", file=sys.stderr)
        return 1
    return check_baseline(args, document, _case_key, "speedup")


if __name__ == "__main__":
    sys.exit(main())
