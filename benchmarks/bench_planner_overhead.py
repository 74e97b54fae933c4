#!/usr/bin/env python
"""JSON benchmark: PLANNER_STEP_OVERHEAD sensitivity sweep (the plateau).

:data:`repro.core.wavepipe.batch.PLANNER_STEP_OVERHEAD` is the tracked
step loop's calibration constant; the lane planner turns it into a lane
count through the sqrt cost model of ``_default_lane_count``.  The
constant is a *plan-shape* knob, not a timing estimate: the claim
documented next to it is that the throughput optimum is **flat for
roughly a decade** around the committed value, so its exact magnitude
does not matter.  (Wave-ready runs left to the default take the
functional pass, which plans no lanes, so the sweep forces the step
loop with ``track=True``.)

This bench makes that claim measurable.  It

1. sweeps multipliers ``1/64 .. 64`` over the committed constant,
2. resolves the lane count each swept constant would plan (the cost
   model's ``_default_lane_count`` with the swept constant passed in),
   and
3. times the tracked run **with that lane count pinned** through the
   public ``lanes=`` override — the timed path never sees the swept
   constant, only the plan shape it implies.

The committed constant passes when its throughput is within
``--tolerance`` (default 35%) of the best swept multiplier — i.e. it
sits on the plateau.  ``--check`` turns that into an exit-code gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_planner_overhead.py
    PYTHONPATH=src python benchmarks/bench_planner_overhead.py \\
        --quick --check        # CI smoke + plateau gate
"""

import argparse
import json
import platform
import sys
import time

import numpy

from repro.core.wavepipe import (
    ClockingScheme,
    compile_netlist,
    random_vectors,
    simulate_waves_packed,
    wave_pipeline,
)
from repro.core.wavepipe.batch import (
    PLANNER_STEP_OVERHEAD,
    _default_lane_count,
    _overlap_slots,
    describe_packed_run,
)
from repro.core.wavepipe.simulator import wave_separation
from repro.suite.table import build_benchmark

#: Swept multipliers over the committed constant — two decades each way
#: in factor-of-4 steps, so the "flat for a decade" claim has sample
#: points on and off the plateau.
MULTIPLIERS = (1 / 64, 1 / 16, 1 / 4, 1, 4, 16, 64)

#: (netlist, waves) per profile.  The stream must be long enough that
#: the planner actually leaves the one-lane-per-wave regime (> 64
#: waves) and the run long enough to time, but small enough for CI.
FULL_CASE = ("ctrl", 4096)
QUICK_CASE = ("ctrl", 1024)

TRIALS = 3

#: Minimum timed window per trial, seconds.  The quick profile's runs
#: finish in ~2 ms; timing one in isolation is dominated by scheduler
#: noise, so each trial repeats the run enough times to fill this
#: window and reports the mean.
MIN_WINDOW_S = 0.05


def _planned_lanes(netlist, n_waves, clocking, step_overhead) -> int:
    """Lanes the planner gives one pipelined tracked stream of *n_waves*
    waves under *step_overhead*."""
    compiled = compile_netlist(netlist, clocking)
    separation = wave_separation(compiled.depth, compiled.n_phases, True)
    warm, _ = _overlap_slots(
        compiled.depth, compiled.n_phases, separation, compiled.balanced
    )
    return _default_lane_count(
        n_waves, warm, separation, compiled.depth, compiled.n_components,
        step_overhead,
    )


def sweep(netlist, stream, clocking: ClockingScheme) -> dict:
    """Sweep and time the step loop's constant."""
    committed = PLANNER_STEP_OVERHEAD
    n_waves = len(stream)
    points = []
    for multiplier in MULTIPLIERS:
        swept = max(1, int(committed * multiplier))
        lanes = _planned_lanes(netlist, n_waves, clocking, swept)
        plan = describe_packed_run(
            netlist, n_waves, clocking=clocking, lanes=lanes, track=True
        )
        point = {
            "multiplier": multiplier,
            "overhead": swept,
            "lanes": plan["lanes"],
            "words": plan["words"],
            "steps": plan["steps"],
        }

        def run() -> None:
            simulate_waves_packed(
                netlist, stream, clocking=clocking, lanes=lanes, track=True,
            )

        # calibrate repeats so one trial fills the minimum window
        started = time.perf_counter()
        run()
        once = time.perf_counter() - started
        repeats = max(1, int(MIN_WINDOW_S / once) if once else 1)
        best = once
        for _ in range(TRIALS):
            started = time.perf_counter()
            for _ in range(repeats):
                run()
            mean = (time.perf_counter() - started) / repeats
            best = min(best, mean)
        point["wall_s"] = best
        point["waves_per_s"] = n_waves / best if best else 0.0
        points.append(point)
    rates = {p["multiplier"]: p["waves_per_s"] for p in points}
    best_rate = max(rates.values())
    return {
        "committed_overhead": committed,
        "points": points,
        "committed_rate": rates[1],
        "best_rate": best_rate,
        "committed_vs_best": rates[1] / best_rate if best_rate else 1.0,
    }


def print_sweep_table(result, file=sys.stderr) -> None:
    """The full sweep, for humans reading a CI failure.

    A bare "committed constant is N% below best" line is not actionable
    without seeing the shape of the sweep — whether the plateau moved,
    how far, and what lane/word plan each multiplier chose.
    """
    print(
        f"tracked step loop (committed overhead "
        f"{result['committed_overhead']:g})",
        file=file,
    )
    print(
        f"  {'mult':>6} {'overhead':>10} {'lanes':>6} "
        f"{'words':>6} {'steps':>7} {'waves/s':>12}",
        file=file,
    )
    for point in result["points"]:
        marker = " <- committed" if point["multiplier"] == 1 else ""
        print(
            f"  {point['multiplier']:>6g} {point['overhead']:>10.3g} "
            f"{point['lanes']:>6} {point['words']:>6} "
            f"{point['steps']:>7} {point['waves_per_s']:12.0f}{marker}",
            file=file,
        )
    print(
        f"  committed-vs-best: {result['committed_vs_best']:.1%}",
        file=file,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller stream (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the committed constant is "
                             "on the plateau")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="allowed throughput gap committed-vs-best "
                             "(default 0.35 — the constant is an "
                             "order-of-magnitude knob, the gate exists "
                             "to catch a value whole decades off)")
    args = parser.parse_args(argv)

    name, n_waves = QUICK_CASE if args.quick else FULL_CASE
    netlist = wave_pipeline(
        build_benchmark(name), fanout_limit=3, verify=False
    ).netlist
    clocking = ClockingScheme()
    stream = numpy.asarray(
        random_vectors(netlist.n_inputs, n_waves, seed=7), dtype=bool
    ).reshape(n_waves, netlist.n_inputs)
    # compile + scratch warm-up outside every timed window
    simulate_waves_packed(netlist, stream[:256], clocking=clocking, track=True)

    result = sweep(netlist, stream, clocking)

    failures = []
    gap = 1.0 - result["committed_vs_best"]
    if gap > args.tolerance:
        failures.append(
            f"committed constant is {gap:.0%} below the best swept "
            f"multiplier (tolerance {args.tolerance:.0%})"
        )

    document = {
        "benchmark": "planner_overhead",
        "case": {"netlist": name, "waves": n_waves},
        "platform": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "multipliers": list(MULTIPLIERS),
        "tolerance": args.tolerance,
        "sweep": result,
        "plateau_ok": not failures,
        "failures": failures,
    }
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if args.check and failures:
        # show the whole sweep before the verdict: a plateau gate that
        # fails with only a percentage is undebuggable from CI logs
        print_sweep_table(result)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
