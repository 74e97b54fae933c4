#!/usr/bin/env python
"""JSON benchmark: PLANNER_STEP_OVERHEAD sensitivity sweep (the plateau).

:data:`repro.core.wavepipe.kernels.PLANNER_STEP_OVERHEAD` holds one
calibration constant per tracking variant (tracked, elided); the lane
planner turns it into a lane count through the sqrt cost model of
``_default_lane_count``.  The constants are *plan-shape* knobs, not
timing estimates: the claim documented next to them is that the
throughput optimum is **flat for roughly a decade** around each
committed value, so their exact magnitude does not matter.

This bench makes that claim measurable.  For each tracking variant it

1. sweeps multipliers ``1/64 .. 64`` over the committed constant,
2. resolves the lane plan each swept constant would produce (via
   :func:`describe_packed_run` with the constant patched in), and
3. times the packed run **with that lane count pinned** through the
   public ``lanes=`` override — the timed path never sees the patched
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
    random_vectors,
    simulate_waves_packed,
    wave_pipeline,
)
from repro.core.wavepipe import kernels
from repro.core.wavepipe.batch import describe_packed_run
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


def _variant_track(elided: bool):
    """The ``track=`` argument that pins one tracking variant.

    ``track=True`` forces wave-id tracking; ``track=None`` lets the
    elision proof fire (the suite's balanced netlists all pass it), so
    it selects the elided kernel on the bench netlist.
    """
    return None if elided else True


def sweep_variant(
    elided: bool, netlist, stream, clocking: ClockingScheme
) -> dict:
    """Sweep and time one tracking variant's constant."""
    committed = kernels.PLANNER_STEP_OVERHEAD[elided]
    track = _variant_track(elided)
    n_waves = len(stream)
    points = []
    for multiplier in MULTIPLIERS:
        swept = max(1, int(committed * multiplier))
        # resolve the plan shape the swept constant implies; the patch
        # never survives into the timed region below
        kernels.PLANNER_STEP_OVERHEAD[elided] = swept
        try:
            plan = describe_packed_run(
                netlist, n_waves, clocking=clocking, track=track
            )
        finally:
            kernels.PLANNER_STEP_OVERHEAD[elided] = committed
        point = {
            "multiplier": multiplier,
            "overhead": swept,
            "lanes": plan["lanes"],
            "words": plan["words"],
            "steps": plan["steps"],
            "elided_tracking": plan["elided_tracking"],
        }

        def run() -> None:
            simulate_waves_packed(
                netlist, stream, clocking=clocking,
                lanes=plan["lanes"], track=track,
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
        "elided": elided,
        "committed_overhead": committed,
        "points": points,
        "committed_rate": rates[1],
        "best_rate": best_rate,
        "committed_vs_best": rates[1] / best_rate if best_rate else 1.0,
    }


def print_sweep_table(variants, file=sys.stderr) -> None:
    """The full per-variant sweep, for humans reading a CI failure.

    A bare "committed constant is N% below best" line is not actionable
    without seeing the shape of the sweep — whether the plateau moved,
    how far, and what lane/word plan each multiplier chose.
    """
    for variant in variants:
        print(
            f"elided={variant['elided']}"
            f" (committed overhead {variant['committed_overhead']:g})",
            file=file,
        )
        print(
            f"  {'mult':>6} {'overhead':>10} {'lanes':>6} "
            f"{'words':>6} {'steps':>7} {'waves/s':>12}",
            file=file,
        )
        for point in variant["points"]:
            marker = " <- committed" if point["multiplier"] == 1 else ""
            print(
                f"  {point['multiplier']:>6g} {point['overhead']:>10.3g} "
                f"{point['lanes']:>6} {point['words']:>6} "
                f"{point['steps']:>7} {point['waves_per_s']:12.0f}{marker}",
                file=file,
            )
        print(
            f"  committed-vs-best: "
            f"{variant['committed_vs_best']:.1%}",
            file=file,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller stream (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless each variant's "
                             "committed constant is on the plateau")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="allowed throughput gap committed-vs-best "
                             "(default 0.35 — the constants are "
                             "order-of-magnitude knobs, the gate exists "
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
    simulate_waves_packed(netlist, stream[:256], clocking=clocking)

    variants = [
        sweep_variant(elided, netlist, stream, clocking)
        for elided in sorted(kernels.PLANNER_STEP_OVERHEAD)
    ]

    failures = []
    for variant in variants:
        gap = 1.0 - variant["committed_vs_best"]
        if gap > args.tolerance:
            failures.append(
                f"elided={variant['elided']}: "
                f"committed constant is {gap:.0%} below the best "
                f"swept multiplier (tolerance {args.tolerance:.0%})"
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
        "variants": variants,
        "plateau_ok": not failures,
        "failures": failures,
    }
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if args.check and failures:
        # show the whole sweep before the verdict: a plateau gate that
        # fails with only a percentage is undebuggable from CI logs
        print_sweep_table(variants)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
