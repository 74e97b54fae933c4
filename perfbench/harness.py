"""One benchmark run: set up, measure, check, report.

The metric names, units and order come from ``BENCHMARK.json`` at the
root of the checkout, so the file the benchmark is judged by and the
figures it prints cannot drift apart.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path
from typing import Optional

from .stats import error_rate
from .tracing import GcMonitor, Layer, Tracer, render_layers, self_times
from .workloads import FLOW_LAYERS, SETUP_REPEATS, WORKLOADS, Window


def end_to_end(window: Window, setup_s: list[float]) -> dict[str, float]:
    """The end-to-end figures of one untraced or traced window."""
    return {
        "setup_s": statistics.median(setup_s),
        "waves_per_s": window.waves_per_s,
        "latency_p50_ms": window.latency_p50_ms,
        "latency_p99_ms": window.latency_p99_ms,
        "peak_rss_mb": window.peak_rss_mb,
    }


def select(
    values: dict[str, float], listed: list[dict], fill: bool
) -> dict[str, dict[str, object]]:
    """The listed metrics with their units, in BENCHMARK.json order.

    A listed name the run did not produce is an error, unless *fill*
    (per-layer metrics: a layer off this workload's path reads 0).  A
    produced name that is not listed is always an error.
    """
    names = [metric["name"] for metric in listed]
    unknown = sorted(set(values) - set(names))
    missing = [name for name in names if name not in values]
    if unknown or (missing and not fill):
        raise ValueError(f"unlisted metrics {unknown}, missing {missing}")
    return {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in listed
    }


def _print_window(
    name: str, window: Window, metrics: dict[str, dict[str, object]]
) -> None:
    rate = error_rate(window.attempted, window.failed)
    print(
        f"{name}: {window.attempted} operations attempted, {window.failed} "
        f"failed (error_rate {rate:.6f}); latency over {window.samples}"
    )
    for key, metric in metrics.items():
        print(f"  {key:<16} {metric['value']:.6g} {metric['unit']}")
    for note in window.notes:
        print(f"  {note}")


def _print_trace(
    layers: dict[str, Layer],
    plain: Window,
    traced: Window,
    per_layer: dict[str, float],
) -> None:
    print(render_layers(layers))
    print("tracing overhead (traced minus untraced):")
    for key in ("waves_per_s", "latency_p50_ms", "latency_p99_ms"):
        before, after = getattr(plain, key), getattr(traced, key)
        print(f"  {key:<16} {after - before:+.6g} ({after / before - 1:+.1%})")
    if traced.paired_flow_s:
        covered = sum(per_layer[f"{name}_s"] for name in FLOW_LAYERS)
        print(
            f"flow layers sum to {covered:.4f} s per pass: "
            f"{covered / traced.flow_s:.1%} of the traced passes, "
            f"{covered / traced.paired_flow_s:.1%} of the untraced passes "
            f"run between them ({traced.paired_flow_s:.4f} s), "
            f"{covered / plain.flow_s:.1%} of the untraced window's flow_s"
        )


def run(
    root: Path, workload_name: str, seed: int, seconds: float, trace: bool
) -> tuple[dict[str, object], bool]:
    """One run; returns the result object and whether it was correct."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workload = WORKLOADS[workload_name]()
    tracer: Optional[Tracer] = Tracer() if trace else None
    setup_s: list[float] = []
    try:
        for _ in range(SETUP_REPEATS):
            workload.teardown()
            gc.collect()  # every set-up starts from a collected heap
            began = time.perf_counter()
            workload.setup(seed, None)
            setup_s.append(time.perf_counter() - began)
        plain = workload.measure(seconds, None)
        if tracer is not None:
            # one more, traced, set-up: its spans are the serving
            # workloads' flow layers; its time counts toward nothing
            workload.teardown()
            workload.setup(seed, tracer)
            with GcMonitor() as gc_monitor:
                traced = workload.measure(seconds, tracer)
            workload.rerun(tracer, traced)
    finally:
        workload.teardown()

    listed = spec["end_to_end"]
    metrics = select(end_to_end(plain, setup_s), listed, fill=False)
    print(f"workload {workload_name}, seed {seed}, {seconds:g} s window")
    _print_window("untraced", plain, metrics)
    for line in workload.summary(plain):
        print(line)
    attempted, failed = plain.attempted, plain.failed
    if tracer is not None:
        traced_figures = end_to_end(traced, setup_s)
        _print_window("traced", traced, select(traced_figures, listed, False))
        layers = self_times(tracer.spans)
        per_layer = workload.layers(traced, layers, gc_monitor)
        _print_trace(layers, plain, traced, per_layer)
        name = f"spans-{workload_name}-{seed}.jsonl"
        out = root / "perfbench" / "out" / name
        tracer.write(out)
        print(f"{len(tracer.spans)} spans written to {out.relative_to(root)}")
        metrics = select(per_layer, spec["per_layer"], fill=True)
        attempted += traced.attempted
        failed += traced.failed
    for problem in workload.problems:
        print(f"MISMATCH {problem}")
    correct = not workload.problems
    return (
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        correct,
    )
