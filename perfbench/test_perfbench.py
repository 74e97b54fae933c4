"""Unit tests of the benchmark's own arithmetic, at toy sizes.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import gc
import json
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from repro.core.simulate import simulate_vectors
from repro.core.wavepipe import simulate_waves_packed, wave_pipeline
from repro.errors import ServerQueueFull
from repro.suite import ripple_carry_adder

from perfbench.closedloop import Caller, LoopResult, run_closed_loop
from perfbench.harness import end_to_end, select
from perfbench.oracle import Reference, check_report, expected_outputs
from perfbench.stats import error_rate, percentile, samples_beyond
from perfbench.tracing import Span, Tracer, self_times
from perfbench.workloads import Window

ROOT = Path(__file__).resolve().parent.parent


# -- percentiles and failure accounting ---------------------------------
@pytest.mark.parametrize(
    "q, expected", [(5, 15), (30, 20), (40, 20), (50, 35), (100, 50)]
)
def test_nearest_rank_percentile_on_pinned_vector(q, expected):
    assert percentile([50, 15, 40, 35, 20], q) == expected


def test_p99_of_a_thousand_samples_leaves_ten_beyond():
    values = list(range(1, 1001))
    assert percentile(values, 99) == 990
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(100, 99) == 1


@pytest.mark.parametrize("values, q", [([], 50), ([1.0], 0), ([1.0], 101)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)


def test_error_rate_counts_failures_against_attempts():
    assert error_rate(10, 0) == 0.0
    assert error_rate(8, 2) == 0.25
    for attempted, failed in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            error_rate(attempted, failed)


def _resolved(
    value: object = None, error: BaseException | None = None
) -> Future:
    future: Future = Future()
    if error is None:
        future.set_result(value)
    else:
        future.set_exception(error)
    return future


def test_closed_loop_counts_refusals_and_failed_futures():
    """Op k is refused when k % 5 == 3 and fails when k % 5 == 4."""

    def submit(ops: list[int]) -> list[Future]:
        return [
            _resolved(error=ServerQueueFull("full")) if op % 5 == 3
            else _resolved(op, RuntimeError("lost") if op % 5 == 4 else None)
            for op in ops
        ]

    def check(op: int, result: object) -> str | None:
        return None if result == op else f"op {op} got {result}"

    caller = Caller(
        submit, check, 3, "toy.submit", "toy.request", lambda op: "toy"
    )
    loop = run_closed_loop([[caller]], window=4, seconds=0.05)
    expected_failed = sum(
        1 for op in range(loop.attempted) if op % 5 in (3, 4)
    )
    assert loop.attempted > 10
    assert loop.failed == expected_failed
    assert loop.completed == loop.attempted - expected_failed
    assert loop.wrong == 0
    assert sum(loop.waves) == 3 * loop.completed
    assert error_rate(loop.attempted, loop.failed) == pytest.approx(
        expected_failed / loop.attempted
    )


def test_closed_loop_drains_each_epoch_before_the_next():
    outstanding: list[Future] = []
    epochs: list[int] = []

    def submit(ops: list[int]) -> list[Future]:
        futures = [Future() for _ in ops]
        outstanding.extend(futures)
        if len(outstanding) == 4:  # resolve in bursts of a full window
            for pending in outstanding:
                pending.set_result(None)
            outstanding.clear()
        return futures

    def on_epoch() -> None:
        assert not outstanding
        epochs.append(len(epochs))

    caller = Caller(
        submit, lambda op, result: None, 1, "toy.submit", "toy.request",
        lambda op: "toy", epoch=8, on_epoch=on_epoch,
    )
    loop = run_closed_loop([[caller]], window=4, seconds=0.05)
    assert epochs and loop.attempted >= 8 * len(epochs)
    assert loop.epochs == len(epochs)
    assert loop.failed == 0 and loop.completed == loop.attempted


def test_one_thread_keeps_a_window_and_an_epoch_per_caller():
    peak = {"a": 0, "b": 0}
    handovers: list[str] = []

    def caller(name: str, epoch: int) -> Caller:
        pending: list[Future] = []

        def submit(ops: list[int]) -> list[Future]:
            futures = [Future() for _ in ops]
            pending.extend(futures)
            peak[name] = max(peak[name], len(pending))
            if len(pending) >= 3:  # a full window resolves at once
                for future in pending:
                    future.set_result(None)
                pending.clear()
            return futures

        return Caller(
            submit, lambda op, result: None, 1, "toy.submit", "toy.request",
            lambda op: name, epoch=epoch,
            on_epoch=lambda: handovers.append(name),
        )

    loop = run_closed_loop(
        [[caller("a", 6), caller("b", 0)]], window=3, seconds=0.05
    )
    assert peak == {"a": 3, "b": 3}
    assert handovers and set(handovers) == {"a"}
    assert loop.epochs == len(handovers)
    assert loop.failed == 0 and loop.completed == loop.attempted
    assert set(loop.circuits) == {"a", "b"}


def test_window_figures_leave_out_the_drain():
    loop = LoopResult(start=0.0, deadline=2.0)
    loop.resolved_at = [0.1, 0.5, 1.9, 2.0, 2.5]
    loop.latencies_s = [0.01, 0.02, 0.03, 0.04, 9.0]
    loop.waves = [2, 2, 2, 3, 2]
    loop.circuits = ["a", "b", "a", "a", "b"]
    assert loop.in_window() == ({"a": 7, "b": 2}, [0.01, 0.02, 0.03, 0.04])


# -- spans ----------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(1, "a", 0.0, 10.0, 0, -1),
        Span(2, "b", 1.0, 4.0, 1, -1),
        Span(3, "c", 3.0, 6.0, 1, -1),  # overlaps b
        Span(4, "d", 8.0, 12.0, 1, -1),  # runs past its parent's end
        Span(5, "e", 2.0, 3.0, 2, -1),
        Span(6, "e", 20.0, 21.5, 0, -1),  # a second root of the same name
    ]
    layers = self_times(spans)
    assert layers["a"].self_s == pytest.approx(10.0 - 5.0 - 2.0)
    assert layers["b"].self_s == pytest.approx(2.0)
    assert layers["c"].self_s == pytest.approx(3.0)
    assert layers["d"].self_s == pytest.approx(4.0)
    assert layers["e"] == (2, pytest.approx(2.5), pytest.approx(2.5))


def test_tracer_nests_spans_and_writes_them(tmp_path):
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner", outer):
            pass
    rid = tracer.new_id()
    tracer.record("request", 1.0, 2.0, sid=rid, rid=rid)
    inner, outer_span, request = tracer.spans
    assert inner.parent == outer_span.sid and outer_span.parent == 0
    assert request.sid == request.rid == rid
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["inner", "outer", "request"]


# -- the output oracle ----------------------------------------------------
@pytest.fixture(scope="module")
def adder():
    mig = ripple_carry_adder(3)
    result = wave_pipeline(mig, fanout_limit=3, verify=True)
    ref = Reference(mig, 2, 40, np.random.default_rng(7))
    return mig, result.netlist, ref


def test_oracle_matches_the_scalar_mig_simulation(adder):
    mig, _, ref = adder
    vectors = ref.inputs.reshape(-1, mig.n_pis)
    expected = expected_outputs(mig, vectors)
    assert expected.tolist() == simulate_vectors(mig, vectors.tolist())


def test_oracle_accepts_a_correct_report(adder):
    _, netlist, ref = adder
    report = simulate_waves_packed(netlist, ref.inputs[1])
    depth = netlist.depth()
    assert check_report(report, ref.expected[1], depth) is None


def test_oracle_rejects_one_flipped_bit(adder):
    _, netlist, ref = adder
    report = simulate_waves_packed(netlist, ref.inputs[1])
    report.outputs[17][2] = not report.outputs[17][2]
    depth = netlist.depth()
    problem = check_report(report, ref.expected[1], depth)
    assert problem == "outputs differ from the MIG reference at wave 17"


def test_oracle_rejects_a_missing_output(adder):
    _, netlist, ref = adder
    report = simulate_waves_packed(netlist, ref.inputs[1])
    width = len(report.outputs[3])
    report.outputs[3].pop()
    problem = check_report(report, ref.expected[1], netlist.depth())
    assert problem == f"{width - 1} outputs at wave 3, expected {width}"


def test_reference_rows_drop_out_of_gc_tracking(adder):
    _, _, ref = adder
    gc.collect()
    assert not any(gc.is_tracked(row) for rows in ref.expected for row in rows)


def test_oracle_rejects_a_wrong_step_count(adder):
    _, netlist, ref = adder
    report = simulate_waves_packed(netlist, ref.inputs[0])
    problem = check_report(
        report, ref.expected[0], netlist.depth(), first_wave=64
    )
    assert problem is not None and problem.startswith("steps_run")


# -- metric selection against BENCHMARK.json ------------------------------
def test_end_to_end_figures_are_exactly_the_listed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    window = Window(1, 0, 100.0, 2.0, 3.0, "toy", 50.0)
    figures = end_to_end(window, [0.5, 0.7, 0.6])
    metrics = select(figures, spec["end_to_end"], fill=False)
    assert list(metrics) == [metric["name"] for metric in spec["end_to_end"]]
    assert metrics["setup_s"] == {"value": 0.6, "unit": "s"}
    assert metrics["peak_rss_mb"] == {"value": 50.0, "unit": "MiB"}
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_select_fills_only_per_layer_gaps_and_rejects_unknown_names():
    listed = [{"name": "x_s", "unit": "s"}, {"name": "y", "unit": "count"}]
    filled = select({"x_s": 2}, listed, fill=True)
    assert filled["y"] == {"value": 0.0, "unit": "count"}
    with pytest.raises(ValueError):
        select({"x_s": 2}, listed, fill=False)
    with pytest.raises(ValueError):
        select({"x_s": 2, "z": 1}, listed, fill=True)
