"""Fault-injection + supervision suite for the serving tier (ISSUE 8).

Everything here is driven by the seeded :class:`~repro.serve.FaultPlan`
(no hand-placed ``os.kill`` choreography — the chaos is part of the
dispatch path and replayable from its seed) and pinned to the
supervision invariants:

* **Determinism** — two plans with one seed fire the same faults at the
  same per-kind visit numbers, whatever the thread interleaving.
* **Hang detection** — a worker wedged past ``dispatch_timeout_s`` is
  SIGKILL-reaped, the batch retries, and the retried report is
  bit-identical to the solo run.
* **Quarantine** — a poison batch (kills every worker it touches)
  exhausts its retry budget and fails *only its own futures* with
  :class:`~repro.errors.ShardFailed`; the server keeps serving.
* **Circuit breaker** — a crash-looping slot is taken out of rotation,
  sticky groups reroute, and a cooled-down breaker closes again through
  a half-open probe.
* **Fault matrix** — under a seeded crash x hang x slow x EOF blend,
  every future resolves with a bit-identical report or a typed error,
  and the metrics ledger balances.
* **Ops machinery** — ``close(timeout)`` is one shared deadline budget,
  SIGTERM drains gracefully, and the deadline-aware linger dispatches
  a tight-deadline batch instead of expiring it in the linger wait.
"""

import os
import signal
import threading
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wavepipe import (
    WaveNetlist,
    random_vectors,
    simulate_waves,
    wave_pipeline,
)
from repro.errors import (
    DeadlineExceeded,
    ServeError,
    SessionClosed,
    ShardFailed,
)
from repro.serve import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    FaultRates,
    GroupKey,
    ProcessShardPool,
    RequestQueue,
    SimulationRequest,
    SimulationServer,
    SupervisorConfig,
    WorkerSupervisor,
    graceful_drain,
)
from repro.serve.batcher import Batch

from helpers import build_adder_mig, build_random_mig
from strategies import request_mixes

#: Deadlock guard for every blocking wait in this module.
TIMEOUT_S = 120.0

#: Fast supervision policy for tests: tiny backoffs, generous budget.
FAST = SupervisorConfig(
    max_batch_retries=6,
    backoff_base_s=0.005,
    backoff_cap_s=0.02,
    breaker_threshold=100,
)


@lru_cache(maxsize=None)
def _netlists():
    balanced = wave_pipeline(build_adder_mig(3), fanout_limit=3).netlist
    unbalanced = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
    return balanced, unbalanced


@lru_cache(maxsize=None)
def _solo(netlist_index: int, n_waves: int, seed: int):
    """Scalar-oracle report of one (netlist, length, seed) request."""
    netlist = _netlists()[netlist_index]
    vectors = random_vectors(netlist.n_inputs, n_waves, seed=seed)
    return simulate_waves(netlist, vectors, engine="python")


def _vectors(netlist_index: int, n_waves: int, seed: int):
    netlist = _netlists()[netlist_index]
    return random_vectors(netlist.n_inputs, n_waves, seed=seed)


def _group_key(netlist, n_phases: int = 3, pipelined: bool = True):
    """The GroupKey the server will route *netlist*'s requests under."""
    return GroupKey(
        netlist_id=id(netlist),
        version=netlist.version,
        n_phases=n_phases,
        pipelined=pipelined,
    )


def _assert_ledger_balances(metrics: dict) -> None:
    """Every admitted request is accounted for exactly once."""
    assert metrics["submitted"] == (
        metrics["completed"]
        + metrics["failed"]
        + metrics["cancelled"]
        + metrics["expired"]
    ), metrics
    # ShardFailed is a split-out of ``failed``, never extra ledger mass
    assert metrics["shard_failed"] <= metrics["failed"], metrics


def _find_seed(pattern, rates: FaultRates, kind: str) -> int:
    """Smallest seed whose *kind* decisions match *pattern* (bool list).

    Seeded decisions are pure functions of (seed, kind, visit), so the
    search is a deterministic table lookup, not a retry loop.
    """
    rate = getattr(rates, kind)
    for seed in range(10_000):
        plan = FaultPlan(seed, rates)
        if all(
            (plan._decision(kind, visit) < rate) == want
            for visit, want in enumerate(pattern)
        ):
            return seed
    raise AssertionError(f"no seed under 10000 matches {pattern}")


class TestFaultPlan:
    """The seeded schedule: deterministic, independent, parseable."""

    def test_same_seed_same_schedule(self):
        rates = FaultRates(crash_mid_batch=0.3, hang=0.2, slow=0.4)
        first = FaultPlan(17, rates)
        second = FaultPlan(17, rates)
        schedule = [first.next_fault() for _ in range(50)]
        assert schedule == [second.next_fault() for _ in range(50)]
        assert first.injected() == second.injected()

    def test_different_seeds_diverge(self):
        rates = FaultRates(crash_mid_batch=0.5)
        schedules = [
            [FaultPlan(seed, rates).next_fault() for _ in range(30)]
            for seed in (0, 1)
        ]
        assert schedules[0] != schedules[1]

    def test_kind_decisions_are_independent_of_other_rates(self):
        # the hang subsequence must not shift when another kind's rate
        # changes: decisions are keyed (seed, kind, visit), not by a
        # shared draw stream
        hang_only = FaultPlan(5, FaultRates(hang=0.4))
        blended = FaultPlan(
            5, FaultRates(hang=0.4, crash_mid_batch=0.9, slow=0.5)
        )
        hang_alone = [hang_only.next_fault() for _ in range(60)]
        hang_visits = [
            fault is not None for fault in hang_alone
        ]
        # count hang firings in the blend: every dispatch where the
        # higher-priority crash did not fire still advances the hang
        # counter, so the per-visit hang decisions line up 1:1
        blended_hangs = 0
        for _ in range(60):
            fault = blended.next_fault()
            if fault is not None and fault.kind == "hang":
                blended_hangs += 1
        assert blended.injected()["hang"] == blended_hangs
        # per-visit decisions agree between the two plans
        assert [
            hang_only._decision("hang", visit) for visit in range(60)
        ] == [blended._decision("hang", visit) for visit in range(60)]
        assert any(hang_visits)

    def test_rate_zero_never_fires_rate_one_always(self):
        silent = FaultPlan(3, FaultRates())
        assert all(silent.next_fault() is None for _ in range(20))
        certain = FaultPlan(3, FaultRates(pipe_eof=1.0))
        faults = [certain.next_fault() for _ in range(20)]
        assert all(
            fault is not None and fault.kind == "pipe_eof"
            for fault in faults
        )
        assert certain.injected()["pipe_eof"] == 20

    def test_priority_order_first_firing_kind_wins(self):
        plan = FaultPlan(0, FaultRates(crash_before_dispatch=1.0, slow=1.0))
        fault = plan.next_fault()
        assert fault is not None
        assert fault.kind == "crash_before_dispatch"  # highest priority

    def test_poison_keys_always_crash(self):
        plan = FaultPlan(9, poison={"poisoned-route"})
        for _ in range(5):
            fault = plan.next_fault(route_key="poisoned-route")
            assert fault == Fault("crash_mid_batch")
        assert plan.next_fault(route_key="healthy-route") is None
        assert plan.injected()["crash_mid_batch"] == 5

    def test_delays_ride_on_the_fault(self):
        rates = FaultRates(hang=1.0, hang_s=12.5)
        fault = FaultPlan(0, rates).next_fault()
        assert fault is not None and fault.delay_s == 12.5
        rates = FaultRates(slow=1.0, slow_s=0.25)
        fault = FaultPlan(0, rates).next_fault()
        assert fault is not None and fault.delay_s == 0.25

    def test_wire_directives(self):
        assert Fault("crash_before_dispatch").wire() is None
        assert Fault("crash_mid_batch").wire() == ("crash", 0.0)
        assert Fault("pipe_eof").wire() == ("eof", 0.0)
        assert Fault("hang", 60.0).wire() == ("hang", 60.0)
        assert Fault("slow", 0.01).wire() == ("slow", 0.01)

    def test_parse_round_trip_and_aliases(self):
        plan = FaultPlan.parse(
            "crash=0.25, hang=0.1, slow-s=0.05, seed=99", seed=1
        )
        assert plan.seed == 99  # in-spec seed overrides the argument
        assert plan.rates.crash_mid_batch == 0.25
        assert plan.rates.hang == 0.1
        assert plan.rates.slow_s == 0.05
        described = plan.describe()
        assert "seed=99" in described and "crash_mid_batch=0.25" in described

    @pytest.mark.parametrize(
        "spec",
        ["crash", "nope=0.5", "crash=high", "crash=1.5"],
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ServeError):
            FaultPlan.parse(spec)

    def test_rates_validate(self):
        with pytest.raises(ServeError):
            FaultRates(hang=-0.1)
        with pytest.raises(ServeError):
            FaultRates(slow_s=-1.0)

    def test_thread_safety_of_visit_counters(self):
        plan = FaultPlan(0, FaultRates(crash_mid_batch=0.5))
        counted = []
        barrier = threading.Barrier(4)

        def draw():
            barrier.wait()
            counted.append(
                sum(plan.next_fault() is not None for _ in range(100))
            )

        threads = [threading.Thread(target=draw) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT_S)
        # 400 visits happened exactly once each, whatever the interleave
        assert plan.injected()["crash_mid_batch"] == sum(counted)
        reference = FaultPlan(0, FaultRates(crash_mid_batch=0.5))
        expected = sum(
            reference.next_fault() is not None for _ in range(400)
        )
        assert sum(counted) == expected


class TestWorkerSupervisor:
    """The pure policy: backoff, breaker, probes (fake clock)."""

    def test_backoff_doubles_to_cap(self):
        config = SupervisorConfig(
            backoff_base_s=0.1, backoff_cap_s=0.5, breaker_threshold=100
        )
        supervisor = WorkerSupervisor(1, config)
        delays = [
            supervisor.record_failure(0, float(step))[0]
            for step in range(5)
        ]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_success_resets_the_streak(self):
        supervisor = WorkerSupervisor(1, SupervisorConfig(
            backoff_base_s=0.1, breaker_threshold=100,
        ))
        supervisor.record_failure(0, 0.0)
        supervisor.record_failure(0, 1.0)
        supervisor.record_success(0)
        backoff, opened = supervisor.record_failure(0, 2.0)
        assert backoff == pytest.approx(0.1) and not opened

    def test_breaker_opens_routes_around_and_probes(self):
        config = SupervisorConfig(breaker_threshold=2, breaker_reset_s=10.0)
        supervisor = WorkerSupervisor(2, config)
        assert supervisor.record_failure(0, 0.0) == (
            pytest.approx(config.backoff_base_s), False
        )
        backoff, opened = supervisor.record_failure(0, 1.0)
        assert opened and backoff == 0.0
        # degraded routing: home 0 reroutes to slot 1 while broken
        assert supervisor.pick_slot(0, 2.0) == 1
        # cooled down: slot 0 is claimed for exactly one half-open probe
        assert supervisor.pick_slot(0, 11.5) == 0
        assert supervisor.slot_states(11.5)[0]["state"] == "probing"
        # the probe is exclusive — a second pick while probing skips it
        assert supervisor.pick_slot(0, 11.6) == 1
        # probe success closes the breaker
        supervisor.record_success(0)
        assert supervisor.slot_states(12.0)[0]["state"] == "healthy"
        assert supervisor.pick_slot(0, 12.0) == 0

    def test_failed_probe_reopens_immediately(self):
        config = SupervisorConfig(breaker_threshold=1, breaker_reset_s=5.0)
        supervisor = WorkerSupervisor(1, config)
        assert supervisor.record_failure(0, 0.0)[1]  # opens at once
        assert supervisor.pick_slot(0, 6.0) == 0  # half-open probe
        backoff, opened = supervisor.record_failure(0, 6.1)
        assert opened  # failed probe re-opens, streak notwithstanding
        assert supervisor.pick_slot(0, 7.0) is None  # every slot broken
        assert supervisor.totals()["breaker_opens"] == 2

    def test_totals_track_hangs_and_quarantines(self):
        supervisor = WorkerSupervisor(1)
        supervisor.note_hang_reaped()
        supervisor.note_quarantine()
        supervisor.note_quarantine()
        totals = supervisor.totals()
        assert totals["hung_reaped"] == 1
        assert totals["quarantined_batches"] == 2

    def test_config_validation(self):
        with pytest.raises(ServeError):
            SupervisorConfig(max_batch_retries=-1)
        with pytest.raises(ServeError):
            SupervisorConfig(breaker_threshold=0)


class TestHangDetection:
    """A wedged worker is reaped within the dispatch timeout."""

    def test_hung_worker_is_reaped_and_batch_retried(self):
        # seed chosen so the first hang decision fires and the second
        # does not: dispatch 1 hangs (reaped), retry runs clean
        rates = FaultRates(hang=0.5, hang_s=60.0)
        seed = _find_seed([True, False], rates, "hang")
        plan = FaultPlan(seed, rates)
        netlist = _netlists()[0]
        request = (0, 6, 3)
        with ProcessShardPool(
            1,
            dispatch_timeout_s=0.75,
            faults=plan,
            supervision=FAST,
        ) as pool:
            started = time.monotonic()
            reports = pool.simulate(netlist, [_vectors(*request)])
            elapsed = time.monotonic() - started
        assert reports[0] == _solo(*request)  # bit-identical retry
        # the 60s hang was cut at the 0.75s timeout (plus respawn slack)
        assert elapsed < 30.0
        assert plan.injected()["hang"] == 1
        health = pool.health()
        assert health["hung_reaped"] == 1
        assert health["worker_restarts"] == 1

    def test_dispatch_timeout_validates(self):
        with pytest.raises(ServeError):
            ProcessShardPool(1, dispatch_timeout_s=0.0)


class TestPoisonQuarantine:
    """A batch that kills every worker fails alone; serving continues."""

    def test_pool_quarantines_poison_route(self):
        plan = FaultPlan(0, poison={"poison"})
        netlist = _netlists()[0]
        healthy = (0, 5, 1)
        with ProcessShardPool(1, faults=plan, supervision=SupervisorConfig(
            max_batch_retries=1,
            backoff_base_s=0.005,
            backoff_cap_s=0.01,
            breaker_threshold=100,
        )) as pool:
            with pytest.raises(ShardFailed) as excinfo:
                pool.simulate(
                    netlist, [_vectors(0, 4, 0)], route_key="poison"
                )
            assert "quarantined" in str(excinfo.value)
            # the pool keeps serving other routes, bit-identically
            reports = pool.simulate(
                netlist, [_vectors(*healthy)], route_key="healthy"
            )
            assert reports[0] == _solo(*healthy)
            health = pool.health()
            assert health["quarantined_batches"] == 1
            assert health["worker_restarts"] >= 2  # every attempt died

    def test_server_survives_poison_group(self):
        balanced, unbalanced = _netlists()
        poison_key = _group_key(balanced)
        plan = FaultPlan(0, poison={poison_key})
        server = SimulationServer(
            shards=2,
            process_shards=1,
            faults=plan,
            supervision=SupervisorConfig(
                max_batch_retries=1,
                backoff_base_s=0.005,
                backoff_cap_s=0.01,
                breaker_threshold=100,
            ),
        )
        try:
            poisoned = server.submit(balanced, _vectors(0, 4, 0))
            with pytest.raises(ShardFailed):
                poisoned.result(TIMEOUT_S)
            # only the poison group failed: the other group still
            # serves, bit-identical, through the same pool
            healthy = (1, 6, 2)
            report = server.simulate(
                unbalanced, _vectors(*healthy), timeout=TIMEOUT_S
            )
            assert report == _solo(*healthy)
            metrics = server.metrics.snapshot()
            assert metrics["shard_failed"] == 1
            assert metrics["failed"] >= 1
            _assert_ledger_balances(metrics)
            health = server.health()
            assert health["mode"] == "process"
            assert health["quarantined_batches"] == 1
        finally:
            server.close(timeout=TIMEOUT_S)

    def test_breaker_opens_then_recovers_through_probe(self):
        plan = FaultPlan(0, poison={"poison"})
        netlist = _netlists()[0]
        config = SupervisorConfig(
            max_batch_retries=0,
            backoff_base_s=0.005,
            backoff_cap_s=0.01,
            breaker_threshold=1,  # first failure trips the breaker
            breaker_reset_s=0.2,
        )
        with ProcessShardPool(1, faults=plan, supervision=config) as pool:
            with pytest.raises(ShardFailed):
                pool.simulate(
                    netlist, [_vectors(0, 4, 0)], route_key="poison"
                )
            health = pool.health()
            assert health["breaker_opens"] == 1
            assert health["workers"][0]["breaker_open"]
            # before the reset the only slot is broken: no dispatch
            with pytest.raises(ShardFailed):
                pool.simulate(
                    netlist, [_vectors(0, 4, 1)], route_key="healthy"
                )
            time.sleep(0.3)  # past breaker_reset_s: probe admitted
            healthy = (0, 5, 1)
            reports = pool.simulate(
                netlist, [_vectors(*healthy)], route_key="healthy"
            )
            assert reports[0] == _solo(*healthy)
            assert not pool.health()["workers"][0]["breaker_open"]


class TestFaultMatrix:
    """Seeded crash x hang x slow x EOF blends: no stranded futures."""

    RATES = FaultRates(
        crash_before_dispatch=0.1,
        crash_mid_batch=0.25,
        pipe_eof=0.1,
        hang=0.15,
        slow=0.2,
        slow_s=0.01,
        hang_s=60.0,
    )

    @pytest.mark.parametrize("fault_seed", [0, 1, 2])
    def test_process_matrix_resolves_every_future(self, fault_seed):
        plan = FaultPlan(fault_seed, self.RATES)
        requests = [
            (index % 2, 1 + (index % 5), index % 7) for index in range(14)
        ]
        server = SimulationServer(
            shards=2,
            process_shards=1,
            dispatch_timeout_s=0.75,
            faults=plan,
            supervision=FAST,
            max_linger_steps=0,
        )
        try:
            futures = [
                server.submit(
                    _netlists()[request[0]], _vectors(*request)
                )
                for request in requests
            ]
            for request, future in zip(requests, futures):
                try:
                    report = future.result(TIMEOUT_S)
                except ShardFailed:
                    continue  # typed, accounted — an acceptable outcome
                assert report == _solo(*request), (fault_seed, request)
            metrics = server.metrics.snapshot()
            _assert_ledger_balances(metrics)
        finally:
            server.close(timeout=TIMEOUT_S)

    @pytest.mark.parametrize("fault_seed", [0, 1])
    def test_matrix_is_replayable(self, fault_seed):
        """Two runs from one seed inject the identical fault counts."""
        outcomes = []
        for _ in range(2):
            plan = FaultPlan(fault_seed, self.RATES)
            # start=False pins the batch shapes: every request is
            # queued before the single shard thread wakes, so one
            # coalesced batch forms each run (live submission would
            # race the drain and change how many dispatches — and
            # therefore fault visits — happen)
            server = SimulationServer(
                shards=1,
                process_shards=1,
                dispatch_timeout_s=0.75,
                faults=plan,
                supervision=FAST,
                max_linger_steps=0,
                start=False,
            )
            try:
                futures = [
                    server.submit(_netlists()[0], _vectors(0, 4, seed))
                    for seed in range(6)
                ]
                server.start()
                for future in futures:
                    try:
                        future.result(TIMEOUT_S)
                    except ShardFailed:
                        pass
            finally:
                server.close(timeout=TIMEOUT_S)
            outcomes.append(plan.injected())
        # one batch, one worker, a fixed retry policy: the whole
        # injection schedule replays exactly
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=8, deadline=None)
    @given(mix=request_mixes(max_requests=10), fault_seed=st.integers(0, 5))
    def test_thread_matrix_resolves_every_future(self, mix, fault_seed):
        plan = FaultPlan(
            fault_seed,
            FaultRates(crash_mid_batch=0.3, pipe_eof=0.2, slow=0.3,
                       slow_s=0.002),
        )
        server = SimulationServer(
            shards=2, faults=plan, max_linger_steps=0
        )
        try:
            futures = [
                server.submit(
                    _netlists()[request[0]], _vectors(*request)
                )
                for request in mix
            ]
            for request, future in zip(mix, futures):
                try:
                    report = future.result(TIMEOUT_S)
                except ShardFailed:
                    continue  # thread-mode stand-in, typed and counted
                assert report == _solo(*request)
            metrics = server.metrics.snapshot()
            _assert_ledger_balances(metrics)
            assert metrics["shard_failed"] == metrics["failed"]
        finally:
            server.close(timeout=TIMEOUT_S)


class TestSessionFaults:
    """Streaming sessions under the seeded fault matrix (ISSUE 10).

    The session mirror of :class:`TestFaultMatrix`: under a seeded
    crash x hang x slow x EOF blend, every ``feed()`` future resolves
    bit-identical to its slice of the solo run or fails typed
    (:class:`~repro.errors.ShardFailed` /
    :class:`~repro.errors.SessionClosed` once the stream is
    quarantined), each worker loss is a counted feed-log replay, and
    the request-metrics ledger never absorbs session traffic.
    """

    RATES = FaultRates(
        crash_before_dispatch=0.1,
        crash_mid_batch=0.25,
        pipe_eof=0.1,
        hang=0.15,
        slow=0.2,
        slow_s=0.01,
        hang_s=60.0,
    )

    SCHEDULE = [5, 0, 9, 3, 7, 1, 6]

    @staticmethod
    def _slices(netlist, schedule, seed):
        """The solo oracle, cut at the schedule's feed boundaries."""
        waves = random_vectors(
            netlist.n_inputs, sum(schedule), seed=seed
        )
        solo = simulate_waves(netlist, waves, engine="packed")
        slices, start = [], 0
        for count in schedule:
            slices.append(solo.outputs[start:start + count])
            start += count
        return waves, slices

    @pytest.mark.parametrize(
        "fault_seed, process_shards",
        [pytest.param(seed, 1, id=str(seed)) for seed in (0, 1, 2)]
        + [pytest.param(seed, 0, id=f"thread-{seed}") for seed in range(5)],
    )
    def test_session_matrix_bit_identical_or_typed(
        self, fault_seed, process_shards
    ):
        balanced, _ = _netlists()
        waves, slices = self._slices(balanced, self.SCHEDULE, seed=6)
        plan = FaultPlan(fault_seed, self.RATES)
        server = SimulationServer(
            shards=1,
            process_shards=process_shards,
            dispatch_timeout_s=0.75,
            faults=plan,
            supervision=FAST,
        )
        try:
            stream = server.open_stream(balanced)
            futures, start = [], 0
            for count in self.SCHEDULE:
                try:
                    futures.append(
                        stream.feed(waves[start:start + count])
                    )
                except SessionClosed:
                    break  # quarantined mid-schedule: typed, stop feeding
                start += count
            stream.close(drain=True, timeout=TIMEOUT_S)
            for future, expected in zip(futures, slices):
                assert future.done()
                try:
                    report = future.result(timeout=0)
                except (ShardFailed, SessionClosed):
                    continue  # typed, accounted — acceptable outcomes
                assert report.outputs == expected, (fault_seed, expected)
            metrics = server.metrics.snapshot()
            # session feeds never leak into the request ledger
            assert metrics["submitted"] == 0
            _assert_ledger_balances(metrics)
            assert metrics["sessions_opened"] == 1
            assert metrics["sessions_closed"] == 1
        finally:
            server.close(timeout=TIMEOUT_S)

    @pytest.mark.parametrize(
        "process_shards",
        [pytest.param(1, id="process"), pytest.param(0, id="thread")],
    )
    def test_injected_crash_is_a_counted_replay(self, process_shards):
        """A crash_before_dispatch feed replays and stays bit-identical."""
        rates = FaultRates(crash_before_dispatch=0.6)
        # fire on the second session_feed visit: the first feed lands
        # clean, the crash then eats the worker-side engine state that
        # the replay must reconstruct
        seed = _find_seed(
            [False, True, False, False, False, False],
            rates,
            "crash_before_dispatch",
        )
        balanced, _ = _netlists()
        schedule = [4, 6, 3]
        waves, slices = self._slices(balanced, schedule, seed=2)
        server = SimulationServer(
            shards=1,
            process_shards=process_shards,
            faults=FaultPlan(seed, rates),
            supervision=FAST,
        )
        try:
            with server.open_stream(balanced) as stream:
                futures, start = [], 0
                for count in schedule:
                    futures.append(
                        stream.feed(waves[start:start + count])
                    )
                    start += count
                reports = [
                    future.result(TIMEOUT_S) for future in futures
                ]
            for report, expected in zip(reports, slices):
                assert report.outputs == expected
            assert stream.metrics()["replays"] >= 1
            assert server.metrics.snapshot()["session_replays"] >= 1
        finally:
            server.close(timeout=TIMEOUT_S)

    def test_sessions_and_requests_share_faults_but_not_ledgers(self):
        """A session and plain submits coexist under one fault plan."""
        plan = FaultPlan(1, self.RATES)
        balanced, _ = _netlists()
        schedule = [3, 5, 2]
        waves, slices = self._slices(balanced, schedule, seed=8)
        requests = [(0, 1 + index % 4, index) for index in range(6)]
        server = SimulationServer(
            shards=2,
            process_shards=1,
            dispatch_timeout_s=0.75,
            faults=plan,
            supervision=FAST,
            max_linger_steps=0,
        )
        try:
            stream = server.open_stream(balanced)
            feed_futures, start = [], 0
            for count in schedule:
                feed_futures.append(
                    stream.feed(waves[start:start + count])
                )
                start += count
            request_futures = [
                server.submit(_netlists()[request[0]], _vectors(*request))
                for request in requests
            ]
            stream.close(drain=True, timeout=TIMEOUT_S)
            for future, expected in zip(feed_futures, slices):
                try:
                    report = future.result(timeout=0)
                except (ShardFailed, SessionClosed):
                    continue
                assert report.outputs == expected
            for request, future in zip(requests, request_futures):
                try:
                    report = future.result(TIMEOUT_S)
                except ShardFailed:
                    continue
                assert report == _solo(*request)
            metrics = server.metrics.snapshot()
            # the request ledger counts the submits and nothing else
            assert metrics["submitted"] == len(requests)
            _assert_ledger_balances(metrics)
            assert metrics["session_feeds"] == len(schedule)
            assert metrics["session_waves"] == sum(schedule)
        finally:
            server.close(timeout=TIMEOUT_S)


class _FakeProcess:
    """Records join budgets so the close() deadline math is assertable."""

    def __init__(self, log: list) -> None:
        self._log = log
        self.pid = 12345

    def join(self, timeout=None) -> None:
        self._log.append(timeout)

    def is_alive(self) -> bool:
        return False

    def terminate(self) -> None:  # pragma: no cover - dead already
        pass

    def kill(self) -> None:  # pragma: no cover - dead already
        pass


class _FakeConn:
    def send_bytes(self, payload) -> None:
        pass

    def close(self) -> None:
        pass


class TestCloseBudget:
    """close(timeout) is one shared deadline, not per-worker."""

    def test_graceful_joins_share_one_deadline(self):
        pool = ProcessShardPool(4)
        pool.kill()  # discard the real workers; fakes take their place
        pool._closed = False
        joins: list = []
        for worker in pool._workers:
            worker.process = _FakeProcess(joins)
            worker.conn = _FakeConn()
        started = time.monotonic()
        pool.close(timeout=0.5)
        elapsed = time.monotonic() - started
        graceful = joins[: len(pool._workers)]
        assert len(graceful) == 4
        # every graceful join drew from the same 0.5s budget: the
        # budgets are non-increasing and never exceed the total
        assert all(budget <= 0.5 + 0.01 for budget in graceful)
        assert all(
            later <= earlier + 0.01
            for earlier, later in zip(graceful, graceful[1:])
        )
        assert elapsed < 5.0  # nowhere near 4 x 0.5s of real joins

    def test_real_pool_close_is_bounded(self):
        pool = ProcessShardPool(2)
        started = time.monotonic()
        pool.close(timeout=5.0)
        # idle workers stop well inside the budget; with the old
        # per-worker accounting a slow host could take N x timeout
        assert time.monotonic() - started < 5.0 + 2.0


class TestGracefulDrain:
    """SIGTERM inside graceful_drain() serves everything admitted."""

    def test_sigterm_drains_admitted_requests(self):
        request = (0, 5, 4)
        # slow linger keeps the batch forming while the signal lands,
        # so the drain really does race in-flight work
        with SimulationServer(
            shards=1, max_linger_steps=5, linger_wait_s=0.02
        ) as server:
            with graceful_drain(server):
                futures = [
                    server.submit(_netlists()[0], _vectors(*request))
                    for _ in range(4)
                ]
                # deliver SIGTERM from a helper thread, like an
                # orchestrator would from outside
                killer = threading.Thread(
                    target=os.kill,
                    args=(os.getpid(), signal.SIGTERM),
                )
                killer.start()
                killer.join(TIMEOUT_S)
                # every admitted future is *served* by the drain —
                # never cancelled, never stranded
                for future in futures:
                    assert future.result(TIMEOUT_S) == _solo(*request)
                deadline_at = time.monotonic() + TIMEOUT_S
                while not server.closed:
                    assert time.monotonic() < deadline_at
                    time.sleep(0.01)
            # the handler was restored on exit
            assert signal.getsignal(signal.SIGTERM) != signal.SIG_IGN

    def test_rejected_off_main_thread(self):
        errors: list = []

        def enter():
            try:
                with SimulationServer(shards=1) as server:
                    with graceful_drain(server):
                        pass  # pragma: no cover
            except ServeError as error:
                errors.append(error)

        thread = threading.Thread(target=enter)
        thread.start()
        thread.join(TIMEOUT_S)
        assert errors and "main thread" in str(errors[0])


class TestDeadlineAwareLinger:
    """Lingering stops before it would expire the batch it is forming."""

    def test_tight_deadline_is_served_not_expired(self):
        # linger budget (1000 x 50ms = 50s) dwarfs the 300ms deadline:
        # only the deadline-aware cutoff can dispatch in time
        request = (0, 5, 6)
        with SimulationServer(
            shards=1,
            max_linger_steps=1000,
            linger_wait_s=0.05,
        ) as server:
            future = server.submit(
                _netlists()[0], _vectors(*request), deadline_s=0.3
            )
            report = future.result(TIMEOUT_S)  # not DeadlineExceeded
            assert report == _solo(*request)
            metrics = server.metrics.snapshot()
            assert metrics["expired"] == 0
            assert metrics["completed"] == 1

    def test_deadline_free_traffic_keeps_full_linger(self):
        # without deadlines the linger path is untouched: a second
        # request arriving mid-linger still coalesces into the batch
        with SimulationServer(
            shards=1, max_linger_steps=50, linger_wait_s=0.01
        ) as server:
            first = server.submit(_netlists()[0], _vectors(0, 4, 0))
            time.sleep(0.05)  # lands inside the linger window
            second = server.submit(_netlists()[0], _vectors(0, 4, 1))
            assert first.result(TIMEOUT_S) == _solo(0, 4, 0)
            assert second.result(TIMEOUT_S) == _solo(0, 4, 1)
            assert server.metrics.snapshot()["batches"] <= 2

    def test_queue_group_deadline_is_public(self):
        from concurrent.futures import Future

        from repro.core.wavepipe import ClockingScheme

        netlist = _netlists()[0]
        queue = RequestQueue(max_pending=8)
        key = _group_key(netlist)
        assert queue.group_deadline(key) is None
        for deadline_at in (50.0, 20.0, None):
            queue.push(
                SimulationRequest(
                    netlist=netlist,
                    vectors=_vectors(0, 2, 0),
                    clocking=ClockingScheme(3),
                    pipelined=True,
                    future=Future(),
                    key=key,
                    deadline_at=deadline_at,
                )
            )
        assert queue.group_deadline(key) == 20.0

    def test_batch_earliest_deadline(self):
        from concurrent.futures import Future

        from repro.core.wavepipe import ClockingScheme

        netlist = _netlists()[0]
        key = _group_key(netlist)

        def request(deadline_at):
            return SimulationRequest(
                netlist=netlist,
                vectors=_vectors(0, 2, 0),
                clocking=ClockingScheme(3),
                pipelined=True,
                future=Future(),
                key=key,
                deadline_at=deadline_at,
            )

        batch = Batch(key=key, requests=[request(None), request(7.0)])
        assert batch.earliest_deadline == 7.0
        batch = Batch(key=key, requests=[request(None)])
        assert batch.earliest_deadline is None


class TestHealthSnapshot:
    """health() composes server state, metrics, and pool supervision."""

    def test_thread_mode_health(self):
        with SimulationServer(shards=1) as server:
            health = server.health()
            assert health["mode"] == "thread"
            assert health["workers"] == []
            assert not health["closed"]
            assert health["metrics"]["submitted"] == 0

    def test_process_mode_health_reports_slots(self):
        with SimulationServer(shards=1, process_shards=2) as server:
            request = (0, 4, 0)
            report = server.simulate(
                _netlists()[0], _vectors(*request), timeout=TIMEOUT_S
            )
            assert report == _solo(*request)
            health = server.health()
            assert health["mode"] == "process"
            assert len(health["workers"]) == 2
            for entry in health["workers"]:
                assert entry["alive"]
                assert entry["state"] == "healthy"
                assert entry["restarts"] == 0
            assert health["hung_reaped"] == 0
            assert health["quarantined_batches"] == 0
