"""Serving-layer concurrency stress: 8 threads x 200 requests, 2 shards.

ISSUE-4 satellite contract:

* no deadlock — every future resolves under a hard timeout guard and
  ``close(timeout=...)`` proves the shards exit;
* no dropped or duplicated responses — every one of the 1600 requests
  gets exactly its own report (payloads are request-unique, so a swap or
  a duplicate cannot go unnoticed);
* queue-full backpressure raises the documented
  :class:`~repro.errors.ServerQueueFull` (and only rejected submissions
  count as rejected);
* the compiled-plan cache is *hit*, not rebuilt per request — asserted
  through the server metrics and the process-wide kernel compile
  counters.
"""

import threading
from functools import lru_cache

import pytest

from repro.core.wavepipe import (
    WaveNetlist,
    compile_cache_stats,
    random_vectors,
    simulate_waves,
    wave_pipeline,
)
from repro.errors import ServerQueueFull
from repro.serve import SimulationServer

from helpers import build_adder_mig, build_random_mig

N_THREADS = 8
REQUESTS_PER_THREAD = 200
#: Hard per-future timeout: the deadlock guard.  Generous because CI
#: shares one core between 8 submitters and 2 shards.
RESULT_TIMEOUT_S = 120.0


@lru_cache(maxsize=None)
def _netlists():
    balanced = wave_pipeline(build_adder_mig(3), fanout_limit=3).netlist
    unbalanced = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
    return balanced, unbalanced


def _request(thread_id: int, index: int):
    """(netlist, vectors) of one stress request — payload-unique."""
    serial = thread_id * REQUESTS_PER_THREAD + index
    netlist = _netlists()[serial % 2]
    n_waves = 4 + serial % 5
    return netlist, random_vectors(
        netlist.n_inputs, n_waves, seed=serial
    ), serial


@lru_cache(maxsize=None)
def _expected(serial: int):
    """Solo packed run of the request with this serial number."""
    netlist = _netlists()[serial % 2]
    n_waves = 4 + serial % 5
    vectors = random_vectors(netlist.n_inputs, n_waves, seed=serial)
    return simulate_waves(netlist, vectors, engine="packed")


class TestStress:
    def test_8x200_against_two_shards(self):
        compile_misses_before = compile_cache_stats()["misses"]
        # build the two netlists before the submitters start: lru_cache
        # runs a first call once per thread that races into it, and two
        # copies of one netlist would be two plan-cache misses
        _netlists()
        total = N_THREADS * REQUESTS_PER_THREAD
        results: dict[int, object] = {}
        results_lock = threading.Lock()
        failures: list[BaseException] = []

        server = SimulationServer(
            shards=2, max_pending=2 * total, max_linger_steps=1
        )

        def submitter(thread_id: int) -> None:
            try:
                futures = []
                for index in range(REQUESTS_PER_THREAD):
                    netlist, vectors, serial = _request(thread_id, index)
                    futures.append(
                        (serial, server.submit(netlist, vectors))
                    )
                for serial, future in futures:
                    report = future.result(timeout=RESULT_TIMEOUT_S)
                    with results_lock:
                        # a duplicated response for one serial would
                        # overwrite here and break the count below only
                        # if another serial were dropped — both cases
                        # are caught by the exact-count + per-serial
                        # equality assertions
                        assert serial not in results
                        results[serial] = report
            except BaseException as error:
                failures.append(error)

        threads = [
            threading.Thread(target=submitter, args=(thread_id,))
            for thread_id in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(RESULT_TIMEOUT_S)
        alive = [thread for thread in threads if thread.is_alive()]
        assert not alive, f"deadlock: {len(alive)} submitters stuck"
        assert not failures, failures[:3]

        # exactly one response per request, each bit-identical to the
        # solo packed run of that request's own payload
        assert len(results) == total
        for serial, report in results.items():
            assert report == _expected(serial), f"serial {serial}"

        metrics = server.metrics.snapshot()
        assert metrics["submitted"] == total
        assert metrics["completed"] == total
        assert metrics["failed"] == 0
        assert metrics["cancelled"] == 0
        assert metrics["rejected_queue_full"] == 0
        assert metrics["batched_requests"] == total
        assert 1 <= metrics["batches"] <= total
        # the compiled-plan cache was reused, not rebuilt per request:
        # one miss per distinct netlist, everything else hits
        assert metrics["plan_cache_misses"] == 2
        assert metrics["plan_cache_hits"] == total - 2
        # and the kernel-compile layer really compiled nothing new
        # after warm-up (both netlists were compiled by _expected or
        # the first submissions): far fewer misses than requests
        compile_misses = (
            compile_cache_stats()["misses"] - compile_misses_before
        )
        assert compile_misses <= 2

        server.close(timeout=RESULT_TIMEOUT_S)  # raises if a shard hangs

    def test_shards_progress_with_multi_netlist_traffic(self):
        # both groups drain even when one netlist's queue is long and
        # the other's trickles (round-robin across groups)
        balanced, unbalanced = _netlists()
        with SimulationServer(shards=2, max_linger_steps=0) as server:
            heavy = [
                server.submit(
                    balanced, random_vectors(balanced.n_inputs, 6, seed=s)
                )
                for s in range(100)
            ]
            light = [
                server.submit(
                    unbalanced,
                    random_vectors(unbalanced.n_inputs, 3, seed=s),
                )
                for s in range(5)
            ]
            for future in light + heavy:
                future.result(timeout=RESULT_TIMEOUT_S)
        snapshot = server.metrics.snapshot()
        assert snapshot["completed"] == 105
        assert snapshot["plan_cache_misses"] == 2


class TestBackpressure:
    def test_queue_full_raises_documented_error(self):
        balanced, _ = _netlists()
        vectors = random_vectors(balanced.n_inputs, 3, seed=0)
        # start=False pins the scenario deterministically: nothing
        # drains, so exactly max_pending submissions are admitted
        server = SimulationServer(shards=1, max_pending=4, start=False)
        admitted = [server.submit(balanced, vectors) for _ in range(4)]
        with pytest.raises(ServerQueueFull, match="queue is full"):
            server.submit(balanced, vectors)
        metrics = server.metrics.snapshot()
        assert metrics["rejected_queue_full"] == 1
        assert metrics["submitted"] == 4
        # draining the queue readmits: start the shards, all four
        # admitted requests complete, and new submissions are accepted
        server.start()
        expected = simulate_waves(balanced, vectors, engine="packed")
        for future in admitted:
            assert future.result(timeout=RESULT_TIMEOUT_S) == expected
        retry = server.submit(balanced, vectors)
        assert retry.result(timeout=RESULT_TIMEOUT_S) == expected
        server.close(timeout=RESULT_TIMEOUT_S)

    def test_burst_admission_is_all_or_nothing(self):
        balanced, _ = _netlists()
        vectors = random_vectors(balanced.n_inputs, 3, seed=0)
        server = SimulationServer(shards=1, max_pending=4, start=False)
        server.submit(balanced, vectors)
        with pytest.raises(ServerQueueFull):
            server.submit_many(balanced, [vectors] * 4)  # 1 + 4 > 4
        assert server.pending == 1  # nothing from the burst landed
        server.close(cancel_pending=True, timeout=RESULT_TIMEOUT_S)

    def test_burst_larger_than_capacity_is_misuse_not_backpressure(self):
        # a burst that could never fit must not raise the retryable
        # queue-full error (a drain-and-retry loop would spin forever)
        from repro.errors import ServeError

        balanced, _ = _netlists()
        vectors = random_vectors(balanced.n_inputs, 3, seed=0)
        server = SimulationServer(shards=1, max_pending=4, start=False)
        with pytest.raises(ServeError, match="split the burst"):
            server.submit_many(balanced, [vectors] * 5)
        assert server.pending == 0
        server.close(timeout=RESULT_TIMEOUT_S)

    def test_rejected_submissions_do_not_skew_plan_cache_metrics(self):
        balanced, unbalanced = _netlists()
        vectors = random_vectors(balanced.n_inputs, 3, seed=0)
        server = SimulationServer(shards=1, max_pending=2, start=False)
        server.submit(balanced, vectors)
        server.submit(balanced, vectors)
        with pytest.raises(ServerQueueFull):
            # a *new* netlist bouncing off the full queue must count
            # neither a hit nor a miss (and must not be pinned)
            server.submit(
                unbalanced, random_vectors(unbalanced.n_inputs, 3, seed=0)
            )
        metrics = server.metrics.snapshot()
        assert metrics["plan_cache_misses"] == 1  # balanced only
        assert metrics["plan_cache_hits"] == 1
        assert metrics["rejected_queue_full"] == 1
        server.close(cancel_pending=True, timeout=RESULT_TIMEOUT_S)
