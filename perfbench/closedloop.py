"""Closed-loop load: callers that each keep a window of operations in flight.

This generator belongs to the benchmark rather than to
``repro.serve.loadgen``, so a change to the program cannot change how the
program is measured.  Each load thread drives one or more callers (a
streaming thread drives one caller per session).  A caller submits
until its window is full; each time its thread wakes to completed
operations, every caller refills all its free slots with one
submission.  An operation's latency runs from just before that
submission to the moment its future resolves; the done-callback stamps
that moment in whichever thread resolves the future, and the load thread
checks the result afterwards, so checking never delays a stamp.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .tracing import Tracer

#: A caller gives up on its in-flight operations (counting each as
#: timed out) when none completes for this long.
OP_TIMEOUT_S = 30.0

#: Oracle mismatch messages kept per run (the count is always exact).
MAX_MESSAGES = 5


@dataclass
class Caller:
    """One caller's traffic.

    ``submit(ops)`` issues the caller's operations with those numbers, in
    one go, and returns one future per operation (a refused operation's
    future holds the refusal); ``check(op, result)`` returns why a result
    is wrong, or ``None``.  With ``epoch`` set, the caller stops after
    every ``epoch`` operations, waits for all of them, and calls
    ``on_epoch()`` before going on (a streaming session ends and the next
    one opens).
    """

    submit: Callable[[list[int]], "list[Future[object]]"]
    check: Callable[[int, Any], Optional[str]]
    waves: int
    submit_span: str
    request_span: str
    #: the circuit operation ``op`` runs on, for per-circuit throughput
    circuit: Callable[[int], str]
    epoch: int = 0
    on_epoch: Optional[Callable[[], None]] = None


@dataclass
class LoopResult:
    """What a closed-loop window did, summed over its callers."""

    start: float = 0.0
    deadline: float = 0.0
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    #: seconds spent inside the callers' submit calls
    submit_s: float = 0.0
    #: CPU seconds the load threads spent checking results
    check_s: float = 0.0
    #: epochs ended, and seconds from each epoch's last submission until
    #: ``on_epoch`` returned (the drain plus the hand-over)
    epochs: int = 0
    epoch_s: float = 0.0
    #: per completed operation: resolution time, latency, waves, circuit
    resolved_at: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    waves: list[int] = field(default_factory=list)
    circuits: list[str] = field(default_factory=list)
    wrong: int = 0
    messages: list[str] = field(default_factory=list)
    error: Optional[BaseException] = None

    def merge(self, other: "LoopResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.completed += other.completed
        self.submit_s += other.submit_s
        self.check_s += other.check_s
        self.epoch_s += other.epoch_s
        self.epochs += other.epochs
        self.resolved_at += other.resolved_at
        self.latencies_s += other.latencies_s
        self.waves += other.waves
        self.circuits += other.circuits
        self.wrong += other.wrong
        self.messages = (self.messages + other.messages)[:MAX_MESSAGES]

    def in_window(self) -> tuple[dict[str, int], list[float]]:
        """Waves per circuit and latencies of the operations that resolved
        before the deadline; those that resolved while the window drained
        are left out."""
        waves: dict[str, int] = {}
        latencies = []
        for resolved, latency, n, circuit in zip(
            self.resolved_at, self.latencies_s, self.waves, self.circuits
        ):
            if resolved <= self.deadline:
                waves[circuit] = waves.get(circuit, 0) + n
                latencies.append(latency)
        return waves, latencies


@dataclass
class _State:
    """One caller's position within a load thread."""

    caller: Caller
    in_flight: int = 0
    op: int = 0
    in_epoch: int = 0
    epoch_full: float = 0.0  # when the epoch's last operation was submitted


def _drive(
    callers: list[Caller],
    window: int,
    start: threading.Barrier,
    clock: LoopResult,
    tracer: Optional[Tracer],
    out: LoopResult,
) -> None:
    #: (caller state, op, submitted, request id, future, resolved)
    done: "queue.SimpleQueue[tuple[_State, int, float, int, Future, float]]"
    done = queue.SimpleQueue()
    states = [_State(caller) for caller in callers]
    start.wait()
    deadline = clock.deadline

    while True:
        now = time.perf_counter()
        handed_over = False
        for st in states:
            caller = st.caller
            room = window - st.in_flight
            if caller.epoch:
                room = min(room, caller.epoch - st.in_epoch)
            if room > 0 and now < deadline:
                # refill every free slot with one submission
                ops = list(range(st.op, st.op + room))
                st.op += room
                st.in_epoch += room
                began = time.perf_counter()
                futures = caller.submit(ops)
                ended = time.perf_counter()
                out.attempted += room
                out.submit_s += ended - began
                if st.in_epoch == caller.epoch:
                    st.epoch_full = ended
                if tracer is not None:
                    tracer.record(caller.submit_span, began, ended)
                for index, future in zip(ops, futures):
                    rid = tracer.new_id() if tracer is not None else 0
                    future.add_done_callback(
                        lambda f, st=st, index=index, rid=rid, began=began: (
                            done.put(
                                (st, index, began, rid, f, time.perf_counter())
                            )
                        )
                    )
                st.in_flight += room
            elif (
                caller.epoch
                and st.in_epoch == caller.epoch
                and st.in_flight == 0
                and now < deadline
            ):
                assert caller.on_epoch is not None
                caller.on_epoch()
                out.epoch_s += time.perf_counter() - st.epoch_full
                out.epochs += 1
                st.in_epoch = 0
                handed_over = True
        in_flight = sum(st.in_flight for st in states)
        if in_flight == 0:
            if handed_over:
                continue
            break
        try:
            results = [done.get(timeout=OP_TIMEOUT_S)]
        except queue.Empty:
            out.failed += in_flight
            out.messages = (
                out.messages
                + [f"{in_flight} operations unresolved after {OP_TIMEOUT_S}s"]
            )[:MAX_MESSAGES]
            return
        while not done.empty():
            results.append(done.get())
        for st, index, began, rid, future, resolved in results:
            caller = st.caller
            st.in_flight -= 1
            if tracer is not None:
                tracer.record(
                    caller.request_span, began, resolved, sid=rid, rid=rid
                )
            if future.exception() is not None:
                out.failed += 1
                continue
            out.completed += 1
            out.resolved_at.append(resolved)
            out.latencies_s.append(resolved - began)
            out.waves.append(caller.waves)
            out.circuits.append(caller.circuit(index))
            checking = time.thread_time()
            problem = caller.check(index, future.result())
            out.check_s += time.thread_time() - checking
            if problem is not None:
                out.wrong += 1
                if len(out.messages) < MAX_MESSAGES:
                    out.messages.append(problem)


def run_closed_loop(
    threads: list[list[Caller]],
    window: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> LoopResult:
    """Run each list of callers on its own thread for *seconds*, then
    drain.  Every caller keeps up to *window* operations in flight.

    Submissions stop at the deadline; the operations still in flight
    then resolve and are checked, but count toward no figure.
    """
    total = LoopResult()

    def open_window() -> None:  # runs once, when every caller is ready
        total.start = time.perf_counter()
        total.deadline = total.start + seconds

    start = threading.Barrier(len(threads), action=open_window)
    parts = [LoopResult() for _ in threads]

    def guarded(callers: list[Caller], part: LoopResult) -> None:
        try:
            _drive(callers, window, start, total, tracer, part)
        except BaseException as error:  # re-raised after the join below
            part.error = error

    workers = [
        threading.Thread(
            target=guarded,
            args=(callers, part),
            name=f"perfbench-load-{index}",
        )
        for index, (callers, part) in enumerate(zip(threads, parts))
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    for part in parts:
        if part.error is not None:
            raise part.error
        total.merge(part)
    return total
