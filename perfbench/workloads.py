"""The four workloads: set-up, a measured window, and its traced twin.

Every workload is set up ``SETUP_REPEATS`` times from the same seed (the
median set-up time is reported), then measured with tracing off; a
traced run measures a second window with spans and the GC hook on.  The
workloads only call public ``repro`` functions and read public counters.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Optional

import numpy as np

from repro.core.mig import Mig
from repro.core.wavepipe import (
    BufferInsertionResult,
    FanoutRestrictionResult,
    WaveNetlist,
    WaveSimulationReport,
    check_balanced,
    check_equivalent_to_mig,
    check_fanout,
    compile_cache_stats,
    compile_netlist,
    insert_buffers,
    open_packed_session,
    plan_stream_batch,
    restrict_fanout,
    simulate_streams_packed,
    simulate_waves_packed,
    wave_pipeline,
)
from repro.errors import ReproError
from repro.experiments.table2 import PAPER_RATIOS
from repro.serve import (
    ServerSession,
    SimulationClient,
    SimulationServer,
    SocketServer,
)
from repro.suite import get_benchmark
from repro.tech import TECHNOLOGIES, evaluate_pair

from .closedloop import Caller, run_closed_loop
from .oracle import Reference, check_report, check_structure
from .stats import percentile, samples_beyond
from .tracing import GcMonitor, Layer, Tracer

#: The paper's headline FO3+BUF configuration.
FANOUT_LIMIT = 3

#: The ROADMAP quick set: small, wide, deep and large circuits.
FLOW_CIRCUITS = ("ctrl", "i2c", "sqrt32", "mul32")

#: Circuits behind the serving workloads: 25 and 142 outputs per wave.
SERVED = ("ctrl", "i2c")

#: Waves each cold flow job simulates.
FLOW_WAVES = 256

#: Request and feed sizes, and how many each caller (a request stream or
#: a session) keeps in flight.  With 16 or 32 requests in flight per
#: thread, serve's p99 swung with the host's stalls (in one process, over
#: interleaved windows, its coefficient of variation was 0.21 and 0.095
#: against throughput's 0.09); with 64, queueing sets the tail and p99
#: moves with throughput (0.08 and 0.08).
REQUEST_WAVES = 32
REQUEST_WINDOW = 64
FEED_WAVES = 64
FEED_WINDOW = 8

#: Feeds per streaming session before it is closed and the next opened.
#: A session keeps every fed wave's outputs until it closes, about 20 KiB
#: per feed on ctrl and 60-70 KiB on i2c, all of it tracked by the
#: garbage collector: longer sessions cost memory and GC pauses, shorter
#: ones drain more often.  README.md gives the measured trade.
SESSION_FEEDS = 256

#: Seeded input blocks per served circuit (8192 waves each).
REQUEST_BLOCKS = 256
FEED_BLOCKS = 128

#: Load comes from two load threads on two shards: the host has two
#: cores.
LOAD_THREADS = 2
SHARDS = 2

#: Set-ups per run; the median is reported.
SETUP_REPEATS = 5

#: Requests or feeds per circuit and load thread that warm the server.
WARMUP_OPS = 4

#: Batches and feeds re-run outside the server for the batch.* layers.
RERUN_BATCHES = 40
RERUN_FEEDS = 64

#: Bound on waiting for one warm-up or re-run result.
RESULT_TIMEOUT_S = 60.0

#: The spans of one flow job, named as the layers in BENCHMARK.json.
FLOW_LAYERS = (
    "wavepipe.from_mig",
    "wavepipe.restrict_fanout",
    "wavepipe.insert_buffers",
    "wavepipe.check_balanced",
    "wavepipe.check_fanout",
    "core.equivalence",
    "kernels.compile",
    "batch.simulate",
    "tech.evaluate",
)


def _span(
    tracer: Optional[Tracer], name: str, parent: int = 0
) -> ContextManager[int]:
    return nullcontext(0) if tracer is None else tracer.span(name, parent)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``VmHWM``), in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def children_peak_rss_mb() -> float:
    """Peak resident memory of the largest child process that has ended
    and been waited for, in MiB (0 when there was none)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def cpu_s() -> float:
    """CPU seconds this process has used, all threads."""
    times = os.times()
    return times.user + times.system


def build_migs(names: tuple[str, ...]) -> dict[str, Mig]:
    """Generate the suite circuits afresh (no memoized copies)."""
    return {name: get_benchmark(name).build() for name in names}


@dataclass
class Pipelined:
    """An FO3+BUF result, however it was produced."""

    original: WaveNetlist
    netlist: WaveNetlist
    fanout: FanoutRestrictionResult
    buffers: BufferInsertionResult

    def counts(self) -> tuple[int, int, int, int]:
        """(components, depth, buffers, FOGs): outside any timed span,
        since the depth walks the whole netlist."""
        return (
            self.netlist.size,
            self.netlist.depth(),
            self.fanout.buffers_added + self.buffers.buffers_added,
            self.fanout.fogs_added,
        )


def pipeline(mig: Mig, tracer: Optional[Tracer], parent: int) -> Pipelined:
    """The verified FO3+BUF flow on *mig*.

    Untraced, this is one ``wave_pipeline`` call.  Traced, the same
    steps run one by one, each inside its own span.
    """
    if tracer is None:
        result = wave_pipeline(mig, fanout_limit=FANOUT_LIMIT, verify=True)
        original, netlist = result.original, result.netlist
        fanout, buffers = result.fanout_result, result.buffer_result
        assert fanout is not None and buffers is not None
    else:
        with tracer.span("wavepipe.from_mig", parent):
            original = WaveNetlist.from_mig(mig)
        with tracer.span("wavepipe.restrict_fanout", parent):
            fanout = restrict_fanout(original, FANOUT_LIMIT)
        with tracer.span("wavepipe.insert_buffers", parent):
            buffers = insert_buffers(fanout.netlist, fanout_limit=FANOUT_LIMIT)
        netlist = buffers.netlist
        with tracer.span("wavepipe.check_balanced", parent):
            unbalanced = check_balanced(netlist)
        with tracer.span("wavepipe.check_fanout", parent):
            overloaded = check_fanout(netlist, FANOUT_LIMIT)
        with tracer.span("core.equivalence", parent):
            equivalent = check_equivalent_to_mig(netlist, mig)
        if unbalanced or overloaded or not equivalent:
            raise RuntimeError(
                f"FO3+BUF flow of {mig.name} failed verification: "
                f"{len(unbalanced)} balance and {len(overloaded)} fan-out "
                f"violations, equivalent={equivalent}"
            )
    return Pipelined(original, netlist, fanout, buffers)


@dataclass
class Window:
    """One measured window: end-to-end figures and counter deltas."""

    attempted: int
    failed: int
    waves_per_s: float
    latency_p50_ms: float
    latency_p99_ms: float
    samples: str  # what the figures were taken over
    peak_rss_mb: float  # read as the window closed
    flow_s: float = 0.0  # mean cold pass (flow only)
    #: mean of the untraced passes run between traced ones (traced flow)
    paired_flow_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    #: what else the window shows (printed, not metrics)
    notes: list[str] = field(default_factory=list)


class Workload:
    """Set up, measure, tear down; plus the traced per-layer figures."""

    name = ""
    circuits: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.counts: dict[str, tuple[int, int, int, int]] = {}
        #: work units the flow layers are divided by (passes or set-ups)
        self.layer_units = 0

    def setup(self, seed: int, tracer: Optional[Tracer]) -> None:
        """Build the inputs and start the program."""
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started (idempotent)."""

    def rerun(self, tracer: Tracer, window: Window) -> None:
        """Time single layers outside the program (traced runs only)."""

    def summary(self, window: Window) -> list[str]:
        """Workload-specific lines for the printed report."""
        return []

    def layers(
        self, window: Window, spans: dict[str, Layer], gc_monitor: GcMonitor
    ) -> dict[str, float]:
        """Per-layer figures of a traced window (see BENCHMARK.json)."""
        units = self.layer_units
        out: dict[str, float] = {}
        for name in FLOW_LAYERS:
            if name in spans:
                out[f"{name}_s"] = spans[name].self_s / units
        for name in self.circuits:
            if f"flow.{name}" in spans:
                out[f"flow.{name}_s"] = spans[f"flow.{name}"].total_s / units
        totals = [sum(column) for column in zip(*self.counts.values())]
        keys = ("components", "depth", "buffers", "fogs")
        for key, total in zip(keys, totals):
            out[f"wavepipe.{key}"] = total
        out["runtime.gc_s"] = gc_monitor.pause_s
        out["runtime.gc_gen2"] = gc_monitor.collections[2]
        out["kernels.compile_misses"] = window.counters.get(
            "compile_misses", 0
        )
        return out


def _mean_us(spans: dict[str, Layer], name: str) -> float:
    layer = spans.get(name)
    return layer.total_s / layer.count * 1e6 if layer else 0.0


# ----------------------------------------------------------------------
# flow
# ----------------------------------------------------------------------
class FlowWorkload(Workload):
    """Cold FO3+BUF jobs on the quick set, one pass after another."""

    name = "flow"
    circuits = FLOW_CIRCUITS

    def setup(self, seed: int, tracer: Optional[Tracer]) -> None:
        rng = np.random.default_rng(seed)
        self.migs = build_migs(self.circuits)
        self.refs = {
            name: Reference(mig, 1, FLOW_WAVES, rng)
            for name, mig in self.migs.items()
        }
        self.gains: dict[str, dict[str, tuple[float, float]]] = {}

    def job(self, name: str, tracer: Optional[Tracer]) -> float:
        """One cold job; returns its seconds (checks run after timing)."""
        mig, ref = self.migs[name], self.refs[name]
        began = time.perf_counter()
        with _span(tracer, f"flow.{name}") as job:
            piped = pipeline(mig, tracer, job)
            netlist = piped.netlist
            with _span(tracer, "kernels.compile", job):
                compile_netlist(netlist)
            with _span(tracer, "batch.simulate", job):
                report = simulate_waves_packed(netlist, ref.inputs[0])
            with _span(tracer, "tech.evaluate", job):
                pairs = [
                    (tech.name, evaluate_pair(piped.original, netlist, tech))
                    for tech in TECHNOLOGIES
                ]
        took = time.perf_counter() - began
        gains = {tech: (g.t_over_a, g.t_over_p) for tech, (_, _, g) in pairs}
        self.gains[name] = gains
        self.counts[name] = counts = piped.counts()
        self.problems += check_structure(name, counts, gains)
        problem = check_report(report, ref.expected[0], counts[1])
        if problem is not None:
            self.problems.append(f"{name}: {problem}")
        return took

    def one_pass(self, tracer: Optional[Tracer]) -> float:
        gc.collect()  # every pass starts from a collected heap
        return sum(self.job(name, tracer) for name in self.circuits)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        misses = compile_cache_stats()["misses"]
        passes: list[float] = []
        # traced: an untraced pass before each traced one, so the two
        # are compared at the same host speed
        paired: list[float] = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            if tracer is not None:
                paired.append(self.one_pass(None))
            passes.append(self.one_pass(tracer))
        self.layer_units = len(passes)
        # the host's speed drifts by tens of percent within a run: the
        # median of a few passes jumps between the speeds, the mean moves
        # in proportion to the time spent slow
        flow_s = statistics.mean(passes)
        return Window(
            attempted=(len(passes) + len(paired)) * len(self.circuits),
            failed=0,
            waves_per_s=FLOW_WAVES * len(self.circuits) / flow_s,
            latency_p50_ms=statistics.median(passes) * 1e3,
            latency_p99_ms=percentile(passes, 99) * 1e3,
            samples=f"{len(passes)} passes",
            peak_rss_mb=peak_rss_mb(),
            flow_s=flow_s,
            paired_flow_s=statistics.mean(paired) if paired else 0.0,
            counters={
                "compile_misses": compile_cache_stats()["misses"] - misses
            },
            notes=["passes (s): " + " ".join(f"{s:.3f}" for s in passes)],
        )

    def summary(self, window: Window) -> list[str]:
        lines = [
            f"flow_s: {window.flow_s:.6g} s per cold pass (mean)",
            "mul32 FO3+BUF gains (T/A, T/P): measured vs paper Table II",
        ]
        for tech, (t_a, t_p) in self.gains["mul32"].items():
            paper_a, paper_p = PAPER_RATIOS[(tech, "mul32")]
            lines.append(
                f"  {tech}: {t_a:.2f}, {t_p:.2f}  vs  "
                f"{paper_a:.2f}, {paper_p:.2f}"
            )
        return lines


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
@dataclass
class Served:
    """One served circuit: its FO3+BUF netlist and seeded blocks."""

    name: str
    netlist: WaveNetlist
    depth: int
    ref: Reference


#: ``submit_many`` of a server or a client
SubmitMany = Callable[[WaveNetlist, list[np.ndarray]], list[Future]]


def refused(error: BaseException, count: int) -> list[Future]:
    """Futures for *count* operations that were refused at admission."""
    futures: list[Future] = []
    for _ in range(count):
        future: Future = Future()
        future.set_exception(error)
        futures.append(future)
    return futures


class ServingWorkload(Workload):
    """Set-up and closed loop shared by the three serving workloads."""

    circuits = SERVED
    waves = REQUEST_WAVES
    n_blocks = REQUEST_BLOCKS
    window = REQUEST_WINDOW
    #: span of one submission, and the per-layer metric of its mean
    #: time per operation
    submit_span = ""
    submit_metric = ""

    def setup(self, seed: int, tracer: Optional[Tracer]) -> None:
        rng = np.random.default_rng(seed)
        migs = build_migs(self.circuits)
        self.served: list[Served] = []
        for name in self.circuits:
            with _span(tracer, f"flow.{name}") as job:
                piped = pipeline(migs[name], tracer, job)
                with _span(tracer, "kernels.compile", job):
                    compile_netlist(piped.netlist)
            self.counts[name] = counts = piped.counts()
            self.problems += check_structure(name, counts, {})
            ref = Reference(migs[name], self.n_blocks, self.waves, rng)
            self.served.append(Served(name, piped.netlist, counts[1], ref))
        # each load thread walks the blocks in its own seeded order
        self.orders = [
            rng.permutation(self.n_blocks) for _ in range(LOAD_THREADS)
        ]
        if tracer is not None:
            self.layer_units += 1
        self.start()

    def start(self) -> None:
        """Start the program and warm it with a few checked operations."""
        raise NotImplementedError

    def callers(self) -> list[list[Caller]]:
        """The callers of each load thread."""
        raise NotImplementedError

    def check(
        self,
        circuit: Served,
        block: int,
        report: WaveSimulationReport,
        first_wave: int = 0,
    ) -> Optional[str]:
        problem = check_report(
            report,
            circuit.ref.expected[block],
            circuit.depth,
            first_wave,
        )
        return None if problem is None else f"{circuit.name}: {problem}"

    def request_caller(self, index: int, submit_many: SubmitMany) -> Caller:
        """Caller *index*: requests alternating between the circuits.

        A refill admits each circuit's share as one ``submit_many``
        burst, the way a client with several free slots would.
        """
        order = self.orders[index]
        n_circuits = len(self.served)

        def pick(op: int) -> tuple[Served, int]:
            circuit = self.served[(op + index) % n_circuits]
            return circuit, int(order[(op // n_circuits) % len(order)])

        def issue(ops: list[int]) -> list[Future]:
            futures: dict[int, Future] = {}
            for offset, circuit in enumerate(self.served):
                mine = [
                    op for op in ops if (op + index) % n_circuits == offset
                ]
                if not mine:
                    continue
                blocks = [circuit.ref.inputs[pick(op)[1]] for op in mine]
                try:
                    admitted = submit_many(circuit.netlist, blocks)
                except ReproError as error:  # refused at admission
                    admitted = refused(error, len(mine))
                futures.update(zip(mine, admitted))
            return [futures[op] for op in ops]

        def check(op: int, report: WaveSimulationReport) -> Optional[str]:
            return self.check(*pick(op), report)

        return Caller(
            issue, check, self.waves, self.submit_span, "serve.request",
            lambda op: pick(op)[0].name,
        )

    def warm(self, submitters: list[SubmitMany]) -> None:
        """Resolve a few requests of each circuit through each submitter."""
        blocks = range(WARMUP_OPS)
        pending = [
            (circuit, futures)
            for submit_many in submitters
            for circuit in self.served
            for futures in [
                submit_many(
                    circuit.netlist, [circuit.ref.inputs[b] for b in blocks]
                )
            ]
        ]
        for circuit, futures in pending:
            for block, future in zip(blocks, futures):
                report = future.result(RESULT_TIMEOUT_S)
                problem = self.check(circuit, block, report)
                if problem is not None:
                    self.problems.append(f"warm-up {problem}")

    def counters(self) -> dict[str, float]:
        counters: dict[str, float] = dict(self.server.metrics.snapshot())
        counters["compile_misses"] = compile_cache_stats()["misses"]
        return counters

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        callers = self.callers()
        gc.collect()  # leave no set-up garbage for the window to collect
        before = self.counters()
        cpu_before = cpu_s()
        loop = run_closed_loop(callers, self.window, seconds, tracer)
        cpu = cpu_s() - cpu_before
        after = self.counters()
        counters = {key: after[key] - before[key] for key in after}
        counters["completed"] = loop.completed
        counters["completed_waves"] = sum(loop.waves)
        counters["submit_us"] = loop.submit_s / max(loop.attempted, 1) * 1e6
        if loop.wrong:
            self.problems += [f"{loop.wrong} wrong results"] + loop.messages
        waves, latencies = loop.in_window()
        notes = [
            "waves/s per circuit: " + ", ".join(
                f"{name} {count / seconds:.6g}"
                for name, count in sorted(waves.items())
            ),
            f"oracle checks used {loop.check_s:.3g} CPU s, "
            f"{loop.check_s / cpu:.1%} of the process's {cpu:.3g} CPU s "
            f"while the window was open",
        ]
        if counters["batches"]:
            notes.append(
                f"{counters['batches']:.0f} batches of "
                f"{counters['batched_requests'] / counters['batches']:.3g} "
                f"requests on average"
            )
        if loop.epochs:
            n_callers = sum(map(len, callers))
            notes.append(
                f"{loop.epochs} session hand-overs: a session spent on "
                f"average {loop.epoch_s / n_callers / seconds:.1%} of the "
                f"window between its last feed and the next session's first"
            )
        return Window(
            attempted=loop.attempted,
            failed=loop.failed,
            waves_per_s=sum(waves.values()) / seconds,
            latency_p50_ms=percentile(latencies, 50) * 1e3,
            latency_p99_ms=percentile(latencies, 99) * 1e3,
            samples=(
                f"{len(latencies)} operations resolved in the window, "
                f"{samples_beyond(len(latencies), 99)} beyond p99"
            ),
            peak_rss_mb=peak_rss_mb(),
            counters=counters,
            notes=notes,
        )

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.close(timeout=RESULT_TIMEOUT_S)

    def rerun(self, tracer: Tracer, window: Window) -> None:
        """Plan and simulate batches of the observed mean size directly.

        The same blocks go through ``plan_stream_batch`` and
        ``simulate_streams_packed`` outside the server; what a served
        batch costs beyond these two spans is serving overhead.
        """
        c = window.counters
        size = max(1, round(c["batched_requests"] / max(c["batches"], 1)))
        order = self.orders[0]
        for index in range(RERUN_BATCHES):
            circuit = self.served[index % len(self.served)]
            blocks = [
                int(order[(index * size + k) % self.n_blocks])
                for k in range(size)
            ]
            streams = [circuit.ref.inputs[block] for block in blocks]
            with tracer.span("batch.plan"):
                plan_stream_batch(circuit.netlist, [self.waves] * size)
            with tracer.span("batch.simulate_streams"):
                reports = simulate_streams_packed(circuit.netlist, streams)
            for block, report in zip(blocks, reports):
                problem = self.check(circuit, block, report)
                if problem is not None:
                    self.problems.append(f"re-run {problem}")

    def layers(
        self, window: Window, spans: dict[str, Layer], gc_monitor: GcMonitor
    ) -> dict[str, float]:
        out = super().layers(window, spans, gc_monitor)
        c = window.counters
        out["serve.worker_restarts"] = c["worker_restarts"]
        out["serve.session_replays"] = c["session_replays"]
        if c["batches"]:
            out["serve.batches"] = c["batches"]
            out["serve.mean_batch_requests"] = (
                c["batched_requests"] / c["batches"]
            )
            out["serve.waves_per_word"] = c["batched_waves"] / c["batch_words"]
        lookups = c["plan_cache_hits"] + c["plan_cache_misses"]
        if lookups:
            out["serve.plan_cache_hit_rate"] = c["plan_cache_hits"] / lookups
        out[self.submit_metric] = c["submit_us"]
        out["batch.plan_us"] = _mean_us(spans, "batch.plan")
        out["batch.simulate_streams_ms"] = (
            _mean_us(spans, "batch.simulate_streams") / 1e3
        )
        return out


class ServeWorkload(ServingWorkload):
    """In-process server, thread shards, closed-loop requests."""

    name = "serve"
    submit_span = "serve.submit"
    submit_metric = "serve.submit_us"

    def start(self) -> None:
        self.server = SimulationServer(
            shards=SHARDS, warm_netlists=[c.netlist for c in self.served]
        )
        self.warm([self.server.submit_many] * LOAD_THREADS)

    def callers(self) -> list[list[Caller]]:
        return [
            [self.request_caller(index, self.server.submit_many)]
            for index in range(LOAD_THREADS)
        ]


class ServeWireWorkload(ServingWorkload):
    """The same traffic over sockets, to a server with process shards."""

    name = "serve_wire"
    submit_span = "client.submit"
    submit_metric = "client.submit_us"

    def start(self) -> None:
        self.server = SimulationServer(
            process_shards=SHARDS,
            warm_netlists=[c.netlist for c in self.served],
        )
        self.socket = SocketServer(self.server).start()
        host, port = self.socket.address
        self.clients = [
            SimulationClient(host, port) for _ in range(LOAD_THREADS)
        ]
        self.warm([client.submit_many for client in self.clients])

    def callers(self) -> list[list[Caller]]:
        return [
            [self.request_caller(index, client.submit_many)]
            for index, client in enumerate(self.clients)
        ]

    def summary(self, window: Window) -> list[str]:
        return [
            "peak_rss_mb and kernels.compile_misses cover the benchmark "
            "process only; the shard workers compile and hold their own",
            f"largest shard worker's peak RSS: {children_peak_rss_mb():.6g} "
            f"MiB (read after the workers were joined)",
        ]

    def counters(self) -> dict[str, float]:
        counters = super().counters()
        net = self.socket.health()["net"]
        assert isinstance(net, dict)
        for key in ("bytes_in", "bytes_out", "frames_out"):
            counters[f"net.{key}"] = net[key]
        return counters

    def teardown(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        socket = getattr(self, "socket", None)
        if socket is not None:
            socket.close(timeout=RESULT_TIMEOUT_S)
        super().teardown()

    def layers(
        self, window: Window, spans: dict[str, Layer], gc_monitor: GcMonitor
    ) -> dict[str, float]:
        out = super().layers(window, spans, gc_monitor)
        c = window.counters
        waves = c["completed_waves"]
        out["net.bytes_out_per_wave"] = c["net.bytes_out"] / waves
        out["net.bytes_in_per_wave"] = c["net.bytes_in"] / waves
        out["net.frames_out"] = c["net.frames_out"] / c["completed"]
        return out


class StreamWorkload(ServingWorkload):
    """Per load thread, one ctrl and one i2c session, feeds in flight."""

    name = "stream"
    submit_span = "session.feed"
    submit_metric = "session.feed_us"
    waves = FEED_WAVES
    n_blocks = FEED_BLOCKS
    window = FEED_WINDOW

    def start(self) -> None:
        self.server = SimulationServer(
            shards=SHARDS, warm_netlists=[c.netlist for c in self.served]
        )
        #: open sessions by (load thread, circuit)
        self.sessions: dict[tuple[int, str], ServerSession] = {}
        for circuit in self.served:
            with self.server.open_stream(circuit.netlist) as session:
                pending = [
                    (block, session.feed(circuit.ref.inputs[block]))
                    for block in range(WARMUP_OPS)
                ]
            for position, (block, future) in enumerate(pending):
                problem = self.check(
                    circuit, block, future.result(RESULT_TIMEOUT_S),
                    position * self.waves,
                )
                if problem is not None:
                    self.problems.append(f"warm-up {problem}")

    def callers(self) -> list[list[Caller]]:
        self.close_sessions()  # those a previous window left open
        return [
            [self.session_caller(index, circuit) for circuit in self.served]
            for index in range(LOAD_THREADS)
        ]

    def close_sessions(self) -> None:
        for session in getattr(self, "sessions", {}).values():
            session.close(timeout=RESULT_TIMEOUT_S)
        self.sessions = {}

    def session_caller(self, index: int, circuit: Served) -> Caller:
        """Load thread *index*'s session on *circuit*: back-to-back
        sessions of ``SESSION_FEEDS`` feeds."""
        order = self.orders[index]
        key = (index, circuit.name)
        self.sessions[key] = self.server.open_stream(circuit.netlist)

        def block(op: int) -> int:
            return int(order[op % len(order)])

        def issue(ops: list[int]) -> list[Future]:
            futures = []
            for op in ops:
                try:
                    future = self.sessions[key].feed(
                        circuit.ref.inputs[block(op)]
                    )
                except ReproError as error:  # refused: session closed
                    (future,) = refused(error, 1)
                futures.append(future)
            return futures

        def check(op: int, report: WaveSimulationReport) -> Optional[str]:
            first = (op % SESSION_FEEDS) * self.waves
            return self.check(circuit, block(op), report, first)

        def next_session() -> None:
            self.sessions.pop(key).close(timeout=RESULT_TIMEOUT_S)
            self.sessions[key] = self.server.open_stream(circuit.netlist)

        return Caller(
            issue, check, self.waves, self.submit_span, "session.request",
            lambda op: circuit.name, epoch=SESSION_FEEDS,
            on_epoch=next_session,
        )

    def teardown(self) -> None:
        self.close_sessions()
        super().teardown()

    def rerun(self, tracer: Tracer, window: Window) -> None:
        """Feed and pump the same blocks through a bare packed session."""
        for index, circuit in enumerate(self.served):
            order = self.orders[index]
            with open_packed_session(circuit.netlist) as session:
                for op in range(RERUN_FEEDS):
                    block = int(order[op % len(order)])
                    with tracer.span("batch.session_pump"):
                        session.feed(circuit.ref.inputs[block])
                        done = session.pump()
                    for handle in done:
                        problem = self.check(
                            circuit,
                            int(order[handle.index % len(order)]),
                            handle.report,
                            handle.start,
                        )
                        if problem is not None:
                            self.problems.append(f"re-run {problem}")

    def layers(
        self, window: Window, spans: dict[str, Layer], gc_monitor: GcMonitor
    ) -> dict[str, float]:
        out = super().layers(window, spans, gc_monitor)
        out["batch.session_pump_ms"] = (
            _mean_us(spans, "batch.session_pump") / 1e3
        )
        return out


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (
        FlowWorkload, ServeWorkload, ServeWireWorkload, StreamWorkload
    )
}
