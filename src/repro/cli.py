"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------
``flow``
    Run the wave-pipelining flow on a suite benchmark, a built-in circuit,
    or a netlist file, print the statistics, and optionally export the
    result (.mig / .blif / .v).
``experiments``
    Regenerate the paper's tables and figures (``--which all`` or a list),
    printing the ASCII renderings and optionally writing CSVs.
``simulate``
    Phase-accurate wave simulation of a (transformed) benchmark under the
    regeneration clock — ``--engine packed`` uses the bit-packed batched
    engine (in-place numpy step kernels, with wave-id tracking elided on
    balanced netlists), ``--engine both`` cross-checks the engines and
    reports the speedup, ``--streams N`` batches N independent wave
    streams through the netlist in one packed pass (the serving
    scenario).
``serve``
    Network serving tier: bind the micro-batching simulation server to
    a TCP socket (``--listen HOST:PORT``) speaking the length-prefixed
    numpy wire format of :mod:`repro.serve.net`.  Optionally
    pre-compiles (warms) a list of benchmarks at startup, drains
    gracefully on SIGTERM, and prints the bound address for clients
    (:class:`repro.serve.SimulationClient`).
``serve-bench``
    Closed-loop load test of the micro-batching simulation server
    (:mod:`repro.serve`): N concurrent clients drive wave-stream requests
    through a sharded ``SimulationServer``, reporting p50/p99 latency and
    sustained waves/sec against the one-request-at-a-time packed
    baseline — with every served report checked bit-identical to its
    solo-run counterpart.  ``--open-loop`` switches to the seeded
    open-loop generator (Poisson/uniform/bursty arrivals at a fixed
    offered rate, heavy-tail size mixes) and emits a replayable JSON
    SLO report whose offered-traffic ledger must balance; ``--socket``
    additionally replays the same scenario through the network tier.
``suite``
    List the 37-benchmark suite with structural targets.
``techs``
    Show the built-in technology models (Table I).
``lint``
    Run the :mod:`repro.devtools` static analyzers (concurrency
    lock-guard/lock-order lint, hot-path allocation lint, the
    determinism and lifecycle dataflow families, runtime sanitizer
    self-check) over the serving tier and the wave-pipeline engine;
    exits nonzero on unsuppressed findings — the CI lint gate.
    ``--sarif`` emits the GitHub code-scanning report CI uploads.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .core.mig import Mig
from .core.wavepipe import WaveNetlist, wave_pipeline
from .errors import ReproError, ServerClosed, ShardFailed
from .tech import TECHNOLOGIES, evaluate_pair


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wave pipelining for majority-based beyond-CMOS "
        "technologies (DATE 2017 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    flow = commands.add_parser("flow", help="run the FOx+BUF flow")
    flow.add_argument(
        "source",
        help="suite benchmark name, 'circuit:<name>[:<width>]', or a "
        ".mig/.blif file path",
    )
    flow.add_argument(
        "--fanout-limit", type=int, default=3,
        help="fan-out restriction (2..5; 0 disables the pass)",
    )
    flow.add_argument(
        "--no-balance", action="store_true",
        help="skip buffer insertion (FOx-only configuration)",
    )
    flow.add_argument(
        "--no-verify", action="store_true", help="skip invariant checks"
    )
    flow.add_argument(
        "--export", type=Path, default=None,
        help="write the transformed netlist (.mig, .blif or .v)",
    )

    experiments = commands.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument(
        "--which", nargs="+", default=["all"],
        help="artifacts: table1 fig5 fig7 fig8 table2 fig9 "
        "fig9_throughput (or 'all')",
    )
    experiments.add_argument(
        "--csv-dir", type=Path, default=None,
        help="also write one CSV per artifact into this directory",
    )

    simulate = commands.add_parser(
        "simulate", help="phase-accurate wave simulation of a benchmark",
        description="Phase-accurate wave simulation under the "
        "regeneration clock.  The packed engine's in-place numpy step "
        "kernels pick their variant automatically: on balanced netlists "
        "the per-lane wave-id tracking is elided entirely (interference "
        "is provably impossible), on unbalanced ones the tracked kernels "
        "reproduce the scalar oracle's interference events bit for bit.",
    )
    simulate.add_argument("source", help="same source syntax as 'flow'")
    simulate.add_argument(
        "--engine", choices=("python", "packed", "both"), default="packed",
        help="simulation engine (default: packed); 'both' cross-checks "
        "the packed engine against the scalar oracle",
    )
    simulate.add_argument(
        "--waves", type=int, default=256,
        help="number of random data waves to inject (default: 256)",
    )
    simulate.add_argument(
        "--streams", type=int, default=0,
        help="batch this many independent wave streams of --waves each "
        "through the netlist in one packed pass (0 = single stream)",
    )
    simulate.add_argument(
        "--phases", type=int, default=3,
        help="regeneration clock phase count (default: 3)",
    )
    simulate.add_argument(
        "--fanout-limit", type=int, default=3,
        help="fan-out restriction applied before simulation (0 disables)",
    )
    simulate.add_argument(
        "--raw", action="store_true",
        help="simulate the untransformed netlist (shows wave interference)",
    )
    simulate.add_argument(
        "--no-pipeline", action="store_true",
        help="inject one wave at a time (non-pipelined baseline)",
    )
    simulate.add_argument(
        "--seed", type=int, default=0, help="random vector seed"
    )

    serve = commands.add_parser(
        "serve-bench",
        help="closed-loop load test of the micro-batching server",
        description="Drive concurrent wave-stream requests through the "
        "micro-batching SimulationServer (repro.serve) and compare the "
        "sustained throughput and latency against simulating the same "
        "requests one at a time with the packed engine.  Every served "
        "report is verified bit-identical to its solo-run counterpart.  "
        "A comma-separated source list (e.g. 'ctrl,i2c') drives a "
        "multi-netlist mix — the traffic shape where sharding pays — "
        "and --process-shards N additionally times a process-sharded "
        "server against the thread-sharded one on the same payloads.",
    )
    serve.add_argument(
        "source", nargs="?", default="ctrl",
        help="benchmark (same source syntax as 'flow'), or a "
        "comma-separated list for a multi-netlist request mix "
        "(default: ctrl)",
    )
    serve.add_argument(
        "--requests", type=int, default=256,
        help="total requests to serve (default: 256)",
    )
    serve.add_argument(
        "--waves", type=int, default=64,
        help="waves per request (default: 64)",
    )
    serve.add_argument(
        "--concurrency", type=int, default=0,
        help="closed-loop client threads (default: one per request, so "
        "the whole set is in flight at once)",
    )
    serve.add_argument(
        "--shards", type=int, default=2,
        help="server shard threads (default: 2); pays off with "
        "multi-netlist traffic",
    )
    serve.add_argument(
        "--process-shards", type=int, default=0,
        help="also time a server with this many worker *processes* "
        "(true multi-core sharding, no GIL) against the thread-sharded "
        "run on the same payloads (default: 0 = threads only)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-request deadline in seconds (server-side deadline "
        "scheduling; expired requests fail with DeadlineExceeded and "
        "are reported, not simulated)",
    )
    serve.add_argument(
        "--oracle", action="store_true",
        help="verify served reports against solo *scalar-oracle* runs "
        "(engine='python') instead of solo packed runs — the strongest "
        "identity check, but slow on large request sets",
    )
    serve.add_argument(
        "--max-batch-requests", type=int, default=None,
        help="coalescing cap: requests per packed pass",
    )
    serve.add_argument(
        "--max-batch-waves", type=int, default=None,
        help="coalescing cap: total waves per packed pass",
    )
    serve.add_argument(
        "--max-linger-steps", type=int, default=None,
        help="linger rounds a non-full batch waits for late arrivals",
    )
    serve.add_argument(
        "--phases", type=int, default=3,
        help="regeneration clock phase count (default: 3)",
    )
    serve.add_argument(
        "--fanout-limit", type=int, default=3,
        help="fan-out restriction applied before serving (0 disables)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="random vector seed"
    )
    serve.add_argument(
        "--trials", type=int, default=3,
        help="closed-loop trials; the best sustained rate is reported "
        "(default: 3 — scheduling jitter on loaded hosts is real)",
    )
    serve.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help="inject seeded chaos into the dispatch path, e.g. "
        "'crash=0.1,hang=0.05,slow=0.2,slow-s=0.01' (keys: crash/"
        "crash-mid, crash-pre, eof, hang, slow; delays slow-s/hang-s; "
        "'seed=N' overrides --fault-seed).  Process shards suffer every "
        "kind; with thread shards slow sleeps, hang is skipped, and a "
        "worker-killing kind fails its batch typed or makes a session "
        "replay its feed log.  The printed seed line replays the exact "
        "fault schedule",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed of the fault schedule (default: 0); every fault "
        "decision is a pure function of this seed",
    )
    serve.add_argument(
        "--dispatch-timeout", type=float, default=None, metavar="S",
        help="hang detection for process shards: a worker silent for "
        "this many seconds under a batch is SIGKILL-reaped and the "
        "batch retried (default: off)",
    )
    serve.add_argument(
        "--open-loop", action="store_true",
        help="open-loop mode: arrivals follow a seeded schedule at "
        "--rate requests/s regardless of completions (measures what a "
        "closed loop hides: queueing delay under a fixed offered "
        "rate), and the result is a JSON SLO report with a balanced "
        "offered-traffic ledger",
    )
    serve.add_argument(
        "--rate", type=float, default=50.0, metavar="RPS",
        help="open-loop offered rate in requests per second "
        "(default: 50)",
    )
    serve.add_argument(
        "--arrival", choices=("poisson", "uniform", "bursty"),
        default="poisson",
        help="open-loop arrival process (default: poisson)",
    )
    serve.add_argument(
        "--arrival-burst", type=int, default=8, metavar="N",
        help="requests per burst epoch for --arrival bursty "
        "(default: 8)",
    )
    serve.add_argument(
        "--size-mix", type=str, default=None, metavar="MIX",
        help="open-loop request-size mix as WAVES:WEIGHT pairs, e.g. "
        "'16:70,64:24,256:5,1024:1', or the keyword 'heavy-tail' for "
        "that built-in mix (default: every request carries --waves "
        "waves)",
    )
    serve.add_argument(
        "--stream", action="store_true",
        help="streaming mode: drive --stream-sessions concurrent "
        "open_stream sessions of --requests feed() chunks x --waves "
        "waves each against one warm per-plan engine state, verify "
        "every feed bit-identical to its slice of a solo run of the "
        "concatenated waves, and compare sustained throughput",
    )
    serve.add_argument(
        "--stream-sessions", type=int, default=4, metavar="N",
        help="concurrent streaming sessions for --stream (default: 4)",
    )
    serve.add_argument(
        "--socket", action="store_true",
        help="with --open-loop: replay the same scenario through the "
        "network tier (loopback SocketServer + SimulationClient); "
        "with --stream: drive the sessions through it.  Reports both "
        "tiers side by side",
    )
    serve.add_argument(
        "--json-out", type=str, default=None, metavar="PATH",
        help="with --open-loop: write the JSON SLO document to PATH "
        "instead of stdout",
    )

    servecmd = commands.add_parser(
        "serve",
        help="serve simulations over a TCP socket (network tier)",
        description="Bind a micro-batching SimulationServer to a TCP "
        "socket speaking the length-prefixed numpy wire format "
        "(repro.serve.net).  Clients connect with "
        "repro.serve.SimulationClient and get the exact submit/"
        "submit_many/Future API of the in-process server — reports are "
        "bit-identical.  An optional comma-separated source list is "
        "compiled at startup (and shipped to worker processes) so the "
        "first request after a restart does not pay the compile miss.  "
        "SIGTERM drains in-flight work before exiting.",
    )
    servecmd.add_argument(
        "source", nargs="?", default=None,
        help="optional comma-separated benchmarks (same source syntax "
        "as 'flow') to pre-compile at startup, e.g. 'ctrl,i2c'",
    )
    servecmd.add_argument(
        "--listen", type=str, default="127.0.0.1:0", metavar="HOST:PORT",
        help="bind address (default: 127.0.0.1:0 — port 0 picks a free "
        "port; the bound address is printed)",
    )
    servecmd.add_argument(
        "--shards", type=int, default=2,
        help="server shard threads (default: 2)",
    )
    servecmd.add_argument(
        "--process-shards", type=int, default=0,
        help="worker processes instead of shard threads (default: 0)",
    )
    servecmd.add_argument(
        "--max-pending", type=int, default=None,
        help="bounded admission queue size (requests); full queue "
        "rejects with a typed queue_full wire error",
    )
    servecmd.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="default per-request deadline in seconds",
    )
    servecmd.add_argument(
        "--phases", type=int, default=3,
        help="regeneration clock phase count (default: 3)",
    )
    servecmd.add_argument(
        "--fanout-limit", type=int, default=3,
        help="fan-out restriction applied to warm sources (0 disables)",
    )
    servecmd.add_argument(
        "--dispatch-timeout", type=float, default=None, metavar="S",
        help="hang detection for process shards (seconds; default: off)",
    )
    servecmd.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="serve for S seconds then drain and exit (default: serve "
        "until SIGTERM/SIGINT)",
    )

    commands.add_parser("suite", help="list the benchmark suite")
    commands.add_parser("techs", help="show the technology models")

    stats = commands.add_parser(
        "stats", help="structural profile of a benchmark/circuit/file"
    )
    stats.add_argument("source", help="same source syntax as 'flow'")

    lint = commands.add_parser(
        "lint",
        help="static concurrency/determinism/lifecycle analysis (CI gate)",
        description="Run the repro.devtools analyzers over repro.serve "
        "and repro.core.wavepipe: lock-guard inference and the "
        "lock-order graph, the zero-allocation check of the "
        "'# lint: hot' kernel loops, the determinism family (unordered "
        "iteration on result paths, unseeded RNG, wall-clock taint, "
        "order-dependent float reductions), the CFG/dataflow lifecycle "
        "family (stranded futures, leaked processes/pipes/files), and "
        "the runtime lock sanitizer's self-check.  Exits 1 when any "
        "unsuppressed finding remains; findings are silenced in-source "
        "with '# lint: <family>-ok(reason)' and the reason is "
        "mandatory.",
    )
    report_format = lint.add_mutually_exclusive_group()
    report_format.add_argument(
        "--json", action="store_true",
        help="machine-readable report (findings + summary)",
    )
    report_format.add_argument(
        "--sarif", action="store_true",
        help="SARIF 2.1.0 report (GitHub code-scanning upload format; "
        "suppressed findings carry inSource suppressions)",
    )
    lint.add_argument(
        "--show-suppressed", action="store_true",
        help="also print suppressed findings with their reasons",
    )
    lint.add_argument(
        "--paths", nargs="+", type=Path, default=None,
        help="analyze these files instead of the default surface "
        "(repro.serve + repro.core.wavepipe)",
    )
    lint.add_argument(
        "--no-self-check", action="store_true",
        help="skip the runtime sanitizer self-check",
    )
    return parser


def _load_source(token: str) -> Mig:
    """Resolve a flow source token into a MIG."""
    if token.startswith("circuit:"):
        from .suite.circuits import CIRCUITS

        parts = token.split(":")
        name = parts[1]
        if name not in CIRCUITS:
            known = ", ".join(sorted(CIRCUITS))
            raise ReproError(f"unknown circuit {name!r}; choose from {known}")
        builder = CIRCUITS[name]
        width = int(parts[2]) if len(parts) > 2 else 8
        if name == "voter" and width % 2 == 0:
            width += 1
        return builder(width)
    path = Path(token)
    if path.suffix == ".mig" and path.exists():
        from .io.migfile import read_mig

        return read_mig(path)
    if path.suffix == ".blif" and path.exists():
        from .io.blif import read_blif

        return read_blif(path)
    from .suite.table import build_benchmark

    return build_benchmark(token)


def _export(netlist: WaveNetlist, path: Path) -> None:
    if path.suffix == ".mig":
        from .io.migfile import write_mig

        write_mig(netlist.to_mig(), path)
    elif path.suffix == ".blif":
        from .io.blif import write_blif

        write_blif(netlist.to_mig(), path)
    elif path.suffix == ".v":
        from .io.verilog import write_verilog

        write_verilog(netlist, path)
    else:
        raise ReproError(f"unknown export format {path.suffix!r}")


def _run_flow(args: argparse.Namespace, out) -> int:
    mig = _load_source(args.source)
    limit = args.fanout_limit if args.fanout_limit else None
    started = time.perf_counter()
    result = wave_pipeline(
        mig,
        fanout_limit=limit,
        balance=not args.no_balance,
        verify=not args.no_verify,
    )
    elapsed = time.perf_counter() - started
    stats = result.netlist.stats()
    print(f"benchmark : {mig.name}", file=out)
    print(
        f"original  : size={result.size_before} depth={result.depth_before} "
        f"inputs={mig.n_pis} outputs={mig.n_pos}",
        file=out,
    )
    print(
        f"wave-ready: size={result.size_after} depth={result.depth_after} "
        f"(maj={stats.n_maj} buf={stats.n_buf} fog={stats.n_fog} "
        f"inv={stats.n_inverters})",
        file=out,
    )
    print(
        f"impact    : {result.size_ratio:.2f}x components, "
        f"+{result.depth_after - result.depth_before} levels, "
        f"{elapsed:.2f}s",
        file=out,
    )
    if not args.no_balance:
        for tech in TECHNOLOGIES:
            before, after, tech_gains = evaluate_pair(
                result.original, result.netlist, tech
            )
            print(
                f"{tech.name:>4}     : T/A {tech_gains.t_over_a:5.2f}x   "
                f"T/P {tech_gains.t_over_p:5.2f}x   "
                f"throughput {before.throughput_mops:.2f} -> "
                f"{after.throughput_mops:.2f} MOPS",
                file=out,
            )
    if args.export is not None:
        _export(result.netlist, args.export)
        print(f"exported  : {args.export}", file=out)
    return 0


def _time_engines(engines, simulate, describe, out):
    """Run *simulate* per engine, printing one described line each."""
    results = {}
    timings = {}
    for engine in engines:
        started = time.perf_counter()
        results[engine] = simulate(engine)
        timings[engine] = time.perf_counter() - started
        line = describe(results[engine], timings[engine])
        print(f"{engine:>9} : {line}", file=out)
    return results, timings


def _check_golden(matches: bool, raw: bool, out) -> None:
    print(f"golden    : {'ok' if matches else 'MISMATCH'}", file=out)
    if not matches and not raw:
        # on a transformed netlist a golden mismatch is a real failure
        # (with --raw it is the expected interference demonstration)
        raise ReproError("simulation outputs diverged from the golden model")


def _check_engines_identical(results, timings, out) -> None:
    if len(results) != 2:
        return
    identical = results["python"] == results["packed"]  # every report field
    speedup = timings["python"] / max(timings["packed"], 1e-9)
    print(
        f"engines   : {'identical' if identical else 'DIVERGED'}, "
        f"packed speedup {speedup:.1f}x",
        file=out,
    )
    if not identical:
        raise ReproError("packed engine diverged from the scalar oracle")


def _same_bits(report, rows: list, n_outputs: int) -> bool:
    """True when *report*'s ``(waves, n_outputs)`` bit matrix equals the
    functional model's *rows* in shape and in every bit."""
    import numpy as np

    expected = np.array(rows, dtype=bool).reshape(len(rows), n_outputs)
    return bool(np.array_equal(report.bits, expected))


def _run_simulate(args: argparse.Namespace, out) -> int:
    from .core.simulate import simulate_vectors
    from .core.wavepipe import (
        ClockingScheme,
        describe_packed_run,
        random_vectors,
        simulate_streams,
        simulate_waves,
    )

    mig = _load_source(args.source)
    if args.raw:
        netlist = WaveNetlist.from_mig(mig)
    else:
        netlist = wave_pipeline(
            mig,
            fanout_limit=args.fanout_limit or None,
            verify=False,
        ).netlist
    print(f"benchmark : {mig.name}", file=out)
    print(f"netlist   : {netlist}", file=out)

    clocking = ClockingScheme(args.phases)
    if args.engine != "python":
        info = describe_packed_run(
            netlist, max(0, args.waves), clocking=clocking,
            pipelined=not args.no_pipeline,
            n_streams=max(1, args.streams),
        )
        tracking = "elided" if info["elided_tracking"] else "tracked"
        print(
            f"kernel    : tracking={tracking}, "
            f"plan={info['lanes']} lanes / {info['words']} words / "
            f"{info['steps']} steps",
            file=out,
        )
    pipelined = not args.no_pipeline
    engines = ("python", "packed") if args.engine == "both" else (args.engine,)
    # one functional-model rebuild serves every golden comparison below
    reference_mig = netlist.to_mig()

    if args.streams > 0:
        # serving scenario: independent streams batched across bit-lanes
        streams = [
            random_vectors(
                netlist.n_inputs, max(0, args.waves), seed=args.seed + k
            )
            for k in range(args.streams)
        ]

        def describe(reports, seconds):
            total_waves = sum(r.waves_retired for r in reports)
            events = sum(len(r.interference) for r in reports)
            steady = reports[0].steady_state_throughput() if reports else 0.0
            return (
                f"{len(reports)} streams, {total_waves} waves in "
                f"{seconds:.3f}s, steady-state {steady:.3f} "
                f"waves/step/stream, {events} interference events"
            )

        batches, timings = _time_engines(
            engines,
            lambda engine: simulate_streams(
                netlist, streams, clocking=clocking,
                pipelined=pipelined, engine=engine,
            ),
            describe,
            out,
        )
        matches = all(
            _same_bits(
                report, simulate_vectors(reference_mig, stream),
                reference_mig.n_pos,
            )
            for report, stream in zip(batches[engines[0]], streams)
        )
        _check_golden(matches, args.raw, out)
        _check_engines_identical(batches, timings, out)
        return 0

    vectors = random_vectors(
        netlist.n_inputs, max(0, args.waves), seed=args.seed
    )

    def describe(report, seconds):
        return (
            f"{report.waves_retired} waves in {report.steps_run} steps "
            f"({seconds:.3f}s), throughput "
            f"{report.measured_throughput():.3f} end-to-end / "
            f"{report.steady_state_throughput():.3f} steady waves/step, "
            f"{len(report.interference)} interference events"
        )

    reports, timings = _time_engines(
        engines,
        lambda engine: simulate_waves(
            netlist, vectors, clocking=clocking,
            pipelined=pipelined, engine=engine,
        ),
        describe,
        out,
    )
    matches = _same_bits(
        reports[engines[0]],
        simulate_vectors(reference_mig, vectors),
        reference_mig.n_pos,
    )
    _check_golden(matches, args.raw, out)
    _check_engines_identical(reports, timings, out)
    return 0


def _run_serve_bench(args: argparse.Namespace, out) -> int:
    if args.open_loop and args.stream:
        raise ReproError("--open-loop and --stream are exclusive modes")
    if args.open_loop:
        return _run_open_loop_bench(args, out)
    if args.stream:
        return _run_streaming_bench(args, out)
    if args.socket or args.json_out is not None:
        raise ReproError(
            "--socket/--json-out apply to --open-loop/--stream modes only"
        )
    from .core.wavepipe import (
        ClockingScheme,
        random_vectors,
        simulate_waves,
        simulate_waves_packed,
    )
    from .serve import (
        FaultPlan,
        SimulationServer,
        graceful_drain,
        run_closed_loop,
    )

    if args.requests < 1:
        raise ReproError("serve-bench needs at least one request")
    import numpy as np

    migs = [_load_source(token) for token in args.source.split(",")]
    netlists = [
        wave_pipeline(
            mig, fanout_limit=args.fanout_limit or None, verify=False
        ).netlist
        for mig in migs
    ]
    clocking = ClockingScheme(args.phases)
    # request payloads are numpy bool blocks — the wire format a real
    # client would send — built once, outside every timed window; the
    # solo baseline consumes the exact same payload objects.  Multi-
    # netlist mixes interleave the models round-robin per request.
    models = [netlists[index % len(netlists)]
              for index in range(args.requests)]
    requests = [
        np.asarray(
            random_vectors(
                models[index].n_inputs, max(0, args.waves),
                seed=args.seed + index,
            ),
            dtype=bool,
        ).reshape(max(0, args.waves), models[index].n_inputs)
        for index in range(args.requests)
    ]
    total_waves = sum(len(stream) for stream in requests)
    for mig, netlist in zip(migs, netlists):
        print(f"benchmark : {mig.name}", file=out)
        print(f"netlist   : {netlist}", file=out)
    print(
        f"load      : {args.requests} requests x {args.waves} waves"
        f"{f' across {len(netlists)} netlists' if len(netlists) > 1 else ''}, "
        f"concurrency {args.concurrency or args.requests}",
        file=out,
    )

    # baseline: the same requests, one packed pass each, back to back.
    # The warm-up must *run the kernel* (an empty stream would
    # short-circuit before it), so compile and scratch setup stay out
    # of every measured window alike — one real stream per netlist
    warm_streams = [
        np.asarray(
            random_vectors(
                netlist.n_inputs, max(1, args.waves), seed=args.seed
            ),
            dtype=bool,
        )
        for netlist in netlists
    ]
    for netlist, warm in zip(netlists, warm_streams):
        simulate_waves_packed(netlist, warm, clocking=clocking)
    started = time.perf_counter()
    solo = [
        simulate_waves_packed(model, stream, clocking=clocking)
        for model, stream in zip(models, requests)
    ]
    solo_elapsed = time.perf_counter() - started
    solo_rate = total_waves / solo_elapsed if solo_elapsed else 0.0
    print(
        f"solo      : {total_waves} waves in {solo_elapsed:.3f}s "
        f"({solo_rate:,.0f} waves/s one request at a time)",
        file=out,
    )
    reference = solo
    if args.oracle:
        # the strongest identity reference: the scalar oracle, stream
        # by stream (slow — this is a verification mode, not a
        # baseline); the scalar loop consumes row lists, not blocks
        reference = [
            simulate_waves(model, stream.tolist(), clocking=clocking,
                           engine="python")
            for model, stream in zip(models, requests)
        ]

    knobs = {}
    if args.max_batch_requests is not None:
        knobs["max_batch_requests"] = args.max_batch_requests
    if args.max_batch_waves is not None:
        knobs["max_batch_waves"] = args.max_batch_waves
    if args.max_linger_steps is not None:
        knobs["max_linger_steps"] = args.max_linger_steps
    if args.dispatch_timeout is not None:
        knobs["dispatch_timeout_s"] = args.dispatch_timeout

    def serve_once(label: str, process_shards: int):
        """One serving configuration: trials, identity, report lines."""
        identical = True
        # a fresh plan per configuration: both runs see the identical
        # seeded fault schedule, and the printed line replays either
        plan = (
            None if args.faults is None
            else FaultPlan.parse(args.faults, seed=args.fault_seed)
        )
        if plan is not None:
            print(f"faults    : {plan.describe()} (replayable)", file=out)
        drained = False
        with SimulationServer(
            shards=args.shards,
            process_shards=process_shards,
            max_pending=max(args.requests, 1024),
            clocking=clocking,
            faults=plan,
            **knobs,
        ) as server, graceful_drain(server):
            # warm the serving path (shard/worker wake-up, plan
            # compile, worker-side kernel warm) the same way the solo
            # loop was warmed — real streams, not empty ones.  Chaos
            # may quarantine a warm-up batch; that is fine, the warm-up
            # is best-effort
            for netlist, warm in zip(netlists, warm_streams):
                try:
                    server.submit(
                        netlist, warm, clocking=clocking
                    ).result()
                except ShardFailed:
                    pass
            load = None
            for _ in range(max(1, args.trials)):
                try:
                    trial = run_closed_loop(
                        server,
                        None if len(netlists) > 1 else netlists[0],
                        requests,
                        netlists=models if len(netlists) > 1 else None,
                        clocking=clocking,
                        concurrency=args.concurrency or None,
                        deadline_s=args.deadline,
                    )
                except ServerClosed:
                    # SIGTERM mid-trial: the drain served everything
                    # already admitted, later submissions were refused
                    drained = True
                    break
                identical = identical and all(
                    got == want
                    for got, want in zip(trial.reports, reference)
                    if got is not None
                ) and (
                    args.deadline is not None
                    or plan is not None
                    or None not in trial.reports
                )
                if load is None or trial.waves_per_s > load.waves_per_s:
                    load = trial
            metrics = server.metrics.snapshot()
        if drained and load is None:
            print(
                f"{label:<10}: drained on SIGTERM before a full trial",
                file=out,
            )
            return None, identical
        speedup = load.waves_per_s / solo_rate if solo_rate else 0.0
        print(
            f"{label:<10}: {load.total_waves} waves in "
            f"{load.elapsed_s:.3f}s ({load.waves_per_s:,.0f} waves/s "
            f"sustained, {speedup:.1f}x over solo; best of "
            f"{max(1, args.trials)} trials)",
            file=out,
        )
        print(
            f"latency   : p50 {load.p50_s * 1e3:.1f} ms, "
            f"p99 {load.p99_s * 1e3:.1f} ms (closed loop, queueing "
            "included)",
            file=out,
        )
        print(
            f"batching  : {metrics['batches']} batches, mean "
            f"{metrics['mean_batch_requests']:.1f} requests/batch "
            f"(max {metrics['max_batch_requests']}), plan cache "
            f"{metrics['plan_cache_hits']} hits / "
            f"{metrics['plan_cache_misses']} misses",
            file=out,
        )
        if args.deadline is not None:
            print(
                f"deadlines : {metrics['expired']} expired "
                f"(deadline {args.deadline * 1e3:.1f} ms)",
                file=out,
            )
        supervision = (
            metrics["worker_restarts"]
            or metrics["hung_workers"]
            or metrics["breaker_opens"]
            or metrics["shard_failed"]
        )
        if supervision:
            print(
                f"workers   : {metrics['worker_restarts']} restarts, "
                f"{metrics['hung_workers']} hung reaped, "
                f"{metrics['breaker_opens']} breaker trips, "
                f"{metrics['shard_failed']} requests quarantined",
                file=out,
            )
        if plan is not None:
            fired = plan.injected()
            summary = ", ".join(
                f"{kind}={count}"
                for kind, count in fired.items()
                if count
            ) or "none fired"
            print(f"injected  : {summary}", file=out)
        return load, identical

    thread_load, identical = serve_once("served", 0)
    if args.process_shards and thread_load is not None:
        process_load, process_identical = serve_once(
            "processes", args.process_shards
        )
        identical = identical and process_identical
        if process_load is not None:
            ratio = (
                process_load.waves_per_s / thread_load.waves_per_s
                if thread_load.waves_per_s else 0.0
            )
            print(
                f"sharding  : {args.process_shards} worker processes at "
                f"{ratio:.2f}x the thread-shard rate "
                f"({process_load.waves_per_s:,.0f} vs "
                f"{thread_load.waves_per_s:,.0f} waves/s)",
                file=out,
            )
    print(
        f"identity  : {'ok' if identical else 'MISMATCH'} "
        f"(every served report vs its solo "
        f"{'scalar-oracle' if args.oracle else 'packed'} run, "
        "every trial)",
        file=out,
    )
    if not identical:
        raise ReproError("served reports diverged from solo runs")
    return 0


def _run_streaming_bench(args: argparse.Namespace, out) -> int:
    """``serve-bench --stream``: streaming sessions vs solo packed runs.

    Each session feeds its chunks into one warm per-plan engine state;
    the baseline simulates each session's *concatenated* waves as one
    solo packed run.  Every feed report is verified bit-identical to
    its slice of that solo run — the resumability contract — before any
    throughput figure is trusted.
    """
    from .core.wavepipe import (
        ClockingScheme,
        random_vectors,
        simulate_waves_packed,
    )
    from .serve import (
        FaultPlan,
        SimulationClient,
        SimulationServer,
        SocketServer,
        run_streaming,
    )

    if args.json_out is not None:
        raise ReproError("--json-out applies to --open-loop mode only")
    if "," in args.source:
        raise ReproError(
            "--stream drives one netlist per run (sessions are sticky "
            "to one plan); pass a single source"
        )
    if args.stream_sessions < 1:
        raise ReproError("--stream-sessions must be >= 1")
    if args.requests < args.stream_sessions:
        raise ReproError("--stream needs at least one feed per session")
    if args.waves < 1:
        raise ReproError("--stream needs at least one wave per feed")
    import numpy as np

    mig = _load_source(args.source)
    netlist = wave_pipeline(
        mig, fanout_limit=args.fanout_limit or None, verify=False
    ).netlist
    clocking = ClockingScheme(args.phases)
    sessions = args.stream_sessions
    feeds = max(1, args.requests // sessions)
    payloads = [
        [
            np.asarray(
                random_vectors(
                    netlist.n_inputs, args.waves,
                    seed=args.seed + session * feeds + feed,
                ),
                dtype=bool,
            ).reshape(args.waves, netlist.n_inputs)
            for feed in range(feeds)
        ]
        for session in range(sessions)
    ]
    total_waves = sessions * feeds * args.waves
    print(f"benchmark : {mig.name}", file=out)
    print(f"netlist   : {netlist}", file=out)
    print(
        f"load      : {sessions} sessions x {feeds} feeds x "
        f"{args.waves} waves (streaming, no think time)",
        file=out,
    )

    # solo baseline: each session's concatenated waves as ONE packed
    # run — the throughput a streaming session must not fall behind.
    # Warm first so kernel compilation stays outside both windows.
    concatenated = [np.concatenate(chunks) for chunks in payloads]
    simulate_waves_packed(netlist, concatenated[0], clocking=clocking)
    started = time.perf_counter()
    solo = [
        simulate_waves_packed(netlist, block, clocking=clocking)
        for block in concatenated
    ]
    solo_elapsed = time.perf_counter() - started
    solo_rate = total_waves / solo_elapsed if solo_elapsed else 0.0
    print(
        f"solo      : {total_waves} waves in {solo_elapsed:.3f}s "
        f"({solo_rate:,.0f} waves/s, one concatenated run per session)",
        file=out,
    )
    # slice the solo outputs at the feed boundaries once
    slices = [
        [
            solo[session].bits[feed * args.waves:(feed + 1) * args.waves]
            for feed in range(feeds)
        ]
        for session in range(sessions)
    ]

    plan = (
        None if args.faults is None
        else FaultPlan.parse(args.faults, seed=args.fault_seed)
    )
    if plan is not None:
        print(f"faults    : {plan.describe()} (replayable)", file=out)
    knobs = {}
    if args.dispatch_timeout is not None:
        knobs["dispatch_timeout_s"] = args.dispatch_timeout

    def stream_once(label: str, target, server) -> bool:
        """Trials against one target; prints lines, returns identity."""
        identical = True
        load = None
        for _ in range(max(1, args.trials)):
            trial = run_streaming(
                target,
                netlist,
                clocking=clocking,
                deadline_s=args.deadline,
                payloads=payloads,
            )
            for session in range(sessions):
                for feed in range(feeds):
                    report = trial.reports[session][feed]
                    if report is None:
                        # acceptable only under injected chaos or
                        # deadlines; otherwise the identity check fails
                        identical = identical and (
                            plan is not None or args.deadline is not None
                        )
                        continue
                    identical = identical and bool(
                        np.array_equal(report.bits, slices[session][feed])
                    )
            if load is None or trial.waves_per_s > load.waves_per_s:
                load = trial
        ratio = load.waves_per_s / solo_rate if solo_rate else 0.0
        print(
            f"{label:<10}: {load.total_waves} waves in "
            f"{load.elapsed_s:.3f}s ({load.waves_per_s:,.0f} waves/s "
            f"sustained, {ratio:.2f}x the solo rate; best of "
            f"{max(1, args.trials)} trials)",
            file=out,
        )
        print(
            f"latency   : p50 {load.p50_s * 1e3:.1f} ms, "
            f"p99 {load.p99_s * 1e3:.1f} ms per feed (queueing and "
            "pump pipelining included)",
            file=out,
        )
        if load.replays or load.failed:
            print(
                f"sessions  : {load.replays} feed-log replays, "
                f"{len(load.failed)} feeds failed typed",
                file=out,
            )
        metrics = server.metrics.snapshot()
        print(
            f"streams   : {metrics['sessions_opened']} opened / "
            f"{metrics['sessions_closed']} closed, "
            f"{metrics['session_feeds']} feeds, "
            f"{metrics['session_waves']} waves, "
            f"{metrics['session_replays']} replays (server totals)",
            file=out,
        )
        return identical

    with SimulationServer(
        shards=args.shards,
        process_shards=args.process_shards,
        clocking=clocking,
        faults=plan,
        **knobs,
    ) as server:
        # warm the serving path exactly like the solo loop was warmed
        with server.open_stream(netlist) as warm:
            warm.feed(payloads[0][0]).result()
        identical = stream_once("streamed", server, server)
        if args.socket:
            net = SocketServer(server).start()
            try:
                host, port = net.address
                with SimulationClient(host, port) as client:
                    identical = stream_once(
                        "socket", client, server
                    ) and identical
            finally:
                net.close(drain=True)
    print(
        f"identity  : {'ok' if identical else 'MISMATCH'} "
        "(every feed report vs its slice of the session's solo "
        "concatenated packed run, every trial)",
        file=out,
    )
    if not identical:
        raise ReproError("streamed feed reports diverged from solo runs")
    return 0


def _parse_size_mix(spec, default_waves: int):
    """Parse a ``--size-mix`` spec into ``((waves, weight), ...)``."""
    from .serve import HEAVY_TAIL_SIZES

    if spec is None:
        return ((max(1, default_waves), 1.0),)
    if spec == "heavy-tail":
        return HEAVY_TAIL_SIZES
    mix = []
    for token in spec.split(","):
        waves_text, _, weight_text = token.partition(":")
        try:
            waves = int(waves_text)
            weight = float(weight_text) if weight_text else 1.0
        except ValueError as error:
            raise ReproError(
                f"bad --size-mix entry {token!r}: expected WAVES:WEIGHT "
                "pairs like '16:70,64:24,256:5,1024:1' or 'heavy-tail'"
            ) from error
        mix.append((waves, weight))
    return tuple(mix)


def _run_open_loop_bench(args: argparse.Namespace, out) -> int:
    """``serve-bench --open-loop``: seeded offered-rate SLO benchmark."""
    import json

    from .core.wavepipe import ClockingScheme
    from .serve import (
        OpenLoopScenario,
        SimulationClient,
        SimulationServer,
        SocketServer,
        run_open_loop,
    )

    if args.faults is not None or args.oracle:
        # keep the surface honest instead of silently ignoring knobs
        raise ReproError(
            "--faults/--oracle are closed-loop options; the open "
            "loop is a measurement mode, one seeded pass per tier"
        )
    try:
        scenario = OpenLoopScenario(
            rate_rps=args.rate,
            n_requests=args.requests,
            arrival=args.arrival,
            burst=args.arrival_burst,
            seed=args.seed,
            size_mix=_parse_size_mix(args.size_mix, args.waves),
        )
    except ValueError as error:
        raise ReproError(str(error)) from error

    migs = [_load_source(token) for token in args.source.split(",")]
    netlists = [
        wave_pipeline(
            mig, fanout_limit=args.fanout_limit or None, verify=False
        ).netlist
        for mig in migs
    ]
    clocking = ClockingScheme(args.phases)
    models = (
        [netlists[index % len(netlists)] for index in range(args.requests)]
        if len(netlists) > 1 else None
    )
    for mig, netlist in zip(migs, netlists):
        print(f"benchmark : {mig.name}", file=out)
        print(f"netlist   : {netlist}", file=out)
    print(f"scenario  : {scenario.describe()}", file=out)

    knobs = {}
    if args.max_batch_requests is not None:
        knobs["max_batch_requests"] = args.max_batch_requests
    if args.max_batch_waves is not None:
        knobs["max_batch_waves"] = args.max_batch_waves
    if args.max_linger_steps is not None:
        knobs["max_linger_steps"] = args.max_linger_steps
    if args.dispatch_timeout is not None:
        knobs["dispatch_timeout_s"] = args.dispatch_timeout

    def one_tier(tier: str):
        """One seeded open-loop pass; returns the report."""
        with SimulationServer(
            shards=args.shards,
            process_shards=args.process_shards,
            max_pending=max(args.requests, 1024),
            clocking=clocking,
            warm_netlists=netlists,
            **knobs,
        ) as server:
            net = None
            client = None
            try:
                if tier == "socket":
                    net = SocketServer(server)
                    net.start()
                    host, port = net.address
                    client = SimulationClient(host, port)
                target = client if client is not None else server
                report = run_open_loop(
                    target,
                    None if models is not None else netlists[0],
                    scenario,
                    clocking=clocking,
                    deadline_s=args.deadline,
                    netlists=models,
                )
            finally:
                if client is not None:
                    client.close()
                if net is not None:
                    net.close(drain=True)
        entries = report.ledger()
        print(
            f"{tier:<10}: offered {report.offered_rate_rps:,.1f} rps, "
            f"achieved {report.achieved_rate_rps:,.1f} rps "
            f"({report.waves_per_s:,.0f} waves/s)",
            file=out,
        )
        p999 = report.p999_s
        print(
            f"latency   : p50 {report.p50_s * 1e3:.1f} ms, "
            f"p99 {report.p99_s * 1e3:.1f} ms, "
            f"p99.9 {p999 * 1e3:.1f} ms "
            "(from scheduled arrival — queueing included, no "
            "coordinated omission)",
            file=out,
        )
        print(
            f"ledger    : {entries['completed']} completed, "
            f"{entries['timed_out']} timed out, "
            f"{entries['expired']} expired, "
            f"{entries['rejected']} rejected, "
            f"{entries['shard_failed']} shard-failed "
            f"of {entries['offered']} offered",
            file=out,
        )
        if not report.ledger_balanced:
            raise ReproError(
                f"{tier} open-loop ledger does not balance: {entries}"
            )
        return report

    tiers = ["in-process"] + (["socket"] if args.socket else [])
    runs = [
        {"tier": tier, **one_tier(tier).as_dict()} for tier in tiers
    ]
    document = json.dumps(
        {"bench": "serve-open-loop", "runs": runs}, indent=2,
        sort_keys=True,
    )
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as sink:
            sink.write(document + "\n")
        print(f"slo-json  : {args.json_out}", file=out)
    else:
        print(document, file=out)
    print(
        f"replay    : repro serve-bench --open-loop {args.source} "
        f"--rate {args.rate:g} --requests {args.requests} "
        f"--arrival {args.arrival} --seed {args.seed}",
        file=out,
    )
    return 0


def _run_serve(args: argparse.Namespace, out) -> int:
    """``repro serve``: the network serving tier."""
    from .core.wavepipe import ClockingScheme
    from .serve import SimulationServer, SocketServer

    host, _, port_text = args.listen.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or port < 0:
        raise ReproError(
            f"--listen expects HOST:PORT, not {args.listen!r}"
        )

    warm = []
    if args.source:
        migs = [_load_source(token) for token in args.source.split(",")]
        warm = [
            wave_pipeline(
                mig, fanout_limit=args.fanout_limit or None, verify=False
            ).netlist
            for mig in migs
        ]
        for mig, netlist in zip(migs, warm):
            print(f"warm      : {mig.name} -> {netlist}", file=out)

    knobs = {}
    if args.max_pending is not None:
        knobs["max_pending"] = args.max_pending
    if args.deadline is not None:
        knobs["default_deadline_s"] = args.deadline
    if args.dispatch_timeout is not None:
        knobs["dispatch_timeout_s"] = args.dispatch_timeout
    server = SimulationServer(
        shards=args.shards,
        process_shards=args.process_shards,
        clocking=ClockingScheme(args.phases),
        warm_netlists=warm or None,
        **knobs,
    )
    net = SocketServer(server, host, port)
    try:
        net.start()
        bound_host, bound_port = net.address
        mode = (
            f"{args.process_shards} worker processes"
            if args.process_shards
            else f"{args.shards} shard threads"
        )
        print(f"listening : {bound_host}:{bound_port}", file=out)
        print(
            f"serving   : {mode}, {len(warm)} warm netlists "
            "(SIGTERM drains)",
            file=out,
        )
        out.flush()
        net.serve_forever(duration_s=args.duration)
    finally:
        net.close(drain=True)
        server.stop(drain=True)
    snapshot = server.metrics.snapshot()
    print(
        f"served    : {snapshot['completed']} completed, "
        f"{snapshot['expired']} expired, "
        f"{snapshot['rejected_queue_full']} rejected "
        f"({snapshot['batches']} batches)",
        file=out,
    )
    return 0


def _run_experiments(args: argparse.Namespace, out) -> int:
    from .experiments import ARTIFACTS, SuiteRunner

    which = args.which
    if "all" in which:
        which = list(ARTIFACTS)
    unknown = [name for name in which if name not in ARTIFACTS]
    if unknown:
        raise ReproError(
            f"unknown artifacts {unknown}; choose from {sorted(ARTIFACTS)}"
        )
    runner = SuiteRunner()
    print(
        f"suite: {len(runner.specs)} benchmarks "
        "(set REPRO_SUITE=full for all 37)",
        file=out,
    )
    for name in which:
        module = ARTIFACTS[name]
        started = time.perf_counter()
        result = module.run() if name == "table1" else module.run(runner)
        elapsed = time.perf_counter() - started
        print(f"\n=== {name} ({elapsed:.1f}s) ===", file=out)
        print(result.render(), file=out)
        if args.csv_dir is not None:
            csv_path = result.to_csv(args.csv_dir / f"{name}.csv")
            print(f"[csv] {csv_path}", file=out)
    return 0


def _run_suite(out) -> int:
    from .suite.table import SUITE

    print(f"{'name':<12} {'size':>7} {'depth':>6} {'PIs':>6} {'POs':>6}",
          file=out)
    for spec in SUITE:
        marker = " *" if spec.in_table2 else ""
        print(
            f"{spec.name:<12} {spec.size:>7} {spec.depth:>6} "
            f"{spec.n_pis:>6} {spec.n_pos:>6}{marker}",
            file=out,
        )
    print("(* appears in the paper's Table II)", file=out)
    return 0


def _run_techs(out) -> int:
    from .experiments import table1

    print(table1.run().render(), file=out)
    return 0


def _run_lint(args: argparse.Namespace, out) -> int:
    from .devtools import (
        render_json,
        render_sarif,
        render_text,
        run_lint,
        summarize,
    )

    findings = run_lint(
        args.paths, sanitizer_check=not args.no_self_check
    )
    if args.sarif:
        print(render_sarif(findings), file=out)
    elif args.json:
        print(render_json(findings), file=out)
    else:
        print(
            render_text(findings, show_suppressed=args.show_suppressed),
            file=out,
        )
    return 1 if summarize(findings)["unsuppressed"] else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "flow":
            return _run_flow(args, out)
        if args.command == "simulate":
            return _run_simulate(args, out)
        if args.command == "serve-bench":
            return _run_serve_bench(args, out)
        if args.command == "serve":
            return _run_serve(args, out)
        if args.command == "experiments":
            return _run_experiments(args, out)
        if args.command == "suite":
            return _run_suite(out)
        if args.command == "techs":
            return _run_techs(out)
        if args.command == "stats":
            from .analysis.graphs import profile_mig

            mig = _load_source(args.source)
            print(f"benchmark: {mig.name}", file=out)
            print(profile_mig(mig).render(), file=out)
            return 0
        if args.command == "lint":
            return _run_lint(args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
