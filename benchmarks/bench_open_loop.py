#!/usr/bin/env python
"""JSON benchmark: open-loop SLO report of the serving tier.

Drives seeded open-loop traffic (``repro.serve.run_open_loop`` — the
same generator behind ``repro serve-bench --open-loop``) through a
sharded :class:`~repro.serve.SimulationServer` and, for each case,
through the network tier (a loopback
:class:`~repro.serve.SocketServer` + :class:`~repro.serve.SimulationClient`)
on the identical scenario.  Unlike the closed-loop bench, arrivals
follow the scenario's schedule regardless of completions, so the
latency percentiles include queueing delay at a fixed offered rate and
are free of coordinated omission.

Every case asserts the offered-traffic ledger balances
(``offered == completed + timed_out + expired + rejected +
shard_failed``) — the bench fails loudly if a request is ever dropped
on the floor.  Scenarios are pure functions of their seeds: the JSON
document is replayable as-is.

Usage::

    PYTHONPATH=src python benchmarks/bench_open_loop.py          # full
    PYTHONPATH=src python benchmarks/bench_open_loop.py --quick  # CI smoke
"""

import sys

from repro.core.wavepipe import ClockingScheme, wave_pipeline
from repro.serve import (
    OpenLoopScenario,
    SimulationClient,
    SimulationServer,
    SocketServer,
    run_open_loop,
)
from repro.suite.table import build_benchmark

from _common import bench_parser, emit, metadata, parse_args

#: (benchmarks, rate rps, requests, arrival, size_mix, shards, socket).
#: The heavy-tail mix is the interesting one: most requests are small,
#: the tail is 64x larger — the batcher must not let elephants starve
#: the mice.
FULL_CASES = (
    (("ctrl",), 200.0, 256, "poisson", ((32, 1.0),), 2, False),
    (("ctrl",), 200.0, 256, "poisson", ((32, 1.0),), 2, True),
    (("ctrl",), 150.0, 192, "bursty",
     ((16, 70.0), (64, 24.0), (256, 5.0), (1024, 1.0)), 2, False),
    (("ctrl", "i2c"), 120.0, 128, "uniform", ((32, 1.0),), 2, True),
)
QUICK_CASES = (
    (("ctrl",), 200.0, 48, "poisson", ((16, 1.0),), 2, False),
    (("ctrl",), 200.0, 48, "poisson", ((16, 1.0),), 2, True),
)


def bench_case(
    names, rate_rps: float, n_requests: int, arrival: str,
    size_mix, shards: int, socket_tier: bool, seed: int = 7,
) -> dict:
    """One seeded open-loop pass; asserts the ledger balances."""
    netlists = [
        wave_pipeline(build_benchmark(name), fanout_limit=3,
                      verify=False).netlist
        for name in names
    ]
    clocking = ClockingScheme()
    mixed = len(netlists) > 1
    models = (
        [netlists[index % len(netlists)] for index in range(n_requests)]
        if mixed else None
    )
    scenario = OpenLoopScenario(
        rate_rps=rate_rps,
        n_requests=n_requests,
        arrival=arrival,
        seed=seed,
        size_mix=size_mix,
    )

    with SimulationServer(
        shards=shards,
        max_pending=max(n_requests, 1024),
        clocking=clocking,
        warm_netlists=netlists,
    ) as server:
        net = None
        client = None
        try:
            if socket_tier:
                net = SocketServer(server).start()
                client = SimulationClient(*net.address)
            report = run_open_loop(
                client if client is not None else server,
                None if mixed else netlists[0],
                scenario,
                clocking=clocking,
                netlists=models,
            )
        finally:
            if client is not None:
                client.close()
            if net is not None:
                net.close(drain=True)

    assert report.ledger_balanced, (
        f"{'+'.join(names)}: unbalanced ledger {report.ledger()}"
    )
    return {
        "benchmark": "+".join(names),
        "tier": "socket" if socket_tier else "in-process",
        "shards": shards,
        **report.as_dict(),
    }


def main(argv=None) -> int:
    args = parse_args(bench_parser(__doc__.splitlines()[0]), argv)

    cases = QUICK_CASES if args.quick else FULL_CASES
    rows = [bench_case(*case) for case in cases]
    document = {
        "bench": "serve_open_loop",
        "mode": "quick" if args.quick else "full",
        "meta": metadata("quick" if args.quick else "full"),
        "cases": rows,
    }
    emit(document, args.output)

    if not all(row["ledger"]["balanced"] for row in rows):
        print("FATAL: an open-loop ledger did not balance",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
