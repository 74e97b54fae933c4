"""Run one workload of the repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flow --seed 1 --seconds 25 --trace 0

Workloads: ``flow``, ``serve``, ``serve_wire`` and ``stream`` (see
``perfbench/README.md``).  ``--trace 1`` measures a second, traced
window and prints the per-layer table.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is 0 only when every output matched the
reference.  The program is imported from the checkout's ``src``
directory: without it the run fails before printing a result.  On every
way out, the run stops and waits for each process it started.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import signal
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stop_children() -> None:
    """Stop and wait for every process this run started.

    The workloads close what they start; this catches what an error left
    behind, and multiprocessing's resource tracker, which the first
    spawned process shard starts and which would otherwise outlive this
    process by design.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    # import the program and the benchmark package from this checkout only
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")
        return 2
    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, correct = run(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    # required: process shards start by spawn and re-import this module
    # SIGTERM unwinds like an exception, so the teardowns below still run
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
