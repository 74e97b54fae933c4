"""The repository benchmark: whole-job timings and a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload flow --seed 1 --seconds 25 --trace 0

Workloads, metrics and the layer-to-metric mapping are described in
``perfbench/README.md`` and listed in ``BENCHMARK.json``.  The benchmark
only calls public functions of ``repro`` and reads its public counters;
it imports the package from the checkout's ``src`` directory.
"""
