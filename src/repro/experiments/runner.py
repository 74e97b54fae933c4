"""Shared experiment driver: builds benchmarks and caches flow results.

All of the paper's evaluation artifacts (Figs. 5, 7, 8, 9 and Table II)
are derived from the same set of transformed netlists, so the experiments
share a :class:`SuiteRunner` that builds each benchmark once and memoizes
every (benchmark, configuration) flow result.

Configurations are named the way the paper's Fig. 8 names them:

* ``"BUF"``       — buffer insertion only;
* ``"FO<k>"``     — fan-out restriction to k only;
* ``"FO<k>+BUF"`` — the full wave-pipelining flow.  The paper's order
  restricts fan-out first, so it is buffer insertion on the memoized
  ``"FO<k>"`` result: each fan-out restriction runs once per benchmark.

Every result is verified: balance and the fan-out bound are asserted, and
so is equivalence to the benchmark MIG, which a flow result proves with a
structural certificate (:func:`~repro.core.wavepipe.verify.certify_equivalent`).
"""

from __future__ import annotations

import os
import re
from collections import OrderedDict
from typing import Iterable, Optional, Sequence

from ..core.mig import Mig
from ..core.wavepipe import (
    ClockingScheme,
    WaveNetlist,
    WavePipelineResult,
    WaveSimulationReport,
    insert_buffers,
    random_vectors,
    simulate_streams,
    simulate_waves,
    wave_pipeline,
)
from ..errors import ReproError
from ..suite.table import QUICK_SUITE, SUITE, BenchmarkSpec

#: Cap on memoized simulation reports per runner (see :class:`_LruCache`).
#: Reports are per-(benchmark, config, waves, ...) key; under a serving
#: workload the key space is unbounded, so the memo evicts
#: least-recently-used entries past this many.  64 comfortably covers
#: every artifact of one `repro experiments` run (the artifacts revisit
#: the same few keys) while bounding a long-lived runner's footprint.
SIMULATION_CACHE_LIMIT = 64


class _LruCache(OrderedDict):
    """Least-recently-used mapping with a fixed capacity.

    A plain :class:`OrderedDict` with recency maintained on lookup and
    eviction on insert — enough for the runner's memo; not thread-safe
    (neither is the rest of the runner).
    """

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.limit:
            self.popitem(last=False)

def _stream_digest(stream) -> tuple:
    """Exact, compact memo-key component for one wave stream.

    ``(shape, packed bytes)`` is injective over boolean payloads — the
    shape disambiguates :func:`numpy.packbits` zero-padding — and costs
    one C pass instead of building a nested Python tuple per call.
    """
    import numpy as np

    block = np.asarray(stream, dtype=bool)
    return (
        block.shape,
        np.packbits(block, axis=None).tobytes() if block.size else b"",
    )


_CONFIG_PATTERN = re.compile(r"^(?:BUF|FO([2-9])(\+BUF)?)$")


def parse_config(config: str) -> tuple[Optional[int], bool]:
    """Decode a configuration name into (fanout_limit, balance)."""
    match = _CONFIG_PATTERN.match(config)
    if not match:
        raise ReproError(
            f"unknown configuration {config!r}; use 'BUF', 'FOk', 'FOk+BUF'"
        )
    if config == "BUF":
        return None, True
    limit = int(match.group(1))
    return limit, match.group(2) is not None


def active_suite() -> tuple[BenchmarkSpec, ...]:
    """Benchmark set selected by the ``REPRO_SUITE`` environment variable.

    ``REPRO_SUITE=full`` runs all 37 paper benchmarks; anything else (the
    default) uses the quick subset so tests and smoke benches stay fast.
    """
    if os.environ.get("REPRO_SUITE", "").lower() == "full":
        return SUITE
    return QUICK_SUITE


class SuiteRunner:
    """Builds suite benchmarks and memoizes wave-pipelining flow results."""

    def __init__(self, specs: Optional[Iterable[BenchmarkSpec]] = None):
        self.specs: tuple[BenchmarkSpec, ...] = tuple(
            specs if specs is not None else active_suite()
        )
        self._migs: dict[str, Mig] = {}
        self._netlists: dict[str, WaveNetlist] = {}
        self._results: dict[tuple[str, str], WavePipelineResult] = {}
        #: ("waves", ...) -> report; ("streams", ...) -> list of reports.
        #: LRU-bounded: serving-style workloads sweep an unbounded key
        #: space (seeds, wave counts), and reports can be large.
        self._simulations: _LruCache = _LruCache(SIMULATION_CACHE_LIMIT)

    # ------------------------------------------------------------------
    def spec(self, name: str) -> BenchmarkSpec:
        """Spec of one benchmark in this runner's suite."""
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise ReproError(f"benchmark {name!r} is not in this runner's suite")

    def mig(self, name: str) -> Mig:
        """The benchmark MIG (built once)."""
        if name not in self._migs:
            self._migs[name] = self.spec(name).build()
        return self._migs[name]

    def netlist(self, name: str) -> WaveNetlist:
        """The original (untransformed) wave netlist of a benchmark."""
        if name not in self._netlists:
            self._netlists[name] = WaveNetlist.from_mig(self.mig(name))
        return self._netlists[name]

    def run(self, name: str, config: str) -> WavePipelineResult:
        """Run (or recall) one configuration on one benchmark."""
        key = (name, config)
        if key not in self._results:
            limit, balance = parse_config(config)
            if limit is not None and balance:
                restricted = self.run(name, f"FO{limit}")
                buffers = insert_buffers(restricted.netlist, fanout_limit=limit)
                result = WavePipelineResult(
                    original=restricted.original,
                    netlist=buffers.netlist,
                    fanout_limit=limit,
                    fanout_result=restricted.fanout_result,
                    buffer_result=buffers,
                )
            else:
                result = wave_pipeline(
                    self.netlist(name),
                    fanout_limit=limit,
                    balance=balance,
                    verify=False,
                    order="fo-first",
                )
            self._verify(result, limit, balance, name)
            self._results[key] = result
        return self._results[key]

    def _verify(
        self,
        result: WavePipelineResult,
        limit: Optional[int],
        balance: bool,
        name: str,
    ) -> None:
        from ..core.wavepipe.verify import (
            assert_balanced,
            assert_fanout,
            check_equivalent_to_mig,
        )

        if balance:
            assert_balanced(result.netlist, f"{name}")
        if limit is not None:
            assert_fanout(result.netlist, limit, f"{name}")
        if not check_equivalent_to_mig(result.netlist, self.mig(name)):
            raise ReproError(f"{name}: flow broke functional equivalence")

    # ------------------------------------------------------------------
    @staticmethod
    def _check_engine(engine: str) -> None:
        """Reject unknown engine names *before* the expensive flow runs."""
        from ..core.wavepipe.simulator import _check_engine

        _check_engine(engine)

    def simulate(
        self,
        name: str,
        config: str = "FO3+BUF",
        n_waves: int = 64,
        engine: str = "packed",
        n_phases: int = 3,
        pipelined: bool = True,
        seed: int = 0,
    ) -> WaveSimulationReport:
        """Phase-accurate simulation of one transformed benchmark (memoized).

        Drives *n_waves* seeded random input waves through the netlist of
        ``run(name, config)`` under an ``n_phases`` regeneration clock.  The
        default ``engine="packed"`` uses the bit-packed batched engine, so
        dynamic validation stays cheap even on the full suite.  Both
        engines return bit-identical reports, so the memo key deliberately
        ignores *engine* — asking for the other engine recalls the cached
        report instead of re-simulating.  The memo holds at most
        :data:`SIMULATION_CACHE_LIMIT` reports (least-recently-used
        eviction), so long-lived runners stay bounded.
        """
        self._check_engine(engine)
        key = ("waves", name, config, n_waves, n_phases, pipelined, seed)
        if key not in self._simulations:
            netlist = self.run(name, config).netlist
            vectors = random_vectors(netlist.n_inputs, n_waves, seed=seed)
            self._simulations[key] = simulate_waves(
                netlist,
                vectors,
                clocking=ClockingScheme(n_phases),
                pipelined=pipelined,
                engine=engine,
            )
        return self._simulations[key]

    def simulate_streams(
        self,
        name: str,
        config: str = "FO3+BUF",
        n_streams: int = 8,
        n_waves: int = 64,
        engine: str = "packed",
        n_phases: int = 3,
        pipelined: bool = True,
        seed: int = 0,
        streams: Optional[
            Sequence[Sequence[Sequence[bool]]]
        ] = None,
    ) -> list[WaveSimulationReport]:
        """Batched simulation of many independent wave streams (memoized).

        The serving scenario: *n_streams* seeded random streams of
        *n_waves* each (stream *k* uses ``seed + k``) are packed across
        bit-lanes and driven through ``run(name, config)`` in one pass.
        Explicit *streams* payloads (the serving layer drives the runner
        this way) override the seeded generation; *n_streams*, *n_waves*
        and *seed* are then ignored.

        Returns one report per stream.  As with :meth:`simulate`, the
        memo key ignores *engine* because the reports are bit-identical,
        and the shared memo is LRU-bounded at
        :data:`SIMULATION_CACHE_LIMIT` entries.  Seeded generation keys
        on the generating parameters (which fully determine the
        payload); explicit *streams* key on an **exact digest of the
        full payload** (per-stream shape + bit-packed bytes, one C pass)
        — two stream sets with equal counts and lengths but different
        payloads must never alias one memo entry, which a
        ``(count, length, seed)``-style key would silently allow.
        """
        self._check_engine(engine)
        if streams is None:
            key = (
                "streams", name, config, n_streams, n_waves, n_phases,
                pipelined, seed,
            )
        else:
            key = (
                "streams-payload", name, config, n_phases, pipelined,
                tuple(_stream_digest(stream) for stream in streams),
            )
        if key not in self._simulations:
            netlist = self.run(name, config).netlist
            if streams is None:
                streams = [
                    random_vectors(
                        netlist.n_inputs, n_waves, seed=seed + k
                    )
                    for k in range(n_streams)
                ]
            self._simulations[key] = simulate_streams(
                netlist,
                list(streams),
                clocking=ClockingScheme(n_phases),
                pipelined=pipelined,
                engine=engine,
            )
        return self._simulations[key]

    # ------------------------------------------------------------------
    def run_suite(self, config: str) -> dict[str, WavePipelineResult]:
        """Run one configuration across the whole suite."""
        return {spec.name: self.run(spec.name, config) for spec in self.specs}

    @property
    def names(self) -> list[str]:
        """Benchmark names in suite order."""
        return [spec.name for spec in self.specs]
