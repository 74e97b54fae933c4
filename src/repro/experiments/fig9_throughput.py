"""Fig. 9, throughput view: measured waves/step vs the analytic 1/p.

The paper's central dynamic claim is that a wave-pipelined (balanced,
fan-out restricted) netlist sustains one wave per clock cycle — ``1/p``
waves per phase step under the ``p``-phase regeneration clock — while the
non-pipelined baseline retires one wave per ``ceil(depth/p)`` cycles.
This artifact measures both on the phase-accurate simulator (through
:meth:`SuiteRunner.simulate`, whose packed engine steps every clock
phase instead of taking the functional pass a wave-ready netlist
allows) and compares against the analytic rates.

Two measured columns per mode tell the measurement story:

* ``steady`` — :meth:`WaveSimulationReport.steady_state_throughput`,
  the rate between the first and last retirement.  This is the paper's
  sustained figure and matches the analytic value exactly.
* ``end-to-end`` — :meth:`WaveSimulationReport.measured_throughput`,
  which still contains the pipeline fill/drain latency and therefore
  under-reports short streams (the former reporting bug).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..analysis.plots import bar_chart
from ..analysis.stats import arithmetic_mean
from ..analysis.tables import render_table, write_csv
from .runner import SuiteRunner

CONFIG = "FO3+BUF"
N_PHASES = 3
N_WAVES = 96

_HEADERS = (
    "benchmark",
    "depth",
    "pipelined steady (waves/step)",
    "analytic 1/p",
    "pipelined end-to-end",
    "non-pipelined steady",
    "analytic non-pipelined",
    "throughput gain (x)",
)


@dataclass(frozen=True)
class ThroughputRow:
    """Measured and analytic throughput of one benchmark."""

    benchmark: str
    depth: int
    pipelined_steady: float
    pipelined_end_to_end: float
    non_pipelined_steady: float
    analytic_pipelined: float
    analytic_non_pipelined: float

    @property
    def gain(self) -> float:
        """Wave-pipelining speedup: sustained pipelined / non-pipelined."""
        return self.pipelined_steady / self.non_pipelined_steady


@dataclass(frozen=True)
class Fig9ThroughputResult:
    """Throughput sweep across the suite under the FO3+BUF flow."""

    per_benchmark: tuple[ThroughputRow, ...]
    n_waves: int

    def mean_gain(self) -> float:
        return arithmetic_mean([row.gain for row in self.per_benchmark])

    def rows(self) -> list[tuple]:
        return [
            (
                row.benchmark,
                row.depth,
                round(row.pipelined_steady, 4),
                round(row.analytic_pipelined, 4),
                round(row.pipelined_end_to_end, 4),
                round(row.non_pipelined_steady, 4),
                round(row.analytic_non_pipelined, 4),
                round(row.gain, 2),
            )
            for row in self.per_benchmark
        ]

    def render(self) -> str:
        chart = bar_chart(
            [row.benchmark for row in self.per_benchmark],
            [row.gain for row in self.per_benchmark],
            title="Fig. 9 (throughput): pipelined / non-pipelined waves/step",
        )
        table = render_table(
            _HEADERS,
            self.rows(),
            title=f"Fig. 9 throughput data ({self.n_waves} waves, "
            f"{N_PHASES} phases)",
            precision=4,
        )
        summary = (
            f"mean sustained gain: {self.mean_gain():.2f}x "
            f"(analytic: one wave per cycle when pipelined)"
        )
        return f"{chart}\n\n{table}\n\n{summary}"

    def to_csv(self, path: str | Path) -> Path:
        return write_csv(path, _HEADERS, self.rows())


def run(
    runner: SuiteRunner | None = None, n_waves: int = N_WAVES
) -> Fig9ThroughputResult:
    """Measure pipelined vs non-pipelined throughput across the suite."""
    runner = runner or SuiteRunner()
    rows = []
    for name in runner.names:
        pipelined = runner.simulate(
            name, CONFIG, n_waves=n_waves, n_phases=N_PHASES, pipelined=True
        )
        sequential = runner.simulate(
            name, CONFIG, n_waves=n_waves, n_phases=N_PHASES, pipelined=False
        )
        depth = pipelined.latency_steps
        cycles_per_wave = -(-depth // N_PHASES)  # ceil: first free cycle
        rows.append(
            ThroughputRow(
                benchmark=name,
                depth=depth,
                pipelined_steady=pipelined.steady_state_throughput(),
                pipelined_end_to_end=pipelined.measured_throughput(),
                non_pipelined_steady=sequential.steady_state_throughput(),
                analytic_pipelined=1.0 / N_PHASES,
                analytic_non_pipelined=1.0 / (cycles_per_wave * N_PHASES),
            )
        )
    return Fig9ThroughputResult(per_benchmark=tuple(rows), n_waves=n_waves)
