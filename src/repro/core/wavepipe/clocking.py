"""Three-phase regeneration clocking and wave-pipeline timing math.

In the studied technologies every component is a clocked, non-volatile cell:
a multi-phase clock regenerates data cell-to-cell (Fig. 4).  With ``p``
phases, a component at level L latches on phase ``L mod p``; a new data wave
can be injected every ``p`` phases, so a balanced circuit of depth ``d``
holds ``N = ceil(d / p)`` waves in flight simultaneously (the paper states
``N = d / 3`` for its three-phase scheme).

Timing quantities used throughout the evaluation (Table II):

* ``level_delay`` — the wall-clock duration of one level, i.e. one clock
  phase (a per-technology constant, see :mod:`repro.tech`);
* latency of a circuit of depth d: ``d * level_delay``;
* throughput, non-pipelined: ``1 / latency`` (a new input may only be
  applied once the previous wave has fully propagated);
* throughput, wave-pipelined: ``1 / (p * level_delay)`` — one wave retires
  every ``p`` phases regardless of depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import SimulationError

#: Phase count of the paper's clocking scheme (Fig. 4).
PAPER_PHASES = 3

#: Largest accepted phase count.  Compilation sizes per-phase tables by
#: the phase count, so a count from outside the program (a socket
#: frame) must be bounded before it reaches the engine.
MAX_PHASES = 64


@dataclass(frozen=True)
class ClockingScheme:
    """A p-phase regeneration clock.

    Parameters
    ----------
    n_phases:
        Number of clock phases; the paper uses 3.  At least 2 phases are
        required so that a cell's inputs are stable while it latches
        ("data regeneration is reciprocal and only the immediately
        neighboring cells are affected"), and at most
        :data:`MAX_PHASES`.
    """

    n_phases: int = PAPER_PHASES

    def __post_init__(self) -> None:
        if self.n_phases < 2:
            raise SimulationError(
                f"a regeneration clock needs >= 2 phases, got {self.n_phases}"
            )
        if self.n_phases > MAX_PHASES:
            raise SimulationError(
                f"a regeneration clock has at most {MAX_PHASES} phases, "
                f"got {self.n_phases}"
            )

    def phase_of_level(self, level: int) -> int:
        """Clock phase on which a component at *level* latches."""
        return level % self.n_phases

    def waves_in_flight(self, depth: int) -> int:
        """Simultaneously processed waves in a balanced depth-*depth* circuit."""
        if depth <= 0:
            return 0
        return -(-depth // self.n_phases)  # ceil(d / p)

    def wave_separation_levels(self) -> int:
        """Levels between consecutive waves (= the phase count)."""
        return self.n_phases

    # ------------------------------------------------------------------
    # wall-clock timing
    # ------------------------------------------------------------------
    def latency(self, depth: int, level_delay_ns: float) -> float:
        """End-to-end latency (ns) of one wave through a depth-d circuit."""
        return depth * level_delay_ns

    def pipelined_period(self, level_delay_ns: float) -> float:
        """Wave-to-wave period (ns) of the wave-pipelined circuit."""
        return self.n_phases * level_delay_ns

    def pipelined_throughput_mops(self, level_delay_ns: float) -> float:
        """Wave-pipelined throughput in MOPS (the paper's unit)."""
        return 1e3 / self.pipelined_period(level_delay_ns)

    def unpipelined_throughput_mops(
        self, depth: int, level_delay_ns: float
    ) -> float:
        """Non-pipelined throughput in MOPS (one wave at a time)."""
        if depth <= 0:
            raise SimulationError("throughput undefined for depth 0")
        return 1e3 / self.latency(depth, level_delay_ns)

    def speedup(self, depth: int) -> float:
        """Throughput gain of wave pipelining at equal level delay: d / p."""
        return depth / self.n_phases
