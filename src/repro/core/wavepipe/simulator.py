"""Phase-accurate simulation of wave-pipelined netlists.

This is the executable model of Fig. 4: every component is a clocked
non-volatile cell; a component at level L latches on clock phase
``L mod p``; the inputs latch a fresh data wave every ``p`` phases.

The simulator tracks, per component, both the Boolean value and the *wave
id* it belongs to.  On a balanced netlist every component always combines
fan-ins of a single wave and the outputs retire one coherent wave every
``p`` phases — which the simulator cross-checks against the golden
(functional) model.  On an unbalanced netlist waves interfere: a component
sees fan-ins from different waves, which the simulator reports as
:class:`WaveInterference` events (and optionally raises).

This gives the library an end-to-end, dynamic proof of the paper's premise:
path balancing is exactly what makes multi-wave operation safe.

Engines
-------
:func:`simulate_waves` is a front-end over two interchangeable engines that
produce identical :class:`WaveSimulationReport` objects (same outputs, same
interference events, in the same order):

``engine="python"``
    The reference oracle implemented in this module: one Boolean and one
    wave id per component, advanced with plain Python loops.  Simple to
    audit, but it walks every component of the active phase on every clock
    step, so it tops out around 10^3 components.

``engine="packed"``
    The bit-packed batched engine, 64 waves per ``uint64`` word, tables
    compiled once per netlist revision.  A *wave-ready* run (balanced
    netlist, injections at least ``p`` steps apart: the paper's Section
    IV condition, under which no wave meets another) takes the
    *functional pass* of :mod:`repro.core.wavepipe.kernels`: each wave's
    outputs are the netlist's combinational function of its own inputs,
    evaluated one MAJ level per array operation.  Every other run, and
    any run with ``track=True``, steps the *tracked* loop: wave lanes
    packed into an ``(n_components, n_words)`` state matrix plus a wave
    id per component and lane, as the oracle keeps, one clock phase per
    step, with warm-up/forward lane overlap only on unbalanced netlists
    so that coupled adjacent waves — interference included — stay
    bit-identical to the reference engine.  This is the engine that
    reaches the paper's 10^5-component netlists (e.g. DIFFEQ1's 306 937
    components) and the roadmap's 10^5-wave streams.

:func:`simulate_streams` batches many *independent* wave streams (the
serving scenario: one request = one stream) through the same netlist in a
single packed pass; each returned report is bit-identical to running
:func:`simulate_waves` on that stream alone.

The scalar loop stays the semantic definition; the packed engine is
property-tested against it (see ``tests/test_batch_engine.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ...errors import SimulationError
from .clocking import ClockingScheme
from .components import Kind, WaveNetlist

#: Engine names accepted by :func:`simulate_waves`.
ENGINES = ("python", "packed")


def random_vectors(
    n_inputs: int, n_waves: int, seed: int = 0
) -> list[list[bool]]:
    """Seeded uniform random wave vectors (the drivers' shared convention).

    The CLI, the experiment runner, and the benchmarks all generate their
    stimulus through this one helper so their reports stay comparable.
    """
    rng = random.Random(seed)
    return [
        [rng.random() < 0.5 for _ in range(n_inputs)] for _ in range(n_waves)
    ]


@dataclass(frozen=True)
class WaveInterference:
    """A component combined fan-ins belonging to different waves."""

    step: int
    component: int
    wave_ids: tuple[int, ...]


@dataclass(eq=False)
class WaveSimulationReport:
    """Outcome of :func:`simulate_waves`.

    ``bits`` holds the retired outputs as one read-only ``(waves,
    n_outputs)`` bool matrix: row *w* is wave *w*'s output vector.  Every
    engine returns this form, the packed engine's reports are row slices
    of one batch matrix, and the wire codec ships it as a raw buffer, so
    no per-wave Python object is built anywhere on the serving path.
    :attr:`outputs` is the same bits as one ``list[bool]`` per wave,
    built on first read and kept.

    Two reports are equal when their scalar fields and interference
    events are equal and their ``bits`` have the same dtype and shape and
    every bit equal (:meth:`__eq__`; dataclass equality would raise on
    the array field).
    """

    bits: np.ndarray
    latency_steps: int
    steps_run: int
    waves_injected: int
    waves_retired: int
    interference: list[WaveInterference] = field(default_factory=list)
    _rows: Optional[list[list[bool]]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.bits.flags.writeable:
            # a read-only view: the caller's own array stays writable
            self.bits = self.bits.view()
            self.bits.flags.writeable = False

    @property
    def outputs(self) -> list[list[bool]]:
        """:attr:`bits` as one list of bools per wave (built once).

        The list is made on first read and the same object is returned
        afterwards; :attr:`bits` and :meth:`__eq__` never read it.
        """
        if self._rows is None:
            self._rows = self.bits.tolist()
        return self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WaveSimulationReport):
            return NotImplemented
        return (
            self.latency_steps == other.latency_steps
            and self.steps_run == other.steps_run
            and self.waves_injected == other.waves_injected
            and self.waves_retired == other.waves_retired
            and self.interference == other.interference
            and self.bits.dtype == other.bits.dtype
            and self.bits.shape == other.bits.shape
            and bool(np.array_equal(self.bits, other.bits))
        )

    @property
    def coherent(self) -> bool:
        """True when no wave interference occurred."""
        return not self.interference

    def measured_throughput(self) -> float:
        """Retired waves per simulation step, end to end.

        The denominator includes the pipeline fill (the ``depth`` steps
        before the first retirement) and the final drain step, so short
        streams under-report the paper's sustained rate; use
        :meth:`steady_state_throughput` for the 1/p steady-state claim.
        """
        if self.steps_run == 0:
            return 0.0
        return self.waves_retired / self.steps_run

    def steady_state_throughput(self) -> float:
        """Waves retired per step between the first and last retirement.

        This is the paper's sustained rate: the fill/drain latency is
        excluded, so a pipelined run measures exactly ``1/p`` and a
        non-pipelined run ``1/(ceil(depth/p) * p)`` regardless of stream
        length.  With fewer than two retirements there is no steady-state
        interval and the end-to-end rate is returned instead.
        """
        if self.waves_retired < 2:
            return self.measured_throughput()
        # retirements happen at steps depth, depth+s, ..., steps_run-1
        span = self.steps_run - 1 - self.latency_steps
        return (self.waves_retired - 1) / span


def _check_engine(engine: str) -> None:
    """Reject unknown engine names (the one shared message for every
    front-end: :func:`simulate_waves`, :func:`simulate_streams`, and the
    experiment runner)."""
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown simulation engine {engine!r}; choose from {ENGINES}"
        )


def _validate_vectors(
    netlist: WaveNetlist, vectors: Sequence[Sequence[bool]]
) -> None:
    """Shared input validation (identical errors from both engines)."""
    # hoisted out of the loop: a 10^4-wave serving batch validates every
    # wave, and the property access is pure overhead beside len()
    n_inputs = netlist.n_inputs
    if (
        isinstance(vectors, np.ndarray)
        and vectors.ndim == 2
    ):
        # rectangular block (the serving wire format): one shape check
        # stands in for every per-wave check, same error text
        if vectors.shape[0] and vectors.shape[1] != n_inputs:
            raise SimulationError(
                f"wave 0 has {vectors.shape[1]} bits, expected "
                f"{n_inputs}"
            )
        return
    for wave, vector in enumerate(vectors):
        if len(vector) != n_inputs:
            raise SimulationError(
                f"wave {wave} has {len(vector)} bits, expected "
                f"{n_inputs}"
            )


def _empty_report(depth: int, n_outputs: int) -> WaveSimulationReport:
    """Clean report for an empty wave list: zero steps, nothing retired,
    a ``(0, n_outputs)`` bit matrix."""
    return WaveSimulationReport(
        bits=np.zeros((0, n_outputs), dtype=bool),
        latency_steps=depth,
        steps_run=0,
        waves_injected=0,
        waves_retired=0,
        interference=[],
    )


def wave_separation(depth: int, n_phases: int, pipelined: bool) -> int:
    """Clock steps between consecutive wave injections.

    Inputs can only latch on their own phase, so the separation is always a
    whole number of clock cycles: ``p`` when pipelined, else the first cycle
    boundary at or after the full propagation delay.
    """
    if pipelined:
        return n_phases
    return -(-depth // n_phases) * n_phases


def simulate_waves(
    netlist: WaveNetlist,
    vectors: Sequence[Sequence[bool]],
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    strict: bool = False,
    engine: str = "python",
) -> WaveSimulationReport:
    """Drive *vectors* through *netlist* under a regeneration clock.

    Parameters
    ----------
    vectors:
        One input vector (bool per input) per wave, injected in order.
    pipelined:
        When True a new wave is injected every ``p`` phases (wave
        pipelining); when False the next wave waits for the previous one to
        retire (the paper's non-pipelined baseline).
    strict:
        Raise :class:`SimulationError` on the first interference instead of
        recording it.
    engine:
        ``"python"`` for the scalar reference loop, ``"packed"`` for the
        bit-packed batched numpy engine (identical reports, see the module
        docstring).

    Returns
    -------
    A report whose ``bits[w]`` is the output vector of wave *w*.
    """
    _check_engine(engine)
    clocking = clocking or ClockingScheme()
    if engine == "packed":
        from .batch import simulate_waves_packed

        return simulate_waves_packed(
            netlist, vectors, clocking=clocking,
            pipelined=pipelined, strict=strict,
        )
    return _simulate_waves_python(netlist, vectors, clocking, pipelined, strict)


def simulate_streams(
    netlist: WaveNetlist,
    streams: Sequence[Sequence[Sequence[bool]]],
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    strict: bool = False,
    engine: str = "packed",
) -> list[WaveSimulationReport]:
    """Drive many independent wave streams through *netlist* in one batch.

    Each element of *streams* is a complete wave sequence (the ``vectors``
    argument of :func:`simulate_waves`); the result holds one report per
    stream, bit-identical to simulating that stream alone.  This is the
    serving front-end: with ``engine="packed"`` (the default) all streams
    are packed side by side across bit-lanes and advance together in a
    single pass, so the cost of one netlist sweep is shared by the whole
    batch.  ``engine="python"`` simulates the streams one after another
    with the scalar oracle (the reference for tests).

    In strict mode the first stream (in order) with interference raises,
    with the same message from both engines.
    """
    _check_engine(engine)
    clocking = clocking or ClockingScheme()
    if engine == "packed":
        from .batch import simulate_streams_packed

        return simulate_streams_packed(
            netlist, streams, clocking=clocking,
            pipelined=pipelined, strict=strict,
        )
    # validate the whole batch up front (the packed engine does the same),
    # so a malformed later stream or an unsimulatable netlist reports
    # before an earlier stream simulates — and identically for an empty
    # batch, where the per-stream loop would never run the checks
    for vectors in streams:
        _validate_vectors(netlist, vectors)
    if netlist.depth() == 0:
        raise SimulationError("cannot wave-simulate a depth-0 netlist")
    return [
        _simulate_waves_python(netlist, vectors, clocking, pipelined, strict)
        for vectors in streams
    ]


def _simulate_waves_python(
    netlist: WaveNetlist,
    vectors: Sequence[Sequence[bool]],
    clocking: ClockingScheme,
    pipelined: bool,
    strict: bool,
) -> WaveSimulationReport:
    """The scalar reference engine (semantic definition of the model)."""
    _validate_vectors(netlist, vectors)
    p = clocking.n_phases
    levels = netlist.levels()
    depth = netlist.depth(levels)
    if depth == 0:
        raise SimulationError("cannot wave-simulate a depth-0 netlist")
    if not len(vectors):
        return _empty_report(depth, netlist.n_outputs)

    # Components grouped by latching phase, deepest first within a phase:
    # when an unbalanced netlist connects two same-phase components, the
    # consumer must read the value *before* this step's update (all cells
    # latch simultaneously in hardware).
    by_phase: list[list[int]] = [[] for _ in range(p)]
    for component in netlist.clocked_components():
        by_phase[clocking.phase_of_level(levels[component])].append(component)
    for group in by_phase:
        group.sort(key=lambda component: -levels[component])

    n = netlist.n_components
    value = [False] * n
    wave_of = [-1] * n
    value[0] = False  # constant cell
    wave_of[0] = -2  # sentinel: constants belong to every wave

    inputs = netlist.inputs
    outputs = netlist.outputs
    output_level = depth  # balanced netlists retire at the common depth

    separation = wave_separation(depth, p, pipelined)
    n_waves = len(vectors)
    results: list[list[bool]] = [None] * n_waves  # type: ignore[list-item]
    interference: list[WaveInterference] = []

    retired = 0
    injected = 0
    last_injection_step = (n_waves - 1) * separation
    total_steps = last_injection_step + depth + 1

    for step in range(total_steps):
        phase = step % p
        # 1) inject: inputs latch on phase 0 of their separation slot
        if step % separation == 0 and step <= last_injection_step:
            wave = step // separation
            vector = vectors[wave]
            for position, component in enumerate(inputs):
                value[component] = bool(vector[position])
                wave_of[component] = wave
            injected += 1
        # 2) clocked components on this phase latch from their neighbours
        # (deepest-first order, see above).
        for component in by_phase[phase]:
            fanins = netlist.fanins(component)
            ids = set()
            bits = []
            warming_up = False
            for lit in fanins:
                node = lit >> 1
                bit = value[node] ^ bool(lit & 1)
                bits.append(bit)
                if node == 0:
                    continue
                if wave_of[node] == -1:
                    warming_up = True  # fan-in has not seen any wave yet
                elif wave_of[node] >= 0:
                    ids.add(wave_of[node])
            if len(ids) > 1:
                event = WaveInterference(step, component, tuple(sorted(ids)))
                if strict:
                    raise SimulationError(
                        f"wave interference at step {step}, component "
                        f"{component}: waves {event.wave_ids}"
                    )
                interference.append(event)
            if netlist.kind(component) == Kind.MAJ:
                a, b, c = bits
                value[component] = (a and b) or (a and c) or (b and c)
            else:  # BUF / FOG are identity
                value[component] = bits[0]
            if warming_up:
                wave_of[component] = -1
            else:
                wave_of[component] = max(ids) if ids else -2
        # 3) retire: read outputs when a wave reaches the output level
        ready_wave = (step - output_level) // separation
        if (
            step >= output_level
            and (step - output_level) % separation == 0
            and ready_wave < n_waves
            and output_level % p == phase
        ):
            results[ready_wave] = [
                value[lit >> 1] ^ bool(lit & 1) for lit in outputs
            ]
            retired += 1

    if any(result is None for result in results):
        raise SimulationError("simulation ended before every wave retired")

    return WaveSimulationReport(
        bits=np.array(results, dtype=bool).reshape(n_waves, len(outputs)),
        latency_steps=depth,
        steps_run=total_steps,
        waves_injected=injected,
        waves_retired=retired,
        interference=interference,
    )


def golden_outputs(
    netlist: WaveNetlist, vectors: Sequence[Sequence[bool]]
) -> list[list[bool]]:
    """Reference (functional) outputs for comparison with the wave model."""
    from ..simulate import simulate_vectors

    return simulate_vectors(netlist.to_mig(), vectors)
