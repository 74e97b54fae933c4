"""Bit-packed, batched engine for phase-accurate wave simulation.

This module is the high-throughput implementation behind
``simulate_waves(..., engine="packed")`` and the batched multi-stream
front-end :func:`~repro.core.wavepipe.simulator.simulate_streams`.  It
produces reports that are bit-identical to the scalar reference loop in
:mod:`repro.core.wavepipe.simulator` — same outputs, same
:class:`~repro.core.wavepipe.simulator.WaveInterference` events in the same
order — while evaluating the whole netlist with compiled word operations.

This module owns the *planning* half of the engine: which kernel a run
takes, lane planning, injection packing, and report building.  The
kernels live in :mod:`repro.core.wavepipe.kernels`.

Architecture
------------
**Two kernels, chosen per run.**  A *wave-ready* run — balanced netlist,
injections at least ``p`` steps apart
(:func:`~repro.core.wavepipe.kernels.can_elide_tracking`) — takes the
*functional pass* unless ``track=True`` forces the step loop: its
``(waves, inputs)`` bit table is packed 64 waves per word and the
compiled netlist's :class:`~repro.core.wavepipe.kernels.FunctionalNetlist`
evaluates it one MAJ level per array operation.  It plans no lanes; its
reports carry ``latency_steps = depth``, ``steps_run = (n - 1) *
separation + depth + 1``, every wave injected and retired, and no
events, exactly as the scalar oracle reports them.  Every other run
steps the tracked loop, planned as follows.

**Tracked runs: 64 lanes per word, unbounded words.**  The wave sequence
is split into contiguous chunks ("lanes"); lane *b* carries bit ``b mod
64`` of word ``b // 64`` in every row of the ``(n_components, n_words)``
``uint64`` state matrix, so one array operation advances every lane of
every component of the active clock phase.  The planner balances the
loop's fixed per-step cost (:data:`PLANNER_STEP_OVERHEAD`) against
``components x lanes`` array traffic, caps itself at
:data:`MAX_PLANNED_WORDS` words, and is bypassed by an explicit
``lanes=`` override (the property tests and benchmarks pin word
boundaries with it); a run that takes the functional pass has no plan
and refuses ``lanes=``.

**Overlap only where interference is possible.**  On a wave-ready run
each lane simulates its chunk alone, from a cold state, until its last
wave retires.  Only an unbalanced netlist couples adjacent waves, so only
there does a lane re-simulate a warm-up prefix (the waves injected
during the last ``depth * p`` steps, rounded up to whole injection
slots, plus one) and a forward suffix (``ceil(depth / separation)``
waves) around its chunk.  Either way every value, wave id, and
interference decision inside a lane's *kept* step region depends only on
injections the lane performed itself, so it equals the single-stream
reference exactly.  The kept regions tile the reference timeline ``[0,
total_steps)``, which makes merging trivial: events are filtered per
lane and sorted by (absolute step, within-phase order) — the same order
the scalar loop emits them — and the kept (lane, slot) retirements
enumerate the global wave sequence in order.

**Independent streams share one pass.**  :func:`simulate_streams_packed`
runs many *independent* wave streams (the serving scenario: one request
= one stream) as one functional pass over their concatenated waves, or
as one step loop in which every stream owns a group of lanes.  No
stream's bits ever meet another's, so each report equals running
:func:`simulate_waves` on that stream alone.  Lane plans are memoized on
the batch shape, since serving traffic repeats a few shapes.

**One lane codec.**  Bits become words, and words bits, through
``np.packbits`` / ``np.unpackbits`` (``bitorder="little"``, eight bytes
viewed as one little-endian word).

**Streaming sessions.**  :func:`open_packed_session` returns a
:class:`PackedSession` that takes waves in ``feed()`` chunks and runs
the pending ones together as one block.  Sessions require a wave-ready
netlist — on an unbalanced one a wave's outputs depend on waves injected
*after* it, so a chunked feed sequence could not reproduce the solo run
bit-identically even in principle.  On a wave-ready netlist blocks need
no state from one another, and ``tests/test_streaming.py`` asserts that
any split of a wave schedule into feeds matches the solo run of the
concatenation, bit for bit, on either kernel.

The scalar engine remains the oracle; ``tests/test_batch_engine.py`` and
``tests/test_kernels.py`` property-test this module against it on
balanced and deliberately unbalanced netlists across phase counts,
injection modes, lane overrides straddling word boundaries, multi-stream
batches, and both kernels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ...errors import SessionClosed, SimulationError
from .clocking import ClockingScheme
from .components import WaveNetlist
from .kernels import (
    CompiledWaveNetlist,
    FunctionalNetlist,
    can_elide_tracking,
    compile_netlist,
    run_plan,
)
from .simulator import (
    WaveInterference,
    WaveSimulationReport,
    _empty_report,
    _validate_vectors,
    wave_separation,
)

#: Wave streams carried per packed state word.
LANES_PER_WORD = 64

#: Soft cap on the number of state words the *planner* chooses (the
#: ``lanes=`` override and the one-lane-per-stream floor are unbounded).
#: 16 words = 1024 lanes keeps the step loop's int32 wave-id matrix at
#: 4 KiB per component; past that, a wider state matrix stops paying for
#: its memory traffic, and on unbalanced netlists every extra lane also
#: re-simulates its warm-up.
MAX_PLANNED_WORDS = 16

#: Planner calibration: the tracked step loop's fixed per-step cost
#: (interpreter dispatch plus the width-independent array walks), in
#: component-lane units — one int32 wave-id element processed is one
#: unit.  Measured on the suite's ctrl/i2c netlists; only the order of
#: magnitude matters, as the optimum is flat for roughly a decade around
#: it (``benchmarks/bench_planner_overhead.py`` sweeps it and shows the
#: plateau).
PLANNER_STEP_OVERHEAD = 400_000


@dataclass(frozen=True)
class _LanePlan:
    """How one or more wave streams are distributed across packed lanes.

    All per-lane arrays are indexed by the *global* lane number; lanes of
    one stream are contiguous.  ``base`` indexes the concatenated wave/bit
    table shared by every stream, while ``wave0`` is the same quantity in
    the lane's own stream's numbering (used for reported wave ids).
    """

    n_lanes: int
    n_words: int  # ceil(n_lanes / 64) packed state words
    stream: np.ndarray  # stream id per lane
    chunk: np.ndarray  # waves owned per lane
    warm: np.ndarray  # warm-up waves re-simulated before the chunk
    base: np.ndarray  # first injected wave per lane, global numbering
    wave0: np.ndarray  # first injected wave per lane, stream numbering
    n_inj: np.ndarray  # injection slots per lane (warm + chunk + forward)
    offset: np.ndarray  # stream-absolute step of a lane's local step 0
    keep_lo: np.ndarray  # local step where the lane's kept region starts
    keep_hi: np.ndarray  # local step where the lane's kept region ends
    stream_waves: np.ndarray  # waves per stream
    stream_base: np.ndarray  # first global wave index per stream
    stream_steps: np.ndarray  # reference timeline length per stream
    local_steps: int  # steps every lane actually advances


def _overlap_slots(
    depth: int, n_phases: int, separation: int, balanced: bool
) -> tuple[int, int]:
    """Warm-up and forward overlap of one lane, in injection slots.

    Zero and zero exactly when
    :func:`~repro.core.wavepipe.kernels.can_elide_tracking` holds (a
    wave-ready run forced through the step loop): a wave's outputs then
    depend on its own inputs alone, so a lane starts cold at its first
    wave (seeing only the warming id ``-1`` before it) and stops when its
    last retires.

    Otherwise the dependence window of one state read, in clock steps: a
    fan-in chain has at most ``depth`` links, and a link steps back up to
    ``p`` steps (the fan-in cell's previous latch).  One extra slot
    absorbs the injection grid (an input holds its last wave for up to
    ``separation`` steps).  The forward overlap covers the drain: on an
    unbalanced netlist a short path can deliver a *later* wave to an
    output driver while a kept wave retires.
    """
    if balanced and separation >= n_phases:
        return 0, 0
    warm_slots = -(-(depth * n_phases) // separation) + 1
    forward_slots = -(-depth // separation)
    return warm_slots, forward_slots


def _default_lane_count(
    n_waves: int, warm_slots: int, separation: int, depth: int,
    n_components: int, step_overhead: int = PLANNER_STEP_OVERHEAD,
) -> int:
    """Planner heuristic: lanes for one stream of *n_waves* waves.

    Up to 64 waves every wave gets its own lane (one word, the PR-1
    layout).  Beyond that the planner balances two costs: each step pays a
    fixed overhead (so fewer, wider steps are better) plus array traffic
    proportional to ``n_components * lanes`` (so narrower is better).
    With ``steps ≈ fill + n_waves * separation / lanes`` the optimum is
    ``lanes* = sqrt(n_waves * separation * overhead / (fill * n))``,
    floored to whole words so a marginal win never pays for a wider
    state matrix, and capped at :data:`MAX_PLANNED_WORDS` words.
    *step_overhead* is :data:`PLANNER_STEP_OVERHEAD` unless a
    calibration sweep passes another value.
    """
    if n_waves <= LANES_PER_WORD:
        return n_waves
    fill_steps = warm_slots * separation + depth
    ideal = (
        n_waves * separation * step_overhead
        / (fill_steps * max(1, n_components))
    ) ** 0.5
    words = max(1, min(MAX_PLANNED_WORDS, int(ideal) // LANES_PER_WORD))
    return min(n_waves, words * LANES_PER_WORD)


def _stream_lane_counts(
    waves_per_stream: Sequence[int], warm_slots: int
) -> list[int]:
    """Split the planner's lane budget across independent streams.

    Every stream needs at least one lane; the remaining budget follows
    each stream's ideal (``chunk ≈ warm_slots``) count, scaled down
    proportionally when the ideals exceed :data:`MAX_PLANNED_WORDS` words.
    With more streams than budgeted lanes the floor wins — one lane per
    stream — and the word count grows beyond the soft cap.
    """
    budget = MAX_PLANNED_WORDS * LANES_PER_WORD
    ideal = [
        min(w, max(1, -(-w // max(1, warm_slots)))) for w in waves_per_stream
    ]
    total = sum(ideal)
    if total <= budget:
        return ideal
    scale = budget / total
    return [
        max(1, min(w, int(lanes * scale)))
        for lanes, w in zip(ideal, waves_per_stream)
    ]


@functools.lru_cache(maxsize=32)  # serving repeats a few batch shapes
def _plan_lanes(
    waves_per_stream: tuple[int, ...],
    depth: int,
    n_phases: int,
    separation: int,
    balanced: bool,
    n_components: int,
    lanes: Optional[int] = None,
) -> _LanePlan:
    """Distribute one or more streams across lanes (see :func:`_overlap_slots`).

    *lanes* (single-stream only) overrides the heuristic lane count —
    clamped to ``[1, n_waves]`` — so tests and benchmarks can pin word
    boundaries regardless of the planner's defaults.  Plans are memoized
    (an LRU of 32), so their arrays are read-only.
    """
    warm_slots, forward_slots = _overlap_slots(
        depth, n_phases, separation, balanced
    )
    if lanes is not None:
        if len(waves_per_stream) != 1:
            raise SimulationError(
                "explicit lane counts apply to single-stream runs only"
            )
        counts = [max(1, min(int(lanes), waves_per_stream[0]))]
    elif len(waves_per_stream) == 1 or not warm_slots:
        # one stream, or streams whose lanes carry no overlap: plan them
        # as one stream of all their waves and share its lanes out in
        # proportion to stream length
        total = sum(waves_per_stream)
        budget = _default_lane_count(
            total, warm_slots, separation, depth, n_components
        )
        counts = [max(1, budget * w // total) for w in waves_per_stream]
    else:
        counts = _stream_lane_counts(waves_per_stream, warm_slots)

    # All per-lane columns are computed segment-wise across every stream
    # at once (a serving batch plans hundreds of streams per pass; the
    # per-stream python loop this replaces dominated the batch prologue).
    stream_waves = np.asarray(waves_per_stream, dtype=np.int64)
    stream_base = np.concatenate(([0], np.cumsum(stream_waves)[:-1]))
    stream_steps = (stream_waves - 1) * separation + depth + 1
    counts_arr = np.asarray(counts, dtype=np.int64)
    n_lanes = int(counts_arr.sum())
    lane_start = np.concatenate(([0], np.cumsum(counts_arr)[:-1]))
    stream = np.repeat(
        np.arange(counts_arr.size, dtype=np.int64), counts_arr
    )
    # lane's index within its own stream's lane group
    lane_in_stream = np.arange(n_lanes, dtype=np.int64) - lane_start[stream]
    # chunk: n_waves // n_lanes everywhere, +1 on the first (n_waves %
    # n_lanes) lanes of the stream — same split the scalar loop used
    chunk = (stream_waves // counts_arr)[stream]
    chunk += lane_in_stream < (stream_waves % counts_arr)[stream]
    # start: exclusive cumsum of chunk, restarted per stream
    running = np.concatenate(([0], np.cumsum(chunk)[:-1]))
    start = running - running[lane_start][stream]
    warm = np.minimum(warm_slots, start)
    wave0 = start - warm
    forward = np.minimum(
        forward_slots, stream_waves[stream] - (start + chunk)
    )
    n_inj = warm + chunk + forward
    offset = wave0 * separation
    keep_lo = warm * separation
    keep_hi = (warm + chunk) * separation
    # each stream's last lane owns the drain tail of its timeline
    last_lane = lane_start + counts_arr - 1
    keep_hi[last_lane] = stream_steps - offset[last_lane]
    # a lane runs until its last wave retires; with overlap it also runs
    # to the end of its kept region, where events it owns may still fire
    lane_steps = (warm + chunk - 1) * separation + depth + 1
    if warm_slots or forward_slots:
        lane_steps = np.maximum(lane_steps, keep_hi)
    base = wave0 + stream_base[stream]
    for column in (stream, chunk, warm, base, wave0, n_inj, offset,
                   keep_lo, keep_hi, stream_waves, stream_base, stream_steps):
        column.flags.writeable = False  # memoized: shared by every caller
    return _LanePlan(
        n_lanes=n_lanes,
        n_words=-(-n_lanes // LANES_PER_WORD),
        stream=stream,
        chunk=chunk,
        warm=warm,
        base=base,
        wave0=wave0,
        n_inj=n_inj,
        offset=offset,
        keep_lo=keep_lo,
        keep_hi=keep_hi,
        stream_waves=stream_waves,
        stream_base=stream_base,
        stream_steps=stream_steps,
        local_steps=int(lane_steps.max()),
    )


def _pack_lanes(lane_bits: np.ndarray) -> np.ndarray:
    """The lane codec: ``(..., 64 * n_words)`` bools -> ``(..., n_words)``
    words, lane *b* in bit ``b mod 64`` of word ``b // 64``."""
    return np.packbits(lane_bits, axis=-1, bitorder="little").view("<u8")


def _unpack_lanes(words: np.ndarray, n_lanes: int) -> np.ndarray:
    """Inverse of :func:`_pack_lanes`: *n_lanes* 0/1 ``uint8`` lanes."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=n_lanes, bitorder="little")


def _pack_injections(
    bits: np.ndarray, plan: _LanePlan
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Precompute per-slot packed input words and active-lane masks.

    Returns ``(words, masks, active)`` where ``words[slot]`` holds one
    ``(n_inputs, n_words)`` block (bit *b* of word *w* = the bit lane
    ``64*w + b`` injects on that slot), ``masks[slot]`` is the per-word
    uint64 mask of lanes injecting on that slot, and ``active[slot]``
    lists those lanes' indices.

    Lane *l* injects wave ``base[l] + slot`` on its first ``n_inj[l]``
    slots: one gather lays those bits out as one bool per (slot, input,
    lane), lanes padded to whole words, for :func:`_pack_lanes` — about
    the size of *bits* itself on an overlap-free plan.
    """
    n_slots = int(plan.n_inj.max())
    slots = np.arange(n_slots, dtype=np.int64)[:, None]
    width = plan.n_words * LANES_PER_WORD
    valid = np.zeros((n_slots, width), dtype=bool)
    np.less(slots, plan.n_inj, out=valid[:, :plan.n_lanes])
    wave = np.zeros((n_slots, width), dtype=np.int64)
    np.minimum(plan.base + slots, bits.shape[0] - 1,
               out=wave[:, :plan.n_lanes])
    lane_bits = bits.T[:, wave]  # (n_inputs, n_slots, width)
    del wave  # each transient dies before the next one is made
    lane_bits &= valid
    words = _pack_lanes(np.ascontiguousarray(lane_bits.transpose(1, 0, 2)))
    del lane_bits
    masks = _pack_lanes(valid)
    active = [np.flatnonzero(row) for row in valid]
    return words, masks, active


def _vector_bits(
    streams: Sequence[Sequence[Sequence[bool]]], n_inputs: int
) -> np.ndarray:
    """Concatenate every stream's vectors into one (waves, inputs) table.

    One C-side conversion per stream (not per wave): a serving batch of
    hundreds of streams used to spend more time row-assigning vectors
    here than the kernel spent simulating them.
    """
    total = sum(len(vectors) for vectors in streams)
    if len(streams) > 1 and all(
        len(vectors) == len(streams[0]) for vectors in streams
    ):
        # rectangular batch (the serving case: equal-length requests):
        # one C-side conversion for the whole (streams, waves, inputs)
        # block instead of one per stream
        return np.asarray(streams, dtype=bool).reshape(total, n_inputs)
    bits = np.zeros((total, n_inputs), dtype=bool)
    row = 0
    for vectors in streams:
        if len(vectors):
            block = np.asarray(vectors, dtype=bool).reshape(
                len(vectors), n_inputs
            )
            bits[row:row + len(vectors)] = block
            row += len(vectors)
    return bits


def _unpack_outputs(ret_words: np.ndarray, plan: _LanePlan) -> np.ndarray:
    """Decode every kept (lane, slot) retirement in one pass.

    Lanes are ordered by stream and chunk start and lane *l* keeps retire
    slots ``[warm[l], warm[l] + chunk[l])``, so one mask over the decoded
    (lane, slot) pairs selects them in global wave order — row *k* of the
    returned read-only ``(waves, n_outputs)`` bool matrix IS wave *k*'s
    output vector.  No Python object is built per wave: each stream's
    report holds its own row slice of this one matrix.
    """
    # every owned slot must have been snapshotted by the kernel; a plan
    # whose local timeline is too short to retire its deepest slot is a
    # planner bug, reported cleanly instead of as an IndexError below
    last_owned_slot = int((plan.warm + plan.chunk - 1).max())
    if last_owned_slot >= ret_words.shape[0]:
        raise SimulationError("simulation ended before every wave retired")
    slots = np.arange(ret_words.shape[0], dtype=np.int64)
    kept = (slots >= plan.warm[:, None]) & (
        slots < (plan.warm + plan.chunk)[:, None]
    )
    lane_bits = _unpack_lanes(ret_words, plan.n_lanes)
    matrix = lane_bits.transpose(2, 0, 1)[kept].view(bool)
    matrix.flags.writeable = False
    return matrix


def _interference_error(event: WaveInterference) -> SimulationError:
    """The scalar engine's strict-mode error, verbatim (message parity)."""
    return SimulationError(
        f"wave interference at step {event.step}, component "
        f"{event.component}: waves {event.wave_ids}"
    )


def _resolve_run(
    netlist: WaveNetlist,
    clocking: Optional[ClockingScheme],
    pipelined: bool,
    track: Optional[bool],
    lanes: Optional[int],
) -> tuple[CompiledWaveNetlist, int, bool]:
    """``(compiled, separation, functional)`` of one run: every entry
    point resolves its kernel here, so sizing and running agree.

    ``track=None`` takes the functional pass exactly when
    :func:`~repro.core.wavepipe.kernels.can_elide_tracking` proves
    interference impossible; ``track=True`` forces the tracked step loop;
    ``track=False`` *demands* the functional pass and raises when the
    proof fails.
    """
    compiled = compile_netlist(netlist, clocking or ClockingScheme())
    if compiled.depth == 0:
        raise SimulationError("cannot wave-simulate a depth-0 netlist")
    separation = wave_separation(compiled.depth, compiled.n_phases, pipelined)
    safe = can_elide_tracking(compiled, separation)
    if track is False and not safe:
        raise SimulationError(
            "wave-id tracking cannot be elided: interference is possible "
            "(unbalanced netlist or wave separation below the phase count)"
        )
    functional = safe if track is None else not track
    if functional and lanes is not None:
        raise SimulationError(
            "lanes= pins a lane plan of the tracked step loop, but this "
            "run takes the functional pass; pass track=True to pin lanes"
        )
    return compiled, separation, functional


def _plan_tracked(
    compiled: CompiledWaveNetlist,
    separation: int,
    live: tuple[int, ...],
    lanes: Optional[int] = None,
) -> _LanePlan:
    """The step loop's lane plan for the non-empty streams *live*."""
    return _plan_lanes(
        live, compiled.depth, compiled.n_phases, separation,
        compiled.balanced, compiled.n_components, lanes,
    )


def _describe(
    netlist: WaveNetlist,
    waves_per_stream: Sequence[int],
    clocking: Optional[ClockingScheme],
    pipelined: bool,
    track: Optional[bool],
    lanes: Optional[int] = None,
) -> dict:
    """What one pass over *waves_per_stream* would run, without running:
    the functional pass's MAJ levels and words, or the step loop's lane
    plan.  Both report ``words``, the packed words per input."""
    compiled, separation, functional = _resolve_run(
        netlist, clocking, pipelined, track, lanes
    )
    if functional:
        return {
            "functional": True,
            "balanced": compiled.balanced,
            "levels": len(compiled.functional.levels),
            "words": -(-int(sum(waves_per_stream)) // LANES_PER_WORD),
        }
    live = tuple(int(waves) for waves in waves_per_stream if waves > 0)
    plan = _plan_tracked(compiled, separation, live, lanes) if live else None
    return {
        "functional": False,
        "balanced": compiled.balanced,
        "lanes": plan.n_lanes if plan else 0,
        "words": plan.n_words if plan else 0,
        "steps": plan.local_steps if plan else 0,
    }


def describe_packed_run(
    netlist: WaveNetlist,
    n_waves: int,
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    lanes: Optional[int] = None,
    track: Optional[bool] = None,
    n_streams: int = 1,
) -> dict:
    """Resolve the kernel one packed run would use, without running.

    Returns a JSON-friendly dict, used by the benchmark metadata, the
    CLI's kernel line, and the planner tests: ``functional`` and
    ``balanced``, then either the functional pass's MAJ ``levels`` and
    ``words`` (``ceil(waves / 64)``) or the tracked step loop's
    ``lanes``, ``words`` and ``steps``.  *n_streams* > 1 describes a
    :func:`simulate_streams_packed` batch of equal-length streams
    (``lanes`` overrides apply to single-stream tracked runs only).
    """
    return _describe(
        netlist, [n_waves] * max(1, n_streams), clocking, pipelined, track,
        lanes,
    )


def plan_stream_batch(
    netlist: WaveNetlist,
    waves_per_stream: Sequence[int],
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    track: Optional[bool] = None,
) -> dict:
    """Resolve how one :func:`simulate_streams_packed` batch would run,
    without running it.

    This is the sizing hook of the serving layer: the micro-batcher asks
    the engine how a candidate batch of per-stream wave counts would pack
    and records the answer's ``words`` in its metrics, so batch sizing
    has exactly one source of truth — the code that will execute the
    batch.  Zero-wave streams take no room.  Returns the dict of
    :func:`describe_packed_run` plus ``n_streams`` and ``total_waves``.
    """
    info = _describe(netlist, waves_per_stream, clocking, pipelined, track)
    info["n_streams"] = len(waves_per_stream)
    info["total_waves"] = int(sum(waves_per_stream))
    return info


def _run_table(
    compiled: CompiledWaveNetlist,
    separation: int,
    plan: _LanePlan,
    bits: np.ndarray,
    strict: bool,
) -> tuple[np.ndarray, list]:
    """Pack the ``(waves, inputs)`` table *bits*, run *plan* through the
    tracked step loop, and decode: returns the ``(waves, outputs)``
    result matrix and the kept events."""
    inj_words, inj_masks, inj_active = _pack_injections(bits, plan)
    ret_words, events = run_plan(
        compiled, plan, inj_words, inj_masks, inj_active, separation, strict
    )
    if strict and events:
        raise _interference_error(events[0][3])
    return _unpack_outputs(ret_words, plan), events


def _packed_reports(
    netlist: WaveNetlist,
    streams: Sequence[Sequence[Sequence[bool]]],
    clocking: Optional[ClockingScheme],
    pipelined: bool,
    strict: bool,
    lanes: Optional[int],
    track: Optional[bool] = None,
    validate: bool = True,
) -> list[WaveSimulationReport]:
    """Shared prologue/epilogue of both packed entry points.

    Validates, compiles, runs the functional pass or plans and runs the
    step loop, and slices one report per stream (empty streams get clean
    empty reports).  ``simulate_waves_packed`` is the single-stream
    slice of this; keeping one copy of the control flow means
    strict-mode and retirement checks cannot drift between the entry
    points.
    """
    if validate:
        for vectors in streams:
            _validate_vectors(netlist, vectors)
    compiled, separation, functional = _resolve_run(
        netlist, clocking, pipelined, track, lanes
    )
    depth = compiled.depth
    lengths = [len(vectors) for vectors in streams]
    live = [index for index, n_waves in enumerate(lengths) if n_waves]
    reports: list[Optional[WaveSimulationReport]] = [
        None if n_waves else _empty_report(depth, netlist.n_outputs)
        for n_waves in lengths
    ]
    if not live:
        return reports  # type: ignore[return-value]  # every stream empty

    bits = _vector_bits([streams[index] for index in live], netlist.n_inputs)
    if functional:
        results, events = compiled.functional.run(bits), []
    else:
        plan = _plan_tracked(
            compiled, separation, tuple(lengths[index] for index in live),
            lanes,
        )
        results, events = _run_table(compiled, separation, plan, bits, strict)
    lo = 0
    for position, index in enumerate(live):
        n_waves = lengths[index]
        reports[index] = WaveSimulationReport(
            bits=results[lo:lo + n_waves],
            latency_steps=depth,
            steps_run=(n_waves - 1) * separation + depth + 1,
            waves_injected=n_waves,
            waves_retired=n_waves,
            interference=[
                event
                for event_stream, _, _, event in events
                if event_stream == position
            ],
        )
        lo += n_waves
    return reports  # type: ignore[return-value]


def simulate_waves_packed(
    netlist: WaveNetlist,
    vectors: Sequence[Sequence[bool]],
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    strict: bool = False,
    lanes: Optional[int] = None,
    track: Optional[bool] = None,
) -> WaveSimulationReport:
    """Packed-engine equivalent of :func:`~.simulator.simulate_waves`.

    Accepts the same arguments (minus ``engine``) and returns a report that
    is bit-identical to the scalar reference engine's, including the
    interference event list and its ordering.  *track* forces
    (``True``) the tracked step loop or demands (``False``) the
    functional pass; ``None`` takes the functional pass exactly when the
    static interference-freedom proof holds.  *lanes* overrides the
    step loop's lane count (clamped to ``[1, n_waves]``) and is refused
    on a run that takes the functional pass.  The result is
    bit-identical for every choice — only the speed/memory trade-off
    moves.
    """
    (report,) = _packed_reports(
        netlist, [vectors], clocking, pipelined, strict, lanes, track=track,
    )
    return report


def simulate_streams_packed(
    netlist: WaveNetlist,
    streams: Sequence[Sequence[Sequence[bool]]],
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    strict: bool = False,
    track: Optional[bool] = None,
    validate: bool = True,
) -> list[WaveSimulationReport]:
    """Simulate many independent wave streams in one packed pass.

    Each element of *streams* is a full wave sequence (one vector per
    wave); the returned list holds one report per stream, each
    bit-identical to ``simulate_waves(netlist, stream, ...)`` on that
    stream alone.  All streams share the netlist and clocking, so the
    whole batch runs as one functional pass or one step loop (the
    serving scenario).  *track* selects the kernel exactly as in
    :func:`simulate_waves_packed`.

    In strict mode the error matches what the scalar engine would raise
    when the streams are simulated one after another: the first stream (in
    order) with interference reports its earliest event.

    *validate* may be set to ``False`` by callers that already validated
    every stream against this netlist (the serving layer validates at
    submit time); the per-wave width checks are then skipped.
    """
    return _packed_reports(
        netlist, list(streams), clocking, pipelined, strict, None,
        track=track, validate=validate,
    )


# ----------------------------------------------------------------------
# streaming sessions (feeds run as one-shot blocks)
# ----------------------------------------------------------------------
class SessionFeed:
    """Handle for one :meth:`PackedSession.feed` call.

    ``report`` blocks — by flushing the session — until the feed's waves
    have run; ``done`` peeks without forcing anything.  The report is
    bit-identical to the corresponding slice of a one-shot
    :func:`simulate_waves_packed` run over the concatenation of every
    feed's waves (``tests/test_streaming.py`` proves exactly that).
    """

    __slots__ = ("index", "start", "count", "_session", "_report")

    def __init__(
        self, session: "PackedSession", index: int, start: int, count: int
    ) -> None:
        self.index = index
        self.start = start
        self.count = count
        self._session = session
        self._report: Optional[WaveSimulationReport] = None

    @property
    def done(self) -> bool:
        """True once every wave of this feed has retired."""
        return self._report is not None

    @property
    def report(self) -> WaveSimulationReport:
        """The feed's report, flushing the session if still pending."""
        if self._report is None:
            self._session.flush()
        assert self._report is not None  # flush runs every fed wave
        return self._report


class PackedSession:
    """Streaming simulation: feed waves in chunks, run them in blocks.

    Sessions demand a wave-ready netlist
    (:func:`~repro.core.wavepipe.kernels.can_elide_tracking` must hold):
    there a wave's outputs depend on its own inputs alone, so a session
    carries no simulation state from one block of waves to the next.
    Pending feeds are simulated as one block: one call of the compiled
    netlist's functional evaluator, resolved once at open time, or with
    ``track=True`` one tracked one-shot run (outputs identical,
    interference provably empty).  Each feed's report is its row slice of
    that block, with ``steps_run`` on the session's own timeline, so it
    equals the slice of one solo run over every feed's waves.  On an
    unbalanced netlist a wave's outputs depend on *later* waves, so
    :class:`~repro.errors.SimulationError` refuses it at open time
    instead of silently diverging.

    Feeds are *lazy*: waves accumulate until :meth:`pump` finds 1,024 of
    them waiting (or the ``lanes=`` pin of a tracked session), or until
    :meth:`flush`, :meth:`close` or a feed's ``report`` runs them all.
    The fixed block bounds how long a block's first feed waits and the
    pending table's size (a larger feed grows the table for its own run
    only); a 16-word functional block already costs
    within 2.5x per wave of a 64-word one on ctrl and i2c.  A block pays
    its fixed cost once for all its feeds, which is what
    ``benchmarks/bench_streaming.py`` measures: a 10x64-wave session
    pumped after every feed against one 640-wave solo run.  The serving
    layer pumps while feeds queue behind one another and flushes when
    its queue empties.

    Use as a context manager or :meth:`close` explicitly — the
    lifecycle lint tracks sessions like files and locks.
    """

    def __init__(
        self,
        netlist: WaveNetlist,
        clocking: Optional[ClockingScheme] = None,
        pipelined: bool = True,
        track: Optional[bool] = None,
        lanes: Optional[int] = None,
        validate: bool = True,
    ) -> None:
        compiled, separation, functional = _resolve_run(
            netlist, clocking, pipelined, track, lanes
        )
        if not can_elide_tracking(compiled, separation):
            raise SimulationError(
                "streaming sessions require a wave-ready (path-balanced) "
                "netlist: on an unbalanced netlist a wave's outputs depend "
                "on waves injected after it, so chunked feeds cannot "
                "reproduce the solo run bit-identically"
            )
        self._netlist = netlist
        self._compiled = compiled
        self._separation = separation
        #: the evaluator of a functional session, None for a tracked one
        self._functional: Optional[FunctionalNetlist] = (
            compiled.functional if functional else None
        )
        self._validate = validate
        self._lanes = None if lanes is None else max(1, int(lanes))
        #: pending waves that make a pump run them
        self._run_at = self._lanes or MAX_PLANNED_WORDS * LANES_PER_WORD
        #: the pending waves, rows [0, _n_pending) of one reused table
        self._table = np.empty((self._run_at, netlist.n_inputs), dtype=bool)
        self._n_pending = 0
        self._unresolved: list[SessionFeed] = []  # their feeds, in order
        self._done: list[SessionFeed] = []  # resolved, not handed out
        self._n_feeds = 0
        self._n_fed = 0
        self._n_retired = 0
        self._closed = False

    # -- public surface ------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def separation(self) -> int:
        """Injection-slot spacing in clock steps (multiple of ``p``)."""
        return self._separation

    def feed(self, vectors: Sequence[Sequence[bool]]) -> SessionFeed:
        """Append waves to the session; returns a lazy report handle.

        The waves are *scheduled*, not yet simulated: they run on a
        :meth:`pump` that finds enough pending waves, on :meth:`flush` /
        :meth:`close`, or when some feed's ``report`` is read.
        """
        if self._closed:
            raise SessionClosed("feed() on a closed session")
        if self._validate:
            _validate_vectors(self._netlist, vectors)
        count = len(vectors)
        handle = SessionFeed(self, self._n_feeds, self._n_fed, count)
        self._n_feeds += 1
        self._n_fed += count
        self._unresolved.append(handle)
        if count:
            start, end = self._n_pending, self._n_pending + count
            if end > len(self._table):
                grown = np.empty((2 * end, self._table.shape[1]), dtype=bool)
                grown[:start] = self._table[:start]
                self._table = grown
            self._table[start:end] = vectors
            self._n_pending = end
        elif self._n_fed == self._n_retired:
            self._resolve(None)  # an empty feed with nothing before it
        return handle

    def pump(self) -> list[SessionFeed]:
        """Run the pending waves if they fill a block, then hand out the
        feeds resolved since the last call (like :meth:`take_done`)."""
        if self._closed:
            raise SessionClosed("pump() on a closed session")
        if self._n_pending >= self._run_at:
            self._run()
        done, self._done = self._done, []
        return done

    def flush(self) -> None:
        """Run every pending wave; afterwards every feed handed out so
        far has ``done`` set, and further feeds start a new block."""
        self._run()

    def take_done(self) -> list[SessionFeed]:
        """Feeds newly resolved since the last call, in feed order."""
        done, self._done = self._done, []
        return done

    def close(self) -> None:
        """Flush the session and refuse further feeds (idempotent)."""
        if self._closed:
            return
        self.flush()
        self._closed = True

    def discard(self) -> None:
        """Close without running: drop the pending waves.

        Feeds that never resolved stay unresolved forever — the serving
        layer uses this for cancelled sessions (their futures fail with
        :class:`~repro.errors.SessionClosed` instead).  Idempotent.
        """
        self._closed = True
        self._n_pending = 0
        self._unresolved = []

    def __enter__(self) -> "PackedSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def describe(self) -> dict:
        """JSON-friendly session snapshot (metrics / CLI surface)."""
        return {
            "functional": self._functional is not None,
            "feeds": self._n_feeds,
            "waves_fed": self._n_fed,
            "waves_retired": self._n_retired,
            "pending_waves": self._n_pending,
            "closed": self._closed,
        }

    # -- internals -----------------------------------------------------
    def _run(self) -> None:
        """Simulate the pending waves as one block."""
        if not self._n_pending:
            return  # no feed waits: empty ones resolve as they come
        bits = self._table[:self._n_pending]
        self._n_pending = 0
        if len(self._table) > self._run_at:
            # a large feed grew the table: keep only a block's worth
            self._table = np.empty((self._run_at, bits.shape[1]), dtype=bool)
        if self._functional is not None:
            run = self._functional.run(bits)
        else:
            plan = _plan_tracked(
                self._compiled, self._separation, (len(bits),), self._lanes
            )
            run, _ = _run_table(
                self._compiled, self._separation, plan, bits, False
            )
        self._resolve(run)

    def _resolve(self, run: Optional[np.ndarray]) -> None:
        """Resolve every unresolved feed: their waves, if any, are the
        rows of *run*, the outputs of the waves after the last retired."""
        first = self._n_retired
        depth, separation = self._compiled.depth, self._separation
        for feed in self._unresolved:
            start, count = feed.start, feed.count
            if not count:
                feed._report = _empty_report(depth, self._netlist.n_outputs)
                continue
            assert run is not None  # only a run retires waves
            # positional: a session builds one report per feed
            feed._report = WaveSimulationReport(
                run[start - first:start - first + count], depth,
                (start + count - 1) * separation + depth + 1,
                count, count, [],
            )
        if run is not None:
            self._n_retired += run.shape[0]
        self._done += self._unresolved
        self._unresolved = []


def open_packed_session(
    netlist: WaveNetlist,
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    track: Optional[bool] = None,
    lanes: Optional[int] = None,
    validate: bool = True,
) -> PackedSession:
    """Open a :class:`PackedSession` over *netlist* (see its docstring).

    Arguments mirror :func:`simulate_waves_packed`.  On a tracked session
    (``track=True``) *lanes* pins the lane count of every block (the
    differential tests pin 1- and 3-word runs) and the pending waves a
    :meth:`~PackedSession.pump` waits for; a functional session refuses
    it.  Raises :class:`~repro.errors.SimulationError` when the netlist
    is not wave-ready — streaming bit-identity is impossible without
    balance.
    """
    return PackedSession(
        netlist, clocking, pipelined=pipelined, track=track, lanes=lanes,
        validate=validate,
    )
