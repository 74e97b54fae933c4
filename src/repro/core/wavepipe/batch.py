"""Bit-packed, batched engine for phase-accurate wave simulation.

This module is the high-throughput implementation behind
``simulate_waves(..., engine="packed")`` and the batched multi-stream
front-end :func:`~repro.core.wavepipe.simulator.simulate_streams`.  It
produces reports that are bit-identical to the scalar reference loop in
:mod:`repro.core.wavepipe.simulator` — same outputs, same
:class:`~repro.core.wavepipe.simulator.WaveInterference` events in the same
order — while advancing the whole netlist with compiled word operations.

This module owns only the *planning* half of the engine: lane planning,
injection packing, and report merging.  The per-clock-step hot loop
lives in :mod:`repro.core.wavepipe.kernels`: in-place numpy kernels in
two variants, with or without wave-id tracking (tracking is *elided*
whenever the netlist's balance proves interference impossible; see the
kernels module docstring for the elision proof).

Architecture
------------
**64 wave streams per word, unbounded words.**  The wave sequence of length
``W`` is split into contiguous chunks ("lanes").  Lane *b* carries bit
``b mod 64`` of word ``b // 64`` in every component's ``(n_words,)`` row of
the ``(n_components, n_words)`` ``uint64`` state matrix (the packing of the
golden model in :mod:`repro.core.simulate`, extended along a word axis), so
one majority update advances all lanes of a component at once and one
array operation advances every component of the active clock phase.  The
lane count is unbounded: the planner fills as many words as the stream
needs, so 10^4–10^5-wave streams run in one pass.  The planner balances
the kernel's fixed per-step cost against ``components x lanes`` array
traffic using a **per-variant calibration constant**
(:data:`~repro.core.wavepipe.kernels.PLANNER_STEP_OVERHEAD` — the elided
kernels move far less data per lane, so their plans go wider), caps
itself at :data:`MAX_PLANNED_WORDS` words, and is bypassed entirely by an
explicit ``lanes=`` override (used by the property tests to pin
word-boundary behaviour and by the benchmarks).

**Overlap only where interference is possible.**  On a balanced netlist
with injections at least ``p`` steps apart (the condition of
:func:`~repro.core.wavepipe.kernels.can_elide_tracking`) a wave's outputs
are a function of its own inputs, so each lane simulates its chunk alone,
from a cold state, until its last wave retires.  Only an unbalanced
netlist couples adjacent waves, so only there does a lane re-simulate a
warm-up prefix (the waves injected during the last ``depth * p`` steps,
rounded up to whole injection slots, plus one) and a forward suffix
(``ceil(depth / separation)`` waves) around its chunk.
Either way every value, wave id, and interference decision inside a lane's
*kept* step region depends only on injections the lane performed itself,
so it equals the single-stream reference exactly.  The kept regions tile
the reference timeline ``[0, total_steps)``, which makes merging trivial:
events are filtered per lane and sorted by (absolute step, within-phase
order) — the same order the scalar loop emits them — and the kept
(lane, slot) retirements enumerate the global wave sequence in order.

**Independent streams share the lane axis.**  :func:`simulate_streams_packed`
simulates many *independent* wave streams (the serving scenario: one
request = one stream) in a single pass: every stream receives its own group
of lanes — planned with the same overlap logic, budgeted proportionally
to stream length — and because all streams share the netlist, clocking,
and injection grid, the one phase-update loop advances them together.
Lanes of different streams never exchange data through the packing (each
lane only ever reads bits it injected itself), so each stream's report
equals running :func:`simulate_waves` on it alone.  Plans are memoized on
the batch shape, since serving traffic repeats a few shapes.

**One lane codec.**  Injection words are packed, and retired words
decoded, by ``np.packbits`` / ``np.unpackbits`` along the lane axis
(``bitorder="little"``, eight bytes viewed as one ``<u8`` word), from
and to one bool per (slot, input or output, lane).

**Streaming sessions.**  :func:`open_packed_session` returns a
:class:`PackedSession` that takes waves in ``feed()`` chunks and runs
the pending ones together as one one-shot block, so a run of many feeds
pays the ``depth``-step fill once.  Sessions require a *wave-ready*
(balanced) netlist — on an unbalanced one a wave's outputs depend on
waves injected *after* it (the reason one-shot lanes carry a forward
overlap), so a chunked feed sequence could not reproduce the solo run
bit-identically even in principle.  On balanced netlists the same
argument that elides tracking makes every wave's output a function of
its own inputs alone, so blocks need no state from one another, and
``tests/test_streaming.py`` asserts that any split of a wave schedule
into feeds matches the solo run of the concatenation, bit for bit, with
tracking elided or forced.

The scalar engine remains the oracle; ``tests/test_batch_engine.py`` and
``tests/test_kernels.py`` property-test this module against it on
balanced and deliberately unbalanced netlists across phase counts,
injection modes, lane overrides straddling word boundaries, multi-stream
batches, and both tracking variants.
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
    can_elide_tracking,
    compile_netlist,
    planner_step_overhead,
    resolve_tracking,
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
#: 16 words = 1024 lanes keeps the tracked kernels' int32 wave-id matrix
#: at 4 KiB per component; past that, a wider state matrix stops paying
#: for its memory traffic even in the elided kernels, and on unbalanced
#: netlists every extra lane also re-simulates its warm-up.
MAX_PLANNED_WORDS = 16


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
    :func:`~repro.core.wavepipe.kernels.can_elide_tracking` holds, for
    either kernel variant: a wave's outputs then depend on its own inputs
    alone, so a lane starts cold at its first wave (a tracked lane sees
    only the warming id ``-1`` before it) and stops when its last retires.

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
    n_components: int, step_overhead: int,
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
    *step_overhead* is the per-variant calibration constant from
    :func:`~repro.core.wavepipe.kernels.planner_step_overhead`: the
    elided kernels, with cheaper per-lane traffic, carry a larger
    constant and therefore plan wider.
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
    *,
    step_overhead: int,
) -> _LanePlan:
    """Distribute one or more streams across lanes (see :func:`_overlap_slots`).

    *lanes* (single-stream only) overrides the heuristic lane count —
    clamped to ``[1, n_waves]`` — so tests and benchmarks can pin word
    boundaries regardless of the planner's defaults.  *step_overhead* is
    the per-variant cost-model constant (see :func:`_default_lane_count`);
    it is required so the calibration has exactly one source of truth,
    :data:`~repro.core.wavepipe.kernels.PLANNER_STEP_OVERHEAD`.  Plans are
    memoized (an LRU of 32), so their arrays are read-only.
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
            total, warm_slots, separation, depth, n_components,
            step_overhead,
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


def _plan_run(
    netlist: WaveNetlist,
    waves_per_stream: Sequence[int],
    clocking: Optional[ClockingScheme],
    pipelined: bool,
    track: Optional[bool],
    lanes: Optional[int] = None,
) -> tuple[CompiledWaveNetlist, int, bool, Optional[_LanePlan]]:
    """``(compiled, separation, elided, plan)`` of one pass over the
    non-empty streams (``plan`` is ``None`` if there are none): every
    entry point plans here, so sizing and running a batch share a plan."""
    compiled = compile_netlist(netlist, clocking or ClockingScheme())
    if compiled.depth == 0:
        raise SimulationError("cannot wave-simulate a depth-0 netlist")
    separation = wave_separation(compiled.depth, compiled.n_phases, pipelined)
    elided = resolve_tracking(compiled, separation, track)
    live = tuple(int(waves) for waves in waves_per_stream if waves > 0)
    plan = _plan_lanes(
        live, compiled.depth, compiled.n_phases, separation,
        compiled.balanced, compiled.n_components, lanes,
        step_overhead=planner_step_overhead(elided),
    ) if live else None
    return compiled, separation, elided, plan


def describe_packed_run(
    netlist: WaveNetlist,
    n_waves: int,
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    lanes: Optional[int] = None,
    track: Optional[bool] = None,
    n_streams: int = 1,
) -> dict:
    """Resolve the kernel/plan one packed run would use, without running.

    Returns a JSON-friendly dict — tracking elision, netlist balance, and
    the chosen lane plan — used by the benchmark metadata, the CLI's
    kernel line, and the planner tests.  *n_streams* > 1 describes a
    :func:`simulate_streams_packed` batch of equal-length streams
    (``lanes`` overrides apply to single-stream runs only).
    """
    compiled, _, elided, plan = _plan_run(
        netlist, [n_waves] * max(1, n_streams), clocking, pipelined, track,
        lanes,
    )
    return {
        "elided_tracking": elided,
        "balanced": compiled.balanced,
        "lanes": plan.n_lanes if plan else 0,
        "words": plan.n_words if plan else 0,
        "steps": plan.local_steps if plan else 0,
    }


def plan_stream_batch(
    netlist: WaveNetlist,
    waves_per_stream: Sequence[int],
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    track: Optional[bool] = None,
) -> dict:
    """Resolve the lane plan one :func:`simulate_streams_packed` batch
    would use, without running it.

    This is the sizing hook of the serving layer: the micro-batcher asks
    the *existing* lane planner how a candidate batch of per-stream wave
    counts would pack (lanes, state words, local steps) and records the
    answer in its metrics, so batch sizing has exactly one source of
    truth — the planner that will execute the batch.  Zero-wave streams
    are planned as the empty streams they are (they occupy no lanes).

    Returns a JSON-friendly dict: ``elided_tracking``, ``n_streams``,
    ``total_waves``, ``lanes``, ``words``, ``steps``.
    """
    _, _, elided, plan = _plan_run(
        netlist, waves_per_stream, clocking, pipelined, track
    )
    return {
        "elided_tracking": elided,
        "n_streams": len(waves_per_stream),
        "total_waves": int(plan.stream_waves.sum()) if plan else 0,
        "lanes": plan.n_lanes if plan else 0,
        "words": plan.n_words if plan else 0,
        "steps": plan.local_steps if plan else 0,
    }


def _run_table(
    compiled: CompiledWaveNetlist,
    separation: int,
    elide: bool,
    plan: _LanePlan,
    bits: np.ndarray,
    strict: bool,
) -> tuple[np.ndarray, list]:
    """Pack the ``(waves, inputs)`` table *bits*, run *plan*, and decode:
    returns the ``(waves, outputs)`` result matrix and the kept events."""
    inj_words, inj_masks, inj_active = _pack_injections(bits, plan)
    ret_words, events = run_plan(
        compiled, plan, inj_words, inj_masks, inj_active, separation,
        strict, elide=elide,
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

    Validates, compiles, plans, runs the selected kernel, and slices one
    report per stream (empty streams get clean empty reports).
    ``simulate_waves_packed`` is the single-stream slice of this; keeping
    one copy of the control flow means strict-mode and retirement checks
    cannot drift between the entry points.
    """
    if validate:
        for vectors in streams:
            _validate_vectors(netlist, vectors)
    compiled, separation, elide, plan = _plan_run(
        netlist, [len(vectors) for vectors in streams], clocking, pipelined,
        track, lanes,
    )
    depth = compiled.depth
    reports: list[Optional[WaveSimulationReport]] = [
        None if len(vectors) else _empty_report(depth, netlist.n_outputs)
        for vectors in streams
    ]
    if plan is None:
        return reports  # type: ignore[return-value]  # every stream empty

    live = [index for index, report in enumerate(reports) if report is None]
    bits = _vector_bits([streams[index] for index in live], netlist.n_inputs)
    results, events = _run_table(
        compiled, separation, elide, plan, bits, strict
    )
    for position, index in enumerate(live):
        lo = int(plan.stream_base[position])
        hi = lo + int(plan.stream_waves[position])
        n_waves = hi - lo
        reports[index] = WaveSimulationReport(
            bits=results[lo:hi],
            latency_steps=depth,
            steps_run=int(plan.stream_steps[position]),
            waves_injected=n_waves,
            waves_retired=n_waves,
            interference=[
                event
                for event_stream, _, _, event in events
                if event_stream == position
            ],
        )
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
    interference event list and its ordering.  *lanes* overrides the
    planner's lane count (clamped to ``[1, n_waves]``); *track* forces
    (``True``) or demands the elision of (``False``) wave-id tracking,
    ``None`` elides exactly when the static interference-freedom proof
    holds.  The result is bit-identical for every choice — only the
    speed/memory trade-off moves.
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
    stream alone.  All streams share the netlist and clocking; they are
    packed side by side across lanes/words so the whole batch advances in
    a single phase-update loop (the serving scenario).  *track* selects
    the kernel variant exactly as in :func:`simulate_waves_packed`.

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
# streaming sessions (feeds run as overlap-free one-shot blocks)
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
    Pending feeds are concatenated and simulated as one overlap-free
    one-shot run (the planner, lane codec and kernels of
    :func:`simulate_waves_packed`); each feed's report is its row slice
    of that run, with ``steps_run`` on the session's own timeline, so it
    equals the slice of one solo run over every feed's waves.  On an
    unbalanced netlist a wave's outputs depend on *later* waves, so
    :class:`~repro.errors.SimulationError` refuses it at open time
    instead of silently diverging.  ``track=True`` still forces the
    tracked kernels (outputs identical, interference provably empty).

    Feeds are *lazy*: waves accumulate until :meth:`pump` finds enough
    to fill every lane the planner may use (:data:`MAX_PLANNED_WORDS`
    words, or the ``lanes=`` pin) — past that, waiting widens no plan —
    or until :meth:`flush`, :meth:`close` or a feed's ``report`` runs
    them all.  A run pays the ``depth``-step fill once for all its feeds,
    which is how a 10x64-wave session pumped after every feed keeps
    within 10% of one 640-wave solo run (``benchmarks/bench_streaming.py``
    asserts it).  The serving layer pumps while feeds queue behind one
    another and flushes when its queue empties.

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
        self._netlist = netlist
        self._clocking = clocking or ClockingScheme()
        self._pipelined = pipelined
        self._track = track
        compiled = compile_netlist(netlist, self._clocking)
        if compiled.depth == 0:
            raise SimulationError("cannot wave-simulate a depth-0 netlist")
        self._depth = compiled.depth
        self._separation = wave_separation(
            compiled.depth, compiled.n_phases, pipelined
        )
        if not can_elide_tracking(compiled, self._separation):
            raise SimulationError(
                "streaming sessions require a wave-ready (path-balanced) "
                "netlist: on an unbalanced netlist a wave's outputs depend "
                "on waves injected after it, so chunked feeds cannot "
                "reproduce the solo run bit-identically"
            )
        self._elide = resolve_tracking(compiled, self._separation, track)
        self._validate = validate
        self._lanes = None if lanes is None else max(1, int(lanes))
        #: pending waves that fill every lane a run may use
        self._run_at = self._lanes or MAX_PLANNED_WORDS * LANES_PER_WORD
        self._pending: list[np.ndarray] = []  # blocks fed, not yet run
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
            self._pending.append(np.asarray(vectors, dtype=bool))
        elif self._n_fed == self._n_retired:
            self._resolve(None)  # an empty feed with nothing before it
        return handle

    def pump(self) -> list[SessionFeed]:
        """Run the pending waves if they fill a run, then hand out the
        feeds resolved since the last call (like :meth:`take_done`)."""
        if self._closed:
            raise SessionClosed("pump() on a closed session")
        if self._n_fed - self._n_retired >= self._run_at:
            self._run()
        done, self._done = self._done, []
        return done

    def flush(self) -> None:
        """Run every pending wave; afterwards every feed handed out so
        far has ``done`` set, and further feeds start a new run."""
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
        self._pending = []
        self._unresolved = []

    def __enter__(self) -> "PackedSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def describe(self) -> dict:
        """JSON-friendly session snapshot (metrics / CLI surface)."""
        return {
            "elided_tracking": self._elide,
            "feeds": self._n_feeds,
            "waves_fed": self._n_fed,
            "waves_retired": self._n_retired,
            "pending_waves": sum(len(block) for block in self._pending),
            "closed": self._closed,
        }

    # -- internals -----------------------------------------------------
    def _run(self) -> None:
        """Simulate the pending waves as one one-shot run."""
        if not self._pending:
            return  # no feed waits: empty ones resolve as they come
        bits = (
            self._pending[0]
            if len(self._pending) == 1
            else np.concatenate(self._pending, axis=0)
        )
        self._pending = []
        compiled, separation, elide, plan = _plan_run(
            self._netlist, [len(bits)], self._clocking, self._pipelined,
            self._track, self._lanes,
        )
        assert plan is not None  # the block holds waves
        run, _ = _run_table(compiled, separation, elide, plan, bits, False)
        self._resolve(run)

    def _resolve(self, run: Optional[np.ndarray]) -> None:
        """Resolve every unresolved feed: their waves, if any, are the
        rows of *run*, the outputs of the waves after the last retired."""
        first = self._n_retired
        depth, separation = self._depth, self._separation
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

    Arguments mirror :func:`simulate_waves_packed`; *lanes* pins the lane
    count of every run (the differential tests pin 1- and 3-word runs)
    and the pending waves a :meth:`~PackedSession.pump` waits for.
    Raises :class:`~repro.errors.SimulationError` when the netlist is not
    wave-ready — streaming bit-identity is impossible without balance.
    """
    return PackedSession(
        netlist, clocking, pipelined=pipelined, track=track, lanes=lanes,
        validate=validate,
    )
