"""Step-loop kernels for the packed wave-simulation engine.

:mod:`repro.core.wavepipe.batch` owns the *planning* side of the packed
engine — lane plans, injection packing, report merging.  This module owns
the *execution* side: the per-clock-step hot loop that advances the
``(n_components, n_words)`` uint64 state matrix.

The loop is whole-array numpy.  All scratch buffers are preallocated once
per plan and every gather / complement / majority / scatter runs in place
(``np.take(..., out=)``, ufunc ``out=``), so the loop performs **zero
per-step allocations** and a fixed, small number of C-dispatched array
calls per step.  It comes in two variants: *tracked*, which carries a
wave id per component and lane, and *elided*, which drops it.

Tracking variants (elision)
---------------------------
The scalar oracle tracks a wave id per component to detect interference.
The packed engine mirrors that with an ``(n_components, n_lanes)`` int32
matrix — which is by far the widest data the tracked loop touches (a lane
is 4 bytes of wave id but only 1 *bit* of value).  The paper's own
clocking discipline makes that tracking statically unnecessary on the
netlists the flow produces (:func:`can_elide_tracking`):

    On a *balanced* netlist every BUF/FOG sits exactly one level above
    its fan-in (levels are ``1 + max(fan-in levels)``, single fan-in) and
    every MAJ's non-constant fan-ins share one level, so every clocked
    component reads cells exactly one level — one clock step — behind
    it.  With injections at least ``p`` steps apart, every cell at level
    L therefore holds exactly the wave injected ``L`` steps before it
    latched: all fan-ins of any component always belong to one wave, and
    no interference event can ever fire.  (Section IV of the paper; the
    same separation >= p argument wave pipelining rests on in Mahmoud et
    al. 2021 for spin waves.)

When that proof applies, the *elided* kernels drop the wave-id matrix
entirely — the report's interference list is empty exactly as the scalar
oracle's would be, in strict and non-strict mode alike.  Whenever the
proof does not apply (unbalanced netlist, or a separation below ``p``
handed to :func:`run_plan` directly), the *tracked* kernels run instead
and reproduce the oracle's events bit for bit.  The choice is per run and
automatic; ``track=True`` on the packed entry points forces the tracked
kernels (used by the identity benchmarks), ``track=False`` demands
elision and raises when it would be unsound.

Compiled layout
---------------
:func:`compile_netlist` (moved here from ``batch.py``) flattens a netlist
into per-phase tables and — new with the kernel layer — **permutes the
state rows** so that every phase's MAJ block, every phase's BUF/FOG
block, and the primary inputs are each *contiguous*: all per-step
scatters become slice assignments (memcpy) instead of fancy indexing.
Reported component ids stay in the netlist's own numbering
(``maj_comp``); the permutation is invisible outside this module.

Both variants retire waves by snapshotting the output words into a
preallocated ``(n_retire_slots, n_outputs, n_words)`` array; the per-wave
bit extraction happens once, vectorized, after the loop (in
``batch.py``'s report merging) instead of per retirement inside it.

Run state
---------
:class:`SessionState` packages everything the step loop owns — the
packed value matrix, the wave-id matrix, the reusable scratch buffers,
and the absolute step counter.  :func:`run_plan` allocates one per run,
advances it across the plan's whole timeline, and drops it; streaming
sessions (:class:`repro.core.wavepipe.batch.PackedSession`) run each
block of feeds the same way, since on the wave-ready netlists they
accept no wave depends on another, so no state outlives a run.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from ...errors import SimulationError
from .clocking import ClockingScheme
from .components import Kind, WaveNetlist
from .simulator import WaveInterference
from .verify import is_balanced

if TYPE_CHECKING:  # the plan type lives with the planner
    from .batch import _LanePlan

_WORD = np.uint64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Planner calibration, keyed by ``elided``: the fixed per-step cost of
#: each tracking variant (interpreter dispatch plus the width-independent
#: array walks), in component-lane units — one tracked int32 wave-id
#: element processed is one unit.  A variant that moves *less* data per
#: component-lane has a proportionally *larger* constant, pushing the
#: planner toward wider plans (fewer, wider steps).  Measured on the
#: suite's ctrl/i2c netlists; only the order of magnitude matters, as the
#: optimum is flat for roughly a decade around each value
#: (``benchmarks/bench_planner_overhead.py`` sweeps both constants and
#: shows the plateau).
PLANNER_STEP_OVERHEAD = {
    # tracked: the int32 wave-id matrix dominates
    False: 400_000,
    # elided: a lane is one bit of uint64 across ~10 in-place ops,
    # ~30x cheaper than a tracked wave-id element
    True: 4_000_000,
}


def planner_step_overhead(elided: bool) -> int:
    """Cost-model constant of the tracked or the elided kernel variant."""
    return PLANNER_STEP_OVERHEAD[bool(elided)]


# ----------------------------------------------------------------------
# netlist compilation (per-phase tables, permuted contiguous layout)
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class CompiledWaveNetlist:
    """Per-phase update tables of one netlist under one phase count.

    All ``*_src``/``out_node``/``inputs`` indices refer to the *permuted*
    state layout (inputs and per-phase blocks contiguous, constants at
    row 0); ``maj_comp``/``buf_comp`` translate back to the netlist's own
    component numbering for reporting.  Phase ``ph`` owns the flat index
    ranges ``maj_ptr[ph]:maj_ptr[ph+1]`` and ``buf_ptr[ph]:buf_ptr[ph+1]``,
    whose destination state rows start at ``maj_pos[ph]`` / ``buf_pos[ph]``.
    """

    n_components: int
    n_phases: int
    depth: int
    balanced: bool
    inputs: np.ndarray  # (n_inputs,) permuted state rows, PI order
    inputs_contiguous: bool  # inputs form one state-row slice
    out_node: np.ndarray  # (n_outputs,) permuted output driver rows
    out_neg: np.ndarray  # (n_outputs,) uint64 complement masks
    maj_ptr: np.ndarray  # (p+1,) flat MAJ ranges per phase
    maj_pos: np.ndarray  # (p,) state row of each phase's MAJ block
    maj_comp: np.ndarray  # (M,) original component ids (reporting)
    maj_src: np.ndarray  # (3, M) permuted fan-in state rows
    maj_neg: np.ndarray  # (3, M) uint64 complement masks
    buf_ptr: np.ndarray  # (p+1,) flat BUF/FOG ranges per phase
    buf_pos: np.ndarray  # (p,) state row of each phase's BUF block
    buf_comp: np.ndarray  # (B,) original component ids
    buf_src: np.ndarray  # (B,) permuted fan-in state rows
    buf_neg: np.ndarray  # (B,) uint64 complement masks


#: netlist -> {n_phases: (netlist.version, CompiledWaveNetlist)}
_COMPILE_CACHE: "weakref.WeakKeyDictionary[WaveNetlist, dict]" = (
    weakref.WeakKeyDictionary()
)

#: Guards the compile cache and its counters: the serving layer's shard
#: threads compile concurrently (the cache itself is the serving layer's
#: per-``WaveNetlist.version`` compiled-plan store).
_COMPILE_LOCK = threading.Lock()

#: Process-wide compile-cache telemetry, see :func:`compile_cache_stats`.
_COMPILE_STATS = {"hits": 0, "misses": 0}


def compile_cache_stats() -> dict:
    """Process-wide compile-cache counters, ``{"hits": n, "misses": n}``.

    A *miss* is one actual netlist flattening (a new netlist, a new phase
    count, or a mutated :attr:`WaveNetlist.version`); a *hit* recalled the
    memoized tables.  The serving layer's metrics read these to prove the
    compiled plan is reused across batches instead of being rebuilt per
    request; tests and benches may call :func:`reset_compile_cache_stats`
    to scope the counters to one scenario.
    """
    with _COMPILE_LOCK:
        return dict(_COMPILE_STATS)


def reset_compile_cache_stats() -> None:
    """Zero the :func:`compile_cache_stats` counters (cache kept intact)."""
    with _COMPILE_LOCK:
        _COMPILE_STATS["hits"] = 0
        _COMPILE_STATS["misses"] = 0


def compile_netlist(
    netlist: WaveNetlist, clocking: Optional[ClockingScheme] = None
) -> CompiledWaveNetlist:
    """Flatten *netlist* into packed per-phase tables (memoized).

    The cache is invalidated automatically when the netlist is mutated
    (tracked through :attr:`WaveNetlist.version`) and is safe to use from
    multiple threads: the serving layer's shards share one compiled plan
    per netlist version, and :func:`compile_cache_stats` exposes the
    hit/miss counters their metrics report.  Compilation runs under the
    cache lock — an O(n) pass, so serialized compiles are preferable to
    two threads flattening the same netlist twice.
    """
    clocking = clocking or ClockingScheme()
    p = clocking.n_phases
    with _COMPILE_LOCK:
        per_netlist = _COMPILE_CACHE.setdefault(netlist, {})
        cached = per_netlist.get(p)
        if cached is not None and cached[0] == netlist.version:
            _COMPILE_STATS["hits"] += 1
            return cached[1]
        _COMPILE_STATS["misses"] += 1
        compiled = _compile(netlist, p)
        per_netlist[p] = (netlist.version, compiled)
        return compiled


def _compile(netlist: WaveNetlist, p: int) -> CompiledWaveNetlist:
    kinds, fanins, outputs = netlist.arrays()
    levels = netlist.levels()
    n = len(kinds)

    # replicate the scalar grouping exactly: latching phase, deepest first
    # (stable, so ties keep topological index order).  Permuted state
    # layout: unclocked cells (constant 0, inputs, in index order) first,
    # then per phase the MAJ block and the BUF/FOG block — every scatter
    # target becomes a contiguous row slice
    clocked = np.flatnonzero(kinds >= Kind.MAJ)
    depths = levels[clocked]
    phases = depths % p
    wires = kinds[clocked] != Kind.MAJ
    # block sizes in layout order: phase 0 MAJ, phase 0 BUF, phase 1 MAJ...
    blocks = np.bincount(phases * 2 + wires, minlength=2 * p)
    ranked = np.lexsort((-depths, wires, phases))
    clocked, wires = clocked[ranked], wires[ranked]
    order = np.concatenate((np.flatnonzero(kinds < Kind.MAJ), clocked))
    new_row = np.empty(n, dtype=np.int64)
    new_row[order] = np.arange(n, dtype=np.int64)

    starts = n - len(clocked) + np.cumsum(blocks) - blocks
    zero = np.zeros(1, dtype=np.int64)
    maj_flat = clocked[~wires]
    buf_flat = clocked[wires]
    maj_lits = fanins[maj_flat].astype(np.int64).T
    buf_lits = fanins[buf_flat, 0].astype(np.int64)
    inputs = new_row[np.asarray(netlist.inputs, dtype=np.int64)]
    return CompiledWaveNetlist(
        n_components=n,
        n_phases=p,
        depth=netlist.depth(),
        balanced=is_balanced(netlist),
        inputs=inputs,
        inputs_contiguous=bool(
            inputs.size == 0 or np.all(np.diff(inputs) == 1)
        ),
        out_node=new_row[outputs >> 1],
        out_neg=_neg_masks(outputs),
        maj_ptr=np.concatenate((zero, np.cumsum(blocks[0::2]))),
        maj_pos=starts[0::2].astype(np.int64),
        maj_comp=maj_flat.astype(np.int64),
        maj_src=np.ascontiguousarray(new_row[maj_lits >> 1]),
        maj_neg=np.ascontiguousarray(_neg_masks(maj_lits)),
        buf_ptr=np.concatenate((zero, np.cumsum(blocks[1::2]))),
        buf_pos=starts[1::2].astype(np.int64),
        buf_comp=buf_flat.astype(np.int64),
        buf_src=new_row[buf_lits >> 1],
        buf_neg=_neg_masks(buf_lits),
    )


def _neg_masks(lits: np.ndarray) -> np.ndarray:
    """All-ones uint64 word for every complemented literal, else 0."""
    return np.where(lits & 1, _ALL_ONES, _WORD(0))


def can_elide_tracking(
    compiled: CompiledWaveNetlist, separation: int
) -> bool:
    """True when no interference event can ever fire (proof above).

    Balanced netlist (every fan-in exactly one level behind its consumer)
    plus injections at least ``p`` steps apart means every component only
    ever combines fan-ins of a single wave — the elided kernels are then
    bit-identical to the tracked ones with an empty event list, in strict
    mode too.  Every separation the public entry points produce is a
    multiple of ``p``; the explicit check guards direct kernel callers.
    """
    return compiled.balanced and separation >= compiled.n_phases


def resolve_tracking(
    compiled: CompiledWaveNetlist, separation: int, track: Optional[bool]
) -> bool:
    """Decide wave-id elision for one run, returning ``elided``.

    ``track=None`` elides exactly when :func:`can_elide_tracking` proves
    interference impossible; ``track=True`` forces the tracked kernels;
    ``track=False`` *demands* elision and raises when the proof fails.
    The one shared implementation keeps the entry points' semantics and
    error message from drifting.
    """
    safe = can_elide_tracking(compiled, separation)
    if track is None:
        return safe
    if not track and not safe:
        raise SimulationError(
            "wave-id tracking cannot be elided: interference is possible "
            "(unbalanced netlist or wave separation below the phase count)"
        )
    return not track


# ----------------------------------------------------------------------
# shared retirement arithmetic
# ----------------------------------------------------------------------
def _retire_slot_count(local_steps: int, depth: int, separation: int) -> int:
    """Retire steps (``step >= depth``, aligned) inside the local loop."""
    if local_steps <= depth:
        return 0
    return (local_steps - 1 - depth) // separation + 1


# ----------------------------------------------------------------------
# run state
# ----------------------------------------------------------------------
class SessionState:
    """Everything the step loop owns during one packed run.

    The ``(n_components, n_words)`` value matrix, the tracked variant's
    ``(n_components, n_lanes)`` wave-id matrix, the absolute ``step``
    counter, and the per-phase scratch buffers, built on first use.
    """

    __slots__ = (
        "compiled", "separation", "elide", "n_lanes", "n_words", "step",
        "value", "wave", "_phases", "_in_buf",
    )

    def __init__(
        self,
        compiled: CompiledWaveNetlist,
        separation: int,
        *,
        elide: bool,
        n_lanes: int,
        n_words: int,
    ) -> None:
        if n_lanes < 1 or n_words < 1:
            raise SimulationError(
                "session state needs at least one lane and one state word"
            )
        self.compiled = compiled
        self.separation = int(separation)
        self.elide = bool(elide)
        self.n_lanes = int(n_lanes)
        self.n_words = int(n_words)
        self.step = 0
        self.value = np.zeros(
            (compiled.n_components, self.n_words), dtype=_WORD
        )
        if self.elide:
            # placeholder so `wave` is an ndarray on both paths; the
            # elided kernels never touch it
            self.wave = np.empty((0, 0), dtype=np.int32)
        else:
            self.wave = np.full(
                (compiled.n_components, self.n_lanes), -1, dtype=np.int32
            )
            self.wave[0, :] = -2  # constants belong to every wave
        self._phases: Optional[list] = None
        self._in_buf: Optional[np.ndarray] = None

    # -- scratch (built on first use) ----------------------------------
    def _scratch(self) -> tuple:
        if self._phases is None:
            self._phases = [
                _PhaseScratch(
                    self.compiled, ph, self.n_words, self.n_lanes,
                    tracked=not self.elide,
                )
                for ph in range(self.compiled.n_phases)
            ]
            self._in_buf = np.empty(
                (self.compiled.inputs.size, self.n_words), dtype=_WORD
            )
        return self._phases, self._in_buf


# ----------------------------------------------------------------------
# step loop
# ----------------------------------------------------------------------
class _PhaseScratch:
    """Preallocated per-phase buffers of the step loop.

    One combined gather serves the whole phase: rows ``[0:3m)`` hold the
    three MAJ fan-in planes, rows ``[3m:3m+b)`` the BUF/FOG fan-ins, so a
    single ``np.take`` + one masked xor replaces four allocations of the
    PR-2 loop.  The tracked variant mirrors the layout for the int32
    wave-id planes.
    """

    __slots__ = (
        "src", "neg", "gather", "a", "b", "c", "bufs", "acc", "n_maj",
        "n_buf", "maj_lo", "maj_hi", "buf_lo", "buf_hi", "wgather", "wa",
        "wb", "wc", "wbufs", "wacc", "warming", "scratch_bool1",
        "scratch_bool2", "ge_a", "ge_b", "ge_c", "hit", "flat_lo",
    )

    def __init__(self, compiled: CompiledWaveNetlist, phase: int,
                 n_words: int, n_lanes: int, tracked: bool) -> None:
        m0, m1 = int(compiled.maj_ptr[phase]), int(compiled.maj_ptr[phase + 1])
        b0, b1 = int(compiled.buf_ptr[phase]), int(compiled.buf_ptr[phase + 1])
        n_maj, n_buf = m1 - m0, b1 - b0
        self.n_maj, self.n_buf = n_maj, n_buf
        self.flat_lo = m0
        self.maj_lo = int(compiled.maj_pos[phase])
        self.maj_hi = self.maj_lo + n_maj
        self.buf_lo = int(compiled.buf_pos[phase])
        self.buf_hi = self.buf_lo + n_buf
        self.src = np.concatenate(
            [
                compiled.maj_src[0, m0:m1],
                compiled.maj_src[1, m0:m1],
                compiled.maj_src[2, m0:m1],
                compiled.buf_src[b0:b1],
            ]
        )
        self.neg = np.concatenate(
            [
                compiled.maj_neg[0, m0:m1],
                compiled.maj_neg[1, m0:m1],
                compiled.maj_neg[2, m0:m1],
                compiled.buf_neg[b0:b1],
            ]
        )[:, None]
        rows = 3 * n_maj + n_buf
        self.gather = np.empty((rows, n_words), dtype=_WORD)
        self.a = self.gather[:n_maj]
        self.b = self.gather[n_maj:2 * n_maj]
        self.c = self.gather[2 * n_maj:3 * n_maj]
        self.bufs = self.gather[3 * n_maj:]
        self.acc = np.empty((n_maj, n_words), dtype=_WORD)
        if tracked:
            self.wgather = np.empty((rows, n_lanes), dtype=np.int32)
            self.wa = self.wgather[:n_maj]
            self.wb = self.wgather[n_maj:2 * n_maj]
            self.wc = self.wgather[2 * n_maj:3 * n_maj]
            self.wbufs = self.wgather[3 * n_maj:]
            self.wacc = np.empty((n_maj, n_lanes), dtype=np.int32)
            shape = (n_maj, n_lanes)
            self.warming = np.empty(shape, dtype=bool)
            self.scratch_bool1 = np.empty(shape, dtype=bool)
            self.scratch_bool2 = np.empty(shape, dtype=bool)
            self.ge_a = np.empty(shape, dtype=bool)
            self.ge_b = np.empty(shape, dtype=bool)
            self.ge_c = np.empty(shape, dtype=bool)
            self.hit = np.empty(shape, dtype=bool)


def _input_writer(
    compiled: CompiledWaveNetlist,
) -> Union[slice, np.ndarray]:
    """(slice | index array) used to scatter freshly injected inputs."""
    if compiled.inputs_contiguous and compiled.inputs.size:
        lo = int(compiled.inputs[0])
        return slice(lo, lo + compiled.inputs.size)
    return compiled.inputs


# lint: hot
def _advance(
    state: SessionState,
    n_steps: int,
    inj_words: np.ndarray,
    inj_masks: np.ndarray,
    inj_active: list,
    slot0: int,
    ret_words: np.ndarray,
    ret_slot0: int,
    keep_lo: np.ndarray,
    keep_hi: np.ndarray,
    offset: np.ndarray,
    strict_single: bool,
) -> list:
    """Advance *state* ``n_steps`` steps; returns raw events.

    The loop covers absolute steps ``[state.step, state.step +
    n_steps)``: injection slot ``s`` (absolute) fires at step ``s *
    separation`` and reads row ``s - slot0`` of the injection arrays,
    retire slot ``r`` snapshots into row ``r - ret_slot0`` of
    ``ret_words``.  :func:`run_plan` drives it with zero offsets over a
    fresh state.  ``raw_events`` rows are ``(flat_maj_index, step, lane, wa,
    wb, wc)`` in the tracked variant (empty when elided); event
    materialization and ordering live in :func:`run_plan`.
    """
    compiled = state.compiled
    separation = state.separation
    elide = state.elide
    p = compiled.n_phases
    depth = compiled.depth
    n_slots = inj_words.shape[0]
    n_ret = ret_words.shape[0]

    value = state.value
    wave = state.wave
    phases, in_buf = state._scratch()
    inv_masks = ~inj_masks
    in_rows = _input_writer(compiled)
    in_rows_col = (
        in_rows if isinstance(in_rows, slice) else in_rows[:, None]
    )
    out_node = compiled.out_node
    out_neg = compiled.out_neg[:, None]
    inputs_idx = compiled.inputs

    raw_events: list[tuple[int, int, int, int, int, int]] = []
    earliest_event = None

    take = np.take
    band = np.bitwise_and
    bor = np.bitwise_or
    bxor = np.bitwise_xor

    step0 = state.step
    for step in range(step0, step0 + n_steps):
        # 1) inject: every lane latches its slot's wave simultaneously
        if step % separation == 0:
            slot = step // separation - slot0
            if 0 <= slot < n_slots:
                take(value, inputs_idx, axis=0, out=in_buf, mode="clip")
                band(in_buf, inv_masks[slot], out=in_buf)
                bor(in_buf, inj_words[slot], out=in_buf)
                value[in_rows] = in_buf
                if not elide:
                    lanes = inj_active[slot]
                    if lanes.size:
                        wave[in_rows_col, lanes] = slot + slot0
        # 2) clocked components of this phase latch from their
        # neighbours; one combined gather reads the pre-step snapshot
        # (the scalar loop's deepest-first order has exactly these
        # snapshot semantics)
        ps = phases[step % p]
        n_maj = ps.n_maj
        if n_maj or ps.n_buf:
            take(value, ps.src, axis=0, out=ps.gather, mode="clip")
            bxor(ps.gather, ps.neg, out=ps.gather)
            if not elide:
                # the BUF rows of the wave-id gather are scattered below
                # even when the phase has no MAJ — gather unconditionally
                take(wave, ps.src, axis=0, out=ps.wgather, mode="clip")
        if n_maj:
            a, b, c, acc = ps.a, ps.b, ps.c, ps.acc
            band(a, b, out=acc)
            band(a, c, out=a)  # a's raw plane is no longer needed
            bor(acc, a, out=acc)
            band(b, c, out=b)
            bor(acc, b, out=acc)
            if not elide:
                wa, wb, wc = ps.wa, ps.wb, ps.wc
                # warming: any fan-in that has not seen a wave yet
                m1, m2 = ps.scratch_bool1, ps.scratch_bool2
                np.equal(wa, -1, out=m1)
                np.equal(wb, -1, out=m2)
                np.logical_or(m1, m2, out=m1)
                np.equal(wc, -1, out=m2)
                np.logical_or(m1, m2, out=ps.warming)
                # interference: two non-negative fan-in ids differ
                ga, gb, gc, hit = ps.ge_a, ps.ge_b, ps.ge_c, ps.hit
                np.greater_equal(wa, 0, out=ga)
                np.greater_equal(wb, 0, out=gb)
                np.greater_equal(wc, 0, out=gc)
                np.not_equal(wa, wb, out=m1)
                np.logical_and(m1, ga, out=m1)
                np.logical_and(m1, gb, out=hit)
                np.not_equal(wa, wc, out=m1)
                np.logical_and(m1, ga, out=m1)
                np.logical_and(m1, gc, out=m1)
                np.logical_or(hit, m1, out=hit)
                np.not_equal(wb, wc, out=m1)
                np.logical_and(m1, gb, out=m1)
                np.logical_and(m1, gc, out=m1)
                np.logical_or(hit, m1, out=hit)
                # latched id: max id, warming dominates, all-constant = -2
                wacc = ps.wacc
                np.maximum(wa, wb, out=wacc)
                np.maximum(wacc, wc, out=wacc)
                np.less(wacc, 0, out=m1)
                np.copyto(wacc, np.int32(-2), where=m1)
                np.copyto(wacc, np.int32(-1), where=ps.warming)
                if hit.any():
                    flat_lo = ps.flat_lo
                    # lint: alloc-ok(interference-event path: reached only when hit.any is true — never on the balanced netlists the flow produces; per-event cost is irrelevant next to materializing the events)
                    for row, lane in zip(*np.nonzero(hit)):
                        if not keep_lo[lane] <= step < keep_hi[lane]:
                            continue  # another lane owns this tape step
                        raw_events.append(
                            (
                                flat_lo + int(row),
                                step,
                                int(lane),
                                int(wa[row, lane]),
                                int(wb[row, lane]),
                                int(wc[row, lane]),
                            )
                        )
                        absolute = step + int(offset[lane])
                        if earliest_event is None or absolute < earliest_event:
                            earliest_event = absolute
        if n_maj:
            value[ps.maj_lo:ps.maj_hi] = ps.acc
            if not elide:
                wave[ps.maj_lo:ps.maj_hi] = ps.wacc
        if ps.n_buf:
            value[ps.buf_lo:ps.buf_hi] = ps.bufs
            if not elide:
                wave[ps.buf_lo:ps.buf_hi] = ps.wbufs
        # 3) retire: snapshot the output words; bits are extracted
        # vectorized after the loop
        if step >= depth and (step - depth) % separation == 0:
            ret_row = (step - depth) // separation - ret_slot0
            if 0 <= ret_row < n_ret:
                ret = ret_words[ret_row]
                take(value, out_node, axis=0, out=ret, mode="clip")
                bxor(ret, out_neg, out=ret)
        # In strict mode stop as soon as no lane can still discover an
        # earlier event (absolute = local + offset, offsets are >= 0).
        # With several streams the caller wants the *first stream's*
        # first event, so the loop must run to completion.
        if (
            strict_single
            and earliest_event is not None
            and step > earliest_event
        ):
            state.step = step + 1
            return raw_events

    state.step = step0 + n_steps
    return raw_events


# ----------------------------------------------------------------------
# one-shot run + event materialization
# ----------------------------------------------------------------------
def run_plan(
    compiled: CompiledWaveNetlist,
    plan: "_LanePlan",
    inj_words: np.ndarray,
    inj_masks: np.ndarray,
    inj_active: list,
    separation: int,
    strict: bool,
    elide: Optional[bool] = None,
) -> tuple[np.ndarray, list]:
    """Advance every lane of *plan* with the tracked or elided kernels.

    Returns ``(ret_words, events)``: the per-retire-slot output-word
    snapshots (bit extraction happens in the caller's report merging) and
    the kept interference records ``(stream, absolute_step, order,
    WaveInterference)`` sorted the way the scalar loop emits them (per
    stream, then by step, then by within-phase order).  *elide* of
    ``None`` applies :func:`can_elide_tracking`; an explicit ``True`` is
    rejected when the static proof does not hold.  The run is a fresh
    :class:`SessionState` advanced across the plan's whole timeline with
    zero offsets, then discarded.
    """
    elide = resolve_tracking(
        compiled, separation, None if elide is None else not elide
    )
    state = SessionState(
        compiled, separation, elide=elide,
        n_lanes=plan.n_lanes, n_words=plan.n_words,
    )
    n_ret = _retire_slot_count(plan.local_steps, compiled.depth, separation)
    ret_words = np.empty(
        (n_ret, compiled.out_node.size, plan.n_words), dtype=_WORD
    )
    strict_single = bool(strict and plan.stream_waves.size == 1)
    raw = _advance(
        state, plan.local_steps, inj_words, inj_masks, inj_active, 0,
        ret_words, 0, plan.keep_lo, plan.keep_hi, plan.offset,
        strict_single,
    )
    return ret_words, _materialize_events(compiled, plan, raw)


def _materialize_events(
    compiled: CompiledWaveNetlist, plan: "_LanePlan", raw_events: list
) -> list:
    """Raw kernel event rows -> sorted scalar-ordered event records.

    Kept step regions tile each stream's timeline, so ``(stream,
    absolute step)`` pairs are unique across lanes and sorting restores
    the scalar loop's emission order regardless of the order the kernel
    discovered the events in.
    """
    events = []
    maj_ptr = compiled.maj_ptr
    p = compiled.n_phases
    for flat, step, lane, wa, wb, wc in raw_events:
        order = flat - int(maj_ptr[step % p])
        absolute = step + int(plan.offset[lane])
        wave0 = int(plan.wave0[lane])
        ids = sorted({w + wave0 for w in (wa, wb, wc) if w >= 0})
        events.append(
            (
                int(plan.stream[lane]),
                absolute,
                order,
                WaveInterference(
                    absolute, int(compiled.maj_comp[flat]), tuple(ids)
                ),
            )
        )
    events.sort(key=lambda item: item[:3])
    return events
