"""Execution kernels of the packed wave-simulation engine.

:mod:`repro.core.wavepipe.batch` owns the *planning* side of the packed
engine: which kernel a run takes, lane plans, injection packing and
report building.  This module owns the *execution* side, in two kernels.

The functional pass (wave-ready runs)
-------------------------------------
The scalar oracle tracks a wave id per component to detect interference.
The paper's own clocking discipline makes that tracking unnecessary on
the netlists the flow produces (:func:`can_elide_tracking`):

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

So each wave's outputs are the netlist's combinational function of its
own inputs, retired ``depth`` steps after its injection, and the
report's interference list is empty exactly as the scalar oracle's would
be, in strict mode too.  Such a run steps no clock: a
:class:`FunctionalNetlist` collapses every BUF/FOG chain to its root
literal, groups the MAJ rows by level, and evaluates one level per array
operation, 64 waves per ``uint64`` word.  It touches each MAJ row once
per 64 waves and never a BUF or FOG row.
:func:`repro.core.wavepipe.verify.simulate_equivalent` runs the same
evaluator.

The tracked step loop
---------------------
Every other run (unbalanced netlist, a separation below ``p`` handed to
:func:`run_plan` directly, or ``track=True``) steps :func:`run_plan`: an
``(n_components, n_words)`` uint64 value matrix and an ``(n_components,
n_lanes)`` int32 wave-id matrix advance one clock phase per step and
reproduce the oracle's events bit for bit.  All scratch is allocated
once per run and every gather / complement / majority / scatter runs in
place (``np.take(..., out=)``, ufunc ``out=``), so the loop performs
**zero per-step allocations**.  Both kernels allocate their buffers per
call, so shard threads and session dispatchers may run one compiled
netlist at the same time.

Compiled layout
---------------
:func:`compile_netlist` flattens a netlist into per-phase tables and
**permutes the state rows** so that every phase's MAJ block, every
phase's BUF/FOG block, and the primary inputs are each *contiguous*:
all per-step scatters become slice assignments (memcpy) instead of
fancy indexing.  Reported component ids stay in the netlist's own
numbering (``maj_comp``); the permutation is invisible outside this
module.  The same cache entry holds the netlist's
:class:`FunctionalNetlist`.  The step loop retires waves by snapshotting
the output words into a preallocated ``(n_retire_slots, n_outputs,
n_words)`` array; ``batch.py`` extracts the per-wave bits once,
vectorized, after the loop.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .clocking import ClockingScheme
from .components import Kind, WaveNetlist
from .simulator import WaveInterference
from .verify import _root_literals, is_balanced

if TYPE_CHECKING:  # the plan type lives with the planner
    from .batch import _LanePlan

_WORD = np.uint64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


# ----------------------------------------------------------------------
# the functional pass (levelized MAJ rows, 64 waves per word)
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class FunctionalNetlist:
    """A netlist's combinational function, levelized for word evaluation.

    Value rows: 0 is the constant, ``1..n_inputs`` the inputs in PI order,
    then the MAJ rows grouped by level.  Level ``k`` of :attr:`levels`
    is ``(src, neg, lo, hi)``: it writes value rows ``[lo, hi)`` from the
    ``3 * (hi - lo)`` fan-in rows ``src`` (the first fan-in of every MAJ
    of the level, then every second, then every third) complemented by
    the masks ``neg``.  Every BUF/FOG chain is collapsed into those root
    fan-ins, so no BUF or FOG row exists.  Immutable: each evaluation
    allocates its own buffers, so threads may share one instance.
    """

    n_inputs: int
    n_rows: int  # 1 + n_inputs + MAJ rows
    width: int  # MAJ rows of the widest level
    levels: tuple  # per level (src, neg, lo, hi), views never written
    out_row: np.ndarray  # (n_outputs,) value row of each output's root
    out_neg: np.ndarray  # (n_outputs, 1) uint64 complement masks

    @classmethod
    def build(cls, netlist: WaveNetlist) -> "FunctionalNetlist":
        """Levelize *netlist* with array operations (rejects cycles)."""
        levels = netlist.levels()  # raises NetlistError on a cycle
        kinds, fanins, outputs = netlist.arrays()
        root = _root_literals(kinds, fanins)
        majs = np.flatnonzero(kinds == Kind.MAJ)
        majs = majs[np.argsort(levels[majs], kind="stable")]
        n_inputs, n_maj = len(netlist.inputs), len(majs)
        first = 1 + n_inputs
        row = np.zeros(len(kinds), dtype=np.int64)
        row[np.asarray(netlist.inputs, dtype=np.int64)] = np.arange(
            1, first
        )
        row[majs] = np.arange(first, first + n_maj)
        # level k holds MAJ positions [bounds[k], bounds[k + 1]); fan-in j
        # of position i lands at 3 * bounds[k] + j * size[k] + offset
        maj_levels = levels[majs]
        bounds = np.flatnonzero(np.diff(maj_levels, prepend=-1, append=-1))
        sizes = np.diff(bounds)
        level_of = np.repeat(np.arange(sizes.size), sizes)
        lo = bounds[level_of]
        flat = (2 * lo + np.arange(n_maj))[:, None] + (
            np.arange(3) * sizes[level_of][:, None]
        )
        lits = fanins[majs]
        lits = root[lits >> 1] ^ (lits & 1)
        src = np.empty(3 * n_maj, dtype=np.int64)
        neg = np.empty((3 * n_maj, 1), dtype=_WORD)
        src[flat] = row[lits >> 1]
        neg[flat, 0] = _neg_masks(lits)
        # src stays writeable: np.take copies read-only indices per call
        neg.flags.writeable = False
        spans = bounds.tolist()
        out = root[outputs >> 1] ^ (outputs & 1)
        return cls(
            n_inputs=n_inputs,
            n_rows=first + n_maj,
            width=int(sizes.max(initial=0)),
            levels=tuple(
                (src[3 * a:3 * b], neg[3 * a:3 * b], first + a, first + b)
                for a, b in zip(spans, spans[1:])
            ),
            out_row=row[out >> 1],
            out_neg=_neg_masks(out)[:, None],
        )

    def evaluate(self, words: np.ndarray) -> np.ndarray:
        """``(n_inputs, n_words)`` input words -> ``(n_outputs, n_words)``
        output words, bit *b* of every word one independent pattern."""
        values = np.empty((self.n_rows, words.shape[1]), dtype=_WORD)
        values[0] = 0
        values[1:1 + self.n_inputs] = words
        gather = np.empty((3 * self.width, words.shape[1]), dtype=_WORD)
        _evaluate_levels(values, gather, self.levels)
        out = values[self.out_row]
        out ^= self.out_neg
        return out

    def run(self, bits: np.ndarray) -> np.ndarray:
        """``(waves, n_inputs)`` bools -> read-only ``(waves, n_outputs)``
        bools: wave *w* rides bit ``w mod 64`` of word ``w // 64``."""
        n_waves = bits.shape[0]
        # wave 8j + b is bit b of byte j: bytes of little-endian words.
        # Both codecs run along a contiguous axis (3-4x faster than
        # packing across rows) and transpose the bools
        octets = np.zeros((self.n_inputs, -(-n_waves // 64) * 8), np.uint8)
        octets[:, :-(-n_waves // 8)] = np.packbits(
            np.ascontiguousarray(bits.T), axis=1, bitorder="little"
        )
        out = self.evaluate(octets.view(_WORD)).view(np.uint8)
        result = np.ascontiguousarray(
            np.unpackbits(out, axis=1, count=n_waves, bitorder="little").T
        ).view(bool)
        result.flags.writeable = False
        return result


# lint: hot
def _evaluate_levels(
    values: np.ndarray, gather: np.ndarray, levels: tuple
) -> None:
    """Compute every MAJ row of *values* in place, one level per pass.

    A level's fan-ins sit in earlier rows (a MAJ's root fan-ins lie at
    lower levels), so each level reads finished rows only.  ``MAJ(a, b,
    c) = ab | c(a | b)``: four in-place ops over the gathered planes.
    """
    take = np.take
    band = np.bitwise_and
    bor = np.bitwise_or
    bxor = np.bitwise_xor
    for src, neg, lo, hi in levels:
        m = hi - lo
        planes = gather[:3 * m]
        take(values, src, axis=0, out=planes, mode="clip")
        bxor(planes, neg, out=planes)
        a = planes[:m]
        b = planes[m:2 * m]
        c = planes[2 * m:]
        acc = values[lo:hi]
        band(a, b, out=acc)
        bor(a, b, out=a)
        band(a, c, out=a)
        bor(acc, a, out=acc)


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
    functional: FunctionalNetlist  # the wave-ready runs' evaluator


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
        functional=FunctionalNetlist.build(netlist),
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
    ever combines fan-ins of a single wave: the functional pass is then
    bit-identical to the tracked step loop with an empty event list, in
    strict mode too.  Every separation the public entry points produce is
    a multiple of ``p``; the explicit check guards direct kernel callers.
    """
    return compiled.balanced and separation >= compiled.n_phases


# ----------------------------------------------------------------------
# the tracked step loop
# ----------------------------------------------------------------------
class _PhaseScratch:
    """Preallocated per-phase buffers of the step loop.

    One combined gather serves the whole phase: rows ``[0:3m)`` hold the
    three MAJ fan-in planes, rows ``[3m:3m+b)`` the BUF/FOG fan-ins, so a
    single ``np.take`` + one masked xor replaces four allocations of the
    PR-2 loop.  The int32 wave-id planes mirror the layout.
    """

    __slots__ = (
        "src", "neg", "gather", "a", "b", "c", "bufs", "acc", "n_maj",
        "n_buf", "maj_lo", "maj_hi", "buf_lo", "buf_hi", "wgather", "wa",
        "wb", "wc", "wbufs", "wacc", "warming", "scratch_bool1",
        "scratch_bool2", "ge_a", "ge_b", "ge_c", "hit", "flat_lo",
    )

    def __init__(self, compiled: CompiledWaveNetlist, phase: int,
                 n_words: int, n_lanes: int) -> None:
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


# lint: hot
def run_plan(
    compiled: CompiledWaveNetlist,
    plan: "_LanePlan",
    inj_words: np.ndarray,
    inj_masks: np.ndarray,
    inj_active: list,
    separation: int,
    strict: bool,
) -> tuple[np.ndarray, list]:
    """Advance every lane of *plan* with the tracked step loop.

    Returns ``(ret_words, events)``: the per-retire-slot output-word
    snapshots (bit extraction happens in the caller's report merging) and
    the kept interference records ``(stream, absolute_step, order,
    WaveInterference)`` sorted the way the scalar loop emits them (per
    stream, then by step, then by within-phase order).  Injection slot
    ``s`` fires at step ``s * separation``; retire slot ``r`` snapshots
    into ``ret_words[r]``.  The value and wave-id matrices and the
    per-phase scratch live for this call only.
    """
    p = compiled.n_phases
    depth = compiled.depth
    n_slots = inj_words.shape[0]
    n_words, n_lanes = plan.n_words, plan.n_lanes
    value = np.zeros((compiled.n_components, n_words), dtype=_WORD)
    wave = np.full((compiled.n_components, n_lanes), -1, dtype=np.int32)
    wave[0, :] = -2  # constants belong to every wave
    phases = [_PhaseScratch(compiled, ph, n_words, n_lanes) for ph in range(p)]
    inputs_idx = compiled.inputs
    in_buf = np.empty((inputs_idx.size, n_words), dtype=_WORD)
    # retire steps (step >= depth, aligned) inside the loop
    n_ret = (
        (plan.local_steps - 1 - depth) // separation + 1
        if plan.local_steps > depth else 0
    )
    ret_words = np.empty((n_ret, compiled.out_node.size, n_words), dtype=_WORD)
    inv_masks = ~inj_masks
    # inputs are scattered by slice assignment when their rows are one run
    in_rows: Union[slice, np.ndarray] = inputs_idx
    in_rows_col: Union[slice, np.ndarray] = inputs_idx[:, None]
    if compiled.inputs_contiguous and inputs_idx.size:
        lo = int(inputs_idx[0])
        in_rows = in_rows_col = slice(lo, lo + inputs_idx.size)
    out_node = compiled.out_node
    out_neg = compiled.out_neg[:, None]
    keep_lo, keep_hi, offset = plan.keep_lo, plan.keep_hi, plan.offset
    # In strict mode stop as soon as no lane can still discover an
    # earlier event (absolute = local + offset, offsets are >= 0).  With
    # several streams the caller wants the *first stream's* first event,
    # so the loop must run to completion.
    strict_single = bool(strict and plan.stream_waves.size == 1)

    raw_events: list[tuple[int, int, int, int, int, int]] = []
    earliest_event = None

    take = np.take
    band = np.bitwise_and
    bor = np.bitwise_or
    bxor = np.bitwise_xor

    for step in range(plan.local_steps):
        # 1) inject: every lane latches its slot's wave simultaneously
        if step % separation == 0:
            slot = step // separation
            if slot < n_slots:
                take(value, inputs_idx, axis=0, out=in_buf, mode="clip")
                band(in_buf, inv_masks[slot], out=in_buf)
                bor(in_buf, inj_words[slot], out=in_buf)
                value[in_rows] = in_buf
                lanes = inj_active[slot]
                if lanes.size:
                    wave[in_rows_col, lanes] = slot
        # 2) clocked components of this phase latch from their
        # neighbours; one combined gather reads the pre-step snapshot
        # (the scalar loop's deepest-first order has exactly these
        # snapshot semantics).  The BUF rows of the wave-id gather are
        # scattered below even when the phase has no MAJ, so both
        # gathers run whenever the phase holds any component.
        ps = phases[step % p]
        n_maj = ps.n_maj
        if n_maj or ps.n_buf:
            take(value, ps.src, axis=0, out=ps.gather, mode="clip")
            bxor(ps.gather, ps.neg, out=ps.gather)
            take(wave, ps.src, axis=0, out=ps.wgather, mode="clip")
        if n_maj:
            a, b, c, acc = ps.a, ps.b, ps.c, ps.acc
            band(a, b, out=acc)
            band(a, c, out=a)  # a's raw plane is no longer needed
            bor(acc, a, out=acc)
            band(b, c, out=b)
            bor(acc, b, out=acc)
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
            value[ps.maj_lo:ps.maj_hi] = acc
            wave[ps.maj_lo:ps.maj_hi] = wacc
        if ps.n_buf:
            value[ps.buf_lo:ps.buf_hi] = ps.bufs
            wave[ps.buf_lo:ps.buf_hi] = ps.wbufs
        # 3) retire: snapshot the output words; bits are extracted
        # vectorized after the loop
        if step >= depth and (step - depth) % separation == 0:
            ret_row = (step - depth) // separation
            if ret_row < n_ret:
                ret = ret_words[ret_row]
                take(value, out_node, axis=0, out=ret, mode="clip")
                bxor(ret, out_neg, out=ret)
        if (
            strict_single
            and earliest_event is not None
            and step > earliest_event
        ):
            break
    return ret_words, _materialize_events(compiled, plan, raw_events)


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
