"""Compiled step-loop kernels for the packed wave-simulation engine.

:mod:`repro.core.wavepipe.batch` owns the *planning* side of the packed
engine — lane plans, injection packing, report merging.  This module owns
the *execution* side: the per-clock-step hot loop that advances the
``(n_components, n_words)`` uint64 state matrix, in four interchangeable
variants spanning two axes.

Backend axis (``backend=``)
---------------------------
``"fused"``
    Whole-array numpy kernels.  All scratch buffers are preallocated once
    per plan and every gather / complement / majority / scatter runs
    in place (``np.take(..., out=)``, ufunc ``out=``), so the loop
    performs **zero per-step allocations** and a fixed, small number of
    C-dispatched array calls per step.  This is the default backend and
    the fallback whenever numba is unavailable.
``"jit"``
    The same step loop written as a plain loop nest and compiled with
    numba's ``@njit`` when numba is importable (install the ``[jit]``
    extra).  Auto-selected over ``"fused"`` when numba is present;
    ``repro simulate --no-jit``, ``REPRO_JIT=0``, or
    :func:`set_default_backend` force the pure-numpy kernels.  Without
    numba an explicit ``backend="jit"`` request still runs — as the
    *uncompiled* loop nest — so the JIT code path stays testable (and
    bit-identical) in numba-less environments; it is simply never
    auto-selected there.

Tracking axis (elision)
-----------------------
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

All four kernel variants retire waves by snapshotting the output words
into a preallocated ``(n_retire_slots, n_outputs, n_words)`` array; the
per-wave bit extraction happens once, vectorized, after the loop (in
``batch.py``'s report merging) instead of per retirement inside it.

Resumable sessions
------------------
:class:`SessionState` packages everything the step loop owns — the
packed value matrix, the wave-id matrix, the reusable scratch buffers,
and the *absolute* step counter — so the loop can pause after step k and
continue later with newly injected waves appended to the existing lanes.
All four kernel variants run over absolute steps with explicit
``(step0, slot0, ret_slot0)`` offsets; the one-shot entry points drive
them with zero offsets over a fresh state, the streaming path
(:class:`repro.core.wavepipe.batch.PackedSession`) re-enters them with
whatever step the previous feed left behind.  There is deliberately no
second loop implementation to drift from the one-shot kernels.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ...errors import SimulationError
from .clocking import ClockingScheme
from .components import Kind, WaveNetlist
from .simulator import WaveInterference
from .verify import is_balanced

if TYPE_CHECKING:  # the plan type lives with the planner
    from .batch import _LanePlan

try:  # optional JIT backend (the `repro[jit]` extra)
    import numba
except ImportError:  # pragma: no cover - exercised by the no-numba CI job
    numba = None

_WORD = np.uint64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Step-loop backends accepted by the packed entry points.
BACKENDS = ("fused", "jit")

#: Process-wide backend override (``repro simulate --no-jit`` sets it).
_BACKEND_OVERRIDE: Optional[str] = None


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def jit_available() -> bool:
    """True when numba is importable (the ``jit`` backend compiles)."""
    return numba is not None


def set_default_backend(backend: Optional[str]) -> None:
    """Pin the process-wide default backend (``None`` restores auto).

    The CLI's ``--no-jit`` escape hatch calls
    ``set_default_backend("fused")``; libraries should prefer the
    explicit ``backend=`` argument of the packed entry points.
    """
    if backend is not None and backend not in BACKENDS:
        raise SimulationError(
            f"unknown kernel backend {backend!r}; choose from {BACKENDS}"
        )
    global _BACKEND_OVERRIDE
    _BACKEND_OVERRIDE = backend


def default_backend() -> str:
    """Backend used when none is requested explicitly.

    Resolution order: :func:`set_default_backend` override, then the
    ``REPRO_JIT`` environment variable (``0``/``off`` forces the fused
    numpy kernels, ``1``/``on`` requests the JIT loop nest), then
    auto-detection: ``"jit"`` when numba is importable, else ``"fused"``.
    """
    if _BACKEND_OVERRIDE is not None:
        return _BACKEND_OVERRIDE
    env = os.environ.get("REPRO_JIT", "").strip().lower()
    if env in ("0", "off", "false", "no"):
        return "fused"
    if env in ("1", "on", "true", "yes") and numba is not None:
        return "jit"
    # REPRO_JIT=1 without numba falls through to auto-detection (fused):
    # the env var states a *preference*, and silently running the
    # uncompiled loop nest would be orders of magnitude slower than
    # fused.  An explicit backend="jit" argument still runs uncompiled
    # (that is how the JIT code path is tested without numba).
    return "jit" if numba is not None else "fused"


def resolve_backend(backend: Optional[str]) -> str:
    """Validate an explicit backend choice or fall back to the default."""
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise SimulationError(
            f"unknown kernel backend {backend!r}; choose from {BACKENDS}"
        )
    return backend


#: Planner calibration: the fixed per-step cost of each kernel variant
#: (interpreter dispatch plus the width-independent array walks), in
#: component-lane units — one tracked int32 wave-id element processed is
#: one unit, the normalization of the PR-2 cost model.  A variant that
#: moves *less* data per component-lane has a proportionally *larger*
#: constant, pushing the planner toward wider plans (fewer, wider
#: steps).  Measured on the suite's ctrl/i2c netlists; only the order of
#: magnitude matters, the optimum is flat around its minimum.
#:
#: The jit constants are kept as calibrated at PR 3 (they are *not*
#: re-derived from the fused ones): a compiled loop nest has near-zero
#: per-step dispatch, so its fixed cost is dominated by the Python-side
#: driver frame around each kernel call — which the hot-path lint now
#: pins down to exactly the argument marshalling in ``_run_loop_nest``
#: (no per-step Python work exists inside the nest at all).  That makes
#: the jit constants *plan-shape* knobs rather than timing estimates:
#: they only have to be large enough relative to the per-element cost
#: that the planner prefers one wide plan over many narrow ones, and
#: the optimum is flat for roughly a decade around each value
#: (``benchmarks/bench_planner_overhead.py`` sweeps the constants and
#: shows the plateau; re-run it under numba if the loop nests gain any
#: per-step driver work).  Re-measuring inside a numba-less container
#: would calibrate the *uncompiled* nests — orders of magnitude off —
#: so the committed values deliberately stay the numba-measured ones.
PLANNER_STEP_OVERHEAD = {
    # tracked fused: the PR-2 loop's calibration (int32 matrix dominates)
    ("fused", False): 400_000,
    # elided fused: a lane is one bit of uint64 across ~10 in-place ops,
    # ~30x cheaper than a tracked wave-id element
    ("fused", True): 4_000_000,
    # jit loop nests: near-zero dispatch, but scalar per-lane work; the
    # compiled loop's fixed cost per step is ~100x below fused's
    ("jit", False): 1_000_000,
    ("jit", True): 8_000_000,
}


def planner_step_overhead(backend: str, elided: bool) -> int:
    """Cost-model constant for one (backend, tracking) kernel variant."""
    return PLANNER_STEP_OVERHEAD[(resolve_backend(backend), bool(elided))]


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
    """Retire steps (``step >= depth``, aligned) inside the local loop.

    Equivalently: the number of retire slots whose retire step lies
    *strictly before* absolute step ``local_steps`` — the streaming path
    uses it in that reading to derive ``ret_slot0`` for a resumed loop.
    """
    if local_steps <= depth:
        return 0
    return (local_steps - 1 - depth) // separation + 1


# ----------------------------------------------------------------------
# resumable session state
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class SessionSnapshot:
    """Checkpoint of a :class:`SessionState` (arrays defensively copied)."""

    step: int
    n_lanes: int
    n_words: int
    value: np.ndarray
    wave: np.ndarray


class SessionState:
    """Everything the step loop owns, packaged to pause and resume.

    A one-shot packed run allocates this fresh, advances it across the
    plan's whole timeline, and throws it away.  A streaming session keeps
    it alive between feeds: the absolute ``step`` counter, the packed
    ``(n_components, n_words)`` value matrix and — tracked variants —
    the ``(n_components, n_lanes)`` wave-id matrix persist, while the
    per-phase scratch buffers are reused across advances and rebuilt
    transparently when the session :meth:`widen`\\ s.  :meth:`snapshot` /
    :meth:`restore` give the serving tier its checkpoint primitive.

    Sessions step through :meth:`advance`, which runs the *same* kernels
    as the one-shot path, only with non-zero (step, slot, retire-slot)
    offsets — bit-identity between a resumed loop and a solo loop is a
    property of sharing the loop, not of a parallel implementation.
    """

    __slots__ = (
        "compiled", "separation", "elide", "backend", "n_lanes", "n_words",
        "step", "value", "wave", "_phases", "_in_buf", "_nest",
    )

    def __init__(
        self,
        compiled: CompiledWaveNetlist,
        separation: int,
        *,
        elide: bool,
        backend: Optional[str],
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
        self.backend = resolve_backend(backend)
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
        self._nest: Optional[tuple] = None

    # -- scratch (rebuilt lazily after widen/restore) ------------------
    def _fused_scratch(self) -> tuple:
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

    def _nest_scratch(self) -> tuple:
        if self._nest is None:
            n_maj = self.compiled.maj_comp.size
            n_buf = self.compiled.buf_comp.size
            new_maj = np.empty((n_maj, self.n_words), dtype=_WORD)
            new_buf = np.empty((n_buf, self.n_words), dtype=_WORD)
            if self.elide:
                wacc_maj = np.empty((0, 0), dtype=np.int32)
                wacc_buf = wacc_maj
            else:
                wacc_maj = np.empty((n_maj, self.n_lanes), dtype=np.int32)
                wacc_buf = np.empty((n_buf, self.n_lanes), dtype=np.int32)
            self._nest = (new_maj, new_buf, wacc_maj, wacc_buf)
        return self._nest

    # -- checkpointing -------------------------------------------------
    def snapshot(self) -> SessionSnapshot:
        """Copy-out checkpoint; :meth:`restore` rewinds to it exactly."""
        return SessionSnapshot(
            self.step, self.n_lanes, self.n_words,
            self.value.copy(), self.wave.copy(),
        )

    def restore(self, snap: SessionSnapshot) -> None:
        """Rewind to *snap* (lane/word geometry restored too)."""
        if snap.n_lanes != self.n_lanes or snap.n_words != self.n_words:
            self._phases = None
            self._in_buf = None
            self._nest = None
        self.step = snap.step
        self.n_lanes = snap.n_lanes
        self.n_words = snap.n_words
        self.value = snap.value.copy()
        self.wave = snap.wave.copy()

    def widen(self, n_lanes: int, n_words: int) -> None:
        """Append fresh lanes/words without disturbing in-flight waves.

        New lanes start exactly like a fresh run's: all-zero value bits
        and (tracked) wave id ``-1`` everywhere but the constant row.
        Shrinking is refused — retiring lanes simply stop being fed.
        """
        if n_lanes < self.n_lanes or n_words < self.n_words:
            raise SimulationError("session state can only widen, not shrink")
        if n_lanes == self.n_lanes and n_words == self.n_words:
            return
        value = np.zeros(
            (self.compiled.n_components, n_words), dtype=_WORD
        )
        value[:, : self.n_words] = self.value
        self.value = value
        if not self.elide:
            wave = np.full(
                (self.compiled.n_components, n_lanes), -1, dtype=np.int32
            )
            wave[:, : self.n_lanes] = self.wave
            wave[0, self.n_lanes:] = -2
            self.wave = wave
        self.n_lanes = int(n_lanes)
        self.n_words = int(n_words)
        self._phases = None
        self._in_buf = None
        self._nest = None

    # -- streaming advance ---------------------------------------------
    def advance(
        self,
        n_steps: int,
        inj_words: np.ndarray,
        inj_masks: np.ndarray,
        inj_active: list,
        inj_lane: np.ndarray,
        slot0: int,
        ret_words: np.ndarray,
        ret_slot0: int,
    ) -> None:
        """Run ``n_steps`` absolute steps with new injections appended.

        Injection slot ``s`` (absolute, ``s * separation >= step``) reads
        row ``s - slot0`` of the injection arrays; retire slot ``r``
        snapshots into row ``r - ret_slot0`` of ``ret_words``.  Session
        creation is gated on :func:`can_elide_tracking`, which makes
        interference statically impossible — any event the tracked
        kernels record is therefore an internal contract violation and
        raises instead of being reported.
        """
        keep_lo = np.zeros(self.n_lanes, dtype=np.int64)
        keep_hi = np.full(
            self.n_lanes, np.iinfo(np.int64).max, dtype=np.int64
        )
        offset = np.zeros(self.n_lanes, dtype=np.int64)
        if self.backend == "jit":
            n_events, _ = _advance_loop_nest(
                self, n_steps, inj_words, inj_masks, inj_lane, slot0,
                ret_words, ret_slot0, keep_lo, keep_hi, offset, False, 16,
            )
        else:
            n_events = len(
                _advance_fused(
                    self, n_steps, inj_words, inj_masks, inj_active,
                    slot0, ret_words, ret_slot0, keep_lo, keep_hi, offset,
                    False,
                )
            )
        if n_events:
            raise SimulationError(
                "interference inside a streaming session: sessions "
                "require a wave-ready (balanced) netlist, which makes "
                "interference impossible — the session state is corrupt"
            )


# ----------------------------------------------------------------------
# fused numpy kernels
# ----------------------------------------------------------------------
class _PhaseScratch:
    """Preallocated per-phase buffers of the fused kernels.

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


def _input_writer(compiled: CompiledWaveNetlist):
    """(slice | index array) used to scatter freshly injected inputs."""
    if compiled.inputs_contiguous and compiled.inputs.size:
        lo = int(compiled.inputs[0])
        return slice(lo, lo + compiled.inputs.size)
    return compiled.inputs


# lint: hot
def _advance_fused(
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
    """Advance *state* ``n_steps`` fused-numpy steps; returns raw events.

    The loop covers absolute steps ``[state.step, state.step +
    n_steps)``: injection slot ``s`` (absolute) fires at step ``s *
    separation`` and reads row ``s - slot0`` of the injection arrays,
    retire slot ``r`` snapshots into row ``r - ret_slot0`` of
    ``ret_words``.  The one-shot path drives it with zero offsets over a
    fresh state; the streaming path re-enters with the previous feed's
    step.  ``raw_events`` rows are ``(flat_maj_index, step, lane, wa,
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
    phases, in_buf = state._fused_scratch()
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


def _run_fused(
    compiled: CompiledWaveNetlist,
    plan: "_LanePlan",
    inj_words: np.ndarray,
    inj_masks: np.ndarray,
    inj_active: list,
    separation: int,
    strict: bool,
    elide: bool,
) -> tuple[np.ndarray, list]:
    """Fused numpy step loop; returns ``(ret_words, raw_events)``.

    One-shot contract: a fresh :class:`SessionState` advanced across the
    plan's whole timeline with zero offsets, then discarded.
    """
    state = SessionState(
        compiled, separation, elide=elide, backend="fused",
        n_lanes=plan.n_lanes, n_words=plan.n_words,
    )
    n_ret = _retire_slot_count(plan.local_steps, compiled.depth, separation)
    ret_words = np.empty(
        (n_ret, compiled.out_node.size, plan.n_words), dtype=_WORD
    )
    strict_single = bool(strict and plan.stream_waves.size == 1)
    raw_events = _advance_fused(
        state, plan.local_steps, inj_words, inj_masks, inj_active, 0,
        ret_words, 0, plan.keep_lo, plan.keep_hi, plan.offset,
        strict_single,
    )
    return ret_words, raw_events


# ----------------------------------------------------------------------
# loop-nest kernels (numba-compiled when available)
# ----------------------------------------------------------------------
# lint: hot
def _kernel_elided(
    value, new_maj, new_buf, step0, local_steps, p, separation, depth,
    maj_ptr, maj_pos, maj_a, maj_b, maj_c, neg_a, neg_b, neg_c,
    buf_ptr, buf_pos, buf_src, buf_neg,
    inputs, inj_words, inj_masks, slot0, n_slots,
    out_node, out_neg, ret_words, ret_slot0,
):
    """Elided step loop as a plain loop nest (numba-compilable).

    Mutates ``value`` and fills ``ret_words``; ``new_maj``/``new_buf``
    buffer one phase's updates so all reads see the pre-step snapshot.
    The loop covers absolute steps ``[step0, step0 + local_steps)``;
    injection and retire rows are indexed relative to ``slot0`` /
    ``ret_slot0`` (all zero on the one-shot path).
    """
    n_words = value.shape[1]
    n_ret = ret_words.shape[0]
    for step in range(step0, step0 + local_steps):
        if step % separation == 0:
            slot = step // separation - slot0
            if 0 <= slot < n_slots:
                for i in range(inputs.shape[0]):
                    comp = inputs[i]
                    for w in range(n_words):
                        value[comp, w] = (
                            value[comp, w] & ~inj_masks[slot, w]
                        ) | inj_words[slot, i, w]
        ph = step % p
        m0, m1 = maj_ptr[ph], maj_ptr[ph + 1]
        for k in range(m0, m1):
            ra, rb, rc = maj_a[k], maj_b[k], maj_c[k]
            na, nb, nc = neg_a[k], neg_b[k], neg_c[k]
            for w in range(n_words):
                va = value[ra, w] ^ na
                vb = value[rb, w] ^ nb
                vc = value[rc, w] ^ nc
                new_maj[k, w] = (va & vb) | (va & vc) | (vb & vc)
        b0, b1 = buf_ptr[ph], buf_ptr[ph + 1]
        for k in range(b0, b1):
            rs, ng = buf_src[k], buf_neg[k]
            for w in range(n_words):
                new_buf[k, w] = value[rs, w] ^ ng
        for k in range(m0, m1):
            row = maj_pos[ph] + (k - m0)
            for w in range(n_words):
                value[row, w] = new_maj[k, w]
        for k in range(b0, b1):
            row = buf_pos[ph] + (k - b0)
            for w in range(n_words):
                value[row, w] = new_buf[k, w]
        if step >= depth and (step - depth) % separation == 0:
            ret = (step - depth) // separation - ret_slot0
            if 0 <= ret < n_ret:
                for o in range(out_node.shape[0]):
                    for w in range(n_words):
                        ret_words[ret, o, w] = (
                            value[out_node[o], w] ^ out_neg[o]
                        )
    return 0


# lint: hot
def _kernel_tracked(
    value, wave, new_maj, new_buf, wacc_maj, wacc_buf,
    step0, local_steps, p, separation, depth,
    maj_ptr, maj_pos, maj_a, maj_b, maj_c, neg_a, neg_b, neg_c,
    buf_ptr, buf_pos, buf_src, buf_neg,
    inputs, inj_words, inj_masks, slot0, n_slots,
    out_node, out_neg, ret_words, ret_slot0,
    inj_lane, keep_lo, keep_hi, offset, strict_single,
    ev_k, ev_step, ev_lane, ev_a, ev_b, ev_c,
):
    """Tracked step loop as a plain loop nest (numba-compilable).

    Records kept interference events as raw ``(flat index, step, lane,
    wa, wb, wc)`` rows into the ``ev_*`` arrays; returns the total kept
    event count, which may exceed the arrays' capacity — the caller then
    retries with larger buffers (counting continues past capacity so one
    retry always suffices).  ``inj_lane[slot, lane]`` says whether that
    lane latches a new wave in that (relative) slot; wave ids and steps
    are recorded in absolute terms (``slot + slot0``, absolute step).
    """
    n_words = value.shape[1]
    n_lanes = wave.shape[1]
    n_ret = ret_words.shape[0]
    cap = ev_k.shape[0]
    n_events = 0
    earliest = -1
    for step in range(step0, step0 + local_steps):
        if step % separation == 0:
            slot = step // separation - slot0
            if 0 <= slot < n_slots:
                for i in range(inputs.shape[0]):
                    comp = inputs[i]
                    for w in range(n_words):
                        value[comp, w] = (
                            value[comp, w] & ~inj_masks[slot, w]
                        ) | inj_words[slot, i, w]
                    for lane in range(n_lanes):
                        if inj_lane[slot, lane]:
                            wave[comp, lane] = np.int32(slot + slot0)
        ph = step % p
        m0, m1 = maj_ptr[ph], maj_ptr[ph + 1]
        for k in range(m0, m1):
            ra, rb, rc = maj_a[k], maj_b[k], maj_c[k]
            na, nb, nc = neg_a[k], neg_b[k], neg_c[k]
            for w in range(n_words):
                va = value[ra, w] ^ na
                vb = value[rb, w] ^ nb
                vc = value[rc, w] ^ nc
                new_maj[k, w] = (va & vb) | (va & vc) | (vb & vc)
        b0, b1 = buf_ptr[ph], buf_ptr[ph + 1]
        for k in range(b0, b1):
            rs, ng = buf_src[k], buf_neg[k]
            for w in range(n_words):
                new_buf[k, w] = value[rs, w] ^ ng
            for lane in range(n_lanes):
                wacc_buf[k, lane] = wave[rs, lane]
        for k in range(m0, m1):
            ra, rb, rc = maj_a[k], maj_b[k], maj_c[k]
            for lane in range(n_lanes):
                wa = wave[ra, lane]
                wb = wave[rb, lane]
                wc = wave[rc, lane]
                if wa == -1 or wb == -1 or wc == -1:
                    nw = np.int32(-1)
                else:
                    top = wa
                    if wb > top:
                        top = wb
                    if wc > top:
                        top = wc
                    nw = top if top >= 0 else np.int32(-2)
                wacc_maj[k, lane] = nw
                hit = (
                    (wa >= 0 and wb >= 0 and wa != wb)
                    or (wa >= 0 and wc >= 0 and wa != wc)
                    or (wb >= 0 and wc >= 0 and wb != wc)
                )
                if hit and keep_lo[lane] <= step and step < keep_hi[lane]:
                    if n_events < cap:
                        ev_k[n_events] = k
                        ev_step[n_events] = step
                        ev_lane[n_events] = lane
                        ev_a[n_events] = wa
                        ev_b[n_events] = wb
                        ev_c[n_events] = wc
                    n_events += 1
                    absolute = step + offset[lane]
                    if earliest < 0 or absolute < earliest:
                        earliest = absolute
        for k in range(m0, m1):
            row = maj_pos[ph] + (k - m0)
            for w in range(n_words):
                value[row, w] = new_maj[k, w]
            for lane in range(n_lanes):
                wave[row, lane] = wacc_maj[k, lane]
        for k in range(b0, b1):
            row = buf_pos[ph] + (k - b0)
            for w in range(n_words):
                value[row, w] = new_buf[k, w]
            for lane in range(n_lanes):
                wave[row, lane] = wacc_buf[k, lane]
        if step >= depth and (step - depth) % separation == 0:
            ret = (step - depth) // separation - ret_slot0
            if 0 <= ret < n_ret:
                for o in range(out_node.shape[0]):
                    for w in range(n_words):
                        ret_words[ret, o, w] = (
                            value[out_node[o], w] ^ out_neg[o]
                        )
        if strict_single and earliest >= 0 and step > earliest:
            break
    return n_events


#: kernel name -> compiled (or plain, without numba) callable
_LOOP_KERNELS: dict[str, object] = {}

#: Guards ``_LOOP_KERNELS``: the serving layer's shard threads request
#: loop kernels concurrently, and without the lock two threads could
#: each wrap (and later numba-compile) their own copy of a kernel —
#: harmless for results, wasteful for compile time, and an unguarded
#: dict mutation the concurrency lint would rightly treat as a smell.
_LOOP_KERNELS_LOCK = threading.Lock()


def _loop_kernel(name: str):
    """The elided/tracked loop nest, numba-compiled when importable."""
    with _LOOP_KERNELS_LOCK:
        kernel = _LOOP_KERNELS.get(name)
        if kernel is None:
            kernel = _kernel_elided if name == "elided" else _kernel_tracked
            if numba is not None:
                kernel = numba.njit(cache=False)(kernel)
            _LOOP_KERNELS[name] = kernel
        return kernel


def _advance_loop_nest(
    state: SessionState,
    n_steps: int,
    inj_words: np.ndarray,
    inj_masks: np.ndarray,
    inj_lane: Optional[np.ndarray],
    slot0: int,
    ret_words: np.ndarray,
    ret_slot0: int,
    keep_lo: np.ndarray,
    keep_hi: np.ndarray,
    offset: np.ndarray,
    strict_single: bool,
    capacity: int,
) -> tuple[int, list]:
    """Advance *state* ``n_steps`` loop-nest steps (numba when available).

    Returns ``(n_events, raw_events)``.  ``n_events`` may exceed
    *capacity*, in which case ``raw_events`` is truncated and the caller
    must retry over a *fresh* state with larger buffers (the kernels
    mutate the state in place, so a capacity overflow poisons it for
    resumption — the one-shot driver below simply rebuilds).
    """
    compiled = state.compiled
    new_maj, new_buf, wacc_maj, wacc_buf = state._nest_scratch()
    common = (
        state.step, n_steps, compiled.n_phases, state.separation,
        compiled.depth,
        compiled.maj_ptr, compiled.maj_pos,
        np.ascontiguousarray(compiled.maj_src[0]),
        np.ascontiguousarray(compiled.maj_src[1]),
        np.ascontiguousarray(compiled.maj_src[2]),
        np.ascontiguousarray(compiled.maj_neg[0]),
        np.ascontiguousarray(compiled.maj_neg[1]),
        np.ascontiguousarray(compiled.maj_neg[2]),
        compiled.buf_ptr, compiled.buf_pos,
        compiled.buf_src, compiled.buf_neg,
        compiled.inputs, inj_words, inj_masks, slot0, inj_words.shape[0],
        compiled.out_node, compiled.out_neg, ret_words, ret_slot0,
    )
    if state.elide:
        _loop_kernel("elided")(state.value, new_maj, new_buf, *common)
        state.step += n_steps
        return 0, []

    ev_k = np.empty(capacity, dtype=np.int64)
    ev_step = np.empty(capacity, dtype=np.int64)
    ev_lane = np.empty(capacity, dtype=np.int64)
    ev_a = np.empty(capacity, dtype=np.int64)
    ev_b = np.empty(capacity, dtype=np.int64)
    ev_c = np.empty(capacity, dtype=np.int64)
    n_events = _loop_kernel("tracked")(
        state.value, state.wave, new_maj, new_buf, wacc_maj, wacc_buf,
        *common,
        inj_lane, keep_lo, keep_hi, offset, strict_single,
        ev_k, ev_step, ev_lane, ev_a, ev_b, ev_c,
    )
    state.step += n_steps
    raw_events = [
        (
            int(ev_k[i]), int(ev_step[i]), int(ev_lane[i]),
            int(ev_a[i]), int(ev_b[i]), int(ev_c[i]),
        )
        for i in range(min(n_events, capacity))
    ]
    return n_events, raw_events


def _run_loop_nest(
    compiled: CompiledWaveNetlist,
    plan: "_LanePlan",
    inj_words: np.ndarray,
    inj_masks: np.ndarray,
    separation: int,
    strict: bool,
    elide: bool,
) -> tuple[np.ndarray, list]:
    """Drive the loop-nest kernels; same contract as :func:`_run_fused`."""
    n_ret = _retire_slot_count(plan.local_steps, compiled.depth, separation)
    ret_words = np.empty(
        (n_ret, compiled.out_node.size, plan.n_words), dtype=_WORD
    )

    def fresh_state() -> SessionState:
        return SessionState(
            compiled, separation, elide=elide, backend="jit",
            n_lanes=plan.n_lanes, n_words=plan.n_words,
        )

    if elide:
        _advance_loop_nest(
            fresh_state(), plan.local_steps, inj_words, inj_masks, None,
            0, ret_words, 0, plan.keep_lo, plan.keep_hi, plan.offset,
            False, 0,
        )
        return ret_words, []

    strict_single = bool(strict and plan.stream_waves.size == 1)
    n_slots = inj_words.shape[0]
    inj_lane = np.ascontiguousarray(
        np.arange(n_slots, dtype=np.int64)[:, None] < plan.n_inj[None, :]
    )
    capacity = 1024
    while True:
        n_events, raw_events = _advance_loop_nest(
            fresh_state(), plan.local_steps, inj_words, inj_masks,
            inj_lane, 0, ret_words, 0, plan.keep_lo, plan.keep_hi,
            plan.offset, strict_single, capacity,
        )
        if n_events <= capacity:
            break
        capacity = 2 * n_events  # one retry always suffices
    return ret_words, raw_events


# ----------------------------------------------------------------------
# dispatch + event materialization
# ----------------------------------------------------------------------
def run_plan(
    compiled: CompiledWaveNetlist,
    plan: "_LanePlan",
    inj_words: np.ndarray,
    inj_masks: np.ndarray,
    inj_active: list,
    separation: int,
    strict: bool,
    backend: Optional[str] = None,
    elide: Optional[bool] = None,
) -> tuple[np.ndarray, list]:
    """Advance every lane of *plan* with the selected kernel variant.

    Returns ``(ret_words, events)``: the per-retire-slot output-word
    snapshots (bit extraction happens in the caller's report merging) and
    the kept interference records ``(stream, absolute_step, order,
    WaveInterference)`` sorted the way the scalar loop emits them (per
    stream, then by step, then by within-phase order).  *elide* of
    ``None`` applies :func:`can_elide_tracking`; an explicit ``True`` is
    rejected when the static proof does not hold.
    """
    backend = resolve_backend(backend)
    elide = resolve_tracking(
        compiled, separation, None if elide is None else not elide
    )
    if backend == "jit":
        ret_words, raw = _run_loop_nest(
            compiled, plan, inj_words, inj_masks, separation, strict, elide
        )
    else:
        ret_words, raw = _run_fused(
            compiled, plan, inj_words, inj_masks, inj_active, separation,
            strict, elide,
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
