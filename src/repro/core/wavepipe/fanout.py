"""Fan-out restriction (Section IV of the paper).

Emerging majority technologies have no intrinsic gain, so a component may
drive only a small number of consumers (2 to 5).  Excess fan-out is served
through *fan-out gates* (FOG, modelled as a reversed majority gate), each of
which again drives at most ``limit`` consumers.

The algorithm is level-aware (Fig. 6): consumers of an over-driven component
sit at different levels, so FOGs are arranged in a chain/ladder whose depth
tracks the consumer levels ("the algorithm ... tries to not leave residual
paths that jump through graph levels").  Three effects follow, all visible
in the paper's Figs. 6-8:

* the minimal number of FOGs per driver is ``ceil((f - limit)/(limit - 1))``;
* consumers whose level exceeds their assigned slot depth receive gap
  buffers (the BUF of Fig. 6b);
* consumers whose level is below their slot depth are *delayed* (their level
  rises, which is why FOx+BUF inserts more buffers than FOx and BUF run
  separately — the paper's observation (a) on Fig. 8).

Per-driver procedure:

1. collect consumer edges and output references; skip if within limit;
2. plan FOG depths: one FOG per depth along a chain while demand remains,
   widening a depth when the consumers due there would overflow its slots;
3. assign consumers to slots, deepest slack first, each taking the free slot
   whose depth is closest to its slack;
4. rewire with gap buffers / delays and propagate level increases downstream
   (safe because drivers are processed in topological order: level increases
   only ever flow forward).

Drivers are visited in smallest-index-first topological order
(:meth:`~repro.core.wavepipe.components.WaveNetlist.visit_order`), which is
index order for every netlist fresh from a MIG but not, e.g., after buffer
insertion, whose chain buffers sit at high indices and drive lower-index
consumers.  The per-driver logic runs over a
:class:`~repro.core.wavepipe.components.NetlistEdit` and reads levels,
consumers and fan-out counts from the input netlist's cached arrays.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ...errors import FanoutError
from .components import ARITY, Kind, NetlistEdit, WaveNetlist

#: Effective slack of a primary-output reference (reads are padded later).
_PO_SLACK = 1 << 30

_ARITY = ARITY.tolist()


@dataclass
class FanoutRestrictionResult:
    """Outcome of :func:`restrict_fanout`."""

    netlist: WaveNetlist
    limit: int
    fogs_added: int
    buffers_added: int
    delayed_components: int
    depth_before: int
    depth_after: int
    #: per-driver FOG counts (diagnostics)
    fog_counts: dict[int, int] = field(default_factory=dict)

    @property
    def cpl_increase(self) -> float:
        """Relative critical-path increase (the quantity of Fig. 7)."""
        if self.depth_before == 0:
            return 0.0
        return (self.depth_after - self.depth_before) / self.depth_before


def min_fogs(fanout: int, limit: int) -> int:
    """Minimal FOG count for a net of *fanout* under *limit* (each FOG
    consumes one slot and provides *limit* new ones)."""
    if fanout <= limit:
        return 0
    return -(-(fanout - limit) // (limit - 1))  # ceil division


class _Slot:
    """One free drive slot of a carrier (driver or FOG)."""

    __slots__ = ("depth", "carrier")

    def __init__(self, depth: int, carrier: int) -> None:
        self.depth = depth  # 0 = the driver itself
        self.carrier = carrier  # literal delivering the value


class _Pass:
    """State shared by the per-driver steps of one :func:`restrict_fanout`.

    ``levels`` grows with every FOG and gap buffer; ``ptr``/``consumers``
    are the input netlist's CSR consumer map (components appended by the
    pass have no consumers recorded, and none are ever looked up).
    ``order`` is the input's visit order and ``rank`` its inverse.
    """

    __slots__ = (
        "edit", "levels", "ptr", "consumers", "order", "rank", "limit",
        "delayed",
    )

    def __init__(
        self, netlist: WaveNetlist, order: np.ndarray, limit: int
    ) -> None:
        csr = netlist.consumers()
        self.edit = NetlistEdit(netlist)
        self.levels: list[int] = netlist.levels().tolist()
        self.ptr: list[int] = csr.ptr.tolist()
        self.consumers: list[int] = csr.component.tolist()
        n = len(order)
        self.order: Sequence[int] = range(n)
        self.rank: Sequence[int] = range(n)
        if np.any(order != self.order):
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n)
            self.order, self.rank = order.tolist(), rank.tolist()
        self.limit = limit
        self.delayed: set[int] = set()

    def propagate(self, sources: list[int]) -> None:
        """Re-level the delayed *sources* and push increases downstream.

        One driver's delays are propagated together, after it is served
        (its consumers' levels were read before any was rewired).  An
        increase relaxes the consumers of the raised component, which are
        popped in visit order: a component's level is final when it is
        popped, so each is expanded at most once, and the levels reach the
        fixpoint of recomputing every affected component from its fan-ins.
        Consumers recorded in the input's map still read their driver
        until it is served, and a served driver never rises again.
        """
        kinds = self.edit.kinds
        fanins = self.edit.fanins
        levels = self.levels
        ptr = self.ptr
        consumers = self.consumers
        order = self.order
        rank = self.rank
        queued: set[int] = set()
        for component in sources:  # their fan-ins were rewired deeper
            best = 0
            base = 3 * component
            for lit in fanins[base:base + _ARITY[kinds[component]]]:
                node = lit >> 1
                if node and levels[node] > best:
                    best = levels[node]
            if best + 1 > levels[component]:
                levels[component] = best + 1
                queued.add(rank[component])
        heap = sorted(queued)
        while heap:
            current = order[heapq.heappop(heap)]
            level = levels[current] + 1
            for consumer in consumers[ptr[current]:ptr[current + 1]]:
                if level > levels[consumer]:
                    levels[consumer] = level
                    position = rank[consumer]
                    if position not in queued:
                        queued.add(position)
                        heapq.heappush(heap, position)


def restrict_fanout(netlist: WaveNetlist, limit: int) -> FanoutRestrictionResult:
    """Limit every component's fan-out to *limit*, returning a new netlist."""
    if limit < 2:
        raise FanoutError(f"fan-out limit must be at least 2, got {limit}")

    order = netlist.visit_order()
    state = _Pass(netlist, order, limit)
    depth_before = netlist.depth()
    csr = netlist.consumers()
    positions = csr.position.tolist()
    po_ptr = csr.po_ptr.tolist()
    po_index = csr.po_index.tolist()
    ptr = state.ptr

    total_fogs = 0
    total_buffers = 0
    fog_counts: dict[int, int] = {}

    over = netlist.fanout_counts() > limit  # the constant counts 0
    for driver in order[over[order]].tolist():
        edges = list(
            zip(
                state.consumers[ptr[driver]:ptr[driver + 1]],
                positions[ptr[driver]:ptr[driver + 1]],
            )
        )
        pos = po_index[po_ptr[driver]:po_ptr[driver + 1]]
        fogs, buffers = _serve_driver(state, driver, edges, pos)
        total_fogs += fogs
        total_buffers += buffers
        fog_counts[driver] = fogs

    levels = state.levels
    depth_after = max((levels[lit >> 1] for lit in state.edit.outputs), default=0)
    return FanoutRestrictionResult(
        netlist=state.edit.finish(),
        limit=limit,
        fogs_added=total_fogs,
        buffers_added=total_buffers,
        delayed_components=len(state.delayed),
        depth_before=depth_before,
        depth_after=depth_after,
        fog_counts=fog_counts,
    )


def _serve_driver(
    state: _Pass,
    driver: int,
    edges: list[tuple[int, int]],
    pos: list[int],
) -> tuple[int, int]:
    """Restructure one over-driven net.  Returns (fogs, buffers) added."""
    fanins = state.edit.fanins
    outputs = state.edit.outputs
    levels = state.levels
    driver_level = levels[driver]
    jobs: list[tuple[int, int, tuple[int, int] | int]] = []
    for component, position in edges:
        slack = levels[component] - driver_level - 1
        jobs.append((slack, 0, (component, position)))
    for po_index in pos:
        jobs.append((_PO_SLACK, 1, po_index))
    budget = min_fogs(len(jobs), state.limit)

    slots, fogs = _plan_tree(state, driver, jobs, budget)

    # Assign: deepest slack first, each taking the closest-depth free slot.
    jobs.sort(key=lambda job: -job[0])
    depths = sorted(slot.depth for slot in slots)
    by_depth: dict[int, list[_Slot]] = {}
    for slot in slots:
        by_depth.setdefault(slot.depth, []).append(slot)

    # consumers needing gap buffers are grouped per carrier so that one
    # shared chain serves them all (the BUF of Fig. 6b, shared like the
    # lastBD chains of Algorithm 1)
    gap_groups: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    delayed: list[int] = []
    for slack, is_po, payload in jobs:
        depth = _closest_depth(depths, slack)
        slot = by_depth[depth].pop()
        depths.remove(depth)
        tap = slot.carrier
        if is_po:
            assert isinstance(payload, int)
            outputs[payload] = tap | (outputs[payload] & 1)
            continue
        assert isinstance(payload, tuple)
        component, position = payload
        if slack > depth:
            gap_groups.setdefault(tap, []).append(
                (slack - depth, (component, position))
            )
            continue
        index = 3 * component + position
        fanins[index] = tap | (fanins[index] & 1)
        if slack < depth:  # the consumer is pushed to a later level
            delayed.append(component)

    if delayed:
        state.delayed.update(delayed)
        state.propagate(delayed)
    buffers = _build_gap_chains(state, gap_groups)
    return fogs, buffers


def _build_gap_chains(
    state: _Pass, gap_groups: dict[int, list[tuple[int, tuple[int, int]]]]
) -> int:
    """Serve every (carrier -> consumer) gap through one delay line per
    carrier, each consumer tapping the line ``gap`` levels past it.

    The group's consumers hold one drive slot of the carrier each and every
    gap is at least 1, so the line's first buffer takes one of those slots.
    A line position that the line continues past feeds the next buffer and
    serves at most ``len(group) - 1`` consumers, and the line's end at most
    ``len(group)``: no position exceeds the carrier's ``limit``.
    """
    fanins = state.edit.fanins
    levels = state.levels
    buffers = 0
    for carrier_lit, group in gap_groups.items():
        length = max(gap for gap, _ in group)
        line = _delay_line(state.edit, carrier_lit, length)
        for gap, (component, position) in group:
            index = 3 * component + position
            fanins[index] = line[gap] | (fanins[index] & 1)
        level = levels[carrier_lit >> 1]
        levels.extend(range(level + 1, level + 1 + length))
        buffers += length
    return buffers


def _delay_line(edit: NetlistEdit, source: int, length: int) -> list[int]:
    """Append a line of *length* BUFs fed by literal *source*; returns the
    literal at every line position (position 0 is *source* itself)."""
    line = [source]
    for _ in range(length):
        line.append(edit.add(Kind.BUF, line[-1]))
    return line


def _plan_tree(
    state: _Pass,
    driver: int,
    jobs: list[tuple[int, int, tuple[int, int] | int]],
    budget: int,
) -> tuple[list[_Slot], int]:
    """Materialize the FOG ladder; returns its free slots and FOG count."""
    limit = state.limit
    levels = state.levels
    driver_level = levels[driver]
    slacks = sorted(min(job[0], budget + 1) for job in jobs)
    slots: list[_Slot] = []
    # carriers at the current depth with remaining capacity: (literal, free)
    carriers: list[list[int]] = [[driver << 1, limit]]
    fogs_left = budget
    planted = 0
    depth = 0
    served = 0
    while True:
        capacity = sum(free for _, free in carriers)
        due = bisect_right(slacks, depth) - served
        future = len(slacks) - served - due
        if fogs_left == 0 or future + max(0, due - capacity) == 0:
            # chain ends: everything left is served from the spare pool
            for lit, free in carriers:
                for _ in range(free):
                    slots.append(_Slot(depth, lit))
            break
        # FOGs at this depth: one continues the chain; widen when the
        # consumers bumped past this depth plus those due right after it
        # would overflow a single FOG's slots.
        bumped_if_one = max(0, due - (capacity - 1))
        exact_next = bisect_right(slacks, depth + 1) - bisect_right(slacks, depth)
        wanted = -(-(bumped_if_one + exact_next) // limit)  # ceil
        fogs_now = min(fogs_left, capacity, max(1, wanted))
        next_carriers: list[list[int]] = []
        for _ in range(fogs_now):
            parent = next(c for c in carriers if c[1] > 0)
            fog = state.edit.add(Kind.FOG, parent[0])
            parent[1] -= 1
            levels.append(driver_level + depth + 1)
            next_carriers.append([fog, limit])
            planted += 1
        # remaining capacity at this depth becomes consumer slots
        spare = 0
        for lit, free in carriers:
            for _ in range(free):
                slots.append(_Slot(depth, lit))
                spare += 1
        served += min(due, spare)
        # consumers that did not fit here are implicitly bumped deeper;
        # accounting happens at assignment time via closest-depth search
        carriers = next_carriers
        fogs_left -= fogs_now
        depth += 1
    return slots, planted


def _closest_depth(depths: list[int], slack: int) -> int:
    """Free slot depth closest to *slack* (ties prefer the shallower one)."""
    index = bisect_right(depths, slack)
    if index == 0:
        return depths[0]
    if index == len(depths):
        return depths[-1]
    below = depths[index - 1]
    above = depths[index]
    return below if (slack - below) <= (above - slack) else above
