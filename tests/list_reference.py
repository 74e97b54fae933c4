"""List-based reference implementation of the wave-netlist passes.

The differential suite (``test_netlist_differential.py``) runs these
passes and the array-native ones in :mod:`repro.core.wavepipe` on the same
inputs and asserts identical results.  This is the representation the
array layout replaced: a netlist of Python lists of fan-in tuples, walked
one component at a time.  ``restrict_fanout`` here visits drivers in
smallest-index-first topological order, so its incremental levels stay
exact on netlists whose index order is not topological.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Iterator, Optional

import numpy as np

from repro.core.equivalence import check_equivalence
from repro.core.mig import Mig
from repro.core.signal import Signal
from repro.core.wavepipe import (
    BufferInsertionResult,
    CompiledWaveNetlist,
    FanoutRestrictionResult,
    Kind,
    WaveNetlist,
    min_fogs,
)
from repro.core.wavepipe.components import ARITY
from repro.errors import FanoutError, NetlistError

_WORD = np.uint64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Effective slack of a primary-output reference (reads are padded later).
_PO_SLACK = 1 << 30


class ListNetlist:
    """The list-of-tuples wave netlist the array layout replaced."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._kinds: list[int] = [Kind.CONST]
        self._fanins: list[tuple[int, ...]] = [()]
        self._inputs: list[int] = []
        self._input_names: list[str] = []
        #: component index -> position in _inputs (cached O(1) name lookup)
        self._input_index: dict[int, int] = {}
        self._outputs: list[int] = []
        self._output_names: list[str] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str = "") -> Signal:
        """Append a primary input cell."""
        index = len(self._kinds)
        self._kinds.append(Kind.INPUT)
        self._fanins.append(())
        self._input_index[index] = len(self._inputs)
        self._inputs.append(index)
        self._input_names.append(name or f"in{len(self._inputs) - 1}")
        return Signal.of(index)

    def add_maj(self, a: int, b: int, c: int) -> Signal:
        """Append a majority component (no simplification: physical netlist)."""
        lits = tuple(sorted(int(self._check(x)) for x in (a, b, c)))
        index = len(self._kinds)
        self._kinds.append(Kind.MAJ)
        self._fanins.append(lits)
        return Signal.of(index)

    def add_buf(self, source: int) -> Signal:
        """Append a balancing buffer driven by *source*."""
        return self._add_single(Kind.BUF, source)

    def add_fog(self, source: int) -> Signal:
        """Append a fan-out gate driven by *source*."""
        return self._add_single(Kind.FOG, source)

    def _add_single(self, kind: Kind, source: int) -> Signal:
        lit = int(self._check(source))
        if lit >> 1 == 0:
            raise NetlistError(f"cannot drive a {kind.name} from a constant")
        index = len(self._kinds)
        self._kinds.append(kind)
        self._fanins.append((lit,))
        return Signal.of(index)

    def add_output(self, signal: int, name: str = "") -> int:
        """Register a primary output reading *signal*."""
        self._outputs.append(int(self._check(signal)))
        self._output_names.append(name or f"out{len(self._outputs) - 1}")
        return len(self._outputs) - 1

    def set_output(self, index: int, signal: int) -> None:
        """Rewire output *index* to read *signal* (used by the transforms)."""
        self._outputs[index] = int(self._check(signal))

    def set_fanin(self, component: int, position: int, literal: int) -> None:
        """Rewire one fan-in edge of *component* (used by the transforms)."""
        fanins = list(self._fanins[component])
        fanins[position] = int(self._check(literal))
        self._fanins[component] = tuple(fanins)

    def _check(self, signal: int) -> Signal:
        sig = Signal(int(signal))
        if not 0 <= sig.node < len(self._kinds):
            raise NetlistError(f"signal references unknown component {sig.node}")
        return sig

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_components(self) -> int:
        """Total component count including constant and inputs."""
        return len(self._kinds)

    @property
    def n_outputs(self) -> int:
        """Number of primary outputs."""
        return len(self._outputs)

    @property
    def inputs(self) -> list[int]:
        """Indices of the primary-input cells."""
        return list(self._inputs)

    @property
    def outputs(self) -> list[Signal]:
        """Output literals in declaration order."""
        return [Signal(lit) for lit in self._outputs]

    @property
    def input_names(self) -> list[str]:
        """Names of the primary inputs."""
        return list(self._input_names)

    @property
    def output_names(self) -> list[str]:
        """Names of the primary outputs."""
        return list(self._output_names)

    def kind(self, component: int) -> Kind:
        """Kind of *component*."""
        return Kind(self._kinds[component])

    def fanins(self, component: int) -> tuple[int, ...]:
        """Fan-in literals of *component* (empty for sources)."""
        return self._fanins[component]

    def clocked_components(self) -> Iterator[int]:
        """Indices of MAJ/BUF/FOG components in topological order."""
        for index, kind in enumerate(self._kinds):
            if kind in (Kind.MAJ, Kind.BUF, Kind.FOG):
                yield index

    # ------------------------------------------------------------------
    # levels / structure
    # ------------------------------------------------------------------
    def topological_order(self) -> list[int]:
        """Clocked components in dependency order (Kahn's algorithm).

        Construction appends components in topological index order, but the
        transforms may rewire existing fan-ins to later-appended components,
        so traversals must not rely on index order.
        """
        indegree = [0] * len(self._kinds)
        dependents: list[list[int]] = [[] for _ in self._kinds]
        for index, fanins in enumerate(self._fanins):
            for lit in fanins:
                node = lit >> 1
                indegree[index] += 1
                dependents[node].append(index)
        ready = [
            index
            for index, kind in enumerate(self._kinds)
            if kind in (Kind.CONST, Kind.INPUT)
        ]
        order: list[int] = []
        while ready:
            current = ready.pop()
            if self._kinds[current] not in (Kind.CONST, Kind.INPUT):
                order.append(current)
            for dependent in dependents[current]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != sum(
            1 for k in self._kinds if k not in (Kind.CONST, Kind.INPUT)
        ):
            raise NetlistError("netlist contains a combinational cycle")
        return order

    def levels(self) -> list[int]:
        """Level of every component (sources at 0, unit delay per component).

        Constant fan-ins are ignored: they do not carry waves.
        """
        levels = [0] * len(self._kinds)
        for index in self.topological_order():
            best = 0
            for lit in self._fanins[index]:
                node = lit >> 1
                if node and levels[node] > best:
                    best = levels[node]
            # a component whose fan-ins are all constants/inputs is level 1
            levels[index] = best + 1
        return levels

    def depth(self, levels: Optional[list[int]] = None) -> int:
        """Critical path length (max output-driver level)."""
        levels = levels if levels is not None else self.levels()
        return max((levels[lit >> 1] for lit in self._outputs), default=0)

    def consumer_map(self) -> tuple[list[list[tuple[int, int]]], list[list[int]]]:
        """Fan-out edges of every component.

        Returns ``(consumers, po_refs)`` where ``consumers[i]`` lists
        ``(component, fanin_position)`` pairs and ``po_refs[i]`` lists output
        indices reading component *i*.
        """
        consumers: list[list[tuple[int, int]]] = [[] for _ in self._kinds]
        po_refs: list[list[int]] = [[] for _ in self._kinds]
        for index, fanins in enumerate(self._fanins):
            for position, lit in enumerate(fanins):
                consumers[lit >> 1].append((index, position))
        for po_index, lit in enumerate(self._outputs):
            po_refs[lit >> 1].append(po_index)
        return consumers, po_refs

    def fanout_counts(self, include_outputs: bool = True) -> list[int]:
        """Fan-out edge count per component (constant excluded from demand)."""
        counts = [0] * len(self._kinds)
        for fanins in self._fanins:
            for lit in fanins:
                counts[lit >> 1] += 1
        if include_outputs:
            for lit in self._outputs:
                counts[lit >> 1] += 1
        counts[0] = 0  # constants are replicated tie-off cells, not nets
        return counts

    # ------------------------------------------------------------------
    def clone(self) -> "ListNetlist":
        """Deep copy of this netlist."""
        other = ListNetlist(self.name)
        other._kinds = list(self._kinds)
        other._fanins = list(self._fanins)
        other._inputs = list(self._inputs)
        other._input_names = list(self._input_names)
        other._input_index = dict(self._input_index)
        other._outputs = list(self._outputs)
        other._output_names = list(self._output_names)
        return other

    @classmethod
    def from_mig(cls, mig: Mig, name: str = "") -> "ListNetlist":
        """Lower a MIG to a physical wave netlist (1:1, no buffers yet)."""
        netlist = cls(name or mig.name)
        mapping: dict[int, int] = {0: 0}
        for node, pi_name in zip(mig.pis, mig.pi_names):
            mapping[node] = int(netlist.add_input(pi_name)) >> 1
        for node in mig.gates():
            lits = tuple(
                (mapping[lit >> 1] << 1) | (lit & 1) for lit in mig.fanins(node)
            )
            mapping[node] = int(netlist.add_maj(*lits)) >> 1
        for sig, po_name in zip(mig.pos, mig.po_names):
            netlist.add_output(
                (mapping[sig.node] << 1) | (1 if sig.complemented else 0),
                po_name,
            )
        return netlist

    def to_mig(self) -> Mig:
        """Collapse back to a MIG (BUF/FOG become wires) for equivalence."""
        mig = Mig(self.name)
        mapping: dict[int, Signal] = {0: Signal(0)}
        for index, name in zip(self._inputs, self._input_names):
            mapping[index] = mig.add_pi(name)
        for index in self.topological_order():
            kind = self._kinds[index]
            fanins = self._fanins[index]
            if kind == Kind.MAJ:
                sigs = [mapping[lit >> 1] ^ bool(lit & 1) for lit in fanins]
                mapping[index] = mig.add_maj(*sigs)
            else:  # BUF / FOG are functional identity
                (lit,) = fanins
                mapping[index] = mapping[lit >> 1] ^ bool(lit & 1)
        for lit, name in zip(self._outputs, self._output_names):
            mig.add_po(mapping[lit >> 1] ^ bool(lit & 1), name)
        return mig

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(kinds, fanins, outputs)`` in the array layout."""
        fanins = np.zeros((len(self._kinds), 3), dtype=np.int32)
        for index, lits in enumerate(self._fanins):
            fanins[index, : len(lits)] = lits
        return (
            np.array(self._kinds, dtype=np.int8),
            fanins,
            np.array(self._outputs, dtype=np.int64),
        )

    @classmethod
    def from_arrays(cls, netlist: WaveNetlist) -> "ListNetlist":
        """The list form of an array-native netlist."""
        kinds, fanins, outputs = netlist.arrays()
        other = cls(netlist.name)
        other._kinds = kinds.tolist()
        other._fanins = [
            tuple(row[: ARITY[kind]])
            for kind, row in zip(other._kinds, fanins.tolist())
        ]
        other._inputs = netlist.inputs
        other._input_names = netlist.input_names
        other._input_index = {c: i for i, c in enumerate(other._inputs)}
        other._outputs = outputs.tolist()
        other._output_names = netlist.output_names
        return other


def _visit_order(netlist: ListNetlist) -> list[int]:
    """All components, smallest-index-first topological order."""
    indegree = [len(fanins) for fanins in netlist._fanins]
    dependents: list[list[int]] = [[] for _ in netlist._kinds]
    for index, fanins in enumerate(netlist._fanins):
        for lit in fanins:
            dependents[lit >> 1].append(index)
    ready = [index for index, count in enumerate(indegree) if count == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        current = heapq.heappop(ready)
        order.append(current)
        for dependent in dependents[current]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                heapq.heappush(ready, dependent)
    return order


class _Slot:
    """One free drive slot of a carrier (driver or FOG)."""

    __slots__ = ("depth", "carrier")

    def __init__(self, depth: int, carrier: int) -> None:
        self.depth = depth  # 0 = the driver itself
        self.carrier = carrier  # literal delivering the value


def restrict_fanout(netlist: ListNetlist, limit: int) -> FanoutRestrictionResult:
    """Limit every component's fan-out to *limit*, returning a new netlist."""
    if limit < 2:
        raise FanoutError(f"fan-out limit must be at least 2, got {limit}")

    work = netlist.clone()
    levels = work.levels()
    depth_before = work.depth(levels)
    consumers, po_refs = work.consumer_map()

    total_fogs = 0
    total_buffers = 0
    delayed: set[int] = set()
    fog_counts: dict[int, int] = {}

    original_count = netlist.n_components
    for driver in _visit_order(work):
        if not 1 <= driver < original_count:
            continue
        edges = consumers[driver]
        pos = po_refs[driver]
        fanout = len(edges) + len(pos)
        if fanout <= limit:
            continue
        fogs, buffers = _serve_driver(
            work, driver, edges, pos, levels, limit, delayed, consumers
        )
        total_fogs += fogs
        total_buffers += buffers
        fog_counts[driver] = fogs

    depth_after = work.depth(levels)
    return FanoutRestrictionResult(
        netlist=work,
        limit=limit,
        fogs_added=total_fogs,
        buffers_added=total_buffers,
        delayed_components=len(delayed),
        depth_before=depth_before,
        depth_after=depth_after,
        fog_counts=fog_counts,
    )


def _serve_driver(
    work: ListNetlist,
    driver: int,
    edges: list[tuple[int, int]],
    pos: list[int],
    levels: list[int],
    limit: int,
    delayed: set[int],
    consumers: list[list[tuple[int, int]]],
) -> tuple[int, int]:
    """Restructure one over-driven net.  Returns (fogs, buffers) added."""
    driver_level = levels[driver]
    jobs: list[tuple[int, int, tuple[int, int] | int]] = []
    for component, position in edges:
        slack = levels[component] - driver_level - 1
        jobs.append((slack, 0, (component, position)))
    for po_index in pos:
        jobs.append((_PO_SLACK, 1, po_index))
    budget = min_fogs(len(jobs), limit)

    slots, fogs = _plan_tree(work, driver, jobs, budget, limit, levels, consumers)

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
    before_chains = work.n_components
    for slack, is_po, payload in jobs:
        depth = _closest_depth(depths, slack)
        slot = by_depth[depth].pop()
        depths.remove(depth)
        tap = slot.carrier
        if is_po:
            original = int(work.outputs[payload])
            work.set_output(payload, tap | (original & 1))
            continue
        component, position = payload
        if slack > depth:
            gap_groups.setdefault(tap, []).append(
                (slack - depth, (component, position))
            )
            continue
        original = work.fanins(component)[position]
        work.set_fanin(component, position, tap | (original & 1))
        if slack < depth:  # the consumer is pushed to a later level
            delayed.add(component)
            _propagate_delay(work, component, levels, consumers)

    buffers = _build_gap_chains(work, gap_groups, limit, levels)
    for _ in range(work.n_components - before_chains):
        consumers.append([])
    return fogs, buffers


def _build_gap_chains(
    work: ListNetlist,
    gap_groups: dict[int, list[tuple[int, tuple[int, int]]]],
    limit: int,
    levels: list[int],
) -> int:
    """Serve every (carrier -> consumer) gap through shared buffer chains.

    Each group's consumers hold one drive slot of the carrier, so the chain
    may load the carrier with at most ``len(group)`` edges; the shared
    chain machinery of Algorithm 1 handles per-position tap capacity.
    """
    buffers = 0
    for carrier_lit, group in gap_groups.items():
        before = work.n_components
        chain = _Chain(work, carrier_lit >> 1, limit)
        # the carrier's unassigned capacity belongs to other slots
        chain.load[chain.driver_lit] = limit - len(group)
        group.sort(key=lambda job: job[0])
        for gap, (component, position) in group:
            original = work.fanins(component)[position]
            tap = chain.tap(gap)
            work.set_fanin(component, position, tap | (original & 1))
        for index in range(before, work.n_components):
            # chain buffers reference lower-indexed sources by construction
            (source,) = work.fanins(index)
            levels.append(levels[source >> 1] + 1)
        buffers += chain.buffers
    return buffers


def _plan_tree(
    work: ListNetlist,
    driver: int,
    jobs: list[tuple[int, int, tuple[int, int] | int]],
    budget: int,
    limit: int,
    levels: list[int],
    consumers: list[list[tuple[int, int]]],
) -> tuple[list[_Slot], int]:
    """Materialize the FOG ladder; returns its free slots and FOG count."""
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
            fog = int(work.add_fog(parent[0]))
            parent[1] -= 1
            levels.append(driver_level + depth + 1)
            consumers.append([])
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


def _propagate_delay(
    work: ListNetlist,
    component: int,
    levels: list[int],
    consumers: list[list[tuple[int, int]]],
) -> None:
    """Recompute *component*'s level and push increases downstream."""
    worklist = [component]
    while worklist:
        current = worklist.pop()
        best = 0
        for lit in work.fanins(current):
            node = lit >> 1
            if node and levels[node] > best:
                best = levels[node]
        new_level = best + 1
        if new_level <= levels[current]:
            continue
        levels[current] = new_level
        for consumer, _ in consumers[current]:
            worklist.append(consumer)


class _Chain:
    """A shared buffer chain hanging off one driver.

    ``positions[j]`` holds the literals of the buffers at offset ``j + 1``
    levels past the driver (parallel siblings when fan-out pressure demands
    widening).  ``load[lit]`` tracks the fan-out already placed on every
    carrier literal.
    """

    def __init__(
        self, netlist: ListNetlist, driver: int, limit: int | None
    ) -> None:
        self.netlist = netlist
        self.driver_lit = driver << 1
        self.limit = limit
        self.positions: list[list[int]] = []
        self.load: dict[int, int] = {self.driver_lit: 0}
        self.buffers = 0

    def _carrier_with_capacity(self, position: int) -> int:
        """A literal at chain *position* (0 = driver) with a free slot."""
        carriers = (
            [self.driver_lit] if position == 0 else self.positions[position - 1]
        )
        if self.limit is None:
            return carriers[0]
        for lit in carriers:
            if self.load[lit] < self.limit:
                return lit
        # all carriers at this position are full: widen with a sibling buffer
        if position == 0:
            raise FanoutError(
                "driver fan-out exhausted; run fan-out restriction before "
                "buffer insertion"
            )
        sibling = self._spawn(position)
        return sibling

    def _spawn(self, position: int) -> int:
        """Create one buffer at 1-based *position* (extend tip or widen)."""
        source = self._carrier_with_capacity(position - 1)
        lit = int(self.netlist.add_buf(source))
        self.load[source] += 1
        self.load[lit] = 0
        if len(self.positions) < position:
            self.positions.append([])
        self.positions[position - 1].append(lit)
        self.buffers += 1
        return lit

    def tap(self, position: int) -> int:
        """Literal delivering the driver's value at chain *position*.

        Position 0 is the driver itself; position j is a buffer j levels
        later.  Extends the chain one position at a time as required and
        accounts one unit of load on the returned literal.
        """
        while len(self.positions) < position:
            self._spawn(len(self.positions) + 1)
        lit = self._carrier_with_capacity(position)
        self.load[lit] += 1
        return lit


def insert_buffers(
    netlist: ListNetlist,
    fanout_limit: int | None = None,
    pad_outputs: bool = True,
) -> BufferInsertionResult:
    """Run Algorithm 1 on *netlist*, returning a balanced copy.

    The input netlist is not modified; the result contains a new netlist
    whose MAJ/FOG structure is identical with BUF components added.

    Parameters
    ----------
    fanout_limit:
        When given, buffer-chain taps respect this fan-out bound (the
        netlist itself must already respect it, e.g. via fan-out
        restriction).
    pad_outputs:
        Run the second pass equalizing all output base distances (the paper
        always does; disabling it is exposed for ablation studies).
    """
    work = netlist.clone()
    levels = work.levels()
    depth_before = work.depth(levels)
    consumers, po_refs = work.consumer_map()

    if fanout_limit is not None:
        _check_feasible(work, fanout_limit)

    chains: dict[int, _Chain] = {}
    buffers_added = 0

    # Pass 1: balance every driver -> consumer edge via shared chains.
    # Iterating over the original component range only: buffers appended
    # during the loop are already balanced by construction.
    original_count = netlist.n_components
    for driver in range(1, original_count):
        if work.kind(driver) == Kind.CONST:
            continue
        edges = consumers[driver]
        if not edges:
            continue
        driver_level = levels[driver]
        # sort fan-out by max xBD (= consumer level - 1), the paper's order
        edges = sorted(edges, key=lambda edge: levels[edge[0]])
        chain = _Chain(work, driver, fanout_limit)
        for component, position in edges:
            gap = levels[component] - driver_level - 1
            original_lit = netlist.fanins(component)[position]
            tap_lit = chain.tap(gap)
            work.set_fanin(component, position, tap_lit | (original_lit & 1))
        # keep zero-length chains too: pass 2 must see their load accounting
        chains[driver] = chain
        buffers_added += chain.buffers

    # Pass 2: pad all outputs to the maximum output base distance.
    padding = 0
    if pad_outputs and work.n_outputs:
        max_bd = max(levels[lit >> 1] for lit in work.outputs)
        for driver in range(original_count):
            if not po_refs[driver] or driver == 0:
                continue
            gap = max_bd - levels[driver]
            if gap == 0:
                continue
            chain = chains.get(driver)
            if chain is None:
                chain = _Chain(work, driver, fanout_limit)
                chains[driver] = chain
            before = chain.buffers
            for po_index in po_refs[driver]:
                original_lit = netlist.outputs[po_index]
                tap_lit = chain.tap(gap)
                work.set_output(po_index, int(tap_lit) | (int(original_lit) & 1))
            padding += chain.buffers - before
            buffers_added += chain.buffers - before

    depth_after = work.depth()
    return BufferInsertionResult(
        netlist=work,
        buffers_added=buffers_added,
        padding_buffers=padding,
        depth_before=depth_before,
        depth_after=depth_after,
        chain_lengths={d: c.buffers for d, c in chains.items() if c.buffers},
    )


def _check_feasible(netlist: ListNetlist, limit: int) -> None:
    """Reject netlists whose raw fan-out already exceeds *limit*."""
    for component, count in enumerate(netlist.fanout_counts()):
        if count > limit:
            raise FanoutError(
                f"component {component} has fan-out {count} > limit {limit}; "
                "run restrict_fanout before insert_buffers"
            )


def check_balanced(netlist: ListNetlist) -> list[str]:
    """Violations of the path-balance property.

    Balanced means: every clocked component sees all of its wave-carrying
    (non-constant) fan-ins at the same level — which is equivalent to all
    paths between any two connected components having equal length — and
    every primary output driver sits at the same level.
    """
    levels = netlist.levels()
    violations: list[str] = []
    for component in netlist.clocked_components():
        fanin_levels = {
            levels[lit >> 1]
            for lit in netlist.fanins(component)
            if lit >> 1 != 0
        }
        if len(fanin_levels) > 1:
            violations.append(
                f"component {component} ({netlist.kind(component).name}) "
                f"sees fan-in levels {sorted(fanin_levels)}"
            )
    output_levels = {
        levels[lit >> 1] for lit in netlist.outputs if lit >> 1 != 0
    }
    if len(output_levels) > 1:
        violations.append(
            f"outputs sit at different base distances {sorted(output_levels)}"
        )
    return violations


def check_fanout(netlist: ListNetlist, limit: int) -> list[str]:
    """Violations of the fan-out bound (constants exempt)."""
    violations: list[str] = []
    for component, count in enumerate(netlist.fanout_counts()):
        if component == 0:
            continue
        if count > limit:
            violations.append(
                f"component {component} ({netlist.kind(component).name}) "
                f"drives {count} > {limit} consumers"
            )
    return violations


def compile_netlist(netlist: ListNetlist, p: int) -> CompiledWaveNetlist:
    """The per-component ``compile_netlist`` tables (uncached)."""
    kinds = netlist._kinds
    fanins = netlist._fanins
    levels = netlist.levels()
    depth = netlist.depth(levels)
    n = netlist.n_components
    clocked_kinds = (Kind.MAJ, Kind.BUF, Kind.FOG)

    # replicate the scalar grouping exactly: latching phase, deepest first
    # (stable, so ties keep topological index order)
    by_phase: list[list[int]] = [[] for _ in range(p)]
    balanced = True
    for component, kind in enumerate(kinds):
        if kind not in clocked_kinds:
            continue
        by_phase[levels[component] % p].append(component)
        if kind == Kind.MAJ and balanced:
            fanin_levels = {
                levels[lit >> 1] for lit in fanins[component] if lit >> 1
            }
            if len(fanin_levels) > 1:
                balanced = False
    output_levels = {
        levels[lit >> 1] for lit in netlist._outputs if lit >> 1
    }
    if len(output_levels) > 1:
        balanced = False

    # permuted state layout: unclocked cells (constant 0, inputs, in
    # index order) first, then per phase the MAJ block and the BUF/FOG
    # block — every scatter target becomes a contiguous row slice
    maj_by_phase: list[list[int]] = []
    buf_by_phase: list[list[int]] = []
    for group in by_phase:
        group.sort(key=lambda component: -levels[component])
        maj_by_phase.append([c for c in group if kinds[c] == Kind.MAJ])
        buf_by_phase.append([c for c in group if kinds[c] != Kind.MAJ])
    order = [i for i in range(n) if kinds[i] not in clocked_kinds]
    maj_pos = np.empty(p, dtype=np.int64)
    buf_pos = np.empty(p, dtype=np.int64)
    for ph in range(p):
        maj_pos[ph] = len(order)
        order.extend(maj_by_phase[ph])
        buf_pos[ph] = len(order)
        order.extend(buf_by_phase[ph])
    new_row = np.empty(n, dtype=np.int64)
    new_row[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)

    maj_counts = [len(group) for group in maj_by_phase]
    buf_counts = [len(group) for group in buf_by_phase]
    maj_ptr = np.concatenate(
        ([0], np.cumsum(maj_counts))
    ).astype(np.int64)
    buf_ptr = np.concatenate(
        ([0], np.cumsum(buf_counts))
    ).astype(np.int64)
    maj_flat = [c for group in maj_by_phase for c in group]
    buf_flat = [c for group in buf_by_phase for c in group]

    maj_src = np.empty((3, len(maj_flat)), dtype=np.int64)
    maj_neg = np.empty((3, len(maj_flat)), dtype=_WORD)
    for column, component in enumerate(maj_flat):
        for row, lit in enumerate(fanins[component]):
            maj_src[row, column] = new_row[lit >> 1]
            maj_neg[row, column] = _ALL_ONES if lit & 1 else 0
    buf_src = np.empty(len(buf_flat), dtype=np.int64)
    buf_neg = np.empty(len(buf_flat), dtype=_WORD)
    for column, component in enumerate(buf_flat):
        (lit,) = fanins[component]
        buf_src[column] = new_row[lit >> 1]
        buf_neg[column] = _ALL_ONES if lit & 1 else 0

    inputs = new_row[np.asarray(netlist.inputs, dtype=np.int64)]
    inputs_contiguous = bool(
        inputs.size == 0 or np.all(np.diff(inputs) == 1)
    )
    out_lits = netlist._outputs
    return CompiledWaveNetlist(
        n_components=n,
        n_phases=p,
        depth=depth,
        balanced=balanced,
        inputs=inputs,
        inputs_contiguous=inputs_contiguous,
        out_node=new_row[
            np.asarray([lit >> 1 for lit in out_lits], dtype=np.int64)
        ],
        out_neg=np.asarray(
            [_ALL_ONES if lit & 1 else 0 for lit in out_lits], dtype=_WORD
        ),
        maj_ptr=maj_ptr,
        maj_pos=maj_pos,
        maj_comp=np.asarray(maj_flat, dtype=np.int64),
        maj_src=maj_src,
        maj_neg=maj_neg,
        buf_ptr=buf_ptr,
        buf_pos=buf_pos,
        buf_comp=np.asarray(buf_flat, dtype=np.int64),
        buf_src=buf_src,
        buf_neg=buf_neg,
        # the reference compiles the phase tables only; the functional
        # evaluator is checked against the scalar oracle instead
        functional=None,
    )


def check_equivalent_to_mig(netlist: ListNetlist, reference: Mig) -> bool:
    """The strash-and-compare check the vectorized one replaced."""
    return bool(check_equivalence(netlist.to_mig(), reference))


def wave_pipeline(
    mig: Mig,
    fanout_limit: Optional[int],
    balance: bool = True,
    order: str = "fo-first",
) -> tuple[
    Optional[FanoutRestrictionResult],
    Optional[BufferInsertionResult],
    ListNetlist,
]:
    """The FOx+BUF pass sequence of ``wave_pipeline``, without verify."""
    current = ListNetlist.from_mig(mig)
    fanout_result = buffer_result = None
    if order == "buf-first" and balance:
        buffer_result = insert_buffers(current)
        current = buffer_result.netlist
    if fanout_limit is not None:
        fanout_result = restrict_fanout(current, fanout_limit)
        current = fanout_result.netlist
    if order == "fo-first" and balance:
        buffer_result = insert_buffers(current, fanout_limit=fanout_limit)
        current = buffer_result.netlist
    return fanout_result, buffer_result, current
