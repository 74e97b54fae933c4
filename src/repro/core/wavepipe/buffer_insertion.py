"""Buffer insertion (Algorithm 1 of the paper).

Balances every path of a wave netlist so that

(a) for any two connected components the minimum distance equals the maximum
    distance (all parallel paths between them have equal length), and
(b) the maximum base distance of all netlist outputs is equal.

The algorithm is greedy and per-driver optimal: every driver grows a single
*shared buffer chain* and each consumer taps the chain at the position
matching its own level, which is exactly the ``lastBD`` bookkeeping of the
paper's pseudo-code (the chain is extended by ``m = maxxBD(node) - lastBD``
buffers per fan-out member, visited in sorted xBD order).  A second pass pads
every primary output up to the maximum output base distance.

Because balancing never changes the level of an existing component, both
passes work off a single level computation: the cached
:meth:`~repro.core.wavepipe.components.WaveNetlist.levels` and consumer map
of the input netlist.  Drivers whose consumers all sit one level below them
need no chain and are skipped with one vectorized test; the chains run over
a :class:`~repro.core.wavepipe.components.NetlistEdit` written back as
arrays in one step.

When a ``fanout_limit`` is given (the combined FOx+BUF flow), tap positions
respect the limit: a chain position may serve at most ``limit - 1`` consumers
when the chain continues past it (one slot feeds the next buffer) and
``limit`` at the chain end; overflowing positions spawn parallel sibling
buffers.  Netlists whose raw fan-out already exceeds the limit must run
fan-out restriction first (:func:`repro.core.wavepipe.fanout.restrict_fanout`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...errors import FanoutError
from .components import Kind, NetlistEdit, WaveNetlist


@dataclass
class BufferInsertionResult:
    """Outcome of :func:`insert_buffers`."""

    netlist: WaveNetlist
    buffers_added: int
    padding_buffers: int
    depth_before: int
    depth_after: int
    #: buffers added per driver chain (diagnostics / Fig. 5 analysis)
    chain_lengths: dict[int, int] = field(default_factory=dict)

    @property
    def balancing_buffers(self) -> int:
        """Buffers inserted by the first (inter-component) pass."""
        return self.buffers_added - self.padding_buffers


class _Chain:
    """A shared buffer chain hanging off one driver.

    ``positions[j]`` holds the literals of the buffers at offset ``j + 1``
    levels past the driver (parallel siblings when fan-out pressure demands
    widening).  ``load[lit]`` tracks the fan-out already placed on every
    carrier literal; *load* is the driver's own to start with.
    """

    def __init__(
        self, edit: NetlistEdit, driver: int, limit: int | None, load: int = 0
    ) -> None:
        self.edit = edit
        self.driver_lit = driver << 1
        self.limit = limit
        self.positions: list[list[int]] = []
        self.load: dict[int, int] = {self.driver_lit: load}
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
        lit = self.edit.add(Kind.BUF, source)
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
    netlist: WaveNetlist,
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
    consumers = netlist.consumers()
    level_array = netlist.levels()
    depth_before = netlist.depth()
    if fanout_limit is not None:
        _check_feasible(netlist, fanout_limit)

    drivers = consumers.driver
    gaps = level_array[consumers.component] - level_array[drivers] - 1
    # only drivers with a consumer more than one level on need a chain
    # (the constant carries no waves and is never balanced)
    chained = np.unique(drivers[(gaps > 0) & (drivers != 0)])

    levels = level_array.tolist()
    ptr = consumers.ptr.tolist()
    components = consumers.component.tolist()
    positions = consumers.position.tolist()
    edit = NetlistEdit(netlist)
    fanins = edit.fanins
    chains: dict[int, _Chain] = {}
    buffers_added = 0

    # Pass 1: balance every driver -> consumer edge via shared chains.
    for driver in chained.tolist():
        driver_level = levels[driver]
        # sort fan-out by max xBD (= consumer level - 1), the paper's order
        edges = sorted(
            range(ptr[driver], ptr[driver + 1]),
            key=lambda edge: levels[components[edge]],
        )
        chain = _Chain(edit, driver, fanout_limit)
        for edge in edges:
            component = components[edge]
            slot = 3 * component + positions[edge]
            tap_lit = chain.tap(levels[component] - driver_level - 1)
            fanins[slot] = tap_lit | (fanins[slot] & 1)
        chains[driver] = chain
        buffers_added += chain.buffers

    # Pass 2: pad all outputs to the maximum output base distance.
    padding = 0
    outputs = edit.outputs
    if pad_outputs and outputs:
        max_bd = max(levels[lit >> 1] for lit in outputs)
        po_ptr = consumers.po_ptr.tolist()
        po_index = consumers.po_index.tolist()
        for driver in np.flatnonzero(np.diff(consumers.po_ptr)).tolist():
            gap = max_bd - levels[driver]
            if driver == 0 or gap == 0:
                continue
            chain = chains.get(driver)
            if chain is None:
                # a driver without a pass-1 chain taps its consumers
                # straight off its own output
                chain = _Chain(
                    edit, driver, fanout_limit, load=ptr[driver + 1] - ptr[driver]
                )
                chains[driver] = chain
            before = chain.buffers
            for po in po_index[po_ptr[driver]:po_ptr[driver + 1]]:
                outputs[po] = chain.tap(gap) | (outputs[po] & 1)
            padding += chain.buffers - before
            buffers_added += chain.buffers - before

    result = edit.finish()
    # drivers with consumers first, then output-only drivers, each in
    # index order: the order the chains of a full pass 1 would take
    lengths = sorted(
        (ptr[driver + 1] == ptr[driver], driver, chain.buffers)
        for driver, chain in chains.items()
        if chain.buffers
    )
    return BufferInsertionResult(
        netlist=result,
        buffers_added=buffers_added,
        padding_buffers=padding,
        depth_before=depth_before,
        depth_after=result.depth(),
        chain_lengths={driver: length for _, driver, length in lengths},
    )


def _check_feasible(netlist: WaveNetlist, limit: int) -> None:
    """Reject netlists whose raw fan-out already exceeds *limit*."""
    counts = netlist.fanout_counts()
    over = np.flatnonzero(counts > limit)
    if over.size:
        component = int(over[0])
        raise FanoutError(
            f"component {component} has fan-out {counts[component]} > limit "
            f"{limit}; run restrict_fanout before insert_buffers"
        )
