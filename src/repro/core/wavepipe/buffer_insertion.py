"""Buffer insertion (Algorithm 1 of the paper).

Balances every path of a wave netlist so that

(a) for any two connected components the minimum distance equals the maximum
    distance (all parallel paths between them have equal length), and
(b) the maximum base distance of all netlist outputs is equal.

The paper's algorithm is greedy and per-driver optimal: every driver grows a
single *shared buffer chain* and each consumer taps the chain at the
position matching its own level, which is exactly the ``lastBD`` bookkeeping
of its pseudo-code (the chain is extended by ``m = maxxBD(node) - lastBD``
buffers per fan-out member, visited in sorted xBD order).  A second pass pads
every primary output up to the maximum output base distance.

Every such chain is a plain delay line, as long as its driver's largest
gap (the ``delays = max_offset - offset`` of a path-balancing delay line),
so both passes are array fills with no per-driver loop:

1. every driver gets one line of ``L`` buffers, ``L`` its largest consumer
   gap (consumer level minus driver level minus one).  The lines sit at rows
   ``n + exclusive_cumsum(L)`` in driver order, and one scatter points every
   consumer at line position ``gap`` (position 0 is the driver itself),
   keeping its complement bit;
2. every output driver's line is extended to the common output level.  The
   extensions follow all pass-1 rows in output-driver order, and the outputs
   are retargeted the same way.

Balancing never changes the level of an existing component, so both fills
read one level computation: the cached
:meth:`~repro.core.wavepipe.components.WaveNetlist.levels` and consumer map
of the input netlist.  The constant carries no waves and is never balanced.

Under a ``fanout_limit`` (the combined FOx+BUF flow) a line position that
the line continues past spends one slot on the next buffer, so it may serve
at most ``limit - 1`` taps, and the line's end at most ``limit``.
:func:`_check_feasible` first rejects any component whose consumers and
outputs together exceed ``limit`` (run
:func:`repro.core.wavepipe.fanout.restrict_fanout` first).  After it, no tap
position can overflow: every line ends at one of its driver's taps, so a
position the line continues past serves at most ``limit - 1`` of them.  A
line therefore never needs a parallel sibling buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...errors import FanoutError
from .components import Kind, WaveNetlist


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


def _delay_lines(
    heads: np.ndarray, lengths: np.ndarray, first_row: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lay out one delay line per entry, in entry order, from *first_row*.

    Line ``i`` holds ``lengths[i]`` buffers fed by literal ``heads[i]``.
    Returns ``(starts, fanins)``: the first row of every line and the
    fan-in rows of the new buffers.
    """
    starts = first_row + np.cumsum(lengths) - lengths
    fanins = np.zeros((int(lengths.sum()), 3), dtype=np.int32)
    # each buffer reads the one before it, the first of a line its head
    fanins[:, 0] = (first_row + np.arange(len(fanins)) - 1) << 1
    fed = lengths > 0
    fanins[starts[fed] - first_row, 0] = heads[fed]
    return starts, fanins


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
    levels = netlist.levels()
    depth_before = netlist.depth()
    if fanout_limit is not None:
        _check_feasible(netlist, fanout_limit)
    kinds, fanins, outputs = netlist.arrays()
    n = len(kinds)
    drivers = np.arange(n, dtype=np.int64)

    # Pass 1: one line per driver, as long as its largest consumer gap.
    edge_driver = consumers.driver
    gaps = levels[consumers.component] - levels[edge_driver] - 1
    gaps[edge_driver == 0] = 0
    length = np.zeros(n, dtype=np.int64)
    np.maximum.at(length, edge_driver, gaps)
    start, lines = _delay_lines(drivers << 1, length, n)
    fanins = np.concatenate((fanins, lines))
    tap = gaps > 0
    component, position = consumers.component[tap], consumers.position[tap]
    rows = start[edge_driver[tap]] + gaps[tap] - 1
    fanins[component, position] = (rows << 1) | (fanins[component, position] & 1)

    # Pass 2: extend every output driver's line to the common output level.
    extension = np.zeros(n, dtype=np.int64)
    outputs = outputs.copy()
    if pad_outputs and len(outputs):
        nodes = outputs >> 1
        pad = levels[nodes].max() - levels[nodes]
        pad[nodes == 0] = 0
        extension[nodes] = np.maximum(pad - length[nodes], 0)
        ends = np.where(length > 0, (start + length - 1) << 1, drivers << 1)
        start2, lines = _delay_lines(ends, extension, len(fanins))
        fanins = np.concatenate((fanins, lines))
        rows = np.where(
            pad <= length[nodes],
            start[nodes] + pad - 1,
            start2[nodes] + pad - length[nodes] - 1,
        )
        padded = pad > 0
        outputs[padded] = (rows[padded] << 1) | (outputs[padded] & 1)

    kinds = np.concatenate((kinds, np.full(len(fanins) - n, Kind.BUF, np.int8)))
    result = netlist.derive(kinds, fanins, outputs)
    # drivers with consumers first, then output-only drivers, each in
    # index order: the order the chains of a full pass 1 would take
    chains = length + extension
    chained = np.flatnonzero(chains)
    fed = np.diff(consumers.ptr)[chained] > 0
    chained = np.concatenate((chained[fed], chained[~fed]))
    padding = int(extension.sum())
    return BufferInsertionResult(
        netlist=result,
        buffers_added=int(length.sum()) + padding,
        padding_buffers=padding,
        depth_before=depth_before,
        depth_after=result.depth(),
        chain_lengths=dict(zip(chained.tolist(), chains[chained].tolist())),
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
