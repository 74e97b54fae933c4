"""Invariant checkers for wave-pipelined netlists.

These are the formal statements of the paper's two transform objectives:

* :func:`check_balanced` — objective of buffer insertion: all paths between
  any two connected components are equal length, and all outputs share one
  base distance;
* :func:`check_fanout` — objective of fan-out restriction: no component
  drives more than ``limit`` consumers;
* :func:`check_equivalent_to_mig` — both transforms preserve function.

Checkers return a list of human-readable violation strings (empty = OK);
``assert_*`` variants raise the matching library exception.  The balance and
fan-out checks are one numpy expression each over the netlist's arrays and
cached levels; violation strings are only built when something fails.

Equivalence is decided in two steps: a proof wins, and anything else is
decided by simulation exactly as before the proof existed.

1. :func:`certify_equivalent`, a structural certificate against the MIG
   itself.  The flow never adds, removes or reorders a MAJ row: it appends
   BUF and FOG identities and rewires fan-ins.  So the certificate maps the
   MIG's constant to row 0, its inputs to rows ``1..n_pis`` and its gates,
   in order, to the rows after them, without going through
   :meth:`~repro.core.wavepipe.components.WaveNetlist.from_mig`.  It passes
   only when those rows keep their kinds, every later row is a BUF or a
   FOG, the netlist is acyclic, and, once every BUF/FOG chain has collapsed
   to its root literal, every MAJ row reads its gate's fan-ins and every
   output reads its MIG output.  That proves the two equivalent.
2. :func:`simulate_equivalent`, run whenever the certificate fails: all
   ``2**n`` input patterns up to
   :data:`~repro.core.equivalence.EXHAUSTIVE_LIMIT` inputs, else seeded
   random words.  A failed certificate never rejects a netlist by itself,
   so the certificate can only turn a simulated verdict into a proved one.
"""

from __future__ import annotations

import numpy as np

from ...errors import BalanceError, EquivalenceError, FanoutError
from ..equivalence import EXHAUSTIVE_LIMIT, random_word_count, random_words
from ..mig import Mig
from ..simulate import exhaustive_words, simulate_words
from .components import ARITY, Kind, WaveNetlist


def _skew(netlist: WaveNetlist) -> tuple[np.ndarray, np.ndarray]:
    """``(components whose wave-carrying fan-ins sit at different levels,
    levels of the non-constant output drivers)``."""
    levels = netlist.levels()
    kinds, fanins, outputs = netlist.arrays()
    # a component sits one level past its deepest fan-in, so its fan-ins
    # share one level exactly when each sits one level below it
    nodes = fanins >> 1
    skewed = (
        (np.arange(3) < ARITY[kinds][:, None])
        & (nodes != 0)
        & (levels[nodes] != levels[:, None] - 1)
    ).any(axis=1)
    return np.flatnonzero(skewed), levels[outputs[outputs >> 1 != 0] >> 1]


def is_balanced(netlist: WaveNetlist) -> bool:
    """True when :func:`check_balanced` finds nothing."""
    skewed, output_levels = _skew(netlist)
    return not skewed.size and not np.any(output_levels != output_levels[:1])


def check_balanced(netlist: WaveNetlist) -> list[str]:
    """Violations of the path-balance property.

    Balanced means: every clocked component sees all of its wave-carrying
    (non-constant) fan-ins at the same level — which is equivalent to all
    paths between any two connected components having equal length — and
    every primary output driver sits at the same level.
    """
    skewed, output_levels = _skew(netlist)
    levels = netlist.levels()
    violations: list[str] = []
    for component in skewed.tolist():
        fanin_levels = {
            int(levels[lit >> 1])
            for lit in netlist.fanins(component)
            if lit >> 1 != 0
        }
        violations.append(
            f"component {component} ({netlist.kind(component).name}) "
            f"sees fan-in levels {sorted(fanin_levels)}"
        )
    if np.any(output_levels != output_levels[:1]):
        violations.append(
            "outputs sit at different base distances "
            f"{sorted(set(output_levels.tolist()))}"
        )
    return violations


def check_fanout(netlist: WaveNetlist, limit: int) -> list[str]:
    """Violations of the fan-out bound (constants exempt)."""
    counts = netlist.fanout_counts()
    return [
        f"component {component} ({netlist.kind(component).name}) "
        f"drives {counts[component]} > {limit} consumers"
        for component in np.flatnonzero(counts > limit).tolist()
    ]


def assert_balanced(netlist: WaveNetlist, context: str = "") -> None:
    """Raise :class:`BalanceError` when the netlist is not path-balanced."""
    violations = check_balanced(netlist)
    if violations:
        prefix = f"{context}: " if context else ""
        sample = "; ".join(violations[:5])
        raise BalanceError(
            f"{prefix}{len(violations)} balance violations, e.g. {sample}"
        )


def assert_fanout(netlist: WaveNetlist, limit: int, context: str = "") -> None:
    """Raise :class:`FanoutError` when the fan-out bound is violated."""
    violations = check_fanout(netlist, limit)
    if violations:
        prefix = f"{context}: " if context else ""
        sample = "; ".join(violations[:5])
        raise FanoutError(
            f"{prefix}{len(violations)} fan-out violations, e.g. {sample}"
        )


def check_equivalent_to_mig(netlist: WaveNetlist, reference: Mig) -> bool:
    """True when the netlist still computes the reference MIG's function.

    A passing :func:`certify_equivalent` decides; otherwise
    :func:`simulate_equivalent` does.  Raises :class:`EquivalenceError` on
    an input or output count mismatch and
    :class:`~repro.errors.NetlistError` on a cyclic netlist.
    """
    _check_interface(netlist, reference)
    return certify_equivalent(netlist, reference) or simulate_equivalent(
        netlist, reference
    )


def _check_interface(netlist: WaveNetlist, reference: Mig) -> None:
    if netlist.n_inputs != reference.n_pis:
        raise EquivalenceError(
            f"PI count mismatch: {netlist.n_inputs} vs {reference.n_pis}"
        )
    if netlist.n_outputs != reference.n_pos:
        raise EquivalenceError(
            f"PO count mismatch: {netlist.n_outputs} vs {reference.n_pos}"
        )


def certify_equivalent(netlist: WaveNetlist, reference: Mig) -> bool:
    """True when the netlist is *reference* with BUF/FOG rows added and
    fan-ins rewired through them, which proves the two equivalent.

    The MIG's constant maps to row 0, its inputs to rows ``1..n_pis``
    (which must also be ``netlist.inputs``, in order) and its gates, in
    index order, to the rows after them.  The certificate holds when

    * those rows are CONST, INPUT and MAJ rows respectively;
    * every later row is a BUF or a FOG;
    * the netlist is acyclic (its levels exist; raises
      :class:`~repro.errors.NetlistError` otherwise);
    * every gate's fan-ins precede it in the MIG, so the MIG's index order
      is the topological order its function is defined by;
    * after collapsing BUF/FOG chains to root literals, every MAJ row's
      sorted root fan-ins equal its gate's mapped fan-ins, and every
      output's root literal equals the mapped MIG output.

    False means only "not proved": :func:`simulate_equivalent` decides.
    """
    netlist.levels()  # rejects cycles before any chain is followed
    kinds, fanins, outputs = netlist.arrays()
    gates, gate_fanins = reference.gate_arrays()
    n_pis = reference.n_pis
    base = 1 + n_pis + len(gates)
    if (
        netlist.n_inputs != n_pis
        or netlist.n_outputs != reference.n_pos
        or len(kinds) < base
        or netlist.inputs != list(range(1, 1 + n_pis))
    ):
        return False
    expected = np.full(base, Kind.MAJ, dtype=np.int8)
    expected[0] = Kind.CONST
    expected[1:1 + n_pis] = Kind.INPUT
    if not np.array_equal(kinds[:base], expected) or np.any(
        kinds[base:] < Kind.BUF
    ):
        return False
    if np.any(gate_fanins >> 1 >= gates[:, None]):
        return False
    row = np.zeros(reference.n_nodes, dtype=np.int64)
    row[reference.pis] = np.arange(1, 1 + n_pis)
    row[gates] = np.arange(1 + n_pis, base)
    root = _root_literals(kinds, fanins)
    lits = fanins[1 + n_pis:base]
    got = np.sort(root[lits >> 1] ^ (lits & 1), axis=1)
    want = np.sort((row[gate_fanins >> 1] << 1) | (gate_fanins & 1), axis=1)
    if not np.array_equal(got, want):
        return False
    pos = np.array(reference.pos, dtype=np.int64)
    return bool(
        np.array_equal(
            root[outputs >> 1] ^ (outputs & 1),
            (row[pos >> 1] << 1) | (pos & 1),
        )
    )


def simulate_equivalent(netlist: WaveNetlist, reference: Mig) -> bool:
    """True when simulation finds no input pattern on which the netlist
    and the reference MIG differ.

    The patterns are those of
    :func:`~repro.core.equivalence.check_equivalence`: all ``2**n`` input
    patterns up to :data:`~repro.core.equivalence.EXHAUSTIVE_LIMIT`
    inputs, else seeded random words, as many as that function draws for
    the reference.  The reference runs through the golden
    :func:`~repro.core.simulate.simulate_words`; the netlist runs through
    the packed engine's functional evaluator,
    :class:`~repro.core.wavepipe.kernels.FunctionalNetlist`, which
    collapses BUF/FOG chains to root literals and evaluates the MAJ rows
    one level at a time.
    """
    from .kernels import FunctionalNetlist  # kernels imports this module

    _check_interface(netlist, reference)
    n_inputs = netlist.n_inputs
    if n_inputs <= EXHAUSTIVE_LIMIT:
        words = exhaustive_words(n_inputs)
    else:
        # a strashed copy of the netlist holds at most its sources and MAJ
        # rows (exactly the reference's nodes for a flow result)
        rows = 1 + n_inputs + netlist.count(Kind.MAJ)
        words = random_words(
            n_inputs, random_word_count(max(rows, reference.n_nodes))
        )
    got = FunctionalNetlist.build(netlist).evaluate(words)
    want = simulate_words(reference, words)
    if n_inputs < 6:  # one word, whose upper bits repeat the 2**n patterns
        mask = np.uint64((1 << (1 << n_inputs)) - 1)
        got, want = got & mask, want & mask
    return bool(np.array_equal(got, want))


def _root_literals(kinds: np.ndarray, fanins: np.ndarray) -> np.ndarray:
    """Every component's *root literal*: itself for a constant, input or
    MAJ, else the start of its BUF/FOG chain with the chain's complements
    folded in, found by pointer doubling (the caller rejected cycles)."""
    root = np.arange(len(kinds), dtype=np.int64) << 1
    wires = kinds >= Kind.BUF
    root[wires] = fanins[wires, 0]
    while True:
        hop = root[root >> 1] ^ (root & 1)
        if np.array_equal(hop, root):
            return root
        root = hop


def wave_ready(netlist: WaveNetlist, fanout_limit: int | None = None) -> bool:
    """True when the netlist satisfies every wave-pipelining requirement."""
    if check_balanced(netlist):
        return False
    if fanout_limit is not None and check_fanout(netlist, fanout_limit):
        return False
    return True
