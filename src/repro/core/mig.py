"""Majority-Inverter Graph (MIG) data structure.

A MIG is a homogeneous logic network of 3-input majority nodes with
regular/complemented edges (Amarù et al., DAC'14 / TCAD'16).  This module
provides the mutable builder/data structure; algorithms that inspect depth,
fan-out, and so on live in :mod:`repro.core.view`, and optimization passes in
:mod:`repro.core.rewrite`.

Nodes are integer indices.  Index ``0`` is the constant-FALSE node; primary
inputs and majority gates are appended after it.  Fan-ins are stored as
literal integers (see :mod:`repro.core.signal`), and nodes are created in
topological order by construction (a gate may only reference existing nodes),
which keeps traversals trivial and cheap.

Example
-------
>>> mig = Mig("full_adder")
>>> a, b, cin = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("cin")
>>> carry = mig.add_maj(a, b, cin)
>>> mig.add_po(carry, "carry")
0
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ..errors import MigError
from .signal import FALSE, TRUE, Signal

#: Marker stored in the fan-in table for the constant node.
_CONST_MARK = None
#: Marker stored in the fan-in table for primary inputs.
_PI_MARK = ()


class Mig:
    """A Majority-Inverter Graph.

    Parameters
    ----------
    name:
        Optional human-readable netlist name (used by writers and reports).
    use_strash:
        When True (default), structurally identical majority gates are
        shared:  requesting ``M(a, b, c)`` twice returns the same node.
    """

    def __init__(self, name: str = "", use_strash: bool = True):
        self.name = name
        self.use_strash = use_strash
        # _fanins[i] is None for the constant node, () for a PI, and a
        # 3-tuple of fan-in literals for a majority gate.
        self._fanins: list[Optional[tuple[int, int, int]]] = [_CONST_MARK]
        self._pis: list[int] = []
        self._pi_names: list[str] = []
        #: node index -> position in _pis (cached so pi_name stays O(1))
        self._pi_index: dict[int, int] = {}
        self._pos: list[Signal] = []
        self._po_names: list[str] = []
        self._strash: dict[tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_pi(self, name: str = "") -> Signal:
        """Append a primary input and return its (regular) signal."""
        index = len(self._fanins)
        self._fanins.append(_PI_MARK)
        self._pi_index[index] = len(self._pis)
        self._pis.append(index)
        self._pi_names.append(name or f"pi{len(self._pis) - 1}")
        return Signal.of(index)

    def add_pis(self, count: int, prefix: str = "x") -> list[Signal]:
        """Append *count* primary inputs named ``<prefix>0..``."""
        return [self.add_pi(f"{prefix}{i}") for i in range(count)]

    def add_po(self, signal: int, name: str = "") -> int:
        """Register *signal* as a primary output; returns the output index."""
        sig = self._check_signal(signal)
        self._pos.append(sig)
        self._po_names.append(name or f"po{len(self._pos) - 1}")
        return len(self._pos) - 1

    def add_maj(self, a: int, b: int, c: int) -> Signal:
        """Create (or reuse) the majority gate ``M(a, b, c)``.

        Trivial simplifications are applied before a node is created:
        ``M(x, x, y) = x``, ``M(x, ~x, y) = y``, and fully constant inputs
        fold to a constant.  Fan-ins are sorted so that structural hashing
        is order-insensitive.
        """
        sa, sb, sc = (self._check_signal(s) for s in (a, b, c))
        lits = sorted((int(sa), int(sb), int(sc)))

        simplified = self._simplify_maj(lits)
        if simplified is not None:
            return simplified

        key = tuple(lits)
        if self.use_strash:
            found = self._strash.get(key)
            if found is not None:
                return Signal.of(found)
        index = len(self._fanins)
        self._fanins.append(key)  # type: ignore[arg-type]
        if self.use_strash:
            self._strash[key] = index
        return Signal.of(index)

    @staticmethod
    def _simplify_maj(lits: Sequence[int]) -> Optional[Signal]:
        """Return the simplified signal for sorted fan-ins, or None."""
        a, b, c = lits
        if a == b or b == c:  # M(x, x, y) = x
            return Signal(b)
        # sorted order puts equal-node literals adjacent
        if a >> 1 == b >> 1:  # a == ~b -> M(x, ~x, y) = y
            return Signal(c)
        if b >> 1 == c >> 1:  # b == ~c -> M(y, x, ~x) = y
            return Signal(a)
        # A remaining constant fan-in (M(0, x, y) = AND, M(1, x, y) = OR)
        # stays a regular majority gate: MIGs permit constant inputs.
        return None

    # convenience composite operators -----------------------------------
    def add_and(self, a: int, b: int) -> Signal:
        """AND as the majority special case ``M(a, b, 0)``."""
        return self.add_maj(a, b, FALSE)

    def add_or(self, a: int, b: int) -> Signal:
        """OR as the majority special case ``M(a, b, 1)``."""
        return self.add_maj(a, b, TRUE)

    def add_xor(self, a: int, b: int) -> Signal:
        """XOR built from AND/OR majority gates (2 levels, 3 nodes)."""
        conj = self.add_and(a, b)
        disj = self.add_or(a, b)
        return self.add_and(~conj, disj)

    def add_mux(self, sel: int, then_sig: int, else_sig: int) -> Signal:
        """2:1 multiplexer ``sel ? then_sig : else_sig``."""
        take_then = self.add_and(sel, then_sig)
        take_else = self.add_and(~Signal(int(sel)), else_sig)
        return self.add_or(take_then, take_else)

    def add_maj_n(self, signals: Sequence[int]) -> Signal:
        """N-input majority (N odd) as a tree of 3-input majority gates.

        Uses the standard recursive construction; exact for N = 3 and N = 5,
        and a sorting-network-based reduction for larger odd N.
        """
        sigs = [self._check_signal(s) for s in signals]
        if len(sigs) % 2 == 0:
            raise MigError("n-input majority requires an odd number of inputs")
        if len(sigs) == 1:
            return sigs[0]
        if len(sigs) == 3:
            return self.add_maj(*sigs)
        # Recursive median-of-medians style expansion: MAJ5 via 4 MAJ3
        # (Amarù TCAD'16, Fig. 3):  <abcde> = M(c, M(a,b,d), M(a,b,e))? is
        # not exact; use the exact construction
        # <abcde> = M( M(a,b,c), M(a, M(b,c,d)... ) -- instead we use the
        # well-known exact formula via conditioning on the last two inputs:
        # <x1..xn> = M( x_{n-1}, x_n, <x1..x_{n-2}>' ) does not hold either,
        # so fall back to threshold counting with adders for n >= 5.
        return self._add_threshold(sigs, (len(sigs) + 1) // 2)

    def _add_threshold(self, sigs: list[Signal], threshold: int) -> Signal:
        """Threshold function [at least *threshold* of *sigs* are 1]."""
        # Dynamic programming over "at least k of the first i inputs":
        # T(i, k) = x_i ? T(i-1, k-1) : T(i-1, k)
        previous: list[Signal] = [TRUE] + [FALSE] * threshold
        for sig in sigs:
            current: list[Signal] = [TRUE]
            for k in range(1, threshold + 1):
                current.append(self.add_mux(sig, previous[k - 1], previous[k]))
            previous = current
        return previous[threshold]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pis)

    @property
    def n_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    @property
    def n_nodes(self) -> int:
        """Total node count including the constant and primary inputs."""
        return len(self._fanins)

    @property
    def size(self) -> int:
        """Number of majority gates (the paper's netlist *size*)."""
        return len(self._fanins) - 1 - len(self._pis)

    @property
    def pis(self) -> list[int]:
        """Node indices of the primary inputs, in creation order."""
        return list(self._pis)

    @property
    def pos(self) -> list[Signal]:
        """Primary output signals, in creation order."""
        return list(self._pos)

    @property
    def pi_names(self) -> list[str]:
        """Names of the primary inputs."""
        return list(self._pi_names)

    @property
    def po_names(self) -> list[str]:
        """Names of the primary outputs."""
        return list(self._po_names)

    def is_const(self, node: int) -> bool:
        """True if *node* is the constant-FALSE node."""
        return node == 0

    def is_pi(self, node: int) -> bool:
        """True if *node* is a primary input."""
        return self._fanins[node] == _PI_MARK and node != 0

    def is_maj(self, node: int) -> bool:
        """True if *node* is a majority gate."""
        fanins = self._fanins[node]
        return fanins is not None and fanins != _PI_MARK

    def fanins(self, node: int) -> tuple[int, int, int]:
        """The three fan-in literals of majority gate *node*."""
        fanins = self._fanins[node]
        if fanins is None or fanins == _PI_MARK:
            raise MigError(f"node {node} is not a majority gate")
        return fanins

    def gates(self) -> Iterator[int]:
        """Iterate over majority-gate node indices in topological order."""
        for node, fanins in enumerate(self._fanins):
            if fanins is not None and fanins != _PI_MARK:
                yield node

    def gate_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`gates` and their :meth:`fanins` as int64 arrays:
        ``(gates[n_gates], fanins[n_gates, 3])``."""
        # None marks the constant and () a PI: both are falsy
        gates = [node for node, fanins in enumerate(self._fanins) if fanins]
        rows = [fanins for fanins in self._fanins if fanins]
        flat = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=3 * len(rows)
        )
        return np.array(gates, dtype=np.int64), flat.reshape(-1, 3)

    def nodes(self) -> Iterator[int]:
        """Iterate over all node indices (constant, PIs, gates)."""
        return iter(range(len(self._fanins)))

    def pi_name(self, node: int) -> str:
        """Name of the primary input *node* (O(1) via the cached index)."""
        position = self._pi_index.get(node)
        if position is None:
            raise MigError(f"node {node} is not a primary input")
        return self._pi_names[position]

    def _check_signal(self, signal: int) -> Signal:
        sig = Signal(int(signal))
        if not 0 <= sig.node < len(self._fanins):
            raise MigError(f"signal references unknown node {sig.node}")
        return sig

    def _replace_fanin(self, node: int, position: int, signal: int) -> None:
        """Rewire one fan-in edge in place (structural surgery).

        Used by the synthetic benchmark generator to fold dangling gates
        into consumers.  The caller is responsible for keeping the graph
        acyclic.  Structural hashing stays consistent: the old fan-in key
        is dropped (only when it still maps to *node*), and the new key is
        re-registered so later ``add_maj`` calls reuse this gate.  When the
        new key collides with an existing gate the earlier registrant is
        kept — ``add_maj`` then shares that structurally identical gate
        instead of silently diverging from the graph.
        """
        sig = self._check_signal(signal)
        fanins = self._fanins[node]
        if fanins is None or fanins == _PI_MARK:
            raise MigError(f"node {node} is not a majority gate")
        updated = list(fanins)
        updated[position] = int(sig)
        key = tuple(sorted(updated))
        self._fanins[node] = key  # type: ignore[assignment]
        if self.use_strash:
            if self._strash.get(fanins) == node:
                del self._strash[fanins]
            if self._simplify_maj(key) is None:
                self._strash.setdefault(key, node)

    # ------------------------------------------------------------------
    # whole-graph operations
    # ------------------------------------------------------------------
    def clone(self) -> "Mig":
        """Deep copy of this graph."""
        other = Mig(self.name, use_strash=self.use_strash)
        other._fanins = list(self._fanins)
        other._pis = list(self._pis)
        other._pi_names = list(self._pi_names)
        other._pi_index = dict(self._pi_index)
        other._pos = list(self._pos)
        other._po_names = list(self._po_names)
        other._strash = dict(self._strash)
        return other

    def cleanup(self) -> "Mig":
        """Return a compacted copy without nodes unreachable from the POs.

        Primary inputs are always retained (their count is part of the
        interface).  Node indices are renumbered; PI/PO order and names are
        preserved.
        """
        reachable = self._reachable_from_pos()
        new = Mig(self.name, use_strash=self.use_strash)
        mapping: dict[int, Signal] = {0: FALSE}
        for node, name in zip(self._pis, self._pi_names):
            mapping[node] = new.add_pi(name)
        for node in self.gates():
            if node not in reachable:
                continue
            a, b, c = self.fanins(node)
            mapped = [mapping[lit >> 1] ^ bool(lit & 1) for lit in (a, b, c)]
            mapping[node] = new.add_maj(*mapped)
        for sig, name in zip(self._pos, self._po_names):
            new.add_po(mapping[sig.node] ^ sig.complemented, name)
        return new

    def _reachable_from_pos(self) -> set[int]:
        reachable: set[int] = set()
        stack = [sig.node for sig in self._pos]
        while stack:
            node = stack.pop()
            if node in reachable:
                continue
            reachable.add(node)
            fanins = self._fanins[node]
            if fanins and fanins != _PI_MARK:
                stack.extend(lit >> 1 for lit in fanins)
        return reachable

    def dangling_gates(self) -> list[int]:
        """Majority gates not reachable from any primary output."""
        reachable = self._reachable_from_pos()
        return [node for node in self.gates() if node not in reachable]

    def complemented_fanin_count(self) -> int:
        """Total number of complemented fan-in edges over all gates.

        This is the number of inverters that must be materialized when the
        graph is mapped onto a technology without free complementation
        (output complement on POs included).
        """
        count = sum(
            (a & 1) + (b & 1) + (c & 1)
            for a, b, c in (self.fanins(g) for g in self.gates())
        )
        count += sum(1 for sig in self._pos if sig.complemented)
        return count

    def __repr__(self) -> str:
        return (
            f"Mig(name={self.name!r}, pis={self.n_pis}, pos={self.n_pos}, "
            f"size={self.size})"
        )


def maj3(a: bool, b: bool, c: bool) -> bool:
    """Boolean 3-input majority, the MIG node semantics."""
    return (a and b) or (a and c) or (b and c)


def signals_of(nodes: Iterable[int]) -> list[Signal]:
    """Convenience: wrap plain node indices into regular signals."""
    return [Signal.of(n) for n in nodes]
