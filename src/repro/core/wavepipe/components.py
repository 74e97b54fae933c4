"""Typed component netlists for wave pipelining.

The paper's transforms operate on netlists whose components are the
technology primitives of Table I:

* ``MAJ`` — 3-input majority gate;
* ``BUF`` — balancing buffer (identity, one level of delay);
* ``FOG`` — fan-out gate (identity with fan-out capability, modelled by the
  paper as a reversed majority gate).

Inverters stay *on edges* (complement attributes), exactly as in the MIG
abstraction: in the studied technologies an inverter is a waveguide/cell
feature that does not add a clocked level, but it does cost area and energy,
so it is *counted* (``complemented_edge_count``) when mapping to a
technology.  Constant fan-ins are fixed-polarization cells; they carry no
waves and are exempt from balancing and fan-out restriction (they are
replicated at each consumer by the physical mapping).

Array layout
------------
A :class:`WaveNetlist` is one set of numpy arrays (see :meth:`arrays`):

* ``kinds`` — ``int8[n]``, the :class:`Kind` of every component;
* ``fanins`` — ``int32[n, 3]`` fan-in literals (``2 * index +
  complement``).  The kind fixes the arity (MAJ 3, BUF/FOG 1, CONST/INPUT
  0, see :data:`ARITY`); the unused columns hold 0, so a MAJ fan-in tied
  to constant 0 is never mistaken for padding;
* ``outputs`` — ``int64[k]`` output literals.

The arrays keep spare capacity, so the ``add_*`` methods stay amortized
O(1), and :attr:`n_inputs`, :attr:`n_outputs` and :attr:`version` are
plain ints.  Every whole-netlist fact is a numpy expression over the
arrays: :meth:`levels` runs Kahn's algorithm as frontier passes over the
CSR :meth:`consumers` map, and both are cached read-only per
:attr:`version` (the map only once asked for); sizes, the census and fan-out counts are ``bincount``\\ s.
The scalar accessors (:meth:`kind`, :meth:`fanins`, :attr:`outputs`) return
Python ints for the scalar oracle and the writers.  Fan-out restriction,
which is sequential, edits a :class:`NetlistEdit` — plain Python lists taken
from the arrays once — and writes it back as arrays in one step; buffer
insertion builds its result arrays directly.  Both hand them to
:meth:`derive`, so even the 10^5-component netlists of the paper's larger
benchmarks (e.g. DIFFEQ1's 306 937 components) stay cheap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from ...errors import NetlistError
from ..mig import Mig
from ..signal import Signal


class Kind(IntEnum):
    """Component kinds of a wave netlist."""

    CONST = 0
    INPUT = 1
    MAJ = 2
    BUF = 3
    FOG = 4


#: Kinds that occupy one clocked level (everything but sources).
CLOCKED_KINDS = (Kind.MAJ, Kind.BUF, Kind.FOG)

#: Fan-in count of every kind, indexed by :class:`Kind`.
ARITY = np.array([0, 0, 3, 1, 1], dtype=np.int64)
_ARITY = ARITY.tolist()

_T = TypeVar("_T")


@dataclass
class NetlistStats:
    """Component census of a wave netlist."""

    n_inputs: int
    n_maj: int
    n_buf: int
    n_fog: int
    n_inverters: int
    n_outputs: int
    depth: int

    @property
    def size(self) -> int:
        """Component count in the paper's sense: MAJ + BUF + FOG."""
        return self.n_maj + self.n_buf + self.n_fog


class NetlistArrays(NamedTuple):
    """Read-only views of a netlist's arrays (valid until it mutates)."""

    kinds: np.ndarray  # int8[n]
    fanins: np.ndarray  # int32[n, 3], zero-padded past each kind's arity
    outputs: np.ndarray  # int64[k]


class Consumers(NamedTuple):
    """Fan-out edges of every component in CSR form.

    Component ``d`` (= ``driver[e]``) drives fan-in ``position[e]`` of
    ``component[e]`` for ``e`` in ``ptr[d]:ptr[d + 1]``, in (component,
    position) order, and outputs ``po_index[po_ptr[d]:po_ptr[d + 1]]`` in
    ascending order.
    """

    ptr: np.ndarray
    driver: np.ndarray
    component: np.ndarray
    position: np.ndarray
    po_ptr: np.ndarray
    po_index: np.ndarray


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping of *keys* in ``[0, n)``: ``(ptr, order)``."""
    order = np.argsort(keys, kind="stable")
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr, order


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort, which for the few thousand
    values of a Kahn frontier is several times faster than its hashing."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _gather_ranges(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Indices ``ptr[r]:ptr[r + 1]`` of every row in *rows*, concatenated."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total)


class WaveNetlist:
    """A combinational netlist of MAJ/BUF/FOG components.

    Component 0 is the constant-FALSE cell.  Fan-ins are literals
    (``2 * index + complement``).  Construction appends components in
    topological order; the transforms may rewire fan-ins to later
    components, so traversals use :meth:`levels`, not index order.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._n = 1
        self._kinds = np.zeros(16, dtype=np.int8)  # row 0: Kind.CONST
        self._fanins = np.zeros((16, 3), dtype=np.int32)
        self._k = 0
        self._outputs = np.zeros(4, dtype=np.int64)
        self._inputs: list[int] = []
        self._input_names: list[str] = []
        #: component index -> position in _inputs (cached O(1) name lookup)
        self._input_index: dict[int, int] = {}
        self._output_names: list[str] = []
        #: bumped on every structural mutation; lets engine-side caches
        #: (e.g. the packed simulator's compiled phase tables) detect
        #: staleness without hashing the whole netlist.
        self._version: int = 0
        #: per-version derived facts (levels, consumer map), read-only
        self._cache: dict[str, object] = {}
        self._cache_version = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _append(self, kind: Kind, lits: Sequence[int]) -> int:
        index = self._n
        if index == len(self._kinds):
            capacity = 2 * index
            kinds = np.zeros(capacity, dtype=np.int8)
            kinds[:index] = self._kinds
            fanins = np.zeros((capacity, 3), dtype=np.int32)
            fanins[:index] = self._fanins
            self._kinds, self._fanins = kinds, fanins
        self._kinds[index] = kind
        if lits:
            self._fanins[index, : len(lits)] = lits
        self._n = index + 1
        self._version += 1
        return index

    def add_input(self, name: str = "") -> Signal:
        """Append a primary input cell."""
        index = self._append(Kind.INPUT, ())
        self._input_index[index] = len(self._inputs)
        self._inputs.append(index)
        self._input_names.append(name or f"in{len(self._inputs) - 1}")
        return Signal.of(index)

    def add_maj(self, a: int, b: int, c: int) -> Signal:
        """Append a majority component (no simplification: physical netlist)."""
        lits = sorted(int(self._check(x)) for x in (a, b, c))
        return Signal.of(self._append(Kind.MAJ, lits))

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
        return Signal.of(self._append(kind, (lit,)))

    def add_output(self, signal: int, name: str = "") -> int:
        """Register a primary output reading *signal*."""
        lit = int(self._check(signal))
        if self._k == len(self._outputs):
            outputs = np.zeros(2 * self._k, dtype=np.int64)
            outputs[: self._k] = self._outputs
            self._outputs = outputs
        self._outputs[self._k] = lit
        self._k += 1
        self._output_names.append(name or f"out{self._k - 1}")
        self._version += 1
        return self._k - 1

    def set_output(self, index: int, signal: int) -> None:
        """Rewire output *index* to read *signal* (used by the transforms)."""
        if not 0 <= index < self._k:
            raise NetlistError(f"no primary output with index {index}")
        self._outputs[index] = int(self._check(signal))
        self._version += 1

    def set_fanin(self, component: int, position: int, literal: int) -> None:
        """Rewire one fan-in edge of *component* (used by the transforms)."""
        if not 0 <= component < self._n:
            raise NetlistError(f"unknown component {component}")
        if not 0 <= position < _ARITY[self._kinds[component]]:
            raise NetlistError(
                f"component {component} has no fan-in position {position}"
            )
        self._fanins[component, position] = int(self._check(literal))
        self._version += 1

    def _check(self, signal: int) -> Signal:
        sig = Signal(int(signal))
        if not 0 <= sig.node < self._n:
            raise NetlistError(f"signal references unknown component {sig.node}")
        return sig

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_components(self) -> int:
        """Total component count including constant and inputs."""
        return self._n

    @property
    def n_inputs(self) -> int:
        """Number of primary inputs."""
        return len(self._inputs)

    @property
    def n_outputs(self) -> int:
        """Number of primary outputs."""
        return self._k

    @property
    def inputs(self) -> list[int]:
        """Indices of the primary-input cells."""
        return list(self._inputs)

    @property
    def outputs(self) -> list[Signal]:
        """Output literals in declaration order."""
        return [Signal(lit) for lit in self._outputs[: self._k].tolist()]

    @property
    def input_names(self) -> list[str]:
        """Names of the primary inputs."""
        return list(self._input_names)

    @property
    def output_names(self) -> list[str]:
        """Names of the primary outputs."""
        return list(self._output_names)

    @property
    def version(self) -> int:
        """Monotonic structural revision (bumped by every mutation)."""
        return self._version

    def input_name(self, component: int) -> str:
        """Name of the primary-input *component* (O(1) via cached index)."""
        position = self._input_index.get(component)
        if position is None:
            raise NetlistError(f"component {component} is not a primary input")
        return self._input_names[position]

    def output_name(self, index: int) -> str:
        """Name of primary output *index*."""
        if not 0 <= index < len(self._output_names):
            raise NetlistError(f"no primary output with index {index}")
        return self._output_names[index]

    def kind(self, component: int) -> Kind:
        """Kind of *component*."""
        if not 0 <= component < self._n:
            raise IndexError(f"component {component} out of range")
        return Kind(int(self._kinds[component]))

    def fanins(self, component: int) -> tuple[int, ...]:
        """Fan-in literals of *component* (empty for sources)."""
        if not 0 <= component < self._n:
            raise IndexError(f"component {component} out of range")
        row = self._fanins[component].tolist()
        return tuple(row[: _ARITY[self._kinds[component]]])

    def arrays(self) -> NetlistArrays:
        """Read-only views of ``kinds``, ``fanins`` and ``outputs``."""
        views = (
            self._kinds[: self._n],
            self._fanins[: self._n],
            self._outputs[: self._k],
        )
        return NetlistArrays(*(_read_only(view.view()) for view in views))

    def components(self) -> Iterator[int]:
        """All component indices in index order."""
        return iter(range(self._n))

    def clocked_components(self) -> Iterator[int]:
        """Indices of MAJ/BUF/FOG components in index order."""
        return iter(np.flatnonzero(self._kinds[: self._n] >= Kind.MAJ).tolist())

    def count(self, kind: Kind) -> int:
        """Number of components of *kind*."""
        return int(np.count_nonzero(self._kinds[: self._n] == kind))

    @property
    def size(self) -> int:
        """Component count in the paper's sense (MAJ + BUF + FOG)."""
        return int(np.count_nonzero(self._kinds[: self._n] >= Kind.MAJ))

    def complemented_edge_count(self) -> int:
        """Inverters to materialize: complemented fan-in plus output edges."""
        # padding columns hold 0, so every odd literal is a real edge
        return int(
            np.count_nonzero(self._fanins[: self._n] & 1)
            + np.count_nonzero(self._outputs[: self._k] & 1)
        )

    # ------------------------------------------------------------------
    # levels / structure
    # ------------------------------------------------------------------
    def _cached(self, key: str, build: Callable[[], _T]) -> _T:
        if self._cache_version != self._version:
            self._cache = {}
            self._cache_version = self._version
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value  # type: ignore[return-value]

    def consumers(self) -> Consumers:
        """Fan-out edges of every component as a CSR map (cached)."""
        return self._cached("consumers", self._build_consumers)

    def _build_consumers(self) -> Consumers:
        n = self._n
        arity = ARITY[self._kinds[:n]]
        mask = np.arange(3) < arity[:, None]
        component, position = np.nonzero(mask)
        drivers = self._fanins[:n][mask] >> 1
        ptr, order = _csr(drivers, n)
        po_ptr, po_index = _csr(self._outputs[: self._k] >> 1, n)
        return Consumers(
            *(
                _read_only(array)
                for array in (
                    ptr, drivers[order], component[order], position[order],
                    po_ptr, po_index,
                )
            )
        )

    def levels(self) -> np.ndarray:
        """Level of every component (sources at 0, unit delay per component).

        Constant fan-ins are ignored: they do not carry waves.  The result
        is cached per :attr:`version` and read-only.
        """
        return self._cached("levels", self._build_levels)

    def _build_levels(self) -> np.ndarray:
        # Kahn's algorithm, one frontier per pass: a component joins the
        # frontier in the pass after its last fan-in did, so the pass
        # number is one more than its deepest fan-in's level (constants
        # and inputs start at level 0, which is also why constant fan-ins
        # need no special case).  A consumer map built only for this is
        # not cached: served netlists need just the levels, for compile
        n = self._n
        consumers = self._cache.get("consumers") or self._build_consumers()
        remaining = ARITY[self._kinds[:n]]
        levels = np.full(n, -1, dtype=np.int64)
        frontier = np.flatnonzero(remaining == 0)
        level = 0
        while frontier.size:
            levels[frontier] = level
            targets = consumers.component[_gather_ranges(consumers.ptr, frontier)]
            np.subtract.at(remaining, targets, 1)
            frontier = _sorted_unique(targets[remaining[targets] == 0])
            level += 1
        if np.any(levels < 0):
            raise NetlistError("netlist contains a combinational cycle")
        return _read_only(levels)

    def topological_order(self) -> list[int]:
        """Clocked components in dependency order (Kahn's algorithm).

        Construction appends components in topological index order, but the
        transforms may rewire existing fan-ins to later-appended components,
        so traversals must not rely on index order.
        """
        order = self._kahn(list.pop, list.append)
        kinds = self._kinds[: self._n].tolist()
        return [component for component in order if kinds[component] > Kind.INPUT]

    def visit_order(self) -> np.ndarray:
        """All components in smallest-index-first topological order.

        Kahn's algorithm with a min-heap: index order itself whenever every
        fan-in references a lower index (as after :meth:`from_mig`).
        """
        consumers = self.consumers()
        if np.all(consumers.driver < consumers.component):
            return np.arange(self._n)
        return np.array(self._kahn(heapq.heappop, heapq.heappush), dtype=np.int64)

    def _kahn(
        self,
        pop: Callable[[list[int]], int],
        push: Callable[[list[int], int], None],
    ) -> list[int]:
        """Kahn's algorithm from the sources (in index order), taking the
        next ready component with *pop* and queueing with *push*."""
        consumers = self.consumers()
        ready = np.flatnonzero(self.levels() == 0).tolist()  # rejects cycles
        ptr = consumers.ptr.tolist()
        dependents = consumers.component.tolist()
        indegree = ARITY[self._kinds[: self._n]].tolist()
        order: list[int] = []
        while ready:
            current = pop(ready)
            order.append(current)
            for dependent in dependents[ptr[current]:ptr[current + 1]]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    push(ready, dependent)
        return order

    def depth(self, levels: Optional[Sequence[int]] = None) -> int:
        """Critical path length (max output-driver level)."""
        if not self._k:
            return 0
        known = self.levels() if levels is None else np.asarray(levels)
        return int(known[self._outputs[: self._k] >> 1].max())

    def consumer_map(self) -> tuple[list[list[tuple[int, int]]], list[list[int]]]:
        """Fan-out edges of every component as Python lists.

        Returns ``(consumers, po_refs)`` where ``consumers[i]`` lists
        ``(component, fanin_position)`` pairs and ``po_refs[i]`` lists output
        indices reading component *i* (see :meth:`consumers` for the
        array form).
        """
        csr = self.consumers()
        edges = list(zip(csr.component.tolist(), csr.position.tolist()))
        po_index = csr.po_index.tolist()
        ptr, po_ptr = csr.ptr.tolist(), csr.po_ptr.tolist()
        return (
            [edges[ptr[i]:ptr[i + 1]] for i in range(self._n)],
            [po_index[po_ptr[i]:po_ptr[i + 1]] for i in range(self._n)],
        )

    def fanout_counts(self, include_outputs: bool = True) -> np.ndarray:
        """Fan-out edge count per component (constant excluded from demand)."""
        consumers = self.consumers()
        counts = np.diff(consumers.ptr)
        if include_outputs:
            counts = counts + np.diff(consumers.po_ptr)
        counts[0] = 0  # constants are replicated tie-off cells, not nets
        return counts

    def stats(self) -> NetlistStats:
        """Component census (the quantities reported in Table II / Fig. 8)."""
        census = np.bincount(self._kinds[: self._n], minlength=len(Kind)).tolist()
        return NetlistStats(
            n_inputs=self.n_inputs,
            n_maj=census[Kind.MAJ],
            n_buf=census[Kind.BUF],
            n_fog=census[Kind.FOG],
            n_inverters=self.complemented_edge_count(),
            n_outputs=self.n_outputs,
            depth=self.depth(),
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def clone(self) -> "WaveNetlist":
        """Deep copy of this netlist (revision included)."""
        other = self._with_interface(self._version)
        other._set_arrays(
            self._kinds[: self._n], self._fanins[: self._n],
            self._outputs[: self._k],
        )
        return other

    def __getstate__(self) -> dict[str, object]:
        """Pickle the used rows only, without the derived-facts cache.

        (The serving tier never pickles a netlist: its wire codec ships
        the three arrays and rebuilds them with :meth:`from_arrays`.)"""
        state = dict(self.__dict__)
        state["_kinds"] = self._kinds[: self._n]
        state["_fanins"] = self._fanins[: self._n]
        state["_outputs"] = self._outputs[: max(self._k, 1)]
        state["_cache"] = {}
        state["_cache_version"] = -1
        return state

    def derive(
        self, kinds: np.ndarray, fanins: np.ndarray, outputs: np.ndarray
    ) -> "WaveNetlist":
        """A new netlist with this one's name and interface over the given
        arrays (copied), one revision past this one: a transform's result."""
        netlist = self._with_interface(self._version + 1)
        netlist._set_arrays(kinds, fanins, outputs)
        return netlist

    def _with_interface(self, version: int) -> "WaveNetlist":
        """An empty netlist carrying this one's name, inputs and names."""
        other = WaveNetlist(self.name)
        other._inputs = list(self._inputs)
        other._input_names = list(self._input_names)
        other._input_index = dict(self._input_index)
        other._output_names = list(self._output_names)
        other._version = version
        return other

    def _set_arrays(
        self, kinds: np.ndarray, fanins: np.ndarray, outputs: np.ndarray
    ) -> None:
        self._kinds = np.array(kinds, dtype=np.int8)
        self._fanins = np.array(fanins, dtype=np.int32).reshape(-1, 3)
        self._outputs = np.array(outputs, dtype=np.int64)
        self._n = len(self._kinds)
        self._k = len(self._outputs)
        if len(self._outputs) == 0:  # keep room for add_output to double
            self._outputs = np.zeros(1, dtype=np.int64)

    @classmethod
    def from_arrays(
        cls,
        kinds: np.ndarray,
        fanins: np.ndarray,
        outputs: np.ndarray,
        *,
        name: str = "",
        inputs: Optional[Sequence[int]] = None,
        input_names: Optional[Sequence[str]] = None,
        output_names: Optional[Sequence[str]] = None,
    ) -> "WaveNetlist":
        """A netlist over the given arrays (copied), validated.

        The inverse of :meth:`arrays` for arrays from outside, such as
        the wire codec's.  Raises :class:`~repro.errors.NetlistError`
        unless: row 0 is the only ``CONST`` row and every kind is in
        range; each row's fan-in count matches its kind (:data:`ARITY`)
        and the unused columns hold 0; every fan-in and output literal
        names a row; the *inputs* (default: the ``INPUT`` rows in order)
        are distinct and are exactly the ``INPUT`` rows; the name lists
        match the interface; and there is no cycle (the :meth:`levels`
        pass).  Fan-ins may point forward: the transforms rewire to
        later rows.
        """
        kinds = np.asarray(kinds)
        fanins = np.asarray(fanins)
        outputs = np.asarray(outputs)
        for label, array, ndim in (
            ("kinds", kinds, 1), ("fanins", fanins, 2), ("outputs", outputs, 1)
        ):
            if array.ndim != ndim or array.dtype.kind not in "iu":
                raise NetlistError(
                    f"{label} must be a {ndim}-d integer array, got "
                    f"{array.dtype} of shape {array.shape}"
                )
        n = len(kinds)
        if n == 0 or kinds[0] != Kind.CONST:
            raise NetlistError("row 0 must be the constant cell")
        if np.any((kinds[1:] < Kind.INPUT) | (kinds[1:] > Kind.FOG)):
            raise NetlistError(
                f"component kinds must be in {Kind.INPUT.value}.."
                f"{Kind.FOG.value} past the constant row"
            )
        if fanins.shape != (n, 3):
            raise NetlistError(
                f"fanins has shape {fanins.shape}, expected ({n}, 3)"
            )
        used = np.arange(3) < ARITY[kinds.astype(np.int64)][:, None]
        if np.any(fanins[~used] != 0):
            raise NetlistError("a fan-in column past its kind's arity is not 0")
        if np.any((fanins < 0) | (fanins >= 2 * n)) or np.any(
            (outputs < 0) | (outputs >= 2 * n)
        ):
            raise NetlistError("a fan-in or output literal names no row")
        input_rows = np.flatnonzero(kinds == Kind.INPUT)
        inputs = input_rows.tolist() if inputs is None else list(inputs)
        if sorted(inputs) != input_rows.tolist():
            raise NetlistError(
                "inputs must list every INPUT row exactly once"
            )
        netlist = cls(name)
        netlist._inputs = inputs
        netlist._input_index = {row: pos for pos, row in enumerate(inputs)}
        netlist._input_names = (
            [f"in{pos}" for pos in range(len(inputs))]
            if input_names is None else list(input_names)
        )
        netlist._output_names = (
            [f"out{pos}" for pos in range(len(outputs))]
            if output_names is None else list(output_names)
        )
        if len(netlist._input_names) != len(inputs) or len(
            netlist._output_names
        ) != len(outputs):
            raise NetlistError("name lists do not match the interface")
        netlist._set_arrays(kinds, fanins, outputs)
        netlist.levels()  # raises NetlistError on a cycle
        return netlist

    @classmethod
    def from_mig(cls, mig: Mig, name: str = "") -> "WaveNetlist":
        """Lower a MIG to a physical wave netlist (1:1, no buffers yet)."""
        netlist = cls(name or mig.name)
        for pi_name in mig.pi_names:
            netlist.add_input(pi_name)
        gates, lits = mig.gate_arrays()
        mapping = np.zeros(mig.n_nodes, dtype=np.int64)
        mapping[mig.pis] = np.arange(1, mig.n_pis + 1)
        mapping[gates] = np.arange(mig.n_pis + 1, mig.n_pis + 1 + len(gates))
        lits = np.sort((mapping[lits >> 1] << 1) | (lits & 1), axis=1)
        pos = np.array(mig.pos, dtype=np.int64)
        outputs = (mapping[pos >> 1] << 1) | (pos & 1)
        kinds = np.concatenate(
            (netlist._kinds[: netlist._n], np.full(len(gates), Kind.MAJ))
        )
        netlist._set_arrays(
            kinds, np.concatenate((netlist._fanins[: netlist._n], lits)),
            outputs,
        )
        netlist._output_names = [
            po_name or f"out{index}"
            for index, po_name in enumerate(mig.po_names)
        ]
        netlist._version += len(gates) + len(outputs)
        return netlist

    def to_mig(self) -> Mig:
        """Collapse back to a MIG (BUF/FOG become wires) for export."""
        mig = Mig(self.name)
        mapping: dict[int, Signal] = {0: Signal(0)}
        for index, name in zip(self._inputs, self._input_names):
            mapping[index] = mig.add_pi(name)
        kinds = self._kinds[: self._n].tolist()
        fanins = self._fanins[: self._n].tolist()
        for index in self.topological_order():
            if kinds[index] == Kind.MAJ:
                sigs = [mapping[lit >> 1] ^ bool(lit & 1) for lit in fanins[index]]
                mapping[index] = mig.add_maj(*sigs)
            else:  # BUF / FOG are functional identity
                lit = fanins[index][0]
                mapping[index] = mapping[lit >> 1] ^ bool(lit & 1)
        for lit, name in zip(self._outputs[: self._k].tolist(), self._output_names):
            mig.add_po(mapping[lit >> 1] ^ bool(lit & 1), name)
        return mig

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"WaveNetlist(name={self.name!r}, inputs={stats.n_inputs}, "
            f"outputs={stats.n_outputs}, maj={stats.n_maj}, "
            f"buf={stats.n_buf}, fog={stats.n_fog}, depth={stats.depth})"
        )


class NetlistEdit:
    """Python-list working copy of a netlist for fan-out restriction.

    The arrays are read out once: ``kinds`` per component, ``fanins`` flat
    (component ``c``'s fan-in ``j`` at ``3 * c + j``) and ``outputs``.
    The transform rewires entries and appends components with :meth:`add`,
    then :meth:`finish` writes everything back as arrays in one step.
    """

    __slots__ = ("source", "kinds", "fanins", "outputs")

    def __init__(self, source: WaveNetlist) -> None:
        arrays = source.arrays()
        self.source = source
        self.kinds: list[int] = arrays.kinds.tolist()
        self.fanins: list[int] = arrays.fanins.ravel().tolist()
        self.outputs: list[int] = arrays.outputs.tolist()

    def add(self, kind: Kind, source: int) -> int:
        """Append a BUF/FOG driven by literal *source*; returns its literal."""
        index = len(self.kinds)
        self.kinds.append(kind)
        self.fanins += (source, 0, 0)
        return index << 1

    def finish(self) -> WaveNetlist:
        """The edited netlist (the source netlist is left untouched)."""
        return self.source.derive(
            np.array(self.kinds, dtype=np.int8),
            np.array(self.fanins, dtype=np.int32),
            np.array(self.outputs, dtype=np.int64),
        )
