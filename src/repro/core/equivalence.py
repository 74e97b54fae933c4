"""Combinational equivalence checking between MIGs.

Strategy ladder:

1. exhaustive truth tables when the input count is small (exact);
2. SAT miter (exact) when requested and the graphs are moderate;
3. random bit-parallel simulation otherwise (counterexample-complete only,
   but with tens of thousands of patterns it is a strong smoke check for
   the structural transforms in this library, which are proven separately).

All transforms in the library route their self-checks through
:func:`assert_equivalent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import EquivalenceError
from .mig import Mig
from .simulate import simulate_words, truth_tables

#: PI-count threshold below which exhaustive checking is used.
EXHAUSTIVE_LIMIT = 14

#: Seed of the random-simulation patterns.
RANDOM_SEED = 2017


def random_word_count(n_nodes: int) -> int:
    """64-pattern words simulated for graphs of up to *n_nodes* nodes.

    Bounds the simulation matrix to ~tens of MB for huge netlists.
    """
    return max(4, min(256, (1 << 21) // max(n_nodes, 1)))


def random_words(
    n_pis: int, n_words: int, seed: int = RANDOM_SEED
) -> np.ndarray:
    """``(n_pis, n_words)`` seeded random pattern words."""
    rng = np.random.default_rng(seed)
    return rng.integers(
        0, 2**63, size=(n_pis, n_words), dtype=np.int64
    ).astype(np.uint64)


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    method: str
    counterexample: Optional[list[bool]] = None

    def __bool__(self) -> bool:
        return self.equivalent


def _check_interfaces(first: Mig, second: Mig) -> None:
    if first.n_pis != second.n_pis:
        raise EquivalenceError(
            f"PI count mismatch: {first.n_pis} vs {second.n_pis}"
        )
    if first.n_pos != second.n_pos:
        raise EquivalenceError(
            f"PO count mismatch: {first.n_pos} vs {second.n_pos}"
        )


def check_equivalence(
    first: Mig,
    second: Mig,
    n_random_words: int | None = None,
    seed: int = RANDOM_SEED,
    use_sat: bool = False,
) -> EquivalenceResult:
    """Check whether two MIGs implement the same multi-output function."""
    _check_interfaces(first, second)

    if first.n_pis <= EXHAUSTIVE_LIMIT:
        same = truth_tables(first) == truth_tables(second)
        counterexample = None
        if not same:
            counterexample = _first_mismatch(first, second)
        return EquivalenceResult(same, "exhaustive", counterexample)

    if use_sat:
        from ..sat.tseitin import check_miter  # lazy: sat depends on core

        equal, model = check_miter(first, second)
        return EquivalenceResult(equal, "sat", model)

    if n_random_words is None:
        n_random_words = random_word_count(max(first.n_nodes, second.n_nodes))
    words = random_words(first.n_pis, n_random_words, seed)
    out_first = simulate_words(first, words)
    out_second = simulate_words(second, words)
    if np.array_equal(out_first, out_second):
        return EquivalenceResult(True, "random-simulation")
    counterexample = _extract_cex(words, out_first, out_second)
    return EquivalenceResult(False, "random-simulation", counterexample)


def _first_mismatch(first: Mig, second: Mig) -> Optional[list[bool]]:
    tables_first = truth_tables(first)
    tables_second = truth_tables(second)
    n = first.n_pis
    for row, (tf, ts) in enumerate(zip(tables_first, tables_second)):
        diff = tf ^ ts
        if diff:
            pattern = (diff & -diff).bit_length() - 1
            return [bool((pattern >> i) & 1) for i in range(n)]
    return None


def _extract_cex(
    words: np.ndarray, out_first: np.ndarray, out_second: np.ndarray
) -> list[bool]:
    diff = out_first ^ out_second
    rows, cols = np.nonzero(diff)
    word = int(diff[rows[0], cols[0]])
    bit = (word & -word).bit_length() - 1
    col = cols[0]
    return [
        bool((int(words[i, col]) >> bit) & 1) for i in range(words.shape[0])
    ]


def assert_equivalent(first: Mig, second: Mig, context: str = "") -> None:
    """Raise :class:`EquivalenceError` when the two MIGs differ."""
    result = check_equivalence(first, second)
    if not result:
        prefix = f"{context}: " if context else ""
        raise EquivalenceError(
            f"{prefix}networks differ ({result.method}); "
            f"counterexample={result.counterexample}"
        )
