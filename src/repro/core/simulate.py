"""Bit-parallel Boolean simulation of MIGs.

Two entry points:

* :func:`simulate_vectors` — evaluate a MIG on explicit input vectors
  (64 patterns per numpy word, arbitrarily many words).
* :func:`truth_tables` — exhaustive simulation producing one truth table per
  primary output (practical up to ~20 inputs).

These are the reference ("golden") models for the wave-pipelining transforms:
every transform in :mod:`repro.core.wavepipe` must leave them unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SimulationError
from .mig import Mig

_WORD = np.uint64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _maj_words(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (a & b) | (a & c) | (b & c)


def simulate_words(mig: Mig, pi_words: np.ndarray) -> np.ndarray:
    """Simulate with packed 64-bit pattern words.

    Parameters
    ----------
    pi_words:
        Array of shape ``(n_pis, n_words)`` of uint64; bit *i* of word *w*
        is the value of the PI in pattern ``w * 64 + i``.

    Returns
    -------
    Array of shape ``(n_pos, n_words)`` with the output patterns.
    """
    if pi_words.ndim != 2 or pi_words.shape[0] != mig.n_pis:
        raise SimulationError(
            f"expected pi_words of shape ({mig.n_pis}, n_words), "
            f"got {pi_words.shape}"
        )
    n_words = pi_words.shape[1]
    values = np.zeros((mig.n_nodes, n_words), dtype=_WORD)
    for row, pi in enumerate(mig.pis):
        values[pi] = pi_words[row]
    for node in mig.gates():
        a, b, c = mig.fanins(node)
        va = values[a >> 1] ^ (_ALL_ONES if a & 1 else _WORD(0))
        vb = values[b >> 1] ^ (_ALL_ONES if b & 1 else _WORD(0))
        vc = values[c >> 1] ^ (_ALL_ONES if c & 1 else _WORD(0))
        values[node] = _maj_words(va, vb, vc)
    out = np.zeros((mig.n_pos, n_words), dtype=_WORD)
    for row, sig in enumerate(mig.pos):
        out[row] = values[sig.node] ^ (_ALL_ONES if sig.complemented else _WORD(0))
    return out


def simulate_vectors(
    mig: Mig, vectors: Sequence[Sequence[bool]]
) -> list[list[bool]]:
    """Evaluate *mig* on a list of input vectors (one bool per PI).

    Returns one output vector (one bool per PO) per input vector.
    """
    n_patterns = len(vectors)
    if n_patterns == 0:
        return []
    n_words = (n_patterns + 63) // 64
    pi_words = np.zeros((mig.n_pis, n_words), dtype=_WORD)
    for p, vector in enumerate(vectors):
        if len(vector) != mig.n_pis:
            raise SimulationError(
                f"vector {p} has {len(vector)} bits, expected {mig.n_pis}"
            )
        word, bit = divmod(p, 64)
        for row, value in enumerate(vector):
            if value:
                pi_words[row, word] |= _WORD(1) << _WORD(bit)
    out_words = simulate_words(mig, pi_words)
    results: list[list[bool]] = []
    for p in range(n_patterns):
        word, bit = divmod(p, 64)
        results.append(
            [bool((out_words[row, word] >> _WORD(bit)) & _WORD(1))
             for row in range(mig.n_pos)]
        )
    return results


def truth_tables(mig: Mig, max_inputs: int = 20) -> list[int]:
    """Exhaustive truth table of every PO, packed as a Python int.

    Bit *p* of the returned integer is the output under the input pattern
    whose bit *i* is ``(p >> i) & 1`` for PI *i* (PI 0 is the LSB).
    """
    n = mig.n_pis
    if n > max_inputs:
        raise SimulationError(
            f"truth table for {n} inputs exceeds the max_inputs={max_inputs} cap"
        )
    n_patterns = 1 << n
    n_words = max(1, n_patterns // 64)
    out_words = simulate_words(mig, exhaustive_words(n))
    tables: list[int] = []
    mask = (1 << n_patterns) - 1
    for row in range(mig.n_pos):
        value = 0
        for w in range(n_words - 1, -1, -1):
            value = (value << 64) | int(out_words[row, w])
        tables.append(value & mask)
    return tables


def exhaustive_words(n_inputs: int) -> np.ndarray:
    """``(n_inputs, words)`` pattern words enumerating every input pattern.

    Bit *p* of the packed patterns (bit ``p % 64`` of word ``p // 64``)
    holds ``(p >> i) & 1`` for input *i*; with fewer than six inputs the
    one word repeats the ``2**n`` patterns.
    """
    n_patterns = 1 << n_inputs
    n_words = max(1, n_patterns // 64)
    pi_words = np.zeros((n_inputs, n_words), dtype=_WORD)
    for i in range(n_inputs):
        pi_words[i] = _variable_words(i, n_patterns, n_words)
    return pi_words


#: Within-word projection masks: bit p of ``_PROJECTIONS[i]`` is (p >> i) & 1.
_PROJECTIONS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)


def _variable_words(index: int, n_patterns: int, n_words: int) -> np.ndarray:
    """Packed words of projection variable *index* over all patterns."""
    words = np.zeros(n_words, dtype=_WORD)
    if index < 6:
        words[:] = _WORD(_PROJECTIONS[index])
        return words
    block = 1 << (index - 6)  # alternation period in units of words
    for w in range(n_words):
        if (w // block) & 1:
            words[w] = _ALL_ONES
    return words


def equivalent_tables(first: list[int], second: list[int]) -> bool:
    """True if two PO truth-table lists are identical."""
    return first == second
