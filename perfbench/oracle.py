"""Independent output oracle and the recorded FO3+BUF numbers.

Expected outputs come from the *original* MIG through the bit-parallel
``repro.core.simulate.simulate_words``; no wave netlist, compiled plan or
packed engine of the code under test takes part.  Each circuit's seeded
input blocks are generated once in set-up, and their expected outputs
are kept as one tuple of bools per wave.  A report's rows are compared
as tuples: that costs a quarter of converting them to a numpy array,
and the checks run on the measured load threads.  Tuples that hold
only bools drop out of the garbage collector's tracking at the first
collection, so the reference does not lengthen the GC pauses the
benchmark measures.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.mig import Mig
from repro.core.simulate import simulate_words
from repro.core.wavepipe import WaveSimulationReport

#: Clock phases of the serving default (the paper's three-phase scheme):
#: waves are injected this many steps apart.
N_PHASES = 3

#: FO3+BUF result per circuit: (components, depth, buffers, FOGs).  These
#: are the Table II / Fig. 8 quantities; a change that only claims speed
#: must leave every one of them identical.
STRUCTURE: dict[str, tuple[int, int, int, int]] = {
    "ctrl": (656, 15, 407, 75),
    "i2c": (7314, 31, 5573, 399),
    "sqrt32": (31605, 213, 27529, 893),
    "mul32": (52059, 61, 40008, 2954),
}

#: (T/A, T/P) gain of the FO3+BUF netlist over the original, per
#: technology, as ``repro.tech.evaluate_pair`` computes them.
GAINS: dict[str, dict[str, tuple[float, float]]] = {
    "ctrl": {
        "SWD": (1.342797494780793, 4.999999325866857),
        "QCA": (2.07198306280875, 3.884968242766408),
        "NML": (0.9297297297297298, 1.7432432432432434),
    },
    "i2c": {
        "SWD": (2.4666816043020385, 10.333330705854081),
        "QCA": (4.242775566707042, 7.307002364884351),
        "NML": (1.4814627994955865, 2.5514081546868432),
    },
    "sqrt32": {
        "SWD": (13.813348267769515, 70.9996425412082),
        "QCA": (28.97710807759218, 39.82015497114279),
        "NML": (7.243633375180878, 9.954154251055014),
    },
    "mul32": {
        "SWD": (4.72467235082288, 20.333250526414332),
        "QCA": (8.253042917111259, 13.98432272066074),
        "NML": (2.8064162349647357, 4.755316398134691),
    },
}

#: Relative tolerance on the recorded gains (they are float ratios of
#: exact counts; only summation order could move their last digits).
GAIN_RTOL = 1e-9


def pack_inputs(vectors: np.ndarray) -> np.ndarray:
    """``(waves, n_inputs)`` bools -> ``(n_inputs, words)`` pattern words.

    Bit ``i`` of word ``w`` is the input under wave ``64 * w + i``, the
    layout ``simulate_words`` expects.
    """
    n_waves, n_inputs = vectors.shape
    padded = np.zeros((-(-n_waves // 64) * 64, n_inputs), dtype=bool)
    padded[:n_waves] = vectors
    packed = np.packbits(
        padded.T.reshape(n_inputs, -1, 64), axis=2, bitorder="little"
    )
    return packed.view("<u8")[:, :, 0].astype(np.uint64)


def expected_outputs(mig: Mig, vectors: np.ndarray) -> np.ndarray:
    """``(waves, n_outputs)`` bools the MIG computes for *vectors*."""
    words = simulate_words(mig, pack_inputs(vectors))
    bits = np.unpackbits(
        words.astype("<u8").view(np.uint8), axis=1, bitorder="little"
    )
    return bits[:, : len(vectors)].T.astype(bool)


#: One block's expected outputs: a tuple of bools per wave.
Rows = tuple[tuple[bool, ...], ...]


class Reference:
    """Seeded input blocks of one circuit and their expected outputs.

    ``inputs[k]`` is a ``(waves, n_inputs)`` bool block, the payload the
    program receives; ``expected[k]`` holds its expected output rows.
    """

    def __init__(
        self, mig: Mig, n_blocks: int, waves: int, rng: np.random.Generator
    ) -> None:
        self.inputs = rng.integers(
            0, 2, size=(n_blocks, waves, mig.n_pis), dtype=np.uint8
        ).astype(bool)
        expected = expected_outputs(mig, self.inputs.reshape(-1, mig.n_pis))
        rows = list(map(tuple, expected.tolist()))
        self.expected: list[Rows] = [
            tuple(rows[k * waves:(k + 1) * waves]) for k in range(n_blocks)
        ]


def check_report(
    report: WaveSimulationReport,
    expected: Rows,
    depth: int,
    first_wave: int = 0,
) -> Optional[str]:
    """Why *report* is wrong for one block, or ``None`` when it is right.

    *expected* is the block's rows; *first_wave* is the block's position
    in its stream (non-zero only for session feeds), which sets the step
    at which its last wave retires.
    """
    n_waves = len(expected)
    if report.interference:
        return f"{len(report.interference)} wave interference events"
    if report.latency_steps != depth:
        return f"latency_steps {report.latency_steps}, expected {depth}"
    steps = (first_wave + n_waves - 1) * N_PHASES + depth + 1
    if report.steps_run != steps:
        return f"steps_run {report.steps_run}, expected {steps}"
    if report.waves_injected != n_waves or report.waves_retired != n_waves:
        return (
            f"{report.waves_injected} injected / {report.waves_retired} "
            f"retired waves, expected {n_waves}"
        )
    outputs = report.outputs
    if isinstance(outputs, np.ndarray):
        # an array-valued report is checked at the cost of a list-valued
        # one, so a change of report form cannot shrink the benchmark's
        # own share of the window
        outputs = outputs.tolist()
    rows = tuple(map(tuple, outputs))
    if rows == expected:
        return None
    if len(rows) != n_waves:
        return f"{len(rows)} output rows, expected {n_waves}"
    wave = next(k for k, (a, b) in enumerate(zip(rows, expected)) if a != b)
    if len(rows[wave]) != len(expected[wave]):
        return (
            f"{len(rows[wave])} outputs at wave {wave}, "
            f"expected {len(expected[wave])}"
        )
    return f"outputs differ from the MIG reference at wave {wave}"


def check_structure(
    name: str,
    counts: tuple[int, int, int, int],
    gains: dict[str, tuple[float, float]],
) -> list[str]:
    """Mismatches of one circuit's FO3+BUF result against the records.

    *gains* may cover only some technologies (the serving set-ups skip
    the technology mapping); every one it names is checked.
    """
    problems = []
    if counts != STRUCTURE[name]:
        problems.append(
            f"{name}: (components, depth, buffers, FOGs) = {counts}, "
            f"recorded {STRUCTURE[name]}"
        )
    for tech, (t_a, t_p) in gains.items():
        want_a, want_p = GAINS[name][tech]
        if not (
            np.isclose(t_a, want_a, rtol=GAIN_RTOL, atol=0)
            and np.isclose(t_p, want_p, rtol=GAIN_RTOL, atol=0)
        ):
            problems.append(
                f"{name} {tech}: T/A, T/P = {t_a!r}, {t_p!r}, recorded "
                f"{want_a!r}, {want_p!r}"
            )
    return problems
