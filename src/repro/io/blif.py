"""BLIF (Berkeley Logic Interchange Format) reading and writing.

Writing maps every majority gate onto a ``.names`` block with the 3-input
majority cover; complemented edges fold into the covers.  Reading accepts
combinational single-output ``.names`` blocks of up to a configurable input
count, converts each cover into AND/OR form, and lowers the result into a
MIG — so netlists written by ABC-style tools round-trip into this library.
"""

from __future__ import annotations

import heapq
from pathlib import Path

from ..core.mig import Mig
from ..core.signal import FALSE, TRUE, Signal
from ..errors import ParseError

#: cover of MAJ(a, b, c) with all inputs regular
_MAJ_COVER = ("11-", "1-1", "-11")


def write_blif(mig: Mig, path: str | Path) -> Path:
    """Serialize *mig* as BLIF."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_blif(mig))
    return path


def dumps_blif(mig: Mig) -> str:
    """BLIF text of *mig* (one .names per gate plus output bindings)."""
    lines = [f".model {mig.name or 'mig'}"]
    names: dict[int, str] = {}
    for node, name in zip(mig.pis, mig.pi_names):
        names[node] = name
    lines.append(".inputs " + " ".join(mig.pi_names))
    lines.append(".outputs " + " ".join(mig.po_names))

    uses_const = {0: False, 1: False}

    def ref(literal: int) -> tuple[str, bool]:
        node = literal >> 1
        if node == 0:
            uses_const[literal & 1] = True
            return ("const1" if literal & 1 else "const0"), False
        return names[node], bool(literal & 1)

    body: list[str] = []
    for gate in mig.gates():
        names[gate] = f"n{gate}"
        refs = [ref(lit) for lit in mig.fanins(gate)]
        body.append(
            ".names " + " ".join(r[0] for r in refs) + f" n{gate}"
        )
        for row in _MAJ_COVER:
            cells = []
            for (name, complemented), bit in zip(refs, row):
                if bit == "-":
                    cells.append("-")
                else:
                    cells.append("0" if complemented else "1")
            body.append("".join(cells) + " 1")
    for sig, po_name in zip(mig.pos, mig.po_names):
        source, complemented = ref(int(sig))
        body.append(f".names {source} {po_name}")
        body.append(("0" if complemented else "1") + " 1")

    if uses_const[0]:
        body.insert(0, ".names const0")  # empty cover = constant 0
    if uses_const[1]:
        body.insert(0, ".names const1\n1")  # tautology = constant 1
    lines.extend(body)
    lines.append(".end")
    return "\n".join(lines) + "\n"


def read_blif(path: str | Path, max_cover_inputs: int = 10) -> Mig:
    """Parse a combinational BLIF file into a MIG."""
    return loads_blif(Path(path).read_text(), max_cover_inputs)


def loads_blif(text: str, max_cover_inputs: int = 10) -> Mig:
    """Parse BLIF text into a MIG (combinational subset)."""
    model = "blif"
    inputs: list[str] = []
    outputs: list[str] = []
    covers: list[tuple[list[str], str, list[tuple[str, str]]]] = []

    current: tuple[list[str], str, list[tuple[str, str]]] | None = None
    logical_lines = _join_continuations(text)
    for line in logical_lines:
        if line.startswith(".model"):
            parts = line.split(maxsplit=1)
            model = parts[1] if len(parts) > 1 else model
        elif line.startswith(".inputs"):
            inputs.extend(line.split()[1:])
        elif line.startswith(".outputs"):
            outputs.extend(line.split()[1:])
        elif line.startswith(".names"):
            tokens = line.split()[1:]
            if not tokens:
                raise ParseError(".names without signals")
            current = (tokens[:-1], tokens[-1], [])
            covers.append(current)
        elif line.startswith(".latch"):
            raise ParseError("sequential BLIF (.latch) is not supported")
        elif line.startswith(".end"):
            current = None
        elif line.startswith("."):
            raise ParseError(f"unsupported BLIF construct: {line.split()[0]}")
        else:
            if current is None:
                raise ParseError(f"cover row outside .names: {line!r}")
            parts = line.split()
            if len(parts) == 1 and not current[0]:
                current[2].append(("", parts[0]))
            elif len(parts) == 2:
                current[2].append((parts[0], parts[1]))
            else:
                raise ParseError(f"malformed cover row: {line!r}")

    mig = Mig(model)
    signals: dict[str, Signal] = {}
    for name in inputs:
        signals[name] = mig.add_pi(name)
    _lower_blocks(mig, covers, signals, max_cover_inputs)

    for name in outputs:
        if name not in signals:
            raise ParseError(f"output {name!r} is never defined")
        mig.add_po(signals[name], name)
    return mig


def _lower_blocks(
    mig: Mig,
    covers: list[tuple[list[str], str, list[tuple[str, str]]]],
    signals: dict[str, Signal],
    max_cover_inputs: int,
) -> None:
    """Lower every ``.names`` block once its fan-ins are defined.

    Blocks are lowered in *sweep order*: the order of repeated file-order
    sweeps that each lower every block whose fan-ins are already
    defined, which keeps every MIG node-for-node what such sweeps build.
    A block's sweep is the largest over its fan-ins of the defining
    block's sweep, plus one where that block comes later in the file
    (a name's first-lowered definition counts; inputs are defined before
    sweep 1).  One pass computes it: a block enters a heap keyed by
    (sweep, file position) when its last missing fan-in is defined, so
    the reader takes O(n log n) time in the number of blocks where the
    sweeps took O(n^2).  Blocks never reached — undefined names or a
    cycle — raise :class:`~repro.errors.ParseError`.
    """
    consumers: dict[str, list[int]] = {}
    missing = [0] * len(covers)
    for index, (fanin_names, _, _) in enumerate(covers):
        for name in dict.fromkeys(fanin_names):
            if name not in signals:
                missing[index] += 1
                consumers.setdefault(name, []).append(index)
    sweep = [1] * len(covers)
    ready = [(1, index) for index in range(len(covers)) if not missing[index]]
    lowered = [False] * len(covers)
    while ready:
        block_sweep, index = heapq.heappop(ready)
        fanin_names, output_name, rows = covers[index]
        first = output_name not in signals
        signals[output_name] = _lower_cover(
            mig, [signals[n] for n in fanin_names], rows, max_cover_inputs,
        )
        lowered[index] = True
        if not first:
            continue
        for consumer in consumers.pop(output_name, ()):
            # a later block reads it in this sweep, an earlier one next
            needed = block_sweep + (consumer < index)
            sweep[consumer] = max(sweep[consumer], needed)
            missing[consumer] -= 1
            if not missing[consumer]:
                heapq.heappush(ready, (sweep[consumer], consumer))
    pending = [covers[i] for i in range(len(covers)) if not lowered[i]]
    if pending:
        names = ", ".join(block[1] for block in pending[:5])
        raise ParseError(f"unresolved .names blocks: {names}")


def _join_continuations(text: str) -> list[str]:
    lines: list[str] = []
    buffer = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.endswith("\\"):
            buffer += line[:-1] + " "
            continue
        lines.append((buffer + line).strip())
        buffer = ""
    if buffer.strip():
        lines.append(buffer.strip())
    return lines


def _lower_cover(
    mig: Mig,
    fanins: list[Signal],
    rows: list[tuple[str, str]],
    max_cover_inputs: int,
) -> Signal:
    """Lower one single-output cover into MIG logic (SOP form)."""
    if len(fanins) > max_cover_inputs:
        raise ParseError(
            f"cover with {len(fanins)} inputs exceeds the "
            f"{max_cover_inputs}-input limit"
        )
    if not rows:  # empty cover: constant 0
        return FALSE
    if not fanins:  # constant block: "1" row means constant 1
        return TRUE if rows[0][1] == "1" else FALSE

    on_set = [row for row in rows if row[1] == "1"]
    off_set = [row for row in rows if row[1] == "0"]
    if on_set and off_set:
        raise ParseError("mixed on/off covers are not supported")
    polarity_one = bool(on_set) or not off_set
    use_rows = on_set if polarity_one else off_set

    terms: list[Signal] = []
    for pattern, _ in use_rows:
        if len(pattern) != len(fanins):
            raise ParseError(
                f"cover row {pattern!r} width does not match fan-ins"
            )
        literals = []
        for sig, bit in zip(fanins, pattern):
            if bit == "1":
                literals.append(sig)
            elif bit == "0":
                literals.append(~sig)
            elif bit != "-":
                raise ParseError(f"bad cover character {bit!r}")
        term = TRUE
        for literal in literals:
            term = mig.add_and(term, literal)
        terms.append(term)
    result = FALSE
    for term in terms:
        result = mig.add_or(result, term)
    return result if polarity_one else ~result
