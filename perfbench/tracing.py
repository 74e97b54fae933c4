"""Spans around calls into the program, GC pauses, per-layer self time.

Spans are recorded by the benchmark around its own calls into
``repro``; nothing inside the program is instrumented.  A span is
``(id, name, start, end, parent id, request id)`` with ``perf_counter``
times, parent ``0`` for a root and request id ``-1`` when the span
belongs to no single request.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gc
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int
    rid: int


class Tracer:
    """In-memory span recorder; safe to call from any thread."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self.spans: list[Span] = []

    def new_id(self) -> int:
        """Reserve a span id, so children can name a still-open parent."""
        return next(self._ids)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = 0,
        rid: int = -1,
        sid: int = 0,
    ) -> int:
        """Store one finished span; returns its id."""
        sid = sid or next(self._ids)
        self.spans.append(Span(sid, name, start, end, parent, rid))
        return sid

    @contextmanager
    def span(self, name: str, parent: int = 0, rid: int = -1) -> Iterator[int]:
        """Time the ``with`` body as one span; yields the span id."""
        sid = next(self._ids)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.spans.append(
                Span(sid, name, start, time.perf_counter(), parent, rid)
            )

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


class GcMonitor:
    """Garbage-collector pause time and collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)


def _covered(
    intervals: list[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Layer(NamedTuple):
    count: int
    total_s: float
    self_s: float


def self_times(spans: Iterable[Span]) -> dict[str, Layer]:
    """Per span name: count, summed duration and summed self time.

    A span's self time is its duration minus the part of it that its
    child spans cover.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    layers: dict[str, Layer] = {}
    for span in spans:
        duration = span.end - span.start
        own = duration - _covered(
            children.get(span.sid, []), span.start, span.end
        )
        count, total, self_s = layers.get(span.name, Layer(0, 0.0, 0.0))
        layers[span.name] = Layer(count + 1, total + duration, self_s + own)
    return layers


def render_layers(layers: dict[str, Layer]) -> str:
    """The per-layer table, heaviest self time first."""
    rows = sorted(layers.items(), key=lambda item: -item[1].self_s)
    width = max([len(name) for name in layers] + [5])
    lines = [
        f"{'layer':<{width}}  {'spans':>7}  {'total s':>9}  {'self s':>9}"
        f"  {'self ms/span':>12}"
    ]
    for name, layer in rows:
        lines.append(
            f"{name:<{width}}  {layer.count:>7}  {layer.total_s:>9.4f}  "
            f"{layer.self_s:>9.4f}  {layer.self_s / layer.count * 1e3:>12.4f}"
        )
    return "\n".join(lines)
