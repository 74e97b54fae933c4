"""Percentiles and failure accounting shared by every workload."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (0 < q <= 100) of *values*.

    The smallest sample with at least ``q`` percent of the samples at or
    below it, so the result is always an observed value.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(n_samples: int, q: float) -> int:
    """How many of *n_samples* lie above the nearest-rank *q*-th percentile."""
    return n_samples - math.ceil(q / 100 * n_samples)


def error_rate(attempted: int, failed: int) -> float:
    """Operations failed, refused or timed out per operation attempted."""
    if attempted < 1:
        raise ValueError("error rate of no attempted operations")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted
