"""Percentiles and the rule for which of them a sample count supports."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

__all__ = [
    "MIN_BEYOND",
    "median",
    "percentile",
    "tail_quantile",
    "windowed_percentile",
]

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Samples per window of :func:`windowed_percentile`: a p95 of 200 has
#: 10 beyond it.
WINDOW_SAMPLES = 200
MAX_WINDOWS = 9

#: The percentiles considered, lowest first.
QUANTILES = (0.5, 0.9, 0.95, 0.99, 0.999)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[max(0, rank - 1)]


def tail_quantile(count: int) -> Optional[float]:
    """The highest of :data:`QUANTILES` with ``MIN_BEYOND`` samples beyond.

    ``None`` when even the median lacks them. With 200 samples that is
    p95 (10 beyond it); p99 needs 1000.
    """
    best = None
    for q in QUANTILES:
        if count - math.ceil(q * count) >= MIN_BEYOND:
            best = q
    return best


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def windowed_percentile(values: Sequence[float], q: float) -> float:
    """The median, over consecutive windows of at least WINDOW_SAMPLES
    values (in the order given, i.e. time order), of each window's
    percentile ``q``.

    A burst that slows one stretch of a run — on a shared host, another
    tenant taking the CPU — moves one window, not the reported value.
    Fewer than 2 * WINDOW_SAMPLES values form a single window.
    """
    windows = max(1, min(MAX_WINDOWS, len(values) // WINDOW_SAMPLES))
    size = len(values) / windows
    return median([
        percentile(values[round(w * size):round((w + 1) * size)], q)
        for w in range(windows)
    ])
