"""The benchmark's own arithmetic: percentiles and medians.

Percentiles use the nearest-rank definition, so every reported value is
one that was measured.  A percentile is reported only when at least
:data:`MIN_BEYOND` samples lie beyond it; with fewer, the tail is a
handful of outliers and the figure would not repeat.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def min_samples(q: float) -> int:
    """The fewest samples whose ``q``-th percentile :func:`percentile`
    reports (1000 for the p99)."""
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q < 100).

    Raises :class:`InsufficientSamples` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(samples)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * n)) - 1]


def median(samples: Sequence[float]) -> float:
    """The median of a small set of repeated measurements (lower middle
    value, so the result is one that was measured)."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    return ordered[(len(ordered) - 1) // 2]


def windows(samples: Sequence, size: int) -> list:
    """Consecutive, complete windows of ``size`` samples (a trailing
    partial window is dropped)."""
    if size < 1:
        raise ValueError("window size must be >= 1")
    return [samples[i:i + size] for i in range(0, len(samples) - size + 1, size)]


def windowed_rate(start: float, ends: Sequence[float], size: int) -> float:
    """Median completion rate over windows of ``size`` consecutive
    completions (``ends`` sorted, the first window measured from
    ``start``).

    A neighbour's burst on a shared host slows a few windows; the median
    window is the loop's rate when nothing else interferes.
    """
    bounds = [start] + [window[-1] for window in windows(ends, size)]
    if len(bounds) < 2:
        raise InsufficientSamples(f"{len(ends)} completions hold no window of {size}")
    return median([size / (b - a) for a, b in zip(bounds, bounds[1:])])


def windowed_median(samples: Sequence[float], size: int) -> float:
    """Median over windows of ``size`` consecutive samples of each
    window's median."""
    parts = windows(samples, size)
    if not parts:
        raise InsufficientSamples(f"{len(samples)} samples hold no window of {size}")
    return median([median(part) for part in parts])


def windowed_percentile(samples: Sequence[float], q: float, size: int) -> float:
    """Median over windows of ``size`` consecutive samples of each
    window's ``q``-th percentile; every window must hold
    :data:`MIN_BEYOND` samples beyond it."""
    parts = windows(samples, size)
    if not parts:
        raise InsufficientSamples(f"{len(samples)} samples hold no window of {size}")
    return median([percentile(part, q) for part in parts])
