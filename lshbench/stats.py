"""Order statistics shared by the benchmark and its spread command."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_TAIL_SAMPLES = 10  # samples that must lie beyond a reported percentile


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    rank = max(1, math.ceil(pct / 100.0 * len(values)))
    return sorted(values)[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie above the nearest-rank percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile, refused unless MIN_TAIL_SAMPLES lie beyond
    it: with fewer, the figure is no tail."""
    beyond = samples_beyond(len(values), pct)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(f"p{pct:g} of {len(values)} samples has {beyond} beyond "
                         f"it; need {MIN_TAIL_SAMPLES}")
    return nearest_rank(values, pct)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")
