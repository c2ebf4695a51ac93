"""Order statistics behind every reported timing."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: A tail percentile is only reported with at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, n)``.  With ``n`` sorted samples the
    ``(n - beyond)``-th smallest has exactly ``beyond`` samples after it,
    so its percentile is ``100 * (n - beyond) / n``.  A sample of
    ``beyond`` values or fewer has no such percentile: ``ValueError``.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"no percentile has {beyond} of {n} samples beyond it")
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def trimmed_mean(values: Sequence[float], share: float = 0.1) -> float:
    """Mean of a non-empty sample without its ``share`` lowest and highest values.

    Unlike the median it does not jump between the modes of a sample
    taken from two speeds of a machine, and unlike the plain mean a few
    outliers do not move it.
    """
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("trimmed mean of an empty sample")
    cut = int(share * len(ordered))
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept)


def basket_mean(samples: Dict[int, List[float]]) -> float:
    """Mean over a basket of inputs of each input's median sample.

    Every input weighs the same however often it was measured.
    """
    if not samples:
        raise ValueError("basket mean of an empty basket")
    return sum(median(values) for values in samples.values()) / len(samples)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
