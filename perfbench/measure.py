"""Statistics and span arithmetic shared by the benchmark's reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: A tail percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


class InsufficientSamples(ValueError):
    pass


def tail_rank(count: int, percent: int) -> int:
    """1-based nearest rank of the *percent*-th percentile of *count*
    samples (integer arithmetic, so 95 % of 200 is exactly rank 190)."""
    return -(-percent * count // 100)


def min_samples(percent: int, beyond: int = SAMPLES_BEYOND) -> int:
    """Fewest samples that leave *beyond* samples above the percentile."""
    count = 1
    while count - tail_rank(count, percent) < beyond:
        count += 1
    return count


def harrell_davis(values: Sequence[float], fraction: float) -> float:
    """Harrell-Davis quantile estimate: a beta-weighted average of the
    order statistics around the quantile.

    Used for every reported percentile because client latencies under the
    keep-alive stall fall on the kernel's 4 ms timer ticks; a single order
    statistic jumps a whole tick between runs, this estimate does not.
    """
    from scipy.special import betainc

    ordered = sorted(values)
    count = len(ordered)
    a, b = fraction * (count + 1), (1 - fraction) * (count + 1)
    edges = betainc(a, b, [index / count for index in range(count + 1)])
    return float(sum(weight * value for weight, value in zip(edges[1:] - edges[:-1], ordered)))


def tail_percentile(values: Sequence[float], percent: int, beyond: int = SAMPLES_BEYOND) -> float:
    """The *percent*-th percentile (Harrell-Davis); refuses when fewer than
    *beyond* samples lie above its nearest rank."""
    count = len(values)
    rank = tail_rank(count, percent)
    if count == 0 or count - rank < beyond:
        raise InsufficientSamples(
            f"p{percent} of {count} samples has {count - rank} beyond it, needs {beyond}"
        )
    return harrell_davis(values, percent / 100)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[int]


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span, seconds in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + seconds
    return totals


def unaccounted(wall_s: float, self_seconds: Dict[str, float]) -> float:
    """Replay wall time no span accounts for."""
    return wall_s - sum(self_seconds.values())
