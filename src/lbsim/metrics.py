"""Fairness indices, reward computation, and timed-channel reductions.

A feature channel is a sequence of (value, timestamp) samples.  Each channel
is reduced to five scalars: average, 90th percentile (linear interpolation),
population standard deviation, discounted average and weighted discounted
average.  Discount weights are ``0.9 ** (now - t_i)`` with exponents in
seconds.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

DISCOUNT_BASE = 0.9
TINY = sys.float_info.min  # the least normal float


@dataclass(frozen=True)
class TimedSample:
    value: float
    timestamp: float


class ChannelStats(NamedTuple):
    """Five-scalar summary of a timed sample channel, in observation order."""

    average: float = 0.0
    p90: float = 0.0
    std: float = 0.0
    discounted_average: float = 0.0
    weighted_discounted_average: float = 0.0


def p90(values: np.ndarray) -> float:
    """``np.percentile(values, 90)`` bit for bit, for finite samples.

    The same "linear" rule (index (n-1)*0.9 and numpy's two-sided lerp) on
    the same partition, without the generic quantile machinery, which costs
    several times the partition itself on the short channels observe reads.
    """
    n = values.size
    if n == 1:
        return float(values[0])
    pos = (n - 1) * 0.9
    i = int(pos)
    g = pos - i
    # partition at the positions numpy's percentile does: first, neighbours, last
    part = np.partition(values, sorted({0, i, i + 1, n - 1}))
    a, b = part[i], part[i + 1]
    d = b - a
    return float(b - d * (1.0 - g) if g >= 0.5 else a + d * g)


def reduce_arrays(values: np.ndarray, times: np.ndarray, now: float) -> ChannelStats:
    """Reduce parallel value/timestamp arrays to ChannelStats.

    The mean is computed once and reused for the standard deviation; both
    run the ufunc sequence of ``mean``/``std``, so they match them bit for bit.
    """
    n = values.size
    if n == 0:
        return ChannelStats()
    if n != times.size:
        raise ValueError("values and timestamps must have equal length")
    mean = values.sum() / n
    dev = np.square(values - mean)
    weights = DISCOUNT_BASE ** (now - times)
    weighted = float((weights * values).sum())
    return ChannelStats(
        average=float(mean),
        p90=p90(values),
        std=float(np.sqrt(dev.sum() / n)),
        discounted_average=weighted / n,
        weighted_discounted_average=weighted / float(weights.sum()),
    )


def reduce(samples: Iterable[TimedSample | tuple[float, float]], now: float) -> ChannelStats:
    """Reduce a sample channel to its five-scalar summary.

    Accepts TimedSample instances or plain (value, timestamp) pairs.  All
    timestamps must be <= ``now``; an empty channel reduces to all zeros.
    """
    values = []
    times = []
    for sample in samples:
        if isinstance(sample, TimedSample):
            v, t = sample.value, sample.timestamp
        else:
            v, t = sample
        if t > now:
            raise ValueError(f"sample timestamp {t} is after now={now}")
        values.append(v)
        times.append(t)
    return reduce_arrays(np.asarray(values, dtype=float), np.asarray(times, dtype=float), now)


def _as_checked(x: Iterable[float]) -> list:
    xs = [float(v) for v in x]
    if not xs:
        raise ValueError("fairness index of an empty vector is undefined")
    for v in xs:
        if not 0.0 <= v < math.inf:
            raise ValueError(f"fairness indices require finite nonnegative inputs, got {v}")
    return xs


def _add_reduce(xs: list) -> float:
    """``np.add.reduce`` of a contiguous float64 vector, bit for bit, in Python floats.

    Below 8 terms numpy adds them in order to add's identity 0.0.  From 8 up,
    the identity plus numpy's pairwise sum: 8 interleaved accumulators up to
    128 terms, then halves split at a multiple of 8.  Builtin ``sum`` is no
    substitute: from Python 3.12 on it compensates rounding errors.
    """
    n = len(xs)
    if n < 8:
        total = 0.0
        for v in xs:
            total += v
        return total
    return 0.0 + _pairwise(xs, 0, n)


def _pairwise(xs: list, lo: int, hi: int) -> float:
    n = hi - lo
    if n > 128:
        half = lo + n // 2 - n // 2 % 8
        return _pairwise(xs, lo, half) + _pairwise(xs, half, hi)
    r = xs[lo:lo + 8]
    stop = hi - n % 8
    for i in range(lo + 8, stop, 8):  # eight accumulators, one per lane
        r = [a + b for a, b in zip(r, xs[i:i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in xs[stop:hi]:
        total += v
    return total


def jain(x: Sequence[float]) -> float:
    """Jain's fairness index: mean(x)^2 / mean(x^2), in (0, 1].

    An all-zero vector returns 1 by convention (perfectly even).  The value
    is numpy's ``m * m / mean(x * x)`` with ``m = mean(x)``, bit for bit.
    """
    xs = _as_checked(x)
    n = len(xs)
    total = _add_reduce(xs)
    if total == 0.0:  # the entries are nonnegative, so all are zero
        return 1.0
    sq = _add_reduce([v * v for v in xs]) / n
    if sq < TINY:  # the squares underflow; the index is scale-free
        top = max(xs)
        xs = [v / top for v in xs]
        total, sq = _add_reduce(xs), _add_reduce([v * v for v in xs]) / n
    m = total / n
    return m * m / sq


def g_fairness(x: Sequence[float]) -> float:
    """Product of sin(pi * x_j / (2 max x)); all-zero input returns 1."""
    xs = _as_checked(x)
    top = max(xs)
    if top == 0.0:
        return 1.0
    # numpy's sin, not math.sin: the two can differ in the last bit
    return float(np.prod(np.sin(np.pi * np.asarray(xs) / (2.0 * top))))


def bossaer(x: Sequence[float]) -> float:
    """Product of x_j / max(x); all-zero input returns 1.

    The product runs in order from 1.0, as numpy's ``multiply.reduce`` does.
    """
    xs = _as_checked(x)
    top = max(xs)
    if top == 0.0:
        return 1.0
    prod = 1.0
    for v in xs:
        prod *= v / top
    return prod


FAIRNESS_INDICES = {"jain": jain, "g": g_fairness, "bossaer": bossaer}


def reward(w_tilde: Sequence[float], index: str = "jain") -> float:
    """Fairness-based reward over per-server discounted-average completion times.

    F(w) - 1 is <= 0 and maximal at perfect fairness, so a return-maximizing
    learner is pushed toward even completion times.
    """
    try:
        fn = FAIRNESS_INDICES[index]
    except KeyError:
        raise ValueError(f"unknown fairness index {index!r}") from None
    return fn(w_tilde) - 1.0
