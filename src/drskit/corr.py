"""Spearman and Pearson correlation of two samples, and numpy's medians
and percentiles, on numpy alone.

``spearman`` and ``pearson`` return, bit for bit, the statistic of
``scipy.stats.spearmanr`` / ``scipy.stats.pearsonr`` for two 1-D float
samples of equal length ``n >= 2`` (scipy 1.17): the same operations run
in the same order on arrays of the same layout.  Undefined results
(a constant or a NaN-holding sample) are NaN, without scipy's
``ConstantInputWarning``.  The modelling commands use them instead of
importing ``scipy.stats``, which alone costs about a second of start-up.

``_row_medians`` and ``_percentile`` return ``np.median``'s and
``np.percentile``'s values bit for bit without calling them: both load
``numpy.ma`` (about 10 ms) to check for masked input.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["average_ranks", "pearson", "spearman"]


def _samples(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ValueError("correlation samples must be 1-D, of equal length and hold at least 2 values")
    return x, y


def _constant(a: np.ndarray) -> bool:
    return bool((a == a[0]).all())


def average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of ``a``, ties sharing the mean of their ranks.

    Every rank is an integer or half-integer below 2**52, so it is exact
    in float64 whatever the algorithm.  NaNs, sorted last, tie as one
    group, as in ``np.unique``."""
    order = a.argsort()
    s = a[order]
    # Where each run of equal sorted values starts; the run from start to
    # end holds ranks start + 1 ... end, whose mean is (start + end + 1) / 2.
    new = np.empty(a.size, dtype=bool)
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    new[1:] &= ~np.isnan(s[:-1])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], a.size)
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation: the Pearson correlation of the average
    ranks, computed by ``np.corrcoef`` as scipy does."""
    x, y = _samples(x, y)
    if _constant(x) or _constant(y) or np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    return float(np.corrcoef(np.vstack((average_ranks(x), average_ranks(y))))[1, 0])


def pearson(x, y) -> float:
    """Pearson linear correlation.  Each centred sample is rescaled by its
    largest magnitude before its norm is taken, so values near the
    float64 limits neither overflow nor underflow."""
    x, y = _samples(x, y)
    if _constant(x) or _constant(y):
        return float("nan")
    with np.errstate(invalid="ignore", divide="ignore"):
        xm = x - np.mean(x)
        ym = y - np.mean(y)
        xmax = np.max(np.abs(xm))
        ymax = np.max(np.abs(ym))
        normxm = xmax * np.linalg.vector_norm(xm / xmax)
        normym = ymax * np.linalg.vector_norm(ym / ymax)
        r = np.clip(np.vecdot(xm / normxm, ym / normym), -1.0, 1.0)
    return float(np.round(r) if x.size == 2 else r)


def _row_medians(M: np.ndarray) -> np.ndarray:
    """``np.median`` of each row of M, bit for bit: the same partition of
    the row (which fixes whether -0.0 or 0.0 is picked where they tie),
    the same mean of its middle values (a sum that starts from 0.0), and
    NaN for a row holding NaN."""
    width = M.shape[1]
    half = width // 2
    kth = [half - 1, half, -1] if width % 2 == 0 else [half, -1]
    part = np.partition(M, kth, axis=1)
    med = (0.0 + part[:, half - 1] + part[:, half]) / 2 if width % 2 == 0 else 0.0 + part[:, half]
    last = part[:, -1]  # NaN sorts last
    np.copyto(med, last, where=np.isnan(last))
    return med


def _percentile(a: np.ndarray, p: int) -> float:
    """``np.percentile(a, p)`` of a non-empty 1-D float array, bit for bit.

    Like numpy's linear method, it partitions a copy of ``a`` at the two
    neighbours of the virtual index ``(n - 1) * p / 100`` and at its ends
    (each percentile needs its own partition: one shared by several kth
    sets may put -0.0 where numpy has 0.0), then interpolates from the
    nearer neighbour.  A sample holding NaN gives NaN."""
    n = a.size
    index = (n - 1) * (p / 100)
    below = math.floor(index)
    if index >= n - 1:
        below = above = -1
    else:
        above = below + 1
    part = np.partition(a, sorted({0, -1, below, above}))
    if math.isnan(part[-1]):
        return float(part[-1])
    lo, hi, t = float(part[below]), float(part[above]), index - below
    diff = hi - lo
    return hi - diff * (1 - t) if t >= 0.5 else lo + diff * t
