"""Spearman and Pearson correlation of two samples, on numpy alone.

Both functions return, bit for bit, the statistic of
``scipy.stats.spearmanr`` / ``scipy.stats.pearsonr`` for two 1-D float
samples of equal length ``n >= 2`` (scipy 1.17): the same operations run
in the same order on arrays of the same layout.  Undefined results
(a constant or a NaN-holding sample) are NaN, without scipy's
``ConstantInputWarning``.  The
modelling commands use them instead of importing ``scipy.stats``, which
alone costs about a second of start-up.
"""

from __future__ import annotations

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
