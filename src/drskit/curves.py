"""Rate-quality samples and shape-preserving curves, on numpy alone.

:class:`RDPoint` and :class:`RDCurve` hold one resolution's (bitrate,
quality) samples, :class:`ScoredPoint` one sample carrying both a
subjective label and an objective metric score, and :class:`PchipCurve`
the monotone piecewise-cubic interpolant (:func:`fit_pchip`) that
Bjontegaard-style integrals are computed on.  The fitted logistic and
the cross-over search live in :mod:`drskit.rdmodel`; the switching path
uses only this module, apart from the plotting fit in ``rd_fit.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, TooFewPoints

__all__ = ["RDPoint", "RDCurve", "ScoredPoint", "PchipCurve", "fit_pchip", "pchip_from_arrays"]


@dataclass(frozen=True)
class RDPoint:
    """One (bitrate, quality) sample; bitrate in kbps, quality on any
    higher-is-better scale (JOD or a metric score)."""

    bitrate_kbps: float
    quality: float

    def __post_init__(self):
        if not (math.isfinite(self.bitrate_kbps) and self.bitrate_kbps > 0):
            raise NonFinite(f"bitrate_kbps must be finite and > 0, got {self.bitrate_kbps!r}")
        if not math.isfinite(self.quality):
            raise NonFinite(f"quality must be finite, got {self.quality!r}")


@dataclass(frozen=True)
class RDCurve:
    """Samples of one resolution's rate-quality curve, bitrate-ascending."""

    resolution: tuple[int, int]
    points: tuple[RDPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "resolution", (int(self.resolution[0]), int(self.resolution[1])))
        if len(self.points) < 2:
            raise TooFewPoints(f"an RD curve needs >= 2 points, got {len(self.points)}")
        rates = [p.bitrate_kbps for p in self.points]
        for lo, hi in zip(rates, rates[1:]):
            if not lo < hi:
                raise NonFinite(f"bitrates must be strictly increasing, got {lo} then {hi}")

    @classmethod
    def from_samples(cls, resolution, samples) -> "RDCurve":
        """Build a curve from unordered (bitrate, quality) pairs."""
        pts = sorted((RDPoint(float(b), float(q)) for b, q in samples), key=lambda p: p.bitrate_kbps)
        return cls(tuple(resolution), tuple(pts))

    @property
    def bitrates(self) -> np.ndarray:
        return np.array([p.bitrate_kbps for p in self.points], dtype=float)

    @property
    def qualities(self) -> np.ndarray:
        return np.array([p.quality for p in self.points], dtype=float)

    @property
    def r_min(self) -> float:
        return self.points[0].bitrate_kbps

    @property
    def label(self) -> str:
        return f"{self.resolution[0]}x{self.resolution[1]}"


@dataclass(frozen=True)
class ScoredPoint:
    """One (content, resolution, bitrate) record with both a subjective
    label and an objective metric score."""

    content_id: str
    resolution: tuple[int, int]
    bitrate_kbps: float
    subjective_jod: float
    objective_score: float


@dataclass(frozen=True, eq=False)
class PchipCurve:
    """Monotone piecewise-cubic Hermite interpolant through the knots.

    ``coeffs[k]`` holds ``(c0, c1, c2, c3)`` of the cubic in
    ``t = x - knots_x[k]`` on interval ``k``.  Evaluation outside the knot
    range extrapolates with the boundary polynomials.
    """

    knots_x: np.ndarray
    knots_y: np.ndarray
    slopes: np.ndarray
    coeffs: np.ndarray

    def evaluate(self, x):
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        idx = np.clip(np.searchsorted(self.knots_x, xq, side="right") - 1, 0, len(self.knots_x) - 2)
        t = xq - self.knots_x[idx]
        c = self.coeffs[idx]
        y = c[:, 0] + t * (c[:, 1] + t * (c[:, 2] + t * c[:, 3]))
        return float(y[0]) if scalar else y

    def integrate(self, a: float, b: float) -> float:
        """Exact definite integral (each cubic piece integrated in closed
        form); ``a > b`` flips the sign."""
        sign = 1.0
        if a > b:
            a, b = b, a
            sign = -1.0
        xs = self.knots_x
        n = len(xs)
        total = 0.0
        # Split [a, b] at interior knots; each chunk lies in one piece.
        cuts = [a] + [float(k) for k in xs if a < k < b] + [b]
        for lo, hi in zip(cuts, cuts[1:]):
            k = int(np.clip(np.searchsorted(xs, lo, side="right") - 1, 0, n - 2))
            c0, c1, c2, c3 = self.coeffs[k]
            t0 = lo - xs[k]
            t1 = hi - xs[k]

            def antideriv(t):
                return t * (c0 + t * (c1 / 2.0 + t * (c2 / 3.0 + t * c3 / 4.0)))

            total += antideriv(t1) - antideriv(t0)
        return sign * total

    __call__ = evaluate


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson shape-preserving derivative estimates."""
    n = len(x)
    h = np.diff(x)
    d = np.diff(y) / h
    if n == 2:
        return np.array([d[0], d[0]])

    m = np.zeros(n)
    # Interior: weighted harmonic mean when the neighbouring secants share
    # a sign, zero otherwise (flat spot or local extremum).
    for k in range(1, n - 1):
        if d[k - 1] == 0.0 or d[k] == 0.0 or (d[k - 1] > 0) != (d[k] > 0):
            m[k] = 0.0
        else:
            w1 = 2.0 * h[k] + h[k - 1]
            w2 = h[k] + 2.0 * h[k - 1]
            m[k] = (w1 + w2) / (w1 / d[k - 1] + w2 / d[k])

    m[0] = _pchip_edge(h[0], h[1], d[0], d[1])
    m[n - 1] = _pchip_edge(h[-1], h[-2], d[-1], d[-2])
    return m


def _pchip_edge(h0: float, h1: float, d0: float, d1: float) -> float:
    # Three-point one-sided estimate, clamped so the end interval cannot
    # overshoot the local data.
    m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if np.sign(m) != np.sign(d0):
        return 0.0
    if np.sign(d0) != np.sign(d1) and abs(m) > 3.0 * abs(d0):
        return 3.0 * d0
    return m


def fit_pchip(curve: RDCurve) -> PchipCurve:
    """Shape-preserving cubic interpolant of the curve's samples."""
    return pchip_from_arrays(curve.bitrates, curve.qualities)


def pchip_from_arrays(x: np.ndarray, y: np.ndarray) -> PchipCurve:
    """Interpolant over raw arrays (x strictly increasing)."""
    x = np.array(x, dtype=float)  # private copies: the knots get frozen
    y = np.array(y, dtype=float)
    if x.size < 2:
        raise TooFewPoints("interpolation needs >= 2 points")
    if not np.all(np.diff(x) > 0):
        raise NonFinite("interpolation abscissae must be strictly increasing")
    m = _pchip_slopes(x, y)
    h = np.diff(x)
    d = np.diff(y) / h
    c0 = y[:-1]
    c1 = m[:-1]
    c2 = (3.0 * d - 2.0 * m[:-1] - m[1:]) / h
    c3 = (m[:-1] + m[1:] - 2.0 * d) / (h * h)
    coeffs = np.column_stack([c0, c1, c2, c3])
    for arr in (x, y, m, coeffs):
        arr.flags.writeable = False
    return PchipCurve(knots_x=x, knots_y=y, slopes=m, coeffs=coeffs)
