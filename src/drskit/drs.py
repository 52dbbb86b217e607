"""Per-segment resolution switching, packager filtering, and Bjontegaard
deltas.

``simulate`` replays a quality log against a ladder: per decision window
and rung it keeps the resolution with the best (window-summed) score,
ties going to the lower resolution.  ``filter_manifest`` is the packager
side of the same rule on one segment's metadata.  ``bd_rate`` computes
the classic rate/quality deltas on log10-bitrate PCHIP interpolants with
exact piecewise integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corr import _percentile, _row_medians
from .curves import RDCurve, pchip_from_arrays
from .errors import (
    IncompleteLog,
    MismatchedTraces,
    MissingRung,
    NonMonotonicCurve,
    NoOverlap,
    TooFewPoints,
)
from .io import _res_key
from .ladder import LadderSolution, QualityLog, Resolution

__all__ = [
    "DrsTrace",
    "ManifestEntry",
    "SegmentManifest",
    "BdResult",
    "GainStats",
    "simulate",
    "filter_manifest",
    "bd_rate",
    "gain_distribution",
    "trace_rd_points",
]


@dataclass(frozen=True, eq=False)
class DrsTrace:
    """Chosen resolution and score per (GOP, rung), plus per-rung means.

    ``chosen_res[i, j]`` indexes ``resolutions``; ``chosen_score[i, j]``
    is the winning score.  ``flips[j]`` counts decision changes between
    consecutive windows at rung j (a switching-cost diagnostic).
    """

    rungs: tuple[float, ...]
    resolutions: tuple[Resolution, ...]
    gop_ids: tuple[tuple[str, int], ...]
    granularity_gops: int
    chosen_res: np.ndarray  # (n_gops, n_rungs) int indices
    chosen_score: np.ndarray  # (n_gops, n_rungs)
    per_rung_mean: np.ndarray  # (n_rungs,)
    flips: np.ndarray  # (n_rungs,) int


def _ladder_map(ladder, log: QualityLog) -> dict[float, list[Resolution]]:
    if isinstance(ladder, LadderSolution):
        raw = ladder.rung_map()
    elif isinstance(ladder, dict):
        raw = {float(b): list(rs) for b, rs in ladder.items()}
    else:
        raw = {}
        for b, rs in ladder:
            raw.setdefault(float(b), []).extend(rs if isinstance(rs, list) else [rs])
    out: dict[float, list[Resolution]] = {}
    for b in log.rungs:
        if b not in raw or not raw[b]:
            raise MissingRung(f"ladder has no representation at rung {b}")
        out[b] = sorted(((int(r[0]), int(r[1])) for r in raw[b]), key=_res_key)
    return out


def simulate(log: QualityLog, ladder, granularity_gops: int = 1) -> DrsTrace:
    """Replay switching decisions over the log.

    For every window of ``granularity_gops`` GOPs and every rung, the
    resolution with the highest window-summed score among the rung's
    ladder entries is selected for all GOPs of the window.  A window
    wider than the log is one window over the whole log.
    """
    if granularity_gops < 1:
        raise IncompleteLog(f"granularity must be >= 1 GOP, got {granularity_gops}")
    rung_map = _ladder_map(ladder, log)
    n = log.n_gops
    n_rungs = len(log.rungs)
    chosen_res = np.zeros((n, n_rungs), dtype=np.int64)
    chosen_score = np.zeros((n, n_rungs))
    flips = np.zeros(n_rungs, dtype=np.int64)

    g = min(granularity_gops, n)
    full = n - n % g  # GOPs in whole windows
    rows = np.arange(n)
    for j, b in enumerate(log.rungs):
        res_indices = np.array([log.res_index(r) for r in rung_map[b]])
        cols = log.scores[:, j, res_indices]  # (n, m) in ascending-resolution order
        if np.isnan(cols).any():
            raise IncompleteLog(f"log is missing scores for rung {b}")
        # Window sums, each added up exactly as cols[w0:w1].sum(axis=0) would.
        sums = cols[:full].reshape(full // g, g, len(res_indices)).sum(axis=1)
        if full < n:
            sums = np.vstack([sums, cols[full:].sum(axis=0)])
        # argmax returns the first maximum: ties pick the lower resolution.
        picks = np.argmax(sums, axis=1)
        k = np.repeat(picks, g)[:n]
        chosen_res[:, j] = res_indices[k]
        chosen_score[:, j] = cols[rows, k]
        flips[j] = np.count_nonzero(np.diff(picks))

    per_rung_mean = chosen_score.mean(axis=0)
    for arr in (chosen_res, chosen_score, per_rung_mean, flips):
        arr.flags.writeable = False
    return DrsTrace(
        rungs=log.rungs,
        resolutions=log.resolutions,
        gop_ids=log.gop_ids,
        granularity_gops=granularity_gops,
        chosen_res=chosen_res,
        chosen_score=chosen_score,
        per_rung_mean=per_rung_mean,
        flips=flips,
    )


def trace_rd_points(trace: DrsTrace) -> RDCurve:
    """Per-rung mean quality as an RD curve (bitrate = rung)."""
    pts = list(zip(trace.rungs, trace.per_rung_mean))
    return RDCurve.from_samples((0, 0), pts)


@dataclass(frozen=True)
class ManifestEntry:
    bitrate_kbps: float
    resolution: Resolution
    locator: str
    quality_score: float


@dataclass(frozen=True)
class SegmentManifest:
    segment_index: int
    entries: tuple[ManifestEntry, ...]


def filter_manifest(segment_index: int, entries, static_rungs) -> SegmentManifest:
    """Packager-side filtering: keep, per rung, the entry with the best
    quality score (ties to the lower resolution), restoring the static
    ladder size.  Idempotent."""
    static = sorted(float(b) for b in static_rungs)
    by_rung: dict[float, list[ManifestEntry]] = {}
    for e in entries:
        by_rung.setdefault(float(e.bitrate_kbps), []).append(e)
    kept: list[ManifestEntry] = []
    for b in static:
        group = by_rung.get(b)
        if not group:
            raise MissingRung(f"segment {segment_index} has no representation at rung {b}")
        group = sorted(group, key=lambda e: _res_key(e.resolution))
        best = max(group, key=lambda e: e.quality_score)  # first max wins: lower resolution on ties
        kept.append(best)
    return SegmentManifest(segment_index=segment_index, entries=tuple(kept))


@dataclass(frozen=True)
class BdResult:
    """Bjontegaard deltas between an anchor and a test curve.

    ``bd_rate_percent`` is the average rate difference at equal quality
    (negative means the test curve needs less rate); ``bd_quality`` the
    average quality difference at equal rate.  The overlap intervals used
    for each integral are recorded.
    """

    bd_rate_percent: float
    bd_quality: float
    quality_overlap: tuple[float, float]
    log_rate_overlap: tuple[float, float]


def _check_curve(curve: RDCurve, what: str) -> None:
    if len(curve.points) < 4:
        raise TooFewPoints(f"{what} curve needs >= 4 points, got {len(curve.points)}")


def bd_rate(anchor: RDCurve, test: RDCurve) -> BdResult:
    """Classic Bjontegaard deltas on PCHIP interpolants.

    Rate delta: interpolate log10(bitrate) as a function of quality for
    both curves, integrate the gap over the common quality interval
    exactly, and convert the mean log gap to a percentage.  Quality
    delta: interpolate quality over log10(bitrate) and integrate the
    vertical gap over the common log-rate interval.
    """
    _check_curve(anchor, "anchor")
    _check_curve(test, "test")

    def rate_curve(c: RDCurve):
        q = c.qualities
        logr = np.log10(c.bitrates)
        order = np.argsort(q, kind="stable")
        qs = q[order]
        if np.any(np.diff(qs) <= 0):
            raise NonMonotonicCurve("qualities must be distinct to invert the curve for the rate delta")
        return pchip_from_arrays(qs, logr[order])

    a_rate = rate_curve(anchor)
    t_rate = rate_curve(test)
    q_lo = max(a_rate.knots_x[0], t_rate.knots_x[0])
    q_hi = min(a_rate.knots_x[-1], t_rate.knots_x[-1])
    if not q_lo < q_hi:
        raise NoOverlap("curves share no quality interval")
    avg_log_gap = (t_rate.integrate(q_lo, q_hi) - a_rate.integrate(q_lo, q_hi)) / (q_hi - q_lo)
    bd_rate_percent = (10.0 ** avg_log_gap - 1.0) * 100.0

    a_q = pchip_from_arrays(np.log10(anchor.bitrates), anchor.qualities)
    t_q = pchip_from_arrays(np.log10(test.bitrates), test.qualities)
    r_lo = max(a_q.knots_x[0], t_q.knots_x[0])
    r_hi = min(a_q.knots_x[-1], t_q.knots_x[-1])
    if not r_lo < r_hi:
        raise NoOverlap("curves share no bitrate interval")
    bd_quality = (t_q.integrate(r_lo, r_hi) - a_q.integrate(r_lo, r_hi)) / (r_hi - r_lo)

    return BdResult(
        bd_rate_percent=float(bd_rate_percent),
        bd_quality=float(bd_quality),
        quality_overlap=(float(q_lo), float(q_hi)),
        log_rate_overlap=(float(r_lo), float(r_hi)),
    )


@dataclass(frozen=True, eq=False)
class GainStats:
    """Per-GOP score deltas of one rung between two traces."""

    rung: float
    deltas: np.ndarray
    mean: float
    median: float
    percentiles: dict[int, float]

    def histogram(self, bins: int = 20) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        counts, edges = np.histogram(self.deltas, bins=bins)
        return edges[:-1], edges[1:], counts


def gain_distribution(baseline: DrsTrace, drs: DrsTrace, rung: float) -> GainStats:
    """Distribution of per-GOP score gains (drs - baseline) at one rung."""
    if baseline.gop_ids != drs.gop_ids:
        raise MismatchedTraces("traces cover different GOP sets")
    rung = float(rung)
    if rung not in baseline.rungs or rung not in drs.rungs:
        raise MismatchedTraces(f"rung {rung} missing from one of the traces")
    jb = baseline.rungs.index(rung)
    jd = drs.rungs.index(rung)
    deltas = drs.chosen_score[:, jd] - baseline.chosen_score[:, jb]
    deltas.flags.writeable = False
    return GainStats(
        rung=rung,
        deltas=deltas,
        mean=float(deltas.mean()),
        median=float(_row_medians(deltas[None, :])[0]),
        percentiles={p: _percentile(deltas, p) for p in (5, 25, 50, 75, 95)},
    )
