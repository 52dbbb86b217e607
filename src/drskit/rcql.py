"""Benchmarking an objective quality metric against subjective ground truth.

Given aligned subjective/objective score tables, this module measures how
well the metric reproduces subjective resolution cross-over behaviour:

* ``delta_bitrate`` — absolute bitrate deviation between the subjective
  and the metric-predicted cross-over;
* ``rcql_s`` / ``rcql_avg`` — cumulative and mean quality loss over the
  bitrate interval separating the two cross-overs;
* ``ranking_accuracy`` — concordance of the metric's per-bitrate
  resolution preference with the subjective ranking (Acc), plus the mean
  subjective gap over the misranked comparisons (QL);
* ``correlations`` — SROCC / PLCC over the full table.

``build_report`` wires these together per resolution pair and content.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .corr import pearson, spearman
from .curves import RDCurve, ScoredPoint
from .errors import (
    DegenerateInput,
    InvalidRange,
    MismatchedPair,
    NoComparablePairs,
    NotEvaluable,
)
from .io import _res_key
from .rdmodel import (
    BISECT_TOL_KBPS,
    MIN_FIT_POINTS,
    CrossOverResult,
    LogisticParams,
    find_crossover,
    fit_logistic,
    sign_flips,
)

__all__ = [
    "RcqlReport",
    "PairContentRow",
    "delta_bitrate",
    "rcql_s",
    "rcql_avg",
    "ranking_accuracy",
    "correlations",
    "build_report",
]

DEFAULT_TIE_EPS = 1e-9


def delta_bitrate(subjective_xover: CrossOverResult, objective_xover: CrossOverResult) -> float:
    """Absolute bitrate deviation between the two cross-overs.

    When exactly one search found a crossing, the deviation is the
    distance from that crossing to the nearer end of the search range;
    when neither found one, the deviation is zero.
    """
    s, o = subjective_xover, objective_xover
    if (s.range_lo, s.range_hi) != (o.range_lo, o.range_hi):
        raise MismatchedPair(
            f"cross-overs evaluated on different ranges: "
            f"[{s.range_lo}, {s.range_hi}] vs [{o.range_lo}, {o.range_hi}]"
        )
    if (s.lower_curve, s.higher_curve) != (o.lower_curve, o.higher_curve):
        raise MismatchedPair(
            f"cross-overs evaluated on different pairs: "
            f"{s.lower_curve}/{s.higher_curve} vs {o.lower_curve}/{o.higher_curve}"
        )
    interval = _effective_interval(s, o)
    return 0.0 if interval is None else abs(interval[0] - interval[1])


def _crossings_between(f_low, f_high, a: float, b: float) -> list[float]:
    """Sign changes of f_high - f_low on (a, b), a < b, more than the bisection tolerance from both ends."""
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0:
        raise InvalidRange(f"invalid search range [{a}, {b}]")
    grid = np.linspace(a, b, 4096)
    diff = np.asarray(f_high(grid), dtype=float) - np.asarray(f_low(grid), dtype=float)
    roots = []
    for i, j in zip(*sign_flips(np.sign(diff))):
        res = find_crossover(f_low, f_high, (grid[i], grid[j]), scan_samples=64)
        if res.has_bitrate and min(res.bitrate_kbps - a, b - res.bitrate_kbps) > BISECT_TOL_KBPS:
            roots.append(res.bitrate_kbps)
    return roots


def _softplus_diff(a: float, d: float) -> float:
    """``softplus(a + d) - softplus(a)`` for ``d >= 0``, where ``softplus(t) =
    log(1 + exp(t))``, with neither overflow nor cancellation."""
    if d < 1.0:  # exactly log1p(expm1(d) * sigmoid(a))
        return math.log1p(math.expm1(d) * math.exp(min(a, 0.0)) / (1.0 + math.exp(-abs(a))))
    # softplus(t) = max(t, 0) + log1p(exp(-|t|)), and the max parts differ by clip(a + d, 0, d)
    return min(max(a + d, 0.0), d) + math.log1p(math.exp(-abs(a + d))) - math.log1p(math.exp(-abs(a)))


def _rise_integral(p: LogisticParams, lo: float, hi: float) -> float:
    """Integral over [lo, hi] of the logistic less its low asymptote."""
    return (p.beta1 - p.beta2) * p.beta4 * _softplus_diff((lo - p.beta3) / p.beta4, (hi - lo) / p.beta4)


def rcql_s(
    subjective_low_fit: LogisticParams,
    subjective_high_fit: LogisticParams,
    subj_xover_kbps: float,
    obj_xover_kbps: float,
) -> float:
    """Integral of the absolute quality gap between the two subjective
    logistic fits over the interval spanned by the two cross-over bitrates.

    The interval is split at interior crossings of the gap, so each piece
    is one-signed and is integrated exactly through the logistic's
    antiderivative ``beta2 * x + delta * beta4 * softplus((x - beta3) /
    beta4)``.  Returns 0 for an empty interval.  A fit that is not a
    :class:`LogisticParams` is not evaluable.
    """
    low, high = subjective_low_fit, subjective_high_fit
    for fit in (low, high):
        if not isinstance(fit, LogisticParams):
            raise NotEvaluable(f"object of type {type(fit).__name__} is not a logistic fit")
    for v in (subj_xover_kbps, obj_xover_kbps):
        if v is None or not math.isfinite(v):
            raise NotEvaluable(f"cross-over bitrate is not evaluable: {v!r}")
    a, b = sorted((float(subj_xover_kbps), float(obj_xover_kbps)))
    if a == b:
        return 0.0

    cuts = [a] + _crossings_between(low, high, a, b) + [b]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        total += abs((high.beta2 - low.beta2) * (hi - lo) + _rise_integral(high, lo, hi) - _rise_integral(low, lo, hi))
    if not math.isfinite(total):
        raise NotEvaluable("quality gap integral did not evaluate to a finite value")
    return total


def rcql_avg(rcql_s_value: float, subj_xover_kbps: float, obj_xover_kbps: float) -> float:
    """Mean quality gap over the cross-over divergence interval; 0 for an
    empty interval."""
    width = abs(float(subj_xover_kbps) - float(obj_xover_kbps))
    if width == 0.0:
        return 0.0
    return float(rcql_s_value) / width


def _check_tie_eps(tie_eps: float) -> None:
    # NaN would make every pair a preference, and a negative value every
    # exact tie.
    if not tie_eps >= 0.0:
        raise InvalidRange(f"tie_eps must be >= 0, got {tie_eps}")


def ranking_accuracy(
    points: list[ScoredPoint],
    tie_eps: float = DEFAULT_TIE_EPS,
    resolutions: tuple[tuple[int, int], tuple[int, int]] | None = None,
) -> tuple[float, float]:
    """Per-bitrate resolution-preference concordance.

    Records of the two resolutions are paired on exact (content, bitrate)
    matches.  Pairs whose subjective gap is within ``tie_eps`` are
    excluded.  Returns ``(acc_percent, ql)`` where ``acc_percent`` is the
    share of pairs on which the objective metric prefers the subjectively
    better resolution, and ``ql`` is the mean subjective gap over the
    misranked pairs (0 if there are none).  An objective tie never counts
    as concordant.
    """
    _check_tie_eps(tie_eps)
    if resolutions is None:
        seen = sorted({p.resolution for p in points}, key=_res_key)
        if len(seen) != 2:
            raise MismatchedPair(f"expected records of exactly 2 resolutions, found {len(seen)}")
        res_a, res_b = seen
    else:
        res_a, res_b = resolutions

    by_key: dict[tuple[str, float], dict[tuple[int, int], ScoredPoint]] = defaultdict(dict)
    for p in points:
        if p.resolution in (res_a, res_b):
            by_key[(p.content_id, p.bitrate_kbps)][p.resolution] = p

    n_pref = 0
    n_concordant = 0
    discordant_gaps = []
    for key in sorted(by_key):
        pair = by_key[key]
        if res_a not in pair or res_b not in pair:
            continue
        subj_gap = pair[res_a].subjective_jod - pair[res_b].subjective_jod
        if abs(subj_gap) <= tie_eps:
            continue
        n_pref += 1
        obj_gap = pair[res_a].objective_score - pair[res_b].objective_score
        if obj_gap != 0.0 and (obj_gap > 0) == (subj_gap > 0):
            n_concordant += 1
        else:
            discordant_gaps.append(abs(subj_gap))

    if n_pref == 0:
        raise NoComparablePairs("no matched-bitrate pairs with a subjective preference")
    acc = 100.0 * n_concordant / n_pref
    ql = float(np.mean(discordant_gaps)) if discordant_gaps else 0.0
    return acc, ql


def correlations(subjective, objective) -> tuple[float, float]:
    """(SROCC, PLCC) between two equal-length score lists."""
    s = np.asarray(subjective, dtype=float)
    o = np.asarray(objective, dtype=float)
    if s.shape != o.shape or s.ndim != 1:
        raise DegenerateInput("correlation inputs must be 1-D and equal length")
    if s.size < 3:
        raise DegenerateInput(f"correlations need >= 3 samples, got {s.size}")
    if np.ptp(s) == 0.0 or np.ptp(o) == 0.0:
        raise DegenerateInput("correlation input has zero variance")
    return spearman(s, o), pearson(s, o)


@dataclass(frozen=True)
class PairContentRow:
    """All cross-over measures for one (resolution pair, content)."""

    pair: str
    content_id: str
    delta_bitrate_kbps: float
    rcql_s: float
    rcql_avg: float
    acc_percent: float | None
    ql_jod: float | None
    subj_status: str
    obj_status: str
    subj_xover_kbps: float | None
    obj_xover_kbps: float | None
    range_lo: float
    range_hi: float
    endpoint_fallback: bool


@dataclass(frozen=True)
class RcqlReport:
    """Per-(pair, content) rows plus per-pair means and dataset-level
    rank correlations."""

    rows: tuple[PairContentRow, ...]
    pair_summary: dict[str, dict[str, float]]
    srocc: float
    plcc: float
    skipped: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "srocc": self.srocc,
            "plcc": self.plcc,
            "pairs": self.pair_summary,
            "rows": [vars(r) | {} for r in self.rows],
            "skipped": list(self.skipped),
        }


def _pair_label(res_lo: tuple[int, int], res_hi: tuple[int, int]) -> str:
    return f"{res_hi[0]}x{res_hi[1]}_vs_{res_lo[0]}x{res_lo[1]}"


def _effective_interval(subj: CrossOverResult, obj: CrossOverResult) -> tuple[float, float, bool] | None:
    """Cross-over interval with a missing side replaced by the nearer
    range endpoint; None when neither side found a crossing."""
    if subj.has_bitrate and obj.has_bitrate:
        return subj.bitrate_kbps, obj.bitrate_kbps, False
    if not subj.has_bitrate and not obj.has_bitrate:
        return None
    b = subj.bitrate_kbps if subj.has_bitrate else obj.bitrate_kbps
    nearer = subj.range_lo if (b - subj.range_lo) <= (subj.range_hi - b) else subj.range_hi
    return b, nearer, True


def build_report(
    points: list[ScoredPoint],
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] | None = None,
    tie_eps: float = DEFAULT_TIE_EPS,
) -> RcqlReport:
    """Fit subjective and objective curves per (content, resolution),
    locate both cross-overs per resolution pair, and assemble all
    measures.

    ``pairs`` defaults to adjacent resolutions in pixel-count order.
    Contents missing a resolution, with too few samples, or without an
    overlapping bitrate range are skipped and listed in the report.
    """
    _check_tie_eps(tie_eps)
    by_content: dict[str, dict[tuple[int, int], list[ScoredPoint]]] = defaultdict(lambda: defaultdict(list))
    seen: dict[tuple[str, tuple[int, int], float], ScoredPoint] = {}
    for p in points:
        key = (p.content_id, p.resolution, p.bitrate_kbps)
        if key in seen:
            raise MismatchedPair(f"duplicate record for {key}")
        seen[key] = p
        by_content[p.content_id][p.resolution].append(p)

    all_res = sorted({p.resolution for p in points}, key=_res_key)
    if pairs is None:
        pairs = list(zip(all_res, all_res[1:]))

    @functools.cache  # a resolution shared by two pairs is fitted once per score column
    def fitted(content: str, res: tuple[int, int], column: str) -> LogisticParams:
        samples = [(p.bitrate_kbps, getattr(p, column)) for p in by_content[content][res]]
        return fit_logistic(RDCurve.from_samples(res, samples))

    rows: list[PairContentRow] = []
    skipped: list[str] = []
    for res_lo, res_hi in pairs:
        label = _pair_label(res_lo, res_hi)
        for content in sorted(by_content):
            recs = by_content[content]
            if res_lo not in recs or res_hi not in recs:
                skipped.append(f"{label}/{content}: missing a resolution")
                continue
            lo_recs = sorted(recs[res_lo], key=lambda p: p.bitrate_kbps)
            hi_recs = sorted(recs[res_hi], key=lambda p: p.bitrate_kbps)
            if len(lo_recs) < MIN_FIT_POINTS or len(hi_recs) < MIN_FIT_POINTS:
                skipped.append(f"{label}/{content}: fewer than {MIN_FIT_POINTS} samples")
                continue
            rng_lo = max(lo_recs[0].bitrate_kbps, hi_recs[0].bitrate_kbps)
            rng_hi = min(lo_recs[-1].bitrate_kbps, hi_recs[-1].bitrate_kbps)
            if not rng_lo < rng_hi:
                skipped.append(f"{label}/{content}: no overlapping bitrate range")
                continue

            subj_lo = fitted(content, res_lo, "subjective_jod")
            subj_hi = fitted(content, res_hi, "subjective_jod")
            obj_lo = fitted(content, res_lo, "objective_score")
            obj_hi = fitted(content, res_hi, "objective_score")

            lo_label = f"{res_lo[0]}x{res_lo[1]}"
            hi_label = f"{res_hi[0]}x{res_hi[1]}"
            subj_x = find_crossover(subj_lo, subj_hi, (rng_lo, rng_hi), lo_label, hi_label)
            obj_x = find_crossover(obj_lo, obj_hi, (rng_lo, rng_hi), lo_label, hi_label)

            delta = delta_bitrate(subj_x, obj_x)
            interval = _effective_interval(subj_x, obj_x)
            if interval is None:
                s_val, avg, fallback = 0.0, 0.0, False
            else:
                xa, xb, fallback = interval
                s_val = rcql_s(subj_lo, subj_hi, xa, xb)
                avg = rcql_avg(s_val, xa, xb)

            pair_points = lo_recs + hi_recs
            try:
                acc, ql = ranking_accuracy(pair_points, tie_eps=tie_eps, resolutions=(res_lo, res_hi))
            except NoComparablePairs:
                acc, ql = None, None
                skipped.append(f"{label}/{content}: no matched-bitrate comparisons")

            rows.append(
                PairContentRow(
                    pair=label,
                    content_id=content,
                    delta_bitrate_kbps=delta,
                    rcql_s=s_val,
                    rcql_avg=avg,
                    acc_percent=acc,
                    ql_jod=ql,
                    subj_status=subj_x.status,
                    obj_status=obj_x.status,
                    subj_xover_kbps=subj_x.bitrate_kbps,
                    obj_xover_kbps=obj_x.bitrate_kbps,
                    range_lo=rng_lo,
                    range_hi=rng_hi,
                    endpoint_fallback=fallback,
                )
            )

    pair_summary: dict[str, dict[str, float]] = {}
    for res_lo, res_hi in pairs:
        label = _pair_label(res_lo, res_hi)
        pair_rows = [r for r in rows if r.pair == label]
        if not pair_rows:
            continue
        summary = {
            "n_contents": float(len(pair_rows)),
            "delta_bitrate_kbps": float(np.mean([r.delta_bitrate_kbps for r in pair_rows])),
            "rcql_s": float(np.mean([r.rcql_s for r in pair_rows])),
            "rcql_avg": float(np.mean([r.rcql_avg for r in pair_rows])),
        }
        accs = [r.acc_percent for r in pair_rows if r.acc_percent is not None]
        qls = [r.ql_jod for r in pair_rows if r.ql_jod is not None]
        if accs:
            summary["acc_percent"] = float(np.mean(accs))
            summary["ql_jod"] = float(np.mean(qls))
        pair_summary[label] = summary

    subj = [p.subjective_jod for p in points]
    obj = [p.objective_score for p in points]
    srocc, plcc = correlations(subj, obj)
    return RcqlReport(tuple(rows), pair_summary, srocc, plcc, tuple(skipped))


def __getattr__(name: str):
    # perfbench/tracer.py wraps quad through ``rcql.integrate``; scipy loads only when that is read.
    if name != "integrate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module("scipy.integrate")
