import dataclasses
import math
import warnings
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from drskit.errors import DegenerateInput, InvalidRange, MismatchedPair, NoComparablePairs, NotEvaluable
from drskit.rcql import (
    build_report,
    correlations,
    delta_bitrate,
    ranking_accuracy,
    rcql_avg,
    rcql_s,
)
from drskit import rcql
from drskit.curves import ScoredPoint, pchip_from_arrays
from drskit.rdmodel import STATUS_NONE, CrossOverResult, LogisticParams, eval_logistic, find_crossover

LO = (1280, 720)
HI = (1920, 1080)


def xover(bitrate, status="found", lo=1000.0, hi=10000.0):
    return CrossOverResult(bitrate, "720", "1080", status, lo, hi)


def none_xover(lo=1000.0, hi=10000.0):
    return CrossOverResult(None, "720", "1080", "none", lo, hi)


class TestDeltaBitrate:
    def test_perfect_prediction(self):
        assert delta_bitrate(xover(3000.0), xover(3000.0)) == 0.0

    def test_absolute_difference(self):
        assert delta_bitrate(xover(3000.0), xover(4200.0)) == pytest.approx(1200.0)

    def test_one_missing_uses_nearer_endpoint(self):
        # Found at 3000 on [1000, 10000]: nearer endpoint is 1000, distance 2000.
        assert delta_bitrate(xover(3000.0), none_xover()) == pytest.approx(2000.0)
        assert delta_bitrate(none_xover(), xover(3000.0)) == pytest.approx(2000.0)
        # Nearer endpoint can also be the high end.
        assert delta_bitrate(xover(9000.0), none_xover()) == pytest.approx(1000.0)

    def test_both_missing_is_zero(self):
        assert delta_bitrate(none_xover(), none_xover()) == 0.0

    def test_mismatched_ranges_rejected(self):
        with pytest.raises(MismatchedPair):
            delta_bitrate(xover(3000.0), xover(3000.0, lo=500.0))

    def test_mismatched_pairs_rejected(self):
        a = CrossOverResult(3000.0, "540", "720", "found", 1000.0, 10000.0)
        b = CrossOverResult(3000.0, "720", "1080", "found", 1000.0, 10000.0)
        with pytest.raises(MismatchedPair):
            delta_bitrate(a, b)


class TestRcqlS:
    def test_empty_interval(self):
        lo = LogisticParams(8, 2, 600, 400, 0.0)
        hi = LogisticParams(9, 1, 900, 500, 0.0)
        assert rcql_s(lo, hi, 2000.0, 2000.0) == 0.0

    def test_matches_dense_trapezoid_oracle(self):
        lo = LogisticParams(8, 2, 600, 400, 0.0)
        hi = LogisticParams(9, 1, 900, 500, 0.0)
        got = rcql_s(lo, hi, 2000.0, 3000.0)
        grid = np.linspace(2000.0, 3000.0, 10**6)
        oracle = float(np.trapezoid(np.abs(eval_logistic(hi, grid) - eval_logistic(lo, grid)), grid))
        assert got == pytest.approx(oracle, rel=1e-4)

    def test_not_a_curve(self):
        lo = LogisticParams(8, 2, 600, 400, 0.0)
        with pytest.raises(NotEvaluable):
            rcql_s(lo, object(), 2000.0, 3000.0)
        with pytest.raises(NotEvaluable):
            rcql_s(object(), lo, 2000.0, 3000.0)

    def test_only_logistic_fits(self):
        # The integral is the logistic's closed form: an interpolant or a
        # plain callable, though evaluable, is refused.
        lo = LogisticParams(8, 2, 600, 400, 0.0)
        pchip = pchip_from_arrays([1000.0, 2000.0, 4000.0], [3.0, 5.0, 6.0])
        for other in (pchip, lo.evaluate, lambda x: 5.0 + 0.0 * np.asarray(x)):
            with pytest.raises(NotEvaluable):
                rcql_s(lo, other, 2000.0, 3000.0)
            with pytest.raises(NotEvaluable):
                rcql_s(other, lo, 2000.0, 3000.0)

    def test_symmetric_in_interval_order(self):
        lo = LogisticParams(8, 2, 600, 400, 0.0)
        hi = LogisticParams(9, 1, 900, 500, 0.0)
        assert rcql_s(lo, hi, 2000.0, 3000.0) == pytest.approx(rcql_s(lo, hi, 3000.0, 2000.0), rel=1e-12)

    def test_straddles_a_crossing(self):
        # The two curves cross inside the interval; the integral of the
        # absolute gap must exceed the absolute integral of the signed gap.
        lo = LogisticParams(8, 2, 600, 400, 0.0)
        hi = LogisticParams(9, 1, 900, 500, 0.0)
        from drskit.rdmodel import find_crossover

        x = find_crossover(lo, hi, (1000.0, 10000.0)).bitrate_kbps
        got = rcql_s(lo, hi, x - 500.0, x + 500.0)
        grid = np.linspace(x - 500.0, x + 500.0, 10**6)
        diff = eval_logistic(hi, grid) - eval_logistic(lo, grid)
        oracle_abs = float(np.trapezoid(np.abs(diff), grid))
        oracle_signed = abs(float(np.trapezoid(diff, grid)))
        assert got == pytest.approx(oracle_abs, rel=1e-4)
        assert got > oracle_signed


def loop_crossings_between(f_low, f_high, a, b, search):
    """_crossings_between with its per-grid-point bracketing loop."""
    probe = search(f_low, f_high, (a, b), scan_samples=4096)
    if probe.status == STATUS_NONE:
        return []
    grid = np.linspace(a, b, 4096)
    diff = np.asarray(f_high(grid), dtype=float) - np.asarray(f_low(grid), dtype=float)
    signs = np.sign(diff)
    nz = np.flatnonzero(signs != 0.0)
    roots = []
    for i, j in zip(nz, nz[1:]):
        if signs[i] * signs[j] < 0:
            res = search(f_low, f_high, (grid[i], grid[j]), scan_samples=64)
            if res.has_bitrate and a + 1e-6 < res.bitrate_kbps < b - 1e-6:
                roots.append(res.bitrate_kbps)
    return roots


def quad_rcql_s(low, high, a, b):
    """rcql_s by adaptive quadrature, as it was computed before the closed
    form: the same cuts, each piece integrated by ``scipy.integrate.quad``."""
    a, b = sorted((a, b))
    cuts = [a] + rcql._crossings_between(low.evaluate, high.evaluate, a, b) + [b]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        piece, _err = integrate.quad(
            lambda x: float(high.evaluate(x)) - float(low.evaluate(x)), lo, hi, epsrel=1e-10, epsabs=1e-12, limit=200
        )
        total += abs(piece)
    return total


def quad_abs_integral(fit, a, b):
    return integrate.quad(lambda x: abs(float(fit.evaluate(x))), a, b, epsrel=1e-12, limit=200)[0]


def random_fit(rng, r_min, r_max, log10_spans):
    """A logistic as fit_logistic returns them: inflection in [r_min/2,
    r_min], slope scale a power of ten of the bitrate span, floored."""
    b2 = rng.uniform(0.0, 5.0)
    b4 = max((r_max - r_min) * 10.0 ** rng.uniform(*log10_spans), 1e-9)
    return LogisticParams(b2 + rng.uniform(0.0, 5.0), b2, rng.uniform(r_min / 2, r_min), b4, 0.0)


def random_cases(kind, n, seed):
    """``n`` seeded (low, high, a, b) for one kind of logistic pair."""
    rng = np.random.default_rng(seed)
    log10_spans = {"step": (-14.0, -4.0), "linear": (4.0, 6.0)}.get(kind, (-2.0, 1.0))
    cases = []
    while len(cases) < n:
        r_min = rng.uniform(200.0, 3000.0)
        r_max = r_min * rng.uniform(2.0, 20.0)
        low = random_fit(rng, r_min, r_max, log10_spans)
        if kind == "identical":
            shake = 1.0 + 1e-9 * rng.standard_normal(3)
            b2 = low.beta2 * shake[0]
            high = dataclasses.replace(low, beta1=max(low.beta1 * shake[1], b2), beta2=b2, beta3=low.beta3 * shake[2])
        else:
            high = random_fit(rng, r_min, r_max, log10_spans)
        if kind == "crossing":
            x = find_crossover(low, high, (r_min, r_max)).bitrate_kbps
            if x is None:
                continue
            a, b = x - rng.uniform(0.0, x - r_min), x + rng.uniform(0.0, r_max - x)
        else:
            a, b = np.sort(rng.uniform(r_min, r_max, 2))
        cases.append((low, high, float(a), float(b)))
    return cases


class TestClosedFormAgainstQuad:
    """The closed form against the quadrature it replaced (the oracle), on
    the same cuts."""

    @pytest.mark.parametrize("kind, seed", [("step", 1), ("linear", 2), ("crossing", 3), ("moderate", 4)])
    def test_matches_quad(self, kind, seed):
        crossed = 0
        for low, high, a, b in random_cases(kind, 150, seed):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = rcql_s(low, high, a, b)
            expected = quad_rcql_s(low, high, a, b)
            assert abs(got - expected) <= 1e-8 * expected + 1e-12, (low, high, a, b, got, expected)
            crossed += bool(rcql._crossings_between(low.evaluate, high.evaluate, a, b))
        if kind == "crossing":
            assert crossed > 100

    def test_near_identical_pairs(self):
        # The gap is 1e-9 of either curve, so both integrals cancel in it:
        # the error is bounded by the curves' own integrals.
        for low, high, a, b in random_cases("identical", 150, seed=5):
            got = rcql_s(low, high, a, b)
            with warnings.catch_warnings():
                # The integrand's rounding is near the gap, so quad can miss
                # its own tolerance; the bound below still holds.
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                expected = quad_rcql_s(low, high, a, b)
            scale = quad_abs_integral(low, a, b) + quad_abs_integral(high, a, b)
            assert abs(got - expected) <= 1e-13 * scale, (low, high, a, b, got, expected)


def exact_softplus_diff(a: float, d: float) -> float:
    """``softplus(a + d) - softplus(a)`` in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60, MAX_EMAX, MIN_EMIN

        def softplus(t):
            e = (-abs(t)).exp()
            # log1p by its series where 1 + e rounds to 1.
            return max(t, 0) + (e - e * e / 2 + e * e * e / 3 if e < Decimal("1e-20") else (1 + e).ln())

        return float(softplus(Decimal(a) + Decimal(d)) - softplus(Decimal(a)))


class TestSoftplusDiff:
    @pytest.mark.parametrize("a", [-1e12, -1e6, -700.0, -30.0, -1.0, -0.3, 0.0, 0.3, 1.0, 30.0, 1e6, 1e12])
    def test_finite_and_exact(self, a):
        for d in [0.0, *np.geomspace(1e-12, 1e12, 37)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = rcql._softplus_diff(a, float(d))
            assert got == pytest.approx(exact_softplus_diff(a, float(d)), rel=1e-14, abs=1e-300), (a, d)

    def test_far_tails(self):
        assert rcql._softplus_diff(1e12, 1e12) == 1e12
        assert rcql._softplus_diff(1e12, 1e-12) == 1e-12
        assert rcql._softplus_diff(-1e12, 1e12) == pytest.approx(math.log(2.0))
        assert rcql._softplus_diff(-1e12, 1.0) == 0.0


class TestCrossingsBetween:
    @pytest.mark.parametrize("period", [300.0, 900.0, 5000.0])
    @pytest.mark.parametrize("offset", [0.0, 0.3, 0.5, 0.7])
    def test_matches_loop_roots_and_searches(self, monkeypatch, period, offset):
        def flat(x):
            return np.zeros_like(np.asarray(x, dtype=float)) + 5.0

        def wavy(x):
            return 5.0 + offset + 0.5 * np.sin(np.asarray(x, dtype=float) / period)

        def counting(calls):
            def search(*args, **kwargs):
                calls.append((args[2], kwargs))
                return find_crossover(*args, **kwargs)

            return search

        got_calls, expected_calls = [], []
        monkeypatch.setattr(rcql, "find_crossover", counting(got_calls))
        got = rcql._crossings_between(flat, wavy, 2000.0, 9000.0)
        expected = loop_crossings_between(flat, wavy, 2000.0, 9000.0, counting(expected_calls))
        assert got == expected
        # The loop's first search only probed the same grid it re-scans.
        assert expected_calls[0] == ((2000.0, 9000.0), {"scan_samples": 4096})
        assert got_calls == expected_calls[1:]

    @pytest.mark.parametrize("end", ["a", "b"])
    def test_root_at_an_end_is_not_interior(self, end):
        # The gap crosses zero 3e-7 kbps inside the interval, which is the
        # end-point cross-over seen through a bisection residual; a root
        # 1 kbps inside is a real crossing.
        a, b = 2000.0, 9000.0

        def zero(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        def gap(root):
            return lambda x: np.asarray(x, dtype=float) - root

        near, inside = (a + 3e-7, a + 1.0) if end == "a" else (b - 3e-7, b - 1.0)
        assert rcql._crossings_between(zero, gap(near), a, b) == []
        assert rcql._crossings_between(zero, gap(inside), a, b) == [pytest.approx(inside, abs=1e-6)]

    @pytest.mark.parametrize("a, b", [(0.0, 9000.0), (-5.0, 9000.0), (2000.0, float("inf"))])
    def test_invalid_range(self, a, b):
        with pytest.raises(InvalidRange):
            rcql._crossings_between(np.sin, np.cos, a, b)


class TestRcqlAvg:
    def test_definition(self):
        assert rcql_avg(500.0, 2000.0, 3000.0) == pytest.approx(0.5)

    def test_empty_interval(self):
        assert rcql_avg(0.0, 2000.0, 2000.0) == 0.0

    def test_constant_gap(self):
        # Curves separated by a constant 0.3 everywhere average to 0.3.
        lo = LogisticParams(8, 2, 600, 400, 0.0)
        hi = LogisticParams(8.3, 2.3, 600, 400, 0.0)
        s = rcql_s(lo, hi, 1500.0, 4500.0)
        assert rcql_avg(s, 1500.0, 4500.0) == pytest.approx(0.3, rel=1e-9)

    def test_product_identity(self):
        lo = LogisticParams(8, 2, 600, 400, 0.0)
        hi = LogisticParams(9, 1, 900, 500, 0.0)
        s = rcql_s(lo, hi, 2100.0, 3900.0)
        avg = rcql_avg(s, 2100.0, 3900.0)
        assert avg * abs(3900.0 - 2100.0) == pytest.approx(s, rel=1e-9)


def _pair_points(subj_pairs, obj_pairs=None):
    """Build two-resolution ScoredPoints at matched bitrates."""
    obj_pairs = obj_pairs if obj_pairs is not None else subj_pairs
    points = []
    for i, ((s_lo, s_hi), (o_lo, o_hi)) in enumerate(zip(subj_pairs, obj_pairs)):
        b = 1000.0 * (i + 1)
        points.append(ScoredPoint("c", LO, b, s_lo, o_lo))
        points.append(ScoredPoint("c", HI, b, s_hi, o_hi))
    return points


class TestRankingAccuracy:
    def test_oracle_metric(self):
        subj = [(3.0, 4.0), (4.0, 3.5), (5.0, 5.5), (6.0, 6.8)]
        acc, ql = ranking_accuracy(_pair_points(subj))
        assert acc == 100.0
        assert ql == 0.0

    def test_inverted_metric(self):
        subj = [(3.0, 4.0), (4.0, 3.5), (5.0, 5.5)]
        inverted = [(-a, -b) for a, b in subj]
        acc, ql = ranking_accuracy(_pair_points(subj, inverted))
        assert acc == 0.0
        assert ql == pytest.approx(np.mean([1.0, 0.5, 0.5]))

    def test_hand_counted_mix(self):
        # 10 pairs: 7 concordant, 3 discordant with subjective gaps 0.2/0.4/0.6.
        subj, obj = [], []
        for i in range(7):
            subj.append((1.0, 2.0))
            obj.append((1.0, 2.0))
        for gap in (0.2, 0.4, 0.6):
            subj.append((1.0, 1.0 + gap))
            obj.append((2.0, 1.0))
        acc, ql = ranking_accuracy(_pair_points(subj, obj))
        assert acc == pytest.approx(70.0)
        assert ql == pytest.approx(0.4)

    def test_subjective_ties_excluded(self):
        subj = [(1.0, 1.0), (2.0, 3.0)]
        obj = [(9.0, 1.0), (1.0, 2.0)]
        acc, ql = ranking_accuracy(_pair_points(subj, obj))
        assert acc == 100.0
        assert ql == 0.0

    def test_objective_tie_counts_as_discordant(self):
        subj = [(1.0, 2.0)]
        obj = [(5.0, 5.0)]
        acc, ql = ranking_accuracy(_pair_points(subj, obj))
        assert acc == 0.0
        assert ql == pytest.approx(1.0)

    def test_no_comparable_pairs(self):
        points = [ScoredPoint("c", LO, 1000.0, 3.0, 1.0), ScoredPoint("c", HI, 2000.0, 4.0, 2.0)]
        with pytest.raises(NoComparablePairs):
            ranking_accuracy(points)

    @pytest.mark.parametrize("tie_eps", [float("nan"), -1.0, -1e-300, float("-inf")])
    def test_tie_eps_must_be_non_negative(self, tie_eps):
        # An exact subjective tie would otherwise count as a preference.
        points = _pair_points([(1.0, 1.0), (2.0, 3.0)])
        with pytest.raises(InvalidRange):
            ranking_accuracy(points, tie_eps=tie_eps)
        with pytest.raises(InvalidRange):
            build_report(points, tie_eps=tie_eps)

    @given(
        scale=st.floats(0.1, 10.0),
        shift=st.floats(-5.0, 5.0),
        cube=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_increasing_transform(self, scale, shift, cube):
        rng = np.random.default_rng(42)
        subj = [(rng.uniform(0, 9), rng.uniform(0, 9)) for _ in range(12)]
        obj = [(rng.uniform(0, 9), rng.uniform(0, 9)) for _ in range(12)]
        base = ranking_accuracy(_pair_points(subj, obj))

        def t(v):
            v = scale * v + shift
            return v**3 if cube else v

        transformed = [(t(a), t(b)) for a, b in obj]
        assert ranking_accuracy(_pair_points(subj, transformed)) == pytest.approx(base)


class TestCorrelations:
    def test_identity(self):
        s = [1.0, 2.0, 3.0, 4.0]
        assert correlations(s, s) == pytest.approx((1.0, 1.0))

    def test_negation(self):
        s = [1.0, 2.0, 3.0, 4.0]
        srocc, plcc = correlations(s, [-v for v in s])
        assert srocc == pytest.approx(-1.0)
        assert plcc == pytest.approx(-1.0)

    def test_monotone_nonlinear(self):
        s = [1.0, 2.0, 3.0, 4.0, 5.0]
        srocc, plcc = correlations(s, [v**3 for v in s])
        assert srocc == pytest.approx(1.0)
        assert plcc < 1.0

    def test_average_rank_ties(self):
        srocc, _ = correlations([1.0, 2.0, 2.0, 3.0], [1.0, 2.5, 2.5, 4.0])
        assert srocc == pytest.approx(1.0)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            correlations([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DegenerateInput):
            correlations([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            correlations([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_plcc_affine_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(0, 9, 20)
        o = rng.uniform(0, 9, 20)
        base = correlations(s, o)
        shifted = correlations(s, 3.0 * o + 2.0)
        assert shifted == pytest.approx(base)


def make_dataset(objective_from_subjective):
    """Two contents, two resolutions, 6 rungs; subjective curves cross."""
    rng_points = []
    for content, (b3_lo, b3_hi) in (("c1", (500, 800)), ("c2", (550, 850))):
        for b in (1000.0, 1500.0, 2200.0, 3300.0, 5000.0, 7500.0):
            s_lo = 2 + 5.5 / (1 + np.exp(-(b - b3_lo) / 350.0))
            s_hi = 1 + 7.5 / (1 + np.exp(-(b - b3_hi) / 600.0))
            rng_points.append(ScoredPoint(content, LO, b, float(s_lo), objective_from_subjective(float(s_lo))))
            rng_points.append(ScoredPoint(content, HI, b, float(s_hi), objective_from_subjective(float(s_hi))))
    return rng_points


class TestBuildReport:
    def test_oracle_objective_is_perfect(self):
        report = build_report(make_dataset(lambda s: s))
        assert report.srocc == pytest.approx(1.0)
        assert report.plcc == pytest.approx(1.0)
        for row in report.rows:
            assert row.acc_percent == 100.0
            assert row.ql_jod == 0.0
            assert row.delta_bitrate_kbps <= 1.0
            assert row.rcql_s <= 0.01

    def test_monotone_rescaled_objective_keeps_acc(self):
        report = build_report(make_dataset(lambda s: 2.0 * s + 1.0))
        assert report.srocc == pytest.approx(1.0)
        for row in report.rows:
            assert row.acc_percent == 100.0

    def test_missing_resolution_skipped(self):
        points = make_dataset(lambda s: s)
        points = [p for p in points if not (p.content_id == "c2" and p.resolution == HI)]
        report = build_report(points)
        assert any("missing a resolution" in s for s in report.skipped)
        assert {r.content_id for r in report.rows} == {"c1"}

    def test_duplicate_record_rejected(self):
        points = make_dataset(lambda s: s)
        with pytest.raises(MismatchedPair):
            build_report(points + [points[0]])
