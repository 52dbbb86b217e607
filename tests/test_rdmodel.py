import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.special import expit

from drskit.errors import InvalidRange, NonFinite, TooFewPoints
from drskit.rdmodel import (
    STATUS_FOUND,
    STATUS_MULTIPLE,
    STATUS_NONE,
    LogisticParams,
    RDCurve,
    RDPoint,
    _expit,
    eval_logistic,
    find_crossover,
    fit_logistic,
    fit_pchip,
    sign_flips,
)

RES = (1920, 1080)


def logistic(b1, b2, b3, b4, x):
    x = np.asarray(x, dtype=float)
    return b2 + (b1 - b2) / (1.0 + np.exp(-(x - b3) / abs(b4)))


def curve_from(b1, b2, b3, b4, xs):
    return RDCurve.from_samples(RES, [(x, float(logistic(b1, b2, b3, b4, x))) for x in xs])


def grid_search_rss(x, y, r_min):
    """Independent dense grid search over all four parameters."""
    b1s = np.linspace(y.max() - 1.0, y.max() + 1.0, 9)
    b2s = np.linspace(y.min() - 1.0, y.min() + 1.0, 9)
    b3s = np.linspace(r_min / 2.0, r_min, 15)
    b4s = np.geomspace(50.0, 5000.0, 15)
    best = np.inf
    for b3 in b3s:
        for b4 in b4s:
            s = 1.0 / (1.0 + np.exp(-(x - b3) / b4))  # (n,)
            for b1 in b1s:
                for b2 in b2s:
                    if b1 < b2:
                        continue
                    r = b2 + (b1 - b2) * s - y
                    rss = float(r @ r)
                    if rss < best:
                        best = rss
    return best


class TestRDTypes:
    def test_rdpoint_rejects_nonpositive_bitrate(self):
        with pytest.raises(NonFinite):
            RDPoint(0.0, 5.0)
        with pytest.raises(NonFinite):
            RDPoint(-10.0, 5.0)

    def test_rdpoint_rejects_nonfinite_quality(self):
        with pytest.raises(NonFinite):
            RDPoint(100.0, float("nan"))

    def test_curve_needs_two_points(self):
        with pytest.raises(TooFewPoints):
            RDCurve(RES, (RDPoint(100.0, 1.0),))

    def test_curve_rejects_duplicate_bitrates(self):
        with pytest.raises(NonFinite):
            RDCurve(RES, (RDPoint(100.0, 1.0), RDPoint(100.0, 2.0)))

    def test_from_samples_sorts(self):
        c = RDCurve.from_samples(RES, [(200, 2.0), (100, 1.0)])
        assert c.r_min == 100.0
        assert c.bitrates.tolist() == [100.0, 200.0]


class TestFitLogistic:
    def test_noiseless_recovery(self):
        xs = [1000, 1500, 2000, 3000, 4000, 6000]
        params = fit_logistic(curve_from(8, 2, 600, 400, xs))
        assert params.rss <= 1e-8
        for got, want in [(params.beta1, 8.0), (params.beta2, 2.0), (params.beta3, 600.0), (params.beta4, 400.0)]:
            assert abs(got - want) / abs(want) <= 1e-3

    def test_flat_curve(self):
        c = RDCurve.from_samples(RES, [(x, 5.0) for x in (500, 1000, 2000, 4000)])
        params = fit_logistic(c)
        assert params.rss <= 1e-8
        assert abs(params.beta1 - 5.0) <= 1e-6
        assert abs(params.beta2 - 5.0) <= 1e-6

    def test_noisy_fit_beats_grid_oracle(self):
        rng = np.random.default_rng(7)
        xs = np.geomspace(800, 12000, 10)
        y = logistic(7.5, 2.5, 560, 900, xs) + rng.normal(0, 0.1, xs.size)
        c = RDCurve.from_samples(RES, list(zip(xs, y)))
        params = fit_logistic(c)
        oracle = grid_search_rss(xs, y, c.r_min)
        assert params.rss <= oracle * 1.01 + 1e-12

    def test_too_few_points(self):
        c = RDCurve.from_samples(RES, [(100, 1.0), (200, 2.0), (300, 3.0)])
        with pytest.raises(TooFewPoints):
            fit_logistic(c)

    def test_power_of_two_scaled_qualities_fit_exactly_scaled(self):
        rng = np.random.default_rng(2)
        xs = np.geomspace(700, 9000, 8)
        y = logistic(7, 2, 600, 800, xs) + rng.normal(0, 0.3, xs.size)
        base = fit_logistic(RDCurve.from_samples(RES, list(zip(xs, y))))
        for k in (10, 300, 500):
            f = math.ldexp(1.0, k)
            got = fit_logistic(RDCurve.from_samples(RES, list(zip(xs, y * f))))
            assert (got.beta3, got.beta4) == (base.beta3, base.beta4)
            assert (got.beta1, got.beta2, got.rss) == (base.beta1 * f, base.beta2 * f, base.rss * f * f)

    def test_beta3_stays_in_box(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            r_min = rng.uniform(300, 2000)
            xs = np.linspace(r_min, r_min * 12, 8)
            y = logistic(9, 1, r_min * 0.8, r_min, xs) + rng.normal(0, 0.3, xs.size)
            params = fit_logistic(RDCurve.from_samples(RES, list(zip(xs, y))))
            assert r_min / 2.0 <= params.beta3 <= r_min

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        xs = np.linspace(900, 9000, 9)
        y = logistic(6, 3, 700, 500, xs) + rng.normal(0, 0.2, xs.size)
        c = RDCurve.from_samples(RES, list(zip(xs, y)))
        a = fit_logistic(c)
        b = fit_logistic(c)
        assert (a.beta1, a.beta2, a.beta3, a.beta4, a.rss) == (b.beta1, b.beta2, b.beta3, b.beta4, b.rss)

    def test_decreasing_data_degenerates_to_flat(self):
        # A non-increasing data set cannot be represented with beta1 >= beta2
        # other than by a flat curve.
        c = RDCurve.from_samples(RES, [(500, 8.0), (1000, 6.0), (2000, 4.0), (4000, 2.0)])
        params = fit_logistic(c)
        assert params.beta1 >= params.beta2
        assert params.beta4 > 0


class TestExpit:
    """The numpy logistic against ``scipy.special.expit``, which it replaced."""

    def test_dense_grid_within_4_ulps(self):
        # Both compute 1 / (1 + exp(-t)); numpy's exp and the C library's
        # differ by an ulp on some arguments, which the division can grow
        # to 4 ulps (measured: 4, near t = -36.8, where 1 + exp(-t) rounds).
        t = np.linspace(-800.0, 800.0, 1_000_001)
        got, want = _expit(t), expit(t)
        ulps = np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))
        assert ulps.max() <= 4.0
        saturated = (want == 0.0) | (want == 1.0)
        assert saturated.sum() > 500_000
        assert np.array_equal(got[saturated], want[saturated])

    @pytest.mark.parametrize("t", [-750.0, 750.0, -710.0, 710.0, -np.inf, np.inf, 0.0, -0.0, 1e-300, -1e-300])
    def test_saturated_and_central_values_exact(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _expit(np.float64(t))
        assert got == expit(np.float64(t))
        assert got == _expit(np.array([t]))[0]


class TestEvalLogistic:
    def test_inflection_midpoint(self):
        p = LogisticParams(8, 2, 600, 400, 0.0)
        assert eval_logistic(p, 600.0) == pytest.approx((8 + 2) / 2, abs=1e-12)

    def test_high_bitrate_asymptote(self):
        p = LogisticParams(8, 2, 600, 400, 0.0)
        assert abs(eval_logistic(p, 1e9) - 8.0) <= 1e-9

    def test_hand_evaluated_point(self):
        # 2 + 6 / (1 + e^-1) = 6.3864 to four decimals.
        p = LogisticParams(8, 2, 600, 400, 0.0)
        expected = 2 + 6 / (1 + math.exp(-1))
        assert eval_logistic(p, 1000.0) == pytest.approx(expected, abs=1e-12)
        assert round(eval_logistic(p, 1000.0), 4) == 6.3864

    def test_vectorized(self):
        p = LogisticParams(8, 2, 600, 400, 0.0)
        xs = np.array([100.0, 600.0, 5000.0])
        out = eval_logistic(p, xs)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(5.0)

    @given(
        x1=st.floats(1.0, 1e6),
        x2=st.floats(1.0, 1e6),
        b1=st.floats(-10, 10),
        spread=st.floats(0, 20),
        b3=st.floats(10, 1e4),
        b4=st.floats(1e-3, 1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_nondecreasing(self, x1, x2, b1, spread, b3, b4):
        p = LogisticParams(b1 + spread, b1, b3, b4, 0.0)
        lo, hi = sorted((x1, x2))
        assert eval_logistic(p, lo) <= eval_logistic(p, hi) + 1e-12


class TestFitPchip:
    def test_two_points_linear(self):
        c = RDCurve.from_samples(RES, [(100, 1.0), (300, 5.0)])
        p = fit_pchip(c)
        assert p.evaluate(200.0) == pytest.approx(3.0, abs=1e-12)
        assert p.evaluate(150.0) == pytest.approx(2.0, abs=1e-12)

    def test_monotone_preservation(self):
        xs = [100, 200, 500, 900, 1500]
        ys = [1.0, 1.2, 3.7, 3.8, 9.0]
        p = fit_pchip(RDCurve.from_samples(RES, zip(xs, ys)))
        grid = np.linspace(100, 1500, 5000)
        vals = p.evaluate(grid)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_knot_exactness(self):
        xs = np.array([100.0, 250.0, 400.0, 1000.0])
        ys = np.array([2.0, 1.0, 4.0, 3.5])
        p = fit_pchip(RDCurve.from_samples(RES, zip(xs, ys.tolist())))
        assert np.allclose(p.evaluate(xs), sorted_by_x(xs, ys), atol=1e-12)

    def test_no_overshoot_within_intervals(self):
        xs = np.array([100.0, 250.0, 400.0, 1000.0, 1600.0])
        ys = np.array([2.0, 1.0, 4.0, 3.5, 3.6])
        p = fit_pchip(RDCurve.from_samples(RES, zip(xs, ys.tolist())))
        for k in range(len(xs) - 1):
            grid = np.linspace(xs[k], xs[k + 1], 500)
            vals = p.evaluate(grid)
            lo, hi = min(ys[k], ys[k + 1]), max(ys[k], ys[k + 1])
            assert np.all(vals >= lo - 1e-9) and np.all(vals <= hi + 1e-9)

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = rng.integers(2, 12)
            xs = np.sort(rng.uniform(10, 1e4, n))
            while np.any(np.diff(xs) <= 0):
                xs = np.sort(rng.uniform(10, 1e4, n))
            ys = rng.uniform(0, 10, n)
            mine = fit_pchip(RDCurve.from_samples(RES, zip(xs, ys)))
            ref = PchipInterpolator(xs, ys)
            grid = np.linspace(xs[0], xs[-1], 300)
            assert np.allclose(mine.evaluate(grid), ref(grid), rtol=1e-10, atol=1e-10)

    def test_exact_integral_matches_scipy(self):
        rng = np.random.default_rng(9)
        xs = np.sort(rng.uniform(10, 1e4, 8))
        ys = rng.uniform(0, 10, 8)
        mine = fit_pchip(RDCurve.from_samples(RES, zip(xs, ys)))
        ref = PchipInterpolator(xs, ys)
        a, b = xs[0] + 3.0, xs[-1] - 7.0
        assert mine.integrate(a, b) == pytest.approx(float(ref.integrate(a, b)), rel=1e-10)
        assert mine.integrate(b, a) == pytest.approx(-float(ref.integrate(a, b)), rel=1e-10)

    def test_too_few_points(self):
        from drskit.rdmodel import pchip_from_arrays

        with pytest.raises(TooFewPoints):
            pchip_from_arrays(np.array([1.0]), np.array([2.0]))


def sorted_by_x(xs, ys):
    order = np.argsort(xs)
    return np.asarray(ys)[order]


def loop_sign_flips(signs):
    """The per-grid-point bracketing loop that sign_flips replaced."""
    nz = np.flatnonzero(signs != 0.0)
    return [(int(a), int(b)) for a, b in zip(nz, nz[1:]) if signs[a] * signs[b] < 0]


class TestSignFlips:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, 0.0, -0.0, 1.0, math.nan]), max_size=300))
    def test_matches_loop(self, values):
        signs = np.array(values, dtype=float)
        a, b = sign_flips(signs)
        assert list(zip(a.tolist(), b.tolist())) == loop_sign_flips(signs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=300))
    def test_matches_loop_on_sampled_differences(self, values):
        signs = np.sign(np.array(values, dtype=float))
        a, b = sign_flips(signs)
        assert list(zip(a.tolist(), b.tolist())) == loop_sign_flips(signs)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([], []),
            ([1.0], []),
            ([0.0], []),
            ([0.0, 0.0, 0.0], []),
            ([1.0, 0.0, 0.0, -1.0], [(0, 3)]),
            ([-1.0, math.nan, 1.0], []),
            ([1.0, -1.0, 0.0, 1.0, 1.0, -1.0], [(0, 1), (1, 3), (4, 5)]),
        ],
    )
    def test_edge_cases(self, values, expected):
        signs = np.array(values, dtype=float)
        a, b = sign_flips(signs)
        assert list(zip(a.tolist(), b.tolist())) == expected == loop_sign_flips(signs)


class TestFindCrossover:
    def test_identical_curves_none(self):
        p = LogisticParams(8, 2, 600, 400, 0.0)
        res = find_crossover(p, p, (1000, 10000))
        assert res.status == STATUS_NONE
        assert res.bitrate_kbps is None

    def test_matches_dense_scan_oracle(self):
        low = LogisticParams(8, 2, 600, 400, 0.0)
        high = LogisticParams(9, 1, 900, 500, 0.0)
        res = find_crossover(low, high, (1000, 10000))
        assert res.status == STATUS_FOUND

        grid = np.linspace(1000, 10000, 10**6)
        diff = eval_logistic(high, grid) - eval_logistic(low, grid)
        signs = np.sign(diff)
        flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
        assert flips.size == 1
        oracle = 0.5 * (grid[flips[0]] + grid[flips[0] + 1])
        assert abs(res.bitrate_kbps - oracle) <= 0.1

    def test_root_property(self):
        low = LogisticParams(8, 2, 600, 400, 0.0)
        high = LogisticParams(9, 1, 900, 500, 0.0)
        res = find_crossover(low, high, (1000, 10000))
        gap = abs(eval_logistic(high, res.bitrate_kbps) - eval_logistic(low, res.bitrate_kbps))
        scale = max(abs(eval_logistic(high, res.bitrate_kbps)), abs(eval_logistic(low, res.bitrate_kbps)), 1.0)
        assert gap <= 1e-6 * scale

    def test_dominance_none(self):
        low = LogisticParams(5, 1, 600, 400, 0.0)
        high = LogisticParams(9, 6, 600, 400, 0.0)
        res = find_crossover(low, high, (1000, 10000))
        assert res.status == STATUS_NONE

    def test_multiple_crossings_reports_lowest(self):
        flat = lambda x: np.zeros_like(np.asarray(x, dtype=float)) + 5.0
        wavy = lambda x: 5.0 + 0.5 * np.sin(np.asarray(x, dtype=float) / 1000.0)
        res = find_crossover(flat, wavy, (2000.0, 8000.0))
        assert res.status == STATUS_MULTIPLE
        assert res.n_crossings == 2
        assert res.bitrate_kbps == pytest.approx(1000.0 * math.pi, abs=1e-3)

    def test_constant_callables_never_cross(self):
        res = find_crossover(lambda x: 5.0, lambda x: 6.0, (1000.0, 2000.0))
        assert res.status == STATUS_NONE
        assert res.n_crossings == 0

    def test_invalid_range(self):
        p = LogisticParams(8, 2, 600, 400, 0.0)
        with pytest.raises(InvalidRange):
            find_crossover(p, p, (5000, 1000))
        with pytest.raises(InvalidRange):
            find_crossover(p, p, (1000, 1000))
