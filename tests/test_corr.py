"""The numpy-only correlations against scipy.stats as the oracle.

``drskit.corr`` must reproduce ``scipy.stats.spearmanr`` and
``scipy.stats.pearsonr`` bit for bit, so every comparison here is exact
``==`` (NaN equal to NaN), never approximate.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from drskit import io
from drskit.corr import average_ranks, pearson, spearman
from drskit.errors import DegenerateInput
from drskit.protocol import _content_srocc
from drskit.rcql import correlations

DATA = Path(__file__).parent / "data"


def scipy_spearman(x, y) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(stats.spearmanr(x, y).statistic)


def scipy_pearson(x, y) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(stats.pearsonr(x, y).statistic)


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_matches_scipy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy's overflow warnings, as scipy's
        assert same(spearman(x, y), scipy_spearman(x, y)), (x, y)
        assert same(pearson(x, y), scipy_pearson(x, y)), (x, y)


# The callers' code before the numpy helpers, kept as the oracle.
def old_content_srocc(labels, preds) -> float:
    if labels.size < 3 or np.ptp(labels) == 0.0 or np.ptp(preds) == 0.0:
        return float("nan")
    return scipy_spearman(labels, preds)


def old_correlations(subjective, objective) -> tuple[float, float]:
    s = np.asarray(subjective, dtype=float)
    o = np.asarray(objective, dtype=float)
    return scipy_spearman(s, o), scipy_pearson(s, o)


finite = st.floats(allow_nan=False, allow_infinity=False)
tiny = st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False)
huge = st.floats(min_value=1e199, max_value=1e201) | st.floats(min_value=-1e201, max_value=-1e199)
few_values = st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0])


@st.composite
def sample_pairs(draw, elements=finite, min_size=2, max_size=40):
    n = draw(st.integers(min_size, max_size))
    x = draw(st.lists(elements, min_size=n, max_size=n))
    y = draw(st.lists(elements, min_size=n, max_size=n))
    return x, y


class TestAgainstScipy:
    @given(sample_pairs(st.floats(-1e6, 1e6)))
    @settings(max_examples=400, deadline=None)
    def test_general_values(self, xy):
        assert_matches_scipy(*xy)

    @given(sample_pairs(few_values, min_size=3))
    @settings(max_examples=300, deadline=None)
    def test_heavy_ties(self, xy):
        assert_matches_scipy(*xy)

    @given(st.integers(2, 60), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_all_distinct_negative_and_permuted(self, n, rnd):
        x = [-float(v) for v in rnd.sample(range(10 * n), n)]
        y = x[:]
        rnd.shuffle(y)
        assert_matches_scipy(x, y)
        assert_matches_scipy(x, [-v for v in x])
        assert_matches_scipy(x, x)

    @given(sample_pairs(finite, min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_three_values(self, xy):
        assert_matches_scipy(*xy)

    @given(sample_pairs(huge, min_size=3))
    @settings(max_examples=200, deadline=None)
    def test_values_near_1e200(self, xy):
        assert_matches_scipy(*xy)

    @given(sample_pairs(tiny, min_size=3))
    @settings(max_examples=200, deadline=None)
    def test_values_near_1e_300(self, xy):
        assert_matches_scipy(*xy)

    @given(sample_pairs(huge | tiny | few_values, min_size=3))
    @settings(max_examples=200, deadline=None)
    def test_mixed_magnitudes(self, xy):
        assert_matches_scipy(*xy)

    @given(st.integers(2, 30), finite, sample_pairs(min_size=30, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_constant_input_is_nan(self, n, c, xy):
        x = xy[0][:n]
        for pair in (([c] * n, x), (x, [c] * n)):
            assert_matches_scipy(*pair)
            assert math.isnan(spearman(*pair))
            assert math.isnan(pearson(*pair))

    @given(sample_pairs(st.floats(-1e3, 1e3), min_size=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_nan_input_is_nan(self, xy, data):
        x, y = xy
        i = data.draw(st.integers(0, len(x) - 1))
        x[i] = float("nan")
        for pair in ((x, y), (y, x)):
            assert_matches_scipy(*pair)
            assert math.isnan(spearman(*pair))

    @given(st.lists(few_values | finite, min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_average_ranks_equal_rankdata(self, x):
        a = np.asarray(x, dtype=float)
        assert np.array_equal(average_ranks(a), stats.rankdata(a))

    @given(st.lists(few_values | st.sampled_from([np.nan, np.inf, -np.inf]) | finite, min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_average_ranks_equal_the_unique_formula(self, x):
        # np.unique ties -0.0 with 0.0 and every NaN with every other.
        a = np.asarray(x, dtype=float)
        _, group, counts = np.unique(a, return_inverse=True, return_counts=True)
        assert average_ranks(a).tobytes() == (np.cumsum(counts) - 0.5 * (counts - 1))[group].tobytes()

    def test_rejects_unequal_or_short_samples(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])


class TestCallersUnchanged:
    """The two callers return what their scipy-based code returned."""

    @pytest.fixture(scope="class")
    def log(self):
        return io.load_quality_log(DATA / "synthetic_quality_log.csv")

    def test_correlations_on_quality_log(self, log):
        n_res = len(log.resolutions)
        for a in range(n_res):
            for b in range(n_res):
                s = log.scores[:, :, a].ravel()
                o = log.scores[:, :, b].ravel()
                assert correlations(s, o) == old_correlations(s, o)
                rounded = np.round(o, 1)  # ties
                assert correlations(s, rounded) == old_correlations(s, rounded)

    def test_correlations_on_golden_trace(self):
        trace = io.load_trace(DATA / "golden_trace.json")
        scores = trace.chosen_score.ravel()
        bitrates = np.tile(trace.rungs, trace.chosen_score.shape[0])
        chosen = trace.chosen_res.ravel()
        assert correlations(bitrates, scores) == old_correlations(bitrates, scores)
        assert correlations(chosen, scores) == old_correlations(chosen, scores)

    def test_content_srocc_on_quality_log(self, log):
        compared = 0
        for k in range(len(log.resolutions)):
            for j in range(len(log.rungs)):
                labels = log.scores[:, j, k]
                for n in (2, 3, 5, labels.size):
                    for preds in (labels[::-1][:n], np.round(labels[:n], 0), np.full(n, 2.0), labels[:n] ** 3):
                        assert same(_content_srocc(labels[:n], preds), old_content_srocc(labels[:n], preds))
                        compared += 1
        assert compared > 0

    def test_correlations_still_reject_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            correlations([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
