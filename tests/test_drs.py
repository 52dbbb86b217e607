import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drskit.drs import (
    DrsTrace,
    ManifestEntry,
    bd_rate,
    filter_manifest,
    gain_distribution,
    simulate,
    trace_rd_points,
)
from drskit.errors import IncompleteLog, MismatchedTraces, MissingRung, NoOverlap, TooFewPoints
from drskit.ladder import QualityLog
from drskit.rdmodel import RDCurve

R540 = (960, 540)
R720 = (1280, 720)
R1080 = (1920, 1080)


def log_from_array(scores, rungs, resolutions, content="c"):
    records = []
    for i in range(scores.shape[0]):
        for j, b in enumerate(rungs):
            for k, res in enumerate(resolutions):
                records.append((content, i, b, res, scores[i, j, k]))
    return QualityLog.from_records(records)


def structured_log(rng, n_gops=40, rungs=(1000.0, 2000.0, 4000.0, 8000.0), resolutions=(R540, R720, R1080)):
    """Quality increases with bitrate; per-resolution offsets vary per GOP."""
    n_r = len(rungs)
    base = 3.0 + 5.0 * np.log10(np.asarray(rungs) / 800.0)  # increasing in rung
    scores = np.empty((n_gops, n_r, len(resolutions)))
    for k in range(len(resolutions)):
        offset = rng.normal(0, 0.4, (n_gops, 1))
        scores[:, :, k] = base[None, :] + offset + rng.normal(0, 0.15, (n_gops, n_r))
    return log_from_array(np.clip(scores, 0, 10), rungs, resolutions)


class TestSimulate:
    def test_single_resolution_reproduces_static_scores(self):
        rng = np.random.default_rng(0)
        log = structured_log(rng)
        ladder = {b: [R720] for b in log.rungs}
        trace = simulate(log, ladder)
        k = log.res_index(R720)
        assert np.array_equal(trace.chosen_score, log.scores[:, :, k])
        assert trace.chosen_res.shape == (log.n_gops, len(log.rungs))

    def test_alternating_winner_hand_check(self):
        n = 10
        scores = np.zeros((n, 1, 2))
        scores[0::2, 0, 0] = 6.0  # 540p wins even GOPs
        scores[0::2, 0, 1] = 4.0
        scores[1::2, 0, 0] = 4.0  # 720p wins odd GOPs
        scores[1::2, 0, 1] = 6.0
        log = log_from_array(scores, (1000.0,), (R540, R720))
        trace = simulate(log, {1000.0: [R540, R720]}, granularity_gops=1)
        picked = [log.resolutions[i] for i in trace.chosen_res[:, 0]]
        assert picked == [R540, R720] * 5
        assert trace.per_rung_mean[0] == pytest.approx(6.0)
        assert trace.flips[0] == n - 1

    def test_window_collapse_to_single_decision(self):
        rng = np.random.default_rng(1)
        log = structured_log(rng, n_gops=30)
        trace = simulate(log, {b: [R540, R720, R1080] for b in log.rungs}, granularity_gops=30)
        for j, b in enumerate(log.rungs):
            totals = log.scores[:, j, :].sum(axis=0)
            assert len(set(trace.chosen_res[:, j])) == 1
            chosen = trace.chosen_res[0, j]
            assert totals[chosen] == pytest.approx(totals.max())

    def test_window_sum_beats_per_gop_choice_never(self):
        # Coarser windows can only do worse or equal in mean quality.
        rng = np.random.default_rng(2)
        log = structured_log(rng, n_gops=24)
        ladder = {b: [R540, R720, R1080] for b in log.rungs}
        fine = simulate(log, ladder, granularity_gops=1)
        coarse = simulate(log, ladder, granularity_gops=8)
        assert np.all(fine.per_rung_mean >= coarse.per_rung_mean - 1e-12)

    def test_drs_dominates_every_static_choice(self):
        rng = np.random.default_rng(3)
        log = structured_log(rng)
        ladder = {b: [R540, R720, R1080] for b in log.rungs}
        trace = simulate(log, ladder)
        for res in (R540, R720, R1080):
            static = simulate(log, {b: [res] for b in log.rungs})
            assert np.all(trace.per_rung_mean >= static.per_rung_mean - 1e-12)

    def test_adding_representation_never_hurts(self):
        rng = np.random.default_rng(4)
        log = structured_log(rng)
        small = simulate(log, {b: [R540, R720] for b in log.rungs})
        big = simulate(log, {b: [R540, R720, R1080] for b in log.rungs})
        assert np.all(big.per_rung_mean >= small.per_rung_mean - 1e-12)

    def test_missing_rung_in_ladder(self):
        rng = np.random.default_rng(5)
        log = structured_log(rng)
        ladder = {b: [R720] for b in log.rungs[:-1]}
        with pytest.raises(MissingRung):
            simulate(log, ladder)

    def test_incomplete_log(self):
        scores = np.full((4, 1, 2), 5.0)
        records = []
        for i in range(4):
            for k, res in enumerate((R540, R720)):
                if not (i == 2 and k == 1):
                    records.append(("c", i, 1000.0, res, scores[i, 0, k]))
        log = QualityLog.from_records(records)
        with pytest.raises(IncompleteLog):
            simulate(log, {1000.0: [R540, R720]})


class TestFilterManifest:
    def entries_from_bundled_ladder(self):
        with resources.files("drskit.data").joinpath("sports_ladder.json").open() as fh:
            doc = json.load(fh)
        entries = []
        for rung in doc["dynamic_optimized"]["rungs"]:
            for res in rung["resolutions"]:
                b = float(rung["bitrate_kbps"])
                res = tuple(res)
                score = 5.0 + 0.001 * b - 0.1 * (res == (1280, 720))
                entries.append(ManifestEntry(b, res, f"seg0/{int(b)}_{res[0]}x{res[1]}.m4s", score))
        static = [float(r["bitrate_kbps"]) for r in doc["baseline"]["rungs"]]
        return entries, static

    def test_bundled_augmented_ladder_filters_12_to_8(self):
        entries, static = self.entries_from_bundled_ladder()
        assert len(entries) == 12
        manifest = filter_manifest(0, entries, static)
        assert len(manifest.entries) == 8
        assert [e.bitrate_kbps for e in manifest.entries] == sorted(static)

    def test_idempotent(self):
        entries, static = self.entries_from_bundled_ladder()
        once = filter_manifest(0, entries, static)
        twice = filter_manifest(0, once.entries, static)
        assert once == twice

    def test_single_entry_per_rung_is_identity(self):
        entries = [ManifestEntry(1000.0, R540, "a", 5.0), ManifestEntry(2000.0, R720, "b", 6.0)]
        manifest = filter_manifest(3, entries, [1000.0, 2000.0])
        assert manifest.entries == tuple(entries)
        assert manifest.segment_index == 3

    def test_tie_keeps_lower_resolution(self):
        entries = [
            ManifestEntry(1000.0, R720, "hi", 5.0),
            ManifestEntry(1000.0, R540, "lo", 5.0),
        ]
        manifest = filter_manifest(0, entries, [1000.0])
        assert manifest.entries[0].resolution == R540

    def test_missing_rung(self):
        with pytest.raises(MissingRung):
            filter_manifest(0, [ManifestEntry(1000.0, R540, "a", 5.0)], [1000.0, 2000.0])


def curve(pairs):
    return RDCurve.from_samples(R720, pairs)


class TestBdRate:
    def test_identity_is_zero(self):
        c = curve([(1000, 3.0), (2000, 5.0), (4000, 7.0), (8000, 8.5)])
        res = bd_rate(c, c)
        assert abs(res.bd_rate_percent) <= 1e-9
        assert abs(res.bd_quality) <= 1e-9

    def test_rate_scaling_law(self):
        pairs = [(1000, 3.0), (2000, 5.0), (4000, 7.0), (8000, 8.5)]
        anchor = curve(pairs)
        test = curve([(b * 1.25, q) for b, q in pairs])
        res = bd_rate(anchor, test)
        assert res.bd_rate_percent == pytest.approx(25.0, abs=0.1)

    def test_quality_shift_law(self):
        pairs = [(1000, 3.0), (2000, 5.0), (4000, 7.0), (8000, 8.5)]
        anchor = curve(pairs)
        test = curve([(b, q + 0.5) for b, q in pairs])
        res = bd_rate(anchor, test)
        assert res.bd_quality == pytest.approx(0.5, abs=1e-6)

    def test_approximate_antisymmetry(self):
        a = curve([(1000, 3.0), (2000, 5.0), (4000, 7.0), (8000, 8.5)])
        b = curve([(1100, 3.4), (2100, 5.3), (4200, 7.1), (8400, 8.8)])
        ab = bd_rate(a, b).bd_rate_percent
        ba = bd_rate(b, a).bd_rate_percent
        assert (1 + ab / 100.0) * (1 + ba / 100.0) == pytest.approx(1.0, abs=5e-3)

    def test_too_few_points(self):
        c3 = curve([(1000, 3.0), (2000, 5.0), (4000, 7.0)])
        c4 = curve([(1000, 3.0), (2000, 5.0), (4000, 7.0), (8000, 8.5)])
        with pytest.raises(TooFewPoints):
            bd_rate(c3, c4)

    def test_no_overlap(self):
        a = curve([(1000, 1.0), (2000, 2.0), (4000, 3.0), (8000, 4.0)])
        b = curve([(1000, 6.0), (2000, 7.0), (4000, 8.0), (8000, 9.0)])
        with pytest.raises(NoOverlap):
            bd_rate(a, b)

    def test_dominating_trace_has_nonpositive_bd_rate(self):
        rng = np.random.default_rng(6)
        log = structured_log(rng, n_gops=60)
        baseline = simulate(log, {b: [R720] for b in log.rungs})
        drs = simulate(log, {b: [R540, R720, R1080] for b in log.rungs})
        res = bd_rate(trace_rd_points(baseline), trace_rd_points(drs))
        assert res.bd_quality >= 0.0
        assert res.bd_rate_percent <= 0.0


class TestGainDistribution:
    def test_identical_traces(self):
        rng = np.random.default_rng(7)
        log = structured_log(rng)
        t = simulate(log, {b: [R720] for b in log.rungs})
        stats = gain_distribution(t, t, log.rungs[0])
        assert stats.mean == 0.0 and stats.median == 0.0
        assert np.all(stats.deltas == 0.0)

    def test_superset_ladder_nonnegative_gains(self):
        rng = np.random.default_rng(8)
        log = structured_log(rng)
        baseline = simulate(log, {b: [R720] for b in log.rungs})
        drs = simulate(log, {b: [R540, R720, R1080] for b in log.rungs})
        for b in log.rungs:
            stats = gain_distribution(baseline, drs, b)
            assert np.all(stats.deltas >= -1e-12)

    def test_hand_computed_stats(self):
        scores_base = np.array([[[5.0]], [[5.0]], [[5.0]], [[5.0]]])
        scores_drs = np.array([[[5.0]], [[5.0]], [[5.4]], [[5.6]]])
        base_log = log_from_array(scores_base, (1000.0,), (R720,))
        drs_log = log_from_array(scores_drs, (1000.0,), (R720,))
        t_base = simulate(base_log, {1000.0: [R720]})
        t_drs = simulate(drs_log, {1000.0: [R720]})
        stats = gain_distribution(t_base, t_drs, 1000.0)
        assert stats.deltas.tolist() == [0.0, 0.0, pytest.approx(0.4), pytest.approx(0.6)]
        assert stats.mean == pytest.approx(0.25)
        assert stats.median == pytest.approx(0.2)

    def test_histogram_layout(self):
        rng = np.random.default_rng(9)
        log = structured_log(rng)
        baseline = simulate(log, {b: [R540] for b in log.rungs})
        drs = simulate(log, {b: [R540, R1080] for b in log.rungs})
        stats = gain_distribution(baseline, drs, log.rungs[1])
        left, right, counts = stats.histogram(bins=10)
        assert len(left) == len(right) == len(counts) == 10
        assert counts.sum() == log.n_gops

    def test_mismatched_traces(self):
        rng = np.random.default_rng(10)
        log_a = structured_log(rng, n_gops=10)
        log_b = structured_log(rng, n_gops=12)
        ta = simulate(log_a, {b: [R720] for b in log_a.rungs})
        tb = simulate(log_b, {b: [R720] for b in log_b.rungs})
        with pytest.raises(MismatchedTraces):
            gain_distribution(ta, tb, log_a.rungs[0])
        with pytest.raises(MismatchedTraces):
            gain_distribution(ta, ta, 123.0)


# Ties of -0.0 and 0.0, NaN, infinities and a few repeated values.
GAIN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.5]),
    st.floats(allow_nan=False, width=64),
)


def gain_trace(scores) -> DrsTrace:
    scores = np.asarray(scores, dtype=float).reshape(-1, 1)
    return DrsTrace(
        rungs=(1000.0,),
        resolutions=(R720,),
        gop_ids=tuple(("c", i) for i in range(len(scores))),
        granularity_gops=1,
        chosen_res=np.zeros(scores.shape, dtype=np.int64),
        chosen_score=scores,
        per_rung_mean=scores.mean(axis=0),
        flips=np.zeros(1, dtype=np.int64),
    )


@settings(max_examples=500, deadline=None)
@given(st.lists(GAIN_VALUES, min_size=1, max_size=40))
@example([-0.0])
@example([0.0, -0.0])
@example([-0.0, -0.0, 0.0])
@example([np.nan, 1.0])
def test_gain_statistics_are_numpys_bit_for_bit(deltas):
    d = np.array(deltas)
    with np.errstate(all="ignore"):
        # deltas - 0.0 keeps every value, -0.0 and NaN included.
        stats = gain_distribution(gain_trace(np.zeros(d.size)), gain_trace(d), 1000.0)
        want_median, want_percentiles = np.median(d), {p: np.percentile(d, p) for p in stats.percentiles}
    assert sorted(want_percentiles) == [5, 25, 50, 75, 95]
    assert np.float64(stats.median).tobytes() == want_median.tobytes()
    for p, value in stats.percentiles.items():
        assert np.float64(value).tobytes() == want_percentiles[p].tobytes(), p
