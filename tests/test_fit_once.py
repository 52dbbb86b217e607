"""Each (content, resolution, score column) curve is fitted once.

``rcql.build_report`` and the ``crossover`` command reuse the fit of a
resolution that belongs to two pairs.  A counting wrapper over
``fit_logistic``, installed where each caller looks it up, checks that
every curve is fitted exactly once, and a test-local oracle that refits
both curves of every pair checks that the outputs are unchanged.
"""

import argparse
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from drskit import io, rcql, rdmodel
from drskit.cli import _mean_rd_curves, main
from drskit.curves import RDCurve, ScoredPoint

DATA = Path(__file__).parent / "data"
RESOLUTIONS = ((960, 540), (1280, 720), (1920, 1080))
BITRATES = (500.0, 800.0, 1200.0, 1800.0, 2700.0, 4000.0, 6000.0)


def scored_points() -> list[ScoredPoint]:
    """Three contents x three resolutions; noisy objective scores so that
    subjective and objective curves differ."""
    rng = np.random.default_rng(5)
    points = []
    for c, content in enumerate(("c1", "c2", "c3")):
        for k, res in enumerate(RESOLUTIONS):
            b3, b4, top = 600.0 + 250.0 * k + 40.0 * c, 300.0 + 200.0 * k, 6.0 + 1.2 * k
            for b in BITRATES:
                s = 1.0 + top / (1.0 + np.exp(-(b - b3) / b4))
                points.append(ScoredPoint(content, res, b, float(s), float(s + rng.normal(0.0, 0.3))))
    return points


def write_points(path: Path, points: list[ScoredPoint]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(io.SCORED_POINT_COLUMNS)
        for p in points:
            w.writerow([p.content_id, io.format_resolution(p.resolution), repr(p.bitrate_kbps),
                        repr(p.subjective_jod), repr(p.objective_score)])


def curve_key(curve: RDCurve) -> tuple:
    return curve.resolution, curve.bitrates.tobytes(), curve.qualities.tobytes()


@pytest.fixture
def count_fits(monkeypatch):
    """Replace ``fit_logistic`` in the given module; returns the list of
    fitted curve keys, one entry per call."""
    calls = []

    def install(module):
        real = rdmodel.fit_logistic

        def counting(curve, *args, **kwargs):
            calls.append(curve_key(curve))
            return real(curve, *args, **kwargs)

        monkeypatch.setattr(module, "fit_logistic", counting)
        return calls

    return install


def oracle_crossover(lo_curve: RDCurve, hi_curve: RDCurve, rng, lo_label: str, hi_label: str):
    """Both curves refitted for this pair alone, as before the reuse."""
    return rdmodel.find_crossover(
        rdmodel.fit_logistic(lo_curve), rdmodel.fit_logistic(hi_curve), rng, lo_label, hi_label
    )


class TestBuildReport:
    def test_each_curve_fitted_once(self, count_fits):
        points = scored_points()
        calls = count_fits(rcql)
        report = rcql.build_report(points)
        expected = {
            curve_key(RDCurve.from_samples(res, [(p.bitrate_kbps, getattr(p, column)) for p in points
                                                 if (p.content_id, p.resolution) == (content, res)]))
            for content in ("c1", "c2", "c3")
            for res in RESOLUTIONS
            for column in ("subjective_jod", "objective_score")
        }
        assert len(report.rows) == 6  # 3 contents x 2 adjacent pairs
        assert len(calls) == len(expected) == 18
        assert set(calls) == expected

    def test_rows_equal_per_pair_refit(self):
        points = scored_points()
        report = rcql.build_report(points)
        rows = iter(report.rows)
        both_found = 0
        for res_lo, res_hi in zip(RESOLUTIONS, RESOLUTIONS[1:]):
            for content in ("c1", "c2", "c3"):
                row = next(rows)
                lo = sorted((p for p in points if (p.content_id, p.resolution) == (content, res_lo)),
                            key=lambda p: p.bitrate_kbps)
                hi = sorted((p for p in points if (p.content_id, p.resolution) == (content, res_hi)),
                            key=lambda p: p.bitrate_kbps)
                rng = (max(lo[0].bitrate_kbps, hi[0].bitrate_kbps), min(lo[-1].bitrate_kbps, hi[-1].bitrate_kbps))
                labels = io.format_resolution(res_lo), io.format_resolution(res_hi)
                fits, xovers = [], []
                for column in ("subjective_jod", "objective_score"):
                    curves = [RDCurve.from_samples(r, [(p.bitrate_kbps, getattr(p, column)) for p in recs])
                              for r, recs in ((res_lo, lo), (res_hi, hi))]
                    fits.append([rdmodel.fit_logistic(c) for c in curves])
                    xovers.append(oracle_crossover(*curves, rng, *labels))
                subj_x, obj_x = xovers
                assert (row.content_id, row.range_lo, row.range_hi) == (content, *rng)
                assert (row.subj_status, row.subj_xover_kbps) == (subj_x.status, subj_x.bitrate_kbps)
                assert (row.obj_status, row.obj_xover_kbps) == (obj_x.status, obj_x.bitrate_kbps)
                assert row.delta_bitrate_kbps == rcql.delta_bitrate(subj_x, obj_x)
                if subj_x.has_bitrate and obj_x.has_bitrate:
                    both_found += 1
                    subj_lo, subj_hi = fits[0]
                    assert row.rcql_s == rcql.rcql_s(subj_lo, subj_hi, subj_x.bitrate_kbps, obj_x.bitrate_kbps)
        assert next(rows, None) is None
        assert both_found > 0


class TestCrossoverCommand:
    @pytest.mark.parametrize(
        "source, column, n_curves",
        [("scored", "subjective_jod", 9), ("scored", "objective_score", 9), ("log", None, 3)],
    )
    def test_each_curve_fitted_once_and_output_equals_refit(self, tmp_path, count_fits, source, column, n_curves):
        if source == "scored":
            path = tmp_path / "scores.csv"
            write_points(path, scored_points())
            argv = ["--scored-points", path, "--column", column]
            args = argparse.Namespace(quality_log=None, scored_points=path, column=column, units="kbps")
        else:
            path = DATA / "synthetic_quality_log.csv"
            argv = ["--quality-log", path]
            args = argparse.Namespace(quality_log=path, units="kbps")
        curves = _mean_rd_curves(args)

        calls = count_fits(rdmodel)
        assert main([str(a) for a in ["crossover", *argv, "--out", tmp_path / "xo"]]) == 0
        expected = {curve_key(c) for per_res in curves.values() for c in per_res.values()}
        assert len(calls) == len(expected) == n_curves
        assert set(calls) == expected

        oracle = []
        for content in sorted(curves):
            res_list = sorted(curves[content], key=lambda r: r[0] * r[1])
            for lo_res, hi_res in zip(res_list, res_list[1:]):
                lo, hi = curves[content][lo_res], curves[content][hi_res]
                rng = (max(lo.r_min, hi.r_min), min(lo.bitrates[-1], hi.bitrates[-1]))
                x = oracle_crossover(lo, hi, rng, io.format_resolution(lo_res), io.format_resolution(hi_res))
                oracle.append({
                    "content_id": content, "lower_curve": x.lower_curve, "higher_curve": x.higher_curve,
                    "status": x.status, "bitrate_kbps": x.bitrate_kbps, "range_lo": x.range_lo,
                    "range_hi": x.range_hi, "n_crossings": x.n_crossings,
                })
        doc = json.loads((tmp_path / "xo" / "crossovers.json").read_text())
        assert doc == json.loads(json.dumps({"crossovers": oracle}))
