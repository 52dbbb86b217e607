import argparse
import csv
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from avcgen import simple_gop_stream
from drskit import io, trace_io
from drskit.cli import main
from drskit.drs import simulate
from drskit.rcql import build_report

DATA = Path(__file__).parent / "data"


def run_cli(*args):
    return main([str(a) for a in args])


def write_scored_points(path, objective="copy", resolutions=("1280x720", "1920x1080")):
    rows = []
    for content, (b3_lo, b3_hi) in (("a", (500, 800)), ("b", (520, 900))):
        for b in (1000.0, 1500.0, 2200.0, 3300.0, 5000.0, 7500.0):
            s_lo = 2 + 5.5 / (1 + np.exp(-(b - b3_lo) / 350.0))
            s_hi = 1 + 7.5 / (1 + np.exp(-(b - b3_hi) / 600.0))
            for res, s in zip(resolutions, (s_lo, s_hi)):
                obj = s if objective == "copy" else -s
                rows.append([content, res, repr(b), repr(float(s)), repr(float(obj))])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["content_id", "resolution", "bitrate_kbps", "subjective_jod", "objective_score"])
        w.writerows(rows)


def assert_numeric_cells(rows, skip):
    """Every cell of a CSV table (header first) outside the ``skip``
    columns is empty or a plain number."""
    header, *body = rows
    for row in body:
        for name, cell in zip(header, row):
            if name not in skip and cell:
                float(cell)  # raises on np.float64(...) and other non-numbers


def write_feature_csv(path, n_contents=4, per_content=10, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["content_id", "gop_index", "bitrate_kbps", "width", "height", "f_signal", "f_noise", "label_jod"])
        for c in range(n_contents):
            for g in range(per_content):
                signal = rng.uniform(0, 1)
                noise = rng.uniform(0, 1)
                w.writerow([f"content{c}", g, repr(1000.0 * (g + 1)), 1280, 720,
                            repr(signal), repr(noise), repr(8.0 * signal + 1.0)])


class TestExtractFeatures:
    def test_valid_stream(self, tmp_path):
        stream = tmp_path / "clip.264"
        stream.write_bytes(simple_gop_stream(n_gops=2, p_per_gop=29, nal_bytes_each=500))
        out = tmp_path / "features.csv"
        assert run_cli("extract-features", stream, "--fps", 30, "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["content_id"] == "clip"
        assert set(("content_id", "gop_index", "bitrate_kbps", "width", "height", "qp_mean")) <= set(rows[0])
        assert (tmp_path / "extract-features.run_config.json").exists()

    def test_no_idr_exit_code_and_message(self, tmp_path, capsys):
        from avcgen import PpsSpec, SliceSpec, SpsSpec, build_stream

        sps, pps = SpsSpec(), PpsSpec()
        stream = tmp_path / "noidr.264"
        stream.write_bytes(build_stream(sps, pps, [SliceSpec(slice_type=0, pps=pps, sps=sps, frame_num=1)]))
        out = tmp_path / "features.csv"
        code = run_cli("extract-features", stream, "--fps", 30, "--out", out)
        assert code == 2
        assert "NoIdrFound" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gop_seconds", ["inf", "-inf", "nan", "1e308"])
    def test_non_finite_gop_length_exits_2(self, tmp_path, capsys, gop_seconds):
        stream = tmp_path / "clip.264"
        stream.write_bytes(simple_gop_stream(n_gops=1, p_per_gop=29, nal_bytes_each=100))
        out = tmp_path / "features.csv"
        assert run_cli("extract-features", stream, "--fps", 30, f"--gop-seconds={gop_seconds}", "--out", out) == 2
        err = capsys.readouterr().err
        assert "error: MalformedSyntax" in err
        assert "Traceback" not in err

    def test_gop_length_mismatch_is_reported(self, tmp_path, capsys):
        # --gop-seconds feeds only this counter: a 61-frame GOP at 60 fps is not 1 s long.
        stream = tmp_path / "clip.264"
        stream.write_bytes(simple_gop_stream(n_gops=1, p_per_gop=60, nal_bytes_each=100))
        assert run_cli("extract-features", stream, "--fps", 60, "--out", tmp_path / "features.csv") == 0
        assert "gop_length_mismatches=1" in capsys.readouterr().out

    def test_empty_file(self, tmp_path, capsys):
        stream = tmp_path / "empty.264"
        stream.write_bytes(b"")
        out = tmp_path / "features.csv"
        assert run_cli("extract-features", stream, "--fps", 30, "--out", out) == 2
        assert "EmptyInput" in capsys.readouterr().err
        assert not out.exists()


class TestBenchRcql:
    def test_oracle_objective(self, tmp_path):
        points_csv = tmp_path / "scores.csv"
        write_scored_points(points_csv)
        out = tmp_path / "rcql"
        assert run_cli("bench-rcql", "--scored-points", points_csv, "--out", out) == 0
        report = json.loads((out / "rcql_report.json").read_text())
        assert report["srocc"] == pytest.approx(1.0)
        for row in report["rows"]:
            assert row["acc_percent"] == 100.0
            assert row["ql_jod"] == 0.0
        with open(out / "rcql_rows.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "pair", "content_id", "delta_bitrate_kbps", "rcql_s", "rcql_avg", "acc_percent", "ql_jod",
            "subj_status", "obj_status", "subj_xover_kbps", "obj_xover_kbps", "range_lo", "range_hi",
            "endpoint_fallback",
        ]
        assert len(rows) == 1 + len(report["rows"])
        assert_numeric_cells(rows, skip=("pair", "content_id", "subj_status", "obj_status"))
        assert (out / "rcql_pairs.csv").exists()

    def test_matches_library_exactly(self, tmp_path):
        points_csv = tmp_path / "scores.csv"
        write_scored_points(points_csv)
        out = tmp_path / "rcql"
        run_cli("bench-rcql", "--scored-points", points_csv, "--out", out)
        cli_doc = json.loads((out / "rcql_report.json").read_text())
        lib_doc = build_report(io.load_scored_points(points_csv)).to_dict()
        assert cli_doc == json.loads(json.dumps(lib_doc))

    @pytest.mark.parametrize("tie_eps", ["nan", "-1", "-0.5"])
    def test_bad_tie_eps_exits_2(self, tmp_path, capsys, tie_eps):
        points_csv = tmp_path / "scores.csv"
        write_scored_points(points_csv)
        assert run_cli("bench-rcql", "--scored-points", points_csv, "--tie-eps", tie_eps, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "error: InvalidRange" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("pairs", ["1280x720:1920x1080,1920x1080:1280x720", "1280x720:1280x720"])
    def test_repeated_or_self_pair_exits_2(self, tmp_path, capsys, pairs):
        points_csv = tmp_path / "scores.csv"
        write_scored_points(points_csv)
        assert run_cli("bench-rcql", "--scored-points", points_csv, "--pairs", pairs, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "error: InputError" in err
        assert "Traceback" not in err

    def test_schema_error_reports_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("content_id,resolution,bitrate_kbps,subjective_jod,objective_score\n" "a,1280x720,xxx,1.0,1.0\n")
        assert run_cli("bench-rcql", "--scored-points", bad, "--out", tmp_path / "o") == 2
        assert "row 2" in capsys.readouterr().err


class TestFitAndCrossover:
    def test_fit_outputs(self, tmp_path):
        points_csv = tmp_path / "scores.csv"
        write_scored_points(points_csv)
        out = tmp_path / "fits"
        assert run_cli("fit", "--scored-points", points_csv, "--out", out) == 0
        doc = json.loads((out / "fits.json").read_text())
        assert len(doc["fits"]) == 4  # 2 contents x 2 resolutions
        for f in doc["fits"]:
            assert set(f) == {"content_id", "resolution", "n_points", "beta1", "beta2", "beta3", "beta4", "rss"}
            assert f["beta4"] > 0
            assert f["beta1"] >= f["beta2"]

    def test_fit_overflowing_qualities_exit_code(self, tmp_path):
        # The squared qualities overflow float64; 1e150 would still fit.
        points_csv = tmp_path / "huge.csv"
        points_csv.write_text(
            "content_id,resolution,bitrate_kbps,subjective_jod,objective_score\n"
            + "".join(f"a,1920x1080,{1000 * i},{i}e200,{i}\n" for i in range(1, 5))
        )
        result = subprocess.run(
            [sys.executable, "-m", "drskit.cli", "fit", "--scored-points", str(points_csv), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert "NonFinite" in result.stderr and "overflows" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "bitrates",
        [("1", "1e300", "1.5e308", "1.7e308"), ("5e-324", "1e-323", "1.5e-323", "2e-323")],
        ids=["beta4-box-overflows", "r_min-half-underflows"],
    )
    def test_fit_bitrates_at_the_ends_of_float64_exit_code(self, tmp_path, capsys, bitrates):
        points_csv = tmp_path / "extreme.csv"
        points_csv.write_text(
            "content_id,resolution,bitrate_kbps,subjective_jod,objective_score\n"
            + "".join(f"a,1920x1080,{b},{i},{i}\n" for i, b in enumerate(bitrates, start=1))
        )
        assert run_cli("fit", "--scored-points", points_csv, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "error: NonFinite" in err
        assert "Traceback" not in err

    def test_crossover_outputs(self, tmp_path):
        points_csv = tmp_path / "scores.csv"
        write_scored_points(points_csv)
        out = tmp_path / "xo"
        assert run_cli("crossover", "--scored-points", points_csv, "--out", out) == 0
        doc = json.loads((out / "crossovers.json").read_text())
        assert len(doc["crossovers"]) == 2
        for row in doc["crossovers"]:
            assert set(row) == {
                "content_id", "lower_curve", "higher_curve", "status", "bitrate_kbps", "range_lo", "range_hi",
                "n_crossings",
            }
            assert row["status"] in ("found", "none", "multiple_resolved")

    # content -> resolution -> bitrates: a's two curves share no bitrate.
    DISJOINT = {
        "a": {"640x360": (100.0, 200.0, 300.0, 400.0), "1280x720": (1000.0, 2000.0, 3000.0, 4000.0)},
        "b": {"640x360": (100.0, 400.0, 1000.0, 4000.0), "1280x720": (400.0, 1000.0, 2000.0, 4000.0)},
    }

    def write_disjoint_points(self, path, contents):
        rows = ["content_id,resolution,bitrate_kbps,subjective_jod,objective_score\n"]
        for content in contents:
            for k, (res, bitrates) in enumerate(self.DISJOINT[content].items()):
                for b in bitrates:
                    s = float(1.0 + 8.0 / (1.0 + np.exp(-(b - 500.0 - 800.0 * k) / (300.0 + 400.0 * k))))
                    rows.append(f"{content},{res},{b!r},{s!r},{s!r}\n")
        path.write_text("".join(rows))

    def test_crossover_skips_a_pair_without_a_common_range(self, tmp_path, capsys):
        points_csv = tmp_path / "scores.csv"
        self.write_disjoint_points(points_csv, ("a", "b"))
        out = tmp_path / "xo"
        assert run_cli("crossover", "--scored-points", points_csv, "--out", out) == 0
        doc = json.loads((out / "crossovers.json").read_text())
        assert [row["content_id"] for row in doc["crossovers"]] == ["b"]
        # A range the user gives is still checked.
        assert run_cli("crossover", "--scored-points", points_csv, "--range", 1000, 400, "--out", tmp_path / "r") == 2
        assert "error: InvalidRange: invalid search range [1000.0, 400.0]" in capsys.readouterr().err

    def test_crossover_without_any_common_range_exits_2(self, tmp_path, capsys):
        points_csv = tmp_path / "scores.csv"
        self.write_disjoint_points(points_csv, ("a",))
        assert run_cli("crossover", "--scored-points", points_csv, "--out", tmp_path / "xo") == 2
        assert "no resolution pair had two fittable curves" in capsys.readouterr().err

    def test_single_sample_group_has_no_curve(self, tmp_path):
        # As in the quality-log branch, a (content, resolution) group of
        # one sample is dropped, and the other groups' outputs stay as they were.
        points_csv = tmp_path / "scores.csv"
        write_scored_points(points_csv)
        stray_csv = tmp_path / "stray.csv"
        stray_csv.write_text(points_csv.read_text() + "a,640x360,1000.0,5.0,5.0\n")
        for command, name in (("fit", "fits.json"), ("crossover", "crossovers.json")):
            docs = []
            for k, path in enumerate((points_csv, stray_csv)):
                out = tmp_path / f"{command}{k}"
                assert run_cli(command, "--scored-points", path, "--out", out) == 0
                docs.append((out / name).read_bytes())
            assert docs[0] == docs[1]

    @pytest.mark.parametrize("pairs", ["1280x720:1920x1080,1920x1080:1280x720", "1280x720:1280x720"])
    def test_crossover_repeated_or_self_pair_exits_2(self, tmp_path, capsys, pairs):
        points_csv = tmp_path / "scores.csv"
        write_scored_points(points_csv)
        assert run_cli("crossover", "--scored-points", points_csv, "--pair", pairs, "--out", tmp_path / "xo") == 2
        err = capsys.readouterr().err
        assert "error: InputError" in err
        assert "Traceback" not in err

    def test_crossover_pair_order_is_irrelevant(self, tmp_path):
        # Equal pixel counts: the narrower resolution is the lower curve,
        # whichever way round the pair is written.
        points_csv = tmp_path / "scores.csv"
        write_scored_points(points_csv, resolutions=("1280x720", "720x1280"))
        docs = []
        for k, pair in enumerate(("1280x720:720x1280", "720x1280:1280x720")):
            out = tmp_path / f"xo{k}"
            assert run_cli("crossover", "--scored-points", points_csv, "--pair", pair, "--out", out) == 0
            docs.append((out / "crossovers.json").read_bytes())
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["crossovers"][0]["lower_curve"] == "720x1280"


class TestAnalyzeGops:
    def test_probability_tables(self, tmp_path):
        out = tmp_path / "gops"
        assert run_cli("analyze-gops", "--log", DATA / "synthetic_quality_log.csv", "--out", out) == 0
        doc = json.loads((out / "probability.json").read_text())
        probs = np.asarray(doc["probability"])
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        cum = np.asarray(doc["cumulative"])
        assert np.allclose(cum[:, -1], 1.0, atol=1e-9)


class TestSelectLadder:
    def test_greedy_selection(self, tmp_path):
        out = tmp_path / "sel"
        assert (
            run_cli(
                "select-ladder",
                "--log", DATA / "synthetic_quality_log.csv",
                "--candidates", DATA / "dynamic_ladder.json",
                "--k", 10,
                "--out", out,
            )
            == 0
        )
        doc = json.loads((out / "ladder_solution.json").read_text())
        assert len(doc["selected"]) <= 10
        assert len({e["bitrate_kbps"] for e in doc["selected"]}) == 8
        assert set(doc) == {"selected", "objective", "trace"}
        assert doc["trace"]
        for step in doc["trace"]:
            assert set(step) == {"bitrate_kbps", "resolution", "gain", "objective"}
        assert (out / "ladder.json").exists()

    def test_candidates_accept_a_solution(self, tmp_path):
        log = DATA / "synthetic_quality_log.csv"
        first = tmp_path / "first"
        assert run_cli("select-ladder", "--log", log, "--k", 12, "--out", first) == 0
        outputs = []
        for name in ("ladder_solution.json", "ladder.json"):
            out = tmp_path / name
            assert run_cli("select-ladder", "--log", log, "--candidates", first / name, "--k", 10, "--out", out) == 0
            outputs.append([(out / f).read_bytes() for f in ("ladder_solution.json", "ladder.json")])
        assert outputs[0] == outputs[1]

    def test_infeasible_k_exit_code(self, tmp_path, capsys):
        code = run_cli(
            "select-ladder",
            "--log", DATA / "synthetic_quality_log.csv",
            "--k", 2,
            "--out", tmp_path / "sel",
        )
        assert code == 3
        assert "InfeasibleK" in capsys.readouterr().err

    def test_exhaustive_solves_24_candidates(self, tmp_path):
        # 8 rungs x 3 resolutions: more candidates than one rung may hold.
        out = tmp_path / "sel"
        log = DATA / "synthetic_quality_log.csv"
        assert run_cli("select-ladder", "--log", log, "--k", 12, "--solver", "exhaustive", "--out", out) == 0
        exact = json.loads((out / "ladder_solution.json").read_text())
        assert run_cli("select-ladder", "--log", log, "--k", 12, "--out", tmp_path / "greedy") == 0
        greedy = json.loads((tmp_path / "greedy" / "ladder_solution.json").read_text())
        assert len(exact["selected"]) <= 12
        assert exact["objective"] >= greedy["objective"]

    def test_exhaustive_rung_over_the_limit_exit_code(self, tmp_path, capsys):
        log = tmp_path / "wide.csv"
        with open(log, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["content_id", "gop_index", "bitrate_kbps", "width", "height", "vqm_score"])
            for i in range(21):
                w.writerow(["c", 0, 1000.0, 64 * (i + 1), 36 * (i + 1), float(i)])
        code = run_cli("select-ladder", "--log", log, "--k", 2, "--solver", "exhaustive", "--out", tmp_path / "sel")
        assert code == 3
        err = capsys.readouterr().err
        assert "TooManyCandidates: rung 1000.0 has 21 candidates, more than 20" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k, code, error", [(-3, 2, "InputError"), (-1, 2, "InputError"), (0, 3, "InfeasibleK")])
    def test_k_below_the_rung_count_exit_code(self, tmp_path, capsys, k, code, error):
        # A negative k is a bad option; a k >= 0 that cannot cover every
        # rung is an infeasible selection.
        assert run_cli("select-ladder", "--log", DATA / "synthetic_quality_log.csv", "--k", k, "--out", tmp_path) == code
        err = capsys.readouterr().err
        assert f"error: {error}" in err
        assert "Traceback" not in err


class TestSimulate:
    def test_reproduces_golden_trace(self, tmp_path):
        out = tmp_path / "sim"
        assert (
            run_cli(
                "simulate",
                "--log", DATA / "synthetic_quality_log.csv",
                "--ladder", DATA / "dynamic_ladder.json",
                "--baseline", DATA / "baseline_ladder.json",
                "--granularity", 1,
                "--out", out,
            )
            == 0
        )
        assert (out / "trace.json").read_bytes() == (DATA / "golden_trace.json").read_bytes()
        rd_fit = json.loads((out / "rd_fit.json").read_text())
        assert set(rd_fit) == {"beta1", "beta2", "beta3", "beta4", "rss"}
        bd = json.loads((out / "bd_report.json").read_text())
        assert set(bd) == {"bd_rate_percent", "bd_quality", "quality_overlap", "log_rate_overlap"}
        assert bd["bd_quality"] >= 0.0
        assert bd["bd_rate_percent"] <= 0.0
        assert (out / "gains_summary.json").exists()
        assert list(out.glob("gain_hist_*.csv"))

    def test_matches_library_trace(self, tmp_path):
        out = tmp_path / "sim"
        run_cli(
            "simulate",
            "--log", DATA / "synthetic_quality_log.csv",
            "--ladder", DATA / "dynamic_ladder.json",
            "--out", out,
        )
        log = io.load_quality_log(DATA / "synthetic_quality_log.csv")
        ladder = io.load_ladder(DATA / "dynamic_ladder.json")
        trace = simulate(log, ladder, granularity_gops=1)
        cli_doc = json.loads((out / "trace.json").read_text())
        assert cli_doc == json.loads(json.dumps(trace_io.trace_to_dict(trace)))

    @pytest.mark.parametrize("granularity", [25, 10**6, 10**21])
    def test_window_wider_than_log_is_one_window(self, tmp_path, granularity):
        # The fixture log has 24 GOPs.
        def selections(g):
            out = tmp_path / f"sim{g}"
            assert run_cli("simulate", "--log", DATA / "synthetic_quality_log.csv",
                           "--ladder", DATA / "dynamic_ladder.json", "--granularity", g, "--out", out) == 0
            return json.loads((out / "trace.json").read_text())

        whole, wider = selections(24), selections(granularity)
        assert wider.pop("granularity_gops") == granularity
        whole.pop("granularity_gops")
        assert wider == whole


class TestReport:
    def test_report_from_traces(self, tmp_path):
        sim_out = tmp_path / "sim"
        run_cli(
            "simulate",
            "--log", DATA / "synthetic_quality_log.csv",
            "--ladder", DATA / "dynamic_ladder.json",
            "--baseline", DATA / "baseline_ladder.json",
            "--out", sim_out,
        )
        rep_out = tmp_path / "rep"
        assert (
            run_cli(
                "report",
                "--baseline-trace", sim_out / "baseline_trace.json",
                "--drs-trace", sim_out / "trace.json",
                "--out", rep_out,
            )
            == 0
        )
        assert (rep_out / "bd_report.json").read_bytes() == (sim_out / "bd_report.json").read_bytes()

    # Header fields a trace must not have; each is an InputError raised
    # before any selection is read, so no numpy warning comes first.
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(n_gops=0), "n_gops must be an integer >= 1, got 0"),
            (lambda doc: doc.update(granularity_gops=1.5), "granularity_gops must be an integer >= 1, got 1.5"),
            (lambda doc: doc["flips"].pop(), "flips must be a list of 8 integers"),
            (lambda doc: doc.update(flips=[[v] for v in doc["flips"]]), "flips must be a list of 8 integers"),
            (lambda doc: doc.update(flips=[float(v) for v in doc["flips"]]), "flips must be a list of 8 integers"),
        ],
        ids=["no-gops", "fractional-granularity", "short-flips", "2d-flips", "float-flips"],
    )
    def test_bad_trace_header_exits_2(self, tmp_path, capsys, edit, message):
        doc = json.loads((DATA / "golden_trace.json").read_text())
        edit(doc)
        bad = tmp_path / "bad_trace.json"
        bad.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                "report", "--baseline-trace", bad, "--drs-trace", DATA / "golden_trace.json", "--out", tmp_path / "rep"
            )
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: InputError: {bad}: {message}")
        assert err.count("\n") == 1


class TestModelCommands:
    def test_train_and_outputs(self, tmp_path):
        feats = tmp_path / "features.csv"
        write_feature_csv(feats)
        out = tmp_path / "model"
        assert run_cli("train", "--features", feats, "--out", out, "--trees", 10) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["format_version"] == 1
        summary = json.loads((out / "training_summary.json").read_text())
        assert summary["train_rmse"] < 1.0

    def test_cv_counting(self, tmp_path):
        feats = tmp_path / "features.csv"
        write_feature_csv(feats, n_contents=2, per_content=8)
        out = tmp_path / "cv"
        assert run_cli("cv", "--features", feats, "--folds", 2, "--runs", 1, "--out", out, "--trees", 4) == 0
        with open(out / "cv_rows.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "fold", "content_id", "n_records", "srocc", "rmse"]
        assert len(rows) == 1 + 2  # 2 contents x 2 folds x 1 run -> one row per held-out content
        assert_numeric_cells(rows, skip=("content_id",))

    def test_gfs_selects_signal(self, tmp_path):
        feats = tmp_path / "features.csv"
        write_feature_csv(feats)
        out = tmp_path / "gfs"
        assert (
            run_cli(
                "gfs",
                "--features", feats,
                "--folds", 2,
                "--runs", 1,
                "--out", out,
                "--trees", 8,
                "--base-features", "",
            )
            == 0
        )
        doc = json.loads((out / "gfs_result.json").read_text())
        assert doc["selected"][0] == "f_signal"
        assert set(doc) == {"objective", "selected", "steps"}
        assert set(doc["steps"][0]) == {"feature", "score", "candidate_scores"}

    @pytest.mark.parametrize("command", ["train", "cv", "gfs"])
    @pytest.mark.parametrize(
        "option",
        [
            ("--min-leaf", "0"),
            ("--max-depth", "-1"),
            ("--trees", "-1"),
            ("--trees", "0"),
            ("--feature-subsample", "nan"),
            ("--feature-subsample", "inf"),
            ("--feature-subsample", "0"),
        ],
        ids=lambda o: " ".join(o),
    )
    def test_bad_forest_option_exits_2(self, tmp_path, capsys, command, option):
        feats = tmp_path / "features.csv"
        write_feature_csv(feats)
        assert run_cli(command, "--features", feats, *option, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "error: InvalidHyperparameter" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("cv", "--folds", "1"),
            ("cv", "--runs", "0"),
            ("gfs", "--folds", "1"),
            ("gfs", "--runs", "0"),
            ("gfs", "--max-features", "-1"),
            ("gfs", "--epsilon", "nan"),
        ],
        ids=" ".join,
    )
    def test_bad_protocol_option_exits_2(self, tmp_path, capsys, argv):
        feats = tmp_path / "features.csv"
        write_feature_csv(feats, n_contents=6, per_content=5)  # enough contents for the default 5 folds
        assert run_cli(*argv, "--features", feats, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "error: InvalidHyperparameter" in err
        assert "Traceback" not in err

    def test_train_deterministic_across_runs(self, tmp_path):
        feats = tmp_path / "features.csv"
        write_feature_csv(feats)
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        run_cli("train", "--features", feats, "--out", out1, "--trees", 6, "--seed", 3)
        run_cli("train", "--features", feats, "--out", out2, "--trees", 6, "--seed", 3)
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()


BAD = object()  # stands for the malformed file in an argv
LOG_ARGS = ["--log", DATA / "synthetic_quality_log.csv"]


class TestReplay:
    def test_replay_reproduces_outputs(self, tmp_path):
        out = tmp_path / "sim"
        run_cli(
            "simulate",
            "--log", DATA / "synthetic_quality_log.csv",
            "--ladder", DATA / "dynamic_ladder.json",
            "--baseline", DATA / "baseline_ladder.json",
            "--out", out,
        )
        snapshot = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert run_cli("replay", out / "simulate.run_config.json") == 0
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert snapshot == after

    def test_replay_rewrites_the_echo_and_writes_none_of_its_own(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "sim"
        run_cli("simulate", *LOG_ARGS, "--ladder", DATA / "dynamic_ladder.json", "--out", out)
        echo = out / "simulate.run_config.json"
        config = tmp_path / "config.json"
        config.write_bytes(echo.read_bytes())
        echo.unlink()
        assert run_cli("replay", config) == 0
        assert echo.read_bytes() == config.read_bytes()
        assert list(tmp_path.rglob("replay.run_config.json")) == []

    # command: argv whose BAD input file is empty.  The simulate baseline
    # is read after the switching trace has been written.
    FAILING = {
        "fit": ["fit", "--scored-points", BAD],
        "crossover": ["crossover", "--scored-points", BAD],
        "bench-rcql": ["bench-rcql", "--scored-points", BAD],
        "analyze-gops": ["analyze-gops", "--log", BAD],
        "select-ladder": ["select-ladder", "--log", BAD, "--k", 10],
        "simulate": ["simulate", "--log", BAD, "--ladder", DATA / "dynamic_ladder.json"],
        "simulate-baseline": ["simulate", *LOG_ARGS, "--ladder", DATA / "dynamic_ladder.json", "--baseline", BAD],
        "train": ["train", "--features", BAD],
        "cv": ["cv", "--features", BAD],
        "gfs": ["gfs", "--features", BAD],
        "report": ["report", "--baseline-trace", BAD, "--drs-trace", DATA / "golden_trace.json"],
    }

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_failed_command_writes_no_echo(self, tmp_path, case):
        bad = tmp_path / "empty"
        bad.write_text("")
        argv = [bad if a is BAD else a for a in self.FAILING[case]]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", out) == 2
        assert not (out / f"{argv[0]}.run_config.json").exists()


MALFORMED_JSON = {
    # case: (file name, file text, argv)
    "ladder_syntax": (
        "ladder.json",
        '{"rungs": [{"bitrate_kbps": 1000,',
        ["select-ladder", *LOG_ARGS, "--k", 10, "--candidates", BAD],
    ),
    "rung_without_bitrate": (
        "ladder.json",
        json.dumps({"rungs": [{"resolutions": [[960, 540]]}]}),
        ["simulate", *LOG_ARGS, "--ladder", BAD],
    ),
    "solution_without_resolution": (
        "sol.json",
        json.dumps({"selected": [{"bitrate_kbps": 1000.0}]}),
        ["simulate", *LOG_ARGS, "--ladder", BAD],
    ),
    "truncated_trace": (
        "trace.json",
        (DATA / "golden_trace.json").read_text()[:2000],
        ["report", "--baseline-trace", DATA / "golden_trace.json", "--drs-trace", BAD],
    ),
    "weights_not_numbers": (
        "weights.json",
        json.dumps({"1000": "abc"}),
        ["select-ladder", *LOG_ARGS, "--k", 10, "--weights", BAD],
    ),
    "replay_config_without_argv": ("x.run_config.json", json.dumps({"tool": "drskit"}), ["replay", BAD]),
    # drskit writes no echo of a replay, so a config that replays is not its own.
    "replay_config_that_replays": (
        "x.run_config.json",
        json.dumps({"tool": "drskit", "argv": ["replay", "other.run_config.json"]}),
        ["replay", BAD],
    ),
}


class TestMalformedJson:
    @pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
    def test_exits_2_naming_the_file(self, tmp_path, capsys, case):
        filename, text, argv = MALFORMED_JSON[case]
        path = tmp_path / filename
        path.write_text(text)
        argv = [path if a is BAD else a for a in argv]
        if argv[0] != "replay":
            argv += ["--out", tmp_path / "out"]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "error: InputError" in err
        assert str(path) in err
        assert "Traceback" not in err


# Run in a fresh interpreter: prints the exit code of the given CLI call,
# the scipy and drskit modules loaded by the import of drskit.cli and that
# call, whether they loaded numpy and numpy.ma, and the process's thread
# count after the call (None without /proc).
IMPORT_PROBE = """
import json, os, sys
from drskit.cli import main
try:
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
except SystemExit as exc:  # --version
    code = exc.code
loaded = {p: sorted(m for m in sys.modules if m.split(".")[0] == p) for p in ("scipy", "drskit")}
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"code": code, "threads": threads, **loaded, **{m: m in sys.modules for m in ("numpy", "numpy.ma")}}))
"""

# The forest, the quality model and the Annex-B parser.
MODEL_AND_PARSER_MODULES = ("drskit.vqm", "drskit.forest", "drskit.avc")

SUBCOMMANDS = [
    "extract-features", "fit", "crossover", "bench-rcql", "analyze-gops", "select-ladder", "simulate", "train",
    "cv", "gfs", "report", "replay",
]

# Every public name the package exported when it imported all submodules.
PACKAGE_EXPORTS = {
    "BdResult", "CrossOverResult", "CvConfig", "DrsTrace", "FeatureSchema", "ForestModel", "GopRecord",
    "LadderProblem", "LadderSolution", "LogisticParams", "PchipCurve", "QualityLog", "RDCurve",
    "RDPoint", "RcqlReport", "ScoredPoint", "avc", "bd_rate", "best_resolution_probability", "build_report",
    "correlations", "cross_validate", "cumulative_probability", "delta_bitrate", "drs", "errors",
    "eval_logistic", "feature_importance", "filter_manifest", "find_crossover", "fit_logistic", "fit_pchip",
    "forest", "gain_distribution", "greedy_feature_selection", "io", "ladder", "optimize_ladder_exhaustive",
    "optimize_ladder_greedy", "predict", "protocol", "ranking_accuracy", "rcql", "rcql_avg", "rcql_s",
    "rdmodel", "simulate", "train", "vqm", "weights_from_bandwidth",
}


def option_table(parser):
    """Per subcommand: each action's option strings, dest, default,
    ``required``, choices, type and nargs (sorted by dest), and each
    mutually exclusive group's ``required`` and dests, as JSON values."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    table = {}
    for name, p in sub.choices.items():
        actions = [
            [a.option_strings, a.dest, a.default, a.required, a.choices and list(a.choices),
             getattr(a.type, "__name__", a.type), a.nargs]
            for a in p._actions
        ]
        groups = [[g.required, sorted(a.dest for a in g._group_actions)] for g in p._mutually_exclusive_groups]
        table[name] = {"actions": sorted(actions, key=lambda a: a[1]), "exclusive": groups}
    return json.loads(json.dumps(table))


class TestParser:
    def test_option_tables_unchanged(self):
        from drskit.cli import _build_parser

        expected = json.loads((DATA / "cli_options.json").read_text())
        assert sorted(expected) == sorted(SUBCOMMANDS)
        assert option_table(_build_parser()) == expected

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_runs(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: drskit {command} ")


def blas_env(threads):
    """This process's environment with ``OPENBLAS_NUM_THREADS`` set to
    ``threads``, or unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}


class TestImportBudget:
    def probe(self, *argv, openblas_threads=None):
        result = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *map(str, argv)],
            capture_output=True,
            text=True,
            check=True,
            env=blas_env(openblas_threads),
        )
        doc = json.loads(result.stdout.splitlines()[-1])
        assert doc["code"] == 0
        return doc

    @pytest.fixture(scope="class")
    def probe_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("import_probe")

    @pytest.fixture(scope="class")
    def probed(self, probe_dir):
        """The scipy and drskit modules each subcommand loads, probed once
        per command."""
        tmp = probe_dir
        points, features, stream = tmp / "scores.csv", tmp / "features.csv", tmp / "clip.264"
        write_scored_points(points)
        write_feature_csv(features)
        stream.write_bytes(simple_gop_stream(n_gops=2, p_per_gop=29, nal_bytes_each=500))
        log, ladder, golden = DATA / "synthetic_quality_log.csv", DATA / "dynamic_ladder.json", DATA / "golden_trace.json"
        forest = ["--folds", 2, "--runs", 1, "--trees", 3]
        argv = {
            "extract-features": ["extract-features", stream, "--fps", 30, "--out", tmp / "features_out.csv"],
            "fit": ["fit", "--scored-points", points],
            "crossover": ["crossover", "--scored-points", points],
            "bench-rcql": ["bench-rcql", "--scored-points", points],
            "analyze-gops": ["analyze-gops", "--log", log],
            "select-ladder": ["select-ladder", "--log", log, "--k", 10],
            "simulate": ["simulate", "--log", log, "--ladder", ladder, "--baseline", DATA / "baseline_ladder.json"],
            "train": ["train", "--features", features, "--trees", 3],
            "cv": ["cv", "--features", features, *forest],
            "gfs": ["gfs", "--features", features, *forest],
            "cv --runs 2": ["cv", "--features", features, *forest, "--runs", 2],
            "report": ["report", "--baseline-trace", golden, "--drs-trace", golden],
        }
        argv = {c: a if c == "extract-features" else [*a, "--out", tmp / c] for c, a in argv.items()}
        config = tmp / "bench-rcql.run_config.json"
        config.write_text(json.dumps({"tool": "drskit", "argv": [str(a) for a in argv["bench-rcql"]]}))
        argv["replay"] = ["replay", config]
        argv["--version"] = ["--version"]
        found = {}

        def modules_of(command, openblas_threads=None):
            key = command, openblas_threads
            if key not in found:
                found[key] = self.probe(*argv[command], openblas_threads=openblas_threads)
            return found[key]

        return modules_of

    @pytest.fixture(scope="class")
    def loaded(self, probed):
        """The scipy modules each subcommand loads."""
        return lambda command: probed(command)["scipy"]

    def test_every_subcommand_is_probed(self):
        from drskit.cli import _build_parser

        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(SUBCOMMANDS)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_command_loads_no_scipy(self, loaded, command):
        assert loaded(command) == []

    def test_cli_import_loads_no_scipy(self):
        assert self.probe()["scipy"] == []

    def test_version_loads_only_the_cli_and_its_readers(self, probed):
        assert probed("--version")["drskit"] == ["drskit", "drskit.cli", "drskit.errors", "drskit.io"]

    # Start-up and the bitstream path run without numpy; every command
    # that models, selects or simulates loads it.
    NUMPY_FREE = ("--version", "extract-features")

    @pytest.mark.parametrize("command", [*SUBCOMMANDS, "--version"])
    def test_only_the_bitstream_path_runs_without_numpy(self, probed, command):
        assert probed(command)["numpy"] == (command not in self.NUMPY_FREE)

    def test_cli_import_loads_no_numpy(self):
        assert self.probe()["numpy"] is False

    # main pins OpenBLAS to one thread before numpy loads, whatever the
    # environment asks for, so no command starts a BLAS thread pool.
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
    @pytest.mark.parametrize("openblas_threads", [None, "4"])
    @pytest.mark.parametrize("command", [*SUBCOMMANDS, "--version"])
    def test_every_command_ends_on_one_thread(self, probed, command, openblas_threads):
        doc = probed(command, openblas_threads)
        assert doc["threads"] == 1
        assert doc["numpy"] == (command not in self.NUMPY_FREE)

    @pytest.mark.parametrize(
        "command", ["--version", "select-ladder", "simulate", "report", "fit", "crossover", "bench-rcql"]
    )
    def test_command_loads_no_model_or_parser(self, probed, command):
        loaded = probed(command)["drskit"]
        assert "drskit.io" in loaded
        assert [m for m in loaded if m.startswith(MODEL_AND_PARSER_MODULES)] == []

    # Only simulate and report write or read traces.
    @pytest.mark.parametrize("command", [*SUBCOMMANDS, "--version"])
    def test_only_trace_commands_load_trace_io(self, probed, command):
        assert ("drskit.trace_io" in probed(command)["drskit"]) == (command in ("simulate", "report"))

    @pytest.mark.parametrize(
        "command, modules",
        [
            ("extract-features", ["drskit.avc"]),
            ("train", ["drskit.forest", "drskit.vqm"]),
            ("cv", ["drskit.forest", "drskit.vqm"]),
            ("gfs", ["drskit.forest", "drskit.vqm"]),
        ],
    )
    def test_model_and_parser_commands_load_them(self, probed, command, modules):
        loaded = probed(command)["drskit"]
        assert set(modules) <= set(loaded)

    def test_version_loads_no_concurrent_futures(self):
        probe = (
            "import sys\n"
            "from drskit.cli import main\n"
            "try:\n"
            "    main(['--version'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-1] == "[]"

    # The per-command checks below overlap test_command_loads_no_scipy and
    # read its probes; they stay under their own names.
    def test_select_ladder_loads_no_scipy(self, loaded):
        assert loaded("select-ladder") == []

    def test_fit_loads_no_scipy_stats(self, loaded):
        assert "scipy.stats" not in loaded("fit")
        assert "scipy.optimize" not in loaded("fit")

    def test_fit_loads_no_scipy_integrate(self, loaded):
        assert "scipy.integrate" not in loaded("fit")
        assert "scipy.optimize" not in loaded("fit")

    @pytest.mark.parametrize("command", ["fit", "crossover"])
    def test_fit_and_crossover_load_no_scipy(self, loaded, command):
        assert loaded(command) == []

    def test_simulate_loads_no_scipy(self, loaded, probe_dir):
        assert loaded("simulate") == []
        assert (probe_dir / "simulate" / "rd_fit.json").exists()

    @pytest.mark.parametrize("command", ["cv", "gfs"])
    def test_cv_and_gfs_load_no_scipy(self, loaded, command):
        assert loaded(command) == []

    # np.median and np.percentile load numpy.ma (about 15 ms); the CV
    # medians and the gain statistics do not use them.
    @pytest.mark.parametrize("command", ["train", "cv", "cv --runs 2", "gfs", "simulate", "report"])
    def test_model_commands_load_no_numpy_ma(self, probed, command):
        assert probed(command)["numpy.ma"] is False

    def test_report_loads_no_scipy(self, loaded):
        assert loaded("report") == []

    def test_package_exports_unchanged(self):
        import importlib

        import drskit

        assert set(drskit.__all__) == PACKAGE_EXPORTS
        for name in drskit.__all__:
            value = getattr(drskit, name)
            if name not in drskit._SUBMODULES:
                assert value is getattr(importlib.import_module(f"drskit.{drskit._EXPORTS[name]}"), name)
        with pytest.raises(AttributeError):
            drskit.no_such_name


class TestOneHomePerName:
    def test_public_names_are_listed_only_where_defined(self):
        """Each class or function in a module's ``__all__`` is defined in
        that module, and every other name listed there is bound in it."""
        import drskit

        stray = []
        for info in pkgutil.walk_packages(drskit.__path__, "drskit."):
            if info.ispkg:
                continue
            bound = vars(importlib.import_module(info.name))
            for name in bound.get("__all__", ()):
                value = bound.get(name)
                if name not in bound or (
                    (inspect.isclass(value) or inspect.isfunction(value)) and value.__module__ != info.name
                ):
                    stray.append(f"{info.name}.{name}")
        assert stray == []


def write_wide_feature_csv(path, n_records, seed):
    """A feature log of four uniform features, labelled by a sum of them."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 1.0, (n_records, 4))
    labels = 8.0 * features[:, 0] + features[:, 1:].sum(axis=1) + 1.0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["content_id", "gop_index", "bitrate_kbps", "width", "height", "f_0", "f_1", "f_2", "f_3", "label_jod"])
        for r, (f, label) in enumerate(zip(features.tolist(), labels.tolist())):
            w.writerow([f"content{r % 4}", r // 4, repr(1000.0 * (r // 4 + 1)), 1280, 720, *map(repr, f), repr(label)])


class TestBlasThreads:
    def test_training_bits_ignore_openblas_threads(self, tmp_path):
        """OpenBLAS splits a ddot of more than 10 000 elements across its
        threads, so each root's label sum of squares, and with it the
        feature importances, would change with the thread count.  With
        2 threads on 2 CPUs, this log's importances differ in their last
        bits unless the command pins one thread."""
        features = tmp_path / "features.csv"
        write_wide_feature_csv(features, 10_004, seed=1)
        outs = {}
        for threads in ("1", "2"):
            outs[threads] = out = tmp_path / f"threads{threads}"
            argv = ["train", "--features", features, "--trees", 3, "--max-depth", 3, "--out", out]
            subprocess.run(
                [sys.executable, "-m", "drskit.cli", *map(str, argv)],
                capture_output=True,
                check=True,
                env=blas_env(threads),
            )
        for name in ("model.json", "training_summary.json"):
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()


class TestSubprocessInterface:
    def test_exit_code_and_stderr_via_subprocess(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "drskit.cli", "extract-features", str(tmp_path / "missing.264"),
             "--fps", "30", "--out", str(tmp_path / "o.csv")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2  # missing input file is an input error
        assert "error:" in result.stderr

    def test_version_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "drskit.cli", "--version"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert "drskit" in result.stdout
