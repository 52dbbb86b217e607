"""Acceptance suite: one test per release criterion.

Each test prints a `[criterion N] name: PASS/FAIL` line directly to the
terminal.  The parser fuzz budget defaults to the full 600 seconds and
can be shortened for development runs via DRSKIT_FUZZ_SECONDS.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from avcgen import BitWriter, simple_gop_stream
from drskit import io
from drskit.avc.bitio import BitReader
from drskit.avc.features import extract_gop_features
from drskit.drs import ManifestEntry, bd_rate, filter_manifest, simulate, trace_rd_points
from drskit.errors import ToolkitError
from drskit.ladder import LadderProblem, QualityLog, optimize_ladder_exhaustive, optimize_ladder_greedy
from drskit.protocol import CvConfig, cross_validate, greedy_feature_selection
from drskit.rcql import ScoredPoint, build_report
from drskit.rdmodel import RDCurve, eval_logistic, find_crossover, fit_logistic
from drskit.vqm import FeatureSchema, GopRecord, Hyperparams, model_to_dict, train
from test_ladder import ladder_objective

DATA = Path(__file__).parent / "data"
R540, R720, R1080 = (960, 540), (1280, 720), (1920, 1080)
FUZZ_SECONDS = float(os.environ.get("DRSKIT_FUZZ_SECONDS", "600"))


@contextmanager
def criterion(capsys, n, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {n}] {name}: FAIL", flush=True)
        raise
    else:
        with capsys.disabled():
            print(f"[criterion {n}] {name}: PASS", flush=True)


def logistic(b1, b2, b3, b4, x):
    return b2 + (b1 - b2) / (1.0 + np.exp(-(np.asarray(x, dtype=float) - b3) / abs(b4)))


def test_criterion_1_logistic_fit_recovery(capsys):
    with criterion(capsys, 1, "logistic fit recovery on 50 noiseless curves"):
        rng = np.random.default_rng(101)
        cases = []
        for _ in range(50):
            r_min = rng.uniform(200.0, 2500.0)
            # beta4 scales with r_min so the transition is visible inside the
            # sampled range and the low asymptote stays identifiable.
            truth = (
                rng.uniform(5.0, 9.5),                 # beta1
                rng.uniform(0.5, 4.0),                 # beta2
                rng.uniform(r_min / 2, r_min),         # beta3 planted inside the box
                r_min * rng.uniform(0.3, 1.2),         # beta4
            )
            xs = np.geomspace(r_min, r_min * 15.0, int(rng.integers(6, 10)))
            ys = logistic(*truth, xs)
            cases.append((RDCurve.from_samples(R1080, list(zip(xs, ys))), truth))

        start = time.perf_counter()
        fits = [fit_logistic(c) for c, _ in cases]
        elapsed = time.perf_counter() - start

        for params, (_, truth) in zip(fits, cases):
            got = (params.beta1, params.beta2, params.beta3, params.beta4)
            for g, t in zip(got, truth):
                assert abs(g - t) / abs(t) <= 1e-3, f"parameter {t} recovered as {g}"
            assert params.rss <= 1e-8
        assert elapsed < 1.0, f"50 fits took {elapsed:.3f}s (budget 1s)"


def test_criterion_2_crossover_oracle_equivalence(capsys):
    with criterion(capsys, 2, "cross-over equals dense-scan oracle on 100 pairs"):
        rng = np.random.default_rng(202)
        lo_kbps, hi_kbps = 500.0, 12000.0
        grid = np.linspace(lo_kbps, hi_kbps, 10**6)
        n_status = {"agree": 0}
        for _ in range(100):
            def draw():
                b2 = rng.uniform(0.0, 4.0)
                b1 = b2 + rng.uniform(0.5, 7.0)
                r_min = rng.uniform(400.0, 2400.0)
                b3 = rng.uniform(r_min / 2, r_min)
                b4 = rng.uniform(120.0, 2000.0)
                return fit_params(b1, b2, b3, b4)

            low, high = draw(), draw()
            res = find_crossover(low, high, (lo_kbps, hi_kbps))

            diff = eval_logistic(high, grid) - eval_logistic(low, grid)
            # Sign changes between consecutive nonzero grid values.
            nz = np.flatnonzero(diff != 0.0)
            signs = np.sign(diff[nz])
            flip = np.flatnonzero(signs[:-1] * signs[1:] < 0)
            flips = list(zip(grid[nz[flip]], grid[nz[flip + 1]]))
            oracle_status = {0: "none", 1: "found"}.get(len(flips), "multiple_resolved")
            assert res.status == oracle_status
            n_status["agree"] += 1
            if len(flips) == 1:
                oracle_root = 0.5 * (flips[0][0] + flips[0][1])
                assert abs(res.bitrate_kbps - oracle_root) <= 0.1
        assert n_status["agree"] == 100


def fit_params(b1, b2, b3, b4):
    from drskit.rdmodel import LogisticParams

    return LogisticParams(b1, b2, b3, b4, 0.0)


def test_criterion_3_bd_rate_laws(capsys):
    with criterion(capsys, 3, "BD identity, x1.25 rate shift, +0.5 quality shift"):
        rng = np.random.default_rng(303)
        base_sets = [
            [(1000.0, 3.0), (2000.0, 5.0), (4000.0, 7.0), (8000.0, 8.5)],
        ]
        for _ in range(4):
            xs = np.sort(rng.uniform(500, 12000, 6))
            ys = np.sort(rng.uniform(1, 9, 6))
            if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
                continue
            base_sets.append(list(zip(xs, ys)))

        for pairs in base_sets:
            anchor = RDCurve.from_samples(R720, pairs)
            ident = bd_rate(anchor, anchor)
            assert abs(ident.bd_rate_percent) <= 1e-9
            assert abs(ident.bd_quality) <= 1e-9

            shifted = RDCurve.from_samples(R720, [(b * 1.25, q) for b, q in pairs])
            assert bd_rate(anchor, shifted).bd_rate_percent == pytest.approx(25.0, abs=0.1)

            raised = RDCurve.from_samples(R720, [(b, q + 0.5) for b, q in pairs])
            assert bd_rate(anchor, raised).bd_quality == pytest.approx(0.5, abs=1e-6)


def _rcql_fixture(contents=("a", "b", "c"), inverted=False):
    points = []
    for idx, content in enumerate(contents):
        b3_lo, b3_hi = 500 + 40 * idx, 820 + 30 * idx
        for b in (1000.0, 1500.0, 2200.0, 3300.0, 5000.0, 7500.0):
            s_lo = 2 + 5.5 / (1 + np.exp(-(b - b3_lo) / 350.0))
            s_hi = 1 + 7.5 / (1 + np.exp(-(b - b3_hi) / 600.0))
            for res, s in ((R720, s_lo), (R1080, s_hi)):
                obj = -s if inverted else s
                points.append(ScoredPoint(content, res, b, float(s), float(obj)))
    return points


def test_criterion_4_rcql_oracle_behaviour(capsys):
    with criterion(capsys, 4, "RCQL oracle and anti-oracle behaviour"):
        report = build_report(_rcql_fixture())
        assert report.rows, "fixture produced no rows"
        for row in report.rows:
            assert row.acc_percent == 100.0
            assert row.ql_jod == 0.0
            assert row.delta_bitrate_kbps == 0.0
            assert row.rcql_s == 0.0

        inverted = build_report(_rcql_fixture(inverted=True))
        for row in inverted.rows:
            assert row.acc_percent == 0.0
        # Hand-computed QL: all matched-bitrate pairs are misranked, so QL
        # is the plain mean absolute subjective gap per (pair, content).
        points = _rcql_fixture(inverted=True)
        for row in inverted.rows:
            gaps = []
            for b in (1000.0, 1500.0, 2200.0, 3300.0, 5000.0, 7500.0):
                s = {p.resolution: p.subjective_jod for p in points if p.content_id == row.content_id and p.bitrate_kbps == b}
                gaps.append(abs(s[R1080] - s[R720]))
            assert row.ql_jod == pytest.approx(float(np.mean(gaps)), abs=1e-9)


def test_criterion_5_ladder_optimization(capsys):
    with criterion(capsys, 5, "ladder optimizers on 200 random instances"):
        rng = np.random.default_rng(505)
        start = time.perf_counter()
        equal = 0
        for _ in range(200):
            n_rungs = int(rng.integers(2, 4))
            n_res = int(rng.integers(2, 5))
            if n_rungs * n_res > 12:
                n_res = 12 // n_rungs
            rungs = tuple(1000.0 * (i + 1) for i in range(n_rungs))
            resolutions = ((640, 360), R540, R720, R1080)[:n_res]
            n_gops = int(rng.integers(3, 9))
            scores = rng.uniform(0, 10, (n_gops, n_rungs, n_res))
            records = [
                ("c", i, rungs[j], resolutions[k], scores[i, j, k])
                for i in range(n_gops)
                for j in range(n_rungs)
                for k in range(n_res)
            ]
            log = QualityLog.from_records(records)
            k_max = int(rng.integers(n_rungs, min(6, n_rungs * n_res) + 1))
            weights = {b: float(rng.uniform(0, 1)) for b in rungs}
            problem = LadderProblem.build(log, k_max=k_max, weights=weights)

            exact = optimize_ladder_exhaustive(problem)
            # Independent full enumeration.
            best = -np.inf
            for size in range(n_rungs, k_max + 1):
                for combo in itertools.combinations(problem.candidates, size):
                    if {c[0] for c in combo} != set(rungs):
                        continue
                    best = max(best, ladder_objective(problem, combo))
            assert exact.objective == pytest.approx(best, rel=1e-12)

            greedy = optimize_ladder_greedy(problem)
            assert greedy.objective >= (1 - 1 / np.e) * exact.objective - 1e-9
            if abs(greedy.objective - exact.objective) <= 1e-9 * max(1.0, exact.objective):
                equal += 1
        elapsed = time.perf_counter() - start
        rate = equal / 200.0
        with capsys.disabled():
            print(f"[criterion 5] greedy == exhaustive on {equal}/200 instances ({100 * rate:.1f}%)", flush=True)
        assert rate >= 0.90
        assert elapsed < 10.0, f"took {elapsed:.2f}s (budget 10s)"


BASELINE_RES = {
    1000.0: R540, 1500.0: R540, 2000.0: R720, 3000.0: R720,
    4000.0: R720, 6000.0: R1080, 8000.0: R1080, 10000.0: R1080,
}


def _structured_log(rng, n_gops=1800):
    rungs = tuple(sorted(BASELINE_RES))
    base = 2.5 + 5.2 * np.log10(np.asarray(rungs) / 700.0)
    scores = np.empty((n_gops, len(rungs), 3))
    for k in range(3):
        wobble = rng.normal(0, 0.35, (n_gops, 1))
        scores[:, :, k] = base[None, :] + wobble + rng.normal(0, 0.15, (n_gops, len(rungs)))
    scores = np.clip(scores, 0.0, 10.0)
    records = [
        ("c", i, b, res, scores[i, j, k])
        for i in range(n_gops)
        for j, b in enumerate(rungs)
        for k, res in enumerate((R540, R720, R1080))
    ]
    return QualityLog.from_records(records)


def test_criterion_6_drs_dominance_and_pipeline(capsys, tmp_path):
    with criterion(capsys, 6, "exact DRS dominance on 50 logs of 1800 GOPs + pipeline budget"):
        rng = np.random.default_rng(606)
        full = {b: [R540, R720, R1080] for b in BASELINE_RES}
        for _ in range(50):
            log = _structured_log(rng)
            drs_trace = simulate(log, full)
            for res in (R540, R720, R1080):
                static = simulate(log, {b: [res] for b in BASELINE_RES})
                assert np.all(drs_trace.per_rung_mean >= static.per_rung_mean)
            baseline_trace = simulate(log, {b: [r] for b, r in BASELINE_RES.items()})
            assert np.all(drs_trace.per_rung_mean >= baseline_trace.per_rung_mean)
            bd = bd_rate(trace_rd_points(baseline_trace), trace_rd_points(drs_trace))
            assert bd.bd_quality >= 0.0
            assert bd.bd_rate_percent <= 0.0

        # Full CLI pipeline on one 1800-GOP log inside the 30 s budget.
        log = _structured_log(np.random.default_rng(607))
        log_csv = tmp_path / "log.csv"
        io.write_quality_log(
            log_csv,
            (
                (c, g, b, log.resolutions[k], log.scores[i, j, k])
                for i, (c, g) in enumerate(log.gop_ids)
                for j, b in enumerate(log.rungs)
                for k in range(3)
            ),
        )
        baseline_json = tmp_path / "baseline.json"
        io.save_ladder(baseline_json, {b: [r] for b, r in BASELINE_RES.items()})
        start = time.perf_counter()
        env = dict(os.environ)
        for cmd in (
            ["select-ladder", "--log", str(log_csv), "--k", "12", "--out", str(tmp_path / "sel")],
            [
                "simulate", "--log", str(log_csv), "--ladder", str(tmp_path / "sel" / "ladder.json"),
                "--baseline", str(baseline_json), "--out", str(tmp_path / "sim"),
            ],
            [
                "report", "--baseline-trace", str(tmp_path / "sim" / "baseline_trace.json"),
                "--drs-trace", str(tmp_path / "sim" / "trace.json"), "--out", str(tmp_path / "rep"),
            ],
        ):
            proc = subprocess.run([sys.executable, "-m", "drskit.cli", *cmd], capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s (budget 30s)"
        bd = json.loads((tmp_path / "rep" / "bd_report.json").read_text())
        assert bd["bd_quality"] >= 0.0
        assert bd["bd_rate_percent"] <= 0.0


def _protocol_records(rng, n_contents=10, per_content=8, n_noise=3):
    schema = FeatureSchema(("signal",) + tuple(f"noise{i}" for i in range(n_noise)))
    records = []
    for c in range(n_contents):
        for g in range(per_content):
            signal = rng.uniform(0, 1)
            noise = rng.uniform(0, 1, n_noise)
            records.append(
                GopRecord(f"content{c}", g, 1000.0 * (g + 1), R720, (signal, *noise), label_jod=9.0 * signal + 0.5)
            )
    return records, schema


def test_criterion_7_vqm_protocol_integrity(capsys):
    with criterion(capsys, 7, "content-split CV integrity, GFS signal pickup, reproducibility"):
        rng = np.random.default_rng(707)
        records, schema = _protocol_records(rng)
        hp = Hyperparams(n_trees=10, max_depth=8)

        # 50 runs of 5-fold content-split CV; the leakage guard raising
        # InvariantError would fail the test.
        result = cross_validate(records, schema, CvConfig(folds=5, runs=50, seed=1), hp)
        assert len(result.rows) == 50 * 10  # every content scored once per run

        hits = 0
        for rep in range(100):
            rep_rng = np.random.default_rng(10_000 + rep)
            rep_records, rep_schema = _protocol_records(rep_rng, n_contents=6, per_content=8)
            sel = greedy_feature_selection(
                rep_records,
                rep_schema,
                CvConfig(folds=3, runs=1, seed=rep),
                hyperparams=Hyperparams(n_trees=8, max_depth=8),
                base_features=(),
                max_features=1,
            )
            if sel.selected and sel.selected[0] == "signal":
                hits += 1
        with capsys.disabled():
            print(f"[criterion 7] planted feature first in {hits}/100 repetitions", flush=True)
        assert hits >= 95

        m1 = train(records, schema, hp, seed=11)
        m2 = train(records, schema, hp, seed=11)
        assert model_to_dict(m1) == model_to_dict(m2)


def test_criterion_8_parser_conformance(capsys):
    with criterion(capsys, 8, f"Exp-Golomb exhaustive + fixtures + {FUZZ_SECONDS:.0f}s fuzz"):
        # Exhaustive unsigned round-trip over [0, 65535].
        w = BitWriter()
        for v in range(65536):
            w.write_ue(v)
        r = BitReader(w.write_trailing_bits().to_bytes())
        for v in range(65536):
            assert r.read_ue() == v
        # Exhaustive signed round-trip over [-32768, 32767].
        w = BitWriter()
        for v in range(-32768, 32768):
            w.write_se(v)
        r = BitReader(w.write_trailing_bits().to_bytes())
        for v in range(-32768, 32768):
            assert r.read_se() == v

        # Field-exact parameter-set round trips through the fixture writer.
        from avcgen import PpsSpec, SliceSpec, SpsSpec, build_pps, build_sps, build_stream, split_annexb
        from drskit.avc.features import parse_stream
        from drskit.avc.headers import parse_pps, parse_sps

        for width, height in ((640, 360), (960, 540), (1280, 720), (1920, 1080)):
            for poc in (0, 2):
                sps_spec = SpsSpec(width=width, height=height, pic_order_cnt_type=poc, log2_max_frame_num_minus4=2)
                sps = parse_sps(split_annexb(build_sps(sps_spec))[0])
                assert (sps.width, sps.height) == (width, height)
                assert sps.pic_order_cnt_type == poc
                assert sps.log2_max_frame_num_minus4 == 2
        for qp_init in (-26, -3, 0, 7, 25):
            for cabac in (0, 1):
                pps_spec = PpsSpec(pps_id=2, sps_id=0, pic_init_qp_minus26=qp_init, entropy_coding_mode=cabac)
                pps = parse_pps(split_annexb(build_pps(pps_spec))[0])
                assert pps.pic_parameter_set_id == 2
                assert pps.pic_init_qp_minus26 == qp_init
                assert pps.entropy_coding_mode_flag == cabac
        sps_spec, pps_spec = SpsSpec(), PpsSpec(pic_init_qp_minus26=-4)
        for slice_type, qp_delta, ref_idc in ((7, 5, 3), (0, -2, 1), (1, 0, 0), (2, 12, 2)):
            spec = SliceSpec(
                slice_type=slice_type, is_idr=slice_type == 7, pps=pps_spec, sps=sps_spec,
                frame_num=3 if slice_type != 7 else 0, slice_qp_delta=qp_delta, nal_ref_idc=ref_idc,
            )
            parsed = parse_stream(split_annexb(build_stream(sps_spec, pps_spec, [spec])))
            assert parsed[0].header.slice_type == slice_type
            assert parsed[0].header.slice_qp_delta == qp_delta
            assert parsed[0].header.slice_qp == 26 - 4 + qp_delta

        # Timed fuzz: random blobs and mutated valid streams must only ever
        # raise structured toolkit errors.
        rng = np.random.default_rng(808)
        base = bytearray(simple_gop_stream(n_gops=2, p_per_gop=10, nal_bytes_each=120))
        deadline = time.monotonic() + FUZZ_SECONDS
        iterations = 0
        while time.monotonic() < deadline:
            if iterations % 2 == 0:
                blob = rng.bytes(int(rng.integers(0, 4096)))
            else:
                blob = bytearray(base)
                for _ in range(int(rng.integers(1, 8))):
                    blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
                blob = bytes(blob)
            try:
                extract_gop_features(blob, fps=30.0)
            except ToolkitError:
                pass
            iterations += 1
        with capsys.disabled():
            print(f"[criterion 8] fuzz iterations completed: {iterations}", flush=True)
        assert iterations > 0


def test_criterion_9_packager_semantics(capsys):
    with criterion(capsys, 9, "bundled augmented ladder filters 12 -> 8, idempotent, tie rule"):
        from importlib import resources

        with resources.files("drskit.data").joinpath("sports_ladder.json").open() as fh:
            doc = json.load(fh)
        entries = []
        for rung in doc["dynamic_optimized"]["rungs"]:
            for res in rung["resolutions"]:
                b = float(rung["bitrate_kbps"])
                entries.append(ManifestEntry(b, tuple(res), f"{int(b)}_{res[0]}x{res[1]}", 4.0 + b / 5000.0 + res[1] / 10000.0))
        static = [float(r["bitrate_kbps"]) for r in doc["baseline"]["rungs"]]
        assert len(entries) == 12

        manifest = filter_manifest(0, entries, static)
        assert len(manifest.entries) == 8
        assert [e.bitrate_kbps for e in manifest.entries] == sorted(static)

        again = filter_manifest(0, manifest.entries, static)
        assert again == manifest

        tied = [
            ManifestEntry(2000.0, R720, "hi", 5.0),
            ManifestEntry(2000.0, R540, "lo", 5.0),
        ]
        assert filter_manifest(1, tied, [2000.0]).entries[0].resolution == R540
