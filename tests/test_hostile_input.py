"""Hostile-input contract of the CLI.

Byte-level mutations of every input file kind (quality log, ladder JSON,
trace JSON, bandwidth samples, weights JSON, scored points, feature log,
Annex-B bitstream) are fed to the commands that read them.  Whatever the
bytes, a command may only succeed (0), reject the input (2) or find the
computation infeasible (3); an internal error (exit 4, with a traceback)
is a bug in the reader or the layer behind it.
"""

import contextlib
import csv
import io as stdio
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from avcgen import simple_gop_stream
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drskit.cli import main

DATA = Path(__file__).parent / "data"
LOG = DATA / "synthetic_quality_log.csv"
LADDER = DATA / "dynamic_ladder.json"
BASELINE = DATA / "baseline_ladder.json"
TRACE = DATA / "golden_trace.json"
# One session bandwidth per line, spread over the synthetic log's rungs.
BANDWIDTH = b"# session bandwidths (kbps)\n" + b"".join(b"%d\n" % b for b in range(800, 12001, 700))
WEIGHTS = b'{"1000.0": 0.05, "1500.0": 0.1, "2000.0": 0.15, "3000.0": 0.2, "4000.0": 0.2, "6000.0": 0.15, "8000.0": 0.1, "10000.0": 0.05}\n'


def scored_points_csv(seed=0) -> bytes:
    rng = np.random.default_rng(seed)
    out = stdio.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["content_id", "resolution", "bitrate_kbps", "subjective_jod", "objective_score"])
    for content, shift in (("a", 0.0), ("b", 150.0)):
        for res, b3, scale in (("1280x720", 500.0 + shift, 350.0), ("1920x1080", 800.0 + shift, 600.0)):
            for b in (600.0, 1000.0, 1500.0, 2200.0, 3300.0, 5000.0):
                s = 2.0 + 6.0 / (1.0 + np.exp(-(b - b3) / scale)) + rng.normal(0.0, 0.1)
                w.writerow([content, res, repr(b), repr(float(s)), repr(float(s + rng.normal(0.0, 0.2)))])
    return out.getvalue().encode()


def feature_log_csv(seed=0) -> bytes:
    rng = np.random.default_rng(seed)
    out = stdio.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["content_id", "gop_index", "bitrate_kbps", "width", "height", "f_signal", "f_noise", "label_jod"])
    for c in range(4):
        for g in range(5):
            signal, noise = (float(v) for v in rng.uniform(0.0, 1.0, 2))
            label = 8.0 * signal + 1.0
            w.writerow([f"content{c}", g, repr(1000.0 * (g + 1)), 1280, 720, repr(signal), repr(noise), repr(label)])
    return out.getvalue().encode()


# name -> (file name, original bytes, argv with None standing for the mutated file)
TARGETS = {
    "quality-log/select-ladder": ("log.csv", LOG.read_bytes(), ["select-ladder", "--log", None, "--k", "12"]),
    "quality-log/simulate": (
        "log.csv",
        LOG.read_bytes(),
        ["simulate", "--log", None, "--ladder", LADDER, "--baseline", BASELINE],
    ),
    "quality-log/analyze-gops": ("log.csv", LOG.read_bytes(), ["analyze-gops", "--log", None]),
    "quality-log/fit": ("log.csv", LOG.read_bytes(), ["fit", "--quality-log", None]),
    "bandwidth-samples/select-ladder": (
        "bandwidth.txt",
        BANDWIDTH,
        ["select-ladder", "--log", LOG, "--k", "12", "--bandwidth-samples", None],
    ),
    "weights/select-ladder": ("weights.json", WEIGHTS, ["select-ladder", "--log", LOG, "--k", "12", "--weights", None]),
    "ladder/select-ladder": (
        "ladder.json",
        LADDER.read_bytes(),
        ["select-ladder", "--log", LOG, "--k", "12", "--candidates", None],
    ),
    "ladder/simulate": ("ladder.json", LADDER.read_bytes(), ["simulate", "--log", LOG, "--ladder", None]),
    "trace/report": ("trace.json", TRACE.read_bytes(), ["report", "--baseline-trace", None, "--drs-trace", TRACE]),
    "bitstream/extract-features": (
        "clip.264",
        simple_gop_stream(n_gops=2, p_per_gop=9, nal_bytes_each=60, qp_delta=3),
        ["extract-features", None, "--fps", "10"],
    ),
    "scored-points/fit": ("points.csv", scored_points_csv(), ["fit", "--scored-points", None]),
    "scored-points/crossover": ("points.csv", scored_points_csv(), ["crossover", "--scored-points", None]),
    "scored-points/bench-rcql": ("points.csv", scored_points_csv(), ["bench-rcql", "--scored-points", None]),
    "feature-log/train": ("features.csv", feature_log_csv(), ["train", "--features", None, "--trees", "3"]),
    "feature-log/cv": (
        "features.csv",
        feature_log_csv(),
        ["cv", "--features", None, "--trees", "3", "--folds", "2", "--runs", "2"],
    ),
    "feature-log/gfs": (
        "features.csv",
        feature_log_csv(),
        ["gfs", "--features", None, "--trees", "3", "--folds", "2", "--runs", "2"],
    ),
}

# Tokens that turn a valid field into a hostile one.
TOKENS = [b",", b"\n", b'"', b"-", b"0", b"-1", b"nan", b"inf", b"-inf", b"1e999", b"{", b"]", b"null", b"\xff"]


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """One to three deletions, duplications, overwrites or truncations."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "duplicate", "overwrite", "truncate"]))
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 64)))
        if kind == "delete":
            data = data[:i] + data[j:]
        elif kind == "duplicate":
            data = data[:j] + data[i:j] + data[j:]
        elif kind == "overwrite":
            junk = draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=8))
            data = data[:i] + junk + data[i + len(junk) :]
        else:
            data = data[:i]
    return data


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_mutated_input_exits_0_2_or_3(target):
    filename, original, argv = TARGETS[target]

    @given(mutations(original))
    @settings(max_examples=100, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / filename
            path.write_bytes(data)
            args = [str(path if a is None else a) for a in argv] + ["--out", str(Path(tmp) / "out")]
            err = stdio.StringIO()
            with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
                code = main(args)
        assert code in (0, 2, 3), err.getvalue()
        assert "InternalError" not in err.getvalue()
        assert "Traceback" not in err.getvalue()

    check()


# Qualities whose squares overflow float64: well-formed numbers that no
# fit can use, so every command that fits rejects them (exit 2).
HUGE_QUALITIES = b"content_id,resolution,bitrate_kbps,subjective_jod,objective_score\n" + b"".join(
    b"a,%s,%d,%de200,%d\n" % (res, 1000 * i, i, i) for i in range(1, 5) for res in (b"1280x720", b"1920x1080")
)


@pytest.mark.parametrize("command", ["fit", "crossover", "bench-rcql"])
def test_overflowing_qualities_exit_2(command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.csv"
        path.write_bytes(HUGE_QUALITIES)
        err = stdio.StringIO()
        with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--scored-points", str(path), "--out", str(Path(tmp) / "out")])
    assert code == 2, err.getvalue()
    assert "NonFinite" in err.getvalue()
    assert "Traceback" not in err.getvalue()


# Qualities near 1e150: the squares still fit in float64, so every
# command that fits succeeds, quietly.
LARGE_QUALITIES = HUGE_QUALITIES.replace(b"e200,", b"e150,")


@pytest.mark.parametrize("command", ["fit", "crossover", "bench-rcql"])
def test_large_qualities_fit_without_warnings(command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.csv"
        path.write_bytes(LARGE_QUALITIES)
        err = stdio.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--scored-points", str(path), "--out", str(Path(tmp) / "out")])
    assert code == 0, err.getvalue()
    assert err.getvalue() == ""
    assert [str(w.message) for w in caught] == []


# A negative seed is a bad option (exit 2); numpy's SeedSequence would
# reject it with a ValueError deep inside the fit.
@pytest.mark.parametrize("target", ["feature-log/train", "feature-log/cv", "feature-log/gfs"])
def test_negative_seed_exits_2(target):
    filename, original, argv = TARGETS[target]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / filename
        path.write_bytes(original)
        args = [str(path if a is None else a) for a in argv] + ["--seed", "-1", "--out", str(Path(tmp) / "out")]
        err = stdio.StringIO()
        with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    assert code == 2, err.getvalue()
    assert "InvalidHyperparameter" in err.getvalue()
    assert "Traceback" not in err.getvalue()
