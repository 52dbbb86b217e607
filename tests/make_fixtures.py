"""Regenerate the checked-in CLI fixtures under tests/data/.

Run from the repository root:  PYTHONPATH=src python3 tests/make_fixtures.py
The golden trace is produced through the library so the CLI test can
assert byte-for-byte equivalence.  ``golden_outputs.json`` holds the
sha256 of every file that a fixed set of commands writes; regenerate it
only where a change of output is intended and reviewed.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
from avcgen import simple_gop_stream

DATA = Path(__file__).parent / "data"

RES = ((960, 540), (1280, 720), (1920, 1080))
RUNGS = (1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0, 10000.0)
N_GOPS = 24


def synthetic_scores():
    rng = np.random.default_rng(20240819)
    base = 2.5 + 5.5 * np.log10(np.asarray(RUNGS) / 700.0)
    scores = np.empty((N_GOPS, len(RUNGS), len(RES)))
    for k in range(len(RES)):
        wobble = rng.normal(0, 0.35, (N_GOPS, 1))
        scores[:, :, k] = base[None, :] + wobble + rng.normal(0, 0.12, (N_GOPS, len(RUNGS)))
    return np.clip(scores, 0.0, 10.0)


def write_quality_log(path: Path):
    scores = synthetic_scores()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["content_id", "gop_index", "bitrate_kbps", "width", "height", "vqm_score"])
        for i in range(N_GOPS):
            for j, b in enumerate(RUNGS):
                for k, res in enumerate(RES):
                    w.writerow(["demo", i, repr(b), res[0], res[1], repr(float(scores[i, j, k]))])


def copy_ladders():
    with resources.files("drskit.data").joinpath("sports_ladder.json").open() as fh:
        doc = json.load(fh)
    (DATA / "baseline_ladder.json").write_text(json.dumps(doc["baseline"], indent=2, sort_keys=True) + "\n")
    (DATA / "dynamic_ladder.json").write_text(json.dumps(doc["dynamic_optimized"], indent=2, sort_keys=True) + "\n")


def make_golden_trace():
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [
            sys.executable,
            "-m",
            "drskit.cli",
            "simulate",
            "--log",
            str(DATA / "synthetic_quality_log.csv"),
            "--ladder",
            str(DATA / "dynamic_ladder.json"),
            "--baseline",
            str(DATA / "baseline_ladder.json"),
            "--granularity",
            "1",
            "--out",
            tmp,
        ]
        subprocess.run(cmd, check=True, capture_output=True)
        shutil.copy(Path(tmp) / "trace.json", DATA / "golden_trace.json")


def golden_inputs() -> dict[str, bytes]:
    """The input files of the golden commands, by their relative path."""
    from test_hostile_input import feature_log_csv, scored_points_csv

    return {
        "log.csv": (DATA / "synthetic_quality_log.csv").read_bytes(),
        "dynamic_ladder.json": (DATA / "dynamic_ladder.json").read_bytes(),
        "baseline_ladder.json": (DATA / "baseline_ladder.json").read_bytes(),
        "points.csv": scored_points_csv(),
        "features.csv": feature_log_csv(),
        "clip.264": simple_gop_stream(n_gops=3, p_per_gop=9, nal_bytes_each=60, qp_delta=3),
    }


# Output directory -> argv, run in this order from one working directory.
# The switching commands are the ones that read the quality log.
SWITCHING_COMMANDS = {
    "analyze": ["analyze-gops", "--log", "log.csv"],
    "greedy": ["select-ladder", "--log", "log.csv", "--k", "12"],
    "exhaustive": ["select-ladder", "--log", "log.csv", "--solver", "exhaustive", "--k", "9"],
    "simulate": [
        "simulate", "--log", "log.csv", "--ladder", "dynamic_ladder.json", "--baseline", "baseline_ladder.json"
    ],
    "report": ["report", "--baseline-trace", "simulate/baseline_trace.json", "--drs-trace", "simulate/trace.json"],
}
MODEL_ARGS = ["--features", "features.csv", "--trees", "3"]
GOLDEN_COMMANDS = {
    **SWITCHING_COMMANDS,
    "fit": ["fit", "--scored-points", "points.csv"],
    "crossover": ["crossover", "--scored-points", "points.csv"],
    "rcql": ["bench-rcql", "--scored-points", "points.csv"],
    "features": ["extract-features", "clip.264", "--fps", "10"],
    "train": ["train", *MODEL_ARGS],
    "cv": ["cv", *MODEL_ARGS, "--folds", "2", "--runs", "2"],
    "gfs": ["gfs", *MODEL_ARGS, "--folds", "2", "--runs", "2"],
}


def output_digests(commands: dict[str, list[str]], inputs: dict[str, bytes], replay: str | None = None) -> dict:
    """sha256 of every file the commands write, keyed "<out dir>/<file>".

    The commands run in process from a fresh working directory with
    relative paths, so their run_config echoes are stable too.  With
    ``replay``, that directory's echo is replayed and its files are
    hashed again under "replay:<out dir>/<file>"."""
    from drskit.cli import main

    def digests(out: str, prefix: str = "") -> dict[str, str]:
        return {
            f"{prefix}{out}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out).iterdir())
        }

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(tmp)
        try:
            for name, data in inputs.items():
                Path(name).write_bytes(data)
            found = {}
            for out, argv in commands.items():
                target = f"{out}/clip.csv" if argv[0] == "extract-features" else out
                if main([*argv, "--out", target]) != 0:
                    raise RuntimeError(f"{argv[0]} failed")
                found.update(digests(out))
            if replay is not None:
                if main(["replay", f"{replay}/{commands[replay][0]}.run_config.json"]) != 0:
                    raise RuntimeError(f"replay of {replay} failed")
                found.update(digests(replay, "replay:"))
        finally:
            os.chdir(cwd)
    return found


def golden_outputs() -> dict[str, str]:
    return output_digests(GOLDEN_COMMANDS, golden_inputs(), replay="simulate")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    write_quality_log(DATA / "synthetic_quality_log.csv")
    copy_ladders()
    make_golden_trace()
    (DATA / "golden_outputs.json").write_text(json.dumps(golden_outputs(), indent=2, sort_keys=True) + "\n")
    print("fixtures written to", DATA)
