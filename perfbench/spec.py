"""Workload definitions shared by the driver, the generator, the checker
and the tracer.

Each workload is a fixed sequence of drskit CLI commands over inputs that
``gen.py`` writes from the benchmark seed.  The commands come in groups
(``switching``, ``crossover``, ``quality-model``), each with its own
inputs, checks and reference values; ``switching`` runs the first group,
``modelling`` the other two.  Sizes are chosen so that one pass takes
about 9 s (``switching``) or 22 s (``modelling``) on a 2-vCPU x86 VM,
about 1.8 s of it per command being interpreter start-up and imports,
with every command still spending its compute time in the layers its
group is meant to exercise.
"""

from __future__ import annotations

WORKLOADS = ("switching", "modelling")
GROUPS = {"switching": ("switching",), "modelling": ("crossover", "quality-model")}

# switching: quality log of one-second GOPs, 8 rungs x 3 resolutions.
SWITCHING_CONTENTS = 20
SWITCHING_GOPS_PER_CONTENT = 120
SWITCHING_RUNGS = (1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0, 10000.0)
SWITCHING_RESOLUTIONS = ((960, 540), (1280, 720), (1920, 1080))
SWITCHING_K = 12

# crossover: scored points, contents x 4 resolutions x 10 bitrates.
CROSSOVER_CONTENTS = 2
CROSSOVER_RESOLUTIONS = ((640, 360), (960, 540), (1280, 720), (1920, 1080))
CROSSOVER_BITRATES = (250.0, 400.0, 600.0, 900.0, 1350.0, 2000.0, 3000.0, 4500.0, 6750.0, 10000.0)

# quality-model: two Annex-B streams plus a labelled feature log.
ESCAPE_DENSE_GOPS = 6
ESCAPE_DENSE_FRAMES_PER_GOP = 30
ESCAPE_DENSE_SLICE_BYTES = 4000
HEADER_HEAVY_GOPS = 8
HEADER_HEAVY_FRAMES_PER_GOP = 30
HEADER_HEAVY_SLICES_PER_FRAME = 4
STREAM_FPS = 30
FEATURE_LOG_CONTENTS = 20
FEATURE_LOG_ROWS_PER_CONTENT = 10
TRAIN_TREES = 20
GFS_TREES = 10
MODEL_SEED = 7

# Column order of drskit's feature-log CSV (documented in the README's
# file formats); restated here so the generator does not import drskit.
FEATURE_LOG_ID_COLUMNS = ("content_id", "gop_index", "bitrate_kbps", "width", "height")
FEATURE_COLUMNS = (
    "duration_frames",
    "bits_total",
    "bits_per_frame_mean",
    "bits_per_frame_max",
    "frac_i",
    "frac_p",
    "frac_b",
    "qp_mean",
    "qp_min",
    "qp_max",
    "qp_std",
    "frame_size_cov",
)


def commands(workload: str, inputs: str, out: str) -> list[tuple[str, list[str]]]:
    """(command name, drskit argv) pairs of one pass, in order.

    ``inputs`` is the generated-input directory and ``out`` the output
    directory of this pass; both are plain path strings.
    """
    return [cmd for group in GROUPS[workload] for cmd in group_commands(group, inputs, out)]


def group_commands(group: str, inputs: str, out: str) -> list[tuple[str, list[str]]]:
    if group == "switching":
        log = f"{inputs}/quality_log.csv"
        return [
            ("select-ladder", ["select-ladder", "--log", log, "--k", str(SWITCHING_K), "--out", f"{out}/sel"]),
            (
                "simulate",
                [
                    "simulate",
                    "--log",
                    log,
                    "--ladder",
                    f"{out}/sel/ladder.json",
                    "--baseline",
                    f"{inputs}/baseline_ladder.json",
                    "--granularity",
                    "1",
                    "--out",
                    f"{out}/sim",
                ],
            ),
            (
                "report",
                [
                    "report",
                    "--baseline-trace",
                    f"{out}/sim/baseline_trace.json",
                    "--drs-trace",
                    f"{out}/sim/trace.json",
                    "--out",
                    f"{out}/rep",
                ],
            ),
        ]
    if group == "crossover":
        points = f"{inputs}/scored_points.csv"
        return [
            ("fit", ["fit", "--scored-points", points, "--out", f"{out}/fit"]),
            ("crossover", ["crossover", "--scored-points", points, "--out", f"{out}/xo"]),
            ("bench-rcql", ["bench-rcql", "--scored-points", points, "--out", f"{out}/rcql"]),
        ]
    if group == "quality-model":
        log = f"{inputs}/feature_log.csv"
        cmds = []
        for stream in ("escape_dense", "header_heavy"):
            cmds.append(
                (
                    "extract-features",
                    [
                        "extract-features",
                        f"{inputs}/{stream}.264",
                        "--fps",
                        str(STREAM_FPS),
                        "--content-id",
                        stream,
                        "--out",
                        f"{out}/feat/{stream}.csv",
                    ],
                )
            )
        trees = ["--trees", str(TRAIN_TREES), "--seed", str(MODEL_SEED)]
        cmds += [
            ("train", ["train", "--features", log, *trees, "--out", f"{out}/train"]),
            ("cv", ["cv", "--features", log, "--folds", "5", "--runs", "1", *trees, "--out", f"{out}/cv"]),
            (
                "gfs",
                [
                    "gfs",
                    "--features",
                    log,
                    "--trees",
                    str(GFS_TREES),
                    "--runs",
                    "1",
                    "--max-features",
                    "2",
                    "--seed",
                    str(MODEL_SEED),
                    "--out",
                    f"{out}/gfs",
                ],
            ),
        ]
        return cmds
    raise ValueError(f"unknown command group {group!r}")

