"""Command-line pipeline driver.

Every command that succeeds echoes its resolved invocation to
``<out dir>/<command>.run_config.json``; ``drskit replay`` re-runs any
echo and reproduces the outputs byte for byte.  Exit codes: 0 success,
2 input/schema error, 3 computation infeasibility, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

# Only modules that every command needs are imported here.  Each command
# imports the modules it alone uses in its body and pays for them only
# when it runs.
from . import __version__, io
from .errors import InputError, ToolkitError
from .io import _res_key

if TYPE_CHECKING:
    from .curves import RDCurve
    from .forest import TreeParams

__all__ = ["main"]


def _echo_config(args, argv: list[str]) -> None:
    """Write ``<command>.run_config.json`` into the command's output
    directory (``extract-features``: its output file's directory)."""
    out = Path(args.out)
    out_dir = out.parent if args.command == "extract-features" else out
    params = {k: v for k, v in vars(args).items() if k != "func"}
    doc = {"tool": "drskit", "version": __version__, "command": args.command, "argv": argv, "params": params}
    io.write_json(out_dir / f"{args.command}.run_config.json", doc)


def _parse_pairs(text: str | None) -> list[tuple[tuple[int, int], tuple[int, int]]] | None:
    """The resolution pairs of a ``WxH:WxH[,WxH:WxH...]`` list, each as
    (lower, higher), or None without a list.  A pair that names one
    resolution twice, or repeats an earlier pair, is bad input."""
    if not text:
        return None
    pairs = []
    for item in text.split(","):
        parts = item.split(":")
        if len(parts) != 2:
            raise InputError(f"pair {item!r} is not WxH:WxH")
        pair = tuple(sorted(map(io.parse_resolution, parts), key=_res_key))
        if pair[0] == pair[1]:
            raise InputError(f"pair {item!r} names one resolution twice")
        if pair in pairs:
            raise InputError(f"pair {item!r} repeats an earlier pair")
        pairs.append(pair)
    return pairs


def _parse_feature_subsample(text: str):
    if text in ("sqrt", "all"):
        return text
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise InputError(f"feature subsample {text!r} must be sqrt, all, an int or a float") from None


def _hyperparams(args) -> TreeParams:
    from .forest import TreeParams

    return TreeParams(
        n_trees=args.trees,
        max_depth=None if args.max_depth == 0 else args.max_depth,
        min_leaf=args.min_leaf,
        feature_subsample=_parse_feature_subsample(args.feature_subsample),
        bootstrap=not args.no_bootstrap,
    )


def _base_features(args) -> tuple[str, ...]:
    from .vqm import DEFAULT_BASE_FEATURES

    if args.base_features is None:
        return DEFAULT_BASE_FEATURES
    return tuple(n.strip() for n in args.base_features.split(",") if n.strip())


def _mean_rd_curves(args) -> dict[str, dict[tuple[int, int], RDCurve]]:
    """Per (content, resolution) RD curves from either input kind; a group
    of fewer than 2 samples has no curve."""
    import numpy as np

    from .curves import RDCurve

    grouped: dict[tuple[str, tuple[int, int]], list] = defaultdict(list)
    if args.quality_log:
        log = io.load_quality_log(args.quality_log, args.units)
        rows_of: dict[str, list[int]] = defaultdict(list)
        for i, (c, _) in enumerate(log.gop_ids):
            rows_of[c].append(i)
        for content, rows in rows_of.items():
            for k, res in enumerate(log.resolutions):
                for j, b in enumerate(log.rungs):
                    col = log.scores[rows, j, k]
                    if not np.isnan(col).all():
                        grouped[(content, res)].append((b, float(np.nanmean(col))))
    else:
        for p in io.load_scored_points(args.scored_points, args.units):
            grouped[(p.content_id, p.resolution)].append((p.bitrate_kbps, getattr(p, args.column)))
    curves: dict[str, dict[tuple[int, int], RDCurve]] = defaultdict(dict)
    for (content, res), samples in sorted(grouped.items()):
        if len(samples) >= 2:
            curves[content][res] = RDCurve.from_samples(res, samples)
    return curves


def cmd_extract_features(args) -> int:
    from .avc.features import extract_gop_features

    data = Path(args.input).read_bytes()
    content_id = args.content_id or Path(args.input).stem
    rows, diag = extract_gop_features(data, fps=args.fps, gop_seconds=args.gop_seconds)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_feature_log(out, content_id, rows)
    print(f"wrote {len(rows)} GOP rows to {out}")
    if any(asdict(diag).values()):
        print(
            f"diagnostics: leading_garbage={diag.leading_garbage_bytes} "
            f"forbidden_bit={diag.forbidden_bit_violations} truncated_final={diag.truncated_final} "
            f"slices_before_first_idr={diag.slices_before_first_idr} unparsed_units={diag.unparsed_units} "
            f"gop_length_mismatches={diag.gop_length_mismatches}"
        )
    return 0


def cmd_fit(args) -> int:
    from .rdmodel import MIN_FIT_POINTS, fit_logistic

    curves = _mean_rd_curves(args)
    fits = []
    for content in sorted(curves):
        for res in sorted(curves[content], key=_res_key):
            curve = curves[content][res]
            if len(curve.points) < MIN_FIT_POINTS:
                continue
            params = asdict(fit_logistic(curve))
            fits.append({"content_id": content, "resolution": list(res), "n_points": len(curve.points), **params})
    if not fits:
        raise InputError(f"no (content, resolution) group has the {MIN_FIT_POINTS}+ points needed for a fit")
    out = Path(args.out)
    io.write_json(out / "fits.json", {"fits": fits})
    print(f"wrote {len(fits)} fits to {out / 'fits.json'}")
    return 0


def cmd_crossover(args) -> int:
    from .rdmodel import MIN_FIT_POINTS, find_crossover, fit_logistic

    curves = _mean_rd_curves(args)
    pairs = _parse_pairs(args.pair)

    @functools.cache  # a resolution shared by two pairs is fitted once
    def fitted(content, res):
        return fit_logistic(curves[content][res])

    results = []
    for content in sorted(curves):
        res_list = sorted(curves[content], key=_res_key)
        for lo_res, hi_res in pairs or zip(res_list, res_list[1:]):
            if lo_res not in curves[content] or hi_res not in curves[content]:
                continue
            lo_curve = curves[content][lo_res]
            hi_curve = curves[content][hi_res]
            if len(lo_curve.points) < MIN_FIT_POINTS or len(hi_curve.points) < MIN_FIT_POINTS:
                continue
            if args.range:
                rng = (args.range[0], args.range[1])
            else:
                rng = (max(lo_curve.r_min, hi_curve.r_min), min(lo_curve.bitrates[-1], hi_curve.bitrates[-1]))
                if not rng[0] < rng[1]:  # the two curves share no bitrate range
                    continue
            xover = find_crossover(
                fitted(content, lo_res),
                fitted(content, hi_res),
                rng,
                io.format_resolution(lo_res),
                io.format_resolution(hi_res),
            )
            results.append({"content_id": content, **asdict(xover)})
    if not results:
        raise InputError("no resolution pair had two fittable curves")
    out = Path(args.out)
    io.write_json(out / "crossovers.json", {"crossovers": results})
    print(f"wrote {len(results)} cross-over results to {out / 'crossovers.json'}")
    return 0


def cmd_bench_rcql(args) -> int:
    from .rcql import build_report

    points = io.load_scored_points(args.scored_points, args.units)
    report = build_report(points, pairs=_parse_pairs(args.pairs), tie_eps=args.tie_eps)
    out = Path(args.out)
    io.write_json(out / "rcql_report.json", report.to_dict())
    io.write_rcql_csv(out / "rcql_rows.csv", out / "rcql_pairs.csv", report)
    print(f"srocc={report.srocc:.4f} plcc={report.plcc:.4f} rows={len(report.rows)} skipped={len(report.skipped)}")
    return 0


def cmd_analyze_gops(args) -> int:
    from .ladder import best_resolution_probability, cumulative_probability

    log = io.load_quality_log(args.log, args.units)
    table = best_resolution_probability(log)
    cum = cumulative_probability(table)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_probability_csv(out / "probability.csv", table)
    io.write_probability_csv(out / "cumulative.csv", cum)
    io.write_json(
        out / "probability.json",
        {
            "rungs": [float(b) for b in table.rungs],
            "resolutions": [list(r) for r in table.resolutions],
            "probability": table.probabilities.tolist(),
            "cumulative": cum.probabilities.tolist(),
        },
    )
    print(f"analyzed {log.n_gops} GOPs x {len(log.rungs)} rungs x {len(log.resolutions)} resolutions")
    return 0


def cmd_select_ladder(args) -> int:
    from .ladder import LadderProblem, optimize_ladder_exhaustive, optimize_ladder_greedy, weights_from_bandwidth

    log = io.load_quality_log(args.log, args.units)
    candidates = None
    if args.candidates:
        candidates = io.ladder_entries(io.load_ladder(args.candidates, args.units))
    if args.bandwidth_samples:
        weights = weights_from_bandwidth(io.load_bandwidth_samples(args.bandwidth_samples, args.units), log.rungs)
    elif args.weights:
        weights = io.load_weights(args.weights, args.units)
    else:
        weights = None
    problem = LadderProblem.build(log, k_max=args.k, weights=weights, candidates=candidates)
    solver = optimize_ladder_exhaustive if args.solver == "exhaustive" else optimize_ladder_greedy
    solution = solver(problem)
    out = Path(args.out)
    io.write_json(out / "ladder_solution.json", io.solution_to_dict(solution))
    io.save_ladder(out / "ladder.json", solution.rung_map())
    print(f"selected {len(solution.selected)} representations, objective {solution.objective:.6f}")
    return 0


def _write_trace_outputs(out: Path, name: str, trace) -> None:
    from .trace_io import write_trace_files

    write_trace_files(trace, out / f"{name}.json", out / f"{name}.csv")


def cmd_simulate(args) -> int:
    # Read the log before importing the modules below: where no bytecode is
    # cached, compiling them then reuses memory the ingest has freed, which
    # lowers the command's peak RSS.
    log = io.load_quality_log(args.log, args.units)
    from .drs import simulate, trace_rd_points
    from .rdmodel import MIN_FIT_POINTS, fit_logistic

    ladder = io.load_ladder(args.ladder, args.units)
    trace = simulate(log, ladder, granularity_gops=args.granularity)
    out = Path(args.out)
    _write_trace_outputs(out, "trace", trace)
    drs_curve = trace_rd_points(trace)
    with open(out / "rd_points.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("bitrate_kbps,mean_quality\n")
        for p in drs_curve.points:
            fh.write(f"{p.bitrate_kbps!r},{p.quality!r}\n")
    # Per-rung mean points feed the BD computation directly (PCHIP); a
    # logistic fit of the same points is emitted alongside for plotting.
    if len(drs_curve.points) >= MIN_FIT_POINTS:
        io.write_json(out / "rd_fit.json", asdict(fit_logistic(drs_curve)))

    if args.baseline:
        baseline_ladder = io.load_ladder(args.baseline, args.units)
        baseline_trace = simulate(log, baseline_ladder, granularity_gops=args.granularity)
        _write_trace_outputs(out, "baseline_trace", baseline_trace)
        _write_bd_and_gains(out, baseline_trace, trace)
    print(f"simulated {log.n_gops} GOPs x {len(log.rungs)} rungs (granularity {args.granularity})")
    return 0


def _write_bd_and_gains(out: Path, baseline_trace, drs_trace) -> None:
    from .drs import bd_rate, gain_distribution, trace_rd_points

    bd = bd_rate(trace_rd_points(baseline_trace), trace_rd_points(drs_trace))
    io.write_json(out / "bd_report.json", asdict(bd))
    gains_summary = {}
    for b in baseline_trace.rungs:
        stats = gain_distribution(baseline_trace, drs_trace, b)
        left, right, counts = stats.histogram()
        io.write_histogram_csv(out / f"gain_hist_{int(b)}.csv", left, right, counts)
        gains_summary[str(b)] = {
            "mean": stats.mean,
            "median": stats.median,
            "percentiles": {str(k): v for k, v in stats.percentiles.items()},
        }
    io.write_json(out / "gains_summary.json", gains_summary)


def cmd_report(args) -> int:
    from .trace_io import load_trace

    baseline_trace = load_trace(args.baseline_trace)
    drs_trace = load_trace(args.drs_trace)
    out = Path(args.out)
    _write_bd_and_gains(out, baseline_trace, drs_trace)
    print(f"wrote BD report and gain histograms to {out}")
    return 0


def cmd_train(args) -> int:
    import numpy as np

    from .vqm import _labeled_matrix, _train_matrix, feature_importance, predict_batch, save_model

    records, schema = io.load_feature_log(args.features, args.units)
    X, y, _ = _labeled_matrix(records, schema)
    model = _train_matrix(X, y, schema, _hyperparams(args), args.seed, _base_features(args))
    train_rmse = float(np.sqrt(np.mean((predict_batch(model, X) - y) ** 2)))
    out = Path(args.out)
    save_model(model, out / "model.json")
    io.write_json(
        out / "training_summary.json",
        {
            "n_records": y.size,
            "train_rmse": train_rmse,
            "feature_importance": feature_importance(model),
            "seed": args.seed,
        },
    )
    print(f"trained on {y.size} records, train rmse {train_rmse:.6f}")
    return 0


def cmd_cv(args) -> int:
    from .protocol import CvConfig, cross_validate

    records, schema = io.load_feature_log(args.features, args.units)
    cv = CvConfig(folds=args.folds, runs=args.runs, seed=args.seed)
    result = cross_validate(
        records,
        schema,
        cv,
        hyperparams=_hyperparams(args),
        base_features=_base_features(args),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_cv_rows_csv(out / "cv_rows.csv", result)
    io.write_json(
        out / "cv_summary.json",
        {
            "folds": args.folds,
            "runs": args.runs,
            "seed": args.seed,
            "aggregate": result.aggregate,
            "per_content": result.per_content,
        },
    )
    print(f"cv aggregate: srocc={result.aggregate['srocc']:.4f} rmse={result.aggregate['rmse']:.6f}")
    return 0


def cmd_gfs(args) -> int:
    from .protocol import CvConfig, greedy_feature_selection

    records, schema = io.load_feature_log(args.features, args.units)
    cv = CvConfig(folds=args.folds, runs=args.runs, seed=args.seed)
    result = greedy_feature_selection(
        records,
        schema,
        cv,
        objective=args.objective,
        epsilon=args.epsilon,
        max_features=args.max_features,
        hyperparams=_hyperparams(args),
        base_features=_base_features(args),
    )
    out = Path(args.out)
    io.write_json(out / "gfs_result.json", asdict(result))
    print(f"selected {len(result.selected)} features: {', '.join(result.selected) or '(none)'}")
    return 0


def cmd_replay(args) -> int:
    doc = io.read_json(args.config)
    if not isinstance(doc, dict) or doc.get("tool") != "drskit":
        raise InputError(f"{args.config} is not a drskit run config")
    replay_argv = doc.get("argv")
    if not isinstance(replay_argv, list) or not all(isinstance(a, str) for a in replay_argv):
        raise InputError(f"{args.config}: 'argv' must be a list of strings")
    if replay_argv[:1] == ["replay"]:
        raise InputError(f"{args.config}: a run config cannot replay another run config")
    return main(replay_argv)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drskit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"drskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    # Options that several commands share, each declared once.
    shared = functools.partial(argparse.ArgumentParser, add_help=False)

    units = shared()
    units.add_argument("--units", choices=("kbps", "mbps"), default="kbps", help="unit of every bitrate read")
    out = shared()
    out.add_argument("--out", required=True, help="output directory")
    log = shared()
    log.add_argument("--log", required=True, help="quality-log CSV")
    curves = shared()
    source = curves.add_mutually_exclusive_group(required=True)
    source.add_argument("--quality-log", help="quality-log CSV (per-rung mean scores are fitted)")
    source.add_argument("--scored-points", help="scored-points CSV")
    curves.add_argument(
        "--column",
        choices=("subjective_jod", "objective_score"),
        default="subjective_jod",
        help="scored-points column to fit",
    )
    model = shared()
    model.add_argument("--features", required=True, help="feature-log CSV with a label_jod column")
    model.add_argument("--seed", type=int, default=0, help="random seed")
    model.add_argument("--trees", type=int, default=100, help="number of residual trees")
    model.add_argument("--max-depth", type=int, default=12, help="tree depth limit (0 = unlimited)")
    model.add_argument("--min-leaf", type=int, default=4, help="minimum samples per leaf")
    model.add_argument("--feature-subsample", default="sqrt", help="per-split feature pool: sqrt, all, int or fraction")
    model.add_argument("--no-bootstrap", action="store_true", help="disable bootstrap resampling")
    model.add_argument("--base-features", default=None, help="comma-separated base-model feature names")

    # Children share their parents' action objects, so each --runs
    # default needs a parent of its own.
    def protocol(runs: int) -> argparse.ArgumentParser:
        p = shared()
        p.add_argument("--folds", type=int, default=5, help="content folds per run")
        p.add_argument("--runs", type=int, default=runs, help="repetitions, each with its own folds")
        return p

    p = command("extract-features", cmd_extract_features, "parse an Annex-B .264 file into a per-GOP feature log")
    p.add_argument("input", help="Annex-B elementary stream (.264/.h264)")
    p.add_argument("--fps", type=float, required=True, help="frames per second of the stream")
    p.add_argument("--gop-seconds", type=float, default=1.0, help="nominal GOP duration")
    p.add_argument("--content-id", default=None, help="content id for the CSV (default: file stem)")
    p.add_argument("--out", required=True, help="output feature-log CSV path")

    command("fit", cmd_fit, "fit constrained logistic curves per (content, resolution)", curves, units, out)

    p = command("crossover", cmd_crossover, "locate resolution cross-over bitrates", curves, units, out)
    p.add_argument("--pair", default=None, help="WxH:WxH[,WxH:WxH...] (default: adjacent resolutions)")
    p.add_argument("--range", type=float, nargs=2, default=None, metavar=("LO", "HI"))

    summary = "benchmark an objective metric against subjective cross-overs"
    p = command("bench-rcql", cmd_bench_rcql, summary, units, out)
    p.add_argument("--scored-points", required=True, help="scored-points CSV")
    p.add_argument("--pairs", default=None, help="WxH:WxH[,WxH:WxH...] (default: adjacent resolutions)")
    p.add_argument("--tie-eps", type=float, default=1e-9)

    command("analyze-gops", cmd_analyze_gops, "per-rung best-resolution probability tables", log, units, out)

    p = command("select-ladder", cmd_select_ladder, "optimize the augmented-ladder representation set", log, units, out)
    p.add_argument("--k", type=int, required=True, help="max total representations")
    p.add_argument("--candidates", default=None, help="candidate ladder or solution JSON (default: all log pairs)")
    p.add_argument("--bandwidth-samples", default=None, help="file with one session bandwidth per line")
    p.add_argument("--weights", default=None, help="JSON {bitrate: weight}")
    p.add_argument(
        "--solver", choices=("greedy", "exhaustive"), default="greedy",
        help="exhaustive is exact for any ladder with at most 20 candidates per rung",
    )

    p = command("simulate", cmd_simulate, "replay switching decisions over a quality log", log, units, out)
    p.add_argument("--ladder", required=True, help="ladder or solution JSON")
    p.add_argument("--baseline", default=None, help="baseline ladder or solution JSON for BD/gain reporting")
    p.add_argument("--granularity", type=int, default=1, help="decision window in GOPs")

    command("train", cmd_train, "train the quality model on a labeled feature log", model, units, out)
    command("cv", cmd_cv, "content-split repeated cross-validation", model, protocol(50), units, out)

    p = command("gfs", cmd_gfs, "greedy forward feature selection", model, protocol(1), units, out)
    p.add_argument("--objective", choices=("srocc", "rmse"), default="srocc")
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--max-features", type=int, default=None)

    p = command("report", cmd_report, "BD deltas and gain histograms from two traces", out)
    p.add_argument("--baseline-trace", required=True, help="baseline trace JSON")
    p.add_argument("--drs-trace", required=True, help="switching trace JSON")

    p = command("replay", cmd_replay, "re-run a command from its run_config echo")
    p.add_argument("config", help="path to a <command>.run_config.json echo")

    return parser


def main(argv: list[str] | None = None) -> int:
    # Before numpy loads OpenBLAS: no thread pool to start, and no ddot bits that vary with the core count.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if code == 0 and args.command != "replay":  # the replayed command echoes itself
            _echo_config(args, argv)
        return code
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: FileError: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal bug: report and exit 4
        traceback.print_exc()
        print(f"error: InternalError: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
