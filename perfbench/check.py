"""Output checks for one benchmark run.

Usage: python3 perfbench/check.py WORKLOAD SEED INPUTS_DIR FIRST_PASS [OTHER_PASS ...]
       [--record]

FIRST_PASS is the output directory of the run's first pass over the
workload.  Every OTHER_PASS (later repetitions and traced runs) must hold
byte-identical files, except ``*.run_config.json``, which echoes the
``--out`` path.  The first pass is also checked against independent
re-computations from the generator's inputs and truth, and against the
values recorded in ``reference.json`` for each of the workload's command
groups (see ``spec.GROUPS``) and this seed, when there are any.
``--record`` stores the first pass's reference values for this seed
instead of comparing them.

Prints one JSON object: {"checks": N, "failures": [...], "notes": [...]}.
Only the standard library is used; drskit is never imported.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import spec
from gen import logistic

REFERENCE = Path(__file__).with_name("reference.json")


class Checker:
    def __init__(self):
        self.checks = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): sha256(p)
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.endswith(".run_config.json")
    }


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def _load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------- switching


def _expected_trace(scores, gop_ids, ladder) -> str:
    """trace.json bytes as drskit's simulate with granularity 1 must
    write them: per GOP and rung, the ladder resolution with the highest
    score, ties to the lower resolution."""
    rungs = sorted(scores[gop_ids[0]])
    resolutions = sorted({r for b in rungs for r in scores[gop_ids[0]][b]}, key=lambda r: (r[0] * r[1], r[0]))
    flips = [0] * len(rungs)
    sums = [0.0] * len(rungs)
    prev = [None] * len(rungs)
    selections = []
    for gid in gop_ids:
        for j, b in enumerate(rungs):
            best_k, best = 0, None
            for k, res in enumerate(ladder[b]):
                s = scores[gid][b][res]
                if best is None or s > best:
                    best_k, best = k, s
            if prev[j] is not None and best_k != prev[j]:
                flips[j] += 1
            prev[j] = best_k
            sums[j] += best
            selections.append(
                {
                    "content_id": gid[0],
                    "gop_index": gid[1],
                    "bitrate_kbps": b,
                    "resolution": list(ladder[b][best_k]),
                    "score": best,
                }
            )
    doc = {
        "granularity_gops": 1,
        "rungs": rungs,
        "resolutions": [list(r) for r in resolutions],
        "n_gops": len(gop_ids),
        "per_rung_mean_quality": [s / len(gop_ids) for s in sums],
        "flips": flips,
        "selections": selections,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _ladder(doc) -> dict[float, list[tuple[int, int]]]:
    return {
        float(r["bitrate_kbps"]): sorted(
            (tuple(int(v) for v in res) for res in r["resolutions"]), key=lambda r: (r[0] * r[1], r[0])
        )
        for r in doc["rungs"]
    }


def check_switching(ck: Checker, inputs: Path, out: Path, truth, reference) -> dict:
    scores: dict[tuple[str, int], dict[float, dict[tuple[int, int], float]]] = defaultdict(lambda: defaultdict(dict))
    with open(inputs / "quality_log.csv", "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for content, gop, b, w, h, s in reader:
            scores[(content, int(gop))][float(b)][(int(w), int(h))] = float(s)
    gop_ids = sorted(scores)

    ladder = _ladder(_load_json(out / "sel/ladder.json"))
    n_entries = sum(len(v) for v in ladder.values())
    ck.expect(n_entries <= spec.SWITCHING_K, f"selected ladder has {n_entries} > {spec.SWITCHING_K} entries")
    ck.expect(
        sorted(ladder) == sorted(spec.SWITCHING_RUNGS) and all(ladder.values()),
        "selected ladder does not cover every rung",
    )
    baseline = _ladder(_load_json(inputs / "baseline_ladder.json"))
    digests = {}
    for name, lad in (("trace.json", ladder), ("baseline_trace.json", baseline)):
        expected = hashlib.sha256(_expected_trace(scores, gop_ids, lad).encode("utf-8")).hexdigest()
        digests[name] = sha256(out / "sim" / name)
        ck.expect(digests[name] == expected, f"sim/{name} differs from the independently built trace")
    if reference:
        for name, digest in reference.items():
            ck.expect(digests.get(name) == digest, f"sim/{name} differs from the reference digest")

    bd = _load_json(out / "sim/bd_report.json")
    ck.expect(bd["bd_quality"] >= 0.0, f"bd_quality {bd['bd_quality']} < 0")
    ck.expect(bd["bd_rate_percent"] <= 0.0, f"bd_rate_percent {bd['bd_rate_percent']} > 0")
    for p in sorted((out / "rep").iterdir()):
        if p.name.endswith(".run_config.json"):
            continue
        twin = out / "sim" / p.name
        ck.expect(twin.is_file() and sha256(twin) == sha256(p), f"report's {p.name} differs from simulate's")
    return digests


# --------------------------------------------------------------- crossover


def _points(inputs: Path):
    rows = []
    with open(inputs / "scored_points.csv", "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for r in reader:
            rows.append(
                (r["content_id"], r["resolution"], float(r["bitrate_kbps"]), float(r["subjective_jod"]), float(r["objective_score"]))
            )
    return rows


def _rss(params, xs, ys) -> float:
    """Residual sum of squares of (beta2, delta, beta3, beta4) on the samples."""
    return math.fsum((logistic(params, x) - y) ** 2 for x, y in zip(xs, ys))


def _ranks(v):
    order = sorted(range(len(v)), key=lambda i: v[i])
    ranks = [0.0] * len(v)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
            j += 1
        for t in range(i, j + 1):
            ranks[order[t]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _pearson(a, b) -> float:
    ma, mb = math.fsum(a) / len(a), math.fsum(b) / len(b)
    sab = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
    saa = math.fsum((x - ma) ** 2 for x in a)
    sbb = math.fsum((y - mb) ** 2 for y in b)
    return sab / math.sqrt(saa * sbb)


def _ranking(points, content, res_a, res_b):
    """(acc_percent, ql) over exact (content, bitrate) matches."""
    by_b = defaultdict(dict)
    for c, res, b, s, o in points:
        if c == content and res in (res_a, res_b):
            by_b[b][res] = (s, o)
    n_pref = n_conc = 0
    gaps = []
    for b in sorted(by_b):
        pair = by_b[b]
        if len(pair) != 2:
            continue
        subj_gap = pair[res_a][0] - pair[res_b][0]
        if abs(subj_gap) <= 1e-9:
            continue
        n_pref += 1
        obj_gap = pair[res_a][1] - pair[res_b][1]
        if obj_gap != 0.0 and (obj_gap > 0) == (subj_gap > 0):
            n_conc += 1
        else:
            gaps.append(abs(subj_gap))
    return 100.0 * n_conc / n_pref, (math.fsum(gaps) / len(gaps) if gaps else 0.0)


def check_crossover(ck: Checker, inputs: Path, out: Path, truth, reference) -> dict:
    points = _points(inputs)
    curves = defaultdict(lambda: ([], []))
    for c, res, b, s, _ in points:
        curves[(c, res)][0].append(b)
        curves[(c, res)][1].append(s)

    fits = {}
    values = {"rss": {}, "rows": {}}
    for f in _load_json(out / "fit/fits.json")["fits"]:
        key = (f["content_id"], f"{f['resolution'][0]}x{f['resolution'][1]}")
        params = (f["beta2"], f["beta1"] - f["beta2"], f["beta3"], f["beta4"])
        fits[key] = params
        values["rss"][f"{key[0]}/{key[1]}"] = f["rss"]
        xs, ss = curves[key]
        true_rss = _rss(truth["curves"][f"{key[0]}/{key[1]}/subjective_jod"], xs, ss)
        ck.expect(f["rss"] <= true_rss * (1 + 1e-9), f"fit {key} rss {f['rss']} is worse than the true curve's {true_rss}")
        ck.expect(close(_rss(params, xs, ss), f["rss"], 1e-6), f"fit {key} rss does not match its parameters")
    ck.expect(len(fits) == len(curves), f"{len(fits)} fits for {len(curves)} curves")

    def gap(c, lo, hi, x):
        return logistic(fits[(c, hi)], x) - logistic(fits[(c, lo)], x)

    subj_x = {}
    for x in _load_json(out / "xo/crossovers.json")["crossovers"]:
        c, lo, hi = x["content_id"], x["lower_curve"], x["higher_curve"]
        subj_x[(c, lo, hi)] = x["bitrate_kbps"]
        if x["status"] == "none":
            ends = gap(c, lo, hi, x["range_lo"]) * gap(c, lo, hi, x["range_hi"])
            ck.expect(ends >= 0.0, f"cross-over {c} {lo}/{hi}: status none but the fits change sign")
        else:
            b = x["bitrate_kbps"]
            ok = gap(c, lo, hi, b - 1e-3) * gap(c, lo, hi, b + 1e-3) <= 0.0
            ck.expect(ok, f"cross-over {c} {lo}/{hi} at {b} is not a sign change of the fits")

    report = _load_json(out / "rcql/rcql_report.json")
    statuses = set()
    values.update(srocc=report["srocc"], plcc=report["plcc"])
    for r in report["rows"]:
        res_hi, res_lo = r["pair"].split("_vs_")
        c = r["content_id"]
        statuses.update((r["subj_status"], r["obj_status"]))
        if r["endpoint_fallback"]:
            statuses.add("endpoint_fallback")
        ck.expect(
            subj_x.get((c, res_lo, res_hi), "missing") == r["subj_xover_kbps"],
            f"rcql row {r['pair']}/{c}: subjective cross-over differs from the crossover command's",
        )
        acc, ql = _ranking(points, c, res_lo, res_hi)
        ck.expect(r["acc_percent"] == acc, f"rcql row {r['pair']}/{c}: acc {r['acc_percent']} != {acc}")
        ck.expect(close(r["ql_jod"], ql, 1e-12), f"rcql row {r['pair']}/{c}: ql {r['ql_jod']} != {ql}")
        values["rows"][f"{r['pair']}/{c}"] = [r["acc_percent"], r["ql_jod"]]
    subj = [p[3] for p in points]
    obj = [p[4] for p in points]
    ck.expect(close(report["srocc"], _pearson(_ranks(subj), _ranks(obj))), "srocc differs from the re-computation")
    ck.expect(close(report["plcc"], _pearson(subj, obj)), "plcc differs from the re-computation")
    for path in ("none", "multiple_resolved", "endpoint_fallback"):
        ck.expect(path in statuses, f"inputs did not exercise the {path} cross-over path")

    if reference:
        for key, rss in reference["rss"].items():
            got = values["rss"].get(key)
            ck.expect(got is not None and got <= rss * (1 + 1e-12), f"fit {key} rss {got} is worse than the reference {rss}")
        for name in ("srocc", "plcc", "rows"):
            ck.expect(values[name] == reference[name], f"{name} differs from the reference")
    return values


# ----------------------------------------------------------- quality-model


def check_quality_model(ck: Checker, inputs: Path, out: Path, truth, reference) -> dict:
    values = {}
    for stream, rows in truth["features"].items():
        path = out / "feat" / f"{stream}.csv"
        values[f"{stream}.csv"] = sha256(path)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            got = list(csv.reader(fh))
        ck.expect(got[0] == list(spec.FEATURE_LOG_ID_COLUMNS + spec.FEATURE_COLUMNS), f"{stream}.csv header")
        ck.expect(len(got) - 1 == len(rows), f"{stream}.csv has {len(got) - 1} rows, expected {len(rows)}")
        for line, want in zip(got[1:], rows):
            ok = line[0] == stream and len(line) == len(want) + 1
            ok = ok and all(close(float(g), float(w)) for g, w in zip(line[1:], want))
            ck.expect(ok, f"{stream}.csv GOP {want[0]} differs from the generated stream's features")

    summary = _load_json(out / "train/training_summary.json")
    n_rows = spec.FEATURE_LOG_CONTENTS * spec.FEATURE_LOG_ROWS_PER_CONTENT
    ck.expect(summary["n_records"] == n_rows, f"train saw {summary['n_records']} records, expected {n_rows}")
    ck.expect(0.0 < summary["train_rmse"] < 1.0, f"train_rmse {summary['train_rmse']} outside (0, 1)")
    cv = _load_json(out / "cv/cv_summary.json")
    ck.expect(len(cv["per_content"]) == spec.FEATURE_LOG_CONTENTS, "cv does not report every content")
    ck.expect(all(math.isfinite(v) for v in cv["aggregate"].values()), "cv aggregate is not finite")
    gfs = _load_json(out / "gfs/gfs_result.json")
    names = ("log_bitrate_kbps", "log_pixels") + spec.FEATURE_COLUMNS
    ck.expect(
        1 <= len(gfs["selected"]) <= 2 and set(gfs["selected"]) <= set(names),
        f"gfs selection {gfs['selected']} is not 1-2 schema features",
    )
    values.update(
        train_rmse=summary["train_rmse"],
        cv_aggregate=cv["aggregate"],
        cv_per_content=cv["per_content"],
        gfs_selected=gfs["selected"],
    )
    if reference:
        for name, want in reference.items():
            ck.expect(values.get(name) == want, f"{name} differs from the reference")
    return values


CHECKS = {"switching": check_switching, "crossover": check_crossover, "quality-model": check_quality_model}


def main(argv: list[str]) -> int:
    record = "--record" in argv
    args = [a for a in argv if a != "--record"]
    if len(args) < 4 or args[0] not in spec.WORKLOADS:
        sys.exit(__doc__)
    workload, seed, inputs, first = args[0], args[1], Path(args[2]), Path(args[3])
    others = [Path(a) for a in args[4:]]
    ck = Checker()

    first_digests = tree_digests(first)
    for other in others:
        got = tree_digests(other)
        ck.expect(set(got) == set(first_digests), f"{other.name}: output files differ from the first pass")
        for name, digest in sorted(first_digests.items()):
            if name in got:
                ck.expect(got[name] == digest, f"{other.name}/{name} differs from the first pass")

    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    truth = _load_json(inputs / "truth.json")
    recorded = False
    for group in spec.GROUPS[workload]:
        reference = None if record else refs.get(group, {}).get(seed)
        if reference is None and not record:
            ck.notes.append(f"no reference values for {group} seed {seed}; checked against re-computations only")
        try:
            values = CHECKS[group](ck, inputs, first, truth, reference)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            ck.expect(False, f"{group} output missing or malformed: {type(exc).__name__}: {exc}")
            values = None
        if record and values is not None and not ck.failures:
            refs.setdefault(group, {})[seed] = values
            recorded = True
            ck.notes.append(f"recorded reference values for {group} seed {seed}")
    if recorded:
        REFERENCE.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"checks": ck.checks, "failures": ck.failures, "notes": ck.notes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
