"""Canonical file schemas and loaders/writers.

CSV schemas (UTF-8, '.' decimal separator, all listed headers mandatory):

* quality log:    content_id, gop_index, bitrate_kbps, width, height, vqm_score
* scored points:  content_id, resolution, bitrate_kbps, subjective_jod, objective_score
                  (resolution formatted as WxH)
* feature log:    content_id, gop_index, bitrate_kbps, width, height,
                  then free-named feature columns; an optional label_jod
                  column is treated as the training label, never as a
                  feature.

Feature-log ingestion derives log_bitrate_kbps and log_pixels (natural
logs) from the identity columns and prepends them to the schema, so the
default base-model features are available without extra tooling.

Ladder JSON: {"rungs": [{"bitrate_kbps": N, "resolutions": [[w, h], ...]}]},
or an optimizer solution (``solution_to_dict``'s document).  Bitrates are
stored in kbps; pass units="mbps" to convert a ladder's on ingestion.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import gc
import importlib
import itertools
import json
import math
import operator
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CsvSchemaError, InputError

if TYPE_CHECKING:
    from .curves import ScoredPoint
    from .ladder import LadderSolution, ProbabilityTable, QualityLog, _FirstSeen  # ladder needs numpy
    from .rcql import RcqlReport  # only bench-rcql loads rcql
    from .vqm import FeatureSchema, GopRecord  # only the feature-log commands load vqm

__all__ = [
    "QUALITY_LOG_COLUMNS",
    "SCORED_POINT_COLUMNS",
    "FEATURE_LOG_ID_COLUMNS",
    "LABEL_COLUMN",
    "unit_scale",
    "parse_resolution",
    "format_resolution",
    "load_quality_log",
    "write_quality_log",
    "load_scored_points",
    "load_feature_log",
    "write_feature_log",
    "load_ladder",
    "save_ladder",
    "ladder_entries",
    "solution_to_dict",
    "solution_from_dict",
    "load_weights",
    "load_bandwidth_samples",
    "manifest_to_dict",
    "save_manifest",
    "load_segment_metadata",
    "read_json",
    "write_json",
    "write_probability_csv",
    "write_rcql_csv",
    "write_histogram_csv",
    "write_cv_rows_csv",
]

QUALITY_LOG_COLUMNS = ("content_id", "gop_index", "bitrate_kbps", "width", "height", "vqm_score")
SCORED_POINT_COLUMNS = ("content_id", "resolution", "bitrate_kbps", "subjective_jod", "objective_score")
FEATURE_LOG_ID_COLUMNS = ("content_id", "gop_index", "bitrate_kbps", "width", "height")
LABEL_COLUMN = "label_jod"
DERIVED_FEATURES = ("log_bitrate_kbps", "log_pixels")


def unit_scale(units: str) -> float:
    if units == "kbps":
        return 1.0
    if units == "mbps":
        return 1000.0
    raise InputError(f"unknown bitrate units {units!r} (expected kbps or mbps)")


def parse_resolution(text: str, row: int | None = None) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise CsvSchemaError(f"resolution {text!r} is not WxH", row)
    try:
        w, h = int(parts[0]), int(parts[1])
    except ValueError:
        raise CsvSchemaError(f"resolution {text!r} is not WxH", row) from None
    if w <= 0 or h <= 0:
        raise CsvSchemaError(f"resolution {text!r} must be positive", row)
    return w, h


def format_resolution(res) -> str:
    return f"{int(res[0])}x{int(res[1])}"


def _res_key(res: tuple[int, int]) -> tuple[int, int]:
    """Sort key of a resolution: pixel count, then width."""
    return (res[0] * res[1], res[0])


def _float(text: str, column: str, row: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise CsvSchemaError(f"column {column!r}: {text!r} is not a number", row) from None
    if not math.isfinite(v):
        raise CsvSchemaError(f"column {column!r}: {text!r} is not finite", row)
    return v


def _bitrate_cell(text: str, scale: float, row: int) -> float:
    bitrate = scale * _float(text, "bitrate_kbps", row)
    if bitrate <= 0:
        raise CsvSchemaError(f"bitrate_kbps must be > 0, got {bitrate}", row)
    return bitrate


def _int(text: str, column: str, row: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CsvSchemaError(f"column {column!r}: {text!r} is not an integer", row) from None


def _size(w: int, h: int, row: int) -> tuple[int, int]:
    if w <= 0 or h <= 0:
        raise CsvSchemaError(f"width/height must be > 0, got {w}x{h}", row)
    return w, h


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, if it runs, for the block.

    Collections are triggered by the number of container objects
    allocated.  Reading a large CSV through ``csv.reader`` allocates one
    list per row; none of them can be part of a cycle, so the collections
    they trigger free nothing, yet took about a quarter of a 57 600-record
    log's load time.  ``load_quality_log`` holds the pause over its whole
    read, numpy path included: a file numpy does not take is read again by
    ``csv.reader``, whose rows stay alive while they are converted, and
    every collection there would walk them all."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextlib.contextmanager
def _utf8_only():
    """A text file that does not decode is bad input, not a crash."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InputError(f"file is not UTF-8 text ({exc})") from None


def _read_table(path, required: tuple[str, ...], exact: bool = True) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV file.  Blank lines are skipped, so
    data row ``k`` (from 0) is reported as row ``k + 2``; a row longer
    than the header keeps its extra cells, which no reader looks at."""
    with _gc_paused(), open(path, "r", encoding="utf-8", newline="") as fh, _utf8_only():
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvSchemaError("file is empty (no header row)", 1)
        missing = [c for c in required if c not in header]
        if missing:
            raise CsvSchemaError(f"missing mandatory columns {missing}", 1)
        if exact:
            extra = [c for c in header if c not in required]
            if extra:
                raise CsvSchemaError(f"unexpected columns {extra}", 1)
        rows = list(filter(None, reader))
    if not rows:
        raise CsvSchemaError("file has a header but no data rows", 2)
    width = len(header)
    if min(map(len, rows)) < width:
        short = next(i for i, row in enumerate(rows, start=2) if len(row) < width)
        raise CsvSchemaError("short row", short)
    return header, rows


def _read_rows(path, required: tuple[str, ...], exact: bool = True):
    """Header plus (row number, {column: cell}) pairs of a CSV file."""
    header, rows = _read_table(path, required, exact)
    return header, [(i, dict(zip(header, row))) for i, row in enumerate(rows, start=2)]


# The numeric columns of a quality log as numpy's C parser reads them, and
# the characters of the file it is given at a time.
_QUALITY_NUMBERS = [("gop_index", "i8"), ("bitrate_kbps", "f8"), ("width", "i8"), ("height", "i8"), ("vqm_score", "f8")]
_QUALITY_READ_CHARS = 1 << 16


def load_quality_log(path, units: str = "kbps") -> QualityLog:
    """Read a quality log.  numpy's C parser reads a plain file; a file
    it may read differently from ``int()``/``float()``, or that has a bad
    cell, is read again row by row, which names the first bad row."""
    # Imported before the collector pauses: importing numpy leaves cyclic
    # garbage, which kept through the read raised simulate's peak RSS by 3 MB.
    from .ladder import QualityLog, _FirstSeen

    scale = unit_scale(units)
    with _gc_paused():
        columns = _parse_plain_quality_log(path, scale, _FirstSeen())
        if columns is None:
            columns = _read_quality_log_rows(path, scale, _FirstSeen())
        return QualityLog.from_columns(*columns)


def _parse_plain_quality_log(path, scale: float, names: _FirstSeen):
    """The quality log's columns, read by ``np.loadtxt`` in blocks of whole
    lines, or None where the csv reader must read the file.  ``names``
    gives each content id its code.

    Without quotes a CSV line is its cells joined by commas, so the
    content id is the text before the first comma.  Lines break where
    ``csv`` breaks them (``\\r``, ``\\n``), never where ``str.splitlines``
    also does; blank lines are skipped, so a ``\\r\\n`` split between two
    blocks is one break.  Where numpy accepts a number it gives ``int()``'s
    or ``float()``'s value, except that it also strips the ASCII separators
    ``\\x1c``-``\\x1f`` and reads some non-ASCII characters as digits, so
    files with either go to the csv reader."""
    import numpy as np

    blocks: list[list] = [[] for _ in range(6)]  # per column, its array of each block
    header, rest, more = None, "", True
    with open(path, "r", encoding="utf-8", newline="") as fh:
        while more:
            try:
                more = fh.read(_QUALITY_READ_CHARS)
            except UnicodeDecodeError:
                return None
            text = rest + more
            cut = max(text.rfind("\n"), text.rfind("\r")) + 1 if more else len(text)
            text, rest = text[:cut], text[cut:]
            if '"' in text or any(c in text for c in "\x1c\x1d\x1e\x1f"):
                return None
            rows = list(filter(None, text.replace("\r", "\n").split("\n")))
            if header is None and rows and (header := rows.pop(0)) != ",".join(QUALITY_LOG_COLUMNS):
                return None
            if not rows:
                continue
            if not text.isascii() and not "".join([row.partition(",")[2] for row in rows]).isascii():
                return None
            try:
                numbers = np.loadtxt(rows, _QUALITY_NUMBERS, comments=None, delimiter=",", usecols=range(1, 6), ndmin=1)
            except ValueError:
                return None
            gops, raw_bitrates, widths, heights, scores = (numbers[name] for name in numbers.dtype.names)
            bitrates = scale * raw_bitrates
            if len(numbers) != len(rows) or not (
                np.isfinite(raw_bitrates).all()
                and (bitrates > 0).all()
                and (widths > 0).all()
                and (heights > 0).all()
                and np.isfinite(scores).all()
            ):
                return None
            ids = map(operator.itemgetter(0), map(str.partition, rows, itertools.repeat(",")))
            codes = np.fromiter(map(names.__getitem__, ids), int, len(rows))
            for column, values in zip(blocks, (codes, gops, bitrates, widths, heights, scores)):
                column.append(np.ascontiguousarray(values))
    if not blocks[0]:
        return None
    # Column by column, each one's blocks freed once joined.
    return list(names), *(np.concatenate(blocks.pop(0)) for _ in range(6))


def _read_quality_log_rows(path, scale: float, names: _FirstSeen):
    """The quality log's columns, read by ``csv.reader`` and checked row
    by row; raises the first bad row's error.  ``names`` gives each
    content id its code."""
    header, rows = _read_table(path, QUALITY_LOG_COLUMNS)
    at = {name: k for k, name in enumerate(header)}  # a repeated name reads its last column
    c, g, b, w, h, v = (at[name] for name in QUALITY_LOG_COLUMNS)
    records = []
    for i, row in enumerate(rows, start=2):
        gop, bitrate = _int(row[g], "gop_index", i), _bitrate_cell(row[b], scale, i)
        size = _size(_int(row[w], "width", i), _int(row[h], "height", i), i)
        records.append((names[row[c]], gop, bitrate, *size, _float(row[v], "vqm_score", i)))
    del rows
    return list(names), *zip(*records)


def _write_csv(path, header, rows) -> None:
    """A header row, then ``rows``, as UTF-8 in ``csv.writer``'s default
    dialect."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_quality_log(path, records) -> None:
    """records: iterable of (content_id, gop_index, bitrate_kbps, (w, h), score)."""
    rows = ([c, g, repr(float(b)), int(res[0]), int(res[1]), repr(float(v))] for c, g, b, res, v in records)
    _write_csv(path, QUALITY_LOG_COLUMNS, rows)


def load_scored_points(path, units: str = "kbps") -> list[ScoredPoint]:
    from .curves import ScoredPoint  # only the commands that read scored points need it

    scale = unit_scale(units)
    _, rows = _read_rows(path, SCORED_POINT_COLUMNS)
    points = []
    for i, row in rows:
        points.append(
            ScoredPoint(
                content_id=row["content_id"],
                resolution=parse_resolution(row["resolution"], i),
                bitrate_kbps=_bitrate_cell(row["bitrate_kbps"], scale, i),
                subjective_jod=_float(row["subjective_jod"], "subjective_jod", i),
                objective_score=_float(row["objective_score"], "objective_score", i),
            )
        )
    return points


def load_feature_log(path, units: str = "kbps") -> tuple[list[GopRecord], FeatureSchema]:
    """Read a feature log; returns records plus the derived schema
    (log_bitrate_kbps, log_pixels, then the file's feature columns)."""
    from .vqm import FeatureSchema, GopRecord

    scale = unit_scale(units)
    header, rows = _read_rows(path, FEATURE_LOG_ID_COLUMNS, exact=False)
    feature_cols = [c for c in header if c not in FEATURE_LOG_ID_COLUMNS and c != LABEL_COLUMN]
    for c in feature_cols:
        if c in DERIVED_FEATURES:
            raise CsvSchemaError(f"column {c!r} collides with a derived feature name", 1)
    schema = FeatureSchema(DERIVED_FEATURES + tuple(feature_cols))
    has_label = LABEL_COLUMN in header
    records = []
    for i, row in rows:
        bitrate = _bitrate_cell(row["bitrate_kbps"], scale, i)
        w, h = _size(_int(row["width"], "width", i), _int(row["height"], "height", i), i)
        feats = [math.log(bitrate), math.log(w * h)]
        feats += [_float(row[c], c, i) for c in feature_cols]
        label = _float(row[LABEL_COLUMN], LABEL_COLUMN, i) if has_label and row[LABEL_COLUMN] != "" else None
        records.append(
            GopRecord(
                content_id=row["content_id"],
                gop_index=_int(row["gop_index"], "gop_index", i),
                bitrate_kbps=bitrate,
                resolution=(w, h),
                features=tuple(feats),
                label_jod=label,
            )
        )
    return records, schema


def write_feature_log(path, content_id: str, rows) -> None:
    """Write bitstream feature rows (GopFeatureRow) to the feature-log CSV."""
    from .avc.features import FEATURE_COLUMNS

    def row(r):
        return [content_id, r.gop_index, repr(float(r.bitrate_kbps)), r.width, r.height, *map(repr, r.feature_values())]

    _write_csv(path, FEATURE_LOG_ID_COLUMNS + FEATURE_COLUMNS, map(row, rows))


def _json_fields(parse):
    """Make a parser of a decoded JSON document raise InputError, not
    KeyError/TypeError/..., when a field is missing or has the wrong type."""

    @functools.wraps(parse)
    def checked(doc, *args):
        try:
            return parse(doc, *args)
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"missing or malformed field ({type(exc).__name__}: {exc})") from None

    return checked


def read_json(path):
    """Decode the JSON file at ``path``; a syntax error is an InputError
    that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InputError(f"{path}: not valid JSON ({exc})") from None


def _load_json(path, parse, *args):
    """``parse(doc, *args)`` of the JSON file at ``path``; every InputError
    names the file."""
    doc = read_json(path)
    try:
        return parse(doc, *args)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _bitrate(value, scale: float) -> float:
    b = scale * float(value)
    if not (math.isfinite(b) and b > 0):
        raise InputError(f"bitrate {value!r} must be finite and > 0")
    return b


@_json_fields
def _parse_ladder(doc, units: str) -> dict[float, list[tuple[int, int]]]:
    if isinstance(doc, dict) and "selected" in doc:
        return solution_from_dict(doc)
    scale = unit_scale(units)
    if "rungs" not in doc:
        raise InputError("ladder JSON must contain a 'rungs' list")
    out: dict[float, list[tuple[int, int]]] = {}
    for entry in doc["rungs"]:
        b = _bitrate(entry["bitrate_kbps"], scale)
        res = [(int(r[0]), int(r[1])) for r in entry["resolutions"]]
        if b in out:
            raise InputError(f"duplicate rung {b} in ladder")
        if not res:
            raise InputError(f"rung {b} lists no resolutions")
        out[b] = res
    if not out:
        raise InputError("ladder JSON lists no rungs")
    return out


def save_ladder(path, ladder: dict[float, list[tuple[int, int]]]) -> None:
    doc = {
        "rungs": [
            {"bitrate_kbps": b, "resolutions": [list(r) for r in sorted(res, key=_res_key)]}
            for b, res in sorted(ladder.items())
        ]
    }
    write_json(path, doc)


def ladder_entries(ladder: dict[float, list[tuple[int, int]]]) -> list[tuple[float, tuple[int, int]]]:
    return [(b, r) for b in sorted(ladder) for r in sorted(ladder[b], key=_res_key)]


def solution_to_dict(solution: LadderSolution) -> dict:
    return {
        "selected": [{"bitrate_kbps": b, "resolution": list(r)} for b, r in solution.selected],
        "objective": solution.objective,
        "trace": [dataclasses.asdict(s) for s in solution.trace],
    }


@_json_fields
def solution_from_dict(doc: dict) -> dict[float, list[tuple[int, int]]]:
    out: dict[float, list[tuple[int, int]]] = {}
    for entry in doc["selected"]:
        out.setdefault(_bitrate(entry["bitrate_kbps"], 1.0), []).append(tuple(int(v) for v in entry["resolution"]))
    return out


def load_ladder(path, units: str = "kbps") -> dict[float, list[tuple[int, int]]]:
    """Read a ladder document or an optimizer solution.  ``units`` converts
    a ladder's bitrates; a solution's are kbps, as the optimizer wrote them."""
    return _load_json(path, _parse_ladder, units)


@_json_fields
def _parse_weights(doc, units: str) -> dict[float, float]:
    scale = unit_scale(units)
    if not isinstance(doc, dict) or not doc:
        raise InputError("weights JSON must be a non-empty {bitrate: weight} object")
    return {_bitrate(k, scale): float(v) for k, v in doc.items()}


def load_weights(path, units: str = "kbps") -> dict[float, float]:
    return _load_json(path, _parse_weights, units)


def load_bandwidth_samples(path, units: str = "kbps") -> list[float]:
    scale = unit_scale(units)
    samples = []
    with open(path, "r", encoding="utf-8") as fh, _utf8_only():
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            samples.append(scale * _float(line, "bandwidth", i))
    if not samples:
        raise InputError("bandwidth sample file has no samples")
    return samples


def manifest_to_dict(manifest) -> dict:
    return dataclasses.asdict(manifest)


def save_manifest(path, manifest) -> None:
    write_json(path, manifest_to_dict(manifest))


@_json_fields
def _parse_segment_metadata(doc, units: str):
    from .drs import ManifestEntry

    scale = unit_scale(units)
    if "entries" not in doc:
        raise InputError("segment metadata JSON must contain an 'entries' list")
    entries = [
        ManifestEntry(
            bitrate_kbps=_bitrate(e["bitrate_kbps"], scale),
            resolution=(int(e["resolution"][0]), int(e["resolution"][1])),
            locator=str(e.get("locator", "")),
            quality_score=float(e["quality_score"]),
        )
        for e in doc["entries"]
    ]
    return int(doc.get("segment_index", 0)), entries


def load_segment_metadata(path, units: str = "kbps"):
    """Read per-segment representation metadata (the packager's input):
    segment index plus one scored entry per encoded representation.
    Returns ``(segment_index, [ManifestEntry, ...])``."""
    return _load_json(path, _parse_segment_metadata, units)


def write_json(path, obj) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_probability_csv(path, table: ProbabilityTable) -> None:
    rows = ([repr(float(b))] + [repr(float(v)) for v in p] for b, p in zip(table.rungs, table.probabilities))
    _write_csv(path, ["bitrate_kbps"] + [format_resolution(r) for r in table.resolutions], rows)


def _csv_cell(v) -> str:
    """One CSV cell: None and NaN empty, a bool 0/1, a float as its repr."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return "" if math.isnan(v) else float.__repr__(v)
    return str(v)


def _write_records_csv(path, cls, records) -> None:
    """A header of the dataclass ``cls``'s field names, then one row per record."""
    names = [f.name for f in dataclasses.fields(cls)]
    _write_csv(path, names, ([_csv_cell(getattr(r, n)) for n in names] for r in records))


def write_rcql_csv(rows_path, pairs_path, report: RcqlReport) -> None:
    from .rcql import PairContentRow

    _write_records_csv(rows_path, PairContentRow, report.rows)
    summary = report.pair_summary
    rows = [["dataset", "srocc", repr(report.srocc)], ["dataset", "plcc", repr(report.plcc)]]
    rows += [[pair, m, repr(summary[pair][m])] for pair in sorted(summary) for m in sorted(summary[pair])]
    _write_csv(pairs_path, ["pair", "metric", "value"], rows)


# Names of ``drskit.trace_io`` (which only the commands that use traces
# load) that this module resolves on first use, only because
# perfbench/tracer.py wraps them here by name.
_TRACE_NAMES = ("trace_to_dict", "write_trace_csv")


def __getattr__(name: str):
    if name not in _TRACE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(".trace_io", __package__), name)
    return value


def write_histogram_csv(path, bin_left, bin_right, counts) -> None:
    rows = ([repr(float(l)), repr(float(r)), int(c)] for l, r, c in zip(bin_left, bin_right, counts))
    _write_csv(path, ["bin_left", "bin_right", "count"], rows)


def write_cv_rows_csv(path, result) -> None:
    from .protocol import CvRow

    _write_records_csv(path, CvRow, result.rows)
