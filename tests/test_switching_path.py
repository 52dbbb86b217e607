"""Differential tests of the array-native switching path.

The columnar quality-log reader, the vectorised ``simulate`` and the
direct trace writers are checked against the per-record code they
replaced, which is kept here as the oracle: the same logs, the same
error texts, the same traces and the same bytes.  The trace reader for
``write_trace_json``'s own layout is checked against ``json`` plus
``trace_from_dict``, which reads every other file.
"""

import csv
import functools
import json
import random
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drskit import io, trace_io
from drskit.drs import DrsTrace, _ladder_map, simulate
from drskit.errors import CsvSchemaError, EmptyInput, IncompleteLog, InputError
from drskit.ladder import QualityLog, _res_key
from test_hostile_input import mutations

HEADER = ",".join(io.QUALITY_LOG_COLUMNS)


# --- oracles: the per-record code the switching path replaced -------------


def oracle_from_records(records) -> QualityLog:
    """QualityLog built one record at a time."""
    records = list(records)
    if not records:
        raise EmptyInput("quality log has no records")
    rungs = tuple(sorted({float(r[2]) for r in records}))
    resolutions = tuple(sorted({(int(r[3][0]), int(r[3][1])) for r in records}, key=_res_key))
    gop_ids = tuple(sorted({(str(r[0]), int(r[1])) for r in records}))
    rung_idx = {b: i for i, b in enumerate(rungs)}
    res_idx = {r: i for i, r in enumerate(resolutions)}
    gop_idx = {g: i for i, g in enumerate(gop_ids)}
    scores = np.full((len(gop_ids), len(rungs), len(resolutions)), np.nan)
    for content, gop, bitrate, res, score in records:
        i = gop_idx[(str(content), int(gop))]
        j = rung_idx[float(bitrate)]
        k = res_idx[(int(res[0]), int(res[1]))]
        if not np.isnan(scores[i, j, k]):
            raise InputError(f"duplicate quality record for {(content, gop, bitrate, res)}")
        scores[i, j, k] = float(score)
    return QualityLog(rungs, resolutions, gop_ids, scores)


def oracle_load_quality_log(path, units: str = "kbps") -> QualityLog:
    """Quality-log CSV read row by row through csv.DictReader."""
    scale = io.unit_scale(units)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise CsvSchemaError("file is empty (no header row)", 1)
        missing = [c for c in io.QUALITY_LOG_COLUMNS if c not in header]
        if missing:
            raise CsvSchemaError(f"missing mandatory columns {missing}", 1)
        extra = [c for c in header if c not in io.QUALITY_LOG_COLUMNS]
        if extra:
            raise CsvSchemaError(f"unexpected columns {extra}", 1)
        rows = []
        for i, row in enumerate(reader, start=2):
            if any(v is None for v in row.values()):
                raise CsvSchemaError("short row", i)
            rows.append((i, row))
        if not rows:
            raise CsvSchemaError("file has a header but no data rows", 2)
    records = []
    for i, row in rows:
        gop = io._int(row["gop_index"], "gop_index", i)
        bitrate = io._bitrate_cell(row["bitrate_kbps"], scale, i)
        w, h = io._int(row["width"], "width", i), io._int(row["height"], "height", i)
        if w <= 0 or h <= 0:
            raise CsvSchemaError(f"width/height must be > 0, got {w}x{h}", i)
        records.append((row["content_id"], gop, bitrate, (w, h), io._float(row["vqm_score"], "vqm_score", i)))
    return oracle_from_records(records)


def oracle_simulate(log: QualityLog, ladder, granularity_gops: int) -> DrsTrace:
    """Switching decisions taken one window at a time."""
    rung_map = _ladder_map(ladder, log)
    n = log.n_gops
    chosen_res = np.zeros((n, len(log.rungs)), dtype=np.int64)
    chosen_score = np.zeros((n, len(log.rungs)))
    flips = np.zeros(len(log.rungs), dtype=np.int64)
    for j, b in enumerate(log.rungs):
        res_indices = [log.res_index(r) for r in rung_map[b]]
        cols = log.scores[:, j, res_indices]
        if np.isnan(cols).any():
            raise IncompleteLog(f"log is missing scores for rung {b}")
        prev = None
        for w0 in range(0, n, granularity_gops):
            w1 = min(w0 + granularity_gops, n)
            k = int(np.argmax(cols[w0:w1].sum(axis=0)))
            chosen_res[w0:w1, j] = res_indices[k]
            chosen_score[w0:w1, j] = cols[w0:w1, k]
            if prev is not None and k != prev:
                flips[j] += 1
            prev = k
    return DrsTrace(
        rungs=log.rungs,
        resolutions=log.resolutions,
        gop_ids=log.gop_ids,
        granularity_gops=granularity_gops,
        chosen_res=chosen_res,
        chosen_score=chosen_score,
        per_rung_mean=chosen_score.mean(axis=0),
        flips=flips,
    )


def oracle_trace_json(trace) -> str:
    """What ``io.write_json`` writes for ``trace_to_dict(trace)``."""
    return json.dumps(io.trace_to_dict(trace), sort_keys=True, indent=2) + "\n"


def oracle_write_trace_csv(path, trace) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["content_id", "gop_index", "bitrate_kbps", "width", "height", "score"])
        for i, (content, gop) in enumerate(trace.gop_ids):
            for j, b in enumerate(trace.rungs):
                res = trace.resolutions[int(trace.chosen_res[i, j])]
                writer.writerow([content, gop, repr(float(b)), res[0], res[1], repr(float(trace.chosen_score[i, j]))])


def oracle_trace_from_dict(doc: dict) -> DrsTrace:
    """``io.trace_from_dict`` one selection at a time, through
    ``tuple.index``."""

    @io._json_fields
    def parse(doc):
        rungs = tuple(float(b) for b in doc["rungs"])
        resolutions = tuple((int(r[0]), int(r[1])) for r in doc["resolutions"])
        n = int(doc["n_gops"])
        gop_ids = []
        chosen_res = np.zeros((n, len(rungs)), dtype=np.int64)
        chosen_score = np.zeros((n, len(rungs)))
        sel = doc["selections"]
        if len(sel) != n * len(rungs):
            raise InputError(f"trace has {len(sel)} selections, expected {n * len(rungs)}")
        for i in range(n):
            block = sel[i * len(rungs) : (i + 1) * len(rungs)]
            gop_ids.append((block[0]["content_id"], int(block[0]["gop_index"])))
            for j, entry in enumerate(block):
                chosen_res[i, j] = resolutions.index(tuple(entry["resolution"]))
                chosen_score[i, j] = float(entry["score"])
        return DrsTrace(
            rungs=rungs,
            resolutions=resolutions,
            gop_ids=tuple(gop_ids),
            granularity_gops=int(doc["granularity_gops"]),
            chosen_res=chosen_res,
            chosen_score=chosen_score,
            per_rung_mean=chosen_score.mean(axis=0),
            flips=np.asarray(doc["flips"], dtype=np.int64),
        )

    return parse(doc)


# --- helpers ---------------------------------------------------------------


def assert_same_log(got: QualityLog, want: QualityLog) -> None:
    assert got.rungs == want.rungs
    assert all(type(b) is float for b in got.rungs)
    assert got.resolutions == want.resolutions
    assert got.gop_ids == want.gop_ids
    assert all(type(c) is str and type(g) is int for c, g in got.gop_ids)
    assert got.scores.dtype == want.scores.dtype
    assert np.array_equal(got.scores, want.scores, equal_nan=True)
    assert not got.scores.flags.writeable


def assert_same_trace(got: DrsTrace, want: DrsTrace) -> None:
    for name in ("chosen_res", "chosen_score", "per_rung_mean", "flips"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def assert_bitwise_same(got: DrsTrace, want: DrsTrace) -> None:
    assert got.rungs == want.rungs and got.resolutions == want.resolutions
    assert got.gop_ids == want.gop_ids and got.granularity_gops == want.granularity_gops
    for name in ("chosen_res", "chosen_score", "per_rung_mean", "flips"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def same_trace_outcome(path: Path) -> None:
    """Read ``path`` with ``load_trace`` and with json alone: the same
    trace, or the same error."""
    try:
        want = io._load_json(path, io.trace_from_dict)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            io.load_trace(path)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
    else:
        assert_bitwise_same(io.load_trace(path), want)


def write_csv(path: Path, rows, blank_lines=()) -> Path:
    """Quality-log CSV of ``rows`` (lists of cells), with a blank line
    before each data row index in ``blank_lines``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(io.QUALITY_LOG_COLUMNS)
        for k, row in enumerate(rows):
            if k in blank_lines:
                fh.write("\r\n")
            writer.writerow(row)
    return path


def same_error(path: Path, units: str = "kbps") -> Exception:
    """Load ``path`` with both readers; both must fail alike."""
    with pytest.raises(InputError) as new:
        io.load_quality_log(path, units)
    with pytest.raises(InputError) as old:
        oracle_load_quality_log(path, units)
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value)
    return new.value


def same_outcome(path: Path, units: str = "kbps") -> None:
    """Load ``path`` with both readers: the same log, or the same error."""
    try:
        want = oracle_load_quality_log(path, units)
    except InputError:
        same_error(path, units)
    else:
        assert_same_log(io.load_quality_log(path, units), want)


# Block sizes, in characters, small enough that every line of a test file
# starts a block of its own or lies in a later block than the header;
# ``with small_blocks(n):`` reads quality logs n characters at a time.
READ_CHARS = [1, 7, 64]
small_blocks = functools.partial(mock.patch.object, io, "_QUALITY_READ_CHARS")


CONTENT_IDS = st.text(
    alphabet=st.sampled_from(list("abcXYZ019 ,\"'\t\r\n\x00") + ["é", "ü", "中", "—", "🎬"]),
    max_size=6,
)


@st.composite
def quality_logs(draw):
    """Shuffled quality-log rows (cell text) of a random, possibly
    sparse log, plus the units to read them in."""
    contents = draw(st.lists(CONTENT_IDS, min_size=1, max_size=3, unique=True))
    gops = draw(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=4, unique=True))
    rungs = draw(st.lists(st.floats(1e-3, 1e6, allow_nan=False), min_size=1, max_size=4, unique=True))
    resolutions = draw(
        st.lists(st.tuples(st.integers(1, 4000), st.integers(1, 4000)), min_size=1, max_size=3, unique=True)
    )
    cells = [(c, g, b, r) for c in contents for g in gops for b in rungs for r in resolutions]
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    kept = [cell for cell, k in zip(cells, keep) if k] or cells[:1]
    rows = []
    for c, g, b, (w, h) in kept:
        score = draw(st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.integers(-10, 10)))
        rows.append([c, str(g), repr(b), str(w), str(h), repr(score)])
    random.Random(draw(st.integers(0, 2**32))).shuffle(rows)
    return rows, draw(st.sampled_from(["kbps", "mbps"]))


# Characters around which numpy's parser and int()/float() may disagree.
ODD_NUMBER_TEXT = st.lists(
    st.sampled_from(
        list("0123456789+-.eE_ \t\x0b\x0c") + ["\x00", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
        + ["\u0663", "\uff19", "\ufcf2", "\u0903", "inf", "nan", "Infinity", "#", "'", ";"]
    ),
    max_size=8,
).map("".join)


@st.composite
def quality_cells(draw):
    """Rows of unquoted quality-log cells; each number is plain, written
    in another form, or odd text."""
    ints = st.one_of(st.integers(-(2**70), 2**70).map(str), st.integers(1, 4000).map(str), ODD_NUMBER_TEXT)
    floats = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.floats(1e-3, 1e6).map(lambda v: f"{v:.17g}"),
        st.floats(1e-3, 1e6).map(lambda v: f"{v:.4f}"),
        st.floats(-1e300, 1e300).map(lambda v: f"{v:e}"),
        ODD_NUMBER_TEXT,
    )
    n = draw(st.integers(1, 5))
    return [
        [
            draw(st.sampled_from(["c", "d", "\u00e9", "c\x1c"])),
            draw(ints),
            draw(floats),
            draw(ints),
            draw(ints),
            draw(floats),
        ]
        for _ in range(n)
    ]


# --- quality-log ingest ----------------------------------------------------


class TestIngest:
    @given(quality_logs())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_record_reader(self, tmp_path_factory, drawn):
        rows, units = drawn
        path = write_csv(tmp_path_factory.mktemp("log") / "log.csv", rows)
        assert_same_log(io.load_quality_log(path, units), oracle_load_quality_log(path, units))

    @pytest.mark.parametrize("read_chars", READ_CHARS)
    @given(quality_logs())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_record_reader_in_small_blocks(self, tmp_path_factory, read_chars, drawn):
        rows, units = drawn
        path = write_csv(tmp_path_factory.mktemp("log") / "log.csv", rows)
        with small_blocks(read_chars):
            assert_same_log(io.load_quality_log(path, units), oracle_load_quality_log(path, units))

    @given(quality_logs())
    @settings(max_examples=50, deadline=None)
    def test_from_records_matches_per_record_build(self, drawn):
        rows, _units = drawn
        records = [(c, int(g), float(b), (int(w), int(h)), float(s)) for c, g, b, w, h, s in rows]
        assert_same_log(QualityLog.from_records(records), oracle_from_records(records))

    def test_fixture(self):
        path = Path(__file__).parent / "data" / "synthetic_quality_log.csv"
        assert_same_log(io.load_quality_log(path), oracle_load_quality_log(path))

    def test_blank_lines_and_long_rows(self, tmp_path):
        rows = [["c", "0", "1000", "960", "540", "5.0", "extra"], ["c", "0", "2000", "960", "540", "6.0"]]
        path = write_csv(tmp_path / "log.csv", rows, blank_lines=(0, 1))
        assert_same_log(io.load_quality_log(path), oracle_load_quality_log(path))

    def test_peak_memory_follows_the_numbers(self, tmp_path):
        """A plain log of 57 600 rows loads with a peak below four times
        its bytes: the text is read a block at a time and each row keeps
        only numbers, its content id as a code."""
        rng = random.Random(7)
        rungs = (1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0, 10000.0)
        resolutions = ((960, 540), (1280, 720), (1920, 1080))
        records = [
            (f"c{c:02d}", g, b, res, round(rng.uniform(0.0, 10.0), 4))
            for c in range(20)
            for g in range(120)
            for b in rungs
            for res in resolutions
        ]
        path = tmp_path / "log.csv"
        io.write_quality_log(path, records)
        del records
        io.load_quality_log(path)  # imports outside the measurement
        tracemalloc.start()
        try:
            log = io.load_quality_log(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.scores.shape == (2400, 8, 3)
        assert peak < 4 * path.stat().st_size

    GOOD = ["c", "0", "1000", "960", "540", "5.0"]

    @pytest.mark.parametrize(
        "column, cell, text",
        [
            (1, "x1", "column 'gop_index': 'x1' is not an integer"),
            (1, "1.5", "column 'gop_index': '1.5' is not an integer"),
            (3, "", "column 'width': '' is not an integer"),
            (4, "540p", "column 'height': '540p' is not an integer"),
            (5, "oops", "column 'vqm_score': 'oops' is not a number"),
            (2, "fast", "column 'bitrate_kbps': 'fast' is not a number"),
            (5, "nan", "column 'vqm_score': 'nan' is not finite"),
            (5, "-inf", "column 'vqm_score': '-inf' is not finite"),
            (2, "inf", "column 'bitrate_kbps': 'inf' is not finite"),
            (2, "0", "bitrate_kbps must be > 0, got 0.0"),
            (2, "-5", "bitrate_kbps must be > 0, got -5.0"),
        ],
    )
    def test_bad_cell_error_parity(self, tmp_path, column, cell, text):
        bad = list(self.GOOD)
        bad[column] = cell
        rows = [self.GOOD, ["c", "1", "1000", "960", "540", "4.0"], bad, ["c", "2", "zz", "960", "540", "4.0"]]
        # The blank line shifts no row number: rows count non-blank lines.
        err = same_error(write_csv(tmp_path / "log.csv", rows, blank_lines=(1,)))
        assert str(err) == f"row 4: {text}"

    def test_first_bad_row_wins_across_columns(self, tmp_path):
        rows = [self.GOOD, ["c", "1", "1000", "960", "540", "bad"], ["c", "bad", "1000", "960", "540", "4.0"]]
        err = same_error(write_csv(tmp_path / "log.csv", rows))
        assert str(err) == "row 3: column 'vqm_score': 'bad' is not a number"

    def test_bitrate_error_after_mbps_scale(self, tmp_path):
        rows = [self.GOOD, ["c", "1", "-0.0", "960", "540", "4.0"]]
        err = same_error(write_csv(tmp_path / "log.csv", rows), "mbps")
        assert str(err) == "row 3: bitrate_kbps must be > 0, got -0.0"

    def test_short_row_parity(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(f"{HEADER}\nc,0,1000,960,540,oops\n\nc,1,1000,960,540\n", encoding="utf-8")
        err = same_error(path)
        assert str(err) == "row 3: short row"

    def test_duplicate_record_parity(self, tmp_path):
        rows = [
            self.GOOD,
            ["c", "1", "1000", "960", "540", "4.0"],
            ["d", "0", "1000", "960", "540", "4.0"],
            ["c", "1", "1000.0", "960", "540", "3.0"],
            ["c", "00", "1e3", "960", "540", "2.0"],
        ]
        err = same_error(write_csv(tmp_path / "log.csv", rows), "kbps")
        assert str(err) == "duplicate quality record for ('c', 1, 1000.0, (960, 540))"

    def test_duplicate_record_parity_mbps(self, tmp_path):
        rows = [["é,\"", "3", "1.5", "960", "540", "5.0"], ["é,\"", "3", "1.50", "960", "540", "6.0"]]
        err = same_error(write_csv(tmp_path / "log.csv", rows), "mbps")
        assert str(err) == "duplicate quality record for ('é,\"', 3, 1500.0, (960, 540))"

    @pytest.mark.parametrize(
        "text",
        ["", "content_id,gop_index\n", f"{HEADER},x\nc,0,1000,960,540,5.0,1\n", f"{HEADER}\n", f"{HEADER}\n\n"],
    )
    def test_header_error_parity(self, tmp_path, text):
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8")
        same_error(path)

    @pytest.mark.parametrize(
        "cells, text",
        [
            (("0", "540"), "width/height must be > 0, got 0x540"),
            (("960", "0"), "width/height must be > 0, got 960x0"),
            (("-960", "540"), "width/height must be > 0, got -960x540"),
            (("-1", "-1"), "width/height must be > 0, got -1x-1"),
        ],
    )
    def test_size_error_parity(self, tmp_path, cells, text):
        # The size check comes before the score's, as in the feature log.
        rows = [self.GOOD, ["c", "1", "1000", *cells, "bad"], ["c", "2", "1000", "0", "0", "4.0"]]
        err = same_error(write_csv(tmp_path / "log.csv", rows))
        assert str(err) == f"row 3: {text}"


# Files on both sides of what numpy's parser reads as int()/float() do.
PLAIN_ROW = "c,1,1000,960,540,4.0\n"
BOUNDARY_FILES = {
    "underscore gop": "c,1_000,1000,960,540,5.0\n",
    "underscore bitrate": "c,0,1_000.5,960,540,5.0\n",
    "underscore width": "c,0,1000,9_60,540,5.0\n",
    "underscore score": "c,0,1000,960,540,5_0.25\n",
    "arabic-indic digit gop": "c,\u0663,1000,960,540,5.0\n",
    "arabic-indic digit score": "c,0,1000,960,540,\u0663.5\n",
    "fullwidth digit width": "c,0,1000,\uff1960,540,5.0\n",
    "non-ascii numpy reads as a digit": "c,7\ufcf2,1000,960,540,5.0\n",
    "non-ascii numpy reads as a digit, in a size": "c,0,1000,960,5\ufcf40,5.0\n",
    "gop 2**70": f"c,{2**70},1000,960,540,5.0\nc,{-(2**70)},1000,960,540,5.0\n",
    "width 2**70": f"c,0,1000,{2**70},540,5.0\n",
    "padded cells": "c, 7 ,1000 , 960,\t540\t, 5.0 \n",
    "signed cells": "c,+7,+1000,+960,540,-5.0\n",
    "float as int gop": "c,1.0,1000,960,540,5.0\n",
    "float as int height": "c,0,1000,960,540.0,5.0\n",
    "exponent as int": "c,1e3,1000,960,540,5.0\n",
    "quoted id": '"c,d",0,1000,960,540,5.0\n"c",1,1000,960,540,4.0\n',
    "quoted numbers": 'c,"7","1000","960","540","5.0"\n',
    "quote inside an id": 'c"d,0,1000,960,540,5.0\n',
    "hash in an id": "c#1,0,1000,960,540,5.0\n#c,1,1000,960,540,4.0\n",
    "hash in a number": "c,0,1000,960,540,5.0#1\n",
    "long rows": "c,0,1000,960,540,5.0,extra,more\nc,1,1000,960,540,4.0,\n",
    "short row": "c,0,1000,960,540\n",
    "blank lines": "\n\r\nc,0,1000,960,540,5.0\r\n\n\rc,1,1000,960,540,4.0\r",
    "whitespace-only line": "c,0,1000,960,540,5.0\n   \nc,1,1000,960,540,4.0\n",
    "tab-only line": "c,0,1000,960,540,5.0\n\t\n",
    "cr line ends": "c,0,1000,960,540,5.0\rc,1,1000,960,540,4.0\r",
    "no line break at the end": "c,0,1000,960,540,5.0\nc,2,1000,960,540,4.0",
    "x1c inside a row": "c,0,1000,960,540,5.0\x1cc,1,1000,960,540,4.0\n",
    "x85 inside a row": "c,0,1000,960,540,5.0\x85c,1,1000,960,540,4.0\n",
    "u2028 inside a row": "c,0,1000,960,540,5.0\u2028c,1,1000,960,540,4.0\n",
    "x1c after a score": "c,0,1000,960,540,5.0\x1c\n",
    "x1f after a gop": "c,7\x1f,1000,960,540,5.0\n",
    "x1d in an id": "c\x1dd,0,1000,960,540,5.0\n",
    "x85 after a gop": "c,7\x85,1000,960,540,5.0\n",
    "nbsp before a score": "c,0,1000,960,540,\xa05.0\n",
    "nul in an id": "c\x00d,0,1000,960,540,5.0\n",
    "nul after a number": "c,0,1000\x00,960,540,5.0\n",
    "vertical tab and form feed": "c,\x0b7,1000\x0c,960,540,5.0\n",
    "non-ascii ids": "na\u00efve,0,1000,960,540,5.0\n\u4e2d\u6587,0,1000,960,540,4.0\n",
    "nan score": "c,0,1000,960,540,nan\n",
    "infinite bitrate": "c,0,1e400,960,540,5.0\n",
    "zero bitrate": "c,0,0.0,960,540,5.0\n",
    "zero width": "c,0,1000,0,540,5.0\n",
    "negative height": "c,0,1000,960,-540,5.0\n",
    "duplicate record": "c,1,1000,960,540,5.0\n",
}


class TestNumpyParserBoundary:
    """The numpy parser reads a file exactly as the row reader does, or
    leaves it to the row reader."""

    @pytest.mark.parametrize("units", ["kbps", "mbps"])
    @pytest.mark.parametrize("name", sorted(BOUNDARY_FILES))
    def test_boundary_file(self, tmp_path, name, units):
        path = tmp_path / "log.csv"
        path.write_bytes((HEADER + "\n" + PLAIN_ROW + BOUNDARY_FILES[name]).encode("utf-8"))
        same_outcome(path, units)

    @pytest.mark.parametrize("read_chars", READ_CHARS)
    @pytest.mark.parametrize("name", sorted(BOUNDARY_FILES))
    def test_boundary_file_in_small_blocks(self, tmp_path, name, read_chars):
        """Each case lands on a block edge or in a later block than the
        header: a \\r\\n split between two blocks, blank lines, quotes,
        separators, non-ASCII text and bad cells."""
        with small_blocks(read_chars):
            self.test_boundary_file(tmp_path, name, "kbps")

    @pytest.mark.parametrize(
        "header",
        [
            "gop_index,content_id,bitrate_kbps,width,height,vqm_score",
            "\ufeff" + HEADER,
            HEADER + ",",
            HEADER.replace(",", ", "),
        ],
    )
    def test_other_headers(self, tmp_path, header):
        path = tmp_path / "log.csv"
        path.write_bytes((header + "\n1,c,1000,960,540,5.0\n").encode("utf-8"))
        same_outcome(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes((HEADER + "\nc\xe9,0,1000,960,540,5.0\n").encode("latin-1"))
        with pytest.raises(InputError, match="not UTF-8 text"):
            io.load_quality_log(path)

    @pytest.mark.parametrize("read_chars", READ_CHARS)
    def test_not_utf8_in_small_blocks(self, tmp_path, read_chars):
        with small_blocks(read_chars):
            self.test_not_utf8(tmp_path)

    @pytest.mark.parametrize("read_chars", READ_CHARS)
    def test_plain_log_in_small_blocks_never_reaches_csv_reader(self, tmp_path, monkeypatch, read_chars):
        """CRLF line ends, so a block may end between \\r and \\n."""
        with small_blocks(read_chars):
            self.test_plain_log_never_reaches_csv_reader(tmp_path, monkeypatch, ("na\u00efve", "c#1", " c "))

    @pytest.mark.parametrize(
        "ids", [("plain", "other"), ("na\u00efve", "\u4e2d\u6587", "emoji\U0001f3ac"), ("c\x00d", "c#1", " c ")]
    )
    def test_plain_log_never_reaches_csv_reader(self, tmp_path, monkeypatch, ids):
        path = tmp_path / "log.csv"
        io.write_quality_log(path, [(c, g, 1000.0, (960, 540), 5.0 + g) for c in ids for g in range(3)])
        want = oracle_load_quality_log(path)

        def refuse(*args, **kwargs):
            raise AssertionError("a plain quality log reached csv.reader")

        fixture = Path(__file__).parent / "data" / "synthetic_quality_log.csv"
        want_fixture = oracle_load_quality_log(fixture)
        monkeypatch.setattr(io, "_read_table", refuse)
        assert_same_log(io.load_quality_log(path), want)
        assert_same_log(io.load_quality_log(fixture), want_fixture)

    @pytest.mark.parametrize("content", ["c,d", 'say "hi"', "line\r\nbreak"])
    def test_quoted_log_reaches_csv_reader(self, tmp_path, monkeypatch, content):
        path = tmp_path / "log.csv"
        io.write_quality_log(path, [(content, 0, 1000.0, (960, 540), 5.0), ("c", 0, 1000.0, (960, 540), 4.0)])
        assert '"' in path.read_text(encoding="utf-8")
        calls = []
        real = io._read_table

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(io, "_read_table", spy)
        assert_same_log(io.load_quality_log(path), oracle_load_quality_log(path))
        assert calls == [path]

    @given(quality_cells(), st.sampled_from(["kbps", "mbps"]))
    @settings(max_examples=300, deadline=None)
    def test_any_cells(self, tmp_path_factory, rows, units):
        """The drawn file, then a QUOTE_ALL copy that only the row reader reads."""
        folder = tmp_path_factory.mktemp("log")
        path = folder / "log.csv"
        path.write_bytes((HEADER + "\n" + "".join(",".join(row) + "\n" for row in rows)).encode("utf-8"))
        same_outcome(path, units)
        quoted = folder / "quoted.csv"
        with open(quoted, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([io.QUALITY_LOG_COLUMNS, *rows])
        same_outcome(quoted, units)


# --- simulate --------------------------------------------------------------


@st.composite
def switching_cases(draw):
    """A complete log, a ladder over it and a window length; integer
    scores make exact ties common, float scores test summation order."""
    n = draw(st.integers(1, 40))
    n_rungs = draw(st.integers(1, 3))
    n_res = draw(st.integers(1, 4))
    if draw(st.booleans()):
        scores = np.array(draw(st.lists(st.integers(0, 2), min_size=n * n_rungs * n_res, max_size=n * n_rungs * n_res)))
    else:
        scores = np.array(
            draw(
                st.lists(
                    st.floats(-1e3, 1e3, allow_nan=False),
                    min_size=n * n_rungs * n_res,
                    max_size=n * n_rungs * n_res,
                )
            )
        )
    scores = scores.astype(float).reshape(n, n_rungs, n_res)
    scores.flags.writeable = False
    resolutions = tuple((160 * (k + 1), 90 * (k + 1)) for k in range(n_res))
    rungs = tuple(1000.0 * (j + 1) for j in range(n_rungs))
    log = QualityLog(rungs, resolutions, tuple(("c", i) for i in range(n)), scores)
    ladder = {
        b: draw(st.lists(st.sampled_from(resolutions), min_size=1, max_size=n_res, unique=True)) for b in rungs
    }
    return log, ladder, draw(st.integers(1, n + 3))


class TestSimulate:
    @given(switching_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_window_loop(self, case):
        log, ladder, granularity = case
        assert_same_trace(simulate(log, ladder, granularity), oracle_simulate(log, ladder, granularity))

    @pytest.mark.parametrize("granularity", [1, 5, 24, 25])
    def test_fixture(self, granularity):
        log = io.load_quality_log(Path(__file__).parent / "data" / "synthetic_quality_log.csv")
        ladder = io.load_ladder(Path(__file__).parent / "data" / "dynamic_ladder.json")
        assert_same_trace(simulate(log, ladder, granularity), oracle_simulate(log, ladder, granularity))

    @pytest.mark.parametrize("granularity", [2, 7, 8, 9, 16, 130, 333, 1000, 1001])
    def test_long_float_windows(self, granularity):
        # Scores over eleven decades, so the window sums depend on the
        # order numpy adds them up in.
        rng = np.random.default_rng(granularity)
        scores = rng.normal(size=(1000, 2, 4)) * 10.0 ** rng.uniform(-3, 8, size=(1000, 2, 4))
        log = QualityLog((1.0, 2.0), ((2, 2), (3, 3), (4, 4), (5, 5)), tuple(("c", i) for i in range(1000)), scores)
        ladder = {1.0: [(2, 2), (3, 3), (4, 4), (5, 5)], 2.0: [(3, 3), (5, 5)]}
        assert_same_trace(simulate(log, ladder, granularity), oracle_simulate(log, ladder, granularity))

    @pytest.mark.parametrize("granularity", [3, 8, 9, 17, 40, 129])
    def test_near_tie_windows(self, granularity):
        # Every column holds the same values in a different order within
        # each window, so the window sums differ only by rounding and the
        # choice depends on the order they are added up in.
        rng = np.random.default_rng(granularity)
        n = 40 * granularity + granularity // 2
        base = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 6, size=n)
        cols = [base.copy() for _ in range(4)]
        for w0 in range(0, n, granularity):
            for col in cols[1:]:
                col[w0 : w0 + granularity] = rng.permutation(base[w0 : w0 + granularity])
        scores = np.stack(cols, axis=1)[:, None, :]
        log = QualityLog((1.0,), ((2, 2), (3, 3), (4, 4), (5, 5)), tuple(("c", i) for i in range(n)), scores)
        ladder = {1.0: list(log.resolutions)}
        assert_same_trace(simulate(log, ladder, granularity), oracle_simulate(log, ladder, granularity))

    def test_tie_heavy_partial_window(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 2, size=(23, 4, 3)).astype(float)
        log = QualityLog((1.0, 2.0, 3.0, 4.0), ((2, 2), (3, 3), (4, 4)), tuple(("c", i) for i in range(23)), scores)
        ladder = {b: [(2, 2), (3, 3), (4, 4)] for b in log.rungs}
        for granularity in (1, 3, 5, 22, 23, 24):
            assert_same_trace(simulate(log, ladder, granularity), oracle_simulate(log, ladder, granularity))


# --- trace writers ---------------------------------------------------------


def unicode_trace(granularity: int, contents=("naïve,\"clip\"", "中文", "plain", "emoji🎬\n")) -> DrsTrace:
    rng = np.random.default_rng(granularity)
    records = [
        (content, gop, b, res, float(rng.normal(5.0, 2.0)))
        for content in contents
        for gop in range(7)
        for b in (800.0, 1500.5, 3000.0)
        for res in ((640, 360), (1280, 720), (1920, 1080))
    ]
    log = QualityLog.from_records(records)
    ladder = {800.0: [(640, 360)], 1500.5: [(640, 360), (1280, 720)], 3000.0: [(1280, 720), (1920, 1080)]}
    return simulate(log, ladder, granularity)


@st.composite
def raw_traces(draw):
    """DrsTrace values as any caller may build them, non-finite scores
    included."""
    n = draw(st.integers(1, 5))
    rungs = tuple(draw(st.lists(st.floats(1.0, 1e5), min_size=1, max_size=3, unique=True)))
    resolutions = ((2, 2), (4, 3), (1920, 1080))
    gop_ids = tuple((draw(CONTENT_IDS), draw(st.integers(-(2**40), 2**40))) for _ in range(n))
    chosen_res = np.array(
        draw(st.lists(st.integers(0, 2), min_size=n * len(rungs), max_size=n * len(rungs))), dtype=np.int64
    ).reshape(n, len(rungs))
    chosen_score = np.array(
        draw(st.lists(st.floats(allow_nan=True), min_size=n * len(rungs), max_size=n * len(rungs))), dtype=float
    ).reshape(n, len(rungs))
    with np.errstate(invalid="ignore", over="ignore"):
        per_rung_mean = chosen_score.mean(axis=0)
    return DrsTrace(
        rungs=rungs,
        resolutions=resolutions,
        gop_ids=gop_ids,
        granularity_gops=draw(st.integers(1, 9)),
        chosen_res=chosen_res,
        chosen_score=chosen_score,
        per_rung_mean=per_rung_mean,
        flips=np.array(draw(st.lists(st.integers(0, 50), min_size=len(rungs), max_size=len(rungs)))),
    )


class TestTraceWriters:
    @pytest.mark.parametrize("granularity", [1, 3])
    def test_json_bytes(self, tmp_path, granularity):
        trace = unicode_trace(granularity)
        path = tmp_path / "out" / "trace.json"
        io.write_trace_json(path, trace)
        assert path.read_bytes() == oracle_trace_json(trace).encode("utf-8")
        io.write_json(tmp_path / "ref.json", io.trace_to_dict(trace))
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize("granularity", [1, 3])
    def test_csv_bytes(self, tmp_path, granularity):
        trace = unicode_trace(granularity)
        io.write_trace_csv(tmp_path / "new.csv", trace)
        oracle_write_trace_csv(tmp_path / "old.csv", trace)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @given(raw_traces())
    @settings(max_examples=100, deadline=None)
    def test_any_trace(self, tmp_path_factory, trace):
        out = tmp_path_factory.mktemp("trace")
        io.write_trace_json(out / "trace.json", trace)
        assert (out / "trace.json").read_text(encoding="utf-8") == oracle_trace_json(trace)
        io.write_trace_csv(out / "new.csv", trace)
        oracle_write_trace_csv(out / "old.csv", trace)
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
        io.write_trace_files(trace, out / "both.json", out / "both.csv")
        assert (out / "both.json").read_bytes() == (out / "trace.json").read_bytes()
        assert (out / "both.csv").read_bytes() == (out / "old.csv").read_bytes()
        # Read back: the layout reader takes every file whose ids hold no quote.
        want = oracle_trace_from_dict(json.loads((out / "trace.json").read_text(encoding="utf-8")))
        assert_bitwise_same(io.load_trace(out / "trace.json"), want)
        quoted = any('"' in content for content, _ in trace.gop_ids)
        assert (trace_io._read_trace_layout(out / "trace.json") is None) == quoted

    @pytest.mark.parametrize(
        "contents", [None, ("naïve,clip", "中文", "plain", "emoji🎬\n")], ids=["quoted-id", "no-quote"]
    )
    @given(data=st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_trace_reads_as_json_does(self, tmp_path, contents, data):
        trace = unicode_trace(2) if contents is None else unicode_trace(2, contents)
        io.write_trace_json(tmp_path / "trace.json", trace)
        path = tmp_path / "mutated.json"
        path.write_bytes(data.draw(mutations((tmp_path / "trace.json").read_bytes())))
        same_trace_outcome(path)

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda text, doc: text.replace("\n", "\r\n"),
            lambda text, doc: json.dumps(doc, indent=2),
            lambda text, doc: json.dumps(doc, sort_keys=True),
            lambda text, doc: json.dumps({**doc, "comment": "x"}, sort_keys=True, indent=2) + "\n",
            lambda text, doc: text.replace('"score": ', '"score": 1.5,\n      "score": ', 1),
            lambda text, doc: text.replace('  "n_gops": ', '  "n_gops": 3,\n  "n_gops": ', 1),
            lambda text, doc: text.replace('"content_id": "plain"', '"content_id": "pl\\"ain"'),
            lambda text, doc: text.replace('"content_id": "plain"', '"content_id": "plain\\\\"'),
            lambda text, doc: text + "  \n\t",
            lambda text, doc: text.replace('"bitrate_kbps": 1500.5', '"bitrate_kbps": 1500.0', 1),
            lambda text, doc: text.replace('1500.5,\n      "content_id": "plain"', '1500.5,\n      "content_id": "x"'),
        ],
        ids=[
            "crlf",
            "reordered-keys",
            "compact",
            "extra-key",
            "duplicated-key",
            "duplicated-header-key",
            "escaped-quote-id",
            "id-ending-in-backslash",
            "trailing-bytes",
            "other-bitrate",
            "id-differs-within-gop",
        ],
    )
    def test_other_layouts_read_through_json(self, tmp_path, rewrite):
        io.write_trace_json(tmp_path / "trace.json", unicode_trace(2, ("naïve,clip", "中文", "plain")))
        text = (tmp_path / "trace.json").read_text(encoding="utf-8")
        path = tmp_path / "other.json"
        path.write_bytes(rewrite(text, json.loads(text)).encode("utf-8"))
        assert trace_io._read_trace_layout(tmp_path / "trace.json") is not None
        assert trace_io._read_trace_layout(path) is None
        assert_bitwise_same(io.load_trace(path), oracle_trace_from_dict(json.loads(path.read_text(encoding="utf-8"))))

    # Values that json decodes to another type: the file goes to json and
    # trace_from_dict, which convert or reject them.
    @pytest.mark.parametrize(
        "pattern, value",
        [(r'"score": .*', '"score": null'), (r'"gop_index": 1,', '"gop_index": 1.5,'), (r'"score": (.*)', r'"score": "\1"')],
        ids=["null-score", "fractional-gop-index", "string-score"],
    )
    def test_values_of_other_types_read_as_json_does(self, tmp_path, pattern, value):
        io.write_trace_json(tmp_path / "trace.json", unicode_trace(2, ("naïve,clip", "中文", "plain")))
        path = tmp_path / "other.json"
        text, n = re.subn(pattern, value, (tmp_path / "trace.json").read_text(encoding="utf-8"), count=1)
        path.write_text(text, encoding="utf-8")
        assert n == 1
        assert trace_io._read_trace_layout(path) is None
        same_trace_outcome(path)

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda text: text.replace("\n    {\n", "\n    [\n", 1),
            lambda text: text.replace('"resolution": [', '"resolution": ', 1),
            lambda text: text.replace("\n      ],\n", "\n      ,\n", 1),
            lambda text: text.replace("\n    },\n", "\n    }\n", 1),
            lambda text: text.replace("\n    }\n  ]", "\n    },\n  ]"),
            lambda text: json.dumps({**json.loads(text), "rungs": [], "flips": []}, sort_keys=True, indent=2) + "\n",
        ],
        ids=["open-brace", "open-bracket", "close-bracket", "missing-comma", "trailing-comma", "no-rungs"],
    )
    def test_broken_layout_fails_as_json_does(self, tmp_path, rewrite):
        io.write_trace_json(tmp_path / "trace.json", unicode_trace(2, ("naïve,clip", "中文", "plain")))
        path = tmp_path / "broken.json"
        path.write_text(rewrite((tmp_path / "trace.json").read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(InputError):
            io._load_json(path, io.trace_from_dict)
        same_trace_outcome(path)

    def test_ids_spanning_lines_read_through_json(self, tmp_path):
        # Quotes that pair up across id lines: as one list they decode to
        # one string per GOP, so only the per-line quote count sends the
        # file to json, which rejects it.
        io.write_trace_json(tmp_path / "trace.json", unicode_trace(2, ("naïve,clip", "中文", "plain")))
        text = (tmp_path / "trace.json").read_text(encoding="utf-8")
        for gop, token in enumerate(['"a', 'b"', '"c","d"']):
            gop_line = f',\n      "gop_index": {gop},'
            text = text.replace(f'"content_id": "plain"{gop_line}', f'"content_id": {token}{gop_line}')
        path = tmp_path / "spanning.json"
        path.write_text(text, encoding="utf-8")
        assert trace_io._read_trace_layout(path) is None
        with pytest.raises(InputError, match="not valid JSON"):
            io.load_trace(path)

    def test_written_trace_never_reaches_json(self, tmp_path, monkeypatch):
        trace = unicode_trace(3, ("naïve,clip", "中文", "plain", "emoji🎬\n", "back\\slash"))
        io.write_trace_json(tmp_path / "trace.json", trace)

        def refuse(*args, **kwargs):
            raise AssertionError("json fallback used")

        monkeypatch.setattr(trace_io, "_load_json", refuse)
        back = io.load_trace(tmp_path / "trace.json")
        assert back.gop_ids == trace.gop_ids
        assert_same_trace(back, trace)

    @given(raw_traces())
    @settings(max_examples=100, deadline=None)
    def test_reader_matches_per_selection_loop(self, trace):
        doc = json.loads(json.dumps(io.trace_to_dict(trace)))
        assert_bitwise_same(io.trace_from_dict(doc), oracle_trace_from_dict(doc))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["selections"][5].update(resolution=[1, 1]),
            lambda doc: doc["selections"][0].update(resolution=[640, 360, 1]),
            lambda doc: doc["resolutions"].pop(),
            lambda doc: doc["selections"][7].pop("score"),
            lambda doc: doc["selections"][3].pop("content_id"),
            lambda doc: doc["selections"][1].update(score="high"),
            lambda doc: doc.update(n_gops=-1),
            lambda doc: doc.update(rungs=[]),
        ],
    )
    def test_reader_errors_match(self, edit):
        doc = json.loads(json.dumps(io.trace_to_dict(unicode_trace(1))))
        edit(doc)
        with pytest.raises(InputError):
            oracle_trace_from_dict(doc)
        with pytest.raises(InputError):
            io.trace_from_dict(doc)

    def test_repeated_resolution_reads_as_first(self):
        doc = json.loads(json.dumps(io.trace_to_dict(unicode_trace(1))))
        doc["resolutions"].append(doc["resolutions"][0])
        got, want = io.trace_from_dict(doc), oracle_trace_from_dict(doc)
        assert np.array_equal(got.chosen_res, want.chosen_res)

    def test_round_trip_through_reader(self, tmp_path):
        trace = unicode_trace(3)
        io.write_trace_json(tmp_path / "trace.json", trace)
        back = io.load_trace(tmp_path / "trace.json")
        assert back.gop_ids == trace.gop_ids
        assert_same_trace(back, trace)
