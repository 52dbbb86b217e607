"""Switching traces on disk: the trace JSON that ``simulate`` writes and
``report`` reads, and the trace CSV written beside it.

Only those two commands touch traces, so no other command loads this
module.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import types
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import InputError
from .io import _json_fields, _load_json

__all__ = [
    "trace_to_dict",
    "write_trace_files",
    "trace_from_dict",
    "load_trace",
    "write_trace_csv",
]

# The trace JSON's layout: the header keys, the text between the header
# and the first selection, and the text after the last one.
_TRACE_HEADER_KEYS = {"flips", "granularity_gops", "n_gops", "per_rung_mean_quality", "resolutions", "rungs"}
_SELECTIONS_START = ',\n  "selections": [\n'
_TRACE_END = "  ]\n}\n"
# The JSON text of each non-finite float, by its ``float.__repr__``.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# GOPs per block of the trace writers, and characters per read of the
# layout reader.
_TRACE_WRITE_GOPS = 256
_TRACE_READ_CHARS = 1 << 18


def _trace_header(trace) -> dict:
    """``trace_to_dict`` without the selections."""
    return {
        "granularity_gops": trace.granularity_gops,
        "rungs": [float(b) for b in trace.rungs],
        "resolutions": [list(r) for r in trace.resolutions],
        "n_gops": len(trace.gop_ids),
        "per_rung_mean_quality": [float(v) for v in trace.per_rung_mean],
        "flips": [int(v) for v in trace.flips],
    }


def trace_to_dict(trace) -> dict:
    return {
        **_trace_header(trace),
        "selections": [
            {
                "content_id": trace.gop_ids[i][0],
                "gop_index": trace.gop_ids[i][1],
                "bitrate_kbps": float(trace.rungs[j]),
                "resolution": list(trace.resolutions[int(trace.chosen_res[i, j])]),
                "score": float(trace.chosen_score[i, j]),
            }
            for i in range(len(trace.gop_ids))
            for j in range(len(trace.rungs))
        ],
    }


def _json_float(v: float) -> str:
    """``v`` as ``json.dump`` writes it."""
    if math.isfinite(v):
        return float.__repr__(v)
    return "NaN" if v != v else ("Infinity" if v > 0 else "-Infinity")


def _selection_parts(rung_first: bool, rung_text, gop_text, res_text, res_k, scores, end: str) -> list[str]:
    """The text pieces of a block of selections, GOP-major then rung: per
    selection, its rung's and its GOP's text (the rung's first if
    ``rung_first``), its resolution's text, its score and ``end``.  Each
    kind of piece is placed by slice assignment, per rung."""
    n_rungs, n_sel = len(rung_text), len(scores)
    parts = [end] * (5 * n_sel)
    rung_at, gop_at = (0, 1) if rung_first else (1, 0)
    for j, text in enumerate(rung_text):
        parts[5 * j + rung_at :: 5 * n_rungs] = [text] * len(gop_text)
        parts[5 * j + gop_at :: 5 * n_rungs] = gop_text
    parts[2::5] = map(res_text.__getitem__, res_k)
    parts[3::5] = scores
    return parts


def write_trace_files(trace, json_path=None, csv_path=None) -> None:
    """Write the trace JSON to ``json_path`` and the trace CSV to
    ``csv_path`` (either may be None) in one pass over blocks of GOPs.

    The JSON file holds the bytes ``write_json(json_path,
    trace_to_dict(trace))`` writes, without building the document.  The
    CSV file has one row per selection, as ``csv.writer`` writes it.  Each
    score is formatted once, by ``float.__repr__``: that is its CSV text,
    and its JSON text when it is finite."""
    # csv.writer returns what its file's write returns, so writing to
    # ``str`` gives the text of a row; only the ids may need quoting.
    row_text = csv.writer(types.SimpleNamespace(write=str)).writerow
    # JSON selection text up to the content id, per rung, and from the
    # resolution to the score, per resolution.
    rung_json = [f'    {{\n      "bitrate_kbps": {_json_float(float(b))},\n      "content_id": ' for b in trace.rungs]
    res_json = [
        f',\n      "resolution": [\n        {int(w)},\n        {int(h)}\n      ],\n      "score": '
        for w, h in trace.resolutions
    ]
    rung_csv = [f"{float(b)!r}," for b in trace.rungs]
    res_csv = [row_text(res).removesuffix("\r\n") + "," for res in trace.resolutions]
    non_finite = not np.isfinite(trace.chosen_score).all()
    n = len(trace.gop_ids) if trace.chosen_score.size else 0
    with contextlib.ExitStack() as files:
        json_fh = csv_fh = None
        if json_path is not None:
            Path(json_path).parent.mkdir(parents=True, exist_ok=True)
            json_fh = files.enter_context(open(json_path, "w", encoding="utf-8"))
            head = json.dumps(_trace_header(trace), sort_keys=True, indent=2)
            # Every header key sorts before "selections", which comes last.
            json_fh.write(head[: -len("\n}")] + (_SELECTIONS_START if n else ',\n  "selections": []\n}\n'))
        if csv_path is not None:
            csv_fh = files.enter_context(open(csv_path, "w", encoding="utf-8", newline=""))
            csv_fh.write(row_text(["content_id", "gop_index", "bitrate_kbps", "width", "height", "score"]))
        for start in range(0, n, _TRACE_WRITE_GOPS):
            stop = min(start + _TRACE_WRITE_GOPS, n)
            ids = trace.gop_ids[start:stop]
            res_k = trace.chosen_res[start:stop].ravel().tolist()
            scores = list(map(float.__repr__, trace.chosen_score[start:stop].ravel().tolist()))
            if json_fh is not None:
                gop_json = [f'{encode_basestring_ascii(content)},\n      "gop_index": {gop}' for content, gop in ids]
                json_scores = [_JSON_NON_FINITE.get(t, t) for t in scores] if non_finite else scores
                parts = _selection_parts(True, rung_json, gop_json, res_json, res_k, json_scores, "\n    },\n")
                if stop == n:
                    parts[-1] = "\n    }\n" + _TRACE_END
                json_fh.write("".join(parts))
            if csv_fh is not None:
                gop_csv = [row_text(ident).removesuffix("\r\n") + "," for ident in ids]
                csv_fh.write("".join(_selection_parts(False, rung_csv, gop_csv, res_csv, res_k, scores, "\r\n")))


def write_trace_csv(path, trace) -> None:
    """Write the trace CSV: content_id, gop_index, bitrate_kbps, width,
    height, score, one row per selection."""
    write_trace_files(trace, csv_path=path)


def _count(value, name: str) -> int:
    if type(value) is not int or value < 1:
        raise InputError(f"{name} must be an integer >= 1, got {value!r}")
    return value


@_json_fields
def _trace_header_fields(doc: dict):
    """The rungs, resolutions, GOP count, granularity and flips of a trace
    document, checked before any selection is read."""
    rungs = tuple(float(b) for b in doc["rungs"])
    resolutions = tuple((int(r[0]), int(r[1])) for r in doc["resolutions"])
    n = _count(doc["n_gops"], "n_gops")
    granularity = _count(doc["granularity_gops"], "granularity_gops")
    flips = doc["flips"]
    if type(flips) is not list or len(flips) != len(rungs) or any(type(v) is not int for v in flips):
        raise InputError(f"flips must be a list of {len(rungs)} integers, one per rung, got {flips!r}")
    return rungs, resolutions, n, granularity, np.asarray(flips, dtype=np.int64)


def _trace(header: tuple, gop_ids: list, chosen_res: np.ndarray, chosen_score: np.ndarray):
    """The ``DrsTrace`` of a checked header and its selections."""
    from .drs import DrsTrace

    rungs, resolutions, _, granularity, flips = header
    return DrsTrace(
        rungs=rungs,
        resolutions=resolutions,
        gop_ids=tuple(gop_ids),
        granularity_gops=granularity,
        chosen_res=chosen_res,
        chosen_score=chosen_score,
        per_rung_mean=chosen_score.mean(axis=0),
        flips=flips,
    )


@_json_fields
def trace_from_dict(doc: dict):
    """Inverse of ``trace_to_dict``: rebuild the ``DrsTrace``."""
    header = _trace_header_fields(doc)
    rungs, resolutions, n = header[:3]
    sel = doc["selections"]
    if len(sel) != n * len(rungs):
        raise InputError(f"trace has {len(sel)} selections, expected {n * len(rungs)}")
    res_at = {}
    for k, res in enumerate(resolutions):
        res_at.setdefault(res, k)  # a repeated resolution reads as its first entry
    chosen_res = np.fromiter((res_at[tuple(e["resolution"])] for e in sel), np.int64, len(sel)).reshape(n, len(rungs))
    chosen_score = np.fromiter((float(e["score"]) for e in sel), float, len(sel)).reshape(n, len(rungs))
    gop_ids = [(sel[i * len(rungs)]["content_id"], int(sel[i * len(rungs)]["gop_index"])) for i in range(n)]
    return _trace(header, gop_ids, chosen_res, chosen_score)


def load_trace(path):
    """Read a trace JSON: a document with ``trace_to_dict``'s keys.

    A file laid out exactly as ``write_trace_files`` writes it is read
    without building a dict per selection; any other file is decoded by
    ``json`` and rebuilt by ``trace_from_dict``, which raises every
    error."""
    trace = _read_trace_layout(path)
    return trace if trace is not None else _load_json(path, trace_from_dict)


def _read_trace_layout(path):
    """The trace in a file laid out exactly as ``write_trace_files`` writes
    it, or None for any other file.

    The header must be the six keys of ``_trace_header`` as
    ``json.dumps(..., sort_keys=True, indent=2)`` writes them, so no key is
    repeated, and ``trace_from_dict`` must accept it.  The selections are
    then read in blocks of whole GOPs, so a large file's lines never exist
    at once, and every line of a block is checked (``_SelectionLines``).
    Where the file differs from the layout, ``load_trace`` reads it with
    ``json``, which gives the same errors as for any other file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            head, found, rest = fh.read(_TRACE_READ_CHARS).partition(_SELECTIONS_START)
            if not found:
                return None
            head += "\n}"
            doc = json.loads(head)
            if type(doc) is not dict or doc.keys() != _TRACE_HEADER_KEYS:
                return None
            if json.dumps(doc, sort_keys=True, indent=2) != head:
                return None
            header = _trace_header_fields(doc)
            rungs, resolutions, n = header[:3]
            if not rungs:
                return None
            block = _SelectionLines(rungs, resolutions)
            gop_ids, res_blocks, score_blocks = [], [], []
            while True:
                lines = rest.split("\n")
                cut = min((len(lines) - 1) // block.per_gop, n - len(gop_ids)) * block.per_gop
                rest = "\n".join(lines[cut:])
                if cut:
                    del lines[cut:]
                    read = block.read(lines, last=len(gop_ids) + cut // block.per_gop == n)
                    if read is None:
                        return None
                    gop_ids += read[0]
                    res_blocks.append(read[1])
                    score_blocks.append(read[2])
                if len(gop_ids) == n:
                    break
                more = fh.read(_TRACE_READ_CHARS)
                if not more:
                    return None
                rest += more
            if rest + fh.read(len(_TRACE_END) + 1) != _TRACE_END:
                return None
    except (InputError, KeyError, RecursionError, ValueError):  # a UnicodeDecodeError is a ValueError
        return None
    shape = (n, len(rungs))
    chosen_res, chosen_score = np.concatenate(res_blocks).reshape(shape), np.concatenate(score_blocks).reshape(shape)
    return _trace(header, gop_ids, chosen_res, chosen_score)


class _SelectionLines:
    """Reads the lines of whole GOPs' selections in ``write_trace_files``'s
    layout, for one trace header.  A selection is ten lines::

            {
              "bitrate_kbps": <its rung>,
              "content_id": <its GOP's id>,
              "gop_index": <its GOP's index>,
              "resolution": [
                <width>,
                <height>
              ],
              "score": <score>
            },

    and the last selection of the file ends without the comma."""

    ID_KEY = '      "content_id": '
    GOP_KEY = '      "gop_index": '
    SCORE_KEY = '      "score": '

    def __init__(self, rungs: tuple, resolutions: tuple):
        self.n_rungs = len(rungs)
        self.per_gop = 10 * len(rungs)
        self.rung_lines = [f'      "bitrate_kbps": {_json_float(b)},' for b in rungs]
        self.res_at: dict[tuple[str, str], int] = {}
        for k, (w, h) in enumerate(resolutions):
            self.res_at.setdefault((f"        {w},", f"        {h}"), k)  # a repeated one reads as its first

    def read(self, lines: list[str], last: bool):
        """(gop ids, resolution indices, scores) of the GOPs in ``lines``,
        or None if a line differs from the layout.  ``last`` says whether
        the block ends the selections."""
        r = self.n_rungs
        n_sel = len(lines) // 10
        ends = ["    },"] * n_sel
        if last:
            ends[-1] = "    }"
        if not (
            lines[0::10] == ["    {"] * n_sel
            and lines[1::10] == self.rung_lines * (n_sel // r)
            and lines[4::10] == ['      "resolution": ['] * n_sel
            and lines[7::10] == ["      ],"] * n_sel
            and lines[9::10] == ends
        ):
            return None
        # Every rung of a GOP repeats its first rung's id and index lines.
        id_lines, gop_lines = lines[2::10], lines[3::10]
        first_ids, first_gops = id_lines[::r], gop_lines[::r]
        if any(id_lines[j::r] != first_ids or gop_lines[j::r] != first_gops for j in range(1, r)):
            return None
        # Without an escaped quote, an id line holding four quotes holds
        # one JSON string, so the decoded ids line up with their lines.
        if '\\"' in "\n".join(first_ids) or list(map(str.count, first_ids, repeat('"'))) != [4] * len(first_ids):
            return None
        ids = _line_values(first_ids, self.ID_KEY, ",", str)
        gops = _line_values(first_gops, self.GOP_KEY, ",", int)
        scores = _line_values(lines[8::10], self.SCORE_KEY, "", float)
        if ids is None or gops is None or scores is None:
            return None
        res = np.fromiter(map(self.res_at.__getitem__, zip(lines[5::10], lines[6::10])), np.int64, n_sel)
        return list(zip(ids, gops)), res, np.array(scores, dtype=float)


def _line_values(lines: list[str], key: str, suffix: str, kind: type):
    """The values of lines that are each ``key + value + suffix``, decoded
    by one ``json.loads`` of them as a list, or None unless every line has
    that form and every value is one JSON value of type ``kind``."""
    text = "\n" + "\n".join(lines) + "\n"
    if text.count("\n" + key) != len(lines) or (suffix and text.count(suffix + "\n") != len(lines)):
        return None
    values = json.loads("[" + text[len(key) + 1 : -len(suffix) - 1].replace(f"{suffix}\n{key}", ",") + "]")
    # Commas split the values only where none is a string or a container.
    if len(values) != len(lines) or set(map(type, values)) != {kind}:
        return None
    return values
