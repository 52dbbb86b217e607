"""Byte-identity guard for every command.

``tests/make_fixtures.py`` records the sha256 of every file that a fixed
set of commands writes in ``tests/data/golden_outputs.json``: the
quality-log commands, the scored-point commands, ``extract-features``,
the model commands and one ``replay``.  Any change to a byte of any of
those outputs, run-config echoes included, fails here.
"""

import csv
import io
import json
from pathlib import Path

from make_fixtures import SWITCHING_COMMANDS, golden_inputs, golden_outputs, output_digests

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_outputs.json").read_text())


def test_every_output_matches_its_golden_digest():
    assert golden_outputs() == GOLDEN


def quote_all(data: bytes) -> bytes:
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL).writerows(csv.reader(io.StringIO(data.decode())))
    return out.getvalue().encode()


def test_quoted_quality_log_gives_the_plain_logs_outputs():
    inputs = golden_inputs()
    inputs["log.csv"] = quote_all(inputs["log.csv"])
    assert inputs["log.csv"].startswith(b'"content_id","gop_index"')
    expected = {k: v for k, v in GOLDEN.items() if k.split("/")[0] in SWITCHING_COMMANDS}
    assert output_digests(SWITCHING_COMMANDS, inputs) == expected
