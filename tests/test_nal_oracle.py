"""Differential tests of Annex-B emulation prevention against byte loops.

``loop_strip`` and ``loop_insert`` are the per-byte state machines that
``drskit.avc.nal`` (stripping) and the test stream writer ``avcgen``
(inserting) replaced with one regular-expression substitution each.
Inputs are drawn mostly from 0x00-0x03, where every escape decision is
made, with a few other bytes to break the runs.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avcgen import insert_emulation_prevention
from drskit.avc import nal
from drskit.avc.nal import scan_annexb, strip_emulation_prevention


def loop_strip(data: bytes) -> bytes:
    out = bytearray()
    zeros = 0
    i = 0
    n = len(data)
    while i < n:
        b = data[i]
        if zeros >= 2 and b == 0x03 and i + 1 < n and data[i + 1] <= 0x03:
            zeros = 0
            i += 1
            continue
        out.append(b)
        zeros = zeros + 1 if b == 0 else 0
        i += 1
    return bytes(out)


def loop_insert(data: bytes) -> bytes:
    out = bytearray()
    zeros = 0
    for b in data:
        if zeros >= 2 and b <= 0x03:
            out.append(0x03)
            zeros = 0
        out.append(b)
        zeros = zeros + 1 if b == 0 else 0
    return bytes(out)


escape_heavy = st.lists(st.sampled_from([0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x03, 0x04, 0x80]), max_size=200).map(
    bytes
)
zero_runs = st.lists(st.tuples(st.integers(0, 40), st.sampled_from([b"", b"\x01", b"\x03", b"\x03\x00", b"\xff"])))
zero_runs = zero_runs.map(lambda parts: b"".join(b"\x00" * k + tail for k, tail in parts))

EDGE_CASES = [
    b"",
    b"\x00",
    b"\x00\x00",
    b"\x05\x00\x00",
    b"\x00\x00\x03",
    b"\x05\x00\x00\x03",
    b"\x00\x00\x03\x03",
    b"\x00\x00\x03\x00\x00\x03",
    b"\x00\x00\x03\x00\x00\x03\x01",
    b"\x00\x00\x00\x03\x01",
    b"\x00\x00\x03\x04\x00\x00\x03\x02",
    b"\x00" * 64,
    b"\x00" * 63 + b"\x03",
    b"\x00" * 64 + b"\x03\x00",
]


class TestStripOracle:
    @pytest.mark.parametrize("data", EDGE_CASES, ids=lambda d: d.hex() or "empty")
    def test_edge_cases(self, data):
        assert strip_emulation_prevention(data) == loop_strip(data)

    @given(st.one_of(escape_heavy, zero_runs))
    @settings(max_examples=1000, deadline=None)
    def test_matches_loop(self, data):
        assert strip_emulation_prevention(data) == loop_strip(data)


class TestInsertOracle:
    @pytest.mark.parametrize("data", EDGE_CASES, ids=lambda d: d.hex() or "empty")
    def test_edge_cases(self, data):
        assert insert_emulation_prevention(data) == loop_insert(data)

    @given(st.one_of(escape_heavy, zero_runs))
    @settings(max_examples=1000, deadline=None)
    def test_matches_loop(self, data):
        assert insert_emulation_prevention(data) == loop_insert(data)


class TestScanOracle:
    @given(st.lists(st.one_of(escape_heavy, st.sampled_from([b"\x00\x00\x01", b"\x00\x00\x00\x01", b"\x65"]))))
    @settings(max_examples=300, deadline=None)
    @example([b"\x00\x00\x01\x67\x00\x00\x03", b"\x00\x00\x01\x65\x00\x00\x03\x01\x00\x00"])
    def test_units_match_loop_deescaping(self, chunks):
        data = b"".join(chunks)
        got = scan_annexb(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nal, "strip_emulation_prevention", loop_strip)
            expected = scan_annexb(data)
        assert got == expected
