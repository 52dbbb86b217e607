"""Annex-B byte-stream scanning and emulation-prevention handling."""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "NAL_NON_IDR_SLICE",
    "NAL_IDR_SLICE",
    "NAL_SEI",
    "NAL_SPS",
    "NAL_PPS",
    "NAL_AUD",
    "NalUnit",
    "AnnexBScan",
    "strip_emulation_prevention",
    "scan_annexb",
]

NAL_NON_IDR_SLICE = 1
NAL_IDR_SLICE = 5
NAL_SEI = 6
NAL_SPS = 7
NAL_PPS = 8
NAL_AUD = 9

# H.264 7.4.1: inside a NAL unit, 00 00 is never followed by a byte <= 3;
# the encoder escapes such a byte with a 03 in between.
_ESCAPED = re.compile(b"\x00\x00\x03(?=[\x00-\x03])")


@dataclass(frozen=True)
class NalUnit:
    """One NAL unit: parsed header byte plus de-escaped RBSP payload.

    ``byte_offset`` points at the header byte in the source stream (past
    the start code); ``size`` counts header plus raw payload bytes as
    stored, so per-unit sizes sum to the stream size minus start codes
    and leading garbage.
    """

    nal_ref_idc: int
    nal_unit_type: int
    payload: bytes
    byte_offset: int
    size: int


@dataclass(frozen=True)
class AnnexBScan:
    units: tuple[NalUnit, ...]
    leading_garbage_bytes: int
    forbidden_bit_violations: int
    truncated_final: bool


def strip_emulation_prevention(data: bytes) -> bytes:
    """Remove 0x03 emulation-prevention bytes (00 00 03 0x, x <= 3)."""
    return _ESCAPED.sub(b"\x00\x00", data)


def _find_start_codes(data: bytes) -> list[tuple[int, int]]:
    """(offset, length) of every 3- or 4-byte start code."""
    codes = []
    i = 0
    n = len(data)
    while True:
        j = data.find(b"\x00\x00\x01", i)
        if j < 0:
            break
        if j >= 1 and data[j - 1] == 0:
            codes.append((j - 1, 4))
        else:
            codes.append((j, 3))
        i = j + 3
    return codes


def scan_annexb(data: bytes) -> AnnexBScan:
    """Split an Annex-B elementary stream into NAL units.

    Robust scan: no exceptions on malformed data.  Bytes before the first
    start code are counted as leading garbage, units with the forbidden
    header bit set are dropped and counted, and a final start code with
    no following bytes is flagged as truncated.
    """
    codes = _find_start_codes(data)
    if not codes:
        return AnnexBScan((), len(data), 0, False)

    leading = codes[0][0]
    units: list[NalUnit] = []
    violations = 0
    truncated = False
    for k, (off, sc_len) in enumerate(codes):
        begin = off + sc_len
        end = codes[k + 1][0] if k + 1 < len(codes) else len(data)
        if begin >= end:
            if k + 1 == len(codes):
                truncated = True
            continue
        header = data[begin]
        if header & 0x80:
            violations += 1
            continue
        units.append(
            NalUnit(
                nal_ref_idc=(header >> 5) & 0x03,
                nal_unit_type=header & 0x1F,
                payload=strip_emulation_prevention(data[begin + 1 : end]),
                byte_offset=begin,
                size=end - begin,
            )
        )
    return AnnexBScan(tuple(units), leading, violations, truncated)
