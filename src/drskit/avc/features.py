"""Per-GOP feature aggregation over a parsed Annex-B stream.

GOPs are delimited by IDR frames.  Every coded slice contributes its QP
and type; frames are detected at slices with first_mb_in_slice == 0.
Bits are counted over all coded-slice NAL units of the GOP as stored in
the stream (header plus escaped payload, start codes excluded).  The
per-GOP sums, means and deviations follow numpy's summation order, so
this module gives numpy's bits without importing it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

from ..errors import EmptyInput, MalformedSyntax, NoIdrFound
from .headers import ParserContext, SliceHeaderInfo, parse_pps, parse_slice_header, parse_sps
from .nal import NAL_IDR_SLICE, NAL_NON_IDR_SLICE, NAL_PPS, NAL_SPS, NalUnit, scan_annexb

__all__ = [
    "GopFeatureRow",
    "StreamDiagnostics",
    "ParsedSlice",
    "FEATURE_COLUMNS",
    "parse_stream",
    "aggregate_gop_features",
    "extract_gop_features",
]

# Column order of the feature-log CSV emitted for these rows.
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


@dataclass(frozen=True)
class GopFeatureRow:
    gop_index: int
    width: int
    height: int
    bitrate_kbps: float
    duration_frames: int
    bits_total: int
    bits_per_frame_mean: float
    bits_per_frame_max: float
    frac_i: float
    frac_p: float
    frac_b: float
    qp_mean: float
    qp_min: float
    qp_max: float
    qp_std: float
    frame_size_cov: float

    def feature_values(self) -> tuple[float, ...]:
        return tuple(float(getattr(self, name)) for name in FEATURE_COLUMNS)


@dataclass
class StreamDiagnostics:
    leading_garbage_bytes: int = 0
    forbidden_bit_violations: int = 0
    truncated_final: bool = False
    slices_before_first_idr: int = 0
    unparsed_units: int = 0
    gop_length_mismatches: int = 0


@dataclass(frozen=True)
class ParsedSlice:
    nal: NalUnit
    header: SliceHeaderInfo
    width: int
    height: int


def parse_stream(units: list[NalUnit], diagnostics: StreamDiagnostics | None = None) -> list[ParsedSlice]:
    """Parse parameter sets and coded-slice headers in stream order.

    Unparseable non-slice units are skipped with a diagnostic count;
    slice parse failures propagate (they invalidate the feature row).
    """
    diag = diagnostics if diagnostics is not None else StreamDiagnostics()
    ctx = ParserContext()
    slices: list[ParsedSlice] = []
    for nal in units:
        if nal.nal_unit_type == NAL_SPS:
            ctx.add_sps(parse_sps(nal))
        elif nal.nal_unit_type == NAL_PPS:
            ctx.add_pps(parse_pps(nal))
        elif nal.nal_unit_type in (NAL_NON_IDR_SLICE, NAL_IDR_SLICE):
            header = parse_slice_header(nal, ctx)
            sps = ctx.sps[ctx.pps[header.pps_id].seq_parameter_set_id]
            slices.append(ParsedSlice(nal, header, sps.width, sps.height))
        else:
            diag.unparsed_units += 1
    return slices


@dataclass
class _Frame:
    is_idr: bool
    bits: int = 0
    slices: list[SliceHeaderInfo] = field(default_factory=list)
    width: int = 0
    height: int = 0


def _group_frames(slices: list[ParsedSlice]) -> list[_Frame]:
    frames: list[_Frame] = []
    for ps in slices:
        if ps.header.first_mb_in_slice == 0 or not frames:
            frames.append(_Frame(is_idr=ps.header.is_idr, width=ps.width, height=ps.height))
        frame = frames[-1]
        frame.bits += 8 * ps.nal.size
        frame.slices.append(ps.header)
    return frames


def _pairwise(values: list[float]) -> float:
    """numpy's pairwise sum: a plain loop below 8 items, 8 interleaved
    accumulators up to 128, the two halves (cut at a multiple of 8) above."""
    n = len(values)
    if n < 8:
        return functools.reduce(operator.add, values, -0.0)
    if n <= 128:
        end = n - n % 8
        r = [functools.reduce(operator.add, values[j:end:8]) for j in range(8)]
        blocks = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return functools.reduce(operator.add, values[end:], blocks)
    half = n // 2 - n // 2 % 8
    return _pairwise(values[:half]) + _pairwise(values[half:])


def _sum(values: list[float]) -> float:
    """``np.sum(values)``: the pairwise sum added to the identity 0.0."""
    return 0.0 + _pairwise(values)


def _std(values: list[float], mean: float) -> float:
    """``np.std(values)`` given ``mean = np.mean(values)``."""
    return math.sqrt(_sum([(x - mean) * (x - mean) for x in values]) / len(values))


def aggregate_gop_features(
    slices: list[ParsedSlice],
    gop_seconds: float = 1.0,
    fps: float = 60.0,
    diagnostics: StreamDiagnostics | None = None,
) -> list[GopFeatureRow]:
    """Aggregate parsed slices into one feature row per IDR-delimited GOP."""
    if fps <= 0 or not math.isfinite(fps):
        raise MalformedSyntax(f"fps must be positive and finite, got {fps}")
    if not math.isfinite(gop_seconds * fps):
        raise MalformedSyntax(f"gop_seconds * fps must be finite, got {gop_seconds} * {fps}")
    diag = diagnostics if diagnostics is not None else StreamDiagnostics()

    frames = _group_frames(slices)
    start = next((i for i, f in enumerate(frames) if f.is_idr), None)
    if start is None:
        raise NoIdrFound("stream contains no IDR slice")
    diag.slices_before_first_idr = sum(len(f.slices) for f in frames[:start])

    gops: list[list[_Frame]] = []
    for f in frames[start:]:
        if f.is_idr:
            gops.append([])
        gops[-1].append(f)

    expected_frames = int(round(gop_seconds * fps)) if gop_seconds > 0 else None
    rows: list[GopFeatureRow] = []
    for gop_index, gop in enumerate(gops):
        frame_bits = [float(f.bits) for f in gop]
        headers = [h for f in gop for h in f.slices]
        qps = [float(h.slice_qp) for h in headers]
        cats = [h.category for h in headers]
        n_slices = len(headers)
        bits_sum = _sum(frame_bits)
        bits_total = int(bits_sum)
        mean_bits = bits_sum / len(gop)
        cov = _std(frame_bits, mean_bits) / mean_bits if mean_bits > 0 else 0.0
        qp_mean = _sum(qps) / n_slices
        duration_s = len(gop) / fps
        if expected_frames is not None and len(gop) != expected_frames:
            diag.gop_length_mismatches += 1
        rows.append(
            GopFeatureRow(
                gop_index=gop_index,
                width=gop[0].width,
                height=gop[0].height,
                bitrate_kbps=bits_total / duration_s / 1000.0,
                duration_frames=len(gop),
                bits_total=bits_total,
                bits_per_frame_mean=mean_bits,
                bits_per_frame_max=max(frame_bits),
                frac_i=cats.count("I") / n_slices,
                frac_p=cats.count("P") / n_slices,
                frac_b=cats.count("B") / n_slices,
                qp_mean=qp_mean,
                qp_min=min(qps),
                qp_max=max(qps),
                qp_std=_std(qps, qp_mean),
                frame_size_cov=cov,
            )
        )
    return rows


def extract_gop_features(
    data: bytes, fps: float, gop_seconds: float = 1.0
) -> tuple[list[GopFeatureRow], StreamDiagnostics]:
    """End-to-end: scan an Annex-B stream, parse headers, aggregate GOPs."""
    if not data:
        raise EmptyInput("empty bitstream")
    diag = StreamDiagnostics()
    scan = scan_annexb(data)
    diag.leading_garbage_bytes = scan.leading_garbage_bytes
    diag.forbidden_bit_violations = scan.forbidden_bit_violations
    diag.truncated_final = scan.truncated_final
    slices = parse_stream(list(scan.units), diag)
    rows = aggregate_gop_features(slices, gop_seconds=gop_seconds, fps=fps, diagnostics=diag)
    return rows, diag
