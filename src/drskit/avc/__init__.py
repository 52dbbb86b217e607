"""Header-level AVC Annex-B parsing and per-GOP feature aggregation."""

from .bitio import BitReader
from .nal import (
    NAL_IDR_SLICE,
    NAL_NON_IDR_SLICE,
    NAL_PPS,
    NAL_SPS,
    AnnexBScan,
    NalUnit,
    scan_annexb,
    strip_emulation_prevention,
)
from .headers import (
    ParserContext,
    PpsInfo,
    SliceHeaderInfo,
    SpsInfo,
    parse_pps,
    parse_slice_header,
    parse_sps,
)
from .features import (
    FEATURE_COLUMNS,
    GopFeatureRow,
    StreamDiagnostics,
    aggregate_gop_features,
    extract_gop_features,
    parse_stream,
)

__all__ = [
    "BitReader",
    "NalUnit",
    "AnnexBScan",
    "NAL_SPS",
    "NAL_PPS",
    "NAL_IDR_SLICE",
    "NAL_NON_IDR_SLICE",
    "scan_annexb",
    "strip_emulation_prevention",
    "SpsInfo",
    "PpsInfo",
    "SliceHeaderInfo",
    "ParserContext",
    "parse_sps",
    "parse_pps",
    "parse_slice_header",
    "GopFeatureRow",
    "StreamDiagnostics",
    "FEATURE_COLUMNS",
    "aggregate_gop_features",
    "extract_gop_features",
    "parse_stream",
]
