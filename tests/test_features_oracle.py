"""Per-GOP feature aggregation against its numpy oracle.

``aggregate_gop_features`` computes its sums, means, extremes and
deviations in pure Python, in numpy's pairwise summation order.  The
numpy version it replaced lives on here as the oracle: every statistic
and every feature row must carry the same bits, ``-0.0`` included.
"""

import math

import numpy as np
import pytest
from avcgen import PpsSpec, SliceSpec, SpsSpec, build_stream, simple_gop_stream
from hypothesis import given, settings
from hypothesis import strategies as st

from drskit.avc.features import (
    GopFeatureRow,
    ParsedSlice,
    _group_frames,
    _std,
    _sum,
    aggregate_gop_features,
    extract_gop_features,
    parse_stream,
)
from drskit.avc.headers import SliceHeaderInfo
from drskit.avc.nal import NAL_IDR_SLICE, NAL_NON_IDR_SLICE, NalUnit, scan_annexb


def oracle_rows(slices, fps=60.0):
    """The numpy aggregation ``aggregate_gop_features`` replaced."""
    frames = _group_frames(slices)
    start = next(i for i, f in enumerate(frames) if f.is_idr)
    gops = []
    for f in frames[start:]:
        if f.is_idr:
            gops.append([])
        gops[-1].append(f)
    rows = []
    for gop_index, gop in enumerate(gops):
        frame_bits = np.array([f.bits for f in gop], dtype=float)
        headers = [h for f in gop for h in f.slices]
        qps = np.array([h.slice_qp for h in headers], dtype=float)
        cats = [h.category for h in headers]
        n_slices = len(headers)
        bits_total = int(frame_bits.sum())
        mean_bits = float(frame_bits.mean())
        cov = float(frame_bits.std() / mean_bits) if mean_bits > 0 else 0.0
        rows.append(
            GopFeatureRow(
                gop_index=gop_index,
                width=gop[0].width,
                height=gop[0].height,
                bitrate_kbps=bits_total / (len(gop) / fps) / 1000.0,
                duration_frames=len(gop),
                bits_total=bits_total,
                bits_per_frame_mean=mean_bits,
                bits_per_frame_max=float(frame_bits.max()),
                frac_i=cats.count("I") / n_slices,
                frac_p=cats.count("P") / n_slices,
                frac_b=cats.count("B") / n_slices,
                qp_mean=float(qps.mean()),
                qp_min=float(qps.min()),
                qp_max=float(qps.max()),
                qp_std=float(qps.std()),
                frame_size_cov=cov,
            )
        )
    return rows


def bits_of(row: GopFeatureRow) -> dict:
    """Every field, floats by ``float.hex`` so the sign of zero counts."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in vars(row).items()}


# Lengths up to 1000 cross the 8-item loop, the 128-item block and two
# levels of halving.
LENGTHS = st.one_of(st.integers(1, 20), st.integers(120, 136), st.integers(250, 262), st.integers(1, 1000))


@st.composite
def samples(draw):
    n = draw(LENGTHS)
    kind = draw(st.sampled_from(["integer", "constant", "float"]))
    if kind == "integer":
        return [float(v) for v in draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n))]
    if kind == "constant":
        return [draw(st.floats(allow_nan=False, allow_infinity=False))] * n
    return draw(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=n, max_size=n))


class TestStatistics:
    @given(samples())
    @settings(max_examples=400, deadline=None)
    def test_sum_mean_std_min_max_match_numpy(self, values):
        a = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [a.sum(), a.mean(), a.std(), a.min(), a.max()]
        mean = _sum(values) / len(values)
        got = [_sum(values), mean, _std(values, mean), min(values), max(values)]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1000])
    def test_signed_zeros(self, n):
        for values in ([-0.0] * n, [0.0] * n, [(-0.0, 0.0)[i % 2] for i in range(n)]):
            a = np.array(values)
            assert _sum(values).hex() == float(a.sum()).hex()
            assert _std(values, _sum(values) / n).hex() == float(a.std()).hex()


def parsed_slice(size: int, qp: int, slice_type: int, idr: bool, first: bool) -> ParsedSlice:
    nal = NalUnit(3 if idr else 1, NAL_IDR_SLICE if idr else NAL_NON_IDR_SLICE, b"", 0, size)
    header = SliceHeaderInfo(0 if first else 1, slice_type, 0, 0, qp - 26, qp, idr)
    return ParsedSlice(nal, header, 1280, 720)


@st.composite
def gop_slices(draw):
    """Frames of one to four slices each; GOPs of 1 to 300 frames."""
    slices = []
    for _ in range(draw(st.integers(1, 3))):
        for k in range(draw(st.integers(1, 300))):
            for s in range(draw(st.integers(1, 4))):
                idr = k == 0
                slice_type = 7 if idr else draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7]))
                size = draw(st.integers(1, 200_000))
                slices.append(parsed_slice(size, draw(st.integers(0, 51)), slice_type, idr, s == 0))
    return slices


class TestFeatureRows:
    @given(gop_slices(), st.sampled_from([24.0, 30.0, 59.94, 60.0]))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_oracle(self, slices, fps):
        got = aggregate_gop_features(slices, fps=fps)
        assert [bits_of(r) for r in got] == [bits_of(r) for r in oracle_rows(slices, fps=fps)]

    @pytest.mark.parametrize(
        "stream",
        [
            simple_gop_stream(n_gops=3, p_per_gop=29, nal_bytes_each=500),
            simple_gop_stream(n_gops=2, p_per_gop=130, nal_bytes_each=77, qp_delta=-5),
            simple_gop_stream(n_gops=1, p_per_gop=5, nal_bytes_each=40, qp_delta=7),
        ],
    )
    def test_avcgen_streams_match_oracle(self, stream):
        rows, _ = extract_gop_features(stream, fps=30.0)
        slices = parse_stream(list(scan_annexb(stream).units))
        assert [bits_of(r) for r in rows] == [bits_of(r) for r in oracle_rows(slices, fps=30.0)]

    def test_varied_stream_matches_oracle(self):
        """Slice sizes and QPs that change frame by frame, so the
        deviations are not zero."""
        sps, pps = SpsSpec(log2_max_frame_num_minus4=4), PpsSpec()
        specs = []
        for g in range(3):
            for i in range(45 + 40 * g):
                specs.append(
                    SliceSpec(
                        slice_type=7 if i == 0 else (0, 1, 5)[i % 3],
                        is_idr=i == 0,
                        pps=pps,
                        sps=sps,
                        frame_num=i % 256,
                        slice_qp_delta=(i * 7) % 23 - 11,
                        target_nal_bytes=40 + (i * 97 + g * 31) % 900,
                    )
                )
        stream = build_stream(sps, pps, specs)
        rows, _ = extract_gop_features(stream, fps=30.0)
        slices = parse_stream(list(scan_annexb(stream).units))
        assert len(rows) == 3 and all(r.qp_std > 0 and r.frame_size_cov > 0 for r in rows)
        assert [bits_of(r) for r in rows] == [bits_of(r) for r in oracle_rows(slices, fps=30.0)]
        assert all(math.isfinite(v) for r in rows for v in r.feature_values())
