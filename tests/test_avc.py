import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcgen import (
    BitWriter,
    PpsSpec,
    SliceSpec,
    SpsSpec,
    build_pps,
    build_slice,
    build_sps,
    build_stream,
    insert_emulation_prevention,
    simple_gop_stream,
    slice_type_name,
    split_annexb,
)
from drskit.avc.bitio import BitReader
from drskit.avc.features import extract_gop_features, parse_stream
from drskit.avc.headers import parse_pps, parse_sps
from drskit.avc.nal import scan_annexb, strip_emulation_prevention
from drskit.errors import (
    BitstreamExhausted,
    EmptyInput,
    MalformedSyntax,
    MissingParameterSet,
    NoIdrFound,
    ToolkitError,
    UnsupportedProfile,
)


class TestExpGolomb:
    def test_ue_code_table(self):
        # "1" -> 0, "010" -> 1, "011" -> 2, "00100" -> 3
        assert BitReader(bytes([0b10000000])).read_ue() == 0
        assert BitReader(bytes([0b01000000])).read_ue() == 1
        assert BitReader(bytes([0b01100000])).read_ue() == 2
        assert BitReader(bytes([0b00100000])).read_ue() == 3

    def test_ue_00111(self):
        # "00111" = prefix 00, info 11 after the marker: value 6.
        assert BitReader(bytes([0b00111000])).read_ue() == 6

    def test_se_mapping(self):
        # k -> (-1)^(k+1) * ceil(k/2): 0,1,-1,2,-2,3,...
        expected = {0: 0, 1: 1, 2: -1, 3: 2, 4: -2, 5: 3, 6: -3}
        for k, want in expected.items():
            w = BitWriter().write_ue(k)
            assert BitReader(w.to_bytes()).read_se() == want

    def test_round_trip_ue(self):
        w = BitWriter()
        values = [0, 1, 2, 3, 7, 8, 255, 256, 65535]
        for v in values:
            w.write_ue(v)
        r = BitReader(w.write_trailing_bits().to_bytes())
        assert [r.read_ue() for _ in values] == values

    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_se_random(self, values):
        w = BitWriter()
        for v in values:
            w.write_se(v)
        r = BitReader(w.write_trailing_bits().to_bytes())
        assert [r.read_se() for _ in values] == values

    def test_exhausted(self):
        with pytest.raises(BitstreamExhausted):
            BitReader(b"").read_bit()
        with pytest.raises(BitstreamExhausted):
            BitReader(bytes([0x00])).read_ue()  # all-zero prefix runs off the end

    def test_long_zero_prefix_rejected(self):
        with pytest.raises((MalformedSyntax, BitstreamExhausted)):
            BitReader(bytes([0x00] * 8 + [0x01])).read_ue()


class TestEmulationPrevention:
    def test_strip_example(self):
        assert strip_emulation_prevention(bytes([0x00, 0x00, 0x03, 0x01])) == bytes([0x00, 0x00, 0x01])

    def test_strip_keeps_unrelated_03(self):
        data = bytes([0x00, 0x03, 0x00, 0x03, 0xFF])
        assert strip_emulation_prevention(data) == data

    def test_insert_example(self):
        assert insert_emulation_prevention(bytes([0x00, 0x00, 0x01])) == bytes([0x00, 0x00, 0x03, 0x01])

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, raw):
        assert strip_emulation_prevention(insert_emulation_prevention(raw)) == raw

    @given(st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_escaped_form_has_no_start_codes(self, raw):
        escaped = insert_emulation_prevention(raw)
        assert b"\x00\x00\x01" not in escaped
        assert b"\x00\x00\x00" not in escaped


class TestSplitAnnexb:
    def test_empty_input(self):
        assert split_annexb(b"") == []

    def test_hand_built_sps_header(self):
        units = split_annexb(bytes([0x00, 0x00, 0x00, 0x01, 0x67, 0x42, 0x00, 0x1E]))
        assert len(units) == 1
        assert units[0].nal_unit_type == 7
        assert units[0].nal_ref_idc == 3
        assert units[0].payload == bytes([0x42, 0x00, 0x1E])
        assert units[0].size == 4

    def test_three_byte_start_codes(self):
        data = b"\x00\x00\x01" + bytes([0x41, 0xAA]) + b"\x00\x00\x01" + bytes([0x41, 0xBB])
        units = split_annexb(data)
        assert [u.payload for u in units] == [b"\xaa", b"\xbb"]

    def test_leading_garbage_counted(self):
        data = b"junk" + b"\x00\x00\x00\x01" + bytes([0x41, 0xAA])
        scan = scan_annexb(data)
        assert scan.leading_garbage_bytes == 4
        assert len(scan.units) == 1

    def test_forbidden_bit_dropped_and_counted(self):
        data = b"\x00\x00\x01" + bytes([0x80 | 0x41, 0xAA]) + b"\x00\x00\x01" + bytes([0x41, 0xBB])
        scan = scan_annexb(data)
        assert scan.forbidden_bit_violations == 1
        assert len(scan.units) == 1

    def test_truncated_final_flagged(self):
        scan = scan_annexb(b"\x00\x00\x01" + bytes([0x41, 0xAA]) + b"\x00\x00\x01")
        assert scan.truncated_final
        assert len(scan.units) == 1

    def test_payload_deescaped(self):
        data = b"\x00\x00\x01" + bytes([0x41, 0x00, 0x00, 0x03, 0x01])
        units = split_annexb(data)
        assert units[0].payload == bytes([0x00, 0x00, 0x01])


class TestHeaderParsing:
    def test_sps_720p_round_trip(self):
        units = split_annexb(build_sps(SpsSpec(width=1280, height=720)))
        sps = parse_sps(units[0])
        assert (sps.width, sps.height) == (1280, 720)
        assert sps.pic_width_in_mbs == 80
        assert sps.pic_height_in_map_units == 45
        assert sps.profile_idc == 66

    def test_sps_1080p_needs_cropping(self):
        units = split_annexb(build_sps(SpsSpec(width=1920, height=1080)))
        sps = parse_sps(units[0])
        assert (sps.width, sps.height) == (1920, 1080)
        assert sps.frame_crop_bottom == 4

    def test_sps_high_profile_chroma_block(self):
        units = split_annexb(build_sps(SpsSpec(profile_idc=100, high_profile_chroma=True, width=960, height=540)))
        sps = parse_sps(units[0])
        assert (sps.width, sps.height) == (960, 540)
        assert sps.chroma_format_idc == 1

    def test_pps_fields(self):
        units = split_annexb(build_pps(PpsSpec(pps_id=3, sps_id=1, pic_init_qp_minus26=-3)))
        pps = parse_pps(units[0])
        assert pps.pic_parameter_set_id == 3
        assert pps.seq_parameter_set_id == 1
        assert pps.pic_init_qp_minus26 == -3
        assert pps.entropy_coding_mode_flag == 0

    def test_pps_slice_groups_unsupported(self):
        units = split_annexb(build_pps(PpsSpec(num_slice_groups_minus1=1)))
        with pytest.raises(UnsupportedProfile):
            parse_pps(units[0])

    def test_slice_qp_arithmetic(self):
        # 26 + (-3) + 5 = 28
        sps = SpsSpec()
        pps = PpsSpec(pic_init_qp_minus26=-3)
        stream = build_stream(sps, pps, [SliceSpec(slice_type=7, is_idr=True, pps=pps, sps=sps, slice_qp_delta=5)])
        slices = parse_stream(split_annexb(stream))
        assert len(slices) == 1
        assert slices[0].header.slice_qp == 28
        assert slices[0].header.is_idr
        assert slice_type_name(slices[0].header) == "I_ALL"

    def test_unknown_pps_raises(self):
        sps = SpsSpec()
        pps = PpsSpec(pps_id=0)
        wrong = PpsSpec(pps_id=9)
        data = build_sps(sps) + build_pps(pps) + build_slice(
            SliceSpec(slice_type=2, is_idr=True, pps=wrong, sps=sps)
        )
        with pytest.raises(MissingParameterSet):
            parse_stream(split_annexb(data))

    def test_slice_qp_out_of_range(self):
        sps = SpsSpec()
        pps = PpsSpec(pic_init_qp_minus26=25)
        stream = build_stream(sps, pps, [SliceSpec(slice_type=7, is_idr=True, pps=pps, sps=sps, slice_qp_delta=10)])
        with pytest.raises(MalformedSyntax):
            parse_stream(split_annexb(stream))

    def test_cabac_and_b_slices_parse(self):
        sps = SpsSpec(pic_order_cnt_type=0, log2_max_pic_order_cnt_lsb_minus4=2)
        pps = PpsSpec(entropy_coding_mode=1, pic_init_qp_minus26=2)
        slices = [
            SliceSpec(slice_type=7, is_idr=True, pps=pps, sps=sps, slice_qp_delta=-1),
            SliceSpec(slice_type=1, is_idr=False, pps=pps, sps=sps, frame_num=1, slice_qp_delta=3),
            SliceSpec(slice_type=0, is_idr=False, pps=pps, sps=sps, frame_num=2, slice_qp_delta=0, nal_ref_idc=0),
        ]
        parsed = parse_stream(split_annexb(build_stream(sps, pps, slices)))
        assert [p.header.slice_qp for p in parsed] == [27, 31, 28]
        assert [p.header.category for p in parsed] == ["I", "B", "P"]


class TestGopAggregation:
    def test_hand_computed_single_gop(self):
        # 1 IDR + 60 P slices, 1000 bytes each, 60 fps, 1 s GOP.
        stream = simple_gop_stream(n_gops=1, p_per_gop=60, nal_bytes_each=1000, qp_delta=4)
        rows, diag = extract_gop_features(stream, fps=60.0, gop_seconds=1.0)
        assert len(rows) == 1
        row = rows[0]
        assert row.duration_frames == 61
        assert row.bits_total == 61 * 8000
        assert row.frac_i == pytest.approx(1 / 61)
        assert row.frac_p == pytest.approx(60 / 61)
        assert row.frac_b == 0.0
        assert row.frame_size_cov == pytest.approx(0.0, abs=1e-12)
        assert row.bits_per_frame_mean == pytest.approx(8000.0)
        assert row.bits_per_frame_max == 8000.0
        assert row.qp_mean == 30.0 and row.qp_std == 0.0
        assert (row.width, row.height) == (1280, 720)
        # 61 frames at 60 fps carry 61*8000 bits -> 480 kbps.
        assert row.bitrate_kbps == pytest.approx(61 * 8000 / (61 / 60.0) / 1000.0)
        assert diag.gop_length_mismatches == 1  # 61 frames vs the nominal 60

    def test_uniform_qp_stats(self):
        stream = simple_gop_stream(n_gops=1, p_per_gop=10, qp_delta=4)
        rows, _ = extract_gop_features(stream, fps=10.0)
        assert rows[0].qp_mean == 30.0
        assert rows[0].qp_min == 30.0
        assert rows[0].qp_max == 30.0
        assert rows[0].qp_std == 0.0

    def test_two_gops(self):
        stream = simple_gop_stream(n_gops=2, p_per_gop=59)
        rows, _ = extract_gop_features(stream, fps=60.0)
        assert [r.gop_index for r in rows] == [0, 1]
        assert all(r.duration_frames == 60 for r in rows)

    def test_no_idr(self):
        sps = SpsSpec()
        pps = PpsSpec()
        stream = build_stream(sps, pps, [SliceSpec(slice_type=0, pps=pps, sps=sps, frame_num=1)])
        with pytest.raises(NoIdrFound):
            extract_gop_features(stream, fps=30.0)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            extract_gop_features(b"", fps=30.0)

    def test_leading_non_idr_slices_skipped(self):
        sps = SpsSpec()
        pps = PpsSpec()
        slices = [
            SliceSpec(slice_type=0, pps=pps, sps=sps, frame_num=5),
            SliceSpec(slice_type=7, is_idr=True, pps=pps, sps=sps),
            SliceSpec(slice_type=0, pps=pps, sps=sps, frame_num=1),
        ]
        rows, diag = extract_gop_features(build_stream(sps, pps, slices), fps=30.0)
        assert len(rows) == 1
        assert rows[0].duration_frames == 2
        assert diag.slices_before_first_idr == 1

    def test_fraction_sum_is_one(self):
        stream = simple_gop_stream(n_gops=3, p_per_gop=20)
        rows, _ = extract_gop_features(stream, fps=21.0)
        for r in rows:
            assert r.frac_i + r.frac_p + r.frac_b == pytest.approx(1.0, abs=1e-9)


class TestFuzzSmoke:
    def test_random_bytes_never_crash(self):
        rng = np.random.default_rng(2024)
        deadline = time.monotonic() + 3.0
        n = 0
        while time.monotonic() < deadline:
            blob = rng.bytes(int(rng.integers(0, 2048)))
            try:
                extract_gop_features(blob, fps=30.0)
            except ToolkitError:
                pass
            n += 1
        assert n > 0

    def test_mutated_valid_stream_never_crashes(self):
        base = bytearray(simple_gop_stream(n_gops=1, p_per_gop=5, nal_bytes_each=40))
        rng = np.random.default_rng(7)
        for _ in range(500):
            mutated = bytearray(base)
            for _ in range(int(rng.integers(1, 6))):
                mutated[int(rng.integers(0, len(mutated)))] = int(rng.integers(0, 256))
            try:
                extract_gop_features(bytes(mutated), fps=30.0)
            except ToolkitError:
                pass
