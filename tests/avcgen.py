"""Synthetic Annex-B stream builder used as the parser's field-level oracle.

Writes SPS/PPS/slice syntax element by element, independently of the
parser's reading code, so round-trip tests check both sides.  The writer
side of the bitstream code lives here, since only the tests write
streams: ``BitWriter``, ``insert_emulation_prevention``, and
``split_annexb`` and ``slice_type_name`` for reading units back.
"""

import re
from dataclasses import dataclass, field

from drskit.avc.headers import SliceHeaderInfo
from drskit.avc.nal import NalUnit, scan_annexb
from drskit.errors import MalformedSyntax

START_CODE = b"\x00\x00\x00\x01"

SLICE_TYPE_NAMES = ("P", "B", "I", "SP", "SI", "P_ALL", "B_ALL", "I_ALL", "SP_ALL", "SI_ALL")

_NEEDS_ESCAPE = re.compile(b"\x00\x00(?=[\x00-\x03])")


class BitWriter:
    def __init__(self):
        self._bits: list[int] = []

    def write_bit(self, bit: int) -> "BitWriter":
        self._bits.append(1 if bit else 0)
        return self

    def write_bits(self, value: int, n: int) -> "BitWriter":
        if value < 0 or (n < 64 and value >= (1 << n)):
            raise MalformedSyntax(f"value {value} does not fit in {n} bits")
        for i in range(n - 1, -1, -1):
            self.write_bit((value >> i) & 1)
        return self

    def write_ue(self, value: int) -> "BitWriter":
        if value < 0:
            raise MalformedSyntax(f"ue value must be >= 0, got {value}")
        code = value + 1
        n = code.bit_length()
        self.write_bits(0, n - 1)
        self.write_bits(code, n)
        return self

    def write_se(self, value: int) -> "BitWriter":
        if value > 0:
            k = 2 * value - 1
        else:
            k = -2 * value
        return self.write_ue(k)

    def write_trailing_bits(self) -> "BitWriter":
        """RBSP stop bit plus zero padding to a byte boundary."""
        self.write_bit(1)
        while len(self._bits) % 8 != 0:
            self.write_bit(0)
        return self

    def to_bytes(self) -> bytes:
        out = bytearray()
        acc = 0
        for i, b in enumerate(self._bits):
            acc = (acc << 1) | b
            if i % 8 == 7:
                out.append(acc)
                acc = 0
        tail = len(self._bits) % 8
        if tail:
            out.append(acc << (8 - tail))
        return bytes(out)

    def __len__(self) -> int:
        return len(self._bits)


def insert_emulation_prevention(data: bytes) -> bytes:
    """Insert 0x03 before any byte <= 3 that follows two zero bytes."""
    return _NEEDS_ESCAPE.sub(b"\x00\x00\x03", data)


def split_annexb(data: bytes) -> list[NalUnit]:
    return list(scan_annexb(data).units)


def slice_type_name(header: SliceHeaderInfo) -> str:
    return SLICE_TYPE_NAMES[header.slice_type]


@dataclass
class SpsSpec:
    sps_id: int = 0
    profile_idc: int = 66
    level_idc: int = 30
    width: int = 1280
    height: int = 720
    log2_max_frame_num_minus4: int = 0
    pic_order_cnt_type: int = 2
    log2_max_pic_order_cnt_lsb_minus4: int = 0
    high_profile_chroma: bool = False  # emit the profile-100 chroma block


@dataclass
class PpsSpec:
    pps_id: int = 0
    sps_id: int = 0
    pic_init_qp_minus26: int = 0
    entropy_coding_mode: int = 0
    num_slice_groups_minus1: int = 0


@dataclass
class SliceSpec:
    slice_type: int = 0  # 0=P 1=B 2=I (and +5 *_ALL variants)
    is_idr: bool = False
    pps: PpsSpec = field(default_factory=PpsSpec)
    sps: SpsSpec = field(default_factory=SpsSpec)
    frame_num: int = 0
    slice_qp_delta: int = 0
    nal_ref_idc: int = 1
    target_nal_bytes: int | None = None


def nal_bytes(nal_ref_idc: int, nal_type: int, rbsp: bytes, start_code: bytes = START_CODE) -> bytes:
    header = bytes([(nal_ref_idc << 5) | nal_type])
    return start_code + header + insert_emulation_prevention(rbsp)


def build_sps(spec: SpsSpec) -> bytes:
    assert spec.width % 16 == 0, "builder keeps width MB-aligned"
    w = BitWriter()
    w.write_bits(spec.profile_idc, 8)
    w.write_bits(0, 8)  # constraint flags + reserved
    w.write_bits(spec.level_idc, 8)
    w.write_ue(spec.sps_id)
    if spec.high_profile_chroma:
        assert spec.profile_idc == 100
        w.write_ue(1)  # chroma_format_idc 4:2:0
        w.write_ue(0)  # bit_depth_luma_minus8
        w.write_ue(0)  # bit_depth_chroma_minus8
        w.write_bit(0)  # qpprime_y_zero_transform_bypass_flag
        w.write_bit(0)  # seq_scaling_matrix_present_flag
    w.write_ue(spec.log2_max_frame_num_minus4)
    w.write_ue(spec.pic_order_cnt_type)
    if spec.pic_order_cnt_type == 0:
        w.write_ue(spec.log2_max_pic_order_cnt_lsb_minus4)
    w.write_ue(1)  # max_num_ref_frames
    w.write_bit(0)  # gaps_in_frame_num_value_allowed_flag
    w.write_ue(spec.width // 16 - 1)
    mb_rows = (spec.height + 15) // 16
    w.write_ue(mb_rows - 1)
    w.write_bit(1)  # frame_mbs_only_flag
    w.write_bit(1)  # direct_8x8_inference_flag
    pad = mb_rows * 16 - spec.height
    if pad:
        assert pad % 2 == 0, "4:2:0 crops in 2-pixel units"
        w.write_bit(1)  # frame_cropping_flag
        w.write_ue(0)
        w.write_ue(0)
        w.write_ue(0)
        w.write_ue(pad // 2)  # crop bottom in CropUnitY = 2 units
    else:
        w.write_bit(0)
    w.write_bit(0)  # vui_parameters_present_flag
    w.write_trailing_bits()
    return nal_bytes(3, 7, w.to_bytes())


def build_pps(spec: PpsSpec) -> bytes:
    w = BitWriter()
    w.write_ue(spec.pps_id)
    w.write_ue(spec.sps_id)
    w.write_bit(spec.entropy_coding_mode)
    w.write_bit(0)  # pic_order_present_flag
    w.write_ue(spec.num_slice_groups_minus1)
    if spec.num_slice_groups_minus1 > 0:
        w.write_ue(2)  # slice_group_map_type (content irrelevant: parser must refuse)
    w.write_ue(0)  # num_ref_idx_l0_default_active_minus1
    w.write_ue(0)  # num_ref_idx_l1_default_active_minus1
    w.write_bit(0)  # weighted_pred_flag
    w.write_bits(0, 2)  # weighted_bipred_idc
    w.write_se(spec.pic_init_qp_minus26)
    w.write_se(0)  # pic_init_qs_minus26
    w.write_se(0)  # chroma_qp_index_offset
    w.write_bit(0)  # deblocking_filter_control_present_flag
    w.write_bit(0)  # constrained_intra_pred_flag
    w.write_bit(0)  # redundant_pic_cnt_present_flag
    w.write_trailing_bits()
    return nal_bytes(3, 8, w.to_bytes())


def build_slice(spec: SliceSpec) -> bytes:
    w = BitWriter()
    mod5 = spec.slice_type % 5
    w.write_ue(0)  # first_mb_in_slice
    w.write_ue(spec.slice_type)
    w.write_ue(spec.pps.pps_id)
    w.write_bits(spec.frame_num, spec.sps.log2_max_frame_num_minus4 + 4)
    if spec.is_idr:
        w.write_ue(0)  # idr_pic_id
    if spec.sps.pic_order_cnt_type == 0:
        w.write_bits(0, spec.sps.log2_max_pic_order_cnt_lsb_minus4 + 4)
    if mod5 == 1:
        w.write_bit(0)  # direct_spatial_mv_pred_flag
    if mod5 in (0, 3, 1):
        w.write_bit(0)  # num_ref_idx_active_override_flag
    if mod5 not in (2, 4):
        w.write_bit(0)  # ref_pic_list_modification_flag_l0
        if mod5 == 1:
            w.write_bit(0)  # ref_pic_list_modification_flag_l1
    if spec.nal_ref_idc != 0:
        if spec.is_idr:
            w.write_bit(0)  # no_output_of_prior_pics_flag
            w.write_bit(0)  # long_term_reference_flag
        else:
            w.write_bit(0)  # adaptive_ref_pic_marking_mode_flag
    if spec.pps.entropy_coding_mode and mod5 not in (2, 4):
        w.write_ue(0)  # cabac_init_idc
    w.write_se(spec.slice_qp_delta)
    w.write_trailing_bits()
    rbsp = w.to_bytes()
    nal_type = 5 if spec.is_idr else 1
    if spec.target_nal_bytes is not None:
        pad = spec.target_nal_bytes - (1 + len(rbsp))
        assert pad >= 0, "target size smaller than the header"
        rbsp += b"\xaa" * pad  # stand-in macroblock data, escape-neutral
    return nal_bytes(spec.nal_ref_idc, nal_type, rbsp)


def build_stream(sps: SpsSpec, pps: PpsSpec, slices: list[SliceSpec]) -> bytes:
    return build_sps(sps) + build_pps(pps) + b"".join(build_slice(s) for s in slices)


def simple_gop_stream(
    n_gops: int = 1,
    p_per_gop: int = 60,
    nal_bytes_each: int = 1000,
    qp_delta: int = 0,
    width: int = 1280,
    height: int = 720,
) -> bytes:
    sps = SpsSpec(width=width, height=height, log2_max_frame_num_minus4=4)
    pps = PpsSpec()
    slices = []
    for g in range(n_gops):
        slices.append(
            SliceSpec(slice_type=7, is_idr=True, pps=pps, sps=sps, frame_num=0,
                      slice_qp_delta=qp_delta, target_nal_bytes=nal_bytes_each)
        )
        for i in range(p_per_gop):
            slices.append(
                SliceSpec(slice_type=0, is_idr=False, pps=pps, sps=sps,
                          frame_num=(i + 1) % 256, slice_qp_delta=qp_delta,
                          target_nal_bytes=nal_bytes_each)
            )
    return build_stream(sps, pps, slices)
