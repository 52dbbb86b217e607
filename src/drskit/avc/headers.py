"""SPS / PPS / slice-header parsing, header level only.

Slice parsing stops right after ``slice_qp_delta``; macroblock data and
everything behind it is never touched.  Syntax with bounded loops is
parsed; structures that would change the header layout in ways this
parser does not model (FMO slice groups) raise ``UnsupportedProfile``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MalformedSyntax, MissingParameterSet, UnsupportedProfile
from .bitio import BitReader
from .nal import NAL_IDR_SLICE, NAL_NON_IDR_SLICE, NAL_PPS, NAL_SPS, NalUnit

__all__ = [
    "SpsInfo",
    "PpsInfo",
    "SliceHeaderInfo",
    "ParserContext",
    "parse_sps",
    "parse_pps",
    "parse_slice_header",
]

# Profiles whose SPS carries the chroma/bit-depth/scaling-matrix block.
_EXTENDED_SPS_PROFILES = frozenset({100, 110, 122, 244, 44, 83, 86, 118, 128, 138, 139, 134, 135})

# SubWidthC / SubHeightC per chroma_format_idc 1..3
_SUB_WC = {1: 2, 2: 2, 3: 1}
_SUB_HC = {1: 2, 2: 1, 3: 1}


@dataclass(frozen=True)
class SpsInfo:
    profile_idc: int
    level_idc: int
    seq_parameter_set_id: int
    pic_width_in_mbs: int
    pic_height_in_map_units: int
    frame_crop_left: int
    frame_crop_right: int
    frame_crop_top: int
    frame_crop_bottom: int
    width: int
    height: int
    # Fields below drive slice-header layout.
    chroma_format_idc: int
    separate_colour_plane_flag: int
    frame_mbs_only_flag: int
    log2_max_frame_num_minus4: int
    pic_order_cnt_type: int
    log2_max_pic_order_cnt_lsb_minus4: int
    delta_pic_order_always_zero_flag: int


@dataclass(frozen=True)
class PpsInfo:
    pic_parameter_set_id: int
    seq_parameter_set_id: int
    pic_init_qp_minus26: int
    entropy_coding_mode_flag: int
    pic_order_present_flag: int
    num_ref_idx_l0_default_active_minus1: int
    num_ref_idx_l1_default_active_minus1: int
    weighted_pred_flag: int
    weighted_bipred_idc: int
    deblocking_filter_control_present_flag: int
    redundant_pic_cnt_present_flag: int


@dataclass(frozen=True)
class SliceHeaderInfo:
    first_mb_in_slice: int
    slice_type: int
    pps_id: int
    frame_num: int
    slice_qp_delta: int
    slice_qp: int
    is_idr: bool

    @property
    def category(self) -> str:
        """I / P / B bucket; SP counts as P, SI as I."""
        mod = self.slice_type % 5
        return {0: "P", 1: "B", 2: "I", 3: "P", 4: "I"}[mod]


class ParserContext:
    """Active parameter sets seen so far in one stream."""

    def __init__(self):
        self.sps: dict[int, SpsInfo] = {}
        self.pps: dict[int, PpsInfo] = {}

    def add_sps(self, sps: SpsInfo) -> None:
        self.sps[sps.seq_parameter_set_id] = sps

    def add_pps(self, pps: PpsInfo) -> None:
        self.pps[pps.pic_parameter_set_id] = pps


def _expect_type(nal: NalUnit, expected: tuple[int, ...], what: str) -> None:
    if nal.nal_unit_type not in expected:
        raise MalformedSyntax(f"{what} expected NAL type {expected}, got {nal.nal_unit_type}")


def _ue_bounded(r: BitReader, lo: int, hi: int, what: str) -> int:
    v = r.read_ue()
    if not lo <= v <= hi:
        raise MalformedSyntax(f"{what} = {v} outside [{lo}, {hi}]")
    return v


def _skip_scaling_list(r: BitReader, size: int) -> None:
    last, nxt = 8, 8
    for _ in range(size):
        if nxt != 0:
            delta = r.read_se()
            nxt = (last + delta + 256) % 256
        if nxt != 0:
            last = nxt


def parse_sps(nal: NalUnit) -> SpsInfo:
    _expect_type(nal, (NAL_SPS,), "SPS")
    r = BitReader(nal.payload)
    profile_idc = r.read_bits(8)
    r.read_bits(8)  # constraint flags + reserved
    level_idc = r.read_bits(8)
    sps_id = _ue_bounded(r, 0, 31, "seq_parameter_set_id")

    chroma_format_idc = 1
    separate_colour_plane_flag = 0
    if profile_idc in _EXTENDED_SPS_PROFILES:
        chroma_format_idc = _ue_bounded(r, 0, 3, "chroma_format_idc")
        if chroma_format_idc == 3:
            separate_colour_plane_flag = r.read_flag()
        _ue_bounded(r, 0, 6, "bit_depth_luma_minus8")
        _ue_bounded(r, 0, 6, "bit_depth_chroma_minus8")
        r.read_flag()  # qpprime_y_zero_transform_bypass_flag
        if r.read_flag():  # seq_scaling_matrix_present_flag
            n_lists = 8 if chroma_format_idc != 3 else 12
            for i in range(n_lists):
                if r.read_flag():
                    _skip_scaling_list(r, 16 if i < 6 else 64)

    log2_max_frame_num_minus4 = _ue_bounded(r, 0, 12, "log2_max_frame_num_minus4")
    pic_order_cnt_type = _ue_bounded(r, 0, 2, "pic_order_cnt_type")
    log2_max_pic_order_cnt_lsb_minus4 = 0
    delta_pic_order_always_zero_flag = 0
    if pic_order_cnt_type == 0:
        log2_max_pic_order_cnt_lsb_minus4 = _ue_bounded(r, 0, 12, "log2_max_pic_order_cnt_lsb_minus4")
    elif pic_order_cnt_type == 1:
        delta_pic_order_always_zero_flag = r.read_flag()
        r.read_se()  # offset_for_non_ref_pic
        r.read_se()  # offset_for_top_to_bottom_field
        n_cycle = _ue_bounded(r, 0, 255, "num_ref_frames_in_pic_order_cnt_cycle")
        for _ in range(n_cycle):
            r.read_se()

    _ue_bounded(r, 0, 65535, "max_num_ref_frames")
    r.read_flag()  # gaps_in_frame_num_value_allowed_flag
    pic_width_in_mbs = r.read_ue() + 1
    pic_height_in_map_units = r.read_ue() + 1
    frame_mbs_only_flag = r.read_flag()
    if not frame_mbs_only_flag:
        r.read_flag()  # mb_adaptive_frame_field_flag
    r.read_flag()  # direct_8x8_inference_flag

    crop_l = crop_r = crop_t = crop_b = 0
    if r.read_flag():  # frame_cropping_flag
        crop_l = r.read_ue()
        crop_r = r.read_ue()
        crop_t = r.read_ue()
        crop_b = r.read_ue()
    # vui_parameters_present_flag and VUI are not needed and left unread.

    chroma_array_type = 0 if separate_colour_plane_flag else chroma_format_idc
    if chroma_array_type == 0:
        crop_ux, crop_uy = 1, 2 - frame_mbs_only_flag
    else:
        crop_ux = _SUB_WC[chroma_array_type]
        crop_uy = _SUB_HC[chroma_array_type] * (2 - frame_mbs_only_flag)

    width = pic_width_in_mbs * 16 - crop_ux * (crop_l + crop_r)
    height = (2 - frame_mbs_only_flag) * pic_height_in_map_units * 16 - crop_uy * (crop_t + crop_b)
    if width <= 0 or height <= 0 or width % 2 or height % 2:
        raise MalformedSyntax(f"derived picture size {width}x{height} is not a positive even size")

    return SpsInfo(
        profile_idc=profile_idc,
        level_idc=level_idc,
        seq_parameter_set_id=sps_id,
        pic_width_in_mbs=pic_width_in_mbs,
        pic_height_in_map_units=pic_height_in_map_units,
        frame_crop_left=crop_l,
        frame_crop_right=crop_r,
        frame_crop_top=crop_t,
        frame_crop_bottom=crop_b,
        width=width,
        height=height,
        chroma_format_idc=chroma_format_idc,
        separate_colour_plane_flag=separate_colour_plane_flag,
        frame_mbs_only_flag=frame_mbs_only_flag,
        log2_max_frame_num_minus4=log2_max_frame_num_minus4,
        pic_order_cnt_type=pic_order_cnt_type,
        log2_max_pic_order_cnt_lsb_minus4=log2_max_pic_order_cnt_lsb_minus4,
        delta_pic_order_always_zero_flag=delta_pic_order_always_zero_flag,
    )


def parse_pps(nal: NalUnit) -> PpsInfo:
    _expect_type(nal, (NAL_PPS,), "PPS")
    r = BitReader(nal.payload)
    pps_id = _ue_bounded(r, 0, 255, "pic_parameter_set_id")
    sps_id = _ue_bounded(r, 0, 31, "seq_parameter_set_id")
    entropy_coding_mode_flag = r.read_flag()
    pic_order_present_flag = r.read_flag()
    num_slice_groups_minus1 = r.read_ue()
    if num_slice_groups_minus1 > 0:
        raise UnsupportedProfile("FMO slice groups are not supported")
    num_ref_l0 = _ue_bounded(r, 0, 31, "num_ref_idx_l0_default_active_minus1")
    num_ref_l1 = _ue_bounded(r, 0, 31, "num_ref_idx_l1_default_active_minus1")
    weighted_pred_flag = r.read_flag()
    weighted_bipred_idc = r.read_bits(2)
    pic_init_qp_minus26 = r.read_se()
    if not -26 <= pic_init_qp_minus26 <= 25:
        raise MalformedSyntax(f"pic_init_qp_minus26 = {pic_init_qp_minus26} outside [-26, 25]")
    r.read_se()  # pic_init_qs_minus26
    r.read_se()  # chroma_qp_index_offset
    deblocking = r.read_flag()
    r.read_flag()  # constrained_intra_pred_flag
    redundant = r.read_flag()
    # transform_8x8_mode_flag etc. sit behind more_rbsp_data and do not
    # affect the slice fields we extract.
    return PpsInfo(
        pic_parameter_set_id=pps_id,
        seq_parameter_set_id=sps_id,
        pic_init_qp_minus26=pic_init_qp_minus26,
        entropy_coding_mode_flag=entropy_coding_mode_flag,
        pic_order_present_flag=pic_order_present_flag,
        num_ref_idx_l0_default_active_minus1=num_ref_l0,
        num_ref_idx_l1_default_active_minus1=num_ref_l1,
        weighted_pred_flag=weighted_pred_flag,
        weighted_bipred_idc=weighted_bipred_idc,
        deblocking_filter_control_present_flag=deblocking,
        redundant_pic_cnt_present_flag=redundant,
    )


def _parse_ref_pic_list_modification(r: BitReader, slice_mod5: int, max_iters: int) -> None:
    n_lists = 2 if slice_mod5 == 1 else 1
    for _ in range(n_lists):
        if r.read_flag():
            for it in range(max_iters + 1):
                idc = r.read_ue()
                if idc == 3:
                    break
                if idc > 3:
                    raise MalformedSyntax(f"modification_of_pic_nums_idc = {idc} > 3")
                r.read_ue()  # abs_diff_pic_num_minus1 / long_term_pic_num
            else:
                raise MalformedSyntax("unterminated ref_pic_list_modification")


def _parse_pred_weight_table(r: BitReader, chroma_array_type: int, n_l0: int, n_l1: int, slice_mod5: int) -> None:
    _ue_bounded(r, 0, 7, "luma_log2_weight_denom")
    if chroma_array_type != 0:
        _ue_bounded(r, 0, 7, "chroma_log2_weight_denom")
    counts = [n_l0 + 1]
    if slice_mod5 == 1:
        counts.append(n_l1 + 1)
    for count in counts:
        for _ in range(count):
            if r.read_flag():
                r.read_se()
                r.read_se()
            if chroma_array_type != 0 and r.read_flag():
                for _ in range(4):
                    r.read_se()


def _parse_dec_ref_pic_marking(r: BitReader, is_idr: bool) -> None:
    if is_idr:
        r.read_flag()  # no_output_of_prior_pics_flag
        r.read_flag()  # long_term_reference_flag
        return
    if r.read_flag():  # adaptive_ref_pic_marking_mode_flag
        for it in range(72):
            op = r.read_ue()
            if op == 0:
                break
            if op > 6:
                raise MalformedSyntax(f"memory_management_control_operation = {op} > 6")
            if op in (1, 3):
                r.read_ue()
            if op == 2:
                r.read_ue()
            if op in (4, 6):
                r.read_ue()
        else:
            raise MalformedSyntax("unterminated dec_ref_pic_marking")


def parse_slice_header(nal: NalUnit, ctx: ParserContext) -> SliceHeaderInfo:
    """Decode a coded-slice header through slice_qp_delta.

    Needs the referenced SPS/PPS already present in ``ctx``; raises
    ``MissingParameterSet`` otherwise and ``MalformedSyntax`` on values
    outside their legal ranges (including a slice QP outside [0, 51]).
    """
    _expect_type(nal, (NAL_NON_IDR_SLICE, NAL_IDR_SLICE), "slice")
    is_idr = nal.nal_unit_type == NAL_IDR_SLICE
    r = BitReader(nal.payload)

    first_mb_in_slice = r.read_ue()
    slice_type = _ue_bounded(r, 0, 9, "slice_type")
    mod5 = slice_type % 5
    pps_id = r.read_ue()
    pps = ctx.pps.get(pps_id)
    if pps is None:
        raise MissingParameterSet(f"slice references unknown PPS id {pps_id}")
    sps = ctx.sps.get(pps.seq_parameter_set_id)
    if sps is None:
        raise MissingParameterSet(f"PPS {pps_id} references unknown SPS id {pps.seq_parameter_set_id}")

    if sps.separate_colour_plane_flag:
        r.read_bits(2)  # colour_plane_id
    frame_num = r.read_bits(sps.log2_max_frame_num_minus4 + 4)

    field_pic_flag = 0
    bottom_field_flag = 0
    if not sps.frame_mbs_only_flag:
        field_pic_flag = r.read_flag()
        if field_pic_flag:
            bottom_field_flag = r.read_flag()

    if is_idr:
        r.read_ue()  # idr_pic_id

    if sps.pic_order_cnt_type == 0:
        r.read_bits(sps.log2_max_pic_order_cnt_lsb_minus4 + 4)  # pic_order_cnt_lsb
        if pps.pic_order_present_flag and not field_pic_flag:
            r.read_se()  # delta_pic_order_cnt_bottom
    elif sps.pic_order_cnt_type == 1 and not sps.delta_pic_order_always_zero_flag:
        r.read_se()
        if pps.pic_order_present_flag and not field_pic_flag:
            r.read_se()

    if pps.redundant_pic_cnt_present_flag:
        _ue_bounded(r, 0, 127, "redundant_pic_cnt")

    if mod5 == 1:  # B
        r.read_flag()  # direct_spatial_mv_pred_flag

    n_l0 = pps.num_ref_idx_l0_default_active_minus1
    n_l1 = pps.num_ref_idx_l1_default_active_minus1
    if mod5 in (0, 3, 1):  # P, SP, B
        if r.read_flag():  # num_ref_idx_active_override_flag
            n_l0 = _ue_bounded(r, 0, 31, "num_ref_idx_l0_active_minus1")
            if mod5 == 1:
                n_l1 = _ue_bounded(r, 0, 31, "num_ref_idx_l1_active_minus1")

    if mod5 not in (2, 4):  # not I / SI
        _parse_ref_pic_list_modification(r, mod5, max_iters=max(n_l0, n_l1) + 32)

    chroma_array_type = 0 if sps.separate_colour_plane_flag else sps.chroma_format_idc
    if (pps.weighted_pred_flag and mod5 in (0, 3)) or (pps.weighted_bipred_idc == 1 and mod5 == 1):
        _parse_pred_weight_table(r, chroma_array_type, n_l0, n_l1, mod5)

    if nal.nal_ref_idc != 0:
        _parse_dec_ref_pic_marking(r, is_idr)

    if pps.entropy_coding_mode_flag and mod5 not in (2, 4):
        _ue_bounded(r, 0, 2, "cabac_init_idc")

    slice_qp_delta = r.read_se()
    slice_qp = 26 + pps.pic_init_qp_minus26 + slice_qp_delta
    if not 0 <= slice_qp <= 51:
        raise MalformedSyntax(f"slice_qp = {slice_qp} outside [0, 51]")

    return SliceHeaderInfo(
        first_mb_in_slice=first_mb_in_slice,
        slice_type=slice_type,
        pps_id=pps_id,
        frame_num=frame_num,
        slice_qp_delta=slice_qp_delta,
        slice_qp=slice_qp,
        is_idr=is_idr,
    )
