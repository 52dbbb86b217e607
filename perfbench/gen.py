"""Seeded input generator for the drskit benchmark.

Usage: python3 perfbench/gen.py WORKLOAD SEED OUT_DIR

Writes the workload's input files into OUT_DIR, plus ``truth.json`` (the
values the checker compares the program's outputs against) and
``manifest.json`` (a SHA-256 digest of every generated file).  The same
workload and seed always give byte-identical files.  Only the standard
library is used and drskit is never imported, so a change to the
program's readers or parsers cannot change what is measured.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import sys
from pathlib import Path

import spec


def _expit(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def logistic(params, x: float) -> float:
    b2, delta, b3, b4 = params
    return b2 + delta * _expit((x - b3) / b4)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


# --------------------------------------------------------------- switching


def gen_switching(rng: random.Random, out: Path) -> dict:
    """Quality log with per-content complexity, a slowly drifting per-GOP
    complexity and measurement noise.  Low resolutions win at low rungs,
    high ones at high rungs, and the cross-over moves from GOP to GOP."""
    ceilings = (7.4, 8.5, 9.6)
    knees = (420.0, 800.0, 1500.0)
    with open(out / "quality_log.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["content_id", "gop_index", "bitrate_kbps", "width", "height", "vqm_score"])
        for c in range(spec.SWITCHING_CONTENTS):
            content = f"c{c:02d}"
            kappa = rng.uniform(0.6, 1.6)
            drift = 0.0
            for g in range(spec.SWITCHING_GOPS_PER_CONTENT):
                drift = 0.92 * drift + rng.gauss(0.0, 0.12)
                complexity = kappa * math.exp(drift)
                for b in spec.SWITCHING_RUNGS:
                    for k, (width, height) in enumerate(spec.SWITCHING_RESOLUTIONS):
                        t = (math.log(b) - math.log(knees[k] * complexity)) / 0.8
                        score = ceilings[k] * _expit(t) + rng.gauss(0.0, 0.12)
                        score = round(min(10.0, max(0.0, score)), 4)
                        w.writerow([content, g, repr(b), width, height, repr(score)])
    # Static 8-rung ladder: one resolution per rung.
    static = {1000.0: 0, 1500.0: 0, 2000.0: 0, 3000.0: 1, 4000.0: 1, 6000.0: 2, 8000.0: 2, 10000.0: 2}
    baseline = {
        "rungs": [
            {"bitrate_kbps": b, "resolutions": [list(spec.SWITCHING_RESOLUTIONS[static[b]])]}
            for b in spec.SWITCHING_RUNGS
        ]
    }
    _write_json(out / "baseline_ladder.json", baseline)
    return {}


# --------------------------------------------------------------- crossover


def _normal_curve(k: int, kappa: float, bias: float, b3: float):
    """(beta2, delta, beta3, beta4) of resolution k: lower resolutions
    start higher, higher ones rise slower to a higher ceiling, so each
    adjacent pair crosses once inside the bitrate range."""
    return (3.5 - 1.1 * k, 2.5 + 1.6 * k, b3, 300.0 * kappa * (1.9**k) * bias)


def _boosted(params, lift: float):
    b2, delta, b3, b4 = params
    return (b2 + lift, delta + lift, b3, b4)


def gen_crossover(rng: random.Random, out: Path) -> dict:
    """Scored points whose subjective (JOD) and objective curves are
    4-parameter logistics plus noise.  The objective metric over-rates
    high resolutions, so its cross-overs come early.  Even contents have
    a pair whose subjective curves cross twice (multiple_resolved) and a
    pair where neither side crosses (none); odd contents have a pair
    where only the metric crosses (endpoint fallback).  The other pairs
    cross once on both sides."""
    n_res = len(spec.CROSSOVER_RESOLUTIONS)
    r_min = spec.CROSSOVER_BITRATES[0]
    truth = {}
    rows = []
    for c in range(spec.CROSSOVER_CONTENTS):
        content = f"x{c:02d}"
        kappa = rng.uniform(0.75, 1.35)
        subj, obj = [], []
        for k in range(n_res):
            b3 = rng.uniform(0.6 * r_min, 0.96 * r_min)
            subj.append(_normal_curve(k, kappa, 1.0, b3))
            obj.append(_normal_curve(k, kappa, (1.0 - 0.12 * k) * rng.uniform(0.95, 1.05), b3))
        if c % 2 == 0:
            # 360p rises fast to a low ceiling, 540p starts higher and rises
            # slowly to a higher one: two subjective crossings.
            b3 = subj[0][2]
            subj[0] = (2.0, 4.0, b3, 250.0)
            subj[1] = (2.6, 4.4, b3, 2500.0)
            # 1080p dominates 720p on both scales.
            subj[3] = _boosted(subj[2], 0.5)
            obj[3] = _boosted(obj[2], 0.5)
        else:
            # 540p dominates 360p subjectively; the metric still crosses.
            subj[1] = _boosted(subj[0], 0.5)
        for k, res in enumerate(spec.CROSSOVER_RESOLUTIONS):
            label = f"{res[0]}x{res[1]}"
            # The objective score lives on a 0-100-like scale.
            obj_params = (20.0 + 10.0 * obj[k][0], 10.0 * obj[k][1], obj[k][2], obj[k][3])
            truth[f"{content}/{label}/subjective_jod"] = list(subj[k])
            truth[f"{content}/{label}/objective_score"] = list(obj_params)
            for b in spec.CROSSOVER_BITRATES:
                s = round(logistic(subj[k], b) + rng.gauss(0.0, 0.15), 4)
                o = round(logistic(obj_params, b) + rng.gauss(0.0, 1.0), 3)
                rows.append([content, label, repr(b), repr(s), repr(o)])
    with open(out / "scored_points.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["content_id", "resolution", "bitrate_kbps", "subjective_jod", "objective_score"])
        w.writerows(rows)
    return {"curves": truth}


# ----------------------------------------------------------- quality-model


class BitWriter:
    """MSB-first bit writer with Exp-Golomb codes (H.264 7.2 / 9.1)."""

    def __init__(self):
        self.bits: list[int] = []

    def u(self, value: int, n: int) -> None:
        for i in range(n - 1, -1, -1):
            self.bits.append((value >> i) & 1)

    def ue(self, value: int) -> None:
        code = value + 1
        n = code.bit_length()
        self.u(0, n - 1)
        self.u(code, n)

    def se(self, value: int) -> None:
        self.ue(2 * value - 1 if value > 0 else -2 * value)

    def rbsp(self) -> bytes:
        """Stop bit, zero padding to a byte boundary, then the bytes."""
        self.bits.append(1)
        while len(self.bits) % 8:
            self.bits.append(0)
        return bytes(
            int("".join(map(str, self.bits[i : i + 8])), 2) for i in range(0, len(self.bits), 8)
        )


def escape(rbsp: bytes) -> bytes:
    """Insert an emulation-prevention 0x03 before any byte <= 3 that
    follows two zero bytes."""
    out = bytearray()
    zeros = 0
    for b in rbsp:
        if zeros >= 2 and b <= 3:
            out.append(3)
            zeros = 0
        out.append(b)
        zeros = zeros + 1 if b == 0 else 0
    return bytes(out)


def nal(nal_ref_idc: int, nal_type: int, rbsp: bytes) -> bytes:
    """Header byte plus escaped payload (no start code)."""
    return bytes([(nal_ref_idc << 5) | nal_type]) + escape(rbsp)


START_CODE = b"\x00\x00\x00\x01"
FRAME_NUM_BITS = 8
POC_LSB_BITS = 8


def _sps(profile_idc: int, width: int, height: int) -> bytes:
    w = BitWriter()
    w.u(profile_idc, 8)
    w.u(0, 8)
    w.u(40, 8)
    w.ue(0)  # seq_parameter_set_id
    if profile_idc == 100:
        w.ue(1)  # chroma_format_idc 4:2:0
        w.ue(0)  # bit_depth_luma_minus8
        w.ue(0)  # bit_depth_chroma_minus8
        w.u(0, 1)  # qpprime_y_zero_transform_bypass_flag
        w.u(0, 1)  # seq_scaling_matrix_present_flag
    w.ue(FRAME_NUM_BITS - 4)
    w.ue(0)  # pic_order_cnt_type
    w.ue(POC_LSB_BITS - 4)
    w.ue(2)  # max_num_ref_frames
    w.u(0, 1)  # gaps_in_frame_num_value_allowed_flag
    mb_rows = (height + 15) // 16
    w.ue(width // 16 - 1)
    w.ue(mb_rows - 1)
    w.u(1, 1)  # frame_mbs_only_flag
    w.u(1, 1)  # direct_8x8_inference_flag
    pad = mb_rows * 16 - height
    if pad:
        w.u(1, 1)  # frame_cropping_flag
        w.ue(0)
        w.ue(0)
        w.ue(0)
        w.ue(pad // 2)
    else:
        w.u(0, 1)
    w.u(0, 1)  # vui_parameters_present_flag
    return nal(3, 7, w.rbsp())


def _pps(pic_init_qp_minus26: int, cabac: int) -> bytes:
    w = BitWriter()
    w.ue(0)  # pic_parameter_set_id
    w.ue(0)  # seq_parameter_set_id
    w.u(cabac, 1)
    w.u(0, 1)  # pic_order_present_flag
    w.ue(0)  # num_slice_groups_minus1
    w.ue(0)  # num_ref_idx_l0_default_active_minus1
    w.ue(0)  # num_ref_idx_l1_default_active_minus1
    w.u(0, 1)  # weighted_pred_flag
    w.u(0, 2)  # weighted_bipred_idc
    w.se(pic_init_qp_minus26)
    w.se(0)  # pic_init_qs_minus26
    w.se(0)  # chroma_qp_index_offset
    w.u(0, 1)  # deblocking_filter_control_present_flag
    w.u(0, 1)  # constrained_intra_pred_flag
    w.u(0, 1)  # redundant_pic_cnt_present_flag
    return nal(3, 8, w.rbsp())


def _slice(kind: str, first_mb: int, frame_num: int, poc: int, idr_id: int, qp_delta: int, cabac: int, filler: bytes):
    """One coded slice: header through slice_qp_delta, then filler bytes
    standing in for macroblock data; returns the NAL unit without its
    start code."""
    slice_type = {"I": 7, "P": 5, "B": 1}[kind] if first_mb == 0 else {"I": 2, "P": 0, "B": 1}[kind]
    ref_idc = 0 if kind == "B" else (3 if kind == "I" else 2)
    is_idr = kind == "I"
    w = BitWriter()
    w.ue(first_mb)
    w.ue(slice_type)
    w.ue(0)  # pic_parameter_set_id
    w.u(frame_num % (1 << FRAME_NUM_BITS), FRAME_NUM_BITS)
    if is_idr:
        w.ue(idr_id)
    w.u(poc % (1 << POC_LSB_BITS), POC_LSB_BITS)
    if kind == "B":
        w.u(1, 1)  # direct_spatial_mv_pred_flag
    if kind in ("P", "B"):
        w.u(0, 1)  # num_ref_idx_active_override_flag
        w.u(0, 1)  # ref_pic_list_modification_flag_l0
        if kind == "B":
            w.u(0, 1)  # ref_pic_list_modification_flag_l1
    if ref_idc:
        if is_idr:
            w.u(0, 1)  # no_output_of_prior_pics_flag
            w.u(0, 1)  # long_term_reference_flag
        else:
            w.u(0, 1)  # adaptive_ref_pic_marking_mode_flag
    if cabac and kind != "I":
        w.ue(0)  # cabac_init_idc
    w.se(qp_delta)
    return nal(ref_idc, 5 if is_idr else 1, w.rbsp() + filler)


def _escape_dense_filler(rng: random.Random, n: int) -> bytes:
    """Payload in which most byte triples need an emulation-prevention
    byte, ending in a non-zero byte."""
    motifs = (b"\x00\x00\x01", b"\x00\x00\x00", b"\x00\x00\x02\x00\x00\x03", b"\x00\x00\x03\x41")
    out = bytearray()
    while len(out) < n - 1:
        out += motifs[rng.randrange(len(motifs))]
    del out[n - 1 :]
    out.append(0x80)
    return bytes(out)


def _plain_filler(rng: random.Random, n: int) -> bytes:
    return bytes(rng.randrange(4, 256) for _ in range(n))


def _stream(rng, *, profile, width, height, qp_base, cabac, gops, frames_per_gop, slices_per_frame, filler, sizes):
    """Annex-B stream of IDR-started GOPs in I P B B P B B ... order.
    Returns (stream bytes, expected per-GOP feature rows)."""
    mbs = (width // 16) * ((height + 15) // 16)
    parts = [START_CODE + _sps(profile, width, height), START_CODE + _pps(qp_base - 26, cabac)]
    gop_rows = []
    frame_num = 0
    for g in range(gops):
        frames = []  # (bits, [(category, qp)])
        for f in range(frames_per_gop):
            kind = "I" if f == 0 else ("P" if f % 3 == 1 else "B")
            if kind == "I":
                frame_num = 0
            slices = []
            bits = 0
            for s in range(slices_per_frame):
                qp_delta = rng.randint(-6, 6) + {"I": -2, "P": 0, "B": 2}[kind]
                size = max(2, int(sizes[kind] * rng.uniform(0.8, 1.2)))
                data = _slice(
                    kind, s * (mbs // slices_per_frame), frame_num, 2 * f, g % 16, qp_delta, cabac, filler(rng, size)
                )
                parts.append(START_CODE + data)
                bits += 8 * len(data)
                slices.append((kind, qp_base + qp_delta))
            if kind != "B":
                frame_num += 1
            frames.append((bits, slices))
        gop_rows.append(_gop_features(g, width, height, frames))
    return b"".join(parts), gop_rows


def _gop_features(gop_index: int, width: int, height: int, frames) -> list:
    """Expected feature-log row: identity columns then FEATURE_COLUMNS."""
    frame_bits = [b for b, _ in frames]
    slices = [s for _, ss in frames for s in ss]
    qps = [qp for _, qp in slices]
    n = len(frames)
    bits_total = sum(frame_bits)
    mean_bits = bits_total / n
    sd_bits = math.sqrt(math.fsum((b - mean_bits) ** 2 for b in frame_bits) / n)
    qp_mean = math.fsum(qps) / len(qps)
    qp_std = math.sqrt(math.fsum((q - qp_mean) ** 2 for q in qps) / len(qps))
    cats = [c for c, _ in slices]
    duration_s = n / spec.STREAM_FPS
    return [
        gop_index,
        bits_total / duration_s / 1000.0,
        width,
        height,
        n,
        bits_total,
        mean_bits,
        max(frame_bits),
        cats.count("I") / len(cats),
        cats.count("P") / len(cats),
        cats.count("B") / len(cats),
        qp_mean,
        min(qps),
        max(qps),
        qp_std,
        sd_bits / mean_bits,
    ]


def _feature_log(rng: random.Random, out: Path) -> None:
    """Labelled feature log in drskit's schema: the label depends on
    bitrate, pixels, QP and a per-content offset, plus noise."""
    rungs = spec.SWITCHING_RUNGS
    resolutions = spec.SWITCHING_RESOLUTIONS
    with open(out / "feature_log.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(spec.FEATURE_LOG_ID_COLUMNS) + list(spec.FEATURE_COLUMNS) + ["label_jod"])
        for c in range(spec.FEATURE_LOG_CONTENTS):
            content = f"q{c:02d}"
            complexity = rng.uniform(0.6, 1.6)
            offset = rng.gauss(0.0, 0.3)
            for g in range(spec.FEATURE_LOG_ROWS_PER_CONTENT):
                b = rungs[rng.randrange(len(rungs))] * rng.uniform(0.9, 1.1)
                width, height = resolutions[rng.randrange(len(resolutions))]
                frames = rng.choice((30, 60))
                bits_total = b * 1000.0 * frames / spec.STREAM_FPS
                bpp = b * 1000.0 / (width * height * spec.STREAM_FPS)
                qp_mean = min(51.0, max(10.0, 30.0 - 6.0 * math.log2(bpp / 0.05) + 4.0 * math.log(complexity)))
                frac_i = 1.0 / frames
                frac_b = rng.choice((0.0, 0.6))
                feats = [
                    frames,
                    round(bits_total),
                    bits_total / frames,
                    bits_total / frames * rng.uniform(3.0, 8.0),
                    frac_i,
                    1.0 - frac_i - frac_b,
                    frac_b,
                    qp_mean,
                    qp_mean - rng.uniform(2.0, 6.0),
                    qp_mean + rng.uniform(2.0, 6.0),
                    rng.uniform(0.5, 3.0),
                    rng.uniform(0.3, 1.5) * complexity,
                ]
                label = 9.0 * _expit((math.log(b) - math.log(900.0 * complexity)) / 0.9)
                label += 0.4 * math.log(width * height / (1280 * 720)) - 0.03 * (qp_mean - 30.0)
                label = min(10.0, max(0.0, label + offset + rng.gauss(0.0, 0.2)))
                row = [content, g, repr(round(b, 3)), width, height]
                row += [repr(round(float(v), 6)) for v in feats] + [repr(round(label, 4))]
                w.writerow(row)


def gen_quality_model(rng: random.Random, out: Path) -> dict:
    """Two Annex-B streams that load the parser differently, plus the
    labelled feature log that train, cv and gfs read."""
    dense, dense_rows = _stream(
        rng,
        profile=100,
        width=1280,
        height=720,
        qp_base=28,
        cabac=0,
        gops=spec.ESCAPE_DENSE_GOPS,
        frames_per_gop=spec.ESCAPE_DENSE_FRAMES_PER_GOP,
        slices_per_frame=1,
        filler=_escape_dense_filler,
        sizes={"I": 3 * spec.ESCAPE_DENSE_SLICE_BYTES, "P": spec.ESCAPE_DENSE_SLICE_BYTES, "B": spec.ESCAPE_DENSE_SLICE_BYTES // 2},
    )
    heavy, heavy_rows = _stream(
        rng,
        profile=77,
        width=1920,
        height=1080,
        qp_base=30,
        cabac=1,
        gops=spec.HEADER_HEAVY_GOPS,
        frames_per_gop=spec.HEADER_HEAVY_FRAMES_PER_GOP,
        slices_per_frame=spec.HEADER_HEAVY_SLICES_PER_FRAME,
        filler=_plain_filler,
        sizes={"I": 40, "P": 16, "B": 8},
    )
    (out / "escape_dense.264").write_bytes(dense)
    (out / "header_heavy.264").write_bytes(heavy)
    _feature_log(rng, out)
    return {"features": {"escape_dense": dense_rows, "header_heavy": heavy_rows}}


GENERATORS = {"switching": gen_switching, "crossover": gen_crossover, "quality-model": gen_quality_model}


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    truth = {}
    for group in spec.GROUPS[workload]:
        # One random stream per command group, so a group's inputs do not
        # depend on the workload it runs in.
        truth.update(GENERATORS[group](random.Random(f"drskit-bench/{group}/{seed}"), out))
    _write_json(out / "truth.json", truth)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }
    manifest = {"workload": workload, "seed": seed, "sha256": digests}
    _write_json(out / "manifest.json", manifest)
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in spec.WORKLOADS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(spec.WORKLOADS)}}} SEED OUT_DIR")
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
