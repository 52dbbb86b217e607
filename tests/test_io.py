import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest

from drskit import io, trace_io
from drskit.drs import simulate
from drskit.errors import CsvSchemaError, InputError
from drskit.ladder import QualityLog

DATA = Path(__file__).parent / "data"


def write(path, text):
    path.write_text(text)
    return path


class TestQualityLogCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "log.csv"
        io.write_quality_log(p, [("c", 0, 1000.0, (960, 540), 5.5), ("c", 0, 2000.0, (960, 540), 6.5)])
        log = io.load_quality_log(p)
        assert log.rungs == (1000.0, 2000.0)
        assert log.scores[0, 0, 0] == 5.5

    def test_mbps_units(self, tmp_path):
        p = write(
            tmp_path / "log.csv",
            "content_id,gop_index,bitrate_kbps,width,height,vqm_score\n" "c,0,1.5,960,540,5.0\nc,0,3.0,960,540,6.0\n",
        )
        log = io.load_quality_log(p, units="mbps")
        assert log.rungs == (1500.0, 3000.0)

    def test_missing_column_row1(self, tmp_path):
        p = write(tmp_path / "log.csv", "content_id,gop_index,bitrate_kbps,width,height\nc,0,1000,960,540\n")
        with pytest.raises(CsvSchemaError) as err:
            io.load_quality_log(p)
        assert "row 1" in str(err.value)

    def test_bad_number_names_row(self, tmp_path):
        p = write(
            tmp_path / "log.csv",
            "content_id,gop_index,bitrate_kbps,width,height,vqm_score\n"
            "c,0,1000,960,540,5.0\n"
            "c,1,oops,960,540,5.0\n",
        )
        with pytest.raises(CsvSchemaError) as err:
            io.load_quality_log(p)
        assert "row 3" in str(err.value)

    def test_no_data_rows(self, tmp_path):
        p = write(tmp_path / "log.csv", "content_id,gop_index,bitrate_kbps,width,height,vqm_score\n")
        with pytest.raises(CsvSchemaError):
            io.load_quality_log(p)


class TestGcPausedDuringRead:
    """The readers pause the cyclic garbage collector and always restore
    the state they found."""

    BAD_TABLES = [
        "",  # no header
        "content_id,gop_index,bitrate_kbps,width,height\nc,0,1000,960,540\n",  # missing column
        "content_id,gop_index,bitrate_kbps,width,height,vqm_score\nc,0,1000,960\n",  # short row
        "content_id,gop_index,bitrate_kbps,width,height,vqm_score\nc,0,oops,960,540,5.0\n",  # bad cell
    ]

    def test_collector_paused_while_reading(self, monkeypatch):
        seen = []
        real_from_columns = QualityLog.from_columns.__func__

        def spy(cls, *args):
            seen.append(gc.isenabled())
            return real_from_columns(cls, *args)

        monkeypatch.setattr(QualityLog, "from_columns", classmethod(spy))
        assert gc.isenabled()
        io.load_quality_log(DATA / "synthetic_quality_log.csv")
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("text", BAD_TABLES)
    def test_collector_enabled_after_schema_error(self, tmp_path, text):
        p = write(tmp_path / "log.csv", text)
        with pytest.raises(CsvSchemaError):
            io.load_quality_log(p)
        assert gc.isenabled()
        with pytest.raises(CsvSchemaError):
            io.load_scored_points(p)
        assert gc.isenabled()

    def test_collector_left_disabled_if_it_was(self):
        gc.disable()
        try:
            io.load_quality_log(DATA / "synthetic_quality_log.csv")
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestFeatureLogCsv:
    def test_derived_columns_and_label(self, tmp_path):
        p = write(
            tmp_path / "f.csv",
            "content_id,gop_index,bitrate_kbps,width,height,qp_mean,label_jod\n" "c,0,1000,1280,720,30.0,4.5\n",
        )
        records, schema = io.load_feature_log(p)
        assert schema.names == ("log_bitrate_kbps", "log_pixels", "qp_mean")
        rec = records[0]
        assert rec.features[0] == pytest.approx(math.log(1000.0))
        assert rec.features[1] == pytest.approx(math.log(1280 * 720))
        assert rec.features[2] == 30.0
        assert rec.label_jod == 4.5

    def test_label_optional(self, tmp_path):
        p = write(
            tmp_path / "f.csv",
            "content_id,gop_index,bitrate_kbps,width,height,x\n" "c,0,1000,1280,720,1.0\n",
        )
        records, schema = io.load_feature_log(p)
        assert records[0].label_jod is None
        assert "x" in schema.names

    def test_derived_name_collision(self, tmp_path):
        p = write(
            tmp_path / "f.csv",
            "content_id,gop_index,bitrate_kbps,width,height,log_pixels\n" "c,0,1000,1280,720,1.0\n",
        )
        with pytest.raises(CsvSchemaError):
            io.load_feature_log(p)


class TestLadderJson:
    def test_round_trip(self, tmp_path):
        ladder = {1000.0: [(960, 540)], 2000.0: [(960, 540), (1280, 720)]}
        p = tmp_path / "ladder.json"
        io.save_ladder(p, ladder)
        assert io.load_ladder(p) == ladder
        entries = io.ladder_entries(io.load_ladder(p))
        assert entries == [(1000.0, (960, 540)), (2000.0, (960, 540)), (2000.0, (1280, 720))]

    def test_mbps_ladder(self, tmp_path):
        p = tmp_path / "ladder.json"
        p.write_text(json.dumps({"rungs": [{"bitrate_kbps": 1.0, "resolutions": [[960, 540]]}]}))
        assert io.load_ladder(p, units="mbps") == {1000.0: [(960, 540)]}

    def test_duplicate_rung_rejected(self, tmp_path):
        p = tmp_path / "ladder.json"
        p.write_text(
            json.dumps(
                {
                    "rungs": [
                        {"bitrate_kbps": 1000, "resolutions": [[960, 540]]},
                        {"bitrate_kbps": 1000, "resolutions": [[1280, 720]]},
                    ]
                }
            )
        )
        with pytest.raises(InputError):
            io.load_ladder(p)

    def test_solution_detection(self, tmp_path):
        p = tmp_path / "sol.json"
        p.write_text(
            json.dumps(
                {
                    "selected": [
                        {"bitrate_kbps": 1000.0, "resolution": [960, 540]},
                        {"bitrate_kbps": 1000.0, "resolution": [1280, 720]},
                    ],
                    "objective": 1.0,
                    "trace": [],
                }
            )
        )
        assert io.load_ladder(p) == {1000.0: [(960, 540), (1280, 720)]}
        # A solution's bitrates are kbps, as the optimizer wrote them.
        assert io.load_ladder(p, units="mbps") == {1000.0: [(960, 540), (1280, 720)]}


class TestBadBitrates:
    BAD = [float("nan"), float("inf"), -float("inf"), 0.0, -1000.0]

    @pytest.mark.parametrize("bitrate", BAD)
    def test_ladder_rung(self, tmp_path, bitrate):
        p = tmp_path / "ladder.json"
        p.write_text(json.dumps({"rungs": [{"bitrate_kbps": bitrate, "resolutions": [[960, 540]]}]}))
        with pytest.raises(InputError, match="bitrate"):
            io.load_ladder(p)

    @pytest.mark.parametrize("bitrate", BAD)
    def test_solution_entry(self, bitrate):
        with pytest.raises(InputError, match="bitrate"):
            io.solution_from_dict({"selected": [{"bitrate_kbps": bitrate, "resolution": [960, 540]}]})

    @pytest.mark.parametrize("bitrate", ["0", "-1000"])
    def test_quality_log_row(self, tmp_path, bitrate):
        p = write(
            tmp_path / "log.csv",
            "content_id,gop_index,bitrate_kbps,width,height,vqm_score\n"
            "c,0,1000,960,540,5.0\n"
            f"c,0,{bitrate},960,540,4.0\n",
        )
        with pytest.raises(CsvSchemaError, match="row 3"):
            io.load_quality_log(p)

    @pytest.mark.parametrize("key", ["nan", "inf", "-inf", "0", "-1000"])
    def test_weights_key(self, tmp_path, key):
        p = tmp_path / "weights.json"
        p.write_text(json.dumps({"1000": 0.5, key: 0.5}))
        with pytest.raises(InputError, match="bitrate"):
            io.load_weights(p)


def fixture_trace(granularity_gops=1):
    log = io.load_quality_log(DATA / "synthetic_quality_log.csv")
    return simulate(log, io.load_ladder(DATA / "dynamic_ladder.json"), granularity_gops=granularity_gops)


class TestTraceJson:
    def test_round_trip(self):
        trace = fixture_trace(granularity_gops=2)
        back = trace_io.trace_from_dict(json.loads(json.dumps(trace_io.trace_to_dict(trace))))
        assert back.rungs == trace.rungs
        assert back.resolutions == trace.resolutions
        assert back.gop_ids == trace.gop_ids
        assert back.granularity_gops == trace.granularity_gops
        for name in ("chosen_res", "chosen_score", "per_rung_mean", "flips"):
            assert np.array_equal(getattr(back, name), getattr(trace, name))
            assert getattr(back, name).dtype == getattr(trace, name).dtype

    def test_selection_count_mismatch(self):
        doc = trace_io.trace_to_dict(fixture_trace())
        doc["selections"].pop()
        with pytest.raises(InputError, match="selections"):
            trace_io.trace_from_dict(doc)


class TestBandwidthSamples:
    def test_parse_with_comments(self, tmp_path):
        p = write(tmp_path / "bw.txt", "# sessions\n1200\n1700.5\n\n2500\n")
        assert io.load_bandwidth_samples(p) == [1200.0, 1700.5, 2500.0]

    def test_mbps(self, tmp_path):
        p = write(tmp_path / "bw.txt", "1.2\n")
        assert io.load_bandwidth_samples(p, units="mbps") == [1200.0]

    def test_empty_rejected(self, tmp_path):
        p = write(tmp_path / "bw.txt", "# nothing\n")
        with pytest.raises(InputError):
            io.load_bandwidth_samples(p)


class TestManifestJson:
    def test_metadata_filter_save_round_trip(self, tmp_path):
        from drskit.drs import filter_manifest

        meta = {
            "segment_index": 4,
            "entries": [
                {"bitrate_kbps": 1000.0, "resolution": [960, 540], "locator": "a.m4s", "quality_score": 5.0},
                {"bitrate_kbps": 1000.0, "resolution": [1280, 720], "locator": "b.m4s", "quality_score": 6.0},
                {"bitrate_kbps": 2000.0, "resolution": [1280, 720], "locator": "c.m4s", "quality_score": 7.0},
            ],
        }
        p = tmp_path / "segment.json"
        p.write_text(json.dumps(meta))
        idx, entries = io.load_segment_metadata(p)
        assert idx == 4
        manifest = filter_manifest(idx, entries, [1000.0, 2000.0])
        out = tmp_path / "manifest.json"
        io.save_manifest(out, manifest)
        doc = json.loads(out.read_text())
        assert set(doc) == {"segment_index", "entries"}
        assert doc["segment_index"] == 4
        assert len(doc["entries"]) == 2
        for entry in doc["entries"]:
            assert set(entry) == {"bitrate_kbps", "resolution", "locator", "quality_score"}
        assert doc["entries"][0]["locator"] == "b.m4s"  # best score at rung 1000

    def test_metadata_requires_entries(self, tmp_path):
        p = tmp_path / "segment.json"
        p.write_text(json.dumps({"segment_index": 0}))
        with pytest.raises(InputError):
            io.load_segment_metadata(p)


class TestResolutionParsing:
    def test_parse(self):
        assert io.parse_resolution("1920x1080") == (1920, 1080)
        assert io.parse_resolution("960X540") == (960, 540)

    def test_reject(self):
        for bad in ("1920", "ax b", "0x100", "1920x-2"):
            with pytest.raises(CsvSchemaError):
                io.parse_resolution(bad)

    def test_format(self):
        assert io.format_resolution((1280, 720)) == "1280x720"

    def test_unit_scale(self):
        assert io.unit_scale("kbps") == 1.0
        assert io.unit_scale("mbps") == 1000.0
        with pytest.raises(InputError):
            io.unit_scale("gbps")
