import json
import random

import pytest

from gridsentry.errors import InvariantViolationError, SchemaError, ToolkitError
from gridsentry.frames import ETHERTYPE_SV, RawFrame, decode_sv
from gridsentry.frames import _apdu_header, _encode_tlv as _tlv
from gridsentry.records import (
    Label,
    SkipReport,
    SvRecord,
    export_csv,
    extract_records,
    dataset_to_frames,
    import_csv,
    load_jsonl,
    mac_to_bytes,
    mac_to_str,
    save_jsonl,
)
from gridsentry.simulate import ScenarioConfig, gen_goose_normal, gen_sv_normal, inject


def _goose_dataset(seed=1):
    cfg = ScenarioConfig(protocol="GOOSE", duration_us=60_000_000, seed=seed,
                         goose_event_count=3)
    return gen_goose_normal(cfg)


def _sv_dataset(seed=1):
    cfg = ScenarioConfig(protocol="SV", duration_us=100_000, seed=seed)
    return gen_sv_normal(cfg)


class TestMacHelpers:
    def test_round_trip(self):
        assert mac_to_str(bytes.fromhex("010ccd010003")) == "01:0c:cd:01:00:03"
        assert mac_to_bytes("01:0c:cd:01:00:03") == bytes.fromhex("010ccd010003")


class TestExtract:
    def test_mixed_capture_split_and_skip_report(self):
        goose_ds = _goose_dataset()
        sv_ds = _sv_dataset()
        frames = sorted(dataset_to_frames(goose_ds) + dataset_to_frames(sv_ds),
                        key=lambda f: f.timestamp)
        junk = RawFrame(0, b"\x00" * 6, b"\x00" * 6, 0x0800, b"ip-payload")
        broken = RawFrame(0, b"\x00" * 6, b"\x00" * 6, 0x88B8, b"\xff\xff")
        goose, sv, report = extract_records([junk, broken] + frames)
        assert len(goose) == len(goose_ds)
        assert len(sv) == len(sv_ds)
        assert report.skipped_ethertype == 1
        assert report.skipped_decode_errors == 1
        assert report.total == 2
        assert len(report.errors) == 1

    def test_frame_round_trip_preserves_fields(self):
        ds = _goose_dataset()
        goose, _, report = extract_records(dataset_to_frames(ds))
        assert report.total == 0
        assert goose == ds.records


def _sv_payload(asdu_fields, pdu_tail=b"", appid=0x4000):
    """One-ASDU SV payload from raw ASDU TLVs; ``pdu_tail`` follows seqASDU."""
    body = (_tlv(0x80, b"\x01") + _tlv(0xA2, _tlv(0x30, b"".join(asdu_fields)))
            + pdu_tail)
    return _apdu_header(appid, _tlv(0x60, body))


def _sv_id(text):
    return _tlv(0x80, text)


def _smp_cnt(value):
    return _tlv(0x82, value.to_bytes(2, "big"))


class TestSvLayoutMemo:
    """extract_records reads only smpCnt from a repeat SV layout; it must
    still give exactly what decoding every frame on its own gives."""

    @staticmethod
    def _payloads():
        plain = [_sv_payload([_sv_id(sv_id), _smp_cnt(smp)], appid=appid)
                 for smp in (0, 1, 4799, 65535)
                 for sv_id, appid in ((b"MU01", 0x4000), (b"MU02", 0x4001))]
        # same smpCnt, a different TLV after it (9-2LE puts confRev there)
        trailing = [_sv_payload([_sv_id(b"MU03"), _smp_cnt(5), _tlv(0x83, tail)])
                    for tail in (b"\x00\x01", b"\x00\x02", b"\x12\x34")]
        le_shape = [_sv_payload([_sv_id(b"MU04"), _smp_cnt(smp), _tlv(0x83, b"\x00\x00\x00\x01"),
                                 _tlv(0x85, b"\x02"), _tlv(0x87, bytes(16))])
                    for smp in (6, 7)]
        # svID after smpCnt, ending in octets that look like an smpCnt TLV
        late_id = [_sv_payload([_smp_cnt(7), _sv_id(b"MU\x82\x02" + tail)])
                   for tail in (b"\x00\x01", b"\x00\x02", b"\x00\x03")]
        # a savPdu-level TLV after seqASDU, also shaped like an smpCnt TLV
        pdu_tail = [_sv_payload([_sv_id(b"MU05"), _smp_cnt(9)], pdu_tail=_tlv(0x82, tail))
                    for tail in (b"\x00\x01", b"\x00\x02")]
        bases = plain + trailing + le_shape + late_id + pdu_tail
        rng = random.Random(11)
        broken = []
        for payload in bases:
            for _ in range(6):
                broken.append(payload[:rng.randrange(len(payload))])
                flipped = bytearray(payload)
                flipped[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
                broken.append(bytes(flipped))
        payloads = (bases + broken) * 2
        rng.shuffle(payloads)
        return payloads

    def test_records_and_report_equal_per_frame_decode(self):
        macs = [bytes.fromhex("010ccd040000"), bytes.fromhex("000000273500")]
        frames = [RawFrame(i * 208, macs[i % 2], macs[1 - i % 2], ETHERTYPE_SV, payload)
                  for i, payload in enumerate(self._payloads())]
        want = []
        want_report = SkipReport()
        for i, frame in enumerate(frames):
            try:
                apdu = decode_sv(frame)
            except ToolkitError as exc:
                want_report.skipped_decode_errors += 1
                want_report.errors.append(f"frame {i}: {exc}")
                continue
            want.append(SvRecord(frame.timestamp, mac_to_str(frame.dst_mac),
                                 mac_to_str(frame.src_mac), ETHERTYPE_SV,
                                 apdu.appid, apdu.svID, apdu.smpCnt))
        goose, sv, report = extract_records(frames)
        assert goose == []
        assert sv == want
        assert report == want_report
        assert 0 < report.skipped_decode_errors < len(frames)

    def test_repeat_layout_shares_the_sv_id_string(self):
        frames = [RawFrame(i, b"\x01" * 6, b"\x02" * 6, ETHERTYPE_SV,
                           _sv_payload([_sv_id(b"MU01"), _smp_cnt(i)])) for i in range(3)]
        _, sv, report = extract_records(frames)
        assert [rec.smpCnt for rec in sv] == [0, 1, 2]
        assert sv[0].svID is sv[1].svID is sv[2].svID
        assert report.total == 0


class TestJsonl:
    def test_round_trip(self, tmp_path):
        for ds in (_goose_dataset(), _sv_dataset()):
            ds = inject(ds, Label.DATA_INJECTION, 2, seed=9)
            path = tmp_path / f"{ds.protocol}.jsonl"
            save_jsonl(ds, str(path))
            back = load_jsonl(str(path))
            assert back.protocol == ds.protocol
            assert back.records == ds.records
            assert back.labels == ds.labels
            assert back.meta == ds.meta

    def test_header_schema(self, tmp_path):
        ds = _sv_dataset()
        path = tmp_path / "x.jsonl"
        save_jsonl(ds, str(path))
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        assert head["schema"] == "gridsentry/v1"
        assert head["protocol"] == "SV"
        assert len(lines) == 1 + len(ds)
        # record lines use sorted keys for byte determinism
        for line in lines[1:3]:
            obj = json.loads(line)
            assert list(obj) == sorted(obj)

    def test_bad_schema_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/v9", "protocol": "SV", "meta": {}}\n')
        with pytest.raises(SchemaError) as info:
            load_jsonl(str(path))
        assert info.value.line == 1

    def test_bad_record_field_reported(self, tmp_path):
        ds = _sv_dataset()
        path = tmp_path / "x.jsonl"
        save_jsonl(ds, str(path))
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        del obj["smpCnt"]
        lines[1] = json.dumps(obj, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as info:
            load_jsonl(str(path))
        assert info.value.line == 2
        assert info.value.field == "smpCnt"

    def test_malformed_json_line_reported(self, tmp_path):
        ds = _sv_dataset()
        path = tmp_path / "x.jsonl"
        save_jsonl(ds, str(path))
        text = path.read_text().splitlines()
        text[3] = "{not json"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(SchemaError) as info:
            load_jsonl(str(path))
        assert info.value.line == 4


class TestCsv:
    def test_round_trip_goose(self, tmp_path):
        ds = inject(_goose_dataset(), Label.DOS, 1, seed=4)
        path = tmp_path / "g.csv"
        export_csv(ds, str(path))
        back = import_csv(str(path), "GOOSE", meta=ds.meta)
        assert back.records == ds.records
        assert back.labels == ds.labels

    def test_round_trip_sv(self, tmp_path):
        ds = inject(_sv_dataset(), Label.SYSTEM_PROBLEM, 1, seed=4)
        path = tmp_path / "s.csv"
        export_csv(ds, str(path))
        back = import_csv(str(path), "SV", meta=ds.meta)
        assert back.records == ds.records
        assert back.labels == ds.labels

    def test_goose_header_row(self, tmp_path):
        path = tmp_path / "g.csv"
        export_csv(_goose_dataset(), str(path))
        header = path.read_text().splitlines()[0]
        assert header == ("time,time_us,dm,sm,type,appid,datSet,goID,gocbRef,"
                          "stNum,sqNum,data1,data2,label")

    def test_sv_header_row(self, tmp_path):
        path = tmp_path / "s.csv"
        export_csv(_sv_dataset(), str(path))
        assert path.read_text().splitlines()[0] == (
            "time,time_us,dm,sm,type,appid,svID,smpCnt,label")

    def test_formatting_conventions(self, tmp_path):
        path = tmp_path / "g.csv"
        export_csv(_goose_dataset(), str(path))
        row = path.read_text().splitlines()[1].split(",")
        assert row[4] == "88b8"  # ethertype as 4 hex digits
        assert row[11] in ("true", "false") and row[12] in ("true", "false")
        assert row[13] == "NORMAL"


class TestDatasetValidate:
    def test_label_count_mismatch(self):
        ds = _sv_dataset()
        ds.labels.pop()
        with pytest.raises(InvariantViolationError):
            ds.validate()

    def test_time_order_enforced(self):
        ds = _sv_dataset()
        ds.records[0], ds.records[1] = ds.records[1], ds.records[0]
        with pytest.raises(InvariantViolationError):
            ds.validate()

    def test_sv_out_of_range_survives_frame_round_trip(self):
        ds = inject(_sv_dataset(), Label.DATA_INJECTION, 1, seed=0)
        assert max(rec.smpCnt for rec in ds.records) > 4799  # an S_DI_1 value
        _, sv, report = extract_records(dataset_to_frames(ds))
        assert report.total == 0
        assert sv == ds.records
