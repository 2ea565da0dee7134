import json
import random
from dataclasses import replace

import pytest

from gridsentry.errors import (
    InvariantViolationError,
    SchemaError,
    ToolkitError,
    WrongStreamError,
)
from gridsentry import records
from gridsentry.frames import ETHERTYPE_GOOSE, ETHERTYPE_SV, RawFrame, decode_goose, decode_sv
from gridsentry.frames import _apdu_header, _encode_tlv as _tlv, _encode_uint
from gridsentry.records import (
    GooseRecord,
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
from gridsentry.llm import ChatClientConfig, build_prompts
from gridsentry.rules import Level, RuleSet, detect_batch
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


def _le_asdu(smp, rng, sv_id=b"MU06"):
    """The ASDU TLVs of an IEC 61850-9-2LE frame: svID, smpCnt, confRev,
    smpSynch and a seqData of eight quality-tagged values, new every frame."""
    return [_sv_id(sv_id), _smp_cnt(smp), _tlv(0x83, b"\x00\x00\x00\x01"), _tlv(0x85, b"\x02"),
            _tlv(0x87, rng.randbytes(64))]


def _mutations(fields, rng, skipped, twins):
    """Three seeded mutations of a frame's TLVs, each at a random field: a
    length octet changed, a skipped TLV grown, and a tag swapped for its twin
    (a tag of the same length that the reader treats differently)."""
    def at(k, field):
        return fields[:k] + [field] + fields[k + 1:]
    k = rng.randrange(len(fields))
    relength = at(k, bytes([fields[k][0], fields[k][1] ^ 1]) + fields[k][2:])
    k = rng.choice([k for k, field in enumerate(fields) if field[0] in skipped])
    grown = at(k, _tlv(fields[k][0], fields[k][2:] + rng.randbytes(rng.randint(1, 3))))
    k = rng.choice([k for k, field in enumerate(fields) if field[0] in twins])
    swapped = at(k, bytes([twins[fields[k][0]]]) + fields[k][1:])
    return [relength, grown, swapped]


# ASDU tag -> its twin: confRev, smpSynch and seqData read as svID or smpCnt,
# svID and smpCnt as unknown tags
_SV_TWINS = {0x80: 0x84, 0x82: 0x86, 0x83: 0x80, 0x85: 0x82, 0x87: 0x80}


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
        # 9-2LE frames whose seqData changes, and mutations of them
        le_rng = random.Random(12)
        le_frames = [_le_asdu(smp, le_rng) for smp in (0, 1, 2, 3, 4799)]
        le_frames += [mutant for asdu in le_frames
                      for mutant in _mutations(asdu, le_rng, {0x83, 0x85, 0x87}, _SV_TWINS)]
        real = [_sv_payload(asdu, appid=0x4006) for asdu in le_frames]
        bases = plain + trailing + le_shape + late_id + pdu_tail + real
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

    def test_real_shape_stream_decodes_each_layout_once(self, monkeypatch):
        """A second of 9-2LE frames, whose smpCnt and seqData change in every
        frame, has one layout: one full decode."""
        rng = random.Random(13)
        frames = [RawFrame(smp * 208, b"\x01" * 6, b"\x02" * 6, ETHERTYPE_SV,
                           _sv_payload(_le_asdu(smp, rng))) for smp in range(4800)]
        full = []
        fields = records._sv_fields
        monkeypatch.setattr(records, "_sv_fields", lambda buf: full.append(1) or fields(buf))
        _, sv, report = extract_records(frames)
        assert [rec.smpCnt for rec in sv] == list(range(4800))
        assert report.total == 0
        assert len(full) == 1

    def test_repeat_layout_shares_the_sv_id_string(self):
        frames = [RawFrame(i, b"\x01" * 6, b"\x02" * 6, ETHERTYPE_SV,
                           _sv_payload([_sv_id(b"MU01"), _smp_cnt(i)])) for i in range(3)]
        _, sv, report = extract_records(frames)
        assert [rec.smpCnt for rec in sv] == [0, 1, 2]
        assert sv[0].svID is sv[1].svID is sv[2].svID
        assert report.total == 0


def _long_tlv(tag, value):
    """A TLV whose length takes the long form ``81 xx`` although it is short."""
    return bytes([tag, 0x81, len(value)]) + value


def _goose_payload(fields, appid=0x0001, long_pdu=False, tail=b""):
    """GOOSE payload from raw goosePdu TLVs; ``tail`` follows the APDU length."""
    inner = b"".join(fields)
    pdu = _long_tlv(0x61, inner) if long_pdu else _tlv(0x61, inner)
    return _apdu_header(appid, pdu) + tail


def _uint(tag, value, long=False):
    return (_long_tlv if long else _tlv)(tag, _encode_uint(value))


def _all_data(b1, b2, long1=False, long2=False):
    """allData holding two booleans given as their raw value octets."""
    return _tlv(0xAB, (_long_tlv if long1 else _tlv)(0x83, bytes([b1]))
                + (_long_tlv if long2 else _tlv)(0x83, bytes([b2])))


def _goose_head(gocb_ref=b"IED1/LLN0$GO$gcb01", ttl=None):
    head = [_tlv(0x80, gocb_ref)]
    if ttl is not None:
        head.append(_uint(0x81, ttl))
    return head + [_tlv(0x82, b"IED1/LLN0$DS1"), _tlv(0x83, b"IED1/LLN0.GO1")]


def _per_frame_records(frames):
    """What extract_records must give: every GOOSE frame decoded on its own."""
    want = []
    report = SkipReport()
    for i, frame in enumerate(frames):
        try:
            apdu = decode_goose(frame)
        except ToolkitError as exc:
            report.skipped_decode_errors += 1
            report.errors.append(f"frame {i}: {exc}")
            continue
        want.append(GooseRecord(frame.timestamp, mac_to_str(frame.dst_mac),
                                mac_to_str(frame.src_mac), ETHERTYPE_GOOSE, apdu.appid,
                                apdu.datSet, apdu.goID, apdu.gocbRef, apdu.stNum,
                                apdu.sqNum, apdu.data1, apdu.data2))
    return want, report


def _goose_frames(payloads, pair=(b"\x01\x0c\xcd\x01\x00\x01", b"\x00\x00\x00\x27\x35\x01")):
    dst, src = pair
    return [RawFrame(i * 1000, dst, src, ETHERTYPE_GOOSE, payload)
            for i, payload in enumerate(payloads)]


def _goose_81_stream(states, rng, gocb_ref=b"IED8/LLN0$GO$gcb81"):
    """The goosePdu TLVs of an IEC 61850-8-1 stream: ``states`` state changes,
    each with a new ``t`` and booleans, sent 19 times at intervals of 2 ms
    doubling to 2 s, with TTL at twice the next interval, then simulation,
    confRev, ndsCom and numDatSetEntries."""
    stream = []
    for st in range(1, states + 1):
        t, b1, b2 = rng.randbytes(8), rng.randrange(2), rng.randrange(2)
        for sq in range(19):
            stream.append([_tlv(0x80, gocb_ref), _uint(0x81, 2 * min(2 << sq, 2000)),
                           _tlv(0x82, b"IED8/LLN0$DS1"), _tlv(0x83, b"IED8/LLN0.GO1"),
                           _tlv(0x84, t), _uint(0x85, st), _uint(0x86, sq), _tlv(0x87, b"\x00"),
                           _uint(0x88, 1), _tlv(0x89, b"\x00"), _uint(0x8A, 2),
                           _all_data(b1, b2)])
    return stream


# goosePdu tag -> its twin: t and the counters read as names or each other,
# TTL as stNum, the names and the trailing fields as unknown tags or allData
_GOOSE_TWINS = {0x80: 0x90, 0x81: 0x85, 0x82: 0x84, 0x83: 0x87, 0x84: 0x83, 0x85: 0x86,
                0x86: 0x85, 0x87: 0x81, 0x88: 0x80, 0x89: 0x82, 0x8A: 0x86, 0xAB: 0xA0}


# An unknown TLV, and its twin of the same length whose tag is gocbRef's, so a
# frame that carries the twin in place of the original decodes differently.
_UNKNOWN = _tlv(0x90, b"SWAP")
_GOCB_TWIN = _tlv(0x80, b"SWAP")


class TestGooseLayoutMemo:
    """extract_records reads only stNum, sqNum and the two booleans from a
    repeat GOOSE layout; it must still give exactly what decoding every frame
    on its own gives."""

    @staticmethod
    def _families():
        """Lists of payloads, one list per control block."""
        head = _goose_head()
        plain = [_goose_payload(head + [_uint(0x85, st), _uint(0x86, sq), _all_data(b1, b2)])
                 for st in (1, 2, 256) for sq in (0, 1, 254, 255, 256, 257)
                 for b1, b2 in ((0, 0), (1, 0), (0, 1), (2, 0xFF))]
        # TTL before stNum (in the stored key) and after sqNum (compared)
        ttl = [_goose_payload(_goose_head(b"IED2/LLN0$GO$gcb02", ttl=t)
                              + [_uint(0x85, 3), _uint(0x86, sq), _all_data(1, 0)])
               for t in (2000, 4000, 100_000) for sq in (0, 1, 2)]
        ttl += [_goose_payload(_goose_head(b"IED2/LLN0$GO$gcb03")
                               + [_uint(0x85, 3), _uint(0x86, sq), _uint(0x81, t),
                                  _all_data(0, 1)])
                for t in (2000, 4000, 100_000) for sq in (0, 1, 2)]
        # long-form lengths on each value TLV, each boolean and the goosePdu
        long_form = [_goose_payload(_goose_head(b"IED3/LLN0$GO$gcb04")
                                    + [_uint(0x85, st, long=ls), _uint(0x86, sq, long=lq),
                                       _all_data(b1, b2, long1=l1, long2=l2)],
                                    long_pdu=lp)
                     for st, sq in ((1, 0), (1, 1), (7, 300))
                     for b1, b2 in ((0, 0), (1, 0), (0, 1), (1, 1))
                     for ls, lq, l1, l2, lp in ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                                                (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (1, 1, 1, 1, 1))]
        # values out of order, and a duplicated stNum (the last one counts)
        head = _goose_head(b"IED4/LLN0$GO$gcb05")
        odd_order = [_goose_payload(head + fields) for sq in (0, 1, 2) for fields in (
            [_uint(0x86, sq), _uint(0x85, 5), _all_data(1, 1)],
            [_all_data(0, 1), _uint(0x85, 5), _uint(0x86, sq)],
            [_uint(0x85, 4), _uint(0x85, 5), _uint(0x86, sq), _all_data(1, 0)],
            [_uint(0x85, 4), _uint(0x86, sq), _uint(0x85, 5), _all_data(1, 0)],
            [_uint(0x85, 5), _uint(0x86, sq), _all_data(1, 0), _uint(0x85, 6)],
        )]
        # unknown TLVs in every gap, each also swapped for its gocbRef twin
        head = _goose_head(b"IED5/LLN0$GO$gcb06")
        unknown = []
        for sq in (0, 1, 2):
            for slot in range(3):
                for filler in (_UNKNOWN, _GOCB_TWIN):
                    gaps = [b""] * 3
                    gaps[slot] = filler
                    unknown.append(_goose_payload(
                        head + [_tlv(0x84, bytes(8)), _uint(0x85, 9), gaps[0], _uint(0x86, sq),
                                gaps[1], _all_data(1, 0)] + gaps[2:] + [_tlv(0x8A, b"\x02")]))
        # octets after the APDU length, which the decoder never reads
        head = _goose_head(b"IED6/LLN0$GO$gcb07")
        trailer = [_goose_payload(head + [_uint(0x85, 2), _uint(0x86, sq), _all_data(0, 0)],
                                  tail=tail)
                   for sq in (0, 1) for tail in (b"", b"\x00\x00", b"\xff\x01", b"\x83\x01")]
        # control blocks of different prefix lengths on one MAC pair
        shared = [_goose_payload(_goose_head(gocb_ref)
                                 + [_uint(0x85, 1), _uint(0x86, sq), _all_data(0, 1)])
                  for gocb_ref in (b"IED7/LLN0$GO$g", b"IED7/LLN0$GO$gcb0008")
                  for sq in (0, 1, 2, 3)]
        # 8-1 frames whose t and TTL change, and mutations of them
        real_rng = random.Random(14)
        real = _goose_81_stream(2, real_rng)
        real += [mutant for pdu in real[::4] for mutant in _mutations(
            pdu, real_rng, {0x84, 0x87, 0x88, 0x89, 0x8A}, _GOOSE_TWINS)]
        real = [_goose_payload(pdu) for pdu in real]
        return [plain, ttl, long_form, odd_order, unknown, trailer, shared, real]

    def _frames(self, seed):
        rng = random.Random(seed)
        tagged = []
        for family, payloads in enumerate(self._families()):
            pair = (bytes([1, 0x0C, 0xCD, 1, 0, family]), bytes([0, 0, 0, 0x27, 0x35, family]))
            for payload in payloads:
                tagged.append((pair, payload))
                tagged.append((pair, payload[:rng.randrange(len(payload))]))
                for _ in range(2):
                    flipped = bytearray(payload)
                    for _ in range(rng.randint(1, 2)):
                        flipped[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
                    tagged.append((pair, bytes(flipped)))
        tagged = tagged + [entry for entry in tagged if rng.random() < 0.5] * 2
        rng.shuffle(tagged)
        return [RawFrame(i * 100, dst, src, ETHERTYPE_GOOSE, payload)
                for i, ((dst, src), payload) in enumerate(tagged)]

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_records_and_report_equal_per_frame_decode(self, seed, monkeypatch):
        frames = self._frames(seed)
        want, want_report = _per_frame_records(frames)
        full = []
        fields = records._goose_fields
        monkeypatch.setattr(records, "_goose_fields", lambda buf: full.append(1) or fields(buf))
        goose, sv, report = extract_records(frames)
        assert sv == []
        assert goose == want
        assert report == want_report
        assert 0 < report.skipped_decode_errors < len(frames)
        assert len(full) < len(frames)  # the memo took part

    @pytest.mark.parametrize("slot", ["after stNum", "after sqNum", "after allData"])
    def test_octets_after_each_value_are_compared(self, slot):
        head = _goose_head()
        payloads = []
        for filler, sq in ((_UNKNOWN, 0), (_GOCB_TWIN, 1), (_UNKNOWN, 2)):
            gaps = {"after stNum": b"", "after sqNum": b"", "after allData": b""}
            gaps[slot] = filler
            payloads.append(_goose_payload(head + [
                _uint(0x85, 1), gaps["after stNum"], _uint(0x86, sq), gaps["after sqNum"],
                _all_data(1, 0), gaps["after allData"]]))
        frames = _goose_frames(payloads)
        goose, _, report = extract_records(frames)
        assert (goose, report) == _per_frame_records(frames)
        assert [rec.gocbRef for rec in goose] == ["IED1/LLN0$GO$gcb01", "SWAP",
                                                  "IED1/LLN0$GO$gcb01"]

    def test_boolean_after_the_bool1_octet_is_compared(self):
        head = _goose_head()
        good = _goose_payload(head + [_uint(0x85, 1), _uint(0x86, 0), _all_data(1, 0)])
        bad = bytearray(good)
        bad[-3] = 0x84  # bool2's tag: no longer a boolean
        frames = _goose_frames([good, bytes(bad), good])
        goose, _, report = extract_records(frames)
        assert (goose, report) == _per_frame_records(frames)
        assert report.skipped_decode_errors == 1

    def test_long_form_boolean_read_on_a_hit(self):
        head = _goose_head()
        payloads = [_goose_payload(head + [_uint(0x85, 1), _uint(0x86, sq),
                                           _all_data(b1, b2, long1=True, long2=True)])
                    for sq, b1, b2 in ((0, 1, 1), (1, 0, 1), (2, 1, 0), (3, 0, 0))]
        frames = _goose_frames(payloads)
        goose, _, report = extract_records(frames)
        assert report.total == 0
        assert [(rec.sqNum, rec.data1, rec.data2) for rec in goose] == [
            (0, True, True), (1, False, True), (2, True, False), (3, False, False)]

    def test_blocks_sharing_macs_and_length_each_decode_once(self, monkeypatch):
        """Two control blocks of one MAC pair and payload length whose stNum
        starts at different offsets (TTL before stNum, or after sqNum) keep
        both layouts: alternating frames are decoded in full once per block."""
        one = _goose_head(b"IED1/LLN0$GO$gcbA", ttl=2000)
        two = _goose_head(b"IED1/LLN0$GO$gcbB")
        payloads = [_goose_payload(one + [_uint(0x85, 1), _uint(0x86, sq), _all_data(1, 0)])
                    if k == 0 else
                    _goose_payload(two + [_uint(0x85, 1), _uint(0x86, sq), _uint(0x81, 2000),
                                          _all_data(0, 1)])
                    for sq in range(10) for k in range(2)]
        assert len({len(payload) for payload in payloads}) == 1
        frames = _goose_frames(payloads)
        full = []
        fields = records._goose_fields
        monkeypatch.setattr(records, "_goose_fields", lambda buf: full.append(1) or fields(buf))
        goose, _, report = extract_records(frames)
        assert (goose, report) == _per_frame_records(frames)
        assert [rec.gocbRef for rec in goose[:2]] == ["IED1/LLN0$GO$gcbA", "IED1/LLN0$GO$gcbB"]
        assert len(full) == 2

    def test_real_shape_stream_decodes_each_layout_once(self, monkeypatch):
        """400 state changes of an 8-1 stream, whose t and TTL change too, have
        four layouts (one- and two-octet stNum and TTL): four full decodes
        in 7,600 frames, not one per state change."""
        frames = _goose_frames([_goose_payload(pdu)
                                for pdu in _goose_81_stream(400, random.Random(15))])
        full = []
        fields = records._goose_fields
        monkeypatch.setattr(records, "_goose_fields", lambda buf: full.append(1) or fields(buf))
        goose, _, report = extract_records(frames)
        assert (goose, report) == _per_frame_records(frames)
        assert len(full) == 4

    def test_repeat_layout_shares_the_strings(self):
        head = _goose_head()
        frames = _goose_frames([_goose_payload(head + [_uint(0x85, 4), _uint(0x86, sq),
                                                       _all_data(sq % 2, 0)])
                                for sq in range(3)])
        goose, _, report = extract_records(frames)
        assert [(rec.sqNum, rec.data1) for rec in goose] == [(0, False), (1, True), (2, False)]
        assert goose[0].gocbRef is goose[1].gocbRef is goose[2].gocbRef
        assert goose[0].datSet is goose[2].datSet and goose[0].goID is goose[2].goID
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

    @pytest.mark.parametrize("header, field", [
        ("[1]", None), ('"text"', None), ("null", None), ("[" * 100_000, None),
        ('{"meta": 5, "protocol": "SV", "schema": "gridsentry/v1"}', "meta"),
        ('{"meta": [], "protocol": "SV", "schema": "gridsentry/v1"}', "meta"),
    ], ids=["list", "string", "null", "deep", "meta-number", "meta-list"])
    def test_malformed_header_reported(self, tmp_path, header, field):
        path = tmp_path / "x.jsonl"
        save_jsonl(_sv_dataset(), str(path))
        lines = path.read_text().splitlines()
        lines[0] = header
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as info:
            load_jsonl(str(path))
        assert (info.value.line, info.value.field) == (1, field)

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

    @staticmethod
    def _with_field(ds, tmp_path, row_index, name, value):
        """Save ``ds`` with field ``name`` of one record line set to ``value``."""
        path = tmp_path / "x.jsonl"
        save_jsonl(ds, str(path))
        lines = path.read_text().splitlines()
        row = json.loads(lines[1 + row_index])
        row[name] = value
        lines[1 + row_index] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("name, value", [
        ("sqNum", "7"), ("sqNum", True), ("sqNum", 7.0), ("sqNum", None), ("stNum", [1]),
        ("time_us", False), ("ethertype", "0x88b8"), ("appid", 3.5),
        ("data1", 1), ("data2", "false"), ("data1", None),
        ("dm", {}), ("sm", ""), ("datSet", 5), ("goID", ""), ("gocbRef", False),
    ])
    def test_mistyped_goose_field_reported(self, tmp_path, name, value):
        # the bad row comes after good ones of the same shape
        path = self._with_field(_goose_dataset(), tmp_path, 4, name, value)
        with pytest.raises(SchemaError) as info:
            load_jsonl(str(path))
        assert (info.value.line, info.value.field) == (6, name)
        assert repr(value) in str(info.value)

    @pytest.mark.parametrize("name, value", [
        ("smpCnt", "12"), ("smpCnt", True), ("smpCnt", 1e3), ("svID", ""), ("svID", 7),
        ("appid", None), ("dm", ["01", "0c"]),
    ])
    def test_mistyped_sv_field_reported(self, tmp_path, name, value):
        path = self._with_field(_sv_dataset(), tmp_path, 0, name, value)
        with pytest.raises(SchemaError) as info:
            load_jsonl(str(path))
        assert (info.value.line, info.value.field) == (2, name)

    @pytest.mark.parametrize("k, name, value", [
        (4, "dm", "x\n\nPacket records:\nidx  y"), (0, "sm", "00:00:00:27:34:3G"),
        (4, "sm", "00:00:00:27:34:3F"), (4, "dm", "01:0c:cd:01:00"),
        (4, "dm", "01-0c-cd-01-00-01"), (4, "sm", "00:00:00:27:34:31\n"),
        (4, "dm", "1:0c:cd:01:00:01"),
    ])
    def test_malformed_mac_reported(self, tmp_path, k, name, value):
        # rows before the bad one carry well-formed MACs of the same stream
        path = self._with_field(_goose_dataset(), tmp_path, k, name, value)
        with pytest.raises(SchemaError) as info:
            load_jsonl(str(path))
        assert (info.value.line, info.value.field) == (k + 2, name)
        assert repr(value) in str(info.value)

    @pytest.mark.parametrize("k, name, value, message", [
        (0, "time_us", -5, "record 0 has negative time_us -5"),
        (4, "ethertype", 1, "record 4 has ethertype 0x0001, not the GOOSE 0x88B8"),
    ], ids=["negative-time", "ethertype"])
    def test_row_breaking_the_dataset_contract_refused(self, tmp_path, k, name, value,
                                                        message):
        path = self._with_field(_goose_dataset(), tmp_path, k, name, value)
        with pytest.raises(InvariantViolationError, match=message):
            load_jsonl(str(path))

    def test_extra_field_reported(self, tmp_path):
        path = self._with_field(_sv_dataset(), tmp_path, 3, "ttl", 5)
        with pytest.raises(SchemaError) as info:
            load_jsonl(str(path))
        assert (info.value.line, info.value.field) == (5, "ttl")

    @pytest.mark.parametrize("line", ["[1, 2]", "7", '"text"', "null", "[" * 100_000,
                                      '{"svID": "MU\udcff"}'],
                             ids=["list", "number", "string", "null", "deep", "not-utf8"])
    def test_record_line_that_is_no_object_reported(self, tmp_path, line):
        ds = _sv_dataset()
        path = tmp_path / "x.jsonl"
        save_jsonl(ds, str(path))
        lines = path.read_text().splitlines()
        lines[2] = line
        # a lone surrogate escape writes the byte 0xff, which is not UTF-8
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        with pytest.raises(SchemaError) as info:
            load_jsonl(str(path))
        assert info.value.line == 3

    def test_rows_in_any_key_order_load(self, tmp_path):
        ds = inject(_goose_dataset(), Label.REPLAY, 2, seed=3)
        path = tmp_path / "x.jsonl"
        save_jsonl(ds, str(path))
        lines = path.read_text().splitlines()
        shuffle = random.Random(5).shuffle
        for k in range(1, len(lines)):
            items = list(json.loads(lines[k]).items())
            shuffle(items)
            lines[k] = json.dumps(dict(items))
        path.write_text("\n".join(lines) + "\n")
        back = load_jsonl(str(path))
        assert (back.records, back.labels) == (ds.records, ds.labels)

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

    @pytest.mark.parametrize("protocol, column, cell", [
        ("GOOSE", "data1", "TRUE"), ("GOOSE", "data2", ""), ("GOOSE", "stNum", "x"),
        ("GOOSE", "sqNum", "1.0"), ("GOOSE", "time_us", ""), ("GOOSE", "type", "zz"),
        ("GOOSE", "type", "0x88b8"), ("GOOSE", "appid", "0x3"), ("GOOSE", "stNum", "1_0"),
        ("GOOSE", "dm", ""), ("GOOSE", "gocbRef", ""),
        ("SV", "smpCnt", "12a"), ("SV", "smpCnt", " 7"), ("SV", "svID", ""), ("SV", "sm", ""),
        # MACs not in the form mac_to_str writes
        ("GOOSE", "dm", "01:0C:CD:01:00:03"), ("GOOSE", "sm", "00:00:00:27:34"),
        ("SV", "dm", "01-0c-cd-04-00-01"), ("SV", "sm", "00:00:00:27:34:31:00"),
    ])
    def test_bad_cell_reported(self, tmp_path, protocol, column, cell):
        ds = _goose_dataset() if protocol == "GOOSE" else _sv_dataset()
        path = tmp_path / "x.csv"
        export_csv(ds, str(path))
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[lines[0].split(",").index(column)] = cell
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as info:
            import_csv(str(path), protocol)
        assert (info.value.line, info.value.field) == (4, column)
        assert repr(cell) in str(info.value)

    @pytest.mark.parametrize("column, cell, message", [
        ("time_us", "-5", "negative time_us -5"),
        ("type", "0001", "ethertype 0x0001, not the GOOSE 0x88B8"),
    ], ids=["negative-time", "ethertype"])
    def test_row_breaking_the_dataset_contract_refused(self, tmp_path, column, cell, message):
        path = tmp_path / "x.csv"
        export_csv(_goose_dataset(), str(path))
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        row[lines[0].split(",").index(column)] = cell
        lines[1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvariantViolationError, match=f"record 0 has {message}"):
            import_csv(str(path), "GOOSE")

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

    @pytest.mark.parametrize("protocol", ["GOOSE", "SV"])
    @pytest.mark.parametrize("breach, error", [
        ("other-protocol", WrongStreamError),
        ("ethertype", InvariantViolationError),
        ("negative-time", InvariantViolationError),
    ])
    @pytest.mark.parametrize("consumer", [
        lambda ds, tmp_path: save_jsonl(ds, str(tmp_path / "x.jsonl")),
        lambda ds, tmp_path: export_csv(ds, str(tmp_path / "x.csv")),
        lambda ds, tmp_path: dataset_to_frames(ds),
        lambda ds, tmp_path: build_prompts(ds, RuleSet.for_level(Level.FULL),
                                           ChatClientConfig()),
        lambda ds, tmp_path: detect_batch(ds, RuleSet.for_level(Level.FULL)),
    ], ids=["save_jsonl", "export_csv", "dataset_to_frames", "build_prompts",
            "detect_batch"])
    def test_every_consumer_refuses_a_breach(self, tmp_path, protocol, breach, error,
                                             consumer):
        ds = _goose_dataset() if protocol == "GOOSE" else _sv_dataset()
        if breach == "other-protocol":
            other = _sv_dataset() if protocol == "GOOSE" else _goose_dataset()
            ds.records[3] = replace(other.records[0], time_us=ds.records[3].time_us)
        elif breach == "ethertype":
            ds.records[3] = replace(ds.records[3], ethertype=0x88B9)
        else:
            ds.records[0] = replace(ds.records[0], time_us=-5)
        with pytest.raises(error) as info:
            consumer(ds, tmp_path)
        assert type(info.value) is error
        assert list(tmp_path.iterdir()) == []  # refused before writing

    def test_sv_out_of_range_survives_frame_round_trip(self):
        ds = inject(_sv_dataset(), Label.DATA_INJECTION, 1, seed=0)
        assert max(rec.smpCnt for rec in ds.records) > 4799  # an S_DI_1 value
        _, sv, report = extract_records(dataset_to_frames(ds))
        assert report.total == 0
        assert sv == ds.records
