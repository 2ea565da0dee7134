"""Hypothesis properties for the record path: MAC text, pcap, JSONL and CSV round
trips, and pcap export against the per-record encoders."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gridsentry.frames import (
    ETHERTYPE_GOOSE,
    ETHERTYPE_SV,
    GooseApdu,
    SvApdu,
    encode_goose,
    encode_sv,
)
from gridsentry import frames as frames_mod
from gridsentry.pcapio import read_pcap, write_pcap
from gridsentry.records import (
    GooseRecord,
    Label,
    LabeledDataset,
    SvRecord,
    dataset_to_frames,
    export_csv,
    extract_records,
    import_csv,
    load_jsonl,
    mac_to_bytes,
    mac_to_str,
    save_jsonl,
)

# Deterministic examples, no example database written to the checkout.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# pcap stores whole seconds in 32 bits
_TIME_US = st.integers(0, (1 << 32) * 1_000_000 - 1)
_MAC = st.binary(min_size=6, max_size=6).map(mac_to_str)
# the length is drawn first so long-form TLV lengths (128+ octets) come up often
_IDENTITY = st.integers(1, 300).flatmap(
    lambda n: st.text(st.characters(max_codepoint=127), min_size=n, max_size=n))
_U16 = st.integers(0, (1 << 16) - 1)
_U32 = st.integers(0, (1 << 32) - 1)

_GOOSE = st.builds(
    GooseRecord, time_us=_TIME_US, dm=_MAC, sm=_MAC, ethertype=st.just(ETHERTYPE_GOOSE),
    appid=_U16, datSet=_IDENTITY, goID=_IDENTITY, gocbRef=_IDENTITY,
    stNum=_U32, sqNum=_U32, data1=st.booleans(), data2=st.booleans(),
)
_SV = st.builds(
    SvRecord, time_us=_TIME_US, dm=_MAC, sm=_MAC, ethertype=st.just(ETHERTYPE_SV),
    appid=_U16, svID=_IDENTITY, smpCnt=_U16,
)


@st.composite
def datasets(draw):
    protocol = draw(st.sampled_from(["GOOSE", "SV"]))
    recs = draw(st.lists(_GOOSE if protocol == "GOOSE" else _SV, min_size=1, max_size=6))
    recs.sort(key=lambda rec: rec.time_us)
    labels = draw(st.lists(st.sampled_from(Label), min_size=len(recs), max_size=len(recs)))
    return LabeledDataset(protocol, recs, labels, {"note": "property"})


def _exactly_typed(records):
    """True iff every field holds exactly its annotated type, the contract
    that the rule engine and dataset_to_frames rely on (see GooseRecord)."""
    return all(type(getattr(rec, name)) is f.type
               for rec in records for name, f in rec.__dataclass_fields__.items())


@given(st.binary(max_size=16))
@PROPERTY
def test_mac_to_str_is_colon_separated_hex(mac):
    assert mac_to_str(mac) == ":".join(f"{x:02x}" for x in mac)


@given(st.binary(min_size=6, max_size=6))
@PROPERTY
def test_mac_text_round_trip(mac):
    assert mac_to_bytes(mac_to_str(mac)) == mac


def test_records_survive_pcap_round_trip(tmp_path):
    names = itertools.count()

    @given(datasets())
    @PROPERTY
    def check(dataset):
        # a fresh file per example: truncating an existing one can cost a flush
        path = tmp_path / f"{next(names)}.pcap"
        write_pcap(dataset_to_frames(dataset), path)
        goose, sv, report = extract_records(read_pcap(path))
        assert report.total == 0
        assert (goose if dataset.protocol == "GOOSE" else sv) == dataset.records
        assert (sv if dataset.protocol == "GOOSE" else goose) == []
        assert _exactly_typed(goose + sv)

    check()


def test_records_and_labels_survive_jsonl_round_trip(tmp_path):
    names = itertools.count()

    @given(datasets())
    @PROPERTY
    def check(dataset):
        path = tmp_path / f"{next(names)}.jsonl"
        save_jsonl(dataset, path)
        back = load_jsonl(path)
        assert back.protocol == dataset.protocol
        assert back.records == dataset.records
        assert _exactly_typed(back.records)
        assert back.labels == dataset.labels
        assert back.meta == dataset.meta

    check()


def test_records_and_labels_survive_csv_round_trip(tmp_path):
    names = itertools.count()

    @given(datasets())
    @PROPERTY
    def check(dataset):
        path = tmp_path / f"{next(names)}.csv"
        export_csv(dataset, path)
        back = import_csv(path, dataset.protocol)
        assert back.protocol == dataset.protocol
        assert back.records == dataset.records
        assert _exactly_typed(back.records)
        assert back.labels == dataset.labels

    check()


def test_generated_records_are_exactly_typed(eval_scenarios):
    assert all(_exactly_typed(dataset.records) for dataset in eval_scenarios)


def _per_record_frames(dataset):
    """What dataset_to_frames must give: every record through its encoder."""
    out = []
    for rec in dataset.records:
        dst, src = mac_to_bytes(rec.dm), mac_to_bytes(rec.sm)
        if dataset.protocol == "GOOSE":
            apdu = GooseApdu(rec.appid, rec.gocbRef, rec.datSet, rec.goID,
                             rec.stNum, rec.sqNum, rec.data1, rec.data2)
            out.append(encode_goose(apdu, dst, src, rec.time_us))
        else:
            out.append(encode_sv(SvApdu(rec.appid, rec.svID, rec.smpCnt), dst, src, rec.time_us))
    return out


def _outcome(fn, dataset):
    """The frames ``fn`` returns, or the type and text of what it raises."""
    try:
        return fn(dataset)
    except Exception as exc:
        return type(exc), str(exc)


# the largest value of each stNum/sqNum width and the smallest of the next
_U32_EDGES = st.sampled_from([0, 1, 255, 256, 65_535, 65_536, (1 << 24) - 1, 1 << 24,
                              (1 << 32) - 1])
_U16_EDGES = st.sampled_from([0, 1, 255, 256, 4_799, 4_800, 65_535])
_SHARED_MAC = st.sampled_from(["01:0c:cd:01:00:01", "01:0c:cd:01:00:02"])
_SHARED_APPID = st.sampled_from([0, 1, 0xFFFF])
_SHARED_NAME = st.sampled_from(["A", "IED1/LLN0$GO$gcb01", "x" * 200])


@st.composite
def shared_streams(draw):
    """Records of one to four streams that share MACs, appids and names, with
    counters often at octet-length edges."""
    protocol = draw(st.sampled_from(["GOOSE", "SV"]))
    if protocol == "GOOSE":
        counter = st.one_of(_U32_EDGES, _U32)
        streams = draw(st.lists(st.tuples(_SHARED_MAC, _SHARED_MAC, _SHARED_APPID,
                                          _SHARED_NAME, _SHARED_NAME, _SHARED_NAME),
                                min_size=1, max_size=4))
        values = st.tuples(counter, counter, st.booleans(), st.booleans())
        recs = [GooseRecord(0, dm, sm, ETHERTYPE_GOOSE, appid, dat_set, go_id, gocb_ref,
                            st_num, sq_num, data1, data2)
                for (dm, sm, appid, gocb_ref, dat_set, go_id), (st_num, sq_num, data1, data2)
                in draw(st.lists(st.tuples(st.sampled_from(streams), values),
                                 min_size=1, max_size=40))]
    else:
        streams = draw(st.lists(st.tuples(_SHARED_MAC, _SHARED_MAC, _SHARED_APPID,
                                          _SHARED_NAME), min_size=1, max_size=4))
        recs = [SvRecord(0, dm, sm, ETHERTYPE_SV, appid, sv_id, smp_cnt)
                for (dm, sm, appid, sv_id), smp_cnt
                in draw(st.lists(st.tuples(st.sampled_from(streams),
                                           st.one_of(_U16_EDGES, _U16)),
                                 min_size=1, max_size=40))]
    for i, rec in enumerate(recs):
        rec.time_us = i * 100
    return LabeledDataset(protocol, recs, [Label.NORMAL] * len(recs))


@given(shared_streams())
@PROPERTY
def test_pcap_export_equals_the_per_record_encoders(dataset):
    assert dataset_to_frames(dataset) == _per_record_frames(dataset)


def test_pcap_export_encodes_each_layout_once(monkeypatch):
    calls = []
    for name in ("encode_goose", "encode_sv"):
        encode = getattr(frames_mod, name)
        monkeypatch.setattr(frames_mod, name,
                            lambda *args, encode=encode: calls.append(1) or encode(*args))
    sv = LabeledDataset("SV", [
        SvRecord(i, "01:0c:cd:04:00:01", f"00:00:00:27:35:0{i % 2}", ETHERTYPE_SV, 0x4000,
                 "MU01", i % 4800) for i in range(200)], [Label.NORMAL] * 200)
    want = _per_record_frames(sv)
    calls.clear()
    assert dataset_to_frames(sv) == want
    assert len(calls) == 2  # one per source MAC
    # stNum and sqNum of 1 and 2 octets: four layouts
    goose = LabeledDataset("GOOSE", [
        replace(_GOOSE_OK, time_us=i, stNum=st_num, sqNum=sq_num, data1=i % 2 == 0)
        for i, (st_num, sq_num) in enumerate(
            itertools.product([1, 200, 300, 40_000], [0, 255, 256, 1000]))],
        [Label.NORMAL] * 16)
    want = _per_record_frames(goose)
    calls.clear()
    assert dataset_to_frames(goose) == want
    assert len(calls) == 4


_GOOSE_OK = GooseRecord(0, "01:0c:cd:01:00:01", "00:00:00:27:35:01", ETHERTYPE_GOOSE, 3,
                        "IED1/LLN0$DS1", "IED1/LLN0.GO1", "IED1/LLN0$GO$gcb01", 1, 1,
                        True, False)
_SV_OK = SvRecord(0, "01:0c:cd:04:00:01", "00:00:00:27:35:01", ETHERTYPE_SV, 0x4000,
                  "MU01", 1)


@pytest.mark.parametrize("good, field, bad", [
    (_GOOSE_OK, "stNum", -1),
    (_GOOSE_OK, "stNum", 1 << 32),
    (_GOOSE_OK, "sqNum", -1),
    (_GOOSE_OK, "sqNum", 1 << 32),
    (_GOOSE_OK, "appid", 1 << 16),
    (_SV_OK, "smpCnt", -1),
    (_SV_OK, "smpCnt", 65_536),
    (_SV_OK, "svID", ""),
])
def test_bad_record_after_a_good_one_fails_as_its_encoder_does(good, field, bad):
    """A record the encoder rejects must not take the layout kept for the
    good record of its stream before it."""
    protocol = "GOOSE" if isinstance(good, GooseRecord) else "SV"
    dataset = LabeledDataset(protocol, [good, replace(good, time_us=1, **{field: bad})],
                             [Label.NORMAL] * 2)
    want = _outcome(_per_record_frames, dataset)
    assert _outcome(dataset_to_frames, dataset) == want
    assert isinstance(want, tuple)  # the encoder raised
