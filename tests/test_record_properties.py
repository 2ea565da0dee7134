"""Hypothesis properties for the record path: MAC text, pcap, JSONL and CSV round trips."""

import itertools

from hypothesis import given, settings, strategies as st

from gridsentry.frames import ETHERTYPE_GOOSE, ETHERTYPE_SV
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
        assert back.labels == dataset.labels

    check()
