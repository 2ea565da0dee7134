"""Feature records extracted from frames, plus labeled-dataset file formats."""

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from .errors import InvariantViolationError, SchemaError
from .frames import (
    ETHERTYPE_GOOSE,
    ETHERTYPE_SV,
    RawFrame,
    decode_goose,
    decode_sv,
)
from . import frames as _frames
from .errors import ToolkitError

SCHEMA_ID = "gridsentry/v1"

GOOSE_CSV_COLUMNS = [
    "time", "time_us", "dm", "sm", "type", "appid",
    "datSet", "goID", "gocbRef", "stNum", "sqNum", "data1", "data2", "label",
]
SV_CSV_COLUMNS = ["time", "time_us", "dm", "sm", "type", "appid", "svID", "smpCnt", "label"]


class Label(str, Enum):
    NORMAL = "NORMAL"
    DATA_INJECTION = "DATA_INJECTION"
    DOS = "DOS"
    SYSTEM_PROBLEM = "SYSTEM_PROBLEM"
    REPLAY = "REPLAY"


def mac_to_str(mac: bytes) -> str:
    return mac.hex(":")


def mac_to_bytes(mac: str) -> bytes:
    parts = mac.split(":")
    if len(parts) != 6:
        raise InvariantViolationError(f"bad MAC address {mac!r}")
    return bytes(int(p, 16) for p in parts)


def wallclock(time_us: int) -> str:
    """Render microseconds since epoch as an HH:MM:SS.ffffff time of day."""
    secs, micros = divmod(time_us, 1_000_000)
    secs %= 86_400
    h, rem = divmod(secs, 3600)
    m, s = divmod(rem, 60)
    return f"{h:02d}:{m:02d}:{s:02d}.{micros:06d}"


@dataclass(slots=True)
class GooseRecord:
    time_us: int
    dm: str
    sm: str
    ethertype: int
    appid: int
    datSet: str
    goID: str
    gocbRef: str
    stNum: int
    sqNum: int
    data1: bool
    data2: bool

    def validate(self):
        if self.ethertype != ETHERTYPE_GOOSE:
            raise InvariantViolationError(f"GooseRecord.ethertype 0x{self.ethertype:04X}")
        if self.time_us < 0:
            raise InvariantViolationError("GooseRecord.time_us negative")


@dataclass(slots=True)
class SvRecord:
    time_us: int
    dm: str
    sm: str
    ethertype: int
    appid: int
    svID: str
    smpCnt: int

    def validate(self):
        if self.ethertype != ETHERTYPE_SV:
            raise InvariantViolationError(f"SvRecord.ethertype 0x{self.ethertype:04X}")
        if self.time_us < 0:
            raise InvariantViolationError("SvRecord.time_us negative")


@dataclass
class SkipReport:
    """Per-capture accounting of frames that did not become records."""

    skipped_ethertype: int = 0
    skipped_decode_errors: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.skipped_ethertype + self.skipped_decode_errors


@dataclass
class LabeledDataset:
    protocol: str  # "GOOSE" | "SV"
    records: list
    labels: List[Label]
    meta: dict = field(default_factory=dict)

    def validate(self):
        if self.protocol not in ("GOOSE", "SV"):
            raise InvariantViolationError(f"unknown protocol {self.protocol!r}")
        if len(self.labels) != len(self.records):
            raise InvariantViolationError(
                f"{len(self.labels)} labels for {len(self.records)} records"
            )
        last = None
        for i, rec in enumerate(self.records):
            if last is not None and rec.time_us < last:
                raise InvariantViolationError(f"records not time-sorted at index {i}")
            last = rec.time_us
        for label in self.labels:
            if not isinstance(label, Label):
                raise InvariantViolationError(f"bad label {label!r}")

    def __len__(self):
        return len(self.records)


def extract_records(frames) -> Tuple[List[GooseRecord], List[SvRecord], SkipReport]:
    """Turn decodable GOOSE/SV frames into records, preserving capture order.

    Frames with other ethertypes and frames that fail to decode are counted
    in the skip report, never fatal.
    """
    goose: List[GooseRecord] = []
    sv: List[SvRecord] = []
    report = SkipReport()
    for i, frame in enumerate(frames):
        if frame.ethertype == ETHERTYPE_GOOSE:
            try:
                apdu = decode_goose(frame)
            except ToolkitError as exc:
                report.skipped_decode_errors += 1
                report.errors.append(f"frame {i}: {exc}")
                continue
            goose.append(
                GooseRecord(
                    time_us=frame.timestamp,
                    dm=mac_to_str(frame.dst_mac),
                    sm=mac_to_str(frame.src_mac),
                    ethertype=frame.ethertype,
                    appid=apdu.appid,
                    datSet=apdu.datSet,
                    goID=apdu.goID,
                    gocbRef=apdu.gocbRef,
                    stNum=apdu.stNum,
                    sqNum=apdu.sqNum,
                    data1=apdu.data1,
                    data2=apdu.data2,
                )
            )
        elif frame.ethertype == ETHERTYPE_SV:
            try:
                apdu = decode_sv(frame)
            except ToolkitError as exc:
                report.skipped_decode_errors += 1
                report.errors.append(f"frame {i}: {exc}")
                continue
            sv.append(
                SvRecord(
                    time_us=frame.timestamp,
                    dm=mac_to_str(frame.dst_mac),
                    sm=mac_to_str(frame.src_mac),
                    ethertype=frame.ethertype,
                    appid=apdu.appid,
                    svID=apdu.svID,
                    smpCnt=apdu.smpCnt,
                )
            )
        else:
            report.skipped_ethertype += 1
    return goose, sv, report


def dataset_to_frames(dataset: LabeledDataset) -> List[RawFrame]:
    """Re-encode dataset records as RawFrames (for pcap export)."""
    out = []
    macs = {}
    for rec in dataset.records:
        dst = macs.get(rec.dm)
        if dst is None:
            dst = macs[rec.dm] = mac_to_bytes(rec.dm)
        src = macs.get(rec.sm)
        if src is None:
            src = macs[rec.sm] = mac_to_bytes(rec.sm)
        if dataset.protocol == "GOOSE":
            apdu = _frames.GooseApdu(
                appid=rec.appid, gocbRef=rec.gocbRef, datSet=rec.datSet, goID=rec.goID,
                stNum=rec.stNum, sqNum=rec.sqNum, data1=rec.data1, data2=rec.data2,
            )
            out.append(_frames.encode_goose(apdu, dst, src, rec.time_us))
        else:
            apdu = _frames.SvApdu(appid=rec.appid, svID=rec.svID, smpCnt=rec.smpCnt)
            out.append(_frames.encode_sv(apdu, dst, src, rec.time_us))
    return out


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

_GOOSE_FIELDS = [f for f in GooseRecord.__dataclass_fields__]
_SV_FIELDS = [f for f in SvRecord.__dataclass_fields__]


def save_jsonl(dataset: LabeledDataset, path) -> None:
    dataset.validate()
    fields = _GOOSE_FIELDS if dataset.protocol == "GOOSE" else _SV_FIELDS
    with open(path, "w", encoding="utf-8") as fh:
        header = {"schema": SCHEMA_ID, "protocol": dataset.protocol, "meta": dataset.meta}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec, label in zip(dataset.records, dataset.labels):
            row = {name: getattr(rec, name) for name in fields}
            row["label"] = label.value
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_jsonl(path) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError("empty dataset file", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        raise SchemaError("header line is not JSON", line=1)
    if header.get("schema") != SCHEMA_ID:
        raise SchemaError(f"unknown schema {header.get('schema')!r}", line=1, field="schema")
    protocol = header.get("protocol")
    if protocol not in ("GOOSE", "SV"):
        raise SchemaError(f"unknown protocol {protocol!r}", line=1, field="protocol")
    rec_type = GooseRecord if protocol == "GOOSE" else SvRecord
    fields = _GOOSE_FIELDS if protocol == "GOOSE" else _SV_FIELDS

    records, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            raise SchemaError("record line is not JSON", line=lineno)
        try:
            labels.append(Label(row.pop("label")))
        except (KeyError, ValueError):
            raise SchemaError("bad or missing label", line=lineno, field="label")
        missing = [f for f in fields if f not in row]
        if missing or set(row) - set(fields):
            bad = missing[0] if missing else sorted(set(row) - set(fields))[0]
            raise SchemaError("record fields do not match schema", line=lineno, field=bad)
        records.append(rec_type(**row))
    dataset = LabeledDataset(
        protocol=protocol, records=records, labels=labels, meta=header.get("meta", {})
    )
    dataset.validate()
    return dataset


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def export_csv(dataset: LabeledDataset, path) -> None:
    dataset.validate()
    columns = GOOSE_CSV_COLUMNS if dataset.protocol == "GOOSE" else SV_CSV_COLUMNS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec, label in zip(dataset.records, dataset.labels):
            base = [wallclock(rec.time_us), rec.time_us, rec.dm, rec.sm,
                    f"{rec.ethertype:04x}", rec.appid]
            if dataset.protocol == "GOOSE":
                row = base + [rec.datSet, rec.goID, rec.gocbRef, rec.stNum, rec.sqNum,
                              str(rec.data1).lower(), str(rec.data2).lower(), label.value]
            else:
                row = base + [rec.svID, rec.smpCnt, label.value]
            writer.writerow(row)


def import_csv(path, protocol: str, meta: Optional[dict] = None) -> LabeledDataset:
    """Inverse of export_csv; used by the CSV round-trip checks."""
    expected = GOOSE_CSV_COLUMNS if protocol == "GOOSE" else SV_CSV_COLUMNS
    records, labels = [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise SchemaError(f"bad CSV header {header!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise SchemaError("wrong column count", line=lineno)
            vals = dict(zip(expected, row))
            try:
                labels.append(Label(vals["label"]))
            except ValueError:
                raise SchemaError(f"bad label {vals['label']!r}", line=lineno, field="label")
            common = dict(
                time_us=int(vals["time_us"]), dm=vals["dm"], sm=vals["sm"],
                ethertype=int(vals["type"], 16), appid=int(vals["appid"]),
            )
            if protocol == "GOOSE":
                records.append(GooseRecord(
                    **common, datSet=vals["datSet"], goID=vals["goID"],
                    gocbRef=vals["gocbRef"], stNum=int(vals["stNum"]),
                    sqNum=int(vals["sqNum"]),
                    data1=vals["data1"] == "true", data2=vals["data2"] == "true",
                ))
            else:
                records.append(SvRecord(**common, svID=vals["svID"], smpCnt=int(vals["smpCnt"])))
    dataset = LabeledDataset(protocol=protocol, records=records, labels=labels, meta=meta or {})
    dataset.validate()
    return dataset
