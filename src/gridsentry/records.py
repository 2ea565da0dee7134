"""Feature records extracted from frames, plus labeled-dataset file formats."""

import csv
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from .errors import InvariantViolationError, SchemaError, WrongStreamError
from .frames import (
    ETHERTYPE_GOOSE,
    ETHERTYPE_SV,
    ETHERTYPE_VLAN,
    RawFrame,
    _GOOSE_ALL_DATA,
    _goose_fields,
    _sv_fields,
    untag_vlan,
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
    """One GOOSE frame's features. Each field holds exactly its annotated
    type: an ``int`` that is not a ``bool``, a ``bool``, or a non-empty
    ``str``. The readers (``extract_records``, ``load_jsonl``, ``import_csv``
    and the simulator) give only such records; code that builds records
    itself must too. The rule engine and ``dataset_to_frames`` do not check
    types. ``LabeledDataset.validate`` checks the ethertype and time."""

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


@dataclass(slots=True)
class SvRecord:
    """One SV frame's features. Each field holds exactly its annotated type
    (an ``int`` that is not a ``bool``, or a non-empty ``str``), under the
    same terms as ``GooseRecord``."""

    time_us: int
    dm: str
    sm: str
    ethertype: int
    appid: int
    svID: str
    smpCnt: int


_RECORD_TYPES = {"GOOSE": (GooseRecord, ETHERTYPE_GOOSE), "SV": (SvRecord, ETHERTYPE_SV)}


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
        """Check the contract of every dataset: a known protocol, one label
        per record, each record of the protocol's class and carrying its
        ethertype, and times that start at 0 or later and never decrease.
        Every function that takes a dataset calls this first."""
        if self.protocol not in ("GOOSE", "SV"):
            raise InvariantViolationError(f"unknown protocol {self.protocol!r}")
        if len(self.labels) != len(self.records):
            raise InvariantViolationError(
                f"{len(self.labels)} labels for {len(self.records)} records"
            )
        rec_type, ethertype = _RECORD_TYPES[self.protocol]
        last = 0
        for i, rec in enumerate(self.records):
            if not isinstance(rec, rec_type):
                raise WrongStreamError(
                    f"record {i} is a {type(rec).__name__} in a {self.protocol} dataset")
            if rec.ethertype != ethertype:
                raise InvariantViolationError(
                    f"record {i} has ethertype 0x{rec.ethertype:04X}, "
                    f"not the {self.protocol} 0x{ethertype:04X}")
            if rec.time_us < last:
                if rec.time_us < 0:
                    raise InvariantViolationError(
                        f"record {i} has negative time_us {rec.time_us}")
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
    in the skip report, never fatal. One 802.1Q tag is stripped here, and only
    here: a frame with ethertype 0x8100 is read as the frame inside its tag, so
    a second tag counts as a foreign ethertype. Each distinct MAC is rendered
    once, and records of one address share its string. Each SV frame layout
    is decoded once per call: an SV frame whose last field is ``smpCnt`` stores its
    ``(appid, svID)`` under every octet but the last two, and a later frame
    with those same octets takes them and reads only its own ``smpCnt``.
    Each GOOSE frame layout is decoded once per call too: a GOOSE frame whose
    stNum, sqNum and boolean values come in that order stores its ``(appid,
    gocbRef, datSet, goID)`` with every other octet, and a later frame of the
    same length with those same octets takes them and reads only its own
    four values. Records of one GOOSE layout share its strings.
    """
    goose: List[GooseRecord] = []
    sv: List[SvRecord] = []
    report = SkipReport()
    macs = {}
    layouts = {}  # SV payload[:-2] -> (appid, svID); see frames._sv_fields
    # GOOSE payload[:st_start] -> layout: the payload length, the four value
    # spans, the octets after each span and (appid, gocbRef, datSet, goID);
    # see frames._goose_fields.
    goose_layouts = {}
    # (src MAC, dst MAC, payload length) -> the st_start of every layout
    # stored for it, in the order stored. Only a hint: a wrong one costs a
    # full decode, never a wrong record. The length tells apart most control
    # blocks of one publisher; those it does not are tried in turn.
    st_starts = {}
    for i, frame in enumerate(frames):
        ethertype = frame.ethertype
        payload = frame.payload
        if ethertype == ETHERTYPE_VLAN and (inner := untag_vlan(payload)) is not None:
            ethertype, payload = inner
        try:
            if ethertype == ETHERTYPE_SV:
                if layouts and (layout := layouts.get(payload[:-2])) is not None:
                    appid, sv_id = layout
                    smp_cnt = int.from_bytes(payload[-2:], "big")
                else:
                    appid, sv_id, smp_cnt, smp_at = _sv_fields(payload)
                    if smp_at == len(payload) - 2:
                        layouts[payload[:-2]] = appid, sv_id
                is_goose = False
            elif ethertype == ETHERTYPE_GOOSE:
                hint = frame.src_mac, frame.dst_mac, len(payload)
                layout = None
                for st_start in st_starts.get(hint, ()):
                    layout = goose_layouts.get(payload[:st_start])
                    if layout is not None:
                        (size, st_stop, after_st, sq_start, sq_stop, after_sq, bool1_at,
                         after_bool1, bool2_at, after_bool2, head) = layout
                        if (len(payload) == size
                                and payload.startswith(after_st, st_stop)
                                and payload.startswith(after_sq, sq_stop)
                                and payload.startswith(after_bool1, bool1_at + 1)
                                and payload.startswith(after_bool2, bool2_at + 1)):
                            break
                        layout = None
                if layout is not None:
                    appid, gocb_ref, dat_set, go_id = head
                    st_num = int.from_bytes(payload[st_start:st_stop], "big")
                    sq_num = int.from_bytes(payload[sq_start:sq_stop], "big")
                    data1 = payload[bool1_at] != 0
                    data2 = payload[bool2_at] != 0
                else:
                    (appid, gocb_ref, dat_set, go_id, st_num, sq_num, data1, data2, _ttl,
                     st_start, st_stop, sq_start, sq_stop, bool1_at, bool2_at
                     ) = _goose_fields(payload)
                    if st_stop <= sq_start and sq_stop <= bool1_at < bool2_at:
                        known = st_starts.setdefault(hint, [])
                        if st_start not in known:
                            known.append(st_start)
                        goose_layouts[payload[:st_start]] = (
                            len(payload), st_stop, payload[st_stop:sq_start], sq_start,
                            sq_stop, payload[sq_stop:bool1_at], bool1_at,
                            payload[bool1_at + 1:bool2_at], bool2_at,
                            payload[bool2_at + 1:], (appid, gocb_ref, dat_set, go_id))
                is_goose = True
            else:
                report.skipped_ethertype += 1
                continue
        except ToolkitError as exc:
            report.skipped_decode_errors += 1
            report.errors.append(f"frame {i}: {exc}")
            continue
        dm = macs.get(frame.dst_mac)
        if dm is None:
            dm = macs[frame.dst_mac] = mac_to_str(frame.dst_mac)
        sm = macs.get(frame.src_mac)
        if sm is None:
            sm = macs[frame.src_mac] = mac_to_str(frame.src_mac)
        if is_goose:
            goose.append(GooseRecord(frame.timestamp, dm, sm, ethertype, appid, dat_set,
                                     go_id, gocb_ref, st_num, sq_num, data1, data2))
        else:
            sv.append(SvRecord(frame.timestamp, dm, sm, ethertype, appid, sv_id, smp_cnt))
    return goose, sv, report


def _mac_bytes(macs: dict, text: str) -> bytes:
    mac = macs.get(text)
    if mac is None:
        mac = macs[text] = mac_to_bytes(text)
    return mac


def dataset_to_frames(dataset: LabeledDataset) -> List[RawFrame]:
    """Re-encode dataset records as RawFrames (for pcap export).

    Each frame layout is encoded once per call. The first SV record of a
    ``(dm, sm, appid, svID)`` goes through ``encode_sv``, and its payload but
    the last two octets is kept; a later record of that key is that head plus
    its own ``smpCnt``. The first GOOSE record of a ``(dm, sm, appid, gocbRef,
    datSet, goID)`` with a given number of stNum and sqNum octets goes through
    ``encode_goose``, and the octets before its stNum value and the two
    between the counters are kept; the counter widths fix every enclosing
    BER length, so a later record of that key is those octets with its own
    counters spliced in, then the allData tail of its booleans. A record
    whose ``appid`` or counters are out of the encoder's range goes through
    the encoder, which rejects it.
    """
    dataset.validate()
    out = []
    macs = {}
    templates = {}
    if dataset.protocol == "GOOSE":
        for rec in dataset.records:
            dm, sm, appid, gocb_ref, dat_set, go_id, st, sq = (
                rec.dm, rec.sm, rec.appid, rec.gocbRef, rec.datSet, rec.goID, rec.stNum,
                rec.sqNum)
            key = None
            if 0 <= appid <= 0xFFFF and 0 <= st <= 0xFFFFFFFF and 0 <= sq <= 0xFFFFFFFF:
                st_len = (st.bit_length() + 7) // 8 or 1
                sq_len = (sq.bit_length() + 7) // 8 or 1
                key = dm, sm, appid, gocb_ref, dat_set, go_id, st_len, sq_len
                template = templates.get(key)
                if template is not None:
                    dst, src, head, mid = template
                    out.append(RawFrame(
                        rec.time_us, dst, src, ETHERTYPE_GOOSE,
                        head + st.to_bytes(st_len, "big") + mid + sq.to_bytes(sq_len, "big")
                        + _GOOSE_ALL_DATA[rec.data1, rec.data2]))
                    continue
            apdu = _frames.GooseApdu(appid, gocb_ref, dat_set, go_id, st, sq,
                                     rec.data1, rec.data2)
            frame = _frames.encode_goose(apdu, _mac_bytes(macs, dm), _mac_bytes(macs, sm),
                                         rec.time_us)
            if key is not None:
                # payload: head, stNum, 0x86 and sqNum's length, sqNum, allData
                sq_at = len(frame.payload) - 8 - sq_len
                st_at = sq_at - 2 - st_len
                templates[key] = (frame.dst_mac, frame.src_mac, frame.payload[:st_at],
                                  frame.payload[st_at + st_len:sq_at])
            out.append(frame)
    else:
        for rec in dataset.records:
            dm, sm, appid, sv_id, smp_cnt = rec.dm, rec.sm, rec.appid, rec.svID, rec.smpCnt
            key = None
            if 0 <= appid <= 0xFFFF and 0 <= smp_cnt <= 0xFFFF:
                key = dm, sm, appid, sv_id
                template = templates.get(key)
                if template is not None:
                    dst, src, head = template
                    out.append(RawFrame(rec.time_us, dst, src, ETHERTYPE_SV,
                                        head + smp_cnt.to_bytes(2, "big")))
                    continue
            frame = _frames.encode_sv(_frames.SvApdu(appid, sv_id, smp_cnt),
                                      _mac_bytes(macs, dm), _mac_bytes(macs, sm), rec.time_us)
            if key is not None:  # payload: head, then smpCnt's two octets
                templates[key] = frame.dst_mac, frame.src_mac, frame.payload[:-2]
            out.append(frame)
    return out


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

# field name -> its declared type, in declaration order; load_jsonl requires
# exactly that type: an int that is not a bool, a bool, or a non-empty str
_GOOSE_TYPES = {name: f.type for name, f in GooseRecord.__dataclass_fields__.items()}
_SV_TYPES = {name: f.type for name, f in SvRecord.__dataclass_fields__.items()}
_TYPE_NAMES = {int: "an integer", bool: "a boolean", str: "a non-empty string"}


def save_jsonl(dataset: LabeledDataset, path) -> None:
    dataset.validate()
    fields = _GOOSE_TYPES if dataset.protocol == "GOOSE" else _SV_TYPES
    with open(path, "w", encoding="utf-8") as fh:
        header = {"schema": SCHEMA_ID, "protocol": dataset.protocol, "meta": dataset.meta}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec, label in zip(dataset.records, dataset.labels):
            row = {name: getattr(rec, name) for name in fields}
            row["label"] = label.value
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_jsonl(path) -> LabeledDataset:
    """Read a ``save_jsonl`` file, raising SchemaError with the line and field
    of the first row that breaks the schema. Every record field must have
    exactly its declared type: an int that is not a bool, a bool, or a
    non-empty string."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError("empty dataset file", line=1)
    try:
        header = json.loads(lines[0])
    except (json.JSONDecodeError, RecursionError):
        raise SchemaError("header line is not JSON", line=1)
    if type(header) is not dict:
        raise SchemaError("header line is not a JSON object", line=1)
    if header.get("schema") != SCHEMA_ID:
        raise SchemaError(f"unknown schema {header.get('schema')!r}", line=1, field="schema")
    protocol = header.get("protocol")
    if protocol not in ("GOOSE", "SV"):
        raise SchemaError(f"unknown protocol {protocol!r}", line=1, field="protocol")
    meta = header.get("meta", {})
    if type(meta) is not dict:
        raise SchemaError(f"meta must be a JSON object, got {meta!r}", line=1, field="meta")
    rec_type = GooseRecord if protocol == "GOOSE" else SvRecord
    types = _GOOSE_TYPES if protocol == "GOOSE" else _SV_TYPES

    records, labels = [], []
    # (field names, value types) of every row that passed _check_row: a row of
    # the same shape holding no empty string passes it too, so it is not rerun
    shapes = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (json.JSONDecodeError, RecursionError):
            raise SchemaError("record line is not JSON", line=lineno)
        if type(row) is not dict:
            raise SchemaError("record line is not a JSON object", line=lineno)
        try:
            labels.append(Label(row.pop("label")))
        except (KeyError, ValueError):
            raise SchemaError("bad or missing label", line=lineno, field="label")
        shape = tuple(row), tuple(map(type, row.values()))
        if shape not in shapes or "" in row.values():
            _check_row(row, types, lineno)
            shapes.add(shape)
        records.append(rec_type(**row))
    dataset = LabeledDataset(protocol=protocol, records=records, labels=labels, meta=meta)
    dataset.validate()
    return dataset


def _check_row(row: dict, types: dict, lineno: int) -> None:
    """Raise SchemaError unless ``row`` has exactly the fields and types of ``types``."""
    missing = [name for name in types if name not in row]
    if missing or len(row) != len(types):
        bad = missing[0] if missing else sorted(set(row) - set(types))[0]
        raise SchemaError("record fields do not match schema", line=lineno, field=bad)
    for name, want in types.items():
        value = row[name]
        if type(value) is not want or value == "":
            raise SchemaError(f"{name} must be {_TYPE_NAMES[want]}, got {value!r}",
                              line=lineno, field=name)


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


# record field type -> (the pattern a CSV cell must match, its conversion,
# what the pattern asks for)
_CSV_CELLS = {
    int: (re.compile(r"-?[0-9]+"), int, "a base-10 integer"),
    bool: (re.compile(r"true|false"), lambda cell: cell == "true", "true or false"),
    str: (re.compile(r".+", re.DOTALL), str, "non-empty"),
}
_CSV_HEX = (re.compile(r"[0-9a-fA-F]+"), lambda cell: int(cell, 16), "a hexadecimal integer")


def import_csv(path, protocol: str, meta: Optional[dict] = None) -> LabeledDataset:
    """Inverse of export_csv, raising SchemaError with the line and column of
    the first cell that does not read as its record field's type: ``true`` or
    ``false`` for a boolean, hexadecimal digits for ``type``, base-10 digits
    after an optional ``-`` for every other number, and non-empty text for
    the names and MACs."""
    expected = GOOSE_CSV_COLUMNS if protocol == "GOOSE" else SV_CSV_COLUMNS
    rec_type = GooseRecord if protocol == "GOOSE" else SvRecord
    types = _GOOSE_TYPES if protocol == "GOOSE" else _SV_TYPES
    # the columns between "time" and "label" hold the record fields in order
    cells = [(column, *(_CSV_HEX if column == "type" else _CSV_CELLS[want]))
             for column, want in zip(expected[1:-1], types.values())]
    records, labels = [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise SchemaError(f"bad CSV header {header!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise SchemaError("wrong column count", line=lineno)
            try:
                labels.append(Label(row[-1]))
            except ValueError:
                raise SchemaError(f"bad label {row[-1]!r}", line=lineno, field="label")
            values = []
            for (column, pattern, convert, must), cell in zip(cells, row[1:-1]):
                if pattern.fullmatch(cell) is None:
                    raise SchemaError(f"{column} must be {must}, got {cell!r}",
                                      line=lineno, field=column)
                values.append(convert(cell))
            records.append(rec_type(*values))
    dataset = LabeledDataset(protocol=protocol, records=records, labels=labels, meta=meta or {})
    dataset.validate()
    return dataset
