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
    Layout,
    RawFrame,
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
    once, and records of one address share its string. Each frame layout
    (``frames.Layout``) is decoded in full once per call: it stores its head,
    ``(appid, svID)`` or ``(appid, gocbRef, datSet, goID)``, and a later frame
    of that layout reads only its own value spans (``smpCnt``, or ``stNum``,
    ``sqNum`` and the two booleans) and shares the head's strings.
    """
    goose: List[GooseRecord] = []
    sv: List[SvRecord] = []
    report = SkipReport()
    macs = {}
    sv_memo = {}  # payload length -> [Layout], one memo per ethertype
    goose_memo = {}
    for i, frame in enumerate(frames):
        ethertype = frame.ethertype
        payload = frame.payload
        if ethertype == ETHERTYPE_VLAN and (inner := untag_vlan(payload)) is not None:
            ethertype, payload = inner
        if ethertype == ETHERTYPE_SV:
            memo = sv_memo
        elif ethertype == ETHERTYPE_GOOSE:
            memo = goose_memo
        else:
            report.skipped_ethertype += 1
            continue
        for kept, values, heads, _ in memo.get(len(payload), ()):
            head = heads.get(kept(payload))
            if head is not None:
                break
        else:
            try:
                head, _, cuts, spans = (_sv_fields if memo is sv_memo else _goose_fields)(payload)
            except ToolkitError as exc:
                report.skipped_decode_errors += 1
                report.errors.append(f"frame {i}: {exc}")
                continue
            layouts = memo.setdefault(len(payload), [])
            layout = next((known for known in layouts if known.spans == (cuts, spans)), None)
            if layout is None:
                layout = Layout.of(len(payload), cuts, spans)
                layouts.append(layout)
            layout.heads[layout.kept(payload)] = head
            values = layout.values
        dm = macs.get(frame.dst_mac)
        if dm is None:
            dm = macs[frame.dst_mac] = mac_to_str(frame.dst_mac)
        sm = macs.get(frame.src_mac)
        if sm is None:
            sm = macs[frame.src_mac] = mac_to_str(frame.src_mac)
        if memo is sv_memo:
            appid, sv_id = head
            sv.append(SvRecord(frame.timestamp, dm, sm, ethertype, appid, sv_id,
                               int.from_bytes(payload[values[0]], "big")))
        else:
            appid, gocb_ref, dat_set, go_id = head
            st, sq, bool1, bool2 = values
            goose.append(GooseRecord(
                frame.timestamp, dm, sm, ethertype, appid, dat_set, go_id, gocb_ref,
                int.from_bytes(payload[st], "big"), int.from_bytes(payload[sq], "big"),
                payload[bool1] != b"\x00", payload[bool2] != b"\x00"))
    return goose, sv, report


def dataset_to_frames(dataset: LabeledDataset) -> List[RawFrame]:
    """Re-encode dataset records as RawFrames (for pcap export).

    Each frame layout is encoded once per call. The first SV record of a
    ``(dm, sm, appid, svID)``, and the first GOOSE record of a ``(dm, sm,
    appid, gocbRef, datSet, goID)`` with given stNum and sqNum octet counts,
    go through ``encode_sv``/``encode_goose``; reading that frame with the
    same field reader as ``extract_records`` gives its ``frames.Layout``,
    and a later record of the key fills that layout's value spans with its
    own ``smpCnt``, or counters and booleans. The counter widths fix every
    BER length. The key holds ``appid``, so the encoder has checked it; a
    record whose counters are out of the encoder's range goes through the
    encoder, which rejects it.
    """
    dataset.validate()
    goose = dataset.protocol == "GOOSE"
    ethertype = ETHERTYPE_GOOSE if goose else ETHERTYPE_SV
    out = []
    templates = {}  # record key -> (dst MAC, src MAC, Layout.template)
    for rec in dataset.records:
        key = None
        if goose:
            st, sq = rec.stNum, rec.sqNum
            if 0 <= st <= 0xFFFFFFFF and 0 <= sq <= 0xFFFFFFFF:
                st_len = (st.bit_length() + 7) // 8 or 1
                sq_len = (sq.bit_length() + 7) // 8 or 1
                key = rec.dm, rec.sm, rec.appid, rec.gocbRef, rec.datSet, rec.goID, st_len, sq_len
                values = (st.to_bytes(st_len, "big"), sq.to_bytes(sq_len, "big"),
                          b"\x01" if rec.data1 else b"\x00", b"\x01" if rec.data2 else b"\x00")
        elif 0 <= rec.smpCnt <= 0xFFFF:
            values = rec.smpCnt.to_bytes(2, "big")
            key = rec.dm, rec.sm, rec.appid, rec.svID
        template = templates.get(key)
        if template is not None:
            dst, src, fill = template
            out.append(RawFrame(rec.time_us, dst, src, ethertype, fill % values))
            continue
        dst, src = mac_to_bytes(rec.dm), mac_to_bytes(rec.sm)
        if goose:
            frame = _frames.encode_goose(_frames.GooseApdu(
                rec.appid, rec.gocbRef, rec.datSet, rec.goID, rec.stNum, rec.sqNum, rec.data1,
                rec.data2), dst, src, rec.time_us)
        else:
            frame = _frames.encode_sv(_frames.SvApdu(rec.appid, rec.svID, rec.smpCnt),
                                      dst, src, rec.time_us)
        if key is not None:
            payload = frame.payload
            _, _, cuts, spans = (_goose_fields if goose else _sv_fields)(payload)
            templates[key] = dst, src, Layout.of(len(payload), cuts, spans).template(payload)
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


def read_text(path) -> str:
    """The file at ``path`` decoded as UTF-8 in one pass; a byte that is not
    UTF-8 raises SchemaError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text",
                          line=data.count(b"\n", 0, exc.start) + 1)


def load_jsonl(path) -> LabeledDataset:
    """Read a ``save_jsonl`` file, raising SchemaError with the line and field
    of the first row that breaks the schema. Every record field must have
    exactly its declared type: an int that is not a bool, a bool, or a
    non-empty string; ``dm`` and ``sm`` must be MACs as ``mac_to_str``
    writes them."""
    lines = read_text(path).splitlines()
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
    macs = set()  # every dm and sm that passed _check_macs
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
        if row["dm"] not in macs or row["sm"] not in macs:
            _check_macs(row["dm"], row["sm"], macs, lineno)
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


_MAC = re.compile(r"[0-9a-f]{2}(?::[0-9a-f]{2}){5}")


def _check_macs(dm: str, sm: str, macs: set, lineno: int) -> None:
    """Raise SchemaError unless ``dm`` and ``sm`` are MACs as ``mac_to_str``
    writes them: six lower-case hex octets joined by ``:``; add them to ``macs``."""
    for name, mac in (("dm", dm), ("sm", sm)):
        if _MAC.fullmatch(mac) is None:
            raise SchemaError(f"{name} must be a MAC address such as 01:0c:cd:01:00:01, "
                              f"got {mac!r}", line=lineno, field=name)
    macs.update((dm, sm))


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
    after an optional ``-`` for every other number, non-empty text for the
    names, and MACs as ``mac_to_str`` writes them."""
    expected = GOOSE_CSV_COLUMNS if protocol == "GOOSE" else SV_CSV_COLUMNS
    rec_type = GooseRecord if protocol == "GOOSE" else SvRecord
    types = _GOOSE_TYPES if protocol == "GOOSE" else _SV_TYPES
    # the columns between "time" and "label" hold the record fields in order
    cells = [(column, *(_CSV_HEX if column == "type" else _CSV_CELLS[want]))
             for column, want in zip(expected[1:-1], types.values())]
    records, labels = [], []
    macs = set()  # every dm and sm that passed _check_macs
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
            if values[1] not in macs or values[2] not in macs:
                _check_macs(values[1], values[2], macs, lineno)
            records.append(rec_type(*values))
    dataset = LabeledDataset(protocol=protocol, records=records, labels=labels, meta=meta or {})
    dataset.validate()
    return dataset
