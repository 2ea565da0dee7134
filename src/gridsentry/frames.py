"""Ethernet frame structures and the BER-TLV codec for GOOSE and SV APDUs.

All functions here are pure: decoding never mutates the frame, encoding is
byte-deterministic, and any malformed input raises a structured error from
:mod:`gridsentry.errors` instead of crashing.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import (
    DecodeError,
    InvariantViolationError,
    MissingFieldError,
    ProtocolMismatchError,
    UnsupportedShapeError,
)

ETHERTYPE_GOOSE = 0x88B8
ETHERTYPE_SV = 0x88BA
ETHERTYPE_VLAN = 0x8100

# TLV tags (context-specific, definite length)
_TAG_GOOSE_PDU = 0x61
_TAG_GOCB_REF = 0x80
_TAG_TTL = 0x81
_TAG_DAT_SET = 0x82
_TAG_GO_ID = 0x83
_TAG_ST_NUM = 0x85
_TAG_SQ_NUM = 0x86
_TAG_ALL_DATA = 0xAB
_TAG_BOOLEAN = 0x83
_GOOSE_MANDATORY = ("gocbRef", "datSet", "goID", "stNum", "sqNum", "allData")

_TAG_SAV_PDU = 0x60
_TAG_NO_ASDU = 0x80
_TAG_SEQ_ASDU = 0xA2
_TAG_ASDU = 0x30
_TAG_SV_ID = 0x80
_TAG_SMP_CNT = 0x82


@dataclass(slots=True)
class RawFrame:
    """One captured Ethernet II frame, timestamped in microseconds."""

    timestamp: int
    dst_mac: bytes
    src_mac: bytes
    ethertype: int
    payload: bytes


@dataclass(slots=True)
class GooseApdu:
    appid: int
    gocbRef: str
    datSet: str
    goID: str
    stNum: int
    sqNum: int
    data1: bool
    data2: bool
    ttl_ms: Optional[int] = None  # carried for wire fidelity, unused by rules

    def validate(self):
        for name in ("gocbRef", "datSet", "goID"):
            if not getattr(self, name):
                raise InvariantViolationError(f"GooseApdu.{name} must be non-empty")
        for name, bits in (("appid", 16), ("stNum", 32), ("sqNum", 32)):
            value = getattr(self, name)
            if not 0 <= value < (1 << bits):
                raise InvariantViolationError(f"GooseApdu.{name}={value} out of {bits}-bit range")
        if self.ttl_ms is not None and not 0 <= self.ttl_ms < (1 << 32):
            raise InvariantViolationError(f"GooseApdu.ttl_ms={self.ttl_ms} out of 32-bit range")


@dataclass(slots=True)
class SvApdu:
    appid: int
    svID: str
    smpCnt: int

    def validate(self):
        if not self.svID:
            raise InvariantViolationError("SvApdu.svID must be non-empty")
        if not 0 <= self.appid < (1 << 16):
            raise InvariantViolationError(f"SvApdu.appid={self.appid} out of range")
        if not 0 <= self.smpCnt < (1 << 16):
            raise InvariantViolationError(f"SvApdu.smpCnt={self.smpCnt} out of 16-bit range")


# ---------------------------------------------------------------------------
# TLV primitives
# ---------------------------------------------------------------------------

def _tlv(buf: bytes, offset: int, end: int) -> Tuple[int, int, int]:
    """Read the tag-length header at ``offset``, bounded by ``end``.

    Returns ``(tag, start, stop)``: the value is ``buf[start:stop]`` and the
    next TLV begins at ``stop``. The value is not copied.
    """
    if offset >= end:
        raise DecodeError("truncated TLV: no tag byte", offset)
    tag = buf[offset]
    offset += 1
    if offset >= end:
        raise DecodeError("truncated TLV: no length byte", offset)
    first = buf[offset]
    offset += 1
    if first < 0x80:
        length = first
    elif first == 0x80:
        raise DecodeError("indefinite TLV length not supported", offset - 1)
    else:
        n = first & 0x7F
        if n > 4:
            raise DecodeError(f"TLV length field of {n} octets too wide", offset - 1)
        if offset + n > end:
            raise DecodeError("truncated TLV length field", offset)
        length = int.from_bytes(buf[offset : offset + n], "big")
        offset += n
    stop = offset + length
    if stop > end:
        raise DecodeError(f"TLV value of {length} octets overruns buffer", offset)
    return tag, offset, stop


def _encode_tlv(tag: int, value: bytes) -> bytes:
    n = len(value)
    if n < 0x80:
        return bytes([tag, n]) + value
    size = (n.bit_length() + 7) // 8
    return bytes([tag, 0x80 | size]) + n.to_bytes(size, "big") + value


def _encode_uint(value: int) -> bytes:
    """Minimal-length big-endian unsigned integer (BER minimal-octets)."""
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")


def _decode_uint(buf: bytes, start: int, stop: int, max_octets: int) -> int:
    if not 1 <= stop - start <= max_octets:
        raise DecodeError(
            f"unsigned integer of {stop - start} octets (expected 1..{max_octets})", start
        )
    return int.from_bytes(buf[start:stop], "big")


def _apdu_header(appid: int, pdu: bytes) -> bytes:
    length = 8 + len(pdu)
    return appid.to_bytes(2, "big") + length.to_bytes(2, "big") + b"\x00\x00\x00\x00" + pdu


def _split_apdu(frame: RawFrame) -> Tuple[int, bytes, int]:
    """Return (appid, payload, end): the PDU is ``payload[8:end]``."""
    payload = frame.payload
    if len(payload) < 8:
        raise DecodeError("payload shorter than the 8-octet APDU header", len(payload))
    appid = int.from_bytes(payload[0:2], "big")
    length = int.from_bytes(payload[2:4], "big")
    if length < 8:
        raise DecodeError(f"APDU length field {length} below header size", 2)
    if length > len(payload):
        raise DecodeError(f"APDU length field {length} overruns payload", 2)
    return appid, payload, length


def _check_ethertype(frame: RawFrame, expected: int):
    if frame.ethertype == ETHERTYPE_VLAN:
        raise UnsupportedShapeError("VLAN-tagged (0x8100) frames are not supported")
    if frame.ethertype != expected:
        raise ProtocolMismatchError(
            f"ethertype 0x{frame.ethertype:04X}, expected 0x{expected:04X}"
        )


# ---------------------------------------------------------------------------
# GOOSE
# ---------------------------------------------------------------------------

def decode_goose(frame: RawFrame) -> GooseApdu:
    """Parse a GOOSE frame payload (APDU header + goosePdu TLV).

    Offsets in a ``DecodeError`` count from the start of the payload.
    """
    _check_ethertype(frame, ETHERTYPE_GOOSE)
    appid, buf, end = _split_apdu(frame)
    tag, off, end = _tlv(buf, 8, end)
    if tag != _TAG_GOOSE_PDU:
        raise DecodeError(f"expected goosePdu tag 0x61, got 0x{tag:02X}", 8)

    gocb_ref = dat_set = go_id = st_num = sq_num = ttl_ms = booleans = None
    while off < end:
        tag, start, off = _tlv(buf, off, end)
        if tag == _TAG_GOCB_REF:
            gocb_ref = buf[start:off].decode("ascii", errors="replace")
        elif tag == _TAG_TTL:
            ttl_ms = _decode_uint(buf, start, off, 4)
        elif tag == _TAG_DAT_SET:
            dat_set = buf[start:off].decode("ascii", errors="replace")
        elif tag == _TAG_GO_ID:
            go_id = buf[start:off].decode("ascii", errors="replace")
        elif tag == _TAG_ST_NUM:
            st_num = _decode_uint(buf, start, off, 4)
        elif tag == _TAG_SQ_NUM:
            sq_num = _decode_uint(buf, start, off, 4)
        elif tag == _TAG_ALL_DATA:
            booleans = _decode_all_data(buf, start, off)
        # unknown tags inside the wrapper are skipped (length-delimited)

    found = (gocb_ref, dat_set, go_id, st_num, sq_num, booleans)
    if None in found:
        raise MissingFieldError(_GOOSE_MANDATORY[found.index(None)])
    if not (gocb_ref and dat_set and go_id):
        raise MissingFieldError("gocbRef" if not gocb_ref else ("datSet" if not dat_set else "goID"))
    return GooseApdu(
        appid=appid,
        gocbRef=gocb_ref,
        datSet=dat_set,
        goID=go_id,
        stNum=st_num,
        sqNum=sq_num,
        data1=booleans[0],
        data2=booleans[1],
        ttl_ms=ttl_ms,
    )


def _decode_all_data(buf: bytes, off: int, end: int):
    entries = []
    while off < end:
        tag, start, off = _tlv(buf, off, end)
        if tag != _TAG_BOOLEAN:
            raise UnsupportedShapeError(
                f"allData entry tag 0x{tag:02X} is not a boolean"
            )
        if off - start != 1:
            raise DecodeError(f"boolean of {off - start} octets", start)
        entries.append(buf[start] != 0)
    if len(entries) != 2:
        raise UnsupportedShapeError(
            f"allData carries {len(entries)} entries, exactly 2 booleans supported"
        )
    return entries


def encode_goose(apdu: GooseApdu, dst_mac: bytes, src_mac: bytes, timestamp: int) -> RawFrame:
    """Build a GOOSE RawFrame; byte-deterministic for identical inputs."""
    apdu.validate()
    inner = _encode_tlv(_TAG_GOCB_REF, apdu.gocbRef.encode("ascii"))
    if apdu.ttl_ms is not None:
        inner += _encode_tlv(_TAG_TTL, _encode_uint(apdu.ttl_ms))
    inner += _encode_tlv(_TAG_DAT_SET, apdu.datSet.encode("ascii"))
    inner += _encode_tlv(_TAG_GO_ID, apdu.goID.encode("ascii"))
    inner += _encode_tlv(_TAG_ST_NUM, _encode_uint(apdu.stNum))
    inner += _encode_tlv(_TAG_SQ_NUM, _encode_uint(apdu.sqNum))
    all_data = b"".join(
        _encode_tlv(_TAG_BOOLEAN, b"\x01" if bit else b"\x00")
        for bit in (apdu.data1, apdu.data2)
    )
    inner += _encode_tlv(_TAG_ALL_DATA, all_data)
    pdu = _encode_tlv(_TAG_GOOSE_PDU, inner)
    return RawFrame(
        timestamp=timestamp,
        dst_mac=bytes(dst_mac),
        src_mac=bytes(src_mac),
        ethertype=ETHERTYPE_GOOSE,
        payload=_apdu_header(apdu.appid, pdu),
    )


# ---------------------------------------------------------------------------
# SV
# ---------------------------------------------------------------------------

def decode_sv(frame: RawFrame) -> SvApdu:
    """Parse a single-ASDU SV frame payload (APDU header + savPdu TLV).

    Offsets in a ``DecodeError`` count from the start of the payload.
    """
    _check_ethertype(frame, ETHERTYPE_SV)
    appid, buf, end = _split_apdu(frame)
    tag, off, end = _tlv(buf, 8, end)
    if tag != _TAG_SAV_PDU:
        raise DecodeError(f"expected savPdu tag 0x60, got 0x{tag:02X}", 8)

    no_asdu = None
    seq = None
    while off < end:
        tag, start, off = _tlv(buf, off, end)
        if tag == _TAG_NO_ASDU:
            no_asdu = _decode_uint(buf, start, off, 2)
        elif tag == _TAG_SEQ_ASDU:
            seq = start, off
    if no_asdu is None:
        raise MissingFieldError("noASDU")
    if no_asdu != 1:
        raise UnsupportedShapeError(f"noASDU={no_asdu}; only single-ASDU frames supported")
    if seq is None:
        raise MissingFieldError("seqOfASDU")

    seq_start, seq_stop = seq
    tag, off, end = _tlv(buf, seq_start, seq_stop)
    if tag != _TAG_ASDU:
        raise DecodeError(f"expected ASDU tag 0x30, got 0x{tag:02X}", seq_start)
    if end != seq_stop:
        raise UnsupportedShapeError("seqOfASDU carries more than one ASDU")

    sv_id = None
    smp_cnt = None
    while off < end:
        tag, start, off = _tlv(buf, off, end)
        if tag == _TAG_SV_ID:
            sv_id = buf[start:off].decode("ascii", errors="replace")
        elif tag == _TAG_SMP_CNT:
            if off - start != 2:
                raise DecodeError(f"smpCnt of {off - start} octets (expected 2)", start)
            smp_cnt = int.from_bytes(buf[start:off], "big")
    if not sv_id:
        raise MissingFieldError("svID")
    if smp_cnt is None:
        raise MissingFieldError("smpCnt")
    return SvApdu(appid=appid, svID=sv_id, smpCnt=smp_cnt)


def encode_sv(apdu: SvApdu, dst_mac: bytes, src_mac: bytes, timestamp: int) -> RawFrame:
    """Build an SV RawFrame; smpCnt may take any 16-bit value, as on decode.

    Values above 4799 are representable on the wire; flagging them is the
    rule engine's job (S_DI_1), not the codec's.
    """
    apdu.validate()
    asdu = _encode_tlv(_TAG_SV_ID, apdu.svID.encode("ascii"))
    asdu += _encode_tlv(_TAG_SMP_CNT, apdu.smpCnt.to_bytes(2, "big"))
    body = _encode_tlv(_TAG_NO_ASDU, b"\x01")
    body += _encode_tlv(_TAG_SEQ_ASDU, _encode_tlv(_TAG_ASDU, asdu))
    pdu = _encode_tlv(_TAG_SAV_PDU, body)
    return RawFrame(
        timestamp=timestamp,
        dst_mac=bytes(dst_mac),
        src_mac=bytes(src_mac),
        ethertype=ETHERTYPE_SV,
        payload=_apdu_header(apdu.appid, pdu),
    )
