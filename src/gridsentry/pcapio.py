"""Classic pcap reading and writing (Ethernet link type only)."""

import struct
from typing import Iterable, List

from .errors import OrderingViolationError, TruncatedCaptureError, UnsupportedFormatError
from .frames import RawFrame

MAGIC_USEC = 0xA1B2C3D4
MAGIC_NSEC = 0xA1B23C4D
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER_LE = struct.Struct("<IIII")
_RECORD_HEADER_BE = struct.Struct(">IIII")
_ETHERNET_HEADER = struct.Struct("!6s6sH")  # destination, source, ethertype


def read_pcap(file_path) -> List[RawFrame]:
    """Read every Ethernet frame from a classic pcap file, in file order.

    Timestamps are converted to integer microseconds (nanosecond captures
    truncate). Frames come back as captured, 802.1Q tags included. Frames of
    one call that carry the same MAC address share one ``bytes`` object for
    it, and those that carry the same ethertype share one ``int``: 0x88B8 and
    0x88BA lie outside CPython's small-int cache, so each frame would
    otherwise hold its own.
    Non-Ethernet link types and unknown magics are rejected.
    """
    with open(file_path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24:
            raise UnsupportedFormatError(f"{file_path}: file shorter than a pcap header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic in (MAGIC_USEC, MAGIC_NSEC):
            record = _RECORD_HEADER_LE
            linktype = struct.unpack("<I", header[20:24])[0]
        elif struct.unpack(">I", header[:4])[0] in (MAGIC_USEC, MAGIC_NSEC):
            magic = struct.unpack(">I", header[:4])[0]
            record = _RECORD_HEADER_BE
            linktype = struct.unpack(">I", header[20:24])[0]
        else:
            raise UnsupportedFormatError(f"{file_path}: bad pcap magic 0x{magic:08X}")
        nanoseconds = magic == MAGIC_NSEC
        if linktype != LINKTYPE_ETHERNET:
            raise UnsupportedFormatError(f"{file_path}: link type {linktype} is not Ethernet")

        frames = []
        shared = {}  # one object per distinct MAC and ethertype
        while True:
            rec = fh.read(16)
            if not rec:
                return frames
            if len(rec) < 16:
                raise TruncatedCaptureError("truncated record header", len(frames))
            ts_sec, ts_frac, incl_len, _orig_len = record.unpack(rec)
            data = fh.read(incl_len)
            if len(data) < incl_len:
                raise TruncatedCaptureError("truncated frame body", len(frames))
            if incl_len < 14:
                raise TruncatedCaptureError("frame shorter than an Ethernet header", len(frames))
            micros = ts_frac // 1000 if nanoseconds else ts_frac
            dst_mac, src_mac, ethertype = _ETHERNET_HEADER.unpack_from(data)
            frames.append(RawFrame(ts_sec * 1_000_000 + micros,
                                   shared.setdefault(dst_mac, dst_mac),
                                   shared.setdefault(src_mac, src_mac),
                                   shared.setdefault(ethertype, ethertype), data[14:]))


def write_pcap(frames: Iterable[RawFrame], file_path) -> None:
    """Write frames as a microsecond-precision, little-endian Ethernet pcap."""
    frames = list(frames)
    last = None
    for i, frame in enumerate(frames):
        if last is not None and frame.timestamp < last:
            raise OrderingViolationError(
                f"frame {i} timestamp {frame.timestamp} precedes {last}"
            )
        last = frame.timestamp
    with open(file_path, "wb") as fh:
        fh.write(_GLOBAL_HEADER.pack(MAGIC_USEC, 2, 4, 0, 0, 0x40000, LINKTYPE_ETHERNET))
        for frame in frames:
            wire = (
                frame.dst_mac
                + frame.src_mac
                + frame.ethertype.to_bytes(2, "big")
                + frame.payload
            )
            fh.write(
                _RECORD_HEADER_LE.pack(
                    frame.timestamp // 1_000_000,
                    frame.timestamp % 1_000_000,
                    len(wire),
                    len(wire),
                )
            )
            fh.write(wire)
