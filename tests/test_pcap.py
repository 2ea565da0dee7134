import random
import struct

import pytest

from gridsentry.errors import (
    OrderingViolationError,
    TruncatedCaptureError,
    UnsupportedFormatError,
)
from gridsentry.frames import (
    ETHERTYPE_VLAN,
    GooseApdu,
    RawFrame,
    SvApdu,
    encode_goose,
    encode_sv,
)
from gridsentry.pcapio import read_pcap, write_pcap
from gridsentry.records import SkipReport, extract_records

DST = bytes.fromhex("010ccd010003")
SRC = bytes.fromhex("000000273431")


def _frames(n, start_us=0, step_us=1000):
    out = []
    for i in range(n):
        apdu = GooseApdu(appid=3, gocbRef="g/LLN0$GO$a", datSet="g/LLN0$ds",
                         goID="a", stNum=1, sqNum=i, data1=False, data2=False)
        out.append(encode_goose(apdu, DST, SRC, start_us + i * step_us))
    return out


def _records_bytes(frames, ts_div=1):
    body = b""
    for f in frames:
        data = f.dst_mac + f.src_mac + struct.pack(">H", f.ethertype) + f.payload
        body += struct.pack("<IIII", f.timestamp // 10**6, f.timestamp % 10**6,
                            len(data), len(data)) + data
    return body


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        frames = _frames(50)
        path = tmp_path / "x.pcap"
        write_pcap(frames, str(path))
        back = read_pcap(str(path))
        assert back == frames

    def test_randomized_round_trips(self, tmp_path):
        rng = random.Random(7)
        for trial in range(20):
            frames = _frames(rng.randrange(1, 40), start_us=rng.randrange(10**9),
                             step_us=rng.randrange(1, 5000))
            path = tmp_path / f"t{trial}.pcap"
            write_pcap(frames, str(path))
            assert read_pcap(str(path)) == frames


    def test_frames_of_one_call_share_macs_and_ethertypes(self, tmp_path):
        sv = [encode_sv(SvApdu(appid=0x4000, svID="MU01", smpCnt=i), DST, SRC, 10**6 + i)
              for i in range(3)]
        path = tmp_path / "x.pcap"
        write_pcap(_frames(3) + sv, str(path))
        back = read_pcap(str(path))
        assert back == _frames(3) + sv
        for frames in (back[:3], back[3:]):  # GOOSE, then SV
            assert all(f.ethertype is frames[0].ethertype for f in frames)
        for f in back:
            assert f.dst_mac is back[0].dst_mac and f.src_mac is back[0].src_mac


class TestMagics:
    def test_little_endian_micro(self, tmp_path):
        path = tmp_path / "le.pcap"
        write_pcap(_frames(3), str(path))
        assert path.read_bytes()[:4] == struct.pack("<I", 0xA1B2C3D4)

    def test_big_endian_micro(self, tmp_path):
        frames = _frames(3, start_us=5_000_000)
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 0x40000, 1)
        body = b""
        for f in frames:
            data = f.dst_mac + f.src_mac + struct.pack(">H", f.ethertype) + f.payload
            body += struct.pack(">IIII", f.timestamp // 10**6, f.timestamp % 10**6,
                                len(data), len(data)) + data
        path = tmp_path / "be.pcap"
        path.write_bytes(header + body)
        assert read_pcap(str(path)) == frames

    def test_nanosecond_magic_truncates(self, tmp_path):
        header = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 0x40000, 1)
        f = _frames(1, start_us=1)[0]
        data = f.dst_mac + f.src_mac + struct.pack(">H", f.ethertype) + f.payload
        # ts_frac field holds nanoseconds: 1500ns -> 1us after truncation
        body = struct.pack("<IIII", 0, 1500, len(data), len(data)) + data
        path = tmp_path / "ns.pcap"
        path.write_bytes(header + body)
        got = read_pcap(str(path))
        assert len(got) == 1 and got[0].timestamp == 1

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 20)
        with pytest.raises(UnsupportedFormatError):
            read_pcap(str(path))

    def test_non_ethernet_linktype_rejected(self, tmp_path):
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 0x40000, 101)
        path = tmp_path / "raw.pcap"
        path.write_bytes(header)
        with pytest.raises(UnsupportedFormatError):
            read_pcap(str(path))


class TestTruncation:
    def test_truncated_record_reports_frame_index(self, tmp_path):
        frames = _frames(5)
        path = tmp_path / "cut.pcap"
        write_pcap(frames, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(TruncatedCaptureError) as info:
            read_pcap(str(path))
        assert info.value.frame_index == 4

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.pcap"
        path.write_bytes(struct.pack("<I", 0xA1B2C3D4) + b"\x00" * 5)
        with pytest.raises(UnsupportedFormatError):
            read_pcap(str(path))

    def test_runt_record_rejected(self, tmp_path):
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 0x40000, 1)
        body = struct.pack("<IIII", 0, 0, 4, 4) + b"abcd"  # < 14-byte ethernet header
        path = tmp_path / "runt.pcap"
        path.write_bytes(header + body)
        with pytest.raises(TruncatedCaptureError):
            read_pcap(str(path))

    def test_header_only_frame_has_empty_payload(self, tmp_path):
        frame = RawFrame(1_000_005, DST, SRC, 0x88BA, b"")
        path = tmp_path / "header-only.pcap"
        write_pcap([frame], str(path))
        assert path.stat().st_size == 24 + 16 + 14
        assert read_pcap(str(path)) == [frame]
        goose, sv, report = extract_records([frame])
        assert (goose, sv) == ([], [])
        assert (report.skipped_ethertype, report.skipped_decode_errors) == (0, 1)
        assert report.errors == ["frame 0: payload shorter than the 8-octet APDU header "
                                 "at offset 0"]


class TestWriteOrdering:
    def test_regressing_timestamps_rejected(self, tmp_path):
        frames = _frames(3)
        frames[2] = RawFrame(frames[1].timestamp - 1, frames[2].dst_mac,
                             frames[2].src_mac, frames[2].ethertype, frames[2].payload)
        with pytest.raises(OrderingViolationError):
            write_pcap(frames, str(tmp_path / "o.pcap"))

    def test_equal_timestamps_allowed(self, tmp_path):
        frames = _frames(2, step_us=0)
        path = tmp_path / "eq.pcap"
        write_pcap(frames, str(path))
        assert read_pcap(str(path)) == frames


def _tagged(frame, tci=b"\x80\x05"):
    """``frame`` inside one 802.1Q tag (priority 4, VLAN 5 by default)."""
    return RawFrame(frame.timestamp, frame.dst_mac, frame.src_mac, ETHERTYPE_VLAN,
                    tci + frame.ethertype.to_bytes(2, "big") + frame.payload)


class TestVlanTag:
    def _plain(self):
        goose = _frames(20)
        sv = [encode_sv(SvApdu(appid=0x4000, svID="MU01", smpCnt=i), DST, SRC, 25_000 + i * 208)
              for i in range(20)]
        return sorted(goose + sv, key=lambda frame: frame.timestamp)

    def test_tagged_frames_give_the_untagged_records(self, tmp_path):
        plain = self._plain()
        tagged = [_tagged(frame, tci=bytes([0x20 * (i % 8), i % 7]))
                  for i, frame in enumerate(plain)]
        path = tmp_path / "vlan.pcap"
        write_pcap(tagged, str(path))
        back = read_pcap(str(path))
        assert back == tagged
        goose, sv, report = extract_records(back)
        assert (goose, sv, report) == extract_records(plain)
        assert len(goose) == len(sv) == 20
        assert report.total == 0

    def test_in_memory_tagged_frames_give_the_untagged_records(self):
        plain = self._plain()
        tagged = [_tagged(frame, tci=bytes([0x20 * (i % 8), i % 7])) if i % 3 else frame
                  for i, frame in enumerate(plain)]
        goose, sv, report = extract_records(tagged)
        assert (goose, sv, report) == extract_records(plain)
        assert len(goose) == len(sv) == 20
        assert all(rec.ethertype == 0x88B8 for rec in goose)
        assert all(rec.ethertype == 0x88BA for rec in sv)

    def test_in_memory_tag_decode_errors_match_the_untagged_frame(self):
        plain = self._plain()
        plain[3] = RawFrame(plain[3].timestamp, DST, SRC, plain[3].ethertype,
                            plain[3].payload[:9])
        tagged = [_tagged(frame) for frame in plain]
        goose, sv, report = extract_records(tagged)
        assert (goose, sv, report) == extract_records(plain)
        assert report.skipped_decode_errors == 1 and report.errors[0].startswith("frame 3: ")

    def test_in_memory_tag_without_a_known_inner_frame_is_skipped(self):
        goose = _frames(1)[0]
        frames = [
            RawFrame(0, DST, SRC, ETHERTYPE_VLAN, b"\x80\x05"),  # no inner ethertype
            RawFrame(0, DST, SRC, ETHERTYPE_VLAN, b""),
            _tagged(RawFrame(0, DST, SRC, 0x0800, b"\x45" + bytes(19))),
            _tagged(_tagged(goose)),  # only one tag is stripped
        ]
        assert extract_records(frames) == ([], [], SkipReport(skipped_ethertype=4))

    def test_tag_around_a_foreign_ethertype_is_skipped(self, tmp_path):
        ip = RawFrame(0, DST, SRC, 0x0800, b"\x45" + bytes(19))
        short = RawFrame(1, DST, SRC, ETHERTYPE_VLAN, b"\x80\x05")  # no inner ethertype
        double = _tagged(_tagged(_frames(1, start_us=2)[0]))  # only one tag is stripped
        written = [_tagged(ip), short, double]
        path = tmp_path / "foreign.pcap"
        write_pcap(written, str(path))
        back = read_pcap(str(path))
        assert back == written
        goose, sv, report = extract_records(back)
        assert (goose, sv) == ([], [])
        assert (report.skipped_ethertype, report.skipped_decode_errors) == (3, 0)
