import random
import string

import pytest

from gridsentry.errors import (
    DecodeError,
    InvariantViolationError,
    MissingFieldError,
    ProtocolMismatchError,
    ToolkitError,
    UnsupportedShapeError,
)
from gridsentry.frames import (
    GooseApdu,
    RawFrame,
    SvApdu,
    decode_goose,
    decode_sv,
    encode_goose,
    encode_sv,
)

DST = bytes.fromhex("010ccd010003")
SRC = bytes.fromhex("000000273431")


def _text(rng, n=12):
    return "".join(rng.choice(string.ascii_letters + string.digits + "$/_") for _ in range(n))


def _random_goose(rng):
    return GooseApdu(
        appid=rng.randrange(1 << 16),
        gocbRef=_text(rng), datSet=_text(rng), goID=_text(rng),
        stNum=rng.randrange(1 << 32), sqNum=rng.randrange(1 << 32),
        data1=rng.random() < 0.5, data2=rng.random() < 0.5,
        ttl_ms=rng.choice([None, rng.randrange(1 << 32)]),
    )


def _random_sv(rng):
    return SvApdu(appid=rng.randrange(1 << 16), svID=_text(rng),
                  smpCnt=rng.randrange(4800))


class TestGooseRoundTrip:
    def test_basic(self):
        apdu = GooseApdu(appid=3, gocbRef="IED1/LLN0$GO$gcb1", datSet="IED1/LLN0$ds1",
                         goID="gcb1", stNum=7, sqNum=2, data1=True, data2=False)
        frame = encode_goose(apdu, DST, SRC, 123456)
        assert frame.ethertype == 0x88B8
        assert frame.timestamp == 123456
        back = decode_goose(frame)
        assert back == apdu or (back.ttl_ms is None and apdu.ttl_ms is None)
        assert (back.appid, back.stNum, back.sqNum) == (3, 7, 2)

    def test_fuzzed_values(self):
        rng = random.Random(101)
        for _ in range(500):
            apdu = _random_goose(rng)
            back = decode_goose(encode_goose(apdu, DST, SRC, 0))
            assert back == apdu

    def test_zero_counters_round_trip(self):
        apdu = GooseApdu(appid=0, gocbRef="g", datSet="d", goID="i",
                         stNum=0, sqNum=0, data1=False, data2=False)
        assert decode_goose(encode_goose(apdu, DST, SRC, 0)) == apdu

    def test_wrong_ethertype_rejected(self):
        apdu = _random_sv(random.Random(0))
        frame = encode_sv(apdu, DST, SRC, 0)
        with pytest.raises(ProtocolMismatchError):
            decode_goose(frame)

    def test_vlan_tagged_rejected(self):
        frame = RawFrame(0, DST, SRC, 0x8100, b"\x00" * 20)
        with pytest.raises(UnsupportedShapeError):
            decode_goose(frame)

    def test_missing_field_rejected(self):
        apdu = GooseApdu(appid=3, gocbRef="g", datSet="d", goID="i",
                         stNum=1, sqNum=0, data1=False, data2=False)
        frame = encode_goose(apdu, DST, SRC, 0)
        # strip the final TLV (allData) out of the PDU
        truncated = RawFrame(0, DST, SRC, 0x88B8, frame.payload[:-10])
        with pytest.raises((MissingFieldError, DecodeError)):
            decode_goose(truncated)


class TestSvRoundTrip:
    def test_basic(self):
        apdu = SvApdu(appid=0x40, svID="MU01", smpCnt=0)
        back = decode_sv(encode_sv(apdu, DST, SRC, 5))
        assert back == apdu

    def test_smp_cnt_boundary(self):
        # the wire field is 16 bits: out-of-range counts (S_DI_1 attacks)
        # must survive encode -> decode exactly
        for smp in (4799, 4800, 65535):
            apdu = SvApdu(appid=0x40, svID="MU01", smpCnt=smp)
            assert decode_sv(encode_sv(apdu, DST, SRC, 0)).smpCnt == smp
        with pytest.raises(InvariantViolationError):
            encode_sv(SvApdu(appid=0x40, svID="MU01", smpCnt=65536), DST, SRC, 0)

    def test_fuzzed_values(self):
        rng = random.Random(202)
        for _ in range(500):
            apdu = _random_sv(rng)
            assert decode_sv(encode_sv(apdu, DST, SRC, 0)) == apdu

    def test_wrong_ethertype_rejected(self):
        frame = encode_goose(_random_goose(random.Random(1)), DST, SRC, 0)
        with pytest.raises(ProtocolMismatchError):
            decode_sv(frame)


class TestDecoderRobustness:
    def test_random_bytes_never_crash(self):
        rng = random.Random(303)
        for _ in range(2000):
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            frame_g = RawFrame(0, DST, SRC, 0x88B8, payload)
            frame_s = RawFrame(0, DST, SRC, 0x88BA, payload)
            for decoder, frame in ((decode_goose, frame_g), (decode_sv, frame_s)):
                try:
                    decoder(frame)
                except ToolkitError:
                    pass  # structured rejection is the contract

    def test_bitflipped_valid_frames_never_crash(self):
        rng = random.Random(404)
        base = encode_goose(_random_goose(rng), DST, SRC, 0).payload
        for _ in range(500):
            mutated = bytearray(base)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            try:
                decode_goose(RawFrame(0, DST, SRC, 0x88B8, bytes(mutated)))
            except ToolkitError:
                pass


class TestValidation:
    def test_goose_range_checks(self):
        bad = GooseApdu(appid=1 << 16, gocbRef="g", datSet="d", goID="i",
                        stNum=0, sqNum=0, data1=False, data2=False)
        with pytest.raises(InvariantViolationError):
            bad.validate()
        with pytest.raises(InvariantViolationError):
            GooseApdu(appid=1, gocbRef="", datSet="d", goID="i",
                      stNum=0, sqNum=0, data1=False, data2=False).validate()

    def test_sv_range_checks(self):
        with pytest.raises(InvariantViolationError):
            SvApdu(appid=1, svID="", smpCnt=0).validate()
        # encode and decode share one check: any 16-bit smpCnt passes both
        apdu = SvApdu(appid=1, svID="x", smpCnt=65535)
        assert decode_sv(encode_sv(apdu, DST, SRC, 0)) == apdu
        for bad in (-1, 1 << 16):
            with pytest.raises(InvariantViolationError):
                SvApdu(appid=1, svID="x", smpCnt=bad).validate()
