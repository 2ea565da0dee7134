"""End-to-end acceptance checks, one test per release criterion."""

import json
import random
import string
import time

import numpy as np

from gridsentry.cli import main as cli_main
from gridsentry.frames import GooseApdu, RawFrame, SvApdu, decode_goose, decode_sv, \
    encode_goose, encode_sv
from gridsentry.errors import ToolkitError
from gridsentry.llm import ChatClientConfig, RulesMockClient, detect_llm
from gridsentry.metrics import ConfusionCounts, confusion, metrics
from gridsentry.pcapio import read_pcap, write_pcap
from gridsentry.records import GooseRecord, Label, SvRecord, save_jsonl
from gridsentry.rules import (
    Level,
    RuleId,
    RuleSet,
    StreamState,
    TimingConfig,
    detect_batch,
    is_cyclic_successor,
    rule_class,
    step_goose,
    step_sv,
    verdicts_to_predictions,
)
from gridsentry.simulate import ScenarioConfig, gen_sv_normal, make_eval_set

FULL = RuleSet.for_level(Level.FULL)
PARTIAL = RuleSet.for_level(Level.PARTIAL)
WITHOUT = RuleSet.for_level(Level.WITHOUT)

DST = bytes.fromhex("010ccd010003")
SRC = bytes.fromhex("000000273431")


def test_criterion_1_metric_reproduction():
    """Reference confusion geometries reproduce the published percentages
    within +/-0.05 percentage points, in under a second."""
    start = time.perf_counter()
    expectations = [
        # (counts, tpr, fpr, fnr, precision, f1) in percent
        (ConfusionCounts(tp=54, fn=1, fp=1, tn=24), 98.18, 4.00, 1.82, 98.18, 98.18),
        (ConfusionCounts(tp=58, fn=2, fp=0, tn=20), 96.67, 0.00, 3.33, 100.00, 98.30),
    ]
    for counts, tpr, fpr, fnr, precision, f1 in expectations:
        r = metrics(counts)
        assert abs(r.tpr * 100 - tpr) <= 0.05
        assert abs(r.fpr * 100 - fpr) <= 0.05
        assert abs(r.fnr * 100 - fnr) <= 0.05
        assert abs(r.precision * 100 - precision) <= 0.05
        assert abs(r.f1 * 100 - f1) <= 0.05
    assert time.perf_counter() - start < 1.0


def test_criterion_2_rule_engine_soundness_completeness(eval_scenarios):
    """detect_batch at the full level separates every seeded scenario
    perfectly: TPR = 100%, FPR = 0%, in under 60 s total."""
    start = time.perf_counter()
    assert len(eval_scenarios) == 200
    for ds in eval_scenarios:
        assert len(ds) <= 5000
        predictions = verdicts_to_predictions(detect_batch(ds, FULL), len(ds))
        counts = confusion(ds.labels, predictions)
        assert counts.fn == 0, f"{ds.meta}: {counts}"
        assert counts.fp == 0, f"{ds.meta}: {counts}"
        assert counts.tp == sum(1 for l in ds.labels if l != Label.NORMAL)
    assert time.perf_counter() - start < 60.0


def test_criterion_3_level_monotonicity(eval_scenarios):
    """Verdict sets grow monotonically with the training level, and the
    partial level never emits system-problem or replay verdicts."""
    banned = {Label.SYSTEM_PROBLEM, Label.REPLAY}
    for ds in eval_scenarios:
        sets = {}
        for name, rules in (("without", WITHOUT), ("partial", PARTIAL),
                            ("full", FULL)):
            sets[name] = {(v.record_index, v.rule) for v in detect_batch(ds, rules)}
        assert sets["without"] <= sets["partial"] <= sets["full"]
        assert sets["without"] == set()
        assert all(rule_class(rule) not in banned for _, rule in sets["partial"])


def _brute_force_flags(ts, window, cap):
    """Explicit O(n^2) pairwise oracle on the closed trailing window."""
    t = np.asarray(ts, dtype=np.int64)
    n = len(t)
    if n == 0:
        return []
    diff = t[:, None] - t[None, :]
    within = (diff >= 0) & (diff <= window)
    earlier = np.tril(np.ones((n, n), dtype=bool))
    return (np.logical_and(within, earlier).sum(axis=1) > cap).tolist()


def _stepper_window_flags(protocol, ts, window, cap):
    """Per-arrival window DoS verdicts (G_DOS_1 from step_goose, S_DOS_2 from
    step_sv) of one stream whose records arrive at ``ts``."""
    if protocol == "GOOSE":
        thresholds = TimingConfig(goose_dos_window_us=window, goose_dos_max_packets=cap)
        step, rule = step_goose, RuleId.G_DOS_1
        records = [GooseRecord(time_us=t, dm="01:0c:cd:01:00:03", sm="00:00:00:27:34:31",
                               ethertype=0x88B8, appid=3, datSet="d", goID="i",
                               gocbRef="ref", stNum=1, sqNum=i, data1=False, data2=False)
                   for i, t in enumerate(ts)]
    else:
        thresholds = TimingConfig(sv_dos_window_us=window, sv_dos_max_packets=cap)
        step, rule = step_sv, RuleId.S_DOS_2
        records = [SvRecord(time_us=t, dm="01:0c:cd:04:00:01", sm="00:00:00:27:34:31",
                            ethertype=0x88BA, appid=0x40, svID="MU01", smpCnt=i % 4800)
                   for i, t in enumerate(ts)]
    rules = RuleSet.for_level(Level.FULL, thresholds)
    state = StreamState()
    flags = []
    for i, rec in enumerate(records):
        state, verdicts = step(state, rec, rules, index=i)
        flags.append(any(v.rule == rule for v in verdicts))
    return flags


def test_criterion_4_dos_window_oracle():
    """The steppers' sliding window matches the quadratic oracle on 1,000
    random multisets for both protocol thresholds: GOOSE through step_goose,
    SV through step_sv."""
    rng = random.Random(1234)
    for trial in range(1000):
        n = rng.randrange(0, 501)
        span = rng.choice([1_000, 30_000, 1_000_000])
        ts = sorted(rng.randrange(0, span) for _ in range(n))
        for protocol, window, cap in (("GOOSE", 10_000, 10), ("SV", 2_083, 12)):
            assert _stepper_window_flags(protocol, ts, window, cap) == \
                _brute_force_flags(ts, window, cap), f"trial {trial}"


def test_criterion_5_smp_cnt_wrap_exhaustion():
    """The cyclic-successor predicate, checked over all 4800^2 ordered
    pairs, accepts exactly the 4,800 wrap-around increments."""
    start = time.perf_counter()
    modulus = 4800
    accepted = [(a, b) for a in range(modulus) for b in range(modulus)
                if is_cyclic_successor(a, b, modulus)]
    expected = [(a, a + 1) for a in range(modulus - 1)] + [(modulus - 1, 0)]
    assert sorted(accepted) == sorted(expected)
    assert len(accepted) == 4800
    assert time.perf_counter() - start < 60.0


def _rand_text(rng, n=10):
    return "".join(rng.choice(string.ascii_letters + "$/_") for _ in range(n))


def test_criterion_6_codec_round_trip(tmp_path):
    """10,000 fuzzed APDUs and 1,000 fuzzed pcap files round-trip
    field-exact; decoders survive 100,000 random byte strings."""
    rng = random.Random(55)

    for _ in range(5000):
        apdu = GooseApdu(
            appid=rng.randrange(1 << 16), gocbRef=_rand_text(rng),
            datSet=_rand_text(rng), goID=_rand_text(rng),
            stNum=rng.randrange(1 << 32), sqNum=rng.randrange(1 << 32),
            data1=rng.random() < 0.5, data2=rng.random() < 0.5,
            ttl_ms=rng.choice([None, rng.randrange(1 << 32)]),
        )
        assert decode_goose(encode_goose(apdu, DST, SRC, 0)) == apdu
    for _ in range(5000):
        apdu = SvApdu(appid=rng.randrange(1 << 16), svID=_rand_text(rng),
                      smpCnt=rng.randrange(4800))
        assert decode_sv(encode_sv(apdu, DST, SRC, 0)) == apdu

    path = str(tmp_path / "fuzz.pcap")
    for _ in range(1000):
        frames = []
        t = rng.randrange(10**9)
        for _ in range(rng.randrange(0, 8)):
            t += rng.randrange(0, 10_000)
            if rng.random() < 0.5:
                apdu = GooseApdu(appid=3, gocbRef=_rand_text(rng), datSet="d",
                                 goID="i", stNum=rng.randrange(100),
                                 sqNum=rng.randrange(100),
                                 data1=False, data2=True)
                frames.append(encode_goose(apdu, DST, SRC, t))
            else:
                apdu = SvApdu(appid=0x40, svID=_rand_text(rng),
                              smpCnt=rng.randrange(4800))
                frames.append(encode_sv(apdu, DST, SRC, t))
        write_pcap(frames, path)
        assert read_pcap(path) == frames

    for i in range(100_000):
        blob = rng.randbytes(rng.randrange(0, 64))
        frame_g = RawFrame(0, DST, SRC, 0x88B8, blob)
        frame_s = RawFrame(0, DST, SRC, 0x88BA, blob)
        try:
            decode_goose(frame_g)
        except ToolkitError:
            pass
        try:
            decode_sv(frame_s)
        except ToolkitError:
            pass


def test_criterion_7_sv_timing_fidelity():
    """A jitter-free one-second SV scenario holds exactly 4,800 records,
    keeps the mean inter-arrival within 1% of 208.33 us, and raises no
    flood verdicts."""
    ds = gen_sv_normal(ScenarioConfig(protocol="SV", duration_us=1_000_000,
                                      seed=0, jitter_pct=0.0))
    assert len(ds) == 4800
    ts = [rec.time_us for rec in ds.records]
    gaps = [b - a for a, b in zip(ts, ts[1:])]
    nominal = 1_000_000 / 4800
    mean = sum(gaps) / len(gaps)
    assert abs(mean - nominal) / nominal < 0.01
    verdicts = detect_batch(ds, FULL)
    assert not any(rule_class(v.rule) == Label.DOS for v in verdicts)
    assert verdicts == []


def test_criterion_8_pipeline_equivalence(eval_scenarios):
    """Routing the rule engine through the prompt/parse pipeline loses
    nothing: the prediction vectors match on every scenario."""
    cfg = ChatClientConfig(window_size=20)
    for ds in eval_scenarios:
        direct = verdicts_to_predictions(detect_batch(ds, FULL), len(ds))
        report = detect_llm(ds, FULL, cfg, RulesMockClient(ds, FULL))
        assert report.failed_windows == []
        assert report.predictions == direct, ds.meta


def test_criterion_9_cli_determinism(tmp_path):
    """gen -> detect -> eval is byte-deterministic across runs, and one
    full pass over an 80-record eval set finishes in under 5 s."""
    eval_ds = make_eval_set("SV", anomalies=60, normals=20, seed=17)
    assert len(eval_ds) == 80

    def pipeline(tag):
        base = tmp_path / tag
        base.mkdir()
        gen_out = base / "gen.jsonl"
        assert cli_main(["gen", "--protocol", "sv", "--duration", "40ms",
                         "--seed", "21", "--inject", "di:2,dos:1",
                         "--out", str(gen_out)]) == 0
        labels = base / "eval.jsonl"
        save_jsonl(eval_ds, str(labels))
        pred = base / "pred.json"
        verd = base / "verdicts.jsonl"
        assert cli_main(["detect", "--engine", "rules", "--level", "full",
                         "--in", str(labels), "--predictions", str(pred),
                         "--verdicts", str(verd)]) == 0
        prefix = base / "report"
        assert cli_main(["eval", "--labels", str(labels),
                         "--pred", f"rules={pred}",
                         "--out-prefix", str(prefix)]) == 0
        return {p.name: p.read_bytes() for p in sorted(base.iterdir())}

    start = time.perf_counter()
    first = pipeline("run1")
    elapsed = time.perf_counter() - start
    second = pipeline("run2")
    assert first == second
    assert elapsed < 5.0

    report = json.loads(first["report.json"])
    assert report[0]["metrics"]["tpr"] == 1.0
    assert report[0]["metrics"]["fpr"] == 0.0


def test_pcap_path_matches_jsonl_path(tmp_path):
    """gen -> detect and gen -> pcap -> decode -> detect flag the same records,
    so out-of-range smpCnt injections survive pcap export unchanged."""
    gen_out, pcap, decoded = (str(tmp_path / n) for n in
                              ("gen.jsonl", "gen.pcap", "decoded.jsonl"))
    assert cli_main(["gen", "--protocol", "sv", "--duration", "50ms", "--seed", "3",
                     "--inject", "di:4", "--out", gen_out, "--pcap", pcap]) == 0
    assert cli_main(["pcap", "decode", "--in", pcap, "--out", decoded]) == 0

    def predictions(path, tag):
        pred = tmp_path / f"{tag}.json"
        assert cli_main(["detect", "--engine", "rules", "--level", "full",
                         "--in", path, "--predictions", str(pred)]) == 0
        return json.loads(pred.read_text())["predictions"]

    direct = predictions(gen_out, "direct")
    assert sum(direct) == 4
    assert predictions(decoded, "via-pcap") == direct
