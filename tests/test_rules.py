import dataclasses
import random

import pytest

from gridsentry.errors import (
    InputOrderError,
    InvariantViolationError,
    SchemaError,
    WrongStreamError,
)
from gridsentry.records import GooseRecord, Label, LabeledDataset, SvRecord
from gridsentry.rules import (
    GOOSE_RULES,
    SV_RULES,
    Level,
    RuleId,
    RuleSet,
    StreamState,
    TimingConfig,
    detect_batch,
    is_cyclic_successor,
    load_ruleset,
    rule_class,
    save_ruleset,
    step_goose,
    step_sv,
    verdicts_to_predictions,
)

GOOSE_DM = "01:0c:cd:01:00:03"
SV_DM = "01:0c:cd:04:00:01"
SM = "00:00:00:27:34:31"

FULL = RuleSet.for_level(Level.FULL)
PARTIAL = RuleSet.for_level(Level.PARTIAL)
WITHOUT = RuleSet.for_level(Level.WITHOUT)


def g(time_us, st, sq, data1=False, data2=False):
    return GooseRecord(time_us=time_us, dm=GOOSE_DM, sm=SM, ethertype=0x88B8,
                       appid=3, datSet="d", goID="i", gocbRef="ref",
                       stNum=st, sqNum=sq, data1=data1, data2=data2)


def s(time_us, smp):
    return SvRecord(time_us=time_us, dm=SV_DM, sm=SM, ethertype=0x88BA,
                    appid=0x40, svID="MU01", smpCnt=smp)


def run_goose(records, rules=FULL):
    state = StreamState()
    out = []
    for i, rec in enumerate(records):
        state, vs = step_goose(state, rec, rules, index=i)
        out.extend(vs)
    return out


def run_sv(records, rules=FULL):
    state = StreamState()
    out = []
    for i, rec in enumerate(records):
        state, vs = step_sv(state, rec, rules, index=i)
        out.extend(vs)
    return out


def fired(verdicts):
    return {(v.record_index, v.rule) for v in verdicts}


class TestGooseRules:
    def test_clean_heartbeats_silent(self):
        recs = [g(i * 2_000_000, 1, i) for i in range(8)]
        assert run_goose(recs) == []

    def test_clean_event_silent(self):
        recs = [g(0, 1, 0), g(2_000_000, 1, 1), g(2_100_000, 2, 0, data1=True),
                g(2_104_000, 2, 1, data1=True)]
        assert run_goose(recs) == []

    def test_g_di_1_stale_sq(self):
        recs = [g(0, 1, 0), g(2_000_000, 1, 1), g(2_500_000, 1, 1)]
        assert fired(run_goose(recs)) == {(2, RuleId.G_DI_1)}

    def test_g_di_2_data_change_without_new_era(self):
        recs = [g(0, 1, 0), g(2_000_000, 1, 1, data1=True)]
        assert fired(run_goose(recs)) == {(1, RuleId.G_DI_2)}

    def test_g_di_2_data_change_with_wrong_sq(self):
        recs = [g(0, 1, 0), g(2_000_000, 2, 5, data1=True)]
        assert fired(run_goose(recs)) == {(1, RuleId.G_DI_2)}

    def test_g_di_3_st_decrease(self):
        recs = [g(0, 4, 0), g(2_000_000, 3, 0)]
        assert (1, RuleId.G_DI_3) in fired(run_goose(recs))

    def test_g_sys_1_long_silence(self):
        recs = [g(0, 1, 0), g(10_000_001, 1, 1)]
        assert fired(run_goose(recs)) == {(1, RuleId.G_SYS_1)}
        # exactly 10 s is still tolerated
        assert run_goose([g(0, 1, 0), g(10_000_000, 1, 1)]) == []

    def test_g_re_1_replayed_older_pair(self):
        recs = [g(0, 1, 0), g(2_000_000, 1, 1), g(2_500_000, 1, 0)]
        got = fired(run_goose(recs))
        assert (2, RuleId.G_RE_1) in got
        assert (2, RuleId.G_DI_1) in got  # replay is also a stale retransmission

    def test_g_re_1_requires_previously_seen_triple(self):
        # an unseen (st, sq) pair that merely decreases is injection, not replay
        recs = [g(0, 1, 5), g(2_000_000, 1, 3)]
        got = fired(run_goose(recs))
        assert (1, RuleId.G_DI_1) in got
        assert all(rule != RuleId.G_RE_1 for _, rule in got)

    def test_g_dos_1_window(self):
        recs = [g(i * 900, 1, i) for i in range(12)]
        got = fired(run_goose(recs))
        # the 11th arrival is the first to exceed 10 packets within 10 ms
        assert (10, RuleId.G_DOS_1) in got
        assert (11, RuleId.G_DOS_1) in got
        assert all(rule != RuleId.G_DOS_1 for idx, rule in got if idx < 10)

    def test_state_updates_even_on_anomaly(self):
        # after a stNum rollback the rolled-back value becomes the reference
        recs = [g(0, 4, 0), g(2_000_000, 3, 0), g(4_000_000, 4, 0)]
        got = fired(run_goose(recs))
        assert (1, RuleId.G_DI_3) in got
        # third record *increases* from the updated state, so no G_DI_3
        assert (2, RuleId.G_DI_3) not in got


class TestSvRules:
    def test_clean_stream_silent(self):
        recs = [s(i * 208, i % 4800) for i in range(100)]
        assert run_sv(recs) == []

    def test_wrap_is_clean(self):
        recs = [s(0, 4798), s(208, 4799), s(417, 0), s(625, 1)]
        assert run_sv(recs) == []

    def test_s_di_1_out_of_range(self):
        recs = [s(0, 10), s(208, 5000), s(417, 12)]
        got = fired(run_sv(recs))
        assert (1, RuleId.S_DI_1) in got
        # sequence rules skip pairs with an out-of-range endpoint
        assert got == {(1, RuleId.S_DI_1)}

    def test_s_di_2_reset_from_wrong_value(self):
        recs = [s(0, 100), s(208, 0)]
        got = fired(run_sv(recs))
        assert (1, RuleId.S_DI_2) in got
        assert (1, RuleId.S_SYS_1) in got

    def test_s_di_3_non_wrap_decrease(self):
        recs = [s(0, 100), s(208, 50)]
        got = fired(run_sv(recs))
        assert (1, RuleId.S_DI_3) in got

    def test_s_sys_1_skip(self):
        recs = [s(0, 100), s(208, 102)]
        assert fired(run_sv(recs)) == {(1, RuleId.S_SYS_1)}

    def test_s_dos_1_min_gap(self):
        recs = [s(0, 100), s(103, 101)]
        assert (1, RuleId.S_DOS_1) in fired(run_sv(recs))
        assert run_sv([s(0, 100), s(105, 101)]) == []

    def test_s_dos_2_window(self):
        recs = [s(i * 160, (100 + i) % 4800) for i in range(14)]
        got = fired(run_sv(recs))
        assert (13, RuleId.S_DOS_2) in got


class TestLevels:
    def test_without_fires_nothing(self):
        recs = [s(0, 100), s(10, 5000)]
        assert run_sv(recs, WITHOUT) == []

    def test_partial_excludes_sys_and_replay(self):
        goose_recs = [g(0, 1, 0), g(2_000_000, 1, 1), g(2_500_000, 1, 0),
                      g(15_000_000, 1, 2)]
        partial_rules = {v.rule for v in run_goose(goose_recs, PARTIAL)}
        assert RuleId.G_SYS_1 not in partial_rules
        assert RuleId.G_RE_1 not in partial_rules
        assert RuleId.G_DI_1 in partial_rules

    def test_monotone_verdict_growth(self):
        recs = [g(0, 1, 0), g(2_000_000, 1, 1), g(2_500_000, 1, 0),
                g(15_000_000, 1, 2), g(15_000_100, 2, 9, data1=True)]
        without = fired(run_goose(recs, WITHOUT))
        partial = fired(run_goose(recs, PARTIAL))
        full = fired(run_goose(recs, FULL))
        assert without <= partial <= full
        assert without == set()

    def test_mismatched_enabled_set_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("level = partial\nenabled = G_SYS_1\n")
        with pytest.raises(SchemaError, match="do not match level partial") as info:
            load_ruleset(str(path))
        assert (info.value.line, info.value.field) == (2, "enabled")

    def test_rule_tables(self):
        assert len(GOOSE_RULES) == 6 and len(SV_RULES) == 6
        assert {rule_class(r) for r in RuleId} == set(Label) - {Label.NORMAL}


class TestBatch:
    def test_verdicts_sorted_and_mapped(self):
        recs = [s(0, 100), s(208, 50), s(312, 5000)]
        ds = LabeledDataset("SV", recs, [Label.NORMAL, Label.DATA_INJECTION,
                                         Label.DATA_INJECTION])
        verdicts = detect_batch(ds, FULL)
        keys = [v.sort_key() for v in verdicts]
        assert keys == sorted(keys)
        preds = verdicts_to_predictions(verdicts, len(ds))
        assert preds == [False, True, True]

    def test_streams_are_independent(self):
        a = [s(0, 100), s(208, 101)]
        b = [SvRecord(time_us=50, dm=SV_DM, sm=SM, ethertype=0x88BA, appid=0x41,
                      svID="MU02", smpCnt=700),
             SvRecord(time_us=260, dm=SV_DM, sm=SM, ethertype=0x88BA, appid=0x41,
                      svID="MU02", smpCnt=701)]
        recs = sorted(a + b, key=lambda r: r.time_us)
        ds = LabeledDataset("SV", recs, [Label.NORMAL] * 4)
        assert detect_batch(ds, FULL) == []

    def test_trailing_goose_gap_uses_capture_end(self):
        recs = [g(0, 1, 0), g(2_000_000, 1, 1)]
        ds = LabeledDataset("GOOSE", recs, [Label.NORMAL, Label.SYSTEM_PROBLEM],
                            meta={"capture_end_us": 13_000_000})
        verdicts = detect_batch(ds, FULL)
        assert any(v.rule == RuleId.G_SYS_1 and v.record_index == 1
                   for v in verdicts)

    def test_wrong_stream_guard(self):
        state = StreamState()
        state, _ = step_sv(state, s(0, 1), FULL)
        other = SvRecord(time_us=10, dm=SV_DM, sm=SM, ethertype=0x88BA,
                         appid=0x40, svID="OTHER", smpCnt=2)
        with pytest.raises(WrongStreamError):
            step_sv(state, other, FULL)

    @pytest.mark.parametrize("protocol", ["GOOSE", "SV"])
    def test_time_regression_guard(self, protocol):
        step, first, earlier = ((step_goose, g(625, 1, 0), g(208, 1, 1)) if protocol == "GOOSE"
                                else (step_sv, s(625, 3), s(208, 4)))
        state, _ = step(StreamState(), first, FULL)
        with pytest.raises(InputOrderError, match="time regressed from 625 to 208"):
            step(state, earlier, FULL)

    @pytest.mark.parametrize("protocol", ["GOOSE", "SV"])
    def test_batch_rejects_other_protocol_record(self, protocol):
        own, foreign = (g(0, 1, 0), s(100, 1)) if protocol == "GOOSE" else (s(0, 1), g(100, 1, 0))
        ds = LabeledDataset(protocol, [own, foreign], [Label.NORMAL] * 2)
        with pytest.raises(WrongStreamError, match=f"record 1 is a .* in a {protocol} dataset"):
            detect_batch(ds, FULL)


class TestFrozenConfig:
    def test_ruleset_fields_cannot_be_assigned(self):
        rules = RuleSet.for_level(Level.FULL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rules.level = Level.WITHOUT
        with pytest.raises(dataclasses.FrozenInstanceError):
            rules.thresholds = TimingConfig(sv_dos_max_packets=1)

    def test_timing_config_fields_cannot_be_assigned(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FULL.thresholds.sv_interval_tolerance_pct = 10.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0, -1])
    def test_timing_config_rejects_non_positive_and_non_finite(self, value):
        thresholds = TimingConfig(sv_nominal_interval_us=value)
        with pytest.raises(InvariantViolationError, match="sv_nominal_interval_us"):
            thresholds.validate()
        with pytest.raises(InvariantViolationError, match="sv_nominal_interval_us"):
            RuleSet.for_level(Level.FULL, thresholds)

    def test_enabled_is_immutable(self):
        assert isinstance(FULL.enabled, frozenset)
        with pytest.raises(TypeError):  # derived from the level, never passed
            RuleSet(Level.PARTIAL, enabled=set(PARTIAL.enabled))


def brute_force_window_flags(timestamps, window_us, max_packets):
    """Quadratic reference: count arrivals in the closed trailing window."""
    flags = []
    for i, t in enumerate(timestamps):
        live = sum(1 for u in timestamps[: i + 1] if t - window_us <= u <= t)
        flags.append(live > max_packets)
    return flags


def stepper_window_flags(protocol, timestamps, window_us, max_packets):
    """One flag per arrival: did the stepper's own sliding window raise the
    protocol's window DoS rule (G_DOS_1 or S_DOS_2) on it?"""
    if protocol == "GOOSE":
        cfg = TimingConfig(goose_dos_window_us=window_us,
                           goose_dos_max_packets=max_packets)
        records = [g(t, 1, i) for i, t in enumerate(timestamps)]
        run, rule = run_goose, RuleId.G_DOS_1
    else:
        cfg = TimingConfig(sv_dos_window_us=window_us, sv_dos_max_packets=max_packets)
        records = [s(t, i % 4800) for i, t in enumerate(timestamps)]
        run, rule = run_sv, RuleId.S_DOS_2
    flags = [False] * len(records)
    for v in run(records, RuleSet.for_level(Level.FULL, cfg)):
        if v.rule == rule:
            flags[v.record_index] = True
    return flags


@pytest.mark.parametrize("protocol", ["GOOSE", "SV"])
class TestDosWindow:
    def test_matches_brute_force_randomized(self, protocol):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(0, 200)
            ts = sorted(rng.randrange(0, 5000) for _ in range(n))
            window = rng.choice([1, 10, 100, 2083, 10000])
            cap = rng.randrange(1, 15)
            assert stepper_window_flags(protocol, ts, window, cap) == \
                brute_force_window_flags(ts, window, cap)

    def test_window_is_closed(self, protocol):
        # 11 packets spanning exactly the window length must all count
        ts = list(range(0, 11))
        assert stepper_window_flags(protocol, ts, 10, 10) == [False] * 10 + [True]

    def test_duplicate_timestamps(self, protocol):
        ts = [5] * 13
        assert stepper_window_flags(protocol, ts, 1, 12) == [False] * 12 + [True]

    def test_empty(self, protocol):
        assert stepper_window_flags(protocol, [], 10, 10) == []
        assert detect_batch(LabeledDataset(protocol, [], []), FULL) == []


class TestDosOracleConsistency:
    def test_step_window_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randrange(1, 120)
            ts = sorted(rng.randrange(0, 40_000) for _ in range(n))
            assert stepper_window_flags("GOOSE", ts, 10_000, 10) == \
                brute_force_window_flags(ts, 10_000, 10)


class TestRulesetFiles:
    def test_save_load_round_trip(self, tmp_path):
        thresholds = TimingConfig(goose_dos_max_packets=7, sv_interval_tolerance_pct=40.0)
        rules = RuleSet.for_level(Level.FULL, thresholds)
        path = tmp_path / "rules.txt"
        save_ruleset(rules, str(path))
        back = load_ruleset(str(path))
        assert back.level == rules.level
        assert back.enabled == rules.enabled
        assert back.thresholds == rules.thresholds

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-5"])
    def test_threshold_must_be_positive_and_finite(self, tmp_path, value):
        path = tmp_path / "rules.txt"
        path.write_text(f"level = full\ngoose_heartbeat_max_gap_us = {value}\n")
        with pytest.raises(InvariantViolationError, match="goose_heartbeat_max_gap_us"):
            load_ruleset(str(path))

    def test_threshold_that_is_not_a_number(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("level = full\n\nsv_dos_max_packets = ten\n")
        with pytest.raises(SchemaError) as info:
            load_ruleset(str(path))
        assert (info.value.line, info.value.field) == (3, "sv_dos_max_packets")

    def test_text_is_key_value(self, tmp_path):
        path = tmp_path / "rules.txt"
        save_ruleset(RuleSet.for_level(Level.PARTIAL), str(path))
        for line in path.read_text().splitlines():
            if line and not line.startswith("#"):
                assert "=" in line


def test_cyclic_successor_edges():
    assert is_cyclic_successor(4799, 0)
    assert is_cyclic_successor(7, 8)
    assert not is_cyclic_successor(4799, 1)
    assert not is_cyclic_successor(0, 0)
