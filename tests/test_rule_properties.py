"""Hypothesis property: ``detect_batch`` equals stepping each stream through
the public ``step_goose``/``step_sv`` and sorting the verdicts."""

from hypothesis import given, settings, strategies as st

from gridsentry.frames import ETHERTYPE_GOOSE, ETHERTYPE_SV
from gridsentry.records import GooseRecord, Label, LabeledDataset, SvRecord
from gridsentry.rules import (
    Level,
    RuleId,
    RuleSet,
    StreamKey,
    StreamState,
    TimingConfig,
    Verdict,
    detect_batch,
    step_goose,
    step_sv,
)

# Deterministic examples, no example database written to the checkout.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Two MACs and two identities, so streams share addresses; a step of 0
# repeats a timestamp, and the long steps cross the GOOSE silence limits.
_MAC = st.sampled_from(["01:0c:cd:04:00:01", "00:00:00:27:34:31"])
_IDENTITY = st.sampled_from(["MU01", "MU02"])
_STEP_US = st.sampled_from([0, 1, 100, 125, 208, 209, 2_000, 1_500_000, 10_000_001])
_SMP_CNT = st.one_of(st.just("next"), st.sampled_from([0, 4798, 4799, 4800, 65535]),
                     st.integers(0, 5000))
_GOOSE_MOVE = st.sampled_from(["retransmit", "event", "replay", "stale", "other"])

_TIMING = st.builds(
    TimingConfig,
    goose_dos_max_packets=st.integers(1, 10),
    goose_heartbeat_max_gap_us=st.sampled_from([1_000_000, 10_000_000]),
    sv_dos_window_us=st.sampled_from([250, 2_083]),
    sv_dos_max_packets=st.integers(1, 12),
    sv_interval_tolerance_pct=st.sampled_from([50.0, 40.0, 90.0]),
)


def _next_goose(draw, past):
    """(stNum, sqNum, data1, data2) of a stream's next record."""
    if not past:
        return (draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                draw(st.booleans()), draw(st.booleans()))
    st_num, sq_num, data1, data2 = past[-1]
    move = draw(_GOOSE_MOVE)
    if move == "retransmit":
        return st_num, sq_num + 1, data1, data2
    if move == "event":
        return st_num + 1, 0, not data1, data2
    if move == "replay":
        return draw(st.sampled_from(past))
    if move == "stale":
        return st_num, sq_num, data1, data2
    return (draw(st.integers(0, 5)), draw(st.integers(0, 5)),
            draw(st.booleans()), draw(st.booleans()))


@st.composite
def datasets(draw):
    protocol = draw(st.sampled_from(["GOOSE", "SV"]))
    time_us = draw(st.integers(0, 1_000_000))
    history = {}  # stream -> its records' counters so far
    recs = []
    for _ in range(draw(st.integers(1, 40))):
        time_us += draw(_STEP_US)
        dm, sm, identity = draw(_MAC), draw(_MAC), draw(_IDENTITY)
        past = history.setdefault((dm, sm, identity), [])
        if protocol == "GOOSE":
            counters = _next_goose(draw, past)
            recs.append(GooseRecord(time_us, dm, sm, ETHERTYPE_GOOSE, 3, "ds", "go",
                                    identity, *counters))
        else:
            smp = draw(_SMP_CNT)
            if smp == "next":
                smp = (past[-1][0] + 1) % 4800 if past else 0
            counters = (smp,)
            recs.append(SvRecord(time_us, dm, sm, ETHERTYPE_SV, 0x40, identity, smp))
        past.append(counters)
    end = time_us + draw(st.sampled_from([0, 999_999, 1_000_001, 20_000_000]))
    return protocol, recs, end


def by_public_steppers(dataset, rules):
    """Each stream through the public stepper, plus the capture-end G_SYS_1."""
    step = step_goose if dataset.protocol == "GOOSE" else step_sv
    states, last_index, verdicts = {}, {}, []
    for i, rec in enumerate(dataset.records):
        key = StreamKey.of(rec)
        states[key], found = step(states.get(key) or StreamState(), rec, rules, i)
        last_index[key] = i
        verdicts.extend(found)
    end = dataset.meta.get("capture_end_us")
    if end is not None and dataset.protocol == "GOOSE" and RuleId.G_SYS_1 in rules.enabled:
        for key, state in states.items():
            gap = end - state.last_time_us
            if gap > rules.thresholds.goose_heartbeat_max_gap_us:
                verdicts.append(Verdict(last_index[key], Label.SYSTEM_PROBLEM,
                                        RuleId.G_SYS_1,
                                        f"stream silent for {gap} us before capture end"))
    return sorted(verdicts, key=Verdict.sort_key)


@given(datasets(), _TIMING)
@PROPERTY
def test_batch_equals_public_steppers(drawn, timing):
    protocol, recs, end = drawn
    labels = [Label.NORMAL] * len(recs)
    for level in Level:
        rules = RuleSet.for_level(level, timing)
        for meta in ({}, {"capture_end_us": end}):
            dataset = LabeledDataset(protocol, recs, labels, meta)
            assert detect_batch(dataset, rules) == by_public_steppers(dataset, rules)
