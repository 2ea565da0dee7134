"""G_RE_1's replay memory: sqNum runs per (stNum, data1, data2) plus a spill
set must answer every membership test as the plain set of (stNum, sqNum,
data1, data2) tuples did, while holding one run per clean era."""

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from hypothesis import given, settings, strategies as st

from gridsentry.frames import ETHERTYPE_GOOSE
from gridsentry.records import GooseRecord, Label, LabeledDataset
from gridsentry.rules import (
    Level,
    RuleId,
    RuleSet,
    StreamState,
    Verdict,
    _dos_check,
    _seen_before,
    detect_batch,
    step_goose,
)
from gridsentry.simulate import ScenarioConfig, gen_goose_normal

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
FULL = RuleSet.for_level(Level.FULL)


# --- the set memory, kept verbatim as the oracle ----------------------------

@dataclass
class SetState:
    key: Optional[tuple] = None
    last_st_num: Optional[int] = None
    last_sq_num: Optional[int] = None
    last_data: Optional[Tuple[bool, bool]] = None
    last_smp_cnt: Optional[int] = None
    last_time_us: Optional[int] = None
    dos_window: deque = field(default_factory=deque)
    seen: Set[Tuple[int, int, bool, bool]] = field(default_factory=set)


def set_memory_step_goose(state: SetState, rec: GooseRecord, rules: RuleSet,
                          index: int) -> List[Verdict]:
    """The GOOSE rules on one record of ``state``'s stream; updates ``state``."""
    on = rules._on
    cfg = rules.thresholds
    verdicts: List[Verdict] = []
    st_num, sq_num, time_us = rec.stNum, rec.sqNum, rec.time_us
    data = (rec.data1, rec.data2)
    triple = (st_num, sq_num, rec.data1, rec.data2)

    if state.last_time_us is not None:
        gap = time_us - state.last_time_us
        if gap > cfg.goose_heartbeat_max_gap_us and "G_SYS_1" in on:
            verdicts.append(Verdict(index, Label.SYSTEM_PROBLEM, RuleId.G_SYS_1,
                                    f"silence of {gap} us exceeds "
                                    f"{cfg.goose_heartbeat_max_gap_us} us"))

    last_st = state.last_st_num
    if last_st is not None:
        last_sq = state.last_sq_num
        data_changed = data != state.last_data
        if (st_num == last_st and not data_changed and sq_num <= last_sq
                and "G_DI_1" in on):
            verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.G_DI_1,
                                    f"sqNum {sq_num} did not increase past "
                                    f"{last_sq} within stNum {st_num}"))
        if (data_changed and not (st_num == last_st + 1 and sq_num == 0)
                and "G_DI_2" in on):
            verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.G_DI_2,
                                    f"data changed to {data} but counters went "
                                    f"({last_st},{last_sq}) -> "
                                    f"({st_num},{sq_num}) instead of "
                                    f"({last_st + 1},0)"))
        if st_num < last_st and "G_DI_3" in on:
            verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.G_DI_3,
                                    f"stNum decreased {last_st} -> {st_num}"))
        if ((st_num, sq_num) < (last_st, last_sq) and triple in state.seen
                and "G_RE_1" in on):
            verdicts.append(Verdict(index, Label.REPLAY, RuleId.G_RE_1,
                                    f"older (stNum={st_num}, sqNum={sq_num}) "
                                    f"resurfaced after ({last_st},"
                                    f"{last_sq}) was observed"))

    if (_dos_check(state, time_us, cfg.goose_dos_window_us, cfg.goose_dos_max_packets)
            and "G_DOS_1" in on):
        verdicts.append(Verdict(index, Label.DOS, RuleId.G_DOS_1,
                                f"more than {cfg.goose_dos_max_packets} packets within "
                                f"{cfg.goose_dos_window_us} us ending at t={time_us}"))

    state.seen.add(triple)
    state.last_st_num = st_num
    state.last_sq_num = sq_num
    state.last_data = data
    state.last_time_us = time_us
    return verdicts


# --- streams ----------------------------------------------------------------

_MOVE = st.sampled_from(["retransmit", "retransmit", "event", "replay", "repeat", "back",
                         "gap", "flip", "older"])


def _rec(time_us, identity, st_num, sq_num, data1, data2):
    return GooseRecord(time_us, "01:0c:cd:01:00:03", "00:00:00:27:34:31", ETHERTYPE_GOOSE,
                       3, "ds", "go", identity, st_num, sq_num, data1, data2)


@st.composite
def streams(draw):
    """GOOSE records of one or two control blocks with replays, out-of-order
    and repeated sqNums, deletion gaps and data flips."""
    time_us = 0
    history = {}
    recs = []
    for _ in range(draw(st.integers(1, 80))):
        time_us += draw(st.sampled_from([1, 500, 4_000, 2_000_000]))
        identity = draw(st.sampled_from(["gcb01", "gcb01", "gcb02"]))
        past = history.setdefault(identity, [])
        if not past:
            counters = (draw(st.integers(0, 3)), draw(st.integers(0, 3)), False, False)
        else:
            st_num, sq_num, data1, data2 = past[-1]
            move = draw(_MOVE)
            if move == "retransmit":
                counters = st_num, sq_num + 1, data1, data2
            elif move == "event":
                counters = st_num + 1, 0, not data1, data2
            elif move == "replay":
                counters = draw(st.sampled_from(past))
            elif move == "repeat":
                counters = past[-1]
            elif move == "back":
                counters = st_num, sq_num - draw(st.integers(1, 4)), data1, data2
            elif move == "gap":
                counters = st_num, sq_num + draw(st.integers(2, 5)), data1, data2
            elif move == "flip":
                counters = st_num, sq_num + 1, data1, not data2
            else:  # older
                old = draw(st.sampled_from(past))
                counters = old[0], draw(st.integers(0, 8)), old[2], old[3]
        recs.append(_rec(time_us, identity, *counters))
        past.append(counters)
    return recs


# --- properties --------------------------------------------------------------

@given(streams())
@PROPERTY
def test_run_memory_answers_as_set_memory(recs):
    """Before every record, the runs and spill set hold its (stNum, sqNum,
    data1, data2) exactly when the set does, and the verdicts agree."""
    states, oracles, want = {}, {}, []
    for i, rec in enumerate(recs):
        state = states.setdefault(rec.gocbRef, StreamState())
        oracle = oracles.setdefault(rec.gocbRef, SetState())
        triple = (rec.stNum, rec.sqNum, rec.data1, rec.data2)
        runs = state.seen.get((rec.stNum, rec.data1, rec.data2))
        assert _seen_before(state, runs, triple) == (triple in oracle.seen)
        want.extend(set_memory_step_goose(oracle, rec, FULL, i))
        step_goose(state, rec, FULL, i)
    dataset = LabeledDataset("GOOSE", recs, [Label.NORMAL] * len(recs))
    assert detect_batch(dataset, FULL) == sorted(want, key=Verdict.sort_key)


def test_clean_multi_era_day_holds_one_run_per_era():
    cfg = ScenarioConfig(protocol="GOOSE", duration_us=86_400_000_000, seed=7,
                         goose_event_count=40)
    dataset = gen_goose_normal(cfg)
    state = StreamState()
    for i, rec in enumerate(dataset.records):
        step_goose(state, rec, FULL, i)
    eras = {}
    for rec in dataset.records:
        eras[rec.stNum, rec.data1, rec.data2] = rec.sqNum + 1
    assert len(eras) == 41
    assert state.seen == {group: [0, end] for group, end in eras.items()}
    assert state.seen_spill == set()


def test_descending_sq_nums_go_to_the_spill_set():
    """A sqNum below the last run never lands in the middle of the run list,
    so adversarial descending counters cost one set insert each."""
    n = 5_000
    state = StreamState()
    for i in range(n):
        step_goose(state, _rec(i, "gcb01", 1, 2 * (n - i), False, False), FULL, i)
    assert state.seen == {(1, False, False): [2 * n, 2 * n + 1]}
    assert state.seen_spill == {(1, 2 * (n - i), False, False) for i in range(1, n)}
