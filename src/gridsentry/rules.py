"""Deterministic per-stream rule engine for GOOSE and SV anomaly detection.

Each rule maps to one expert recommendation, defined by its row in
``RULES``; a training level gates which rules are active. State is confined
to one stream key (protocol, source and destination MACs, control-block/stream
identity), and every observed packet becomes history whether or not it fired
a verdict.
"""

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from string import Formatter
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from .errors import (
    InputOrderError,
    InvariantViolationError,
    SchemaError,
    WrongStreamError,
)
from .records import GooseRecord, Label, LabeledDataset, SvRecord

SMP_CNT_MODULUS = 4800
_SMP_CNT_MAX = SMP_CNT_MODULUS - 1


class RuleId(str, Enum):
    G_DI_1 = "G_DI_1"
    G_DI_2 = "G_DI_2"
    G_DI_3 = "G_DI_3"
    G_DOS_1 = "G_DOS_1"
    G_SYS_1 = "G_SYS_1"
    G_RE_1 = "G_RE_1"
    S_DI_1 = "S_DI_1"
    S_DI_2 = "S_DI_2"
    S_DI_3 = "S_DI_3"
    S_DOS_1 = "S_DOS_1"
    S_DOS_2 = "S_DOS_2"
    S_SYS_1 = "S_SYS_1"


class Level(str, Enum):
    WITHOUT = "without"
    PARTIAL = "partial"
    FULL = "full"


@dataclass(frozen=True)
class TimingConfig:
    goose_dos_window_us: int = 10_000
    goose_dos_max_packets: int = 10
    goose_heartbeat_max_gap_us: int = 10_000_000
    sv_nominal_interval_us: float = 1_000_000 / 4800  # ~208.33 us
    sv_dos_window_us: int = 2_083
    sv_dos_max_packets: int = 12
    sv_interval_tolerance_pct: float = 50.0

    def validate(self):
        for name, value in self.__dict__.items():
            if not 0 < value < math.inf:  # NaN fails both comparisons
                raise InvariantViolationError(
                    f"TimingConfig.{name} must be positive and finite, got {value!r}")

    @property
    def sv_min_gap_us(self) -> float:
        return self.sv_nominal_interval_us * (1 - self.sv_interval_tolerance_pct / 100)


@dataclass(frozen=True)
class Rule:
    """A row of ``RULES``. ``sentence`` is the rule in the LLM prompt. Each
    ``{field}`` in it names a ``TimingConfig`` threshold the rule reads, and
    ``reads`` lists them; ``{field:ms}`` and ``{field:s}`` show a µs field in
    ms or s. A part in [brackets] is stated only off the defaults."""

    rule: RuleId
    protocol: str
    klass: Label
    sentence: str
    reads: FrozenSet[str] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "reads", frozenset(
            name for _, name, _, _ in Formatter().parse(self.sentence) if name))


RULES = (  # in verdict order: the verdicts on one record sort by their rule's row
    Rule(RuleId.G_DI_1, "GOOSE", Label.DATA_INJECTION, 'If data has the same "DM" and'
         ' "SM," "sqNum" should be increased every time.'),
    Rule(RuleId.G_DI_2, "GOOSE", Label.DATA_INJECTION, 'If there is any change in "data1"'
         ' or "data2," "stNum" should be increased by 1 and "sqNum" should be reset to 0.'),
    Rule(RuleId.G_DI_3, "GOOSE", Label.DATA_INJECTION, 'If data has the same "DM" and'
         ' "SM," once "stNum" is increased, it cannot go back to smaller numbers.'),
    Rule(RuleId.G_DOS_1, "GOOSE", Label.DOS, "There are up to {goose_dos_max_packets}"
         " packets (rows) within {goose_dos_window_us:ms} ms."),
    Rule(RuleId.G_SYS_1, "GOOSE", Label.SYSTEM_PROBLEM, "There should be a packet"
         " (dataset) within {goose_heartbeat_max_gap_us:s} s."),
    Rule(RuleId.G_RE_1, "GOOSE", Label.REPLAY, 'If there is any change in "data1" or'
         ' "data2," "stNum" should be increased 1 and "sqNum" should be reset to 0; a'
         " previously seen combination must not reappear."),
    Rule(RuleId.S_DI_1, "SV", Label.DATA_INJECTION,
         f'The range of "smpCnt" is from 0 to {_SMP_CNT_MAX}.'),
    Rule(RuleId.S_DI_2, "SV", Label.DATA_INJECTION, 'Once the "smpCnt" is increased, it'
         f" should be increased up to {_SMP_CNT_MAX} and then reset to 0."),
    Rule(RuleId.S_DI_3, "SV", Label.DATA_INJECTION,
         f'"smpCnt" cannot be decreased until it reaches {_SMP_CNT_MAX} and resets to 0.'),
    Rule(RuleId.S_DOS_1, "SV", Label.DOS, "A normal time interval should be around"
         " {sv_nominal_interval_us} microseconds[, and an interval more than"
         " {sv_interval_tolerance_pct}% shorter is anomalous]."),
    Rule(RuleId.S_DOS_2, "SV", Label.DOS,
         "There are up to {sv_dos_max_packets} packets within {sv_dos_window_us:ms} ms."),
    Rule(RuleId.S_SYS_1, "SV", Label.SYSTEM_PROBLEM,
         '"smpCnt" should be increased every time by 1.'),
)

GOOSE_RULES = tuple(row.rule for row in RULES if row.protocol == "GOOSE")
SV_RULES = tuple(row.rule for row in RULES if row.protocol == "SV")
_RANK = {row.rule: i for i, row in enumerate(RULES)}
_LEVEL_RULES = {
    Level.WITHOUT: frozenset(),
    Level.PARTIAL: frozenset(row.rule for row in RULES
                             if row.klass in (Label.DATA_INJECTION, Label.DOS)),
    Level.FULL: frozenset(row.rule for row in RULES),
}


@dataclass(frozen=True)
class RuleSet:
    """The rules one level enables, with their thresholds, compiled once.

    Frozen, so what ``__post_init__`` derives cannot go stale: ``enabled``
    holds the level's rules, ``_on`` their names as plain strings (a ``str``
    set test costs a fraction of reading an enum member) and
    ``_sv_min_gap_us`` the S_DOS_1 floor. The steppers read only ``_on``,
    ``_sv_min_gap_us`` and the thresholds.
    """

    level: Level
    thresholds: TimingConfig = field(default_factory=TimingConfig)
    enabled: FrozenSet[RuleId] = field(init=False)
    _on: FrozenSet[str] = field(init=False, repr=False, compare=False)
    _sv_min_gap_us: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "enabled", _LEVEL_RULES[self.level])
        self.thresholds.validate()
        object.__setattr__(self, "_on", frozenset(rule.value for rule in self.enabled))
        object.__setattr__(self, "_sv_min_gap_us", self.thresholds.sv_min_gap_us)

    @classmethod
    def for_level(cls, level, thresholds: Optional[TimingConfig] = None) -> "RuleSet":
        if isinstance(level, str):
            level = Level(level.lower())
        return cls(level=level, thresholds=thresholds or TimingConfig())


class StreamKey(NamedTuple):
    protocol: str
    sm: str
    dm: str
    identity: str  # gocbRef for GOOSE, svID for SV

    @classmethod
    def of(cls, rec) -> "StreamKey":
        if isinstance(rec, GooseRecord):
            return cls("GOOSE", rec.sm, rec.dm, rec.gocbRef)
        return cls("SV", rec.sm, rec.dm, rec.svID)


@dataclass
class StreamState:
    key: Optional[StreamKey] = None
    last_st_num: Optional[int] = None
    last_sq_num: Optional[int] = None
    last_data: Optional[Tuple[bool, bool]] = None
    last_smp_cnt: Optional[int] = None
    last_time_us: Optional[int] = None
    dos_window: deque = field(default_factory=deque)
    # G_RE_1's replay memory. ``seen`` maps (stNum, data1, data2) to the
    # sorted run bounds [lo0, hi0 + 1, lo1, hi1 + 1, ...] of the integer
    # sqNums seen with them; runs only grow at the end, so a normal era of
    # sqNum 0, 1, 2, ... is one run. ``seen_spill`` holds the (stNum, sqNum,
    # data1, data2) of each sqNum below the last bound that no run holds.
    seen: Dict[Tuple[int, bool, bool], List[int]] = field(default_factory=dict)
    seen_spill: Set[Tuple[int, int, bool, bool]] = field(default_factory=set)


@dataclass
class Verdict:
    record_index: int
    klass: Label
    rule: RuleId
    explanation: str

    def sort_key(self):
        return (self.record_index, _RANK[self.rule])


def is_cyclic_successor(a: int, b: int, modulus: int = SMP_CNT_MODULUS) -> bool:
    """True iff b is the wrap-around successor of a (…, 4798->4799, 4799->0)."""
    return b == a + 1 or (a == modulus - 1 and b == 0)


def _check_stream(state: StreamState, rec, protocol: str):
    key = StreamKey.of(rec)
    if key.protocol != protocol:
        raise WrongStreamError(f"{key.protocol} record fed to the {protocol} stepper")
    if state.key is None:
        state.key = key
    elif state.key != key:
        raise WrongStreamError(f"record stream {key} != state stream {state.key}")
    if state.last_time_us is not None and rec.time_us < state.last_time_us:
        raise InputOrderError(
            f"time regressed from {state.last_time_us} to {rec.time_us}"
        )


def _dos_check(state: StreamState, time_us: int, window_us: int, max_packets: int) -> bool:
    """True iff more than ``max_packets`` arrivals, this one included, fall in
    the closed window [time_us - window_us, time_us]."""
    window = state.dos_window
    floor = time_us - window_us
    while window and window[0] < floor:
        window.popleft()
    window.append(time_us)
    return len(window) > max_packets


def _seen_before(state: StreamState, runs: Optional[List[int]], triple) -> bool:
    """True iff an earlier record of ``state``'s stream carried ``triple``.

    ``runs`` are the run bounds of the triple's (stNum, data1, data2) group.
    """
    if runs is not None and bisect_right(runs, triple[1]) % 2 == 1:
        return True
    return triple in state.seen_spill


def _step_goose(state: StreamState, rec: GooseRecord, rules: RuleSet,
                index: int) -> List[Verdict]:
    """The GOOSE rules on one record of ``state``'s stream; updates ``state``."""
    on = rules._on
    cfg = rules.thresholds
    verdicts: List[Verdict] = []
    st_num, sq_num, time_us = rec.stNum, rec.sqNum, rec.time_us
    data = (rec.data1, rec.data2)
    group = (st_num, rec.data1, rec.data2)
    runs = state.seen.get(group)

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
        if ((st_num, sq_num) < (last_st, last_sq) and "G_RE_1" in on
                and _seen_before(state, runs, (st_num, sq_num, rec.data1, rec.data2))):
            verdicts.append(Verdict(index, Label.REPLAY, RuleId.G_RE_1,
                                    f"older (stNum={st_num}, sqNum={sq_num}) "
                                    f"resurfaced after ({last_st},"
                                    f"{last_sq}) was observed"))

    if (_dos_check(state, time_us, cfg.goose_dos_window_us, cfg.goose_dos_max_packets)
            and "G_DOS_1" in on):
        verdicts.append(Verdict(index, Label.DOS, RuleId.G_DOS_1,
                                f"more than {cfg.goose_dos_max_packets} packets within "
                                f"{cfg.goose_dos_window_us} us ending at t={time_us}"))

    # remember the sqNum; new runs start only past the last bound, so a
    # descending sqNum costs no insert in the middle of the list
    if runs is None:
        state.seen[group] = [sq_num, sq_num + 1]
    elif sq_num == runs[-1]:
        runs[-1] = sq_num + 1
    elif sq_num > runs[-1]:
        runs += (sq_num, sq_num + 1)
    elif bisect_right(runs, sq_num) % 2 == 0:
        state.seen_spill.add((st_num, sq_num, rec.data1, rec.data2))
    state.last_st_num = st_num
    state.last_sq_num = sq_num
    state.last_data = data
    state.last_time_us = time_us
    return verdicts


def _step_sv(state: StreamState, rec: SvRecord, rules: RuleSet,
             index: int) -> List[Verdict]:
    """The SV rules on one record of ``state``'s stream; updates ``state``."""
    on = rules._on
    cfg = rules.thresholds
    verdicts: List[Verdict] = []
    smp, time_us = rec.smpCnt, rec.time_us

    in_range = smp <= _SMP_CNT_MAX
    if not in_range and "S_DI_1" in on:
        verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.S_DI_1,
                                f"smpCnt {smp} outside 0..{_SMP_CNT_MAX}"))

    # Sequence rules are defined on in-range pairs only; an out-of-range
    # packet already earned its verdict and cannot anchor a successor test.
    last = state.last_smp_cnt
    if last is not None and last <= _SMP_CNT_MAX and in_range:
        if smp == 0 and last != _SMP_CNT_MAX and "S_DI_2" in on:
            verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.S_DI_2,
                                    f"smpCnt reset to 0 from {last}, expected reset "
                                    f"only from {_SMP_CNT_MAX}"))
        if not is_cyclic_successor(last, smp):
            if smp < last and "S_DI_3" in on:
                verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.S_DI_3,
                                        f"smpCnt decreased {last} -> {smp} "
                                        f"without reaching {_SMP_CNT_MAX}"))
            if "S_SYS_1" in on:
                verdicts.append(Verdict(index, Label.SYSTEM_PROBLEM, RuleId.S_SYS_1,
                                        f"smpCnt stepped {last} -> {smp}, "
                                        f"expected {(last + 1) % SMP_CNT_MODULUS}"))

    if state.last_time_us is not None:
        gap = time_us - state.last_time_us
        if gap < rules._sv_min_gap_us and "S_DOS_1" in on:
            verdicts.append(Verdict(index, Label.DOS, RuleId.S_DOS_1,
                                    f"inter-arrival {gap} us below "
                                    f"{rules._sv_min_gap_us:.2f} us "
                                    f"(nominal {cfg.sv_nominal_interval_us:.2f} us)"))

    if (_dos_check(state, time_us, cfg.sv_dos_window_us, cfg.sv_dos_max_packets)
            and "S_DOS_2" in on):
        verdicts.append(Verdict(index, Label.DOS, RuleId.S_DOS_2,
                                f"more than {cfg.sv_dos_max_packets} packets within "
                                f"{cfg.sv_dos_window_us} us ending at t={time_us}"))

    state.last_smp_cnt = smp
    state.last_time_us = time_us
    return verdicts


def step_goose(state: StreamState, rec: GooseRecord, rules: RuleSet,
               index: int = 0) -> Tuple[StreamState, List[Verdict]]:
    """Advance one GOOSE stream by one record; returns (state, verdicts)."""
    _check_stream(state, rec, "GOOSE")
    return state, _step_goose(state, rec, rules, index)


def step_sv(state: StreamState, rec: SvRecord, rules: RuleSet,
            index: int = 0) -> Tuple[StreamState, List[Verdict]]:
    """Advance one SV stream by one record; returns (state, verdicts)."""
    _check_stream(state, rec, "SV")
    return state, _step_sv(state, rec, rules, index)


_IDENTITY = {"GOOSE": attrgetter("gocbRef"), "SV": attrgetter("svID")}


def detect_batch(dataset: LabeledDataset, rules: RuleSet) -> List[Verdict]:
    """Run the steppers over every stream of a dataset, in time order.

    Each stream gets a fresh ``StreamState`` and goes record by record
    through the rule core of ``step_goose``/``step_sv``; the verdicts of all
    streams are merged in record order. States are keyed by the plain tuple
    ``(protocol, sm, dm, identity)``, equal to ``StreamKey.of(rec)``, so a
    ``StreamKey`` is built once per stream. ``dataset.validate`` guarantees
    each record's class and the time order, so none of the public steppers'
    checks is left to run per record.
    """
    dataset.validate()
    if rules.level == Level.WITHOUT:
        return []
    protocol = dataset.protocol
    goose = protocol == "GOOSE"
    step = _step_goose if goose else _step_sv
    identity = _IDENTITY[protocol]

    states: Dict[tuple, StreamState] = {}
    last_index: Dict[tuple, int] = {}
    all_verdicts: List[Verdict] = []
    for i, rec in enumerate(dataset.records):
        key = (protocol, rec.sm, rec.dm, identity(rec))
        state = states.get(key)
        if state is None:
            state = states[key] = StreamState(key=StreamKey.of(rec))
        verdicts = step(state, rec, rules, i)
        if verdicts:
            all_verdicts.extend(verdicts)
        last_index[key] = i

    capture_end = dataset.meta.get("capture_end_us")
    if capture_end is not None and goose and "G_SYS_1" in rules._on:
        for key, state in states.items():
            gap = capture_end - state.last_time_us
            if gap > rules.thresholds.goose_heartbeat_max_gap_us:
                all_verdicts.append(Verdict(
                    last_index[key], Label.SYSTEM_PROBLEM, RuleId.G_SYS_1,
                    f"stream silent for {gap} us before capture end"))
    all_verdicts.sort(key=Verdict.sort_key)
    return all_verdicts


def verdicts_to_predictions(verdicts: List[Verdict], n_records: int) -> List[bool]:
    """Collapse verdicts to one boolean per record (True = flagged)."""
    predictions = [False] * n_records
    for verdict in verdicts:
        if not 0 <= verdict.record_index < n_records:
            raise InvariantViolationError(
                f"verdict index {verdict.record_index} outside 0..{n_records - 1}"
            )
        predictions[verdict.record_index] = True
    return predictions


def rule_class(rule: RuleId) -> Label:
    return RULES[_RANK[rule]].klass


# ---------------------------------------------------------------------------
# Rule-set files (plain key-value text; also feeds the LLM rule serializer)
# ---------------------------------------------------------------------------

def save_ruleset(rules: RuleSet, path) -> None:
    defaults = TimingConfig()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"level = {rules.level.value}\n")
        fh.write("enabled = " + ", ".join(sorted(r.value for r in rules.enabled)) + "\n")
        for name, default in defaults.__dict__.items():
            value = getattr(rules.thresholds, name)
            if value != default:
                fh.write(f"{name} = {value}\n")


def load_ruleset(path) -> RuleSet:
    """Read a ``save_ruleset`` file. Its ``enabled`` line is optional, and
    must name exactly the rules of its level when present."""
    level = None
    enabled = None
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"expected key = value, got {line!r}", line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "level":
                try:
                    level = Level(value.lower())
                except ValueError:
                    raise SchemaError(f"unknown level {value!r}", line=lineno, field="level")
            elif key == "enabled":
                try:
                    enabled = {RuleId(v.strip()) for v in value.split(",") if v.strip()}
                except ValueError:
                    raise SchemaError("unknown rule id", line=lineno, field="enabled")
                enabled_line = lineno
            elif key in TimingConfig.__dataclass_fields__:
                try:
                    numeric = float(value)
                except ValueError:
                    raise SchemaError(f"{key} is not a number: {value!r}",
                                      line=lineno, field=key)
                overrides[key] = int(numeric) if numeric.is_integer() and not isinstance(
                    TimingConfig.__dataclass_fields__[key].default, float) else numeric
            else:
                raise SchemaError(f"unknown key {key!r}", line=lineno, field=key)
    if level is None:
        raise SchemaError("rule-set file missing 'level'", line=1, field="level")
    if enabled is not None and enabled != _LEVEL_RULES[level]:
        raise SchemaError(f"enabled rules do not match level {level.value}",
                          line=enabled_line, field="enabled")
    thresholds = replace(TimingConfig(), **overrides)
    return RuleSet(level=level, thresholds=thresholds)
