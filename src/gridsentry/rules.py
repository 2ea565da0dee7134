"""Deterministic per-stream rule engine for GOOSE and SV anomaly detection.

Each rule id maps to one expert recommendation; a training level gates which
rules are active. State is confined to one stream key (protocol, source and
destination MACs, control-block/stream identity), and every observed packet
becomes history whether or not it fired a verdict.
"""

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .errors import (
    InputOrderError,
    InvariantViolationError,
    SchemaError,
    WrongStreamError,
)
from .records import GooseRecord, Label, LabeledDataset, SvRecord

SMP_CNT_MODULUS = 4800


class RuleId(str, Enum):
    G_DI_1 = "G_DI_1"   # sqNum must increase on retransmission
    G_DI_2 = "G_DI_2"   # data change requires stNum+1 and sqNum=0
    G_DI_3 = "G_DI_3"   # stNum never decreases
    G_DOS_1 = "G_DOS_1"  # >10 packets in 10 ms
    G_SYS_1 = "G_SYS_1"  # silence longer than 10 s
    G_RE_1 = "G_RE_1"   # resurfacing of an older (stNum, sqNum, data) triple
    S_DI_1 = "S_DI_1"   # smpCnt outside 0..4799
    S_DI_2 = "S_DI_2"   # reset to 0 from a value other than 4799
    S_DI_3 = "S_DI_3"   # non-wrap decrease
    S_DOS_1 = "S_DOS_1"  # inter-arrival far below nominal
    S_DOS_2 = "S_DOS_2"  # >12 packets in 2.083 ms
    S_SYS_1 = "S_SYS_1"  # step other than the cyclic +1


GOOSE_RULES = (RuleId.G_DI_1, RuleId.G_DI_2, RuleId.G_DI_3,
               RuleId.G_DOS_1, RuleId.G_SYS_1, RuleId.G_RE_1)
SV_RULES = (RuleId.S_DI_1, RuleId.S_DI_2, RuleId.S_DI_3,
            RuleId.S_DOS_1, RuleId.S_DOS_2, RuleId.S_SYS_1)

_DI_DOS_RULES = frozenset({
    RuleId.G_DI_1, RuleId.G_DI_2, RuleId.G_DI_3, RuleId.G_DOS_1,
    RuleId.S_DI_1, RuleId.S_DI_2, RuleId.S_DI_3, RuleId.S_DOS_1, RuleId.S_DOS_2,
})

_RULE_CLASS = {
    RuleId.G_DI_1: Label.DATA_INJECTION,
    RuleId.G_DI_2: Label.DATA_INJECTION,
    RuleId.G_DI_3: Label.DATA_INJECTION,
    RuleId.G_DOS_1: Label.DOS,
    RuleId.G_SYS_1: Label.SYSTEM_PROBLEM,
    RuleId.G_RE_1: Label.REPLAY,
    RuleId.S_DI_1: Label.DATA_INJECTION,
    RuleId.S_DI_2: Label.DATA_INJECTION,
    RuleId.S_DI_3: Label.DATA_INJECTION,
    RuleId.S_DOS_1: Label.DOS,
    RuleId.S_DOS_2: Label.DOS,
    RuleId.S_SYS_1: Label.SYSTEM_PROBLEM,
}

_RULE_ORDER = {rule: i for i, rule in enumerate(RuleId)}


class Level(str, Enum):
    WITHOUT = "without"
    PARTIAL = "partial"
    FULL = "full"


@dataclass
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
            if value <= 0:
                raise InvariantViolationError(f"TimingConfig.{name} must be positive")

    @property
    def sv_min_gap_us(self) -> float:
        return self.sv_nominal_interval_us * (1 - self.sv_interval_tolerance_pct / 100)


def _enabled_for_level(level: Level) -> Set[RuleId]:
    if level == Level.WITHOUT:
        return set()
    if level == Level.PARTIAL:
        return set(_DI_DOS_RULES)
    return set(RuleId)


@dataclass
class RuleSet:
    level: Level
    enabled: Set[RuleId] = None
    thresholds: TimingConfig = field(default_factory=TimingConfig)

    def __post_init__(self):
        expected = _enabled_for_level(self.level)
        if self.enabled is None:
            self.enabled = expected
        elif set(self.enabled) != expected:
            raise InvariantViolationError(
                f"enabled rules do not match level {self.level.value}"
            )
        self.thresholds.validate()

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
    seen: Set[Tuple[int, int, bool, bool]] = field(default_factory=set)


@dataclass
class Verdict:
    record_index: int
    klass: Label
    rule: RuleId
    explanation: str

    def sort_key(self):
        return (self.record_index, _RULE_ORDER[self.rule])


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
    floor = time_us - window_us
    while state.dos_window and state.dos_window[0] < floor:
        state.dos_window.popleft()
    state.dos_window.append(time_us)
    return len(state.dos_window) > max_packets


def step_goose(state: StreamState, rec: GooseRecord, rules: RuleSet,
               index: int = 0) -> Tuple[StreamState, List[Verdict]]:
    """Advance one GOOSE stream by one record; returns (state, verdicts)."""
    _check_stream(state, rec, "GOOSE")
    enabled = rules.enabled
    cfg = rules.thresholds
    verdicts: List[Verdict] = []
    data = (rec.data1, rec.data2)

    if state.last_time_us is not None:
        gap = rec.time_us - state.last_time_us
        if RuleId.G_SYS_1 in enabled and gap > cfg.goose_heartbeat_max_gap_us:
            verdicts.append(Verdict(index, Label.SYSTEM_PROBLEM, RuleId.G_SYS_1,
                                    f"silence of {gap} us exceeds "
                                    f"{cfg.goose_heartbeat_max_gap_us} us"))

    if state.last_st_num is not None:
        data_changed = data != state.last_data
        if (RuleId.G_DI_1 in enabled and rec.stNum == state.last_st_num
                and not data_changed and rec.sqNum <= state.last_sq_num):
            verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.G_DI_1,
                                    f"sqNum {rec.sqNum} did not increase past "
                                    f"{state.last_sq_num} within stNum {rec.stNum}"))
        if (RuleId.G_DI_2 in enabled and data_changed
                and not (rec.stNum == state.last_st_num + 1 and rec.sqNum == 0)):
            verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.G_DI_2,
                                    f"data changed to {data} but counters went "
                                    f"({state.last_st_num},{state.last_sq_num}) -> "
                                    f"({rec.stNum},{rec.sqNum}) instead of "
                                    f"({state.last_st_num + 1},0)"))
        if RuleId.G_DI_3 in enabled and rec.stNum < state.last_st_num:
            verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.G_DI_3,
                                    f"stNum decreased {state.last_st_num} -> {rec.stNum}"))
        if (RuleId.G_RE_1 in enabled
                and (rec.stNum, rec.sqNum, rec.data1, rec.data2) in state.seen
                and (rec.stNum, rec.sqNum) < (state.last_st_num, state.last_sq_num)):
            verdicts.append(Verdict(index, Label.REPLAY, RuleId.G_RE_1,
                                    f"older (stNum={rec.stNum}, sqNum={rec.sqNum}) "
                                    f"resurfaced after ({state.last_st_num},"
                                    f"{state.last_sq_num}) was observed"))

    dos = _dos_check(state, rec.time_us, cfg.goose_dos_window_us,
                     cfg.goose_dos_max_packets)
    if RuleId.G_DOS_1 in enabled and dos:
        verdicts.append(Verdict(index, Label.DOS, RuleId.G_DOS_1,
                                f"more than {cfg.goose_dos_max_packets} packets within "
                                f"{cfg.goose_dos_window_us} us ending at t={rec.time_us}"))

    state.seen.add((rec.stNum, rec.sqNum, rec.data1, rec.data2))
    state.last_st_num = rec.stNum
    state.last_sq_num = rec.sqNum
    state.last_data = data
    state.last_time_us = rec.time_us
    return state, verdicts


def step_sv(state: StreamState, rec: SvRecord, rules: RuleSet,
            index: int = 0) -> Tuple[StreamState, List[Verdict]]:
    """Advance one SV stream by one record; returns (state, verdicts)."""
    _check_stream(state, rec, "SV")
    enabled = rules.enabled
    cfg = rules.thresholds
    verdicts: List[Verdict] = []

    in_range = rec.smpCnt <= SMP_CNT_MODULUS - 1
    if RuleId.S_DI_1 in enabled and not in_range:
        verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.S_DI_1,
                                f"smpCnt {rec.smpCnt} outside 0..{SMP_CNT_MODULUS - 1}"))

    # Sequence rules are defined on in-range pairs only; an out-of-range
    # packet already earned its verdict and cannot anchor a successor test.
    last = state.last_smp_cnt
    if last is not None and last <= SMP_CNT_MODULUS - 1 and in_range:
        wrap = is_cyclic_successor(last, rec.smpCnt)
        if RuleId.S_DI_2 in enabled and rec.smpCnt == 0 and last != SMP_CNT_MODULUS - 1:
            verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.S_DI_2,
                                    f"smpCnt reset to 0 from {last}, expected reset "
                                    f"only from {SMP_CNT_MODULUS - 1}"))
        if RuleId.S_DI_3 in enabled and rec.smpCnt < last and not wrap:
            verdicts.append(Verdict(index, Label.DATA_INJECTION, RuleId.S_DI_3,
                                    f"smpCnt decreased {last} -> {rec.smpCnt} "
                                    f"without reaching {SMP_CNT_MODULUS - 1}"))
        if RuleId.S_SYS_1 in enabled and not wrap:
            verdicts.append(Verdict(index, Label.SYSTEM_PROBLEM, RuleId.S_SYS_1,
                                    f"smpCnt stepped {last} -> {rec.smpCnt}, "
                                    f"expected {(last + 1) % SMP_CNT_MODULUS}"))

    if state.last_time_us is not None:
        gap = rec.time_us - state.last_time_us
        if RuleId.S_DOS_1 in enabled and gap < cfg.sv_min_gap_us:
            verdicts.append(Verdict(index, Label.DOS, RuleId.S_DOS_1,
                                    f"inter-arrival {gap} us below "
                                    f"{cfg.sv_min_gap_us:.2f} us "
                                    f"(nominal {cfg.sv_nominal_interval_us:.2f} us)"))

    dos = _dos_check(state, rec.time_us, cfg.sv_dos_window_us,
                     cfg.sv_dos_max_packets)
    if RuleId.S_DOS_2 in enabled and dos:
        verdicts.append(Verdict(index, Label.DOS, RuleId.S_DOS_2,
                                f"more than {cfg.sv_dos_max_packets} packets within "
                                f"{cfg.sv_dos_window_us} us ending at t={rec.time_us}"))

    state.last_smp_cnt = rec.smpCnt
    state.last_time_us = rec.time_us
    return state, verdicts


def detect_batch(dataset: LabeledDataset, rules: RuleSet) -> List[Verdict]:
    """Run the steppers over every stream of a dataset, in time order.

    Each stream gets a fresh ``StreamState`` and is stepped record by record,
    exactly as a streaming caller of ``step_goose``/``step_sv`` would; the
    verdicts of all streams are merged in record order.
    """
    dataset.validate()
    if rules.level == Level.WITHOUT:
        return []
    step = step_goose if dataset.protocol == "GOOSE" else step_sv

    states: Dict[StreamKey, StreamState] = {}
    last_index: Dict[StreamKey, int] = {}
    all_verdicts: List[Verdict] = []
    for i, rec in enumerate(dataset.records):
        key = StreamKey.of(rec)
        state = states.get(key)
        if state is None:
            state = states[key] = StreamState()
        _, verdicts = step(state, rec, rules, index=i)
        all_verdicts.extend(verdicts)
        last_index[key] = i

    capture_end = dataset.meta.get("capture_end_us")
    if (capture_end is not None and dataset.protocol == "GOOSE"
            and RuleId.G_SYS_1 in rules.enabled):
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
    return _RULE_CLASS[rule]


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
            elif key in TimingConfig.__dataclass_fields__:
                numeric = float(value)
                overrides[key] = int(numeric) if numeric.is_integer() and not isinstance(
                    TimingConfig.__dataclass_fields__[key].default, float) else numeric
            else:
                raise SchemaError(f"unknown key {key!r}", line=lineno, field=key)
    if level is None:
        raise SchemaError("rule-set file missing 'level'", line=1, field="level")
    thresholds = replace(TimingConfig(), **overrides)
    return RuleSet(level=level, enabled=enabled, thresholds=thresholds)
