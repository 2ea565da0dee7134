"""The rule table ``rules.RULES`` against the tables it replaced, the prompt
sentences against the thresholds, and the steppers against the table."""

from dataclasses import fields, replace
from decimal import MAX_PREC, Context, Decimal
from itertools import product

import pytest

from gridsentry.llm import serialize_rules
from gridsentry.records import Label
from gridsentry.rules import (
    GOOSE_RULES,
    RULES,
    SV_RULES,
    Level,
    RuleId,
    RuleSet,
    TimingConfig,
    Verdict,
    detect_batch,
    rule_class,
)

# The tables that defined the rules before ``RULES``, kept as they were.
OLD_GOOSE_RULES = (RuleId.G_DI_1, RuleId.G_DI_2, RuleId.G_DI_3,
                   RuleId.G_DOS_1, RuleId.G_SYS_1, RuleId.G_RE_1)
OLD_SV_RULES = (RuleId.S_DI_1, RuleId.S_DI_2, RuleId.S_DI_3,
                RuleId.S_DOS_1, RuleId.S_DOS_2, RuleId.S_SYS_1)

OLD_RULE_CLASS = {
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

OLD_RULE_ORDER = {rule: i for i, rule in enumerate(RuleId)}

OLD_LEVEL_RULES = {
    Level.WITHOUT: frozenset(),
    Level.PARTIAL: frozenset(rule for rule, klass in OLD_RULE_CLASS.items()
                             if klass in (Label.DATA_INJECTION, Label.DOS)),
    Level.FULL: frozenset(RuleId),
}

OLD_RULE_TEXT = {
    RuleId.G_DI_1: ('If data has the same "DM" and "SM," "sqNum" should be '
                    "increased every time."),
    RuleId.G_DI_2: ('If there is any change in "data1" or "data2," "stNum" '
                    'should be increased by 1 and "sqNum" should be reset to 0.'),
    RuleId.G_DI_3: ('If data has the same "DM" and "SM," once "stNum" is '
                    "increased, it cannot go back to smaller numbers."),
    RuleId.G_DOS_1: ("There are up to {goose_dos_max_packets} packets (rows) within "
                     "{goose_dos_window_ms} ms."),
    RuleId.G_SYS_1: "There should be a packet (dataset) within {goose_heartbeat_max_gap_s} s.",
    RuleId.G_RE_1: ('If there is any change in "data1" or "data2," "stNum" '
                    'should be increased 1 and "sqNum" should be reset to 0; '
                    "a previously seen combination must not reappear."),
    RuleId.S_DI_1: 'The range of "smpCnt" is from 0 to 4799.',
    RuleId.S_DI_2: ('Once the "smpCnt" is increased, it should be increased '
                    "up to 4799 and then reset to 0."),
    RuleId.S_DI_3: ('"smpCnt" cannot be decreased until it reaches 4799 and '
                    "resets to 0."),
    RuleId.S_DOS_1: ("A normal time interval should be around {sv_nominal_interval_us} "
                     "microseconds."),
    RuleId.S_DOS_2: "There are up to {sv_dos_max_packets} packets within {sv_dos_window_ms} ms.",
    RuleId.S_SYS_1: '"smpCnt" should be increased every time by 1.',
}


def _old_decimal(value, shift=0, places=0):
    exact = Decimal(repr(value)).scaleb(-shift, Context(prec=MAX_PREC))
    text = f"{exact:.{places}f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def old_serialize_rules(rules, protocol):
    """The rendering that ``_RULE_TEXT`` and ``_threshold_words`` gave."""
    if rules.level == Level.WITHOUT:
        return ""
    t = rules.thresholds
    words = {
        "goose_dos_max_packets": t.goose_dos_max_packets,
        "goose_dos_window_ms": _old_decimal(t.goose_dos_window_us, 3, 3),
        "goose_heartbeat_max_gap_s": _old_decimal(t.goose_heartbeat_max_gap_us, 6, 6),
        "sv_nominal_interval_us": _old_decimal(t.sv_nominal_interval_us),
        "sv_dos_max_packets": t.sv_dos_max_packets,
        "sv_dos_window_ms": _old_decimal(t.sv_dos_window_us, 3, 3),
    }
    order = OLD_GOOSE_RULES if protocol == "GOOSE" else OLD_SV_RULES
    enabled = [r for r in order if r in OLD_LEVEL_RULES[rules.level]]
    return "\n".join(f"{i}. {OLD_RULE_TEXT[r].format(**words)}"
                     for i, r in enumerate(enabled, start=1))


# the thresholds of test_llm.TestSerializeRules.test_sentences_state_the_thresholds
STATED = TimingConfig(goose_dos_max_packets=3, goose_dos_window_us=12_345_678,
                      goose_heartbeat_max_gap_us=1_234_567, sv_nominal_interval_us=250,
                      sv_dos_window_us=2_000, sv_dos_max_packets=9)


class TestOracle:
    def test_one_row_per_rule(self):
        assert [row.rule for row in RULES] == list(RuleId)

    def test_protocol_orders(self):
        assert GOOSE_RULES == OLD_GOOSE_RULES
        assert SV_RULES == OLD_SV_RULES

    def test_classes(self):
        assert {rule: rule_class(rule) for rule in RuleId} == OLD_RULE_CLASS

    def test_verdict_order(self):
        verdicts = [Verdict(0, rule_class(rule), rule, "") for rule in reversed(RuleId)]
        assert ([v.rule for v in sorted(verdicts, key=Verdict.sort_key)]
                == sorted(RuleId, key=OLD_RULE_ORDER.__getitem__))

    def test_levels(self):
        assert {level: RuleSet.for_level(level).enabled for level in Level} == OLD_LEVEL_RULES

    @pytest.mark.parametrize("thresholds", [TimingConfig(), STATED], ids=["default", "stated"])
    @pytest.mark.parametrize("protocol", ["GOOSE", "SV"])
    @pytest.mark.parametrize("level", list(Level))
    def test_sentences(self, level, protocol, thresholds):
        rules = RuleSet.for_level(level, thresholds)
        assert serialize_rules(rules, protocol) == old_serialize_rules(rules, protocol)


def sentences(thresholds):
    """Each rule's sentence at the full level, by rule."""
    rules = RuleSet.for_level(Level.FULL, thresholds)
    out = {}
    for protocol, order in (("GOOSE", GOOSE_RULES), ("SV", SV_RULES)):
        lines = serialize_rules(rules, protocol).splitlines()
        out.update((rule, line.split(". ", 1)[1]) for rule, line in zip(order, lines))
    return out


DEFAULTS = TimingConfig()
THRESHOLDS = [f.name for f in fields(TimingConfig)]
# Values off the defaults: an integer change of every threshold, a tolerance
# and a sub-microsecond nominal and DoS window that the rounded text hid, and
# a nominal whose exact words equal the default's rounded ones.
CHANGES = [(name, getattr(DEFAULTS, name) + 1) for name in THRESHOLDS] + [
    ("sv_interval_tolerance_pct", 10.0),
    ("sv_nominal_interval_us", 208.4),
    ("goose_dos_window_us", 10_000.5),
    ("sv_nominal_interval_us", 208),
]


class TestSentencesStateThresholds:
    def test_every_threshold_is_read(self):
        assert set().union(*(row.reads for row in RULES)) == set(THRESHOLDS)

    @pytest.mark.parametrize("name, value", CHANGES, ids=[f"{n}={v}" for n, v in CHANGES])
    def test_a_change_moves_only_the_sentences_of_rules_that_read_it(self, name, value):
        before = sentences(DEFAULTS)
        after = sentences(replace(DEFAULTS, **{name: value}))
        moved = {rule for rule in RuleId if after[rule] != before[rule]}
        assert moved == {row.rule for row in RULES if name in row.reads}

    def test_no_two_s_dos_1_thresholds_share_a_sentence(self):
        nominals = [DEFAULTS.sv_nominal_interval_us, 208, 208.4, 250]
        tolerances = [DEFAULTS.sv_interval_tolerance_pct, 10.0, 51.0]
        texts = [sentences(replace(DEFAULTS, sv_nominal_interval_us=n,
                                   sv_interval_tolerance_pct=p))[RuleId.S_DOS_1]
                 for n, p in product(nominals, tolerances)]
        assert len(set(texts)) == len(texts)

    def test_off_default_sentences_state_the_values_exactly(self):
        got = sentences(replace(DEFAULTS, sv_interval_tolerance_pct=10.0,
                                goose_dos_window_us=10_000.5))
        assert got[RuleId.S_DOS_1] == (
            "A normal time interval should be around 208.33333333333334 microseconds,"
            " and an interval more than 10% shorter is anomalous.")
        assert got[RuleId.G_DOS_1] == "There are up to 10 packets (rows) within 10.0005 ms."
        assert sentences(replace(DEFAULTS, sv_nominal_interval_us=208))[RuleId.S_DOS_1] == (
            "A normal time interval should be around 208 microseconds,"
            " and an interval more than 50% shorter is anomalous.")


class TestStepsMatchTable:
    def test_verdict_classes(self, eval_scenarios):
        rules = RuleSet.for_level(Level.FULL)
        for ds in eval_scenarios:
            for v in detect_batch(ds, rules):
                assert v.klass == rule_class(v.rule), v

    @pytest.mark.parametrize("name", THRESHOLDS)
    def test_a_threshold_moves_only_the_rules_that_read_it(self, eval_scenarios, name):
        rules = RuleSet.for_level(Level.FULL)
        moved = set()
        for factor in (0.1, 10):  # each threshold moves some verdict at one of them
            changed = RuleSet.for_level(
                Level.FULL, replace(DEFAULTS, **{name: getattr(DEFAULTS, name) * factor}))
            for ds in eval_scenarios[::10]:
                before = {(v.record_index, v.rule) for v in detect_batch(ds, rules)}
                after = {(v.record_index, v.rule) for v in detect_batch(ds, changed)}
                moved |= {rule for _, rule in before ^ after}
        assert moved and moved <= {row.rule for row in RULES if name in row.reads}
