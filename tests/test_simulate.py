import dataclasses
import hashlib
import json
import random

import pytest

from gridsentry import simulate
from gridsentry.errors import InsufficientCarrierError, UnsupportedInjectionError
from gridsentry.records import Label
from gridsentry.rules import Level, RuleSet, detect_batch, rule_class, verdicts_to_predictions
from gridsentry.simulate import (
    _GAP_TRIGGER_US,
    ScenarioConfig,
    _goose_chain_sites,
    _goose_gap_sites,
    _goose_record,
    _goose_replay_sites,
    _normal,
    gen_goose_normal,
    gen_sv_normal,
    inject,
    make_eval_set,
)

FULL = RuleSet.for_level(Level.FULL)


def goose_base(seed=0, events=2, duration_us=60_000_000):
    return gen_goose_normal(ScenarioConfig(protocol="GOOSE", duration_us=duration_us,
                                           seed=seed, goose_event_count=events))


def sv_base(seed=0, duration_us=50_000):
    return gen_sv_normal(ScenarioConfig(protocol="SV", duration_us=duration_us, seed=seed))


class TestNormalGenerators:
    def test_goose_stream_is_clean(self):
        ds = goose_base()
        ds.validate()
        assert all(label == Label.NORMAL for label in ds.labels)
        assert detect_batch(ds, FULL) == []

    def test_goose_eras_present(self):
        ds = goose_base(events=3)
        assert len({rec.stNum for rec in ds.records}) == 4

    def test_goose_determinism(self):
        assert goose_base(seed=42).records == goose_base(seed=42).records
        assert goose_base(seed=1).records != goose_base(seed=2).records

    def test_sv_rate_and_counter(self):
        ds = gen_sv_normal(ScenarioConfig(protocol="SV", duration_us=1_000_000, seed=0))
        assert len(ds) == 4800
        assert [rec.smpCnt for rec in ds.records] == [i % 4800 for i in range(4800)]
        assert detect_batch(ds, FULL) == []

    def test_sv_mean_interval(self):
        ds = gen_sv_normal(ScenarioConfig(protocol="SV", duration_us=1_000_000, seed=0))
        ts = [rec.time_us for rec in ds.records]
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        mean = sum(gaps) / len(gaps)
        assert abs(mean - 1_000_000 / 4800) / (1_000_000 / 4800) < 0.01


def _soundness_and_completeness(ds):
    """Every anomalous record must be flagged and no normal record may be.

    Class attribution is intentionally unchecked: e.g. the leading packets of
    a flood are stale retransmissions until the window threshold trips, so
    they legitimately fire an injection rule while carrying the DOS label.
    """
    verdicts = detect_batch(ds, FULL)
    preds = verdicts_to_predictions(verdicts, len(ds))
    classes = {}
    for v in verdicts:
        classes.setdefault(v.record_index, set()).add(rule_class(v.rule))
    for i, label in enumerate(ds.labels):
        if label == Label.NORMAL:
            assert not preds[i], f"false positive at {i}: {classes.get(i)}"
        else:
            assert preds[i], f"missed anomaly at {i} ({label})"


class TestInject:
    @pytest.mark.parametrize("klass", [Label.DATA_INJECTION, Label.DOS,
                                       Label.REPLAY, Label.SYSTEM_PROBLEM])
    def test_goose_injection_classes(self, klass):
        for seed in range(5):
            ds = inject(goose_base(seed=seed), klass, 2, seed=seed + 100)
            ds.validate()
            assert sum(1 for l in ds.labels if l == klass) >= 2
            _soundness_and_completeness(ds)

    @pytest.mark.parametrize("klass", [Label.DATA_INJECTION, Label.DOS,
                                       Label.SYSTEM_PROBLEM])
    def test_sv_injection_classes(self, klass):
        for seed in range(5):
            ds = inject(sv_base(seed=seed), klass, 2, seed=seed + 100)
            ds.validate()
            assert sum(1 for l in ds.labels if l == klass) >= 2
            _soundness_and_completeness(ds)

    def test_sv_replay_unsupported(self):
        with pytest.raises(UnsupportedInjectionError):
            inject(sv_base(), Label.REPLAY, 1, seed=0)

    @pytest.mark.parametrize("protocol", ["GOOSE", "SV"])
    def test_unknown_class_unsupported(self, protocol):
        ds = goose_base() if protocol == "GOOSE" else sv_base()
        with pytest.raises(UnsupportedInjectionError):
            inject(ds, "FLOOD", 1, seed=0)

    def test_injection_determinism(self):
        a = inject(goose_base(seed=7), Label.DATA_INJECTION, 3, seed=55)
        b = inject(goose_base(seed=7), Label.DATA_INJECTION, 3, seed=55)
        assert a.records == b.records and a.labels == b.labels

    @pytest.mark.parametrize("protocol", ["GOOSE", "SV"])
    def test_one_injections_entry_per_call(self, protocol):
        ds = goose_base() if protocol == "GOOSE" else sv_base()
        out = inject(ds, Label.DATA_INJECTION, 3, seed=4)
        out = inject(out, Label.DOS, 2, seed=5)
        assert out.meta["injections"] == [
            {"klass": "DATA_INJECTION", "count": 3, "seed": 4},
            {"klass": "DOS", "count": 2, "seed": 5},
        ]
        assert "injections" not in ds.meta

    def test_multi_era_carrier(self):
        ds = goose_base(seed=3, events=3)
        out = inject(ds, Label.DATA_INJECTION, 4, seed=3)
        _soundness_and_completeness(out)


class TestMakeEvalSet:
    def test_exact_histograms(self):
        ds = make_eval_set("GOOSE", anomalies=55, normals=25, seed=12)
        assert len(ds) == 80
        assert sum(1 for l in ds.labels if l == Label.NORMAL) == 25
        assert sum(1 for l in ds.labels if l != Label.NORMAL) == 55

    def test_mix_respected(self):
        ds = make_eval_set("SV", anomalies=60, normals=20, seed=5)
        counts = {k: 0 for k in (Label.DATA_INJECTION, Label.DOS, Label.SYSTEM_PROBLEM)}
        for label in ds.labels:
            if label != Label.NORMAL:
                counts[label] += 1
        assert sum(counts.values()) == 60
        # flood bursts quantize the split, so only presence is guaranteed
        assert all(count > 0 for count in counts.values())

    def test_perfect_separation_sampled_seeds(self):
        for seed in range(10):
            for protocol, anomalies, normals in (("GOOSE", 55, 25), ("SV", 60, 20)):
                ds = make_eval_set(protocol, anomalies=anomalies, normals=normals,
                                   seed=seed)
                ds.validate()
                _soundness_and_completeness(ds)

    def test_determinism(self):
        a = make_eval_set("SV", anomalies=30, normals=10, seed=77)
        b = make_eval_set("SV", anomalies=30, normals=10, seed=77)
        assert a.records == b.records and a.labels == b.labels


def _digest(datasets):
    """SHA-256 over the records, labels and sorted-JSON meta of ``datasets``."""
    h = hashlib.sha256()
    for ds in datasets:
        h.update(json.dumps([[dataclasses.astuple(rec) for rec in ds.records],
                             [label.value for label in ds.labels], ds.meta],
                            sort_keys=True).encode())
    return h.hexdigest()


def _chained_injections():
    """One GOOSE and one SV stream, each injected with every class it supports."""
    ds = goose_base(seed=3, events=3, duration_us=180_000_000)
    for n, klass in enumerate([Label.SYSTEM_PROBLEM, Label.DOS, Label.DATA_INJECTION,
                               Label.REPLAY]):
        ds = inject(ds, klass, 2, seed=n)
    yield ds
    ds = sv_base(seed=3, duration_us=100_000)
    for n, klass in enumerate([Label.SYSTEM_PROBLEM, Label.DOS, Label.DATA_INJECTION]):
        ds = inject(ds, klass, 2, seed=n)
    yield ds


class TestGeneratorPins:
    """The generator's exact output. Every scenario, eval set and benchmark
    input follows from it, so a change that alters it on purpose must update
    these digests on purpose."""

    @pytest.mark.parametrize("protocol, anomalies, normals, digest", [
        ("GOOSE", 55, 25, "2953494528030f0d5ec6a11d81ba66f3e303e9b86c938b1a9d7de1cc07dc0299"),
        ("SV", 60, 20, "72a34b069be6e7328d5b5e32d415f8c2ce7e78411d58c48326a20993fe2403fa"),
    ])
    def test_eval_sets(self, protocol, anomalies, normals, digest):
        assert _digest(make_eval_set(protocol, anomalies, normals, seed=seed)
                       for seed in range(100)) == digest

    def test_chained_injections(self):
        assert _digest(_chained_injections()) == (
            "feb81127b9be1281bb2a8bb30e7208c62ea664a296627677313e98925fabb71a")

    def test_refused_seed(self):
        with pytest.raises(InsufficientCarrierError, match=r"^no feasible site for sys$"):
            make_eval_set("SV", 60, 20, seed=1742178692)


# The quadratic site searches that _goose_replay_sites and _goose_gap_sites
# replaced, kept as the reference they must agree with.
def _oracle_replay_sites(work):
    sites = []
    for i, end in _goose_chain_sites(work):
        st = work[i][0].stNum
        if any(w[0].stNum == st and w[0].sqNum == 0 for w in work[:i + 1]):
            sites.append((i, end))
    return sites


def _oracle_gap_sites(work):
    candidates = []
    for i in range(len(work) - 2):
        m = 0
        survivor = None
        while True:
            nxt = i + m + 1
            if nxt >= len(work):
                break
            if work[nxt][0].time_us - work[i][0].time_us > _GAP_TRIGGER_US:
                survivor = nxt
                break
            # never delete an era-start record: replay injections need the
            # (stNum, 0) originals to stay observable
            if not _normal(work, nxt) or work[nxt][0].sqNum == 0:
                break
            m += 1
        if (survivor is None or m < 1 or not _normal(work, survivor)
                or work[survivor][0].sqNum == 0):
            continue
        candidates.append((i, m))
    return candidates


def _work(ds):
    return [[rec, label] for rec, label in zip(ds.records, ds.labels)]


def _hand_work(rows):
    """[[record, label]] from (time_us, stNum, sqNum[, label]) rows."""
    return [[_goose_record(row[0], row[1], row[2], False),
             row[3] if len(row) > 3 else Label.NORMAL] for row in rows]


def _injected_streams():
    """Multi-era streams carrying every GOOSE injection class, in several orders."""
    plans = [
        [(Label.SYSTEM_PROBLEM, 2), (Label.DOS, 1), (Label.DATA_INJECTION, 3), (Label.REPLAY, 2)],
        [(Label.DATA_INJECTION, 4), (Label.REPLAY, 3), (Label.SYSTEM_PROBLEM, 1)],
        [(Label.REPLAY, 2), (Label.DATA_INJECTION, 3), (Label.REPLAY, 2), (Label.DOS, 1),
         (Label.SYSTEM_PROBLEM, 1)],
    ]
    for seed in range(6):
        for p, plan in enumerate(plans):
            ds = goose_base(seed=seed, events=3 + seed % 2, duration_us=180_000_000)
            for n, (klass, count) in enumerate(plan):
                try:
                    ds = inject(ds, klass, count, seed=100 * seed + 10 * p + n)
                except InsufficientCarrierError:
                    continue
            yield ds


def _random_work(rng, n):
    """Time-sorted records with clashing stNum/sqNum values, any labels, and
    steps that straddle the 4 ms chain bound and the gap trigger."""
    steps = [0, 1, 3_999, 4_000, 2_000_000, _GAP_TRIGGER_US - 1, _GAP_TRIGGER_US,
             _GAP_TRIGGER_US + 1, 3 * _GAP_TRIGGER_US]
    labels = [Label.NORMAL] * 6 + list(Label)
    work, t = [], 0
    for _ in range(n):
        t += rng.choice(steps)
        rec = _goose_record(t, rng.randint(1, 3), rng.choice([0, 0, 1, 2, 3]),
                            rng.random() < 0.5)
        work.append([rec, rng.choice(labels)])
    return work


class TestInjectionSiteSearch:
    """The one-pass site searches return exactly the reference site lists,
    in order, so every seeded rng.choice still draws the same site."""

    def _agree(self, work):
        assert _goose_replay_sites(work) == _oracle_replay_sites(work)
        assert _goose_gap_sites(work) == _oracle_gap_sites(work)

    def test_multi_era_streams_with_backoff(self):
        for seed in range(8):
            for events in (1, 2, 4):
                work = _work(goose_base(seed=seed, events=events, duration_us=120_000_000))
                assert _goose_replay_sites(work) and _goose_gap_sites(work)
                self._agree(work)

    def test_injected_streams(self):
        kinds = set()
        for ds in _injected_streams():
            kinds.update(ds.labels)
            self._agree(_work(ds))
        assert kinds == set(Label)

    def test_trimmed_heads(self):
        # dropping the head removes era starts, so for the trimmed era the
        # only (stNum, 0) record left may be a replayed copy after the anchor
        for ds in _injected_streams():
            work = _work(ds)
            for cut in (1, 2, 5, len(work) // 3, len(work) // 2):
                self._agree(work[cut:])

    def test_era_start_after_the_anchor_or_missing(self):
        work = _hand_work([(0, 2, 1), (2_000_000, 2, 2), (4_000_000, 2, 0, Label.REPLAY),
                           (6_000_000, 2, 3), (8_000_000, 2, 4), (10_000_000, 3, 1)])
        assert _goose_replay_sites(work) == [(3, 3), (4, 4)]
        self._agree(work)
        self._agree(work[:2])

    def test_random_lists(self):
        rng = random.Random(13)
        for _ in range(3_000):
            self._agree(_random_work(rng, rng.randint(0, 30)))

    @pytest.mark.parametrize("rows", [
        [],
        [(0, 1, 0)],
        [(0, 1, 0), (4_000, 1, 1)],
        [(0, 1, 0), (4_000, 1, 1), (_GAP_TRIGGER_US + 1, 1, 2)],
        [(0, 1, 1), (0, 1, 2), (0, 1, 3)],
        [(0, 1, 1), (0, 1, 2), (_GAP_TRIGGER_US + 1, 1, 3), (_GAP_TRIGGER_US + 1, 1, 4)],
    ])
    def test_tiny_lists_and_equal_timestamps(self, rows):
        self._agree(_hand_work(rows))

    @pytest.mark.parametrize("offset, sites", [
        (_GAP_TRIGGER_US, []),          # not more than the trigger after the anchor
        (_GAP_TRIGGER_US + 1, [(0, 1)]),
    ])
    def test_survivor_must_be_strictly_past_the_trigger(self, offset, sites):
        work = _hand_work([(0, 1, 1), (5_000_000, 1, 2), (offset, 1, 3)])
        assert _goose_gap_sites(work) == sites
        self._agree(work)

    def test_inject_and_eval_sets_match_the_reference_search(self, monkeypatch):
        def build():
            out = [make_eval_set("GOOSE", anomalies=55, normals=25, seed=seed)
                   for seed in range(25)]
            out += list(_injected_streams())
            return [(ds.records, ds.labels, ds.meta) for ds in out]

        fast = build()
        monkeypatch.setattr(simulate, "_goose_replay_sites", _oracle_replay_sites)
        monkeypatch.setattr(simulate, "_goose_gap_sites", _oracle_gap_sites)
        assert build() == fast
