"""Scenario generator: clean GOOSE/SV streams plus labeled anomaly injection.

Ground truth discipline: every record labeled non-NORMAL violates at least
one full-level rule, and no NORMAL record does. Because the rule engine
keeps updating stream state from anomalous packets, each injection below is
placed so that the packets around it stay rule-compliant (no collateral
false positives).
"""

import random
from dataclasses import dataclass, replace
from typing import List

from .errors import (
    InsufficientCarrierError,
    InvariantViolationError,
    UnsupportedInjectionError,
)
from .frames import ETHERTYPE_GOOSE, ETHERTYPE_SV
from .records import GooseRecord, Label, LabeledDataset, SvRecord

GOOSE_DM_DEFAULT = "01:0c:cd:01:00:03"   # IEC multicast prefix + documented low octets
SV_DM_DEFAULT = "01:0c:cd:04:00:01"
SM_DEFAULT = "00:00:00:27:34:31"         # documented low octets, zero OUI (assumption)

GOOSE_APPID = 3
SV_APPID = 0x40

SV_RATE_HZ = 4800               # samples per second of every SV stream
GOOSE_HEARTBEAT_US = 2_000_000  # GOOSE retransmission interval at rest
_SV_BURST_MIN = 13        # sv_dos_max_packets + 1
_GOOSE_BURST_MIN = 11     # goose_dos_max_packets + 1
_SV_BURST_SPACING_US = 80  # below the 104 us floor, so every burst packet fires
_SV_NOMINAL_US = 208
_GAP_TRIGGER_US = 10_500_000  # comfortably past the 10 s silence bound


@dataclass
class ScenarioConfig:
    protocol: str
    duration_us: int
    seed: int = 0
    goose_event_count: int = 0
    jitter_pct: float = 0.0

    def validate(self):
        if self.protocol not in ("GOOSE", "SV"):
            raise InvariantViolationError(f"unknown protocol {self.protocol!r}")
        if self.duration_us <= 0:
            raise InvariantViolationError("duration_us must be positive")
        if not 0 <= self.jitter_pct < 100:  # NaN fails both comparisons
            raise InvariantViolationError(
                f"jitter_pct must be in [0, 100), got {self.jitter_pct!r}")


def _goose_record(time_us, st, sq, data1, data2=False):
    return GooseRecord(
        time_us=time_us, dm=GOOSE_DM_DEFAULT, sm=SM_DEFAULT,
        ethertype=ETHERTYPE_GOOSE, appid=GOOSE_APPID,
        datSet="IED1/LLN0$ds1", goID="gcb1", gocbRef="IED1/LLN0$GO$gcb1",
        stNum=st, sqNum=sq, data1=data1, data2=data2,
    )


def _sv_record(time_us, smp_cnt):
    return SvRecord(
        time_us=time_us, dm=SV_DM_DEFAULT, sm=SM_DEFAULT,
        ethertype=ETHERTYPE_SV, appid=SV_APPID, svID="MU01", smpCnt=smp_cnt,
    )


def _sample_event_times(rng, cfg) -> List[int]:
    if cfg.goose_event_count == 0:
        return []
    lo = int(0.15 * cfg.duration_us)
    hi = int(0.55 * cfg.duration_us)
    step = (hi - lo) / cfg.goose_event_count
    if step < 2.5 * GOOSE_HEARTBEAT_US:
        raise InsufficientCarrierError(
            f"{cfg.goose_event_count} events do not fit into {cfg.duration_us} us"
        )
    return [int(lo + i * step + rng.uniform(0.1, 0.4) * step)
            for i in range(cfg.goose_event_count)]


def gen_goose_normal(cfg: ScenarioConfig) -> LabeledDataset:
    """Heartbeat stream with optional data-change events and fast retransmission.

    Each event starts a new era: stNum+1, sqNum=0, data1 toggled, then
    retransmissions at doubling intervals (4, 8, 16, ... ms) backing off to
    the heartbeat.
    """
    cfg.validate()
    if cfg.protocol != "GOOSE":
        raise InvariantViolationError("gen_goose_normal requires protocol GOOSE")
    rng = random.Random(cfg.seed)
    events = _sample_event_times(rng, cfg)
    jitter = cfg.jitter_pct / 100.0

    records: List[GooseRecord] = []
    era_starts = [0] + events
    for era, start in enumerate(era_starts):
        end = era_starts[era + 1] if era + 1 < len(era_starts) else None
        st = era + 1
        data1 = era % 2 == 1
        t = start
        sq = 0
        backoff = 4_000
        while (t < end) if end is not None else (t <= cfg.duration_us):
            records.append(_goose_record(t, st, sq, data1))
            sq += 1
            if era > 0 and backoff < GOOSE_HEARTBEAT_US:
                interval = backoff
                backoff *= 2
            else:
                interval = GOOSE_HEARTBEAT_US
                if jitter:
                    interval = int(interval * (1 + rng.uniform(-jitter, jitter)))
            t += interval
    meta = {"seed": cfg.seed, "scenario": "goose-normal",
            "duration_us": cfg.duration_us, "events": events}
    return LabeledDataset("GOOSE", records, [Label.NORMAL] * len(records), meta)


def gen_sv_normal(cfg: ScenarioConfig) -> LabeledDataset:
    """Sampled-value stream at ``SV_RATE_HZ``; smpCnt wraps 4799 -> 0."""
    cfg.validate()
    if cfg.protocol != "SV":
        raise InvariantViolationError("gen_sv_normal requires protocol SV")
    rng = random.Random(cfg.seed)
    nominal = 1_000_000 / SV_RATE_HZ
    jitter = cfg.jitter_pct / 100.0

    records: List[SvRecord] = []
    i = 0
    t = 0
    while True:
        if jitter:
            time_us = t
            if time_us >= cfg.duration_us:
                break
            t += max(1, round(nominal * (1 + rng.uniform(-jitter, jitter))))
        else:
            time_us = round(i * nominal)
            if time_us >= cfg.duration_us:
                break
        records.append(_sv_record(time_us, i % 4800))
        i += 1
    meta = {"seed": cfg.seed, "scenario": "sv-normal",
            "duration_us": cfg.duration_us, "rate_hz": SV_RATE_HZ}
    return LabeledDataset("SV", records, [Label.NORMAL] * len(records), meta)


# ---------------------------------------------------------------------------
# Injection machinery: every mutator works on a list of [record, label] pairs
# and returns True on success, False when no safe site exists.
# ---------------------------------------------------------------------------

def _normal(work, i) -> bool:
    return 0 <= i < len(work) and work[i][1] == Label.NORMAL


def _gap(work, i) -> int:
    return work[i + 1][0].time_us - work[i][0].time_us


def _goose_insert_sites(work, min_gap_us, extra=None):
    sites = []
    for i in range(len(work) - 1):
        if not (_normal(work, i) and _normal(work, i + 1)):
            continue
        if _gap(work, i) < min_gap_us:
            continue
        if extra is not None and not extra(i):
            continue
        sites.append(i)
    return sites


def _goose_chain_sites(work):
    """Insertion points for counter-rollback copies.

    Each site is (anchor, end): ``anchor`` is a NORMAL record, ``end`` the
    last record of the rollback/replay chain already hanging off it. New
    copies go after ``end`` with a non-increasing sqNum, so every chain
    member keeps firing the no-increase rule; the first record after the
    chain must not be one whose own flagging depends on its predecessor
    (a DoS burst or a silence-gap survivor).
    """
    sites = []
    i = 0
    n = len(work)
    while i < n - 1:
        if not _normal(work, i):
            i += 1
            continue
        anchor = work[i][0]
        end = i
        while end + 1 < n:
            rec, label = work[end + 1]
            # only same-era faithful copies continue a rollback chain
            if (label in (Label.DATA_INJECTION, Label.REPLAY)
                    and rec.stNum == anchor.stNum
                    and (rec.data1, rec.data2) == (anchor.data1, anchor.data2)
                    and rec.sqNum <= work[end][0].sqNum):
                end += 1
            else:
                break
        nxt = end + 1
        if (nxt < n and work[nxt][1] not in (Label.DOS, Label.SYSTEM_PROBLEM)
                and work[nxt][0].time_us - work[end][0].time_us >= 4_000):
            sites.append((i, end))
        i = nxt
    return sites


def _goose_di_sq_decrease(work, rng) -> bool:
    sites = _goose_chain_sites(work)
    if not sites:
        return False
    i, end = rng.choice(sites)
    prev = work[end][0]
    gap = work[end + 1][0].time_us - prev.time_us
    rec = replace(work[i][0], time_us=prev.time_us + gap // 2,
                  sqNum=max(prev.sqNum - 1, 0))
    work.insert(end + 1, [rec, Label.DATA_INJECTION])
    return True


def _goose_di_st_decrease(work, rng) -> bool:
    sites = _goose_insert_sites(
        work, 2_000,
        lambda i: work[i][0].stNum >= 2 and work[i + 1][0].stNum == work[i][0].stNum,
    )
    if not sites:
        return False
    i = rng.choice(sites)
    src = work[i][0]
    # unseen sqNum keeps this a pure counter rollback, not a replay
    rec = replace(src, time_us=src.time_us + _gap(work, i) // 2,
                  stNum=src.stNum - 1, sqNum=src.sqNum + 100_000)
    work.insert(i + 1, [rec, Label.DATA_INJECTION])
    return True


def _goose_di_data_flip(work, rng) -> bool:
    # placed just before an era boundary, flipping to the next era's data,
    # so the boundary record remains compliant afterwards
    sites = _goose_insert_sites(
        work, 2_000, lambda i: work[i + 1][0].stNum == work[i][0].stNum + 1,
    )
    if not sites:
        return False
    i = rng.choice(sites)
    src = work[i][0]
    nxt = work[i + 1][0]
    rec = replace(src, time_us=src.time_us + _gap(work, i) // 2,
                  sqNum=src.sqNum + 1, data1=nxt.data1, data2=nxt.data2)
    work.insert(i + 1, [rec, Label.DATA_INJECTION])
    return True


def _goose_replay_sites(work):
    """Chain sites whose anchor's era-start message (stNum, sqNum=0) was sent
    at or before the anchor, in chain-site order."""
    era_start = {}  # stNum -> index of its first sqNum-0 record
    for k, (rec, _) in enumerate(work):
        if rec.sqNum == 0 and rec.stNum not in era_start:
            era_start[rec.stNum] = k
    return [(i, end) for i, end in _goose_chain_sites(work)
            if era_start.get(work[i][0].stNum, i + 1) <= i]


def _goose_replay(work, rng) -> bool:
    """Re-emit the era-start message (stNum, sqNum=0) after newer traffic."""
    sites = _goose_replay_sites(work)
    if not sites:
        return False
    i, end = rng.choice(sites)
    prev = work[end][0]
    gap = work[end + 1][0].time_us - prev.time_us
    rec = replace(work[i][0], time_us=prev.time_us + gap // 2, sqNum=0)
    work.insert(end + 1, [rec, Label.REPLAY])
    return True


def _goose_dos(work, rng, size=None) -> bool:
    burst = size if size is not None else rng.randint(_GOOSE_BURST_MIN, _GOOSE_BURST_MIN + 9)
    spacing = 900
    span = 200_000 + (burst - 1) * spacing
    sites = _goose_insert_sites(work, span + 120_000)
    if not sites:
        return False
    i = rng.choice(sites)
    src = work[i][0]
    inserts = [[replace(src, time_us=src.time_us + 200_000 + j * spacing), Label.DOS]
               for j in range(burst)]
    work[i + 1 : i + 1] = inserts
    return True


def _goose_gap_sites(work):
    """(anchor, m) pairs, by anchor: deleting the ``m >= 1`` records after the
    anchor leaves the first record more than ``_GAP_TRIGGER_US`` after it
    (the survivor) as the anchor's successor.

    The anchor may carry any label: only the deleted run and the survivor
    matter, and the survivor is relabeled regardless of what fires on it.
    Both must be NORMAL and must not be era starts, because replay
    injections need the (stNum, 0) originals to stay observable. Records
    are time-sorted, so the survivor index never decreases with the anchor.
    """
    n = len(work)
    # blocked_from[k]: the first index >= k that may be neither deleted nor
    # a survivor (n if none)
    blocked_from = [n] * (n + 1)
    for k in range(n - 1, -1, -1):
        rec, label = work[k]
        blocked_from[k] = (k if label != Label.NORMAL or rec.sqNum == 0
                           else blocked_from[k + 1])
    sites = []
    survivor = 0
    for i in range(n - 2):
        limit = work[i][0].time_us + _GAP_TRIGGER_US
        while survivor < n and work[survivor][0].time_us <= limit:
            survivor += 1
        if survivor == n:
            break
        if survivor - i > 1 and blocked_from[i + 1] > survivor:
            sites.append((i, survivor - i - 1))
    return sites


def _goose_sys(work, rng, frugal=False) -> bool:
    """Delete a run of records so the next packet arrives > 10 s late.

    With ``frugal`` the least-destructive sites (fewest deletions) are
    preferred, which keeps dense eval sets feasible.
    """
    candidates = _goose_gap_sites(work)
    if not candidates:
        return False
    if frugal:
        least = min(m for _, m in candidates)
        candidates = [c for c in candidates if c[1] == least]
    i, m = rng.choice(candidates)
    del work[i + 1 : i + 1 + m]
    work[i + 1][1] = Label.SYSTEM_PROBLEM
    return True


def _sv_di_out_of_range(work, rng) -> bool:
    sites = [
        i for i in range(len(work))
        if _normal(work, i)
        and (i + 1 >= len(work) or work[i + 1][1] != Label.SYSTEM_PROBLEM)
    ]
    if not sites:
        return False
    i = rng.choice(sites)
    work[i][0] = replace(work[i][0], smpCnt=rng.randint(4800, 65535))
    work[i][1] = Label.DATA_INJECTION
    return True


def _sv_di_decrease(work, rng) -> bool:
    """Append a decreasing smpCnt at the stream tail (no successor to poison)."""
    if not work:
        return False
    tail = work[-1][0]
    if 1 <= tail.smpCnt <= 4799:
        value = tail.smpCnt - rng.randint(1, min(50, tail.smpCnt))
    else:
        # no in-range headroom below the tail: out-of-range value instead
        value = rng.randint(4800, 65535)
    rec = replace(tail, time_us=tail.time_us + _SV_NOMINAL_US, smpCnt=value)
    work.append([rec, Label.DATA_INJECTION])
    return True


def _sv_dos(work, rng, size=None) -> bool:
    """Append a sub-104 us burst at the stream tail.

    smpCnt keeps a clean +1 chain, so every burst packet is flagged purely
    by timing (inter-arrival far below nominal) and nothing else moves.
    """
    burst = size if size is not None else rng.randint(_SV_BURST_MIN, _SV_BURST_MIN + 7)
    if not work:
        return False
    tail = work[-1][0]
    smp = tail.smpCnt if tail.smpCnt <= 4799 else 4799
    t = tail.time_us
    for _ in range(burst):
        smp = (smp + 1) % 4800
        t += _SV_BURST_SPACING_US
        work.append([replace(tail, time_us=t, smpCnt=smp), Label.DOS])
    return True


def _sv_sys(work, rng) -> bool:
    """Delete one record: the next arrival shows a sample-count skip."""
    sites = [
        i for i in range(1, len(work) - 1)
        if _normal(work, i - 1) and _normal(work, i) and _normal(work, i + 1)
        and work[i - 1][0].smpCnt <= 4799 and work[i + 1][0].smpCnt <= 4799
    ]
    if not sites:
        return False
    i = rng.choice(sites)
    del work[i]
    work[i][1] = Label.SYSTEM_PROBLEM
    return True


def _shuffled(*variants):
    """A mutator that tries ``variants`` in a seeded order until one finds a site."""
    def mutator(work, rng) -> bool:
        order = list(variants)
        rng.shuffle(order)
        return any(fn(work, rng) for fn in order)
    return mutator


_goose_di = _shuffled(_goose_di_sq_decrease, _goose_di_st_decrease, _goose_di_data_flip)
_sv_di = _shuffled(_sv_di_out_of_range, _sv_di_decrease)


# (protocol, class) -> (mutator, the InsufficientCarrierError text when it
# finds no site). Both inject and make_eval_set take their mutators here.
_MUTATORS = {
    ("GOOSE", Label.DATA_INJECTION): (_goose_di, "no feasible GOOSE data-injection site"),
    ("GOOSE", Label.DOS): (_goose_dos, "no quiet pocket for a GOOSE DoS burst"),
    ("GOOSE", Label.REPLAY): (_goose_replay, "no feasible GOOSE replay site"),
    ("GOOSE", Label.SYSTEM_PROBLEM): (
        _goose_sys, "not enough consecutive clean records for a GOOSE gap"),
    ("SV", Label.DATA_INJECTION): (_sv_di, "no feasible SV data-injection site"),
    ("SV", Label.DOS): (_sv_dos, "no feasible SV DoS burst segment"),
    ("SV", Label.SYSTEM_PROBLEM): (_sv_sys, "no feasible SV sample-skip site"),
}


def _dataset(protocol: str, work, meta: dict) -> LabeledDataset:
    """The validated dataset that the ``[record, label]`` list ``work`` holds."""
    out = LabeledDataset(protocol, [rec for rec, _ in work], [label for _, label in work], meta)
    out.validate()
    return out


def inject(dataset: LabeledDataset, klass: Label, count: int, seed: int) -> LabeledDataset:
    """Insert/mutate/delete records to host ``count`` injection events.

    A DoS event contributes a whole burst of labeled records; other classes
    contribute one. Injections compose. Raises UnsupportedInjectionError for
    REPLAY on SV and InsufficientCarrierError when no collateral-free site
    remains. The mutator comes from the table ``make_eval_set`` uses too.
    All ``count`` events edit one copy of the stream, which is validated once
    at the end: every mutator keeps the records time-sorted.
    """
    if count < 1:
        raise InvariantViolationError("injection count must be >= 1")
    if klass == Label.NORMAL:
        raise UnsupportedInjectionError("cannot inject NORMAL")
    if klass == Label.REPLAY and dataset.protocol == "SV":
        raise UnsupportedInjectionError("no replay rule exists for SV streams")
    dataset.validate()
    if (dataset.protocol, klass) not in _MUTATORS:
        raise UnsupportedInjectionError(f"unsupported {dataset.protocol} class {klass}")
    mutator, failure = _MUTATORS[dataset.protocol, klass]
    rng = random.Random(seed)
    work = [list(pair) for pair in zip(dataset.records, dataset.labels)]
    for _ in range(count):
        if not mutator(work, rng):
            raise InsufficientCarrierError(failure)
    meta = dict(dataset.meta)
    meta["injections"] = list(meta.get("injections", [])) + [
        {"klass": klass.value, "count": count, "seed": seed}]
    return _dataset(dataset.protocol, work, meta)


# ---------------------------------------------------------------------------
# Evaluation-set builder
# ---------------------------------------------------------------------------

_DEFAULT_MIX = {
    "GOOSE": {Label.DATA_INJECTION: 0.4, Label.DOS: 0.2,
              Label.REPLAY: 0.2, Label.SYSTEM_PROBLEM: 0.2},
    "SV": {Label.DATA_INJECTION: 0.5, Label.DOS: 0.3, Label.SYSTEM_PROBLEM: 0.2},
}

# make_eval_set's plan kinds: the class whose mutator each runs. SV data
# injections are planned as one variant each, so they skip the table.
_PLAN_CLASSES = {"dos": Label.DOS, "sys": Label.SYSTEM_PROBLEM,
                 "replay": Label.REPLAY, "di": Label.DATA_INJECTION}
_SV_DI_VARIANTS = {"sv_oor": _sv_di_out_of_range, "sv_dec": _sv_di_decrease}


def make_eval_set(protocol: str, anomalies: int, normals: int,
                  seed: int = 0) -> LabeledDataset:
    """Build a dataset whose label histogram is exactly (anomalies, normals).

    The anomaly classes are drawn with the protocol's ``_DEFAULT_MIX``
    weights. The carrier is a clean single-era stream (GOOSE at the uniform
    heartbeat, which keeps deletion sites cheap). Seeded events run the
    mutators of the table ``inject`` uses on one ``[record, label]`` list,
    whose tail is topped up with clean records when an event consumed
    normal ones; the result is validated once. A seed with an event that
    finds no site is refused with InsufficientCarrierError (3 of 20,000
    sampled SV 60/20 seeds); the benchmark's ``PaperEval.setup`` skips and
    lists such seeds.
    """
    if protocol not in ("GOOSE", "SV"):
        raise InvariantViolationError(f"unknown protocol {protocol!r}")
    if anomalies < 0 or normals <= 0:
        raise InvariantViolationError("need anomalies >= 0 and normals > 0")
    rng = random.Random(seed)
    plan = _plan_injections(protocol, anomalies, rng)

    cfg = ScenarioConfig(protocol=protocol, seed=rng.randrange(2**32),
                         duration_us=(GOOSE_HEARTBEAT_US * (normals + 2)
                                      if protocol == "GOOSE" else (normals + 60) * 209))
    carrier = gen_goose_normal(cfg) if protocol == "GOOSE" else gen_sv_normal(cfg)
    work = [[rec, Label.NORMAL] for rec in carrier.records[:normals]]
    meta = dict(carrier.meta)
    if plan:
        meta["injections"] = []

    # gap deletions go first while long clean spans still exist; each one
    # appends fresh tail records, so later injections only gain sites
    order = {"sys": 0, "dos": 1, "sv_oor": 2, "di": 2, "replay": 2, "sv_dec": 3}
    for kind, size in sorted(plan, key=lambda p: order[p[0]]):
        irng = random.Random(rng.randrange(2**32))
        if kind in _SV_DI_VARIANTS:
            found = _SV_DI_VARIANTS[kind](work, irng)
        else:
            options = ({"size": size} if kind == "dos" else
                       {"frugal": True} if kind == "sys" and protocol == "GOOSE" else {})
            found = _MUTATORS[protocol, _PLAN_CLASSES[kind]][0](work, irng, **options)
        if not found:
            raise InsufficientCarrierError(f"no feasible site for {kind}")
        meta["injections"].append({"klass": kind, "seed": seed})
        # top the pool back up: tail-appended records are always rule-clean
        for _ in range(normals - sum(label is Label.NORMAL for _, label in work)):
            tail = work[-1][0]
            if protocol == "GOOSE":
                rec = replace(tail, time_us=tail.time_us + GOOSE_HEARTBEAT_US,
                              sqNum=tail.sqNum + 1)
            else:
                # after an out-of-range tail any in-range value is accepted; the
                # gap clears the DoS window in case a burst precedes the append
                nxt = (tail.smpCnt + 1) % 4800 if tail.smpCnt <= 4799 else 0
                rec = replace(tail, time_us=tail.time_us + 2_200, smpCnt=nxt)
            work.append([rec, Label.NORMAL])

    got_anom = sum(1 for _, label in work if label != Label.NORMAL)
    got_norm = len(work) - got_anom
    if got_anom != anomalies or got_norm != normals:
        raise InsufficientCarrierError(
            f"composition failed: got {got_anom} anomalies / {got_norm} normals, "
            f"wanted {anomalies} / {normals}"
        )
    meta["scenario"] = f"{protocol.lower()}-eval-{anomalies}a-{normals}n"
    meta["seed"] = seed
    return _dataset(protocol, work, meta)


def _plan_injections(protocol, anomalies, rng):
    """Split the anomaly budget into (kind, size) events drawn with the
    protocol's default mix; a DoS draw too big for the budget left is
    redrawn, and every mix holds a one-record class."""
    burst_min = _GOOSE_BURST_MIN if protocol == "GOOSE" else _SV_BURST_MIN
    burst_max = burst_min + 7
    plan = []
    remaining = anomalies
    mix = _DEFAULT_MIX[protocol]
    classes, weights = list(mix), list(mix.values())
    while remaining > 0:
        klass = rng.choices(classes, weights=weights)[0]
        if klass == Label.DOS:
            if remaining < burst_min:
                continue
            size = rng.randint(burst_min, min(burst_max, remaining))
            plan.append(("dos", size))
            remaining -= size
        elif klass == Label.SYSTEM_PROBLEM:
            plan.append(("sys", 1))
            remaining -= 1
        elif klass == Label.REPLAY:
            plan.append(("replay", 1))
            remaining -= 1
        elif protocol == "SV":
            plan.append((rng.choice(["sv_oor", "sv_dec"]), 1))
            remaining -= 1
        else:
            plan.append(("di", 1))
            remaining -= 1
    return plan
