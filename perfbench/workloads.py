"""Seeded inputs, operations and checks for the three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
operation per ``op`` call; the program sees only those generated inputs.
Every library call goes through ``tracer.call``, so the traced run records
one span per public call. ``isolate`` re-runs single layers on the
operation's data (decode, DoS window, replay memory, prompts) and is called
only after the operation's span has closed.

- ``sv-capture``: rotated pcap files, each carrying several 4,800 samples/s
  SV merging units with injected attacks, foreign frames and truncated
  APDUs. SV is almost all real traffic volume; this path skips ``llm``,
  ``simulate`` and JSONL.
- ``goose-capture``: one long capture of many GOOSE publishers, all four
  attack classes. It runs the GOOSE decoder and steppers, and the replay
  memory grows with stream length; an SV-only change should not move it.
- ``paper-eval``: many small seeded scenarios (the test suite's shapes)
  through generation, every artifact writer, the rule engine and the LLM
  adapter at three levels, and the metrics table. It never decodes, so it
  shows the per-call overhead and the write side of the codecs.
"""

import heapq
import os
import random
from dataclasses import dataclass, replace
from typing import List

from gridsentry import frames, llm, pcapio, records, rules, simulate
from gridsentry.errors import InsufficientCarrierError, ToolkitError
from gridsentry.metrics import confusion, metrics as score, render_table
from gridsentry.records import Label, LabeledDataset

try:
    from gridsentry import kernels
except ImportError:  # the kernels layer is slated for removal; its metric then reads 0
    kernels = None


@dataclass(frozen=True)
class Size:
    sv_files: int
    sv_units: int
    sv_file_us: int
    goose_publishers: int
    goose_duration_us: int
    goose_events: int
    eval_pool: int
    min_ops: int      # timed operations per run, at least
    import_reps: int  # fresh interpreters importing gridsentry per run
    setup_reps: int   # input generations per run


SIZE = Size(sv_files=24, sv_units=4, sv_file_us=250_000,
            goose_publishers=8, goose_duration_us=3_600_000_000, goose_events=20,
            eval_pool=64, min_ops=100, import_reps=9, setup_reps=5)

# (class, count) injection events per simulated stream, applied in this
# order: gaps first while long clean spans exist, as make_eval_set does. The
# counts are fixed, so every seed asks set-up for the same amount of work.
SV_ATTACKS = [(Label.SYSTEM_PROBLEM, 1), (Label.DOS, 1), (Label.DATA_INJECTION, 2)]
GOOSE_ATTACKS = [(Label.SYSTEM_PROBLEM, 2), (Label.DOS, 1),
                 (Label.DATA_INJECTION, 2), (Label.REPLAY, 2)]

# One foreign frame per FOREIGN_EVERY records and one truncated copy of a
# GOOSE/SV frame per TRUNCATED_EVERY records.
FOREIGN_EVERY = 200
TRUNCATED_EVERY = 500
FOREIGN = [  # (ethertype, destination MAC, payload bytes)
    (0x88F7, bytes.fromhex("011b19000000"), 44),  # PTP
    (0x0806, bytes.fromhex("ffffffffffff"), 28),  # ARP
]

EVAL_SHAPES = {"GOOSE": (55, 25), "SV": (60, 20)}  # (anomalies, normals), as in tests/conftest.py
LEVELS = [rules.RuleSet.for_level(level) for level in rules.Level]  # without, partial, full
FULL_RULES = LEVELS[-1]


class Checks:
    """Correctness bookkeeping: checks run, problems found, records scored."""

    def __init__(self):
        self.checks = 0
        self.problems: List[str] = []
        self.attempted = 0
        self.wrong = 0

    def expect(self, ok, message):
        self.checks += 1
        if not ok:
            self.problems.append(message)

    def score(self, predictions, anomalous):
        """Count records whose prediction differs from the ground truth."""
        self.attempted += len(anomalous)
        self.wrong += sum(p != a for p, a in zip(predictions, anomalous))
        self.wrong += abs(len(anomalous) - len(predictions))

    def fail(self, records):
        """Count every record of a failed operation as attempted and wrong."""
        self.attempted += records
        self.wrong += records


def prompt_bytes(bundles) -> int:
    """UTF-8 bytes of system plus user text sent to the LLM."""
    return sum(len(b.system_text.encode()) + len(b.user_text().encode()) for b in bundles)


def full_prompt_bytes(dataset) -> int:
    """Prompt bytes an LLM-mode user sends for ``dataset`` at the full level."""
    return prompt_bytes(llm.build_prompts(dataset, FULL_RULES, llm.ChatClientConfig()))


def _isolate_rules(tracer, dataset, rulesets):
    """Time the DoS window kernel alone and count streams and replay memory.

    The kernel gets the same per-stream timestamps detect_batch passes it,
    once per rule set that runs it. The replay memory is the G_RE_1 ``seen``
    set left after stepping every GOOSE stream through the public stepper.
    """
    streams = {}
    for rec in dataset.records:
        streams.setdefault(rules.StreamKey.of(rec), []).append(rec)
    tracer.count("rules.streams", len(streams))
    if kernels is not None:
        timestamps = [[rec.time_us for rec in recs] for recs in streams.values()]
        for ruleset in rulesets:
            cfg = ruleset.thresholds
            window, most = ((cfg.goose_dos_window_us, cfg.goose_dos_max_packets)
                            if dataset.protocol == "GOOSE"
                            else (cfg.sv_dos_window_us, cfg.sv_dos_max_packets))
            with tracer.span("kernels.dos_window_flags"):
                for ts in timestamps:
                    kernels.dos_window_flags(ts, window, most)
    if dataset.protocol == "GOOSE":
        entries = 0
        for recs in streams.values():
            state = rules.StreamState()
            for rec in recs:
                rules.step_goose(state, rec, FULL_RULES)
            entries += len(state.seen)
        tracer.count("rules.replay_memory_entries", entries)


def _retag(dataset, offset_us, **fields):
    """One simulated stream moved onto its own identity and clock offset."""
    return [(replace(rec, time_us=rec.time_us + offset_us, **fields), label)
            for rec, label in zip(dataset.records, dataset.labels)]


def _merge(protocol, streams):
    pairs = list(heapq.merge(*streams, key=lambda pair: pair[0].time_us))
    return LabeledDataset(protocol, [rec for rec, _ in pairs],
                          [label for _, label in pairs], {})


def _inject(tracer, dataset, attacks, rng):
    for klass, count in attacks:
        dataset = tracer.call("simulate.inject", simulate.inject,
                              dataset, klass, count, rng.randrange(2**32))
    return dataset


def _add_noise(raw, rng):
    """Insert foreign-ethertype frames and truncated copies of real frames.

    Each extra frame takes the timestamp of the frame it precedes, so the
    capture stays time-ordered. Returns (frames, foreign, truncated).
    """
    extra = []
    for _ in range(len(raw) // FOREIGN_EVERY):
        pos = rng.randrange(len(raw))
        ethertype, dst, size = rng.choice(FOREIGN)
        extra.append((pos, frames.RawFrame(raw[pos].timestamp, dst, raw[pos].src_mac,
                                           ethertype, rng.randbytes(size))))
    truncated = len(raw) // TRUNCATED_EVERY
    for _ in range(truncated):
        pos = rng.randrange(len(raw))
        src = raw[pos]
        extra.append((pos, replace(src, payload=src.payload[:rng.randrange(1, len(src.payload))])))
    extra.sort(key=lambda item: item[0])
    out = []
    k = 0
    for pos, frame in enumerate(raw):
        while k < len(extra) and extra[k][0] == pos:
            out.append(extra[k][1])
            k += 1
        out.append(frame)
    return out, len(extra) - truncated, truncated


@dataclass
class CaptureFile:
    path: str
    anomalous: List[bool]  # ground truth per record, in capture order
    foreign: int
    truncated: int
    size: int


@dataclass
class CaptureResult:
    raw: list
    other: list  # records of the other protocol; set-up writes none
    skipped: records.SkipReport
    dataset: LabeledDataset
    verdicts: list
    predictions: List[bool]


class _Capture:
    """pcap file -> records -> full-level verdicts -> per-record predictions."""

    protocol = ""

    def __init__(self, seed, size, outdir):
        self.seed = seed
        self.size = size
        self.outdir = outdir
        self.files: List[CaptureFile] = []
        self.declined = []  # set-up builds every capture or raises
        self.reference = {}

    @property
    def n_inputs(self):
        return len(self.files)

    def expected_records(self, i):
        return len(self.files[i % len(self.files)].anomalous)

    def _write(self, tracer, name, dataset, rng):
        raw = tracer.call("records.dataset_to_frames", records.dataset_to_frames, dataset)
        raw, foreign, truncated = _add_noise(raw, rng)
        path = os.path.join(self.outdir, name)
        tracer.call("pcapio.write_pcap", pcapio.write_pcap, raw, path)
        self.files.append(CaptureFile(path, [label != Label.NORMAL for label in dataset.labels],
                                      foreign, truncated, os.path.getsize(path)))

    def op(self, i, tracer):
        capture = self.files[i % len(self.files)]
        raw = tracer.call("pcapio.read_pcap", pcapio.read_pcap, capture.path)
        goose, sv, skipped = tracer.call("records.extract_records", records.extract_records, raw)
        recs, other = (goose, sv) if self.protocol == "GOOSE" else (sv, goose)
        dataset = LabeledDataset(self.protocol, recs, [Label.NORMAL] * len(recs), {})
        verdicts = tracer.call("rules.detect_batch", rules.detect_batch, dataset, FULL_RULES)
        predictions = tracer.call("rules.verdicts_to_predictions",
                                  rules.verdicts_to_predictions, verdicts, len(recs))
        return CaptureResult(raw, other, skipped, dataset, verdicts, predictions)

    def check(self, i, result, checks, score):
        key = i % len(self.files)
        capture = self.files[key]
        got = (len(result.dataset), len(result.other),
               result.skipped.skipped_ethertype, result.skipped.skipped_decode_errors)
        want = (len(capture.anomalous), 0, capture.foreign, capture.truncated)
        checks.expect(got == want, f"{os.path.basename(capture.path)}: decoded (records, "
                                   f"other-protocol records, foreign, undecodable) {got}, "
                                   f"set-up wrote {want}")
        first = self.reference.setdefault(key, result.predictions)
        checks.expect(first == result.predictions,
                      f"{os.path.basename(capture.path)}: predictions changed on a repeat")
        if score:
            checks.score(result.predictions, capture.anomalous)

    def isolate(self, i, result, tracer):
        capture = self.files[i % len(self.files)]
        if self.protocol == "GOOSE":
            decode, ethertype = frames.decode_goose, frames.ETHERTYPE_GOOSE
        else:
            decode, ethertype = frames.decode_sv, frames.ETHERTYPE_SV
        mine = [frame for frame in result.raw if frame.ethertype == ethertype]
        errors = 0
        with tracer.span("frames.decode"):
            for frame in mine:
                try:
                    decode(frame)
                except ToolkitError:
                    errors += 1
        for name, value in (
            ("pcapio.read_pcap.frames", len(result.raw)),
            ("pcapio.read_pcap.bytes", capture.size),
            ("frames.decode.frames", len(mine)),
            ("frames.decode.errors", errors),
            ("records.extract_records.records", len(result.dataset) + len(result.other)),
            ("records.skipped_ethertype", result.skipped.skipped_ethertype),
            ("records.skipped_decode_errors", result.skipped.skipped_decode_errors),
            ("rules.detect_batch.records", len(result.dataset)),
            ("rules.verdicts", len(result.verdicts)),
        ):
            tracer.count(name, value)
        _isolate_rules(tracer, result.dataset, [FULL_RULES])

    def prompt_dataset(self, result):
        return result.dataset

    def discard(self, result):
        pass


class SvCapture(_Capture):
    protocol = "SV"

    def setup(self, tracer):
        rng = random.Random(self.seed)
        size = self.size
        for f in range(size.sv_files):
            units = []
            for u in range(size.sv_units):
                cfg = simulate.ScenarioConfig(protocol="SV", duration_us=size.sv_file_us,
                                              seed=rng.randrange(2**32))
                dataset = tracer.call("simulate.gen_normal", simulate.gen_sv_normal, cfg)
                dataset = _inject(tracer, dataset, SV_ATTACKS, rng)
                offset = f * size.sv_file_us + rng.randrange(208)
                units.append(_retag(dataset, offset, sm=f"00:00:00:27:35:{u:02x}",
                                    dm=f"01:0c:cd:04:00:{u:02x}", appid=0x4000 + u,
                                    svID=f"MU{u + 1:02d}"))
            self._write(tracer, f"sv-{f:03d}.pcap", _merge("SV", units), rng)


class GooseCapture(_Capture):
    protocol = "GOOSE"

    def setup(self, tracer):
        rng = random.Random(self.seed)
        size = self.size
        publishers = []
        for p in range(size.goose_publishers):
            cfg = simulate.ScenarioConfig(protocol="GOOSE", duration_us=size.goose_duration_us,
                                          seed=rng.randrange(2**32),
                                          goose_event_count=size.goose_events)
            dataset = tracer.call("simulate.gen_normal", simulate.gen_goose_normal, cfg)
            dataset = _inject(tracer, dataset, GOOSE_ATTACKS, rng)
            ied = f"IED{p + 1:02d}"
            publishers.append(_retag(dataset, rng.randrange(2_000_000),
                                     sm=f"00:00:00:27:36:{p:02x}", dm=f"01:0c:cd:01:00:{p:02x}",
                                     appid=0x0100 + p, gocbRef=f"{ied}/LLN0$GO$gcb1",
                                     goID=f"{ied}_gcb1", datSet=f"{ied}/LLN0$ds1"))
        self._write(tracer, "goose.pcap", _merge("GOOSE", publishers), rng)


@dataclass
class EvalResult:
    dataset: LabeledDataset  # as generated
    loaded: LabeledDataset   # as read back from JSONL
    paths: List[str]
    rule_predictions: List[List[bool]]  # one list per level
    llm_reports: list
    verdicts: int
    table: str


class PaperEval:
    """One seeded scenario: generate, write every artifact, detect at three levels."""

    def __init__(self, seed, size, outdir):
        self.seed = seed
        self.size = size
        self.outdir = outdir
        self.chat = llm.ChatClientConfig()
        self.pool = []
        self.declined = []
        self.reference = {}
        self._serial = 0

    def setup(self, tracer):
        """Draw scenario seeds, keeping those make_eval_set can compose.

        make_eval_set raises InsufficientCarrierError when a seed leaves no
        feasible site for the requested shape (3 of 20,000 SV 60/20 seeds
        tried). Such seeds are skipped here and listed in ``declined``, so a
        run reports them instead of failing on them.
        """
        rng = random.Random(self.seed)
        self.pool, self.declined = [], []
        while len(self.pool) < self.size.eval_pool:
            protocol, seed = ("GOOSE", "SV")[len(self.pool) % 2], rng.randrange(2**31)
            try:
                tracer.call("simulate.make_eval_set", simulate.make_eval_set,
                            protocol, *EVAL_SHAPES[protocol], seed=seed)
                self.pool.append((protocol, seed))
            except InsufficientCarrierError:
                self.declined.append((protocol, seed))

    @property
    def n_inputs(self):
        return len(self.pool)

    def expected_records(self, i):
        return sum(EVAL_SHAPES[self.pool[i % len(self.pool)][0]])

    def op(self, i, tracer):
        protocol, seed = self.pool[i % len(self.pool)]
        anomalies, normals = EVAL_SHAPES[protocol]
        # every artifact goes to a fresh file: rewriting an existing one
        # costs a filesystem flush that would swamp the library's own time
        self._serial += 1
        base = os.path.join(self.outdir, f"s{self._serial}")
        paths = [base + ".jsonl", base + ".pcap", base + ".csv"]
        paths += [f"{base}-{ruleset.level.value}.transcript.jsonl" for ruleset in LEVELS]

        dataset = tracer.call("simulate.make_eval_set", simulate.make_eval_set,
                              protocol, anomalies, normals, seed=seed)
        tracer.call("records.save_jsonl", records.save_jsonl, dataset, paths[0])
        raw = tracer.call("records.dataset_to_frames", records.dataset_to_frames, dataset)
        tracer.call("pcapio.write_pcap", pcapio.write_pcap, raw, paths[1])
        tracer.call("records.export_csv", records.export_csv, dataset, paths[2])
        loaded = tracer.call("records.load_jsonl", records.load_jsonl, paths[0])

        rule_predictions, llm_reports, reports, verdicts = [], [], [], 0
        for ruleset, transcript in zip(LEVELS, paths[3:]):
            found = tracer.call("rules.detect_batch", rules.detect_batch, loaded, ruleset)
            predictions = tracer.call("rules.verdicts_to_predictions",
                                      rules.verdicts_to_predictions, found, len(loaded))
            client = tracer.call("llm.rules_mock_client", llm.RulesMockClient, loaded, ruleset)
            report = tracer.call("llm.detect_llm", llm.detect_llm, loaded, ruleset, self.chat,
                                 client, transcript_path=transcript)
            for detector, preds in (("rules", predictions), ("llm", report.predictions)):
                counts = tracer.call("metrics.confusion", confusion, loaded.labels, preds)
                reports.append(tracer.call("metrics.metrics", score, counts,
                                           (detector, ruleset.level.value, protocol)))
            rule_predictions.append(predictions)
            llm_reports.append(report)
            verdicts += len(found)
        table = tracer.call("metrics.render_table", render_table, reports)
        return EvalResult(dataset, loaded, paths, rule_predictions, llm_reports, verdicts, table)

    def check(self, i, result, checks, score):
        key = i % len(self.pool)
        name = "{}-seed{}".format(*self.pool[key])
        for ruleset, predictions, report in zip(LEVELS, result.rule_predictions,
                                                result.llm_reports):
            level = ruleset.level.value
            checks.expect(report.predictions == predictions and not report.failed_windows,
                          f"{name}: LLM over the rules mock disagrees with the rule engine "
                          f"at level {level}")
        first = self.reference.setdefault(key, (result.rule_predictions, result.table))
        checks.expect(first == (result.rule_predictions, result.table),
                      f"{name}: predictions changed on a repeat")
        if score:
            checks.score(result.rule_predictions[-1],
                         [label != Label.NORMAL for label in result.dataset.labels])

    def isolate(self, i, result, tracer):
        loaded = result.loaded
        for ruleset in LEVELS:
            bundles = tracer.call("llm.build_prompts", llm.build_prompts,
                                  loaded, ruleset, self.chat)
            client = llm.RulesMockClient(loaded, ruleset)
            replies = [client.complete(bundle, k) for k, bundle in enumerate(bundles)]
            with tracer.span("llm.parse_response"):
                for bundle, reply in zip(bundles, replies):
                    llm.parse_response(reply, bundle.window[1])
            tracer.count("llm.windows", len(bundles))
            if ruleset.level == rules.Level.FULL:
                tracer.count("llm.prompt_bytes", prompt_bytes(bundles))
        for name, value in (
            ("llm.failed_windows", sum(len(r.failed_windows) for r in result.llm_reports)),
            ("llm.parse_warnings", sum(len(r.warnings) for r in result.llm_reports)),
            ("llm.transcript_bytes", sum(os.path.getsize(p) for p in result.paths[3:])),
            ("records.jsonl_bytes", os.path.getsize(result.paths[0])),
            ("rules.detect_batch.records", len(loaded) * len(LEVELS)),
            ("rules.verdicts", result.verdicts),
        ):
            tracer.count(name, value)
        _isolate_rules(tracer, loaded,
                       [r for r in LEVELS if r.level != rules.Level.WITHOUT])

    def prompt_dataset(self, result):
        return result.loaded

    def discard(self, result):
        for path in result.paths:
            os.unlink(path)


WORKLOADS = {"sv-capture": SvCapture, "goose-capture": GooseCapture, "paper-eval": PaperEval}
