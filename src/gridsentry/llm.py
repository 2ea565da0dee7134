"""Rules-to-text adapter for chat-completion anomaly detection.

The rule set is rendered as numbered English sentences, each record window
as a legend of its streams and a table of its records, and the reply is
parsed back into per-record predictions. Clients are pluggable: a real
HTTP(S) endpoint reached through ``urllib``, a directory of canned reply
files, or a mock that runs the rule engine internally.
"""

import json
import os
import re
from dataclasses import dataclass, field, replace
from decimal import MAX_PREC, Context, Decimal
from string import Formatter
from typing import List, Optional, Sequence, Tuple

from . import rules as rules_mod
from .errors import InvariantViolationError, ToolkitError
from .records import LabeledDataset
from .rules import RuleSet, TimingConfig

DEFAULT_TOKEN_ENV = "GRIDSENTRY_API_TOKEN"

_SYSTEM_TEXT = (
    "You are an intrusion detection assistant for IEC 61850 substation "
    "traffic. You receive a table of packet records; each row has a "
    "window-relative index. Reply with a single JSON object of the form "
    '{"anomalies": [<indices of anomalous rows>]} and nothing else. '
    "If every row looks normal, reply {\"anomalies\": []}."
)


@dataclass
class ChatClientConfig:
    endpoint_url: str = ""
    model_name: str = ""
    auth_token_env_var_name: str = DEFAULT_TOKEN_ENV
    timeout_ms: int = 30_000
    max_retries: int = 2
    window_size: int = 20

    def validate(self):
        if self.window_size < 1:
            raise InvariantViolationError("window_size must be >= 1")
        if self.max_retries < 0:
            raise InvariantViolationError("max_retries must be >= 0")
        if self.timeout_ms <= 0:
            raise InvariantViolationError("timeout_ms must be positive")


@dataclass
class PromptBundle:
    system_text: str
    rules_text: str
    streams_text: str  # header + one row per stream the window holds
    records_text: str  # header + one row per record
    window: Tuple[int, int]  # (start_index, length)

    def validate(self):
        rows = [ln for ln in self.records_text.splitlines() if ln.strip()]
        if len(rows) - 1 != self.window[1]:  # header row + one row per record
            raise InvariantViolationError(
                f"records_text has {len(rows) - 1} rows, window says {self.window[1]}"
            )

    def user_text(self) -> str:
        parts = []
        if self.rules_text:
            parts.append("Known traffic rules:\n" + self.rules_text)
        parts.append("Streams:\n" + self.streams_text)
        parts.append("Packet records:\n" + self.records_text)
        parts.append('Reply with {"anomalies": [indices]}.')
        return "\n\n".join(parts)


@dataclass
class DetectorResponse:
    anomalous_indices: frozenset
    raw_text: str
    warnings: List[str] = field(default_factory=list)


_UNIT_SHIFT = {"": 0, "ms": 3, "s": 6}  # {field:unit} shows the field / 10**shift
_BRACKETED = re.compile(r"\[.*?\]")
_DEFAULTS = TimingConfig()


def _fill(sentence: str, thresholds: TimingConfig, rounded: bool = False) -> str:
    """``sentence`` with each threshold in its placeholder's unit, exact or
    rounded to the field's whole units, trailing zeros stripped (``:g`` would
    round to six significant digits). The unit change is exact decimal
    arithmetic on the value's shortest repr, so no floating-point noise digits
    appear."""
    words = []
    for literal, name, unit, _ in Formatter().parse(sentence):
        words.append(literal)
        if name is not None:
            shift = _UNIT_SHIFT[unit]
            value = Decimal(repr(getattr(thresholds, name)))
            value = value.scaleb(-shift, Context(prec=MAX_PREC))
            text = f"{value:.{shift}f}" if rounded else f"{value:f}"
            words.append(text.rstrip("0").rstrip(".") if "." in text else text)
    return "".join(words)


_DEFAULT_TEXT = {row.rule: _fill(_BRACKETED.sub("", row.sentence), _DEFAULTS, rounded=True)
                 for row in rules_mod.RULES}


def serialize_rules(rules: RuleSet, protocol: str) -> str:
    """Render the enabled rules for one protocol as numbered sentences that
    state the rule set's own thresholds. At its default thresholds a rule
    reads as its default text. Otherwise every value is stated exactly, with
    the bracketed part when that holds a changed threshold or the rest would
    read as the default text, so a sentence changes with every threshold its
    rule reads."""
    if protocol not in ("GOOSE", "SV"):
        raise InvariantViolationError(f"unknown protocol {protocol!r}")
    thresholds = rules.thresholds
    lines = []
    for row in rules_mod.RULES:
        if row.protocol != protocol or row.rule not in rules.enabled:
            continue
        text = _DEFAULT_TEXT[row.rule]
        changed = {name for name in row.reads
                   if getattr(thresholds, name) != getattr(_DEFAULTS, name)}
        if changed:
            short = replace(row, sentence=_BRACKETED.sub("", row.sentence))
            default, text = text, _fill(short.sentence, thresholds)
            if text == default or changed - short.reads:
                text = _fill(row.sentence.replace("[", "").replace("]", ""), thresholds)
        lines.append(f"{len(lines) + 1}. {text}")
    return "\n".join(lines)


def _table(header: List[str], rows: List[List[str]]) -> str:
    """Left-aligned columns two spaces apart; the last column is not padded,
    so no line ends in whitespace."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return "\n".join("".join(v.ljust(w + 2) for v, w in zip(row[:-1], widths)) + row[-1]
                     for row in [header, *rows])


def _window_tables(records: Sequence, protocol: str) -> Tuple[str, str]:
    """The stream legend and the records table of one window.

    Each distinct ``(dm, sm, gocbRef)`` or ``(dm, sm, svID)`` of the window
    gets a short name, ``s0``, ``s1``, … in order of first appearance, and
    one legend row. The identity comes from the capture or the input file, so
    it is written as a JSON string: a newline, a control character or a
    trailing space in it is escaped or quoted, and cannot add a line to the
    prompt. A record's row names its stream in place of the two MAC
    addresses, so they are written once per window, not once per record.
    """
    identity = "gocbRef" if protocol == "GOOSE" else "svID"
    names = {}
    rows = []
    for i, r in enumerate(records):
        key = (r.dm, r.sm, getattr(r, identity))
        name = names.get(key)
        if name is None:
            name = names[key] = f"s{len(names)}"
        if protocol == "GOOSE":
            rows.append([str(i), str(r.time_us), name, str(r.stNum), str(r.sqNum),
                         "true" if r.data1 else "false", "true" if r.data2 else "false"])
        else:
            rows.append([str(i), str(r.time_us), name, str(r.smpCnt)])
    values = ["stNum", "sqNum", "data1", "data2"] if protocol == "GOOSE" else ["smpCnt"]
    streams = _table(["stream", "dm", "sm", identity],
                     [[name, dm, sm, json.dumps(ident)]
                      for (dm, sm, ident), name in names.items()])
    return streams, _table(["idx", "time_us", "stream", *values], rows)


def build_prompts(dataset: LabeledDataset, rules: RuleSet,
                  cfg: ChatClientConfig) -> List[PromptBundle]:
    """Split the dataset into consecutive windows, one prompt per window."""
    cfg.validate()
    dataset.validate()
    rules_text = serialize_rules(rules, dataset.protocol)
    bundles = []
    for start in range(0, len(dataset.records), cfg.window_size):
        chunk = dataset.records[start : start + cfg.window_size]
        streams_text, records_text = _window_tables(chunk, dataset.protocol)
        bundle = PromptBundle(
            system_text=_SYSTEM_TEXT,
            rules_text=rules_text,
            streams_text=streams_text,
            records_text=records_text,
            window=(start, len(chunk)),
        )
        bundle.validate()
        bundles.append(bundle)
    return bundles


def _find_anomalies_object(raw: str) -> Optional[dict]:
    """First JSON object, nested ones included, that has an "anomalies" key.

    Decoding starts at every "{" in turn, so an object that carries nested
    objects (reasons, wrappers) is read whole rather than skipped.
    """
    decoder = json.JSONDecoder()
    start = raw.find("{")
    while start != -1:
        try:
            obj, _ = decoder.raw_decode(raw, start)
        except (ValueError, RecursionError):  # not JSON here, or nested too deep
            obj = None
        if isinstance(obj, dict) and "anomalies" in obj:
            return obj
        start = raw.find("{", start + 1)
    return None


def parse_response(raw: str, window_len: int) -> DetectorResponse:
    """Pull {"anomalies": [...]} out of a possibly chatty reply."""
    warnings: List[str] = []
    payload = _find_anomalies_object(raw)
    if payload is None or not isinstance(payload.get("anomalies"), list):
        warnings.append("unparseable-response: no anomalies object found; "
                        "window scored all-normal")
        return DetectorResponse(frozenset(), raw, warnings)
    indices = set()
    for item in payload["anomalies"]:
        if isinstance(item, bool) or not isinstance(item, int):
            warnings.append(f"non-integer index {item!r} dropped")
            continue
        if not 0 <= item < window_len:
            warnings.append(f"index {item} outside window of {window_len}; dropped")
            continue
        indices.add(item)
    return DetectorResponse(frozenset(indices), raw, warnings)


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------

class ChatClient:
    """Interface: complete(bundle, window_id) -> raw reply text."""

    def complete(self, bundle: PromptBundle, window_id: int) -> str:
        raise NotImplementedError


def _reply_text(data) -> str:
    """The text of a chat-completion reply, or the whole reply as JSON.

    A string ``choices[0].message.content`` is returned as is, and a list of
    content parts as its concatenated ``text`` parts. Null content, a
    missing key or any other shape gives ``json.dumps(data)``, which
    ``parse_response`` scores all-normal with a warning.
    """
    try:
        content = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        content = None
    if isinstance(content, str):
        return content
    if isinstance(content, list):
        return "".join(part["text"] for part in content
                       if isinstance(part, dict) and isinstance(part.get("text"), str))
    return json.dumps(data)


class HttpChatClient(ChatClient):
    """One JSON POST per window: {model, messages}, bearer token from env.

    Standard library only (``urllib.request``). An HTTP status of 400 or
    more, a transport failure or a body that is not JSON raises, and
    ``detect_llm`` retries the window.
    """

    def __init__(self, cfg: ChatClientConfig):
        cfg.validate()
        if not cfg.endpoint_url:
            raise InvariantViolationError("HttpChatClient needs endpoint_url")
        self.cfg = cfg

    def complete(self, bundle: PromptBundle, window_id: int) -> str:
        import urllib.request  # about 30 ms, so only a run that posts pays it

        token = os.environ.get(self.cfg.auth_token_env_var_name, "")
        body = {
            "model": self.cfg.model_name,
            "messages": [
                {"role": "system", "content": bundle.system_text},
                {"role": "user", "content": bundle.user_text()},
            ],
        }
        headers = {"Content-Type": "application/json"}
        if token:
            headers["Authorization"] = f"Bearer {token}"
        request = urllib.request.Request(self.cfg.endpoint_url,
                                         data=json.dumps(body).encode("utf-8"),
                                         headers=headers, method="POST")
        with urllib.request.urlopen(request, timeout=self.cfg.timeout_ms / 1000) as resp:
            data = json.loads(resp.read())
        return _reply_text(data)


class MockFixtureClient(ChatClient):
    """Replays canned reply files: <dir>/window_<id>.txt, one per window."""

    def __init__(self, fixture_dir: str):
        self.fixture_dir = fixture_dir

    def complete(self, bundle: PromptBundle, window_id: int) -> str:
        path = os.path.join(self.fixture_dir, f"window_{window_id}.txt")
        if not os.path.exists(path):
            raise ToolkitError(f"missing fixture reply {path}")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()


class RulesMockClient(ChatClient):
    """Deterministic offline mock that answers by running the rule engine.

    Predictions are computed once over the full dataset, then sliced per
    window and returned in the wire format the parser expects.
    """

    def __init__(self, dataset: LabeledDataset, rules: RuleSet):
        verdicts = rules_mod.detect_batch(dataset, rules)
        self._predictions = rules_mod.verdicts_to_predictions(
            verdicts, len(dataset.records))

    def complete(self, bundle: PromptBundle, window_id: int) -> str:
        start, length = bundle.window
        flagged = [i for i in range(length) if self._predictions[start + i]]
        return json.dumps({"anomalies": flagged})


@dataclass
class LlmRunReport:
    predictions: List[bool]
    failed_windows: List[int]
    warnings: List[str]


def detect_llm(dataset: LabeledDataset, rules: RuleSet, cfg: ChatClientConfig,
               client: ChatClient,
               transcript_path: Optional[str] = None) -> LlmRunReport:
    """Window the dataset, query the client, and assemble absolute predictions.

    A window that keeps failing after max_retries is recorded and scored
    all-normal; the run continues.
    """
    bundles = build_prompts(dataset, rules, cfg)
    predictions = [False] * len(dataset.records)
    failed: List[int] = []
    warnings: List[str] = []
    transcript = open(transcript_path, "w", encoding="utf-8") if transcript_path else None
    try:
        for window_id, bundle in enumerate(bundles):
            response = None
            last_error = None
            for attempt in range(cfg.max_retries + 1):
                try:
                    raw = client.complete(bundle, window_id)
                except Exception as exc:  # endpoint/transport failures retry
                    last_error = f"window {window_id} attempt {attempt}: {exc}"
                    continue
                if not isinstance(raw, str):
                    last_error = (f"window {window_id} attempt {attempt}: "
                                  f"reply of type {type(raw).__name__}, expected str")
                    continue
                response = parse_response(raw, bundle.window[1])
                if transcript is not None:
                    transcript.write(json.dumps({
                        "window": window_id, "attempt": attempt,
                        "system": bundle.system_text, "user": bundle.user_text(),
                        "reply": raw,
                        "flagged": sorted(response.anomalous_indices),
                    }, sort_keys=True) + "\n")
                break
            if response is None:
                failed.append(window_id)
                warnings.append(last_error or f"window {window_id} failed")
                continue
            warnings.extend(f"window {window_id}: {w}" for w in response.warnings)
            start = bundle.window[0]
            for rel in response.anomalous_indices:
                predictions[start + rel] = True
    finally:
        if transcript is not None:
            transcript.close()
    return LlmRunReport(predictions=predictions, failed_windows=failed,
                        warnings=warnings)
