"""gridsentry: IEC 61850 GOOSE/SV anomaly-detection toolkit."""

from .errors import (
    DecodeError,
    InputOrderError,
    InsufficientCarrierError,
    InvariantViolationError,
    MissingFieldError,
    OrderingViolationError,
    ProtocolMismatchError,
    SchemaError,
    ToolkitError,
    TruncatedCaptureError,
    UnsupportedFormatError,
    UnsupportedInjectionError,
    UnsupportedShapeError,
    WrongStreamError,
)
from .frames import (
    GooseApdu,
    RawFrame,
    SvApdu,
    decode_goose,
    decode_sv,
    encode_goose,
    encode_sv,
)
from .llm import (
    ChatClientConfig,
    DetectorResponse,
    HttpChatClient,
    MockFixtureClient,
    PromptBundle,
    RulesMockClient,
    build_prompts,
    detect_llm,
    parse_response,
    serialize_rules,
)
from .metrics import ConfusionCounts, MetricsReport, confusion, metrics, render_table
from .pcapio import read_pcap, write_pcap
from .records import (
    GooseRecord,
    Label,
    LabeledDataset,
    SkipReport,
    SvRecord,
    export_csv,
    extract_records,
    import_csv,
    load_jsonl,
    save_jsonl,
)
from .rules import (
    Level,
    RuleId,
    RuleSet,
    StreamKey,
    StreamState,
    TimingConfig,
    Verdict,
    detect_batch,
    is_cyclic_successor,
    load_ruleset,
    save_ruleset,
    step_goose,
    step_sv,
    verdicts_to_predictions,
)
from .simulate import ScenarioConfig, gen_goose_normal, gen_sv_normal, inject, make_eval_set

__version__ = "1.0.0"
