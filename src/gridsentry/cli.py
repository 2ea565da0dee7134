"""Command-line entry point: generate, detect, evaluate, and pcap convert.

Exit codes: 0 success, 1 internal/tool error, 2 usage error. Detection
outcomes are data, never exit codes. All randomness flows from --seed.
"""

import argparse
import json
import sys
from typing import List, Optional

from . import llm as llm_mod
from . import pcapio, records, rules as rules_mod, simulate
from .metrics import confusion, metrics as compute_metrics, render_table
from .errors import ToolkitError, InvariantViolationError, SchemaError
from .records import Label, LabeledDataset

_INJECT_CLASSES = {
    "di": Label.DATA_INJECTION,
    "dos": Label.DOS,
    "replay": Label.REPLAY,
    "re": Label.REPLAY,
    "sys": Label.SYSTEM_PROBLEM,
}


def _parse_duration(text: str) -> int:
    value = text.strip().lower()
    try:
        for suffix, scale in (("us", 1), ("ms", 1_000), ("s", 1_000_000)):
            if value.endswith(suffix):
                return int(float(value[: -len(suffix)]) * scale)
        return int(value)  # bare integers are microseconds
    except (ValueError, OverflowError):
        raise InvariantViolationError(
            f"bad duration {text!r}: use a number with us, ms or s, "
            f"or a bare integer of microseconds"
        )


def _parse_injections(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition(":")
        if name not in _INJECT_CLASSES:
            raise InvariantViolationError(
                f"unknown injection class {name!r} (use di, dos, replay, sys)"
            )
        try:
            out.append((_INJECT_CLASSES[name], int(count or "1")))
        except ValueError:
            raise InvariantViolationError(
                f"injection count {count!r} is not an integer (use class:count, e.g. di:2)"
            )
    return out


def cmd_gen(args) -> int:
    protocol = args.protocol.upper()
    cfg = simulate.ScenarioConfig(
        protocol=protocol,
        duration_us=_parse_duration(args.duration),
        seed=args.seed,
        goose_event_count=args.events,
        jitter_pct=args.jitter,
    )
    dataset = (simulate.gen_goose_normal(cfg) if protocol == "GOOSE"
               else simulate.gen_sv_normal(cfg))
    for klass, count in _parse_injections(args.inject or ""):
        dataset = simulate.inject(dataset, klass, count, seed=args.seed)
    records.save_jsonl(dataset, args.out)
    if args.pcap:
        pcapio.write_pcap(records.dataset_to_frames(dataset), args.pcap)
    if args.csv:
        records.export_csv(dataset, args.csv)
    anomalies = sum(1 for lbl in dataset.labels if lbl != Label.NORMAL)
    print(f"wrote {len(dataset)} records ({anomalies} anomalous) to {args.out}")
    return 0


def _load_rules(args) -> rules_mod.RuleSet:
    if getattr(args, "rules", None):
        ruleset = rules_mod.load_ruleset(args.rules)
        if args.level and ruleset.level != rules_mod.Level(args.level):
            raise InvariantViolationError(
                f"--level {args.level} conflicts with rule-set file level "
                f"{ruleset.level.value}"
            )
        return ruleset
    return rules_mod.RuleSet.for_level(args.level or "full")


def _write_predictions(path, predictions: List[bool], detector: str, level: str):
    payload = {"schema": "gridsentry/v1", "detector": detector, "level": level,
               "predictions": predictions}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def cmd_detect(args) -> int:
    dataset = records.load_jsonl(args.input)
    ruleset = _load_rules(args)
    level = ruleset.level.value

    if args.engine == "rules":
        verdicts = rules_mod.detect_batch(dataset, ruleset)
        predictions = rules_mod.verdicts_to_predictions(verdicts, len(dataset))
        if args.verdicts:
            with open(args.verdicts, "w", encoding="utf-8") as fh:
                for v in verdicts:
                    fh.write(json.dumps({
                        "index": v.record_index, "class": v.klass.value,
                        "rule": v.rule.value, "explanation": v.explanation,
                    }, sort_keys=True) + "\n")
        detector = "rules"
    else:
        cfg = llm_mod.ChatClientConfig(
            endpoint_url=args.endpoint or "",
            model_name=args.model or "",
            auth_token_env_var_name=args.token_env,
            window_size=args.window,
        )
        if args.engine == "mock":
            if not args.fixtures:
                raise InvariantViolationError("--engine mock requires --fixtures")
            client = llm_mod.MockFixtureClient(args.fixtures)
            detector = "mock"
        else:
            if not args.endpoint:
                raise InvariantViolationError("--engine llm requires --endpoint")
            client = llm_mod.HttpChatClient(cfg)
            detector = args.model or "llm"
        report = llm_mod.detect_llm(dataset, ruleset, cfg, client,
                                    transcript_path=args.transcript)
        predictions = report.predictions
        for line in report.warnings:
            print(f"warning: {line}", file=sys.stderr)
        if report.failed_windows:
            print(f"warning: windows failed after retries: "
                  f"{report.failed_windows}", file=sys.stderr)

    _write_predictions(args.predictions, predictions, detector, level)
    print(f"flagged {sum(predictions)} of {len(predictions)} records")
    return 0


def cmd_eval(args) -> int:
    dataset = records.load_jsonl(args.labels)
    reports = []
    for spec_text in args.pred:
        name, _, path = spec_text.partition("=")
        if not path:
            raise InvariantViolationError(
                f"--pred needs name=path, got {spec_text!r}"
            )
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (ValueError, RecursionError):  # not JSON, or not UTF-8
                payload = None
        predictions = payload.get("predictions") if type(payload) is dict else None
        if type(predictions) is not list or any(type(p) is not bool for p in predictions):
            raise SchemaError(f"predictions file {path} is not a JSON object holding "
                              f"a list of true/false predictions", field="predictions")
        for key in ("detector", "level"):
            if type(payload.get(key, "")) is not str:
                raise SchemaError(f"predictions file {path}: {key} is not a string", field=key)
        counts = confusion(dataset.labels, predictions)
        detector = payload.get("detector", name)
        level = payload.get("level", "")
        reports.append(compute_metrics(counts, cell=(name or detector, level,
                                                         dataset.protocol)))
    for fmt, ext in (("markdown", "md"), ("csv", "csv"), ("json", "json")):
        path = f"{args.out_prefix}.{ext}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_table(reports, fmt))
    print(f"wrote {args.out_prefix}.md/.csv/.json ({len(reports)} cells)")
    return 0


def cmd_pcap(args) -> int:
    if args.action == "decode":
        frames = pcapio.read_pcap(args.input)
        goose, sv, skipped = records.extract_records(frames)
        protocol = args.protocol.upper() if args.protocol else None
        if protocol is None:
            if goose and sv:
                raise InvariantViolationError(
                    "capture holds both GOOSE and SV; pick one with --protocol"
                )
            protocol = "SV" if sv else "GOOSE"
        recs = goose if protocol == "GOOSE" else sv
        meta = {"source": "pcap"}
        if frames:  # the trailing-silence check (G_SYS_1) measures to here
            meta["capture_end_us"] = frames[-1].timestamp
        dataset = LabeledDataset(protocol, recs, [Label.NORMAL] * len(recs), meta)
        records.save_jsonl(dataset, args.out)
        if skipped.total:
            print(f"skipped {skipped.total} frames "
                  f"({skipped.skipped_ethertype} foreign ethertype, "
                  f"{skipped.skipped_decode_errors} undecodable)", file=sys.stderr)
        print(f"decoded {len(recs)} {protocol} records to {args.out}")
    else:
        dataset = records.load_jsonl(args.input)
        pcapio.write_pcap(records.dataset_to_frames(dataset), args.out)
        print(f"encoded {len(dataset)} records to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsentry",
        description="IEC 61850 GOOSE/SV anomaly-detection toolkit",
    )
    parser.add_argument("--config", help="key = value file of default flag values")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a labeled scenario")
    p.add_argument("--protocol", required=True, choices=["goose", "sv"])
    p.add_argument("--duration", default="1s",
                   help="scenario length, e.g. 1s, 250ms, 2083us")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject", default="",
                   help="comma list of class:count, e.g. dos:2,di:3")
    p.add_argument("--events", type=int, default=0,
                   help="GOOSE data-change events")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="timing jitter in percent")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--pcap", help="also write a pcap capture")
    p.add_argument("--csv", help="also write a CSV export")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("detect", help="run a detector over a dataset")
    p.add_argument("--engine", required=True, choices=["rules", "llm", "mock"])
    p.add_argument("--level", choices=[lv.value for lv in rules_mod.Level])
    p.add_argument("--in", dest="input", required=True, help="dataset JSONL")
    p.add_argument("--rules", help="rule-set file overriding --level")
    p.add_argument("--verdicts", help="verdict JSONL output (rules engine)")
    p.add_argument("--predictions", required=True, help="predictions JSON output")
    p.add_argument("--fixtures", help="fixture directory for --engine mock")
    p.add_argument("--endpoint", help="chat-completion endpoint URL")
    p.add_argument("--model", help="model name sent to the endpoint")
    p.add_argument("--token-env", default=llm_mod.DEFAULT_TOKEN_ENV,
                   help="environment variable holding the bearer token")
    p.add_argument("--window", type=int, default=20,
                   help="records per prompt window")
    p.add_argument("--transcript", help="JSONL transcript audit file")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score prediction files against labels")
    p.add_argument("--labels", required=True, help="labeled dataset JSONL")
    p.add_argument("--pred", action="append", required=True,
                   help="name=path of a predictions JSON file (repeatable)")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.md, <prefix>.csv, <prefix>.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pcap", help="convert between pcap and JSONL")
    p.add_argument("action", choices=["decode", "encode"])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--protocol", choices=["goose", "sv"],
                   help="which protocol to keep when decoding a mixed capture")
    p.set_defaults(func=cmd_pcap)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: List[str]) -> List[str]:
    """Values from --config become defaults; explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        parser.error("--config needs a file path")
    defaults = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvariantViolationError(
                    f"config line is not key = value: {line!r}"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            defaults[key.replace("-", "_")] = value
    for subparser in parser._subparsers._group_actions[0].choices.values():
        typed = {}
        for action in subparser._actions:
            if action.dest in defaults:
                value = defaults[action.dest]
                try:
                    typed[action.dest] = action.type(value) if action.type else value
                except ValueError:
                    raise InvariantViolationError(
                        f"config value {action.dest} = {value!r} is not a valid "
                        f"{action.type.__name__}"
                    )
                if action.choices is not None and typed[action.dest] not in action.choices:
                    raise InvariantViolationError(
                        f"config value {action.dest} = {value!r} is not one of "
                        f"{', '.join(map(str, action.choices))}"
                    )
        subparser.set_defaults(**typed)
    return argv[:i] + argv[i + 2 :]


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
