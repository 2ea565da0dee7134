import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridsentry.cli import main
from gridsentry.frames import GooseApdu, RawFrame, encode_goose
from gridsentry.pcapio import write_pcap
from gridsentry.records import Label, load_jsonl
from gridsentry.rules import Level, RuleSet, save_ruleset


def run(argv):
    return main(argv)


class TestGen:
    def test_gen_sv_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "sv.jsonl"
        assert run(["gen", "--protocol", "sv", "--duration", "100ms",
                    "--seed", "1", "--out", str(out)]) == 0
        ds = load_jsonl(str(out))
        assert ds.protocol == "SV"
        assert len(ds) == 480
        assert "480 records" in capsys.readouterr().out

    def test_gen_with_injections_and_sidecars(self, tmp_path):
        out = tmp_path / "g.jsonl"
        pcap = tmp_path / "g.pcap"
        csvp = tmp_path / "g.csv"
        assert run(["gen", "--protocol", "goose", "--duration", "60s",
                    "--events", "2", "--seed", "3", "--inject", "di:2,dos:1",
                    "--out", str(out), "--pcap", str(pcap), "--csv", str(csvp)]) == 0
        ds = load_jsonl(str(out))
        assert sum(1 for l in ds.labels if l == Label.DATA_INJECTION) >= 2
        assert sum(1 for l in ds.labels if l == Label.DOS) >= 1
        assert pcap.exists() and csvp.exists()

    def test_gen_determinism(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        args = ["gen", "--protocol", "sv", "--duration", "50ms", "--seed", "9",
                "--inject", "di:1"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_injection_class_is_error(self, tmp_path, capsys):
        assert run(["gen", "--protocol", "sv", "--duration", "10ms",
                    "--inject", "nope:1", "--out", str(tmp_path / "x.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["8h", "2m", "ten"])
    def test_bad_duration_is_error_naming_the_units(self, tmp_path, capsys, duration):
        assert run(["gen", "--protocol", "sv", "--duration", duration,
                    "--out", str(tmp_path / "x.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad duration")
        assert "us, ms or s" in err and "microseconds" in err

    @pytest.mark.parametrize("protocol", ["sv", "goose"])
    @pytest.mark.parametrize("jitter", ["nan", "inf", "-50", "-0.001", "100", "150"])
    def test_jitter_outside_its_range_is_error(self, tmp_path, capsys, protocol, jitter):
        out = tmp_path / "x.jsonl"
        assert run(["gen", "--protocol", protocol, "--duration", "1s", "--jitter", jitter,
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: jitter_pct must be in [0, 100)")
        assert not out.exists()

    def test_bad_injection_count_is_error(self, tmp_path, capsys):
        assert run(["gen", "--protocol", "sv", "--duration", "10ms",
                    "--inject", "di:x", "--out", str(tmp_path / "x.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error: injection count 'x'")

    def test_one_injections_entry_per_class(self, tmp_path):
        out = tmp_path / "g.jsonl"
        assert run(["gen", "--protocol", "goose", "--duration", "60s", "--events", "2",
                    "--seed", "5", "--inject", "di:2,replay:2", "--out", str(out)]) == 0
        assert load_jsonl(str(out)).meta["injections"] == [
            {"klass": "DATA_INJECTION", "count": 2, "seed": 5},
            {"klass": "REPLAY", "count": 2, "seed": 5},
        ]


class TestDetect:
    @pytest.fixture
    def dataset_path(self, tmp_path):
        out = tmp_path / "sv.jsonl"
        run(["gen", "--protocol", "sv", "--duration", "50ms", "--seed", "4",
             "--inject", "di:2,sys:1", "--out", str(out)])
        return out

    def test_rules_engine(self, dataset_path, tmp_path):
        pred = tmp_path / "p.json"
        verd = tmp_path / "v.jsonl"
        assert run(["detect", "--engine", "rules", "--level", "full",
                    "--in", str(dataset_path), "--predictions", str(pred),
                    "--verdicts", str(verd)]) == 0
        payload = json.loads(pred.read_text())
        assert payload["schema"] == "gridsentry/v1"
        assert payload["detector"] == "rules" and payload["level"] == "full"
        ds = load_jsonl(str(dataset_path))
        assert len(payload["predictions"]) == len(ds)
        flagged = [json.loads(line)["index"] for line in verd.read_text().splitlines()]
        assert {i for i, p in enumerate(payload["predictions"]) if p} == set(flagged)

    def test_without_level_flags_nothing(self, dataset_path, tmp_path):
        pred = tmp_path / "p.json"
        assert run(["detect", "--engine", "rules", "--level", "without",
                    "--in", str(dataset_path), "--predictions", str(pred)]) == 0
        assert not any(json.loads(pred.read_text())["predictions"])

    def test_ruleset_file_conflict(self, dataset_path, tmp_path, capsys):
        rules_path = tmp_path / "rules.txt"
        save_ruleset(RuleSet.for_level(Level.PARTIAL), str(rules_path))
        assert run(["detect", "--engine", "rules", "--level", "full",
                    "--rules", str(rules_path), "--in", str(dataset_path),
                    "--predictions", str(tmp_path / "p.json")]) == 1
        assert "conflicts" in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        ("nan", "must be positive and finite"),
        ("inf", "must be positive and finite"),
        ("ten", "is not a number"),
    ])
    def test_bad_threshold_in_ruleset_file_is_error(self, dataset_path, tmp_path, capsys,
                                                    value, message):
        rules_path = tmp_path / "rules.txt"
        rules_path.write_text(f"level = full\ngoose_heartbeat_max_gap_us = {value}\n")
        assert run(["detect", "--engine", "rules", "--rules", str(rules_path),
                    "--in", str(dataset_path), "--predictions", str(tmp_path / "p.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "goose_heartbeat_max_gap_us" in err and message in err

    def test_mock_engine_with_fixtures(self, dataset_path, tmp_path):
        ds = load_jsonl(str(dataset_path))
        n_windows = (len(ds) + 19) // 20
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        for w in range(n_windows):
            (fixtures / f"window_{w}.txt").write_text('{"anomalies": [0]}')
        pred = tmp_path / "p.json"
        assert run(["detect", "--engine", "mock", "--level", "full",
                    "--in", str(dataset_path), "--fixtures", str(fixtures),
                    "--predictions", str(pred)]) == 0
        payload = json.loads(pred.read_text())
        assert sum(payload["predictions"]) == n_windows

    def test_missing_required_flag_exits_2(self, dataset_path, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["detect", "--engine", "rules", "--in", str(dataset_path)])
        assert info.value.code == 2


class TestMistypedJsonl:
    """A JSONL row of the wrong type, or a malformed header, ends a command
    with an error: line."""

    @pytest.fixture
    def goose_path(self, tmp_path):
        out = tmp_path / "g.jsonl"
        assert run(["gen", "--protocol", "goose", "--duration", "20s", "--seed", "4",
                    "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("name, value", [("sqNum", "7"), ("data1", 1), ("dm", {})])
    @pytest.mark.parametrize("command", [
        ["detect", "--engine", "rules", "--level", "full", "--predictions", "p.json"],
        ["pcap", "encode", "--out", "out.pcap"],
    ])
    def test_error_names_line_and_field(self, goose_path, tmp_path, capsys, monkeypatch,
                                        command, name, value):
        lines = goose_path.read_text().splitlines()
        row = json.loads(lines[3])
        row[name] = value
        lines[3] = json.dumps(row, sort_keys=True)
        goose_path.write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(tmp_path)
        assert run(command + ["--in", str(goose_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be")
        assert f"(line 4, field {name!r})" in err

    @pytest.mark.parametrize("k, name, value, detail", [
        (1, "time_us", -5, "record 0 has negative time_us -5"),
        (3, "ethertype", 1, "record 2 has ethertype 0x0001, not the GOOSE 0x88B8"),
    ], ids=["negative-time", "ethertype"])
    @pytest.mark.parametrize("command", [
        ["detect", "--engine", "rules", "--level", "full", "--predictions", "p.json"],
        ["pcap", "encode", "--out", "out.pcap"],
    ])
    def test_row_breaking_the_dataset_contract_is_error(self, goose_path, tmp_path, capsys,
                                                         monkeypatch, command, k, name,
                                                         value, detail):
        lines = goose_path.read_text().splitlines()
        row = json.loads(lines[k])
        row[name] = value
        lines[k] = json.dumps(row, sort_keys=True)
        goose_path.write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(tmp_path)
        assert run(command + ["--in", str(goose_path)]) == 1
        assert capsys.readouterr().err == f"error: {detail}\n"
        assert not (tmp_path / command[-1]).exists()

    @pytest.mark.parametrize("header, detail", [
        ([1], "header line is not a JSON object (line 1)"),
        ({"meta": 5, "protocol": "GOOSE", "schema": "gridsentry/v1"},
         "meta must be a JSON object, got 5 (line 1, field 'meta')"),
    ], ids=["list", "meta-number"])
    @pytest.mark.parametrize("command", [
        ["detect", "--engine", "rules", "--level", "full", "--predictions", "p.json"],
        ["pcap", "encode", "--out", "out.pcap"],
    ])
    def test_malformed_header_is_error(self, goose_path, tmp_path, capsys, monkeypatch,
                                       command, header, detail):
        lines = goose_path.read_text().splitlines()
        lines[0] = json.dumps(header)
        goose_path.write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(tmp_path)
        assert run(command + ["--in", str(goose_path)]) == 1
        assert capsys.readouterr().err == f"error: {detail}\n"


class TestEval:
    def test_eval_writes_three_formats(self, tmp_path):
        labels = tmp_path / "d.jsonl"
        run(["gen", "--protocol", "sv", "--duration", "50ms", "--seed", "8",
             "--inject", "di:2", "--out", str(labels)])
        pred = tmp_path / "p.json"
        run(["detect", "--engine", "rules", "--level", "full",
             "--in", str(labels), "--predictions", str(pred)])
        prefix = tmp_path / "report"
        assert run(["eval", "--labels", str(labels),
                    "--pred", f"rules={pred}", "--out-prefix", str(prefix)]) == 0
        md = (tmp_path / "report.md").read_text()
        assert "100.00%" in md and "rules" in md
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.json").exists()

    def test_bad_pred_spec_is_error(self, tmp_path, capsys):
        labels = tmp_path / "d.jsonl"
        run(["gen", "--protocol", "sv", "--duration", "10ms",
             "--out", str(labels)])
        assert run(["eval", "--labels", str(labels), "--pred", "nopath",
                    "--out-prefix", str(tmp_path / "r")]) == 1
        assert "name=path" in capsys.readouterr().err


    @pytest.mark.parametrize("text", [
        "not json", '{"detector": "rules"}', '{"predictions": 5}',
        '{"predictions": ["no", 2]}', "[true]",
    ], ids=["not-json", "no-predictions", "number", "not-booleans", "list"])
    def test_bad_predictions_file_is_error(self, tmp_path, capsys, text):
        labels = tmp_path / "d.jsonl"
        run(["gen", "--protocol", "sv", "--duration", "10ms", "--out", str(labels)])
        pred = tmp_path / "p.json"
        pred.write_text(text)
        assert run(["eval", "--labels", str(labels), "--pred", f"rules={pred}",
                    "--out-prefix", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: predictions file {pred} ")
        assert not (tmp_path / "r.md").exists()

    @pytest.mark.parametrize("key, value, name", [
        ("level", {"a": 1}, "rules"), ("detector", [1], ""),
    ], ids=["level", "detector-without-name"])
    def test_predictions_field_that_is_no_string_is_error(self, tmp_path, capsys,
                                                           key, value, name):
        labels = tmp_path / "d.jsonl"
        run(["gen", "--protocol", "sv", "--duration", "10ms", "--out", str(labels)])
        pred = tmp_path / "p.json"
        run(["detect", "--engine", "rules", "--in", str(labels), "--predictions", str(pred)])
        payload = json.loads(pred.read_text())
        payload[key] = value
        pred.write_text(json.dumps(payload))
        assert run(["eval", "--labels", str(labels), "--pred", f"{name}={pred}",
                    "--out-prefix", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: predictions file {pred}: {key} is not a string\n"
        assert not (tmp_path / "r.md").exists()


class TestPcap:
    def test_decode_encode_round_trip(self, tmp_path):
        jsonl = tmp_path / "d.jsonl"
        pcap = tmp_path / "d.pcap"
        run(["gen", "--protocol", "goose", "--duration", "30s", "--seed", "2",
             "--out", str(jsonl), "--pcap", str(pcap)])
        decoded = tmp_path / "decoded.jsonl"
        assert run(["pcap", "decode", "--in", str(pcap),
                    "--out", str(decoded)]) == 0
        assert load_jsonl(str(decoded)).records == load_jsonl(str(jsonl)).records
        pcap2 = tmp_path / "re.pcap"
        assert run(["pcap", "encode", "--in", str(decoded),
                    "--out", str(pcap2)]) == 0
        assert pcap2.read_bytes() == pcap.read_bytes()

    def test_decode_records_capture_end_for_trailing_silence(self, tmp_path):
        dst, src = bytes.fromhex("010ccd010000"), bytes.fromhex("000000273600")
        frames = [encode_goose(GooseApdu(appid=1, gocbRef="IED1/LLN0$GO$gcb1",
                                         datSet="IED1/LLN0$ds1", goID="gcb1", stNum=1,
                                         sqNum=n, data1=False, data2=False),
                               dst, src, n * 2_000_000) for n in range(3)]
        # a foreign frame 15 s after the last heartbeat ends the capture
        frames.append(RawFrame(19_000_000, dst, src, 0x0800, b"ip-payload"))
        pcap = tmp_path / "silent.pcap"
        write_pcap(frames, str(pcap))
        decoded = tmp_path / "silent.jsonl"
        assert run(["pcap", "decode", "--in", str(pcap), "--out", str(decoded)]) == 0
        assert load_jsonl(str(decoded)).meta["capture_end_us"] == 19_000_000
        verd = tmp_path / "v.jsonl"
        assert run(["detect", "--engine", "rules", "--level", "full", "--in", str(decoded),
                    "--predictions", str(tmp_path / "p.json"), "--verdicts", str(verd)]) == 0
        verdicts = [json.loads(line) for line in verd.read_text().splitlines()]
        assert [(v["index"], v["rule"]) for v in verdicts] == [(2, "G_SYS_1")]

    def test_decode_of_empty_capture_records_no_capture_end(self, tmp_path):
        pcap = tmp_path / "empty.pcap"
        write_pcap([], str(pcap))
        decoded = tmp_path / "empty.jsonl"
        assert run(["pcap", "decode", "--in", str(pcap), "--out", str(decoded)]) == 0
        assert "capture_end_us" not in load_jsonl(str(decoded)).meta

    def test_missing_file_is_error(self, tmp_path, capsys):
        code = run(["pcap", "decode", "--in", str(tmp_path / "missing.pcap"),
                    "--out", str(tmp_path / "o.jsonl")])
        assert code == 1


class TestConfig:
    @pytest.mark.parametrize("joined", [False, True], ids=["config-path", "config=path"])
    @pytest.mark.parametrize("before", [True, False], ids=["before-gen", "after-gen"])
    def test_config_sets_defaults_flags_win(self, tmp_path, joined, before):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 11\nduration = 50ms\n")
        flag = [f"--config={cfg}"] if joined else ["--config", str(cfg)]

        def gen(*args):
            argv = ["gen", "--protocol", "sv", *args]
            return run(flag + argv if before else argv + flag)

        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        assert gen("--out", str(out1)) == 0
        assert load_jsonl(str(out1)).meta["seed"] == 11
        assert gen("--duration", "20ms", "--out", str(out2)) == 0
        assert len(load_jsonl(str(out2))) < len(load_jsonl(str(out1)))

    @pytest.mark.parametrize("key", ["sed", "help", "action"])
    def test_unknown_config_key_is_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "a.jsonl"
        # a key of another subcommand is allowed: one file may serve gen and detect
        cfg.write_text("level = partial\nseed = 11\n")
        assert run(["--config", str(cfg), "gen", "--protocol", "sv", "--duration", "10ms",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        cfg.write_text(f"level = partial\n{key} = 11\n")
        assert run(["--config", str(cfg), "gen", "--protocol", "sv", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: config key '{key}' names no flag of any subcommand (line 2, field '{key}')\n")

    @pytest.mark.parametrize("flag", ["--config", "--rules"])
    def test_non_utf8_settings_line_is_error(self, tmp_path, capsys, flag):
        data = tmp_path / "d.jsonl"
        assert run(["gen", "--protocol", "sv", "--duration", "10ms", "--out", str(data)]) == 0
        capsys.readouterr()
        settings = tmp_path / "settings.txt"
        settings.write_bytes(b"level = full\n# caf\xe9\n")
        assert run(["detect", "--engine", "rules", "--in", str(data),
                    "--predictions", str(tmp_path / "p.json"), flag, str(settings)]) == 1
        assert capsys.readouterr().err == f"error: {settings} is not UTF-8 text (line 2)\n"

    def test_malformed_config_value_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = abc\n")
        assert run(["--config", str(cfg), "gen", "--protocol", "sv",
                    "--out", str(tmp_path / "a.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error: config value seed = 'abc'")

    def test_config_value_outside_choices_is_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        assert run(["gen", "--protocol", "sv", "--duration", "10ms", "--out", str(data)]) == 0
        capsys.readouterr()
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("level = bogus\n")
        assert run(["--config", str(cfg), "detect", "--engine", "rules", "--in", str(data),
                    "--predictions", str(tmp_path / "p.json")]) == 1
        assert capsys.readouterr().err == (
            "error: config value level = 'bogus' is not one of without, partial, full\n")


def test_smoke_script_passes(tmp_path):
    """The CI smoke step's script, run through ``python -m gridsentry``."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
        PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    done = subprocess.run(["bash", str(root / "scripts" / "smoke.sh"),
                           sys.executable, "-m", "gridsentry"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("smoke test passed\n")
