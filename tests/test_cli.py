import json

import pytest

from gridsentry.cli import main
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

    def test_missing_file_is_error(self, tmp_path, capsys):
        code = run(["pcap", "decode", "--in", str(tmp_path / "missing.pcap"),
                    "--out", str(tmp_path / "o.jsonl")])
        assert code == 1


class TestConfig:
    def test_config_sets_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 11\nduration = 50ms\n")
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        assert run(["--config", str(cfg), "gen", "--protocol", "sv",
                    "--out", str(out1)]) == 0
        assert load_jsonl(str(out1)).meta["seed"] == 11
        assert run(["--config", str(cfg), "gen", "--protocol", "sv",
                    "--duration", "20ms", "--out", str(out2)]) == 0
        assert len(load_jsonl(str(out2))) < len(load_jsonl(str(out1)))
