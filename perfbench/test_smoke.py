"""Smoke test of the benchmark at tiny sizes: every workload reports every
declared metric with its unit, and the correctness checks run and can fail."""

import json
import sys
from dataclasses import replace

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402
from gridsentry import llm, rules, simulate  # noqa: E402
from gridsentry.errors import InsufficientCarrierError  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
TINY = workloads.Size(sv_files=2, sv_units=2, sv_file_us=50_000,
                      goose_publishers=2, goose_duration_us=600_000_000, goose_events=3,
                      eval_pool=4, min_ops=3, import_reps=1, setup_reps=1)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIZE", TINY)


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.2",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_declared_metric(capsys, workload, trace):
    report, result = _run(capsys, workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result["correct"], report["problems"]
    assert report["checks_run"] > 0 and result["attempted"] > 0
    assert 0 <= result["failed"] <= result["attempted"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert report["provenance"]["seed"] == 7


def test_checks_catch_llm_disagreeing_with_rules(capsys, monkeypatch):
    real = llm.detect_llm

    def flip_first(*args, **kwargs):
        report = real(*args, **kwargs)
        report.predictions[0] = not report.predictions[0]
        return report

    monkeypatch.setattr(llm, "detect_llm", flip_first)
    report, result = _run(capsys, "paper-eval", 0)
    assert not result["correct"]
    assert "disagrees with the rule engine" in report["problems"][0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_raising_operations_are_counted_as_failed(capsys, monkeypatch, workload, trace):
    def broken(*args, **kwargs):
        raise RuntimeError("detector broken")

    monkeypatch.setattr(rules, "detect_batch", broken)
    report, result = _run(capsys, workload, trace)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[
        "per_layer" if trace else "end_to_end"]}


def test_scenarios_make_eval_set_refuses_are_declined(capsys, monkeypatch):
    real = simulate.make_eval_set
    refused = []

    def refuse_first(protocol, anomalies, normals, seed):
        if not refused:
            refused.append([protocol, seed])
            raise InsufficientCarrierError("no feasible site for sys")
        return real(protocol, anomalies, normals, seed=seed)

    monkeypatch.setattr(simulate, "make_eval_set", refuse_first)
    report, result = _run(capsys, "paper-eval", 0)
    assert report["declined_inputs"] == refused
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_follow_from_the_seed_not_the_run_length(capsys, monkeypatch, workload):
    counts = []
    for seconds, min_ops in (("0.05", 1), ("0.4", 9)):
        monkeypatch.setattr(workloads, "SIZE", replace(TINY, min_ops=min_ops))
        assert run.main(["--workload", workload, "--seed", "7", "--seconds", seconds,
                         "--trace", "0"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]
