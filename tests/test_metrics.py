import json

import pytest

from gridsentry.errors import InvariantViolationError
from gridsentry.metrics import (
    ConfusionCounts,
    confusion,
    metrics,
    render_table,
)
from gridsentry.records import Label


class TestConfusion:
    def test_counts(self):
        labels = [Label.NORMAL, Label.DOS, Label.REPLAY, Label.NORMAL]
        preds = [True, True, False, False]
        c = confusion(labels, preds)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)
        assert c.total == 4

    def test_length_mismatch(self):
        with pytest.raises(InvariantViolationError):
            confusion([Label.NORMAL], [True, False])

    def test_negative_count_rejected(self):
        with pytest.raises(InvariantViolationError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


class TestReferenceArithmetic:
    def test_goose_full_column(self):
        r = metrics(ConfusionCounts(tp=54, fp=1, tn=24, fn=1))
        assert abs(r.tpr * 100 - 98.18) < 0.05
        assert abs(r.fpr * 100 - 4.00) < 0.05
        assert abs(r.fnr * 100 - 1.82) < 0.05
        assert abs(r.precision * 100 - 98.18) < 0.05
        assert abs(r.f1 * 100 - 98.18) < 0.05

    def test_sv_full_column(self):
        r = metrics(ConfusionCounts(tp=58, fp=0, tn=20, fn=2))
        assert abs(r.tpr * 100 - 96.67) < 0.05
        assert r.fpr == 0.0
        assert abs(r.fnr * 100 - 3.33) < 0.05
        assert r.precision == 1.0
        assert abs(r.f1 * 100 - 98.31) < 0.05

    def test_perfect_detector(self):
        r = metrics(ConfusionCounts(tp=60, fp=0, tn=20, fn=0))
        assert (r.tpr, r.fpr, r.precision, r.f1) == (1.0, 0.0, 1.0, 1.0)


class TestUndefinedPolicy:
    def test_zero_over_zero_is_none(self):
        r = metrics(ConfusionCounts(tp=0, fp=0, tn=0, fn=0))
        assert r.tpr is None and r.fpr is None
        assert r.fnr is None and r.precision is None and r.f1 is None

    def test_no_positives_flagged_nothing(self):
        r = metrics(ConfusionCounts(tp=0, fp=0, tn=10, fn=0))
        assert r.tpr is None  # no positives existed
        assert r.fpr == 0.0
        assert r.precision is None
        assert r.f1 is None

    def test_f1_zero_sum(self):
        r = metrics(ConfusionCounts(tp=0, fp=5, tn=5, fn=5))
        assert r.precision == 0.0 and r.tpr == 0.0
        assert r.f1 is None


class TestRendering:
    def _reports(self):
        return [
            metrics(ConfusionCounts(tp=54, fp=1, tn=24, fn=1),
                    cell=("rules", "full", "GOOSE")),
            metrics(ConfusionCounts(tp=0, fp=0, tn=0, fn=0),
                    cell=("rules", "without", "GOOSE")),
            metrics(ConfusionCounts(tp=58, fp=0, tn=20, fn=2),
                    cell=("rules", "full", "SV")),
        ]

    def test_markdown(self):
        text = render_table(self._reports(), fmt="markdown")
        assert "98.18%" in text
        assert "—" in text  # the undefined cell renders as an em dash
        assert "GOOSE" in text and "SV" in text

    def test_csv(self):
        text = render_table(self._reports(), fmt="csv")
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "protocol,detector,level,tp,fp,tn,fn,tpr,fpr,fnr,precision,f1"
        assert "98.18%" in lines[1]

    def test_json_round_trip(self):
        payload = json.loads(render_table(self._reports(), fmt="json"))
        goose_f1 = 2 * (54 / 55) * (54 / 55) / (54 / 55 + 54 / 55)
        assert payload == [
            {"cell": {"detector": "rules", "level": "full", "protocol": "GOOSE"},
             "counts": {"tp": 54, "fp": 1, "tn": 24, "fn": 1},
             "metrics": {"tpr": 54 / 55, "fpr": 1 / 25, "fnr": 1 / 55,
                         "precision": 54 / 55, "f1": goose_f1}},
            {"cell": {"detector": "rules", "level": "without", "protocol": "GOOSE"},
             "counts": {"tp": 0, "fp": 0, "tn": 0, "fn": 0},
             "metrics": {"tpr": None, "fpr": None, "fnr": None,
                         "precision": None, "f1": None}},
            {"cell": {"detector": "rules", "level": "full", "protocol": "SV"},
             "counts": {"tp": 58, "fp": 0, "tn": 20, "fn": 2},
             "metrics": {"tpr": 58 / 60, "fpr": 0.0, "fnr": 2 / 60,
                         "precision": 1.0, "f1": 2 * (58 / 60) / (1 + 58 / 60)}},
        ]

    def test_duplicate_cell_rejected(self):
        r = metrics(ConfusionCounts(tp=1, fp=0, tn=1, fn=0), cell=("a", "b", "c"))
        with pytest.raises(InvariantViolationError):
            render_table([r, r], fmt="markdown")
