"""Confusion-matrix accounting and comparison tables.

Scoring is per-record binary: positive = anomalous record. Undefined ratios
(0/0) are reported as None and rendered as an em dash, never as 0.
"""

import csv
import io
import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import InvariantViolationError
from .records import Label

METRIC_NAMES = ("tpr", "fpr", "fnr", "precision", "f1")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise InvariantViolationError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    counts: ConfusionCounts
    cell: Tuple[str, str, str]  # (detector, level, protocol)
    tpr: Optional[float]
    fpr: Optional[float]
    fnr: Optional[float]
    precision: Optional[float]
    f1: Optional[float]


def confusion(labels: Sequence, predictions: Sequence[bool]) -> ConfusionCounts:
    """Count per-record outcomes; a label other than NORMAL is positive."""
    if len(labels) != len(predictions):
        raise InvariantViolationError(
            f"{len(labels)} labels but {len(predictions)} predictions"
        )
    tp = fp = tn = fn = 0
    for label, flagged in zip(labels, predictions):
        positive = label != Label.NORMAL
        if positive and flagged:
            tp += 1
        elif positive:
            fn += 1
        elif flagged:
            fp += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def _ratio(num: int, den: int) -> Optional[float]:
    return None if den == 0 else num / den


def metrics(counts: ConfusionCounts,
            cell: Tuple[str, str, str] = ("", "", "")) -> MetricsReport:
    tpr = _ratio(counts.tp, counts.tp + counts.fn)
    fpr = _ratio(counts.fp, counts.fp + counts.tn)
    fnr = _ratio(counts.fn, counts.fn + counts.tp)
    precision = _ratio(counts.tp, counts.tp + counts.fp)
    if precision is None or tpr is None or precision + tpr == 0:
        f1 = None
    else:
        f1 = 2 * precision * tpr / (precision + tpr)
    return MetricsReport(counts=counts, cell=cell, tpr=tpr, fpr=fpr,
                         fnr=fnr, precision=precision, f1=f1)


def _fmt(value: Optional[float]) -> str:
    return "—" if value is None else f"{100 * value:.2f}%"


def _check_cells(reports: List[MetricsReport]):
    seen = set()
    for report in reports:
        if report.cell in seen:
            raise InvariantViolationError(f"duplicate cell {report.cell}")
        seen.add(report.cell)


def render_table(reports: List[MetricsReport], fmt: str = "markdown") -> str:
    """One table per protocol; rows are metrics, columns detector/level cells."""
    _check_cells(reports)
    if fmt == "json":
        payload = [
            {
                "cell": {"detector": r.cell[0], "level": r.cell[1],
                         "protocol": r.cell[2]},
                "counts": {"tp": r.counts.tp, "fp": r.counts.fp,
                           "tn": r.counts.tn, "fn": r.counts.fn},
                "metrics": {name: getattr(r, name) for name in METRIC_NAMES},
            }
            for r in reports
        ]
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["protocol", "detector", "level", "tp", "fp", "tn", "fn",
                         *METRIC_NAMES])
        for r in reports:
            writer.writerow([r.cell[2], r.cell[0], r.cell[1],
                             r.counts.tp, r.counts.fp, r.counts.tn, r.counts.fn,
                             *(_fmt(getattr(r, name)) for name in METRIC_NAMES)])
        return buf.getvalue()
    if fmt != "markdown":
        raise InvariantViolationError(f"unknown table format {fmt!r}")

    protocols = []
    for r in reports:
        if r.cell[2] not in protocols:
            protocols.append(r.cell[2])
    sections = []
    for protocol in protocols or [""]:
        subset = [r for r in reports if r.cell[2] == protocol]
        cols = [f"{r.cell[0]}/{r.cell[1]}" for r in subset]
        lines = [f"### {protocol or 'results'}", ""]
        lines.append("| metric | " + " | ".join(cols) + " |")
        lines.append("|---" * (len(cols) + 1) + "|")
        for name in METRIC_NAMES:
            row = [_fmt(getattr(r, name)) for r in subset]
            lines.append(f"| {name.upper() if name != 'precision' else 'Precision'} | "
                         + " | ".join(row) + " |")
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"

