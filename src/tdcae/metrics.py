"""Confusion-matrix metrics and the challenge scores: classification score
(mean of TPR and TNR), time-to-detection score, and their mean, the
ranking score. Includes alarm fusion across edge-area detectors."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ConfigError("confusion counts must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class AttackInterval:
    """Contiguous labeled attack span, endpoints inclusive."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ConfigError(f"interval start {self.start} > end {self.end}")

    @property
    def duration(self) -> int:
        return self.end - self.start + 1


@dataclass
class ClfScores:
    tpr: float
    tnr: float
    ppv: float
    f1: float
    s_clf: float


@dataclass
class MetricsReport(ClfScores):
    """The classification scores plus the counts they come from, the
    time-to-detection score and the ranking score."""

    counts: ConfusionCounts
    s_ttd: float
    s: float


def fuse_edges(flags, rule: str = "or") -> np.ndarray:
    """Combine per-edge flag sequences into one system-level alarm.

    "or": any edge alarms; "majority": strictly more than half do.
    """
    if rule not in ("or", "majority"):
        raise ConfigError(f"unknown fusion rule {rule!r}")
    flag_arrays = [np.asarray(f, dtype=bool) for f in flags]
    if not flag_arrays:
        raise ConfigError("fuse_edges needs at least one flag sequence")
    n = len(flag_arrays[0])
    if any(len(f) != n for f in flag_arrays):
        raise ConfigError("edge flag sequences have mismatched lengths")
    stacked = np.vstack(flag_arrays)
    if rule == "or":
        return stacked.any(axis=0)
    return stacked.sum(axis=0) * 2 > len(flag_arrays)


def confusion(flags, labels) -> ConfusionCounts:
    """Per-timestep counts; positive = attack."""
    flags = np.asarray(flags, dtype=bool)
    labels = np.asarray(labels)
    if flags.shape != labels.shape:
        raise DimensionError(
            f"flags length {flags.shape} != labels length {labels.shape}"
        )
    if not np.all((labels == 0) | (labels == 1)):
        raise ConfigError("labels must be binary")
    positive = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(flags & positive)),
        fp=int(np.sum(flags & ~positive)),
        tn=int(np.sum(~flags & ~positive)),
        fn=int(np.sum(~flags & positive)),
    )


def _ratio(num: int, den: int) -> float:
    # Undefined ratios surface as NaN, never as a silent 0.
    return num / den if den > 0 else math.nan


def clf_scores(counts: ConfusionCounts) -> ClfScores:
    """TPR, TNR, PPV, F1 and the classification score (TPR+TNR)/2."""
    tpr = _ratio(counts.tp, counts.tp + counts.fn)
    tnr = _ratio(counts.tn, counts.tn + counts.fp)
    ppv = _ratio(counts.tp, counts.tp + counts.fp)
    if math.isnan(tpr) or math.isnan(ppv) or (ppv + tpr) == 0:
        f1 = math.nan
    else:
        f1 = 2.0 * ppv * tpr / (ppv + tpr)
    s_clf = (tpr + tnr) / 2.0
    return ClfScores(tpr, tnr, ppv, f1, s_clf)


def intervals_from_labels(labels) -> list[AttackInterval]:
    """Contiguous runs of 1-labels as inclusive intervals, sorted."""
    labels = np.asarray(labels)
    if not np.all((labels == 0) | (labels == 1)):
        raise ConfigError("labels must be binary")
    padded = np.concatenate([[0], labels, [0]])
    edges = np.diff(padded)
    starts = np.where(edges == 1)[0]
    ends = np.where(edges == -1)[0] - 1
    return [AttackInterval(int(a), int(b)) for a, b in zip(starts, ends)]


def ttd_score(flags, intervals: list[AttackInterval]) -> float:
    """Time-to-detection score.

    For each attack, the detection delay is the offset of the first flagged
    timestep inside the interval (0 when flagged at the start), or the full
    duration when never flagged. The score is 1 minus the mean delay
    normalized by attack duration: 1 when every attack is flagged
    immediately, 0 when none is flagged at all.
    """
    if not intervals:
        raise ConfigError("ttd_score needs at least one attack interval")
    flags = np.asarray(flags, dtype=bool)
    ordered = sorted(intervals, key=lambda iv: iv.start)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start <= prev.end:
            raise ConfigError("attack intervals must not overlap")
    ratios = []
    for iv in ordered:
        if iv.start < 0 or iv.end >= len(flags):
            raise ConfigError(
                f"interval [{iv.start}, {iv.end}] outside sequence of length {len(flags)}"
            )
        hits = np.where(flags[iv.start : iv.end + 1])[0]
        ttd = int(hits[0]) if hits.size else iv.duration
        ratios.append(ttd / iv.duration)
    return float(min(1.0, max(0.0, 1.0 - float(np.mean(ratios)))))


def ranking_score(s_ttd: float, s_clf: float) -> float:
    """Mean of the time-to-detection and classification scores."""
    for name, v in (("s_ttd", s_ttd), ("s_clf", s_clf)):
        if not math.isnan(v) and not 0.0 <= v <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {v}")
    return (s_ttd + s_clf) / 2.0


def evaluate_flags(flags, labels) -> MetricsReport:
    """Full report from fused flags and binary labels; attack intervals
    are the contiguous runs of 1-labels."""
    counts = confusion(flags, labels)
    scores = clf_scores(counts)
    s_ttd = ttd_score(flags, intervals_from_labels(labels))
    s = ranking_score(s_ttd, scores.s_clf)
    return MetricsReport(**vars(scores), counts=counts, s_ttd=s_ttd, s=s)


def _cell(v: float) -> float | None:
    return None if isinstance(v, float) and math.isnan(v) else v


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "s": _cell(report.s),
        "s_ttd": _cell(report.s_ttd),
        "s_clf": _cell(report.s_clf),
        "f1": _cell(report.f1),
        "tpr": _cell(report.tpr),
        "tnr": _cell(report.tnr),
        "ppv": _cell(report.ppv),
        "tp": report.counts.tp,
        "fp": report.counts.fp,
        "tn": report.counts.tn,
        "fn": report.counts.fn,
    }


def report_to_json(report: MetricsReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


_TABLE_COLUMNS = ("S", "S_TTD", "S_CLF", "F1", "TPR", "TNR", "PPV", "TP", "FP", "TN", "FN")


def format_table(reports: dict[str, MetricsReport]) -> str:
    """Aligned plain-text table, one row per named report."""
    header = ["name"] + list(_TABLE_COLUMNS)
    rows = [header]
    for name, report in reports.items():
        d = report_to_dict(report)
        row = [name]
        for col in _TABLE_COLUMNS:
            v = d[col.lower()]
            if v is None:
                row.append("undefined")
            elif isinstance(v, float):
                row.append(f"{v:.4f}")
            else:
                row.append(str(v))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)
