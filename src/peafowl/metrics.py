"""Confusion-matrix bookkeeping and the seven derived detection metrics.

"Positive" is the anomaly/attack class throughout.  A rate whose denominator
is zero is reported as None (rendered "NA"), never as 0 or NaN.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields
from typing import Optional

import numpy as np

__all__ = ["ConfusionCounts", "MetricsReport", "compute_metrics"]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if type(v) is not int or v < 0:  # type(), not isinstance: a bool is not a count
                raise ValueError(f"{f.name} must be a non-negative integer, got {v!r}")

    @classmethod
    def from_predictions(cls, preds, actual) -> "ConfusionCounts":
        """Tally 0/1 predictions against 0/1 labels, 1 being attack.

        Any other value is a ValueError naming the first position that holds one.
        """
        preds, actual = np.asarray(preds), np.asarray(actual)
        if preds.shape != actual.shape:
            raise ValueError(f"{preds.shape} predictions for {actual.shape} labels")
        counts = cls(
            tp=int(np.sum((preds == 1) & (actual == 1))),
            tn=int(np.sum((preds == 0) & (actual == 0))),
            fp=int(np.sum((preds == 1) & (actual == 0))),
            fn=int(np.sum((preds == 0) & (actual == 1))),
        )
        if counts.total != preds.size:  # some pair was counted in no cell
            bad = np.flatnonzero(((preds != 0) & (preds != 1)) | ((actual != 0) & (actual != 1)))[0]
            raise ValueError(
                f"position {bad}: prediction {preds.flat[bad]} and label {actual.flat[bad]} must both be 0 or 1"
            )
        return counts

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(*map(sum, zip(astuple(self), astuple(other))))


@dataclass(frozen=True)
class MetricsReport:
    accuracy: Optional[float]
    detection_rate: Optional[float]
    fpr: Optional[float]
    tnr: Optional[float]
    fnr: Optional[float]
    precision: Optional[float]
    f1: Optional[float]

    def as_percentages(self) -> dict:
        """Percent strings with three decimals, 'NA' where undefined."""
        return {name: "NA" if v is None else f"{100.0 * v:.3f}" for name, v in asdict(self).items()}


def _ratio(num: int, den: int) -> Optional[float]:
    return None if den == 0 else num / den


def compute_metrics(c: ConfusionCounts) -> MetricsReport:
    """Accuracy, detection rate, FPR, TNR, FNR, precision and F1 from counts."""
    if c.total == 0:
        raise ValueError("cannot compute metrics from all-zero counts")
    return MetricsReport(
        accuracy=_ratio(c.tp + c.tn, c.total),
        detection_rate=_ratio(c.tp, c.tp + c.fn),
        fpr=_ratio(c.fp, c.tn + c.fp),
        tnr=_ratio(c.tn, c.tn + c.fp),
        fnr=_ratio(c.fn, c.fn + c.tp),
        precision=_ratio(c.tp, c.tp + c.fp),
        f1=_ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn),
    )
