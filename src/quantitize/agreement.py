"""Agreement metrics between gold labels and predictions.

Confusion matrices are oriented gold-on-rows, predictions-on-columns
throughout. Provides accuracy, Cohen's kappa, per-class precision / recall /
F1 with macro averaging, and Spearman's rho for ordinal outputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .corpus import ERROR_LABEL
from .errors import DataError
from .jsonio import read_csv_table, write_csv, write_json


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count grid; rows index gold labels, columns predictions."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        k = len(self.labels)
        if len(set(self.labels)) != k:
            raise DataError(f"confusion matrix repeats a label: {list(self.labels)}")
        try:
            counts = np.asarray(self.counts, dtype=float)
        except (TypeError, ValueError) as exc:  # ragged rows, or a cell that is no number
            raise DataError(f"confusion matrix must be {k}x{k}: {exc}") from None
        if counts.shape != (k, k):
            raise DataError(f"confusion matrix must be {k}x{k}, got {counts.shape}")
        if bad := [c for c in counts.flat if not c.is_integer()]:
            raise DataError(f"confusion matrix must be {k}x{k} whole counts, got {bad[0]}")
        counts = counts.astype(np.int64)
        object.__setattr__(self, "counts", counts)
        if (counts < 0).any():
            raise DataError("confusion matrix entries must be non-negative")
        if counts.sum() == 0:
            raise DataError("confusion matrix is empty")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def without_label(self, label: str) -> "ConfusionMatrix":
        """Drop one row/column pair (e.g. the synthetic error column)."""
        if label not in self.labels:
            return self
        i = self.labels.index(label)
        keep = [j for j in range(len(self.labels)) if j != i]
        return ConfusionMatrix(
            tuple(l for l in self.labels if l != label),
            self.counts[np.ix_(keep, keep)],
        )

    def to_csv(self, path: Union[str, Path]) -> None:
        write_csv(path, ["gold\\pred", *self.labels],
                  ([label, *map(int, row)] for label, row in zip(self.labels, self.counts)))

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "ConfusionMatrix":
        """A :meth:`to_csv` file; a bad cell, a row out of the header's label
        order, or a missing row is a DataError naming the file."""
        header, rows = read_csv_table(path)
        labels, counts = tuple(header[1:]), []
        for line, row in rows:
            label, *cells = row.values()
            try:
                if len(counts) == len(labels) or label != labels[len(counts)]:
                    raise ValueError(f"row label {label!r} is not gold label "
                                     f"{len(counts) + 1} of the header's {list(labels)}")
                counts.append([int(c) for c in cells])
            except ValueError as exc:
                raise DataError(f"{path}, line {line}: {exc}") from None
        if not counts:
            raise DataError(f"{path} holds no confusion matrix")
        if len(counts) < len(labels):
            raise DataError(f"{path} has no row for gold labels "
                            f"{list(labels[len(counts):])}")
        return cls(labels, np.array(counts, dtype=np.int64))


def build_confusion(
    gold: Mapping[str, str],
    predicted: Mapping[str, str],
    labels: Sequence[str],
) -> ConfusionMatrix:
    """Count gold-vs-predicted pairs of two mappings keyed by unit id, whose
    id sets must match. A label not in ``labels`` is a DataError naming the
    first unit, in ``gold``'s order, that has one."""
    if gold.keys() != predicted.keys():
        missing = gold.keys() ^ predicted.keys()
        raise DataError(f"gold/predicted id sets differ, e.g. {sorted(missing)[:5]}")
    index = {l: i for i, l in enumerate(labels)}
    k = len(labels)
    try:
        cells = [index[g] * k + index[predicted[uid]] for uid, g in gold.items()]
    except KeyError:
        for uid, g in gold.items():
            for role, label in (("gold", g), ("predicted", predicted[uid])):
                if label not in index:
                    raise DataError(f"unit {uid!r}: {role} label {label!r} "
                                    "not in label list") from None
    counts = np.bincount(np.array(cells, dtype=np.intp), minlength=k * k).reshape(k, k)
    return ConfusionMatrix(tuple(labels), counts)


def cohens_kappa(cm: ConfusionMatrix) -> float:
    """Chance-adjusted agreement (p_o - p_e) / (1 - p_e).

    When expected agreement is 1 (all mass in one cell) observed agreement
    is 1 too; return 1 rather than 0/0.
    """
    counts = cm.counts.astype(float)
    total = counts.sum()
    p_o = np.trace(counts) / total
    p_e = float(np.sum(counts.sum(axis=1) * counts.sum(axis=0)) / total**2)
    if abs(1.0 - p_e) < 1e-15:
        return 1.0
    return float((p_o - p_e) / (1.0 - p_e))


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    degenerate: bool = False  # zero row or column sum


@dataclass(frozen=True)
class AgreementReport:
    labels: tuple[str, ...]
    accuracy: float
    kappa: float
    per_class: dict[str, ClassMetrics]
    macro_f1: float
    n: int
    excluded: dict[str, int] = field(default_factory=dict)  # e.g. refused counts

    def to_json(self, path: Union[str, Path]) -> None:
        write_json(path, asdict(self))


def per_class_metrics(cm: ConfusionMatrix) -> tuple[dict[str, ClassMetrics], float]:
    """Per-class precision/recall/F1 and the unweighted macro-F1.

    Zero denominators (empty gold row or empty prediction column) yield 0
    for the affected metric and set the degenerate flag.
    """
    counts = cm.counts.astype(float)
    rowsum = counts.sum(axis=1)
    colsum = counts.sum(axis=0)
    diag = np.diag(counts)
    out: dict[str, ClassMetrics] = {}
    f1s = []
    for i, label in enumerate(cm.labels):
        degenerate = rowsum[i] == 0 or colsum[i] == 0
        recall = diag[i] / rowsum[i] if rowsum[i] > 0 else 0.0
        precision = diag[i] / colsum[i] if colsum[i] > 0 else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        out[label] = ClassMetrics(float(precision), float(recall), float(f1), bool(degenerate))
        f1s.append(f1)
    return out, float(np.mean(f1s))


def agreement_report(cm: ConfusionMatrix) -> AgreementReport:
    """Full report from a confusion matrix.

    A synthetic ERROR column (refused/unparseable predictions) is excluded
    from the kappa/accuracy computation and its count reported separately.
    """
    scored = cm
    excluded = {}
    if ERROR_LABEL in cm.labels:
        j = cm.labels.index(ERROR_LABEL)
        excluded["error_column"] = int(cm.counts[:, j].sum())
        scored = cm.without_label(ERROR_LABEL)
    per_class, macro_f1 = per_class_metrics(scored)
    return AgreementReport(
        labels=scored.labels,
        accuracy=float(np.trace(scored.counts) / scored.total),
        kappa=cohens_kappa(scored),
        per_class=per_class,
        macro_f1=macro_f1,
        n=scored.total,
        excluded=excluded,
    )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share the mean of their
    positions, as in ``scipy.stats.rankdata``'s default method."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def spearman_rho(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise DataError("spearman_rho needs two equal-length vectors of length >= 2")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DataError("spearman_rho needs finite values")
    if np.ptp(xs) == 0 or np.ptp(ys) == 0:
        raise DataError("spearman_rho is undefined for a constant vector")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.dot(rx, ry) / np.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))
