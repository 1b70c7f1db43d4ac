"""Confusion-matrix bootstrap: propagate annotation error into statistics.

The error model holds one probability distribution per label (row-normalized
confusion counts). Each replicate redraws every unit's label from the
distribution belonging to its observed label, recomputes the statistic of
interest, and the spread of replicate values yields the confidence interval.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np
from scipy.stats import norm

from .agreement import ConfusionMatrix
from .errors import ConfigError, DataError
from .jsonio import write_json

log = logging.getLogger(__name__)

# statistic plugin: (labels per unit, covariates per unit) -> named reals
StatisticPlugin = Callable[[Sequence[str], Sequence[Mapping]], dict[str, float]]


@dataclass(frozen=True)
class ErrorModel:
    """Per-label sampling distributions over the label set."""

    labels: tuple[str, ...]
    dists: np.ndarray  # row i: distribution used for observed label i

    def __post_init__(self):
        dists = np.asarray(self.dists, dtype=float)
        object.__setattr__(self, "dists", dists)
        k = len(self.labels)
        if dists.shape != (k, k):
            raise DataError(f"error model needs a {k}x{k} grid, got {dists.shape}")
        if (dists < 0).any():
            raise DataError("error model probabilities must be non-negative")
        if not np.allclose(dists.sum(axis=1), 1.0, atol=1e-9):
            raise DataError("error model rows must each sum to 1")

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.dists, np.eye(len(self.labels))))


def error_model_from_confusion(
    cm: ConfusionMatrix, mode: str = "row"
) -> ErrorModel:
    """Normalize confusion counts into sampling distributions.

    ``row`` normalizes gold rows (the default); ``column_conditional``
    normalizes prediction columns instead, for sensitivity analysis. A
    label with no counts falls back to the identity distribution, with a
    logged warning since it means the test set never saw that label.
    """
    counts = cm.counts.astype(float)
    if mode == "column_conditional":
        counts = counts.T
    elif mode != "row":
        raise ConfigError(f"unknown error model mode {mode!r}")
    sums = counts.sum(axis=1)
    dists = np.empty_like(counts)
    for i, s in enumerate(sums):
        if s == 0:
            log.warning(
                "label %r has no counts in the confusion matrix; "
                "falling back to the identity distribution",
                cm.labels[i],
            )
            dists[i] = np.eye(len(cm.labels))[i]
        else:
            dists[i] = counts[i] / s
    return ErrorModel(cm.labels, dists)


def simulate_replicate(
    labels: Sequence[str], em: ErrorModel, rng: np.random.Generator
) -> list[str]:
    """Redraw each unit's label from its observed label's distribution."""
    index = {l: i for i, l in enumerate(em.labels)}
    try:
        idx = np.array([index[l] for l in labels], dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"label {exc.args[0]!r} not covered by the error model")
    cum = np.cumsum(em.dists, axis=1)
    u = rng.random(len(idx))
    drawn = (u[:, None] > cum[idx]).sum(axis=1)
    drawn = np.minimum(drawn, len(em.labels) - 1)
    return [em.labels[j] for j in drawn]


@dataclass(frozen=True)
class BootstrapConfig:
    n_replicates: int = 10000
    seed: int = 0
    ci_method: str = "normal_1p96sigma"  # or "percentile"
    level: float = 0.95

    def __post_init__(self):
        if self.n_replicates < 2:
            raise ConfigError("need at least 2 replicates")
        if not 0 < self.level < 1:
            raise ConfigError("confidence level must be in (0, 1)")
        if self.ci_method not in ("normal_1p96sigma", "percentile"):
            raise ConfigError(f"unknown ci method {self.ci_method!r}")

    @property
    def z(self) -> float:
        if abs(self.level - 0.95) < 1e-12:
            return 1.96  # conventional value, not the exact quantile
        return float(norm.ppf(0.5 + self.level / 2))


@dataclass(frozen=True)
class StatisticSummary:
    point: float  # statistic on the observed labels
    replicate_mean: float
    sigma: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class BootstrapResult:
    statistics: dict[str, StatisticSummary]
    config: BootstrapConfig
    replicates: Optional[np.ndarray] = field(default=None, repr=False)
    replicate_names: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "statistics": {n: asdict(s) for n, s in self.statistics.items()},
        }

    def to_json(self, path: Union[str, Path]) -> None:
        write_json(path, self.to_dict())

    def replicates_to_csv(self, path: Union[str, Path]) -> None:
        if self.replicates is None:
            raise ConfigError("replicates were not retained")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["replicate"] + list(self.replicate_names))
            for i, row in enumerate(self.replicates):
                w.writerow([i] + [repr(float(v)) for v in row])


def bootstrap_ci(
    labels: Sequence[str],
    covariates: Sequence[Mapping],
    em: ErrorModel,
    statistic: StatisticPlugin,
    config: BootstrapConfig = BootstrapConfig(),
    keep_replicates: bool = False,
) -> BootstrapResult:
    """Run the simulate-and-recompute loop and summarize the spread.

    Each replicate draws from an RNG seeded by (seed, replicate index), so
    the result does not depend on execution order. The normal CI is centered
    on the observed-label point estimate with half-width z * sigma; the
    percentile CI uses empirical replicate quantiles.
    """
    labels = list(labels)
    point = statistic(labels, covariates)
    names = list(point)
    values = np.empty((config.n_replicates, len(names)))
    if em.is_identity:
        # every replicate redraws the observed labels verbatim, so the
        # statistic is constant across replicates by construction
        values[:] = [point[n] for n in names]
    else:
        for r in range(config.n_replicates):
            rng = np.random.default_rng([config.seed, r])
            sim = simulate_replicate(labels, em, rng)
            try:
                stat = statistic(sim, covariates)
            except Exception as exc:
                raise DataError(
                    f"statistic failed on replicate {r}: {exc}"
                ) from exc
            values[r] = [stat[n] for n in names]

    # Guard against float rounding in the degenerate case: when every
    # replicate reproduces the point value exactly, the spread is zero by
    # definition and the CI must collapse to the point.
    point_row = np.array([point[n] for n in names])
    if (values == point_row).all():
        sigma = np.zeros(len(names))
        mean = point_row.copy()
    else:
        sigma = values.std(axis=0, ddof=0)
        mean = values.mean(axis=0)
    summaries = {}
    for j, name in enumerate(names):
        if config.ci_method == "normal_1p96sigma":
            half = config.z * sigma[j]
            lo, hi = point[name] - half, point[name] + half
        else:
            alpha = (1 - config.level) / 2
            lo = float(np.quantile(values[:, j], alpha))
            hi = float(np.quantile(values[:, j], 1 - alpha))
        summaries[name] = StatisticSummary(
            point=float(point[name]),
            replicate_mean=float(mean[j]),
            sigma=float(sigma[j]),
            ci_low=float(lo),
            ci_high=float(hi),
        )
    return BootstrapResult(
        statistics=summaries,
        config=config,
        replicates=values if keep_replicates else None,
        replicate_names=tuple(names),
    )


# --- stock statistic plugins ----------------------------------------------


def proportion_of(label: str) -> StatisticPlugin:
    """Fraction of units carrying the given label."""

    def plugin(labels, covariates):
        labels = list(labels)
        return {f"prop_{label}": sum(l == label for l in labels) / len(labels)}

    return plugin


def yearly_proportion_of(label: str, year_key: str = "year") -> StatisticPlugin:
    """Per-year fraction of the given label, one named output per year."""

    def plugin(labels, covariates):
        from .stats import yearly_proportions

        years = [int(c[year_key]) for c in covariates]
        table = yearly_proportions(list(labels), years)
        return {
            f"prop_{label}_{year}": table[year].get(label, 0.0) for year in table
        }

    return plugin
