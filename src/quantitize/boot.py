"""Confusion-matrix bootstrap: propagate annotation error into statistics.

The error model holds one probability distribution per label (row-normalized
confusion counts). Each replicate redraws every unit's label from the
distribution belonging to its observed label, recomputes the statistic of
interest, and the spread of replicate values yields the confidence interval.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np
from scipy.special import ndtri

from .agreement import ConfusionMatrix
from .errors import ConfigError, DataError
from .jsonio import write_csv, write_json

log = logging.getLogger(__name__)

# statistic plugin: (labels, covariates) -> named outputs, each of the shape
# ``labels.shape[:-1]``. ``labels[..., n]`` holds label strings, 1-D for the
# point estimate and one row per replicate for a chunk; ``covariates`` maps
# each covariate name to a column aligned with the last axis. Outputs named
# ``p_*`` or ``prop_*`` are probabilities: their normal CI is clipped to [0, 1].
StatisticPlugin = Callable[[np.ndarray, Mapping[str, np.ndarray]], dict[str, np.ndarray]]

CHUNK_CELLS = 2**14  # labels per chunk of replicates: more costs memory, no time


@dataclass(frozen=True)
class ErrorModel:
    """Per-label sampling distributions over the label set."""

    labels: tuple[str, ...]
    dists: np.ndarray  # row i: distribution used for observed label i

    def __post_init__(self):
        k = len(self.labels)
        try:
            dists = np.asarray(self.dists, dtype=float)
        except ValueError as exc:  # ragged rows, or a cell that is no number
            raise DataError(f"error model needs a {k}x{k} grid: {exc}") from None
        object.__setattr__(self, "dists", dists)
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
    codes: np.ndarray, em: ErrorModel, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Redraw each unit's label code (an index into ``em.labels``) from the
    distribution of its observed label, one row per generator in ``rngs``:
    the number of the label's cumulative bounds, all but the last, below a
    uniform draw."""
    u = np.stack([rng.random(len(codes)) for rng in rngs])
    drawn = np.zeros(u.shape, dtype=np.intp)
    for bound in np.cumsum(em.dists, axis=1).T[:-1]:
        drawn += u > bound[codes]
    return drawn


@dataclass(frozen=True)
class BootstrapConfig:
    n_replicates: int = 10000
    seed: int = 0
    ci_method: str = "normal_1p96sigma"  # or "percentile"
    level: float = 0.95

    def __post_init__(self):
        if self.n_replicates < 2:
            raise ConfigError("need at least 2 replicates")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0 < self.level < 1:
            raise ConfigError("confidence level must be in (0, 1)")
        if self.ci_method not in ("normal_1p96sigma", "percentile"):
            raise ConfigError(f"unknown ci method {self.ci_method!r}")

    @property
    def z(self) -> float:
        if abs(self.level - 0.95) < 1e-12:
            return 1.96  # conventional value, not the exact quantile
        return float(ndtri(0.5 + self.level / 2))


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
        write_csv(path, ["replicate", *self.replicate_names],
                  ([i, *(repr(float(v)) for v in row)]
                   for i, row in enumerate(self.replicates)))


def bootstrap_ci(
    labels: Sequence[str],
    covariates: Mapping[str, Sequence],
    em: ErrorModel,
    statistic: StatisticPlugin,
    config: BootstrapConfig = BootstrapConfig(),
    keep_replicates: bool = False,
) -> BootstrapResult:
    """Run the simulate-and-recompute loop and summarize the spread.

    Every column in ``covariates`` must have one value per label. Each
    replicate draws from an RNG seeded by (seed, replicate index), so the
    result does not depend on order or chunking. The normal CI is centered
    on the observed-label point estimate with half-width z * sigma; the
    percentile CI uses empirical replicate quantiles.
    """
    index = {l: i for i, l in enumerate(em.labels)}
    try:
        codes = np.array([index[l] for l in labels], dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"label {exc.args[0]!r} not covered by the error model")
    for name, column in covariates.items():
        if len(column) != len(codes):
            raise DataError(f"covariate {name!r} has {len(column)} values "
                            f"for {len(codes)} labels")
    label_names = np.array(em.labels)
    point = statistic(label_names[codes], covariates)
    names = list(point)
    point_row = np.array([point[n] for n in names])
    values = np.empty((config.n_replicates, len(names)))
    if em.is_identity:
        # every replicate redraws the observed labels verbatim, so the
        # statistic is constant across replicates by construction
        values[:] = point_row
    else:
        size = max(1, CHUNK_CELLS // max(len(codes), 1))
        for start in range(0, config.n_replicates, size):
            chunk = range(start, min(start + size, config.n_replicates))
            sim = simulate_replicate(
                codes, em, [np.random.default_rng([config.seed, r]) for r in chunk])
            try:
                stat = statistic(label_names[sim], covariates)
            except Exception as err:
                # one replicate at a time, to name the first one that fails
                for r, row in zip(chunk, sim):
                    try:
                        statistic(label_names[row], covariates)
                    except Exception as exc:
                        raise DataError(f"statistic failed on replicate {r}: "
                                        f"{exc}") from exc
                raise DataError(f"statistic failed on replicates {chunk.start}-"
                                f"{chunk.stop - 1} but on none alone: {err}") from err
            for j, name in enumerate(names):
                column = np.asarray(stat[name])
                if column.shape != (len(chunk),):
                    raise DataError(f"statistic output {name!r} has shape "
                                    f"{column.shape} for {len(chunk)} replicates")
                values[chunk.start:chunk.stop, j] = column

    # Guard against float rounding in the degenerate case: when every
    # replicate reproduces the point value exactly, the spread is zero by
    # definition and the CI must collapse to the point.
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
            if name.startswith(("p_", "prop_")):
                lo, hi = max(lo, 0.0), min(hi, 1.0)
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
        hits = np.count_nonzero(labels == label, axis=-1)
        return {f"prop_{label}": hits / labels.shape[-1]}

    return plugin


def yearly_proportion_of(label: str) -> StatisticPlugin:
    """Per-year fraction of the given label, one output per ``year`` value."""

    # every replicate of a bootstrap passes the same year column object, so
    # its years, codes and totals are computed once, for the last column seen
    cached = {}

    def plugin(labels, covariates):
        column = covariates["year"]
        if cached.get("column") is not column:
            years, year_codes = np.unique(column, return_inverse=True)
            cached["column"] = column
            cached["codes"] = (years, year_codes,
                               np.bincount(year_codes, minlength=len(years)))
        years, year_codes, totals = cached["codes"]
        rows = (labels == label).reshape(-1, len(year_codes))
        # one bincount for every row: row i counts into cells i * len(years) on
        row, unit = np.divmod(np.flatnonzero(rows), len(year_codes))
        hits = np.bincount(row * len(years) + year_codes[unit],
                           minlength=len(rows) * len(years))
        share = hits.reshape(labels.shape[:-1] + (len(years),)) / totals
        return dict(zip((f"prop_{label}_{year}" for year in years),
                        np.moveaxis(share, -1, 0)))

    return plugin
