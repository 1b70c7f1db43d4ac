"""Confusion-matrix bootstrap: propagate annotation error into statistics.

The error model holds one probability distribution per label (row-normalized
confusion counts). Each replicate redraws every unit's label from the
distribution belonging to its observed label, recomputes the statistic of
interest, and the spread of replicate values yields the confidence interval.
``bootstrap_ci`` hands a statistic its replicates in one of three forms,
picked once: counts per cell to ``of_counts`` (``CellShares``, the
proportions, drawn as multinomial counts), label codes to ``of_codes``
(``Regression``, the stock ``logistic:`` and ``mixed:`` plugins), and label
strings to the plugin itself (any custom plugin). One chunk loop draws and
evaluates every form, names the first replicate that fails, and keeps
every replicate's values.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .agreement import ConfusionMatrix
from .corpus import as_text
from .errors import ConfigError, DataError
from .jsonio import write_csv, write_json
from .stats import (design_matrix, fit_logistic_stack, fit_random_intercept, parse_formula,
                    wald_tests)

log = logging.getLogger(__name__)

# statistic plugin: (labels, covariates) -> named outputs, each of the shape
# ``labels.shape[:-1]``. ``labels[..., n]`` holds label strings, 1-D for the
# point estimate and one row per replicate for a chunk; ``covariates`` maps
# each covariate name to a column aligned with the last axis, for custom
# plugins: the stock ones bind their columns when built. A plugin may take
# its replicates in another form instead: label codes through
# ``of_codes(codes, labels)``, or counts per cell of the units' ``cells``
# through ``of_counts(counts, labels)``. Outputs named ``p_*`` or ``prop_*``
# are probabilities: their normal CI is clipped to [0, 1].
StatisticPlugin = Callable[[np.ndarray, Mapping[str, np.ndarray]], dict[str, np.ndarray]]

CHUNK_CELLS = 2**14  # labels, or counts, drawn per chunk: more costs memory, no time


@dataclass(frozen=True)
class ErrorModel:
    """Per-label sampling distributions over the label set. ``redraw`` draws
    labels from them for the bootstrap's label path and for the
    ``gold_corruption`` mock alike."""

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

    def redraw(self, codes: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Label codes (indices into ``labels``) redrawn by inversion: for each
        uniform ``u[..., i]`` in [0, 1), the number of row ``codes[i]``'s
        normalised cumulative bounds, all but the last, at or below it, so a
        zero-probability label is never drawn."""
        cum = np.cumsum(self.dists, axis=1)
        drawn = np.zeros(np.shape(u), dtype=np.intp)
        for bound in (cum / cum[:, -1:]).T[:-1]:
            drawn += u >= bound[codes]
        return drawn


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
    codes: np.ndarray, em: ErrorModel, rng: np.random.Generator, n_rows: int
) -> np.ndarray:
    """Redraw each unit's label code (an index into ``em.labels``) from the
    distribution of its observed label through ``em.redraw``, in ``n_rows``
    rows from one ``rng.random((n_rows, len(codes)))`` draw."""
    return em.redraw(codes, rng.random((n_rows, len(codes))))


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
        return NormalDist().inv_cdf(0.5 + self.level / 2)


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
    replicates: np.ndarray = field(repr=False)
    replicate_names: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "statistics": {n: asdict(s) for n, s in self.statistics.items()},
        }

    def to_json(self, path: Union[str, Path]) -> None:
        write_json(path, self.to_dict())

    def replicates_to_csv(self, path: Union[str, Path]) -> None:
        write_csv(path, ["replicate", *self.replicate_names],
                  ([i, *(repr(float(v)) for v in row)]
                   for i, row in enumerate(self.replicates)))


def bootstrap_ci(
    labels: Sequence[str],
    covariates: Mapping[str, Sequence],
    em: ErrorModel,
    statistic: StatisticPlugin,
    config: BootstrapConfig = BootstrapConfig(),
) -> BootstrapResult:
    """Run the simulate-and-recompute loop and summarize the spread.

    Every column in ``covariates`` must have one value per label. Replicates
    are drawn in order from one ``default_rng(seed)``, so chunking changes
    nothing. The statistic's form is picked once: one with ``of_counts``
    (``CellShares``) gets multinomial draws of the counts per (cell, observed
    label); any other gets replicate r's labels redrawn from draws r*n to
    (r+1)*n - 1, as codes (indices into ``em.labels``) through ``of_codes``
    (``Regression``) or else as strings. For one seed the two draws give
    other replicates from the same distribution. A chunk that fails is
    re-run one replicate at a time to name the first that fails. The normal
    CI is centered on the observed-label point estimate with half-width
    z * sigma; the percentile CI uses empirical replicate quantiles. The
    result holds every replicate's values.
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
    rng = np.random.default_rng(config.seed)
    if hasattr(statistic, "of_counts"):
        cells = np.broadcast_to(statistic.cells, codes.shape)
        observed = np.zeros((cells.max(initial=0) + 1, len(em.labels)), dtype=np.intp)
        np.add.at(observed, (cells, codes), 1)  # observed[cell, label]
        # numpy's multinomial wants rows that sum to 1 within 1e-12
        dists = em.dists / em.dists.sum(axis=1, keepdims=True)
        size = max(1, CHUNK_CELLS // (observed.size * len(em.labels)))
        form = statistic.of_counts

        def draw(rows):
            return rng.multinomial(observed, dists, size=(rows, *observed.shape)).sum(-2)
    else:
        observed, size = codes, max(1, CHUNK_CELLS // max(len(codes), 1))
        form = getattr(statistic, "of_codes", None) or (
            lambda sim, labels: statistic(np.array(labels)[sim], covariates))

        def draw(rows):
            return simulate_replicate(codes, em, rng, rows)
    point = form(observed, em.labels)
    names = list(point)
    point_row = np.array([point[n] for n in names])
    values = np.empty((config.n_replicates, len(names)))
    if em.is_identity:
        # every replicate redraws the observed labels verbatim, so the
        # statistic is constant across replicates by construction
        values[:] = point_row
    else:
        for start in range(0, config.n_replicates, size):
            chunk = range(start, min(start + size, config.n_replicates))
            sim = draw(len(chunk))
            try:
                stat = form(sim, em.labels)
            except Exception as err:
                # one replicate at a time, to name the first one that fails
                for r, row in zip(chunk, sim):
                    try:
                        form(row, em.labels)
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
        replicates=values,
        replicate_names=tuple(names),
    )


# --- stock statistic plugins ----------------------------------------------


class CellShares:
    """Share of ``label`` among the units of each cell, named ``names[c]``
    for cell c; ``cells`` holds each unit's cell (0: one cell for all).
    ``of_counts`` is its one formula: ``bootstrap_ci`` draws its replicates
    as counts per cell, and label rows are counted per cell first."""

    def __init__(self, label: str, cells, names: Sequence[str]):
        self.label = label
        self.cells = np.asarray(cells, dtype=np.intp)
        self.names = tuple(names)

    def of_counts(self, counts: np.ndarray, labels: Sequence[str]) -> dict[str, np.ndarray]:
        """The outputs from ``counts[..., c, j]``, the number of units of
        cell c that carry ``labels[j]``."""
        hits = (counts[..., list(labels).index(self.label)] if self.label in labels
                else np.zeros(counts.shape[:-1]))
        return dict(zip(self.names, np.moveaxis(hits / counts.sum(axis=-1), -1, 0)))

    def __call__(self, labels, covariates):
        hit, m = labels == self.label, len(self.names)
        cells = np.broadcast_to(self.cells, hit.shape[-1:])
        # each row's cells numbered apart, so one count covers the chunk
        index = cells + m * np.arange(math.prod(hit.shape[:-1]))[:, None]
        hits = np.bincount(index.ravel(), hit.ravel(), len(index) * m)
        hits = hits.reshape(hit.shape[:-1] + (m,))
        counts = np.stack([hits, np.bincount(cells, minlength=m) - hits], axis=-1)
        return self.of_counts(counts, (self.label, None))  # None: any other label


def proportion_of(label: str) -> CellShares:
    """Fraction of units carrying the given label."""
    return CellShares(label, 0, [f"prop_{label}"])


def yearly_proportion_of(label: str, years: Sequence[int]) -> CellShares:
    """Per-year fraction of the given label, one output per value in
    ``years``, the year of each unit."""
    values, cells = np.unique(np.asarray(years), return_inverse=True)
    return CellShares(label, cells, [f"prop_{label}_{year}" for year in values])


class Regression:
    """Slopes ``beta_<name>`` and their Wald p-values ``p_<name>`` of the
    logistic fit of whether each unit carries ``label``, or with ``groups``
    (one id per unit) of the random-intercept fit, on a
    :func:`~quantitize.stats.design_matrix` ``X`` with column ``names``. The
    design is built once, and each chunk of replicates is one engine call on
    the stack of its responses, so a mixed fit sorts it by group once a
    chunk. ``bootstrap_ci`` passes it label codes through ``of_codes``."""

    def __init__(self, label: str, X: np.ndarray, names: list[str], groups=None):
        self.label, self.X, self.names, self.groups = label, X, names, groups

    def of_codes(self, codes: np.ndarray, labels: Sequence[str]) -> dict[str, np.ndarray]:
        """The outputs from ``codes[..., n]``, indices into ``labels``."""
        return self._fit(codes == list(labels).index(self.label))

    def __call__(self, labels, covariates):
        return self._fit(labels == self.label)

    def _fit(self, hit):
        """The outputs of the fits of each row of the 0/1 ``hit[..., n]``."""
        X, names = self.X, self.names
        Y = hit.astype(float).reshape(-1, len(X))
        beta, cov, *_ = (fit_logistic_stack(X, Y, names) if self.groups is None
                         else fit_random_intercept(X, Y, names, self.groups))
        p = wald_tests(beta, cov)[2]
        out, shape = {}, hit.shape[:-1]
        for i, name in enumerate(names[1:], 1):  # the slopes, not the intercept
            out[f"beta_{name}"] = beta[:, i].reshape(shape)
            out[f"p_{name}"] = p[:, i].reshape(shape)
        return out


# --- statistic specs --------------------------------------------------------


def _whole(value) -> int:
    """``value`` as an int if it is one exactly: 1990, 1990.0 or "1990",
    but not True or 1990.7."""
    whole = int(value)
    if isinstance(value, bool) or whole != float(value):
        raise ValueError(value)
    return whole


def _covariate_columns(corpus, rows: Sequence[int], needed: dict) -> dict:
    """One array per covariate in ``needed`` (name -> converter), read at
    the corpus ``rows``; a unit's groups take precedence over its metadata.
    A value the converter rejects, or a float that is not finite, is a
    DataError naming the unit; no ``corpus`` at all is a ConfigError."""
    if corpus is None:
        raise ConfigError(f"statistic reads covariates {list(needed)} from "
                          "--corpus, which was not given")
    groups = [corpus.groups[r] for r in rows]
    metas = [corpus.meta[r] for r in rows]
    columns = {}
    for name, convert in needed.items():
        if not any(name in g or name in m for g, m in zip(groups, metas)):
            raise ConfigError(f"statistic needs a covariate no unit has: {name!r}")
        column = []
        for row, g, m in zip(rows, groups, metas):
            try:
                value = convert(g[name] if name in g else m[name])
                if convert is float and not math.isfinite(value):
                    raise ValueError(value)
            except (KeyError, TypeError, ValueError, OverflowError):
                raise DataError(f"unit {corpus.ids[row]!r} has no usable value for "
                                f"covariate {name!r}") from None
            column.append(value)
        columns[name] = np.array(column)
    return columns


def parse_statistic(spec: str, labels: Sequence[str], corpus, rows: Sequence[int]):
    """The plugin for a statistic spec and the covariate columns it reads
    from the ``corpus`` at ``rows``, one row per label (None and no rows
    without a corpus). The label the spec counts or models must be one of
    ``labels``, the error model's."""
    if ":" not in spec:
        raise ConfigError(f"statistic spec {spec!r} needs the form kind:arg")
    kind, arg = spec.split(":", 1)
    if kind not in ("proportion", "yearly_proportions", "logistic", "mixed"):
        raise ConfigError(f"unknown statistic kind {kind!r}")
    formula = parse_formula(arg) if kind in ("logistic", "mixed") else None
    label = formula.response if formula else arg
    if label not in labels:
        raise ConfigError(f"statistic {spec!r} names label {label!r}, which is "
                          f"not one of the error model's labels {list(labels)}")
    if kind == "proportion":
        return proportion_of(label), {}
    if kind == "yearly_proportions":
        columns = _covariate_columns(corpus, rows, {"year": _whole})
        return yearly_proportion_of(label, columns["year"]), columns
    mixed = kind == "mixed"
    if formula.group and not mixed:
        raise ConfigError("a logistic statistic has no random intercept; "
                          f"use mixed:{arg} to fit the (1|group) term")
    if mixed and not formula.group:
        raise ConfigError("a mixed statistic needs a (1|group) term")
    needed = dict.fromkeys(formula.covariates, float)
    if mixed:
        needed[formula.group] = as_text
    columns = _covariate_columns(corpus, rows, needed)
    X, names = design_matrix({c: columns[c] for c in formula.covariates}, len(rows))
    return Regression(label, X, names, columns[formula.group] if mixed else None), columns

