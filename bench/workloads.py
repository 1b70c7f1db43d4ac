"""The benchmark's workloads: seeded inputs, one pass of CLI commands, and
the output checks.

A workload writes every input file from its seed in ``make_inputs``. A pass
is a fixed list of ``quantitize`` commands, run through ``cli.main`` in this
process one after another. ``check`` compares the last pass's outputs with
the reference computations in ``oracles`` and returns what did not match.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import oracles
from quantitize import cli
from quantitize.stats import Observation
from quantitize.synth import gen_confound, gen_interview_margins, gen_simpson

NO_YES = ("no", "yes")


class SetupError(RuntimeError):
    """A command the inputs depend on exited with a non-zero code."""


def run_cli(argv) -> int:
    """One ``quantitize`` command; its console output is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main([str(a) for a in argv])


def _write_json(path: Path, doc) -> None:
    # the CLI reads its YAML files with yaml.safe_load; JSON is valid YAML
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _write_units(path: Path, units) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for unit in units:
            fh.write(json.dumps(unit, sort_keys=True) + "\n")


def _scheme(variable: str, labels) -> dict:
    return {"version": "1", "variables": [{
        "name": variable, "kind": "categorical",
        "levels": [{"label": label, "definition": ""} for label in labels]}]}


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_annotations(path: Path) -> dict:
    """unit id -> label of every record with status ok, in file order."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["status"] == "ok":
                out[rec["unit_id"]] = rec["label"]
    return out


def _read_confusion(path: Path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0][1:]), np.array([[int(c) for c in r[1:]] for r in rows[1:]])


def _check_logistic_boot(path: Path, covariates, X: np.ndarray, y: np.ndarray) -> list[str]:
    """The bootstrap's point coefficients must be the maximum-likelihood
    fit of ``y`` on ``X`` (intercept first, then ``covariates``), and every
    replicate spread must be finite and positive."""
    errors = []
    beta = oracles.logistic_mle(X, y)
    stats = _read_json(path)["statistics"]
    for j, name in enumerate(covariates, start=1):
        got = stats[f"beta_{name}"]["point"]
        if abs(got - beta[j]) > 1e-6:
            errors.append(f"beta_{name} point {got!r} != ML fit {beta[j]!r}")
    for name, s in stats.items():
        if not (math.isfinite(s["sigma"]) and s["sigma"] > 0):
            errors.append(f"{name} sigma {s['sigma']!r} is not finite and > 0")
    return errors


class Workload:
    name = ""
    # the commands of one pass, in order, as (name, argv); set by make_inputs
    commands: list

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def path(self, *parts) -> Path:
        return self.work.joinpath(*parts)

    def make_inputs(self) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def _annotated_corpus(self, variable, labels, units, matrix) -> None:
        """Write a raw corpus, its scheme and prompt, and a run config for
        the gold-corruption mock with ``matrix``."""
        _write_units(self.path("raw.jsonl"), units)
        _write_json(self.path("scheme.yaml"), _scheme(variable, labels))
        self.path("prompt.txt").write_text(
            f"Label the {variable} of this text: {', '.join(labels)}.\n\n{{text}}\n",
            encoding="utf-8")
        _write_json(self.path("run.yaml"), {
            "corpus": "corpus.jsonl", "scheme": "scheme.yaml",
            "template": "prompt.txt", "variable": variable, "output_dir": "ann",
            "seed": self.seed,
            "client": {"kind": "mock", "mode": "gold_corruption", "matrix": matrix},
            "policy": {"batch_size": 1, "max_in_flight": 1},
        })

    def _annotate_in_setup(self, variable) -> None:
        """Ingest, annotate and evaluate, for workloads whose timed commands
        read the annotations and the confusion matrix."""
        for argv in (self._ingest_argv(), self._annotate_argv(),
                     self._evaluate_argv(variable)):
            if run_cli(argv) != 0:
                raise SetupError("set-up command failed: quantitize "
                                 + " ".join(map(str, argv)))

    def _ingest_argv(self):
        return ["ingest", "--input", self.path("raw.jsonl"), "--format", "jsonl",
                "--scheme", self.path("scheme.yaml"), "--out", self.path("corpus.jsonl")]

    def _annotate_argv(self):
        return ["annotate", "--config", self.path("run.yaml")]

    def _evaluate_argv(self, variable):
        return ["evaluate", "--corpus", self.path("corpus.jsonl"),
                "--annotations", self.path("ann", "annotations.jsonl"),
                "--scheme", self.path("scheme.yaml"), "--variable", variable,
                "--out-dir", self.path("eval")]

    def _bootstrap_argv(self, statistic, replicates):
        return ["bootstrap", "--annotations", self.path("ann", "annotations.jsonl"),
                "--confusion", self.path("eval", "confusion.csv"),
                "--corpus", self.path("corpus.jsonl"), "--statistic", statistic,
                "--replicates", replicates, "--seed", self.seed,
                "--out", self.path("boot", "boot.json")]


# --- pipeline_large ---------------------------------------------------------


class PipelineLarge(Workload):
    """Historical-text-mining run: 10^4 dated abstracts from 8 sources, a
    3-topic scheme, and the per-year share of one topic with its CI."""

    name = "pipeline_large"
    N_UNITS = 10_000
    YEARS = tuple(range(1900, 1920))
    N_SOURCES = 8
    TOPICS = ("Politics", "Economy", "Culture")
    TARGET = "Politics"
    MATRIX = [[0.85, 0.10, 0.05], [0.08, 0.84, 0.08], [0.05, 0.12, 0.83]]
    REPLICATES = 200
    VOCAB = ("treaty", "harvest", "parliament", "tariff", "opera", "strike",
             "railway", "election", "novel", "bank", "reform", "exhibition",
             "colony", "wages", "theatre", "budget", "press", "museum")

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.N_UNITS
        years = rng.integers(self.YEARS[0], self.YEARS[-1] + 1, size=n)
        sources = rng.integers(self.N_SOURCES, size=n)
        # the Politics share rises from 0.25 to 0.45 over the period
        trend = (years - self.YEARS[0]) / (len(self.YEARS) - 1)
        p_politics = 0.25 + 0.20 * trend
        u = rng.random(n)
        topic = np.where(u < p_politics, 0, np.where(u < p_politics + 0.35, 1, 2))
        words = rng.integers(len(self.VOCAB), size=(n, 12))
        self.gold, self.years = {}, {}
        units = []
        for i in range(n):
            uid = f"a{i:06d}"
            self.gold[uid] = self.TOPICS[topic[i]]
            self.years[uid] = int(years[i])
            units.append({
                "id": uid,
                "text": f"Abstract {i}, {years[i]}: "
                        + " ".join(self.VOCAB[w] for w in words[i]) + ".",
                "groups": {"source": f"source{sources[i] + 1}"},
                "meta": {"year": int(years[i])},
                "gold": {"topic": self.gold[uid]},
            })
        self._annotated_corpus("topic", self.TOPICS, units, self.MATRIX)
        self.commands = [
            ("ingest", self._ingest_argv()),
            ("annotate", self._annotate_argv()),
            ("evaluate", self._evaluate_argv("topic")),
            ("bootstrap", self._bootstrap_argv(
                f"yearly_proportions:{self.TARGET}", self.REPLICATES)),
            ("report", ["report", self.path("eval", "report.json"),
                        self.path("boot", "boot.json"),
                        "--out", self.path("summary.md")]),
        ]

    def check(self) -> list[str]:
        errors = []
        predicted = _read_annotations(self.path("ann", "annotations.jsonl"))
        if len(predicted) != self.N_UNITS:
            errors.append(f"{len(predicted)} of {self.N_UNITS} units annotated ok")
        counts = oracles.confusion_counts(self.gold, predicted, self.TOPICS)
        labels, written = _read_confusion(self.path("eval", "confusion.csv"))
        if labels != self.TOPICS or not np.array_equal(written, counts):
            errors.append("confusion.csv differs from the recount")
        report = _read_json(self.path("eval", "report.json"))
        for key, want in (("accuracy", oracles.accuracy(counts)),
                          ("kappa", oracles.cohens_kappa(counts))):
            if abs(report[key] - want) > 1e-12:
                errors.append(f"report {key} {report[key]!r} != recount {want!r}")

        dists = oracles.row_distributions(counts)
        index = {label: i for i, label in enumerate(self.TOPICS)}
        target = index[self.TARGET]
        boot = _read_json(self.path("boot", "boot.json"))
        stats = boot["statistics"]
        r = boot["config"]["n_replicates"]
        if len(stats) != len(self.YEARS):
            errors.append(f"{len(stats)} yearly statistics for {len(self.YEARS)} years")
        for year in self.YEARS:
            name = f"prop_{self.TARGET}_{year}"
            if name not in stats:
                errors.append(f"{name} missing")
                continue
            s = stats[name]
            observed = np.array([index[label] for uid, label in predicted.items()
                                 if self.years[uid] == year])
            point = float(np.sum(observed == target) / len(observed))
            mean, sigma = oracles.redraw_moments(observed, dists, target)
            # five standard errors of the replicate mean and of the replicate
            # standard deviation (about sigma / sqrt(2R) for R draws)
            if s["point"] != point:
                errors.append(f"{name} point {s['point']!r} != count {point!r}")
            if abs(s["replicate_mean"] - mean) > 5 * sigma / math.sqrt(r):
                errors.append(f"{name} replicate mean {s['replicate_mean']:.6f} "
                              f"!= analytic {mean:.6f}")
            if abs(s["sigma"] - sigma) > 5 * sigma / math.sqrt(2 * (r - 1)):
                errors.append(f"{name} sigma {s['sigma']:.6f} != analytic {sigma:.6f}")
            for key, want in (("ci_low", s["point"] - oracles.Z95 * s["sigma"]),
                              ("ci_high", s["point"] + oracles.Z95 * s["sigma"])):
                if abs(s[key] - want) > 1e-12:
                    errors.append(f"{name} {key} {s[key]!r} != point +- 1.96 sigma")
        return errors


# --- boot_logistic -----------------------------------------------------------


class BootLogistic(Workload):
    """Confound-style survey: 2000 answers with campus and age, and the
    bootstrap of a two-covariate logistic model of the annotated answer."""

    name = "boot_logistic"
    N_UNITS = 2000
    MATRIX = [[0.9, 0.1], [0.12, 0.88]]
    REPLICATES = 300
    COVARIATES = ("age", "campus")  # the program's coefficient order

    def make_inputs(self) -> None:
        obs = gen_confound(self.seed, n=self.N_UNITS)
        self.covariates = {}
        units = []
        for i, o in enumerate(obs):
            uid = f"c{i:05d}"
            self.covariates[uid] = [o.covariates[k] for k in self.COVARIATES]
            units.append({"id": uid, "text": f"Answer {i}: would study online.",
                          "meta": dict(o.covariates),
                          "gold": {"answer": NO_YES[o.response]}})
        self._annotated_corpus("answer", NO_YES, units, self.MATRIX)
        self._annotate_in_setup("answer")
        self.commands = [("bootstrap", self._bootstrap_argv(
            "logistic:yes ~ campus + age", self.REPLICATES))]

    def check(self) -> list[str]:
        predicted = _read_annotations(self.path("ann", "annotations.jsonl"))
        X = np.array([[1.0] + self.covariates[u] for u in predicted])
        y = np.array([label == "yes" for label in predicted.values()], dtype=float)
        return _check_logistic_boot(self.path("boot", "boot.json"), self.COVARIATES, X, y)


# --- mixed_glmm ----------------------------------------------------------------


class MixedGlmm(Workload):
    """Random-intercept fits: interview data (192 answers, 53 respondents,
    sigma at its bound) in three row orders, and a 3-school Simpson set with
    annotated answers (sigma interior).

    There is no mixed bootstrap: ``bootstrap_ci`` aborts when a single
    replicate fit fails, and the mixed fit's optimizer fails on some
    replicate draws (seed 23: replicate 12 of 16), so a mixed bootstrap
    would fail on some seeds and not on others.
    """

    name = "mixed_glmm"
    MATRIX = [[0.9, 0.1], [0.1, 0.9]]
    INTERVIEW = "online ~ campus + age + (1|id)"
    SIMPSON = "yes ~ age + (1|school)"
    STEP = 1e-3  # probe step in (beta, log sigma) for the optimality check
    LOG_SIGMA_BOUND = -6.0  # lower bound of log sigma in the program's fit
    ORDERS = 3  # row orders of the interview set fitted in one pass

    def make_inputs(self) -> None:
        # The interview set does not depend on the seed. Its generator's own
        # seed decides whether the variance MLE sits at its bound (in 12 of
        # seeds 0-19) or inside it, and moves the fit time between 1.7 and
        # 3.7 s; this workload is the at-the-bound case, as on generator
        # seed 0. The row order and respondent ids alone move the
        # optimizer's path (23-28 iterations, 2.8-3.5 s per fit over ten
        # shuffles), which spread the pass time by 0.07-0.10 of its median
        # over seeds, so a pass fits ORDERS fixed shuffles of the same rows
        # and the seed draws only the Simpson corpus and its annotation.
        rng = np.random.default_rng(0)
        rows = gen_interview_margins(0)
        respondents = sorted({o.group for o in rows})
        self.interviews = []
        for k in range(self.ORDERS):
            relabel = dict(zip(respondents, (f"r{i:02d}" for i in
                                             rng.permutation(len(respondents)))))
            interview = [Observation(o.response, o.covariates, relabel[o.group])
                         for o in (rows[i] for i in rng.permutation(len(rows)))]
            self.interviews.append(interview)
            with open(self.path(f"interview{k}.csv"), "w", encoding="utf-8",
                      newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["id", "campus", "age", "online"])
                for o in interview:
                    w.writerow([o.group, repr(o.covariates["campus"]),
                                repr(o.covariates["age"]), o.response])

        self.simpson = {}
        units = []
        for i, o in enumerate(gen_simpson(self.seed)):
            uid = f"s{i:04d}"
            self.simpson[uid] = (o.covariates["age"], o.group)
            units.append({"id": uid, "text": f"Pupil {i}: plans to continue.",
                          "meta": {"age": o.covariates["age"]},
                          "groups": {"school": o.group},
                          "gold": {"answer": NO_YES[o.response]}})
        self._annotated_corpus("answer", NO_YES, units, self.MATRIX)
        self._annotate_in_setup("answer")
        predicted = _read_annotations(self.path("ann", "annotations.jsonl"))
        with open(self.path("simpson.csv"), "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "age", "school", "yes"])
            for uid, label in predicted.items():
                age, school = self.simpson[uid]
                w.writerow([uid, repr(age), school, int(label == "yes")])

        self.commands = [
            ("fit", ["fit", "--data", self.path(f"interview{k}.csv"), "--formula",
                     self.INTERVIEW, "--out", self.path(f"fit_interview{k}", "fit.json")])
            for k in range(self.ORDERS)
        ] + [
            ("fit", ["fit", "--data", self.path("simpson.csv"), "--formula",
                     self.SIMPSON, "--out", self.path("fit_simpson", "fit.json")]),
        ]

    def _groups(self, rows, covariates):
        """(X, y) per group, columns in the program's coefficient order."""
        by_group = {}
        for group, cov, response in rows:
            by_group.setdefault(group, []).append(
                [1.0] + [cov[c] for c in covariates] + [response])
        out = []
        for group in sorted(by_group):
            a = np.array(by_group[group])
            out.append((a[:, :-1], a[:, -1]))
        return out

    def _check_fit(self, label, fit, groups) -> list[str]:
        errors = []
        beta = np.array([c["estimate"] for c in fit["coefficients"].values()])
        log_sigma = math.log(fit["sigma_u"])
        ll = oracles.marginal_loglik(groups, beta, fit["sigma_u"])
        if abs(fit["log_likelihood"] - ll) > 1e-6:
            errors.append(f"{label} log-likelihood {fit['log_likelihood']!r} "
                          f"!= quadrature {ll!r}")
        # no step of +-STEP in any coordinate of (beta, log sigma) that stays
        # inside the bounds may raise the likelihood
        theta = np.append(beta, log_sigma)
        for j in range(len(theta)):
            for sign in (1.0, -1.0):
                probe = theta.copy()
                probe[j] += sign * self.STEP
                if probe[-1] < self.LOG_SIGMA_BOUND:
                    continue
                gain = oracles.marginal_loglik(groups, probe[:-1], math.exp(probe[-1])) - ll
                if gain > 1e-6:
                    errors.append(f"{label}: a step of {sign * self.STEP:+g} in "
                                  f"coordinate {j} raises the likelihood by {gain:.3g}")
        return errors

    def check(self) -> list[str]:
        errors = []
        for k, interview in enumerate(self.interviews):
            label = f"interview fit {k}"
            fit = _read_json(self.path(f"fit_interview{k}", "fit.json"))
            names = [n for n in fit["coefficients"] if n != "(Intercept)"]
            rows = [(o.group, o.covariates, o.response) for o in interview]
            errors += self._check_fit(label, fit, self._groups(rows, names))
            # sigma_u sits at its bound, so the fit is the fixed-effects fit
            X = np.array([[1.0] + [o.covariates[c] for c in names] for o in interview])
            y = np.array([o.response for o in interview], dtype=float)
            fixed = oracles.logistic_mle(X, y)
            mixed = [c["estimate"] for c in fit["coefficients"].values()]
            if np.max(np.abs(fixed - mixed)) > 1e-3:
                errors.append(f"{label}: beta {mixed} != fixed-effects fit {list(fixed)}")

        fit = _read_json(self.path("fit_simpson", "fit.json"))
        predicted = _read_annotations(self.path("ann", "annotations.jsonl"))
        rows = [(self.simpson[u][1], {"age": self.simpson[u][0]}, float(label == "yes"))
                for u, label in predicted.items()]
        errors += self._check_fit("Simpson fit", fit, self._groups(rows, ["age"]))
        return errors


WORKLOADS = {w.name: w for w in (PipelineLarge, BootLogistic, MixedGlmm)}
