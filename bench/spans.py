"""Spans around the program's public functions, and the per-layer metrics
computed from them.

The tracer replaces module and class attributes that the CLI resolves at
call time (``quantitize.cli.ingest``, ``Corpus.unit`` and so on) with
wrappers that record a span, and puts the originals back on exit, so the
package itself is never edited. Spans are kept in memory and written as
JSONL when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# (metric, unit, better, span, aggregate). The aggregates are:
#   self   sum of span time minus the time its direct children cover
#   total  sum of span time;  calls  number of spans
#   count  sum of the count each span recorded (records, iterations, ...)
#   p50 / tail  a percentile of single span durations, in the metric's unit
# Sums are taken per traced pass and reported as the median over passes;
# percentiles pool the spans of every traced pass.
LAYER_METRICS = (
    ("cli.ingest.self_s", "s", "lower", "cli.ingest", "self"),
    ("cli.annotate.self_s", "s", "lower", "cli.annotate", "self"),
    ("cli.annotate.s", "s", "lower", "cli.annotate", "total"),
    ("cli.evaluate.self_s", "s", "lower", "cli.evaluate", "self"),
    ("cli.bootstrap.self_s", "s", "lower", "cli.bootstrap", "self"),
    ("cli.bootstrap.s", "s", "lower", "cli.bootstrap", "total"),
    ("cli.fit.self_s", "s", "lower", "cli.fit", "self"),
    ("cli.fit.s", "s", "lower", "cli.fit", "total"),
    ("cli.report.s", "s", "lower", "cli.report", "total"),
    ("corpus.ingest.s", "s", "lower", "corpus.ingest", "total"),
    ("corpus.ingest.calls", "count", "lower", "corpus.ingest", "calls"),
    ("corpus.save.s", "s", "lower", "corpus.save", "total"),
    ("corpus.unit.calls", "count", "lower", "corpus.unit", "calls"),
    ("corpus.unit.s", "s", "lower", "corpus.unit", "total"),
    ("annotate.annotate.s", "s", "lower", "annotate.annotate", "total"),
    ("annotate.records", "count", "higher", "annotate.annotate", "count"),
    ("annotate.send.calls", "count", "lower", "annotate.send", "calls"),
    ("annotate.send.s", "s", "lower", "annotate.send", "total"),
    ("annotate.normalize.s", "s", "lower", "annotate.normalize", "total"),
    ("annotate.save.s", "s", "lower", "annotate.save", "total"),
    ("annotate.load.s", "s", "lower", "annotate.load", "total"),
    ("agreement.build_confusion.s", "s", "lower", "agreement.build_confusion", "total"),
    ("agreement.report.s", "s", "lower", "agreement.report", "total"),
    ("boot.bootstrap_ci.s", "s", "lower", "boot.bootstrap_ci", "total"),
    ("boot.error_model.s", "s", "lower", "boot.error_model", "total"),
    ("boot.replicates", "count", "higher", "boot.bootstrap_ci", "count"),
    ("boot.simulate.s", "s", "lower", "boot.simulate", "total"),
    ("boot.simulate.p50_ms", "ms", "lower", "boot.simulate", "p50"),
    ("boot.simulate.tail_ms", "ms", "lower", "boot.simulate", "tail"),
    ("boot.statistic.calls", "count", "lower", "boot.statistic", "calls"),
    ("boot.statistic.s", "s", "lower", "boot.statistic", "total"),
    ("boot.statistic.p50_ms", "ms", "lower", "boot.statistic", "p50"),
    ("boot.statistic.tail_ms", "ms", "lower", "boot.statistic", "tail"),
    ("stats.fit_logistic.calls", "count", "lower", "stats.fit_logistic", "calls"),
    ("stats.fit_logistic.s", "s", "lower", "stats.fit_logistic", "total"),
    ("stats.irls_iters", "count", "lower", "stats.fit_logistic", "count"),
    ("stats.fit_mixed.calls", "count", "lower", "stats.fit_mixed", "calls"),
    ("stats.fit_mixed.s", "s", "lower", "stats.fit_mixed", "total"),
    ("stats.fit_mixed.p50_s", "s", "lower", "stats.fit_mixed", "p50"),
    ("stats.mixed_iters", "count", "lower", "stats.fit_mixed", "count"),
)


def tail_percentile(n: int):
    """Highest percentile of the ladder with at least ten of ``n`` samples
    beyond it; None below forty samples, where no percentile is a tail."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10 - 1e-9:  # 100 - 99.9 < 0.1 in floats
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Records spans ``[name, start, end, parent, pass, count]`` while
    installed; ``pass_index`` tags the spans of the pass being run. Times
    are read from ``clock``."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.pass_index = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # --- recording --------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(result)`` gives the span's count."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   self.pass_index, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(result)
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self):
        # the package re-exports a function named ``annotate``, which hides
        # the submodule of that name, so the modules come from importlib
        agreement, annotate, boot, cli, corpus, stats = (
            importlib.import_module(f"quantitize.{name}") for name in
            ("agreement", "annotate", "boot", "cli", "corpus", "stats"))

        def n_iter(result):
            return result.n_iter

        for command in ("ingest", "annotate", "evaluate", "bootstrap", "fit", "report"):
            attr = f"cmd_{command}"
            self._patch(cli, attr, self.wrap(f"cli.{command}", getattr(cli, attr)))
        self._patch(cli, "ingest", self.wrap("corpus.ingest", corpus.ingest))
        self._patch(cli, "save_corpus", self.wrap("corpus.save", corpus.save_corpus))
        self._patch(corpus.Corpus, "unit", self.wrap("corpus.unit", corpus.Corpus.unit))
        self._patch(cli, "annotate", self.wrap(
            "annotate.annotate", annotate.annotate,
            count=lambda result: len(result.records)))
        self._patch(annotate.MockModel, "send",
                    self.wrap("annotate.send", annotate.MockModel.send))
        self._patch(annotate, "normalize_output",
                    self.wrap("annotate.normalize", annotate.normalize_output))
        self._patch(annotate.AnnotationSet, "save",
                    self.wrap("annotate.save", annotate.AnnotationSet.save))
        load = annotate.AnnotationSet.__dict__["load"].__func__
        self._patch(annotate.AnnotationSet, "load",
                    classmethod(self.wrap("annotate.load", load)))
        self._patch(cli, "build_confusion",
                    self.wrap("agreement.build_confusion", agreement.build_confusion))
        self._patch(cli, "agreement_report",
                    self.wrap("agreement.report", agreement.agreement_report))
        self._patch(cli, "error_model_from_confusion",
                    self.wrap("boot.error_model", boot.error_model_from_confusion))
        self._patch(boot, "simulate_replicate",
                    self.wrap("boot.simulate", boot.simulate_replicate))
        self._patch(cli, "bootstrap_ci", self._wrap_bootstrap(boot.bootstrap_ci))
        fit = self.wrap("stats.fit_logistic", stats.fit_logistic, count=n_iter)
        self._patch(cli, "fit_logistic", fit)
        self._patch(stats, "fit_logistic", fit)
        self._patch(cli, "fit_logistic_random_intercept", self.wrap(
            "stats.fit_mixed", stats.fit_logistic_random_intercept, count=n_iter))
        return self

    def _wrap_bootstrap(self, bootstrap_ci):
        """bootstrap_ci with its statistic plugin wrapped as well, so every
        plugin evaluation (the point one and one per replicate) is a span."""
        traced = self.wrap(
            "boot.bootstrap_ci", bootstrap_ci,
            count=lambda result: result.config.n_replicates)

        def run(labels, covariates, em, statistic, *args, **kwargs):
            plugin = self.wrap("boot.statistic", statistic)
            return traced(labels, covariates, em, plugin, *args, **kwargs)

        return run

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # --- reporting --------------------------------------------------------

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_index, count in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "pass": pass_index, "count": count,
                }) + "\n")

    def layer_metrics(self, passes) -> tuple[dict, list[str]]:
        """Per-layer metric values over the traced ``passes``, plus lines
        that state the percentile and sample count behind each tail."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        sums = {p: defaultdict(float) for p in passes}
        durations = defaultdict(list)
        for i, (name, start, end, _, pass_index, count) in enumerate(self.spans):
            if pass_index not in sums:
                continue
            acc = sums[pass_index]
            acc[(name, "total")] += end - start
            acc[(name, "self")] += end - start - child_time[i]
            acc[(name, "calls")] += 1
            acc[(name, "count")] += count
            durations[name].append(end - start)

        values, notes = {}, []
        for metric, unit, _, span, kind in LAYER_METRICS:
            samples = durations[span]
            scale = 1e3 if unit == "ms" else 1.0
            if kind in ("total", "self", "calls", "count"):
                value = statistics.median(sums[p][(span, kind)] for p in passes)
            elif not samples:
                value = 0.0
            elif kind == "p50":
                value = statistics.median(samples) * scale
            else:
                p = tail_percentile(len(samples))
                value = percentile(samples, p if p is not None else 50.0) * scale
                label = f"p{p:g}" if p is not None else "p50 (under 40 samples)"
                notes.append(f"{metric}: {label} of {len(samples)} spans")
            values[metric] = {"value": value, "unit": unit}
        return values, notes
