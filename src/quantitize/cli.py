"""Command line entry point.

Subcommands wire the library into a batch pipeline: ingest, annotate,
evaluate, bootstrap, fit, demo, report. Reports are machine-first (JSON and
CSV files) with a short human summary on standard output. Every command
but demo and report writes a manifest that is sufficient to re-run it
bit-identically on the mock/seeded paths.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 transport
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .agreement import ERROR_LABEL, ConfusionMatrix, agreement_report, build_confusion
from .annotate import (
    AnnotatePolicy,
    AnnotationSet,
    AuditLog,
    ChatCompletionClient,
    DecodingControls,
    MockModel,
    PromptTemplate,
    annotate,
)
from .boot import BootstrapConfig, bootstrap_ci, error_model_from_confusion, parse_statistic
from .corpus import (
    Corpus,
    CsvMapping,
    ingest,
    load_scheme,
    load_yaml,
    parse_strategy,
    save_corpus,
)
from .errors import ConfigError, DataError, TransportError
from .jsonio import format_json, read_csv_table, read_json, read_text, write_json, write_text
# fit_logistic and fit_logistic_random_intercept are not called here; they
# stay importable from this module because bench/spans.py patches them here
from .stats import (  # noqa: F401
    N_QUAD,
    fit_formula,
    fit_logistic,
    fit_logistic_random_intercept,
    odds_ratio,
    parse_formula,
)
from .synth import gen_confound, gen_interview_margins, gen_simpson

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRANSPORT = 4


def _write_manifest(out_dir: Path, args) -> None:
    """The command's parsed arguments, enough to run it again."""
    write_json(out_dir / "manifest.json", {"version": __version__, **vars(args)})


def cmd_ingest(args) -> int:
    for option, fmt in (("mapping", "csv"), ("strategy", "text")):
        if getattr(args, option) and args.format != fmt:
            raise ConfigError(f"--{option} applies only to {fmt} input")
    scheme = load_scheme(args.scheme) if args.scheme else None
    mapping = load_yaml(CsvMapping, args.mapping, "mapping") if args.mapping else None
    strategy = parse_strategy(args.strategy) if args.strategy else None
    corpus = ingest(args.input, args.format, scheme=scheme, csv_mapping=mapping,
                    unitize_strategy=strategy)
    out = Path(args.out)
    save_corpus(corpus, out)
    _write_manifest(out.parent, args)
    print(f"ingested {len(corpus)} units -> {out}")
    return EXIT_OK


@dataclasses.dataclass(frozen=True)
class ClientConfig:
    """The ``client`` section of a run config: an endpoint or the mock."""

    kind: str = "mock"  # or "endpoint"
    endpoint: typing.Optional[str] = None
    model: typing.Optional[str] = None
    auth_env: str = "QUANTITIZE_API_TOKEN"
    timeout: float = 60.0
    mode: str = "gold_corruption"  # or "rules"
    rules: dict[str, str] = dataclasses.field(default_factory=dict)
    matrix: typing.Optional[tuple[tuple[float, ...], ...]] = None  # default: identity
    refuse_units: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """An annotate run config; paths are relative to the config file."""

    corpus: str
    scheme: str
    template: str
    variable: str
    output_dir: str
    seed: int = 0
    client: ClientConfig = dataclasses.field(default_factory=ClientConfig)
    policy: AnnotatePolicy = AnnotatePolicy()
    decoding: typing.Optional[DecodingControls] = None  # None: for_variable's


def _refuse_unread(cfg: ClientConfig, client: str, *reads: str) -> None:
    """A ConfigError naming each client key away from its default that
    ``client``, which reads only ``reads``, would ignore."""
    default = ClientConfig()
    unread = [f.name for f in dataclasses.fields(cfg)
              if f.name not in ("kind", *reads)
              and getattr(cfg, f.name) != getattr(default, f.name)]
    if unread:
        raise ConfigError(f"{client} does not read client keys {unread}")


def _build_client(cfg: ClientConfig, corpus, variable, seed: int, audit):
    if cfg.kind == "endpoint":
        _refuse_unread(cfg, "an endpoint client", "endpoint", "model", "auth_env",
                       "timeout")
        if cfg.endpoint is None or cfg.model is None:
            raise ConfigError("an endpoint client needs 'endpoint' and 'model'")
        return ChatCompletionClient(base_url=cfg.endpoint, model=cfg.model,
                                    auth_env=cfg.auth_env, timeout=cfg.timeout,
                                    audit=audit)
    if cfg.kind == "mock":
        if cfg.mode != "gold_corruption":
            # built first, so that an unknown mode is named before any key
            mock = MockModel(cfg.mode, rules=cfg.rules, refuse_units=cfg.refuse_units)
            _refuse_unread(cfg, f"a mock client in {cfg.mode} mode", "mode",
                           "refuse_units", "rules")
            return mock
        _refuse_unread(cfg, "a mock client in gold_corruption mode", "mode",
                       "refuse_units", "matrix")
        matrix = np.eye(len(variable.labels)) if cfg.matrix is None else cfg.matrix
        return MockModel.from_corpus(corpus, variable, matrix, seed=seed,
                                     refuse_units=cfg.refuse_units)
    raise ConfigError(f"unknown client kind {cfg.kind!r}")


def cmd_annotate(args) -> int:
    path = Path(args.config).resolve()
    cfg = load_yaml(RunConfig, path, "config")
    out_dir = path.parent / cfg.output_dir
    corpus = ingest(path.parent / cfg.corpus, "jsonl")
    scheme = load_scheme(path.parent / cfg.scheme)
    variable = scheme.labelled(cfg.variable, "annotate labels")
    instruction = read_text(path.parent / cfg.template, ConfigError)
    template = PromptTemplate(instruction=instruction, variable=cfg.variable)
    audit = AuditLog(out_dir / "audit.jsonl")
    client = _build_client(cfg.client, corpus, variable, cfg.seed, audit)
    result = annotate(corpus, template, client, scheme, policy=cfg.policy,
                      controls=cfg.decoding, seed=cfg.seed)
    counts = result.counts_by_status()
    # transport-fatal: nothing succeeded against an endpoint; the run is
    # saved under names no finished run has
    unusable = counts.get("ok", 0) == 0 and cfg.client.kind == "endpoint"
    suffix = ".partial" if unusable else ""
    result.save(out_dir / f"annotations.jsonl{suffix}", out_dir / f"manifest.json{suffix}")
    if unusable:
        raise TransportError("no unit could be annotated; endpoint unusable")
    failures = {status: counts.get(status, 0)
                for status in ("refused", "unparseable", "transport_error")}
    print(f"annotated {len(result)} units -> {out_dir/'annotations.jsonl'}")
    if any(failures.values()):
        print("warning: " + ", ".join(f"{n} {s}" for s, n in failures.items()),
              file=sys.stderr)
    return EXIT_OK


def _gold_and_predicted(corpus: Corpus, annset: AnnotationSet, variable: str):
    """The gold and the predicted label of each unit that has both, keyed
    by unit id in record order; a warning counts records of units not in it."""
    gold, predicted, missing, index, golds = {}, {}, 0, corpus.index, corpus.gold
    for uid, var, label, status in zip(annset.unit_ids, annset.variables,
                                       annset.labels, annset.statuses):
        # a transport failure is no answer of the model's, so not an error of it
        if var != variable or status == "transport_error":
            continue
        if uid not in index:
            missing += 1
            continue
        labels = golds[index[uid]]
        if labels is not None and variable in labels:
            gold[uid] = labels[variable]
            predicted[uid] = label if status == "ok" else ERROR_LABEL
    if missing:
        print(f"warning: {missing} annotation records name units not in the "
              "corpus; they are left out", file=sys.stderr)
    if not predicted:
        raise DataError("no overlap between gold units and annotations "
                        "other than transport_error records")
    return gold, predicted


def cmd_evaluate(args) -> int:
    corpus = ingest(args.corpus, "jsonl")
    var = load_scheme(args.scheme).labelled(args.variable, "evaluate scores")
    annset = AnnotationSet.load(args.annotations)
    gold, predicted = _gold_and_predicted(corpus, annset, args.variable)
    labels = list(var.labels)
    if ERROR_LABEL in predicted.values():
        labels.append(ERROR_LABEL)
    cm = build_confusion(gold, predicted, labels)
    report = agreement_report(cm)
    out_dir = Path(args.out_dir)
    cm.to_csv(out_dir / "confusion.csv")
    report.to_json(out_dir / "report.json")
    _write_manifest(out_dir, args)
    print(f"n={report.n} accuracy={report.accuracy:.4f} kappa={report.kappa:.4f} "
          f"macro_f1={report.macro_f1:.4f}")
    return EXIT_OK


def cmd_bootstrap(args) -> int:
    annset = AnnotationSet.load(args.annotations)
    # refused units are left out of the bootstrapped labels, so their share
    # in the ERROR column must not become a redraw probability
    cm = ConfusionMatrix.from_csv(args.confusion).without_label(ERROR_LABEL)
    em = error_model_from_confusion(cm, mode=args.error_mode)
    corpus = ingest(args.corpus, "jsonl") if args.corpus else None
    ok = [i for i, status in enumerate(annset.statuses) if status == "ok"]
    if not ok:
        raise DataError("no scoreable annotations to bootstrap")
    rows = corpus.rows(annset.unit_ids[i] for i in ok) if corpus else []
    statistic, columns = parse_statistic(args.statistic, em.labels, corpus, rows)
    config = BootstrapConfig(
        n_replicates=args.replicates,
        seed=args.seed,
        ci_method=args.ci_method,
        level=args.level,
    )
    result = bootstrap_ci([annset.labels[i] for i in ok], columns, em, statistic, config)
    out = Path(args.out)
    result.to_json(out)
    if args.replicates_csv:
        result.replicates_to_csv(args.replicates_csv)
    _write_manifest(out.parent, args)
    for name, s in result.statistics.items():
        print(f"{name}: {s.point:.6g} +- {config.z * s.sigma:.6g} "
              f"(sigma={s.sigma:.6g}, CI [{s.ci_low:.6g}, {s.ci_high:.6g}])")
    return EXIT_OK


def _read_columns_csv(path: Path, formula) -> dict[str, list]:
    """The columns ``formula`` reads from a CSV file: floats, and strings
    for the group. A column the header lacks, a table that
    :func:`read_csv_table` rejects, a missing or non-numeric cell, or a
    response other than 0 or 1 is a :class:`DataError`; a cell's error
    names its line and column."""
    header, rows = read_csv_table(path)
    converters = dict.fromkeys([formula.response, *formula.covariates], float)
    if formula.group:
        converters[formula.group] = str
    missing = converters.keys() - set(header)
    if missing:
        raise DataError(f"data file lacks columns {sorted(missing)}")
    columns = {name: [] for name in converters}
    for line, row in rows:
        for name, convert in converters.items():
            value = row[name]
            try:
                out = convert(value) if value and value.strip() else None
            except ValueError:
                out = None
            if out is None or (convert is float and not math.isfinite(out)):
                raise DataError(f"{path}, line {line}: column "
                                f"{name!r} has no usable value {value!r}")
            if name == formula.response and out not in (0.0, 1.0):
                raise DataError(f"{path}, line {line}: column "
                                f"{name!r} must be 0 or 1, got {value!r}")
            columns[name].append(out)
    return columns


def cmd_fit(args) -> int:
    formula = parse_formula(args.formula)
    if not formula.mixed and args.quad_nodes != N_QUAD:
        raise ConfigError("--quad-nodes applies only to a formula with a "
                          "(1|group) term")
    fit = fit_formula(formula, _read_columns_csv(Path(args.data), formula),
                      n_quad=args.quad_nodes)
    out = Path(args.out)
    fit.to_json(out)
    _write_manifest(out.parent, args)
    print(_fit_table(fit))
    return EXIT_OK


def _fit_table(fit) -> str:
    lines = [f"{'term':<14}{'estimate':>10}{'std err':>10}{'z':>8}{'p':>12}"]
    for name, c in fit.coefficients.items():
        lines.append(
            f"{name:<14}{c.estimate:>10.4f}{c.std_error:>10.4f}"
            f"{c.z:>8.2f}{c.p_value:>12.4g}"
        )
    if fit.sigma_u is not None:
        lines.append(f"random intercept SD: {fit.sigma_u:.4f} "
                     f"({fit.n_quad} quadrature nodes, boundary: "
                     f"{'yes' if fit.boundary else 'no'})")
    lines.append(f"log-likelihood: {fit.log_likelihood:.4f}  n={fit.n_obs}")
    return "\n".join(lines)


# each demo: its data generator, then the two models it compares, as a
# title and a formula on the generator's columns
_DEMOS = {
    "simpson": (gen_simpson,
                ("pooled fixed-effects model", "response ~ age"),
                ("mixed model", "response ~ age + (1|school)")),
    "confound": (gen_confound,
                 ("model without age", "response ~ campus"),
                 ("model with age", "response ~ campus + age")),
    "interview": (gen_interview_margins,
                  ("fixed model", "response ~ campus"),
                  ("mixed model", "response ~ campus + age + (1|id)")),
}


def cmd_demo(args) -> int:
    generate, *models = _DEMOS[args.kind]
    obs = generate(args.seed)
    formulas = [parse_formula(text) for _, text in models]
    columns = {name: [o.covariates[name] for o in obs] for name in obs[0].covariates}
    columns["response"] = [o.response for o in obs]
    columns.update({f.group: [o.group for o in obs] for f in formulas if f.mixed})
    fits = [fit_formula(formula, columns) for formula in formulas]
    first, second = fits
    print("\n\n".join(f"== {title} ({text}) ==\n{_fit_table(fit)}"
                      for (title, text), fit in zip(models, fits)))
    if args.kind == "simpson":
        pf, pm = first.coef("age").p_value, second.coef("age").p_value
        print(f"\nverdict: pooled age p={pf:.2g} "
              f"{'<' if pf < 0.001 else '>='} 0.001; "
              f"with school intercepts age p={pm:.2g} "
              f"{'>' if pm > 0.05 else '<='} 0.05 "
              "(the apparent age effect is a grouping artifact)")
    elif args.kind == "confound":
        p1, p2 = first.coef("campus").p_value, second.coef("campus").p_value
        print(f"\nverdict: campus p={p1:.2g} alone but p={p2:.2g} once age is "
              "controlled (the campus effect was confounded with age)")
    else:
        beta = first.coef("campus").estimate
        print(f"\nverdict: living on campus multiplies the odds of a positive "
              f"response by {odds_ratio(beta):.4f} (beta={beta:.4f})")
    return EXIT_OK


def cmd_report(args) -> int:
    sections = []
    for path in args.inputs:
        doc = read_json(path)
        sections.append(f"## {Path(path).name}\n")
        sections.append("```json")
        sections.append(format_json(doc))
        sections.append("```\n")
    text = "\n".join(sections)
    if args.out:
        write_text(args.out, text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return EXIT_OK


@functools.cache  # one parser per process: building it costs about 1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantitize",
        description="Annotate text units, score against gold labels, and "
                    "propagate annotation error into statistics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read a corpus file into the JSONL schema")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=["jsonl", "csv", "text"])
    p.add_argument("--scheme")
    p.add_argument("--mapping", help="YAML column mapping for csv input")
    p.add_argument("--strategy", help="unitizing for text input, e.g. window:100:10")
    p.add_argument("--out", required=True)

    p = sub.add_parser("annotate", help="annotate a corpus per a run config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("evaluate", help="score annotations against gold labels")
    p.add_argument("--corpus", required=True, help="gold corpus JSONL")
    p.add_argument("--annotations", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--variable", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("bootstrap", help="confidence intervals via the "
                                         "confusion-matrix bootstrap")
    p.add_argument("--annotations", required=True)
    p.add_argument("--confusion", required=True, help="confusion matrix CSV")
    p.add_argument("--corpus", help="corpus JSONL supplying covariates")
    p.add_argument("--statistic", required=True,
                   help="proportion:LABEL | yearly_proportions:LABEL | "
                        "logistic:FORMULA | mixed:FORMULA")
    p.add_argument("--replicates", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ci-method", default="normal_1p96sigma",
                   choices=["normal_1p96sigma", "percentile"])
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--error-mode", default="row",
                   choices=["row", "column_conditional"])
    p.add_argument("--out", required=True)
    p.add_argument("--replicates-csv")

    p = sub.add_parser("fit", help="fit a (mixed) logistic model to a CSV")
    p.add_argument("--data", required=True, help="CSV with response/covariates")
    p.add_argument("--formula", required=True,
                   help='e.g. "online ~ campus + age + (1|id)"')
    p.add_argument("--quad-nodes", type=int, default=N_QUAD)
    p.add_argument("--out", required=True)

    p = sub.add_parser("demo", help="run a built-in statistics demo")
    p.add_argument("kind", choices=list(_DEMOS))
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="bundle result JSONs into one summary")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up when called, so a command patched on this module runs
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
