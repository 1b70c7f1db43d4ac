"""Command line entry point.

Subcommands wire the library into a batch pipeline: ingest, annotate,
evaluate, bootstrap, fit, demo, report. Reports are machine-first (JSON and
CSV files) with a short human summary on standard output. Every command
writes a manifest that is sufficient to re-run it bit-identically on the
mock/seeded paths.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 transport
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np
import yaml

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
from .boot import (
    BootstrapConfig,
    bootstrap_ci,
    error_model_from_confusion,
    proportion_of,
    yearly_proportion_of,
)
from .corpus import (
    Corpus,
    CsvMapping,
    Paragraph,
    Scene,
    SentenceSplit,
    Window,
    ingest,
    load_scheme,
    save_corpus,
)
from .errors import ConfigError, DataError, TransportError
from .jsonio import format_json, write_json
from .stats import (
    Observation,
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


def _write_manifest(out_dir: Path, command: str, payload: dict) -> None:
    write_json(out_dir / "manifest.json",
               {"command": command, "version": __version__, **payload})


def _parse_strategy(text: str):
    parts = text.split(":")
    kind = parts[0]
    if kind == "paragraph":
        return Paragraph()
    if kind == "sentence":
        return SentenceSplit()
    if kind == "window":
        if len(parts) < 2:
            raise ConfigError("window strategy needs a size, e.g. window:100")
        merge = int(parts[2]) if len(parts) > 2 else 0
        return Window(size=int(parts[1]), merge_below=merge)
    if kind == "scene":
        if len(parts) < 2:
            raise ConfigError(r"scene strategy needs a marker, e.g. scene:INT\.|EXT\.")
        merge = int(parts[2]) if len(parts) > 2 else 0
        return Scene(marker=parts[1], merge_below=merge)
    raise ConfigError(f"unknown unitize strategy {kind!r}")


def _load_mapping(path: Path) -> CsvMapping:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    known = {"id_column", "text_column", "group_columns", "meta_columns", "gold_columns"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown mapping keys: {sorted(unknown)}")
    return CsvMapping(**doc)


def cmd_ingest(args) -> int:
    scheme = load_scheme(args.scheme) if args.scheme else None
    mapping = _load_mapping(Path(args.mapping)) if args.mapping else None
    strategy = _parse_strategy(args.strategy) if args.strategy else None
    corpus = ingest(args.input, args.format, scheme=scheme, csv_mapping=mapping,
                    unitize_strategy=strategy)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, out)
    _write_manifest(out.parent, "ingest", {
        "input": str(args.input), "format": args.format,
        "scheme": args.scheme, "mapping": args.mapping,
        "strategy": args.strategy, "out": str(out),
    })
    print(f"ingested {len(corpus)} units -> {out}")
    return EXIT_OK


_RUN_CONFIG_KEYS = {
    "corpus", "scheme", "template", "variable", "output_dir", "seed",
    "client", "policy", "decoding", "bootstrap",
}
_CLIENT_KEYS = {
    "kind", "endpoint", "model", "auth_env", "max_in_flight",
    "mode", "rules", "matrix", "refuse_units", "timeout",
}


def _load_run_config(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    unknown = set(doc) - _RUN_CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    client = doc.get("client", {})
    unknown = set(client) - _CLIENT_KEYS
    if unknown:
        raise ConfigError(f"unknown client keys: {sorted(unknown)}")
    for key in ("corpus", "scheme", "template", "variable", "output_dir"):
        if key not in doc:
            raise ConfigError(f"config is missing required key {key!r}")
    base = path.parent
    for key in ("corpus", "scheme", "template", "output_dir"):
        doc[key] = str((base / doc[key]).resolve())
    return doc


def _build_client(cfg: dict, corpus, scheme, variable, seed: int, audit: AuditLog):
    kind = cfg.get("kind", "mock")
    if kind == "endpoint":
        for key in ("endpoint", "model"):
            if key not in cfg:
                raise ConfigError(f"endpoint client needs {key!r}")
        return ChatCompletionClient(
            base_url=cfg["endpoint"],
            model=cfg["model"],
            auth_env=cfg.get("auth_env", "QUANTITIZE_API_TOKEN"),
            timeout=float(cfg.get("timeout", 60.0)),
            audit=audit,
        )
    if kind == "mock":
        mode = cfg.get("mode", "gold_corruption")
        if mode == "rules":
            return MockModel("rules", rules=cfg.get("rules", {}),
                             refuse_units=cfg.get("refuse_units", ()))
        var = scheme.variable(variable)
        matrix = cfg.get("matrix")
        if matrix is None:
            matrix = np.eye(len(var.labels))
        return MockModel.from_corpus(corpus, var, np.asarray(matrix, dtype=float),
                                     seed=seed,
                                     refuse_units=cfg.get("refuse_units", ()))
    raise ConfigError(f"unknown client kind {kind!r}")


def cmd_annotate(args) -> int:
    cfg = _load_run_config(Path(args.config).resolve())
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = ingest(cfg["corpus"], "jsonl")
    scheme = load_scheme(cfg["scheme"])
    instruction = Path(cfg["template"]).read_text(encoding="utf-8")
    template = PromptTemplate(instruction=instruction, variable=cfg["variable"])
    seed = int(cfg.get("seed", 0))
    policy = AnnotatePolicy(**cfg.get("policy", {}))
    controls = (
        DecodingControls(**cfg["decoding"]) if "decoding" in cfg else None
    )
    audit = AuditLog(out_dir / "audit.jsonl")
    client = _build_client(cfg.get("client", {}), corpus, scheme,
                           cfg["variable"], seed, audit)
    result = annotate(corpus, template, client, scheme, policy=policy,
                      controls=controls, seed=seed)
    result.save(out_dir / "annotations.jsonl", out_dir / "manifest.json")
    counts = result.counts_by_status()
    failures = counts.get("refused", 0) + counts.get("unparseable", 0)
    # transport-fatal: nothing at all succeeded against an endpoint
    if counts.get("ok", 0) == 0 and cfg.get("client", {}).get("kind") == "endpoint":
        (out_dir / "annotations.jsonl").rename(out_dir / "annotations.jsonl.partial")
        raise TransportError("no unit could be annotated; endpoint unusable")
    print(f"annotated {len(result.records)} units -> {out_dir/'annotations.jsonl'}")
    if failures:
        print(f"warning: {counts.get('refused', 0)} refused, "
              f"{counts.get('unparseable', 0)} unparseable", file=sys.stderr)
    return EXIT_OK


def _gold_and_predicted(corpus: Corpus, annset: AnnotationSet, variable: str):
    gold = {u.id: u.gold[variable] for u in corpus
            if u.gold is not None and variable in u.gold}
    predicted = {}
    for r in annset.records:
        if r.variable == variable and r.unit_id in gold:
            predicted[r.unit_id] = r.label if r.status == "ok" else None
    if not predicted:
        raise DataError("no overlap between gold units and annotations")
    return {k: gold[k] for k in predicted}, predicted


def cmd_evaluate(args) -> int:
    corpus = ingest(args.corpus, "jsonl")
    annset = AnnotationSet.load(args.annotations)
    scheme = load_scheme(args.scheme)
    var = scheme.variable(args.variable)
    gold, predicted = _gold_and_predicted(corpus, annset, args.variable)
    labels = list(var.labels)
    if any(v is None for v in predicted.values()):
        labels = labels + [ERROR_LABEL]
        predicted = {k: (v if v is not None else ERROR_LABEL)
                     for k, v in predicted.items()}
    cm = build_confusion(gold, predicted, labels)
    report = agreement_report(cm)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cm.to_csv(out_dir / "confusion.csv")
    report.to_json(out_dir / "report.json")
    _write_manifest(out_dir, "evaluate", {
        "corpus": str(args.corpus), "annotations": str(args.annotations),
        "scheme": str(args.scheme), "variable": args.variable,
    })
    print(f"n={report.n} accuracy={report.accuracy:.4f} kappa={report.kappa:.4f} "
          f"macro_f1={report.macro_f1:.4f}")
    return EXIT_OK


def _logistic_stat(formula_text: str, mixed: bool):
    formula = parse_formula(formula_text)

    def plugin(labels, covariates):
        obs = []
        for label, cov in zip(labels, covariates):
            obs.append(Observation(
                response=1 if label == formula.response else 0,
                covariates={n: float(cov[n]) for n in formula.covariates},
                group=str(cov[formula.group]) if formula.group else None,
            ))
        fit = (fit_logistic_random_intercept(obs) if mixed else fit_logistic(obs))
        out = {}
        for name, coef in fit.coefficients.items():
            if name == "(Intercept)":
                continue
            out[f"beta_{name}"] = coef.estimate
            out[f"p_{name}"] = coef.p_value
        return out

    return plugin, formula


def _parse_statistic(spec: str, covariate_names: set):
    if ":" not in spec:
        raise ConfigError(f"statistic spec {spec!r} needs the form kind:arg")
    kind, arg = spec.split(":", 1)
    if kind == "proportion":
        return proportion_of(arg)
    if kind == "yearly_proportions":
        if "year" not in covariate_names:
            raise ConfigError("yearly_proportions needs a 'year' covariate")
        return yearly_proportion_of(arg)
    if kind in ("logistic", "mixed"):
        plugin, formula = _logistic_stat(arg, mixed=(kind == "mixed"))
        missing = set(formula.covariates) - covariate_names
        if formula.group:
            missing |= {formula.group} - covariate_names
        if missing:
            raise ConfigError(f"formula names unknown covariates: {sorted(missing)}")
        return plugin
    raise ConfigError(f"unknown statistic kind {kind!r}")


def cmd_bootstrap(args) -> int:
    annset = AnnotationSet.load(args.annotations)
    # refused units are left out of the bootstrapped labels, so their share
    # in the ERROR column must not become a redraw probability
    cm = ConfusionMatrix.from_csv(args.confusion).without_label(ERROR_LABEL)
    em = error_model_from_confusion(cm, mode=args.error_mode)
    corpus = ingest(args.corpus, "jsonl") if args.corpus else None

    labels, covariates = [], []
    for r in annset.records:
        if r.status != "ok":
            continue
        unit = corpus.unit(r.unit_id) if corpus else None
        meta = dict(unit.meta) if unit else {}
        if unit and unit.groups:
            meta.update(unit.groups)
        labels.append(r.label)
        covariates.append(meta)
    if not labels:
        raise DataError("no scoreable annotations to bootstrap")

    cov_names = set().union(*[set(c) for c in covariates]) if covariates else set()
    statistic = _parse_statistic(args.statistic, cov_names)
    config = BootstrapConfig(
        n_replicates=args.replicates,
        seed=args.seed,
        ci_method=args.ci_method,
        level=args.level,
    )
    result = bootstrap_ci(labels, covariates, em, statistic, config,
                          keep_replicates=args.replicates_csv is not None)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    result.to_json(out)
    if args.replicates_csv:
        result.replicates_to_csv(args.replicates_csv)
    _write_manifest(out.parent, "bootstrap", {
        "annotations": str(args.annotations), "confusion": str(args.confusion),
        "statistic": args.statistic, "replicates": args.replicates,
        "seed": args.seed, "ci_method": args.ci_method, "level": args.level,
        "error_mode": args.error_mode,
    })
    for name, s in result.statistics.items():
        print(f"{name}: {s.point:.6g} +- {config.z * s.sigma:.6g} "
              f"(sigma={s.sigma:.6g}, CI [{s.ci_low:.6g}, {s.ci_high:.6g}])")
    return EXIT_OK


def _read_observations_csv(path: Path, formula) -> list[Observation]:
    obs = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            needed = {formula.response, *formula.covariates}
            if formula.group:
                needed.add(formula.group)
            missing = needed - set(row)
            if missing:
                raise DataError(f"data file lacks columns {sorted(missing)}")
            obs.append(Observation(
                response=int(float(row[formula.response])),
                covariates={n: float(row[n]) for n in formula.covariates},
                group=row[formula.group] if formula.group else None,
            ))
    return obs


def cmd_fit(args) -> int:
    formula = parse_formula(args.formula)
    obs = _read_observations_csv(Path(args.data), formula)
    fit = (fit_logistic_random_intercept(obs, n_quad=args.quad_nodes)
           if formula.mixed else fit_logistic(obs))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fit.to_json(out)
    _write_manifest(out.parent, "fit", {
        "data": str(args.data), "formula": args.formula,
        "quad_nodes": args.quad_nodes,
    })
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


def cmd_demo(args) -> int:
    seed = args.seed
    if args.kind == "simpson":
        obs = gen_simpson(seed)
        fixed = fit_logistic([Observation(o.response, o.covariates) for o in obs])
        mixed = fit_logistic_random_intercept(obs)
        print("== pooled fixed-effects model (response ~ age) ==")
        print(_fit_table(fixed))
        print("\n== mixed model (response ~ age + (1|school)) ==")
        print(_fit_table(mixed))
        pf, pm = fixed.coef("age").p_value, mixed.coef("age").p_value
        print(f"\nverdict: pooled age p={pf:.2g} "
              f"{'<' if pf < 0.001 else '>='} 0.001; "
              f"with school intercepts age p={pm:.2g} "
              f"{'>' if pm > 0.05 else '<='} 0.05 "
              "(the apparent age effect is a grouping artifact)")
    elif args.kind == "confound":
        obs = gen_confound(seed)
        without = fit_logistic(
            [Observation(o.response, {"campus": o.covariates["campus"]}) for o in obs]
        )
        full = fit_logistic(obs)
        print("== model without age (response ~ campus) ==")
        print(_fit_table(without))
        print("\n== model with age (response ~ campus + age) ==")
        print(_fit_table(full))
        p1, p2 = without.coef("campus").p_value, full.coef("campus").p_value
        print(f"\nverdict: campus p={p1:.2g} alone but p={p2:.2g} once age is "
              "controlled (the campus effect was confounded with age)")
    elif args.kind == "interview":
        obs = gen_interview_margins(seed)
        fixed = fit_logistic(
            [Observation(o.response, {"campus": o.covariates["campus"]}) for o in obs]
        )
        mixed = fit_logistic_random_intercept(obs)
        beta = fixed.coef("campus").estimate
        print("== fixed model (response ~ campus) ==")
        print(_fit_table(fixed))
        print("\n== mixed model (response ~ campus + age + (1|id)) ==")
        print(_fit_table(mixed))
        print(f"\nverdict: living on campus multiplies the odds of a positive "
              f"response by {odds_ratio(beta):.4f} (beta={beta:.4f})")
    else:
        raise ConfigError(f"unknown demo {args.kind!r}")
    return EXIT_OK


def cmd_report(args) -> int:
    sections = []
    for path in args.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        sections.append(f"## {Path(path).name}\n")
        sections.append("```json")
        sections.append(format_json(doc))
        sections.append("```\n")
    text = "\n".join(sections)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report written to {args.out}")
    else:
        print(text)
    return EXIT_OK


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
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("annotate", help="annotate a corpus per a run config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("evaluate", help="score annotations against gold labels")
    p.add_argument("--corpus", required=True, help="gold corpus JSONL")
    p.add_argument("--annotations", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--variable", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

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
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("fit", help="fit a (mixed) logistic model to a CSV")
    p.add_argument("--data", required=True, help="CSV with response/covariates")
    p.add_argument("--formula", required=True,
                   help='e.g. "online ~ campus + age + (1|id)"')
    p.add_argument("--quad-nodes", type=int, default=15)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("demo", help="run a built-in statistics demo")
    p.add_argument("kind", choices=["simpson", "confound", "interview"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("report", help="bundle result JSONs into one summary")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
