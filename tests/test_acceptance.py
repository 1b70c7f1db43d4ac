"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest
import yaml

from quantitize import (
    BootstrapConfig,
    CodingScheme,
    ConfusionMatrix,
    Corpus,
    Level,
    MockModel,
    Observation,
    Unit,
    Variable,
    bootstrap_ci,
    build_confusion,
    cohens_kappa,
    error_model_from_confusion,
    fit_logistic,
    fit_logistic_random_intercept,
    gen_confound,
    gen_interview_margins,
    gen_simpson,
    odds_ratio,
    proportion_of,
    save_corpus,
    save_scheme,
    score_semantic_change,
    semantic_edit_distance,
    spearman_rho,
)
from quantitize.cli import main as cli_main
from quantitize.stats import logistic_loglik, logistic_score
from quantitize.tasks import PairJudgment

SENTIMENT = Variable(
    "sentiment", "categorical", (Level("Positive"), Level("Negative"))
)


def announce(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_kappa_oracle():
    t0 = time.time()
    cm = ConfusionMatrix(("A", "B"), np.array([[40, 10], [5, 45]]))
    ok = abs(cohens_kappa(cm) - 0.7) <= 1e-9

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 5))
        counts = rng.integers(0, 25, size=(k, k))
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = ConfusionMatrix(tuple(f"L{i}" for i in range(k)), counts)
        n = counts.sum()
        p_o = np.trace(counts) / n
        p_e = float((counts.sum(axis=1) * counts.sum(axis=0)).sum()) / n**2
        direct = 1.0 if abs(1 - p_e) < 1e-15 else (p_o - p_e) / (1 - p_e)
        worst = max(worst, abs(cohens_kappa(cm) - direct))
    elapsed = time.time() - t0
    announce(
        "criterion 1: kappa oracle",
        ok and worst <= 1e-9 and elapsed < 1.0,
        f"worked example ok, max |diff|={worst:.2e} over 200 matrices, {elapsed:.2f}s",
    )


def test_02_interview_regression():
    t0 = time.time()
    obs = [
        Observation(o.response, {"campus": o.covariates["campus"]})
        for o in gen_interview_margins(0)
    ]
    beta = fit_logistic(obs).coef("campus").estimate
    factor = odds_ratio(beta)
    elapsed = time.time() - t0
    announce(
        "criterion 2: interview regression",
        abs(beta - (-1.9213)) <= 0.001
        and abs(factor - 0.1464) <= 0.0005
        and elapsed < 1.0,
        f"beta={beta:.4f}, odds factor={factor:.4f}, {elapsed:.2f}s",
    )


def test_03_bootstrap_degenerate():
    t0 = time.time()
    from quantitize import ErrorModel

    labels = (["A"] * 300 + ["B"] * 700)
    em = ErrorModel(("A", "B"), np.eye(2))
    result = bootstrap_ci(
        labels, {}, em, proportion_of("A"),
        BootstrapConfig(n_replicates=10000, seed=0),
    )
    s = result.statistics["prop_A"]
    elapsed = time.time() - t0
    announce(
        "criterion 3: bootstrap degenerate case",
        s.sigma == 0.0 and s.ci_low == s.ci_high == s.point and elapsed < 5.0,
        f"sigma={s.sigma}, CI=[{s.ci_low}, {s.ci_high}], {elapsed:.2f}s "
        "at 10000 replicates",
    )


def test_04_bootstrap_analytic():
    t0 = time.time()
    from quantitize import ErrorModel

    em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))
    labels = ["A"] * 50 + ["B"] * 50
    result = bootstrap_ci(
        labels, {}, em, proportion_of("A"),
        BootstrapConfig(n_replicates=10000, seed=0),
    )
    sigma = result.statistics["prop_A"].sigma
    elapsed = time.time() - t0
    announce(
        "criterion 4: bootstrap analytic case",
        abs(sigma - 0.03) <= 0.003 and elapsed < 10.0,
        f"sigma={sigma:.5f} vs analytic 0.03, {elapsed:.2f}s at 10000 replicates",
    )


def _calibration_trial(seed):
    n = 200
    units = tuple(
        Unit(id=f"u{i:04d}", text="t",
             gold={"sentiment": "Positive" if i % 2 == 0 else "Negative"})
        for i in range(n)
    )
    corpus = Corpus(units)
    mock = MockModel.from_corpus(
        corpus, SENTIMENT, np.array([[0.9, 0.1], [0.1, 0.9]]), seed=seed
    )
    predicted = {u.id: mock._drawn[u.id] for u in units}
    gold = {u.id: u.gold["sentiment"] for u in units}
    perm = np.random.default_rng(seed).permutation(n)
    ids = [u.id for u in units]
    held = [ids[i] for i in perm[: n // 2]]
    analysis = [ids[i] for i in perm[n // 2:]]
    cm = build_confusion(
        {i: gold[i] for i in held},
        {i: predicted[i] for i in held},
        ["Positive", "Negative"],
    )
    em = error_model_from_confusion(cm)
    labels = [predicted[i] for i in analysis]
    result = bootstrap_ci(
        labels, {}, em, proportion_of("Positive"),
        BootstrapConfig(n_replicates=200, seed=seed),
    )
    s = result.statistics["prop_Positive"]
    truth = sum(gold[i] == "Positive" for i in analysis) / len(analysis)
    return s.ci_low <= truth <= s.ci_high


def test_05_bootstrap_calibration():
    t0 = time.time()
    hits = sum(_calibration_trial(seed) for seed in range(500))
    coverage = hits / 500
    elapsed = time.time() - t0
    announce(
        "criterion 5: bootstrap calibration",
        0.90 <= coverage <= 0.98 and elapsed < 300,
        f"coverage={coverage:.3f} over 500 trials, {elapsed:.1f}s",
    )


def test_06_simpson_demo():
    t0 = time.time()
    good = 0
    for seed in range(100):
        obs = gen_simpson(seed)
        fixed = fit_logistic(
            [Observation(o.response, o.covariates) for o in obs]
        )
        mixed = fit_logistic_random_intercept(obs)
        if fixed.coef("age").p_value < 0.001 and mixed.coef("age").p_value > 0.05:
            good += 1
    elapsed = time.time() - t0
    announce(
        "criterion 6: Simpson demo",
        good >= 95 and elapsed < 120,
        f"{good}/100 seeds show the contrast, {elapsed:.1f}s",
    )


def test_07_confound_demo():
    t0 = time.time()
    good = 0
    for seed in range(100):
        obs = gen_confound(seed)
        alone = fit_logistic(
            [Observation(o.response, {"campus": o.covariates["campus"]})
             for o in obs]
        )
        full = fit_logistic(obs)
        if (alone.coef("campus").p_value < 1e-4
                and full.coef("campus").p_value > 0.1):
            good += 1
    elapsed = time.time() - t0
    announce(
        "criterion 7: confound demo",
        good >= 95 and elapsed < 120,
        f"{good}/100 seeds show the contrast, {elapsed:.1f}s",
    )


def test_08_semantic_edit_distance():
    t0 = time.time()
    classes = (["Close"] * 25 + ["Addition"] * 25 + ["Deletion"] * 25
               + ["Substitution"] * 25)
    distance = semantic_edit_distance(classes)["distance"]
    elapsed = time.time() - t0
    announce(
        "criterion 8: semantic edit distance",
        distance == 75 and elapsed < 1.0,
        f"distance={distance}/100, {elapsed:.2f}s",
    )


def test_09_semantic_change_threshold():
    t0 = time.time()
    two = score_semantic_change(
        {"w": [PairJudgment("w", 4)] * 28 + [PairJudgment("w", 1)] * 2}
    )["w"].binary
    one = score_semantic_change(
        {"w": [PairJudgment("w", 4)] * 29 + [PairJudgment("w", 1)]}
    )["w"].binary
    elapsed = time.time() - t0
    announce(
        "criterion 9: semantic change threshold",
        two is True and one is False and elapsed < 1.0,
        f"2-of-30 changed={two}, 1-of-30 changed={one}, {elapsed:.2f}s",
    )


def test_10_numerical_properties():
    t0 = time.time()
    rng = np.random.default_rng(17)
    X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
    y = (rng.random(60) < 0.5).astype(float)
    worst = 0.0
    for _ in range(5):
        beta = rng.normal(scale=0.7, size=3)
        score = logistic_score(X, y, beta)
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1e-5
            numeric = (logistic_loglik(X, y, beta + e)
                       - logistic_loglik(X, y, beta - e)) / 2e-5
            worst = max(worst, abs(score[j] - numeric) / max(1.0, abs(numeric)))
    score_ok = worst <= 1e-6

    obs = gen_simpson(0)
    ll15 = fit_logistic_random_intercept(obs, n_quad=15).log_likelihood
    ll25 = fit_logistic_random_intercept(obs, n_quad=25).log_likelihood
    quad_ok = abs(ll15 - ll25) <= 1e-3

    xs = list(rng.permutation(40).astype(float))
    ys = list(rng.permutation(40).astype(float))
    rank_x = {v: i + 1 for i, v in enumerate(sorted(xs))}
    rank_y = {v: i + 1 for i, v in enumerate(sorted(ys))}
    d2 = sum((rank_x[a] - rank_y[b]) ** 2 for a, b in zip(xs, ys))
    closed = 1 - 6 * d2 / (40 * (40**2 - 1))
    spearman_ok = abs(spearman_rho(xs, ys) - closed) <= 1e-12

    elapsed = time.time() - t0
    announce(
        "criterion 10: numerical properties",
        score_ok and quad_ok and spearman_ok and elapsed < 30,
        f"score rel err={worst:.2e}, |ll15-ll25|={abs(ll15 - ll25):.2e}, "
        f"spearman exact, {elapsed:.1f}s",
    )


def _run_pipeline(root, tag):
    out = root / tag
    out.mkdir(exist_ok=True)
    scheme = CodingScheme((SENTIMENT,))
    units = tuple(
        Unit(id=f"u{i:03d}", text=f"passage {i}",
             gold={"sentiment": "Positive" if i % 3 else "Negative"})
        for i in range(60)
    )
    raw = out / "raw.jsonl"
    save_corpus(Corpus(units), raw)
    save_scheme(scheme, out / "scheme.yaml")
    (out / "prompt.txt").write_text("Positive or Negative?\n\n{text}\n",
                                    encoding="utf-8")
    (out / "run.yaml").write_text(yaml.safe_dump({
        "corpus": "corpus.jsonl",
        "scheme": "scheme.yaml",
        "template": "prompt.txt",
        "variable": "sentiment",
        "output_dir": "ann",
        "seed": 3,
        "client": {"kind": "mock", "mode": "gold_corruption",
                   "matrix": [[0.85, 0.15], [0.1, 0.9]]},
    }), encoding="utf-8")

    def run(argv):
        code = cli_main([str(a) for a in argv])
        assert code == 0, argv
    run(["ingest", "--input", raw, "--format", "jsonl",
         "--out", out / "corpus.jsonl"])
    run(["annotate", "--config", out / "run.yaml"])
    run(["evaluate", "--corpus", out / "corpus.jsonl",
         "--annotations", out / "ann" / "annotations.jsonl",
         "--scheme", out / "scheme.yaml", "--variable", "sentiment",
         "--out-dir", out / "eval"])
    run(["bootstrap", "--annotations", out / "ann" / "annotations.jsonl",
         "--confusion", out / "eval" / "confusion.csv",
         "--statistic", "proportion:Positive",
         "--replicates", 500, "--seed", 1, "--out", out / "boot" / "boot.json"])
    run(["report", out / "eval" / "report.json", out / "boot" / "boot.json",
         "--out", out / "summary.md"])
    return {
        p.relative_to(out): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.suffix in (".json", ".csv", ".jsonl", ".md")
    }


def test_11_end_to_end_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    t0 = time.time()
    first = _run_pipeline(tmp_path, "run")
    second = _run_pipeline(tmp_path, "run")
    elapsed = time.time() - t0
    capsys.readouterr()  # swallow pipeline chatter so only the verdict prints
    same = set(first) == set(second) and all(
        first[k] == second[k] for k in first
    )
    announce(
        "criterion 11: end-to-end determinism",
        same and elapsed < 60,
        f"{len(first)} JSON/CSV/JSONL/MD outputs byte-identical, {elapsed:.1f}s",
    )
