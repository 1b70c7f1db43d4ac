"""End-to-end walkthrough: gold corpus -> mock annotation -> agreement
report -> error-aware confidence interval.

Everything here is deterministic: the mock model corrupts gold labels
through a fixed confusion-style matrix with a per-unit random stream, so
rerunning the script reproduces every number.
"""

import numpy as np

from quantitize import (
    BootstrapConfig,
    CodingScheme,
    Corpus,
    Level,
    MockModel,
    PromptTemplate,
    Unit,
    Variable,
    agreement_report,
    annotate,
    bootstrap_ci,
    build_confusion,
    error_model_from_confusion,
    proportion_of,
)

# --- 1. a small corpus with expert ("gold") labels -------------------------

sentiment = Variable(
    "sentiment", "categorical", (Level("Positive"), Level("Negative"))
)
scheme = CodingScheme((sentiment,))

rng = np.random.default_rng(0)
units = []
for i in range(300):
    gold = "Positive" if rng.random() < 0.6 else "Negative"
    units.append(
        Unit(
            id=f"u{i:04d}",
            text=f"Response {i}: some interview text to be coded.",
            gold={"sentiment": gold},
        )
    )
corpus = Corpus(tuple(units))

# --- 2. annotate with a mock model that errs at a known rate ---------------

template = PromptTemplate(
    "Code the response below as Positive or Negative.\n\n{text}", "sentiment"
)
corruption = np.array([[0.90, 0.10], [0.10, 0.90]])
mock = MockModel.from_corpus(corpus, sentiment, corruption, seed=42)
annotations = annotate(corpus, template, mock, scheme, seed=42)
print("annotation status counts:", annotations.counts_by_status())

# --- 3. measure agreement against the gold labels --------------------------

gold = {u.id: u.gold["sentiment"] for u in corpus}
predicted = {r.unit_id: r.label for r in annotations.records}
cm = build_confusion(gold, predicted, sentiment.labels)
report = agreement_report(cm)
print(f"accuracy={report.accuracy:.3f} kappa={report.kappa:.3f} "
      f"macro_f1={report.macro_f1:.3f}")

# --- 4. propagate the measured error into the headline statistic -----------

em = error_model_from_confusion(cm)
labels = [predicted[u.id] for u in corpus]
result = bootstrap_ci(
    labels, {}, em, proportion_of("Positive"),
    BootstrapConfig(n_replicates=2000, seed=0),
)
s = result.statistics["prop_Positive"]
print(f"share of Positive responses: {s.point:.3f} "
      f"(95% CI [{s.ci_low:.3f}, {s.ci_high:.3f}], sigma={s.sigma:.4f})")
print("true gold share:", sum(v == "Positive" for v in gold.values()) / len(gold))
