"""How annotation error widens confidence intervals.

A perfectly accurate annotator (identity confusion matrix) yields a CI of
exactly +-0: the statistic is what it is. As the per-label error rate
grows, the confusion-matrix bootstrap widens the interval accordingly.
"""

import numpy as np

from quantitize import (
    BootstrapConfig,
    ErrorModel,
    bootstrap_ci,
    proportion_of,
)

labels = ["A"] * 50 + ["B"] * 50
config = BootstrapConfig(n_replicates=5000, seed=0)

print(f"{'error rate':>10} {'sigma':>8} {'CI width':>9}")
for eps in (0.0, 0.05, 0.1, 0.25, 0.5):
    em = ErrorModel(("A", "B"), np.array([[1 - eps, eps], [eps, 1 - eps]]))
    result = bootstrap_ci(labels, {}, em, proportion_of("A"), config)
    s = result.statistics["prop_A"]
    print(f"{eps:>10.2f} {s.sigma:>8.4f} {s.ci_high - s.ci_low:>9.4f}")

# The eps=0.1 row lands at sigma ~= 0.03: with 50/50 labels each of the 100
# units flips independently with probability 0.1, so the replicate count of
# "A" has variance 100 * 0.1 * 0.9, i.e. a proportion sigma of exactly 0.03.
