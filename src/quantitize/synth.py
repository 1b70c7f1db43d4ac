"""Seeded synthetic datasets for the statistics demos and acceptance tests.

Three generators: a grouped dataset where a pooled age effect vanishes once
the grouping is modeled, a confounded dataset where a campus effect vanishes
once age is controlled for, and an interview dataset reproducing fixed
2x2 response margins with repeated measures per respondent.

All three work from fixed margins: the response and group-membership counts
are determined by the tuned constants below, and the seed only permutes the
arrangement of rows. The datasets for different seeds are therefore
permutations of one another and the demo conclusions hold for every seed,
not merely for most.

Tuned constants:

    ===================  ==============  ===================================
    constant             value           role
    ===================  ==============  ===================================
    SIMPSON_INTERCEPTS   -2.0, 1.5, 1.0  per-school logit intercepts; rise
                                         with school age overall but are not
                                         collinear with the mean ages, which
                                         keeps the random intercept
                                         identifiable
    SIMPSON_AGE_STEP     5.0             gap between school mean ages
    SIMPSON_AGE_SD       1.5             within-school age spread
    CONFOUND_AGE_SLOPE   0.5             logit slope of response on age
    CONFOUND_LINK        1.0             logit slope of campus on age
    ===================  ==============  ===================================
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, ndtri

from .errors import DataError
from .stats import Observation

SIMPSON_INTERCEPTS = (-2.0, 1.5, 1.0)
SIMPSON_AGE_STEP = 5.0
SIMPSON_AGE_SD = 1.5
SIMPSON_BASE_AGE = 17.0
SIMPSON_PER_SCHOOL = 40

CONFOUND_AGE_SLOPE = 0.5
CONFOUND_LINK = 1.0
CONFOUND_AGE_CENTER = 24.0

INTERVIEW_MARGINS = {
    # campus -> (negative, positive) response counts
    "off": (36, 73),
    "on": (64, 19),
}
INTERVIEW_RESPONDENTS = 53
GEOMETRIC_P = 0.35  # respondent response-count distribution
GEOMETRIC_CAP = 8


def _systematic_draw(probabilities: np.ndarray, phase: float = 0.5) -> np.ndarray:
    """Deterministic 0/1 assignment matching the given probabilities.

    Walks the sequence accumulating probability mass and emits a 1 whenever
    the accumulator crosses an integer, so realized counts match expected
    counts up to rounding and the 1s are spread evenly along the sequence.
    """
    acc = phase
    out = np.zeros(len(probabilities), dtype=int)
    for i, p in enumerate(probabilities):
        acc += p
        if acc >= 1.0:
            out[i] = 1
            acc -= 1.0
    return out


def gen_simpson(seed: int, within_age_effect: float = 0.0) -> list[Observation]:
    """Grouped data where age only appears to matter: one school per entry
    of ``SIMPSON_INTERCEPTS``, ``SIMPSON_PER_SCHOOL`` pupils each.

    Schools get widely spread response rates and widely spread age ranges,
    so pooled age correlates with the outcome; within a school the age
    effect is ``within_age_effect`` (0 by default; set it nonzero as a
    negative control to make the within-school effect real). Ages are
    deterministic normal quantiles per school and responses are assigned
    by systematic sampling, so every seed yields a permutation of the same
    rows.
    """
    rng = np.random.default_rng(seed)
    out = []
    for s, b0 in enumerate(SIMPSON_INTERCEPTS):
        mean_age = SIMPSON_BASE_AGE + SIMPSON_AGE_STEP * s
        quantiles = (np.arange(SIMPSON_PER_SCHOOL) + 0.5) / SIMPSON_PER_SCHOOL
        ages = ndtri(quantiles) * SIMPSON_AGE_SD + mean_age
        p = expit(b0 + within_age_effect * (ages - mean_age))
        responses = _systematic_draw(p)
        for age, resp in zip(ages, responses):
            out.append(
                Observation(
                    response=int(resp),
                    covariates={"age": float(age)},
                    group=f"school{s + 1}",
                )
            )
    perm = rng.permutation(len(out))
    return [out[i] for i in perm]


def gen_confound(seed: int, n: int = 300) -> list[Observation]:
    """Confounded data: age drives both the response and campus membership.

    The response has no direct campus effect, but campus is a proxy for
    age, so a model without age shows a spurious campus effect. Ages form
    an even grid over 18-30; campus and response are assigned by systematic
    sampling along the grid (opposite walk directions, to keep the two
    assignments independent given age).
    """
    if n < 50:
        raise DataError("need at least 50 observations")
    rng = np.random.default_rng(seed)
    ages = 18.0 + 12.0 * (np.arange(n) + 0.5) / n
    centred = ages - CONFOUND_AGE_CENTER
    on_campus = _systematic_draw(expit(-CONFOUND_LINK * centred))
    responses = _systematic_draw(expit(CONFOUND_AGE_SLOPE * centred)[::-1])[::-1]
    obs = [
        Observation(
            response=int(r),
            covariates={"age": float(a), "campus": float(c)},
        )
        for r, a, c in zip(responses, ages, on_campus)
    ]
    perm = rng.permutation(len(obs))
    return [obs[i] for i in perm]


def _partition_counts(rng, total: int, parts: int) -> list[int]:
    """Split ``total`` responses over ``parts`` respondents, at least one
    each, extra responses following a capped geometric distribution."""
    counts = [1] * parts
    remaining = total - parts
    while remaining > 0:
        i = int(rng.integers(parts))
        extra = min(int(rng.geometric(GEOMETRIC_P)), GEOMETRIC_CAP - counts[i], remaining)
        if extra <= 0:
            continue
        counts[i] += extra
        remaining -= extra
    return counts


def gen_interview_margins(seed: int) -> list[Observation]:
    """Interview responses with exact 2x2 campus-by-response margins.

    192 responses from 53 respondents; 109 off-campus responses split 36/73
    negative-positive and 83 on-campus split 64/19. The seed only shuffles
    which respondent gets which responses and the uniform 18-30 ages.
    """
    rng = np.random.default_rng(seed)
    totals = {c: sum(m) for c, m in INTERVIEW_MARGINS.items()}
    # respondents per campus, proportional to response counts
    n_off = round(INTERVIEW_RESPONDENTS * totals["off"] / sum(totals.values()))
    n_resp = {"off": n_off, "on": INTERVIEW_RESPONDENTS - n_off}
    out = []
    rid = 0
    for campus in ("off", "on"):
        neg, pos = INTERVIEW_MARGINS[campus]
        responses = np.array([0] * neg + [1] * pos)
        rng.shuffle(responses)
        counts = _partition_counts(rng, len(responses), n_resp[campus])
        ages = rng.integers(18, 31, size=n_resp[campus])
        pos_idx = 0
        for count, age in zip(counts, ages):
            rid += 1
            for r in responses[pos_idx : pos_idx + count]:
                out.append(
                    Observation(
                        response=int(r),
                        covariates={"campus": 1.0 if campus == "on" else 0.0,
                                    "age": float(age)},
                        group=f"id{rid:02d}",
                    )
                )
            pos_idx += count
    return out
