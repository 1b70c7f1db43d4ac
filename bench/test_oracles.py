"""Textbook cases for the benchmark's reference computations.

    python3 -m pytest bench/test_oracles.py
"""

import json
import math
import time
from pathlib import Path

import numpy as np

import oracles
from run import END_TO_END, EXTRA_LAYER_METRICS
from spans import LAYER_METRICS, tail_percentile
from speed import REF_KERNEL_S, SpeedProbe


def test_kappa_worked_example():
    counts = np.array([[40, 10], [5, 45]])
    assert abs(oracles.cohens_kappa(counts) - 0.7) < 1e-12
    assert oracles.accuracy(counts) == 0.85


def test_confusion_recount():
    gold = {"a": "x", "b": "x", "c": "y"}
    predicted = {"a": "x", "b": "y", "c": "y"}
    counts = oracles.confusion_counts(gold, predicted, ("x", "y"))
    assert counts.tolist() == [[1, 1], [0, 1]]


def test_redraw_sigma_for_a_ten_percent_flip():
    # 100 units split 50/50, each label kept with probability 0.9:
    # sigma = sqrt(100 * 0.9 * 0.1) / 100 = 0.03
    observed = np.repeat([0, 1], 50)
    dists = np.array([[0.9, 0.1], [0.1, 0.9]])
    mean, sigma = oracles.redraw_moments(observed, dists, 0)
    assert abs(mean - 0.5) < 1e-15
    assert abs(sigma - 0.03) < 1e-15


def test_logistic_mle_on_a_two_by_two_table():
    # with one binary covariate the MLE reproduces the table's log odds:
    # intercept log(73/36) and slope log((19/64) / (73/36))
    x = np.repeat([0.0, 0.0, 1.0, 1.0], [36, 73, 64, 19])
    y = np.repeat([0.0, 1.0, 0.0, 1.0], [36, 73, 64, 19])
    beta = oracles.logistic_mle(np.column_stack([np.ones_like(x), x]), y)
    assert abs(beta[0] - math.log(73 / 36)) < 1e-10
    assert abs(beta[1] - math.log(19 * 36 / (64 * 73))) < 1e-10


def test_quadrature_reduces_to_fixed_effects_as_sigma_vanishes():
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(12), rng.normal(size=12)])
    y = (rng.random(12) < 0.4).astype(float)
    beta = np.array([-0.3, 0.8])
    fixed = oracles.logistic_loglik(X, y, beta)
    assert abs(oracles.group_marginal_loglik(X, y, beta, 1e-9) - fixed) < 1e-9
    # a random intercept with real spread changes the likelihood
    assert abs(oracles.group_marginal_loglik(X, y, beta, 1.0) - fixed) > 1e-2


def test_quadrature_matches_a_closed_form():
    # one observation with y = 1: the integral of expit(b + u) over
    # u ~ N(0, s^2) is 1/2 at b = 0 by symmetry, for any s
    X, y = np.ones((1, 1)), np.ones(1)
    for sigma in (0.1, 1.0, 5.0):
        value = oracles.group_marginal_loglik(X, y, np.zeros(1), sigma)
        assert abs(value - math.log(0.5)) < 1e-12


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(39) is None
    assert tail_percentile(40) == 75.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_speed_correction_weights_each_moment_by_its_speed():
    # one second at the reference speed, then one at half speed: the
    # second does half the work, so the two count as 1.5 s of work
    probe = SpeedProbe()
    probe.samples = [(0.25, REF_KERNEL_S), (0.75, REF_KERNEL_S),
                     (1.25, 2 * REF_KERNEL_S), (1.75, 2 * REF_KERNEL_S)]
    assert abs(probe.corrected(0.0, 2.0) - 1.5) < 1e-12
    assert abs(probe.corrected(1.0, 2.0) - 0.5) < 1e-12
    # no probe inside the window: the last earlier one sets the speed
    assert abs(probe.corrected(1.8, 1.9) - 0.05) < 1e-12
    assert SpeedProbe().factor(0.0, 1.0) == 1.0


def test_speed_probe_takes_samples_and_leaves_them_out_of_its_clock():
    with SpeedProbe(period=0.01) as probe:
        w0, t0 = time.perf_counter(), probe.clock()
        while len(probe.samples) < 5:
            pass
        wall, elapsed = time.perf_counter() - w0, probe.clock() - t0
    assert all(d > 0 for _, d in probe.samples)
    assert probe.spent >= sum(d for _, d in probe.samples)
    assert abs(wall - elapsed - probe.spent) < 1e-4


def test_benchmark_json_lists_every_reported_metric():
    doc = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    layers = [(m[0], m[1]) for m in LAYER_METRICS] + list(EXTRA_LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers
