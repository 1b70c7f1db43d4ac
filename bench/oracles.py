"""Reference computations for the benchmark's output checks.

Nothing here imports quantitize. Each function recomputes a quantity from
the benchmark's own generated inputs, so a check compares the program's
output with an independent derivation, never with an earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize
from scipy.special import expit

Z95 = 1.96  # half-width factor of the program's normal CI at level 0.95


def confusion_counts(gold: dict, predicted: dict, labels) -> np.ndarray:
    """Gold-on-rows, prediction-on-columns count grid over the given ids."""
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for uid, label in predicted.items():
        counts[index[gold[uid]], index[label]] += 1
    return counts


def accuracy(counts: np.ndarray) -> float:
    return float(np.trace(counts) / counts.sum())


def cohens_kappa(counts: np.ndarray) -> float:
    """(p_o - p_e) / (1 - p_e) with p_e from the row and column margins."""
    total = counts.sum()
    p_o = np.trace(counts) / total
    p_e = float((counts.sum(axis=1) @ counts.sum(axis=0)) / total**2)
    return float((p_o - p_e) / (1.0 - p_e))


def row_distributions(counts: np.ndarray) -> np.ndarray:
    """Row-normalised counts: row i is the redraw distribution of label i."""
    counts = counts.astype(float)
    return counts / counts.sum(axis=1, keepdims=True)


def redraw_moments(observed: np.ndarray, dists: np.ndarray, label: int):
    """Mean and standard deviation of the share of ``label`` after every
    unit's label is redrawn independently from ``dists[observed]``.

    The share is a mean of independent Bernoulli(p_i) draws, so its mean is
    the mean of p_i and its variance is sum p_i (1 - p_i) / n^2.
    """
    p = dists[observed, label]
    n = len(p)
    return float(p.mean()), float(math.sqrt(float(np.sum(p * (1 - p)))) / n)


def logistic_loglik(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    eta = X @ beta
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def logistic_mle(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Maximum-likelihood logistic coefficients by trust-region Newton on
    the negative log-likelihood, with its exact gradient and Hessian."""

    def nll(beta):
        return -logistic_loglik(X, y, beta)

    def grad(beta):
        return -(X.T @ (y - expit(X @ beta)))

    def hess(beta):
        mu = expit(X @ beta)
        return X.T @ (X * (mu * (1 - mu))[:, None])

    res = optimize.minimize(nll, np.zeros(X.shape[1]), jac=grad, hess=hess,
                            method="trust-exact", options={"gtol": 1e-10})
    beta = res.x
    for _ in range(3):  # Newton polish to full precision
        beta = beta - np.linalg.solve(hess(beta), grad(beta))
    return beta


def group_marginal_loglik(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
                          sigma: float) -> float:
    """log of the integral over u ~ N(0, sigma^2) of the group's Bernoulli
    likelihood with linear predictor X beta + u, by adaptive quadrature.

    Integrates over z = u / sigma. With h(z) = l(sigma z) - z^2 / 2 concave
    and h'' <= -1, the window of +-14 around the mode of h loses less than
    e^-98 of the mass.
    """
    eta = X @ beta

    def h(z):
        t = eta + sigma * z
        return float(y @ t - np.logaddexp(0.0, t).sum()) - 0.5 * z * z

    z = 0.0
    for _ in range(100):
        mu = expit(eta + sigma * z)
        step = (sigma * float(np.sum(y - mu)) - z) / (
            -(sigma * sigma) * float(np.sum(mu * (1 - mu))) - 1.0)
        z -= step
        if abs(step) < 1e-13:
            break
    peak = h(z)
    area, _ = integrate.quad(lambda t: math.exp(h(t) - peak), z - 14.0, z + 14.0,
                             points=[z], epsabs=0.0, epsrel=1e-13, limit=400)
    return peak - 0.5 * math.log(2 * math.pi) + math.log(area)


def marginal_loglik(groups, beta: np.ndarray, sigma: float) -> float:
    """Sum of :func:`group_marginal_loglik` over ``(X, y)`` groups."""
    return sum(group_marginal_loglik(X, y, beta, sigma) for X, y in groups)
