"""Regression engine for quantified annotations.

Fixed-effects binary logistic regression fit by iteratively reweighted
least squares, and a random-intercept extension whose marginal likelihood
is integrated per group with adaptive Gauss-Hermite quadrature. The mixed
objective handles every group in one vectorised pass over rows sorted by
group: a step-halving Newton search finds all group modes at once, and the
negative log-likelihood comes with its exact gradient in (beta, log sigma),
including how the modes and quadrature scales move. The fit is accepted
only when the predicted decrease at its final point is negligible, and it
reports whether the intercept SD ended on its bound. Inference is Wald:
standard errors from the inverse observed information (for mixed fits,
central differences of the exact gradient), two-sided normal p-values.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit
from scipy.stats import norm

from .errors import DataError
from .jsonio import write_json

MAX_ABS_BETA = 15.0  # separation guard on the logit scale
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100


@dataclass(frozen=True)
class Observation:
    """One analysis row: binary response, named real covariates, optional
    grouping id for the random intercept."""

    response: int
    covariates: dict[str, float] = field(default_factory=dict)
    group: Optional[str] = None

    def __post_init__(self):
        if self.response not in (0, 1):
            raise DataError(f"response must be 0/1, got {self.response!r}")


@dataclass(frozen=True)
class Coefficient:
    estimate: float
    std_error: float
    z: float
    p_value: float


@dataclass(frozen=True)
class FitResult:
    coefficients: dict[str, Coefficient]
    log_likelihood: float
    converged: bool
    n_iter: int
    n_obs: int
    sigma_u: Optional[float] = None  # random-intercept SD, mixed fits only
    n_quad: Optional[int] = None
    boundary: Optional[bool] = None  # mixed fits: log sigma_u on a bound

    def coef(self, name: str) -> Coefficient:
        return self.coefficients[name]

    def to_dict(self) -> dict:
        """Fixed fits leave out the mixed-only fields."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    def to_json(self, path: Union[str, Path]) -> None:
        write_json(path, self.to_dict())


def odds_ratio(beta: float) -> float:
    """Multiplicative change in the odds per unit of the covariate."""
    if not math.isfinite(beta):
        raise DataError("odds_ratio needs a finite coefficient")
    return math.exp(beta)


def yearly_proportions(
    labels: Sequence[str], years: Sequence[int]
) -> dict[int, dict[str, float]]:
    """Per-year label fractions; each year's fractions sum to 1."""
    if len(labels) != len(years):
        raise DataError("labels and years must align")
    by_year: dict[int, dict[str, int]] = {}
    for label, year in zip(labels, years):
        year = int(year)
        by_year.setdefault(year, {})
        by_year[year][label] = by_year[year].get(label, 0) + 1
    out: dict[int, dict[str, float]] = {}
    for year in sorted(by_year):
        total = sum(by_year[year].values())
        out[year] = {l: c / total for l, c in sorted(by_year[year].items())}
    return out


# --- design matrix ---------------------------------------------------------


def _design(observations: Sequence[Observation]):
    if len(observations) < 2:
        raise DataError("need at least 2 observations")
    names = sorted({k for o in observations for k in o.covariates})
    for o in observations:
        if set(o.covariates) != set(names):
            raise DataError("covariate names are inconsistent across observations")
    y = np.array([o.response for o in observations], dtype=float)
    X = np.column_stack(
        [np.ones(len(observations))]
        + [np.array([o.covariates[n] for o in observations], dtype=float) for n in names]
    )
    return X, y, ["(Intercept)"] + names


def _check_rank(X: np.ndarray, names: list[str]) -> None:
    _, r = np.linalg.qr(X)
    small = np.abs(np.diag(r)) < 1e-10 * max(1.0, np.abs(np.diag(r)).max())
    if small.any():
        bad = [names[i] for i in np.where(small)[0]]
        raise DataError(f"design matrix is rank deficient; collinear columns: {bad}")


def _loglik(X, y, beta):
    eta = X @ beta
    # log(1 + e^eta) computed stably
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def _wald(names, beta, cov):
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    out = {}
    for i, name in enumerate(names):
        z = beta[i] / se[i] if se[i] > 0 else math.inf * np.sign(beta[i])
        p = float(2 * norm.sf(abs(z))) if math.isfinite(z) else 0.0
        out[name] = Coefficient(float(beta[i]), float(se[i]), float(z), p)
    return out


def fit_logistic(observations: Sequence[Observation]) -> FitResult:
    """Binary logistic regression via IRLS; intercept always included."""
    X, y, names = _design(observations)
    _check_rank(X, names)
    beta = np.zeros(X.shape[1])
    ll = _loglik(X, y, beta)
    converged = False
    for it in range(1, IRLS_MAX_ITER + 1):
        mu = expit(X @ beta)
        w = mu * (1 - mu)
        info = X.T @ (X * w[:, None])
        score = X.T @ (y - mu)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise DataError("singular information matrix during IRLS")
        # step-halving: full Newton steps can overshoot near separation
        factor = 1.0
        for _ in range(20):
            candidate = beta + factor * step
            if _loglik(X, y, candidate) >= ll - 1e-12:
                break
            factor /= 2
        beta = candidate
        big = np.abs(beta) > MAX_ABS_BETA
        if big.any():
            bad = [names[i] for i in np.where(big)[0]]
            raise DataError(
                f"logistic fit did not converge (quasi-separation): {bad}"
            )
        ll_new = _loglik(X, y, beta)
        if abs(ll_new - ll) < IRLS_TOL * (abs(ll) + IRLS_TOL):
            ll = ll_new
            converged = True
            break
        ll = ll_new
    if not converged:
        raise DataError(f"IRLS did not converge in {IRLS_MAX_ITER} iterations")
    mu = expit(X @ beta)
    info = X.T @ (X * (mu * (1 - mu))[:, None])
    cov = np.linalg.inv(info)
    return FitResult(
        coefficients=_wald(names, beta, cov),
        log_likelihood=ll,
        converged=True,
        n_iter=it,
        n_obs=len(y),
    )


def logistic_score(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gradient of the logistic log-likelihood; exposed for numeric checks."""
    return X.T @ (y - expit(X @ beta))


def logistic_loglik(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    return _loglik(X, y, beta)


# --- random-intercept model ------------------------------------------------


LOG_SIGMA_BOUNDS = (-6.0, 4.0)  # box for log of the random-intercept SD
MODE_TOL = 1e-10  # Newton step size at which every group's mode is final
MODE_MAX_STEPS = 100
MODE_MAX_HALVINGS = 60
CONVERGENCE_TOL = 1e-8  # largest accepted predicted decrease 1/2 g'H^-1 g


class _MarginalLikelihood:
    """Adaptive Gauss-Hermite marginal likelihood of a random-intercept
    logistic model, over rows sorted by group once.

    Every per-group quantity is a ``np.add.reduceat`` over the sorted rows,
    so one call handles all groups at once. :meth:`nll_grad` returns the
    negative log-likelihood and its exact gradient in (beta, log sigma),
    including how each group's mode and quadrature scale move with them.
    """

    def __init__(self, X, y, groups, n_quad):
        _, group_index = np.unique(np.asarray(groups), return_inverse=True)
        order = np.argsort(group_index, kind="stable")
        self.X = X[order]
        self.y = y[order]
        self.group = group_index[order]
        self.starts = np.flatnonzero(np.r_[True, np.diff(self.group) != 0])
        self.nodes, weights = np.polynomial.hermite.hermgauss(n_quad)
        self.log_w = np.log(weights) + self.nodes**2 + 0.5 * math.log(2.0)

    def _sum(self, a):
        """Per-group sums over the leading (row) axis."""
        return np.add.reduceat(a, self.starts, axis=0)

    def _log_posterior(self, eta, u, sigma2):
        t = eta + u[self.group]
        return self._sum(self.y * t - np.logaddexp(0.0, t)) - 0.5 * u * u / sigma2

    def modes(self, eta, sigma2):
        """Posterior mode of every group's intercept by Newton's method. A
        group whose step lowers its log posterior halves that step, so the
        search cannot run away where the linear predictor is large."""
        u = np.zeros(len(self.starts))
        h = self._log_posterior(eta, u, sigma2)
        for _ in range(MODE_MAX_STEPS):
            mu = expit(eta + u[self.group])
            step = (self._sum(self.y - mu) - u / sigma2) / (
                self._sum(mu * (1 - mu)) + 1.0 / sigma2)
            for _ in range(MODE_MAX_HALVINGS):
                h_new = self._log_posterior(eta, u + step, sigma2)
                worse = h_new < h - 1e-12 * (1.0 + np.abs(h))
                if not worse.any():
                    break
                step = np.where(worse, 0.5 * step, step)
            u = u + step
            h = h_new
            if np.max(np.abs(step)) < MODE_TOL:
                break
        return u

    def nll_grad(self, theta):
        X, y, group = self.X, self.y, self.group
        p = X.shape[1]
        beta, log_sigma = theta[:p], theta[p]
        sigma2 = math.exp(2.0 * log_sigma)
        eta = X @ beta

        # mode, curvature and quadrature scale of each group
        u_hat = self.modes(eta, sigma2)
        mu = expit(eta + u_hat[group])
        w = mu * (1 - mu)
        v = w * (1 - 2 * mu)
        curv = self._sum(w) + 1.0 / sigma2
        tau = 1.0 / np.sqrt(curv)

        # log integrand at the adaptive nodes, one row per group
        u = u_hat[:, None] + math.sqrt(2.0) * tau[:, None] * self.nodes
        t = eta[:, None] + u[group]
        cond = self._sum(y[:, None] * t - np.logaddexp(0.0, t))
        prior = -0.5 * u * u / sigma2 - 0.5 * math.log(2 * math.pi) - log_sigma
        terms = self.log_w + np.log(tau)[:, None] + prior + cond
        peak = terms.max(axis=1, keepdims=True)
        pi = np.exp(terms - peak)
        mass = pi.sum(axis=1, keepdims=True)
        group_ll = peak[:, 0] + np.log(mass[:, 0])
        pi /= mass  # posterior weight of each node

        # derivatives at fixed nodes u
        resid = y[:, None] - expit(t)
        d_u = self._sum(resid) - u / sigma2
        grad_beta = X.T @ np.sum(pi[group] * resid, axis=1)
        grad_log_sigma = float(np.sum(pi * (u * u / sigma2 - 1.0)))

        # the nodes move with the mode and the scale: implicit derivatives of
        # the mode equation, then of log tau = -log(curv) / 2
        du_beta = -self._sum(w[:, None] * X) / curv[:, None]
        du_log_sigma = 2.0 * u_hat / (sigma2 * curv)
        sum_v = self._sum(v)
        dlogtau_beta = -0.5 * (self._sum(v[:, None] * X)
                               + sum_v[:, None] * du_beta) / curv[:, None]
        dlogtau_log_sigma = -0.5 * (sum_v * du_log_sigma - 2.0 / sigma2) / curv
        a = np.sum(pi * d_u, axis=1)
        c = 1.0 + math.sqrt(2.0) * tau * np.sum(pi * d_u * self.nodes, axis=1)
        grad_beta = grad_beta + (c[:, None] * dlogtau_beta
                                 + a[:, None] * du_beta).sum(axis=0)
        grad_log_sigma += float(np.sum(c * dlogtau_log_sigma + a * du_log_sigma))
        return -float(group_ll.sum()), -np.append(grad_beta, grad_log_sigma)

    def hessian(self, theta):
        """Central differences of the exact gradient, symmetrised."""
        n = len(theta)
        hess = np.empty((n, n))
        for j in range(n):
            step = np.zeros(n)
            step[j] = 1e-5 * max(1.0, abs(theta[j]))
            hess[:, j] = (self.nll_grad(theta + step)[1]
                          - self.nll_grad(theta - step)[1]) / (2 * step[j])
        return 0.5 * (hess + hess.T)


def _newton_decrement(grad, hess, log_sigma):
    """Predicted decrease 1/2 g'H^-1 g over the free coordinates: log sigma
    is held when it sits on a bound with the gradient pointing outward.
    Infinite when the free Hessian is not positive definite."""
    free = np.ones(len(grad), dtype=bool)
    low, high = LOG_SIGMA_BOUNDS
    if (log_sigma <= low and grad[-1] > 0) or (log_sigma >= high and grad[-1] < 0):
        free[-1] = False
    g = grad[free]
    try:
        chol = np.linalg.cholesky(hess[np.ix_(free, free)])
    except np.linalg.LinAlgError:
        return math.inf
    z = np.linalg.solve(chol, g)
    return 0.5 * float(z @ z)


def fit_logistic_random_intercept(
    observations: Sequence[Observation],
    n_quad: int = 15,
    max_iter: int = 200,
) -> FitResult:
    """Mixed logistic regression with one normal random intercept per group.

    The marginal likelihood integrates the intercept out with adaptive
    Gauss-Hermite quadrature (nodes recentred at each group's posterior
    mode); the outer optimization is quasi-Newton over the fixed effects
    and the log of the intercept SD, on the exact gradient. The fit is
    accepted only when the predicted decrease at the returned point is
    below ``CONVERGENCE_TOL``; otherwise it raises :class:`DataError`.
    ``boundary`` on the result says whether log sigma ended on a bound.
    """
    groups = [o.group for o in observations]
    if any(g is None for g in groups):
        raise DataError("every observation needs a group id for a mixed fit")
    if len(set(groups)) < 2:
        raise DataError("random-intercept variance needs at least 2 groups")
    X, y, names = _design(observations)
    _check_rank(X, names)
    model = _MarginalLikelihood(X, y, groups, n_quad)

    # warm start from the fixed-effects fit; fall back to zeros on separation
    try:
        fixed = fit_logistic(observations)
        beta0 = np.array([fixed.coefficients[n].estimate for n in names])
    except DataError:
        beta0 = np.zeros(X.shape[1])
    theta0 = np.append(beta0, math.log(0.5))

    p = X.shape[1]
    res = minimize(
        model.nll_grad,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(None, None)] * p + [LOG_SIGMA_BOUNDS],
        options={"maxiter": max_iter, "ftol": 1e-13, "gtol": 1e-8},
    )
    theta = res.x
    log_sigma = theta[p]
    hess = model.hessian(theta)
    decrement = _newton_decrement(res.jac, hess, log_sigma)
    if not decrement <= CONVERGENCE_TOL:
        raise DataError(
            f"mixed fit did not converge: predicted decrease {decrement:.3g} "
            f"at the returned point ({res.message})")
    cov = _safe_inverse(hess)
    return FitResult(
        coefficients=_wald(names, theta[:p], cov[:p, :p]),
        log_likelihood=-float(res.fun),
        converged=True,
        n_iter=int(res.nit),
        n_obs=len(y),
        sigma_u=math.exp(log_sigma),
        n_quad=n_quad,
        boundary=bool(not LOG_SIGMA_BOUNDS[0] < log_sigma < LOG_SIGMA_BOUNDS[1]),
    )


def _safe_inverse(mat):
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(mat)


# --- formula parsing -------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    response: str
    covariates: tuple[str, ...]
    group: Optional[str] = None

    @property
    def mixed(self) -> bool:
        return self.group is not None


_RANDOM_TERM = re.compile(r"^\(\s*1\s*\|\s*([A-Za-z_][\w.]*)\s*\)$")


def parse_formula(text: str) -> Formula:
    """Parse "response ~ cov1 + cov2 + (1|group)".

    Accepts exactly: a response name, '+'-separated covariate names, and at
    most one random-intercept term.
    """
    if "~" not in text:
        raise DataError(f"formula {text!r} has no '~'")
    lhs, rhs = text.split("~", 1)
    response = lhs.strip()
    if not response or not re.match(r"^[A-Za-z_][\w.]*$", response):
        raise DataError(f"bad response name {lhs.strip()!r}")
    covariates = []
    group = None
    for term in [t.strip() for t in rhs.split("+")]:
        if not term:
            raise DataError(f"empty term in formula {text!r}")
        m = _RANDOM_TERM.match(term)
        if m:
            if group is not None:
                raise DataError("at most one (1|group) term is allowed")
            group = m.group(1)
        elif re.match(r"^[A-Za-z_][\w.]*$", term):
            covariates.append(term)
        else:
            raise DataError(f"unsupported formula term {term!r}")
    return Formula(response, tuple(covariates), group)
