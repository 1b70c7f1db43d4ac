"""Regression engine for quantified annotations.

Two engines take a :func:`design_matrix` and return arrays: logistic
regression by iteratively reweighted least squares, for a stack of
responses at once (:func:`fit_logistic_stack`), and a random-intercept
extension whose marginal likelihood is integrated per group with adaptive
Gauss-Hermite quadrature (:func:`fit_random_intercept`). :func:`fit_formula`,
on a formula and one column per name, is the one place that builds a
:class:`FitResult` from them. The mixed objective handles every group in
one vectorised pass over rows sorted by group, for one parameter point or a
stack of them, with its exact gradient in (beta, log sigma). The mixed fit
takes projected Newton steps on central differences of that gradient, log
sigma kept in its box, and scores every point it tries together with those
differences in one stacked call; it reports whether the intercept SD ended
on its bound. Inference is Wald: standard errors from the inverse observed
information, two-sided normal p-values. Both engines sum log(1 + e^t) by
:func:`log1p_exp`, and each IRLS fit in a stack keeps the bits of a fit on
its own.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DataError
from .jsonio import write_json

MAX_ABS_BETA = 15.0  # separation guard on the logit scale
MAX_FINAL_STEP = 1e-2  # largest logit change one more Newton step may make
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
NEWTON_MAX_ITER = 200  # of the random-intercept fit


def expit(x):
    """The logistic function 1 / (1 + e^-x); 0 where e^-x overflows."""
    with np.errstate(over="ignore"):
        return 1 / (1 + np.exp(-x))


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


# --- design matrix ---------------------------------------------------------


def design_matrix(columns: Mapping[str, Sequence[float]], n: int):
    """Intercept plus one column per covariate in sorted name order, checked
    for full rank; returns the matrix and its column names."""
    if n < 2:
        raise DataError("need at least 2 observations")
    names = ["(Intercept)"] + sorted(columns)
    X = np.column_stack(
        [np.ones(n)] + [np.asarray(columns[c], dtype=float) for c in names[1:]])
    _, r = np.linalg.qr(X)
    small = np.abs(np.diag(r)) < 1e-10 * max(1.0, np.abs(np.diag(r)).max())
    if small.any():
        bad = [names[i] for i in np.where(small)[0]]
        raise DataError(f"design matrix is rank deficient; collinear columns: {bad}")
    return X, names


def wald_tests(beta, cov):
    """Standard errors, z and two-sided normal p-values of ``beta[..., p]``
    with covariances ``cov[..., p, p]``, for a stack of fits too."""
    se = np.sqrt(np.maximum(np.diagonal(cov, axis1=-2, axis2=-1), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, math.inf * np.sign(beta))
    p = np.vectorize(math.erfc, otypes=[float])(np.abs(z) / math.sqrt(2))
    return se, z, np.where(np.isfinite(z), p, 0.0)


def fit_logistic_stack(X: np.ndarray, Y: np.ndarray, names: list[str]):
    """IRLS fits of each 0/1 row of ``Y`` (R x n) on one :func:`design_matrix`
    ``X``: beta, covariance, log-likelihood and iterations, one per row. Each
    row does the arithmetic of a fit on that row alone, bit for bit; a row
    that fails fails the stack with that fit's :class:`DataError`.

    Each row's information matrix multiplies its weights into a copy of X'
    along n, and BLAS gets that copy's transposed view: the products and
    the per-row call of ``X.T @ (X * w[:, None])`` alone, so no bit moves.
    While no row has converged the rows are used in place; after that, the
    rows still iterating are copied out and written back."""
    XT = np.ascontiguousarray(X.T)
    Y = np.ascontiguousarray(Y)  # rows used in place sum as their copies did
    beta = np.zeros((len(Y), X.shape[1]))
    eta = np.zeros(Y.shape)  # each row's linear predictor X beta
    # at beta = 0 every row's log-likelihood is the same sum of log 2
    ll = np.repeat(logistic_loglik(X, Y[:1], beta[:1]), len(Y))
    n_iter = np.zeros(len(Y), dtype=int)
    active = np.arange(len(Y))  # the rows not yet converged
    for it in range(1, IRLS_MAX_ITER + 1):
        every = len(active) == len(Y)  # then no row is copied out or back
        b, y, e, ll_old = ((beta, Y, eta, ll) if every else
                           (beta[active], Y[active], eta[active], ll[active]))
        mu = expit(e)
        info = _information(X, XT, mu)
        try:
            step = np.linalg.solve(info, np.matmul(X.T, (y - mu)[..., None]))[..., 0]
        except np.linalg.LinAlgError:
            raise DataError("singular information matrix during IRLS")
        # step-halving: full Newton steps can overshoot near separation; each
        # row halves its own step, and the others recompute the same candidate
        factor = np.ones(len(b))
        for _ in range(20):
            candidate = b + factor[:, None] * step
            eta_new = np.matmul(X, candidate[..., None])[..., 0]
            ll_new = _loglik(y, eta_new)  # also the next ll
            worse = ~(ll_new >= ll_old - 1e-12)
            if not worse.any():
                break
            factor[worse] /= 2
        big = np.abs(candidate) > MAX_ABS_BETA
        if big.any():
            bad = [names[i] for i in np.flatnonzero(big[big.any(axis=1)][0])]
            raise DataError(
                f"logistic fit did not converge (quasi-separation): {bad}"
            )
        if every:
            beta, eta, ll = candidate, eta_new, ll_new
        else:
            beta[active], eta[active], ll[active] = candidate, eta_new, ll_new
        done = np.abs(ll_new - ll_old) < IRLS_TOL * (np.abs(ll_old) + IRLS_TOL)
        n_iter[active[done]] = it
        active = active[~done]
        if not len(active):
            break
    else:
        raise DataError(f"IRLS did not converge in {IRLS_MAX_ITER} iterations")
    mu = expit(eta)
    cov = np.linalg.inv(_information(X, XT, mu))
    # a separated fit stops when its log-likelihood stops changing, while one
    # more Newton step would still move its logits by about 1, not by ~0
    if (np.abs(X @ (cov @ (X.T @ (Y - mu)[..., None]))) > MAX_FINAL_STEP).any():
        raise DataError("logistic fit did not converge (quasi-separation): "
                        "fitted probabilities reach 0 or 1")
    return beta, cov, ll, n_iter


def _information(X, XT, mu):
    """X' diag(mu (1 - mu)) X for each row of ``mu[R, n]``, with ``XT`` X'
    laid out contiguously, so that the weights multiply along n."""
    return np.matmul(X.T, (XT * (mu * (1 - mu))[:, None, :]).transpose(0, 2, 1))


def logistic_score(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gradient of the logistic log-likelihood; exposed for numeric checks."""
    return X.T @ (y - expit(X @ beta))


def logistic_loglik(X: np.ndarray, y: np.ndarray, beta: np.ndarray):
    """Log-likelihood of the responses ``y[..., n]`` at ``beta[..., p]``;
    leading axes hold a stack of fits."""
    return _loglik(y, np.matmul(X, beta[..., None])[..., 0])


def _loglik(y, eta):
    """:func:`logistic_loglik` at the linear predictors ``eta[..., n]``."""
    return np.vecdot(y, eta) - log1p_exp(eta).sum(axis=-1)


def log1p_exp(x):
    """log(1 + e^x) without overflow or cancellation: log1p(e^-|x|), formed
    in one buffer, plus max(x, 0). It agrees with ``np.logaddexp(0, x)`` to a
    few ulp at several times its speed."""
    out = np.abs(x)
    np.log1p(np.exp(np.negative(out, out=out), out=out), out=out)
    return np.add(out, np.maximum(x, 0.0), out=out)


# --- random-intercept model ------------------------------------------------


LOG_SIGMA_BOUNDS = (-6.0, 4.0)  # box for log of the random-intercept SD
MODE_TOL = 1e-10  # Newton step size at which every group's mode is final
MODE_MAX_STEPS = 100
MAX_HALVINGS = 60  # of a group's mode step and of a Newton step
NEWTON_TOL = 1e-10  # predicted decrease at which the Newton loop stops
CONVERGENCE_TOL = 1e-8  # largest accepted predicted decrease 1/2 g'H^-1 g
N_QUAD = 15  # quadrature nodes per group, unless a fit is given another count


class _MarginalLikelihood:
    """Adaptive Gauss-Hermite marginal likelihood of a random-intercept
    logistic model, over rows sorted by group once.

    Every per-group quantity is a ``np.add.reduceat`` over the sorted rows,
    so one call handles all groups at once. :meth:`nll_grad` returns the
    negative log-likelihood and its exact gradient in (beta, log sigma),
    including how each group's mode and quadrature scale move with them.
    """

    def __init__(self, X, y, groups, n_quad):
        if n_quad < 1:
            raise ConfigError(f"need 1 or more quadrature nodes, got {n_quad}")
        _, group_index = np.unique(np.asarray(groups), return_inverse=True)
        order = np.argsort(group_index, kind="stable")
        self.X = X[order]
        self.y = y[order, None]  # a column, against (rows x k) predictors
        self.group = group_index[order]
        self.starts = np.flatnonzero(np.r_[True, np.diff(self.group) != 0])
        self.nodes, weights = np.polynomial.hermite.hermgauss(n_quad)
        self.log_w = np.log(weights) + self.nodes**2 + 0.5 * math.log(2.0)
        self.u_start = self.u_hat = np.zeros(len(self.starts))

    def _sum(self, a):
        """Per-group sums over the leading (row) axis."""
        return np.add.reduceat(a, self.starts, axis=0)

    def _log_posterior(self, eta, u, sigma2):
        t = eta + u[self.group]
        return self._sum(self.y * t - log1p_exp(t)) - 0.5 * u * u / sigma2

    def modes(self, eta, sigma2):
        """Posterior mode of every group's intercept, for each column k of
        ``eta`` and ``sigma2``, by Newton's method. A group whose step lowers
        its log posterior halves that step, so the search cannot run away
        where the linear predictor is large. Every column starts at the
        modes ``u_start`` of the point a fit last accepted, or at zeros."""
        u = np.repeat(self.u_start[:, None], eta.shape[1], axis=1)
        h = self._log_posterior(eta, u, sigma2)
        active = np.ones(eta.shape[1], dtype=bool)  # columns still searching
        for _ in range(MODE_MAX_STEPS):
            mu = expit(eta + u[self.group])
            step = active * (self._sum(self.y - mu) - u / sigma2) / (
                self._sum(mu * (1 - mu)) + 1.0 / sigma2)
            for _ in range(MAX_HALVINGS):
                h_new = self._log_posterior(eta, u + step, sigma2)
                worse = h_new < h - 1e-12 * (1.0 + np.abs(h))
                if not worse.any():
                    break
                step = np.where(worse, 0.5 * step, step)
            u = u + step
            h = h_new
            active &= np.max(np.abs(step), axis=0) >= MODE_TOL
            if not active.any():
                break
        return u

    def nll_grad(self, theta):
        """Negative log-likelihood and its gradient at ``theta`` = (beta, log
        sigma), or at each row of a stack ``theta[k, p + 1]``: then arrays
        over rows are (rows x k) and over nodes (rows x k x nodes)."""
        X, y, group = self.X, self.y, self.group
        stack = np.atleast_2d(theta)
        beta, log_sigma = stack[:, :-1], stack[:, -1]
        sigma2 = np.exp(2.0 * log_sigma)
        eta = np.einsum("np,kp->nk", X, beta)  # the same sums for any k

        # mode, curvature and quadrature scale of each group
        u_hat = self.modes(eta, sigma2)
        self.u_hat = u_hat[:, 0]  # the first point's, for a fit to start from
        mu = expit(eta + u_hat[group])
        w = mu * (1 - mu)
        v = w * (1 - 2 * mu)
        curv = self._sum(w) + 1.0 / sigma2
        tau = 1.0 / np.sqrt(curv)

        # log integrand at the adaptive nodes, (groups x k x nodes)
        u = u_hat[..., None] + math.sqrt(2.0) * tau[..., None] * self.nodes
        t = eta[..., None] + u[group]
        cond = self._sum(y[..., None] * t - log1p_exp(t))
        prior = (-0.5 * u * u / sigma2[:, None]
                 - (0.5 * math.log(2 * math.pi) + log_sigma)[:, None])
        terms = self.log_w + np.log(tau)[..., None] + prior + cond
        peak = terms.max(axis=-1, keepdims=True)
        pi = np.exp(terms - peak)
        mass = pi.sum(axis=-1, keepdims=True)
        group_ll = peak[..., 0] + np.log(mass[..., 0])
        pi /= mass  # posterior weight of each node

        # derivatives at fixed nodes u, per group
        resid = y[..., None] - expit(t)
        d_u = self._sum(resid) - u / sigma2[:, None]
        grad_beta = self._sum(np.sum(pi[group] * resid, axis=-1)[..., None] * X[:, None])
        grad_log_sigma = np.sum(pi * (u * u / sigma2[:, None] - 1.0), axis=-1)

        # the nodes move with the mode and the scale: implicit derivatives of
        # the mode equation, then of log tau = -log(curv) / 2
        du_beta = -self._sum(w[..., None] * X[:, None]) / curv[..., None]
        du_log_sigma = 2.0 * u_hat / (sigma2 * curv)
        sum_v = self._sum(v)
        dlogtau_beta = -0.5 * (self._sum(v[..., None] * X[:, None])
                               + sum_v[..., None] * du_beta) / curv[..., None]
        dlogtau_log_sigma = -0.5 * (sum_v * du_log_sigma - 2.0 / sigma2) / curv
        a = np.sum(pi * d_u, axis=-1)
        c = 1.0 + math.sqrt(2.0) * tau * np.sum(pi * d_u * self.nodes, axis=-1)
        grad_beta += c[..., None] * dlogtau_beta + a[..., None] * du_beta
        grad_log_sigma += c * dlogtau_log_sigma + a * du_log_sigma
        # one sum over the groups, in an order that does not depend on k
        total = -np.dstack([group_ll, grad_beta, grad_log_sigma]).sum(axis=0)
        nll, grad = total[:, 0], total[:, 1:]
        return (float(nll[0]), grad[0]) if np.ndim(theta) == 1 else (nll, grad)

    def zero_variance_score(self, beta):
        """Twice d loglik / d sigma^2 at sigma = 0 and ``beta`` (Lin 1997):
        over groups, the squared residual sum less the binomial variance."""
        mu = expit(self.X @ beta)
        return float(np.sum(self._sum(self.y[:, 0] - mu) ** 2
                            - self._sum(mu * (1 - mu))))

    def nll_grad_hess(self, theta):
        """One stacked call: :meth:`nll_grad` at ``theta`` and its :func:`_hessian`."""
        h = 1e-5 * np.maximum(1.0, np.abs(theta))
        nll, grad = self.nll_grad(theta + np.vstack([0 * h, np.diag(h), -np.diag(h)]))
        return float(nll[0]), grad[0], _hessian(h, grad[1:])


def _hessian(h, grads):
    """Symmetrised central differences of the gradients at theta +- h_j e_j."""
    hess = (grads[:len(h)] - grads[len(h):]).T / (2 * h)
    return 0.5 * (hess + hess.T)


def _newton_step(grad, hess, log_sigma):
    """Newton step on the free coordinates, and the predicted decrease
    1/2 g'H^-1 g there. Log sigma is held when it sits on a bound with the
    gradient pointing outward. Each eigenvalue of the free Hessian becomes
    max(|l|, 1e-8 max |l|), so the step goes downhill; the decrease is
    infinite when the free Hessian is not positive definite."""
    low, high = LOG_SIGMA_BOUNDS
    held = (log_sigma <= low and grad[-1] > 0) or (log_sigma >= high and grad[-1] < 0)
    free = np.r_[np.ones(len(grad) - 1, dtype=bool), not held]
    lam, vec = np.linalg.eigh(hess[np.ix_(free, free)])
    g = vec.T @ grad[free]
    step = np.zeros(len(grad))
    step[free] = -vec @ (g / np.maximum(np.abs(lam), 1e-8 * np.abs(lam).max()))
    return step, (0.5 * float(g @ (g / lam)) if lam.min() > 0 else math.inf)


def _line_search(model, theta, nll, grad, step, bound):
    """The point, objective, gradient and Hessian that a downhill ``step``
    reaches: ``bound``, if given and the step lowers log sigma, or the first
    Armijo halving, log sigma clamped; None if none does. Every candidate is
    scored by one stacked :meth:`~_MarginalLikelihood.nll_grad_hess` call."""
    if step[-1] < 0 and bound is not None:
        # near sigma = 0 the objective flattens and a Newton step moves log
        # sigma by only about 0.5: try the bound, kept if log sigma stays there
        nll_new, grad_new, hess = model.nll_grad_hess(bound)
        if nll_new <= nll and grad_new[-1] > 0:
            return bound, nll_new, grad_new, hess
    for halvings in range(MAX_HALVINGS):
        candidate = theta + step / 2**halvings
        candidate[-1] = np.clip(candidate[-1], *LOG_SIGMA_BOUNDS)
        nll_new, grad_new, hess = model.nll_grad_hess(candidate)
        if nll_new <= nll + 1e-4 * float(grad @ (candidate - theta)):
            return candidate, nll_new, grad_new, hess
    return None


def fit_random_intercept(X, y, names, groups, n_quad=N_QUAD):
    """Mixed logistic regression with one normal random intercept per group,
    on a :func:`design_matrix` ``X`` with column ``names``, a 0/1 response
    and one group id per row: theta = (beta, log sigma), its covariance (the
    inverse observed information), the log-likelihood and the Newton steps.

    Projected Newton over theta, at most ``NEWTON_MAX_ITER`` steps, starts at
    the fixed-effects fit beta0. If the zero-variance score at beta0 is
    negative, a step lowering log sigma first tries (beta0, lower bound).
    Mode searches start at the last accepted point's modes. The fit is
    accepted only when the predicted decrease at the returned point is below
    ``CONVERGENCE_TOL``; otherwise it raises :class:`DataError`.
    """
    model = _MarginalLikelihood(X, y, groups, n_quad)
    if len(model.starts) < 2:
        raise DataError("random-intercept variance needs at least 2 groups")

    # warm start from the fixed fit (sigma = 0); zeros, and no bound, on separation
    try:
        beta0 = fit_logistic_stack(X, y[None], names)[0][0]
    except DataError:
        beta0, bound = np.zeros(X.shape[1]), None
    else:
        bound = (np.append(beta0, LOG_SIGMA_BOUNDS[0])
                 if model.zero_variance_score(beta0) < 0 else None)
    theta = np.append(beta0, math.log(0.5))

    nll, grad, hess = model.nll_grad_hess(theta)
    for n_iter in range(NEWTON_MAX_ITER + 1):  # n_iter: the steps taken so far
        model.u_start = model.u_hat  # theta's modes: theta led the last call
        step, decrement = _newton_step(grad, hess, theta[-1])
        if not -0.5 * float(grad @ step) > NEWTON_TOL or n_iter == NEWTON_MAX_ITER:
            break
        moved = _line_search(model, theta, nll, grad, step, bound)
        if moved is None:
            break
        theta, nll, grad, hess = moved
    if not decrement <= CONVERGENCE_TOL:
        raise DataError(
            f"mixed fit did not converge in {n_iter} Newton iterations: predicted "
            f"decrease {decrement:.3g} at the returned point")
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        raise DataError("mixed fit: the observed information is singular, so "
                        "there are no Wald standard errors") from None
    return theta, cov, -nll, n_iter


# --- formulas --------------------------------------------------------------


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
    most one random-intercept term; anything else is a :class:`ConfigError`.
    """
    if "~" not in text:
        raise ConfigError(f"formula {text!r} has no '~'")
    lhs, rhs = text.split("~", 1)
    response = lhs.strip()
    if not response or not re.match(r"^[A-Za-z_][\w.]*$", response):
        raise ConfigError(f"bad response name {lhs.strip()!r}")
    covariates = []
    group = None
    for term in [t.strip() for t in rhs.split("+")]:
        if not term:
            raise ConfigError(f"empty term in formula {text!r}")
        m = _RANDOM_TERM.match(term)
        if m:
            if group is not None:
                raise ConfigError("at most one (1|group) term is allowed")
            group = m.group(1)
        elif re.match(r"^[A-Za-z_][\w.]*$", term):
            covariates.append(term)
        else:
            raise ConfigError(f"unsupported formula term {term!r}")
    return Formula(response, tuple(covariates), group)


def fit_formula(formula: Formula, columns: Mapping[str, Sequence],
                n_quad: int = N_QUAD) -> FitResult:
    """Fit ``formula`` on ``columns``, one sequence of row values per name it
    reads: by IRLS (:func:`fit_logistic_stack`), or with a ``(1|group)`` term
    by :func:`fit_random_intercept` on ``n_quad`` quadrature nodes, with
    ``boundary`` saying whether log sigma ended on a bound."""
    y = np.asarray(columns[formula.response], dtype=float)
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError(f"response {formula.response!r} must be 0 or 1")
    X, names = design_matrix({c: columns[c] for c in formula.covariates}, len(y))
    mixed = {}
    if formula.mixed:
        theta, cov, ll, n_iter = fit_random_intercept(X, y, names, columns[formula.group],
                                                      n_quad)
        beta, cov, log_sigma = theta[:-1], cov[:-1, :-1], theta[-1]
        mixed = dict(sigma_u=math.exp(log_sigma), n_quad=n_quad,
                     boundary=not LOG_SIGMA_BOUNDS[0] < log_sigma < LOG_SIGMA_BOUNDS[1])
    else:
        beta, cov, ll, n_iter = (a[0] for a in fit_logistic_stack(X, y[None], names))
    wald = zip(beta, *wald_tests(beta, cov))  # estimate, standard error, z, p
    return FitResult({name: Coefficient(*map(float, w)) for name, w in zip(names, wald)},
                     log_likelihood=float(ll), converged=True, n_iter=int(n_iter),
                     n_obs=len(y), **mixed)


def _observation_columns(observations: Sequence[Observation], mixed: bool):
    """The formula and columns on which :func:`fit_formula` fits the
    response of ``observations`` on all their covariates, plus a random
    intercept per group if ``mixed``."""
    if mixed and any(o.group is None for o in observations):
        raise DataError("every observation needs a group id for a mixed fit")
    keys = {k for o in observations for k in o.covariates}
    if any(set(o.covariates) != keys for o in observations):
        raise DataError("covariate names are inconsistent across observations")
    columns = {k: [o.covariates[k] for o in observations] for k in keys}
    columns["(response)"] = [o.response for o in observations]
    columns["(group)"] = [o.group for o in observations]
    return Formula("(response)", tuple(keys), "(group)" if mixed else None), columns


def fit_logistic(observations: Sequence[Observation]) -> FitResult:
    """:func:`fit_formula` of the response on every covariate."""
    return fit_formula(*_observation_columns(observations, mixed=False))


def fit_logistic_random_intercept(observations: Sequence[Observation],
                                  n_quad: int = N_QUAD) -> FitResult:
    """:func:`fit_formula` of the response on every covariate and a random
    intercept per group."""
    return fit_formula(*_observation_columns(observations, mixed=True), n_quad=n_quad)
