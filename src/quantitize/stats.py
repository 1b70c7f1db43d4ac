"""Regression engine for quantified annotations.

Two engines take a :func:`design_matrix` and a stack of 0/1 responses and
return arrays, one fit per row: logistic regression by iteratively
reweighted least squares (:func:`fit_logistic_stack`), and a random-intercept
extension whose marginal likelihood is integrated per group with adaptive
Gauss-Hermite quadrature (:func:`fit_random_intercept`). :func:`fit_formula`,
on a formula and one column per name, is the one place that builds a
:class:`FitResult` from them. The mixed objective handles every group in
one vectorised pass over rows sorted by group, and that pass also yields
its exact gradient and Hessian in (beta, log sigma). The mixed fit takes
projected Newton steps on that Hessian, log sigma kept in its box, and
scores each point it tries by one such pass; it reports whether the
intercept SD ended on its bound. Inference is Wald: standard errors from
the inverse observed information, two-sided normal p-values. Both engines
sum log(1 + e^t) by :func:`log1p_exp`, and each fit in a stack keeps the
bits of a fit on its own.
"""

from __future__ import annotations

import functools
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


_erfc = np.frompyfunc(math.erfc, 1, 1)  # math.erfc on each element, as objects


def wald_tests(beta, cov):
    """Standard errors, z and two-sided normal p-values of ``beta[..., p]``
    with covariances ``cov[..., p, p]``, for a stack of fits too."""
    se = np.sqrt(np.maximum(np.diagonal(cov, axis1=-2, axis2=-1), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, math.inf * np.sign(beta))
    p = _erfc(np.abs(z) / math.sqrt(2)).astype(float)
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
        # at beta = 0 every mu is 1/2, so one information matrix serves all rows
        mu = expit(e) if it > 1 else np.full((1, len(X)), 0.5)
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
    try:
        cov = np.linalg.inv(_information(X, XT, mu))
    except np.linalg.LinAlgError:
        raise DataError("singular information matrix during IRLS")
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
MAX_QUAD = 100  # most quadrature nodes a fit may ask for


@functools.lru_cache(maxsize=None)
def _gauss_hermite(n_quad):
    """The nodes x_q of the ``n_quad``-point Gauss-Hermite rule and the log
    weights, log w_q + x_q^2 + log(2)/2, that integrate against a normal
    density on the nodes sqrt(2) x_q; read-only, since every fit shares them."""
    nodes, weights = np.polynomial.hermite.hermgauss(n_quad)
    log_w = np.log(weights) + nodes**2 + 0.5 * math.log(2.0)
    nodes.flags.writeable = log_w.flags.writeable = False
    return nodes, log_w


class _MarginalLikelihood:
    """Adaptive Gauss-Hermite marginal likelihood of a random-intercept
    logistic model, over rows sorted by group once.

    Every per-group quantity is a ``np.add.reduceat`` over the sorted rows,
    so one call handles all groups at once. :meth:`nll_grad_hess` returns the
    negative log-likelihood with its exact gradient and Hessian in (beta, log
    sigma), including how each group's mode and quadrature scale move with
    them (the implicit derivatives of the mode equation).
    """

    def __init__(self, X, y, groups, n_quad):
        if not 1 <= n_quad <= MAX_QUAD:
            raise ConfigError(f"need 1 to {MAX_QUAD} quadrature nodes, got {n_quad}")
        _, group_index = np.unique(np.asarray(groups), return_inverse=True)
        self.order = np.argsort(group_index, kind="stable")
        self.X = X[self.order]
        self.XX = self.X[:, :, None] * self.X[:, None, :]  # each row's x x'
        self.group = group_index[self.order]
        self.starts = np.flatnonzero(np.r_[True, np.diff(self.group) != 0])
        self.nodes, self.log_w = _gauss_hermite(n_quad)
        self.respond(y)

    def respond(self, y):
        """Fit the 0/1 ``y``, in the caller's row order; modes start at zeros."""
        self.y = y[self.order]
        self.u_start = self.u_hat = np.zeros(len(self.starts))

    def _sum(self, a):
        """Per-group sums over the leading (row) axis."""
        return np.add.reduceat(a, self.starts, axis=0)

    def _log_posterior(self, eta, u, sigma2):
        t = eta + u[self.group]
        return self._sum(self.y * t - log1p_exp(t)) - 0.5 * u * u / sigma2

    def modes(self, eta, sigma2):
        """Posterior mode of every group's intercept at the linear predictor
        ``eta`` and variance ``sigma2``, by Newton's method. A group whose
        step lowers its log posterior halves that step, so the search cannot
        run away where the linear predictor is large. The search starts at
        the modes ``u_start`` of the point a fit last accepted, or at zeros."""
        u = self.u_start
        h = self._log_posterior(eta, u, sigma2)
        for _ in range(MODE_MAX_STEPS):
            mu = expit(eta + u[self.group])
            step = (self._sum(self.y - mu) - u / sigma2) / (
                self._sum(mu * (1 - mu)) + 1.0 / sigma2)
            for _ in range(MAX_HALVINGS):
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

    def nll_grad_hess(self, theta):
        """Negative log-likelihood, gradient and Hessian at ``theta`` = (beta,
        log sigma), from one pass over the rows. Each group's log likelihood
        is the log-sum-exp over its nodes q of T_q, the log integrand at
        u_q = u_hat + sqrt(2) tau x_q; its Hessian is sum_q pi_q d2T_q plus
        the pi-weighted covariance of dT_q, pi the posterior node weights."""
        X, y, group = self.X, self.y, self.group
        beta, log_sigma = theta[:-1], theta[-1]
        sigma2 = math.exp(2.0 * log_sigma)
        eta = X @ beta

        # mode, curvature and quadrature scale of each group
        u_hat = self.u_hat = self.modes(eta, sigma2)  # for a fit to start from
        mu = expit(eta + u_hat[group])
        w = mu * (1 - mu)
        v = w * (1 - 2 * mu)  # dw / du
        curv = self._sum(w) + 1.0 / sigma2
        tau = 1.0 / np.sqrt(curv)

        # log integrand at the adaptive nodes, (groups x nodes)
        r = math.sqrt(2.0) * tau[:, None] * self.nodes  # offsets from the mode
        u = u_hat[:, None] + r
        t = eta[:, None] + u[group]
        cond = self._sum(y[:, None] * t - log1p_exp(t))
        prior = -0.5 * u * u / sigma2 - (0.5 * math.log(2 * math.pi) + log_sigma)
        terms = self.log_w + np.log(tau)[:, None] + prior + cond
        peak = terms.max(axis=-1, keepdims=True)
        pi = np.exp(terms - peak)
        mass = pi.sum(axis=-1, keepdims=True)
        group_ll = peak[:, 0] + np.log(mass[:, 0])
        pi /= mass  # posterior weight of each node

        # F = cond + prior at fixed nodes, per group and node: its derivatives
        # in u and in theta (F_t), and in both (F_tu); F_beta,beta is added
        # at the end, summed over the groups
        mu_q = expit(t)
        w_q = mu_q * (1 - mu_q)
        F_u = self._sum(y[:, None] - mu_q) - u / sigma2
        F_uu = -self._sum(w_q) - 1.0 / sigma2
        F_t = np.dstack([self._sum((y[:, None] - mu_q)[..., None] * X[:, None]),
                         u * u / sigma2 - 1.0])
        F_tu = np.dstack([-self._sum(w_q[..., None] * X[:, None]), 2.0 * u / sigma2])

        # the mode equation F_u(u_hat, theta) = 0 differentiated once (U) and
        # twice (U2), and log tau = -log(curv) / 2 likewise (L, L2), where
        # curv moves with theta at a fixed mode by G, and sum v by W
        w6 = w * (1 - 6 * w)  # dv / du
        sum_v, sum_w6, zeros = self._sum(v), self._sum(w6), np.zeros(len(curv))
        vxx, w6xx = (self._sum(a[:, None, None] * self.XX) for a in (v, w6))
        U = np.column_stack([-self._sum(w[:, None] * X), 2.0 * u_hat / sigma2])
        U /= curv[:, None]
        G = np.column_stack([self._sum(v[:, None] * X), zeros - 2.0 / sigma2])
        W = np.column_stack([self._sum(w6[:, None] * X), zeros])
        L = -0.5 * (sum_v[:, None] * U + G) / curv[:, None]
        UU, LL = _outer(U, U), _outer(L, L)
        U2 = (_theta_block(-vxx, -4.0 * u_hat / sigma2) - sum_v[:, None, None] * UU
              - _sym(_outer(U, G))) / curv[:, None, None]
        curv2 = (sum_w6[:, None, None] * UU + _sym(_outer(U, W))
                 + sum_v[:, None, None] * U2 + _theta_block(w6xx, 4.0 / sigma2))
        L2 = 2.0 * LL - 0.5 * curv2 / curv[:, None, None]

        # the nodes move, du_q = U + r_q L, and T_q = log tau + F(u_q) + const:
        # d2T_q = L2 + F_tt + sym(F_tu du') + F_uu du du' + F_u d2u_q, where
        # d2u_q = U2 + r_q (L2 + L L')
        du = U[:, None] + r[..., None] * L[:, None]
        dT = L[:, None] + F_t + F_u[..., None] * du
        grad = np.sum(pi[..., None] * dT, axis=1)
        a, c = np.sum(pi * F_u, axis=-1), np.sum(pi * F_u * r, axis=-1)
        cross = _weighted_outer(pi, F_tu + 0.5 * F_uu[..., None] * du, du)
        dev = dT - grad[:, None]
        hess = ((1.0 + c)[:, None, None] * L2 + c[:, None, None] * LL
                + a[:, None, None] * U2 + _sym(cross)
                + _weighted_outer(pi, dev, dev)).sum(axis=0)
        hess[-1, -1] -= np.sum(pi * 2.0 * u * u / sigma2)  # F_tt at log sigma
        omega = np.sum(pi[group] * w_q, axis=-1)  # each row's pi-weighted w
        hess[:-1, :-1] -= X.T @ (X * omega[:, None])
        return -float(group_ll.sum()), -grad.sum(axis=0), -hess

    def zero_variance_score(self, beta):
        """Twice d loglik / d sigma^2 at sigma = 0 and ``beta`` (Lin 1997):
        over groups, the squared residual sum less the binomial variance."""
        mu = expit(self.X @ beta)
        return float(np.sum(self._sum(self.y - mu) ** 2 - self._sum(mu * (1 - mu))))


def _outer(a, b):
    """a_g b_g' for each group g of ``a`` and ``b`` (groups x theta)."""
    return a[:, :, None] * b[:, None, :]


def _sym(m):
    """m + m' for each group's matrix."""
    return m + m.transpose(0, 2, 1)


def _weighted_outer(pi, a, b):
    """sum_q pi_q a_q b_q' for each group, of ``a`` and ``b`` (groups x nodes
    x theta)."""
    return np.matmul((pi[..., None] * a).transpose(0, 2, 1), b)


def _theta_block(bb, ss):
    """(groups x theta x theta) with the beta block ``bb``, the log sigma
    diagonal entry ``ss`` and zeros between them."""
    out = np.zeros((len(bb), bb.shape[1] + 1, bb.shape[1] + 1))
    out[:, :-1, :-1] = bb
    out[:, -1, -1] = ss
    return out


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
    scored by one :meth:`~_MarginalLikelihood.nll_grad_hess` call at that
    point alone."""
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


def fit_random_intercept(X, Y, names, groups, n_quad=N_QUAD):
    """Mixed logistic regression with one normal random intercept per group,
    for each 0/1 row of ``Y`` (R x n) on a :func:`design_matrix` ``X`` with
    column ``names`` and one group id per column: beta, its block of the
    inverse observed information in (beta, log sigma), the log-likelihood,
    the Newton steps and log sigma, one of each per row, all from one
    :class:`_MarginalLikelihood`. A row that fails raises its DataError.

    Projected Newton over theta = (beta, log sigma) on the exact Hessian, at
    most ``NEWTON_MAX_ITER`` steps, starts at the fixed-effects fit beta0,
    mode searches at zeros. If the zero-variance score at beta0 is negative,
    a step lowering log sigma first tries (beta0, lower bound). A fit is
    accepted only when the predicted decrease at the returned point is below
    ``CONVERGENCE_TOL``.
    """
    model = _MarginalLikelihood(X, Y[0], groups, n_quad)
    if len(model.starts) < 2:
        raise DataError("random-intercept variance needs at least 2 groups")
    fits = []
    for y in Y:
        model.respond(y)
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
        fits.append((theta[:-1], cov[:-1, :-1], -nll, n_iter, theta[-1]))
    return tuple(map(np.array, zip(*fits)))


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
    if formula.mixed:
        fit = fit_random_intercept(X, y[None], names, columns[formula.group], n_quad)
        mixed = dict(sigma_u=math.exp(fit[4][0]), n_quad=n_quad,
                     boundary=not LOG_SIGMA_BOUNDS[0] < fit[4][0] < LOG_SIGMA_BOUNDS[1])
    else:
        fit, mixed = fit_logistic_stack(X, y[None], names), {}
    beta, cov, ll, n_iter = (a[0] for a in fit[:4])
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
