import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, logsumexp

import quantitize
from quantitize import (
    ConfigError,
    DataError,
    Observation,
    fit_formula,
    fit_logistic,
    fit_logistic_random_intercept,
    gen_confound,
    gen_interview_margins,
    gen_simpson,
    odds_ratio,
    parse_formula,
)
from quantitize import stats
from quantitize.stats import (
    IRLS_MAX_ITER,
    IRLS_TOL,
    MAX_ABS_BETA,
    MAX_FINAL_STEP,
    _MarginalLikelihood,
    Formula,
    design_matrix,
    fit_logistic_stack,
    logistic_loglik,
    logistic_score,
)


def fit_logistic_arrays(X, y, names):
    """:func:`fit_formula`'s fixed fit of the 0/1 ``y`` on the columns of a
    :func:`design_matrix` ``X`` named ``names``."""
    columns = dict(zip(names[1:], X[:, 1:].T))
    return fit_formula(Formula("(y)", tuple(names[1:])), {**columns, "(y)": y})


def two_by_two(n00, n01, n10, n11):
    """Observations for a saturated binary design: (covariate, response)."""
    obs = []
    for x, y, n in [(0, 0, n00), (0, 1, n01), (1, 0, n10), (1, 1, n11)]:
        obs.extend(Observation(y, {"x": float(x)}) for _ in range(n))
    return obs


class TestFitLogistic:
    def test_interview_margins_closed_form(self):
        # off-campus 36 neg / 73 pos, on-campus 64 neg / 19 pos
        obs = two_by_two(36, 73, 64, 19)
        fit = fit_logistic(obs)
        assert fit.coef("x").estimate == pytest.approx(
            math.log((19 / 64) / (73 / 36)), abs=1e-6
        )
        assert fit.coef("(Intercept)").estimate == pytest.approx(
            math.log(73 / 36), abs=1e-6
        )

    def test_balanced_covariate_gives_zero(self):
        obs = two_by_two(25, 25, 25, 25)
        fit = fit_logistic(obs)
        assert fit.coef("x").estimate == pytest.approx(0.0, abs=1e-8)

    def test_perfect_separation_raises(self):
        obs = two_by_two(50, 0, 0, 50)
        with pytest.raises(DataError, match="separation"):
            fit_logistic(obs)

    @pytest.mark.parametrize("scale", [10.0, 1000.0])
    def test_separation_under_the_beta_guard_raises(self, scale):
        # the slope stays under MAX_ABS_BETA while every fitted probability
        # goes to 0 or 1; the log-likelihood stops changing, the fit does not
        x = np.repeat([-scale, scale], 10)
        X, names = design_matrix({"x": x}, len(x))
        y = (x > 0).astype(float)
        with pytest.raises(DataError, match="separation"):
            fit_logistic_arrays(X, y, names)
        with pytest.raises(DataError, match="separation"):
            fit_logistic_stack(X, np.array([np.tile([0.0, 1.0], 10), y]), names)

    def test_collinear_columns_rejected(self):
        obs = [
            Observation(i % 2, {"a": float(i), "b": 2.0 * i}) for i in range(20)
        ]
        with pytest.raises(DataError, match="rank"):
            fit_logistic(obs)

    def test_saturated_2x2_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = rng.integers(5, 60, size=4)
            obs = two_by_two(*n)
            expected = math.log((n[3] / n[2]) / (n[1] / n[0]))
            assert fit_logistic(obs).coef("x").estimate == pytest.approx(
                expected, abs=1e-6
            )

    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        y = (rng.random(40) < 0.5).astype(float)
        for _ in range(5):
            beta = rng.normal(scale=0.8, size=3)
            analytic = logistic_score(X, y, beta)
            h = 1e-5
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                numeric = (logistic_loglik(X, y, beta + e)
                           - logistic_loglik(X, y, beta - e)) / (2 * h)
                assert abs(analytic[j] - numeric) <= 1e-6 * max(1.0, abs(numeric))

    def test_shift_only_moves_intercept(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=80)
        ys = (rng.random(80) < 1 / (1 + np.exp(-xs))).astype(int)
        base = fit_logistic([Observation(int(y), {"x": float(x)})
                             for x, y in zip(xs, ys)])
        shifted = fit_logistic([Observation(int(y), {"x": float(x) + 10})
                                for x, y in zip(xs, ys)])
        assert shifted.coef("x").estimate == pytest.approx(
            base.coef("x").estimate, abs=1e-6
        )

    def test_rescaling_covariate_rescales_coefficient(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=80)
        ys = (rng.random(80) < 1 / (1 + np.exp(-xs))).astype(int)
        base = fit_logistic([Observation(int(y), {"x": float(x)})
                             for x, y in zip(xs, ys)])
        scaled = fit_logistic([Observation(int(y), {"x": float(x) * 5})
                               for x, y in zip(xs, ys)])
        assert scaled.coef("x").estimate == pytest.approx(
            base.coef("x").estimate / 5, abs=1e-6
        )
        assert scaled.coef("x").z == pytest.approx(base.coef("x").z, abs=1e-6)
        assert scaled.coef("x").p_value == pytest.approx(
            base.coef("x").p_value, abs=1e-6
        )


def reference_irls(X, y, names, log1p_exp=None):
    """The one-response IRLS loop that :func:`fit_logistic_stack` replaced,
    kept as the reference its rows must match bit for bit: (beta,
    log-likelihood, iterations, covariance). It takes the package's expit
    and log1p_exp, as the stack does, unless ``log1p_exp`` replaces the
    latter."""
    def loglik(beta):
        eta = X @ beta
        return float(y @ eta - (log1p_exp or stats.log1p_exp)(eta).sum())

    beta = np.zeros(X.shape[1])
    ll = loglik(beta)
    for it in range(1, IRLS_MAX_ITER + 1):
        mu = stats.expit(X @ beta)
        info = X.T @ (X * (mu * (1 - mu))[:, None])
        try:
            step = np.linalg.solve(info, X.T @ (y - mu))
        except np.linalg.LinAlgError:
            raise DataError("singular information matrix during IRLS")
        factor = 1.0
        for _ in range(20):
            candidate = beta + factor * step
            if loglik(candidate) >= ll - 1e-12:
                break
            factor /= 2
        beta = candidate
        if (np.abs(beta) > MAX_ABS_BETA).any():
            raise DataError("quasi-separation")
        ll_new = loglik(beta)
        if abs(ll_new - ll) < IRLS_TOL * (abs(ll) + IRLS_TOL):
            mu = stats.expit(X @ beta)
            cov = np.linalg.inv(X.T @ (X * (mu * (1 - mu))[:, None]))
            if (np.abs(X @ (cov @ (X.T @ (y - mu)))) > MAX_FINAL_STEP).any():
                raise DataError("quasi-separation")
            return beta, ll_new, it, cov
        ll = ll_new
    raise DataError("IRLS did not converge")


class TestLogisticStack:
    @staticmethod
    def sample(rng, n, n_covariates, rows):
        columns = {f"x{j}": (rng.integers(0, 2, n).astype(float) if j % 2
                             else rng.normal(0, rng.uniform(0.1, 30), n))
                   for j in range(n_covariates)}
        X, names = design_matrix(columns, n)
        truth = rng.normal(0, 1.5, X.shape[1]) / np.abs(X).max(axis=0)
        Y = (rng.random((rows, n)) < expit(X @ truth)).astype(float)
        return X, names, Y

    @given(st.integers(0, 2**32 - 1), st.integers(12, 150), st.integers(0, 3),
           st.integers(1, 6), st.sampled_from([1.0, 8.0]))
    @settings(max_examples=80, deadline=None)
    def test_rows_match_the_one_response_fit_bit_for_bit(self, seed, n,
                                                         n_covariates, rows,
                                                         overshoot):
        # Newton steps on these data never lower the log-likelihood, so an
        # overshoot of 8 (exact in binary, for both fits) makes rows halve
        # their steps, each as many times as it needs
        X, names, Y = self.sample(np.random.default_rng(seed), n, n_covariates,
                                  rows)
        solve = np.linalg.solve
        with mock.patch.object(np.linalg, "solve",
                               lambda a, b: overshoot * solve(a, b)):
            expected = []
            for y in Y:
                try:
                    expected.append(reference_irls(X, y, names))
                except DataError:
                    expected.append(None)
            if None in expected:  # a separated or unconverged row fails the stack
                with pytest.raises(DataError):
                    fit_logistic_stack(X, Y, names)
                return
            stack = fit_logistic_stack(X, Y, names)
            singles = [fit_logistic_arrays(X, y, names) for y in Y]
        for r, (beta, ll, n_iter, cov) in enumerate(expected):
            assert stack[0][r].tobytes() == beta.tobytes()
            assert stack[1][r].tobytes() == cov.tobytes()
            assert stack[2][r] == ll
            assert stack[3][r] == n_iter
            single = singles[r]
            assert (single.log_likelihood, single.n_iter) == (ll, n_iter)
            se = np.sqrt(np.maximum(np.diag(cov), 0.0))
            for i, c in enumerate(single.coefficients.values()):
                z = beta[i] / se[i]
                assert (c.estimate, c.std_error, c.z, c.p_value) == (
                    beta[i], se[i], z, math.erfc(abs(z) / math.sqrt(2)))

    @given(st.integers(0, 2**32 - 1), st.integers(12, 150), st.integers(0, 3),
           st.integers(1, 6), st.sampled_from([1.0, 8.0]))
    @settings(max_examples=80, deadline=None)
    def test_only_the_log_likelihood_moves_from_logaddexp(self, seed, n,
                                                          n_covariates, rows,
                                                          overshoot):
        # the log-likelihood only gates step-halving and convergence, so
        # summing log(1 + e^eta) by np.logaddexp instead of log1p_exp moves
        # its own last bits and no beta, covariance or iteration count
        X, names, Y = self.sample(np.random.default_rng(seed), n, n_covariates,
                                  rows)
        solve = np.linalg.solve
        with mock.patch.object(np.linalg, "solve",
                               lambda a, b: overshoot * solve(a, b)):
            expected = []
            for y in Y:
                try:
                    expected.append(reference_irls(
                        X, y, names, lambda eta: np.logaddexp(0.0, eta)))
                except DataError:
                    expected.append(None)
            if None in expected:
                with pytest.raises(DataError):
                    fit_logistic_stack(X, Y, names)
                return
            stack = fit_logistic_stack(X, Y, names)
        for r, (beta, ll, n_iter, cov) in enumerate(expected):
            assert stack[0][r].tobytes() == beta.tobytes()
            assert stack[1][r].tobytes() == cov.tobytes()
            assert stack[3][r] == n_iter
            assert abs(stack[2][r] - ll) <= 1e-14 * abs(ll)

    def test_rows_match_the_one_response_fit_at_the_benchmark_size(self):
        # boot_logistic's fits: gen_confound's 2000 units on campus and age,
        # eight replicates of the response with each label flipped at 10%.
        # Row 0 converges at iteration 5 (its last change is 1.15 times the
        # tolerance) and the others at 4, so the stack runs with every row
        # active and then with one
        obs = gen_confound(0, n=2000)
        X, names = design_matrix({k: [o.covariates[k] for o in obs]
                                  for k in ("age", "campus")}, len(obs))
        y = np.array([o.response for o in obs], dtype=float)
        Y = np.abs(y - (np.random.default_rng(8).random((8, len(y))) < 0.1))
        beta, cov, ll, n_iter = fit_logistic_stack(X, Y, names)
        assert len(set(n_iter)) > 1
        for r, row in enumerate(Y):
            expected = reference_irls(X, row, names)
            assert beta[r].tobytes() == expected[0].tobytes()
            assert (ll[r], n_iter[r]) == expected[1:3]
            assert cov[r].tobytes() == expected[3].tobytes()

    def test_a_failing_row_fails_the_stack_with_its_own_message(self,
                                                                monkeypatch):
        x = np.tile([0.0, 1.0], 20)
        X, names = design_matrix({"x": x}, len(x))
        balanced = np.tile([0.0, 1.0, 1.0, 0.0], 10)
        with pytest.raises(DataError, match="quasi-separation") as alone:
            fit_logistic_arrays(X, x, names)
        with pytest.raises(DataError) as stacked:
            fit_logistic_stack(X, np.array([balanced, x, balanced]), names)
        assert str(stacked.value) == str(alone.value)
        # a row whose means saturate at 1 has every IRLS weight mu (1 - mu)
        # at zero, so its information matrix is singular
        saturated = [1]

        def saturating_expit(eta):
            mu = expit(eta)
            mu[saturated] = 1.0
            return mu

        monkeypatch.setattr(stats, "expit", saturating_expit)
        singular = "^singular information matrix during IRLS$"
        with pytest.raises(DataError, match=singular):
            fit_logistic_stack(X, np.array([balanced] * 3), names)
        saturated[:] = [0]
        with pytest.raises(DataError, match=singular):
            fit_logistic_arrays(X, balanced, names)


class TestLog1pExp:
    def test_agrees_with_logaddexp_within_4_ulp(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(0, 3, 200_000),
                            rng.uniform(-745, 745, 200_000)])
        got, want = stats.log1p_exp(x), np.logaddexp(0.0, x)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        # formed in one buffer, a stack of any shape keeps the bits of
        # max(x, 0) + log1p(e^-|x|) summed from separate temporaries
        stack = x.reshape(200, 8, 250)
        before = stack.tobytes()
        assert (stats.log1p_exp(stack).tobytes()
                == (np.maximum(stack, 0.0) + np.log1p(np.exp(-np.abs(stack)))).tobytes())
        assert stack.tobytes() == before

    def test_exact_at_zeros_infinities_and_subnormals(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324])
        assert stats.log1p_exp(x).tobytes() == np.logaddexp(0.0, x).tobytes()
        assert np.isnan(stats.log1p_exp(np.array([np.nan]))).all()

    def test_no_warning_at_the_extremes(self):
        # pytest turns a RuntimeWarning into an error; e^-1e308 underflows
        assert stats.log1p_exp(np.array([1e308, -1e308])).tolist() == [1e308, 0.0]


class TestOddsRatio:
    def test_zero_is_one(self):
        assert odds_ratio(0.0) == 1.0

    def test_small_positive_effect(self):
        assert odds_ratio(0.064) == pytest.approx(1.07, abs=0.005)

    def test_large_negative_effect(self):
        assert odds_ratio(-1.9) == pytest.approx(0.1496, abs=0.0001)

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            odds_ratio(float("nan"))


class TestMixedModel:
    def test_zero_variance_matches_fixed_fit(self):
        rng = np.random.default_rng(9)
        obs = []
        for g in range(40):
            for _ in range(40):
                x = rng.normal()
                y = int(rng.random() < 1 / (1 + np.exp(-(0.8 * x - 0.2))))
                obs.append(Observation(y, {"x": x}, group=f"g{g}"))
        mixed = fit_logistic_random_intercept(obs)
        fixed = fit_logistic([Observation(o.response, o.covariates) for o in obs])
        assert mixed.sigma_u < 0.1
        assert mixed.coef("x").estimate == pytest.approx(
            fixed.coef("x").estimate, abs=0.05
        )

    def test_single_group_rejected(self):
        obs = [Observation(i % 2, {"x": float(i)}, group="only")
               for i in range(10)]
        with pytest.raises(DataError, match="group"):
            fit_logistic_random_intercept(obs)

    def test_missing_group_rejected(self):
        obs = [Observation(i % 2, {"x": float(i)}) for i in range(10)]
        with pytest.raises(DataError):
            fit_logistic_random_intercept(obs)

    def test_quadrature_refinement(self):
        obs = gen_simpson(1)
        coarse = fit_logistic_random_intercept(obs, n_quad=2)
        mid = fit_logistic_random_intercept(obs, n_quad=15)
        fine = fit_logistic_random_intercept(obs, n_quad=25)
        assert abs(mid.log_likelihood - fine.log_likelihood) < 1e-3
        assert abs(mid.coef("age").estimate - fine.coef("age").estimate) < 1e-3
        # 2 nodes is visibly off
        assert abs(coarse.log_likelihood - fine.log_likelihood) > 1e-6

    def test_interview_mixed_fit_recovers_negative_campus_effect(self):
        obs = gen_interview_margins(0)
        mixed = fit_logistic_random_intercept(obs)
        assert mixed.coef("campus").estimate < -1.0
        assert mixed.coef("campus").p_value < 0.001
        # the variance MLE of this set sits on the lower bound of log sigma
        assert mixed.boundary is True
        assert mixed.sigma_u == pytest.approx(math.exp(-6.0))

    def test_fixed_fit_has_no_boundary_flag(self):
        fit = fit_logistic(two_by_two(36, 73, 64, 19))
        assert fit.boundary is None
        assert "boundary" not in fit.to_dict()

    def test_unconverged_fit_raises(self, monkeypatch):
        # two Newton steps end short of the optimum (predicted decrease about
        # 2e-3); the fit must not come back labelled converged
        monkeypatch.setattr(stats, "NEWTON_MAX_ITER", 2)
        with pytest.raises(DataError, match="did not converge"):
            fit_logistic_random_intercept(gen_simpson(0))

    def test_unconverged_fit_names_its_newton_iterations(self, monkeypatch):
        monkeypatch.setattr(stats, "NEWTON_MAX_ITER", 2)
        with pytest.raises(DataError, match=r"did not converge in 2 Newton "
                                            r"iterations: predicted decrease \S+ at"):
            fit_logistic_random_intercept(gen_simpson(0))

    def test_singular_wald_hessian_raises(self, monkeypatch):
        # sigma sits on its bound here, so the convergence test holds log
        # sigma fixed and passes; the Wald covariance needs the full inverse
        hessian = stats._hessian

        def singular(self, theta):
            hess = hessian(self, theta)
            hess[-1, :] = hess[:, -1] = 0.0
            return hess

        monkeypatch.setattr(stats, "_hessian", singular)
        with pytest.raises(DataError, match="singular"):
            fit_logistic_random_intercept(gen_interview_margins(0))

    def test_one_stacked_call_per_accepted_point(self, monkeypatch):
        # each Newton point arrives with its gradient and Hessian from one
        # call of 2(p + 1) + 1 rows; the interview rows in the first order
        # that bench/workloads.py fits reach the optimum in 1 step, to the
        # sigma bound at the fixed-effects fit
        rng = np.random.default_rng(0)
        rows = gen_interview_margins(0)
        ids = sorted({o.group for o in rows})
        relabel = dict(zip(ids, (f"r{i:02d}" for i in rng.permutation(len(ids)))))
        rows = [rows[i] for i in rng.permutation(len(rows))]
        columns = {"id": [relabel[o.group] for o in rows],
                   "online": [o.response for o in rows]}
        columns.update({k: [o.covariates[k] for o in rows] for k in ("campus", "age")})
        calls = []
        nll_grad = _MarginalLikelihood.nll_grad

        def counted(self, theta):
            calls.append(len(np.atleast_2d(theta)))
            return nll_grad(self, theta)

        monkeypatch.setattr(_MarginalLikelihood, "nll_grad", counted)
        fit = fit_formula(parse_formula("online ~ campus + age + (1|id)"), columns)
        assert fit.n_iter == 1
        assert calls == [2 * (3 + 1) + 1] * 2

    @pytest.mark.parametrize("seed", [2, 19])
    def test_a_halved_step_is_one_stacked_call(self, seed, monkeypatch):
        # of the fits of gen_simpson(0-29) and gen_interview_margins(0-19),
        # these two halve a Newton step; the halved point is scored like any
        # other, with its 2(p + 1) difference neighbours in one call
        calls = []
        nll_grad = _MarginalLikelihood.nll_grad

        def counted(self, theta):
            calls.append(len(np.atleast_2d(theta)))
            return nll_grad(self, theta)

        monkeypatch.setattr(_MarginalLikelihood, "nll_grad", counted)
        fit = fit_logistic_random_intercept(gen_interview_margins(seed))
        assert fit.boundary is False  # no bound probe, so a call was a halving
        assert len(calls) > fit.n_iter + 1
        assert calls == [2 * (3 + 1) + 1] * len(calls)

    def test_no_bound_probe_where_the_score_rules_it_out(self, monkeypatch):
        # Simpson's zero-variance score is positive, so sigma = 0 cannot be
        # the optimum: no call evaluates the bound, and each of the 5
        # accepted points costs one call of 2(p + 1) + 1 rows
        centres = []
        nll_grad = _MarginalLikelihood.nll_grad

        def counted(self, theta):
            centres.append(np.atleast_2d(theta)[0])
            assert len(np.atleast_2d(theta)) == 2 * (2 + 1) + 1
            return nll_grad(self, theta)

        monkeypatch.setattr(_MarginalLikelihood, "nll_grad", counted)
        fit_logistic_random_intercept(gen_simpson(0))
        assert len(centres) == 5
        assert all(theta[-1] > stats.LOG_SIGMA_BOUNDS[0] for theta in centres)

    @pytest.mark.parametrize("data, seeds, on_bound", [
        ("interview", range(20), [0, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14, 16]),
        ("simpson", range(30), []),
    ])
    def test_boundary_fits_are_the_fixed_fit(self, data, seeds, on_bound):
        # the seeds of test_newton_fits_are_optimal: a fit ends on the sigma
        # bound exactly where the zero-variance score is negative, and then
        # returns the fixed-effects coefficients
        gen = gen_simpson if data == "simpson" else gen_interview_margins
        for seed in seeds:
            obs = gen(seed)
            model, X, y, _ = _likelihood(obs)
            fixed = fit_logistic([Observation(o.response, o.covariates) for o in obs])
            beta0 = np.array([c.estimate for c in fixed.coefficients.values()])
            score = model.zero_variance_score(beta0)
            if seed not in on_bound:
                assert score > 0, seed
                continue
            assert score < 0, seed
            mixed = fit_logistic_random_intercept(obs)
            assert mixed.boundary, seed
            assert np.abs([c.estimate for c in mixed.coefficients.values()]
                          - beta0).max() <= 1e-12, seed

    def test_fits_in_one_process_share_no_state(self):
        # each fit's mode searches start from its own points only
        first = fit_logistic_random_intercept(gen_simpson(0)).to_dict()
        fit_logistic_random_intercept(gen_interview_margins(0))
        assert fit_logistic_random_intercept(gen_simpson(0)).to_dict() == first

    def test_simpson_fit_regression_guard(self):
        fit = fit_logistic_random_intercept(gen_simpson(0))
        assert fit.log_likelihood == pytest.approx(-62.13186060, abs=1e-7)
        assert fit.coef("(Intercept)").estimate == pytest.approx(-2.964078, abs=1e-5)
        assert fit.coef("age").estimate == pytest.approx(0.1444552, abs=1e-5)
        assert fit.sigma_u == pytest.approx(1.094678, abs=1e-5)
        assert fit.boundary is False
        assert fit.to_dict()["boundary"] is False

    def test_row_and_id_order_do_not_move_the_fit(self):
        rows = gen_interview_margins(0)
        ids = sorted({o.group for o in rows})
        rng = np.random.default_rng(5)
        betas = []
        for _ in range(3):
            relabel = dict(zip(ids, (f"r{i:02d}" for i in rng.permutation(len(ids)))))
            shuffled = [Observation(rows[i].response, rows[i].covariates,
                                    relabel[rows[i].group])
                        for i in rng.permutation(len(rows))]
            fit = fit_logistic_random_intercept(shuffled)
            betas.append([c.estimate for c in fit.coefficients.values()])
        assert np.max(np.abs(np.array(betas) - betas[0])) <= 1e-8

    @pytest.mark.parametrize("data, seeds, on_bound", [
        ("interview", range(20), [0, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14, 16]),
        ("simpson", range(30), []),
    ])
    def test_newton_fits_are_optimal(self, data, seeds, on_bound):
        # no step of +-1e-3 in any coordinate of (beta, log sigma) that stays
        # inside the box may raise the log-likelihood of a returned fit
        gen = gen_simpson if data == "simpson" else gen_interview_margins
        low, high = stats.LOG_SIGMA_BOUNDS
        bound = []
        for seed in seeds:
            obs = gen(seed)
            fit = fit_logistic_random_intercept(obs)
            assert fit.n_iter <= 10, seed
            if fit.boundary:
                bound.append(seed)
            model = _likelihood(obs)[0]
            theta = np.append([c.estimate for c in fit.coefficients.values()],
                              math.log(fit.sigma_u))
            steps = 1e-3 * np.eye(len(theta))
            probes = theta + np.concatenate([steps, -steps])
            nll, _ = model.nll_grad(probes[(low <= probes[:, -1]) & (probes[:, -1] <= high)])
            assert np.max(-nll) <= fit.log_likelihood, seed
        assert bound == on_bound


def _likelihood(obs):
    X, _ = design_matrix({k: [o.covariates[k] for o in obs]
                          for k in obs[0].covariates}, len(obs))
    y = np.array([o.response for o in obs], dtype=float)
    groups = [o.group for o in obs]
    return _MarginalLikelihood(X, y, groups, 15), X, y, groups


def _grid_loglik(X, y, groups, theta):
    """Marginal log-likelihood by a Riemann sum over a fine grid of
    z = u / sigma, independent of the quadrature and the mode search."""
    p = X.shape[1]
    sigma = math.exp(theta[p])
    z = np.linspace(-30.0, 30.0, 30001)
    total = 0.0
    for g in sorted(set(groups)):
        rows = np.array([h == g for h in groups])
        t = (X[rows] @ theta[:p])[:, None] + sigma * z
        cond = np.sum(y[rows][:, None] * t - np.logaddexp(0.0, t), axis=0)
        total += (logsumexp(cond - 0.5 * z * z) + math.log(z[1] - z[0])
                  - 0.5 * math.log(2 * math.pi))
    return total


# Simpson points with |X beta| large, where an undamped mode search runs away
FAR_FROM_OPTIMUM = [(7.8, -0.33, 0.65), (-9.0, 0.1, 1.2)]


class TestMarginalLikelihood:
    @pytest.mark.parametrize("theta", FAR_FROM_OPTIMUM)
    def test_matches_grid_integral_far_from_optimum(self, theta):
        # |X beta| is large here; an undamped mode search runs away and the
        # objective was off by hundreds to thousands of log-units
        model, X, y, groups = _likelihood(gen_simpson(1))
        theta = np.array(theta)
        nll, _ = model.nll_grad(theta)
        assert -nll == pytest.approx(_grid_loglik(X, y, groups, theta), abs=1e-6)

    @pytest.mark.parametrize("data", ["simpson", "interview"])
    @pytest.mark.parametrize("log_sigma", [math.log(0.7), 1.5, -6.0])
    def test_gradient_matches_central_differences(self, data, log_sigma):
        obs = gen_simpson(1) if data == "simpson" else gen_interview_margins(0)
        model, X, _, _ = _likelihood(obs)
        rng = np.random.default_rng(2)
        theta = np.append(rng.normal(scale=0.3, size=X.shape[1]), log_sigma)
        _, grad = model.nll_grad(theta)

        def nll(t):
            return model.nll_grad(t)[0]

        # five-point central differences; log sigma takes a wider step, since
        # at the bound its derivative is ~1e-3 and rounding would swamp it
        for j in range(len(theta)):
            e = np.zeros(len(theta))
            e[j] = 1e-2 if j == len(theta) - 1 else 1e-4
            numeric = (-nll(theta + 2 * e) + 8 * nll(theta + e)
                       - 8 * nll(theta - e) + nll(theta - 2 * e)) / (12 * e[j])
            assert abs(grad[j] - numeric) <= 1e-6 * abs(numeric)


def _random_points(X, seed):
    """Two points for each log sigma, with |X beta| of order 1."""
    rng = np.random.default_rng(seed)
    return np.array([
        np.append(rng.normal(scale=0.3, size=X.shape[1]) / np.abs(X).max(axis=0),
                  log_sigma)
        for log_sigma in (-6.0, math.log(0.7), 1.5) for _ in range(2)])


class TestZeroVarianceScore:
    @pytest.mark.parametrize("data, seed", [
        ("interview", 0), ("interview", 1), ("interview", 12), ("interview", 16),
        ("simpson", 0),
    ])
    @pytest.mark.parametrize("log_sigma", [-6.0, -8.0])
    def test_matches_the_log_sigma_gradient_near_zero(self, data, seed, log_sigma):
        # the score is 2 d loglik / d sigma^2 at sigma = 0, so near 0 the
        # objective's derivative in log sigma is -sigma^2 times it; these
        # seeds give both signs and the smallest |score| of the interview set
        gen = gen_simpson if data == "simpson" else gen_interview_margins
        model, X, y, _ = _likelihood(gen(seed))
        beta0 = fit_logistic_stack(X, y[None], ["x"] * X.shape[1])[0][0]
        score = model.zero_variance_score(beta0)
        _, grad = model.nll_grad(np.append(beta0, log_sigma))
        assert grad[-1] == pytest.approx(-math.exp(2 * log_sigma) * score, rel=1e-3)


class TestStackedEvaluation:
    @pytest.mark.parametrize("data", ["simpson", "interview"])
    def test_each_row_matches_its_one_point_call(self, data):
        obs = gen_simpson(1) if data == "simpson" else gen_interview_margins(0)
        model, X, _, _ = _likelihood(obs)
        stack = _random_points(X, 3)
        nll, grad = model.nll_grad(stack)
        assert nll.shape == (len(stack),) and grad.shape == stack.shape
        for k, theta in enumerate(stack):
            one_nll, one_grad = model.nll_grad(theta)
            assert isinstance(one_nll, float) and one_grad.shape == theta.shape
            assert abs(nll[k] - one_nll) <= 1e-12 * abs(one_nll)
            assert np.max(np.abs(grad[k] - one_grad)) <= 1e-12 * np.max(np.abs(one_grad))

    @pytest.mark.parametrize("data", ["simpson", "interview"])
    def test_hessian_matches_one_coordinate_at_a_time(self, data):
        obs = gen_simpson(1) if data == "simpson" else gen_interview_margins(0)
        model, X, _, _ = _likelihood(obs)
        for theta in _random_points(X, 4):
            n = len(theta)
            hess = np.empty((n, n))
            for j in range(n):
                step = np.zeros(n)
                step[j] = 1e-5 * max(1.0, abs(theta[j]))
                hess[:, j] = (model.nll_grad(theta + step)[1]
                              - model.nll_grad(theta - step)[1]) / (2 * step[j])
            hess = 0.5 * (hess + hess.T)
            assert np.max(np.abs(model.nll_grad_hess(theta)[2] - hess)) <= 1e-9

    @pytest.mark.parametrize("data", ["simpson", "interview"])
    def test_warm_mode_search_matches_the_cold_one(self, data):
        # a fit starts each search from the modes of the point it accepted
        # last; from any other point's modes, the search ends where it does
        # from zeros
        obs = gen_simpson(1) if data == "simpson" else gen_interview_margins(0)
        model, X, _, _ = _likelihood(obs)
        points = _random_points(X, 5)
        if data == "simpson":
            points = np.vstack([points, FAR_FROM_OPTIMUM])
        eta = np.einsum("np,kp->nk", model.X, points[:, :-1])
        sigma2 = np.exp(2.0 * points[:, -1])
        cold = model.modes(eta, sigma2)
        for start in cold.T:
            model.u_start = start
            assert np.max(np.abs(model.modes(eta, sigma2) - cold)) <= 1e-12


class TestFitFormula:
    @pytest.mark.parametrize("generate, text, adapter", [
        (gen_confound, "response ~ campus + age", fit_logistic),
        (gen_simpson, "response ~ age + (1|school)", fit_logistic_random_intercept),
    ])
    def test_columns_fit_as_the_observation_adapter(self, generate, text, adapter):
        obs = generate(0)
        columns = {k: [o.covariates[k] for o in obs] for k in obs[0].covariates}
        columns.update(response=[o.response for o in obs],
                       school=[o.group for o in obs])
        assert (fit_formula(parse_formula(text), columns).to_dict()
                == adapter(obs).to_dict())

    def test_response_other_than_0_or_1_rejected(self):
        columns = {"y": [0, 1, 2, 1], "x": [0.0, 1.0, 2.0, 3.0]}
        with pytest.raises(DataError, match="'y' must be 0 or 1"):
            fit_formula(parse_formula("y ~ x"), columns)


class FitResultCalls(ast.NodeVisitor):
    """The innermost enclosing function (None at module level) of each call
    of ``FitResult``, by name or as an attribute."""

    def __init__(self):
        self.functions, self.found = [None], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if getattr(f, "id", None) == "FitResult" or getattr(f, "attr", None) == "FitResult":
            self.found.append(self.functions[-1])
        self.generic_visit(node)


def _fit_result_calls(source):
    calls = FitResultCalls()
    calls.visit(ast.parse(source))
    return calls.found


def test_only_fit_formula_builds_a_fit_result():
    found = []
    for path in sorted(Path(quantitize.__file__).parent.glob("*.py")):
        found += [(path.stem, where)
                  for where in _fit_result_calls(path.read_text(encoding="utf-8"))]
    assert found == [("stats", "fit_formula")]


def test_the_fit_result_visitor_sees_every_call():
    source = ("r = FitResult({}, 0.0, True, 1, 2)\n"
              "def f():\n"
              "    def g():\n"
              "        return stats.FitResult(**d)\n"
              "    return FitResult\n")  # a reference, not a call
    assert _fit_result_calls(source) == [None, "g"]


class TestParseFormula:
    def test_fixed_only(self):
        f = parse_formula("online ~ campus + age")
        assert f.response == "online"
        assert f.covariates == ("campus", "age")
        assert f.group is None

    def test_random_intercept(self):
        f = parse_formula("online ~ campus + age + (1|id)")
        assert f.group == "id"
        assert f.mixed

    def test_two_random_terms_rejected(self):
        with pytest.raises(ConfigError):
            parse_formula("y ~ x + (1|a) + (1|b)")

    def test_junk_rejected(self):
        with pytest.raises(ConfigError):
            parse_formula("y ~ x*z")
        with pytest.raises(ConfigError):
            parse_formula("no tilde here")
