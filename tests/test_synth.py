import math

import pytest

from quantitize import (
    fit_logistic,
    fit_logistic_random_intercept,
    gen_confound,
    gen_interview_margins,
    gen_simpson,
)
from quantitize import Observation


def restrict(observations, keys):
    """Keep only the named covariates, as when fitting a smaller model."""
    return [
        Observation(o.response, {k: o.covariates[k] for k in keys}, group=o.group)
        for o in observations
    ]


class TestInterviewMargins:
    def test_row_and_respondent_counts(self):
        obs = gen_interview_margins(0)
        assert len(obs) == 192
        assert len({o.group for o in obs}) == 53

    def test_exact_margins(self):
        obs = gen_interview_margins(5)
        off = [o for o in obs if o.covariates["campus"] == 0.0]
        on = [o for o in obs if o.covariates["campus"] == 1.0]
        assert (len(off), sum(o.response for o in off)) == (109, 73)
        assert (len(on), sum(o.response for o in on)) == (83, 19)

    def test_logistic_coefficient_matches_closed_form(self):
        fit = fit_logistic(restrict(gen_interview_margins(0), ["campus"]))
        expected = math.log((19 / 64) / (73 / 36))
        assert fit.coef("campus").estimate == pytest.approx(expected, abs=1e-6)

    def test_margins_invariant_across_seeds(self):
        for seed in (1, 2, 77):
            fit = fit_logistic(restrict(gen_interview_margins(seed), ["campus"]))
            assert fit.coef("campus").estimate == pytest.approx(
                math.log((19 / 64) / (73 / 36)), abs=1e-6
            )

    def test_same_seed_reproduces(self):
        assert gen_interview_margins(3) == gen_interview_margins(3)

    def test_different_seed_permutes_but_preserves_counts(self):
        a = gen_interview_margins(1)
        b = gen_interview_margins(2)
        assert a != b
        assert len(a) == len(b)


class TestSimpson:
    def test_shape_and_groups(self):
        obs = gen_simpson(0)
        assert len(obs) == 120
        assert {o.group for o in obs} == {"school1", "school2", "school3"}

    def test_pooled_slope_is_spurious(self):
        fit = fit_logistic(
            [type(o)(o.response, o.covariates) for o in gen_simpson(0)]
        )
        assert fit.coef("age").p_value < 0.001

    def test_mixed_model_removes_the_artifact(self):
        fit = fit_logistic_random_intercept(gen_simpson(0))
        assert fit.coef("age").p_value > 0.05

    def test_negative_control_real_effect_survives(self):
        fit = fit_logistic_random_intercept(gen_simpson(0, within_age_effect=0.5))
        assert fit.coef("age").p_value < 0.05

    def test_reproducible(self):
        assert gen_simpson(4) == gen_simpson(4)


class TestConfound:
    def test_shape(self):
        obs = gen_confound(0)
        assert len(obs) == 300
        assert {o.covariates["campus"] for o in obs} == {0.0, 1.0}

    def test_campus_only_model_shows_spurious_effect(self):
        obs = gen_confound(0)
        fit = fit_logistic(restrict(obs, ["campus"]))
        assert fit.coef("campus").p_value < 1e-4

    def test_age_adjustment_absorbs_it(self):
        obs = gen_confound(0)
        fit = fit_logistic(restrict(obs, ["campus", "age"]))
        assert fit.coef("campus").p_value > 0.1
        assert fit.coef("age").estimate > 0

    def test_reproducible(self):
        assert gen_confound(8) == gen_confound(8)
