import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from quantitize import (
    BootstrapConfig,
    ConfigError,
    ConfusionMatrix,
    Corpus,
    DataError,
    ErrorModel,
    Unit,
    bootstrap_ci,
    error_model_from_confusion,
    fit_formula,
    gen_confound,
    gen_simpson,
    parse_formula,
    proportion_of,
    simulate_replicate,
)
from quantitize import boot
from quantitize.boot import parse_statistic, yearly_proportion_of
from quantitize.stats import design_matrix, fit_logistic_stack


def parse_over(spec, labels, units):
    """``parse_statistic`` with one label per unit of ``units``, in order."""
    return parse_statistic(spec, labels, Corpus(units), range(len(units)))


def identity_model(labels=("A", "B")):
    return ErrorModel(tuple(labels), np.eye(len(labels)))


class TestErrorModel:
    def test_row_normalization(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[9, 1], [1, 9]]))
        em = error_model_from_confusion(cm)
        assert em.dists.tolist() == [[0.9, 0.1], [0.1, 0.9]]

    def test_column_conditional_transposes(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[8, 2], [4, 6]]))
        em = error_model_from_confusion(cm, mode="column_conditional")
        # column A holds 8 true A and 4 true B -> 8/12, 4/12
        assert em.dists[0].tolist() == pytest.approx([8 / 12, 4 / 12])

    def test_zero_row_falls_back_to_identity(self, caplog):
        cm = ConfusionMatrix(("A", "B"), np.array([[0, 0], [2, 8]]))
        with caplog.at_level("WARNING"):
            em = error_model_from_confusion(cm)
        assert em.dists[0].tolist() == [1.0, 0.0]
        assert "no counts" in caplog.text

    def test_rows_must_sum_to_one(self):
        with pytest.raises(DataError):
            ErrorModel(("A", "B"), np.array([[0.5, 0.4], [0.0, 1.0]]))

    def test_ragged_rows_are_not_a_grid(self):
        with pytest.raises(DataError, match="needs a 2x2 grid"):
            ErrorModel(("A", "B"), [[1.0, 0.0], [1.0]])

    def test_unknown_mode_rejected(self):
        cm = ConfusionMatrix(("A", "B"), np.eye(2, dtype=int))
        with pytest.raises(ConfigError):
            error_model_from_confusion(cm, mode="diagonal")


class TestSimulateReplicate:
    def test_identity_returns_input(self):
        codes = np.array([0, 1, 0, 0, 1])
        out = simulate_replicate(codes, identity_model(),
                                 np.random.default_rng(0), 1)[0]
        assert out.tolist() == codes.tolist()

    def test_point_mass_maps_everything(self):
        em = ErrorModel(("A", "B"), np.array([[0.0, 1.0], [0.0, 1.0]]))
        out = simulate_replicate(np.array([0, 1, 0]), em,
                                 np.random.default_rng(0), 1)[0]
        assert out.tolist() == [1, 1, 1]

    def test_flip_rate_within_three_sigma(self):
        # 10000 units with a 10% flip probability: binomial oracle
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))
        n = 10000
        out = simulate_replicate(np.zeros(n, dtype=np.intp), em,
                                 np.random.default_rng(42), 1)[0]
        flips = np.count_nonzero(out == 1)
        sd = math.sqrt(n * 0.9 * 0.1)
        assert abs(flips - n * 0.1) < 3 * sd

    def test_unknown_label_rejected(self):
        # labels are encoded before any replicate is drawn
        with pytest.raises(DataError, match="C"):
            bootstrap_ci(["A", "C"], {}, identity_model(), proportion_of("A"),
                         BootstrapConfig(n_replicates=2))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_draws_stay_in_label_set(self, seed):
        em = ErrorModel(("A", "B", "C"),
                        np.array([[0.2, 0.3, 0.5],
                                  [1.0, 0.0, 0.0],
                                  [0.0, 0.5, 0.5]]))
        out = simulate_replicate(np.tile([0, 1, 2], 7), em,
                                 np.random.default_rng(seed), 1)[0]
        assert set(out.tolist()) <= {0, 1, 2}
        assert len(out) == 21


    def test_a_zero_probability_label_is_never_drawn(self):
        # a draw that sits exactly on a bound takes the label above it
        em = ErrorModel(("A", "B"), np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert em.redraw(np.array([0]), np.array([[0.0]])).tolist() == [[1]]
        codes = np.arange(4)
        for u in (0.0, 0.5, 1 - 2.0**-53):
            sim = identity_model("ABCD").redraw(codes, np.full((1, 4), u))
            assert sim.tolist() == [codes.tolist()], u

    def test_matches_the_three_axis_reference(self):
        # the redraw counts the normalised cumulative bounds at or below each
        # draw: the same codes as comparing every bound at once
        def reference(codes, em, u):
            cum = np.cumsum(em.dists, axis=1)
            cum = (cum / cum[:, -1:])[codes]
            return (u[:, :, None] >= cum).sum(axis=2)

        gen = np.random.default_rng(5)
        for k in (2, 3, 4, 5):
            dists = gen.random((k, k)) * (gen.random((k, k)) > 0.4)
            dists[:, -1] += 1e-3
            dists /= dists.sum(axis=1, keepdims=True)
            em = ErrorModel(tuple("ABCDE"[:k]), dists)
            codes = gen.integers(0, k, 500)
            new = simulate_replicate(codes, em, np.random.default_rng(k), 3)
            ref = reference(codes, em, np.random.default_rng(k).random((3, 500)))
            assert new.dtype == ref.dtype and (new == ref).all()

        # row A sums to just below 1, so its bounds are normalised; draws on
        # a bound of rows B and C take the label above it
        em = ErrorModel(("A", "B", "C"), np.array([[0.25, 0.5, 0.25 - 6e-10],
                                                   [0.0, 0.0, 1.0],
                                                   [0.5, 0.5, 0.0]]))
        codes = np.array([0, 0, 0, 0, 1, 1, 2, 2, 2])
        u = np.array([[0.25, 0.75, 1 - 1e-12, 0.0, 0.0, 0.5, 0.5, 0.999, 0.25]])
        new = em.redraw(codes, u)
        ref = reference(codes, em, u)
        assert new.tolist() == ref.tolist() == [[0, 1, 2, 0, 2, 2, 1, 1, 0]]

    @pytest.mark.parametrize("rows, n", [(8, 2000), (3, 7), (1, 5), (16, 1000)])
    def test_one_draw_is_the_rows_drawn_one_at_a_time(self, rows, n):
        # rng.random((rows, n)) takes the doubles of rows calls of
        # rng.random(n), in order, and leaves the generator where they do
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.2, 0.8]]))
        codes = np.arange(n) % 2
        rng, one_at_a_time = np.random.default_rng(rows), np.random.default_rng(rows)
        sim = simulate_replicate(codes, em, rng, rows)
        want = em.redraw(codes, np.stack([one_at_a_time.random(n) for _ in range(rows)]))
        assert sim.shape == (rows, n) and (sim == want).all()
        assert rng.random() == one_at_a_time.random()


class TestYearlyProportionOf:
    @staticmethod
    def table(labels, years):
        """Every label's per-year fraction, as {year: {label: fraction}}."""
        names = tuple(sorted(set(labels)))
        codes = np.array([names.index(l) for l in labels], dtype=np.intp)
        out = {}
        for label in names:
            stats = yearly_proportion_of(label, years)(codes, names)
            for year in sorted(set(years)):
                out.setdefault(year, {})[label] = stats[f"prop_{label}_{year}"]
        return out

    def test_single_year_even_split(self):
        table = self.table(["A", "A", "B", "B"], [1980] * 4)
        assert table == {1980: {"A": 0.5, "B": 0.5}}

    def test_rows_sum_to_one(self):
        table = self.table(["A", "B", "C", "A"], [1980, 1980, 1981, 1981])
        for year, row in table.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    def test_hand_count(self):
        table = self.table(["A", "A", "A", "B"], [1990] * 4)
        assert table[1990] == {"A": 0.75, "B": 0.25}

    def test_years_counted_once_per_column(self, monkeypatch):
        calls = []
        unique = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        em = ErrorModel(("A", "B"), np.array([[0.8, 0.2], [0.2, 0.8]]))
        years = np.array([1990, 1991] * 10)
        bootstrap_ci(["A", "B", "B", "A"] * 5, {"year": years}, em,
                     yearly_proportion_of("A", years),
                     BootstrapConfig(n_replicates=50))
        assert len(calls) == 1

    def test_shares_are_the_exact_quotients_of_the_counts(self):
        rng = np.random.default_rng(7)
        years = rng.integers(1900, 1920, 500)
        codes = rng.choice(3, (6, 500))  # indices into ("A", "B", "C")
        out = yearly_proportion_of("A", years)(codes, ("A", "B", "C"))
        assert len(out) == 20
        for year in np.unique(years):
            in_year = years == year
            want = (np.count_nonzero(codes[:, in_year] == 0, axis=1)
                    / np.count_nonzero(in_year))
            assert out[f"prop_A_{year}"].tolist() == want.tolist()


class TestParseStatistic:
    @staticmethod
    def units(n=40):
        """Units that carry year, age and school both as groups and, with
        other values, as metadata."""
        rng = np.random.default_rng(3)
        ages = rng.normal(40, 9, n)
        return [Unit(f"u{i}", "text",
                     groups={"year": str(2001 + i % 2), "age": repr(float(ages[i])),
                             "school": f"g{i % 3}"},
                     meta={"year": 1990, "age": 0.0, "school": "m"})
                for i in range(n)]

    @pytest.mark.parametrize("spec, reads, names", [
        ("proportion:A", {}, ["prop_A"]),
        ("yearly_proportions:A", {"year": int}, ["prop_A_2001", "prop_A_2002"]),
        ("logistic:A ~ age", {"age": float}, ["beta_age", "p_age"]),
        ("mixed:A ~ age + (1|school)", {"age": float, "school": str},
         ["beta_age", "p_age"]),
    ], ids=["proportion", "yearly", "logistic", "mixed"])
    def test_groups_take_precedence_over_meta(self, spec, reads, names):
        units = self.units()
        plugin, columns = parse_over(spec, ("A", "B"), units)
        assert list(columns) == list(reads)
        for name, convert in reads.items():
            assert columns[name].tolist() == [convert(u.groups[name]) for u in units]
        codes = np.random.default_rng(5).choice(2, len(units))
        assert list(plugin(codes, ("A", "B"))) == names

    @pytest.mark.parametrize("spec, label", [
        ("proportion:a", "a"),
        ("yearly_proportions:C", "C"),
        ("logistic:a ~ age", "a"),
        ("mixed:C ~ age + (1|school)", "C"),
    ], ids=["proportion", "yearly", "logistic", "mixed"])
    def test_label_outside_the_error_model_is_a_config_error(self, spec, label):
        with pytest.raises(ConfigError) as exc:
            parse_over(spec, ("A", "B"), self.units())
        assert str(exc.value) == (
            f"statistic {spec!r} names label {label!r}, which is not one of "
            "the error model's labels ['A', 'B']")

    @pytest.mark.parametrize("year", [1990, 1990.0, "1990"])
    def test_whole_years_are_read(self, year):
        units = [Unit("a", "text", meta={"year": year})]
        _, columns = parse_over("yearly_proportions:A", ("A", "B"), units)
        assert columns["year"].tolist() == [1990]

    @pytest.mark.parametrize("year", [1990.7, True, float("inf"), None])
    def test_year_that_is_no_whole_number_is_a_data_error(self, year):
        units = [Unit("a", "text", meta={"year": year})]
        with pytest.raises(DataError) as exc:
            parse_over("yearly_proportions:A", ("A", "B"), units)
        assert str(exc.value) == "unit 'a' has no usable value for covariate 'year'"

    def test_groups_that_are_numbers_are_read_as_strings(self):
        units = [Unit(f"u{i}", "text", meta={"age": 30.0 + i, "school": school})
                 for i, school in enumerate([2.5, "g", 7, 2.5])]
        _, columns = parse_over("mixed:A ~ age + (1|school)", ("A", "B"), units)
        assert columns["school"].tolist() == ["2.5", "g", "7", "2.5"]

    @pytest.mark.parametrize("school", [None, True, False])
    def test_group_that_is_null_or_a_bool_is_a_data_error(self, school):
        units = [Unit("a", "text", meta={"age": 30.0, "school": "g"}),
                 Unit("b", "text", meta={"age": 40.0, "school": school})]
        with pytest.raises(DataError) as exc:
            parse_over("mixed:A ~ age + (1|school)", ("A", "B"), units)
        assert str(exc.value) == "unit 'b' has no usable value for covariate 'school'"

    @pytest.mark.parametrize("school", [["g"], {"g": 1}])
    def test_group_that_is_a_list_or_an_object_is_a_data_error(self, school):
        # read as the corpus reads a group: a string, or a number written as one
        units = [Unit("a", "text", meta={"age": 30.0, "school": "g"}),
                 Unit("b", "text", meta={"age": 40.0, "school": school})]
        with pytest.raises(DataError) as exc:
            parse_over("mixed:A ~ age + (1|school)", ("A", "B"), units)
        assert str(exc.value) == "unit 'b' has no usable value for covariate 'school'"


class TestBootstrapCi:
    def test_identity_model_gives_zero_width(self):
        labels = ["A"] * 30 + ["B"] * 70
        result = bootstrap_ci(labels, {}, identity_model(),
                              proportion_of("A"),
                              BootstrapConfig(n_replicates=200, seed=1))
        s = result.statistics["prop_A"]
        assert s.point == 0.3
        assert s.sigma == 0.0
        assert s.ci_low == s.ci_high == 0.3

    def test_analytic_sigma_for_balanced_flip_model(self):
        # 50/50 labels with a symmetric 0.9/0.1 error model: each replicate
        # count of A is Binomial(100, 0.5), so sigma of the proportion is
        # sqrt(0.5 * 0.5 / 100) * sqrt(2*0.9*0.1/0.25)... more simply, every
        # unit flips independently with p=0.1 and flips cancel in expectation:
        # var = (0.1*0.9 + 0.1*0.9) * 50 / 100^2 -> sigma = 0.03 exactly.
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))
        labels = ["A"] * 50 + ["B"] * 50
        result = bootstrap_ci(labels, {}, em, proportion_of("A"),
                              BootstrapConfig(n_replicates=10000, seed=0))
        assert result.statistics["prop_A"].sigma == pytest.approx(0.03, abs=0.003)

    def test_sigma_monotone_in_error_rate(self):
        labels = ["A"] * 50 + ["B"] * 50
        sigmas = []
        for eps in (0.0, 0.1, 0.25, 0.5):
            em = ErrorModel(
                ("A", "B"), np.array([[1 - eps, eps], [eps, 1 - eps]])
            )
            result = bootstrap_ci(labels, {}, em, proportion_of("A"),
                                  BootstrapConfig(n_replicates=2000, seed=3))
            sigmas.append(result.statistics["prop_A"].sigma)
        assert sigmas == sorted(sigmas)
        assert sigmas[0] == 0.0

    def test_same_seed_reproduces_exactly(self):
        em = ErrorModel(("A", "B"), np.array([[0.8, 0.2], [0.3, 0.7]]))
        labels = ["A", "B"] * 40
        cfg = BootstrapConfig(n_replicates=300, seed=9)
        a = bootstrap_ci(labels, {}, em, proportion_of("A"), cfg)
        b = bootstrap_ci(labels, {}, em, proportion_of("A"), cfg)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self):
        em = ErrorModel(("A", "B"), np.array([[0.8, 0.2], [0.3, 0.7]]))
        labels = ["A", "B"] * 40
        a = bootstrap_ci(labels, {}, em, proportion_of("A"),
                         BootstrapConfig(n_replicates=300, seed=9))
        b = bootstrap_ci(labels, {}, em, proportion_of("A"),
                         BootstrapConfig(n_replicates=300, seed=10))
        assert a.statistics["prop_A"].sigma != b.statistics["prop_A"].sigma

    def test_normal_ci_centered_on_point(self):
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))
        labels = ["A"] * 70 + ["B"] * 30
        result = bootstrap_ci(labels, {}, em, proportion_of("A"),
                              BootstrapConfig(n_replicates=500, seed=2))
        s = result.statistics["prop_A"]
        assert s.ci_low == pytest.approx(s.point - 1.96 * s.sigma)
        assert s.ci_high == pytest.approx(s.point + 1.96 * s.sigma)

    def test_normal_ci_of_probabilities_clipped_to_unit_interval(self):
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))
        labels = ["A"] + ["B"] * 99

        def plugin(codes, labels):
            share = np.count_nonzero(codes == 0, axis=-1) / codes.shape[-1]
            return {"p_A": share, "prop_B": 1 - share, "beta_A": share}

        result = bootstrap_ci(labels, {}, em, plugin,
                              BootstrapConfig(n_replicates=500, seed=2))
        p, prop, beta = (result.statistics[n] for n in ("p_A", "prop_B", "beta_A"))
        assert beta.ci_low < 0 and beta.ci_high < 1
        assert (p.ci_low, p.ci_high) == (0.0, beta.ci_high)
        assert prop.ci_low == pytest.approx(1 - beta.ci_high)
        assert prop.ci_high == 1.0

    def test_percentile_ci_brackets_the_mass(self):
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))
        labels = ["A"] * 70 + ["B"] * 30
        result = bootstrap_ci(
            labels, {}, em, proportion_of("A"),
            BootstrapConfig(n_replicates=2000, seed=2, ci_method="percentile"),
        )
        s = result.statistics["prop_A"]
        inside = ((result.replicates[:, 0] >= s.ci_low)
                  & (result.replicates[:, 0] <= s.ci_high)).mean()
        assert inside >= 0.95
        assert s.ci_low < s.point < s.ci_high

    def test_statistic_failure_names_replicate(self):
        em = ErrorModel(("A", "B"), np.array([[0.0, 1.0], [0.0, 1.0]]))

        def fragile(codes, labels):
            if not (codes == labels.index("A")).any():
                raise ValueError("boom")
            return {"stat": 0.0}

        with pytest.raises(DataError, match="replicate 0"):
            bootstrap_ci(["A", "B"], {}, em, fragile,
                         BootstrapConfig(n_replicates=5, seed=0))

    def test_count_statistic_failure_names_replicate(self):
        # a count-form plugin's failing replicate is named as a label
        # plugin's is: the first replicate with the fewest A, of one chunk
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))
        labels, config = ["A"] * 50 + ["B"] * 50, BootstrapConfig(n_replicates=300)
        shares = bootstrap_ci(labels, {}, em, proportion_of("A"), config).replicates
        counts_of_a = np.round(shares[:, 0] * 100)
        fewest = counts_of_a.min()
        failing = int(np.flatnonzero(counts_of_a == fewest)[0])

        class Fragile:
            cells = 0

            def of_counts(self, counts, labels):
                if (counts[..., 0, 0] == fewest).any():
                    raise ValueError("boom")
                return {"n_A": counts[..., 0, 0]}

        with pytest.raises(DataError) as exc:
            bootstrap_ci(labels, {}, em, Fragile(), config)
        assert str(exc.value) == f"statistic failed on replicate {failing}: boom"

    def test_covariate_length_must_match_labels(self):
        with pytest.raises(DataError, match="'age' has 3 values for 4 labels"):
            bootstrap_ci(["A", "B", "A", "B"], {"age": [30.0, 41.0, 25.0]},
                         identity_model(), proportion_of("A"),
                         BootstrapConfig(n_replicates=2))

    def test_too_few_replicates_rejected(self):
        with pytest.raises(ConfigError):
            BootstrapConfig(n_replicates=1)

    @pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
    def test_z_is_the_normal_quantile_of_the_level(self, level):
        z = BootstrapConfig(level=level).z
        if level == 0.95:
            assert z == 1.96  # the conventional value, kept exactly
        else:
            assert z == pytest.approx(ndtri(0.5 + level / 2), rel=1e-15, abs=0)

    def test_json_round_trip(self, tmp_path):
        result = bootstrap_ci(["A", "B"] * 10, {}, identity_model(),
                              proportion_of("A"),
                              BootstrapConfig(n_replicates=10, seed=0))
        result.to_json(tmp_path / "boot.json")
        import json
        data = json.loads((tmp_path / "boot.json").read_text())
        assert data["statistics"]["prop_A"]["point"] == 0.5
        assert data["config"]["n_replicates"] == 10


class TestReplicateStreams:
    DISTS = np.array([[0.7, 0.2, 0.1],
                      [0.15, 0.8, 0.05],
                      [0.3, 0.3, 0.4]])

    def test_label_path_replicate_r_starts_at_draw_r_times_n(self, monkeypatch):
        em = ErrorModel(("A", "B", "C"), self.DISTS)
        n = 50
        labels = np.random.default_rng(8).choice(em.labels, n).tolist()
        rows = []

        def plugin(codes, labels):  # a custom plugin gets label code rows
            rows.append(codes)
            return {"n_A": np.count_nonzero(codes == 0, axis=-1)}

        monkeypatch.setattr(boot, "CHUNK_CELLS", 7 * n)
        bootstrap_ci(labels, {}, em, plugin, BootstrapConfig(n_replicates=30, seed=11))
        point, *chunks = rows
        codes = np.array([em.labels.index(l) for l in labels])
        assert point.tolist() == codes.tolist()
        assert [len(c) for c in chunks] == [7, 7, 7, 7, 2]
        for r, row in enumerate(np.concatenate(chunks)):
            rng = np.random.default_rng(11)
            rng.bit_generator.advance(r * n)
            want = simulate_replicate(codes, em, rng, 1)[0]
            assert row.tolist() == want.tolist()

    def test_count_path_matches_the_analytic_moments(self):
        # cells of 1, 40 and 400 units; the 40-unit cell has no C
        em = ErrorModel(("A", "B", "C"), self.DISTS)
        rng = np.random.default_rng(12)
        observed = (["C"] + rng.choice(["A", "B"], 40).tolist()
                    + rng.choice(em.labels, 400).tolist())
        years = [1] + [2] * 40 + [3] * 400
        R = 4000
        result = bootstrap_ci(observed, {}, em, yearly_proportion_of("A", years),
                              BootstrapConfig(n_replicates=R, seed=5))
        codes = np.array([em.labels.index(l) for l in observed])
        for year in (1, 2, 3):
            p = em.dists[codes[np.array(years) == year], 0]  # P(A) of each unit
            n, var = len(p), p * (1 - p)
            mean, sigma = p.mean(), math.sqrt(var.sum()) / n
            # the fourth central moment of the count, a sum of Bernoullis,
            # gives the standard error of the replicate sigma
            mu4 = (var * (1 - 6 * var)).sum() / n**4 + 3 * sigma**4
            se_sigma = math.sqrt((mu4 - sigma**4) / R) / (2 * sigma)
            s = result.statistics[f"prop_A_{year}"]
            assert abs(s.replicate_mean - mean) < 5 * sigma / math.sqrt(R), year
            assert abs(s.sigma - sigma) < 5 * se_sigma, year

    def test_count_path_draws_in_bounded_chunks(self, monkeypatch):
        sizes, default_rng = [], np.random.default_rng

        class Recording:  # a generator that records each multinomial size
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def multinomial(self, n, pvals, size):
                sizes.append(size)
                return self.rng.multinomial(n, pvals, size)

        monkeypatch.setattr(np.random, "default_rng", Recording)
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.2, 0.8]]))
        bootstrap_ci(["A", "B"] * 50, {}, em, proportion_of("A"),
                     BootstrapConfig(n_replicates=10_000))
        assert len(sizes) > 1
        assert sum(size[0] for size in sizes) == 10_000
        assert max(math.prod(size) * 2 for size in sizes) <= boot.CHUNK_CELLS

    def test_count_path_takes_a_row_the_error_model_accepts(self):
        # the row sums to 1 within ErrorModel's 1e-9, not numpy's 1e-12
        em = ErrorModel(("A", "B", "C"), np.array([[0.3, 0.7 + 6e-10, 0.0],
                                                   [0.1, 0.8, 0.1],
                                                   [0.0, 0.5, 0.5]]))
        result = bootstrap_ci(["A", "B", "C"] * 10, {}, em, proportion_of("B"),
                              BootstrapConfig(n_replicates=50))
        assert result.statistics["prop_B"].sigma > 0


class TestChunks:
    @pytest.mark.parametrize("spec", ["proportion:A", "yearly_proportions:A",
                                      "logistic:A ~ age"])
    def test_chunk_size_does_not_change_a_byte(self, spec, tmp_path,
                                               monkeypatch):
        rng = np.random.default_rng(4)
        n = 60
        units = [Unit(f"u{i}", "text", meta={"year": 2000 + i % 3,
                                              "age": float(rng.normal(40, 9))})
                 for i in range(n)]
        labels = rng.choice(["A", "B", "C"], n).tolist()
        em = ErrorModel(("A", "B", "C"), np.array([[0.8, 0.1, 0.1],
                                                   [0.1, 0.8, 0.1],
                                                   [0.2, 0.2, 0.6]]))
        written = set()
        for rows in (1, 7, 30):  # 30 replicates: the last chunk of 7 has 2
            monkeypatch.setattr(boot, "CHUNK_CELLS", rows * n)
            plugin, columns = parse_over(spec, em.labels, units)
            result = bootstrap_ci(labels, columns, em, plugin,
                                  BootstrapConfig(n_replicates=30, seed=2))
            result.to_json(tmp_path / "boot.json")
            result.replicates_to_csv(tmp_path / "replicates.csv")
            written.add((tmp_path / "boot.json").read_bytes()
                        + (tmp_path / "replicates.csv").read_bytes())
        assert len(written) == 1

    def test_mixed_replicates_are_the_fits_of_their_labels(self):
        # the plugin fits each row on the design it built once; that is the
        # fit of fit_formula on the row's labels, bit for bit. Replicate 224
        # of seed 0 halves a Newton step
        obs = gen_simpson(0)
        units = [Unit(f"u{i}", "text", groups={"school": o.group},
                      meta={"age": o.covariates["age"]}) for i, o in enumerate(obs)]
        em = ErrorModel(("no", "yes"), np.array([[0.9, 0.1], [0.1, 0.9]]))
        spec = "yes ~ age + (1|school)"
        plugin, columns = parse_over(f"mixed:{spec}", em.labels, units)
        codes = np.array([o.response for o in obs])
        sim = simulate_replicate(codes, em, np.random.default_rng(0), 225)[[0, 1, 224]]
        stat = plugin(sim, em.labels)
        for r, row in enumerate(sim):
            c = fit_formula(parse_formula(spec), {**columns, "yes": row}).coef("age")
            assert (stat["beta_age"][r], stat["p_age"][r]) == (c.estimate, c.p_value)

    def test_separating_replicate_is_named_exactly(self):
        # a chunk whose stacked fit fails is re-run one replicate at a time
        obs = gen_confound(0)[::8]
        units = [Unit(f"u{i}", "text", meta=dict(o.covariates))
                 for i, o in enumerate(obs)]
        em = ErrorModel(("yes", "no"), np.array([[0.8, 0.2], [0.2, 0.8]]))
        plugin, columns = parse_over("logistic:yes ~ campus + age",
                                     em.labels, units)
        with pytest.raises(DataError) as exc:
            bootstrap_ci(["yes" if o.response else "no" for o in obs], columns,
                         em, plugin, BootstrapConfig(n_replicates=2000, seed=0))
        assert str(exc.value) == (
            "statistic failed on replicate 358: logistic fit did not converge "
            "(quasi-separation): ['(Intercept)']")

    def test_scalar_output_for_a_chunk_is_rejected(self):
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))

        def pooled(codes, labels):  # one count over every replicate
            return {"p_A": np.count_nonzero(codes == 0) / codes.size}

        with pytest.raises(DataError,
                           match=r"'p_A' has shape \(\) for 5 replicates"):
            bootstrap_ci(["A", "B"] * 10, {}, em, pooled,
                         BootstrapConfig(n_replicates=5))

    def test_chunk_failure_that_no_replicate_repeats_is_reported(self):
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))

        def first(codes, labels):  # float() takes one label, not a row
            return {"first_A": float(codes[0] == 0)}

        with pytest.raises(DataError, match="replicates 0-4 but on none alone"):
            bootstrap_ci(["A", "B"] * 10, {}, em, first,
                         BootstrapConfig(n_replicates=5))


class TestRegressionBuffer:
    """A ``logistic:`` plugin writes its IRLS weighted copies of X' into one
    buffer that it keeps across calls."""

    def test_one_buffer_serves_every_stack_size(self, monkeypatch):
        # boot_logistic's fits, as in test_stats: row 0 of the eight converges
        # an iteration after the others, so the 8- and 4-row stacks also fit
        # their still-active rows in a slice of the buffer
        obs = gen_confound(0, n=2000)
        X, names = design_matrix({k: [o.covariates[k] for o in obs]
                                  for k in ("age", "campus")}, len(obs))
        y = np.array([o.response for o in obs])
        codes = y ^ (np.random.default_rng(8).random((8, len(y))) < 0.1)
        plugin = boot.Regression("yes", X, names)
        fits, buffers = [], []

        def recording(X, Y, names, work):
            buffers.append(work)
            fits.append((Y, fit_logistic_stack(X, Y, names, work)))
            return fits[-1][1]

        monkeypatch.setattr(boot, "fit_logistic_stack", recording)
        for stack in (codes[1], codes, codes[:4], codes[0]):
            plugin(stack, ("no", "yes"))
        assert [len(work) for work in buffers] == [1, 8, 8, 8]
        assert buffers[1] is buffers[2] is buffers[3]
        assert len(set(fits[1][1][3])) > 1  # the iteration counts differ
        for Y, fit in fits:
            for got, alone in zip(fit, fit_logistic_stack(X, Y, names)):
                assert got.tobytes() == alone.tobytes()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason=(
        "not glibc: the count rests on glibc malloc's mmap and trim thresholds"))
    def test_a_warm_logistic_bootstrap_faults_in_few_pages(self):
        # a chunk's weighted copies of X' (8 x 3 x 2000 floats, 384 kB) are
        # above glibc's mmap threshold; made and freed per IRLS iteration,
        # the heap gave their pages back and faulted them in again, about
        # ten thousand times a bootstrap. The second of two bootstraps in
        # one process, each with its own plugin as a CLI command builds it,
        # counts the minor faults
        code = """
import resource
import numpy as np
from quantitize import BootstrapConfig, Corpus, ErrorModel, Unit, bootstrap_ci, gen_confound
from quantitize.boot import parse_statistic
obs = gen_confound(0, n=2000)
corpus = Corpus([Unit(f"u{i}", "text", meta=dict(o.covariates)) for i, o in enumerate(obs)])
labels = ["yes" if o.response else "no" for o in obs]
em = ErrorModel(("no", "yes"), np.array([[0.9, 0.1], [0.12, 0.88]]))
for run in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    plugin, columns = parse_statistic("logistic:yes ~ campus + age", em.labels,
                                      corpus, range(len(obs)))
    bootstrap_ci(labels, columns, em, plugin, BootstrapConfig(n_replicates=300, seed=1))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        import quantitize
        env = {**os.environ,
               "PYTHONPATH": str(Path(quantitize.__file__).resolve().parents[1])}
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, check=True, timeout=60)
        assert int(child.stdout) < 750


class TestLabelCodes:
    """Every plugin but a count-form one, stock or custom, reads its
    replicates as label codes, indices into the error model's labels."""

    THREE = ErrorModel(("A", "B", "C"), np.array([[0.8, 0.15, 0.05],
                                                  [0.1, 0.75, 0.15],
                                                  [0.2, 0.3, 0.5]]))
    TWO = ErrorModel(("yes", "no"), np.array([[0.85, 0.15], [0.1, 0.9]]))

    def logistic_case(self):
        """``logistic:B ~ age``: the response is the middle label of three."""
        rng = np.random.default_rng(21)
        units = [Unit(f"u{i}", "text", meta={"age": float(rng.normal(40, 9))})
                 for i in range(80)]
        labels = rng.choice(self.THREE.labels, len(units), p=[0.3, 0.45, 0.25])
        return "logistic:B ~ age", self.THREE, units, labels.tolist()

    def mixed_case(self):
        """``mixed:yes ~ age + (1|school)`` on two labels, "yes" first."""
        obs = gen_simpson(1)
        units = [Unit(f"u{i}", "text", groups={"school": o.group},
                      meta={"age": o.covariates["age"]}) for i, o in enumerate(obs)]
        labels = ["yes" if o.response else "no" for o in obs]
        return "mixed:yes ~ age + (1|school)", self.TWO, units, labels

    # sha256 of boot.json then replicates.csv, taken while the plugins still
    # compared label strings: how a label maps to its code moves no byte
    @pytest.mark.parametrize("case, replicates, digest", [
        ("logistic_case", 40,
         "6c544dcc797d0b7fcb88e98250fa1fca7e27168040cda46178fabacb546282b7"),
        ("mixed_case", 12,
         "5ef09a4a634c5c742801544cf6d2dd19d9c39e154fec47361b4b27ad66a07ec2"),
    ])
    def test_bootstrap_bytes_are_pinned(self, case, replicates, digest, tmp_path):
        spec, em, units, labels = getattr(self, case)()
        plugin, columns = parse_over(spec, em.labels, units)
        result = bootstrap_ci(labels, columns, em, plugin,
                              BootstrapConfig(n_replicates=replicates, seed=6))
        result.to_json(tmp_path / "boot.json")
        result.replicates_to_csv(tmp_path / "replicates.csv")
        written = ((tmp_path / "boot.json").read_bytes()
                   + (tmp_path / "replicates.csv").read_bytes())
        assert hashlib.sha256(written).hexdigest() == digest

    def test_a_custom_plugin_reads_codes(self, monkeypatch):
        # the point estimate's row of codes, then one row per replicate
        calls = []

        def plugin(codes, labels):
            calls.append((codes.dtype, codes.shape, labels))
            return {"n_B": np.count_nonzero(codes == 1, axis=-1)}

        monkeypatch.setattr(boot, "CHUNK_CELLS", 4 * 20)
        bootstrap_ci(["A", "B", "C", "B"] * 5, {}, self.THREE, plugin,
                     BootstrapConfig(n_replicates=10))
        intp, labels = np.dtype(np.intp), self.THREE.labels
        assert calls == [(intp, (20,), labels), (intp, (4, 20), labels),
                         (intp, (4, 20), labels), (intp, (2, 20), labels)]
