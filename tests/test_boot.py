import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantitize import (
    BootstrapConfig,
    ConfigError,
    ConfusionMatrix,
    DataError,
    ErrorModel,
    Unit,
    bootstrap_ci,
    error_model_from_confusion,
    gen_confound,
    proportion_of,
    simulate_replicate,
)
from quantitize import boot
from quantitize.boot import yearly_proportion_of
from quantitize.cli import _parse_statistic


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
                                 [np.random.default_rng(0)])[0]
        assert out.tolist() == codes.tolist()

    def test_point_mass_maps_everything(self):
        em = ErrorModel(("A", "B"), np.array([[0.0, 1.0], [0.0, 1.0]]))
        out = simulate_replicate(np.array([0, 1, 0]), em,
                                 [np.random.default_rng(0)])[0]
        assert out.tolist() == [1, 1, 1]

    def test_flip_rate_within_three_sigma(self):
        # 10000 units with a 10% flip probability: binomial oracle
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))
        n = 10000
        out = simulate_replicate(np.zeros(n, dtype=np.intp), em,
                                 [np.random.default_rng(42)])[0]
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
                                 [np.random.default_rng(seed)])[0]
        assert set(out.tolist()) <= {0, 1, 2}
        assert len(out) == 21


    def test_matches_the_three_axis_reference(self):
        # the redraw counts the cumulative bounds below each draw, clipped to
        # the last label: the same codes as comparing every bound at once
        def reference(codes, em, rngs):
            cum = np.cumsum(em.dists, axis=1)[codes]
            u = np.stack([rng.random(len(codes)) for rng in rngs])
            drawn = (u[:, :, None] > cum).sum(axis=2)
            return np.minimum(drawn, len(em.labels) - 1)

        gen = np.random.default_rng(5)
        for k in (2, 3, 4, 5):
            dists = gen.random((k, k)) * (gen.random((k, k)) > 0.4)
            dists[:, -1] += 1e-3
            dists /= dists.sum(axis=1, keepdims=True)
            em = ErrorModel(tuple("ABCDE"[:k]), dists)
            codes = gen.integers(0, k, 500)
            seeds = [[k, r] for r in range(3)]
            new = simulate_replicate(codes, em,
                                     [np.random.default_rng(s) for s in seeds])
            ref = reference(codes, em, [np.random.default_rng(s) for s in seeds])
            assert new.dtype == ref.dtype and (new == ref).all()

        class Draws:  # a generator whose draws are given
            def __init__(self, u):
                self.u = np.asarray(u)

            def random(self, n):
                return self.u[:n]

        # row A ends just below 1, so a draw above its last bound is clipped
        em = ErrorModel(("A", "B", "C"), np.array([[0.25, 0.5, 0.25 - 6e-10],
                                                   [0.0, 0.0, 1.0],
                                                   [0.5, 0.5, 0.0]]))
        codes = np.array([0, 0, 0, 0, 1, 1, 2, 2, 2])
        u = [[0.25, 0.75, 1 - 1e-12, 0.0, 0.0, 0.5, 0.5, 0.999, 0.25]]
        new = simulate_replicate(codes, em, [Draws(row) for row in u])
        ref = reference(codes, em, [Draws(row) for row in u])
        assert new.tolist() == ref.tolist() == [[0, 1, 2, 0, 0, 2, 0, 1, 0]]


class TestYearlyProportionOf:
    @staticmethod
    def table(labels, years):
        """Every label's per-year fraction, as {year: {label: fraction}}."""
        labels, covariates = np.array(labels), {"year": np.array(years)}
        out = {}
        for label in sorted(set(labels.tolist())):
            stats = yearly_proportion_of(label)(labels, covariates)
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
                     yearly_proportion_of("A"), BootstrapConfig(n_replicates=50))
        assert len(calls) == 1

    def test_new_year_column_is_recounted(self):
        plugin = yearly_proportion_of("A")
        labels = np.array(["A", "B", "A", "A"])
        assert plugin(labels, {"year": np.array([1, 1, 2, 2])}) == {
            "prop_A_1": 0.5, "prop_A_2": 1.0}
        assert plugin(labels, {"year": np.array([3, 3, 3, 4])}) == {
            "prop_A_3": 2 / 3, "prop_A_4": 1.0}


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

        def plugin(labels, covariates):
            share = np.count_nonzero(labels == "A", axis=-1) / labels.shape[-1]
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
            keep_replicates=True,
        )
        s = result.statistics["prop_A"]
        inside = ((result.replicates[:, 0] >= s.ci_low)
                  & (result.replicates[:, 0] <= s.ci_high)).mean()
        assert inside >= 0.95
        assert s.ci_low < s.point < s.ci_high

    def test_statistic_failure_names_replicate(self):
        em = ErrorModel(("A", "B"), np.array([[0.0, 1.0], [0.0, 1.0]]))

        def fragile(labels, covariates):
            if "A" not in labels:
                raise ValueError("boom")
            return {"stat": 0.0}

        with pytest.raises(DataError, match="replicate 0"):
            bootstrap_ci(["A", "B"], {}, em, fragile,
                         BootstrapConfig(n_replicates=5, seed=0))

    def test_covariate_length_must_match_labels(self):
        with pytest.raises(DataError, match="'age' has 3 values for 4 labels"):
            bootstrap_ci(["A", "B", "A", "B"], {"age": [30.0, 41.0, 25.0]},
                         identity_model(), proportion_of("A"),
                         BootstrapConfig(n_replicates=2))

    def test_too_few_replicates_rejected(self):
        with pytest.raises(ConfigError):
            BootstrapConfig(n_replicates=1)

    def test_json_round_trip(self, tmp_path):
        result = bootstrap_ci(["A", "B"] * 10, {}, identity_model(),
                              proportion_of("A"),
                              BootstrapConfig(n_replicates=10, seed=0))
        result.to_json(tmp_path / "boot.json")
        import json
        data = json.loads((tmp_path / "boot.json").read_text())
        assert data["statistics"]["prop_A"]["point"] == 0.5
        assert data["config"]["n_replicates"] == 10


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
            plugin, columns = _parse_statistic(spec, units)
            result = bootstrap_ci(labels, columns, em, plugin,
                                  BootstrapConfig(n_replicates=30, seed=2),
                                  keep_replicates=True)
            result.to_json(tmp_path / "boot.json")
            result.replicates_to_csv(tmp_path / "replicates.csv")
            written.add((tmp_path / "boot.json").read_bytes()
                        + (tmp_path / "replicates.csv").read_bytes())
        assert len(written) == 1

    def test_separating_replicate_is_named_exactly(self):
        # a chunk whose stacked fit fails is re-run one replicate at a time
        obs = gen_confound(0)[::8]
        units = [Unit(f"u{i}", "text", meta=dict(o.covariates))
                 for i, o in enumerate(obs)]
        plugin, columns = _parse_statistic("logistic:yes ~ campus + age", units)
        em = ErrorModel(("yes", "no"), np.array([[0.8, 0.2], [0.2, 0.8]]))
        with pytest.raises(DataError) as exc:
            bootstrap_ci(["yes" if o.response else "no" for o in obs], columns,
                         em, plugin, BootstrapConfig(n_replicates=2000, seed=0))
        assert str(exc.value) == (
            "statistic failed on replicate 94: logistic fit did not converge "
            "(quasi-separation): ['(Intercept)']")

    def test_scalar_output_for_a_chunk_is_rejected(self):
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))

        def pooled(labels, covariates):  # one count over every replicate
            return {"p_A": np.count_nonzero(labels == "A") / labels.size}

        with pytest.raises(DataError,
                           match=r"'p_A' has shape \(\) for 5 replicates"):
            bootstrap_ci(["A", "B"] * 10, {}, em, pooled,
                         BootstrapConfig(n_replicates=5))

    def test_chunk_failure_that_no_replicate_repeats_is_reported(self):
        em = ErrorModel(("A", "B"), np.array([[0.9, 0.1], [0.1, 0.9]]))

        def first(labels, covariates):  # float() takes one label, not a row
            return {"first_A": float(labels[0] == "A")}

        with pytest.raises(DataError, match="replicates 0-4 but on none alone"):
            bootstrap_ci(["A", "B"] * 10, {}, em, first,
                         BootstrapConfig(n_replicates=5))
