import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantitize import (
    ConfusionMatrix,
    DataError,
    agreement_report,
    build_confusion,
    cohens_kappa,
    per_class_metrics,
    spearman_rho,
)
from quantitize.agreement import _average_ranks


class TestBuildConfusion:
    def test_direct_count(self):
        cm = build_confusion({"u1": "A", "u2": "A", "u3": "B"},
                             {"u1": "A", "u2": "B", "u3": "B"}, ["A", "B"])
        assert cm.counts.tolist() == [[1, 1], [0, 1]]

    def test_perfect_agreement_is_diagonal(self):
        gold = dict(enumerate(["A", "B", "B", "A", "A"]))
        cm = build_confusion(gold, gold, ["A", "B"])
        assert np.trace(cm.counts) == 5
        assert cm.counts.sum() == 5

    def test_misaligned_ids_rejected(self):
        with pytest.raises(DataError):
            build_confusion({"u1": "A"}, {"u2": "A"}, ["A", "B"])

    def test_unknown_label_names_the_unit(self):
        with pytest.raises(DataError, match="u1"):
            build_confusion({"u1": "C"}, {"u1": "A"}, ["A", "B"])

    def test_mapping_alignment_by_id(self):
        cm = build_confusion({"b": "B", "a": "A"}, {"a": "A", "b": "A"}, ["A", "B"])
        assert cm.counts.tolist() == [[1, 0], [1, 0]]

    def test_counts_do_not_depend_on_key_order(self):
        ids = [f"u{i}" for i in range(12)]
        gold = {uid: "AB"[i % 2] for i, uid in enumerate(ids)}
        predicted = {uid: "AB"[i % 3 == 0] for i, uid in enumerate(ids)}
        shuffled = ids[5:] + ids[4::-1]
        for gold_order, predicted_order in ((ids, ids), (ids[::-1], ids),
                                            (ids, shuffled), (shuffled, ids[::-1])):
            cm = build_confusion({k: gold[k] for k in gold_order},
                                 {k: predicted[k] for k in predicted_order}, ["A", "B"])
            assert cm.counts.tolist() == [[4, 2], [4, 2]]

    @pytest.mark.parametrize("gold, predicted, message", [
        ({"u3": "A", "u2": "C", "u1": "C"}, {"u1": "A", "u2": "A", "u3": "A"},
         "unit 'u2': gold label 'C' not in label list"),
        ({"u3": "A", "u2": "A", "u1": "A"}, {"u1": "C", "u2": "C", "u3": "A"},
         "unit 'u2': predicted label 'C' not in label list"),
    ])
    def test_a_bad_label_names_the_first_bad_unit_in_gold_order(
            self, gold, predicted, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build_confusion(gold, predicted, ["A", "B"])


class TestConfusionMatrix:
    @pytest.mark.parametrize("counts, message", [
        ([[1, 0], [1]], "^confusion matrix must be 2x2: .*inhomogeneous"),
        ([[1, "x"], [1, 2]], "^confusion matrix must be 2x2: .*'x'"),
        ([[1.5, 0], [0, 2]], "^confusion matrix must be 2x2 whole counts, got 1.5$"),
        ([[float("nan"), 0], [0, 2]], "^confusion matrix must be 2x2 whole counts, got nan$"),
    ], ids=["ragged", "no-number", "fraction", "nan"])
    def test_counts_that_are_no_grid_of_whole_numbers(self, counts, message):
        with pytest.raises(DataError, match=message):
            ConfusionMatrix(("A", "B"), counts)

    def test_integral_floats_are_counts(self):
        cm = ConfusionMatrix(("A", "B"), [[2.0, 0.0], [1.0, 3.0]])
        assert cm.counts.dtype == np.int64
        assert cm.counts.tolist() == [[2, 0], [1, 3]]


class TestCohensKappa:
    def test_worked_example(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[40, 10], [5, 45]]))
        # p_o = 0.85, p_e = 0.5
        assert cohens_kappa(cm) == pytest.approx(0.7, abs=1e-12)

    def test_perfect_agreement(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[50, 0], [0, 50]]))
        assert cohens_kappa(cm) == 1.0

    def test_chance_level(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[25, 25], [25, 25]]))
        assert cohens_kappa(cm) == pytest.approx(0.0, abs=1e-12)

    def test_all_mass_one_cell_returns_one(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[10, 0], [0, 0]]))
        assert cohens_kappa(cm) == 1.0

    def test_independence_gives_zero(self):
        # rows proportional -> predictions independent of gold
        cm = ConfusionMatrix(("A", "B"), np.array([[30, 10], [60, 20]]))
        assert cohens_kappa(cm) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30),
           st.integers(0, 30))
    def test_matches_direct_formula(self, a, b, c, d):
        counts = np.array([[a, b], [c, d]])
        if counts.sum() == 0:
            return
        cm = ConfusionMatrix(("A", "B"), counts)
        n = counts.sum()
        p_o = (a + d) / n
        p_e = ((a + b) * (a + c) + (c + d) * (b + d)) / n**2
        expected = 1.0 if abs(1 - p_e) < 1e-15 else (p_o - p_e) / (1 - p_e)
        assert cohens_kappa(cm) == pytest.approx(expected, abs=1e-9)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 20, size=(3, 3))
        counts[0, 0] += 1
        cm = ConfusionMatrix(("A", "B", "C"), counts)
        perm = [2, 0, 1]
        cm2 = ConfusionMatrix(
            tuple(cm.labels[i] for i in perm), counts[np.ix_(perm, perm)]
        )
        assert cohens_kappa(cm2) == pytest.approx(cohens_kappa(cm), abs=1e-12)
        r1 = agreement_report(cm)
        r2 = agreement_report(cm2)
        assert r2.accuracy == pytest.approx(r1.accuracy, abs=1e-12)
        assert r2.macro_f1 == pytest.approx(r1.macro_f1, abs=1e-12)


class TestPerClassMetrics:
    def test_full_recall_class(self):
        cm = ConfusionMatrix(("m", "o"), np.array([[10, 0], [3, 7]]))
        metrics, _ = per_class_metrics(cm)
        assert metrics["m"].recall == 1.0

    def test_precision_hand_count(self):
        cm = ConfusionMatrix(("m", "o"), np.array([[10, 0], [3, 7]]))
        metrics, _ = per_class_metrics(cm)
        assert metrics["m"].precision == pytest.approx(10 / 13)

    def test_zero_row_flags_degenerate(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[0, 0], [3, 7]]))
        metrics, _ = per_class_metrics(cm)
        assert metrics["A"].recall == 0.0
        assert metrics["A"].degenerate

    def test_macro_f1_unweighted(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[8, 2], [4, 6]]))
        metrics, macro = per_class_metrics(cm)
        assert macro == pytest.approx((metrics["A"].f1 + metrics["B"].f1) / 2)


class TestAgreementReport:
    def test_error_column_excluded_from_kappa(self):
        cm = build_confusion(
            dict(enumerate(["A", "A", "B", "B"])),
            dict(enumerate(["A", "ERROR", "B", "ERROR"])), ["A", "B", "ERROR"]
        )
        report = agreement_report(cm)
        assert "ERROR" not in report.labels
        assert report.n == 2
        assert report.kappa == 1.0
        assert report.excluded["error_column"] == 2

    def test_accuracy_is_trace_over_total(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[40, 10], [5, 45]]))
        report = agreement_report(cm)
        assert report.accuracy == pytest.approx(0.85)

    def test_serialization_round_trip(self, tmp_path):
        cm = ConfusionMatrix(("A", "B"), np.array([[40, 10], [5, 45]]))
        p = tmp_path / "cm.csv"
        cm.to_csv(p)
        again = ConfusionMatrix.from_csv(p)
        assert again.labels == cm.labels
        assert (again.counts == cm.counts).all()
        agreement_report(cm).to_json(tmp_path / "report.json")
        assert (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("tail", [b"\r\n", b"\n", b"\r\n\r\n"])
    def test_csv_may_end_in_blank_lines(self, tmp_path, tail):
        cm = ConfusionMatrix(("A", "B"), np.array([[40, 10], [5, 45]]))
        p = tmp_path / "cm.csv"
        cm.to_csv(p)
        p.write_bytes(p.read_bytes() + tail)
        assert (ConfusionMatrix.from_csv(p).counts == cm.counts).all()


class TestSpearman:
    def test_identical_rankings(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_one_swap(self):
        # closed form: 1 - 6*2 / (4*15) = 0.8
        assert spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_constant_vector_rejected(self):
        with pytest.raises(DataError):
            spearman_rho([1, 1, 1], [1, 2, 3])

    def test_tied_ranks_average(self):
        # against scipy's reference implementation for a tied case
        from scipy.stats import spearmanr
        xs = [1.0, 2.0, 2.0, 3.0, 5.0]
        ys = [2.0, 1.0, 4.0, 4.0, 5.0]
        assert spearman_rho(xs, ys) == pytest.approx(spearmanr(xs, ys).statistic)

    @settings(max_examples=200)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=60))
    def test_average_ranks_match_rankdata(self, values):
        # small integer range, so most samples hold ties
        from scipy.stats import rankdata
        values = np.array(values, dtype=float)
        assert np.array_equal(_average_ranks(values), rankdata(values))

    def test_non_finite_value_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(DataError, match="finite"):
                spearman_rho([1.0, bad, 3.0], [1.0, 2.0, 3.0])

    @given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=20, unique=True))
    def test_monotone_transform_invariance(self, xs):
        ys = list(range(len(xs)))
        a = spearman_rho(xs, ys)
        b = spearman_rho([x**3 + 7 for x in xs], ys)
        assert a == pytest.approx(b, abs=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=30, unique=True))
    def test_tie_free_closed_form(self, xs):
        n = len(xs)
        ys = [(7 * i) % n for i in range(n)]
        if len(set(ys)) != n:
            return
        rank_x = {v: i + 1 for i, v in enumerate(sorted(xs))}
        rank_y = {v: i + 1 for i, v in enumerate(sorted(ys))}
        d2 = sum((rank_x[x] - rank_y[y]) ** 2 for x, y in zip(xs, ys))
        closed = 1 - 6 * d2 / (n * (n**2 - 1))
        assert spearman_rho(xs, ys) == pytest.approx(closed, abs=1e-12)
