import pytest
from hypothesis import given, strategies as st

from quantitize import (
    DataError,
    PairJudgment,
    majority_label,
    open_match,
    rank_eval,
    score_semantic_change,
    semantic_edit_distance,
)
from quantitize.tasks import load_gold_scores


def judgments(word, ratings):
    return [PairJudgment(word, r) for r in ratings]


class TestScoreSemanticChange:
    def test_all_identical_means_no_change(self):
        scores = score_semantic_change({"w": judgments("w", [4] * 30)})
        assert scores["w"].graded == 0.0
        assert not scores["w"].binary

    def test_two_unrelated_trigger_binary_change(self):
        scores = score_semantic_change(
            {"w": judgments("w", [4] * 28 + [1, 1])}
        )
        assert scores["w"].binary
        assert scores["w"].graded == pytest.approx(6 / 90)

    def test_one_unrelated_is_below_threshold(self):
        scores = score_semantic_change({"w": judgments("w", [4] * 29 + [1])})
        assert not scores["w"].binary

    def test_threshold_parameter(self):
        js = {"w": judgments("w", [4] * 27 + [1, 1, 1])}
        assert score_semantic_change(js, threshold=4)["w"].binary is False
        assert score_semantic_change(js, threshold=3)["w"].binary is True

    def test_rating_bounds(self):
        with pytest.raises(DataError):
            PairJudgment("w", 5)

    def test_verbal_label_mapping(self):
        assert PairJudgment.from_label("w", "Same").rating == 4
        assert PairJudgment.from_label("w", "distinct").rating == 1

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=40))
    def test_graded_invariant_under_permutation(self, ratings):
        a = score_semantic_change({"w": judgments("w", ratings)})["w"]
        b = score_semantic_change({"w": judgments("w", ratings[::-1])})["w"]
        assert a.graded == b.graded
        assert a.binary == b.binary

    @given(st.integers(0, 30))
    def test_graded_linear_in_unrelated_count(self, k):
        n = 30
        ratings = [1] * k + [4] * (n - k)
        score = score_semantic_change({"w": judgments("w", ratings)})["w"]
        assert score.graded == pytest.approx(k / n)

    def test_binary_monotone_in_unrelated_count(self):
        flags = [
            score_semantic_change({"w": judgments("w", [1] * k + [4] * (30 - k))})[
                "w"
            ].binary
            for k in range(5)
        ]
        assert flags == sorted(flags)


class TestRankEval:
    def test_identical_scores(self):
        gold = {"a": 0.1, "b": 0.5, "c": 0.9}
        assert rank_eval(gold, gold) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert rank_eval({"a": 3, "b": 2, "c": 1},
                         {"a": 1, "b": 2, "c": 3}) == pytest.approx(-1.0)

    def test_one_swap(self):
        scores = {"w1": 1, "w2": 3, "w3": 2, "w4": 4}
        gold = {"w1": 1, "w2": 2, "w3": 3, "w4": 4}
        assert rank_eval(scores, gold) == pytest.approx(0.8)

    def test_word_set_mismatch(self):
        with pytest.raises(DataError):
            rank_eval({"a": 1.0}, {"b": 1.0})

    def test_gold_score_csv(self, tmp_path):
        p = tmp_path / "gold.csv"
        p.write_text("word,score\nplane,0.88\ngraft,0.25\n")
        assert load_gold_scores(p) == {"plane": 0.88, "graft": 0.25}

    def test_missing_gold_score_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read .*gold.csv"):
            load_gold_scores(tmp_path / "gold.csv")

    @pytest.mark.parametrize("text, message", [
        ("word,score\nplane,0.88\ngraft,high\n",
         "line 3: could not convert string to float: 'high'"),
        ("word,score\nplane,0.88\nplane,0.25\n", "line 3: word 'plane' repeats"),
        ("plane,0.88\ngraft,0.25\n", "line 1: the header must be word,score"),
    ], ids=["bad-score", "repeated-word", "no-header"])
    def test_bad_gold_score_row_is_named(self, tmp_path, text, message):
        p = tmp_path / "gold.csv"
        p.write_text(text)
        with pytest.raises(DataError) as exc:
            load_gold_scores(p)
        assert f"gold.csv, {message}" in str(exc.value)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_gold_score_is_named(self, tmp_path, score):
        # float() reads these, and rank_eval would fail later naming no file
        p = tmp_path / "gold.csv"
        p.write_text(f"word,score\nplane,0.88\ngraft,{score}\n")
        with pytest.raises(DataError) as exc:
            load_gold_scores(p)
        assert f"gold.csv, line 3: score {score!r} is not a finite number" in str(exc.value)


class TestSemanticEditDistance:
    def test_quarter_split_gives_75(self):
        classes = (["Close"] * 25 + ["Addition"] * 25 + ["Deletion"] * 25
                   + ["Substitution"] * 25)
        result = semantic_edit_distance(classes)
        assert result["distance"] == 75
        assert result["counts"]["Close"] == 25

    def test_all_close_is_zero(self):
        assert semantic_edit_distance(["Close"] * 10)["distance"] == 0

    def test_hand_count(self):
        assert semantic_edit_distance(["Close", "Addition", "Close"])["distance"] == 1

    def test_unknown_class_rejected(self):
        with pytest.raises(DataError):
            semantic_edit_distance(["Close", "Bogus"])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            semantic_edit_distance([])

    @given(st.lists(st.sampled_from(["Close", "Addition", "Deletion", "Substitution"]),
                    min_size=1, max_size=20),
           st.lists(st.sampled_from(["Close", "Addition", "Deletion", "Substitution"]),
                    min_size=1, max_size=20))
    def test_additive_under_concatenation(self, a, b):
        assert (semantic_edit_distance(a + b)["distance"]
                == semantic_edit_distance(a)["distance"]
                + semantic_edit_distance(b)["distance"])


class TestMajorityLabel:
    def test_strict_majority(self):
        labels = ["SciFi"] * 13 + ["Thriller"] * 10 + ["Detective"] * 2
        assert majority_label(labels, ["SciFi", "Thriller", "Detective"]) == \
            ("SciFi", False)

    def test_tie_broken_by_level_order(self):
        assert majority_label(["A"] * 5 + ["B"] * 5, ["A", "B"]) == ("A", True)
        assert majority_label(["A"] * 5 + ["B"] * 5, ["B", "A"]) == ("B", True)

    def test_single_element(self):
        assert majority_label(["Romance"], ["Romance"]) == ("Romance", False)

    @given(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=30),
           st.randoms())
    def test_invariant_under_permutation(self, labels, rnd):
        shuffled = list(labels)
        rnd.shuffle(shuffled)
        order = ["A", "B", "C"]
        assert majority_label(labels, order) == majority_label(shuffled, order)


class TestOpenMatch:
    def test_punctuation_and_case(self):
        assert open_match("Glue.", {"glue", "adhesive"})

    def test_synonym_accepted(self):
        assert open_match("adhesive", {"glue", "adhesive"})

    def test_wrong_animal_misses(self):
        assert not open_match("wolf", {"bear"})

    def test_only_first_line_counts(self):
        assert open_match("glue\nor maybe tape", {"glue"})
        assert not open_match("I think\nglue", {"glue"})

    def test_empty_accepted_set_rejected(self):
        with pytest.raises(DataError):
            open_match("x", set())
