import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from quantitize import (
    CodingScheme,
    ConfigError,
    Corpus,
    CsvMapping,
    DataError,
    Level,
    Paragraph,
    Scene,
    SentenceSplit,
    Unit,
    Variable,
    Window,
    ingest,
    load_scheme,
    sample_units,
    save_corpus,
    save_scheme,
    unitize,
)
from quantitize.corpus import approx_tokens


@pytest.fixture
def scheme():
    return CodingScheme((
        Variable("sentiment", "categorical",
                 (Level("Positive"), Level("Negative"))),
    ))


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for o in objs:
            fh.write(json.dumps(o) + "\n")


class TestIngestJsonl:
    def test_three_objects_in_file_order(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": f"a{i}", "text": f"t{i}"} for i in range(3)])
        corpus = ingest(p, "jsonl")
        assert [u.id for u in corpus] == ["a0", "a1", "a2"]

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "a1", "text": "x"}, {"id": "a1", "text": "y"}])
        with pytest.raises(DataError, match="a1"):
            ingest(p, "jsonl")

    def test_missing_ids_synthesized(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"text": "x"}, {"text": "y"}])
        corpus = ingest(p, "jsonl")
        assert [u.id for u in corpus] == ["u000001", "u000002"]

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            ingest(p, "jsonl")

    def test_gold_validated_against_scheme(self, tmp_path, scheme):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "a", "text": "x", "gold": {"sentiment": "Nope"}}])
        with pytest.raises(DataError, match="Nope"):
            ingest(p, "jsonl", scheme=scheme)

    def test_round_trip_is_identical(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [
            {"id": "a", "text": "x", "meta": {"year": 1954}, "groups": {"src": "s1"},
             "gold": {"sentiment": "Positive"}},
            {"id": "b", "text": "y"},
        ])
        corpus = ingest(p, "jsonl")
        q = tmp_path / "copy.jsonl"
        save_corpus(corpus, q)
        again = ingest(q, "jsonl")
        assert tuple(again) == tuple(corpus)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_save_refuses_a_non_finite_meta_float(self, tmp_path, value):
        # JSON has no such number, and ingest refuses the line that has one
        corpus = Corpus([Unit("a", "x", meta={"year": 1990}),
                         Unit("b", "y", meta={"year": 1991, "age": value})])
        with pytest.raises(DataError, match=re.escape(
                f"unit 'b': meta value 'age' is not finite: {json.dumps(value)}")):
            save_corpus(corpus, tmp_path / "c.jsonl")
        # nothing is left: no partial file, and an older file keeps its bytes
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "c.jsonl").write_bytes(b"older\n")
        with pytest.raises(DataError):
            save_corpus(corpus, tmp_path / "c.jsonl")
        assert list(tmp_path.iterdir()) == [tmp_path / "c.jsonl"]
        assert (tmp_path / "c.jsonl").read_bytes() == b"older\n"


class TestIngestCsv:
    def test_column_mapping_with_typed_meta(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,text,year\nr1,hello,1954\nr2,world,1955\n")
        mapping = CsvMapping(id_column="id", text_column="text",
                             meta_columns={"year": "int"})
        corpus = ingest(p, "csv", csv_mapping=mapping)
        assert tuple(corpus)[0].meta["year"] == 1954
        assert isinstance(tuple(corpus)[1].meta["year"], int)

    def test_unmapped_columns_kept_as_string_meta(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,text,title\nr1,hello,Some Title\n")
        mapping = CsvMapping(id_column="id", text_column="text")
        corpus = ingest(p, "csv", csv_mapping=mapping)
        assert tuple(corpus)[0].meta["title"] == "Some Title"

    def test_empty_gold_cell_is_no_gold(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,text,label\nr1,hello,Positive\nr2,world,\n")
        mapping = CsvMapping(id_column="id", gold_columns={"sentiment": "label"})
        corpus = ingest(p, "csv", csv_mapping=mapping)
        assert [u.gold for u in corpus] == [{"sentiment": "Positive"}, None]

    def test_mapping_required(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,text\nr1,hello\n")
        from quantitize import ConfigError
        with pytest.raises(ConfigError):
            ingest(p, "csv")


class TestOneRowCheck:
    """JSONL, CSV and text ingestion check each unit row with one check."""

    def test_the_same_units_as_jsonl_and_as_csv_save_the_same_bytes(self, tmp_path,
                                                                     scheme):
        write_jsonl(tmp_path / "c.jsonl", [
            {"id": "r1", "text": "hello", "groups": {"school": "s1"},
             "meta": {"year": 1954, "weight": 2.5, "flag": True, "title": "A"},
             "gold": {"sentiment": "Positive"}},
            {"id": "r2", "text": "world", "groups": {"school": "s2"},
             "meta": {"year": 1955, "weight": 0.5, "flag": False, "title": "B"}},
        ])
        (tmp_path / "c.csv").write_text(
            "id,text,school,year,weight,flag,title,label\n"
            "r1,hello,s1,1954,2.5,yes,A,Positive\nr2,world,s2,1955,0.5,no,B,\n",
            encoding="utf-8")
        mapping = CsvMapping(id_column="id", group_columns={"school": "school"},
                             meta_columns={"year": "int", "weight": "float",
                                           "flag": "bool"},
                             gold_columns={"sentiment": "label"})
        save_corpus(ingest(tmp_path / "c.jsonl", "jsonl", scheme=scheme),
                    tmp_path / "from_jsonl.jsonl")
        save_corpus(ingest(tmp_path / "c.csv", "csv", scheme=scheme, csv_mapping=mapping),
                    tmp_path / "from_csv.jsonl")
        assert ((tmp_path / "from_csv.jsonl").read_bytes()
                == (tmp_path / "from_jsonl.jsonl").read_bytes())

    def test_text_units_are_numbered_in_file_order(self, tmp_path):
        p = tmp_path / "doc.txt"
        p.write_text("First para.\n\nSecond para.\n", encoding="utf-8")
        corpus = ingest(p, "text", unitize_strategy=Paragraph())
        assert corpus.ids == ["u000001", "u000002"]
        assert corpus.texts == ["First para.", "Second para.\n"]

    def test_a_bad_gold_label_is_named_before_a_later_malformed_line(self, tmp_path,
                                                                     scheme):
        # gold labels were checked after the whole file was read, so the
        # malformed line 2 was reported and the bad label of line 1 was not
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "x", "gold": {"sentiment": "Nope"}}\n{"id": \n',
                     encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}, line 1: unit 'a': "
                                            "gold label 'Nope' is not a level of "
                                            "'sentiment'$"):
            ingest(p, "jsonl", scheme=scheme)


class TestByteOrderMark:
    # spreadsheets' "CSV UTF-8" exports, and some editors, start a file with
    # U+FEFF; it is no part of the first cell, line or unit text
    def test_csv(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("\ufeffid,text\nr1,hello\n", encoding="utf-8")
        corpus = ingest(p, "csv", csv_mapping=CsvMapping(id_column="id"))
        assert (corpus.ids, corpus.texts, corpus.meta) == (["r1"], ["hello"], [{}])

    def test_jsonl(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('\ufeff{"id": "a", "text": "x"}\n', encoding="utf-8")
        assert ingest(p, "jsonl").ids == ["a"]

    def test_text(self, tmp_path):
        p = tmp_path / "doc.txt"
        p.write_text("\ufeffFirst para.\n\nSecond para.", encoding="utf-8")
        corpus = ingest(p, "text", unitize_strategy=Paragraph())
        assert corpus.texts == ["First para.", "Second para."]


class TestUnit:
    def test_empty_text_rejected(self):
        with pytest.raises(DataError):
            Unit(id="a", text="   ")

    def test_corpus_rejects_duplicate_ids(self):
        u = Unit(id="a", text="x")
        with pytest.raises(DataError):
            Corpus((u, Unit(id="a", text="y")))

    @pytest.mark.parametrize("short", ["texts", "groups", "meta", "gold"])
    def test_columns_of_unequal_length_are_refused(self, short, tmp_path):
        # a short column made the corpus iterate and save fewer units than
        # its len
        columns = {"ids": ["a", "b"], "texts": ["x", "y"], "groups": [{}, {}],
                   "meta": [{}, {}], "gold": [None, None]}
        columns[short] = columns[short][:1]
        with pytest.raises(DataError, match=f"^column {short!r} has 1 rows where "
                                            "'ids' has 2$"):
            Corpus.from_columns(**columns)

    def test_corpus_unit_lookup(self):
        units = tuple(Unit(id=f"u{i}", text=f"t{i}") for i in range(5))
        corpus = Corpus(units)
        assert corpus.unit("u3") == units[3]  # built on demand: equal, not the same
        with pytest.raises(DataError, match="no unit"):
            corpus.unit("u9")


class TestUnitize:
    def test_two_paragraphs(self):
        segments = unitize("First para.\n\nSecond para.", Paragraph())
        assert len(segments) == 2
        assert segments[0].strip() == "First para."

    def test_window_100_chars_size_10(self):
        text = "x" * 100
        segments = unitize(text, Window(size=10))
        assert len(segments) == 3
        assert all(len(s) <= 40 for s in segments)
        assert "".join(segments) == text

    def test_window_preserves_text(self):
        text = "the quick brown fox jumps over the lazy dog " * 10
        segments = unitize(text, Window(size=5))
        assert "".join(segments) == text

    def test_scene_short_merged_forward(self):
        text = "INT. A long scene " + "with plenty of words " * 10 + \
               "\nEXT. tiny\nINT. Another long scene " + "more words here " * 10
        segments = unitize(text, Scene(marker=r"INT\.|EXT\.", merge_below=20))
        assert len(segments) == 2
        assert "EXT. tiny" in segments[1]

    @pytest.mark.parametrize("strategy, message", [
        (lambda: Scene(marker=""), "scene strategy needs a marker"),
        (lambda: Scene(marker="INT", merge_below=-1), "merge_below must be >= 0, got -1"),
        (lambda: Window(size=5, merge_below=-3), "merge_below must be >= 0, got -3"),
        (lambda: Scene(marker="("),
         r"scene strategy marker '\(': missing \), unterminated subpattern at position 5"),
        (lambda: Scene(marker="a?"), "scene strategy marker 'a\\?' matches the empty "
                                     "string, so every line would start a scene"),
    ], ids=["empty-marker", "scene-merge", "window-merge", "bad-marker", "empty-match"])
    def test_unusable_parameter_is_config_error(self, strategy, message):
        # an empty marker, or one matching the empty string, matched at every
        # line start, a negative floor meant no merging, and a bad marker
        # failed only at the first split
        with pytest.raises(ConfigError, match=f"^{message}$"):
            strategy()

    def test_sentences(self):
        assert unitize("One. Two! Three?", SentenceSplit()) == ["One.", "Two!", "Three?"]

    def test_empty_text_gives_empty_list(self):
        assert unitize("   ", Paragraph()) == []

    # OCR'd pages: a page break is a long run of whitespace
    @given(st.lists(st.one_of(st.text(alphabet="abINTEX.!? \n", max_size=30),
                              st.text(alphabet=" \n\t", min_size=45, max_size=50)),
                    max_size=8).map("".join),
           st.one_of(st.just(Paragraph()), st.just(SentenceSplit()),
                     st.builds(Window, size=st.integers(1, 15),
                               merge_below=st.integers(0, 6)),
                     st.builds(Scene, marker=st.sampled_from([r"INT\.|EXT\.",
                                                              r"(?:INT|EXT)\.", "a"]),
                               merge_below=st.integers(0, 6))))
    @example("INT. ", Window(1, 0))
    def test_units_are_numbered_and_keep_every_visible_character(self, text, strategy):
        segments = unitize(text, strategy)
        assert all(s.strip() for s in segments)
        assert "".join("".join(s.split()) for s in segments) == "".join(text.split())
        if segments:  # ingest numbers them, in order
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "doc.txt"
                path.write_text(text, encoding="utf-8", newline="")
                corpus = ingest(path, "text", unitize_strategy=strategy)
            assert corpus.ids == [f"u{i:06d}" for i in range(1, len(segments) + 1)]
            assert corpus.texts == segments

    @given(st.lists(st.text(alphabet="abc ", min_size=1).filter(str.strip),
                    min_size=1, max_size=6))
    def test_paragraph_count_and_reconstruction(self, paras):
        text = "\n\n".join(paras)
        segments = unitize(text, Paragraph())
        assert len(segments) <= len(paras)
        assert "".join(s.replace("\n", "").replace(" ", "") for s in segments) \
            == text.replace("\n", "").replace(" ", "")


class TestSampleUnits:
    @pytest.fixture
    def corpus(self):
        return Corpus(tuple(Unit(id=f"u{i}", text=f"t{i}") for i in range(12)))

    def test_full_sample_is_permutation(self, corpus):
        sample = sample_units(corpus, 12, seed=7)
        assert sorted(u.id for u in sample) == sorted(u.id for u in corpus)

    def test_same_seed_same_sample(self, corpus):
        a = sample_units(corpus, 5, seed=3)
        b = sample_units(corpus, 5, seed=3)
        assert [u.id for u in a] == [u.id for u in b]

    def test_with_replacement_allows_oversampling(self, corpus):
        sample = sample_units(corpus, 30, seed=1, with_replacement=True)
        assert len(sample) == 30

    @pytest.mark.parametrize("with_replacement", [False, True])
    def test_the_sample_is_the_rows_the_seeded_generator_draws(self, corpus,
                                                              with_replacement):
        rows = np.random.default_rng(5).choice(12, size=7, replace=with_replacement)
        sample = sample_units(corpus, 7, seed=5, with_replacement=with_replacement)
        assert sample == [corpus[int(row)] for row in rows]

    def test_oversampling_without_replacement_fails(self, corpus):
        with pytest.raises(DataError):
            sample_units(corpus, 13, seed=1)


class TestScheme:
    def test_round_trip(self, tmp_path, scheme):
        p = tmp_path / "scheme.yaml"
        save_scheme(scheme, p)
        loaded = load_scheme(p)
        assert loaded == scheme

    def test_catch_all_must_be_a_level(self):
        from quantitize import ConfigError
        with pytest.raises(ConfigError):
            Variable("topic", "categorical",
                     (Level("A"), Level("B")), catch_all="Misc")

    @pytest.mark.parametrize("kind", ["categorical", "ordinal"])
    def test_error_is_no_level_label(self, kind):
        # evaluate counts refused and unparseable records under that name
        with pytest.raises(ConfigError, match="^variable 'status': the level label "
                                              "'ERROR' is reserved"):
            Variable("status", kind, (Level("OK"), Level("ERROR")))

    def test_ordinal_order_is_declaration_order(self):
        v = Variable("rel", "ordinal",
                     (Level("Distinct"), Level("Linked"),
                      Level("Related"), Level("Same")))
        assert v.labels == ("Distinct", "Linked", "Related", "Same")


def test_approx_tokens_quarter_of_chars():
    assert approx_tokens("x" * 100) == 25
    assert approx_tokens("x" * 101) == 26
