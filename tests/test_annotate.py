import hashlib
import json
import math
import re
import string
from dataclasses import astuple
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantitize import (
    AnnotatePolicy,
    AnnotationSet,
    ChatCompletionClient,
    CodingScheme,
    ConfigError,
    Corpus,
    DataError,
    DecodingControls,
    Level,
    MockModel,
    ModelReply,
    PromptTemplate,
    TransportError,
    Unit,
    Variable,
    annotate,
    extract_pairs,
    normalize_output,
)

SENTIMENT = Variable(
    "sentiment", "categorical", (Level("Positive"), Level("Negative"))
)
SCHEME = CodingScheme((SENTIMENT,))
TEMPLATE = PromptTemplate(
    "Classify the sentiment of the passage as Positive or Negative.\n\n{text}",
    "sentiment",
)


def make_corpus(n=20, seed=0):
    rng = np.random.default_rng(seed)
    units = []
    for i in range(n):
        gold = "Positive" if rng.random() < 0.5 else "Negative"
        units.append(
            Unit(
                id=f"u{i:03d}",
                text=f"passage number {i} with some filler words",
                gold={"sentiment": gold},
            )
        )
    return Corpus(tuple(units))


class TestNormalizeOutput:
    def test_exact_match(self):
        assert normalize_output("Positive", SENTIMENT) == "Positive"

    def test_case_and_punctuation(self):
        assert normalize_output('  "positive."  ', SENTIMENT) == "Positive"
        assert normalize_output("NEGATIVE!", SENTIMENT) == "Negative"

    def test_unique_prefix(self):
        assert normalize_output("pos", SENTIMENT) == "Positive"

    def test_ambiguous_prefix_unparseable(self):
        v = Variable("x", "categorical", (Level("Art"), Level("Artifact")))
        assert normalize_output("Ar", v) == "Unparseable"

    def test_garbage_unparseable(self):
        assert normalize_output("I cannot decide", SENTIMENT) == "Unparseable"
        assert normalize_output("", SENTIMENT) == "Unparseable"

    def test_numeric_variable_rejected(self):
        v = Variable("year", "numeric", ())
        with pytest.raises(ConfigError):
            normalize_output("1990", v)

    def test_curly_quotes_stripped(self):
        assert normalize_output("“Positive”", SENTIMENT) == "Positive"

    def test_levels_that_fold_alike(self):
        # "Yes" and "YES" fold to the same text: an exact match takes the
        # first declared level, and a prefix of both matches neither. The
        # answers are those of a loop that folds every level on every call.
        strip = string.whitespace + string.punctuation + "‘’“”"

        def reference(raw, variable):
            cleaned = raw.strip(strip).casefold()
            if not cleaned:
                return "Unparseable"
            for label in variable.labels:
                if cleaned == label.strip(strip).casefold():
                    return label
            hits = [label for label in variable.labels
                    if label.strip(strip).casefold().startswith(cleaned)]
            return hits[0] if len(hits) == 1 else "Unparseable"

        v = Variable("x", "categorical",
                     (Level("Yes"), Level("YES"), Level("No."), Level("Nota")))
        assert normalize_output("yes", v) == "Yes"
        assert normalize_output("Y", v) == "Unparseable"
        assert normalize_output("no", v) == "No."
        assert normalize_output("not", v) == "Nota"
        for raw in ("yes", "YES!", " y", "Y", "ye", "no", "No.", "n", "not",
                    "nota", "maybe", "", "...", "“yes”"):
            assert normalize_output(raw, v) == reference(raw, v), raw


class TestExtractPairs:
    def test_tab_separated_lines(self):
        pairs, skipped = extract_pairs("Alice\tBob\nCarol\tDave\n")
        assert pairs == {frozenset(("Alice", "Bob")),
                         frozenset(("Carol", "Dave"))}
        assert skipped == 0

    def test_malformed_lines_counted(self):
        pairs, skipped = extract_pairs("Alice Bob no tab\nCarol\tDave\n")
        assert len(pairs) == 1
        assert skipped == 1

    def test_self_pairs_and_stoplist_dropped(self):
        pairs, _ = extract_pairs("Alice\tAlice\nNarrator\tBob\n",
                                 stoplist=["narrator"])
        assert pairs == set()

    def test_unordered(self):
        a, _ = extract_pairs("Alice\tBob\n")
        b, _ = extract_pairs("Bob\tAlice\n")
        assert a == b

    def test_whitespace_collapsed(self):
        pairs, _ = extract_pairs("Mary   Anne\tBob\n")
        assert pairs == {frozenset(("Mary Anne", "Bob"))}


class TestDecodingControls:
    def test_classification_defaults(self):
        c = DecodingControls.for_variable(SENTIMENT)
        assert c.temperature == 0.0
        assert c.max_output_tokens == math.ceil(len("Positive") / 4)
        assert dict(c.label_bias) == {"Positive": 100, "Negative": 100}

    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    def test_temperature_that_is_negative_or_not_finite_rejected(self, value):
        # a NaN passed ``temperature < 0`` and reached the manifest as no JSON
        with pytest.raises(ConfigError, match="temperature must be finite and >= 0"):
            DecodingControls(temperature=value)

    @pytest.mark.parametrize("kind", ["open", "numeric"])
    def test_a_variable_without_levels_is_refused_before_any_send(self, kind):
        class NoSend:
            def send(self, *args, **kwargs):
                raise AssertionError("no request may be sent")

        scheme = CodingScheme((Variable("note", kind),))
        with pytest.raises(ConfigError, match=f"^variable 'note' is {kind}; annotate "
                                              "labels a categorical or ordinal one$"):
            annotate(make_corpus(3), PromptTemplate("{text}", "note"), NoSend(), scheme)


class TestMockModel:
    def test_rules_mode_matches_keyword(self):
        mock = MockModel("rules", rules={"filler": "Positive"})
        reply = mock.send("passage with filler words",
                          DecodingControls(), unit_ids=["u1"])
        assert reply.kind == "text" and reply.content == "Positive"

    def test_rules_mode_answers(self):
        # one answer for no unit id or one, numbered lines for a batch; the
        # first keyword found (case aside) wins, and none found answers ""
        mock = MockModel("rules", rules={"filler": "Positive", "word": "Negative"})
        controls = DecodingControls()
        for ids in ((), ("u1",)):
            assert mock.send("Filler words", controls, ids).content == "Positive"
            assert mock.send("nothing here", controls, ids).content == ""
        assert (mock.send("some words", controls, ("u1", "u2", "u3")).content
                == "1. Negative\n2. Negative\n3. Negative")
        assert mock.send("none", controls, ("u1", "u2", "u3")).content == "1. \n2. \n3. "

    def test_identity_matrix_reproduces_gold(self):
        corpus = make_corpus(30)
        mock = MockModel.from_corpus(corpus, SENTIMENT, np.eye(2))
        result = annotate(corpus, TEMPLATE, mock, SCHEME)
        assert result.counts_by_status() == {"ok": 30}
        for u in corpus:
            assert result.record_for(u.id).label == u.gold["sentiment"]

    def test_corruption_rate_within_three_sigma(self):
        # 0.8/0.2 corruption over 2000 units: binomial oracle on the
        # number of labels that disagree with gold.
        n = 2000
        units = tuple(
            Unit(id=f"u{i:05d}", text="t", gold={"sentiment": "Positive"})
            for i in range(n)
        )
        corpus = Corpus(units)
        mock = MockModel.from_corpus(
            corpus, SENTIMENT, np.array([[0.8, 0.2], [0.2, 0.8]]), seed=7
        )
        result = annotate(corpus, TEMPLATE, mock, SCHEME)
        flipped = sum(
            1 for r in result.records if r.label != "Positive"
        )
        sd = math.sqrt(n * 0.8 * 0.2)
        assert abs(flipped - 0.2 * n) < 3 * sd

    def test_per_unit_stream_is_batch_invariant(self):
        corpus = make_corpus(24, seed=3)
        matrix = np.array([[0.7, 0.3], [0.3, 0.7]])
        single = annotate(
            corpus, TEMPLATE,
            MockModel.from_corpus(corpus, SENTIMENT, matrix, seed=1),
            SCHEME, policy=AnnotatePolicy(batch_size=1),
        )
        batched = annotate(
            corpus, TEMPLATE,
            MockModel.from_corpus(corpus, SENTIMENT, matrix, seed=1),
            SCHEME, policy=AnnotatePolicy(batch_size=4),
        )
        assert (single.unit_ids, single.labels) == (batched.unit_ids, batched.labels)

    def test_parallel_schedule_is_invariant(self):
        corpus = make_corpus(24, seed=3)
        matrix = np.array([[0.7, 0.3], [0.3, 0.7]])
        serial = annotate(
            corpus, TEMPLATE,
            MockModel.from_corpus(corpus, SENTIMENT, matrix, seed=1),
            SCHEME, policy=AnnotatePolicy(batch_size=2, max_in_flight=1),
        )
        parallel = annotate(
            corpus, TEMPLATE,
            MockModel.from_corpus(corpus, SENTIMENT, matrix, seed=1),
            SCHEME, policy=AnnotatePolicy(batch_size=2, max_in_flight=4),
        )
        assert [r.to_dict() for r in serial.records] == \
            [r.to_dict() for r in parallel.records]

    def test_refusal_recorded_without_label(self):
        corpus = make_corpus(5)
        mock = MockModel.from_corpus(
            corpus, SENTIMENT, np.eye(2), refuse_units=["u002"]
        )
        result = annotate(corpus, TEMPLATE, mock, SCHEME)
        rec = result.record_for("u002")
        assert rec.status == "refused" and rec.label is None
        assert result.counts_by_status() == {"ok": 4, "refused": 1}

    def test_refused_batch_is_retried_unit_by_unit(self):
        # the mock refuses a whole batch that holds a refused unit; the batch
        # is then sent again one unit at a time, so only that unit is refused
        corpus = make_corpus(9)
        mock = MockModel.from_corpus(corpus, SENTIMENT, np.eye(2),
                                     refuse_units=["u004"])
        sent, send = [], mock.send
        mock.send = lambda prompt, controls, unit_ids=(): (
            sent.append(tuple(unit_ids)) or send(prompt, controls, unit_ids))
        result = annotate(corpus, TEMPLATE, mock, SCHEME,
                          policy=AnnotatePolicy(batch_size=3))
        assert result.counts_by_status() == {"ok": 8, "refused": 1}
        assert result.record_for("u004").status == "refused"
        for r, u in zip(result.records, corpus):
            assert r.unit_id == u.id
            if u.id != "u004":
                assert r.label == u.gold["sentiment"]
        assert sent == [("u000", "u001", "u002"), ("u003", "u004", "u005"),
                        ("u003",), ("u004",), ("u005",), ("u006", "u007", "u008")]

    def test_every_unit_gets_exactly_one_record(self):
        corpus = make_corpus(17)
        mock = MockModel.from_corpus(corpus, SENTIMENT, np.eye(2))
        result = annotate(corpus, TEMPLATE, mock, SCHEME,
                          policy=AnnotatePolicy(batch_size=5))
        assert sorted(r.unit_id for r in result.records) == \
            sorted(u.id for u in corpus)

    def test_negative_matrix_entry_rejected(self):
        # the row sums to 1, but -0.1 is no probability
        with pytest.raises(ConfigError, match="non-negative"):
            MockModel("gold_corruption", labels=("Positive", "Negative"),
                      matrix=np.array([[1.1, -0.1], [0.0, 1.0]]),
                      gold={"u1": "Positive"})

    def test_labels_are_the_digest_formula(self):
        # each unit's label, recomputed from hashlib alone: the uniform is the
        # top 53 bits of bytes 8-15 of sha256(f"{seed}:{uid}"), placed on the
        # gold row's normalised cumulative sum; over matrices with zero
        # entries, rows rounded to two decimals and rows that sum to 1 only
        # within 1e-9
        rng = np.random.default_rng(2024)
        for trial in range(60):
            k = int(rng.integers(2, 5))
            matrix = rng.random((k, k)) * (rng.random((k, k)) > 0.3)
            matrix[:, 0] += 1e-3  # no row of zeros
            matrix /= matrix.sum(axis=1, keepdims=True)
            if trial % 3 == 1:
                matrix = matrix.round(2)
                matrix[np.arange(k), matrix.argmax(axis=1)] += 1 - matrix.sum(axis=1)
            elif trial % 3 == 2:
                matrix[:, 0] -= 6e-10
            labels = tuple(f"L{j}" for j in range(k))
            ids = [f"t{trial}-u{i}" for i in range(150)]
            gold = {uid: labels[i % k] for i, uid in enumerate(ids)}
            mock = MockModel("gold_corruption", labels=labels, matrix=matrix,
                             gold=gold, seed=trial)
            for uid in ids:
                digest = hashlib.sha256(f"{trial}:{uid}".encode()).digest()
                u = (int.from_bytes(digest[8:16], "big") >> 11) * 2.0**-53
                cum = list(accumulate(matrix[labels.index(gold[uid])].tolist()))
                want = labels[bisect_right([c / cum[-1] for c in cum], u)]
                assert mock._drawn[uid] == want

    def test_label_shares_match_the_matrix(self):
        # over 10^4 units each row's label shares lie within 5 binomial SDs
        # of its probabilities, and a zero-probability label is never drawn
        labels = ("A", "B", "C", "D")
        matrix = np.array([[0.7, 0.2, 0.1, 0.0], [0.0, 0.5, 0.5, 0.0],
                           [0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.1, 0.9]])
        gold = {f"f{i}": labels[i % 4] for i in range(10_000)}
        mock = MockModel("gold_corruption", labels=labels, matrix=matrix,
                         gold=gold, seed=3)
        for g, row in zip(labels, matrix):
            drawn = [mock._drawn[uid] for uid, lab in gold.items() if lab == g]
            n = len(drawn)
            for label, p in zip(labels, row):
                count = drawn.count(label)
                if p == 0:
                    assert count == 0, (g, label)
                else:
                    assert abs(count - n * p) <= 5 * math.sqrt(n * p * (1 - p)), \
                        (g, label, count)

    def test_gold_outside_labels_names_the_unit(self):
        with pytest.raises(DataError, match="unit 'u1': gold label 'C'"):
            MockModel("gold_corruption", labels=("A", "B"), matrix=np.eye(2),
                      gold={"u1": "C"})

    def test_gold_required(self):
        corpus = Corpus((Unit(id="a", text="x"),))
        with pytest.raises(ConfigError, match="gold"):
            MockModel.from_corpus(corpus, SENTIMENT, np.eye(2))

    def test_gold_outside_labels_rejected_at_construction(self):
        corpus = Corpus((Unit(id="a", text="x", gold={"sentiment": "Foo"}),))
        with pytest.raises(DataError, match=re.escape(
                "unit 'a': gold label 'Foo' is not one of the labels "
                "['Positive', 'Negative']")):
            MockModel.from_corpus(corpus, SENTIMENT, np.eye(2))

    def test_labels_do_not_depend_on_unit_order(self):
        corpus = make_corpus(1500, seed=4)
        matrix = np.array([[0.7, 0.3], [0.2, 0.8]])
        forward = MockModel.from_corpus(corpus, SENTIMENT, matrix, seed=9)
        backward = MockModel.from_corpus(Corpus(tuple(corpus)[::-1]), SENTIMENT,
                                         matrix, seed=9)
        assert {u.id: forward._drawn[u.id] for u in corpus} == \
            {u.id: backward._drawn[u.id] for u in corpus}

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_annotations(self, seed):
        corpus = make_corpus(10, seed=2)
        matrix = np.array([[0.6, 0.4], [0.4, 0.6]])
        a = annotate(corpus, TEMPLATE,
                     MockModel.from_corpus(corpus, SENTIMENT, matrix, seed=seed),
                     SCHEME)
        b = annotate(corpus, TEMPLATE,
                     MockModel.from_corpus(corpus, SENTIMENT, matrix, seed=seed),
                     SCHEME)
        assert (a.unit_ids, a.labels) == (b.unit_ids, b.labels)


class _FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload else "")

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class _FakeSession:
    """Scripted stand-in for requests.Session."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.headers = {}
        self.calls = []

    def post(self, url, json=None, timeout=None):
        self.calls.append({"url": url, "json": json, "timeout": timeout})
        return self.responses.pop(0)


def ok_response(content):
    return _FakeResponse(
        200, {"choices": [{"message": {"content": content}}]}
    )


class TestAnnotatePolicy:
    @pytest.mark.parametrize("key, value, floor", [
        ("max_retries", -3, 0), ("backoff", -1.0, 0), ("batch_size", 0, 1),
        ("max_in_flight", 0, 1)])
    def test_value_below_its_floor_is_a_config_error(self, key, value, floor):
        with pytest.raises(ConfigError, match=f"^{key} must be >= {floor}$"):
            AnnotatePolicy(**{key: value})

    def test_no_retries_and_no_backoff_are_allowed(self):
        AnnotatePolicy(max_retries=0, backoff=0.0)


class TestChatCompletionClient:
    def test_missing_token_is_config_error(self, monkeypatch):
        monkeypatch.delenv("QUANTITIZE_API_TOKEN", raising=False)
        with pytest.raises(ConfigError, match="QUANTITIZE_API_TOKEN"):
            ChatCompletionClient("https://api.example", "m1")

    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_timeout_that_is_not_positive_is_config_error(self, monkeypatch, timeout):
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        with pytest.raises(ConfigError, match=f"^timeout must be positive, got {timeout}$"):
            ChatCompletionClient("https://api.example", "m1", timeout=timeout)

    def test_wire_format(self, monkeypatch):
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        session = _FakeSession([ok_response("Positive")])
        client = ChatCompletionClient("https://api.example/", "m1",
                                      session=session)
        controls = DecodingControls.for_variable(SENTIMENT)
        reply = client.send("hello", controls, unit_ids=["u1"])
        assert reply.kind == "text" and reply.content == "Positive"
        call = session.calls[0]
        assert call["url"] == "https://api.example/chat/completions"
        body = call["json"]
        assert body["model"] == "m1"
        assert body["messages"] == [{"role": "user", "content": "hello"}]
        assert body["temperature"] == 0.0
        assert body["max_tokens"] == 2
        assert body["logit_bias"] == {"Positive": 100, "Negative": 100}
        assert session.headers["Authorization"] == "Bearer tok"

    def test_server_errors_are_transport(self, monkeypatch):
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        for code in (500, 503, 429):
            session = _FakeSession([_FakeResponse(code, text="oops")])
            client = ChatCompletionClient("https://api.example", "m1",
                                          session=session)
            reply = client.send("x", DecodingControls())
            assert reply.kind == "transport_error"
            assert str(code) in reply.content

    def test_client_errors_are_config(self, monkeypatch):
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        session = _FakeSession([_FakeResponse(401, text="bad token")])
        client = ChatCompletionClient("https://api.example", "m1",
                                      session=session)
        with pytest.raises(ConfigError, match="401"):
            client.send("x", DecodingControls())

    def test_refusal_field_propagates(self, monkeypatch):
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        session = _FakeSession([
            _FakeResponse(200, {"choices": [{"message": {
                "content": "", "refusal": "cannot help"}}]})
        ])
        client = ChatCompletionClient("https://api.example", "m1",
                                      session=session)
        reply = client.send("x", DecodingControls())
        assert reply.kind == "refusal" and reply.content == "cannot help"

    @pytest.mark.parametrize("payload", [
        {"choices": None}, [{"choices": [{"message": {"content": "Positive"}}]}],
        {"choices": [{"message": "Positive"}]}, {"choices": ["Positive"]}, "Positive",
    ], ids=["null-choices", "array-body", "string-message", "string-choice",
            "string-body"])
    def test_body_of_the_wrong_shape_is_malformed(self, monkeypatch, payload):
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        client = ChatCompletionClient("https://api.example", "m1",
                                      session=_FakeSession([_FakeResponse(200, payload)]))
        reply = client.send("x", DecodingControls())
        assert (reply.kind, reply.content) == ("transport_error", "malformed_response")

    def test_null_content_is_empty_text(self, monkeypatch):
        # not the text "None", which a level named None would accept
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        client = ChatCompletionClient("https://api.example", "m1", session=_FakeSession(
            [_FakeResponse(200, {"choices": [{"message": {"content": None}}]})]))
        reply = client.send("x", DecodingControls())
        assert (reply.kind, reply.content) == ("text", "")

    def test_retry_backoff_then_success(self, monkeypatch):
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        corpus = Corpus((Unit(id="a", text="some text"),))
        session = _FakeSession([
            _FakeResponse(503, text="busy"),
            _FakeResponse(503, text="busy"),
            ok_response("Positive"),
        ])
        client = ChatCompletionClient("https://api.example", "m1",
                                      session=session)
        delays = []
        result = annotate(corpus, TEMPLATE, client, SCHEME,
                          policy=AnnotatePolicy(max_retries=3, backoff=0.5),
                          sleep=delays.append)
        rec = result.record_for("a")
        assert rec.status == "ok" and rec.attempts == 3
        assert delays == [0.5, 1.0]

    def test_retries_exhausted_marks_transport_error(self, monkeypatch):
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        corpus = Corpus((Unit(id="a", text="some text"),))
        session = _FakeSession([_FakeResponse(503, text="busy")] * 4)
        client = ChatCompletionClient("https://api.example", "m1",
                                      session=session)
        result = annotate(corpus, TEMPLATE, client, SCHEME,
                          policy=AnnotatePolicy(max_retries=3),
                          sleep=lambda _: None)
        rec = result.record_for("a")
        assert rec.status == "transport_error" and rec.label is None
        assert rec.attempts == 4


class TestAnnotationSet:
    def test_manifest_records_run_parameters(self):
        corpus = make_corpus(4)
        mock = MockModel.from_corpus(corpus, SENTIMENT, np.eye(2), seed=5)
        result = annotate(corpus, TEMPLATE, mock, SCHEME, seed=5,
                          policy=AnnotatePolicy(batch_size=2))
        m = result.manifest
        assert m["variable"] == "sentiment"
        assert m["model"] == mock.identifier
        assert m["policy"]["batch_size"] == 2
        assert m["seed"] == 5
        assert m["n_units"] == 4
        assert m["decoding"]["temperature"] == 0.0

    def test_save_load_round_trip(self, tmp_path):
        corpus = make_corpus(6)
        mock = MockModel.from_corpus(corpus, SENTIMENT, np.eye(2))
        result = annotate(corpus, TEMPLATE, mock, SCHEME)
        result.save(tmp_path / "ann.jsonl", tmp_path / "manifest.json")
        again = AnnotationSet.load(tmp_path / "ann.jsonl",
                                   tmp_path / "manifest.json")
        assert again.records == result.records
        assert again.manifest == result.manifest

    @pytest.mark.parametrize("short", ["variables", "raws", "labels", "statuses",
                                       "attempts"])
    def test_columns_of_unequal_length_are_refused(self, short):
        # a short column made the set save fewer records than its len
        columns = {"unit_ids": ["u1", "u2"], "variables": ["sentiment"] * 2,
                   "raws": ["Positive", "x"], "labels": ["Positive", None],
                   "statuses": ["ok", "unparseable"], "attempts": [1, 1]}
        columns[short] = columns[short][:1]
        with pytest.raises(DataError, match=f"^column {short!r} has 1 rows where "
                                            "'unit_ids' has 2$"):
            AnnotationSet(columns.values(), {"x": 1})

    def test_duplicate_records_rejected(self):
        from quantitize import AnnotationRecord
        r = AnnotationRecord("u1", "sentiment", "Positive", "Positive", "ok", 1)
        with pytest.raises(DataError):
            AnnotationSet(zip(*map(astuple, (r, r))), {"x": 1})

    def test_record_for_takes_a_units_first_record(self):
        from quantitize import AnnotationRecord
        first = AnnotationRecord("u1", "sentiment", "Positive", "Positive", "ok", 1)
        second = AnnotationRecord("u1", "stance", "x", None, "unparseable", 1)
        other = AnnotationRecord("u2", "sentiment", "", None, "refused", 1)
        records = AnnotationSet(zip(*map(astuple, (first, second, other))), {"x": 1})
        assert records.record_for("u1") == first  # built on demand
        assert records.record_for("u2") == other
        with pytest.raises(DataError, match="no record for unit 'u3'"):
            records.record_for("u3")

    def test_meta_text_key_does_not_replace_unit_text(self):
        rendered = PromptTemplate("Label {title}: {text}", "sentiment").render_row(
            "u1", "the passage", {"text": "META", "title": "T"})
        assert rendered == "Label T: the passage"

    @pytest.mark.parametrize("instruction", ["{} {text}", "{0}", "{text} {0.x}",
                                             "unclosed {text"])
    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_positional_or_malformed_template_rejected_before_send(
            self, instruction, batch_size):
        class NoSend:
            def send(self, *args, **kwargs):
                raise AssertionError("no request may be sent")

        with pytest.raises(ConfigError):
            annotate(make_corpus(4), PromptTemplate(instruction, "sentiment"),
                     NoSend(), SCHEME, policy=AnnotatePolicy(batch_size=batch_size))

    @pytest.mark.parametrize("instruction, batch_size, who", [
        *((instruction, 1, "unit 'u9'") for instruction in (
            "{text} {missing_field}", "{text:d}", "{title!z}", "{title.x}",
            "{text[5]}",  # the unit's text is "hi"
        )),
        ("{text} {title}", 1, "unit 'u003'"),  # the one unit without a title
        ("{text:d}", 2, "units ['u000', 'u001']"),
        ("{text!z}", 3, "units ['u000', 'u001', 'u002']"),
    ])
    def test_unresolvable_placeholder_names_unit(self, instruction, batch_size, who):
        ids = ["u9"] if who == "unit 'u9'" else [f"u{i:03d}" for i in range(5)]
        corpus = Corpus(Unit(id=uid, text="hi",
                             meta={} if uid == "u003" else {"title": "T"})
                        for uid in ids)
        bad = PromptTemplate(instruction, "sentiment")
        mock = MockModel("rules", rules={})
        with pytest.raises(DataError, match=re.escape(f"{who}: ")):
            annotate(corpus, bad, mock, SCHEME,
                     policy=AnnotatePolicy(batch_size=batch_size))

    @pytest.mark.parametrize("policy", [
        AnnotatePolicy(), AnnotatePolicy(batch_size=3),
        AnnotatePolicy(batch_size=2, max_in_flight=3)])
    def test_annotate_reads_the_corpus_columns(self, policy, monkeypatch):
        # no Unit is built: each prompt is filled from the unit's row of
        # the corpus columns, and is the prompt render_row or render_rows gives
        corpus = Corpus(Unit(id=f"u{i:03d}", text=f"passage {i}",
                             meta={"title": f"T{i}"}, gold={"sentiment": "Positive"})
                        for i in range(7))
        template = (PromptTemplate("{title}: {text}", "sentiment")
                    if policy.batch_size == 1 else TEMPLATE)
        batches = [slice(i, i + policy.batch_size) for i in range(0, 7, policy.batch_size)]
        prompts = [template.render_row(corpus.ids[b][0], corpus.texts[b][0], corpus.meta[b][0])
                   if len(corpus.ids[b]) == 1 else
                   template.render_rows(corpus.ids[b], corpus.texts[b]) for b in batches]
        mock = MockModel.from_corpus(corpus, SENTIMENT, np.eye(2), refuse_units=["u004"])
        sent, send = [], mock.send
        mock.send = lambda prompt, controls, unit_ids=(): (
            sent.append(prompt) or send(prompt, controls, unit_ids))

        def no_unit(self, row):
            raise AssertionError("annotate built a Unit")

        monkeypatch.setattr(Corpus, "__getitem__", no_unit)
        result = annotate(corpus, template, mock, SCHEME, policy=policy)
        monkeypatch.undo()
        assert set(prompts) <= set(sent)
        assert [r.to_dict() for r in result.records] == [
            {"unit_id": u.id, "variable": "sentiment",
             "raw": "mock refusal" if u.id == "u004" else "Positive",
             "label": None if u.id == "u004" else "Positive",
             "status": "refused" if u.id == "u004" else "ok", "attempts": 1}
            for u in corpus]
