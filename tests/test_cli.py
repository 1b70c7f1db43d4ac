import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from quantitize import (
    CodingScheme,
    Corpus,
    Level,
    MockModel,
    ModelReply,
    Unit,
    Variable,
    gen_interview_margins,
    gen_simpson,
    save_corpus,
    save_scheme,
)
from quantitize.cli import main


@pytest.fixture
def workspace(tmp_path):
    """A gold corpus, scheme, prompt template and run config on disk."""
    scheme = CodingScheme((
        Variable("sentiment", "categorical",
                 (Level("Positive"), Level("Negative"))),
    ))
    units = []
    for i in range(40):
        gold = "Positive" if i % 2 == 0 else "Negative"
        units.append(Unit(
            id=f"u{i:03d}",
            text=f"passage {i} about campus life",
            meta={"year": 1990 + (i % 4)},
            gold={"sentiment": gold},
        ))
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus(tuple(units)), corpus_path)
    scheme_path = tmp_path / "scheme.yaml"
    save_scheme(scheme, scheme_path)
    template_path = tmp_path / "prompt.txt"
    template_path.write_text(
        "Label the passage Positive or Negative.\n\n{text}\n",
        encoding="utf-8",
    )
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump({
        "corpus": "corpus.jsonl",
        "scheme": "scheme.yaml",
        "template": "prompt.txt",
        "variable": "sentiment",
        "output_dir": "out",
        "seed": 11,
        "client": {"kind": "mock", "mode": "gold_corruption",
                   "matrix": [[0.9, 0.1], [0.1, 0.9]]},
    }), encoding="utf-8")
    return tmp_path


def run(argv):
    return main([str(a) for a in argv])


def _annotate_and_evaluate(workspace):
    assert run(["annotate", "--config", workspace / "run.yaml"]) == 0
    assert run([
        "evaluate", "--corpus", workspace / "corpus.jsonl",
        "--annotations", workspace / "out" / "annotations.jsonl",
        "--scheme", workspace / "scheme.yaml",
        "--variable", "sentiment", "--out-dir", workspace / "eval",
    ]) == 0


def _bootstrap_argv(workspace, statistic, meta, replicates=10, out="boot"):
    """Writes a copy of the workspace's corpus whose unit ``i`` carries
    ``meta(i)``, and returns the arguments that bootstrap the annotations
    against it. Results go to ``out/boot.json`` and ``out/replicates.csv``."""
    units = tuple(Unit(id=f"u{i:03d}", text=f"passage {i}", meta=meta(i))
                  for i in range(40))
    save_corpus(Corpus(units), workspace / "meta.jsonl")
    return [
        "bootstrap", "--annotations", workspace / "out" / "annotations.jsonl",
        "--confusion", workspace / "eval" / "confusion.csv",
        "--statistic", statistic, "--corpus", workspace / "meta.jsonl",
        "--replicates", replicates, "--seed", 5,
        "--out", workspace / out / "boot.json",
        "--replicates-csv", workspace / out / "replicates.csv",
    ]


def _child_stdout(code, *args):
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    import quantitize
    env = {**os.environ,
           "PYTHONPATH": str(Path(quantitize.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout


def test_import_leaves_heavy_modules_unloaded():
    # every CLI process pays for what importing the CLI loads; requests is
    # loaded only by a run on an HTTP endpoint, and scipy by no command
    heavy = ("scipy", "requests")
    loaded = _child_stdout(
        "import sys, quantitize.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {heavy!r}))")
    assert loaded.strip() == "[]"


def test_commands_run_without_scipy(workspace):
    # scipy is a dependency of the tests only: with it unimportable, a fixed
    # and a mixed fit, a demo, a bootstrap whose level needs a normal
    # quantile and a mixed bootstrap all succeed
    rows = ["g,x,y"] + [f"g{i % 5},{(i % 7) / 3!r},{(i * i + i // 5) % 3 % 2}"
                        for i in range(100)]
    (workspace / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    _annotate_and_evaluate(workspace)

    def meta(i):
        return {"age": 20.0 + (7 * i) % 13, "school": f"s{i % 4}"}

    commands = [
        ["fit", "--data", workspace / "data.csv", "--formula", formula,
         "--out", workspace / out]
        for formula, out in (("y ~ x", "fixed.json"), ("y ~ x + (1|g)", "mixed.json"))
    ] + [
        ["demo", "simpson", "--seed", 0],
        _bootstrap_argv(workspace, "logistic:Positive ~ age", meta) + ["--level", 0.9],
        _bootstrap_argv(workspace, "mixed:Positive ~ age + (1|school)", meta,
                        out="boot_mixed"),
    ]
    out = _child_stdout(
        "import json, sys; sys.modules['scipy'] = None; "
        "from quantitize.cli import main; "
        "print([main(argv) for argv in json.loads(sys.argv[1])])",
        json.dumps([list(map(str, argv)) for argv in commands]))
    assert out.splitlines()[-1] == "[0, 0, 0, 0, 0]"
    assert json.loads((workspace / "mixed.json").read_text())["converged"] is True
    boot = json.loads((workspace / "boot" / "boot.json").read_text())
    assert boot["config"]["level"] == 0.9
    mixed = json.loads((workspace / "boot_mixed" / "boot.json").read_text())
    assert list(mixed["statistics"]) == ["beta_age", "p_age"]


class TestPipeline:
    def test_annotate_evaluate_bootstrap_report(self, workspace, capsys):
        assert run(["annotate", "--config", workspace / "run.yaml"]) == 0
        out = workspace / "out"
        assert (out / "annotations.jsonl").exists()
        assert (out / "manifest.json").exists()
        assert (out / "audit.jsonl").exists() or True  # mock writes no traffic

        assert run([
            "evaluate", "--corpus", workspace / "corpus.jsonl",
            "--annotations", out / "annotations.jsonl",
            "--scheme", workspace / "scheme.yaml",
            "--variable", "sentiment", "--out-dir", workspace / "eval",
        ]) == 0
        report = json.loads((workspace / "eval" / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert (workspace / "eval" / "confusion.csv").exists()

        assert run([
            "bootstrap", "--annotations", out / "annotations.jsonl",
            "--confusion", workspace / "eval" / "confusion.csv",
            "--statistic", "proportion:Positive",
            "--replicates", 300, "--seed", 4,
            "--out", workspace / "boot" / "boot.json",
        ]) == 0
        boot = json.loads((workspace / "boot" / "boot.json").read_text())
        stat = boot["statistics"]["prop_Positive"]
        assert stat["ci_low"] <= stat["point"] <= stat["ci_high"]

        assert run([
            "report", workspace / "eval" / "report.json",
            workspace / "boot" / "boot.json",
            "--out", workspace / "summary.md",
        ]) == 0
        text = (workspace / "summary.md").read_text()
        assert "report.json" in text and "boot.json" in text

    def test_evaluate_counts_the_records_of_units_not_in_the_corpus(
            self, workspace, capsys):
        _annotate_and_evaluate(workspace)
        assert "not in the corpus" not in capsys.readouterr().err
        units = [Unit(id=f"u{i:03d}", text=f"passage {i}",
                      gold={"sentiment": ("Positive", "Negative")[i % 2]})
                 for i in range(20)]
        save_corpus(Corpus(tuple(units)), workspace / "half.jsonl")
        assert run([
            "evaluate", "--corpus", workspace / "half.jsonl",
            "--annotations", workspace / "out" / "annotations.jsonl",
            "--scheme", workspace / "scheme.yaml",
            "--variable", "sentiment", "--out-dir", workspace / "half",
        ]) == 0
        assert capsys.readouterr().err == (
            "warning: 20 annotation records name units not in the corpus; "
            "they are left out\n")
        assert json.loads((workspace / "half" / "report.json").read_text())["n"] == 20

    def test_report_creates_its_output_directory(self, tmp_path):
        (tmp_path / "r.json").write_text('{"n": 1}\n', encoding="utf-8")
        assert run([
            "report", tmp_path / "r.json", "--out", tmp_path / "missing" / "summary.md",
        ]) == 0
        assert "r.json" in (tmp_path / "missing" / "summary.md").read_text()

    def test_rerun_is_byte_identical(self, workspace):
        run(["annotate", "--config", workspace / "run.yaml"])
        first = (workspace / "out" / "annotations.jsonl").read_bytes()
        run(["annotate", "--config", workspace / "run.yaml"])
        second = (workspace / "out" / "annotations.jsonl").read_bytes()
        assert first == second

    def test_batch_size_does_not_change_labels(self, workspace):
        run(["annotate", "--config", workspace / "run.yaml"])
        base = (workspace / "out" / "annotations.jsonl").read_bytes()

        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        cfg["policy"] = {"batch_size": 4}
        cfg["output_dir"] = "out_batched"
        (workspace / "run4.yaml").write_text(yaml.safe_dump(cfg),
                                             encoding="utf-8")
        run(["annotate", "--config", workspace / "run4.yaml"])
        batched = (workspace / "out_batched" / "annotations.jsonl").read_bytes()
        assert base == batched


class TestIngest:
    def test_csv_with_mapping(self, tmp_path):
        (tmp_path / "rows.csv").write_text(
            "id,text,year\nr1,hello,1954\nr2,world,1955\n", encoding="utf-8"
        )
        (tmp_path / "map.yaml").write_text(yaml.safe_dump({
            "id_column": "id", "text_column": "text",
            "meta_columns": {"year": "int"},
        }), encoding="utf-8")
        assert run([
            "ingest", "--input", tmp_path / "rows.csv", "--format", "csv",
            "--mapping", tmp_path / "map.yaml",
            "--out", tmp_path / "corpus.jsonl",
        ]) == 0
        lines = (tmp_path / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["meta"]["year"] == 1954

    def test_text_with_window_strategy(self, tmp_path):
        (tmp_path / "doc.txt").write_text("word " * 50, encoding="utf-8")
        assert run([
            "ingest", "--input", tmp_path / "doc.txt", "--format", "text",
            "--strategy", "window:10",
            "--out", tmp_path / "corpus.jsonl",
        ]) == 0
        lines = (tmp_path / "corpus.jsonl").read_text().splitlines()
        assert len(lines) > 1
        joined = "".join(json.loads(l)["text"] for l in lines)
        assert joined == "word " * 50

    def test_text_with_page_break_and_window_strategy(self, tmp_path):
        # the break's 46 newlines outrun a 40-character window: the chunk
        # that is only newlines is dropped, not made a unit
        (tmp_path / "doc.txt").write_text("word " * 12 + "\n" * 46 + "word " * 12,
                                          encoding="utf-8")
        assert run([
            "ingest", "--input", tmp_path / "doc.txt", "--format", "text",
            "--strategy", "window:10", "--out", tmp_path / "corpus.jsonl",
        ]) == 0
        texts = [json.loads(l)["text"]
                 for l in (tmp_path / "corpus.jsonl").read_text().splitlines()]
        assert all(t.strip() for t in texts)
        assert "".join(texts).split() == ["word"] * 24

    def test_text_with_scene_marker_that_has_a_colon(self, tmp_path):
        (tmp_path / "doc.txt").write_text("INT. a\nb\nEXT. c\nd\n", encoding="utf-8")
        assert run([
            "ingest", "--input", tmp_path / "doc.txt", "--format", "text",
            "--strategy", r"scene:(?:INT|EXT)\.", "--out", tmp_path / "corpus.jsonl",
        ]) == 0
        lines = (tmp_path / "corpus.jsonl").read_text().splitlines()
        assert [json.loads(l)["text"] for l in lines] == ["INT. a\nb\n", "EXT. c\nd\n"]


class TestExitCodes:
    def test_unknown_config_key_is_2(self, workspace, capsys):
        # a key the run would ignore is rejected, at the top level and in
        # the sections that build a dataclass
        for section, key in ((None, "bogus_key"), (None, "bootstrap"),
                             ("policy", "batchsize"), ("decoding", "temprature")):
            cfg = yaml.safe_load((workspace / "run.yaml").read_text())
            (cfg.setdefault(section, {}) if section else cfg)[key] = 2
            (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg),
                                                encoding="utf-8")
            assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2, key
            assert key in capsys.readouterr().err
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        cfg["policy"] = 3
        (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2
        assert "policy must be a mapping" in capsys.readouterr().err

    def test_wrong_value_type_is_2(self, workspace, monkeypatch, capsys):
        # a value of the wrong type is named with its section and key, at
        # every level of the run config and down to list and mapping
        # elements; the last three have the right type but the mock cannot
        # use them
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        endpoint = {"kind": "endpoint", "endpoint": "http://127.0.0.1:9",
                    "model": "m1", "timeout": "x"}
        for path, value, named in (
                ("policy.batch_size", "2", "policy.batch_size"),
                ("policy.max_retries", True, "policy.max_retries"),
                ("decoding.max_output_tokens", "3", "decoding.max_output_tokens"),
                ("decoding.stop", "###", "decoding.stop"),
                ("decoding.label_bias", [["Positive"]], "decoding.label_bias"),
                ("seed", "abc", "config.seed"),
                ("seed", 1.7, "config.seed"),
                ("seed", True, "config.seed"),
                ("corpus", 5, "config.corpus"),
                ("client", None, "config.client"),
                ("client.matrix", "foo", "client.matrix"),
                ("client.refuse_units", 5, "client.refuse_units"),
                ("client.refuse_units", "u001", "client.refuse_units"),
                ("client.rules", ["a"], "client.rules"),
                ("client", endpoint, "client.timeout"),
                ("client.matrix", [[1.0, 0.0], [1.0]], "needs a 2x2 grid"),
                ("client.matrix", [[1.1, -0.1], [0.0, 1.0]], "non-negative"),
                ("client.mode", "bogus", "unknown mock mode")):
            cfg = yaml.safe_load((workspace / "run.yaml").read_text())
            *parents, key = path.split(".")
            section = cfg
            for name in parents:
                section = section.setdefault(name, {})
            section[key] = value
            (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg),
                                                encoding="utf-8")
            assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2, path
            assert named in capsys.readouterr().err, path
        (workspace / "rows.csv").write_text("id,text\nr1,hello\n", encoding="utf-8")
        (workspace / "map.yaml").write_text(yaml.safe_dump({"id_column": 3}),
                                            encoding="utf-8")
        assert run(["ingest", "--input", workspace / "rows.csv", "--format", "csv",
                    "--mapping", workspace / "map.yaml",
                    "--out", workspace / "c.jsonl"]) == 2
        assert "mapping.id_column" in capsys.readouterr().err

    def test_missing_required_key_is_2(self, workspace, capsys):
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        del cfg["variable"]
        (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2
        assert "'variable'" in capsys.readouterr().err

    def test_null_decoding_is_the_default(self, workspace):
        run(["annotate", "--config", workspace / "run.yaml"])
        base = (workspace / "out" / "annotations.jsonl").read_bytes()
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        cfg["decoding"] = None
        cfg["output_dir"] = "out_null"
        (workspace / "null.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert run(["annotate", "--config", workspace / "null.yaml"]) == 0
        assert (workspace / "out_null" / "annotations.jsonl").read_bytes() == base

    def test_unusable_argument_value_is_2(self, tmp_path, capsys):
        (tmp_path / "doc.txt").write_text("word " * 50, encoding="utf-8")
        for strategy in ("window:abc", "window:10:x", "scene:(", "scene:a?",
                         "window:5:0:9", "paragraph:7", "sentence:", "window", "lines"):
            assert run([
                "ingest", "--input", tmp_path / "doc.txt", "--format", "text",
                "--strategy", strategy, "--out", tmp_path / "corpus.jsonl",
            ]) == 2, strategy
            assert "strategy" in capsys.readouterr().err, strategy
        rows = ["id,online"] + [f"g{i % 3},{i % 2}" for i in range(12)]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n",
                                           encoding="utf-8")
        for nodes in (0, -1, 101, 400):
            assert run([
                "fit", "--data", tmp_path / "data.csv",
                "--formula", "online ~ (1|id)", "--quad-nodes", nodes,
                "--out", tmp_path / "fit.json",
            ]) == 2, nodes
            assert "quadrature nodes" in capsys.readouterr().err, nodes

    def test_strategy_parameter_out_of_range_is_2(self, tmp_path, capsys):
        (tmp_path / "doc.txt").write_text("INT. a\nb\nEXT. c\nd\ne\n", encoding="utf-8")
        for strategy, named in (("scene:", "marker"), ("window:5:-3", "merge_below"),
                                ("scene:INT:-1", "merge_below")):
            assert run([
                "ingest", "--input", tmp_path / "doc.txt", "--format", "text",
                "--strategy", strategy, "--out", tmp_path / "corpus.jsonl",
            ]) == 2, strategy
            assert named in capsys.readouterr().err, strategy

    def test_retry_policy_or_timeout_out_of_range_is_2(self, workspace, monkeypatch,
                                                      capsys):
        # each used to be accepted, and a negative backoff or a timeout of 0
        # ended the run with a traceback at its first send
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        endpoint = {"kind": "endpoint", "endpoint": "http://127.0.0.1:9", "model": "m1"}
        for section, value, named in (
                ("policy", {"backoff": -1}, "backoff must be >= 0"),
                ("policy", {"max_retries": -3}, "max_retries must be >= 0"),
                ("client", {**endpoint, "timeout": 0}, "timeout must be positive"),
                ("client", {**endpoint, "timeout": -1}, "timeout must be positive")):
            cfg = yaml.safe_load((workspace / "run.yaml").read_text())
            cfg[section] = value
            (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
            assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2, value
            assert named in capsys.readouterr().err, value

    def test_unknown_client_key_is_2(self, workspace, capsys):
        # concurrency is policy.max_in_flight; the client section has none
        for key in ("api_key", "max_in_flight"):
            cfg = yaml.safe_load((workspace / "run.yaml").read_text())
            cfg["client"][key] = 4
            (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg),
                                                encoding="utf-8")
            assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2, key
            assert key in capsys.readouterr().err

    def test_batched_template_with_other_placeholder_is_2(self, workspace,
                                                          monkeypatch, capsys):
        # a batched prompt fills only {text}; any other placeholder is a
        # configuration error before a single request goes out
        def send(*args, **kwargs):
            raise AssertionError("no request may be sent")

        monkeypatch.setattr(MockModel, "send", send)
        (workspace / "titled.txt").write_text(
            "Label {title}: Positive or Negative.\n\n{text}\n", encoding="utf-8")
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        cfg["template"] = "titled.txt"
        cfg["policy"] = {"batch_size": 2}
        (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2
        assert "'title'" in capsys.readouterr().err

    def test_positional_placeholder_is_2(self, workspace, monkeypatch, capsys):
        # also at batch_size 1, before a single request goes out
        def send(*args, **kwargs):
            raise AssertionError("no request may be sent")

        monkeypatch.setattr(MockModel, "send", send)
        for placeholder in ("{}", "{0}"):
            (workspace / "positional.txt").write_text(
                f"Label {placeholder}: Positive or Negative.\n\n{{text}}\n",
                encoding="utf-8")
            cfg = yaml.safe_load((workspace / "run.yaml").read_text())
            cfg["template"] = "positional.txt"
            (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg),
                                                encoding="utf-8")
            assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2
            assert "must be named" in capsys.readouterr().err

    def test_scheme_entry_without_name_or_label_is_2(self, workspace, capsys):
        levels = [{"label": "Positive"}, {"label": "Negative"}]
        for variable, key in (({"levels": levels}, "variables[0].name"),
                              ({"name": "s", "levels": [levels[0], {}]},
                               "variables[0].levels[1].label")):
            (workspace / "bad.yaml").write_text(
                yaml.safe_dump({"variables": [variable]}), encoding="utf-8")
            assert run(["ingest", "--input", workspace / "corpus.jsonl",
                        "--format", "jsonl", "--scheme", workspace / "bad.yaml",
                        "--out", workspace / "again.jsonl"]) == 2, key
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("variables: [sentiment]\n", "scheme.variables[0] must be a mapping"),
        ("variables:\n- name: s\n  levels: abc\n",
         "scheme.variables[0].levels must be tuple[Level, ...], got 'abc'"),
        # YAML reads an unquoted yes as true, and 1 as a number
        ("variables:\n- name: s\n  levels: [{label: yes}, {label: no}]\n",
         "scheme.variables[0].levels[0].label must be str, got True"),
        ("variables:\n- name: s\n  levels: [{label: 1}, {label: '2'}]\n",
         "scheme.variables[0].levels[0].label must be str, got 1"),
        ("version: 2\nvariables: []\n", "scheme.version must be str, got 2"),
        ("variables:\n- {name: s, colour: red}\n",
         "unknown scheme.variables[0] keys: ['colour']"),
        ("version: '1'\n", "scheme.variables ('variables')"),
        ("variables: [\n", "line 2: not YAML"),
    ], ids=["entry-not-mapping", "levels-not-list", "label-yes", "label-1",
            "version-2", "unknown-key", "no-variables", "invalid-yaml"])
    def test_bad_scheme_file_is_2(self, workspace, capsys, text, key):
        (workspace / "bad.yaml").write_text(text, encoding="utf-8")
        assert run(["ingest", "--input", workspace / "corpus.jsonl",
                    "--format", "jsonl", "--scheme", workspace / "bad.yaml",
                    "--out", workspace / "again.jsonl"]) == 2
        err = capsys.readouterr().err
        assert "bad.yaml" in err and key in err

    def test_invalid_config_yaml_is_2(self, workspace, capsys):
        (workspace / "bad.yaml").write_text("corpus: [\n", encoding="utf-8")
        assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2
        assert "bad.yaml, line 2: not YAML" in capsys.readouterr().err

    def test_missing_input_file_is_named(self, workspace, capsys):
        corpus, scheme = workspace / "corpus.jsonl", workspace / "scheme.yaml"
        ingest = ["ingest", "--format", "jsonl", "--out", workspace / "x.jsonl"]
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        (workspace / "template.yaml").write_text(
            yaml.safe_dump(cfg | {"template": "nope.txt"}), encoding="utf-8")
        for argv, code in (
                (["annotate", "--config", workspace / "nope.yaml"], 2),
                (["annotate", "--config", workspace / "template.yaml"], 2),
                (ingest + ["--input", corpus, "--scheme", workspace / "nope.yaml"], 2),
                (ingest + ["--input", workspace / "nope.jsonl"], 3),
                (["evaluate", "--corpus", corpus, "--annotations",
                  workspace / "nope.jsonl", "--scheme", scheme, "--variable",
                  "sentiment", "--out-dir", workspace / "eval"], 3),
                (["report", workspace / "nope.json"], 3),
                (["fit", "--data", workspace / "nope.csv", "--formula", "y ~ x",
                  "--out", workspace / "fit.json"], 3)):
            assert run(argv) == code, argv
            assert "nope." in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ('{"id": "b", "te', "line 3: not JSON"),
        ('{"id": "b"}', "line 3: lacks field 'text'"),
        ("[1, 2]", "line 3: not a JSON object: [1, 2]"),
        ('{"id": "b", "text": "x", "meta": [["year", 1954]]}',
         "line 3: meta must be a JSON object"),
        ('{"id": "b", "text": "x", "meta": "ab"}', "line 3: meta must be a JSON object"),
        ('{"id": "b", "text": "x", "groups": ["r1"]}',
         "line 3: groups must be a JSON object"),
        ('{"id": "b", "text": "x", "gold": "Positive"}',
         "line 3: gold must be a JSON object"),
        ('{"id": "b", "text": "x", "groups": {"school": null}}',
         "line 3: groups value 'school' must be a string or a number, got null"),
        ('{"id": "b", "text": "x", "groups": {"src": "s1", "school": true}}',
         "line 3: groups value 'school' must be a string or a number, got true"),
    ], ids=["truncated", "no-text", "array", "meta-pairs", "meta-string",
            "groups-list", "gold-string", "group-null", "group-bool"])
    def test_bad_corpus_line_is_3(self, tmp_path, capsys, line, message):
        (tmp_path / "c.jsonl").write_text(f'{{"id": "a", "text": "x"}}\n\n{line}\n',
                                          encoding="utf-8")
        assert run(["ingest", "--input", tmp_path / "c.jsonl", "--format", "jsonl",
                    "--out", tmp_path / "out.jsonl"]) == 3
        assert f"c.jsonl, {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ('{"id": "b", "text": null}',
         "line 2: text must be a string or a number, got null"),
        ('{"id": "b", "text": false}',
         "line 2: text must be a string or a number, got false"),
        ('{"id": "b", "text": ["x"]}',
         'line 2: text must be a string or a number, got ["x"]'),
        ('{"id": "b", "text": "x", "gold": {"t": null}}',
         "line 2: gold value 't' must be a string or a number, got null"),
        ('{"id": "b", "text": "x", "groups": {"school": {"n": 1}}}',
         "line 2: groups value 'school' must be a string or a number, "
         'got {"n": 1}'),
        ('{"id": null, "text": "x"}', "line 2: id must be a string or a number, got null"),
        ('{"id": false, "text": "y"}',
         "line 2: id must be a string or a number, got false"),
    ], ids=["text-null", "text-bool", "text-list", "gold-null", "group-object",
            "id-null", "id-bool"])
    def test_corpus_value_that_is_no_string_or_number_is_3(self, tmp_path, capsys,
                                                           line, message):
        (tmp_path / "c.jsonl").write_text(f'{{"id": "a", "text": "x"}}\n{line}\n',
                                          encoding="utf-8")
        assert run(["ingest", "--input", tmp_path / "c.jsonl", "--format", "jsonl",
                    "--out", tmp_path / "out.jsonl"]) == 3
        assert f"c.jsonl, {message}" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_float_meta_cell_is_3(self, tmp_path, capsys, cell):
        # JSON has no NaN or Infinity, so the corpus cannot hold them
        (tmp_path / "c.csv").write_text(f"id,text,age\nr1,hello,{cell}\n",
                                        encoding="utf-8")
        (tmp_path / "map.yaml").write_text(yaml.safe_dump({
            "id_column": "id", "meta_columns": {"age": "float"},
        }), encoding="utf-8")
        assert run(["ingest", "--input", tmp_path / "c.csv", "--format", "csv",
                    "--mapping", tmp_path / "map.yaml",
                    "--out", tmp_path / "corpus.jsonl"]) == 3
        assert (f"c.csv, line 2: column 'age' is not float: {cell!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_jsonl_meta_value_is_3(self, tmp_path, capsys, value):
        # json.loads takes these, but the corpus written back would not be JSON
        (tmp_path / "c.jsonl").write_text(
            '{"id": "a", "text": "x", "meta": {"year": 1990}}\n'
            f'{{"id": "b", "text": "y", "meta": {{"age": {value}}}}}\n',
            encoding="utf-8")
        assert run(["ingest", "--input", tmp_path / "c.jsonl", "--format", "jsonl",
                    "--out", tmp_path / "out.jsonl"]) == 3
        assert (f"c.jsonl, line 2: meta value 'age' is not finite: {value}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("line, message", [
        ('{"id": "b", "text": NaN, "groups": {"g": Infinity}}', "text is not finite: NaN"),
        ('{"id": "b", "text": "x", "groups": {"g": Infinity}}',
         "groups value 'g' is not finite: Infinity"),
        ('{"id": "b", "text": "x", "gold": {"t": -Infinity}}',
         "gold value 't' is not finite: -Infinity"),
        ('{"id": NaN, "text": "x"}', "id is not finite: NaN"),
    ], ids=["text", "group", "gold", "id"])
    def test_non_finite_jsonl_text_value_is_3(self, tmp_path, capsys, line, message):
        # json.loads takes these, but "nan" and "inf" are no text of the file
        (tmp_path / "c.jsonl").write_text(f'{{"id": "a", "text": "x"}}\n{line}\n',
                                          encoding="utf-8")
        assert run(["ingest", "--input", tmp_path / "c.jsonl", "--format", "jsonl",
                    "--out", tmp_path / "out.jsonl"]) == 3
        assert f"c.jsonl, line 2: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_numeric_jsonl_id_is_its_text(self, tmp_path):
        (tmp_path / "c.jsonl").write_text(
            '{"id": 7, "text": "x"}\n{"id": 1.5, "text": "y"}\n{"id": "c", "text": "z"}\n',
            encoding="utf-8")
        assert run(["ingest", "--input", tmp_path / "c.jsonl", "--format", "jsonl",
                    "--out", tmp_path / "out.jsonl"]) == 0
        assert [json.loads(line)["id"] for line in
                (tmp_path / "out.jsonl").read_text().splitlines()] == ["7", "1.5", "c"]

    def test_transport_failure_is_its_own_status(self, workspace, monkeypatch,
                                                 capsys):
        # a request that fails in transport is not the model's answer: it is
        # counted apart from unparseable replies and left out of the
        # confusion matrix rather than scored as an ERROR prediction
        mock_send = MockModel.send

        def send(self, prompt, controls, unit_ids=()):
            if "u003" in unit_ids:
                return ModelReply.transport_error("timeout")
            return mock_send(self, prompt, controls, unit_ids)

        monkeypatch.setattr(MockModel, "send", send)
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        cfg["policy"] = {"max_retries": 1, "backoff": 0.0}
        (workspace / "run.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        _annotate_and_evaluate(workspace)
        err = capsys.readouterr().err
        assert "warning: 0 refused, 0 unparseable, 1 transport_error" in err
        lines = (workspace / "out" / "annotations.jsonl").read_text().splitlines()
        failed = [r for r in map(json.loads, lines) if r["status"] != "ok"]
        assert failed == [{"unit_id": "u003", "variable": "sentiment",
                           "raw": "timeout", "label": None,
                           "status": "transport_error", "attempts": 2}]
        report = json.loads((workspace / "eval" / "report.json").read_text())
        assert report["n"] == 39
        assert "ERROR" not in (workspace / "eval" / "confusion.csv").read_text()
        # with nothing but transport failures there is nothing to score
        (workspace / "lost.jsonl").write_text("".join(
            json.dumps(json.loads(line) | {"status": "transport_error"}) + "\n"
            for line in lines), encoding="utf-8")
        assert run(["evaluate", "--corpus", workspace / "corpus.jsonl",
                    "--annotations", workspace / "lost.jsonl",
                    "--scheme", workspace / "scheme.yaml",
                    "--variable", "sentiment", "--out-dir", workspace / "eval"]) == 3
        assert "other than transport_error records" in capsys.readouterr().err

    def test_bad_annotation_record_is_3(self, workspace, capsys):
        run(["annotate", "--config", workspace / "run.yaml"])
        lines = (workspace / "out" / "annotations.jsonl").read_text().splitlines()
        extra = json.loads(lines[1]) | {"extra": 1}
        missing = {k: v for k, v in json.loads(lines[1]).items() if k != "status"}
        for record, message in ((extra, "'extra'"), (missing, "'status'")):
            (workspace / "bad.jsonl").write_text(
                "\n".join([lines[0], json.dumps(record)]) + "\n", encoding="utf-8")
            assert run(["evaluate", "--corpus", workspace / "corpus.jsonl",
                        "--annotations", workspace / "bad.jsonl",
                        "--scheme", workspace / "scheme.yaml",
                        "--variable", "sentiment", "--out-dir", workspace / "eval"]) == 3
            err = capsys.readouterr().err
            assert "bad.jsonl, line 2" in err and message in err

    @pytest.mark.parametrize("text, message", [
        ("gold\\pred,Positive,Negative\nPositive,3,x\nNegative,1,4\n",
         "bad.csv, line 2: invalid literal for int()"),
        ("gold\\pred,Positive,Negative\nPositive,3,1\nNegative,1\n",
         "bad.csv, line 3: the row has 2 cells for the header's 3 columns"),
        ("", "bad.csv holds no confusion matrix"),
        # rows out of the header's order would swap the error model's rows
        ("gold\\pred,Positive,Negative\nNegative,1,4\nPositive,3,1\n",
         "bad.csv, line 2: row label 'Negative'"),
        ("gold\\pred,Positive,Negative\nPositive,3,1\nNegative,1,4\nNeutral,2,2\n",
         "bad.csv, line 4: row label 'Neutral'"),
        ("gold\\pred,Positive,Positive\nPositive,3,1\nPositive,1,4\n",
         "bad.csv, line 1: the header repeats columns ['Positive']"),
        ("gold\\pred,Positive,Negative\nPositive,3,1\n",
         "bad.csv has no row for gold labels ['Negative']"),
    ], ids=["non-integer", "ragged", "empty", "swapped-rows", "extra-row",
            "repeated-label", "missing-row"])
    def test_bad_confusion_csv_is_3(self, workspace, capsys, text, message):
        run(["annotate", "--config", workspace / "run.yaml"])
        (workspace / "bad.csv").write_text(text, encoding="utf-8")
        assert run(["bootstrap", "--annotations", workspace / "out" / "annotations.jsonl",
                    "--confusion", workspace / "bad.csv", "--replicates", 10,
                    "--statistic", "proportion:Positive",
                    "--out", workspace / "boot" / "boot.json"]) == 3
        assert message in capsys.readouterr().err

    def test_unknown_meta_column_tag_is_2(self, tmp_path, capsys):
        (tmp_path / "rows.csv").write_text("id,text,year\nr1,hello,1954\n",
                                           encoding="utf-8")
        (tmp_path / "map.yaml").write_text(yaml.safe_dump({
            "id_column": "id", "meta_columns": {"year": "integer"},
        }), encoding="utf-8")
        assert run(["ingest", "--input", tmp_path / "rows.csv", "--format", "csv",
                    "--mapping", tmp_path / "map.yaml",
                    "--out", tmp_path / "corpus.jsonl"]) == 2
        err = capsys.readouterr().err
        assert "'year'" in err and "'integer'" in err
        assert "int, float, str and bool" in err

    def test_uncoercible_meta_cell_is_3(self, tmp_path, capsys):
        (tmp_path / "rows.csv").write_text("id,text,year\nr1,hello,1954\n"
                                           "r2,world,19x4\n", encoding="utf-8")
        (tmp_path / "map.yaml").write_text(yaml.safe_dump({
            "id_column": "id", "meta_columns": {"year": "int"},
        }), encoding="utf-8")
        assert run(["ingest", "--input", tmp_path / "rows.csv", "--format", "csv",
                    "--mapping", tmp_path / "map.yaml",
                    "--out", tmp_path / "corpus.jsonl"]) == 3
        assert "rows.csv, line 3: column 'year'" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["r1", "r2,hello", "r3,hello,1954,x"],
                             ids=["no-text", "no-year", "extra-cell"])
    def test_ragged_csv_row_is_3(self, tmp_path, capsys, row):
        # csv fills a short row's missing cells with None and keeps a long
        # row's extra cells under the key None; neither an AttributeError, a
        # stored "None" nor a None key in the written corpus is an answer
        (tmp_path / "rows.csv").write_text(f"id,text,year\nr0,hi,1954\n{row}\n",
                                           encoding="utf-8")
        (tmp_path / "map.yaml").write_text(yaml.safe_dump({"id_column": "id"}),
                                           encoding="utf-8")
        assert run(["ingest", "--input", tmp_path / "rows.csv", "--format", "csv",
                    "--mapping", tmp_path / "map.yaml",
                    "--out", tmp_path / "corpus.jsonl"]) == 3
        assert "rows.csv, line 3" in capsys.readouterr().err
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_repeated_csv_column_is_3(self, tmp_path, capsys):
        # which copy of a repeated column is the unit's text would be a guess
        (tmp_path / "rows.csv").write_text("id,text,text\nr0,hi,there\n",
                                           encoding="utf-8")
        (tmp_path / "map.yaml").write_text(yaml.safe_dump({"id_column": "id"}),
                                           encoding="utf-8")
        assert run(["ingest", "--input", tmp_path / "rows.csv", "--format", "csv",
                    "--mapping", tmp_path / "map.yaml",
                    "--out", tmp_path / "corpus.jsonl"]) == 3
        assert "rows.csv, line 1: the header repeats columns ['text']" in \
            capsys.readouterr().err
        assert not (tmp_path / "corpus.jsonl").exists()

    @pytest.mark.parametrize("mapping, column", [
        ({"id_column": "ident"}, "ident"),
        ({"group_columns": {"school": "sch"}}, "sch"),
        ({"gold_columns": {"sentiment": "label"}}, "label"),
    ], ids=["id", "group", "gold"])
    def test_mapped_column_missing_from_header_is_2(self, tmp_path, capsys,
                                                    mapping, column):
        (tmp_path / "rows.csv").write_text("id,text\nr0,hi\n", encoding="utf-8")
        (tmp_path / "map.yaml").write_text(yaml.safe_dump(mapping), encoding="utf-8")
        assert run(["ingest", "--input", tmp_path / "rows.csv", "--format", "csv",
                    "--mapping", tmp_path / "map.yaml",
                    "--out", tmp_path / "corpus.jsonl"]) == 2
        assert f"csv has no column {column!r}" in capsys.readouterr().err
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_negative_bootstrap_seed_is_2(self, workspace, capsys):
        _annotate_and_evaluate(workspace)
        assert run([
            "bootstrap", "--annotations", workspace / "out" / "annotations.jsonl",
            "--confusion", workspace / "eval" / "confusion.csv",
            "--statistic", "proportion:Positive", "--replicates", 10,
            "--seed", -1, "--out", workspace / "boot" / "boot.json",
        ]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_gold_outside_scheme_is_3(self, workspace, capsys):
        # a corpus ingested without --scheme can hold a gold label that the
        # annotate run's scheme lacks; the mock rejects it before any send
        text = (workspace / "corpus.jsonl").read_text(encoding="utf-8")
        (workspace / "corpus.jsonl").write_text(
            text.replace('"Negative"', '"Foo"', 1), encoding="utf-8")
        assert run(["annotate", "--config", workspace / "run.yaml"]) == 3
        assert ("unit 'u001': gold label 'Foo' is not one of the labels "
                "['Positive', 'Negative']" in capsys.readouterr().err)

    def test_unfillable_batched_template_is_3(self, workspace, capsys):
        (workspace / "spec.txt").write_text("Label these:\n\n{text:d}\n",
                                            encoding="utf-8")
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        cfg["template"] = "spec.txt"
        cfg["policy"] = {"batch_size": 2}
        (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert run(["annotate", "--config", workspace / "bad.yaml"]) == 3
        assert "units ['u000', 'u001']" in capsys.readouterr().err

    def test_bad_data_is_3(self, workspace, tmp_path):
        (tmp_path / "dupes.jsonl").write_text(
            '{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n',
            encoding="utf-8",
        )
        assert run([
            "ingest", "--input", tmp_path / "dupes.jsonl",
            "--format", "jsonl", "--out", tmp_path / "out.jsonl",
        ]) == 3

    def test_unreachable_endpoint_is_4(self, workspace, monkeypatch):
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        cfg["client"] = {"kind": "endpoint",
                         "endpoint": "http://127.0.0.1:9",  # discard port
                         "model": "m1", "timeout": 0.2}
        cfg["policy"] = {"max_retries": 0, "backoff": 0.0}
        cfg["output_dir"] = "out_endpoint"
        (workspace / "endpoint.yaml").write_text(yaml.safe_dump(cfg),
                                                 encoding="utf-8")
        assert run(["annotate", "--config", workspace / "endpoint.yaml"]) == 4
        out = workspace / "out_endpoint"
        assert (out / "annotations.jsonl.partial").exists()
        assert not (out / "annotations.jsonl").exists()
        assert not (out / "manifest.json").exists()

    def test_missing_statistic_covariate_is_2(self, workspace):
        run(["annotate", "--config", workspace / "run.yaml"])
        run([
            "evaluate", "--corpus", workspace / "corpus.jsonl",
            "--annotations", workspace / "out" / "annotations.jsonl",
            "--scheme", workspace / "scheme.yaml",
            "--variable", "sentiment", "--out-dir", workspace / "eval",
        ])
        assert run([
            "bootstrap", "--annotations", workspace / "out" / "annotations.jsonl",
            "--confusion", workspace / "eval" / "confusion.csv",
            "--statistic", "logistic:Positive ~ nope",
            "--corpus", workspace / "corpus.jsonl",
            "--replicates", 10, "--seed", 0,
            "--out", workspace / "boot.json",
        ]) == 2

    def test_unit_without_statistic_covariate_is_3(self, workspace, capsys):
        _annotate_and_evaluate(workspace)
        code = run(_bootstrap_argv(
            workspace, "yearly_proportions:Positive",
            lambda i: {} if i == 7 else {"year": 1990 + i % 4}))
        assert code == 3
        err = capsys.readouterr().err
        assert "'u007'" in err and "'year'" in err

    # strings that float() reads as not finite: a corpus that holds a NaN or
    # infinite float is refused when it is read
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_statistic_covariate_is_3(self, workspace, capsys, value):
        _annotate_and_evaluate(workspace)
        code = run(_bootstrap_argv(
            workspace, "logistic:Positive ~ age",
            lambda i: {"age": value if i == 3 else 20.0 + i}))
        assert code == 3
        assert ("unit 'u003' has no usable value for covariate 'age'"
                in capsys.readouterr().err)

    def test_replicates_csv_directory_is_made(self, workspace):
        _annotate_and_evaluate(workspace)
        assert run([
            "bootstrap", "--annotations", workspace / "out" / "annotations.jsonl",
            "--confusion", workspace / "eval" / "confusion.csv",
            "--statistic", "proportion:Positive", "--replicates", 10,
            "--out", workspace / "boot" / "boot.json",
            "--replicates-csv", workspace / "new" / "r.csv",
        ]) == 0
        rows = (workspace / "new" / "r.csv").read_text().splitlines()
        assert rows[0] == "replicate,prop_Positive" and len(rows) == 11

    def test_non_numeric_statistic_covariate_is_3(self, workspace, capsys):
        _annotate_and_evaluate(workspace)
        code = run(_bootstrap_argv(
            workspace, "logistic:Positive ~ age",
            lambda i: {"age": "n/a" if i == 12 else 20.0 + i}))
        assert code == 3
        err = capsys.readouterr().err
        assert "'u012'" in err and "'age'" in err

    def test_logistic_statistic_with_random_term_is_2(self, workspace, capsys):
        # a logistic fit has no random intercept; the term must not be dropped
        _annotate_and_evaluate(workspace)
        code = run(_bootstrap_argv(
            workspace, "logistic:Positive ~ age + (1|school)",
            lambda i: {"age": 20.0 + i, "school": f"s{i % 3}"}))
        assert code == 2
        assert "mixed:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, label", [
        ("proportion:Postive", "Postive"),
        ("yearly_proportions:positive", "positive"),
        ("logistic:positive ~ age", "positive"),
        ("mixed:Postive ~ age + (1|school)", "Postive"),
    ], ids=["proportion", "yearly", "logistic", "mixed"])
    def test_statistic_label_outside_the_error_model_is_2(self, workspace,
                                                          capsys, spec, label):
        # unchecked, a misspelt label counts as 0 +- 0, or ends in a fit
        # that blames quasi-separation
        _annotate_and_evaluate(workspace)
        code = run(_bootstrap_argv(
            workspace, spec,
            lambda i: {"year": 1990 + i % 4, "age": 20.0 + i, "school": f"s{i % 3}"}))
        assert code == 2
        err = capsys.readouterr().err
        assert (repr(spec) in err and repr(label) in err
                and "['Positive', 'Negative']" in err)

    def test_mixed_statistic_without_random_term_is_2(self, workspace, capsys):
        _annotate_and_evaluate(workspace)
        code = run(_bootstrap_argv(workspace, "mixed:Positive ~ age",
                                   lambda i: {"age": 20.0 + i}))
        assert code == 2
        assert "(1|group)" in capsys.readouterr().err

    def test_malformed_formula_is_2(self, workspace, capsys):
        rows = ["online,campus"] + [f"{i % 2},{i % 3}" for i in range(12)]
        (workspace / "data.csv").write_text("\n".join(rows) + "\n",
                                            encoding="utf-8")
        assert run(["fit", "--data", workspace / "data.csv", "--formula",
                    "online ~", "--out", workspace / "fit.json"]) == 2
        assert "empty term" in capsys.readouterr().err
        _annotate_and_evaluate(workspace)
        code = run(_bootstrap_argv(workspace, "logistic:Positive ~ 1",
                                   lambda i: {"age": 20.0 + i}))
        assert code == 2
        assert "unsupported formula term '1'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["logistic:Positive ~ year",
                                      "yearly_proportions:Positive"])
    def test_statistic_without_corpus_names_the_option_is_2(self, workspace,
                                                            capsys, spec):
        _annotate_and_evaluate(workspace)
        argv = _bootstrap_argv(workspace, spec, lambda i: {"year": 1990 + i % 4})
        i = argv.index("--corpus")
        del argv[i:i + 2]
        assert run(argv) == 2
        assert ("reads covariates ['year'] from --corpus, which was not given"
                in capsys.readouterr().err)

    def test_quad_nodes_on_a_fixed_fit_is_2(self, tmp_path, capsys):
        # no fixed fit reads --quad-nodes, so setting it is refused; left at
        # its default, it changes nothing
        rows = ["online,campus"] + [f"{i % 2},{i % 3}" for i in range(12)]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n",
                                           encoding="utf-8")
        argv = ["fit", "--data", tmp_path / "data.csv", "--formula",
                "online ~ campus"]
        for nodes in (0, 7):
            assert run(argv + ["--quad-nodes", nodes,
                               "--out", tmp_path / "no" / "fit.json"]) == 2
            assert "--quad-nodes" in capsys.readouterr().err
        assert not (tmp_path / "no").exists()
        assert run(argv + ["--out", tmp_path / "a" / "fit.json"]) == 0
        assert run(argv + ["--quad-nodes", 15,
                           "--out", tmp_path / "b" / "fit.json"]) == 0
        for name in ("fit.json", "manifest.json"):
            a = (tmp_path / "a" / name).read_text()
            b = (tmp_path / "b" / name).read_text()
            assert a.replace("/a/", "/b/") == b, name

    @pytest.mark.parametrize("option, value, fmt", [
        ("--mapping", "map.yaml", "jsonl"),
        ("--mapping", "map.yaml", "text"),
        ("--strategy", "window:5", "jsonl"),
        ("--strategy", "window:5", "csv"),
    ], ids=["mapping-jsonl", "mapping-text", "strategy-jsonl", "strategy-csv"])
    def test_ingest_option_the_format_ignores_is_2(self, workspace, capsys,
                                                   option, value, fmt):
        (workspace / "map.yaml").write_text(yaml.safe_dump({"id_column": "id"}),
                                            encoding="utf-8")
        argv = ["ingest", "--input", workspace / "corpus.jsonl", "--format", fmt,
                option, workspace / value if value.endswith(".yaml") else value,
                "--out", workspace / "again.jsonl"]
        if option == "--strategy" and fmt == "csv":
            argv += ["--mapping", workspace / "map.yaml"]
        assert run(argv) == 2
        assert option in capsys.readouterr().err
        assert not (workspace / "again.jsonl").exists()

    @pytest.mark.parametrize("client, unread", [
        ({"kind": "mock", "mode": "gold_corruption", "endpoint": "http://x",
          "timeout": 5, "rules": {"good": "Positive"}},
         ["endpoint", "timeout", "rules"]),
        ({"kind": "mock", "mode": "rules", "rules": {"good": "Positive"},
          "matrix": [[0.9, 0.1], [0.1, 0.9]]}, ["matrix"]),
        ({"kind": "endpoint", "endpoint": "http://127.0.0.1:9", "model": "m1",
          "timeout": 0.2, "refuse_units": ["u001"], "mode": "rules"},
         ["mode", "refuse_units"]),
    ], ids=["gold-corruption", "rules", "endpoint"])
    def test_client_key_the_client_never_reads_is_2(self, workspace, capsys,
                                                    monkeypatch, client, unread):
        monkeypatch.setenv("QUANTITIZE_API_TOKEN", "tok")
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        cfg["client"] = client
        cfg["policy"] = {"max_retries": 0, "backoff": 0.0}
        (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2
        err = capsys.readouterr().err
        assert all(repr(key) in err for key in unread), err
        assert not (workspace / "out" / "annotations.jsonl").exists()

    def test_client_keys_at_their_defaults_are_accepted(self, workspace):
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        cfg["client"].update(timeout=60.0, rules={}, auth_env="QUANTITIZE_API_TOKEN")
        (workspace / "ok.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert run(["annotate", "--config", workspace / "ok.yaml"]) == 0


class TestManifests:
    def test_bootstrap_reruns_from_its_manifest(self, workspace):
        # the manifest holds every argument, --corpus and --replicates-csv
        # included, so the run it describes can be repeated from it alone
        _annotate_and_evaluate(workspace)
        evaluate = json.loads((workspace / "eval" / "manifest.json").read_text())
        assert evaluate["out_dir"] == str(workspace / "eval")
        assert run(_bootstrap_argv(workspace, "yearly_proportions:Positive",
                                   lambda i: {"year": 1990 + i % 4})) == 0
        manifest = json.loads((workspace / "boot" / "manifest.json").read_text())
        assert manifest["corpus"] == str(workspace / "meta.jsonl")
        manifest["out"] = str(workspace / "again" / "boot.json")
        manifest["replicates_csv"] = str(workspace / "again" / "replicates.csv")
        argv = [manifest.pop("command")]
        del manifest["version"]
        for key, value in manifest.items():
            argv += [f"--{key.replace('_', '-')}", value]
        assert run(argv) == 0
        for name in ("boot.json", "replicates.csv"):
            assert ((workspace / "again" / name).read_bytes()
                    == (workspace / "boot" / name).read_bytes()), name


class TestGoldenStream:
    def test_replicate_draws_are_pinned(self, workspace):
        # pinned outputs of fixed-seed runs: a change to the replicate random
        # stream or to the fit fails here instead of passing unnoticed
        def meta(i):
            return {"age": 20.0 + (7 * i) % 13}

        _annotate_and_evaluate(workspace)
        (workspace / "eval" / "confusion.csv").write_text(
            "gold\\pred,Positive,Negative\nPositive,9,1\nNegative,2,8\n",
            encoding="utf-8")
        assert run(_bootstrap_argv(workspace, "proportion:Positive", meta,
                                   replicates=200, out="prop")) == 0
        assert run(_bootstrap_argv(workspace, "logistic:Positive ~ age", meta,
                                   replicates=20, out="logit")) == 0
        prop = json.loads((workspace / "prop" / "boot.json").read_text())
        sigma = prop["statistics"]["prop_Positive"]["sigma"]
        assert repr(sigma) == "0.0598957427535547"
        rows = (workspace / "logit" / "replicates.csv").read_text().splitlines()
        assert rows[0] == "replicate,beta_age,p_age"
        assert rows[4] == "3,-0.0915015846125952,0.29824340396264093"


class TestFitAndDemo:
    def test_fit_from_csv(self, tmp_path, capsys):
        rows = ["online,campus"]
        rows += ["0,0"] * 36 + ["1,0"] * 73 + ["0,1"] * 64 + ["1,1"] * 19
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n",
                                           encoding="utf-8")
        assert run([
            "fit", "--data", tmp_path / "data.csv",
            "--formula", "online ~ campus",
            "--out", tmp_path / "fit.json",
        ]) == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["coefficients"]["campus"]["estimate"] == \
            pytest.approx(-1.9214, abs=1e-3)

    def test_fit_reports_variance_boundary(self, tmp_path, capsys):
        rows = ["id,campus,age,online"]
        rows += [f"{o.group},{o.covariates['campus']!r},{o.covariates['age']!r},"
                 f"{o.response}" for o in gen_interview_margins(0)]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n",
                                           encoding="utf-8")
        assert run([
            "fit", "--data", tmp_path / "data.csv",
            "--formula", "online ~ campus + age + (1|id)",
            "--out", tmp_path / "fit.json",
        ]) == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["boundary"] is True
        assert doc["converged"] is True
        assert "boundary: yes" in capsys.readouterr().out

    def test_mixed_fit_rerun_writes_the_same_bytes(self, tmp_path):
        # a fit in the same process after another starts from nothing it left
        rows = ["id,campus,age,online"]
        rows += [f"{o.group},{o.covariates['campus']!r},{o.covariates['age']!r},"
                 f"{o.response}" for o in gen_interview_margins(0)]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n",
                                           encoding="utf-8")
        for out in ("a", "b"):
            assert run([
                "fit", "--data", tmp_path / "data.csv",
                "--formula", "online ~ campus + age + (1|id)",
                "--out", tmp_path / out / "fit.json",
            ]) == 0
        assert ((tmp_path / "a" / "fit.json").read_bytes()
                == (tmp_path / "b" / "fit.json").read_bytes())

    @pytest.mark.parametrize("row, column", [
        ("1,abc,3.0", "campus"),   # non-numeric covariate
        ("1,,3.0", "campus"),      # empty cell
        ("1,0", "age"),            # short row
        ("0.7,1,3.0", "online"),   # response other than 0 or 1
        ("2,1,3.0", "online"),
    ])
    def test_fit_rejects_bad_cell_with_row_and_column(self, tmp_path, capsys,
                                                      row, column):
        rows = ["online,campus,age", "0,0,1.0", row, "1,1,2.0", "0,1,4.0"]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n",
                                           encoding="utf-8")
        assert run([
            "fit", "--data", tmp_path / "data.csv",
            "--formula", "online ~ campus + age", "--out", tmp_path / "fit.json",
        ]) == 3
        err = capsys.readouterr().err
        assert "line 3" in err and repr(column) in err
        assert not (tmp_path / "fit.json").exists()

    def test_fit_names_missing_columns(self, tmp_path, capsys):
        # the header alone decides: no data row needs to be read
        (tmp_path / "data.csv").write_text("online,campus\n", encoding="utf-8")
        assert run([
            "fit", "--data", tmp_path / "data.csv",
            "--formula", "online ~ campus + age + (1|id)",
            "--out", tmp_path / "fit.json",
        ]) == 3
        assert "['age', 'id']" in capsys.readouterr().err

    def test_fit_names_repeated_columns(self, tmp_path, capsys):
        # which copy of a repeated column would be fitted is a guess
        (tmp_path / "data.csv").write_text("y,x,x\n0,1,2\n1,2,1\n0,3,0\n",
                                           encoding="utf-8")
        assert run([
            "fit", "--data", tmp_path / "data.csv", "--formula", "y ~ x",
            "--out", tmp_path / "fit.json",
        ]) == 3
        assert "repeats columns ['x']" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_fit_rejects_long_row(self, tmp_path, capsys):
        # a cell beyond the header belongs to no column: it is not dropped
        rows = ["online,campus", "0,0", "1,1,7", "1,0", "0,1"]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n",
                                           encoding="utf-8")
        assert run([
            "fit", "--data", tmp_path / "data.csv", "--formula", "online ~ campus",
            "--out", tmp_path / "fit.json",
        ]) == 3
        assert ("data.csv, line 3: the row has 3 cells for the header's 2 columns"
                in capsys.readouterr().err)
        assert not (tmp_path / "fit.json").exists()

    def test_demo_simpson_verdict(self, capsys):
        assert run(["demo", "simpson", "--seed", 1]) == 0
        out = capsys.readouterr().out
        assert "grouping artifact" in out

    def test_demo_confound_verdict(self, capsys):
        assert run(["demo", "confound", "--seed", 1]) == 0
        out = capsys.readouterr().out
        assert "confounded with age" in out

    def test_demo_interview_odds_ratio(self, capsys):
        assert run(["demo", "interview", "--seed", 1]) == 0
        out = capsys.readouterr().out
        assert "0.1464" in out


class TestMixedBootstrap:
    def test_replicates_far_from_the_fit_do_not_abort(self, tmp_path):
        # Simpson corpus (3 schools x 40 pupils) through a 90%-accurate mock.
        # On this seed some replicate draws send the optimizer to points
        # where |X beta| is large; the mixed fit must still converge there.
        scheme = CodingScheme((
            Variable("answer", "categorical", (Level("no"), Level("yes"))),
        ))
        units = tuple(
            Unit(id=f"s{i:04d}", text=f"Pupil {i}: plans to continue.",
                 meta={"age": o.covariates["age"]}, groups={"school": o.group},
                 gold={"answer": ("no", "yes")[o.response]})
            for i, o in enumerate(gen_simpson(23))
        )
        save_corpus(Corpus(units), tmp_path / "corpus.jsonl")
        save_scheme(scheme, tmp_path / "scheme.yaml")
        (tmp_path / "prompt.txt").write_text(
            "Label the answer of this text: no, yes.\n\n{text}\n", encoding="utf-8")
        (tmp_path / "run.yaml").write_text(yaml.safe_dump({
            "corpus": "corpus.jsonl", "scheme": "scheme.yaml",
            "template": "prompt.txt", "variable": "answer", "output_dir": "ann",
            "seed": 23,
            "client": {"kind": "mock", "mode": "gold_corruption",
                       "matrix": [[0.9, 0.1], [0.1, 0.9]]},
        }), encoding="utf-8")
        assert run(["annotate", "--config", tmp_path / "run.yaml"]) == 0
        assert run([
            "evaluate", "--corpus", tmp_path / "corpus.jsonl",
            "--annotations", tmp_path / "ann" / "annotations.jsonl",
            "--scheme", tmp_path / "scheme.yaml", "--variable", "answer",
            "--out-dir", tmp_path / "eval",
        ]) == 0
        assert run([
            "bootstrap", "--annotations", tmp_path / "ann" / "annotations.jsonl",
            "--confusion", tmp_path / "eval" / "confusion.csv",
            "--corpus", tmp_path / "corpus.jsonl",
            "--statistic", "mixed:yes ~ age + (1|school)",
            "--replicates", 16, "--seed", 23,
            "--out", tmp_path / "boot" / "boot.json",
        ]) == 0
        boot = json.loads((tmp_path / "boot" / "boot.json").read_text())
        stat = boot["statistics"]["beta_age"]
        assert stat["ci_low"] <= stat["point"] <= stat["ci_high"]


def _refusing_workspace(tmp_path, n, refuse_every, matrix, text="passage {i}"):
    """A Positive/Negative corpus annotated by a mock that refuses every
    ``refuse_every``-th unit, then evaluated; returns the annotation path."""
    scheme = CodingScheme((
        Variable("sentiment", "categorical",
                 (Level("Positive"), Level("Negative"))),
    ))
    units = tuple(
        Unit(id=f"u{i:04d}", text=text.format(i=i),
             meta={"year": 1990 + i % 3},
             groups={"school": f"sch{i % 4}"},
             gold={"sentiment": ("Positive", "Negative")[i % 2]})
        for i in range(n)
    )
    save_corpus(Corpus(units), tmp_path / "corpus.jsonl")
    save_scheme(scheme, tmp_path / "scheme.yaml")
    (tmp_path / "prompt.txt").write_text("Label it.\n\n{text}\n", encoding="utf-8")
    (tmp_path / "run.yaml").write_text(yaml.safe_dump({
        "corpus": "corpus.jsonl", "scheme": "scheme.yaml",
        "template": "prompt.txt", "variable": "sentiment", "output_dir": "ann",
        "seed": 3,
        "client": {"kind": "mock", "mode": "gold_corruption", "matrix": matrix,
                   "refuse_units": [u.id for u in units[::refuse_every]]},
    }), encoding="utf-8")
    assert run(["annotate", "--config", tmp_path / "run.yaml"]) == 0
    annotations = tmp_path / "ann" / "annotations.jsonl"
    assert run([
        "evaluate", "--corpus", tmp_path / "corpus.jsonl",
        "--annotations", annotations, "--scheme", tmp_path / "scheme.yaml",
        "--variable", "sentiment", "--out-dir", tmp_path / "eval",
    ]) == 0
    return annotations


class TestBootstrapRefusals:
    def test_refused_units_are_not_redrawn_as_error(self, tmp_path):
        # an exact mock that refuses every 5th unit: the refusals leave an
        # ERROR column in confusion.csv, but the bootstrapped labels exclude
        # refused units, so no replicate may relabel a unit as ERROR
        annotations = _refusing_workspace(tmp_path, 200, 5, [[1, 0], [0, 1]])
        assert "ERROR" in (tmp_path / "eval" / "confusion.csv").read_text()
        assert run([
            "bootstrap", "--annotations", annotations,
            "--confusion", tmp_path / "eval" / "confusion.csv",
            "--statistic", "proportion:Positive",
            "--replicates", 300, "--seed", 1,
            "--out", tmp_path / "boot" / "boot.json",
        ]) == 0
        boot = json.loads((tmp_path / "boot" / "boot.json").read_text())
        stat = boot["statistics"]["prop_Positive"]
        assert stat["sigma"] == 0.0
        assert stat["replicate_mean"] == stat["point"]
        assert stat["ci_low"] == stat["ci_high"] == stat["point"]


class TestOutputLayout:
    def test_every_written_file_has_the_canonical_layout(self, tmp_path):
        # one run over every file-writing command, with a refused unit and
        # non-ASCII text: each JSON document is indent-2, sorted, newline
        # terminated; each JSONL line is one sorted object, non-ASCII kept
        annotations = _refusing_workspace(
            tmp_path, 60, 7, [[0.8, 0.2], [0.1, 0.9]],
            text="Schüler {i} — « naïve » ✓")
        assert run([
            "ingest", "--input", tmp_path / "corpus.jsonl", "--format", "jsonl",
            "--out", tmp_path / "ing" / "corpus.jsonl",
        ]) == 0
        assert run([
            "bootstrap", "--annotations", annotations,
            "--confusion", tmp_path / "eval" / "confusion.csv",
            "--corpus", tmp_path / "corpus.jsonl",
            "--statistic", "yearly_proportions:Positive",
            "--replicates", 50, "--seed", 2,
            "--out", tmp_path / "boot" / "boot.json",
        ]) == 0
        rows = ["school,age,yes"] + [
            f"{o.group},{o.covariates['age']!r},{o.response}"
            for o in gen_simpson(1)]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n",
                                           encoding="utf-8")
        for name, formula in (("fixed", "yes ~ age"),
                              ("mixed", "yes ~ age + (1|school)")):
            assert run([
                "fit", "--data", tmp_path / "data.csv", "--formula", formula,
                "--out", tmp_path / name / "fit.json",
            ]) == 0
        assert run([
            "report", tmp_path / "eval" / "report.json",
            tmp_path / "boot" / "boot.json", tmp_path / "mixed" / "fit.json",
            "--out", tmp_path / "summary.md",
        ]) == 0

        documents = sorted(tmp_path.rglob("*.json"))
        assert len(documents) == 10  # 6 manifests, report, boot, 2 fits
        for path in documents:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2,
                                      sort_keys=True) + "\n", path
        lines = [line for path in sorted(tmp_path.rglob("*.jsonl"))
                 for line in path.read_text(encoding="utf-8").splitlines()]
        assert any("Schüler" in line for line in lines)
        assert any('"status": "refused"' in line for line in lines)
        for line in lines:
            assert line == json.dumps(json.loads(line), ensure_ascii=False,
                                      sort_keys=True)

        fixed = json.loads((tmp_path / "fixed" / "fit.json").read_text())
        mixed = json.loads((tmp_path / "mixed" / "fit.json").read_text())
        assert not {"sigma_u", "n_quad", "boundary"} & set(fixed)
        assert {"sigma_u", "n_quad", "boundary"} <= set(mixed)
        boot = json.loads((tmp_path / "boot" / "boot.json").read_text())
        assert len(boot["statistics"]) == 3
        for stat in boot["statistics"].values():
            assert set(stat) == {"point", "replicate_mean", "sigma",
                                 "ci_low", "ci_high"}
        assert boot["config"] == {"n_replicates": 50, "seed": 2,
                                  "ci_method": "normal_1p96sigma", "level": 0.95}
        summary = (tmp_path / "summary.md").read_text(encoding="utf-8")
        assert json.dumps(mixed, indent=2, sort_keys=True) in summary
