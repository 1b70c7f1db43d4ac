import json

import pytest
import yaml

from quantitize import (
    CodingScheme,
    Corpus,
    Level,
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


class TestExitCodes:
    def test_unknown_config_key_is_2(self, workspace, capsys):
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        cfg["bogus_key"] = 1
        (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg),
                                            encoding="utf-8")
        assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_unknown_client_key_is_2(self, workspace):
        cfg = yaml.safe_load((workspace / "run.yaml").read_text())
        cfg["client"]["api_key"] = "secret"
        (workspace / "bad.yaml").write_text(yaml.safe_dump(cfg),
                                            encoding="utf-8")
        assert run(["annotate", "--config", workspace / "bad.yaml"]) == 2

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
        assert (workspace / "out_endpoint"
                / "annotations.jsonl.partial").exists()

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

    def test_demo_simpson_verdict(self, capsys):
        assert run(["demo", "simpson", "--seed", 1]) == 0
        out = capsys.readouterr().out
        assert "grouping artifact" in out

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
