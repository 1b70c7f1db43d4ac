"""The traced benchmark (``bench/spans.py``) times the bootstrap by replacing
attributes of ``quantitize.boot`` and ``quantitize.cli``; this test checks
that a traced CLI run still passes through every one of them."""

import importlib.util
from pathlib import Path

import numpy as np

from quantitize import AnnotationSet, ConfusionMatrix
from quantitize.cli import main

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_bootstrap_records_the_boot_spans(tmp_path):
    labels = ["A", "B", "A"] * 4
    columns = ([f"u{i:02d}" for i in range(12)], ["sentiment"] * 12, labels, labels,
               ["ok"] * 12, [1] * 12)
    AnnotationSet(columns, {"source": "test"}).save(tmp_path / "ann.jsonl")
    ConfusionMatrix(("A", "B"), np.array([[8, 2], [1, 9]])).to_csv(
        tmp_path / "confusion.csv")
    with load_tracer()() as tracer:
        code = main([
            "bootstrap", "--annotations", str(tmp_path / "ann.jsonl"),
            "--confusion", str(tmp_path / "confusion.csv"),
            "--statistic", "proportion:A", "--replicates", "5",
            "--out", str(tmp_path / "boot" / "boot.json"),
        ])
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"boot.bootstrap_ci", "boot.simulate", "boot.statistic"} <= names
