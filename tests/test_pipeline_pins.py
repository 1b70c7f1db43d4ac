"""The bytes of every file a full CLI pipeline writes, pinned.

One seeded corpus goes through ``ingest → annotate → evaluate → bootstrap
→ report`` in a temporary working directory, with relative paths, so that
no manifest holds a temporary path, and with ``SOURCE_DATE_EPOCH`` set, so
that the annotation manifest's timestamp is fixed. Each output file's
sha256 is compared with a pin: a change to how corpora and annotations are
read, joined or written that moves any output byte fails here."""

import hashlib
import json
from pathlib import Path

import yaml

from quantitize.cli import main

TOPICS = ("Politics", "Economy", "Culture")
N_UNITS = 300
REFUSED = "p0042"

# taken before corpora and annotations were read into column tables; the
# pins of the bootstrap outputs and of summary.md, which quotes them, were
# re-taken when replicates came to be drawn from one seeded stream
PINS = {
    "corpus.jsonl":
        "e47d483d0c66e4a1017600ff2cf11fb3860cfcac823cab00520931b9aa65fdc5",
    "manifest.json":
        "f899dda2daf44d20dce1018f4a3d2c84132cd4afc86b844340f86f9a3bafc4c2",
    "ann/annotations.jsonl":
        "7dd25da62a54f5626d26097bd54229fb2bb8b1e57ecd2bfc7c32643f8632c684",
    "ann/manifest.json":
        "497adc9b0c77e7812f3466b1c1ec71419c53045abe2ee26abdb64f043fe6e6bc",
    "eval/confusion.csv":
        "f12b718f604e2b14509abe5417d72b53a8967ab72d585051b54ab29aec52ac24",
    "eval/report.json":
        "a68b5203919a4870f99503ba0646644a10c5ded2ecf432c18ab535d66e1cb5fb",
    "eval/manifest.json":
        "05015084904958ae6590ece18e69970f57129cc2f7fdb4d60f1aab350d2056c7",
    "yearly/boot.json":
        "f6a16fb3ab1a2870265ea4420b22adcf71f81c5e2914322e42ebf8210ca88c77",
    "yearly/replicates.csv":
        "fbf9b1d874eb56df39a93fcaf21aa31442a74b08ca9da42f2c30ede144bab4c0",
    "yearly/manifest.json":
        "d383ccaa916de90f9eb82733c2f55b856a0e9bebca0759c0c1d530c1414104f8",
    "logit/boot.json":
        "6ad912d7cf50f73d606e046769bf87d1b661705b871ad3b81e250567d101fa00",
    "logit/replicates.csv":
        "4cedd2ebbf2e862ab722f32bdb47a8e6ba7ada94222cc4dd27086b5b772fd12d",
    "logit/manifest.json":
        "a4f635084983df4ca78ff295089b7b3a99f4b964fe53016e5345b1dbc627b14e",
    "summary.md":
        "6ffe6cc5d8e8bfd563b45e97d24bf078beed5ab1a61cd0df4acfef9fe8c573cc",
}


def _raw_units():
    """Unit ``i``: a source group, a year, an age and a gold topic, all
    fixed arithmetic of ``i``; Politics grows more likely with the year.
    Every tenth unit's id and every seventh unit's group are JSON numbers,
    which ingest writes back as strings."""
    for i in range(N_UNITS):
        year = 1990 + (i * 7) % 6
        u = (i * 2654435761 >> 7) % 1000 / 1000
        p_politics = 0.2 + 0.08 * (year - 1990)
        yield {
            "id": 9000 + i if i % 10 == 9 else f"p{i:04d}",
            "text": f"Item {i} from {year}: " + " ".join(
                ("treaty", "harvest", "opera", "wages", "press")[(i * k) % 5]
                for k in range(1, 6)) + ".",
            "groups": {"source": i % 4 if i % 7 == 0 else f"s{i % 4}"},
            "meta": {"year": year, "age": 18.0 + (i * 13) % 47 / 2},
            "gold": {"topic": TOPICS[0 if u < p_politics else
                                     1 if u < p_politics + 0.35 else 2]},
        }


def _write_inputs(root: Path) -> None:
    with open(root / "raw.jsonl", "w", encoding="utf-8") as fh:
        for unit in _raw_units():
            fh.write(json.dumps(unit) + "\n")
    (root / "scheme.yaml").write_text(yaml.safe_dump({
        "version": "1",
        "variables": [{"name": "topic", "kind": "categorical",
                       "levels": [{"label": t} for t in TOPICS]}],
    }), encoding="utf-8")
    (root / "prompt.txt").write_text("Which topic? {text}\n", encoding="utf-8")
    (root / "run.yaml").write_text(yaml.safe_dump({
        "corpus": "corpus.jsonl", "scheme": "scheme.yaml",
        "template": "prompt.txt", "variable": "topic", "output_dir": "ann",
        "seed": 17,
        "client": {"kind": "mock", "mode": "gold_corruption",
                   "matrix": [[0.8, 0.15, 0.05], [0.1, 0.8, 0.1],
                              [0.05, 0.15, 0.8]],
                   "refuse_units": [REFUSED]},
    }), encoding="utf-8")


def _bootstrap(statistic, out, replicates):
    return ["bootstrap", "--annotations", "ann/annotations.jsonl",
            "--confusion", "eval/confusion.csv", "--corpus", "corpus.jsonl",
            "--statistic", statistic, "--replicates", str(replicates),
            "--seed", "3", "--out", f"{out}/boot.json",
            "--replicates-csv", f"{out}/replicates.csv"]


def test_pipeline_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    _write_inputs(tmp_path)
    for argv in (
            ["ingest", "--input", "raw.jsonl", "--format", "jsonl",
             "--scheme", "scheme.yaml", "--out", "corpus.jsonl"],
            ["annotate", "--config", "run.yaml"],
            ["evaluate", "--corpus", "corpus.jsonl", "--annotations",
             "ann/annotations.jsonl", "--scheme", "scheme.yaml",
             "--variable", "topic", "--out-dir", "eval"],
            _bootstrap("yearly_proportions:Politics", "yearly", 40),
            _bootstrap("logistic:Politics ~ age", "logit", 12),
            ["report", "eval/report.json", "yearly/boot.json", "logit/boot.json",
             "--out", "summary.md"]):
        assert main(argv) == 0, argv
    assert '"status": "refused"' in (tmp_path / "ann/annotations.jsonl").read_text()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINS}
    assert digests == PINS
