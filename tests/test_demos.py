"""Every script under demos/ runs to a clean exit, and every built-in
``quantitize demo`` prints pinned bytes."""

import hashlib
import runpy
from pathlib import Path

import pytest

from quantitize.cli import main

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# the sha256 of each demo's standard output; a seed only permutes the rows
# of the simpson and confound data, so their printed fits do not move
DEMO_STDOUT = {
    ("simpson", 0): "f0bbd2b3041cb56511f1be76577cc599ed89042ef8f69bc32a66fa599c75020c",
    ("simpson", 1): "f0bbd2b3041cb56511f1be76577cc599ed89042ef8f69bc32a66fa599c75020c",
    ("simpson", 7): "f0bbd2b3041cb56511f1be76577cc599ed89042ef8f69bc32a66fa599c75020c",
    ("confound", 0): "94d3ddf4a0e5f668a135329c0b052315f2c2fc11b6d2c335d6d6f57b3db9c50d",
    ("confound", 1): "94d3ddf4a0e5f668a135329c0b052315f2c2fc11b6d2c335d6d6f57b3db9c50d",
    ("confound", 7): "94d3ddf4a0e5f668a135329c0b052315f2c2fc11b6d2c335d6d6f57b3db9c50d",
    ("interview", 0): "b4e1f0c07cb278e58a3b9804ce84b3c850424daca6db23eb7695eed79bcb83be",
    ("interview", 1): "e8532b7e7694819c13436067f04f7e99a092d4fb6b2fcc84c9087b285634eee6",
    ("interview", 7): "229fd05dd6bc3ff8dcc69918f73ac9b5af8c302bbcc461445ab0e4b7d9b1fddb",
}


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("kind, seed", DEMO_STDOUT, ids=lambda v: str(v))
def test_demo_stdout_is_pinned(kind, seed, capsys):
    assert main(["demo", kind, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_STDOUT[kind, seed]
