"""The README's key tables, for the run config and the coding scheme,
against the dataclasses that declare the keys."""

import dataclasses
from pathlib import Path

from quantitize import (AnnotatePolicy, CodingScheme, CsvMapping,
                        DecodingControls, Level, Variable)
from quantitize.cli import ClientConfig, RunConfig


def test_config_key_table_lists_every_field():
    # the README's key table copies the keys that the dataclasses declare;
    # it must list exactly their fields, and "required" exactly for those
    # without a default
    sections = {"top level": RunConfig, "`client`": ClientConfig,
                "`policy`": AnnotatePolicy, "`decoding`": DecodingControls,
                "`--mapping` file": CsvMapping, "scheme top level": CodingScheme,
                "`variables` entry": Variable, "`levels` entry": Level}
    listed = {name: {} for name in sections}
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0] in sections:
            listed[cells[0]][cells[1].strip("`")] = cells[3]
    for name, cls in sections.items():
        required = {f.name: f.default is f.default_factory is dataclasses.MISSING
                    for f in dataclasses.fields(cls)}
        assert set(listed[name]) == set(required), name
        for key, default in listed[name].items():
            assert (default == "required") == required[key], (name, key)
