"""Data model and ingestion for text units, coding schemes and gold labels.

A corpus is an ordered collection of units: one analyzable text fragment
each, with optional grouping ids (respondent, source), scalar metadata
(year, title) and optional gold labels keyed by variable name. A coding
scheme declares the variables and their levels; gold labels are validated
against it at ingestion time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import string
import typing
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np
import yaml

from .errors import ConfigError, DataError
from .jsonio import read_csv_table, read_jsonl, read_text, write_jsonl, write_text

Scalar = Union[str, int, float, bool]

VARIABLE_KINDS = ("categorical", "ordinal", "numeric", "open")
STRIP_CHARS = string.whitespace + string.punctuation + "‘’“”"


@dataclass(frozen=True)
class Level:
    label: str
    definition: str = ""


@dataclass(frozen=True)
class Variable:
    """One variable of a coding scheme.

    For categorical/ordinal kinds, ``levels`` is the ordered list of
    admissible labels with their definitions; the declared order is the
    ordinal order. ``catch_all`` optionally names the level that collects
    leftovers (e.g. a "Misc" topic).
    """

    name: str
    kind: str = "categorical"
    levels: tuple[Level, ...] = ()
    catch_all: Optional[str] = None

    def __post_init__(self):
        if self.kind not in VARIABLE_KINDS:
            raise ConfigError(f"unknown variable kind {self.kind!r} for {self.name!r}")
        if self.kind in ("categorical", "ordinal"):
            if len(self.levels) < 2:
                raise ConfigError(
                    f"variable {self.name!r} ({self.kind}) needs at least 2 levels"
                )
            labels = self.labels
            if len(set(labels)) != len(labels):
                raise ConfigError(f"duplicate level labels in variable {self.name!r}")
            if self.catch_all is not None and self.catch_all not in labels:
                raise ConfigError(
                    f"catch_all {self.catch_all!r} is not a level of {self.name!r}"
                )

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels)

    @cached_property
    def folded_labels(self) -> tuple[str, ...]:
        """The labels trimmed of STRIP_CHARS and case-folded."""
        return tuple(l.strip(STRIP_CHARS).casefold() for l in self.labels)


@dataclass(frozen=True)
class CodingScheme:
    variables: tuple[Variable, ...]
    version: str = "1"

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate variable names in coding scheme")

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise ConfigError(f"variable {name!r} not in scheme")

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "variables": [
                {
                    "name": v.name,
                    "kind": v.kind,
                    "levels": [
                        {"label": lv.label, "definition": lv.definition}
                        for lv in v.levels
                    ],
                    **({"catch_all": v.catch_all} if v.catch_all else {}),
                }
                for v in self.variables
            ],
        }


def _fits(hint, value) -> bool:
    """Whether a config value has a field's type, down to tuple and dict
    elements: a float takes an int, a tuple a list, and no number a bool."""
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin is typing.Union:
        return any(_fits(h, value) for h in args)
    if origin is tuple:
        if args[-1:] == (Ellipsis,) and isinstance(value, (list, tuple)):
            args = args[:1] * len(value)
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_fits, args, value)))
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(args[0], k) and _fits(args[1], v) for k, v in value.items())
    if isinstance(value, bool) and origin in (int, float):
        return False
    if origin is float:
        return isinstance(value, (int, float))
    return isinstance(value, origin)


def _from_section(cls, doc, section: str):
    """``cls(**doc)`` for a config section. Each key must be a field of the
    dataclass ``cls``, each field without a default must be given, and each
    value must have its field's type; a dataclass field is a nested section,
    and a ``tuple[<dataclass>, ...]`` field a list of them."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    missing = [name for name, f in fields.items() if name not in doc
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(
            f"{section}.{name} ({name!r})" for name in missing))
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in doc.items():
        hint = hints[key]
        nested = [h for h in (hint, *typing.get_args(hint))
                  if dataclasses.is_dataclass(h)]
        many = typing.get_origin(hint) is tuple
        if nested and many and isinstance(value, list):
            values[key] = tuple(_from_section(nested[0], v, f"{section}.{key}[{i}]")
                                for i, v in enumerate(value))
        elif _fits(hint, value):
            values[key] = value
        elif nested and not many:
            values[key] = _from_section(nested[0], value, f"{section}.{key}")
        else:
            expected = (hint.__name__ if isinstance(hint, type) else str(hint)
                        .replace("typing.", "").replace(f"{__name__}.", ""))
            raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")
    return cls(**values)


def load_yaml(cls, path, section: str):
    """A YAML file as the dataclass ``cls``, through :func:`_from_section`;
    a file that is not YAML or does not fit is a ConfigError naming it."""
    text = read_text(path, ConfigError)
    try:
        return _from_section(cls, yaml.safe_load(text) or {}, section)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)  # a reader error has none
        at = f", line {mark.line + 1}" if mark else ""
        raise ConfigError(f"{path}{at}: not YAML: {getattr(exc, 'problem', exc)}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_scheme(path: Union[str, Path]) -> CodingScheme:
    """Load a coding scheme from a YAML (or JSON) document."""
    return load_yaml(CodingScheme, path, "scheme")


def save_scheme(scheme: CodingScheme, path: Union[str, Path]) -> None:
    write_text(path, yaml.safe_dump(scheme.to_dict(), sort_keys=False,
                                    allow_unicode=True))


@dataclass(frozen=True)
class Unit:
    """One row of the analysis table: a text fragment plus its bookkeeping."""

    id: str
    text: str
    groups: dict[str, str] = field(default_factory=dict)
    meta: dict[str, Scalar] = field(default_factory=dict)
    gold: Optional[dict[str, str]] = None

    def __post_init__(self):
        if not self.text.strip():
            raise DataError(f"unit {self.id!r} has empty text")


def _unit_doc(uid, text, groups, meta, gold) -> dict:
    """A unit as its JSONL object: groups and meta only when not empty,
    gold only when given."""
    d = {"id": uid, "text": text}
    if groups:
        d["groups"] = groups
    if meta:
        d["meta"] = meta
    if gold is not None:
        d["gold"] = gold
    return d


class Corpus:
    """An ordered table of units, held as one column per field: ``ids``,
    ``texts``, ``groups``, ``meta`` and ``gold`` (None for a unit without
    gold labels), all of one length, and ``index``, each id's row. The
    columns are read, never changed. A :class:`Unit` is built only when one
    is asked for: by iterating, by row (``corpus[i]``) or by id
    (:meth:`unit`)."""

    def __init__(self, units: Iterable[Unit]):
        self._fill(*_unit_columns(units))

    @classmethod
    def from_columns(cls, ids, texts, groups, meta, gold) -> "Corpus":
        """A corpus of the given columns, taken as they are: each text must
        already be non-blank. Columns of unequal length are a DataError."""
        corpus = cls.__new__(cls)
        corpus._fill(ids, texts, groups, meta, gold)
        return corpus

    def _fill(self, ids, texts, groups, meta, gold) -> None:
        check_lengths(ids=ids, texts=texts, groups=groups, meta=meta, gold=gold)
        self.ids, self.texts, self.groups, self.meta, self.gold = (
            ids, texts, groups, meta, gold)
        self.index = dict(zip(ids, range(len(ids))))
        if len(self.index) < len(ids):
            seen = set()
            for uid in ids:
                if uid in seen:
                    raise DataError(f"duplicate unit id {uid!r}")
                seen.add(uid)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(Unit, self.ids, self.texts, self.groups, self.meta, self.gold)

    def __getitem__(self, row: int) -> Unit:
        return Unit(self.ids[row], self.texts[row], self.groups[row], self.meta[row],
                    self.gold[row])

    def unit(self, uid: str) -> Unit:
        return self[self.rows([uid])[0]]

    def rows(self, ids: Iterable[str]) -> list[int]:
        """The row of each id in ``ids``; an id of no unit is a DataError."""
        index = self.index
        try:
            return [index[uid] for uid in ids]
        except KeyError as exc:
            raise DataError(f"no unit with id {exc.args[0]!r}") from None


def check_lengths(**columns) -> None:
    """A DataError naming the first column whose length is not the first
    column's."""
    (first, column), *rest = columns.items()
    for name, other in rest:
        if len(other) != len(column):
            raise DataError(f"column {name!r} has {len(other)} rows where "
                            f"{first!r} has {len(column)}")


def _unit_columns(units: Iterable[Unit]) -> tuple[list, ...]:
    """The id, text, groups, meta and gold columns of ``units``."""
    units = tuple(units)
    return ([u.id for u in units], [u.text for u in units], [u.groups for u in units],
            [u.meta for u in units], [u.gold for u in units])


def _validate_gold(ids, golds, scheme: CodingScheme) -> None:
    """Each gold label of a categorical or ordinal variable must be one of
    its levels; a gold variable the scheme lacks is a ConfigError."""
    levels = {v.name: v.labels for v in scheme.variables
              if v.kind in ("categorical", "ordinal")}
    for uid, gold in zip(ids, golds):
        for var_name, label in (gold or {}).items():
            if var_name not in levels:
                scheme.variable(var_name)  # a ConfigError when it is not there
            elif label not in levels[var_name]:
                raise DataError(
                    f"unit {uid!r}: gold label {label!r} is not a level of {var_name!r}"
                )


def _synth_id(i: int) -> str:
    return f"u{i + 1:06d}"


def as_text(value) -> str:
    """``value`` as text: a string, or a finite number written as one.
    Anything else, null, a bool, NaN, an infinity, a list or an object, is a
    ValueError saying so."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"is not finite: {json.dumps(value)}")
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return str(value)
    raise ValueError(f"must be a string or a number, got {json.dumps(value)}")


def _field_text(name: str, value) -> str:
    """:func:`as_text` of the corpus value ``name``, a DataError naming it."""
    try:
        return as_text(value)
    except ValueError as exc:
        raise DataError(f"{name} {exc}") from None


def _str_dict(obj: dict, key: str) -> dict:
    """The JSON object ``obj[key]`` with every value :func:`as_text`: the
    parsed dict itself when they all are strings already."""
    d = obj[key]
    if type(d) is not dict:
        raise DataError(f"{key} must be a JSON object")
    for v in d.values():
        if type(v) is not str:
            break
    else:
        return d
    return {k: _field_text(f"{key} value {k!r}", v) for k, v in d.items()}


def _read_jsonl_columns(path) -> tuple[list, ...]:
    """The id, text, groups, meta and gold columns of a JSONL corpus, one
    unit object per line, decoded straight into them: an id (synthesized
    when missing), a non-blank text, groups, a meta object without NaN or
    infinite values and an optional gold object. The id, the text and the
    group and gold values are each :func:`as_text`."""
    texts, groups, metas, golds = [], [], [], []

    def build(obj, i):
        uid = obj["id"] if "id" in obj else _synth_id(i)
        text = obj["text"]
        if type(text) is not str:
            text = _field_text("text", text)
        group = _str_dict(obj, "groups") if "groups" in obj else {}
        meta = obj.get("meta", {})
        if type(meta) is not dict:
            raise DataError("meta must be a JSON object")
        for key, value in meta.items():  # json.loads takes NaN and Infinity
            if type(value) is float and not math.isfinite(value):
                raise DataError(f"meta value {key!r} is not finite: {json.dumps(value)}")
        if type(uid) is not str:
            uid = _field_text("id", uid)
        gold = _str_dict(obj, "gold") if obj.get("gold") is not None else None
        if not text.strip():
            raise DataError(f"unit {uid!r} has empty text")
        texts.append(text)
        groups.append(group)
        metas.append(meta)
        golds.append(gold)
        return uid

    return read_jsonl(path, build), texts, groups, metas, golds


def _finite_float(cell: str) -> float:
    """A CSV cell as a float; nan and infinities are a ValueError, since a
    JSON corpus cannot hold them."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(cell)
    return value


@dataclass(frozen=True)
class CsvMapping:
    """Column-to-field mapping for CSV ingestion.

    ``meta_columns`` maps column name to a type tag ("int", "float", "str",
    "bool"); columns not mentioned anywhere are kept as string metadata.
    """

    id_column: Optional[str] = None
    text_column: str = "text"
    group_columns: dict[str, str] = field(default_factory=dict)  # role -> column
    meta_columns: dict[str, str] = field(default_factory=dict)  # column -> type
    gold_columns: dict[str, str] = field(default_factory=dict)  # variable -> column
    _TYPES = {"int": int, "float": _finite_float, "str": str,  # not a field: no annotation
              "bool": lambda value: value.strip().lower() in ("1", "true", "yes")}

    def __post_init__(self):
        for column, kind in self.meta_columns.items():
            if kind not in self._TYPES:
                raise ConfigError(f"meta column {column!r} has type tag {kind!r}; "
                                  "the tags are int, float, str and bool")

    def coerce(self, column: str, value: str) -> Scalar:
        return self._TYPES[self.meta_columns.get(column, "str")](value)


def ingest(
    path: Union[str, Path],
    format: str,
    scheme: Optional[CodingScheme] = None,
    csv_mapping: Optional[CsvMapping] = None,
    unitize_strategy: Optional["UnitizeStrategy"] = None,
) -> Corpus:
    """Read a corpus from disk.

    Supported formats: ``jsonl`` (one object per line with id, text, groups,
    meta, gold), ``csv`` (header row plus a :class:`CsvMapping`) and ``text``
    (UTF-8 plain text, split by ``unitize_strategy``). Ids missing from the
    input are synthesized as ``u000001...`` in file order.
    """
    if format == "jsonl":
        columns = _read_jsonl_columns(path)
    elif format == "csv":
        if csv_mapping is None:
            raise ConfigError("csv ingestion requires a column mapping")
        m = csv_mapping
        header, rows = read_csv_table(path)
        mapped = {m.id_column, m.text_column}
        mapped |= set(m.group_columns.values())
        mapped |= set(m.gold_columns.values())
        missing = sorted(mapped - set(header) - {None})
        if missing:
            raise ConfigError(f"csv has no column {', '.join(map(repr, missing))}")
        units = []
        for i, (line, row) in enumerate(rows):
            uid = row[m.id_column] if m.id_column else _synth_id(i)
            meta: dict[str, Scalar] = {}
            for col, val in row.items():
                if col in mapped:
                    continue
                try:
                    meta[col] = m.coerce(col, val)
                except ValueError:
                    raise DataError(f"{path}, line {line}: column {col!r} "
                                    f"is not {m.meta_columns[col]}: {val!r}") from None
            gold = {v: row[c] for v, c in m.gold_columns.items() if row[c]}
            units.append(
                Unit(
                    id=str(uid),
                    text=row[m.text_column],
                    groups={r: row[c] for r, c in m.group_columns.items()},
                    meta=meta,
                    gold=gold or None,
                )
            )
        columns = _unit_columns(units)
    elif format == "text":
        if unitize_strategy is None:
            raise ConfigError("text ingestion requires a unitizing strategy")
        columns = _unit_columns(unitize(read_text(path), unitize_strategy))
    else:
        raise ConfigError(f"unknown ingestion format {format!r}")

    ids, *_, golds = columns
    if not ids:
        raise DataError(f"input file {path} yielded an empty corpus")
    if scheme is not None:
        _validate_gold(ids, golds, scheme)
    return Corpus.from_columns(*columns)


def save_corpus(corpus: Corpus, path: Union[str, Path]) -> None:
    """Write a corpus as JSONL, one unit object per line. A NaN or infinite
    meta value, which JSON cannot hold, is a DataError naming its unit and
    key; it is looked for only when the encoder refuses a unit."""
    try:
        write_jsonl(path, map(_unit_doc, corpus.ids, corpus.texts, corpus.groups,
                              corpus.meta, corpus.gold))
    except ValueError:
        for uid, meta in zip(corpus.ids, corpus.meta):
            for key, value in meta.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise DataError(f"unit {uid!r}: meta value {key!r} is not "
                                    f"finite: {json.dumps(value)}") from None
        raise


# --- unitizing -------------------------------------------------------------


def approx_tokens(text: str) -> int:
    """Model-agnostic token count heuristic: one token per 4 characters."""
    return math.ceil(len(text) / 4)


@dataclass(frozen=True)
class Paragraph:
    merge_below = 0  # a class attribute, not a field: no merging

    def split(self, text: str) -> list[str]:
        return re.split(r"\n\s*\n", text)


@dataclass(frozen=True)
class SentenceSplit:
    merge_below = 0

    def split(self, text: str) -> list[str]:
        return re.split(r"(?<=[.!?])\s+", text)


@dataclass(frozen=True)
class Window:
    size: int  # approximate tokens per unit
    merge_below: int = 0

    def __post_init__(self):
        if self.size <= 0:
            raise ConfigError("window size must be positive")
        _check_merge_below(self.merge_below)

    def split(self, text: str) -> list[str]:
        return _window_chunks(text, max_chars=self.size * 4)


@dataclass(frozen=True)
class Scene:
    marker: str  # regex matched at line start, e.g. r"INT\.|EXT\."
    merge_below: int = 0

    def __post_init__(self):
        if not self.marker:  # it would match at every line start
            raise ConfigError("scene strategy needs a marker")
        try:
            object.__setattr__(self, "_pattern", re.compile(rf"(?m)^(?={self.marker})"))
        except re.error as exc:
            raise ConfigError(f"scene strategy marker {self.marker!r}: {exc}") from None
        if re.match(self.marker, ""):  # so would any marker matching no text
            raise ConfigError(f"scene strategy marker {self.marker!r} matches the "
                              "empty string, so every line would start a scene")
        _check_merge_below(self.merge_below)

    def split(self, text: str) -> list[str]:
        return self._pattern.split(text)


def _check_merge_below(merge_below: int) -> None:
    if merge_below < 0:
        raise ConfigError(f"merge_below must be >= 0, got {merge_below}")


UnitizeStrategy = Union[Paragraph, SentenceSplit, Window, Scene]


def parse_strategy(spec: str) -> UnitizeStrategy:
    """The strategy of a spec ``paragraph``, ``sentence``,
    ``window:SIZE[:MERGE_BELOW]`` or ``scene:MARKER[:MERGE_BELOW]``. The kind
    ends at the first colon, and a trailing ``:N`` (an integer) is always
    MERGE_BELOW, so a marker keeps its own colons. Any other spec is a
    ConfigError."""
    if spec in ("paragraph", "sentence"):
        return Paragraph() if spec == "paragraph" else SentenceSplit()
    kind, colon, param = spec.partition(":")
    param, merge_below = re.fullmatch(r"(.*?)(?::(-?\d+))?", param, re.S).groups("0")
    if colon and kind == "scene":
        return Scene(marker=param, merge_below=int(merge_below))
    if colon and kind == "window" and re.fullmatch(r"-?\d+", param):
        return Window(size=int(param), merge_below=int(merge_below))
    raise ConfigError(f"strategy {spec!r} is none of paragraph, sentence, "
                      "window:SIZE[:MERGE_BELOW] and scene:MARKER[:MERGE_BELOW]")


def _merge_short(segments: list[str], merge_below: int) -> list[str]:
    """Merge segments under the token floor into their successor.

    The last segment, if still short, merges backward instead.
    """
    out: list[str] = []
    carry = ""
    for seg in segments:
        seg = carry + seg
        carry = ""
        if approx_tokens(seg.strip()) < merge_below:
            carry = seg
        else:
            out.append(seg)
    if carry:
        if out:
            out[-1] = out[-1] + carry
        else:
            out.append(carry)
    return out


def _window_chunks(text: str, max_chars: int) -> list[str]:
    # Greedy packing on whitespace boundaries; overlong unbroken runs are
    # hard-split so no chunk exceeds max_chars.
    pieces = re.split(r"(\s+)", text)
    chunks: list[str] = []
    cur = ""
    for piece in pieces:
        if len(cur) + len(piece) <= max_chars or not cur.strip():
            cur += piece
        else:
            chunks.append(cur)
            cur = piece
        while len(cur) > max_chars:
            chunks.append(cur[:max_chars])
            cur = cur[max_chars:]
    if cur:
        chunks.append(cur)
    return chunks


def unitize(text: str, strategy: UnitizeStrategy) -> list[Unit]:
    """Units ``u000001...`` of the segments of ``strategy.split`` that are not
    blank, each under ``strategy.merge_below`` tokens merged into the next;
    joined, they restore the input up to the whitespace of splits and blanks."""
    segments = [s for s in strategy.split(text) if s.strip()]
    return [Unit(id=_synth_id(i), text=seg)
            for i, seg in enumerate(_merge_short(segments, strategy.merge_below))]


def sample_units(
    corpus: Union[Corpus, Sequence[Unit]],
    n: int,
    seed: int,
    with_replacement: bool = False,
) -> list[Unit]:
    """Uniform seeded sample of units; reproducible for equal arguments."""
    units = list(corpus)
    if n < 1:
        raise DataError("sample size must be >= 1")
    if not with_replacement and n > len(units):
        raise DataError(
            f"cannot sample {n} units from {len(units)} without replacement"
        )
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(units), size=n, replace=with_replacement)
    return [units[i] for i in idx]
