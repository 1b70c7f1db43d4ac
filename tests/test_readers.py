"""Every file the package opens is opened by ``jsonio``, and every input is
parsed by one reader per format: ``jsonio.read_json`` and
``jsonio.read_jsonl`` for JSON and JSONL, ``jsonio.read_csv_table`` for CSV,
``corpus.load_yaml`` for YAML. The checks walk the package's syntax trees,
so a parser call or a file opened anywhere else fails them. ``read_jsonl``
decodes its lines with a reused scanner, so it is also checked against
``json.loads``, and ``write_jsonl`` encodes with one encoder per file, so
it is checked against ``JSONEncoder.encode``."""

import ast
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quantitize
from quantitize import AnnotationRecord, AnnotationSet, Corpus, DataError, Unit, ingest
from quantitize.annotate import RECORD_FIELDS
from quantitize.jsonio import read_jsonl, read_lines, write_json, write_jsonl

PARSERS = {"json.load", "json.loads", "json.JSONDecoder", "json.decoder.JSONDecoder",
           "yaml.load", "yaml.safe_load", "yaml.full_load", "yaml.unsafe_load",
           "csv.reader", "csv.DictReader"}
PARSER_MODULES = ("json.scanner.",)  # every call into them
PARSER_METHODS = {"raw_decode", "scan_once"}  # on any receiver


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


class ParserCalls(ast.NodeVisitor):
    """(module, enclosing function, parser) for each parser call, and each
    ``from json import ...``, ``from yaml import ...`` or renamed import of
    either that could hide one."""

    def __init__(self, module):
        self.module, self.functions, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        name = _dotted(f)
        if name is not None and (name in PARSERS or name.startswith(PARSER_MODULES)):
            self._found(name)
        elif isinstance(f, ast.Attribute) and f.attr in PARSER_METHODS:
            self._found(f".{f.attr}")
        self.generic_visit(node)

    def _found(self, parser):
        where = self.functions[-1] if self.functions else None
        self.found.append((self.module, where, parser))

    def visit_ImportFrom(self, node):
        if (node.module or "").split(".")[0] in ("json", "yaml"):
            self.found.append((self.module, "import", node.module))

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.split(".")[0] in ("json", "yaml") and alias.asname:
                self.found.append((self.module, "import", alias.name))


def _parser_calls(source, module="m"):
    calls = ParserCalls(module)
    calls.visit(ast.parse(source))
    return calls.found


def test_parsers_are_called_only_by_the_readers():
    found = []
    for path in sorted(Path(quantitize.__file__).parent.glob("*.py")):
        found += _parser_calls(path.read_text(encoding="utf-8"), path.stem)
    assert sorted(found) == [("corpus", "load_yaml", "yaml.safe_load"),
                             ("jsonio", "read_csv_table", "csv.reader"),
                             ("jsonio", "read_json", "json.loads"),
                             ("jsonio", "read_jsonl", "json.JSONDecoder"),
                             ("jsonio", "read_jsonl", "json.loads"),
                             ("jsonio", "read_jsonl", "json.scanner.make_scanner")]


OPENERS = {"open", "io.open", "os.open", "os.fdopen", "csv.writer", "csv.DictWriter"}
PATH_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def _file_calls(source):
    """Each call in ``source`` that opens a file, reads or writes one whole,
    or makes a directory, as its dotted name or ``.method``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name, f = _dotted(node.func), node.func
            if name in OPENERS:
                found.append(name)
            elif isinstance(f, ast.Attribute) and f.attr in PATH_METHODS | {"mkdir"}:
                found.append(f".{f.attr}")
    return found


def test_files_are_opened_only_by_jsonio():
    found = {}
    for path in sorted(Path(quantitize.__file__).parent.glob("*.py")):
        calls = _file_calls(path.read_text(encoding="utf-8"))
        if calls and path.stem != "jsonio":
            found[path.stem] = calls
    assert found == {}


def test_the_file_visitor_sees_opens_writes_and_mkdirs():
    source = ("with open(p) as fh, io.open(p) as g:\n"
              "    csv.writer(fh).writerow([1])\n"
              "Path(p).write_text(t)\n"
              "out.parent.mkdir(parents=True)\n"
              "read_text(p)\n")  # jsonio's reader, called by name: not a Path read
    assert sorted(_file_calls(source)) == [".mkdir", ".write_text", "csv.writer",
                                           "io.open", "open"]


def test_the_visitor_sees_decoders_and_scanners():
    source = ("def f(s):\n"
              "    json.scanner.make_scanner(json.decoder.JSONDecoder())(s, 0)\n"
              "    d.raw_decode(s)\n"
              "    self.decoder.scan_once(s, 0)\n"
              "import json.scanner as sc\n"
              "from json.decoder import JSONDecoder\n")
    assert sorted(_parser_calls(source)) == [
        ("m", "f", ".raw_decode"), ("m", "f", ".scan_once"),
        ("m", "f", "json.decoder.JSONDecoder"),
        ("m", "f", "json.scanner.make_scanner"),
        ("m", "import", "json.decoder"), ("m", "import", "json.scanner")]


# --- read_jsonl against json.loads -----------------------------------------


def reference_read_jsonl(path, build):
    """``jsonio.read_jsonl`` as it was with one ``json.loads`` per line."""
    out = []
    for line_no, line in enumerate(read_lines(path), 1):
        try:
            if not line.isspace():
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise DataError(f"not a JSON object: {line.strip()[:40]}")
                out.append(build(obj, len(out)))
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}, line {line_no}: not JSON: {exc.msg}") from None
        except KeyError as exc:  # a missing field
            raise DataError(f"{path}, line {line_no}: lacks field {exc}") from None
        except (ValueError, TypeError, AttributeError, DataError) as exc:
            raise DataError(f"{path}, line {line_no}: {exc}") from None
    return out


_scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=5)
            | st.floats(allow_nan=False, allow_infinity=False))
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                       max_leaves=6)
_bodies = (st.dictionaries(st.text(max_size=4), _values, max_size=4).map(json.dumps)
           | _values.map(json.dumps)
           | st.sampled_from([
               '{"a": NaN}', '{"a": Infinity, "b": -Infinity}', "NaN",
               '{"a": 1, "a": 2}', '{"n": %s}' % ("7" * 4301), '{"a": 1} {"b": 2}',
               '{"a": 1}{"b": 2}', '{"a": 1}, {"b": [1', '2]}', '{"a": "\\u2028"}',
               '{"a": "\u00a0"}', '{"a": tru}', '{"a" 1}', '{', '}', "[]", '""']))
_before = st.sampled_from(["", " ", "\t", " \t ", "\ufeff", "\ufeff ", "\x0b",
                          "\u00a0"])
_after = st.sampled_from(["", " ", "\t", " \t", "\x0b", "\u00a0", "\u2028",
                          "\x0c", " x", ",", "]"])
_endings = st.sampled_from(["\n", "\r\n"])
_lines = (st.tuples(_before, _bodies, _after).map("".join)
          | st.sampled_from(["", " ", "\t", " \t ", "\x0b"]))


def _outcome(read, path):
    built = []
    try:
        count = read(path, lambda obj, i: built.append((i, obj)))
        return "ok", count, repr(built)  # repr: NaN == NaN
    except DataError as exc:
        return "error", str(exc), repr(built)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_lines, _endings), max_size=5), st.booleans())
def test_read_jsonl_decodes_exactly_as_json_loads(lines, last_newline):
    text = "".join(line + end for line, end in lines)
    if not last_newline and lines:
        text = text[: -len(lines[-1][1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(read_jsonl, path) == _outcome(
            lambda p, build: len(reference_read_jsonl(p, build)), path)


# --- write_jsonl against one encoder per line -------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(_values | st.dictionaries(st.text(max_size=3), _values, max_size=3),
                max_size=4))
def test_write_jsonl_writes_what_encode_writes(docs):
    shared = {"é": [1.5, -0.0, 1e308, "\u2028"], "a": None}
    docs = docs + [{"x": shared, "y": shared}, [shared], "Schüler"]
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False).encode
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.jsonl"
        write_jsonl(path, docs)
        assert path.read_bytes() == "".join(
            encode(d) + "\n" for d in docs).encode("utf-8")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_jsonl_refuses_a_non_finite_float(value):
    # JSON has no such number: a line with one would be no JSON
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.jsonl"
        with pytest.raises(ValueError, match="Out of range float"):
            write_jsonl(path, [{"ok": 1}, {"a": [value]}])
        # nothing is left: no partial file, and an older file keeps its bytes
        assert list(Path(tmp).iterdir()) == []
        path.write_bytes(b"older\n")
        with pytest.raises(ValueError, match="Out of range float"):
            write_jsonl(path, [{"ok": 1}, {"a": [value]}])
        assert list(Path(tmp).iterdir()) == [path]
        assert path.read_bytes() == b"older\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_a_non_finite_float(value):
    # as for write_jsonl: a document with one would be no JSON
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.json"
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: Out of range float"):
            write_json(path, {"ok": 1, "a": [value]})
        assert list(Path(tmp).iterdir()) == []


def test_write_jsonl_rejects_a_circular_document():
    looped = {"a": 1}
    looped["self"] = [looped]
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(ValueError, match="Circular reference"):
            write_jsonl(Path(tmp) / "x.jsonl", [{"ok": 1}, looped])


# --- the column readers against one object per line -------------------------


def _reference_text(name, value):
    """A string, or an int or finite float written as one; the rest is a
    DataError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise DataError(f"{name} must be a string or a number, got {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise DataError(f"{name} is not finite: {json.dumps(value)}")
    return str(value)


def _reference_str_dict(obj, key):
    d = obj[key]
    if type(d) is not dict:
        raise DataError(f"{key} must be a JSON object")
    return {k: _reference_text(f"{key} value {k!r}", v) for k, v in d.items()}


def reference_units(path):
    """A JSONL corpus as ``ingest`` read it into one ``Unit`` per line,
    before corpora were column tables."""
    def unit_from_obj(obj, index):
        uid = obj["id"] if "id" in obj else f"u{index + 1:06d}"
        text = str(obj["text"])
        groups = _reference_str_dict(obj, "groups") if "groups" in obj else {}
        meta = obj.get("meta", {})
        if type(meta) is not dict:
            raise DataError("meta must be a JSON object")
        return Unit(id=_reference_text("id", uid), text=text,
                    groups=groups, meta=meta,
                    gold=(_reference_str_dict(obj, "gold")
                          if obj.get("gold") is not None else None))

    units = reference_read_jsonl(path, unit_from_obj)
    if not units:
        raise DataError(f"input file {path} yielded an empty corpus")
    return list(Corpus(units))


def _mostly(valid, other):
    """``valid`` fifteen times in sixteen, else ``other``."""
    return st.integers(0, 15).flatmap(lambda k: valid if k else other)


_ids = _mostly(st.sampled_from(["a", "b", "a b"]) | st.integers(0, 3),
               st.none() | st.booleans() | st.floats(0, 2)
               | st.sampled_from([math.nan, -math.inf, ""]))
_texts = _mostly(st.sampled_from(["x", " padded ", "line\u2028sep", "next\x85line",
                                  "cr\rinside"]),
                 st.sampled_from(["", "  ", "\u2028"]) | st.integers(0, 9))
_groups = _mostly(st.dictionaries(st.sampled_from(["src", "school"]),
                                  st.sampled_from(["s1", ""]) | st.integers(-2, 2)
                                  | st.floats(allow_nan=False), max_size=2),
                  st.sampled_from([["s1"], "s1"]))
_meta = _mostly(st.dictionaries(st.sampled_from(["year", "title"]), _scalars, max_size=2),
                st.sampled_from([["year", 1990], "ab", None]))
_gold = _mostly(st.none() | st.dictionaries(st.just("topic"), st.sampled_from(["A", "B"])
                                            | st.integers(0, 1)),
                st.sampled_from([[], "A"]))


@st.composite
def _unit_objects(draw):
    """A unit object each of whose fields may be missing or malformed."""
    fields = {"id": _ids, "text": _texts, "groups": _groups, "meta": _meta, "gold": _gold}
    return {key: draw(values) for key, values in fields.items()
            if draw(_mostly(st.just(True), st.just(key != "text")))}


def _write_lines(path, docs, endings, last_newline):
    text = "".join(("" if doc is None else json.dumps(doc, ensure_ascii=False)) + end
                   for doc, end in zip(docs, endings))
    if not last_newline and text:
        text = text[: -len(endings[len(docs) - 1])]
    path.write_text(text, encoding="utf-8", newline="")


def _read_outcome(read, path):
    try:
        return "ok", read(path)
    except DataError as exc:
        return "error", str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(_mostly(_unit_objects(), st.none()), max_size=6),  # None: a blank line
       st.lists(_endings, min_size=6, max_size=6), st.booleans())
def test_ingest_reads_the_units_one_object_per_line_would(docs, endings, last_newline):
    # ids missing, repeated or not strings, numeric groups, absent or
    # malformed meta, groups and gold, empty texts, \r\n endings, blank
    # lines, a last line without a newline, and U+2028 and U+0085 inside a
    # line: every unit and every message are what one Unit per line gave
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        _write_lines(path, docs, endings, last_newline)
        assert (_read_outcome(lambda p: list(ingest(p, "jsonl")), path)
                == _read_outcome(reference_units, path))


_record_fields = ("unit_id", "variable", "raw", "label", "status", "attempts")


@st.composite
def _record_objects(draw):
    obj = {"unit_id": draw(st.sampled_from(["u1", "u2"])),
           "variable": draw(st.sampled_from(["topic", "stance"])),
           "raw": draw(st.text(max_size=3)),
           "label": draw(st.none() | st.sampled_from(["A", "B"])),
           "status": draw(st.sampled_from(["ok", "refused", "unparseable"])),
           "attempts": draw(st.integers(1, 3))}
    for key in _record_fields:
        if not draw(st.integers(0, 15)):
            del obj[key]
    if not draw(st.integers(0, 15)):
        obj["extra"] = 1
    return obj


@settings(max_examples=200, deadline=None)
@given(st.lists(_record_objects() | st.none(), max_size=5),
       st.lists(_endings, min_size=5, max_size=5), st.booleans())
def test_annotation_load_reads_the_records_one_object_per_line_would(
        docs, endings, last_newline):
    def reference(path):
        records = reference_read_jsonl(path, lambda d, _: AnnotationRecord(**d))
        columns = [[getattr(r, name) for r in records] for name in RECORD_FIELDS]
        return AnnotationSet(columns, {"source": str(path)}).records

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.jsonl"
        _write_lines(path, docs, endings, last_newline)
        assert (_read_outcome(lambda p: AnnotationSet.load(p).records, path)
                == _read_outcome(reference, path))
