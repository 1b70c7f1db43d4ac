"""Every JSON and YAML input is parsed by one reader per format:
``jsonio.read_json`` and ``jsonio.read_jsonl`` for JSON and JSONL,
``corpus.load_yaml`` for YAML. The check walks the package's syntax trees,
so a parser call anywhere else fails it. ``read_jsonl`` decodes its lines
with a reused scanner, so it is also checked against ``json.loads``."""

import ast
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import quantitize
from quantitize import DataError
from quantitize.jsonio import read_jsonl, read_lines

PARSERS = {"json.load", "json.loads", "json.JSONDecoder", "json.decoder.JSONDecoder",
           "yaml.load", "yaml.safe_load", "yaml.full_load", "yaml.unsafe_load"}
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
                             ("jsonio", "read_json", "json.loads"),
                             ("jsonio", "read_jsonl", "json.JSONDecoder"),
                             ("jsonio", "read_jsonl", "json.loads"),
                             ("jsonio", "read_jsonl", "json.scanner.make_scanner")]


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
    try:
        return "ok", repr(read(path, lambda obj, i: (i, obj)))  # repr: NaN == NaN
    except DataError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_lines, _endings), max_size=5), st.booleans())
def test_read_jsonl_decodes_exactly_as_json_loads(lines, last_newline):
    text = "".join(line + end for line, end in lines)
    if not last_newline and lines:
        text = text[: -len(lines[-1][1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(read_jsonl, path) == _outcome(reference_read_jsonl, path)
