"""Every JSON and YAML input is parsed by one reader per format:
``jsonio.read_json`` and ``jsonio.read_jsonl`` for JSON and JSONL,
``corpus.load_yaml`` for YAML. The check walks the package's syntax trees,
so a parser call anywhere else fails it."""

import ast
from pathlib import Path

import quantitize

PARSERS = {"json.load", "json.loads", "yaml.load", "yaml.safe_load",
           "yaml.full_load", "yaml.unsafe_load"}


class ParserCalls(ast.NodeVisitor):
    """(module, enclosing function, parser) for each parser call, and each
    ``from json import ...`` or ``from yaml import ...`` that could hide one."""

    def __init__(self, module):
        self.module, self.functions, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f"{f.value.id}.{f.attr}" in PARSERS):
            where = self.functions[-1] if self.functions else None
            self.found.append((self.module, where, f"{f.value.id}.{f.attr}"))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module in ("json", "yaml"):
            self.found.append((self.module, "import", node.module))


def test_parsers_are_called_only_by_the_readers():
    found = []
    for path in sorted(Path(quantitize.__file__).parent.glob("*.py")):
        calls = ParserCalls(path.stem)
        calls.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += calls.found
    assert sorted(found) == [("corpus", "load_yaml", "yaml.safe_load"),
                             ("jsonio", "read_json", "json.loads"),
                             ("jsonio", "read_jsonl", "json.loads")]
