"""Every JSON document and JSONL file the program writes, and every one it reads.

Documents are indented by two spaces with sorted keys and end in a newline;
JSONL files hold one sorted-key object per line with non-ASCII text kept.
Reruns are compared byte for byte, so this layout lives here only; the
append-only audit log of raw model traffic keeps its own record format.
"""

from __future__ import annotations

import json
import json.decoder
import json.scanner
from pathlib import Path
from typing import Iterable, Iterator, Union

from .errors import DataError


def format_json(doc) -> str:
    """A document as text, without the final newline."""
    return json.dumps(doc, indent=2, sort_keys=True)


def write_json(path: Union[str, Path], doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_json(doc) + "\n")


def write_jsonl(path: Union[str, Path], docs: Iterable) -> None:
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode(d) + "\n" for d in docs)


def read_lines(path: Union[str, Path], error=DataError, newline=None) -> Iterator[str]:
    """The lines of the UTF-8 text file ``path``, read as they are consumed
    (``newline`` as for :func:`open`); a file that cannot be read is ``error``."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield from fh
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise error(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from None


def read_text(path: Union[str, Path], error=DataError) -> str:
    return "".join(read_lines(path, error))


def read_json(path: Union[str, Path]):
    try:
        return json.loads(read_text(path))
    except ValueError as exc:
        raise DataError(f"{path} is not JSON: {exc}") from None


def read_jsonl(path: Union[str, Path], build) -> list:
    """``build(obj, i)`` for the ``i``-th JSON object in ``path``, one per
    non-blank line. A line that is not a JSON object, or whose object
    ``build`` rejects, is a :class:`DataError` naming the file and line.

    A line is decoded by one scanner with ``json.loads``'s settings, made
    once per file; only a line that it cannot take whole, from its first
    character to JSON whitespace at the end, goes through ``json.loads``,
    so the objects accepted and every message are ``json.loads``'s."""
    scan = json.scanner.make_scanner(json.JSONDecoder())
    space = json.decoder.WHITESPACE.match
    out = []
    for line_no, line in enumerate(read_lines(path), 1):
        try:
            if not line.isspace():
                try:
                    obj, end = scan(line, 0)
                    whole = space(line, end).end() == len(line)
                except (StopIteration, ValueError):
                    whole = False
                if not whole:
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
