"""Every file the package opens: the JSON, JSONL, CSV and text files it
writes and reads, and the audit log it appends to. Every writer makes the
directory it writes into.

Documents are indented by two spaces with sorted keys and end in a newline;
JSONL files hold one sorted-key object per line with non-ASCII text kept.
Reruns are compared byte for byte, so this layout lives here only; the
append-only audit log of raw model traffic keeps its own record format.
"""

from __future__ import annotations

import csv
import json
import json.encoder
import json.scanner
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from .errors import DataError

JSON_SPACE = " \t\n\r"  # the whitespace JSON allows between tokens


def format_json(doc, allow_nan: bool = True) -> str:
    """A document as text, without the final newline."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=allow_nan)


def _create(path: Union[str, Path], mode: str = "w", newline=None):
    """``path`` opened as UTF-8 text for writing, its directory made first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, mode, encoding="utf-8", newline=newline)


def write_text(path: Union[str, Path], text: str) -> None:
    with _create(path) as fh:
        fh.write(text)


def write_json(path: Union[str, Path], doc) -> None:
    """``doc`` as :func:`format_json` writes it; a NaN or infinity, which
    JSON lacks, is a DataError naming ``path``, and nothing is written."""
    try:
        text = format_json(doc, allow_nan=False)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    write_text(path, text + "\n")


def write_jsonl(path: Union[str, Path], docs: Iterable) -> None:
    """``docs``, one per line. One C encoder serves the whole file, made
    with the arguments that ``JSONEncoder(ensure_ascii=False,
    sort_keys=True, allow_nan=False).encode`` makes a new one with for each
    document, so every line keeps its bytes; a NaN or infinite float, which
    would make the line no JSON, and a circular document (its markers dict)
    are each a ``ValueError``. The lines go to a temporary file beside
    ``path`` that replaces it after the last line, so a refused document
    leaves neither a partial file nor a truncated older one."""
    encoder = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False)
    encode = json.encoder.c_make_encoder(
        {}, encoder.default, json.encoder.encode_basestring, None,
        encoder.key_separator, encoder.item_separator, True, False, False)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with _create(tmp) as fh:
            fh.writelines("".join(encode(d, 0)) + "\n" for d in docs)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def append_json_line(path: Union[str, Path], doc: dict) -> None:
    """``doc`` as one more log line, keys in their order, non-ASCII kept."""
    with _create(path, "a") as fh:
        fh.write(json.dumps(doc, ensure_ascii=False) + "\n")


def write_csv(path: Union[str, Path], header: Sequence, rows: Iterable[Sequence]) -> None:
    with _create(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_lines(path: Union[str, Path], error=DataError, newline=None) -> Iterator[str]:
    """The lines of the UTF-8 text file ``path``, less a leading byte-order
    mark, read as they are consumed (``newline`` as for :func:`open`); a
    file that cannot be read is ``error``."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
            yield from fh
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise error(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from None


def read_csv_table(path: Union[str, Path]
                   ) -> tuple[list[str], Iterator[tuple[int, dict[str, str]]]]:
    """The header of the CSV file ``path`` and its non-blank rows, read as
    they are consumed: each row's line number and its cells keyed by the
    header. A header that repeats a column, or a row with more or fewer
    cells than the header has columns, is a :class:`DataError` naming the
    file and line."""
    reader = csv.reader(read_lines(path, newline=""))
    header = next(reader, [])
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise DataError(f"{path}, line 1: the header repeats columns {repeated}")

    def rows():
        for cells in filter(None, reader):  # a blank line is an empty list
            if len(cells) != len(header):
                lacking = header[len(cells):]
                raise DataError(f"{path}, line {reader.line_num}: the row has "
                                f"{len(cells)} cells for the header's {len(header)} "
                                "columns" + (f", none for {lacking}" if lacking else ""))
            yield reader.line_num, dict(zip(header, cells))

    return header, rows()


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
    so the objects accepted and every message are ``json.loads``'s. Lines
    are read as they are decoded, never the whole file at once."""
    scan = json.scanner.make_scanner(json.JSONDecoder())
    out = []
    append = out.append
    for line_no, line in enumerate(read_lines(path), 1):
        try:
            try:
                obj, end = scan(line, 0)
            except (StopIteration, ValueError):
                end = None
            if end is None or line[end:].strip(JSON_SPACE):  # not one whole value
                if line.isspace():
                    continue
                obj = json.loads(line)
            if not isinstance(obj, dict):
                raise DataError(f"not a JSON object: {line.strip()[:40]}")
            append(build(obj, len(out)))
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}, line {line_no}: not JSON: {exc.msg}") from None
        except KeyError as exc:  # a missing field
            raise DataError(f"{path}, line {line_no}: lacks field {exc}") from None
        except (ValueError, TypeError, AttributeError, DataError) as exc:
            raise DataError(f"{path}, line {line_no}: {exc}") from None
    return out
