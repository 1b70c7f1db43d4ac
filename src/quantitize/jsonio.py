"""The on-disk JSON layout of every result file, manifest and JSONL record.

Documents are indented by two spaces with sorted keys and end in a newline;
JSONL files hold one sorted-key object per line with non-ASCII text kept.
Reruns are compared byte for byte, so this layout lives here only; the
append-only audit log of raw model traffic keeps its own record format.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union


def format_json(doc) -> str:
    """A document as text, without the final newline."""
    return json.dumps(doc, indent=2, sort_keys=True)


def write_json(path: Union[str, Path], doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_json(doc) + "\n")


def write_jsonl(path: Union[str, Path], docs: Iterable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(d, ensure_ascii=False, sort_keys=True) + "\n"
                      for d in docs)
