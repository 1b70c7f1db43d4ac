"""Annotation of units through an instructable model or a deterministic mock.

A prompt template is rendered per unit (or batch of units), sent to a model
client, and the raw response is normalized against the coding scheme.
Transport errors are retried with exponential backoff; refusals are
recorded as such without retry. Every run carries a manifest (template,
model identity, decoding controls, seed) sufficient to replicate it, and
all raw traffic can be appended to a JSONL audit log.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import string
import time
from concurrent.futures import ThreadPoolExecutor
from collections import Counter
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

import numpy as np

from .boot import ErrorModel
from .corpus import STRIP_CHARS, Corpus, CodingScheme, Variable, approx_tokens, check_lengths
from .errors import ConfigError, DataError
from .jsonio import append_json_line, read_json, read_jsonl, write_json, write_jsonl

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

UNPARSEABLE = "Unparseable"


def run_timestamp() -> str:
    """Wall-clock timestamp, overridable via SOURCE_DATE_EPOCH for
    byte-reproducible runs."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(timezone.utc)
    return moment.isoformat()


@dataclass(frozen=True)
class PromptTemplate:
    """Instruction text with placeholders resolved per unit.

    Supported placeholders: {text}, always the unit's text, and any other
    key of the unit's metadata, such as {title}. A batched prompt fills only
    {text}, with the numbered texts of the batch. A prompt is filled from a
    unit's row of the corpus columns (:meth:`render_row`) or from the rows
    of a batch (:meth:`render_rows`). A fill that fails is a DataError
    naming the unit, or the batch's ids.
    """

    instruction: str
    variable: str

    def placeholders(self) -> set[str]:
        """Names of the placeholders; a malformed brace or a positional
        placeholder ({} or {0}) is a ConfigError."""
        try:
            names = {name for _, name, _, _ in
                     string.Formatter().parse(self.instruction) if name is not None}
        except ValueError as exc:
            raise ConfigError(f"template cannot be parsed: {exc}")
        if any(name == "" or name[0].isdigit() for name in names):
            raise ConfigError("template placeholders must be named, "
                              "like {text}; {} and {0} are not")
        return names

    def render_row(self, uid: str, text: str, meta: dict) -> str:
        """The prompt of the unit ``uid`` with this text and metadata."""
        return self._fill({**meta, "text": text}, uid)

    def render_rows(self, ids: Sequence[str], texts: Sequence[str]) -> str:
        """The batched prompt of the units ``ids`` with these texts."""
        numbered = "\n\n".join(f"{i}. {text}" for i, text in enumerate(texts, 1))
        return self._fill({"text": numbered}, list(ids))

    def _fill(self, values: dict, who) -> str:
        """The instruction filled from ``values``. ``who``, a unit's id or a
        list of a batch's ids, is written into the message only when the
        fill fails."""
        try:
            return self.instruction.format_map(values)
        except (KeyError, AttributeError, IndexError, ValueError) as exc:  # {a.b}, {a[1]}, {a:d}
            who = f"units {who}" if isinstance(who, list) else f"unit {who!r}"
            if isinstance(exc, KeyError):
                raise DataError(f"{who}: placeholder {exc.args[0]!r} cannot be resolved")
            raise DataError(f"{who}: template cannot be filled: {exc}")


@dataclass(frozen=True)
class DecodingControls:
    temperature: float = 0.0
    max_output_tokens: Optional[int] = None  # default: longest label
    label_bias: tuple[tuple[str, int], ...] = ()
    stop: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0 <= self.temperature < float("inf"):  # NaN too
            raise ConfigError("temperature must be finite and >= 0")
        if self.max_output_tokens is not None and self.max_output_tokens < 1:
            raise ConfigError("max_output_tokens must be >= 1")

    @classmethod
    def for_variable(cls, variable: Variable) -> "DecodingControls":
        """Classification defaults: temperature 0, output capped at the
        longest label, every level biased up with weight 100."""
        max_tokens = max(approx_tokens(l) for l in variable.labels)
        return cls(
            temperature=0.0,
            max_output_tokens=max_tokens,
            label_bias=tuple((l, 100) for l in variable.labels),
        )

    def to_dict(self) -> dict:
        return {
            "temperature": self.temperature,
            "max_output_tokens": self.max_output_tokens,
            "label_bias": [list(b) for b in self.label_bias],
            "stop": list(self.stop),
        }


@dataclass(frozen=True)
class ModelReply:
    kind: str  # "text" | "refusal" | "transport_error"
    content: str

    @classmethod
    def text(cls, content: str) -> "ModelReply":
        return cls("text", content)

    @classmethod
    def refusal(cls, reason: str) -> "ModelReply":
        return cls("refusal", reason)

    @classmethod
    def transport_error(cls, kind: str) -> "ModelReply":
        return cls("transport_error", kind)


class AuditLog:
    """Append-only JSONL log of raw requests and responses."""

    def __init__(self, path: Optional[Union[str, Path]]):
        self.path = Path(path) if path else None

    def record(self, entry: dict) -> None:
        if self.path is None:
            return
        append_json_line(self.path, {"ts": run_timestamp(), **entry})


class ChatCompletionClient:
    """Chat-completion-style HTTP endpoint.

    POSTs a JSON document with model name, message list, temperature, max
    output tokens and a string-keyed bias map; authenticates with a bearer
    token read from the environment variable named in the config.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        auth_env: str = "QUANTITIZE_API_TOKEN",
        timeout: float = 60.0,
        audit: Optional[AuditLog] = None,
        session: Optional[requests.Session] = None,
    ):
        if not timeout > 0:
            raise ConfigError(f"timeout must be positive, got {timeout}")
        # requests is imported here and in send, not at module level, so
        # that runs on the mock annotator never load it
        import requests

        token = os.environ.get(auth_env)
        if not token:
            raise ConfigError(
                f"auth environment variable {auth_env!r} is not set"
            )
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout = timeout
        self.audit = audit or AuditLog(None)
        self.session = session or requests.Session()
        self.session.headers["Authorization"] = f"Bearer {token}"
        self.identifier = f"{base_url}#{model}"

    def build_request(self, prompt: str, controls: DecodingControls) -> dict:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": controls.temperature,
        }
        if controls.max_output_tokens is not None:
            body["max_tokens"] = controls.max_output_tokens
        if controls.label_bias:
            body["logit_bias"] = {label: w for label, w in controls.label_bias}
        if controls.stop:
            body["stop"] = list(controls.stop)
        return body

    def send(
        self,
        prompt: str,
        controls: DecodingControls,
        unit_ids: Sequence[str] = (),
    ) -> ModelReply:
        import requests

        body = self.build_request(prompt, controls)
        try:
            resp = self.session.post(
                f"{self.base_url}/chat/completions", json=body, timeout=self.timeout
            )
        except requests.RequestException as exc:
            self.audit.record({"request": body, "error": str(exc)})
            return ModelReply.transport_error(type(exc).__name__)
        self.audit.record({"request": body, "status": resp.status_code,
                           "response": resp.text})
        if resp.status_code >= 500 or resp.status_code == 429:
            return ModelReply.transport_error(f"http_{resp.status_code}")
        if resp.status_code >= 400:
            raise ConfigError(
                f"endpoint rejected the request ({resp.status_code}): {resp.text[:500]}"
            )
        try:
            message = resp.json()["choices"][0]["message"]
        except (ValueError, LookupError, TypeError):  # TypeError: a body of another shape
            message = None
        if not isinstance(message, dict):
            return ModelReply.transport_error("malformed_response")
        if message.get("refusal"):
            return ModelReply.refusal(str(message["refusal"]))
        content = message.get("content")
        return ModelReply.text("" if content is None else str(content))


class MockModel:
    """Deterministic offline stand-in for a model endpoint.

    ``rules`` mode maps the first keyword found in the prompt to a label;
    ``gold_corruption`` mode emits each unit's gold label pushed through a
    confusion-style corruption matrix. Each label is drawn once, at
    construction, from a per-unit uniform hashed from (seed, unit id), so
    results do not depend on batching, scheduling or unit order. The matrix
    is checked and the labels drawn by ``boot.ErrorModel``, by the rule the
    bootstrap's label path redraws with.
    """

    def __init__(
        self,
        mode: str,
        rules: Optional[dict[str, str]] = None,
        labels: Optional[Sequence[str]] = None,
        matrix: Optional[np.ndarray] = None,
        gold: Optional[dict[str, str]] = None,
        seed: int = 0,
        refuse_units: Sequence[str] = (),
    ):
        if mode not in ("rules", "gold_corruption"):
            raise ConfigError(f"unknown mock mode {mode!r}")
        self.mode = mode
        self.rules = rules or {}
        self.refuse_units = set(refuse_units)
        self.identifier = f"mock-{mode}-seed{seed}"
        if mode == "gold_corruption":
            if labels is None or matrix is None or gold is None:
                raise ConfigError(
                    "gold_corruption needs labels, a corruption matrix and gold labels"
                )
            try:
                model = ErrorModel(tuple(labels), matrix)
            except DataError as exc:
                raise ConfigError(f"corruption matrix: {exc}") from None
            index = {label: j for j, label in enumerate(labels)}
            try:
                rows = np.array([index[label] for label in gold.values()], dtype=int)
            except KeyError:
                uid, label = next(item for item in gold.items() if item[1] not in index)
                raise DataError(f"unit {uid!r}: gold label {label!r} is not one "
                                f"of the labels {list(labels)}") from None
            # each unit's label, drawn once from its own uniform: the top 53
            # bits of bytes 8-15 of sha256(f"{seed}:{unit id}")
            words = b"".join(hashlib.sha256(f"{seed}:{uid}".encode()).digest()[8:16]
                             for uid in gold)
            uniforms = (np.frombuffer(words, ">u8") >> np.uint64(11)) * 2.0**-53
            picks = model.redraw(rows, uniforms)
            self._drawn = dict(zip(gold, (labels[j] for j in picks.tolist())))

    @classmethod
    def from_corpus(
        cls,
        corpus: Corpus,
        variable: Variable,
        matrix: np.ndarray,
        seed: int = 0,
        refuse_units: Sequence[str] = (),
    ) -> "MockModel":
        gold, name = {}, variable.name
        for uid, labels in zip(corpus.ids, corpus.gold):
            if labels is None or name not in labels:
                raise ConfigError(
                    f"gold_corruption mock requires gold labels; unit {uid!r} has none"
                )
            gold[uid] = labels[name]
        return cls(
            "gold_corruption",
            labels=variable.labels,
            matrix=matrix,
            gold=gold,
            seed=seed,
            refuse_units=refuse_units,
        )

    def send(
        self,
        prompt: str,
        controls: DecodingControls,
        unit_ids: Sequence[str] = (),
    ) -> ModelReply:
        if any(uid in self.refuse_units for uid in unit_ids):
            return ModelReply.refusal("mock refusal")
        if self.mode == "rules":
            lower = prompt.lower()
            answer = next((label for keyword, label in self.rules.items()
                           if keyword.lower() in lower), "")
            answers = [answer] * max(len(unit_ids), 1)
        elif unit_ids:
            answers = [self._drawn[uid] for uid in unit_ids]
        else:
            raise ConfigError("gold_corruption mock needs unit ids")
        if len(answers) == 1:
            return ModelReply.text(answers[0])
        return ModelReply.text("\n".join(f"{i}. {a}" for i, a in enumerate(answers, 1)))


# --- output normalization --------------------------------------------------


def normalize_output(raw: str, variable: Variable) -> str:
    """Map a raw model response onto a declared level.

    Trims whitespace and punctuation, case-folds, then tries an exact match
    and finally a unique case-folded prefix match; anything else is
    Unparseable.
    """
    if variable.kind not in ("categorical", "ordinal"):
        raise ConfigError(f"cannot normalize against {variable.kind} variable")
    cleaned = raw.strip(STRIP_CHARS).casefold()
    if not cleaned:
        return UNPARSEABLE
    folded = variable.folded_labels
    if cleaned in folded:
        return variable.labels[folded.index(cleaned)]
    prefix_hits = [label for label, fold in zip(variable.labels, folded)
                   if fold.startswith(cleaned)]
    return prefix_hits[0] if len(prefix_hits) == 1 else UNPARSEABLE


def extract_pairs(
    raw: str,
    stoplist: Sequence[str] = (),
    min_name_len: int = 2,
) -> tuple[set[frozenset[str]], int]:
    """Parse tab-separated name pairs from line-oriented output.

    Returns the set of unordered pairs plus a count of skipped malformed
    lines. Self-pairs, stoplisted names and too-short names are dropped.
    """
    stop = {s.casefold() for s in stoplist}
    pairs: set[frozenset[str]] = set()
    skipped = 0
    for line in raw.splitlines():
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            skipped += 1
            continue
        a = re.sub(r"\s+", " ", fields[0]).strip()
        b = re.sub(r"\s+", " ", fields[1]).strip()
        if not a or not b or a == b:
            continue
        if len(a) < min_name_len or len(b) < min_name_len:
            continue
        if a.casefold() in stop or b.casefold() in stop:
            continue
        pairs.add(frozenset((a, b)))
    return pairs, skipped


# --- annotation run --------------------------------------------------------


@dataclass(frozen=True)
class AnnotatePolicy:
    max_retries: int = 3
    backoff: float = 0.5  # seconds, doubled per retry
    batch_size: int = 1
    max_in_flight: int = 1

    def __post_init__(self):
        for key, floor in (("max_retries", 0), ("backoff", 0), ("batch_size", 1),
                           ("max_in_flight", 1)):
            if not getattr(self, key) >= floor:  # NaN too
                raise ConfigError(f"{key} must be >= {floor}")


@dataclass(frozen=True)
class AnnotationRecord:
    unit_id: str
    variable: str
    raw: str
    label: Optional[str]  # None unless ok
    status: str  # "ok" | "refused" | "unparseable" | "transport_error"
    attempts: int

    def to_dict(self) -> dict:
        return dict(vars(self))


RECORD_FIELDS = tuple(f.name for f in fields(AnnotationRecord))


class AnnotationSet:
    """The records of one annotation run with its manifest, given as one
    column per field of :data:`RECORD_FIELDS`: ``unit_ids``, ``variables``,
    ``raws``, ``labels``, ``statuses`` and ``attempts``. Columns of unequal
    length are a DataError; the columns are read, never changed. An
    :class:`AnnotationRecord` is built only when one is asked for: from
    :attr:`records` or by :meth:`record_for`."""

    def __init__(self, columns: Iterable[Sequence], manifest: dict):
        self._columns = tuple(columns)
        (self.unit_ids, self.variables, self.raws, self.labels, self.statuses,
         self.attempts) = self._columns
        check_lengths(unit_ids=self.unit_ids, variables=self.variables, raws=self.raws,
                      labels=self.labels, statuses=self.statuses, attempts=self.attempts)
        self.manifest = manifest
        # pairs are built only when some unit has more than one record
        if (len(set(self.unit_ids)) != len(self.unit_ids) and
                len(set(zip(self.unit_ids, self.variables))) != len(self.unit_ids)):
            raise DataError("duplicate (unit, variable) record")
        if not manifest:
            raise DataError("annotation set requires a manifest")

    def __len__(self) -> int:
        return len(self.unit_ids)

    @property
    def records(self) -> tuple[AnnotationRecord, ...]:
        return tuple(map(AnnotationRecord, *self._columns))

    def record_for(self, unit_id: str) -> AnnotationRecord:
        try:
            i = self.unit_ids.index(unit_id)
        except ValueError:
            raise DataError(f"no record for unit {unit_id!r}") from None
        return AnnotationRecord(*(column[i] for column in self._columns))

    def counts_by_status(self) -> dict[str, int]:
        return dict(Counter(self.statuses))

    def save(self, path: Union[str, Path], manifest_path: Optional[Union[str, Path]] = None) -> None:
        write_jsonl(path, (dict(zip(RECORD_FIELDS, row)) for row in zip(*self._columns)))
        if manifest_path is not None:
            write_json(manifest_path, self.manifest)

    @classmethod
    def load(cls, path: Union[str, Path], manifest_path: Optional[Union[str, Path]] = None) -> "AnnotationSet":
        columns = [[] for _ in RECORD_FIELDS]
        appends = list(zip([column.append for column in columns], RECORD_FIELDS))
        names = set(RECORD_FIELDS)

        def into_columns(obj, _):
            if obj.keys() != names:
                AnnotationRecord(**obj)  # a field missing or unknown: the TypeError names it
            for append, name in appends:
                append(obj[name])

        read_jsonl(path, into_columns)
        return cls(columns, {"source": str(path)} if manifest_path is None
                   else read_json(manifest_path))


_BATCH_LINE = re.compile(r"^\s*(\d+)[.):]\s*(.*)$")


def _parse_batch(raw: str, n: int) -> Optional[list[str]]:
    """Parse "1. <label>" lines; None when the count does not match."""
    answers: dict[int, str] = {}
    for line in raw.splitlines():
        m = _BATCH_LINE.match(line)
        if m:
            answers[int(m.group(1))] = m.group(2)
    if set(answers) != set(range(1, n + 1)):
        return None
    return [answers[i] for i in range(1, n + 1)]


def _call_with_retry(client, prompt, controls, unit_ids, policy, sleep=time.sleep):
    """Send one prompt, retrying transport errors with exponential backoff."""
    attempts = 0
    delay = policy.backoff
    while True:
        attempts += 1
        reply = client.send(prompt, controls, unit_ids=unit_ids)
        if reply.kind != "transport_error":
            return reply, attempts
        if attempts > policy.max_retries:
            return reply, attempts
        log.warning("transport error (%s), retry %d/%d", reply.content,
                    attempts, policy.max_retries)
        sleep(delay)
        delay *= 2


def annotate(
    corpus: Corpus,
    template: PromptTemplate,
    client,
    scheme: CodingScheme,
    policy: AnnotatePolicy = AnnotatePolicy(),
    controls: Optional[DecodingControls] = None,
    seed: int = 0,
    sleep=time.sleep,
) -> AnnotationSet:
    """Annotate every unit of the corpus for the template's variable.

    Batching packs numbered unit texts into one prompt and expects numbered
    answers; a count mismatch falls back to per-unit calls. Prompts are
    filled from the corpus columns ``ids``, ``texts`` and ``meta``, and each
    record is written into its unit's row of one list per field of
    :data:`RECORD_FIELDS`: no unit object and no record object is built,
    and the output does not depend on completion order.
    """
    variable = scheme.labelled(template.variable, "annotate labels")
    other = template.placeholders() - {"text"}
    if policy.batch_size > 1 and other:
        raise ConfigError("a batched prompt fills only {text}; the "
                          f"template also has {sorted(other)}")
    if controls is None:
        controls = DecodingControls.for_variable(variable)

    ids, texts, metas = corpus.ids, corpus.texts, corpus.meta
    n, size = len(ids), policy.batch_size
    raws, labels, statuses, attempts = [None] * n, [None] * n, [None] * n, [None] * n

    def put(row: int, kind: str, raw: str, tries: int) -> None:
        """Unit ``row``'s record of a reply of this kind and content."""
        raws[row], attempts[row] = raw, tries
        if kind == "refusal":
            statuses[row] = "refused"
        elif kind == "transport_error":  # retries exhausted: no answer came
            statuses[row] = "transport_error"
        elif (label := normalize_output(raw, variable)) == UNPARSEABLE:
            statuses[row] = "unparseable"
        else:
            labels[row], statuses[row] = label, "ok"

    def run_single(row: int) -> None:
        uid = ids[row]
        prompt = template.render_row(uid, texts[row], metas[row])
        reply, tries = _call_with_retry(client, prompt, controls, [uid], policy,
                                        sleep=sleep)
        put(row, reply.kind, reply.content, tries)

    def run_batch(start: int) -> None:
        stop = min(start + size, n)
        if stop - start == 1:
            return run_single(start)
        batch = ids[start:stop]
        prompt = template.render_rows(batch, texts[start:stop])
        reply, tries = _call_with_retry(client, prompt, controls, batch, policy,
                                        sleep=sleep)
        if reply.kind == "text":
            answers = _parse_batch(reply.content, stop - start)
            if answers is not None:
                for row, answer in enumerate(answers, start):
                    put(row, "text", answer, tries)
                return
            log.warning("batch answer count mismatch; retrying units singly")
        for row in range(start, stop):
            run_single(row)

    starts = range(0, n, size)
    if policy.max_in_flight > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=policy.max_in_flight) as pool:
            for _ in pool.map(run_batch, starts):  # raises what a batch raised
                pass
    else:
        for start in starts:
            run_batch(start)

    manifest = {
        "template": template.instruction,
        "variable": template.variable,
        "model": getattr(client, "identifier", type(client).__name__),
        "decoding": controls.to_dict(),
        "policy": asdict(policy),
        "seed": seed,
        "scheme_version": scheme.version,
        "n_units": n,
        "timestamp": run_timestamp(),
    }
    return AnnotationSet((list(ids), [variable.name] * n, raws, labels, statuses, attempts),
                         manifest)
