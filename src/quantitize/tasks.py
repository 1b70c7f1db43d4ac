"""Scoring recipes for the case-study tasks.

Word-meaning relatedness judgments on the 4-point scale, aggregate change
scores per word, translation-pair edit distance, majority labeling of
segmented documents, and open-ended answer matching against accepted sets.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from .agreement import spearman_rho
from .errors import DataError
from .jsonio import read_csv_table

# 4-point relatedness scale: numeric ratings and their verbal labels
RATING_LABELS = {1: "Distinct", 2: "Linked", 3: "Related", 4: "Same"}
LABEL_RATINGS = {v.lower(): k for k, v in RATING_LABELS.items()}

EDIT_CLASSES = ("Close", "Addition", "Deletion", "Substitution")


@dataclass(frozen=True)
class PairJudgment:
    word: str
    rating: int  # 1 unrelated .. 4 identical meaning

    def __post_init__(self):
        if self.rating not in (1, 2, 3, 4):
            raise DataError(f"rating must be 1..4, got {self.rating!r}")

    @classmethod
    def from_label(cls, word: str, label: str) -> "PairJudgment":
        key = label.strip().lower()
        if key not in LABEL_RATINGS:
            raise DataError(f"unknown relatedness label {label!r}")
        return cls(word, LABEL_RATINGS[key])


@dataclass(frozen=True)
class ChangeScore:
    word: str
    graded: float  # mean dissimilarity in [0, 1]
    binary: bool  # sense emerged/disappeared per the unrelated-count rule
    n_judgments: int


def score_semantic_change(
    judgments: Mapping[str, Sequence[PairJudgment]], threshold: int = 2
) -> dict[str, ChangeScore]:
    """Aggregate pair judgments into per-word change scores.

    graded = mean(4 - rating) / 3, so all-identical gives 0 and
    all-unrelated gives 1. binary flags words with at least ``threshold``
    rating-1 (unrelated) judgments.
    """
    out = {}
    for word, js in judgments.items():
        js = list(js)
        if not js:
            raise DataError(f"word {word!r} has no judgments")
        n_unrelated = sum(j.rating == 1 for j in js)
        graded = sum(4 - j.rating for j in js) / (3 * len(js))
        out[word] = ChangeScore(
            word=word,
            graded=graded,
            binary=n_unrelated >= threshold,
            n_judgments=len(js),
        )
    return out


def rank_eval(scores: Mapping[str, float], gold: Mapping[str, float]) -> float:
    """Rank correlation of predicted vs gold graded scores."""
    if set(scores) != set(gold):
        raise DataError("score and gold word sets differ")
    words = sorted(scores)
    return spearman_rho([scores[w] for w in words], [gold[w] for w in words])


def load_gold_scores(path: Union[str, Path]) -> dict[str, float]:
    """A CSV table with the header ``word,score``: each word's graded score.
    A score that is not a finite number, or a repeated word, is a DataError
    naming its line."""
    header, rows = read_csv_table(path)
    if header != ["word", "score"]:
        raise DataError(f"{path}, line 1: the header must be word,score, got {header}")
    out = {}
    for line, row in rows:
        try:
            if row["word"] in out:
                raise ValueError(f"word {row['word']!r} repeats")
            out[row["word"]] = float(row["score"])
            if not math.isfinite(out[row["word"]]):
                raise ValueError(f"score {row['score']!r} is not a finite number")
        except ValueError as exc:
            raise DataError(f"{path}, line {line}: {exc}") from None
    if not out:
        raise DataError(f"no scores found in {path}")
    return out


def semantic_edit_distance(pair_classes: Sequence[str]) -> dict:
    """Count pair classes; distance is the number of non-Close pairs."""
    if not pair_classes:
        raise DataError("need at least one classified pair")
    counts = {c: 0 for c in EDIT_CLASSES}
    for c in pair_classes:
        if c not in counts:
            raise DataError(f"unknown pair class {c!r}")
        counts[c] += 1
    return {"counts": counts, "distance": len(pair_classes) - counts["Close"]}


def majority_label(
    segment_labels: Sequence[str], level_order: Sequence[str]
) -> tuple[str, bool]:
    """Most frequent label across segments.

    Ties break toward the earliest label in ``level_order``; the second
    return value flags that a tie occurred.
    """
    if not segment_labels:
        raise DataError("need at least one segment label")
    counts: dict[str, int] = {}
    for l in segment_labels:
        counts[l] = counts.get(l, 0) + 1
    best = max(counts.values())
    tied = [l for l, c in counts.items() if c == best]
    if len(tied) == 1:
        return tied[0], False
    order = {l: i for i, l in enumerate(level_order)}
    try:
        winner = min(tied, key=lambda l: order[l])
    except KeyError as exc:
        raise DataError(f"label {exc.args[0]!r} not in level order")
    return winner, True


_PUNCT = str.maketrans("", "", string.punctuation + "‘’“”")


def open_match(raw: str, accepted: Iterable[str]) -> bool:
    """Exact match of a free-form answer against an accepted synonym set.

    Only the first line counts (prompts demand single-word answers);
    comparison is case-folded with punctuation stripped and internal
    whitespace collapsed.
    """
    accepted = set(accepted)
    if not accepted:
        raise DataError("accepted set must be non-empty")
    first = raw.strip().splitlines()[0] if raw.strip() else ""
    answer = re.sub(r"\s+", " ", first.translate(_PUNCT)).strip().casefold()
    normalized = {
        re.sub(r"\s+", " ", a.translate(_PUNCT)).strip().casefold() for a in accepted
    }
    return answer in normalized
