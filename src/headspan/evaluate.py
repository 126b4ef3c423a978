"""Bracket and attachment scoring with standard punctuation handling.

Bracket scores follow the usual constituency evaluation conventions:
preterminals are not brackets, punctuation tokens (by gold part of speech)
are deleted with span indices remapped around them, matching is by multiset
of (label, start, end), and recall, precision, and F1 are micro-averaged
over the corpus. Encoding artifacts (empty and split categories, head
prefixes) are stripped defensively so encoded trees can be scored too.

Attachment scores skip tokens whose gold part of speech is punctuation.
The labeled score is reported only when both sides carry dependency labels
and can never exceed the unlabeled score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import AlignmentError
from .trees import (
    EMPTY,
    HEAD_PREFIX,
    SPLIT,
    ConstituentTree,
    DependencyTree,
)

DEFAULT_PUNCT = frozenset({"``", "''", ":", ",", "."})


def _pct(num: int, den: int) -> float:
    return 100.0 * num / den if den else 0.0


@dataclass
class EvalReport:
    """Corpus-level scores; bracket and dependency parts fill separately."""

    sentences: int = 0
    has_brackets: bool = False
    bracket_match: int = 0
    bracket_gold: int = 0
    bracket_pred: int = 0
    bracket_exact: int = 0
    has_deps: bool = False
    dep_total: int = 0
    uas_correct: int = 0
    las_correct: int = 0
    has_labels: bool = False

    @property
    def recall(self) -> float:
        return _pct(self.bracket_match, self.bracket_gold)

    @property
    def precision(self) -> float:
        return _pct(self.bracket_match, self.bracket_pred)

    @property
    def f1(self) -> float:
        r, p = self.recall, self.precision
        return 2.0 * r * p / (r + p) if r + p else 0.0

    @property
    def exact_rate(self) -> float:
        return _pct(self.bracket_exact, self.sentences)

    @property
    def uas(self) -> float:
        return _pct(self.uas_correct, self.dep_total)

    @property
    def las(self) -> float | None:
        if not self.has_labels:
            return None
        return _pct(self.las_correct, self.dep_total)

    def merge(self, other: "EvalReport") -> "EvalReport":
        """Combine a bracket-only and a dependency-only report."""
        out = EvalReport(sentences=max(self.sentences, other.sentences))
        for src in (self, other):
            if src.has_brackets:
                out.has_brackets = True
                out.bracket_match = src.bracket_match
                out.bracket_gold = src.bracket_gold
                out.bracket_pred = src.bracket_pred
                out.bracket_exact = src.bracket_exact
            if src.has_deps:
                out.has_deps = True
                out.dep_total = src.dep_total
                out.uas_correct = src.uas_correct
                out.las_correct = src.las_correct
                out.has_labels = src.has_labels
        return out

    def _rows(self) -> list[tuple[str, str]]:
        """(name, value) of every score the report holds, in print order."""
        rows = [("sentences", f"{self.sentences}")]
        if self.has_brackets:
            rows += [
                ("bracket recall", f"{self.recall:.2f}"),
                ("bracket precision", f"{self.precision:.2f}"),
                ("bracket F1", f"{self.f1:.2f}"),
                ("exact match", f"{self.exact_rate:.2f}"),
            ]
        if self.has_deps:
            rows.append(("UAS", f"{self.uas:.2f}"))
            if self.has_labels:
                rows.append(("LAS", f"{self.las:.2f}"))
        return rows

    def format_text(self) -> str:
        rows = self._rows()
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)

    def format_keyvalues(self) -> str:
        """``name=value`` lines, each name lowercased with ``_`` for its
        spaces."""
        return "\n".join(f"{name.lower().replace(' ', '_')}={val}"
                         for name, val in self._rows())


def _kept_positions(tree: ConstituentTree,
                    punct: frozenset[str]) -> list[int]:
    """Cumulative count of non-punctuation tokens up to each position."""
    counts = [0] * (len(tree.tokens) + 1)
    for tok in tree.tokens:
        counts[tok.index] = counts[tok.index - 1] + (
            0 if tok.pos in punct else 1)
    return counts


def _bracket_multiset(tree: ConstituentTree, kept: list[int]) -> Counter:
    out: Counter = Counter()
    for node in tree.iter_nodes():
        if node.is_preterminal:
            continue
        label = node.label
        if label.startswith(HEAD_PREFIX):
            label = label[len(HEAD_PREFIX):]
        if label in (EMPTY, SPLIT) or not label:
            continue
        inside = kept[node.end] - kept[node.start - 1]
        if inside == 0:
            continue
        out[(label, kept[node.start - 1] + 1, kept[node.end])] += 1
    return out


def bracket_f1(gold: Sequence[ConstituentTree],
               pred: Sequence[ConstituentTree],
               punct: frozenset[str] = DEFAULT_PUNCT) -> EvalReport:
    """Micro-averaged labeled bracket scores over aligned corpora.

    Punctuation membership is decided by the gold part of speech and the
    same deletions apply to both trees of a pair.
    """
    if len(gold) != len(pred):
        raise AlignmentError(
            f"corpus size mismatch: {len(gold)} gold vs {len(pred)} predicted")
    report = EvalReport(sentences=len(gold), has_brackets=True)
    for ordinal, (g, p) in enumerate(zip(gold, pred), start=1):
        if len(g.tokens) != len(p.tokens):
            raise AlignmentError(
                f"sentence {ordinal}: {len(g.tokens)} gold tokens vs "
                f"{len(p.tokens)} predicted")
        kept = _kept_positions(g, punct)
        gc = _bracket_multiset(g, kept)
        pc = _bracket_multiset(p, kept)
        report.bracket_gold += sum(gc.values())
        report.bracket_pred += sum(pc.values())
        report.bracket_match += sum((gc & pc).values())
        if gc == pc:
            report.bracket_exact += 1
    return report


def attachment_scores(gold: Sequence[DependencyTree],
                      pred: Sequence[DependencyTree],
                      punct: frozenset[str] = DEFAULT_PUNCT) -> EvalReport:
    """Unlabeled and labeled attachment over aligned corpora.

    Tokens whose gold part of speech is punctuation are excluded. The
    labeled score appears only when every sentence on both sides carries
    labels.
    """
    if len(gold) != len(pred):
        raise AlignmentError(
            f"corpus size mismatch: {len(gold)} gold vs {len(pred)} predicted")
    report = EvalReport(sentences=len(gold), has_deps=True)
    report.has_labels = bool(gold) and all(
        g.labels is not None and p.labels is not None
        for g, p in zip(gold, pred))
    for ordinal, (g, p) in enumerate(zip(gold, pred), start=1):
        if len(g.tokens) != len(p.tokens):
            raise AlignmentError(
                f"sentence {ordinal}: {len(g.tokens)} gold tokens vs "
                f"{len(p.tokens)} predicted")
        for tok in g.tokens:
            if tok.pos in punct:
                continue
            i = tok.index
            report.dep_total += 1
            if p.heads[i] == g.heads[i]:
                report.uas_correct += 1
                if (report.has_labels
                        and g.labels[i] is not None
                        and g.labels[i] == p.labels[i]):
                    report.las_correct += 1
    return report
