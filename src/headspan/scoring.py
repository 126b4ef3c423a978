"""Score tables over spans, arcs, and roots, plus the text score format.

A :class:`ScoreTable` holds dense per-sentence scores:

* ``span[i, j, c]``: span (i, j) labeled with category id ``c``,
* ``arc[d, h]``: token ``d`` depends on token ``h``,
* ``root[h]``: token ``h`` is the sentence root.

Indices are 1-based (row and column 0 unused). Category ids come from a
:class:`CategoryVocab` with two reserved entries: the empty category at id 0
and the head-split category at id 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import division
from .errors import ScoreFileError
from .fuse import project_dependencies
from .trees import EMPTY, SPLIT, ConstituentTree, HpsgTree

log = logging.getLogger(__name__)


class CategoryVocab:
    """Stable mapping between category strings and integer ids.

    Ids 0 and 1 are reserved for the empty and split categories. Extra
    categories are stored in the order given; :meth:`from_trees` sorts them
    so corpora produce the same vocabulary regardless of sentence order.
    """

    def __init__(self, categories: Iterable[str] = ()):
        self._cats = [EMPTY, SPLIT]
        self._ids = {EMPTY: 0, SPLIT: 1}
        for cat in categories:
            self.add(cat)

    def add(self, category: str) -> int:
        got = self._ids.get(category)
        if got is None:
            got = len(self._cats)
            self._cats.append(category)
            self._ids[category] = got
        return got

    def index(self, category: str) -> int:
        try:
            return self._ids[category]
        except KeyError:
            raise KeyError(f"unknown category {category!r}") from None

    def get(self, category: str) -> int | None:
        return self._ids.get(category)

    def category(self, idx: int) -> str:
        return self._cats[idx]

    def __contains__(self, category: str) -> bool:
        return category in self._ids

    def __len__(self) -> int:
        return len(self._cats)

    def __iter__(self) -> Iterator[str]:
        return iter(self._cats)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CategoryVocab) and self._cats == other._cats

    @classmethod
    def from_trees(cls, trees: Iterable[HpsgTree],
                   division_labels: bool = False) -> "CategoryVocab":
        """Vocabulary of every span label the encoding of these trees uses.

        With ``division_labels`` the ``H_``-prefixed variants are collected
        (for a parser scoring division trees directly); otherwise labels are
        the bare atoms of the binarized form.
        """
        seen: set[str] = set()
        for tree in trees:
            seen.update(lab for _, _, lab in tree_spans(tree, division_labels))
        seen.discard(EMPTY)
        seen.discard(SPLIT)
        return cls(sorted(seen))


def labeled_spans(node) -> list[tuple[int, int, str]]:
    """(start, end, label) of every non-preterminal node under ``node``."""
    return [(nd.start, nd.end, nd.label) for nd in node.iter_nodes()
            if not nd.is_preterminal]


def tree_spans(tree: HpsgTree, division_labels: bool = False
               ) -> list[tuple[int, int, str]]:
    """Labeled spans of the tree's encoding, empty categories included.

    The encoding is the division one with ``division_labels``, else the bare
    head-outward binarization.
    """
    if division_labels:
        return labeled_spans(division.to_division(tree).root)
    return labeled_spans(division.binarize_head_outward(tree))


def tree_arcs(tree: HpsgTree) -> tuple[list[tuple[int, int]], int]:
    """Projected (child, head) arcs in ascending child order, and the root."""
    heads = project_dependencies(tree).heads
    arcs = []
    root = 0
    for child in range(1, len(tree) + 1):
        if heads[child] == 0:
            root = child
        else:
            arcs.append((child, heads[child]))
    return arcs, root


def tree_parts(tree: HpsgTree, division_labels: bool = False
               ) -> tuple[list[tuple[int, int, str]], list[tuple[int, int]],
                          int]:
    """Spans, arcs and root of an analysis: every part a table scores."""
    return (tree_spans(tree, division_labels), *tree_arcs(tree))


@dataclass
class ScoreTable:
    """Dense span, arc, and root scores for one sentence of length ``n``."""

    vocab: CategoryVocab
    n: int
    span: np.ndarray
    arc: np.ndarray
    root: np.ndarray

    @classmethod
    def zeros(cls, n: int, vocab: CategoryVocab) -> "ScoreTable":
        v = len(vocab)
        return cls(vocab=vocab, n=n,
                   span=np.zeros((n + 1, n + 1, v)),
                   arc=np.zeros((n + 1, n + 1)),
                   root=np.zeros(n + 1))

    def copy(self) -> "ScoreTable":
        return ScoreTable(vocab=self.vocab, n=self.n, span=self.span.copy(),
                          arc=self.arc.copy(), root=self.root.copy())

    def check_finite(self) -> None:
        for name, arr in (("span", self.span), ("arc", self.arc),
                          ("root", self.root)):
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite values in {name} scores")


def oracle_scores(gold: HpsgTree, vocab: CategoryVocab,
                  division_labels: bool = False) -> ScoreTable:
    """Score table that awards 1.0 to every part of the gold analysis.

    Every span of the binarized gold tree (including empty-category nodes)
    gets 1.0 under its gold label, every gold dependency arc gets 1.0, and
    the gold root gets 1.0. All other entries stay at 0.
    """
    table = ScoreTable.zeros(len(gold), vocab)
    spans, arcs, root = tree_parts(gold, division_labels)
    for i, j, label in spans:
        table.span[i, j, vocab.index(label)] = 1.0
    for child, head in arcs:
        table.arc[child, head] = 1.0
    table.root[root] = 1.0
    return table


def tree_score(tree: HpsgTree | ConstituentTree, table: ScoreTable,
               lam: float) -> float:
    """Score of a fixed analysis under a table with interpolation ``lam``.

    Head-annotated trees are scored exactly as the joint decoder sees them:
    the span part sums over every node of the binarized encoding, the
    dependency part over the projected arcs plus the root. A plain
    constituent tree (a division encoding) has only the span part, still
    scaled by ``lam``.
    """
    if isinstance(tree, HpsgTree):
        spans, arcs, root = tree_parts(tree)
        dep_sum = sum(table.arc[c, h] for c, h in arcs) + table.root[root]
    else:
        spans, dep_sum = labeled_spans(tree.root), 0.0
    span_sum = sum(table.span[i, j, table.vocab.index(label)]
                   for i, j, label in spans)
    return lam * span_sum + (1.0 - lam) * dep_sum


def write_scores(tables: Sequence[ScoreTable], stream: IO[str]) -> None:
    """Write tables in the line-oriented text score format.

    Each sentence starts with ``#sent <ordinal> <length>``, followed by
    nonzero entries: ``SPAN i j category score``, ``ARC dependent head
    score``, ``ROOT head score``. Floats are written with full round-trip
    precision.
    """
    for ordinal, table in enumerate(tables, start=1):
        stream.write(f"#sent {ordinal} {table.n}\n")
        n = table.n
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                for cid in np.flatnonzero(table.span[i, j]):
                    cat = table.vocab.category(int(cid))
                    stream.write(
                        f"SPAN {i} {j} {cat} "
                        f"{float(table.span[i, j, cid])!r}\n")
        for child in range(1, n + 1):
            for head in range(1, n + 1):
                if head != child and table.arc[child, head]:
                    stream.write(
                        f"ARC {child} {head} "
                        f"{float(table.arc[child, head])!r}\n")
        for head in range(1, n + 1):
            if table.root[head]:
                stream.write(
                    f"ROOT {head} {float(table.root[head])!r}\n")


def read_scores(stream: IO[str] | str,
                vocab: CategoryVocab | None = None) -> list[ScoreTable]:
    """Parse the text score format into tables.

    Without a vocabulary, one is built from the categories in the file.
    With one, entries naming unknown categories are skipped and counted in
    a single warning, so a fixed-vocabulary parser can read wider files.
    """
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream.read().splitlines()

    records: list[tuple[int, int, list[tuple[int, list[str]]]]] = []
    current: list[tuple[int, list[str]]] | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        fields = line.split()
        if fields[0] == "#sent":
            if len(fields) != 3:
                raise ScoreFileError("malformed #sent header", line=lineno)
            try:
                ordinal, n = int(fields[1]), int(fields[2])
            except ValueError:
                raise ScoreFileError("malformed #sent header",
                                     line=lineno) from None
            if n < 1:
                raise ScoreFileError("sentence length must be positive",
                                     line=lineno)
            current = []
            records.append((ordinal, n, current))
            continue
        if current is None:
            raise ScoreFileError("score entry before any #sent header",
                                 line=lineno)
        current.append((lineno, fields))

    if vocab is None:
        cats: set[str] = set()
        for _, _, entries in records:
            for _, fields in entries:
                if fields[0] == "SPAN" and len(fields) == 5:
                    cats.add(fields[3])
        cats.discard(EMPTY)
        cats.discard(SPLIT)
        vocab = CategoryVocab(sorted(cats))

    tables = []
    skipped = 0
    for ordinal, n, entries in records:
        table = ScoreTable.zeros(n, vocab)
        for lineno, fields in entries:
            kind = fields[0]
            try:
                if kind == "SPAN":
                    if len(fields) != 5:
                        raise ScoreFileError("SPAN needs i j category score",
                                             line=lineno)
                    i, j = int(fields[1]), int(fields[2])
                    value = float(fields[4])
                    if not (1 <= i <= j <= n):
                        raise ScoreFileError(
                            f"span ({i},{j}) outside sentence of length {n}",
                            line=lineno)
                    cid = vocab.get(fields[3])
                    if cid is None:
                        skipped += 1
                        continue
                    table.span[i, j, cid] = value
                elif kind == "ARC":
                    if len(fields) != 4:
                        raise ScoreFileError("ARC needs dependent head score",
                                             line=lineno)
                    child, head = int(fields[1]), int(fields[2])
                    value = float(fields[3])
                    if not (1 <= child <= n and 1 <= head <= n):
                        raise ScoreFileError(
                            f"arc ({child},{head}) outside sentence of "
                            f"length {n}", line=lineno)
                    if child == head:
                        raise ScoreFileError("self-loop arc", line=lineno)
                    table.arc[child, head] = value
                elif kind == "ROOT":
                    if len(fields) != 3:
                        raise ScoreFileError("ROOT needs head score",
                                             line=lineno)
                    head = int(fields[1])
                    value = float(fields[2])
                    if not 1 <= head <= n:
                        raise ScoreFileError(
                            f"root {head} outside sentence of length {n}",
                            line=lineno)
                    table.root[head] = value
                else:
                    raise ScoreFileError(f"unknown record type {kind!r}",
                                         line=lineno)
            except ValueError:
                raise ScoreFileError("malformed number", line=lineno) from None
        try:
            table.check_finite()
        except ValueError as exc:
            raise ScoreFileError(f"sentence {ordinal}: {exc}") from None
        tables.append(table)
    if skipped:
        log.warning("skipped %d score entries with unknown categories",
                    skipped)
    return tables
