"""Score tables over spans, arcs, and roots, plus the text score format.

A :class:`ScoreTable` holds dense per-sentence scores:

* ``span[i, j, c]``: span (i, j) labeled with category id ``c``,
* ``arc[d, h]``: token ``d`` depends on token ``h``,
* ``root[h]``: token ``h`` is the sentence root.

Indices are 1-based (row and column 0 unused). Category ids come from a
:class:`CategoryVocab` with two reserved entries: the empty category at id 0
and the head-split category at id 1.
Decoders read a :class:`SpanSummary` of the span array, never the array.
:func:`summarize` makes it from blocks of span scores: a table's spans in
one block, the linear model's a block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import division
from .errors import ScoreFileError
from .fuse import project_dependencies
from .trees import EMPTY, HEAD_PREFIX, SPLIT, ConstituentTree, HpsgTree

# an analysis as the parts a table scores: labeled spans, (child, head)
# arcs and the root, 0 when the analysis has no dependency part
Parts = tuple[list[tuple[int, int, str]], list[tuple[int, int]], int]


class CategoryVocab:
    """Stable mapping between category strings and integer ids.

    Ids 0 and 1 are reserved for the empty and split categories. Extra
    categories are stored in the order given; :meth:`from_trees` sorts them
    so corpora produce the same vocabulary regardless of sentence order.
    ``unmarked`` holds the ids of those without an ``H_`` mark, ascending.
    """

    def __init__(self, categories: Iterable[str] = ()):
        self._cats = [EMPTY, SPLIT]
        self._ids = {EMPTY: 0, SPLIT: 1}
        self.unmarked = np.zeros(0, dtype=np.int64)
        for cat in categories:
            self.add(cat)

    def add(self, category: str) -> int:
        got = self._ids.get(category)
        if got is None:
            got = len(self._cats)
            self._cats.append(category)
            self._ids[category] = got
            if not category.startswith(HEAD_PREFIX):
                self.unmarked = np.append(self.unmarked, got)
        return got

    def has_marks(self) -> bool:
        """Whether some category carries an ``H_`` mark."""
        return len(self.unmarked) < len(self._cats) - 2

    def index(self, category: str) -> int:
        try:
            return self._ids[category]
        except KeyError:
            raise KeyError(f"unknown category {category!r}") from None

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
        return cls.from_spans(tree_spans(t, division_labels) for t in trees)

    @classmethod
    def from_spans(cls, analyses: Iterable[list]) -> "CategoryVocab":
        """Vocabulary of every label of these analyses' labeled spans."""
        return cls(sorted({label for spans in analyses
                           for _, _, label in spans} - {EMPTY, SPLIT}))


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


def tree_parts(tree: HpsgTree, division_labels: bool = False) -> Parts:
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

    def mixed(self, lam: float) -> "ScoreTable":
        """The table under interpolation ``lam``, the weight every decoder
        and training see: spans times ``lam``, arcs and root times
        ``1 - lam``."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {lam}")
        return ScoreTable(vocab=self.vocab, n=self.n, span=lam * self.span,
                          arc=(1.0 - lam) * self.arc,
                          root=(1.0 - lam) * self.root)

    def check_finite(self) -> None:
        for name, arr in (("span", self.span), ("arc", self.arc),
                          ("root", self.root)):
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite values in {name} scores")

    def summary(self, lam: float) -> "SpanSummary":
        """:func:`summarize` of this table under ``lam``, its whole span
        array in one block."""
        cells = np.arange((self.n + 1) ** 2)
        return summarize(self.vocab, self.n, [(cells, self.span.reshape(
            len(cells), -1))], self.arc, self.root, lam)


@dataclass
class SpanSummary:
    """A sentence's scores as the decoders read them, under their
    interpolation weight: per span (i, j) the best score over all labels
    and over the real ones (all but the empty category) and their label
    ids, the label id and score of the whole-sentence span (None when no
    label may take it), and the arc and root scores. Cells outside 1 <= i
    <= j <= n are never read."""

    vocab: CategoryVocab
    n: int
    best: np.ndarray   # (n+1, n+1, 2) float64
    label: np.ndarray  # (n+1, n+1, 2) int64
    top: tuple[int, float] | None
    arc: np.ndarray
    root: np.ndarray

    def sentence_label(self) -> tuple[int, float]:
        """``top``, refused when no label may take the sentence span."""
        if self.top is None:
            unmarked = " without an H_ mark" if self.vocab.has_marks() else ""
            raise ScoreFileError(f"score table has no ordinary category"
                                 f"{unmarked} to label the sentence span")
        return self.top


def reduce_labels(span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:class:`SpanSummary`'s ``best`` and ``label`` over the last axis of
    ``span`` (..., V). The first id wins a tie, but an ordinary category
    beats ``#``, so uninformative scores never label a phrase ``#``."""
    best = np.empty((*span.shape[:-1], 2))
    label = np.ones((*span.shape[:-1], 2), dtype=np.int64)
    span.max(axis=-1, out=best[..., 0])
    span[..., 1:].max(axis=-1, out=best[..., 1])
    span.argmax(axis=-1, out=label[..., 0])
    if span.shape[-1] > 2:
        rest = span[..., 2:]
        label[..., 1] = np.where(span[..., 1] > rest.max(axis=-1), 1,
                                 rest.argmax(axis=-1) + 2)
    return best, label


def _sentence_label(row: np.ndarray, ids: np.ndarray, n: int
                    ) -> tuple[int, float] | None:
    """:class:`SpanSummary`'s ``top`` from the scores ``row`` of the
    whole-sentence span: fusing refuses a divided sentence span, and no
    encoded tree marks its root, so it takes one of ``ids``, neither ``#``
    nor ``H_``-marked. A lone token may also stay bare (the empty one)."""
    ordinary = row[ids]
    if n == 1 and not ordinary.max(initial=-np.inf) > row[0]:
        return 0, float(row[0])
    if not len(ids):
        return None
    lid = int(ids[ordinary.argmax()])
    return lid, float(row[lid])


def summarize(vocab: CategoryVocab, n: int,
              blocks: Iterable[tuple[np.ndarray, np.ndarray]],
              arc: np.ndarray, root: np.ndarray, lam: float = 1.0,
              loss: tuple[np.ndarray, ...] | None = None) -> SpanSummary:
    """The :class:`SpanSummary` under ``lam`` of a sentence's raw scores:
    its span scores in ``blocks``, each a block's flat cells in an (n+1,
    n+1) table, ascending, and their (cells, V) scores, then its arc and
    root scores. A block is checked for non-finite values, mixed and
    reduced before the next one is read. Training's ``loss`` is its gold
    cells as flat cells and label ids, and an array that receives their raw
    scores in order; every other label earns 1 once mixed."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    best = np.zeros((n + 1, n + 1, 2))
    label = np.zeros((n + 1, n + 1, 2), dtype=np.int64)
    top = None
    for cells, block in blocks:
        if not np.isfinite(block).all():
            raise ScoreFileError("non-finite values in span scores")
        mixed = lam * block
        if loss is not None:
            gold_cells, gold_labels, gold = loss
            pos = np.searchsorted(cells, gold_cells).clip(0, len(cells) - 1)
            here = cells[pos] == gold_cells
            at = pos[here] * block.shape[1] + gold_labels[here]
            gold[here] = block.take(at)
            # gold cells earn + 0.0, where the others earn + 1.0
            kept = mixed.take(at) + 0.0
            mixed += 1.0
            mixed.put(at, kept)
        best.reshape(-1, 2)[cells], label.reshape(-1, 2)[cells] = \
            reduce_labels(mixed)
        whole = np.flatnonzero(cells == 2 * n + 1)      # span (1, n)
        if len(whole):
            top = _sentence_label(mixed[whole[0]], vocab.unmarked, n)
    for name, part in (("arc", arc), ("root", root)):
        if not np.isfinite(part).all():
            raise ScoreFileError(f"non-finite values in {name} scores")
    return SpanSummary(vocab, n, best, label, top, (1.0 - lam) * arc,
                       (1.0 - lam) * root)


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


def parts_score(table: ScoreTable, parts: Parts, lam: float) -> float:
    """Score of an analysis's parts under a table with interpolation
    ``lam``; without a root only the spans count, still scaled by ``lam``."""
    spans, arcs, root = parts
    span_sum = sum(table.span[i, j, table.vocab.index(label)]
                   for i, j, label in spans)
    dep_sum = (sum(table.arc[c, h] for c, h in arcs) + table.root[root]
               if root else 0.0)
    return lam * span_sum + (1.0 - lam) * dep_sum


def tree_score(tree: HpsgTree | ConstituentTree, table: ScoreTable,
               lam: float) -> float:
    """Score of a fixed analysis under a table with interpolation ``lam``.

    Head-annotated trees are scored exactly as the joint decoder sees them:
    the span part sums over every node of the binarized encoding, the
    dependency part over the projected arcs plus the root. A plain
    constituent tree (a division encoding) has only the span part.
    """
    if isinstance(tree, HpsgTree):
        return parts_score(table, tree_parts(tree), lam)
    return parts_score(table, (labeled_spans(tree.root), [], 0), lam)


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


def read_scores(stream: IO[str] | str) -> list[ScoreTable]:
    """Parse the text score format into tables over one vocabulary, built
    from the categories the file names."""
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

    cats = {fields[3] for _, _, entries in records for _, fields in entries
            if fields[0] == "SPAN" and len(fields) == 5}
    vocab = CategoryVocab(sorted(cats - {EMPTY, SPLIT}))

    tables = []
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
                    table.span[i, j, vocab.index(fields[3])] = value
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
    return tables
