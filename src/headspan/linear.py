"""Feature-hashed linear scoring model with averaged perceptron training.

The model scores spans, arcs, and roots from sparse binary features hashed
into one flat weight vector (crc32 is the hash so scores are identical
across processes and platforms). Training is a structured perceptron with
loss-augmented decoding: at each sentence the decoder runs on scores where
every non-gold span label earns a bonus of 1, so the update targets the
highest-scoring wrong analysis within a margin. Weight averaging uses the
usual lazy accumulators.

Two modes exist. In ``joint`` mode gold analyses are head-annotated trees,
span features pair with bare encoded labels, and arc and root features are
trained alongside under the interpolation weight. In ``division`` mode the
model scores division-encoded labels only and trains against the plain
span CKY decoder.
"""

from __future__ import annotations

import pickle
import random
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import evaluate
# bound here for the traced benchmark run, which wraps them by module name
# (perfbench/spans.py)
from .division import binarize_head_outward, to_division  # noqa: F401
from .fuse import project_constituents, project_dependencies
from .decode import decode_division, decode_joint_mixed, decode_table
from .scoring import (
    CategoryVocab,
    ScoreTable,
    labeled_spans,
    tree_arcs,
    tree_spans,
)
from .trees import HpsgTree, Token

MODES = ("joint", "division")


def _bucket(value: int, edges: Sequence[int] = (1, 2, 3, 4, 5, 8, 12)) -> bytes:
    for e in edges:
        if value <= e:
            return str(e).encode()
    return b"big"


def _pad(items: list[str]) -> list[bytes]:
    return [b"<s>"] + [s.encode() for s in items] + [b"</s>"]


def span_features(words: list[bytes], tags: list[bytes], i: int,
                  j: int) -> list[bytes]:
    """Sparse features identifying span (i, j); label conjoined by hashing."""
    ln = _bucket(j - i + 1)
    return [
        b"s_len=" + ln,
        b"s_fw=" + words[i],
        b"s_lw=" + words[j],
        b"s_fp=" + tags[i],
        b"s_lp=" + tags[j],
        b"s_prev=" + tags[i - 1],
        b"s_next=" + tags[j + 1],
        b"s_in=" + tags[i + 1] if i < j else b"s_in=<self>",
        b"s_pp=" + tags[i] + b"~" + tags[j],
        b"s_out=" + tags[i - 1] + b"~" + tags[j + 1],
        b"s_ww=" + words[i] + b"~" + words[j],
        b"s_lpp=" + ln + b"~" + tags[i] + b"~" + tags[j],
    ]


def arc_features(words: list[bytes], tags: list[bytes], child: int,
                 head: int) -> list[bytes]:
    d = head - child
    db = (b"R" if d > 0 else b"L") + _bucket(abs(d))
    return [
        b"a_ww=" + words[child] + b"~" + words[head],
        b"a_pp=" + tags[child] + b"~" + tags[head],
        b"a_wp=" + words[child] + b"~" + tags[head],
        b"a_pw=" + tags[child] + b"~" + words[head],
        b"a_d=" + db,
        b"a_ppd=" + tags[child] + b"~" + tags[head] + b"~" + db,
        b"a_cctx=" + tags[child - 1] + b"~" + tags[child] + b"~" + tags[head],
        b"a_hctx=" + tags[child] + b"~" + tags[head] + b"~" + tags[head + 1],
        b"a_cp=" + tags[child],
        b"a_hp=" + tags[head],
        b"a_hw=" + words[head],
    ]


def root_features(words: list[bytes], tags: list[bytes], head: int,
                  n: int) -> list[bytes]:
    return [
        b"r_w=" + words[head],
        b"r_p=" + tags[head],
        b"r_pos=" + _bucket(head) + b"~" + _bucket(n - head + 1),
    ]


@dataclass
class TrainConfig:
    epochs: int = 10
    step: float = 0.1
    lam: float = 0.5
    dim: int = 2 ** 20
    mode: str = "joint"
    seed: int = 13
    log: Callable[[str], None] | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")


class LinearModel:
    """Hashed linear scorer over spans, arcs, and roots."""

    def __init__(self, vocab: CategoryVocab, dim: int = 2 ** 20,
                 mode: str = "joint", lam: float = 0.5,
                 weights: np.ndarray | None = None):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.vocab = vocab
        self.dim = dim
        self.mode = mode
        self.lam = lam
        self.weights = (np.zeros(dim) if weights is None else weights)
        self._cat_bytes = [c.encode() for c in vocab]
        self._mask = dim - 1 if dim & (dim - 1) == 0 else None

    def _combine(self, bases: list[int], cid: int) -> list[int]:
        cat = self._cat_bytes[cid]
        if self._mask is not None:
            return [zlib.crc32(cat, b) & self._mask for b in bases]
        return [zlib.crc32(cat, b) % self.dim for b in bases]

    def _span_idx(self, feats: list[bytes], cid: int) -> list[int]:
        return self._combine([zlib.crc32(f) for f in feats], cid)

    def _plain_idx(self, feats: list[bytes]) -> list[int]:
        if self._mask is not None:
            return [zlib.crc32(f) & self._mask for f in feats]
        return [zlib.crc32(f) % self.dim for f in feats]

    def score_table(self, tokens: Sequence[Token]) -> ScoreTable:
        """Dense scores for one sentence under the current weights."""
        n = len(tokens)
        words = _pad([t.form for t in tokens])
        tags = _pad([t.pos for t in tokens])
        table = ScoreTable.zeros(n, self.vocab)
        w = self.weights
        v = len(self.vocab)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                bases = [zlib.crc32(f)
                         for f in span_features(words, tags, i, j)]
                for cid in range(v):
                    idx = self._combine(bases, cid)
                    table.span[i, j, cid] = w[idx].sum()
        if self.mode == "joint":
            for child in range(1, n + 1):
                for head in range(1, n + 1):
                    if child == head:
                        continue
                    idx = self._plain_idx(arc_features(words, tags, child,
                                                       head))
                    table.arc[child, head] = w[idx].sum()
            for head in range(1, n + 1):
                idx = self._plain_idx(root_features(words, tags, head, n))
                table.root[head] = w[idx].sum()
        return table

    def feature_counts(self, tokens: Sequence[Token],
                       spans: list[tuple[int, int, str]],
                       arcs: list[tuple[int, int]], root: int
                       ) -> tuple[Counter, Counter]:
        """Hashed feature index counts, spans separate from arcs and root."""
        words = _pad([t.form for t in tokens])
        tags = _pad([t.pos for t in tokens])
        span_c: Counter = Counter()
        dep_c: Counter = Counter()
        for i, j, label in spans:
            feats = span_features(words, tags, i, j)
            span_c.update(self._span_idx(feats, self.vocab.index(label)))
        for child, head in arcs:
            dep_c.update(self._plain_idx(arc_features(words, tags, child,
                                                      head)))
        if root:
            dep_c.update(self._plain_idx(root_features(words, tags, root,
                                                       len(tokens))))
        return span_c, dep_c

    def save(self, path: str) -> None:
        payload = {
            "dim": self.dim,
            "mode": self.mode,
            "lam": self.lam,
            "categories": [c for c in self.vocab][2:],
            "weights": self.weights,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=4)

    @classmethod
    def load(cls, path: str) -> "LinearModel":
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        vocab = CategoryVocab(payload["categories"])
        return cls(vocab=vocab, dim=payload["dim"], mode=payload["mode"],
                   lam=payload["lam"], weights=payload["weights"])


def decode_with_model(model: LinearModel, tokens: Sequence[Token],
                      lam: float | None = None) -> HpsgTree:
    """Parse one sentence with a trained model, honoring its mode."""
    use = model.lam if lam is None else lam
    tree, _ = decode_table(model.score_table(tokens), model.mode, use, tokens)
    return tree


@dataclass
class _Averager:
    """Lazy accumulators for weight averaging."""

    acc: np.ndarray
    last: np.ndarray
    steps: int = 0

    def touch(self, idx: list[int], w: np.ndarray) -> None:
        for x in idx:
            self.acc[x] += (self.steps - self.last[x]) * w[x]
            self.last[x] = self.steps

    def snapshot(self, w: np.ndarray) -> np.ndarray:
        if self.steps == 0:
            return w.copy()
        return (self.acc + (self.steps - self.last) * w) / self.steps


def train_linear(trees: Sequence[HpsgTree], config: TrainConfig | None = None,
                 dev: Sequence[HpsgTree] | None = None
                 ) -> tuple[LinearModel, list[dict]]:
    """Averaged perceptron training over gold head-annotated trees.

    Sentences are visited in an order reshuffled every epoch from
    ``config.seed``, so runs with equal configuration are bit-for-bit
    reproducible. Returns the trained model (averaged weights; the best dev
    epoch's weights when ``dev`` is given) and one history record per epoch
    with the hinge objective, the update count, and dev scores when
    available.
    """
    if config is None:
        config = TrainConfig()
    division_mode = config.mode == "division"
    vocab = CategoryVocab.from_trees(trees, division_labels=division_mode)
    model = LinearModel(vocab=vocab, dim=config.dim, mode=config.mode,
                        lam=config.lam)
    lam = 1.0 if division_mode else config.lam

    prepared = []
    for tree in trees:
        spans = tree_spans(tree, division_mode)
        arcs, root = ([], 0) if division_mode else tree_arcs(tree)
        gold_span_c, gold_dep_c = model.feature_counts(tree.tokens, spans,
                                                       arcs, root)
        n = len(tree)
        indicator = np.zeros((n + 1, n + 1, len(vocab)))
        for i, j, label in spans:
            indicator[i, j, vocab.index(label)] = 1.0
        prepared.append((tree, spans, arcs, root, gold_span_c, gold_dep_c,
                         indicator))

    avg = _Averager(acc=np.zeros(config.dim),
                    last=np.zeros(config.dim, dtype=np.int64))
    w = model.weights
    history: list[dict] = []
    best_dev = -1.0
    best_weights: np.ndarray | None = None
    rng = random.Random(config.seed)
    order = list(range(len(prepared)))

    for epoch in range(1, config.epochs + 1):
        objective = 0.0
        updates = 0
        rng.shuffle(order)
        for tree, spans, arcs, root, gold_span_c, gold_dep_c, ind in (
                prepared[pos] for pos in order):
            tokens = tree.tokens
            n = len(tree)
            table = model.score_table(tokens)
            gold_score = lam * sum(
                table.span[i, j, vocab.index(lab)] for i, j, lab in spans)
            if not division_mode:
                gold_score += (1.0 - lam) * (
                    sum(table.arc[c, h] for c, h in arcs)
                    + table.root[root])
            aug_span = lam * table.span + (1.0 - ind)
            if division_mode:
                aug = ScoreTable(vocab=vocab, n=n, span=aug_span,
                                 arc=table.arc, root=table.root)
                pred_tree_raw, pred_score = decode_division(aug, tokens)
                p_spans = labeled_spans(pred_tree_raw.root)
                p_arcs: list[tuple[int, int]] = []
                p_root = 0
            else:
                pred_tree, pred_score, p_spans = decode_joint_mixed(
                    aug_span, (1.0 - lam) * table.arc,
                    (1.0 - lam) * table.root, vocab, tokens)
                p_arcs, p_root = tree_arcs(pred_tree)
            violation = pred_score - gold_score
            if violation > 1e-12:
                objective += violation
                updates += 1
                pred_span_c, pred_dep_c = model.feature_counts(
                    tokens, p_spans, p_arcs, p_root)
                span_delta = gold_span_c - pred_span_c
                span_delta.subtract(pred_span_c - gold_span_c)
                dep_delta = gold_dep_c - pred_dep_c
                dep_delta.subtract(pred_dep_c - gold_dep_c)
                scale_span = config.step * lam
                scale_dep = config.step * (1.0 - lam)
                if span_delta:
                    idx = list(span_delta)
                    avg.touch(idx, w)
                    for x in idx:
                        w[x] += scale_span * span_delta[x]
                if dep_delta and not division_mode:
                    idx = list(dep_delta)
                    avg.touch(idx, w)
                    for x in idx:
                        w[x] += scale_dep * dep_delta[x]
            avg.steps += 1

        record = {"epoch": epoch, "objective": objective, "updates": updates}
        if dev is not None:
            snap = LinearModel(vocab=vocab, dim=config.dim, mode=config.mode,
                               lam=config.lam, weights=avg.snapshot(w))
            f1, uas = _dev_scores(snap, dev)
            record["dev_f1"] = f1
            record["dev_uas"] = uas
            if f1 + uas > best_dev:
                best_dev = f1 + uas
                best_weights = snap.weights
        history.append(record)
        if config.log is not None:
            parts = [f"epoch {epoch}", f"objective {objective:.3f}",
                     f"updates {updates}"]
            if dev is not None:
                parts.append(f"dev F1 {record['dev_f1']:.2f}")
                parts.append(f"dev UAS {record['dev_uas']:.2f}")
            config.log("  ".join(parts))

    if best_weights is not None:
        model.weights = best_weights
    else:
        model.weights = avg.snapshot(w)
    return model, history


def _dev_scores(model: LinearModel, dev: Sequence[HpsgTree]
                ) -> tuple[float, float]:
    gold_const = [project_constituents(t) for t in dev]
    gold_dep = [project_dependencies(t) for t in dev]
    pred = [decode_with_model(model, t.tokens) for t in dev]
    pred_const = [project_constituents(t) for t in pred]
    pred_dep = [project_dependencies(t) for t in pred]
    rep = evaluate.bracket_f1(gold_const, pred_const)
    rep2 = evaluate.attachment_scores(gold_dep, pred_dep)
    return rep.f1, rep2.uas
