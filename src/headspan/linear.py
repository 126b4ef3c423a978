"""Feature-hashed linear scoring model with averaged perceptron training.

The model scores spans, arcs, and roots from sparse binary features hashed
into one flat weight vector (crc32 is the hash so scores are identical
across processes and platforms). Label ``c``'s span feature ``f`` lands at
``crc32(c, crc32(f))``, which :func:`_crc_shift` gives for every label at
once. Training is a structured perceptron with
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
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import evaluate
# bound here for the traced benchmark run, which wraps them by module name
# (perfbench/spans.py)
from .division import binarize_head_outward, to_division  # noqa: F401
from .fuse import project_constituents, project_dependencies
from .decode import LEN_CAP, decode_division, decode_joint_mixed, decode_table
from .errors import ModelFileError, SizeGuardError
from .scoring import (
    CategoryVocab,
    ScoreTable,
    labeled_spans,
    parts_score,
    tree_arcs,
    tree_parts,
    tree_spans,
)
from .trees import HpsgTree, Token

MODES = ("joint", "division")
Hashes = tuple[np.ndarray, np.ndarray, np.ndarray]  # LinearModel.hashes


def _check_dim(dim: int) -> None:
    # a power of two lets every hash index be a mask of its low bits
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dim must be a power of two, at least 2; got {dim}")


def _crc_shift(k: int) -> np.ndarray:
    """(4, 256) table of what a start value adds to crc32 over k bytes.

    crc32 is affine in its start value: ``crc32(data, b) == crc32(data) ^
    L(b)`` with L linear over GF(2) and fixed by ``len(data)``, so L(b) is
    the XOR of ``table[p, b >> 8p & 255]`` over the four bytes p of b."""
    zero = bytes(k)
    base = zlib.crc32(zero)
    return np.array([[zlib.crc32(zero, v << 8 * p) ^ base for v in range(256)]
                     for p in range(4)], dtype=np.int64)


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
        _check_dim(self.dim)


class LinearModel:
    """Hashed linear scorer over spans, arcs, and roots."""

    def __init__(self, vocab: CategoryVocab, dim: int = 2 ** 20,
                 mode: str = "joint", lam: float = 0.5,
                 weights: np.ndarray | None = None):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        _check_dim(dim)
        self.vocab = vocab
        self.dim = dim
        self.mode = mode
        self.lam = lam
        self.weights = (np.zeros(dim) if weights is None else weights)
        self._mask = dim - 1
        cats = [c.encode() for c in vocab]
        lengths = sorted({len(c) for c in cats})
        self._shift = np.stack([_crc_shift(k) for k in lengths]) & self._mask
        self._group = np.array([lengths.index(len(c)) for c in cats])
        self._cat_crc = np.array([zlib.crc32(c) & self._mask for c in cats])

    def hashes(self, tokens: Sequence[Token]) -> Hashes:
        """Label-free crc32 of the sentence's features, as uint32 rows: 12
        per span (i, j), i <= j, ordered by i then j; 11 per arc (child,
        head), child != head, in the same order; 3 per root. Arcs and roots
        are left empty in division mode."""
        def crc_rows(rows: Iterable[list[bytes]], width: int) -> np.ndarray:
            return np.array([[zlib.crc32(f) for f in row] for row in rows],
                            dtype=np.uint32).reshape(-1, width)

        n = len(tokens)
        words = _pad([t.form for t in tokens])
        tags = _pad([t.pos for t in tokens])
        pos = range(1, n + 1)
        deps = pos if self.mode == "joint" else ()
        return (crc_rows((span_features(words, tags, i, j)
                          for i in pos for j in range(i, n + 1)), 12),
                crc_rows((arc_features(words, tags, c, h)
                          for c in deps for h in pos if c != h), 11),
                crc_rows((root_features(words, tags, h, n) for h in deps), 3))

    def _shifted(self, bases: np.ndarray) -> np.ndarray:
        """L(bases) under each label byte length, masked: (lengths, *shape)."""
        t = self._shift
        return (t[:, 0, bases & 255] ^ t[:, 1, bases >> 8 & 255]
                ^ t[:, 2, bases >> 16 & 255] ^ t[:, 3, bases >> 24])

    def score_table(self, tokens: Sequence[Token],
                    hashes: Hashes | None = None) -> ScoreTable:
        """Dense scores for one sentence from its :meth:`hashes` (built here
        when not given), a start position at a time to bound memory."""
        span, arc, root = hashes or self.hashes(tokens)
        n = len(tokens)
        table = ScoreTable.zeros(n, self.vocab)
        w = self.weights
        lo = 0
        for i in range(1, n + 1):
            hi = lo + n + 1 - i
            # (labels, spans starting at i, features)
            idx = (self._shifted(span[lo:hi])[self._group]
                   ^ self._cat_crc[:, None, None])
            table.span[i, i:] = w[idx].sum(-1).T
            lo = hi
        if self.mode == "joint":
            off_diagonal = ~np.eye(n, dtype=bool)
            table.arc[1:, 1:][off_diagonal] = w[arc & self._mask].sum(-1)
            table.root[1:] = w[root & self._mask].sum(-1)
        return table

    def feature_counts(self, tokens: Sequence[Token],
                       spans: list[tuple[int, int, str]],
                       arcs: list[tuple[int, int]], root: int,
                       hashes: Hashes | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Feature indices of an analysis, repeats kept: spans', then the
        arcs' and root's."""
        span_h, arc_h, root_h = hashes or self.hashes(tokens)
        n = len(tokens)
        rows = [(i - 1) * (2 * n + 2 - i) // 2 + j - i for i, j, _ in spans]
        cid = np.array([self.vocab.index(c) for _, _, c in spans], dtype=int)
        span_idx = (self._shifted(span_h[rows])[self._group[cid],
                                                np.arange(len(rows))]
                    ^ self._cat_crc[cid, None])
        arc_rows = [(c - 1) * (n - 1) + h - 1 - (h > c) for c, h in arcs]
        # root 0 (none) slices no row
        dep = np.concatenate([arc_h[arc_rows], root_h[root - 1:root]],
                             axis=None)
        return span_idx.ravel(), dep & self._mask

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
        """Read a saved model; the file can name numpy arrays and no code."""
        try:
            with open(path, "rb") as fh:
                payload = _ModelUnpickler(fh).load()
            weights = payload["weights"]
            if (set(payload) != _MODEL_KEYS
                    or not 0.0 <= payload["lam"] <= 1.0
                    or not isinstance(weights, np.ndarray)
                    or weights.dtype != np.float64
                    or weights.shape != (payload["dim"],)):
                raise ValueError("unexpected contents")
            return cls(vocab=CategoryVocab(payload["categories"]),
                       dim=payload["dim"], mode=payload["mode"],
                       lam=payload["lam"], weights=weights)
        except OSError:
            raise
        except Exception as exc:
            # outside bytes can fail to unpickle or build in many ways;
            # each one is a file that is not a model
            raise ModelFileError(f"{path}: not a model file ({exc})") from None


_MODEL_KEYS = {"dim", "mode", "lam", "categories", "weights"}
_MODEL_GLOBALS = {("numpy._core.multiarray", "_reconstruct"),
                  ("numpy.core.multiarray", "_reconstruct"),
                  ("numpy", "ndarray"), ("numpy", "dtype")}


class _ModelUnpickler(pickle.Unpickler):
    """Unpickler that admits only the globals a saved weight array names."""

    def find_class(self, module: str, name: str):
        if (module, name) not in _MODEL_GLOBALS:
            raise pickle.UnpicklingError(f"it names {module}.{name}")
        return super().find_class(module, name)


def decode_with_model(model: LinearModel, tokens: Sequence[Token],
                      lam: float | None = None,
                      hashes: Hashes | None = None) -> HpsgTree:
    """Parse one sentence with a trained model, honoring its mode."""
    use = model.lam if lam is None else lam
    tree, _ = decode_table(model.score_table(tokens, hashes), model.mode,
                           use, tokens)
    return tree


@dataclass
class _Averager:
    """Lazy accumulators for weight averaging."""

    acc: np.ndarray
    last: np.ndarray
    steps: int = 0

    def touch(self, idx: np.ndarray, w: np.ndarray) -> None:
        self.acc[idx] += (self.steps - self.last[idx]) * w[idx]
        self.last[idx] = self.steps

    def snapshot(self, w: np.ndarray) -> np.ndarray:
        if self.steps == 0:
            return w.copy()
        return (self.acc + (self.steps - self.last) * w) / self.steps


def _count_difference(gold: np.ndarray, pred: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct indices whose counts differ, with gold's count minus pred's."""
    idx, inv = np.unique(np.concatenate([gold, pred]), return_inverse=True)
    delta = np.bincount(inv, np.repeat([1.0, -1.0], [len(gold), len(pred)]))
    return idx[delta != 0], delta[delta != 0]


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
    for ordinal, tree in enumerate([*trees, *(dev or ())], start=1):
        if not division_mode and len(tree) > LEN_CAP:
            raise SizeGuardError(
                f"sentence {ordinal}: {len(tree)} tokens, above the joint "
                f"decoder's cap of {LEN_CAP}; train with --mode division")
    vocab = CategoryVocab.from_trees(trees, division_labels=division_mode)
    model = LinearModel(vocab=vocab, dim=config.dim, mode=config.mode,
                        lam=config.lam)
    lam = 1.0 if division_mode else config.lam

    # every sentence's feature hashes serve all epochs and dev passes
    prepared = []
    for tree in trees:
        gold = ((tree_spans(tree, True), [], 0) if division_mode
                else tree_parts(tree))
        n = len(tree)
        indicator = np.zeros((n + 1, n + 1, len(vocab)))
        for i, j, label in gold[0]:
            indicator[i, j, vocab.index(label)] = 1.0
        hashes = model.hashes(tree.tokens)
        prepared.append((tree.tokens, hashes, gold,
                         model.feature_counts(tree.tokens, *gold, hashes),
                         indicator))
    dev_hashes = [model.hashes(tree.tokens) for tree in dev or ()]

    avg = _Averager(acc=np.zeros(config.dim),
                    last=np.zeros(config.dim, dtype=np.int64))
    w = model.weights
    history: list[dict] = []
    best_dev = -1.0
    best_weights: np.ndarray | None = None
    rng = random.Random(config.seed)
    # span weights move by step * lam, arc and root weights by the rest;
    # division-mode parts have no arcs or root, so that delta stays empty
    scales = (config.step * lam, config.step * (1.0 - lam))

    for epoch in range(1, config.epochs + 1):
        objective = 0.0
        updates = 0
        rng.shuffle(prepared)
        for tokens, hashes, gold, gold_counts, ind in prepared:
            table = model.score_table(tokens, hashes)
            aug = table.mixed(lam)
            aug.span += 1.0 - ind
            if division_mode:
                pred_tree, pred_score = decode_division(aug, tokens)
                pred = (labeled_spans(pred_tree.root), [], 0)
            else:
                pred_tree, pred_score, p_spans = decode_joint_mixed(aug,
                                                                    tokens)
                pred = (p_spans, *tree_arcs(pred_tree))
            violation = pred_score - parts_score(table, gold, lam)
            if violation > 1e-12:
                objective += violation
                updates += 1
                pred_counts = model.feature_counts(tokens, *pred, hashes)
                for gold_c, pred_c, scale in zip(gold_counts, pred_counts,
                                                 scales):
                    idx, delta = _count_difference(gold_c, pred_c)
                    avg.touch(idx, w)
                    w[idx] += scale * delta
            avg.steps += 1

        record = {"epoch": epoch, "objective": objective, "updates": updates}
        if dev is not None:
            snap = LinearModel(vocab=vocab, dim=config.dim, mode=config.mode,
                               lam=config.lam, weights=avg.snapshot(w))
            f1, uas = _dev_scores(snap, dev, dev_hashes)
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


def _dev_scores(model: LinearModel, dev: Sequence[HpsgTree],
                hashes: list[Hashes]) -> tuple[float, float]:
    gold_const = [project_constituents(t) for t in dev]
    gold_dep = [project_dependencies(t) for t in dev]
    pred = [decode_with_model(model, t.tokens, hashes=h)
            for t, h in zip(dev, hashes)]
    pred_const = [project_constituents(t) for t in pred]
    pred_dep = [project_dependencies(t) for t in pred]
    rep = evaluate.bracket_f1(gold_const, pred_const)
    rep2 = evaluate.attachment_scores(gold_dep, pred_dep)
    return rep.f1, rep2.uas
