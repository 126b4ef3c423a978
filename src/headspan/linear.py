"""Feature-hashed linear scoring model with averaged perceptron training.

The model scores spans, arcs, and roots from sparse binary features hashed
into one flat weight vector (crc32 is the hash so scores are identical
across processes and platforms). Label ``c``'s span feature ``f`` lands at
``crc32(c, crc32(f))``, which :func:`_crc_shift` gives for every label at
once: crc32 is affine in its start value, ``crc32(b, s) == crc32(b) ^
L_len(b)(s)``.

The same rule factors the features by position. :meth:`LinearModel.hashes`
hashes a template on one position (or on the span length) once per
position (or length bucket), and a template on two positions, such as
``s_pp=<tag i>~<tag j>``, as a head ``s_pp=<tag i>~`` once per i and a tail
``<tag j>`` once per j, joined without hashing the whole string.
:meth:`LinearModel.score_table` gathers the weight of each distinct
(feature, label) once, broadcasts the one-position weights to their spans
and adds a span's 12 terms in the order of numpy's pairwise sum, so every
score is bit for bit what summing the span's 12 weights gives.

Training is a structured perceptron with
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

import functools
import pickle
import random
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

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


def _check_dim(dim: int) -> None:
    # a power of two lets every hash index be a mask of its low bits
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dim must be a power of two, at least 2; got {dim}")


@functools.lru_cache(maxsize=256)
def _crc_shift(k: int) -> np.ndarray:
    """(4, 256) table of what a start value adds to crc32 over k bytes.

    crc32 is affine in its start value: ``crc32(data, b) == crc32(data) ^
    L(b)`` with L linear over GF(2) and fixed by ``len(data)``, so L(b) is
    the XOR of ``table[p, b >> 8p & 255]`` over the four bytes p of b.
    Built on first use of each length and shared, so read-only."""
    zero = bytes(k)
    base = zlib.crc32(zero)
    table = np.array([[zlib.crc32(zero, v << 8 * p) ^ base for v in range(256)]
                      for p in range(4)], dtype=np.int64)
    table.flags.writeable = False
    return table


def _shift(tables: np.ndarray, starts: np.ndarray,
           lengths: np.ndarray | slice = slice(None)) -> np.ndarray:
    """L(starts) under the (4, 256, lengths) stacked ``_crc_shift`` tables:
    under every length, (*starts.shape, lengths), or under those that
    ``lengths`` picks for each start."""
    out = tables[0][starts & 255, lengths]
    out ^= tables[1][starts >> 8 & 255, lengths]
    out ^= tables[2][starts >> 16 & 255, lengths]
    out ^= tables[3][starts >> 24, lengths]
    return out


def _lengths(parts: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The shift tables of the byte lengths among ``parts``, stacked on the
    last axis, and which of them each part takes."""
    lengths = sorted({len(b) for b in parts})
    at = {k: i for i, k in enumerate(lengths)}
    return (np.stack([_crc_shift(k) for k in lengths], axis=-1),
            np.array([at[len(b)] for b in parts]))


def _crcs(parts: Iterable[bytes]) -> np.ndarray:
    return np.array([zlib.crc32(b) for b in parts], dtype=np.int64)


# length and distance buckets: value v falls in searchsorted(_EDGES, v)
_EDGES = np.array([1, 2, 3, 4, 5, 8, 12])
_EDGES.flags.writeable = False
_BUCKETS = [str(e).encode() for e in _EDGES] + [b"big"]
# arc direction and distance, indexed 8 * (head < child) + distance bucket
_DISTANCES = [d + b for d in (b"R", b"L") for b in _BUCKETS]
# span-label scores computed per block, which bounds the working arrays
_BLOCK = 2 ** 16


@functools.cache
def _distance_joiner() -> Callable:
    """Joins a_ppd's head-and-tag hash with "~<distance>"; built on first
    use and shared."""
    return _joiner([b"~" + b for b in _DISTANCES])


def _pad(items: list[str]) -> list[bytes]:
    return [b"<s>"] + [s.encode() for s in items] + [b"</s>"]


class Keys(NamedTuple):
    """A sentence's feature hashes as one model's weight gather reads them.
    The distinct hashes of each group come shifted under every label byte
    length of the model (``_shift``), so a label's weight index is one
    lookup and an XOR; nothing here has a column per label."""

    single: np.ndarray  # (distinct, lengths) one-position and length hashes
    terms: np.ndarray   # (8, spans) row in single of span templates 0..7
    pairs: np.ndarray   # (distinct, lengths) pair hashes, block by block
    pair_rows: np.ndarray  # (4, spans) row within the span's block's part
    blocks: np.ndarray  # (blocks,) where each block's part of pairs starts


class Hashes(NamedTuple):
    """Label-free crc32 of one sentence's features, each feature string
    hashed once (:meth:`LinearModel.hashes`), and their :class:`Keys`. Rows
    count positions from 0 for token 1; all arrays are int64."""

    length: np.ndarray  # (8,) s_len per length bucket
    start: np.ndarray   # (n, 3) s_fw, s_fp, s_prev of spans starting there
    inside: np.ndarray  # (n + 1,) s_in of longer spans starting there; <self>
    end: np.ndarray     # (n, 3) s_lw, s_lp, s_next of spans ending there
    pair: np.ndarray    # (n(n+1)/2, 4) s_pp, s_out, s_ww, s_lpp by start, end
    arc: np.ndarray     # (n(n-1), 11) every arc template, by child then head
    root: np.ndarray    # (n, 3) every root template
    keys: Keys


class _Layout(NamedTuple):
    """Index arrays of every span and arc of a length-n sentence: spans by
    start then end (the order of ``Hashes.pair``), arcs by child then head
    (that of ``Hashes.arc``); positions 0-based, cells flat in an (n+1,
    n+1) table."""

    first: np.ndarray
    last: np.ndarray
    bucket: np.ndarray   # length bucket
    inside: np.ndarray   # row in Hashes.inside
    cell: np.ndarray
    child: np.ndarray
    head: np.ndarray
    arc_cell: np.ndarray


@functools.lru_cache(maxsize=16)
def _layout(n: int) -> _Layout:
    """The :class:`_Layout` of length n; shared, so read-only."""
    first, last = np.triu_indices(n)
    child, head = np.nonzero(~np.eye(n, dtype=bool))
    out = _Layout(first, last, np.searchsorted(_EDGES, last - first + 1),
                  np.where(first < last, first, n),
                  (first + 1) * (n + 1) + last + 1, child, head,
                  (child + 1) * (n + 1) + head + 1)
    for a in out:
        a.flags.writeable = False
    return out


def _joiner(tails: list[bytes]) -> Callable:
    """``join(heads, at, ends)``: crc32(a + tails[e]) for a the string whose
    crc32 is ``heads[at]`` and e in ``ends`` (index arrays that broadcast
    together). crc32 is affine in its start value, so this is crc32(tails[e])
    XOR the tail length's shift of crc32(a); the heads are shifted under
    every tail length at once, and each result is one lookup."""
    tables, which = _lengths(tails)
    crcs = _crcs(tails)
    for a in (tables, which, crcs):
        a.flags.writeable = False

    def join(heads, at: tuple[np.ndarray, ...], ends: np.ndarray
             ) -> np.ndarray:
        shifted = _shift(tables, np.asarray(heads, dtype=np.int64))
        return crcs[ends] ^ shifted[(*at, which[ends])]

    return join


def _arc_hashes(words: list[bytes], tags: list[bytes], join: Callable
                ) -> np.ndarray:
    """The 11 arc templates of every arc, by child then head; ``join`` ends
    in the tails that ``LinearModel.hashes`` lists, in its order."""
    crc = zlib.crc32
    n = len(words) - 2
    pos = range(1, n + 1)
    layout = _layout(n)
    child, head = layout.child, layout.head
    end = head + 1
    word, hctx = n + 2, 2 * n + 4
    heads = [
        [crc(b"a_ww=" + words[c] + b"~") for c in pos],
        [crc(b"a_pp=" + tags[c] + b"~") for c in pos],
        [crc(b"a_wp=" + words[c] + b"~") for c in pos],
        [crc(b"a_pw=" + tags[c] + b"~") for c in pos],
        [crc(b"a_ppd=" + tags[c] + b"~") for c in pos],
        [crc(b"a_cctx=" + tags[c - 1] + b"~" + tags[c] + b"~") for c in pos],
        [crc(b"a_hctx=" + tags[c] + b"~") for c in pos],
    ]
    arc = join(heads, (np.arange(7), child[:, None]),
               np.column_stack([word + end, end, end, word + end, end, end,
                                hctx + head]))
    d = head - child
    dist = 8 * (d < 0) + np.searchsorted(_EDGES, np.abs(d))
    # a_ppd goes on past the head's tag with "~" and the distance
    ppd = _distance_joiner()(arc[:, 4], (np.arange(len(d)),), dist)
    return np.column_stack([
        arc[:, :4], _crcs(b"a_d=" + b for b in _DISTANCES)[dist], ppd,
        arc[:, 5:],
        _crcs(b"a_cp=" + tags[c] for c in pos)[child],
        _crcs(b"a_hp=" + tags[h] for h in pos)[head],
        _crcs(b"a_hw=" + words[h] for h in pos)[head]])


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
        tables, self._group = _lengths(cats)
        self._shift = tables & self._mask
        self._cat_crc = _crcs(cats) & self._mask
        # spans per block of score_table, which bounds its working arrays
        self._block_spans = max(1, _BLOCK // len(vocab))

    def hashes(self, tokens: Sequence[Token]) -> Hashes:
        """Every feature hash of a sentence, each string hashed once: a
        template on one position (or on the span length) once per position
        (or length bucket), and a pair template such as ``s_pp=<tag i>~<tag
        j>`` as its head ``s_pp=<tag i>~`` once per i and its tail ``<tag
        j>`` once per j, joined by crc32's affine rule. Arcs and roots are
        left empty in division mode."""
        crc = zlib.crc32
        n = len(tokens)
        words = _pad([t.form for t in tokens])
        tags = _pad([t.pos for t in tokens])
        pos = range(1, n + 1)
        joint = self.mode == "joint"
        # what pair templates end in: tag p at p and word p at n + 2 + p for
        # p = 0..n+1, then a_hctx's "tag~next tag" at 2n + 3 + p, p = 1..n
        join = _joiner([*tags, *words,
                        *(tags[p] + b"~" + tags[p + 1] for p in pos)])
        word = n + 2
        layout = _layout(n)
        first, last, bucket = layout.first, layout.last, layout.bucket
        heads = [
            [crc(b"s_pp=" + tags[i] + b"~") for i in pos],
            [crc(b"s_out=" + tags[i - 1] + b"~") for i in pos],
            [crc(b"s_ww=" + words[i] + b"~") for i in pos],
            # s_lpp's head holds the span's length bucket too
            *([crc(tags[i] + b"~", crc(b"s_lpp=" + b + b"~")) for i in pos]
              for b in _BUCKETS),
        ]
        template = np.tile([0, 1, 2, 3], (len(bucket), 1))
        template[:, 3] += bucket
        pair = join(heads, (template, first[:, None]),
                    np.column_stack([last + 1, last + 2, word + last + 1,
                                     last + 1]))
        length = _crcs(b"s_len=" + b for b in _BUCKETS)
        start = _crcs(f for i in pos for f in (
            b"s_fw=" + words[i], b"s_fp=" + tags[i],
            b"s_prev=" + tags[i - 1])).reshape(n, 3)
        inside = _crcs([*(b"s_in=" + tags[i + 1] for i in pos),
                        b"s_in=<self>"])
        end = _crcs(f for j in pos for f in (
            b"s_lw=" + words[j], b"s_lp=" + tags[j],
            b"s_next=" + tags[j + 1])).reshape(n, 3)
        buckets = [_BUCKETS[b] for b in np.searchsorted(_EDGES, pos)]
        return Hashes(
            length=length, start=start, inside=inside, end=end, pair=pair,
            arc=(_arc_hashes(words, tags, join) if joint
                 else np.zeros((0, 11), dtype=np.int64)),
            root=_crcs(f for h in pos if joint for f in (
                b"r_w=" + words[h], b"r_p=" + tags[h],
                b"r_pos=" + buckets[h - 1] + b"~" + buckets[n - h])
                       ).reshape(-1, 3),
            keys=self._keys(length, start, inside, end, pair, layout))

    def _keyed(self, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct hashes among ``bases`` shifted under every label
        byte length, and each base's row among them."""
        keys, row = np.unique(bases, return_inverse=True)
        return _shift(self._shift, keys), row.reshape(bases.shape)

    def _keys(self, length: np.ndarray, start: np.ndarray,
              inside: np.ndarray, end: np.ndarray, pair: np.ndarray,
              layout: _Layout) -> Keys:
        """The :class:`Keys` of one sentence's span hashes."""
        single, row = self._keyed(np.concatenate(
            [length, start.ravel(), inside, end.ravel()]))
        n = len(start)
        at_length, at_start, at_inside, at_end = np.split(
            row, np.cumsum([len(length), 3 * n, n + 1]))
        at_start = at_start.reshape(n, 3)
        at_end = at_end.reshape(n, 3)
        first, last = layout.first, layout.last
        terms = np.stack([
            at_length[layout.bucket], at_start[first, 0], at_end[last, 0],
            at_start[first, 1], at_end[last, 1], at_start[first, 2],
            at_end[last, 2], at_inside[layout.inside]])
        step = self._block_spans
        blocks = [self._keyed(pair[lo:lo + step])
                  for lo in range(0, max(len(pair), 1), step)]
        return Keys(
            single=single, terms=terms,
            pairs=np.concatenate([shifts for shifts, _ in blocks]),
            pair_rows=np.concatenate([rows.T for _, rows in blocks], axis=1),
            blocks=np.cumsum([0] + [len(shifts) for shifts, _ in blocks[:-1]]))

    def _label_weights(self, shifts: np.ndarray) -> np.ndarray:
        """The weight of each distinct hash whose ``shifts`` are given under
        every label, (distinct, labels)."""
        idx = np.take(shifts, self._group, axis=1)
        idx ^= self._cat_crc
        return self.weights[idx]

    def score_table(self, tokens: Sequence[Token],
                    hashes: Hashes | None = None) -> ScoreTable:
        """Dense scores for one sentence from its :meth:`hashes` (built here
        when not given), made by this model or one with the same labels and
        dimension, whose keys they carry. Each distinct feature is weighted
        once per label:
        those of one position (or of the span length) for the sentence,
        the four pair templates a block of spans at a time, which bounds
        memory. The 12 terms of a span are added in the order of numpy's
        pairwise sum, ``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))+a8+a9+a10+a11``,
        so each score is what summing its 12 weights gives, to the bit."""
        h = self.hashes(tokens) if hashes is None else hashes
        keys = h.keys
        n = len(tokens)
        v = len(self.vocab)
        table = ScoreTable.zeros(n, self.vocab)
        single = self._label_weights(keys.single)
        # numpy's sum starts from +0.0, so twelve -0.0 weights sum to +0.0;
        # with 0.0 added to these terms, so do the sums below
        single += 0.0
        layout = _layout(n)
        cells = table.span.reshape(-1, v)
        step = self._block_spans
        bounds = [*keys.blocks, len(keys.pairs)]
        for block, lo in enumerate(range(0, len(layout.cell), step)):
            b = slice(lo, lo + step)
            terms = keys.terms[:, b]
            # ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)) over template k's weight
            # a_k, in place once an operand is spent: few arrays live at once
            total = single[terms[0]]
            total += single[terms[1]]
            part = single[terms[2]]
            part += single[terms[3]]
            total += part
            part = single[terms[4]]
            part += single[terms[5]]
            last_two = single[terms[6]]
            last_two += single[terms[7]]
            part += last_two
            total += part
            pair = self._label_weights(
                keys.pairs[bounds[block]:bounds[block + 1]])
            for rows in keys.pair_rows[:, b]:
                total += pair[rows]
            cells[layout.cell[b]] = total
        if self.mode == "joint":
            table.arc.reshape(-1)[layout.arc_cell] = self.weights[
                h.arc & self._mask].sum(-1)
            table.root[1:] = self.weights[h.root & self._mask].sum(-1)
        return table

    def feature_counts(self, tokens: Sequence[Token],
                       spans: list[tuple[int, int, str]],
                       arcs: list[tuple[int, int]], root: int,
                       hashes: Hashes | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Feature indices of an analysis, repeats kept: spans', then the
        arcs' and root's."""
        h = self.hashes(tokens) if hashes is None else hashes
        keys = h.keys
        n = len(tokens)
        first = np.array([i for i, _, _ in spans], dtype=int) - 1
        last = np.array([j for _, j, _ in spans], dtype=int) - 1
        cid = np.array([self.vocab.index(c) for _, _, c in spans], dtype=int)
        group = self._group[cid]
        # the span's row in Hashes.pair, and so in the keys' rows
        at = first * (2 * n + 1 - first) // 2 + last - first
        pair = keys.pair_rows[:, at] + keys.blocks[at // self._block_spans]
        span_idx = np.concatenate([keys.single[keys.terms[:, at], group],
                                   keys.pairs[pair, group]])
        span_idx ^= self._cat_crc[cid]
        arc_rows = [(c - 1) * (n - 1) + h_ - 1 - (h_ > c) for c, h_ in arcs]
        # root 0 (none) slices no row
        dep = np.concatenate([h.arc[arc_rows], h.root[root - 1:root]],
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
            if not np.isfinite(weights).all():
                raise ValueError("non-finite weights")
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


class _Averager:
    """Lazy accumulators for weight averaging, and two snapshot buffers."""

    def __init__(self, dim: int):
        self.acc = np.zeros(dim)
        self.last = np.zeros(dim, dtype=np.int64)
        self.touched = np.zeros(dim, dtype=bool)
        self.steps = 0
        self._spare: np.ndarray | None = None
        self.kept: np.ndarray | None = None

    def touch(self, idx: np.ndarray, w: np.ndarray) -> None:
        self.acc[idx] += (self.steps - self.last[idx]) * w[idx]
        self.last[idx] = self.steps
        self.touched[idx] = True

    def snapshot(self, w: np.ndarray) -> np.ndarray:
        """The averaged weights, ``(acc + (steps - last) * w) / steps``,
        written into the spare buffer, which the next snapshot overwrites
        unless :meth:`keep` takes it. A weight never touched is 0.0 in
        ``w`` and ``acc`` and averages to 0.0, which both buffers already
        hold there (the touched set only grows), so only touched weights
        are written."""
        if self._spare is None:
            self._spare = np.zeros(len(self.acc))
        out = self._spare
        t = np.flatnonzero(self.touched)
        out[t] = (self.acc[t] + (self.steps - self.last[t]) * w[t]
                  ) / self.steps
        return out

    def keep(self) -> np.ndarray:
        """Keep the last snapshot: it becomes ``kept``, and the buffer kept
        before it, if any, becomes the spare."""
        self.kept, self._spare = self._spare, self.kept
        return self.kept


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
        # the loss: 1 for every span label but the gold ones
        bonus = np.ones((n + 1, n + 1, len(vocab)))
        for i, j, label in gold[0]:
            bonus[i, j, vocab.index(label)] = 0.0
        hashes = model.hashes(tree.tokens)
        prepared.append((tree.tokens, hashes, gold,
                         model.feature_counts(tree.tokens, *gold, hashes),
                         bonus))

    avg = _Averager(config.dim)
    w = model.weights
    history: list[dict] = []
    best_dev = -1.0
    dev_hashes = [model.hashes(tree.tokens) for tree in dev or ()]
    dev_gold = ([project_constituents(t) for t in dev or ()],
                [project_dependencies(t) for t in dev or ()])
    rng = random.Random(config.seed)
    # span weights move by step * lam, arc and root weights by the rest;
    # division-mode parts have no arcs or root, so that delta stays empty
    scales = (config.step * lam, config.step * (1.0 - lam))

    for epoch in range(1, config.epochs + 1):
        objective = 0.0
        updates = 0
        rng.shuffle(prepared)
        for tokens, hashes, gold, gold_counts, bonus in prepared:
            table = model.score_table(tokens, hashes)
            aug = table.mixed(lam)
            aug.span += bonus
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
            f1, uas = _dev_scores(snap, dev, dev_hashes, dev_gold)
            record["dev_f1"] = f1
            record["dev_uas"] = uas
            if f1 + uas > best_dev:
                best_dev = f1 + uas
                avg.keep()
        history.append(record)
        if config.log is not None:
            parts = [f"epoch {epoch}", f"objective {objective:.3f}",
                     f"updates {updates}"]
            if dev is not None:
                parts.append(f"dev F1 {record['dev_f1']:.2f}")
                parts.append(f"dev UAS {record['dev_uas']:.2f}")
            config.log("  ".join(parts))

    model.weights = avg.kept if avg.kept is not None else avg.snapshot(w)
    return model, history


def _dev_scores(model: LinearModel, dev: Sequence[HpsgTree],
                hashes: list[Hashes], gold: tuple[list, list]
                ) -> tuple[float, float]:
    """Bracket F1 and UAS of ``model`` on the held-out trees, against
    their projections ``gold`` made once for every epoch."""
    pred = [decode_with_model(model, t.tokens, hashes=h)
            for t, h in zip(dev, hashes)]
    rep = evaluate.bracket_f1(gold[0], [project_constituents(t) for t in pred])
    rep2 = evaluate.attachment_scores(
        gold[1], [project_dependencies(t) for t in pred])
    return rep.f1, rep2.uas
