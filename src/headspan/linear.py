"""Feature-hashed linear scoring model with averaged perceptron training.

The model scores spans, arcs, and roots from sparse binary features hashed
into one flat weight vector. A feature is a template and its parts: words
and tags, each the crc32 of its string, or small integers such as a length
bucket. Its 64-bit key is the crc32 of the template's name with each part
mixed in turn, ``key = mix(key ^ part)``, where ``mix`` is splitmix64's
finalizer (:func:`_key`); so keys are the same in every process and on
every platform. An arc or root feature lands at its key's low bits, label
``c``'s span feature at ``(key ^ salt[c]) & mask`` with ``salt[c] =
mix(crc32(c))``: labelling a key is one XOR.

:meth:`LinearModel.hashes_many` hashes a batch of sentences in one pass,
each distinct word and tag once. One ``np.unique`` over keys that carry
their sentence (or pair block) in the high 32 bits gives every sentence its
distinct keys. Parsing (:func:`decode_many`) and training hash in windows
of at most ``_WINDOW_SPANS`` spans: a few dozen numpy calls a window, not a
few dozen a sentence.

The scorer gathers each distinct (feature, label) weight once: per
sentence (:meth:`LinearModel.score_table`, training) or per window of
:func:`decode_many`, within ``_GATHER_BYTES``. A span's 12 terms are added
in the order of numpy's pairwise sum, so every score is bit for bit what
summing them gives. Parsing and training read :meth:`LinearModel.summary`,
which reduces the same blocks over labels as they come, never holding the
V-wide span array (74 MB at 240 tokens and 166 labels).

Training is a structured perceptron with
loss-augmented decoding: at each sentence the decoder runs on scores where
every non-gold span label earns a bonus of 1, so the update targets the
highest-scoring wrong analysis within a margin; it is added to each block
before the block is reduced. Weight averaging uses the usual lazy
accumulators.

Two modes exist. In ``joint`` mode gold analyses are head-annotated trees,
span features pair with bare encoded labels, and arc and root features are
trained alongside under the interpolation weight. In ``division`` mode the
model scores division-encoded labels only and trains against the plain
span CKY decoder.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import evaluate
# bound here for the traced benchmark run, which wraps them by module name
# (perfbench/spans.py)
from .division import binarize_head_outward, to_division  # noqa: F401
from .fuse import project_constituents, project_dependencies
from .decode import (
    LEN_CAP,
    _finite,
    decode_division,
    decode_joint_mixed,
    decode_tables,
)
from .errors import (
    ModelFileError,
    ScoreFileError,
    SizeGuardError,
    StructureError,
)
from .scoring import (
    CategoryVocab,
    ScoreTable,
    SpanSummary,
    summarize,
    tree_parts,
    tree_spans,
)
from .trees import DependencyTree, HpsgTree, Token

MODES = ("joint", "division")
# files of other format versions, and the pickles of old ones, do not load
FORMAT_VERSION = 1


def _check_dim(dim: int) -> None:
    # a power of two makes every index a mask of a key's low 32 bits
    if dim < 2 or dim > 2 ** 32 or dim & (dim - 1):
        raise ValueError(
            f"dim must be a power of two from 2 to 2^32; got {dim}")


def _key(key, *parts: np.ndarray) -> np.ndarray:
    """``key`` with each of ``parts`` (uint64 arrays that broadcast) mixed
    in turn, ``key = mix(key ^ part)``, where ``mix`` is splitmix64's
    finalizer (Steele, Lea & Flood 2014); ``key`` may be an int."""
    for part in parts:
        key = key ^ part
        key ^= key >> 30
        key *= 0xBF58476D1CE4E5B9
        key ^= key >> 27
        key *= 0x94D049BB133111EB
        key ^= key >> 31
    return key


def _crcs(strings: Iterable[str]) -> np.ndarray:
    return np.array([zlib.crc32(s.encode()) for s in strings], np.uint64)


# length and distance buckets: value v falls in searchsorted(_EDGES, v)
_EDGES = np.array([1, 2, 3, 4, 5, 8, 12])
_EDGES.flags.writeable = False
# the templates whose first part is a tag, and those whose first is a word
_TAG_TEMPLATES = ("s_fp", "s_lp", "s_prev", "s_next", "s_in", "s_pp",
                  "s_out", "a_pp", "a_pw", "a_ppd", "a_cctx", "a_hctx",
                  "a_cp", "a_hp", "r_p")
_WORD_TEMPLATES = ("s_fw", "s_lw", "s_ww", "a_ww", "a_wp", "a_hw", "r_w")
# span-label scores computed per block, which bounds the working arrays
_BLOCK = 2 ** 16
# spans of the sentences hashed in one pass, and so those that decode_many
# hashes before decoding them, whose hashes it holds: on 5000 sentences of
# 3 to 16 tokens, 2^13 parses within 6% of 2^15 and 2^17 with 76 MB of peak
# RSS against 98 and 181, and 2^11 is 15% slower than 2^13, its length
# groups smaller
_WINDOW_SPANS = 2 ** 13
# bytes of a group's weights in decode_many: 4 times a block's pair keys'
# (4 * _BLOCK), and at 166 labels twice parse-wide's 2923 distinct keys
_GATHER_BYTES = 2 ** 23


class Hashes(NamedTuple):
    """One sentence's feature keys (:meth:`LinearModel.hashes_many`): its
    distinct span keys (a label's weight index is a key XOR its salt, so no
    column per label) and its arc and root keys, each masked to one model's
    dimension, rows counting positions from 0 for token 1. All arrays are
    int64, and may be views into arrays that a batch of sentences shares."""

    single: np.ndarray  # (distinct,) one-position and length keys
    terms: np.ndarray   # (8, spans) row in single of span templates 0..7
    pairs: np.ndarray   # (distinct,) pair keys, block by block
    pair_rows: np.ndarray  # (4, spans) row within the span's block's part
    blocks: np.ndarray  # (blocks,) where each block's part of pairs starts
    arc: np.ndarray     # (n(n-1), 11) every arc template, by child then head
    root: np.ndarray    # (n, 3) every root template


class _Layout(NamedTuple):
    """Index arrays of every span and arc of a length-n sentence: spans by
    start then end (the order of ``Hashes.terms``), arcs by child then head
    (that of ``Hashes.arc``); positions 0-based, cells flat in an (n+1,
    n+1) table."""

    first: np.ndarray
    last: np.ndarray
    bucket: np.ndarray   # length bucket
    inside: np.ndarray   # s_in row: the start, or n for <self>
    cell: np.ndarray
    child: np.ndarray
    head: np.ndarray
    arc_cell: np.ndarray
    distance: np.ndarray  # 8 * (head < child) + distance bucket
    root_pos: np.ndarray  # (n,) the head's r_pos row: 8 * left + right bucket


@functools.lru_cache(maxsize=16)
def _layout(n: int) -> _Layout:
    """The :class:`_Layout` of length n; shared, so read-only."""
    first, last = np.triu_indices(n)
    child, head = np.nonzero(~np.eye(n, dtype=bool))
    d = head - child
    pos = np.arange(1, n + 1)
    out = _Layout(first, last, np.searchsorted(_EDGES, last - first + 1),
                  np.where(first < last, first, n),
                  (first + 1) * (n + 1) + last + 1, child, head,
                  (child + 1) * (n + 1) + head + 1,
                  8 * (d < 0) + np.searchsorted(_EDGES, np.abs(d)),
                  8 * np.searchsorted(_EDGES, pos)
                  + np.searchsorted(_EDGES, n + 1 - pos))
    for a in out:
        a.flags.writeable = False
    return out


def _batches(sentences: Sequence[Sequence], budget: int
             ) -> Iterator[tuple[int, int]]:
    """(lo, hi) bounds of consecutive sentences with at most ``budget``
    spans together; a longer sentence is a batch alone."""
    lo = total = 0
    for hi, tokens in enumerate(sentences):
        spans = len(tokens) * (len(tokens) + 1) // 2
        if hi > lo and total + spans > budget:
            yield lo, hi
            lo, total = hi, 0
        total += spans
    if lo < len(sentences):
        yield lo, len(sentences)


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
        if not 0.0 < self.step < math.inf:
            raise ValueError(
                f"step must be positive and finite, got {self.step}")
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
        # each label's salt, mix(crc32(label)), masked like the keys
        self._salt = (_key(0, _crcs(vocab)) & self._mask).astype(np.int64)
        # spans per block of hashes, gathers, summaries, score_table and
        # training's feature counts, which bounds their working arrays
        self._block_spans = max(1, _BLOCK // len(vocab))

    def hashes_many(self, sentences: Sequence[Sequence[Token]]
                    ) -> list[Hashes]:
        """The :class:`Hashes` of every sentence, made in one pass.

        Each template's first mix is made once per distinct word or tag, so
        a template on one position is a gather and each further part one
        mix per span or arc. Sentences are laid out shortest first, so that
        the spans and arcs of one length are one broadcast. One
        ``np.unique`` over masked keys that carry the sentence (or the pair
        block) in their high 32 bits makes every sentence's span keys.
        Arcs and roots are left empty in division mode."""
        if not sentences:
            return []
        count = len(sentences)
        joint = self.mode == "joint"
        order = sorted(range(count), key=lambda s: len(sentences[s]))
        # padded tags and words in that order, as ids of the distinct ones
        tag_at = {"<s>": 0, "</s>": 1}
        word_at = dict(tag_at)
        tag_seq: list[int] = []
        word_seq: list[int] = []
        for s in order:
            tag_seq += [0, *(tag_at.setdefault(t.pos, len(tag_at))
                             for t in sentences[s]), 1]
            word_seq += [0, *(word_at.setdefault(t.form, len(word_at))
                              for t in sentences[s]), 1]
        tags = np.array(tag_seq, dtype=np.int64)
        words = np.array(word_seq, dtype=np.int64)
        # the spans, arcs and tokens of the batch as positions in the padded
        # sequence and rows among the tokens, one length at a time
        cols: dict[str, list] = {k: [] for k in (
            "i", "j", "first", "last", "bucket", "inside", "length", "block",
            "tok", "in_pos", "child", "head", "distance", "root_pos")}
        step = self._block_spans
        sizes = []                          # (n, spans, blocks) by sentence
        laid = q0 = o0 = k0 = 0
        for n, group in itertools.groupby(len(sentences[s]) for s in order):
            many = len(list(group))
            lay = _layout(n)
            spans = len(lay.first)
            blocks = -(-max(spans, 1) // step)
            b = np.arange(many)[:, None]
            q = q0 + (n + 2) * b + 1        # position of each first token
            o = o0 + n * b                  # and its row among the tokens
            tok = np.arange(n)
            for key, value in (
                    ("i", q + lay.first), ("j", q + lay.last),
                    ("first", o + lay.first), ("last", o + lay.last),
                    ("bucket", np.broadcast_to(lay.bucket, (many, spans))),
                    ("inside", o + laid + b + lay.inside),
                    ("length", 8 * (laid + b) + lay.bucket),
                    ("block", k0 + blocks * b + np.arange(spans) // step),
                    ("tok", q + tok),
                    # s_in of the next tag, and s_in=<self> past the end
                    ("in_pos", np.hstack([q + 1 + tok, np.full(
                        (many, 1), len(tag_seq))]))):
                cols[key].append(value)
            if joint:
                cols["child"].append(q + lay.child)
                cols["head"].append(q + lay.head)
                cols["distance"].append(
                    np.broadcast_to(lay.distance, (many, len(lay.child))))
                cols["root_pos"].append(
                    np.broadcast_to(lay.root_pos, (many, n)))
            sizes += [(n, spans, blocks)] * many
            laid += many
            q0 += (n + 2) * many
            o0 += n * many
            k0 += blocks * many
        ix = {k: np.concatenate(v, axis=None) for k, v in cols.items() if v}

        i, j, tok = ix["i"], ix["j"], ix["tok"]
        # the values of the tags, <self> (s_in of a one-token span) and the
        # words; the keys or first mixes of each template under each value
        tv = _crcs([*tag_at, "<self>"])
        wv = _crcs(word_at)
        (s_fp, s_lp, s_prev, s_next, s_in, s_pp, s_out, a_pp, a_pw, a_ppd,
         a_cctx, a_hctx, a_cp, a_hp, r_p) = _key(
            _crcs(_TAG_TEMPLATES)[:, None], tv)
        s_fw, s_lw, s_ww, a_ww, a_wp, a_hw, r_w = _key(
            _crcs(_WORD_TEMPLATES)[:, None], wv)
        small = np.arange(64, dtype=np.uint64)
        s_len, a_d, r_pos = _key(_crcs(["s_len", "a_d", "r_pos"])[:, None],
                                 small)
        s_lpp = _key(zlib.crc32(b"s_lpp"), small[:8, None], tv)
        tag_i, tag_j = tags[i], tags[j]
        t_j = tv[tag_j]
        pair = np.column_stack([
            _key(s_pp[tag_i], t_j), _key(s_out[tags[i - 1]], tv[tags[j + 1]]),
            _key(s_ww[words[i]], wv[words[j]]),
            _key(s_lpp[ix["bucket"], tag_i], t_j)])
        tag_t, word_t = tags[tok], words[tok]
        start = np.column_stack([s_fw[word_t], s_fp[tag_t],
                                 s_prev[tags[tok - 1]]])
        end = np.column_stack([s_lw[word_t], s_lp[tag_t],
                               s_next[tags[tok + 1]]])
        inside = s_in[np.append(tags, len(tag_at))[ix["in_pos"]]]
        arc = np.zeros((0, 11), dtype=np.uint64)
        root = np.zeros((0, 3), dtype=np.uint64)
        if joint:
            child, head, dist = ix["child"], ix["head"], ix["distance"]
            tag_c, tag_h = tags[child], tags[head]
            word_c, word_h = words[child], words[head]
            t_h, w_h = tv[tag_h], wv[word_h]
            arc = np.column_stack([
                _key(a_ww[word_c], w_h), _key(a_pp[tag_c], t_h),
                _key(a_wp[word_c], t_h), _key(a_pw[tag_c], w_h),
                a_d[dist],
                _key(a_ppd[tag_c], t_h, small[dist]),
                _key(a_cctx[tags[child - 1]], tv[tag_c], t_h),
                _key(a_hctx[tag_c], t_h, tv[tags[head + 1]]),
                a_cp[tag_c], a_hp[tag_h], a_hw[word_h]])
            root = np.column_stack([r_w[word_t], r_p[tag_t],
                                    r_pos[ix["root_pos"]]])
        # every key masked to the dimension, once
        length, start, inside, end, pair, arc, root = (
            (a & np.uint64(self._mask)).view(np.int64)
            for a in (s_len[:8], start, inside, end, pair, arc, root))

        # one np.unique over every sentence's one-position and length keys
        # (sentence id above them) and pair keys (block id)
        ns = np.array([n for n, _, _ in sizes], dtype=np.int64)
        sid = np.arange(count, dtype=np.int64)
        tok_sid = np.repeat(sid, ns)[:, None] << 32
        bases = np.concatenate([
            (sid[:, None] << 32 | length).ravel(), (tok_sid | start).ravel(),
            np.repeat(sid, ns + 1) << 32 | inside, (tok_sid | end).ravel(),
            ((count + ix["block"][:, None]) << 32 | pair).ravel()])
        keys, row = np.unique(bases, return_inverse=True)
        group = bases >> 32
        bounds = np.concatenate([[0], np.cumsum(np.bincount(
            keys >> 32, minlength=count + k0))])
        row = row.reshape(-1) - bounds[group]
        at_length, at_start, at_inside, at_end, at_pair = np.split(
            row, np.cumsum([8 * count, 3 * len(tok), len(tok) + count,
                            3 * len(tok)]))
        at_start = at_start.reshape(-1, 3)
        at_end = at_end.reshape(-1, 3)
        first, last = ix["first"], ix["last"]
        terms = np.stack([
            at_length[ix["length"]], at_start[first, 0], at_end[last, 0],
            at_start[first, 1], at_end[last, 1], at_start[first, 2],
            at_end[last, 2], at_inside[ix["inside"]]])
        pair_rows = at_pair.reshape(-1, 4)
        keys &= self._mask              # without the sentence or block id

        out: list[Hashes] = [None] * count  # type: ignore[list-item]
        edges = bounds.tolist()
        o = m = a = k = 0
        for b, (s, (n, spans, blocks)) in enumerate(zip(order, sizes)):
            p = count + k
            out[s] = Hashes(
                single=keys[edges[b]:edges[b + 1]],
                terms=terms[:, m:m + spans],
                pairs=keys[edges[p]:edges[p + blocks]],
                pair_rows=pair_rows[m:m + spans].T,
                blocks=bounds[p:p + blocks] - edges[p],
                arc=arc[a:a + n * (n - 1)],
                root=root[o:o + n] if joint else root)
            o += n
            m += spans
            a += n * (n - 1) if joint else 0
            k += blocks
        return out

    def _weigh(self, keys: np.ndarray) -> np.ndarray:
        """Each key's (keys, V) weights plus 0.0, as numpy's sums of -0.0
        give +0.0; ``_block_spans`` keys at a time in "clip" mode (masked
        keys never clip), unbuffered and faster than one gather."""
        out = np.empty((len(keys), len(self.vocab)))
        step = self._block_spans
        for lo in range(0, len(keys), step):
            self.weights.take(keys[lo:lo + step, None] ^ self._salt,
                              out=out[lo:lo + step], mode="clip")
        out += 0.0
        return out

    def _span_blocks(self, h: Hashes, n: int, gathered: tuple | None = None
                     ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Raw span scores a block at a time: the block's flat cells in an
        (n+1, n+1) table and their (spans, labels) scores. Each distinct
        feature is weighted once per label: in ``gathered``, a group's table
        (:meth:`_gathers`) and this sentence's rows in it, or else those of
        one position (or the span length) for the sentence and the four
        pair templates for the block. A span's 12 terms are added in the
        order of numpy's pairwise sum,
        ``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))+a8+a9+a10+a11``, so each
        score is what summing its 12 weights gives, to the bit."""
        single, rows = gathered or (self._weigh(h.single), None)
        pair, step = single, self._block_spans
        bounds = [*h.blocks, len(h.pairs)]
        cells = _layout(n).cell
        for block, lo in enumerate(range(0, len(cells), step)):
            b = slice(lo, lo + step)
            terms, pair_rows = h.terms[:, b], h.pair_rows[:, b]
            if rows is None:
                pair = self._weigh(h.pairs[bounds[block]:bounds[block + 1]])
            else:
                terms = rows.take(terms)
                pair_rows = rows.take(pair_rows + (len(h.single)
                                                   + bounds[block]))
            # template k's weights a_k, added in place once an operand is
            # spent; take(rows, 0) gathers faster than indexing does
            total = single.take(terms[0], 0)
            total += single.take(terms[1], 0)
            part = single.take(terms[2], 0)
            part += single.take(terms[3], 0)
            total += part
            part = single.take(terms[4], 0)
            part += single.take(terms[5], 0)
            last_two = single.take(terms[6], 0)
            last_two += single.take(terms[7], 0)
            part += last_two
            total += part
            for at in pair_rows:
                total += pair.take(at, 0)
            yield cells[b], total

    def _gathers(self, hashes: Sequence[Hashes]) -> Iterator[tuple]:
        """Consecutive groups (lo, hi) of ``hashes`` and each sentence's
        ``gathered``: a table of the group's keys' weights, within
        ``_GATHER_BYTES``, and its keys' rows; None if alone it exceeds."""
        cap = _GATHER_BYTES // (8 * len(self.vocab))
        keys = [np.concatenate([h.single, h.pairs]) for h in hashes]
        lo = 0
        while lo < len(keys):
            ends = np.cumsum([len(k) for k in keys[lo:]])
            distinct, first, rows = np.unique(np.concatenate(
                keys[lo:]), return_index=True, return_inverse=True)
            # each sentence's keys first seen there, and so how many fit
            new = np.bincount(np.searchsorted(ends, first, "right"),
                              minlength=len(ends))
            size = int(np.searchsorted(np.cumsum(new), cap, "right"))
            if size:
                # the group's keys renumbered; no local keeps its table
                kept = first < ends[size - 1]
                rows = (np.cumsum(kept) - 1)[rows[:ends[size - 1]]]
                yield lo, lo + size, [*zip(itertools.repeat(self._weigh(
                    distinct[kept])), np.split(rows, ends[:size - 1]))]
            else:
                yield lo, lo + 1, [None]
            lo += max(size, 1)

    def _dep_scores(self, h: Hashes, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Raw (n+1, n+1) arc and (n+1,) root scores, zero in division
        mode."""
        arc = np.zeros((n + 1, n + 1))
        root = np.zeros(n + 1)
        if self.mode == "joint":
            arc.reshape(-1)[_layout(n).arc_cell] = \
                self.weights[h.arc].sum(-1)
            root[1:] = self.weights[h.root].sum(-1)
        return arc, root

    def score_table(self, tokens: Sequence[Token],
                    hashes: Hashes) -> ScoreTable:
        """Dense scores for one sentence from its hashes, made by
        :meth:`hashes_many` of this model or one with the same labels and
        dimension, whose keys they carry."""
        n, v = len(tokens), len(self.vocab)
        table = ScoreTable(self.vocab, n, np.zeros((n + 1, n + 1, v)),
                           *self._dep_scores(hashes, n))
        for cells, block in self._span_blocks(hashes, n):
            table.span.reshape(-1, v)[cells] = block
        return table

    def summary(self, tokens: Sequence[Token], hashes: Hashes,
                lam: float = 1.0, gathered=None) -> SpanSummary:
        """:meth:`ScoreTable.summary` of :meth:`score_table` on the same
        hashes (``gathered`` or not), bit for bit, without the table."""
        n = len(tokens)
        return summarize(self.vocab, n, self._span_blocks(
            hashes, n, gathered), *self._dep_scores(hashes, n), lam)

    def feature_counts(self, tokens: Sequence[Token],
                       spans: list[tuple[int, int, str]],
                       arcs: list[tuple[int, int]], root: int,
                       hashes: Hashes) -> tuple[np.ndarray, np.ndarray]:
        """Feature indices of an analysis under its sentence's hashes,
        repeats kept: spans', then the arcs' and root's."""
        n = len(tokens)
        first = np.array([i for i, _, _ in spans], dtype=int) - 1
        last = np.array([j for _, j, _ in spans], dtype=int) - 1
        cid = np.array([self.vocab.index(c) for _, _, c in spans], dtype=int)
        # the span's column in the keys' rows, by start then end
        at = first * (2 * n + 1 - first) // 2 + last - first
        pair = (hashes.pair_rows[:, at]
                + hashes.blocks[at // self._block_spans])
        span_idx = np.concatenate([hashes.single[hashes.terms[:, at]],
                                   hashes.pairs[pair]])
        span_idx ^= self._salt[cid]
        arc_rows = [(c - 1) * (n - 1) + h - 1 - (h > c) for c, h in arcs]
        # root 0 (none) slices no row
        dep = np.concatenate([hashes.arc[arc_rows],
                              hashes.root[root - 1:root]], axis=None)
        return span_idx.ravel(), dep

    def save(self, path: str) -> None:
        """Write the model as an uncompressed ``.npz`` of its JSON header and
        its weights; equal models write equal bytes."""
        header = json.dumps({"version": FORMAT_VERSION, "dim": self.dim,
                             "mode": self.mode, "lam": self.lam,
                             "categories": [c for c in self.vocab][2:]})
        # written through a handle, so that numpy adds no ".npz" to the path
        with open(path, "wb") as fh:
            np.savez(fh, header=np.array(header), weights=self.weights)

    @classmethod
    def load(cls, path: str) -> "LinearModel":
        """Read a saved model. The file is read as a zip of ``.npy`` arrays
        without pickle, so it can hold data and no code."""
        try:
            with (open(path, "rb") as fh,
                  np.lib.npyio.NpzFile(fh, allow_pickle=False) as archive):
                if sorted(archive.files) != ["header", "weights"]:
                    raise ValueError("unexpected contents")
                header = json.loads(str(archive["header"]))
                weights = archive["weights"]
            if header["version"] != FORMAT_VERSION:
                raise ValueError(
                    f"unknown format version {header['version']!r}")
            if (set(header) != {"version", "dim", "mode", "lam",
                                "categories"}
                    or not 0.0 <= header["lam"] <= 1.0
                    or weights.dtype != np.float64
                    or weights.shape != (header["dim"],)):
                raise ValueError("unexpected contents")
            if not np.isfinite(weights).all():
                raise ValueError("non-finite weights")
            return cls(vocab=CategoryVocab(header["categories"]),
                       dim=header["dim"], mode=header["mode"],
                       lam=header["lam"], weights=weights)
        except OSError:
            raise
        except Exception as exc:
            # outside bytes can fail to unzip, parse or build in many ways;
            # each one is a file that is not a model
            raise ModelFileError(f"{path}: not a model file ({exc})") from None


def decode_many(model: LinearModel, sentences: Sequence[Sequence[Token]],
                route: str | None = None, lam: float | None = None,
                hashes: Sequence[Hashes] | None = None
                ) -> Iterator[tuple[HpsgTree | DependencyTree, list[str]]]:
    """Parse sentences with a trained model: :func:`decode_tables` along
    ``route`` (default the model's mode) under ``lam`` (default the
    model's), each sentence summarized when it is decoded. Each window of
    ``_WINDOW_SPANS`` spans is hashed in one :meth:`LinearModel.hashes_many`
    call (unless ``hashes`` are given), its weights gathered once
    (:meth:`LinearModel._gathers`) and decoded, which bounds what is held.
    As there, a refusal is raised in its sentence's turn."""
    route = model.mode if route is None else route
    lam = model.lam if lam is None else lam
    for lo, hi in _batches(sentences, _WINDOW_SPANS):
        window = sentences[lo:hi]
        made = (model.hashes_many(window) if hashes is None
                else hashes[lo:hi])
        for a, b, gathered in model._gathers(made):
            # sentence k's summary, made when it is decoded
            group, hashed = window[a:b], made[a:b]
            yield from decode_tables(group, lambda k, w: model.summary(
                group[k], hashed[k], w, gathered[k]), route, lam)
            del gathered


def decode_with_model(model: LinearModel, tokens: Sequence[Token],
                      lam: float | None = None) -> HpsgTree:
    """Parse one sentence with a trained model, honoring its mode."""
    tree, _ = next(decode_many(model, [tokens], lam=lam))
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


# finite weights can sum past the float range: the summary or the decode
# then refuses the sentence, and numpy's overflow warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train_linear(trees: Sequence[HpsgTree], config: TrainConfig | None = None,
                 dev: Sequence[HpsgTree] | None = None
                 ) -> tuple[LinearModel, list[dict]]:
    """Averaged perceptron training over gold head-annotated trees.

    Sentences are visited in an order reshuffled every epoch from
    ``config.seed``, so runs with equal configuration are bit-for-bit
    reproducible. Returns the trained model (averaged weights; the best dev
    epoch's weights when ``dev`` is given) and one history record per epoch
    with the hinge objective, the update count, and dev scores when
    available. A sentence whose scores or decoded score are not finite is
    refused, named by its epoch and its ordinal among ``trees`` then
    ``dev``.
    """
    if config is None:
        config = TrainConfig()
    division_mode = config.mode == "division"
    for ordinal, tree in enumerate([*trees, *(dev or ())], start=1):
        if not division_mode and len(tree) > LEN_CAP:
            raise SizeGuardError(
                f"sentence {ordinal}: {len(tree)} tokens, above the joint "
                f"decoder's cap of {LEN_CAP}; train with --mode division")
    golds = []
    for ordinal, tree in enumerate(trees, start=1):
        try:
            golds.append((tree_spans(tree, True), [], 0) if division_mode
                         else tree_parts(tree))
        except StructureError as exc:
            raise StructureError(f"sentence {ordinal}: {exc}") from None
    # from_trees' vocabulary, without encoding each tree again
    vocab = CategoryVocab.from_spans(spans for spans, _, _ in golds)
    model = LinearModel(vocab=vocab, dim=config.dim, mode=config.mode,
                        lam=config.lam)
    lam = 1.0 if division_mode else config.lam

    # every sentence's feature hashes serve all epochs and dev passes, made
    # a window at a time as decode_many makes them
    sentences = [tree.tokens for tree in [*trees, *(dev or ())]]
    all_hashes = [h for lo, hi in _batches(sentences, _WINDOW_SPANS)
                  for h in model.hashes_many(sentences[lo:hi])]
    dev_hashes = all_hashes[len(trees):]
    prepared = []
    for ordinal, (tree, hashes, gold) in enumerate(
            zip(trees, all_hashes, golds), start=1):
        n = len(tree)
        # the gold cells, which earn no loss, as flat cells and label ids,
        # and the raw scores summarize gives them each epoch
        loss = (np.array([i * (n + 1) + j for i, j, _ in gold[0]],
                         dtype=np.int64),
                np.array([vocab.index(label) for _, _, label in gold[0]],
                         dtype=np.int64), np.zeros(len(gold[0])))
        prepared.append((ordinal, tree.tokens, hashes, gold,
                         model.feature_counts(tree.tokens, *gold, hashes),
                         loss))

    avg = _Averager(config.dim)
    w = model.weights
    history: list[dict] = []
    best_dev = -1.0
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
        for ordinal, tokens, hashes, gold, gold_counts, loss in prepared:
            n = len(tokens)
            try:
                arc, root = model._dep_scores(hashes, n)
                aug = summarize(vocab, n, model._span_blocks(hashes, n),
                                arc, root, lam, loss)
                if division_mode:
                    spans, pred_score = decode_division(aug)
                    pred = (spans, [], 0)
                else:
                    pred, pred_score = decode_joint_mixed(aug)
                _finite(pred, pred_score)
            except ScoreFileError as exc:
                raise ScoreFileError(
                    f"epoch {epoch}, sentence {ordinal}: {exc}") from None
            # the gold score, summed as parts_score sums it
            _, g_arcs, g_root = gold
            dep = (sum(arc[c, h] for c, h in g_arcs) + root[g_root]
                   if g_root else 0.0)
            violation = pred_score - (lam * sum(loss[2]) + (1.0 - lam) * dep)
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
            pred_dev: list[HpsgTree] = []
            try:
                for tree, _ in decode_many(snap, [t.tokens for t in dev],
                                           hashes=dev_hashes):
                    pred_dev.append(tree)
            except ScoreFileError as exc:
                raise ScoreFileError(
                    f"epoch {epoch}, sentence "
                    f"{len(trees) + len(pred_dev) + 1}: {exc}") from None
            f1, uas = _dev_scores(pred_dev, dev_gold)
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


def _dev_scores(pred: Sequence[HpsgTree], gold: tuple[list, list]
                ) -> tuple[float, float]:
    """Bracket F1 and UAS of the held-out trees ``pred``, against their
    gold projections ``gold`` made once for every epoch."""
    rep = evaluate.bracket_f1(gold[0], [project_constituents(t) for t in pred])
    rep2 = evaluate.attachment_scores(
        gold[1], [project_dependencies(t) for t in pred])
    return rep.f1, rep2.uas
