"""Exact decoders over span, arc, and root scores.

Decoders read spans through a :class:`~headspan.scoring.SpanSummary`, never
the V-wide array: a span's label is chosen apart from its split, as in
Stern, Andreas & Klein (2017) and Kitaev & Klein (2018).

``decode_joint`` finds the best head-annotated tree under the interpolated
objective: ``lam`` times the sum of labeled span scores of the binarized
encoding plus ``1 - lam`` times the sum of arc scores and the root score.
Its chart is indexed by (start, end, head) and scores each span two ways:
as a complete dependent (a real category is then required on spans longer
than one token) and as a continuation of a phrase still collecting
dependents (the empty category is then allowed). The two differ by a
per-span label constant, the summary's two best scores, added once when
the span is finished. Each merge of two adjacent cells realizes exactly one
arc between their heads, so the dependency part is accumulated merge by
merge.

The merge uses the hooks of Eisner & Satta (1999): the best way to attach
a finished span (i, k) to an outside head h, max over its heads r of the
span's complete score plus arc[r, h], does not depend on the continuation
it joins. It is computed once when (i, k) is finished. So every cell holds
what the next merge reads: slot [i, j, h] the continuation score of (i, j)
headed by h where i <= h <= j and the hook onto h elsewhere, and slot [j,
i, h], in the half where no span lies (j > i), its complete score. A
single token's [i, i, i] is both, as its label constants add nothing.

The chart is filled one span length L at a time. Span (i, i+L-1) finds
each of its operands at a fixed offset from i (N^2 + N + 1) in the
C-ordered chart of side N = n + 1, so one strided view holds an operand for
all n - L + 1 spans of the length. Their candidates form one (spans, L-1,
L) array over split points k and heads h, the sum of two views: the hook
of the dependent's span and the continuation of the head's, maxed over k.
Addition commutes, so each sum has the bits it had when the label
constant was added at each candidate. The hooks of the length are one max
over a view of the arcs into the heads outside each span. Long lengths are
taken in steps of a few spans, so that a step's arrays stay in cache. Time
is O(n^4), sum over L of (n-L+1)(L-1)L candidates, with one Python
iteration per length or step. Memory is O(n^3) at 12 bytes per cell, a
float64 for the continuation, hook or complete score and an int32 split
point, plus the arrays of one step. The dependent's head is not stored;
the walk back recomputes it from a complete slice and the arcs in O(n)
per node and yields the derivation's parts: labeled spans, arcs and root.

What a fill computes without the scores is its plan: per length, each
operand's byte offset, shape and strides and the index views of the
readback and of the hook store, then the exact candidate count. A step's
offsets are its length's plus its first span times the first stride, so a
plan has one entry per length, not per step. Plans are built on first
use, one per (n, step budget), and the last 32 are kept. A short
sentence's fill is a few dozen numpy calls a length, so working out its
views each time cost it about 30% at 3 to 16 tokens. At n = 240 a plan
holds about 0.5 MB and builds in a few milliseconds, a fraction of a
percent of that length's fill.

Sentences of one length can share those numpy calls: given a batch, the
fill lays the charts one after another and gives every view a leading
batch axis, one more stride, and the readback and hook store one more
index array. A single sentence takes the same plan without the batch axis.
``decode_tables`` decodes a list of sentences a length at a time, filling
at most ``batch_size(n)`` charts together: as many as keep their summaries
and charts within ``_BATCH_BYTES`` (4 MB), which at every length up to
``LEN_CAP`` also keeps each length whole within the step budget. Measured
by ``tools/fill_timing.py --batch``, a batch of 8 fills a sentence of 3 to
16 tokens 2 to 5 times faster than one at a time, and a batch of 2 about
1.2 times at 40 to 48 tokens. The budget leaves one chart a fill from 54
tokens.

``decode_division`` is a plain span-label CKY over the same tables (arcs
ignored), ``decode_eisner`` a first-order projective dependency decoder
(spans ignored), both filled a length at a time through views in the same
way, and ``brute_force`` an exhaustive re-derivation, which reduces the
mixed table itself, used to certify the charts on small sentences. Every
decoder that labels spans returns them: the span decoder its labeled
spans, the joint chart and brute force their parts. One builder in
``division`` makes the trees: ``from_parts`` from bare spans and arcs,
``from_division`` from ``H_``-marked spans. ``decode_tables`` is the one
driver from scores to trees, for a file's sentences, a table's or the
linear model's: it picks one of the three routes, sends joint sentences
above ``LEN_CAP`` tokens to the span route, asks for each sentence's
summary under the route's weight, fills the joint charts in batches and
raises a refusal in its sentence's turn. The span route reads heads from
``H_`` marks where the labels carry them, and otherwise fuses its
brackets with the best projective arcs. ``decode_table`` is its
one-sentence form over a :class:`ScoreTable`.

Ties are broken deterministically everywhere: smaller split point first,
then smaller sub-head, then smaller category id. A span's left dependent
reading wins over its right dependent reading at equal score because its
split points are all smaller.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import division
from .errors import ScoreFileError, SizeGuardError
from .fuse import fuse, project_constituents
from .scoring import Parts, ScoreTable, SpanSummary
from .trees import DependencyTree, HpsgTree, Token


@dataclass
class JointChart:
    """Filled joint chart over spans (i, j) and heads h, indexed [i, j, h].

    ``cube`` holds three kinds of score in one float64 array. At heads
    inside a span (i <= h <= j) ``cube[i, j, h]`` is the best score of
    span (i, j) headed by ``h`` continuing a phrase still collecting
    dependents, its best label of all on top (the empty category allowed);
    ``cube[j, i, h]`` is the same span standing as a finished dependent,
    its best real label on top. A single token's ``cube[i, i, i]`` is both.
    At heads outside the span ``cube[i, j, h]`` is the hook: the best
    finished subtree of (i, j) attached as a dependent of ``h``, max over r
    of its complete score headed by r plus ``arc[r, h]``. Every other cell
    is -inf. ``split[i, j, h]`` is the boundary between dependent and
    continuation of the best split; the dependent lies left of the head
    when h > split. The dependent's own head is recomputed by
    :meth:`backpointer`, not stored. ``candidates`` counts the (split,
    head) pairs the fill compared, sum over lengths L of (n-L+1)(L-1)L:
    exact, and quartic in n.
    """

    cube: np.ndarray
    split: np.ndarray
    arc: np.ndarray
    candidates: int

    def complete(self, i: int, j: int) -> np.ndarray:
        """Scores of span (i, j) as a finished dependent, heads i..j."""
        return self.cube[j, i, i:j + 1]

    def backpointer(self, i: int, j: int, h: int) -> tuple[int, int, int]:
        """(side, dependent head, split) of the best split of (i, j, h).

        Side 0 attaches the dependent on the left, 1 on the right. The
        dependent's head is the first head that attains the hook's maximum.
        """
        k = int(self.split[i, j, h])
        side, a, b = (0, i, k) if h > k else (1, k + 1, j)
        hooked = self.complete(a, b) + self.arc[a:b + 1, h]
        return side, a + int(np.argmax(hooked)), k


def _placeholder_tokens(n: int) -> list[Token]:
    return [Token(index=i, form=f"w{i}", pos="X") for i in range(1, n + 1)]


def _view(a: np.ndarray, offset: int, shape: tuple, strides: tuple
          ) -> np.ndarray:
    """Affine view of the C-contiguous array ``a``, offset and strides
    counted in elements. numpy refuses a view that reaches outside ``a``.
    """
    size = a.itemsize
    return np.ndarray(shape, a.dtype, a, offset * size,
                      [s * size for s in strides])


# candidates per step of the joint fill: the spans of one length are taken
# in groups whose few float64 arrays of this many entries (0.5 MB each) stay
# in a core's cache; at 240 tokens whole lengths ran 2x slower
_STEP_CANDIDATES = 1 << 16
_F8 = np.dtype(np.float64)
_I4 = np.dtype(np.int32)


class _LengthPlan(NamedTuple):
    """How a fill takes the n - L + 1 spans of one length L, ``step`` at a
    time. ``offsets`` are byte offsets of the step that starts at span 1,
    in the order done, split, a, b, label constants, complete, arcs; a step
    starting ``lo`` spans later adds ``lo`` times their first stride.
    ``full`` and ``last`` are the shapes of a full step and of the last one:
    cell, operand, label constant and arcs. The index views cover the whole
    length; a step slices its rows."""

    length: int
    spans: int
    step: int
    offsets: tuple[int, ...]
    full: tuple[tuple[int, ...], ...]
    last: tuple[tuple[int, ...], ...]
    rows: np.ndarray      # (step, 1) and (last step, 1) readback rows
    rows_last: np.ndarray
    heads_in: np.ndarray  # (L,) readback heads
    starts: np.ndarray    # (spans, 1) first token of each span
    ends: np.ndarray      # (spans, 1) last token of each span
    heads: np.ndarray     # (spans, n - L) heads outside each span


class _FillPlan(NamedTuple):
    """Everything a joint fill of length n computes without the scores:
    one :class:`_LengthPlan` per span length, the strides in bytes that
    every length shares, those between the charts of a batch, and the
    exact candidate count of one chart."""

    lengths: tuple[_LengthPlan, ...]
    strides: tuple[tuple[int, ...], ...]
    batch_strides: tuple[int, ...]
    candidates: int


# plans kept, each for one (n, step budget); under 1 MB at n = 240
_PLANS_KEPT = 32


@functools.lru_cache(maxsize=_PLANS_KEPT)
def _fill_plan(n: int, budget: int) -> _FillPlan:
    """The fill plan of length-n sentences with ``budget`` candidates per
    step. Span (i, j) finds its operands at a fixed offset from i (N^2 + N
    + 1) in the C-ordered chart of side N = n + 1, so each operand of a step
    is one strided view, and a length's offsets are affine in its first
    span. Its index arrays are views of three shared read-only ones."""
    size = n + 1
    idx = np.arange(1, size)
    cols = np.arange(size)
    # heads 1..n twice over: the n - L heads outside span (i, j), from j + 1
    # round to i - 1, are n - L consecutive entries from column j
    heads_twice = np.concatenate([idx, idx])
    for a in (idx, cols, heads_twice):
        a.flags.writeable = False
    diag = size * size + size + 1     # from span (i, j) to (i+1, j+1)
    chart = 8 * diag
    strides = (
        (chart, 8),                  # done: cube[i', j', i'+h'], and
                                     # complete: cube[j', i', i'+h']
        (4 * diag, 4),               # split[i', j', i'+h']
        (chart, 8 * size, 8),        # a: cube[i', i'+k', i'+h']
        (chart, 8 * size * size, 8),  # b: cube[i'+k'+1, j', i'+h']
        (16 * (size + 1), 0),        # best[i', j', 0], one entry apart
                                     # from best[i', j', 1]
        (8 * (2 * n + 1), 16 * n, 8),  # arcs: arc_twice[i'+r', j'+t]
    )
    # from one chart of a batch to the next: cube, split, best and
    # arc_twice, in the order above
    cube, square = size ** 3, size * size
    batch_strides = (8 * cube, 4 * cube, 8 * cube, 8 * cube, 16 * square,
                     16 * n * size)
    lengths = []
    candidates = 0
    for length in range(1, size):
        spans = n - length + 1
        step = min(spans, max(1, budget // (length * length)))
        tail = spans - (spans - 1) // step * step
        cell = diag + (length - 1) * size
        offsets = (8 * cell, 4 * cell, 8 * diag,
                   8 * (diag + size * size + (length - 1) * size),
                   16 * (size + length), 8 * (length * square + size + 1),
                   8 * (2 * n + length))
        shapes = [((c, length), (c, length - 1, length), (c, 1),
                   (c, length, n - length)) for c in (step, tail)]
        heads = np.ndarray((spans, n - length), idx.dtype, heads_twice,
                           8 * length, (8, 8))
        lengths.append(_LengthPlan(
            length, spans, step, offsets, *shapes, cols[:step, None],
            cols[:tail, None], cols[:length], idx[:spans, None],
            idx[length - 1:, None], heads))
        candidates += spans * (length - 1) * length
    return _FillPlan(tuple(lengths), strides, batch_strides, candidates)


def fill_joint_chart(best: np.ndarray, arc_m: np.ndarray
                     ) -> JointChart | list[JointChart]:
    """Run the joint recurrences over premixed scores.

    ``best`` is a summary's (n+1, n+1, 2) label constants
    (:attr:`SpanSummary.best`), ``arc_m`` (n+1, n+1) indexed [dependent,
    head]; both already carry their interpolation weights. Given a batch of
    same-length sentences, (batch, n+1, n+1, 2) and (batch, n+1, n+1), it
    fills their charts together, every view and index one batch axis
    longer, and returns one chart per sentence, bit for bit the chart of
    its own fill.
    """
    lead = best.shape[:-3]              # () or (batch,)
    n = best.shape[-2] - 1
    size = n + 1
    plan = _fill_plan(n, _STEP_CANDIDATES)
    # C-ordered, as the plan's offsets count float64 entries
    best = np.ascontiguousarray(best, dtype=np.float64)
    arc_twice = np.empty((*lead, size, 2 * n))
    arc_twice[..., :n] = arc_twice[..., n:] = arc_m[..., 1:]
    cube = np.full((*lead, size, size, size), -np.inf)
    split = np.zeros((*lead, size, size, size), dtype=np.int32)
    # a single token's [i, i, i] holds its best label score both ways
    diag = size * size + size + 1
    cube.reshape(*lead, -1)[..., diag::diag] = \
        best[..., 0].reshape(*lead, -1)[..., size + 1::size + 1]
    strides = plan.strides
    index: tuple = ()
    if lead:
        # the batch is one more axis of every view and index
        strides = tuple((b, *s) for b, s in zip(plan.batch_strides, strides))
        index = (np.arange(lead[0])[:, None, None],)
    s_done, s_split, s_a, s_b, s_best, s_arcs = strides
    chart_step, best_step = plan.strides[0][0], plan.strides[4][0]
    split_step, arc_step = plan.strides[1][0], plan.strides[5][0]

    for lp in plan.lengths:
        length, spans, step = lp.length, lp.spans, lp.step
        o_done, o_split, o_a, o_b, o_best, o_complete, o_arcs = lp.offsets
        for lo in range(0, spans, step):
            # spans (i', i'+L-1) for i' = lo+1..lo+step, heads i'+h'
            if step == spans:
                # the whole length at once, as short sentences take it
                shapes, rows = lp.full, lp.rows
                starts, ends, heads = lp.starts, lp.ends, lp.heads
            else:
                hi = lo + step
                shapes, rows = ((lp.full, lp.rows) if hi <= spans
                                else (lp.last, lp.rows_last))
                starts, ends, heads = lp.starts[lo:hi], lp.ends[lo:hi], \
                    lp.heads[lo:hi]
            if lead:
                shapes = [(*lead, *shape) for shape in shapes]
            cell, operand, one, outside = shapes
            shift = lo * chart_step
            complete = np.ndarray(cell, _F8, cube, o_complete + shift, s_done)
            if length > 1:
                # axes: (chart,) span, split k = i'+k', head h = i'+h'. a =
                # cube[i', k, h] is the hook of (i', k) where h > k and its
                # continuation where h <= k; b = cube[k+1, j, h] is the hook
                # of (k+1, j) where h <= k and its continuation where h > k.
                # argmax keeps the first k among ties.
                cand = (np.ndarray(operand, _F8, cube, o_a + shift, s_a)
                        + np.ndarray(operand, _F8, cube, o_b + shift, s_b))
                ks = cand.argmax(axis=-2)
                done = cand[(*index, rows, ks, lp.heads_in)]
                del cand
                np.add(ks, starts, out=np.ndarray(
                    cell, _I4, split, o_split + lo * split_step, s_split))
                # plus each span's label constants, best[i', j', 0] to
                # continue and best[i', j', 1] to stand complete
                at = o_best + lo * best_step
                np.add(done, np.ndarray(one, _F8, best, at, s_best),
                       out=np.ndarray(cell, _F8, cube, o_done + shift, s_done))
                np.add(done, np.ndarray(one, _F8, best, at + 8, s_best),
                       out=complete)
            if length < n:
                # hooks onto the heads outside each span: max over r' of the
                # span's complete score headed by i'+r' plus arc[i'+r', h]
                arcs = np.ndarray(outside, _F8, arc_twice,
                                  o_arcs + lo * arc_step, s_arcs)
                hooks = (complete[..., None] + arcs).max(axis=-2)
                cube[(*index, starts, ends, heads)] = hooks

    if not lead:
        return JointChart(cube=cube, split=split, arc=arc_m,
                          candidates=plan.candidates)
    return [JointChart(cube=cube[b], split=split[b], arc=arc_m[b],
                       candidates=plan.candidates)
            for b in range(lead[0])]


def decode_joint_mixed(mixed: SpanSummary, chart: JointChart | None = None
                       ) -> tuple[Parts, float]:
    """Joint decode over the summary of a table that already carries its
    interpolation weights (``ScoreTable.summary`` or
    ``LinearModel.summary``), reading ``chart`` when it was filled already
    (in a batch).

    Returns the parts of the derivation the chart chose and its score: its
    2n - 1 labeled spans in post-order, empty categories included, its
    (dependent, head) arcs in ascending dependent order and its root;
    :func:`~headspan.division.from_parts` makes the tree. The derivation
    can binarize a flat phrase differently from the canonical head-outward
    encoding at no loss, so ``tree_parts`` of that tree may list other
    spans; these are the ones that were scored.
    """
    n, root_m, vocab = mixed.n, mixed.root, mixed.vocab
    root_lid, root_span_best = mixed.sentence_label()
    if chart is None:
        chart = fill_joint_chart(mixed.best, mixed.arc)
    if n == 1:
        totals = root_span_best + root_m[1:2]
    else:
        # the chart baked the unrestricted best real label into the top
        # cells; swap it for the best label the sentence span may take
        adjust = root_span_best - float(mixed.best[1, n, 1])
        totals = chart.complete(1, n) + adjust + root_m[1:n + 1]
    h_root = int(np.argmax(totals)) + 1
    score = float(totals[h_root - 1])
    # a state is span (i, j) headed by h, standing as a finished dependent
    # or continuing; a right-first pre-order walk, read backwards, lists
    # the spans in post-order
    heads = [0] * (n + 1)
    order = []
    stack = [(1, n, h_root, True)]
    while stack:
        i, j, h, complete = stack.pop()
        order.append((i, j, int(complete and i < j)))
        if i < j:
            side, r, k = chart.backpointer(i, j, h)
            heads[r] = h
            stack += ([(i, k, r, True), (k + 1, j, h, False)] if side == 0
                      else [(i, k, h, False), (k + 1, j, r, True)])
    spans = [(i, j, vocab.category(int(mixed.label[i, j, real])))
             for i, j, real in reversed(order[1:])]
    spans.append((1, n, vocab.category(root_lid)))
    arcs = [(d, heads[d]) for d in range(1, n + 1) if d != h_root]
    return (spans, arcs, h_root), score


def decode_joint(table: ScoreTable, lam: float = 0.5,
                 tokens: Sequence[Token] | None = None
                 ) -> tuple[HpsgTree, float]:
    """Best head-annotated tree under the objective interpolated by ``lam``."""
    parts, score = decode_joint_mixed(table.summary(lam))
    tokens = tokens or _placeholder_tokens(table.n)
    return division.from_parts(parts, tokens), score


def _first_max(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``vals``, the first index of the maximum and the entry
    there (read back, so a tie of -0.0 and 0.0 keeps the first)."""
    ks = vals.argmax(axis=1)
    return ks, vals[np.arange(len(vals)), ks]


def _division_chart(best_any: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inner, chart, split) of the span-label CKY over each span's best
    label score ``best_any``, each (n+1, n+1).

    ``inner[i, j]`` is the best sum over the two halves of (i, j),
    ``chart[i, j]`` that plus the span's best label and ``split[i, j]`` the
    last token of the left half. All spans of one length are filled at once.
    """
    n = best_any.shape[0] - 1
    size = n + 1
    best_any = np.ascontiguousarray(best_any)
    inner = np.zeros((size, size))
    chart = np.full((size, size), -np.inf)
    split = np.zeros((size, size), dtype=np.int32)
    idx = np.arange(1, size)
    chart[idx, idx] = best_any[idx, idx]
    for length in range(2, size):
        # rows are spans (i, i+L-1), columns split points k = i..i+L-2
        spans = n - length + 1
        shape = (spans, length - 1)
        vals = (_view(chart, size + 1, shape, (size + 1, 1))
                + _view(chart, 2 * size + length, shape, (size + 1, size)))
        ks, best = _first_max(vals)
        cell = (size + length, (spans,), (size + 1,))
        _view(inner, *cell)[:] = best
        _view(chart, *cell)[:] = best + _view(best_any, *cell)
        _view(split, *cell)[:] = ks + idx[:spans]
    return inner, chart, split


def decode_division(summary: SpanSummary
                    ) -> tuple[list[tuple[int, int, str]], float]:
    """Best binary bracketing under the span scores of a summary alone: its
    2n - 1 labeled spans in post-order, the root last, and its score.

    Any span may take the empty category except the whole-sentence span of
    a multi-token sentence, which needs an ordinary category without an
    ``H_`` mark so the result decodes to a head-annotated tree. Every span
    is scored, empty categories included, so the score is their exact sum.
    """
    n = summary.n
    vocab = summary.vocab
    cat_any = summary.label[..., 0]
    inner, _, split = _division_chart(summary.best[..., 0])

    root_lid, root_span_best = summary.sentence_label()
    if n == 1:
        score = root_span_best
    else:
        score = float(inner[1, n]) + root_span_best
    # a right-first pre-order walk, read backwards, lists the spans in
    # post-order
    order = []
    stack = [(1, n)]
    while stack:
        i, j = stack.pop()
        order.append((i, j))
        if i < j:
            k = int(split[i, j])
            stack += [(i, k), (k + 1, j)]
    spans = [(i, j, vocab.category(int(cat_any[i, j])))
             for i, j in reversed(order[1:])]
    spans.append((1, n, vocab.category(root_lid)))
    return spans, score


def _eisner_chart(arc: np.ndarray) -> tuple[np.ndarray, ...]:
    """First-order projective chart over ``arc`` [dependent, head].

    Returns (c_left, c_right, i_left, i_right, bp_i, bp_cl, bp_cr), each
    (n+1, n+1): scores of complete (c) and incomplete (i) items over (i, j),
    headed at j (left) or at i (right), and the split points. All spans of
    one width are filled at once, incomplete items first, since the complete
    items of a width build on them.
    """
    n = arc.shape[0] - 1
    size = n + 1
    arc = np.ascontiguousarray(arc)
    c_left = np.zeros((size, size))
    c_right = np.zeros((size, size))
    i_left = np.zeros((size, size))
    i_right = np.zeros((size, size))
    bp_i = np.zeros((size, size), dtype=np.int32)
    bp_cl = np.zeros((size, size), dtype=np.int32)
    bp_cr = np.zeros((size, size), dtype=np.int32)
    idx = np.arange(1, size)
    # rows are spans (i, i+w), columns split offsets k' = 0..w-1
    row = (size + 1, 1)          # x[i, i+k'], or x[i, i+1+k'] one further on
    col = (size + 1, size)       # x[i+k', i+w], or x[i+1+k', i+w] one down

    for width in range(1, n):
        spans = n - width
        shape = (spans, width)
        starts = idx[:spans]
        cell = (size + 1 + width, (spans,), (size + 1,))
        base = (_view(c_right, size + 1, shape, row)
                + _view(c_left, 2 * size + 1 + width, shape, col))
        ks, best = _first_max(base)
        _view(bp_i, *cell)[:] = ks + starts
        _view(i_right, *cell)[:] = best + _view(
            arc, size + 1 + width * size, (spans,), (size + 1,))
        _view(i_left, *cell)[:] = best + _view(arc, *cell)
        vals = (_view(i_right, size + 2, shape, row)
                + _view(c_right, 2 * size + 1 + width, shape, col))
        ks, best = _first_max(vals)
        _view(c_right, *cell)[:] = best
        _view(bp_cr, *cell)[:] = ks + starts + 1
        vals = (_view(c_left, size + 1, shape, row)
                + _view(i_left, size + 1 + width, shape, col))
        ks, best = _first_max(vals)
        _view(c_left, *cell)[:] = best
        _view(bp_cl, *cell)[:] = ks + starts
    return c_left, c_right, i_left, i_right, bp_i, bp_cl, bp_cr


def decode_eisner(table: ScoreTable | SpanSummary,
                  tokens: Sequence[Token] | None = None
                  ) -> tuple[DependencyTree, float]:
    """Best projective dependency tree under the arc and root scores of a
    table, or of a summary made under ``lam`` 0, which leaves them raw.

    Span scores and the interpolation weight play no part here. This is
    the ``eisner`` route of :func:`decode_tables`, the heads of the span
    route where no label marks one, and the cross-check of the joint
    decoder when the interpolation weight removes the span term.
    """
    n = table.n
    if tokens is None:
        tokens = _placeholder_tokens(n)
    c_left, c_right, _, _, bp_i, bp_cl, bp_cr = _eisner_chart(table.arc)

    totals = c_left[1, 1:] + c_right[1:, n] + table.root[1:]
    h_root = int(np.argmax(totals)) + 1
    score = float(totals[h_root - 1])

    # complete (c) and incomplete (i) items, headed at their left (r) or
    # right (l) end; each incomplete item sets one head
    heads = [0] * (n + 1)
    stack = [("cl", 1, h_root), ("cr", h_root, n)]
    while stack:
        kind, i, j = stack.pop()
        if kind == "cr" and i < j:
            k = int(bp_cr[i, j])
            stack += [("ir", i, k), ("cr", k, j)]
        elif kind == "cl" and i < j:
            k = int(bp_cl[i, j])
            stack += [("cl", i, k), ("il", k, j)]
        elif kind[0] == "i":
            if kind == "ir":
                heads[j] = i
            else:
                heads[i] = j
            k = int(bp_i[i, j])
            stack += [("cr", i, k), ("cl", k + 1, j)]
    tree = DependencyTree(tokens=list(tokens), heads=heads)
    return tree, score


ROUTES = ("joint", "division", "eisner")
# longest sentence for the joint chart: 12 (n+1)^3 bytes, 168 MB at 240, a
# float64 cube of continuation, hook and complete scores and an int32 cube
# of split points, plus the fill's arrays of one step; a decode peaks at
# 180 MB there
LEN_CAP = 240
# bytes of one batch's charts, summaries and mixed arc scores: a few dozen
# sentences of 16 tokens, a few hundred of 9
_BATCH_BYTES = 1 << 22


def batch_size(n: int) -> int:
    """How many length-n charts one fill takes: as many as keep the charts,
    their summaries (two scores and two ids a span) and arcs within
    ``_BATCH_BYTES``. Up to ``LEN_CAP`` that also keeps the largest
    length's candidates, (n-L+1)(L-1)L per chart, within the step budget,
    so that no length of a batch is cut into steps."""
    per_chart = 8 * (n + 1) ** 2 * 5 + 12 * (n + 1) ** 3
    return max(1, _BATCH_BYTES // per_chart)


def decode_table(table, route: str, lam: float,
                 tokens: Sequence[Token] | None = None
                 ) -> tuple[HpsgTree | DependencyTree, list[str]]:
    """:func:`decode_tables` of one sentence's :class:`ScoreTable`."""
    return next(decode_tables([tokens or _placeholder_tokens(table.n)],
                              lambda _, w: table.summary(w), route, lam))


def _finite(result, score: float):
    """``result``, refused when its decoded ``score`` is not finite: finite
    scores can still sum past the float range."""
    if not np.isfinite(score):
        raise ScoreFileError(f"non-finite decoded score {score}")
    return result


def _span_route(summary_of: Callable, k: int, tokens: Sequence[Token]
                ) -> tuple[HpsgTree, list[str]]:
    """Sentence k through the span decoder: heads from the ``H_`` marks
    where the labels carry them, else from the best projective arcs."""
    summary = summary_of(k, 1.0)
    spans = _finite(*decode_division(summary))
    if summary.vocab.has_marks():
        return division.from_division(spans, tokens)
    # bare labels mark no head daughter: the heads come from the arcs
    deps = _finite(*decode_eisner(summary_of(k, 0.0), tokens))
    brackets = project_constituents(division.from_parts((spans, [], 0),
                                                        tokens))
    tree, report = fuse(brackets, deps)
    return tree, [f"residual span ({i},{j})"
                  for i, j in report.offending_spans]


def decode_tables(sentences: Sequence[Sequence[Token]],
                  summary_of: Callable, route: str, lam: float
                  ) -> Iterator[tuple[HpsgTree | DependencyTree, list[str]]]:
    """Each sentence's (tree, notes) along ``route``, in input order;
    ``summary_of(k, w)`` makes sentence k's :class:`SpanSummary` under
    weight ``w`` when it is decoded.

    ``joint`` weighs spans by ``lam`` and falls back to ``division`` above
    ``LEN_CAP`` tokens; ``eisner`` returns a dependency tree. The notes
    record the fallback and any head-recovery flags or residual spans.
    Joint decodes within ``LEN_CAP`` go one length at a time, in fills of
    ``batch_size(n)`` charts, so that only one batch's summaries are held;
    the others go one by one. Scores with a non-finite value are refused,
    and so is a decoded score that is not finite: finite weights can still
    sum to one. So are scores that leave no label for the sentence span on
    the routes that label it. A sentence's error is raised when its turn
    comes, after the results of every sentence before it, so a caller that
    counts the results knows which sentence was refused; only an error of a
    fill ends it at once."""
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    results: list = [None] * len(sentences)
    lengths: dict[int, list[int]] = {}
    for k, tokens in enumerate(sentences):
        if route == "joint" and len(tokens) <= LEN_CAP:
            lengths.setdefault(len(tokens), []).append(k)
            continue
        # a joint sentence here is above the cap and takes the span route
        notes = ([f"length {len(tokens)} above cap {LEN_CAP}, using the span "
                  f"decoder"] if route == "joint" else [])
        try:
            if route == "eisner":
                results[k] = _finite(*decode_eisner(summary_of(k, 0.0),
                                                    tokens)), []
            else:
                tree, flags = _span_route(summary_of, k, tokens)
                results[k] = tree, notes + flags
        except Exception as exc:
            results[k] = exc
    for n, members in lengths.items():
        size = batch_size(n)
        for at in range(0, len(members), size):
            ready = []
            for k in members[at:at + size]:
                try:
                    summary = summary_of(k, lam)
                    summary.sentence_label()    # refused before the fill
                    ready.append((k, summary))
                except Exception as exc:
                    results[k] = exc
            charts: list = []
            if len(ready) == 1:
                # a lone sentence takes the plain fill, without a batch axis
                charts = [fill_joint_chart(ready[0][1].best, ready[0][1].arc)]
            elif ready:
                charts = fill_joint_chart(np.stack([s.best for _, s in ready]),
                                          np.stack([s.arc for _, s in ready]))
            for (k, summary), chart in zip(ready, charts):
                try:
                    parts = _finite(*decode_joint_mixed(summary, chart))
                    results[k] = division.from_parts(parts, sentences[k]), []
                except Exception as exc:
                    results[k] = exc
            chart = None    # its batch's arrays go before the next fill
    for result in results:
        if isinstance(result, Exception):
            raise result
        yield result


BRUTE_FORCE_CAP = 8


@functools.lru_cache(maxsize=1)
def _enumerate_derivations(n: int) -> tuple[tuple, ...]:
    """All projective head-outward derivations of a length-n sentence.

    Each derivation is (head, arcs, spans): arcs as (dependent, head)
    pairs, spans as (start, end, stands_complete) for every internal span
    strictly inside (1, n). Sub-lists are cached per span; scoring never
    is. The result for the last n asked is kept, so checks that score many
    tables of one length enumerate once; at n = 8 that is 54 912
    derivations, about 29 MB. It is a tuple of tuples, which no caller can
    change. Refuses sentences longer than ``BRUTE_FORCE_CAP`` tokens: the
    number of derivations grows too fast beyond that to be worth
    enumerating.
    """
    if n > BRUTE_FORCE_CAP:
        raise SizeGuardError(
            f"brute force handles up to {BRUTE_FORCE_CAP} tokens, got {n}")
    memo: dict[tuple[int, int], list[tuple]] = {}

    def ders(i: int, j: int) -> list[tuple]:
        got = memo.get((i, j))
        if got is not None:
            return got
        if i == j:
            out = [(i, (), ())]
        else:
            out = []
            for k in range(i, j):
                for hl, al, sl in ders(i, k):
                    for hr, ar, sr in ders(k + 1, j):
                        arcs = al + ar
                        spans = sl + sr
                        left_c = ((i, k, True),) if i < k else ()
                        left_p = ((i, k, False),) if i < k else ()
                        right_c = ((k + 1, j, True),) if k + 1 < j else ()
                        right_p = ((k + 1, j, False),) if k + 1 < j else ()
                        out.append((hr, arcs + ((hl, hr),),
                                    spans + left_c + right_p))
                        out.append((hl, arcs + ((hr, hl),),
                                    spans + left_p + right_c))
        memo[(i, j)] = out
        return out

    return tuple(ders(1, n))


def brute_force(table: ScoreTable, lam: float = 0.5,
                tokens: Sequence[Token] | None = None
                ) -> tuple[HpsgTree, float]:
    """Exhaustive maximizer over every derivation, scored from scratch."""
    n = table.n
    derivations = _enumerate_derivations(n)
    mixed = table.mixed(lam)
    # labels of the winning spans; the scores below are reduced here
    summary = table.summary(lam)
    span_m = mixed.span
    arc_l = mixed.arc.tolist()
    root_l = mixed.root.tolist()
    any_l = span_m.max(axis=2).tolist()
    real_l = span_m[:, :, 1:].max(axis=2).tolist()

    # the sentence span takes an ordinary category without an H_ mark, and
    # is refused as the decoders refuse it; a lone token may stay bare
    # (the empty category)
    summary.sentence_label()
    top_row = span_m[1, n]
    ordinary = top_row[summary.vocab.unmarked].tolist()
    if n == 1:
        base = max([float(top_row[0]), *ordinary])
        top = 0.0
    else:
        base = sum(any_l[i][i] for i in range(1, n + 1))
        top = max(ordinary)

    best_score = -np.inf
    best = None
    for head, arcs, spans in derivations:
        score = base + top + root_l[head]
        for child, parent in arcs:
            score += arc_l[child][parent]
        for a, b, stands in spans:
            score += real_l[a][b] if stands else any_l[a][b]
        if score > best_score:
            best_score = score
            best = (head, arcs, spans)

    assert best is not None
    head, arcs, spans = best
    # labeled as the chart labels them: a lone token is the sentence span,
    # and a span standing as a dependent takes its best real label
    cells = [(i, i, 0) for i in range(1, n + 1) if n > 1] + [
        (i, j, int(stands)) for i, j, stands in spans]
    vocab = summary.vocab
    labeled = [(i, j, vocab.category(int(summary.label[i, j, c])))
               for i, j, c in cells]
    labeled.append((1, n, vocab.category(summary.top[0])))
    tree = division.from_parts((labeled, sorted(arcs), head),
                               tokens or _placeholder_tokens(n))
    return tree, float(best_score)


def max_projective_score(table: ScoreTable) -> float:
    """Exhaustive best dependency score, the slow twin of decode_eisner."""
    arc_l = table.arc.tolist()
    root_l = table.root.tolist()
    best = -np.inf
    for head, arcs, _ in _enumerate_derivations(table.n):
        score = root_l[head]
        for child, parent in arcs:
            score += arc_l[child][parent]
        best = max(best, score)
    return float(best)
