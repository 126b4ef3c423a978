"""Span summaries: the one view of the span scores that every decoder reads.

``reduce_labels`` is held bit for bit to the reductions that the decoders
made of the V-wide span array before the summary existed, kept here as the
oracle: the joint fill's two label constants, the tree builder's two
argmaxes and the whole-sentence label. The linear model's summaries, made a
block of spans at a time, are held to those of its dense table, mixed and
loss-augmented as training sees it, and so is the gold score training
takes from them.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from headspan import linear
from headspan.decode import LEN_CAP, ROUTES, decode_tables
from headspan.errors import ScoreFileError
from headspan.linear import LinearModel
from headspan.scoring import (
    CategoryVocab,
    ScoreTable,
    parts_score,
    summarize,
    tree_parts,
    tree_spans,
)
from headspan.synth import random_score_table
from headspan.trees import HEAD_PREFIX, Token


def reference_reductions(span_m: np.ndarray, n: int,
                         vocab: CategoryVocab) -> tuple:
    """What the decoders computed from the (n+1, n+1, V) array: best score
    over all labels and over labels 1.., the argmax over all labels, the
    best real label with ``#`` losing ties, and the whole-sentence label
    and score among the ordinary categories without an ``H_`` mark (None
    when the sentence needs one and the table has none)."""
    v = span_m.shape[2]
    ids = [k for k, c in enumerate(vocab)
           if k >= 2 and not c.startswith(HEAD_PREFIX)]
    best_any = span_m.max(axis=2)
    best_real = span_m[:, :, 1:].max(axis=2)
    cat_any = span_m.argmax(axis=2)
    if v <= 2:
        cat_real = np.ones(span_m.shape[:2], dtype=np.int64)
    else:
        rest_best = span_m[:, :, 2:].max(axis=2)
        rest_arg = span_m[:, :, 2:].argmax(axis=2) + 2
        cat_real = np.where(span_m[:, :, 1] > rest_best, 1, rest_arg)
    if n == 1:
        empty = float(span_m[1, 1, 0])
        top = (0, empty)
        if ids and float(span_m[1, 1, ids].max()) > empty:
            lid = ids[int(span_m[1, 1, ids].argmax())]
            top = (lid, float(span_m[1, 1, lid]))
    elif not ids:
        top = None
    else:
        lid = ids[int(span_m[1, n, ids].argmax())]
        top = (lid, float(span_m[1, n, lid]))
    return best_any, best_real, cat_any, cat_real, top


def same_bits(a, b) -> bool:
    """Equal values with equal signs of zero."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def assert_summary_matches(summary, span_m: np.ndarray) -> None:
    """The summary's cells 1 <= i <= j <= n and its top equal the
    reference reductions of ``span_m``, bit for bit."""
    n = summary.n
    best_any, best_real, cat_any, cat_real, top = reference_reductions(
        span_m, n, summary.vocab)
    i, j = np.triu_indices(n + 1)
    i, j = i[i >= 1], j[i >= 1]
    assert same_bits(summary.best[i, j, 0], best_any[i, j])
    assert same_bits(summary.best[i, j, 1], best_real[i, j])
    assert np.array_equal(summary.label[i, j, 0], cat_any[i, j])
    assert np.array_equal(summary.label[i, j, 1], cat_real[i, j])
    if top is None:
        assert summary.top is None
    else:
        assert summary.top[0] == top[0] and same_bits(summary.top[1], top[1])


def tie_heavy(table: ScoreTable, rng) -> ScoreTable:
    """Small integer scores, signed zeros among them, and ``#`` tying an
    ordinary label on about half the spans."""
    span = np.rint(2 * table.span)
    span[rng.random(span.shape) < 0.2] = -0.0
    if span.shape[2] > 2:
        tie = rng.random(span.shape[:2]) < 0.5
        span[tie, 1] = span[tie, 2]
    return ScoreTable(table.vocab, table.n, span, np.rint(2 * table.arc),
                      np.rint(2 * table.root))


class TestDenseSummaries:
    @pytest.mark.parametrize("labels", [[], ["A"], ["A", "B", "C"]])
    def test_random_and_tie_heavy_tables(self, labels):
        rng = np.random.default_rng(5)
        vocab = CategoryVocab(labels)
        for n in range(1, 14):
            for table in (random_score_table(rng, n, vocab),
                          tie_heavy(random_score_table(rng, n, vocab), rng)):
                for lam in (0.0, 0.5, 1.0):
                    summary = table.summary(lam)
                    assert_summary_matches(summary, table.mixed(lam).span)
                    if summary.top is None:
                        assert n > 1 and not labels
                        with pytest.raises(ScoreFileError,
                                           match="no ordinary category"):
                            summary.sentence_label()

    @pytest.mark.parametrize("labels", [["H_A"], ["A", "H_<E>", "H_A", "S"]])
    def test_the_sentence_span_takes_no_head_mark(self, labels):
        rng = np.random.default_rng(6)
        vocab = CategoryVocab(labels)
        marked = [vocab.index(c) for c in labels if c.startswith(HEAD_PREFIX)]
        for n in range(1, 8):
            table = random_score_table(rng, n, vocab)
            table.span[1, n, marked] += 10.0     # the marks would win
            summary = table.summary(1.0)
            assert_summary_matches(summary, table.span)
            if labels == ["H_A"] and n > 1:
                with pytest.raises(ScoreFileError, match=(
                        "^score table has no ordinary category without an "
                        "H_ mark to label the sentence span$")):
                    summary.sentence_label()
            else:
                lid, _ = summary.sentence_label()
                assert not vocab.category(lid).startswith(HEAD_PREFIX)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 6), v=st.integers(2, 5))
    def test_property_on_integer_and_signed_zero_scores(self, data, n, v):
        vocab = CategoryVocab([f"L{k}" for k in range(v - 2)])
        table = ScoreTable.zeros(n, vocab)
        table.span[1:, 1:] = data.draw(arrays(
            np.float64, (n, n, v), elements=st.sampled_from(
                [-1.0, -0.0, 0.0, 1.0])))
        assert_summary_matches(table.summary(1.0), table.span)

    def test_fortran_ordered_table(self):
        table = random_score_table(np.random.default_rng(3), 7,
                                   CategoryVocab(["A", "B"]))
        span = np.asfortranarray(table.span)
        flipped = ScoreTable(table.vocab, table.n, span, table.arc,
                             table.root)
        assert_summary_matches(flipped.summary(1.0), span)

    def test_loss_gives_gold_cells_plus_zero(self):
        # the loss adds 1.0 to every label but the gold ones, which get
        # + 0.0 as a dense bonus array gave them: a winning gold -0.0 turns
        # +0.0, both in the summary and in the loss-augmented table
        rng = np.random.default_rng(11)
        vocab = CategoryVocab(["A"])
        for n in range(1, 8):
            table = tie_heavy(random_score_table(rng, n, vocab), rng)
            table.span[table.span < 0] -= 4.0
            table.span[1, 1] = [-0.0, -3.0, -3.0]
            cells = np.array([n + 2] + [i * (n + 1) + i
                                        for i in range(2, n + 1)])
            cids = np.array([0] + [2] * (n - 1))
            bonus = np.ones_like(table.span)
            bonus.reshape(-1, 3)[cells, cids] = 0.0
            span = table.span.reshape(-1, 3)
            for lam in (0.5, 1.0):
                gold = np.zeros(len(cells))
                got = summarize(vocab, n, [(np.arange(len(span)), span)],
                                table.arc, table.root, lam,
                                (cells, cids, gold))
                assert_summary_matches(got, lam * table.span + bonus)
                assert same_bits(gold, span[cells, cids])
                assert not np.signbit(got.best[1, 1, 0])

    def test_table_summary_refuses_non_finite_scores(self):
        table = random_score_table(np.random.default_rng(2), 3,
                                   CategoryVocab(["A"]))
        table.span[1, 2, 0] = -np.inf
        with pytest.raises(ScoreFileError,
                           match="^non-finite values in span scores$"):
            table.summary(0.5)

    @pytest.mark.parametrize("route", ROUTES)
    def test_non_finite_arcs_are_refused_before_a_missing_label(self, route):
        # the table has no ordinary category for its sentence span either,
        # which only the routes that label it refuse, after every check of
        # the scores' values; fourth of a list, it is refused after the
        # results of the three before it
        table = random_score_table(np.random.default_rng(8), 3,
                                   CategoryVocab())
        tables = [random_score_table(np.random.default_rng(k), 3,
                                     CategoryVocab(["A"]))
                  for k in range(3)] + [table]
        tokens = [Token(i, f"w{i}", "T") for i in range(1, 4)]

        def decoded():
            """How many results come before the refusal, and its message."""
            got = 0
            try:
                for _ in decode_tables([tokens] * 4,
                                       lambda k, w: tables[k].summary(w),
                                       route, 0.5):
                    got += 1
            except ScoreFileError as exc:
                return got, str(exc)
            return got, None

        table.arc[2, 1] = np.nan
        count, refused = decoded()
        assert count == 3 and refused.startswith("non-finite values in arc")
        table.arc[2, 1] = 0.0
        count, refused = decoded()
        if route == "eisner":
            assert (count, refused) == (4, None)
        else:
            assert count == 3
            assert refused.startswith("score table has no ordinary category")


# weights that make ties and signed zeros common: a span's score is a small
# integer, and -0.0 only where all twelve of its weights are -0.0
TIED_WEIGHTS = [-1.0, -0.0, 0.0, 1.0, 2.0]


def tied_model(vocab, mode, seed):
    model = LinearModel(vocab, dim=2 ** 10, mode=mode)
    model.weights = np.random.default_rng(seed).choice(TIED_WEIGHTS,
                                                       size=model.dim)
    return model


def gold_cells(tree, vocab, division_mode):
    """Training's gold parts of ``tree``, its loss as ``summarize`` takes
    it, and the dense loss bonus it stands for."""
    gold = ((tree_spans(tree, True), [], 0) if division_mode
            else tree_parts(tree))
    n = len(tree)
    cells = np.array([i * (n + 1) + j for i, j, _ in gold[0]])
    cids = np.array([vocab.index(label) for _, _, label in gold[0]])
    bonus = np.ones((n + 1, n + 1, len(vocab)))
    for i, j, label in gold[0]:
        bonus[i, j, vocab.index(label)] = 0.0
    return gold, (cells, cids, np.zeros(len(cells))), bonus


class TestModelSummaries:
    @pytest.mark.parametrize("weights", ["tied", "normal"])
    @pytest.mark.parametrize("mode", ["joint", "division"])
    def test_blocks_match_the_dense_table(self, sample_fused, mode, weights,
                                          monkeypatch):
        division_mode = mode == "division"
        vocab = CategoryVocab.from_trees(sample_fused,
                                         division_labels=division_mode)
        # blocks of 3 spans, so that sentences cross many of them
        monkeypatch.setattr(linear, "_BLOCK", 3 * len(vocab))
        model = tied_model(vocab, mode, seed=4)
        if weights == "normal":
            model.weights = np.random.default_rng(4).normal(size=model.dim)
        assert model._block_spans == 3
        for tree in sample_fused[:30]:
            tokens, n = tree.tokens, len(tree)
            h = model.hashes_many([tokens])[0]
            table = model.score_table(tokens, h)
            for lam in (0.0, 0.5, 1.0):
                mixed = table.mixed(lam)
                got = model.summary(tokens, h, lam)
                assert_summary_matches(got, mixed.span)
                assert same_bits(got.arc, mixed.arc)
                assert same_bits(got.root, mixed.root)
            # training: loss-augmented under its lam, and the gold score
            lam = 1.0 if division_mode else 0.5
            gold, loss, bonus = gold_cells(tree, vocab, division_mode)
            aug = table.mixed(lam)
            aug.span += bonus
            got = summarize(vocab, n, model._span_blocks(h, n), table.arc,
                            table.root, lam, loss)
            assert_summary_matches(got, aug.span)
            assert same_bits(got.arc, aug.arc)
            # training's gold score from them, as train_linear sums it
            _, arcs, root = gold
            dep = (sum(table.arc[c, p] for c, p in arcs) + table.root[root]
                   if root else 0.0)
            assert same_bits(lam * sum(loss[2]) + (1.0 - lam) * dep,
                             parts_score(table, gold, lam))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_losing_label_is_refused(self, sample_fused, value,
                                                  monkeypatch):
        vocab = CategoryVocab.from_trees(sample_fused)
        model = tied_model(vocab, "joint", seed=7)
        blocks = model._span_blocks

        def poisoned(h, n, *gathered):
            for cells, block in blocks(h, n, *gathered):
                # the last label of the last span, which -inf never wins
                block[-1, -1] = value
                yield cells, block

        monkeypatch.setattr(model, "_span_blocks", poisoned)
        tokens = sample_fused[3].tokens
        hashes = model.hashes_many([tokens])[0]
        with pytest.raises(ScoreFileError,
                           match="^non-finite values in span scores$"):
            model.summary(tokens, hashes, lam=0.5)

    def test_memory_at_the_length_cap_stays_a_quarter_of_the_table(self):
        # the model path never holds the (n+1) x (n+1) x V span array
        labels = [f"L{k}" + "x" * (k % 7) for k in range(164)]
        model = LinearModel(CategoryVocab(labels), dim=2 ** 16)
        model.weights = np.random.default_rng(9).normal(size=model.dim)
        tokens = [Token(i, f"w{i % 50}", f"T{i % 9}")
                  for i in range(1, LEN_CAP + 1)]
        # the hashes are built first, untraced, so the peak is the scorer's
        hashes = model.hashes_many([tokens])[0]
        tracemalloc.start()
        try:
            summary = model.summary(tokens, hashes, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        span_bytes = (LEN_CAP + 1) ** 2 * len(model.vocab) * 8
        assert len(model.vocab) == 166 and summary.n == LEN_CAP
        assert peak <= span_bytes / 4
