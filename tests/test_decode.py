"""Decoder oracles: hand-worked cases, cross-decoder agreement, recovery.

The two-token case below is fully worked by hand in comments; the random
agreement tests certify the vectorized charts against an exhaustive
re-derivation that shares no search or scoring code with them, only the
step that turns the winning derivation into a tree. The joint chart is also
held cell by cell to the plain O(n^5) recurrence kept here as a reference,
and the joint, division and Eisner charts bit for bit to the per-cell loops
that their fills of one span length at a time replaced.
"""

import inspect
import random
import sys
import tracemalloc
import weakref
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from headspan import decode, division
from headspan.decode import (
    BRUTE_FORCE_CAP,
    LEN_CAP,
    ROUTES,
    _division_chart,
    _eisner_chart,
    _enumerate_derivations,
    brute_force,
    decode_division,
    decode_eisner,
    decode_joint,
    decode_joint_mixed,
    decode_table,
    fill_joint_chart,
    max_projective_score,
)
from headspan.division import from_division, from_parts
from headspan.errors import ScoreFileError, SizeGuardError
from headspan.fuse import project_dependencies
from headspan.scoring import (
    CategoryVocab,
    ScoreTable,
    oracle_scores,
    parts_score,
    reduce_labels,
    tree_arcs,
    tree_spans,
)
from headspan.synth import random_score_table, random_tree
from headspan.treebank import format_hpsg, read_hpsg
from headspan.trees import HpsgTree, Token, make_node, preterminal


def hand_table() -> ScoreTable:
    """Two tokens, one real category A, a handful of nonzero scores."""
    vocab = CategoryVocab(["A"])
    table = ScoreTable.zeros(2, vocab)
    a = vocab.index("A")
    table.span[1, 1, a] = 0.3
    table.span[2, 2, 0] = 0.2  # empty category on the second position
    table.span[1, 2, a] = 1.0
    table.arc[1, 2] = 0.5
    table.root[1] = 0.7
    table.root[2] = 0.4
    return table


class TestHandWorkedCase:
    def test_joint_half_lambda(self):
        # candidates at lam = 0.5 (all entries scaled by 0.5):
        #   head 2: span(1,1,A) + arc(1,2) + span(2,2,E) + span(1,2,A)
        #           = .15 + .25 + .10 + .50 = 1.00, plus root(2) = .20
        #   head 1: .15 + 0 (arc 2->1 unset) + .10 + .50 = .75,
        #           plus root(1) = .35
        # so head 2 wins at 1.20 and position 1 keeps its A label
        tree, score = decode_joint(hand_table(), 0.5)
        assert score == pytest.approx(1.2, abs=1e-12)
        want = read_hpsg("(A[2] (A[1] (X[1] w1)) (X[2] w2))")[0]
        assert tree == want

    def test_lambda_zero_reduces_to_dependencies(self):
        table = hand_table()
        tree, score = decode_joint(table, 0.0)
        dep, eisner_score = decode_eisner(table)
        # arc(1,2) + root(2) = 0.9 beats root(1) = 0.7
        assert score == pytest.approx(0.9, abs=1e-12)
        assert eisner_score == pytest.approx(0.9, abs=1e-12)
        assert dep.heads == [0, 2, 0]
        assert project_dependencies(tree).heads == dep.heads

    def test_lambda_one_reduces_to_spans(self):
        table = hand_table()
        _, score = decode_joint(table, 1.0)
        _, div_score = decode_division(table.summary(1.0))
        # span(1,1,A) + span(2,2,E) + span(1,2,A) = 1.5 on both routes
        assert score == pytest.approx(1.5, abs=1e-12)
        assert div_score == pytest.approx(1.5, abs=1e-12)


def count_derivations(n: int) -> int:
    """Independent count of head-outward derivations via the recurrence.

    A headed span is built by attaching one dependent subtree on the left
    or right of the continuation holding the head; counting over all split
    points and dependent heads mirrors the chart without sharing its code.
    """

    @lru_cache(maxsize=None)
    def headed(i: int, j: int, h: int) -> int:
        if i == j:
            return 1
        total = 0
        for k in range(i, j):
            if h > k:
                total += sum(headed(i, k, r) for r in range(i, k + 1)) \
                    * headed(k + 1, j, h)
            else:
                total += headed(i, k, h) \
                    * sum(headed(k + 1, j, r) for r in range(k + 1, j + 1))
        return total

    return sum(headed(1, n, h) for h in range(1, n + 1))


class TestEnumerationAgainstRecurrence:
    def test_counts_match_for_small_sentences(self):
        for n in range(1, 8):
            assert len(_enumerate_derivations(n)) == count_derivations(n)

    def test_frozen_counts(self):
        # first values worked out by hand from the recurrence
        assert [count_derivations(n) for n in range(2, 7)] == [
            2, 8, 40, 224, 1344]


class TestJointAgainstBruteForce:
    def test_scores_agree_on_random_tables(self):
        rng = np.random.default_rng(29)
        vocab = CategoryVocab(["A", "B", "C"])
        lams = [0.0, 0.3, 0.5, 0.75, 1.0]
        for n in range(2, 6):
            for trial in range(20):
                table = random_score_table(rng, n, vocab)
                lam = lams[trial % len(lams)]
                fast_tree, fast = decode_joint(table, lam)
                slow_tree, slow = brute_force(table, lam)
                assert fast == pytest.approx(slow, abs=1e-9), (n, trial, lam)
                # at lam 0 or 1 one score part vanishes and ties among
                # heads or labels break differently in the two searches
                if 0.0 < lam < 1.0:
                    assert fast_tree == slow_tree, (n, trial, lam)

    def test_the_sentence_span_takes_no_head_marked_label(self):
        # both searches label the sentence span from the labels without an
        # H_ mark, and both refuse a table that has none
        rng = np.random.default_rng(0)
        vocab = CategoryVocab(["A", "H_B"])
        for n in range(1, 6):
            for trial in range(40):
                table = random_score_table(rng, n, vocab)
                fast_tree, fast = decode_joint(table, 0.5)
                slow_tree, slow = brute_force(table, 0.5)
                assert fast == pytest.approx(slow, abs=1e-9), (n, trial)
                assert fast_tree == slow_tree, (n, trial)
        table = random_score_table(rng, 3, CategoryVocab(["H_A"]))
        for decoder in (decode_joint, brute_force):
            with pytest.raises(ScoreFileError, match="^score table has no "
                               "ordinary category without an H_ mark"):
                decoder(table, 0.5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 7),
           lam=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_score_property_on_tied_tables(self, data, n, lam):
        # small integers: ties among splits, heads and labels everywhere
        vocab = CategoryVocab(["A", "B"])
        table = ScoreTable.zeros(n, vocab)
        ints = st.integers(-2, 2)
        table.span[1:, 1:] = data.draw(arrays(np.int64, (n, n, len(vocab)),
                                              elements=ints))
        table.arc[1:, 1:] = data.draw(arrays(np.int64, (n, n),
                                             elements=ints))
        table.root[1:] = data.draw(arrays(np.int64, n, elements=ints))
        _, fast = decode_joint(table, lam)
        _, slow = brute_force(table, lam)
        assert fast == pytest.approx(slow, abs=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 7),
           lam=st.floats(0.05, 0.95))
    def test_tree_property_on_continuous_tables(self, seed, n, lam):
        # continuous scores have no ties, so both searches pick one tree
        table = random_score_table(np.random.default_rng(seed), n,
                                   CategoryVocab(["A", "B", "C"]))
        fast_tree, fast = decode_joint(table, lam)
        slow_tree, slow = brute_force(table, lam)
        assert fast == pytest.approx(slow, abs=1e-9)
        assert fast_tree == slow_tree

    def test_derivation_spans_account_for_the_score(self):
        # the parts are those of the tree they build, and score what the
        # decoder says; a chain atom unfolds and folds back
        rng = np.random.default_rng(31)
        vocab = CategoryVocab(["A", "B", "S+VP"])
        for n in range(1, 9):
            tokens = [Token(index=i, form=f"w{i}", pos="X")
                      for i in range(1, n + 1)]
            for lam in (0.0, 0.5, 1.0):
                for _ in range(10):
                    table = random_score_table(rng, n, vocab)
                    span_m = lam * table.span
                    parts, score = decode_joint_mixed(table.summary(lam))
                    spans, arcs, root = parts
                    tree = from_parts(parts, tokens)
                    assert len(spans) == 2 * n - 1
                    span_part = sum(span_m[i, j, vocab.index(cat)]
                                    for i, j, cat in spans)
                    deps = project_dependencies(tree)
                    dep_part = sum(
                        (1.0 - lam) * table.root[t] if deps.heads[t] == 0
                        else (1.0 - lam) * table.arc[t, deps.heads[t]]
                        for t in range(1, n + 1))
                    assert span_part + dep_part == pytest.approx(score,
                                                                 abs=1e-9)
                    assert (arcs, root) == tree_arcs(tree)
                    assert parts_score(table, parts, lam) == pytest.approx(
                        score, abs=1e-9)


def reference_joint_chart(span_m, arc_m):
    """The O(n^5) joint chart the hook recurrence replaced, kept as oracle.

    Returns (complete, partial, side, sub, split), each indexed [i, j, h],
    and the number of (sub-head, head) pairs its splits compared.
    """
    n = span_m.shape[0] - 1
    best_any = span_m.max(axis=2)
    best_real = span_m[:, :, 1:].max(axis=2)

    neg = -np.inf
    complete = np.full((n + 1, n + 1, n + 1), neg)
    partial = np.full((n + 1, n + 1, n + 1), neg)
    side = np.zeros((n + 1, n + 1, n + 1), dtype=np.int8)
    sub = np.zeros((n + 1, n + 1, n + 1), dtype=np.int32)
    split = np.zeros((n + 1, n + 1, n + 1), dtype=np.int32)

    idx = np.arange(1, n + 1)
    complete[idx, idx, idx] = best_any[idx, idx]
    partial[idx, idx, idx] = best_any[idx, idx]
    candidates = 0

    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            best = np.full(length, neg)
            bside = np.zeros(length, dtype=np.int8)
            bsub = np.zeros(length, dtype=np.int32)
            bsplit = np.zeros(length, dtype=np.int32)
            for k in range(i, j):
                # dependent on the left: spans [i,k] head r, [k+1,j] head h
                left_c = complete[i, k, i:k + 1]
                grid = left_c[:, None] + arc_m[i:k + 1, k + 1:j + 1]
                candidates += grid.size
                colmax = grid.max(axis=0)
                colarg = grid.argmax(axis=0)
                cand = colmax + partial[k + 1, j, k + 1:j + 1]
                seg = slice(k + 1 - i, j + 1 - i)
                cur = best[seg]
                mask = cand > cur
                if mask.any():
                    cur[mask] = cand[mask]
                    bside[seg][mask] = 0
                    bsub[seg][mask] = colarg[mask] + i
                    bsplit[seg][mask] = k
                # dependent on the right: spans [k+1,j] head r, [i,k] head h
                right_c = complete[k + 1, j, k + 1:j + 1]
                grid = right_c[:, None] + arc_m[k + 1:j + 1, i:k + 1]
                candidates += grid.size
                colmax = grid.max(axis=0)
                colarg = grid.argmax(axis=0)
                cand = colmax + partial[i, k, i:k + 1]
                seg = slice(0, k + 1 - i)
                cur = best[seg]
                mask = cand > cur
                if mask.any():
                    cur[mask] = cand[mask]
                    bside[seg][mask] = 1
                    bsub[seg][mask] = colarg[mask] + k + 1
                    bsplit[seg][mask] = k
            complete[i, j, i:j + 1] = best + best_real[i, j]
            partial[i, j, i:j + 1] = best + best_any[i, j]
            side[i, j, i:j + 1] = bside
            sub[i, j, i:j + 1] = bsub
            split[i, j, i:j + 1] = bsplit

    return complete, partial, side, sub, split, candidates


def label_constants(span_m):
    """The two label constants of every span, as the fill takes them."""
    return reduce_labels(span_m)[0]


def assert_chart_matches_reference(span_m, arc_m):
    """Bitwise-equal cell scores and identical backpointers."""
    want_c, want_p, want_side, want_sub, want_split, _ = \
        reference_joint_chart(span_m, arc_m)
    chart = fill_joint_chart(label_constants(span_m), arc_m)
    n = span_m.shape[0] - 1
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            heads = slice(i, j + 1)
            assert chart.complete(i, j).tobytes() == \
                want_c[i, j, heads].tobytes(), (i, j)
            assert chart.cube[i, j, heads].tobytes() == \
                want_p[i, j, heads].tobytes(), (i, j)
            if i == j:
                continue
            for h in range(i, j + 1):
                want = (want_side[i, j, h], want_sub[i, j, h],
                        want_split[i, j, h])
                assert chart.backpointer(i, j, h) == want, (i, j, h)


class TestChartAgainstReference:
    def test_random_tables(self):
        rng = np.random.default_rng(43)
        vocab = CategoryVocab(["A", "B", "C"])
        for trial in range(300):
            n = trial % 13 + 1
            table = random_score_table(rng, n, vocab)
            if trial % 2:
                # small integers make ties between splits and heads common
                table.span[:] = np.rint(3 * table.span)
                table.arc[:] = np.rint(3 * table.arc)
            lam = (0.0, 0.5, 1.0, 0.3)[trial % 4]
            assert_chart_matches_reference(lam * table.span,
                                           (1.0 - lam) * table.arc)

    def test_bundled_oracle_tables(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused)
        for tree in sample_fused:
            table = oracle_scores(tree, vocab)
            for lam in (0.0, 0.5, 1.0):
                assert_chart_matches_reference(lam * table.span,
                                               (1.0 - lam) * table.arc)


def reference_fill_joint_chart(span_m, arc_m):
    """The per-cell joint fill the width-at-a-time fill replaced, kept as
    the bitwise oracle for it. Returns (inner, split)."""
    n = span_m.shape[0] - 1
    best_any = span_m.max(axis=2)
    best_real = span_m[:, :, 1:].max(axis=2)
    idx = np.arange(1, n + 1)
    single = best_any[idx, idx].copy()
    # a single token scores best_any either way; x + -0.0 == x for every
    # float x, so its label constants add nothing, bit for bit
    best_any[idx, idx] = -0.0
    best_real[idx, idx] = -0.0

    inner = np.full((n + 1, n + 1, n + 1), -np.inf)
    split = np.zeros((n + 1, n + 1, n + 1), dtype=np.int32)
    inner[idx, idx, idx] = single
    cols = np.arange(n + 1)
    dep_left = cols[None, :n] > cols[:n, None]   # [k - i, h - i]: h > k

    for length in range(1, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            if length > 1:
                # rows are split points k = i..j-1, columns heads h = i..j.
                # a[k, h] = inner[i, k, h] is the hook of (i, k) where h > k
                # and its inner score where h <= k; b[k, h] = inner[k+1, j,
                # h] is the hook of (k+1, j) where h <= k and its inner
                # score where h > k. argmax keeps the first k among ties.
                a = inner[i, i:j, i:j + 1]
                b = inner[i + 1:j + 1, j, i:j + 1]
                left = a + (b + best_any[i + 1:j + 1, j, None])
                right = b + (a + best_any[i, i:j, None])
                cand = np.where(dep_left[:length - 1, :length], left, right)
                ks = cand.argmax(axis=0)
                inner[i, j, i:j + 1] = cand[ks, cols[:length]]
                split[i, j, i:j + 1] = ks + i
            if length < n:
                comp = inner[i, j, i:j + 1, None] + best_real[i, j]
                hooks = (comp + arc_m[i:j + 1]).max(axis=0)
                inner[i, j, 1:i] = hooks[1:i]
                inner[i, j, j + 1:] = hooks[j + 1:]

    return inner, split


def reference_division_chart(span):
    """The per-cell span-label CKY loop, kept as oracle for
    ``_division_chart``. Returns (inner, chart, split)."""
    n = span.shape[0] - 1
    best_any = span.max(axis=2)
    inner = np.zeros((n + 1, n + 1))
    chart = np.full((n + 1, n + 1), -np.inf)
    split = np.zeros((n + 1, n + 1), dtype=np.int32)
    idx = np.arange(1, n + 1)
    chart[idx, idx] = best_any[idx, idx]
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            vals = chart[i, i:j] + chart[i + 1:j + 1, j]
            k = int(np.argmax(vals))
            inner[i, j] = float(vals[k])
            chart[i, j] = inner[i, j] + best_any[i, j]
            split[i, j] = k + i
    return inner, chart, split


def reference_eisner_chart(arc, root):
    """The per-cell Eisner loop and per-head root totals, kept as oracle for
    ``_eisner_chart`` and ``decode_eisner``. Returns the seven charts of
    ``_eisner_chart`` and the totals."""
    n = arc.shape[0] - 1
    c_left = np.zeros((n + 1, n + 1))
    c_right = np.zeros((n + 1, n + 1))
    i_left = np.zeros((n + 1, n + 1))
    i_right = np.zeros((n + 1, n + 1))
    bp_i = np.zeros((n + 1, n + 1), dtype=np.int32)
    bp_cl = np.zeros((n + 1, n + 1), dtype=np.int32)
    bp_cr = np.zeros((n + 1, n + 1), dtype=np.int32)

    for width in range(1, n):
        for i in range(1, n - width + 1):
            j = i + width
            base = c_right[i, i:j] + c_left[i + 1:j + 1, j]
            k = int(np.argmax(base))
            bp_i[i, j] = k + i
            i_right[i, j] = base[k] + arc[j, i]
            i_left[i, j] = base[k] + arc[i, j]
            vals = i_right[i, i + 1:j + 1] + c_right[i + 1:j + 1, j]
            k = int(np.argmax(vals))
            c_right[i, j] = vals[k]
            bp_cr[i, j] = k + i + 1
            vals = c_left[i, i:j] + i_left[i:j, j]
            k = int(np.argmax(vals))
            c_left[i, j] = vals[k]
            bp_cl[i, j] = k + i

    totals = np.array([c_left[1, h] + c_right[h, n] + root[h]
                       for h in range(1, n + 1)])
    return (c_left, c_right, i_left, i_right, bp_i, bp_cl, bp_cr), totals


def joint_layout(inner, span_m):
    """The per-cell loop's (inner, hook) chart in the fill's layout: each
    span's continuation in its slots [i, j, i..j], its complete score in
    [j, i, i..j], its hooks where they are."""
    n = span_m.shape[0] - 1
    best_any = span_m.max(axis=2)
    best_real = span_m[:, :, 1:].max(axis=2)
    cube = inner.copy()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            heads = slice(i, j + 1)
            cube[i, j, heads] = inner[i, j, heads] + best_any[i, j]
            cube[j, i, heads] = inner[i, j, heads] + best_real[i, j]
    return cube


def assert_same_bits(got, want):
    """Equal shape, dtype and bits: -0.0 and 0.0 count as different."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype.kind == "f":
        got, want = got.view(np.int64), want.view(np.int64)
    np.testing.assert_array_equal(got, want)


def quartic_count(n: int) -> int:
    """(split, head) pairs compared by the O(n^4) joint fill."""
    return sum((n - length + 1) * (length - 1) * length
               for length in range(2, n + 1))


def assert_fills_match_per_cell_loops(table: ScoreTable, lam: float):
    """The joint, division and Eisner charts of ``table`` under ``lam``
    equal the per-cell loops' bit for bit, backpointers included."""
    mixed = table.mixed(lam)
    chart = fill_joint_chart(table.summary(lam).best, mixed.arc)
    want_inner, want_split = reference_fill_joint_chart(mixed.span,
                                                        mixed.arc)
    assert_same_bits(chart.cube, joint_layout(want_inner, mixed.span))
    assert_same_bits(chart.split, want_split)
    assert chart.candidates == quartic_count(table.n)
    for got, want in zip(_division_chart(table.summary(lam).best[..., 0]),
                         reference_division_chart(mixed.span)):
        assert_same_bits(got, want)
    want_eisner, totals = reference_eisner_chart(mixed.arc, mixed.root)
    for got, want in zip(_eisner_chart(mixed.arc), want_eisner):
        assert_same_bits(got, want)
    dep, score = decode_eisner(mixed)
    h_root = int(np.argmax(totals)) + 1
    assert dep.heads[h_root] == 0
    assert_same_bits(np.float64(score), totals[h_root - 1])


def tied(table: ScoreTable) -> ScoreTable:
    """Scores rounded to small integers: ties between splits and heads."""
    return ScoreTable(vocab=table.vocab, n=table.n,
                      span=np.rint(3 * table.span), arc=np.rint(3 * table.arc),
                      root=np.rint(3 * table.root))


class TestWidthFillsMatchPerCellLoops:
    VOCAB = CategoryVocab(["A", "B", "C"])

    def test_every_length_to_24(self):
        rng = np.random.default_rng(47)
        for n in range(1, 25):
            table = random_score_table(rng, n, self.VOCAB)
            for lam in (0.0, 0.5, 1.0):
                assert_fills_match_per_cell_loops(table, lam)
                assert_fills_match_per_cell_loops(tied(table), lam)

    def test_bundled_oracle_tables(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused)
        for tree in sample_fused:
            table = oracle_scores(tree, vocab)
            for lam in (0.0, 0.5, 1.0):
                assert_fills_match_per_cell_loops(table, lam)

    def test_spans_of_a_length_taken_in_small_steps(self, monkeypatch):
        # long sentences fill each length in several steps; make every
        # length of a short sentence do so. Plans are kept per step budget
        # too, so those that other tests made for these lengths are not
        # reused here
        monkeypatch.setattr(decode, "_STEP_CANDIDATES", 8)
        rng = np.random.default_rng(71)
        for n in range(1, 17):
            table = random_score_table(rng, n, self.VOCAB)
            assert_fills_match_per_cell_loops(tied(table), 0.5)
            hits = decode._fill_plan.cache_info().hits
            plan = decode._fill_plan(n, 8)
            # the plan the fills above used, made under this budget
            assert decode._fill_plan.cache_info().hits == hits + 1
            steps = sum(-(-lp.spans // lp.step) for lp in plan.lengths)
            assert len(plan.lengths) == n
            assert steps > n or n < 4
        # n = 16: 2 steps of 8 single tokens, 8 of 2 spans, then one span
        # a step, 14 + 13 + ... + 1
        assert steps == 2 + 8 + 105

    def test_long_tables(self):
        rng = np.random.default_rng(53)
        for n in (70, 120):
            assert_fills_match_per_cell_loops(
                random_score_table(rng, n, self.VOCAB), 0.5)

    def test_fortran_ordered_tables(self):
        # the views address memory in C order, so the fill must copy first
        table = random_score_table(np.random.default_rng(59), 9, self.VOCAB)
        flipped = ScoreTable(vocab=table.vocab, n=table.n,
                             span=np.asfortranarray(table.span),
                             arc=np.asfortranarray(table.arc),
                             root=table.root)
        assert flipped.mixed(0.5).arc.flags.f_contiguous
        assert_fills_match_per_cell_loops(flipped, 0.5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 10),
           lam=st.sampled_from([0.0, 0.5, 1.0]))
    def test_property_on_tied_tables(self, data, n, lam):
        vocab = CategoryVocab(["A", "B"])
        table = ScoreTable.zeros(n, vocab)
        ints = st.integers(-2, 2)
        table.span[1:, 1:] = data.draw(arrays(np.int64, (n, n, len(vocab)),
                                              elements=ints))
        table.arc[1:, 1:] = data.draw(arrays(np.int64, (n, n),
                                             elements=ints))
        table.root[1:] = data.draw(arrays(np.int64, n, elements=ints))
        assert_fills_match_per_cell_loops(table, lam)


def assert_batch_fills_match_single(tables: list, lam: float):
    """One batched fill of same-length tables gives each table the chart
    of its own fill, bit for bit."""
    mixed = [t.mixed(lam) for t in tables]
    charts = fill_joint_chart(
        label_constants(np.stack([m.span for m in mixed])),
        np.stack([m.arc for m in mixed]))
    assert len(charts) == len(tables)
    for m, got in zip(mixed, charts):
        want = fill_joint_chart(label_constants(m.span), m.arc)
        for name in ("cube", "split", "arc"):
            assert_same_bits(getattr(got, name), getattr(want, name))
        assert got.candidates == want.candidates


class TestBatchedFills:
    VOCAB = CategoryVocab(["A", "B", "C"])

    def test_every_length_to_24_in_batches_of_1_to_5(self):
        rng = np.random.default_rng(83)
        for n in range(1, 25):
            tables = [random_score_table(rng, n, self.VOCAB)
                      for _ in range(n % 5 + 1)]
            for lam in (0.0, 0.5, 1.0):
                assert_batch_fills_match_single(tables, lam)
                assert_batch_fills_match_single([tied(t) for t in tables],
                                                lam)

    def test_steps_of_a_few_spans(self, monkeypatch):
        # a batch whose lengths are cut into steps, as long sentences are
        monkeypatch.setattr(decode, "_STEP_CANDIDATES", 8)
        rng = np.random.default_rng(89)
        for n in (1, 2, 5, 9, 16):
            tables = [tied(random_score_table(rng, n, self.VOCAB))
                      for _ in range(3)]
            assert_batch_fills_match_single(tables, 0.5)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 8), size=st.integers(1, 5),
           lam=st.sampled_from([0.0, 0.5, 1.0]))
    def test_property_on_tied_tables(self, data, n, size, lam):
        vocab = CategoryVocab(["A", "B"])
        ints = st.integers(-2, 2)
        tables = []
        for _ in range(size):
            table = ScoreTable.zeros(n, vocab)
            table.span[1:, 1:] = data.draw(
                arrays(np.int64, (n, n, len(vocab)), elements=ints))
            table.arc[1:, 1:] = data.draw(arrays(np.int64, (n, n),
                                                 elements=ints))
            tables.append(table)
        assert_batch_fills_match_single(tables, lam)

    def test_batched_decodes_match_one_at_a_time(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused)
        rng = np.random.default_rng(97)
        by_length: dict[int, list] = {}
        for tree in sample_fused:
            by_length.setdefault(len(tree), []).append(tree)
        for n, trees in by_length.items():
            tables = [oracle_scores(t, vocab) for t in trees]
            for table in tables:
                table.span += rng.normal(scale=0.5, size=table.span.shape)
            tokens = [t.tokens for t in trees]
            got = list(decode.decode_tables(
                tokens, lambda k, w: tables[k].summary(w), "joint", 0.5))
            want = [decode_table(t, "joint", 0.5, toks)
                    for t, toks in zip(tables, tokens)]
            assert got == want

    def test_batch_sizes_keep_whole_lengths_and_the_byte_budget(self):
        for n in range(1, 64):
            size = decode.batch_size(n)
            plan = decode._fill_plan(n, decode._STEP_CANDIDATES)
            assert all(lp.step == lp.spans for lp in plan.lengths)
            assert size == 1 or max(
                size * lp.spans * lp.length ** 2 for lp in plan.lengths
            ) <= decode._STEP_CANDIDATES
            # the chart, and two scores, two ids and the arcs of each span
            chart = 8 * (n + 1) ** 2 * 5 + 12 * (n + 1) ** 3
            assert size == 1 or size * chart <= decode._BATCH_BYTES
        assert decode.batch_size(60) == decode.batch_size(LEN_CAP) == 1
        assert decode.batch_size(3) > decode.batch_size(16) > \
            decode.batch_size(40) > 1

    def test_many_short_sentences_under_many_labels_keep_to_the_budget(self):
        # 200 sentences of 9 tokens under 166 labels fill in one batch: the
        # batch holds their summaries, where their mixed span scores would
        # take 27 MB
        vocab = CategoryVocab([f"L{i}" for i in range(164)])
        tokens = [Token(i, f"w{i}", "T") for i in range(1, 10)]

        def table_of(k):
            return random_score_table(np.random.default_rng(k), 9, vocab)

        want = decode_table(table_of(7), "joint", 0.5, tokens)
        tracemalloc.start()
        try:
            got = list(decode.decode_tables(
                [tokens] * 200, lambda k, w: table_of(k).summary(w), "joint",
                0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[7] == want
        assert peak < 2 * decode._BATCH_BYTES

    def test_a_refusal_in_a_batch_comes_in_its_turn(self, monkeypatch):
        # the tree of the third of five sentences filled in one batch fails:
        # the first two come first, then its error
        tables = [random_score_table(np.random.default_rng(k), 6, self.VOCAB)
                  for k in range(5)]
        tokens = [Token(i, f"w{i}", "T") for i in range(1, 7)]
        want = [decode_table(table, "joint", 0.5, tokens) for table in tables]
        built = []

        def third_refused(parts, toks):
            built.append(parts)
            if len(built) == 3:
                raise ValueError("third tree refused")
            return from_parts(parts, toks)

        monkeypatch.setattr(division, "from_parts", third_refused)
        got = decode.decode_tables(
            [tokens] * 5, lambda k, w: tables[k].summary(w), "joint", 0.5)
        assert [next(got), next(got)] == want[:2]
        with pytest.raises(ValueError, match="^third tree refused$"):
            next(got)

    def test_each_batch_frees_its_charts_before_the_next_fill(self,
                                                               monkeypatch):
        # a batch of two 3-token sentences, then a lone 4-token one
        tables = [random_score_table(np.random.default_rng(k), n, self.VOCAB)
                  for k, n in enumerate((3, 3, 4))]
        fill, filled = decode.fill_joint_chart, []

        def tracked(best, arc):
            assert [ref() for ref in filled] == [None] * len(filled)
            charts = fill(best, arc)
            filled.extend(weakref.ref(chart.cube) for chart in (
                charts if isinstance(charts, list) else [charts]))
            return charts

        monkeypatch.setattr(decode, "fill_joint_chart", tracked)
        sentences = [[Token(i, f"w{i}", "T") for i in range(1, t.n + 1)]
                     for t in tables]
        got = list(decode.decode_tables(
            sentences, lambda k, w: tables[k].summary(w), "joint", 0.5))
        assert len(got) == 3 and len(filled) == 3

    def test_decode_tables_match_decode_table(self, sample_fused,
                                              monkeypatch):
        # score-file tables of every length, one of them non-finite: the
        # same trees and notes, then the refusal of the first bad one
        vocab = CategoryVocab.from_trees(sample_fused)
        rng = np.random.default_rng(101)
        trees = sample_fused[:40]
        tables = [oracle_scores(t, vocab) for t in trees]
        for table in tables:
            table.span += rng.normal(scale=0.5, size=table.span.shape)
        sentences = [t.tokens for t in trees]
        for route, cap in (("joint", LEN_CAP), ("joint", 7),
                           ("division", LEN_CAP), ("eisner", LEN_CAP)):
            monkeypatch.setattr(decode, "LEN_CAP", cap)
            want = [decode_table(table, route, 0.4, tokens)
                    for tokens, table in zip(sentences, tables)]
            assert list(decode.decode_tables(
                sentences, lambda k, w: tables[k].summary(w), route,
                0.4)) == want
        tables[30].arc[1, 2] = np.nan
        got = decode.decode_tables(
            sentences, lambda k, w: tables[k].summary(w), "joint", 0.4)
        for _ in range(30):
            next(got)
        with pytest.raises(ScoreFileError,
                           match="^non-finite values in arc scores$"):
            next(got)


class TestChartLayout:
    def test_the_fill_writes_only_the_slots_of_spans(self):
        # span (i, j) owns [i, j, h] for every head and [j, i, i..j]; every
        # other cell, index 0 included, stays -inf
        rng = np.random.default_rng(103)
        vocab = CategoryVocab(["A", "B"])
        for n in range(1, 13):
            mixed = [random_score_table(rng, n, vocab).summary(0.5)
                     for _ in range(2)]
            charts = [fill_joint_chart(m.best, m.arc) for m in mixed]
            charts += fill_joint_chart(np.stack([m.best for m in mixed]),
                                       np.stack([m.arc for m in mixed]))
            used = np.zeros((n + 1,) * 3, dtype=bool)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    used[i, j, 1:] = used[j, i, i:j + 1] = True
            for chart in charts:
                assert np.isfinite(chart.cube[used]).all(), n
                assert (chart.cube[~used] == -np.inf).all(), n


class TestCandidateCount:
    def test_joint_fill_is_quartic_and_the_old_chart_is_not(self):
        # the count behind acceptance check 8: the hook fill compares
        # (n-L+1)(L-1)L pairs per length, the O(n^5) chart above many more
        rng = np.random.default_rng(61)
        vocab = CategoryVocab(["A", "B"])
        fast, slow = {}, {}
        for n in (20, 40):
            table = random_score_table(rng, n, vocab)
            mixed = table.mixed(0.5)
            fast[n] = fill_joint_chart(table.summary(0.5).best,
                                       mixed.arc).candidates
            slow[n] = reference_joint_chart(mixed.span, mixed.arc)[5]
        assert fast == {20: quartic_count(20), 40: quartic_count(40)}
        assert fast[40] / fast[20] <= 16
        assert slow[40] / slow[20] > 16


class TestFillPlan:
    def test_plans_are_kept_per_length_and_step_budget(self):
        budget = decode._STEP_CANDIDATES
        assert decode._fill_plan(9, budget) is decode._fill_plan(9, budget)
        assert decode._fill_plan(9, 8) is not decode._fill_plan(9, budget)
        assert decode._fill_plan.cache_info().maxsize == decode._PLANS_KEPT

    def test_plan_at_the_length_cap_holds_under_a_megabyte(self):
        tracemalloc.start()
        try:
            plan = decode._fill_plan.__wrapped__(LEN_CAP,
                                                 decode._STEP_CANDIDATES)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(plan.lengths) == LEN_CAP
        assert plan.candidates == quartic_count(LEN_CAP)
        assert held < 2 ** 20

    def test_plan_arrays_are_read_only(self):
        plan = decode._fill_plan(6, decode._STEP_CANDIDATES)
        for lp in plan.lengths:
            for a in (lp.rows, lp.rows_last, lp.heads_in, lp.starts, lp.ends,
                      lp.heads):
                assert not a.flags.writeable


class TestChartMemory:
    def test_fill_peak_stays_near_the_chart(self):
        # 12 bytes per cell plus the per-width temporaries. The complete
        # scores share the cube, in its (j, i) half: a cube of their own
        # would take the peak to about 20 bytes per cell, past the bound
        n = 100
        mixed = random_score_table(np.random.default_rng(67), n,
                                   CategoryVocab(["A", "B"])).summary(0.5)
        tracemalloc.start()
        try:
            fill_joint_chart(mixed.best, mixed.arc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 12 * (n + 1) ** 3


class TestExactRecovery:
    def test_fused_corpus_recovered_from_oracle_scores(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused)
        for tree in sample_fused[:60]:
            table = oracle_scores(tree, vocab)
            got, score = decode_joint(table, 0.5,
                                      tokens=tree.tokens)
            assert got == tree
            n = len(tree)
            assert score == pytest.approx(0.5 * (2 * n - 1) + 0.5 * n,
                                          abs=1e-9)

    def test_random_shapes_recovered_from_oracle_scores(self):
        rng = random.Random(17)
        for _ in range(60):
            tree = random_tree(rng, rng.randint(1, 10))
            vocab = CategoryVocab.from_trees([tree])
            table = oracle_scores(tree, vocab)
            got, _ = decode_joint(table, 0.5,
                                  tokens=tree.tokens)
            assert got == tree

    def test_division_decoder_recovers_gold(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused[:30],
                                         division_labels=True)
        for tree in sample_fused[:30]:
            table = oracle_scores(tree, vocab, division_labels=True)
            spans, _ = decode_division(table.summary(1.0))
            back, flags = from_division(spans, tree.tokens)
            assert flags == []
            assert back == tree


@lru_cache(maxsize=None)
def bracketings(n: int) -> frozenset:
    """Every binary bracketing of n tokens as its set of spans, read off
    the derivations that brute force enumerates."""
    outer = {(1, n)} | {(i, i) for i in range(1, n + 1)}
    return frozenset(frozenset(outer | {(a, b) for a, b, _ in spans})
                     for _, _, spans in _enumerate_derivations(n))


class TestSpanDecoderAgainstExhaustiveSearch:
    """The span decoder's spans, score and tree, each held to a test-side
    maximum over every bracketing on small random tables."""

    def test_random_tables(self):
        rng = np.random.default_rng(47)
        vocab = CategoryVocab(["A", "S+VP", "H_A", "H_S+VP", "H_<E>"])
        unmarked = [vocab.index("A"), vocab.index("S+VP")]
        for n in range(1, BRUTE_FORCE_CAP + 1):
            for _ in range(6):
                table = random_score_table(rng, n, vocab)
                spans, score = decode_division(table.summary(1.0))
                assert len(spans) == 2 * n - 1
                assert spans == sorted(spans, key=lambda s: (s[1], -s[0]))
                assert spans[-1][:2] == (1, n)
                assert frozenset((i, j) for i, j, _ in spans) in bracketings(n)
                assert parts_score(table, (spans, [], 0), 1.0) == \
                    pytest.approx(score, abs=1e-9)
                # the sentence span takes an ordinary category without an
                # H_ mark; a lone token may stay bare
                top = table.span[1, n, unmarked].max()
                if n == 1:
                    top = max(top, table.span[1, 1, 0])
                best = max(sum(table.span[i, j].max() for i, j in spans
                               if (i, j) != (1, n))
                           for spans in bracketings(n))
                assert score == pytest.approx(best + top, abs=1e-9)
                assert not spans[-1][2].startswith("H_")
                # so no sentence span dissolves (seeded: 7 of these 48 took
                # H_<E> when any ordinary category could label it)
                tokens = [Token(i, f"w{i}", "T") for i in range(1, n + 1)]
                want = from_division(spans, tokens)
                assert decode_table(table, "division", 0.5, tokens) == want


class TestDegenerationToSingleTaskDecoders:
    def test_lambda_zero_equals_eisner(self):
        rng = np.random.default_rng(37)
        vocab = CategoryVocab(["A", "B"])
        for n in (2, 3, 5, 8, 12):
            for _ in range(10):
                table = random_score_table(rng, n, vocab)
                _, joint = decode_joint(table, 0.0)
                dep, eisner = decode_eisner(table)
                assert joint == pytest.approx(eisner, abs=1e-9)
                if n <= BRUTE_FORCE_CAP:
                    assert eisner == pytest.approx(
                        max_projective_score(table), abs=1e-9)

    def test_lambda_one_never_beats_pure_span_decoding(self):
        rng = np.random.default_rng(41)
        vocab = CategoryVocab(["A", "B"])
        for n in (2, 3, 5, 9):
            for _ in range(15):
                table = random_score_table(rng, n, vocab)
                _, joint = decode_joint(table, 1.0)
                _, division = decode_division(table.summary(1.0))
                assert joint <= division + 1e-9


class TestEisner:
    def test_hand_worked_three_tokens(self):
        vocab = CategoryVocab()
        table = ScoreTable.zeros(3, vocab)
        table.arc[2, 1] = 2.0
        table.arc[3, 2] = 1.5
        table.arc[3, 1] = 1.0
        table.root[1] = 1.0
        table.root[2] = 0.8
        # chain 1 <- 2 <- 3 under root 1: 1.0 + 2.0 + 1.5 = 4.5
        dep, score = decode_eisner(table)
        assert score == pytest.approx(4.5, abs=1e-12)
        assert dep.heads == [0, 0, 1, 2]

    def test_single_root_enforced(self):
        vocab = CategoryVocab()
        table = ScoreTable.zeros(3, vocab)
        table.root[1] = 5.0
        table.root[3] = 5.0
        dep, _ = decode_eisner(table)
        assert dep.heads.count(0) == 2  # slot 0 plus exactly one root
        dep.validate()


class TestEdgesAndGuards:
    def test_single_token_sentences(self):
        vocab = CategoryVocab(["A"])
        table = ScoreTable.zeros(1, vocab)
        table.span[1, 1, vocab.index("A")] = 0.4
        table.root[1] = 0.3
        tree, score = decode_joint(table, 0.5)
        assert score == pytest.approx(0.35, abs=1e-12)
        assert tree.root.label == "A"
        assert project_dependencies(tree).heads == [0, 0]

        # with the empty category on top the root is a bare preterminal
        table.span[1, 1, 0] = 0.9
        tree, score = decode_joint(table, 0.5)
        assert tree.root.is_preterminal
        assert score == pytest.approx(0.45 + 0.15, abs=1e-12)

    def test_brute_force_refuses_big_sentences(self):
        vocab = CategoryVocab(["A"])
        table = ScoreTable.zeros(BRUTE_FORCE_CAP + 1, vocab)
        with pytest.raises(SizeGuardError):
            brute_force(table)
        with pytest.raises(SizeGuardError):
            max_projective_score(table)

    def test_lambda_range_checked(self):
        table = hand_table()
        for decoder in (decode_joint, brute_force):
            with pytest.raises(ValueError):
                decoder(table, 1.5)
            with pytest.raises(ValueError):
                decoder(table, -0.1)

    def test_ties_resolve_deterministically_without_split_labels(self):
        vocab = CategoryVocab(["A", "B"])
        table = ScoreTable.zeros(4, vocab)
        first, s1 = decode_joint(table)
        second, s2 = decode_joint(table)
        assert s1 == s2 == 0.0
        assert first == second
        # uninformative scores must not surface the reserved split label
        assert first.root.label == "A"

    @pytest.mark.parametrize("part", ["span", "arc", "root"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("route", ROUTES)
    def test_non_finite_tables_are_refused(self, part, value, route):
        vocab = CategoryVocab(["A", "B"])
        table = random_score_table(np.random.default_rng(29), 4, vocab)
        getattr(table, part)[2] = value
        refused = f"^non-finite values in {part} scores$"
        with pytest.raises(ScoreFileError, match=refused):
            decode_table(table, route, 0.5)
        # as seventh of a list, after the results of the six before it
        tables = [random_score_table(np.random.default_rng(k), 4, vocab)
                  for k in range(6)] + [table]
        tokens = [Token(i, f"w{i}", "T") for i in range(1, 5)]
        got = decode.decode_tables(
            [tokens] * 7, lambda k, w: tables[k].summary(w), route, 0.5)
        for _ in range(6):
            next(got)
        with pytest.raises(ScoreFileError, match=refused):
            next(got)

    def test_explicit_tokens_carried_through(self, sample_fused):
        tree = sample_fused[0]
        vocab = CategoryVocab.from_trees([tree])
        table = oracle_scores(tree, vocab)
        got, _ = decode_joint(table, tokens=tree.tokens)
        assert [t.form for t in got.tokens] == [t.form for t in tree.tokens]


def right_branching(n: int) -> HpsgTree:
    """(X w1 (X w2 (... (X w(n-1) wn)))), each phrase headed on its left."""
    tokens = [Token(index=i, form=f"w{i}", pos="T") for i in range(1, n + 1)]
    node = preterminal(n, "T")
    for i in range(n - 1, 0, -1):
        node = make_node("X", [preterminal(i, "T"), node], i)
    return HpsgTree(tokens=tokens, root=node)


@contextmanager
def recursion_headroom(frames: int):
    """Allow only ``frames`` Python frames beyond the caller's depth."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


class TestSpanRouteOfBareLabels:
    """Labels without ``H_`` marks, those of a joint model or a joint score
    file, name no head daughter, so the span route takes the heads from
    the arcs."""

    def test_division_route_returns_gold(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused)
        for gold in sample_fused:
            tree, notes = decode_table(oracle_scores(gold, vocab),
                                       "division", 0.5, gold.tokens)
            assert notes == []
            assert tree == gold

    def test_joint_route_above_the_cap_returns_gold(self, sample_fused,
                                                    monkeypatch):
        monkeypatch.setattr(decode, "LEN_CAP", 5)
        gold = max(sample_fused, key=len)
        table = oracle_scores(gold, CategoryVocab.from_trees([gold]))
        tree, notes = decode_table(table, "joint", 0.5, gold.tokens)
        assert notes == [f"length {len(gold)} above cap 5, using the span "
                         f"decoder"]
        assert tree == gold


class TestLongAndDeep:
    """Backtracks and encoders walk with explicit stacks, so the length
    of a right-branching sentence is no way to exhaust the Python stack."""

    def test_long_sentence_takes_the_span_decoder(self):
        # the route parse takes above --len-cap; 1100 levels of nesting
        # is beyond the default recursion limit
        gold = right_branching(1100)
        vocab = CategoryVocab.from_trees([gold], division_labels=True)
        table = oracle_scores(gold, vocab, division_labels=True)
        tree, notes = decode_table(table, "joint", 0.5, gold.tokens)
        assert notes == ["length 1100 above cap 240, using the span decoder"]
        assert tree == gold

    def test_joint_route_is_capped_by_default(self):
        # a library caller passes no cap and still gets no joint chart of
        # 12 (n+1)^3 bytes above LEN_CAP
        gold = right_branching(LEN_CAP + 1)
        vocab = CategoryVocab.from_trees([gold], division_labels=True)
        table = oracle_scores(gold, vocab, division_labels=True)
        tree, notes = decode_table(table, "joint", 0.5)
        assert notes == [f"length {LEN_CAP + 1} above cap {LEN_CAP}, using "
                         f"the span decoder"]
        assert len(tree) == LEN_CAP + 1

    def test_every_walk_runs_in_fixed_stack_depth(self):
        gold = right_branching(100)
        table = oracle_scores(gold, CategoryVocab.from_trees([gold]))
        div_table = oracle_scores(
            gold, CategoryVocab.from_trees([gold], division_labels=True),
            division_labels=True)
        with recursion_headroom(60):
            joint, _ = decode_joint(table, tokens=gold.tokens)
            deps, _ = decode_eisner(table, tokens=gold.tokens)
            spans, _ = decode_division(div_table.summary(1.0))
            recovered, flags = from_division(spans, gold.tokens)
            encoded, _ = from_division(tree_spans(gold, True), gold.tokens)
            text = format_hpsg(gold)
            (reread,) = read_hpsg(text)
            assert joint == recovered == encoded == reread == gold
        assert deps.heads == project_dependencies(gold).heads
        assert flags == []
