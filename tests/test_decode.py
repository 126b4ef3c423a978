"""Decoder oracles: hand-worked cases, cross-decoder agreement, recovery.

The two-token case below is fully worked by hand in comments; the random
agreement tests certify the vectorized charts against an exhaustive
re-derivation that shares no search or scoring code with them, only the
step that turns the winning derivation into a tree.
"""

import random
from functools import lru_cache

import numpy as np
import pytest

from headspan.decode import (
    BRUTE_FORCE_CAP,
    DecodeConfig,
    _enumerate_derivations,
    brute_force,
    decode_division,
    decode_eisner,
    decode_joint,
    decode_joint_mixed,
    max_projective_score,
)
from headspan.division import from_division
from headspan.errors import SizeGuardError
from headspan.fuse import project_dependencies
from headspan.scoring import CategoryVocab, ScoreTable, oracle_scores
from headspan.synth import random_score_table, random_tree
from headspan.treebank import read_hpsg


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
        tree, score = decode_joint(hand_table(), DecodeConfig(lam=0.5))
        assert score == pytest.approx(1.2, abs=1e-12)
        want = read_hpsg("(A[2] (A[1] (X[1] w1)) (X[2] w2))")[0]
        assert tree == want

    def test_lambda_zero_reduces_to_dependencies(self):
        table = hand_table()
        tree, score = decode_joint(table, DecodeConfig(lam=0.0))
        dep, eisner_score = decode_eisner(table)
        # arc(1,2) + root(2) = 0.9 beats root(1) = 0.7
        assert score == pytest.approx(0.9, abs=1e-12)
        assert eisner_score == pytest.approx(0.9, abs=1e-12)
        assert dep.heads == [0, 2, 0]
        assert project_dependencies(tree).heads == dep.heads

    def test_lambda_one_reduces_to_spans(self):
        table = hand_table()
        _, score = decode_joint(table, DecodeConfig(lam=1.0))
        _, div_score = decode_division(table)
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
                config = DecodeConfig(lam=lam)
                fast_tree, fast = decode_joint(table, config)
                slow_tree, slow = brute_force(table, config)
                assert fast == pytest.approx(slow, abs=1e-9), (n, trial, lam)
                # at lam 0 or 1 one score part vanishes and ties among
                # heads or labels break differently in the two searches
                if 0.0 < lam < 1.0:
                    assert fast_tree == slow_tree, (n, trial, lam)

    def test_derivation_spans_account_for_the_score(self):
        rng = np.random.default_rng(31)
        vocab = CategoryVocab(["A", "B"])
        for n in range(2, 7):
            for _ in range(10):
                table = random_score_table(rng, n, vocab)
                lam = 0.5
                span_m = lam * table.span
                tree, score, spans = decode_joint_mixed(
                    span_m, (1.0 - lam) * table.arc,
                    (1.0 - lam) * table.root, vocab)
                assert len(spans) == 2 * n - 1
                span_part = sum(span_m[i, j, vocab.index(cat)]
                                for i, j, cat in spans)
                deps = project_dependencies(tree)
                dep_part = sum(
                    (1.0 - lam) * table.root[t] if deps.heads[t] == 0
                    else (1.0 - lam) * table.arc[t, deps.heads[t]]
                    for t in range(1, n + 1))
                assert span_part + dep_part == pytest.approx(score, abs=1e-9)


class TestExactRecovery:
    def test_fused_corpus_recovered_from_oracle_scores(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused)
        for tree in sample_fused[:60]:
            table = oracle_scores(tree, vocab)
            got, score = decode_joint(table, DecodeConfig(lam=0.5),
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
            got, _ = decode_joint(table, DecodeConfig(lam=0.5),
                                  tokens=tree.tokens)
            assert got == tree

    def test_division_decoder_recovers_gold(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused[:30],
                                         division_labels=True)
        for tree in sample_fused[:30]:
            table = oracle_scores(tree, vocab, division_labels=True)
            encoded, _ = decode_division(table, tokens=tree.tokens)
            back, flags = from_division(encoded)
            assert flags == []
            assert back == tree


class TestDegenerationToSingleTaskDecoders:
    def test_lambda_zero_equals_eisner(self):
        rng = np.random.default_rng(37)
        vocab = CategoryVocab(["A", "B"])
        for n in (2, 3, 5, 8, 12):
            for _ in range(10):
                table = random_score_table(rng, n, vocab)
                _, joint = decode_joint(table, DecodeConfig(lam=0.0))
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
                _, joint = decode_joint(table, DecodeConfig(lam=1.0))
                _, division = decode_division(table)
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
        tree, score = decode_joint(table, DecodeConfig(lam=0.5))
        assert score == pytest.approx(0.35, abs=1e-12)
        assert tree.root.label == "A"
        assert project_dependencies(tree).heads == [0, 0]

        # with the empty category on top the root is a bare preterminal
        table.span[1, 1, 0] = 0.9
        tree, score = decode_joint(table, DecodeConfig(lam=0.5))
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
        with pytest.raises(ValueError):
            DecodeConfig(lam=1.5)
        with pytest.raises(ValueError):
            DecodeConfig(lam=-0.1)

    def test_ties_resolve_deterministically_without_split_labels(self):
        vocab = CategoryVocab(["A", "B"])
        table = ScoreTable.zeros(4, vocab)
        first, s1 = decode_joint(table)
        second, s2 = decode_joint(table)
        assert s1 == s2 == 0.0
        assert first == second
        # uninformative scores must not surface the reserved split label
        assert first.root.label == "A"

    def test_explicit_tokens_carried_through(self, sample_fused):
        tree = sample_fused[0]
        vocab = CategoryVocab.from_trees([tree])
        table = oracle_scores(tree, vocab)
        got, _ = decode_joint(table, tokens=tree.tokens)
        assert [t.form for t in got.tokens] == [t.form for t in tree.tokens]
