"""Score tables, the oracle construction, and the text score format."""

import io

import numpy as np
import pytest

from headspan.errors import ScoreFileError
from headspan.scoring import (
    CategoryVocab,
    ScoreTable,
    oracle_scores,
    read_scores,
    tree_score,
    write_scores,
)
from headspan.division import to_division
from headspan.synth import random_score_table
from headspan.trees import EMPTY, SPLIT


class TestCategoryVocab:
    def test_reserved_ids_come_first(self):
        vocab = CategoryVocab(["NP", "S"])
        assert vocab.index(EMPTY) == 0
        assert vocab.index(SPLIT) == 1
        assert vocab.index("NP") == 2
        assert vocab.index("S") == 3
        assert len(vocab) == 4

    def test_add_is_idempotent(self):
        vocab = CategoryVocab()
        assert vocab.add("NP") == 2
        assert vocab.add("NP") == 2
        assert list(vocab) == [EMPTY, SPLIT, "NP"]

    def test_lookup_errors_and_get(self):
        vocab = CategoryVocab(["NP"])
        assert "VP" not in vocab
        with pytest.raises(KeyError):
            vocab.index("VP")
        assert vocab.category(2) == "NP"

    def test_from_trees_is_order_independent(self, sample_fused):
        forward = CategoryVocab.from_trees(sample_fused)
        backward = CategoryVocab.from_trees(list(reversed(sample_fused)))
        assert forward == backward
        assert EMPTY in forward and SPLIT in forward

    def test_from_trees_division_variant_keeps_prefixes(self, sample_fused):
        plain = CategoryVocab.from_trees(sample_fused[:20])
        prefixed = CategoryVocab.from_trees(sample_fused[:20],
                                            division_labels=True)
        assert any(cat.startswith("H_") for cat in prefixed)
        assert not any(cat.startswith("H_") for cat in plain)


class TestOracleScores:
    def test_gold_tree_score_matches_closed_form(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused)
        for tree in sample_fused[:40]:
            table = oracle_scores(tree, vocab)
            n = len(tree)
            # 2n-1 encoded spans at 1.0 each, n-1 arcs plus one root
            for lam in (0.0, 0.3, 1.0):
                want = lam * (2 * n - 1) + (1.0 - lam) * n
                got = tree_score(tree, table, lam)
                assert got == pytest.approx(want, abs=1e-12)

    def test_division_encoding_scores_span_part_only(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused[:10],
                                         division_labels=True)
        tree = sample_fused[0]
        table = oracle_scores(tree, vocab, division_labels=True)
        n = len(tree)
        encoded = to_division(tree)
        assert tree_score(encoded, table, 0.5) == pytest.approx(
            0.5 * (2 * n - 1))
        assert tree_score(encoded, table, 0.0) == 0.0


class TestScoreFormat:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(11)
        vocab = CategoryVocab(["A", "B", "C"])
        tables = [random_score_table(rng, n, vocab) for n in (1, 2, 5, 9)]
        buf = io.StringIO()
        write_scores(tables, buf)
        again = read_scores(buf.getvalue())
        assert len(again) == len(tables)
        for a, b in zip(tables, again):
            assert b.n == a.n
            assert b.vocab == vocab
            np.testing.assert_array_equal(a.span, b.span)
            np.testing.assert_array_equal(a.arc, b.arc)
            np.testing.assert_array_equal(a.root, b.root)

    def test_vocabulary_rebuilt_from_file_when_absent(self):
        text = "\n".join([
            "#sent 1 2",
            "SPAN 1 1 NP 0.25",
            "SPAN 1 2 S 1.0",
            "ARC 1 2 0.5",
            "ROOT 2 0.75",
        ])
        table, = read_scores(text)
        assert list(table.vocab) == [EMPTY, SPLIT, "NP", "S"]
        assert table.span[1, 2, table.vocab.index("S")] == 1.0
        assert table.arc[1, 2] == 0.5
        assert table.root[2] == 0.75

    def test_comments_and_blank_lines_skipped(self):
        text = "% scores below\n\n#sent 1 1\n% nothing else\nROOT 1 2.0\n"
        table, = read_scores(text)
        assert table.root[1] == 2.0


class TestScoreFormatErrors:
    def err(self, text):
        with pytest.raises(ScoreFileError) as got:
            read_scores(text)
        return got.value

    def test_span_outside_sentence(self):
        err = self.err("#sent 1 2\nSPAN 1 3 NP 1.0")
        assert err.line == 2
        assert "outside sentence" in str(err)

    def test_reversed_span_rejected(self):
        assert self.err("#sent 1 3\nSPAN 3 1 NP 1.0").line == 2

    def test_self_loop_arc_rejected(self):
        assert "self-loop" in str(self.err("#sent 1 2\nARC 1 1 1.0"))

    def test_entry_before_header(self):
        assert self.err("ROOT 1 1.0").line == 1

    def test_unknown_record_type(self):
        assert "EDGE" in str(self.err("#sent 1 2\nEDGE 1 2 1.0"))

    def test_malformed_number(self):
        assert self.err("#sent 1 2\nROOT 1 abc").line == 2

    def test_bad_header(self):
        assert self.err("#sent 1").line == 1
        assert self.err("#sent 1 0").line == 1

    def test_non_finite_scores_rejected(self):
        err = self.err("#sent 1 2\nROOT 1 inf")
        assert "non-finite" in str(err)


def test_score_table_helpers():
    vocab = CategoryVocab(["A"])
    table = ScoreTable.zeros(3, vocab)
    assert table.span.shape == (4, 4, 3)
    assert table.arc.shape == (4, 4)
    assert table.root.shape == (4,)
    dup = ScoreTable(vocab, 3, table.span.copy(), table.arc.copy(),
                     table.root.copy())
    dup.span[1, 1, 0] = 5.0
    assert table.span[1, 1, 0] == 0.0
    table.check_finite()
    table.root[1] = np.nan
    with pytest.raises(ValueError):
        table.check_finite()
