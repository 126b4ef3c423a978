"""Bracket and attachment scoring against hand-computed expectations.

Every number asserted here was first worked out on paper: brackets are
counted after deleting punctuation by gold POS and remapping indices,
matching is by multiset, and percentages are micro-averaged.
"""

import pytest

from headspan.errors import AlignmentError
from headspan.evaluate import (
    DEFAULT_PUNCT,
    EvalReport,
    attachment_scores,
    bracket_f1,
)
from headspan.treebank import read_bracketed, read_conll


def trees(text: str):
    return read_bracketed(text)


# each entry: (gold, pred, gold count, pred count, matching count)
HAND_PAIRS = [
    # 3 gold brackets {S(1,5), NP(1,2), VP(3,5)}, 4 predicted
    # {S(1,5), NP(1,2), VP(3,3), NP(4,5)}, 2 shared
    ("(S (NP (DT the) (NN dog)) (VP (VBD saw) (DT a) (NN fox)) (. .))",
     "(S (NP (DT the) (NN dog)) (VP (VBD saw)) (NP (DT a) (NN fox)) (. .))",
     3, 4, 2),
    # identical trees
    ("(S (NP (DT the) (NN dog)) (VP (VBD saw) (DT a) (NN fox)) (. .))",
     "(S (NP (DT the) (NN dog)) (VP (VBD saw) (DT a) (NN fox)) (. .))",
     3, 3, 3),
    # mid-sentence comma deleted: kept positions are 1, 3, 4 -> 1, 2, 3;
    # gold {S(1,3), NP(1,1), ADVP(2,2), VP(3,3)},
    # pred {S(1,3), NP(1,1), VP(2,3)}, 2 shared
    ("(S (NP (NNP Avery)) (, ,) (ADVP (RB quickly)) (VP (VBD moved)) (. .))",
     "(S (NP (NNP Avery)) (, ,) (VP (RB quickly) (VBD moved)) (. .))",
     4, 3, 2),
    # duplicate gold bracket NP(1,2) counts twice, matched at most once;
    # gold {S(1,3), NP(1,2) x2, VP(3,3)}, pred {S(1,3), NP(1,2), VP(3,3)}
    ("(S (NP (NP (DT the) (NN fox))) (VP (VBD ran)))",
     "(S (NP (DT the) (NN fox)) (VP (VBD ran)))",
     4, 3, 3),
    # same span, different label
    ("(S (NP (DT the) (NN fox)) (VP (VBD ran)))",
     "(S (ADJP (DT the) (NN fox)) (VP (VBD ran)))",
     3, 3, 2),
]


class TestBracketPairs:
    def test_unbalanced_pair(self):
        gold, pred, *_ = HAND_PAIRS[0]
        report = bracket_f1(trees(gold), trees(pred))
        assert report.recall == pytest.approx(66.67, abs=0.005)
        assert report.precision == pytest.approx(50.00, abs=0.005)
        assert report.f1 == pytest.approx(57.14, abs=0.005)
        assert report.exact_rate == 0.0

    def test_identical_pair(self):
        gold, pred, *_ = HAND_PAIRS[1]
        report = bracket_f1(trees(gold), trees(pred))
        assert report.f1 == 100.0
        assert report.exact_rate == 100.0

    def test_punct_deletion_remaps_spans(self):
        gold, pred, *_ = HAND_PAIRS[2]
        report = bracket_f1(trees(gold), trees(pred))
        assert report.recall == pytest.approx(50.00, abs=0.005)
        assert report.precision == pytest.approx(66.67, abs=0.005)
        assert report.f1 == pytest.approx(57.14, abs=0.005)

    def test_duplicate_brackets_match_by_multiset(self):
        gold, pred, *_ = HAND_PAIRS[3]
        report = bracket_f1(trees(gold), trees(pred))
        # the single predicted NP(1,2) satisfies only one of the two gold
        # copies: recall 3/4, precision 3/3
        assert report.bracket_match == 3
        assert report.recall == pytest.approx(75.00, abs=0.005)
        assert report.precision == pytest.approx(100.00, abs=0.005)
        assert report.f1 == pytest.approx(85.71, abs=0.005)

    def test_label_mismatch_counts_against_both(self):
        gold, pred, *_ = HAND_PAIRS[4]
        report = bracket_f1(trees(gold), trees(pred))
        assert report.bracket_match == 2
        assert report.f1 == pytest.approx(66.67, abs=0.005)

    def test_counts_per_pair(self):
        for gold, pred, g, p, m in HAND_PAIRS:
            report = bracket_f1(trees(gold), trees(pred))
            assert (report.bracket_gold, report.bracket_pred,
                    report.bracket_match) == (g, p, m)

    def test_micro_average_over_the_corpus(self):
        golds, preds = [], []
        for gold, pred, *_ in HAND_PAIRS:
            golds.extend(trees(gold))
            preds.extend(trees(pred))
        report = bracket_f1(golds, preds)
        # totals: gold 17, predicted 16, matched 12; one exact of five
        assert report.bracket_gold == 17
        assert report.bracket_pred == 16
        assert report.bracket_match == 12
        assert report.recall == pytest.approx(70.59, abs=0.005)
        assert report.precision == pytest.approx(75.00, abs=0.005)
        # micro F1 is 2*12/(17+16)
        assert report.f1 == pytest.approx(72.73, abs=0.005)
        assert report.exact_rate == pytest.approx(20.0, abs=0.005)

    def test_all_punct_spans_are_dropped(self):
        gold = trees("(S (NP (NNP A)) (X (, ,) (. .)))")
        pred = trees("(S (NP (NNP A)) (, ,) (. .))")
        report = bracket_f1(gold, pred)
        assert report.bracket_gold == report.bracket_pred == 2
        assert report.f1 == 100.0

    def test_encoding_artifacts_are_stripped(self):
        gold = trees("(S (NP (DT a) (NN b)) (VBD c))")
        pred = trees("(S (H_NP (DT a) (NN b)) (<E> (VBD c)))")
        report = bracket_f1(gold, pred)
        assert report.f1 == 100.0

    def test_misaligned_corpora_rejected(self):
        gold, pred, *_ = HAND_PAIRS[0]
        with pytest.raises(AlignmentError):
            bracket_f1(trees(gold), [])
        with pytest.raises(AlignmentError):
            bracket_f1(trees(gold), trees("(S (NN one))"))


def dep(rows: list[str]):
    return read_conll("\n".join(rows))


GOLD_DEP = dep([
    "1\tdogs\t_\tNNS\tNNS\t_\t2\tnsubj\t_\t_",
    "2\tran\t_\tVBD\tVBD\t_\t0\troot\t_\t_",
    "3\thome\t_\tNN\tNN\t_\t2\tdobj\t_\t_",
])


class TestAttachment:
    def test_labels_divide_uas_from_las(self):
        pred = dep([
            "1\tdogs\t_\tNNS\tNNS\t_\t2\tdet\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\troot\t_\t_",
            "3\thome\t_\tNN\tNN\t_\t2\tdobj\t_\t_",
        ])
        report = attachment_scores(GOLD_DEP, pred)
        assert report.uas == pytest.approx(100.0)
        assert report.las == pytest.approx(66.67, abs=0.005)

    def test_punctuation_excluded_by_gold_pos(self):
        gold = dep([
            "1\tdogs\t_\tNNS\tNNS\t_\t2\tnsubj\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\troot\t_\t_",
            "3\t,\t_\t,\t,\t_\t2\tpunct\t_\t_",
            "4\thome\t_\tNN\tNN\t_\t2\tdobj\t_\t_",
        ])
        pred_wrong_punct = dep([
            "1\tdogs\t_\tNNS\tNNS\t_\t2\tnsubj\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\troot\t_\t_",
            "3\t,\t_\t,\t,\t_\t4\tpunct\t_\t_",
            "4\thome\t_\tNN\tNN\t_\t2\tdobj\t_\t_",
        ])
        report = attachment_scores(gold, pred_wrong_punct)
        assert report.dep_total == 3
        assert report.uas == pytest.approx(100.0)

        pred_wrong_word = dep([
            "1\tdogs\t_\tNNS\tNNS\t_\t2\tnsubj\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\troot\t_\t_",
            "3\t,\t_\t,\t,\t_\t2\tpunct\t_\t_",
            "4\thome\t_\tNN\tNN\t_\t1\tdobj\t_\t_",
        ])
        report = attachment_scores(gold, pred_wrong_word)
        assert report.uas == pytest.approx(66.67, abs=0.005)

    def test_unlabeled_side_disables_las(self):
        pred = dep([
            "1\tdogs\t_\tNNS\tNNS\t_\t2\t_\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\t_\t_\t_",
            "3\thome\t_\tNN\tNN\t_\t2\t_\t_\t_",
        ])
        report = attachment_scores(GOLD_DEP, pred)
        assert report.uas == pytest.approx(100.0)
        assert report.las is None
        assert not report.has_labels

    def test_gold_none_label_cannot_score(self):
        gold = dep([
            "1\tdogs\t_\tNNS\tNNS\t_\t2\tnsubj\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\t_\t_\t_",
            "3\thome\t_\tNN\tNN\t_\t2\tdobj\t_\t_",
        ])
        pred = dep([
            "1\tdogs\t_\tNNS\tNNS\t_\t2\tnsubj\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\troot\t_\t_",
            "3\thome\t_\tNN\tNN\t_\t2\tdobj\t_\t_",
        ])
        report = attachment_scores(gold, pred)
        assert report.uas == pytest.approx(100.0)
        assert report.las == pytest.approx(66.67, abs=0.005)

    def test_las_never_exceeds_uas(self):
        pred = dep([
            "1\tdogs\t_\tNNS\tNNS\t_\t3\tnsubj\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\troot\t_\t_",
            "3\thome\t_\tNN\tNN\t_\t2\tamod\t_\t_",
        ])
        report = attachment_scores(GOLD_DEP, pred)
        assert report.las <= report.uas

    def test_misaligned_corpora_rejected(self):
        with pytest.raises(AlignmentError):
            attachment_scores(GOLD_DEP, [])


class TestReports:
    def test_merge_combines_disjoint_parts(self):
        brackets = EvalReport(sentences=5, has_brackets=True,
                              bracket_match=11, bracket_gold=16,
                              bracket_pred=16, bracket_exact=1)
        deps = EvalReport(sentences=5, has_deps=True, dep_total=10,
                          uas_correct=9, las_correct=8, has_labels=True)
        both = brackets.merge(deps)
        assert both.f1 == pytest.approx(68.75, abs=0.005)
        assert both.uas == pytest.approx(90.0)
        assert both.las == pytest.approx(80.0)

    def test_text_format_shows_only_available_parts(self):
        report = EvalReport(sentences=2, has_deps=True, dep_total=4,
                            uas_correct=3)
        text = report.format_text()
        assert "UAS" in text and "75.00" in text
        assert "bracket" not in text
        assert "LAS" not in text

    def test_keyvalue_format(self):
        report = EvalReport(sentences=5, has_brackets=True, bracket_match=11,
                            bracket_gold=16, bracket_pred=16, bracket_exact=1)
        lines = report.format_keyvalues().splitlines()
        assert "bracket_f1=68.75" in lines
        assert "exact_match=20.00" in lines

    def test_empty_denominators_score_zero(self):
        report = EvalReport(sentences=0, has_brackets=True)
        assert report.recall == 0.0
        assert report.f1 == 0.0


def test_default_punct_set():
    assert DEFAULT_PUNCT == frozenset({"``", "''", ":", ",", "."})
