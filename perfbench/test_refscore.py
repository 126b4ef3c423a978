"""Hand-computed cases for the reference scorer and output checks.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refscore  # noqa: E402

GOLD = "(S (NP (DT the) (NN dog)) (VP (VBZ barks)) (. .))"


def f1(gold: str, pred: str) -> float:
    return refscore.bracket_f1(refscore.read_brackets(gold),
                               refscore.read_brackets(pred))


def test_identical_trees_score_100():
    assert f1(GOLD, GOLD) == 100.0


def test_one_of_three_brackets_matches():
    # gold NP(the dog) VP(barks) S; pred NP(the) VP(dog barks) S
    pred = "(S (NP (DT the)) (VP (NN dog) (VBZ barks)) (. .))"
    assert f1(GOLD, pred) == pytest.approx(100 * 2 * 1 / (3 + 3))


def test_punctuation_is_deleted_and_indices_remapped():
    # the full stop moves inside VP; without it VP covers "barks" alone
    pred = "(S (NP (DT the) (NN dog)) (VP (VBZ barks) (. .)))"
    assert f1(GOLD, pred) == 100.0


def test_punctuation_decided_by_gold_tag():
    # the predicted tree tags the stop as NN; gold says "." so it is deleted
    pred = "(S (NP (DT the) (NN dog)) (VP (VBZ barks) (NN .)))"
    assert f1(GOLD, pred) == 100.0


def test_brackets_over_punctuation_only_are_dropped():
    gold = "(S (NP (NN dog)) (X (. .)))"
    pred = "(S (NP (NN dog)) (. .))"
    assert f1(gold, pred) == 100.0


def test_brackets_match_as_multisets():
    # gold NP twice over one token, pred once: 1 match, 2 gold, 1 pred
    gold = "(S (NP (NP (NN dog))) (VP (VBZ barks)))"
    pred = "(S (NP (NN dog)) (VP (VBZ barks)))"
    # plus S and VP on both sides: 3 matches, 4 gold, 3 predicted
    assert f1(gold, pred) == pytest.approx(100 * 2 * 3 / (4 + 3))


def test_encoding_labels_are_not_brackets():
    pred = "(S (H_NP (DT the) (NN dog)) (<E> (VP (VBZ barks)) (. .)))"
    assert f1(GOLD, pred) == 100.0


def test_scores_are_micro_averaged():
    gold = [GOLD, "(S (NP (NN it)) (VP (VBZ moves)))"]
    pred = [GOLD, "(S (NN it) (VP (VBZ moves)))"]
    # 3/3 and 2 matched of 3 gold, 2 predicted: 5 matches, 6 gold, 5 pred
    assert refscore.bracket_f1(
        refscore.read_brackets("\n".join(gold)),
        refscore.read_brackets("\n".join(pred))) == pytest.approx(
            100 * 2 * 5 / (6 + 5))


def conll(rows):
    return "\n".join(f"{i}\t{form}\t_\t{tag}\t{tag}\t_\t{head}\t_\t_\t_"
                     for i, (form, tag, head) in enumerate(rows, 1)) + "\n\n"


def test_uas_skips_punctuation_by_gold_tag():
    gold = refscore.read_conll(conll([("dog", "NN", 2), ("barks", "VBZ", 0),
                                      (".", ".", 2)]))
    pred = refscore.read_conll(conll([("dog", "NN", 3), ("barks", "VBZ", 0),
                                      (".", "NN", 1)]))
    assert refscore.uas(gold, pred) == 50.0


@pytest.mark.parametrize("heads, problem", [
    ([2, 0, 2], None),
    ([0, 0], "2 roots"),
    ([2, 1], "0 roots"),
    ([2, 1, 0], "cycle"),
    ([1, 0], "head out of range or self-loop"),
    ([3, 4, 0, 3], "arcs (1,3) and (2,4) cross"),
    ([2, 0, 4, 2], None),
])
def test_dependency_errors(heads, problem):
    assert refscore.dependency_errors(heads) == ([problem] if problem else [])


def test_root_arc_counts_for_projectivity():
    # token 2 is the root; arc 1 -> 3 passes over it
    assert refscore.dependency_errors([3, 0, 2]) == [
        "arcs (0,2) and (1,3) cross"]


def test_projection_dissolves_split_phrases():
    tree = refscore.read_hpsg(
        "(S[2] (NP[1] (NN[1] dogs)) (VBZ[2] see) "
        "(#[4] (DT[3] the) (NN[4] cat)))")[0]
    plain, heads = refscore.project(tree)
    assert plain == refscore.read_brackets(
        "(S (NP (NN dogs)) (VBZ see) (DT the) (NN cat))")[0]
    assert heads == [2, 0, 4, 2]
    assert refscore.leaves(tree) == [("dogs", "NN"), ("see", "VBZ"),
                                     ("the", "DT"), ("cat", "NN")]
