"""Fusing constituent and dependency views into head-annotated trees.

The multihead fixtures are hand-written so the expected divisions are known
exactly; expectations here were worked out on paper from the head rules
(external-head sets per span, longest single-headed runs) before being
frozen into assertions.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headspan.errors import StructureError
from headspan.fuse import (
    external_heads,
    fuse,
    project_constituents,
    project_dependencies,
    validate,
)
from headspan.synth import random_tree
from headspan.trees import (
    SPLIT,
    DependencyTree,
    HpsgTree,
    Token,
    make_node,
    preterminal,
)
from headspan.treebank import format_bracketed, read_hpsg


def headless_sentence():
    """(S[2] (NP[1] (DT[1] the) (NN[2] dog)) (VBD[3] ran)), built in memory
    because the reader refuses a phrase whose head no child carries."""
    np_ = make_node("NP", [preterminal(1, "DT"), preterminal(2, "NN")], 1)
    root = make_node("S", [np_, preterminal(3, "VBD")], 2)
    tokens = [Token(1, "the", "DT"), Token(2, "dog", "NN"),
              Token(3, "ran", "VBD")]
    return HpsgTree(tokens=tokens, root=root)


def test_external_heads_basics():
    # "Federal Paper Board sells paper and wood products ."
    heads = [0, 3, 3, 4, 0, 4, 8, 8, 4, 4]
    assert external_heads(heads, 1, 3) == [3]
    assert external_heads(heads, 5, 8) == [5, 8]
    assert external_heads(heads, 6, 8) == [8]
    assert external_heads(heads, 1, 9) == [4]
    assert external_heads(heads, 6, 7) == [6, 7]


class TestDivisionOfMultiheadPhrases:
    def test_coordinated_object_splits_after_first_conjunct(
            self, multihead_pairs):
        c, d = multihead_pairs[0]
        tree, report = fuse(c, d)
        assert report.multihead_before == 1
        assert report.residuals == 0
        assert report.head_errors == []

        s = tree.root
        assert (s.label, s.head, s.span()) == ("S", 4, (1, 9))
        np, vp, stop = s.children
        assert (np.label, np.head, np.span()) == ("NP", 3, (1, 3))
        assert (vp.label, vp.head, vp.span()) == ("VP", 4, (4, 8))
        assert stop.span() == (9, 9)

        # the object NP dissolved into the first conjunct plus a split node
        verb, first, rest = vp.children
        assert (verb.label, verb.head) == ("VBZ", 4)
        assert (first.label, first.head, first.span()) == ("NN", 5, (5, 5))
        assert (rest.label, rest.head, rest.span()) == (SPLIT, 8, (6, 8))
        assert [ch.label for ch in rest.children] == ["CC", "NN", "NNS"]

    def test_projected_dependencies_match_gold(self, multihead_pairs):
        c, d = multihead_pairs[0]
        tree, _ = fuse(c, d)
        assert project_dependencies(tree).heads == d.heads

    def test_subject_coordination_splits_before_verb(self, multihead_pairs):
        c, d = multihead_pairs[1]
        tree, report = fuse(c, d)
        assert report.multihead_before == 1
        assert report.head_errors == []
        labels = [(ch.label, ch.head) for ch in tree.root.children]
        assert labels == [("NNP", 1), (SPLIT, 3), ("VP", 4), (".", 5)]

    def test_two_divisions_in_one_sentence(self, multihead_pairs):
        c, d = multihead_pairs[2]
        tree, report = fuse(c, d)
        assert report.multihead_before == 2
        assert report.residuals == 0
        assert report.head_errors == []
        assert project_dependencies(tree).heads == d.heads

    def test_nested_conjuncts_survive_inside_split_node(
            self, multihead_pairs):
        c, d = multihead_pairs[3]
        tree, report = fuse(c, d)
        assert report.multihead_before == 1
        assert report.head_errors == []
        first, rest, vp, stop = tree.root.children
        assert (first.label, first.head, first.span()) == ("NP", 2, (1, 2))
        assert (rest.label, rest.head, rest.span()) == (SPLIT, 5, (3, 5))
        inner = rest.children[1]
        assert (inner.label, inner.head, inner.span()) == ("NP", 5, (4, 5))

    def test_single_headed_sentence_passes_through(self, multihead_pairs):
        c, d = multihead_pairs[4]
        tree, report = fuse(c, d)
        assert report.clean
        assert project_constituents(tree) == c
        assert project_dependencies(tree).heads == d.heads

    def test_divided_tree_validates_clean(self, multihead_pairs):
        for c, d in multihead_pairs:
            tree, _ = fuse(c, d)
            audit = validate(tree)
            assert audit.clean, audit.summary()


class TestRoundTripOnCleanCorpus:
    def test_projections_invert_fusion(self, sample_pairs, sample_fused):
        for (c, d), tree in zip(sample_pairs, sample_fused):
            assert project_constituents(tree) == c
            back = project_dependencies(tree)
            assert back.heads == d.heads
            assert back.labels == d.labels

    def test_no_sample_sentence_needs_division(self, sample_pairs):
        for k, (c, d) in enumerate(sample_pairs):
            _, report = fuse(c, d, ordinal=k)
            assert report.multihead_before == 0, report.summary()


class TestRoundTripOnRandomTrees:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30))
    def test_fusing_the_projections_gives_the_tree_back(self, seed, n):
        # random projective pairs: the two views of a random head-annotated
        # tree fuse back into it, with nothing to report
        tree = random_tree(random.Random(seed), n)
        got, report = fuse(project_constituents(tree),
                           project_dependencies(tree))
        assert report.clean, report.summary()
        assert got == tree


class TestAuditing:
    def test_head_principle_violation_is_flagged(self):
        tree = headless_sentence()
        report = validate(tree)
        assert report.residuals == 1
        assert report.offending_spans == [(1, 3)]

    def test_preterminal_heading_another_position_is_flagged(self):
        ran = preterminal(2, "VBD")
        ran.head = 1
        tree = HpsgTree(tokens=[Token(1, "dogs", "NN"), Token(2, "ran", "VBD")],
                        root=make_node("S", [preterminal(1, "NN"), ran], 1))
        report = validate(tree)
        assert (2, 2) in report.offending_spans

    def test_carried_heads_checked_token_by_token(self, multihead_pairs):
        c, d = multihead_pairs[0]
        tree, _ = fuse(c, d)
        tree.dep_heads[5] = 8  # corrupt one carried attachment
        report = validate(tree)
        assert 5 in report.head_errors

    def test_summary_mentions_offenders(self):
        tree = headless_sentence()
        text = validate(tree).summary()
        assert "residuals=1" in text
        assert "(1,3)" in text


class TestDegenerateInput:
    def test_length_mismatch_rejected(self, multihead_pairs):
        c, _ = multihead_pairs[0]
        _, d = multihead_pairs[1]
        with pytest.raises(StructureError):
            fuse(c, d)

    def test_rootless_cycle_cannot_fuse(self, multihead_pairs):
        c, d = multihead_pairs[4]  # 5 tokens: Casey reviews the report .
        bad = DependencyTree(tokens=list(d.tokens),
                             heads=[0, 2, 1, 4, 3, 2], labels=None)
        # every head lies inside (1,5), so the sentence span itself has no
        # external head and must dissolve, which fuse refuses at the root
        with pytest.raises(StructureError):
            fuse(c, bad)

    def test_self_loops_surface_as_residuals(self):
        from headspan.treebank import read_bracketed

        c = read_bracketed("(S (NP (NN a) (NN b)) (VBD c))")[0]
        d = DependencyTree(
            tokens=[Token(1, "a", "NN"), Token(2, "b", "NN"),
                    Token(3, "c", "VBD")],
            heads=[0, 1, 2, 0], labels=None)
        tree, report = fuse(c, d)
        assert report.residuals == 2
        assert report.offending_spans == [(1, 1), (2, 2)]
        assert report.head_errors == [1, 2]
        assert len(tree.root.children) == 3


def test_split_root_cannot_project(multihead_pairs):
    tree = read_hpsg("(#[2] (NN[1] dogs) (VBD[2] ran))")[0]
    with pytest.raises(StructureError):
        project_constituents(tree)


def test_projected_constituents_dissolve_splits(multihead_pairs):
    c, d = multihead_pairs[0]
    tree, _ = fuse(c, d)
    flat = project_constituents(tree)
    text = format_bracketed(flat)
    assert "#" not in text
    # the divided object NP is gone; its pieces hang from the VP
    vp = flat.root.children[1]
    assert [ch.label for ch in vp.children] == ["VBZ", "NN", "CC", "NN",
                                                "NNS"]
