"""Division encoding: head-annotated trees as plain labeled binary trees.

Expected bracketings were derived by hand from the encoding rules (chain
collapse, empty categories over bare preterminals, head-outward peeling,
prefix marks) and then frozen.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headspan.division import (
    binarize_head_outward,
    from_division,
    from_parts,
    to_division,
)
from headspan.errors import StructureError
from headspan.fuse import fuse
from headspan.scoring import tree_parts, tree_spans
from headspan.synth import random_tree
from headspan.trees import (
    EMPTY,
    HpsgTree,
    Token,
    make_node,
    preterminal,
)
from headspan.treebank import format_bracketed, read_hpsg


def encode_text(hpsg_text: str) -> str:
    tree = read_hpsg(hpsg_text)[0]
    return format_bracketed(to_division(tree))


def round_trip(tree: HpsgTree) -> tuple[HpsgTree, list[str]]:
    """The tree and flags ``from_division`` makes of the tree's encoding."""
    return from_division(tree_spans(tree, division_labels=True), tree.tokens)


def tokens_of(tags: str) -> list[Token]:
    return [Token(i, tag.lower(), tag) for i, tag in
            enumerate(tags.split(), start=1)]


class TestEncoding:
    def test_two_child_phrase(self):
        got = encode_text(
            "(S[3] (NP[2] (DT[1] the) (NN[2] dog)) (VBD[3] ran))")
        assert got == ("(S (H_NP (H_<E> (H_DT the)) (H_<E> (H_NN dog)))"
                       " (H_<E> (H_VBD ran)))")

    def test_unary_chain_collapses_to_atom(self):
        got = encode_text("(S[1] (VP[1] (VBZ[1] runs)))")
        assert got == "(S+VP (H_VBZ runs))"

    def test_head_outward_peeling_keeps_head_inside_intermediates(self):
        got = encode_text("(X[3] (A[1] a) (B[2] b) (C[3] c) (D[4] d))")
        assert got == ("(X (H_<E> (H_A a)) (H_<E> (H_<E> (H_B b))"
                       " (H_<E> (H_<E> (H_C c)) (<E> (H_D d)))))")

    def test_leftmost_head_peels_right_siblings(self):
        got = encode_text("(X[1] (A[1] a) (B[2] b) (C[3] c))")
        assert got == ("(X (H_<E> (H_<E> (H_A a)) (<E> (H_B b)))"
                       " (<E> (H_C c)))")

    def test_right_child_marked_only_when_it_holds_the_head(self):
        got = encode_text("(S[2] (NN[1] dogs) (VBD[2] ran))")
        assert got == "(S (H_<E> (H_NN dogs)) (H_<E> (H_VBD ran)))"
        got = encode_text("(S[1] (NN[1] dogs) (VBD[2] ran))")
        assert got == "(S (H_<E> (H_NN dogs)) (<E> (H_VBD ran)))"


    def test_flat_phrase_without_head_daughter_rejected(self):
        # S's head 2 lies inside its span but no child carries it; the
        # reader refuses such a tree, so it is built in memory
        b = make_node("B", [preterminal(2, "C"), preterminal(3, "D")], 3)
        root = make_node("S", [preterminal(1, "A"), b, preterminal(4, "E")],
                         2)
        tree = HpsgTree(tokens=[Token(i, f, "X") for i, f in
                                enumerate("abce", start=1)], root=root)
        with pytest.raises(StructureError, match="head 2 of S"):
            to_division(tree)
        with pytest.raises(StructureError, match="head 2 of S"):
            binarize_head_outward(tree)


RESERVED = [
    # as they were: NP over X, the unmarked right child taking the head
    # back from S, and a phrase dissolved into its children
    ("(S[2] (NP+X[1] (NN[1] dogs)) (VBD[2] ran))", "NP+X"),
    ("(S[1] (NN[1] dogs) (H_NP[2] (VBD[2] ran)))", "H_NP"),
    ("(S[2] (<E>[1] (NN[1] dogs)) (VBD[2] ran))", EMPTY),
]


class TestReservedPhraseLabels:
    """Phrase labels the encodings would rewrite are refused."""

    @pytest.mark.parametrize("text, label", RESERVED)
    def test_division_encoding_refuses(self, text, label):
        tree = read_hpsg(text)[0]
        with pytest.raises(StructureError,
                           match=f"^phrase label {re.escape(repr(label))}"):
            to_division(tree)

    @pytest.mark.parametrize("text, label", RESERVED[::2])
    def test_bare_encoding_refuses(self, text, label):
        tree = read_hpsg(text)[0]
        with pytest.raises(StructureError,
                           match=f"^phrase label {re.escape(repr(label))}"):
            binarize_head_outward(tree)

    def test_bare_encoding_keeps_the_head_prefix(self):
        # joint labels carry no marks, so H_ is an ordinary letter pair
        tree = read_hpsg(RESERVED[1][0])[0]
        assert from_parts(tree_parts(tree), tree.tokens) == tree


class TestBinaryInvariants:
    def test_every_node_has_at_most_two_children(self, sample_fused):
        for tree in sample_fused:
            stack = [binarize_head_outward(tree)]
            while stack:
                node = stack.pop()
                assert len(node.children) <= 2
                stack.extend(node.children)

    def test_exactly_one_label_per_position_and_2n_minus_1_spans(
            self, sample_fused):
        for tree in sample_fused:
            encoded = binarize_head_outward(tree)
            internal = [nd for nd in encoded.iter_nodes()
                        if not nd.is_preterminal]
            assert len(internal) == 2 * len(tree) - 1
            single = [nd.span() for nd in internal if nd.start == nd.end]
            assert sorted(single) == [(i, i) for i in
                                      range(1, len(tree) + 1)]

    def test_intermediates_contain_the_head_daughter(self, sample_fused):
        for tree in sample_fused:
            encoded = binarize_head_outward(tree)
            for nd in encoded.iter_nodes():
                if nd.label == EMPTY and len(nd.children) == 2:
                    assert nd.start <= nd.head <= nd.end


class TestRoundTrip:
    def test_identity_on_fused_corpus(self, sample_fused):
        for tree in sample_fused:
            back, flags = round_trip(tree)
            assert flags == []
            assert back == tree

    def test_identity_on_random_shapes(self):
        rng = random.Random(20)
        for _ in range(200):
            tree = random_tree(rng, rng.randint(1, 12))
            back, flags = round_trip(tree)
            assert flags == []
            assert back == tree

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30))
    def test_identity_property_on_random_trees(self, seed, n):
        tree = random_tree(random.Random(seed), n)
        assert round_trip(tree) == (tree, [])


class TestFromParts:
    """``from_parts`` inverts ``tree_parts``: the bare binarization's
    labeled spans, the arcs and the root give back the tree."""

    def test_identity_on_fused_corpus(self, sample_fused):
        assert len(sample_fused) == 250
        for tree in sample_fused:
            assert from_parts(tree_parts(tree), tree.tokens) == tree

    def test_identity_on_multihead_pairs(self, multihead_pairs):
        # fusing reports head conflicts here, and still gives a tree
        for k, (const, deps) in enumerate(multihead_pairs):
            tree, _ = fuse(const, deps, ordinal=k)
            assert from_parts(tree_parts(tree), tree.tokens) == tree

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30))
    def test_identity_property_on_random_trees(self, seed, n):
        tree = random_tree(random.Random(seed), n)
        assert from_parts(tree_parts(tree), tree.tokens) == tree


class TestDecodingFallbacks:
    def test_missing_marks_flag_and_keep_leftmost_head(self):
        spans = [(1, 1, EMPTY), (2, 2, EMPTY), (1, 2, "X")]
        back, flags = from_division(spans, tokens_of("A B"))
        assert len(flags) == 1
        assert "(1,2)" in flags[0]
        assert back.root.head == 1
        assert [ch.label for ch in back.root.children] == ["A", "B"]

    def test_empty_root_over_two_pieces_rejected(self):
        spans = [(1, 1, "H_" + EMPTY), (2, 2, EMPTY), (1, 2, EMPTY)]
        with pytest.raises(StructureError):
            from_division(spans, tokens_of("A B"))

    def test_chain_atom_expands_in_original_order(self):
        back, flags = from_division([(1, 1, "S+VP")], tokens_of("VBZ"))
        assert flags == []
        assert back.root.label == "S"
        assert back.root.children[0].label == "VP"
        assert back.root.children[0].children[0].label == "VBZ"
