"""Reader and writer behavior for the three on-disk formats."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headspan.errors import AlignmentError, TreebankError
from headspan.treebank import (
    format_bracketed,
    format_conll,
    format_hpsg,
    pair_treebanks,
    read_bracketed,
    read_conll,
    read_hpsg,
    strip_function_tags,
    write_bracketed,
    write_conll,
    write_hpsg,
)
from headspan.trees import (
    ConstituentTree,
    ConstNode,
    DependencyTree,
    HpsgTree,
    Token,
    make_const_node,
    make_node,
    preterminal,
)


class TestBracketed:
    def test_round_trip_preserves_sample_corpus(self, sample_pairs):
        consts = [c for c, _ in sample_pairs]
        buf = io.StringIO()
        write_bracketed(consts, buf)
        again = read_bracketed(buf.getvalue())
        assert again == consts

    def test_spans_are_assigned(self):
        tree = read_bracketed("(S (NP (DT the) (NN dog)) (VP (VBD ran)))")[0]
        assert tree.root.span() == (1, 3)
        np, vp = tree.root.children
        assert np.span() == (1, 2)
        assert vp.span() == (3, 3)
        assert [t.form for t in tree.tokens] == ["the", "dog", "ran"]
        tree.validate()

    def test_function_tags_dropped_by_default(self):
        tree = read_bracketed(
            "(S (NP-SBJ-1 (DT the) (NN dog)) (VP=2 (VBD ran)))")[0]
        assert [n.label for n in tree.internal_nodes()] == ["S", "NP", "VP"]

    def test_unbalanced_close_reports_line(self):
        with pytest.raises(TreebankError) as err:
            read_bracketed("(S (NN dog))\n)")
        assert err.value.line == 2

    def test_unbalanced_open_reports_opening_line(self):
        with pytest.raises(TreebankError) as err:
            read_bracketed("(S (NP (NN dog))")
        assert err.value.line == 1

    def test_errors_come_in_file_order_naming_the_tree_line(self):
        # each tree is built as its brackets close, so the fault inside the
        # tree that starts on line 2 is met before the stray ')' on line 4
        text = "(S (NN a))\n(S (NP b\n (NN c)))\n)"
        with pytest.raises(TreebankError, match="mixed token") as err:
            read_bracketed(text)
        assert err.value.line == 2

    def test_stray_token_rejected(self):
        with pytest.raises(TreebankError):
            read_bracketed("dog (S (NN dog))")


class TestConll:
    def test_round_trip_preserves_sample_corpus(self, sample_pairs):
        deps = [d for _, d in sample_pairs]
        buf = io.StringIO()
        write_conll(deps, buf)
        assert read_conll(buf.getvalue()) == deps

    def test_all_underscore_labels_become_none(self):
        rows = "\n".join([
            "1\tdogs\t_\tNNS\tNNS\t_\t2\t_\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\t_\t_\t_",
        ])
        tree = read_conll(rows)[0]
        assert tree.labels is None
        assert "_\t_\t_" in format_conll(tree)

    def test_mixed_labels_keep_none_slots(self):
        rows = "\n".join([
            "1\tdogs\t_\tNNS\tNNS\t_\t2\tnsubj\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\t_\t_\t_",
        ])
        tree = read_conll(rows)[0]
        assert tree.labels == [None, "nsubj", None]

    def test_row_errors_carry_line_numbers(self):
        bad_head = "1\tdogs\t_\tNNS\tNNS\t_\tx\t_\t_\t_"
        with pytest.raises(TreebankError) as err:
            read_conll(bad_head)
        assert err.value.line == 1

        gap = "\n".join([
            "1\tdogs\t_\tNNS\tNNS\t_\t2\t_\t_\t_",
            "3\tran\t_\tVBD\tVBD\t_\t0\t_\t_\t_",
        ])
        with pytest.raises(TreebankError) as err:
            read_conll(gap)
        assert err.value.line == 2

    def test_conllu_extras_skipped_with_one_warning(self, caplog):
        rows = "\n".join([
            "# sent_id = 1",
            "# text = dogs ran off",
            "1-2\tdogsran\t_\t_\t_\t_\t_\t_\t_\t_",
            "1\tdogs\t_\tNNS\tNNS\t_\t2\tnsubj\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\troot\t_\t_",
            "2.1\tgone\t_\tVBN\tVBN\t_\t_\t_\t2:conj\t_",
            "3\toff\t_\tRP\tRP\t_\t2\tprt\t_\t_",
        ])
        with caplog.at_level("WARNING", logger="headspan.treebank"):
            trees = read_conll(rows)
        assert len(trees) == 1
        assert [t.form for t in trees[0].tokens] == ["dogs", "ran", "off"]
        assert trees[0].heads == [0, 2, 0, 2]
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "skipped 4" in warnings[0].getMessage()

    def test_short_row_rejected(self):
        with pytest.raises(TreebankError):
            read_conll("1\tdogs\tNNS")

    def test_invalid_tree_rejected_at_sentence_start(self):
        two_roots = "\n".join([
            "1\tdogs\t_\tNNS\tNNS\t_\t0\t_\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\t_\t_\t_",
        ])
        with pytest.raises(TreebankError) as err:
            read_conll(two_roots)
        assert err.value.line == 1


class TestHpsg:
    def test_round_trip_preserves_fused_corpus(self, sample_fused):
        buf = io.StringIO()
        write_hpsg(sample_fused, buf)
        again = read_hpsg(buf.getvalue())
        assert again == sample_fused

    def test_head_suffix_parses(self):
        tree = read_hpsg(
            "(S[3] (NP[2] (DT[1] the) (NN[2] dog)) (VBD[3] ran))")[0]
        assert tree.root.label == "S"
        assert tree.root.head == 3
        assert tree.root.children[0].head == 2

    def test_node_without_head_rejected(self):
        with pytest.raises(TreebankError):
            read_hpsg("(S (NN[1] dogs) (VBD[2] ran))")

    def test_preterminal_with_foreign_head_rejected(self):
        with pytest.raises(TreebankError) as err:
            read_hpsg("(S[2] (NN[2] dogs) (VBD[2] ran))")
        assert "claims head" in str(err.value)

    def test_head_outside_span_rejected(self):
        with pytest.raises(TreebankError):
            read_hpsg("(S[9] (NN[1] dogs) (VBD[2] ran))")

    def test_phrase_whose_head_no_child_carries_rejected(self):
        # B heads 3 through D, but S's head 2 belongs to C, inside B; read
        # as it was, to_division then from_division gave S the head 1
        text = "(S[1] (A[1] a))\n(S[2] (A[1] a) (B[3] (C[2] b) (D[3] c)))"
        with pytest.raises(TreebankError,
                           match="head 2 of S.* exactly one child") as err:
            read_hpsg(text)
        assert err.value.line == 2

    def test_format_writes_head_suffixes(self):
        text = "(S[2] (NN[1] dogs) (VBD[2] ran))"
        assert format_hpsg(read_hpsg(text)[0]) == text


class TestPairing:
    def test_paired_corpora_align(self, sample_pairs):
        assert len(sample_pairs) == 250

    def test_count_mismatch_rejected(self, sample_pairs):
        consts = [c for c, _ in sample_pairs]
        deps = [d for _, d in sample_pairs]
        with pytest.raises(AlignmentError):
            pair_treebanks(consts, deps[:-1])

    def test_token_mismatch_rejected(self):
        c = read_bracketed("(S (NN dogs) (VBD ran))")
        d = read_conll("\n".join([
            "1\tcats\t_\tNNS\tNNS\t_\t2\t_\t_\t_",
            "2\tran\t_\tVBD\tVBD\t_\t0\t_\t_\t_",
        ]))
        with pytest.raises(AlignmentError) as err:
            pair_treebanks(c, d)
        assert "token 1" in str(err.value)


def test_strip_function_tags():
    assert strip_function_tags("NP-SBJ-1") == "NP"
    assert strip_function_tags("VP=2") == "VP"
    assert strip_function_tags("-NONE-") == "-NONE-"
    assert strip_function_tags("S") == "S"
    assert strip_function_tags("") == ""


DEPTH = 2000
LABELS = ["S", "NP", "VP", "PP", "X"]
TAGS = ["DT", "NN", "VBZ", "IN", "JJ"]


def deep_tree(rng: random.Random, heads: bool):
    """A constituent or head-annotated tree ``DEPTH`` phrases deep. Each
    phrase of its spine takes the phrase below it and, half of the time, a
    preterminal or a two-token phrase on its left or right; a head-annotated
    phrase takes its head from a random child. Built bottom-up with loops:
    the tree is too deep to recurse over."""
    levels = [(rng.choice(LABELS), rng.choice([None, None, "L", "R"]),
               rng.randint(1, 2)) for _ in range(DEPTH)]
    # left siblings from the top phrase down, the bottom token, then right
    # siblings from the bottom phrase up
    starts = {}
    pos = 1
    for k in reversed(range(DEPTH)):
        if levels[k][1] == "L":
            starts[k], pos = pos, pos + levels[k][2]
    bottom, pos = pos, pos + 1
    for k in range(DEPTH):
        if levels[k][1] == "R":
            starts[k], pos = pos, pos + levels[k][2]
    tokens = [Token(i, f"w{rng.randrange(50)}", rng.choice(TAGS))
              for i in range(1, pos)]

    def leaf(i):
        if heads:
            return preterminal(i, tokens[i - 1].pos)
        return ConstNode(label=tokens[i - 1].pos, start=i, end=i)

    def phrase(label, children):
        if heads:
            return make_node(label, children, rng.choice(children).head)
        return make_const_node(label, children)

    node = leaf(bottom)
    for k, (label, side, width) in enumerate(levels):
        if side is None:
            node = phrase(label, [node])
            continue
        at = starts[k]
        sibling = leaf(at) if width == 1 else phrase(
            rng.choice(LABELS), [leaf(at), leaf(at + 1)])
        node = phrase(label, [sibling, node] if side == "L" else
                      [node, sibling])
    return (HpsgTree if heads else ConstituentTree)(tokens=tokens, root=node)


def deep_dependencies(rng: random.Random) -> DependencyTree:
    """A dependency tree with a head chain ``DEPTH`` tokens long through
    randomly placed tokens, and more tokens attached anywhere on it."""
    n = DEPTH + rng.randrange(DEPTH // 4)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * (n + 1)
    for k in range(1, n):
        above = k - 1 if k < DEPTH else rng.randrange(k)
        heads[order[k]] = order[above]
    labels = [None, *(rng.choice(["nsubj", "obj", "nmod", None])
                      for _ in range(n))]
    tokens = [Token(i, f"w{rng.randrange(50)}", rng.choice(TAGS))
              for i in range(1, n + 1)]
    return DependencyTree(tokens=tokens, heads=heads, labels=labels)


def phrase_depth(root) -> int:
    deepest, stack = 0, [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.children:
            stack += [(child, depth + 1) for child in node.children]
        deepest = max(deepest, depth)
    return deepest


def chain_depth(tree: DependencyTree) -> int:
    """Tokens on the longest head chain, each token's depth found once."""
    depth = [0] * len(tree.heads)
    for i in range(1, len(tree.heads)):
        path = []
        while i and not depth[i]:
            path.append(i)
            i = tree.heads[i]
        for d, j in enumerate(reversed(path), start=depth[i] + 1):
            depth[j] = d
    return max(depth)


@settings(max_examples=3, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_deep_trees_of_random_shapes_round_trip(seed):
    rng = random.Random(seed)
    const, hpsg = deep_tree(rng, heads=False), deep_tree(rng, heads=True)
    deps = deep_dependencies(rng)
    assert phrase_depth(const.root) == phrase_depth(hpsg.root) == DEPTH
    assert chain_depth(deps) >= DEPTH
    const.validate()
    hpsg.validate_spans()
    for tree, write, read in ((const, write_bracketed, read_bracketed),
                              (hpsg, write_hpsg, read_hpsg),
                              (deps, write_conll, read_conll)):
        buf = io.StringIO()
        write([tree, tree], buf)
        assert read(buf.getvalue()) == [tree, tree]
