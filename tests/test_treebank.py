"""Reader and writer behavior for the three on-disk formats."""

import io

import pytest

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
        kept = read_bracketed(
            "(S (NP-SBJ-1 (DT the) (NN dog)) (VP=2 (VBD ran)))",
            strip_tags=False)[0]
        assert [n.label for n in kept.internal_nodes()] == ["S", "NP-SBJ-1",
                                                            "VP=2"]

    def test_unbalanced_close_reports_line(self):
        with pytest.raises(TreebankError) as err:
            read_bracketed("(S (NN dog))\n)")
        assert err.value.line == 2

    def test_unbalanced_open_reports_opening_line(self):
        with pytest.raises(TreebankError) as err:
            read_bracketed("(S (NP (NN dog))")
        assert err.value.line == 1

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
