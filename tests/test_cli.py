"""End-to-end command line tests.

Commands run in process through ``main(argv)`` so exit codes and output
are asserted directly; one subprocess test covers the module entry point.
"""

import json
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headspan import cli, decode
from headspan.cli import main
from headspan.fuse import project_dependencies
from headspan.linear import LinearModel
from headspan.scoring import (CategoryVocab, oracle_scores, read_scores,
                              write_scores)
from headspan.synth import random_score_table
from headspan.treebank import read_bracketed, read_conll, read_hpsg


@pytest.fixture()
def multihead_files(data_dir):
    return str(data_dir / "multihead.brackets"), str(data_dir / "multihead.conll")


@pytest.fixture()
def score_file(tmp_path, multihead_files):
    """Random but well-formed score tables aligned with multihead.conll."""
    _, conll = multihead_files
    with open(conll, encoding="utf-8") as fh:
        lengths = [len(d.tokens) for d in read_conll(fh)]
    rng = np.random.default_rng(5)
    vocab = CategoryVocab(["NP", "VP", "S"])
    tables = [random_score_table(rng, n, vocab) for n in lengths]
    path = tmp_path / "scores.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_scores(tables, fh)
    return str(path)


class TestConvert:
    def test_summary_counts(self, tmp_path, multihead_files, capsys):
        const, conll = multihead_files
        out = tmp_path / "fused.hpsg"
        code = main(["convert", "--const", const, "--conll", conll,
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "sentences          5" in captured.out
        # one divided phrase in sentences 1, 2 and 4, two in sentence 3
        assert "multi-head phrases 5" in captured.out
        assert "residual phrases   0" in captured.out
        assert "head errors        0" in captured.out
        assert captured.err == ""
        with open(out, encoding="utf-8") as fh:
            trees = read_hpsg(fh)
        assert len(trees) == 5
        with open(conll, encoding="utf-8") as fh:
            deps = read_conll(fh)
        # token-level heads are not stored in the tree file; they come
        # back out of the node structure
        for tree, dep in zip(trees, deps):
            assert project_dependencies(tree).heads == dep.heads

    def test_misaligned_inputs(self, tmp_path, data_dir, multihead_files):
        _, conll = multihead_files
        code = main(["convert", "--const", str(data_dir / "sample.brackets"),
                     "--conll", conll, "--out", str(tmp_path / "x")])
        assert code == 2

    def test_malformed_input(self, tmp_path, multihead_files, capsys):
        _, conll = multihead_files
        bad = tmp_path / "bad.brackets"
        bad.write_text("(S (NN dogs)\n", encoding="utf-8")
        code = main(["convert", "--const", str(bad), "--conll", conll,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, multihead_files):
        _, conll = multihead_files
        code = main(["convert", "--const", str(tmp_path / "absent"),
                     "--conll", conll, "--out", str(tmp_path / "x")])
        assert code == 2


class TestParse:
    def test_joint_from_scores(self, tmp_path, multihead_files, score_file):
        _, conll = multihead_files
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", conll, "--scores", score_file,
                     "--out", str(out)])
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            trees = read_hpsg(fh)
        with open(conll, encoding="utf-8") as fh:
            deps = read_conll(fh)
        assert len(trees) == len(deps)
        for tree, dep in zip(trees, deps):
            assert [t.form for t in tree.tokens] == [t.form for t in dep.tokens]

    def test_projection_outputs(self, tmp_path, multihead_files, score_file):
        _, conll = multihead_files
        out_c = tmp_path / "pred.brackets"
        out_d = tmp_path / "pred.conll"
        code = main(["parse", "--input", conll, "--scores", score_file,
                     "--out-const", str(out_c), "--out-dep", str(out_d)])
        assert code == 0
        with open(out_c, encoding="utf-8") as fh:
            assert len(read_bracketed(fh)) == 5
        with open(out_d, encoding="utf-8") as fh:
            deps = read_conll(fh)
        assert len(deps) == 5
        assert all(0 in d.heads for d in deps)

    def test_eisner_decoder(self, tmp_path, multihead_files, score_file):
        _, conll = multihead_files
        out = tmp_path / "pred.conll"
        code = main(["parse", "--input", conll, "--scores", score_file,
                     "--decoder", "eisner", "--out-dep", str(out)])
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            assert len(read_conll(fh)) == 5

    @pytest.mark.parametrize("lam", ["5", "nan", "-1"])
    @pytest.mark.parametrize("decoder", decode.ROUTES)
    def test_lambda_outside_the_unit_range_is_refused_on_every_route(
            self, tmp_path, multihead_files, score_file, model_file, capsys,
            decoder, lam):
        # the division and eisner routes used to ignore it and write trees
        _, conll = multihead_files
        out = tmp_path / "pred.conll"
        for source in (["--scores", score_file], ["--model", model_file]):
            code = main(["parse", "--input", conll, *source, "--decoder",
                         decoder, "--lambda", lam, "--out-dep", str(out)])
            assert code == 1
            assert capsys.readouterr().err.splitlines() == [
                f"headspan parse: lam must lie in [0, 1], got {float(lam)}"]
            assert not out.exists()

    @pytest.mark.parametrize("decoder", decode.ROUTES)
    def test_scores_whose_best_tree_sums_past_the_float_range_exit_2(
            self, tmp_path, multihead_files, score_file, capsys, decoder):
        # every entry of sentence 2 is finite; the score of its best tree
        # is not
        _, conll = multihead_files
        with open(score_file, encoding="utf-8") as fh:
            tables = read_scores(fh)
        for part in (tables[1].span, tables[1].arc):
            part[part != 0] = 1e308
        scores = tmp_path / "huge.txt"
        with open(scores, "w", encoding="utf-8") as fh:
            write_scores(tables, fh)
        out = tmp_path / "pred.conll"
        code = main(["parse", "--input", conll, "--scores", str(scores),
                     "--decoder", decoder, "--out-dep", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "headspan parse: sentence 2: non-finite decoded score inf"]
        assert not out.exists()

    def test_division_decoder(self, tmp_path, multihead_files, score_file,
                              capsys):
        _, conll = multihead_files
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", conll, "--scores", score_file,
                     "--decoder", "division", "--out", str(out)])
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            assert len(read_hpsg(fh)) == 5

    def test_len_cap_falls_back_to_span_decoder(self, tmp_path,
                                                multihead_files, score_file,
                                                capsys, monkeypatch):
        monkeypatch.setattr(decode, "LEN_CAP", 8)
        _, conll = multihead_files
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", conll, "--scores", score_file,
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        # the two nine-token sentences exceed the cap
        assert captured.err.count("above cap") == 2
        with open(out, encoding="utf-8") as fh:
            assert len(read_hpsg(fh)) == 5

    def test_span_decoder_takes_heads_from_arcs_of_bare_labels(
            self, tmp_path, data_dir, sample_fused, capsys):
        # oracle scores of bare labels mark no head daughter; the arcs do
        vocab = CategoryVocab.from_trees(sample_fused)
        scores = tmp_path / "scores.txt"
        with open(scores, "w", encoding="utf-8") as fh:
            write_scores([oracle_scores(t, vocab) for t in sample_fused], fh)
        out = tmp_path / "parsed.conll"
        code = main(["parse", "--input", str(data_dir / "sample.conll"),
                     "--scores", str(scores), "--decoder", "division",
                     "--out-dep", str(out)])
        assert code == 0
        assert "no H-marked child" not in capsys.readouterr().err
        with open(out, encoding="utf-8") as fh:
            assert [d.heads for d in read_conll(fh)] == [
                project_dependencies(t).heads for t in sample_fused]

    def test_bracketed_input_detected(self, tmp_path, multihead_files,
                                      score_file):
        const, _ = multihead_files
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", const, "--scores", score_file,
                     "--out", str(out)])
        assert code == 0

    def test_table_size_mismatch_reported(self, tmp_path, multihead_files,
                                          score_file, capsys):
        _, conll = multihead_files
        short = tmp_path / "short.conll"
        rows = ["1\tone\t_\tCD\tCD\t_\t0\troot\t_\t_"]
        short.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", str(short), "--scores", score_file,
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "sentence 1: score table covers 9 tokens, sentence has 1" \
            in captured.err
        assert not out.exists()

    def test_missing_table_reported(self, tmp_path, multihead_files,
                                    score_file, capsys):
        _, conll = multihead_files
        with open(score_file, encoding="utf-8") as fh:
            text = fh.read()
        short = tmp_path / "short.txt"
        short.write_text(text[:text.index("#sent 4 ")], encoding="utf-8")
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", conll, "--scores", str(short),
                     "--out", str(out)])
        assert code == 2
        assert "sentence 4: no score table" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("decoder", ["joint", "division"])
    def test_sentence_span_without_an_ordinary_category_exits_2(
            self, tmp_path, decoder, capsys):
        # a lone token may stay bare, but sentence 2 needs an ordinary
        # category for its sentence span and its table has only #
        scores = tmp_path / "scores.txt"
        scores.write_text("#sent 1 1\nSPAN 1 1 # 1.0\n"
                          "#sent 2 2\nSPAN 1 2 # 1.0\n", encoding="utf-8")
        sentences = tmp_path / "in.conll"
        sentences.write_text("1\ta\t_\tX\tX\t_\t0\troot\t_\t_\n\n"
                             "1\ta\t_\tX\tX\t_\t0\troot\t_\t_\n"
                             "2\tb\t_\tX\tX\t_\t1\tdep\t_\t_\n",
                             encoding="utf-8")
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", str(sentences), "--scores",
                     str(scores), "--decoder", decoder, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "headspan parse: sentence 2: score table has no ordinary "
            "category to label the sentence span"]
        assert not out.exists()

    @pytest.mark.parametrize("decoder", [None, "joint"])
    def test_head_marked_scores_are_refused_on_the_joint_route(
            self, tmp_path, decoder, capsys):
        # the joint decoder would write H_<E> and H_A as phrases; the span
        # decoder reads the marks as heads, and labels the sentence span
        # S+VP, not the higher-scoring H_<E>
        scores = tmp_path / "scores.txt"
        scores.write_text("#sent 1 2\nSPAN 1 1 A 0.5\nSPAN 2 2 H_A 0.7\n"
                          "SPAN 1 2 H_<E> 5.0\nSPAN 1 2 S+VP 1.0\n"
                          "ARC 2 1 1.0\nROOT 1 1.0\n", encoding="utf-8")
        sentences = tmp_path / "in.conll"
        sentences.write_text("1\ta\t_\tX\tX\t_\t0\troot\t_\t_\n"
                             "2\tb\t_\tX\tX\t_\t1\tdep\t_\t_\n",
                             encoding="utf-8")
        out = tmp_path / "parsed.hpsg"
        chosen = [] if decoder is None else ["--decoder", decoder]
        code = main(["parse", "--input", str(sentences), "--scores",
                     str(scores), *chosen, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "headspan parse: the scores have head-marked (H_) span labels; "
            "use --decoder division, not joint"]
        assert not out.exists()
        assert main(["parse", "--input", str(sentences), "--scores",
                     str(scores), "--decoder", "division", "--out",
                     str(out)]) == 0
        assert out.read_text(encoding="utf-8").split() == [
            "(S[2]", "(VP[2]", "(A[1]", "(X[1]", "a))", "(A[2]", "(X[2]",
            "b))))"]

    def test_sentence_span_without_an_unmarked_category_exits_2(
            self, tmp_path, capsys):
        # a lone token may stay bare; sentence 2's sentence span may take
        # no H_ label, and the scores have no other
        scores = tmp_path / "scores.txt"
        scores.write_text("#sent 1 1\nSPAN 1 1 H_A 1.0\n"
                          "#sent 2 2\nSPAN 1 2 H_A 1.0\n", encoding="utf-8")
        sentences = tmp_path / "in.conll"
        sentences.write_text("1\ta\t_\tX\tX\t_\t0\troot\t_\t_\n\n"
                             "1\ta\t_\tX\tX\t_\t0\troot\t_\t_\n"
                             "2\tb\t_\tX\tX\t_\t1\tdep\t_\t_\n",
                             encoding="utf-8")
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", str(sentences), "--scores",
                     str(scores), "--decoder", "division", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "headspan parse: sentence 2: score table has no ordinary "
            "category without an H_ mark to label the sentence span"]
        assert not out.exists()

    @staticmethod
    def flat_conll(path, lengths):
        """Sentences of ``lengths`` tokens, each headed by its first."""
        path.write_text("".join(
            "".join(f"{i}\tw{i}\t_\tX\tX\t_\t{0 if i == 1 else 1}\t"
                    f"dep\t_\t_\n" for i in range(1, n + 1)) + "\n"
            for n in lengths), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("part", ["span", "arc", "root"])
    @pytest.mark.parametrize("decoder", ["joint", "division", "eisner"])
    def test_the_first_refused_sentence_is_named(
            self, tmp_path, decoder, part, capsys, monkeypatch):
        # non-finite values that reach the decoders, as finite model
        # weights can sum to, in sentences 4 and 5; sentence 5 is as long
        # as sentence 1, so the joint route decodes it before sentence 4
        lengths = [3, 2, 4, 5, 3]
        rng = np.random.default_rng(3)
        tables = [random_score_table(rng, n, CategoryVocab(["A", "B"]))
                  for n in lengths]
        for table in tables[3:]:
            getattr(table, part)[2] = np.nan
        monkeypatch.setattr(cli, "read_scores", lambda fh: tables)
        scores = tmp_path / "scores.txt"
        scores.write_text("", encoding="utf-8")
        out = tmp_path / "parsed.conll"
        code = main(["parse", "--input",
                     self.flat_conll(tmp_path / "in.conll", lengths),
                     "--scores", str(scores), "--decoder", decoder,
                     "--out-dep", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"headspan parse: sentence 4: non-finite values in {part} "
            f"scores"]
        assert not out.exists()

    @pytest.mark.parametrize("decoder", ["joint", "division"])
    def test_the_first_sentence_span_without_a_label_is_named(
            self, tmp_path, decoder, capsys):
        # lone tokens may stay bare; sentence 4 is the first longer one,
        # and the one length of the joint route's first batch holds the
        # lone sentence 5 with the three before it
        lengths = [1, 1, 1, 2, 1]
        scores = tmp_path / "scores.txt"
        scores.write_text("".join(
            f"#sent {k} {n}\nSPAN 1 {n} # 1.0\n"
            for k, n in enumerate(lengths, start=1)), encoding="utf-8")
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input",
                     self.flat_conll(tmp_path / "in.conll", lengths),
                     "--scores", str(scores), "--decoder", decoder,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "headspan parse: sentence 4: score table has no ordinary "
            "category to label the sentence span"]
        assert not out.exists()

    def test_eisner_reads_a_table_without_an_ordinary_category(
            self, tmp_path):
        # the dependency route never labels the sentence span
        scores = tmp_path / "scores.txt"
        scores.write_text("#sent 1 2\nSPAN 1 2 # 1.0\nARC 2 1 1.0\n"
                          "ROOT 1 1.0\n", encoding="utf-8")
        sentences = tmp_path / "in.conll"
        sentences.write_text("1\ta\t_\tX\tX\t_\t0\troot\t_\t_\n"
                             "2\tb\t_\tX\tX\t_\t1\tdep\t_\t_\n",
                             encoding="utf-8")
        out = tmp_path / "parsed.conll"
        assert main(["parse", "--input", str(sentences), "--scores",
                     str(scores), "--decoder", "eisner", "--out-dep",
                     str(out)]) == 0
        heads = [line.split("\t")[6] for line in
                 out.read_text(encoding="utf-8").splitlines() if line]
        assert heads == ["0", "1"]

    def test_scores_and_model_conflict(self, multihead_files, score_file,
                                       capsys):
        _, conll = multihead_files
        code = main(["parse", "--input", conll, "--scores", score_file,
                     "--model", "whatever"])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err
        assert main(["parse", "--input", conll]) == 1

    def test_eisner_rejects_tree_outputs(self, multihead_files, score_file,
                                         capsys):
        _, conll = multihead_files
        code = main(["parse", "--input", conll, "--scores", score_file,
                     "--decoder", "eisner", "--out", "x.hpsg"])
        assert code == 1
        assert "dependencies only" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fused_file(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("train") / "fused.hpsg"
    code = main(["convert",
                 "--const", str(data_dir / "multihead.brackets"),
                 "--conll", str(data_dir / "multihead.conll"),
                 "--out", str(out)])
    assert code == 0
    return str(out)


def rewrite_model(source, path, weights=None, **header):
    """Copy the model file ``source`` to ``path`` with header fields or the
    weights (a function of the old ones) replaced."""
    with np.load(source) as archive:
        fields = json.loads(str(archive["header"]))
        old = archive["weights"]
    fields.update(header)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(fields)),
                 weights=old if weights is None else weights(old))


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, fused_file):
    path = tmp_path_factory.mktemp("model") / "tiny.model"
    code = main(["train", "--hpsg", fused_file, "--model-out", str(path),
                 "--epochs", "8", "--dim", str(2 ** 16),
                 "--seed", "13"])
    assert code == 0
    return str(path)


class TestTrainAndModelParse:
    def test_train_reports_progress(self, tmp_path, fused_file, capsys):
        path = tmp_path / "m.model"
        code = main(["train", "--hpsg", fused_file, "--model-out", str(path),
                     "--epochs", "2", "--dim", str(2 ** 16)])
        captured = capsys.readouterr()
        assert code == 0
        assert "saved model to" in captured.out
        assert "final objective" in captured.out
        assert path.exists()

    def test_train_from_raw_pair(self, tmp_path, data_dir, capsys):
        path = tmp_path / "m.model"
        code = main(["train",
                     "--const", str(data_dir / "multihead.brackets"),
                     "--conll", str(data_dir / "multihead.conll"),
                     "--model-out", str(path), "--epochs", "2",
                     "--dim", str(2 ** 16)])
        assert code == 0
        assert path.exists()

    def test_train_with_holdout(self, tmp_path, fused_file):
        path = tmp_path / "m.model"
        code = main(["train", "--hpsg", fused_file, "--model-out", str(path),
                     "--epochs", "2", "--dim", str(2 ** 16),
                     "--holdout", "2"])
        assert code == 0

    @pytest.mark.parametrize("holdout", ["-3", "-1000"])
    def test_negative_holdout_refused(self, tmp_path, data_dir, holdout,
                                      capsys):
        # a negative holdout swapped the sets: -3 trained on the first 3
        # sentences and held out the rest, -1000 picked epochs on no
        # sentences at all
        path = tmp_path / "m.model"
        code = main(["train", "--const", str(data_dir / "sample.brackets"),
                     "--conll", str(data_dir / "sample.conll"),
                     "--model-out", str(path), "--holdout", holdout])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"headspan train: --holdout must be at least 0, got {holdout}"]
        assert not path.exists()

    def test_overflowing_weights_name_the_epoch_and_sentence(
            self, tmp_path, data_dir, capsys):
        # a huge step lets the weights sum past the float range: one line
        # names the sentence refused, and numpy warns of nothing
        path = tmp_path / "m.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train",
                         "--const", str(data_dir / "sample.brackets"),
                         "--conll", str(data_dir / "sample.conll"),
                         "--model-out", str(path), "--epochs", "3",
                         "--step", "1e307", "--dim", "4096"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "headspan train: epoch 1, sentence 78: non-finite values in "
            "span scores"]
        assert not path.exists()

    @pytest.mark.parametrize("flag, value, message", [
        # nan and inf stopped with "non-finite values in span scores"
        # (exit 2), 0 and -1 wrote a model that scores nothing or the
        # opposite of its training
        *(("--step", v, f"step must be positive and finite, got {v}")
          for v in ("nan", "inf", "0.0", "-1.0")),
        # 2^40 weights died allocating; keys carry 32 bits
        ("--dim", str(2 ** 40),
         f"dim must be a power of two from 2 to 2^32; got {2 ** 40}"),
    ])
    def test_bad_training_values_refused(self, tmp_path, fused_file, flag,
                                         value, message, capsys):
        path = tmp_path / "m.model"
        code = main(["train", "--hpsg", fused_file, "--model-out", str(path),
                     flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"headspan train: {message}"]
        assert not path.exists()

    @pytest.mark.parametrize("phrase, label, mode", [
        ("(NP+X[1] (NN[1] dogs))", "NP+X", "joint"),
        ("(NP+X[1] (NN[1] dogs))", "NP+X", "division"),
        ("(<E>[1] (NN[1] dogs))", "<E>", "joint"),
        ("(<E>[1] (NN[1] dogs))", "<E>", "division"),
        ("(H_NP[1] (NN[1] dogs))", "H_NP", "division"),
    ])
    def test_reserved_phrase_labels_refused(self, tmp_path, phrase, label,
                                            mode, capsys):
        # the encoding rewrote each of them without a word
        data = tmp_path / "reserved.hpsg"
        data.write_text(f"(S[2] (NN[1] dogs) (VBD[2] ran))\n"
                        f"(S[2] {phrase} (VBD[2] ran))\n", encoding="utf-8")
        path = tmp_path / "m.model"
        code = main(["train", "--hpsg", str(data), "--model-out", str(path),
                     "--mode", mode, "--dim", str(2 ** 10)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"headspan train: sentence 2: phrase label "
                               f"{label!r}: ")
        assert not path.exists()

    def test_parse_with_model_and_eval(self, tmp_path, data_dir, model_file,
                                       capsys):
        out_c = tmp_path / "pred.brackets"
        out_d = tmp_path / "pred.conll"
        conll = str(data_dir / "multihead.conll")
        code = main(["parse", "--input", conll, "--model", model_file,
                     "--out-const", str(out_c), "--out-dep", str(out_d)])
        assert code == 0
        capsys.readouterr()
        code = main(["eval",
                     "--gold-const", str(data_dir / "multihead.brackets"),
                     "--pred-const", str(out_c),
                     "--gold-dep", conll, "--pred-dep", str(out_d),
                     "--format", "keyvalues"])
        captured = capsys.readouterr()
        assert code == 0
        values = dict(line.split("=") for line in captured.out.split())
        assert values["sentences"] == "5"
        for key in ("bracket_f1", "uas"):
            assert 0.0 <= float(values[key]) <= 100.0
        # parser output has no dependency labels, so no labeled score
        assert "las" not in values

    def test_division_model_parses_with_its_own_decoder(self, tmp_path,
                                                        data_dir, fused_file,
                                                        capsys):
        model = tmp_path / "division.model"
        assert main(["train", "--hpsg", fused_file, "--model-out",
                     str(model), "--mode", "division", "--epochs", "2",
                     "--dim", str(2 ** 16)]) == 0
        conll = str(data_dir / "multihead.conll")
        default = tmp_path / "default.hpsg"
        explicit = tmp_path / "explicit.hpsg"
        assert main(["parse", "--input", conll, "--model", str(model),
                     "--out", str(default)]) == 0
        assert main(["parse", "--input", conll, "--model", str(model),
                     "--decoder", "division", "--out", str(explicit)]) == 0
        assert "H_" not in default.read_text()
        assert default.read_text() == explicit.read_text()
        capsys.readouterr()
        for decoder in ("joint", "eisner"):
            code = main(["parse", "--input", conll, "--model", str(model),
                         "--decoder", decoder, "--out-dep",
                         str(tmp_path / "x.conll")])
            assert code == 1
            assert "division-mode model" in capsys.readouterr().err

    def test_train_refuses_sentences_above_the_length_cap(self, tmp_path,
                                                         fused_file, capsys):
        # the joint chart of a 250-token sentence would take 190 MB; the
        # long sentence comes last, in the holdout, so it is sentence 6
        n = 250
        long_tree = "(S[1] " + " ".join(f"(T[{i}] w{i})"
                                          for i in range(1, n + 1)) + ")"
        path = tmp_path / "long.hpsg"
        path.write_text(open(fused_file, encoding="utf-8").read()
                        + long_tree + "\n", encoding="utf-8")
        code = main(["train", "--hpsg", str(path), "--model-out",
                     str(tmp_path / "m"), "--holdout", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""       # refused before the first epoch
        assert captured.err == (
            "headspan train: sentence 6: 250 tokens, above the joint "
            "decoder's cap of 240; train with --mode division\n")
        assert not (tmp_path / "m").exists()

    def test_model_file_that_names_code_is_refused(self, tmp_path, data_dir,
                                                   capsys):
        marker = tmp_path / "ran"

        class Payload:
            def __reduce__(self):
                return os.system, (f"touch {marker}",)

        model = tmp_path / "evil.bin"
        model.write_bytes(pickle.dumps(Payload()))
        code = main(["parse", "--input", str(data_dir / "multihead.conll"),
                     "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert not marker.exists()
        assert err.splitlines() == [
            f"headspan parse: {model}: not a model file (File is not a zip "
            f"file)"]

    def test_model_file_with_lambda_out_of_range_is_refused(
            self, tmp_path, data_dir, model_file, capsys):
        model = tmp_path / "bad-lambda.bin"
        rewrite_model(model_file, model, lam=5.0)
        code = main(["parse", "--input", str(data_dir / "multihead.conll"),
                     "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert f"{model}: not a model file" in err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_model_file_with_non_finite_weights_is_refused(
            self, tmp_path, data_dir, model_file, capsys, value):
        # such a model used to load and parse every sentence into a
        # right-branching chain with numpy warnings, exit 0
        def poison(weights):
            weights[::7] = value
            return weights

        model = tmp_path / "non-finite.bin"
        rewrite_model(model_file, model, poison)
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", str(data_dir / "multihead.conll"),
                     "--model", str(model), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            f"headspan parse: {model}: not a model file (non-finite "
            f"weights)"]
        assert not out.exists()

    def test_finite_weights_that_sum_past_the_float_range_exit_2(
            self, tmp_path, data_dir, model_file, capsys):
        model = tmp_path / "huge.bin"
        rewrite_model(model_file, model, lambda w: np.full_like(w, 1e308))
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", str(data_dir / "multihead.conll"),
                     "--model", str(model), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "headspan parse: sentence 1: non-finite values in span scores"]
        assert not out.exists()

    @pytest.mark.parametrize("decoder", decode.ROUTES)
    def test_weights_whose_best_tree_sums_past_the_float_range_exit_2(
            self, tmp_path, data_dir, model_file, capsys, decoder):
        # at 1e307 a weight every span and arc score is finite, and the
        # summary takes them; the score of the best tree is not
        model = tmp_path / "big.bin"
        rewrite_model(model_file, model, lambda w: np.full_like(w, 1e307))
        out = tmp_path / "parsed.conll"
        code = main(["parse", "--input", str(data_dir / "multihead.conll"),
                     "--model", str(model), "--decoder", decoder,
                     "--out-dep", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "headspan parse: sentence 1: non-finite decoded score inf"]
        assert not out.exists()

    def test_non_finite_score_on_a_losing_label_exits_2(
            self, tmp_path, data_dir, model_file, capsys, monkeypatch):
        # -inf on the last label of span (1, 1) of sentence 4, the only one
        # of 7 tokens: it wins no span, so only the check of every scored
        # block, not the summary's values, can refuse it
        blocks = LinearModel._span_blocks

        def poisoned(self, h, n, *gathered):
            for cells, block in blocks(self, h, n, *gathered):
                if n == 7 and cells[0] == n + 2:    # span (1, 1)
                    block[0, -1] = -np.inf
                yield cells, block

        monkeypatch.setattr(LinearModel, "_span_blocks", poisoned)
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", str(data_dir / "multihead.conll"),
                     "--model", model_file, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "headspan parse: sentence 4: non-finite values in span scores"]
        assert not out.exists()

    @pytest.mark.parametrize("detail", ["Unable to allocate 1.6 GiB", ""])
    def test_out_of_memory_exits_1_in_one_line(self, tmp_path, data_dir,
                                               model_file, score_file,
                                               monkeypatch, capsys, detail):
        def exhausted(*args, **kwargs):
            raise MemoryError(detail)

        conll = str(data_dir / "multihead.conll")
        monkeypatch.setattr(LinearModel, "hashes_many", exhausted)
        monkeypatch.setattr(decode, "fill_joint_chart", exhausted)
        shown = f"({detail or 'an allocation failed'})"
        for source in (["--model", model_file], ["--scores", score_file]):
            out = tmp_path / "parsed.hpsg"
            code = main(["parse", "--input", conll, *source,
                         "--out", str(out)])
            assert code == 1
            assert capsys.readouterr().err.splitlines() == [
                f"headspan parse: out of memory {shown}"]
            assert not out.exists()

    def test_headless_phrase_in_training_trees_exits_2(self, tmp_path,
                                                        capsys):
        trees = tmp_path / "headless.hpsg"
        trees.write_text("(S[1] (A[1] a) (B[2] b))\n"
                         "(S[2] (A[1] a) (B[3] (C[2] b) (D[3] c)))\n",
                         encoding="utf-8")
        code = main(["train", "--hpsg", str(trees),
                     "--model-out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "headspan train: line 2: head 2 of S(1, 3) is not the head of "
            "exactly one child"]
        assert not (tmp_path / "m").exists()

    def test_text_file_is_not_a_model(self, tmp_path, data_dir, capsys):
        model = tmp_path / "notes.txt"
        model.write_text("hello\n", encoding="utf-8")
        code = main(["parse", "--input", str(data_dir / "multihead.conll"),
                     "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert f"{model}: not a model file" in err

    def test_conflicting_inputs(self, tmp_path, fused_file, data_dir,
                                capsys):
        code = main(["train", "--hpsg", fused_file,
                     "--const", str(data_dir / "multihead.brackets"),
                     "--model-out", str(tmp_path / "m")])
        assert code == 1
        assert main(["train", "--model-out", str(tmp_path / "m")]) == 1
        assert main(["train", "--hpsg", fused_file, "--holdout", "5",
                     "--model-out", str(tmp_path / "m")]) == 1


def tree_depth(node) -> int:
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack += [(child, depth + 1) for child in node.children]
    return deepest


CHAIN = 3000


@pytest.fixture(scope="module")
def deep_files(tmp_path_factory):
    """A 3-token sentence under a 3000-deep unary chain, far deeper than
    the interpreter's recursion limit, in all three input formats."""
    d = tmp_path_factory.mktemp("deep")
    const = d / "deep.brackets"
    const.write_text("(X " * CHAIN + "(S (A a) (B b) (C c))" + ")" * CHAIN
                     + "\n", encoding="utf-8")
    conll = d / "deep.conll"
    conll.write_text("1\ta\t_\tA\tA\t_\t2\tdep\t_\t_\n"
                     "2\tb\t_\tB\tB\t_\t0\troot\t_\t_\n"
                     "3\tc\t_\tC\tC\t_\t2\tdep\t_\t_\n\n",
                     encoding="utf-8")
    fused = d / "deep.hpsg"
    assert main(["convert", "--const", str(const), "--conll", str(conll),
                 "--out", str(fused)]) == 0
    return const, conll, fused


class TestDeepInput:
    """Input depth is no way to fail: every command takes the deep tree."""

    DEPTH = CHAIN + 2           # the chain, S and a preterminal

    def run(self, capsys, argv):
        capsys.readouterr()
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err

    def check_outputs(self, tmp_path):
        with open(tmp_path / "pred.hpsg", encoding="utf-8") as fh:
            (tree,) = read_hpsg(fh)
        with open(tmp_path / "pred.brackets", encoding="utf-8") as fh:
            (const,) = read_bracketed(fh)
        assert tree_depth(tree.root) == tree_depth(const.root) == self.DEPTH
        with open(tmp_path / "pred.conll", encoding="utf-8") as fh:
            assert read_conll(fh)[0].heads == [0, 2, 0, 2]

    def test_convert(self, deep_files):
        const, _, fused = deep_files
        with open(const, encoding="utf-8") as fh:
            assert tree_depth(read_bracketed(fh)[0].root) == self.DEPTH
        with open(fused, encoding="utf-8") as fh:
            (tree,) = read_hpsg(fh)
        assert tree_depth(tree.root) == self.DEPTH
        assert project_dependencies(tree).heads == [0, 2, 0, 2]

    @pytest.mark.parametrize("mode", ["joint", "division"])
    def test_train_and_parse_with_model(self, tmp_path, deep_files, capsys,
                                        mode):
        const, conll, fused = deep_files
        model = tmp_path / "m.bin"
        self.run(capsys, ["train", "--const", str(const), "--conll",
                          str(conll), "--model-out", str(model), "--mode",
                          mode, "--epochs", "3", "--dim", str(2 ** 16)])
        self.run(capsys, ["train", "--hpsg", str(fused), "--model-out",
                          str(model), "--mode", mode, "--epochs", "3",
                          "--dim", str(2 ** 16)])
        self.run(capsys, ["parse", "--input", str(conll), "--model",
                          str(model), "--out", str(tmp_path / "pred.hpsg"),
                          "--out-const", str(tmp_path / "pred.brackets"),
                          "--out-dep", str(tmp_path / "pred.conll")])
        self.check_outputs(tmp_path)

    def test_parse_with_scores(self, tmp_path, deep_files, capsys):
        _, conll, fused = deep_files
        with open(fused, encoding="utf-8") as fh:
            gold = read_hpsg(fh)
        scores = tmp_path / "scores.txt"
        with open(scores, "w", encoding="utf-8") as fh:
            write_scores([oracle_scores(gold[0],
                                        CategoryVocab.from_trees(gold))], fh)
        self.run(capsys, ["parse", "--input", str(conll), "--scores",
                          str(scores), "--out", str(tmp_path / "pred.hpsg"),
                          "--out-const", str(tmp_path / "pred.brackets"),
                          "--out-dep", str(tmp_path / "pred.conll")])
        self.check_outputs(tmp_path)
        assert (tmp_path / "pred.hpsg").read_text() == fused.read_text()


@pytest.fixture(scope="module")
def sample_sentences(tmp_path_factory, data_dir):
    """The bundled sample pair and its fused file, one entry per sentence:
    bracket lines, CoNLL blocks and head-annotated lines."""
    fused = tmp_path_factory.mktemp("edits") / "sample.hpsg"
    assert main(["convert", "--const", str(data_dir / "sample.brackets"),
                 "--conll", str(data_dir / "sample.conll"),
                 "--out", str(fused)]) == 0
    conll = (data_dir / "sample.conll").read_text("utf-8").strip("\n")
    return ((data_dir / "sample.brackets").read_text("utf-8").splitlines(
                keepends=True),
            [block + "\n\n" for block in conll.split("\n\n")],
            fused.read_text("utf-8").splitlines(keepends=True))


# what random edits insert or substitute: the formats' own punctuation,
# digits for heads and indices, and a few letters
EDIT_CHARS = "()[]\t\n _-.:#~0123456789aZé"


class TestRandomEdits:
    """Inputs one to four character edits away from good ones end in exit
    0 or 2, never in a traceback."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_convert_eval_and_train(self, sample_sentences, data):
        start = data.draw(st.integers(0, len(sample_sentences[0]) - 3))
        size = data.draw(st.integers(1, 3))
        texts = ["".join(part[start:start + size])
                 for part in sample_sentences]
        edited = data.draw(st.sampled_from([0, 1, 2]))
        text = texts[edited]
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(text)))
            kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
            char = "" if kind == "delete" else data.draw(
                st.sampled_from(EDIT_CHARS))
            text = text[:at] + char + text[at + (kind != "insert"):]
        with tempfile.TemporaryDirectory() as tmp:
            gold = [Path(tmp, f"gold.{x}") for x in ("brackets", "conll")]
            files = [Path(tmp, f"in.{x}") for x in ("brackets", "conll",
                                                    "hpsg")]
            for path, content in zip([*gold, *files], [*texts[:2], *texts]):
                path.write_text(content, encoding="utf-8")
            files[edited].write_text(text, encoding="utf-8")
            brackets, conll, hpsg = map(str, files)
            model = ["--model-out", str(Path(tmp, "m.bin")), "--epochs", "1",
                     "--dim", str(2 ** 12)]
            runs = [["train", "--hpsg", hpsg, *model]] if edited == 2 else [
                ["convert", "--const", brackets, "--conll", conll, "--out",
                 str(Path(tmp, "out.hpsg"))],
                ["eval", "--gold-const", str(gold[0]), "--pred-const",
                 brackets, "--gold-dep", str(gold[1]), "--pred-dep", conll],
                ["train", "--const", brackets, "--conll", conll, *model]]
            for argv in runs:
                assert main(argv) in (0, 2), argv


class TestEval:
    GOLD = ("(S (NP (DT the) (NN dog)) "
            "(VP (VBD saw) (DT a) (NN fox)) (. .))\n")
    PRED = ("(S (NP (DT the) (NN dog)) (VP (VBD saw)) "
            "(NP (DT a) (NN fox)) (. .))\n")

    @pytest.fixture()
    def bracket_pair(self, tmp_path):
        gold = tmp_path / "gold.brackets"
        pred = tmp_path / "pred.brackets"
        gold.write_text(self.GOLD, encoding="utf-8")
        pred.write_text(self.PRED, encoding="utf-8")
        return str(gold), str(pred)

    def test_text_output(self, bracket_pair, capsys):
        gold, pred = bracket_pair
        code = main(["eval", "--gold-const", gold, "--pred-const", pred])
        captured = capsys.readouterr()
        assert code == 0
        assert "bracket F1" in captured.out
        assert "57.14" in captured.out
        assert "66.67" in captured.out and "50.00" in captured.out

    def test_keyvalue_output(self, bracket_pair, capsys):
        gold, pred = bracket_pair
        code = main(["eval", "--gold-const", gold, "--pred-const", pred,
                     "--format", "keyvalues"])
        captured = capsys.readouterr()
        assert code == 0
        assert "bracket_f1=57.14" in captured.out.splitlines()

    def test_custom_punct_set(self, bracket_pair, capsys):
        gold, pred = bracket_pair
        # keeping the final period makes every span one token longer
        code = main(["eval", "--gold-const", gold, "--pred-const", pred,
                     "--punct-set", ""])
        assert code == 0
        assert "bracket F1" in capsys.readouterr().out

    def test_flag_pairing_enforced(self, bracket_pair, capsys):
        gold, _ = bracket_pair
        assert main(["eval", "--gold-const", gold]) == 1
        assert "go together" in capsys.readouterr().err
        assert main(["eval"]) == 1
        assert "nothing to evaluate" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        absent = str(tmp_path / "absent")
        assert main(["eval", "--gold-const", absent,
                     "--pred-const", absent]) == 2

    def test_misaligned_files(self, tmp_path, bracket_pair):
        gold, _ = bracket_pair
        other = tmp_path / "other.brackets"
        other.write_text("(S (NN one))\n(S (NN two))\n", encoding="utf-8")
        assert main(["eval", "--gold-const", gold,
                     "--pred-const", str(other)]) == 2


class TestCheck:
    def test_small_run_passes(self, capsys):
        code = main(["check", "--trials", "2", "--n-cap", "3",
                     "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "12 checks passed (2 tables per length 2..3)" in captured.out

    def test_cap_guard(self, capsys):
        assert main(["check", "--n-cap", "9"]) == 1
        assert main(["check", "--n-cap", "1"]) == 1

    @pytest.mark.parametrize("flag, value, message", [
        # 0 and -3 printed "0 checks passed"; a nan or infinite tolerance
        # passed every comparison whatever the decoders returned
        *(("--trials", v, f"--trials must be at least 1, got {v}")
          for v in ("0", "-3")),
        *(("--tolerance", v,
           f"--tolerance must be finite and at least 0, got {v}")
          for v in ("nan", "inf", "-inf", "-1e-09")),
    ])
    def test_bad_values_refused(self, flag, value, message, capsys):
        # one argument, so that argparse takes -inf as a value
        assert main(["check", "--n-cap", "3", f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"headspan check: {message}"]


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "headspan" in capsys.readouterr().out


def test_unknown_command(capsys):
    assert main(["bogus"]) == 1


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "headspan", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("headspan ")


@pytest.mark.parametrize("copies", [1, 40])
def test_closed_stdout_exits_141_without_a_traceback(tmp_path,
                                                      multihead_files, copies):
    """``parse ... | head -1`` with the reader gone at once: one copy of the
    five trees fits stdout's buffer and meets the closed pipe at the last
    flush, forty copies meet it while they are written."""
    _, conll = multihead_files
    block = Path(conll).read_text("utf-8").strip("\n") + "\n\n"
    conll_in = tmp_path / "in.conll"
    conll_in.write_text(block * copies, "utf-8")
    with open(conll_in, encoding="utf-8") as fh:
        lengths = [len(d.tokens) for d in read_conll(fh)]
    rng = np.random.default_rng(5)
    vocab = CategoryVocab(["NP", "VP", "S"])
    scores = tmp_path / "scores.txt"
    with open(scores, "w", encoding="utf-8") as fh:
        write_scores([random_score_table(rng, n, vocab) for n in lengths], fh)
    proc = subprocess.Popen(
        [sys.executable, "-m", "headspan", "parse", "--input", str(conll_in),
         "--scores", str(scores)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err
    assert "Exception ignored" not in err
