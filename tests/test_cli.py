"""End-to-end command line tests.

Commands run in process through ``main(argv)`` so exit codes and output
are asserted directly; one subprocess test covers the module entry point.
"""

import subprocess
import sys

import numpy as np
import pytest

from headspan.cli import main
from headspan.fuse import project_dependencies
from headspan.scoring import CategoryVocab, write_scores
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
                                                capsys):
        _, conll = multihead_files
        out = tmp_path / "parsed.hpsg"
        code = main(["parse", "--input", conll, "--scores", score_file,
                     "--len-cap", "8", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        # the two nine-token sentences exceed the cap
        assert captured.err.count("above cap") == 2
        with open(out, encoding="utf-8") as fh:
            assert len(read_hpsg(fh)) == 5

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

    def test_conflicting_inputs(self, tmp_path, fused_file, data_dir,
                                capsys):
        code = main(["train", "--hpsg", fused_file,
                     "--const", str(data_dir / "multihead.brackets"),
                     "--model-out", str(tmp_path / "m")])
        assert code == 1
        assert main(["train", "--model-out", str(tmp_path / "m")]) == 1
        assert main(["train", "--hpsg", fused_file, "--holdout", "5",
                     "--model-out", str(tmp_path / "m")]) == 1


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
