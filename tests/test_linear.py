"""Feature hashing, scoring, and perceptron training."""

import pickle
import zlib

import numpy as np
import pytest

from headspan.errors import ModelFileError
from headspan.fuse import project_constituents, project_dependencies
from headspan.linear import (
    LinearModel,
    TrainConfig,
    _Averager,
    arc_features,
    decode_with_model,
    root_features,
    span_features,
    train_linear,
)
from headspan.scoring import CategoryVocab, tree_parts
from headspan.synth import sample_corpus
from headspan.trees import HEAD_PREFIX


def padded(tree):
    words = [b"<s>"] + [t.form.encode() for t in tree.tokens] + [b"</s>"]
    tags = [b"<s>"] + [t.pos.encode() for t in tree.tokens] + [b"</s>"]
    return words, tags


class TestFeatureTemplates:
    def test_span_templates_fire_once_each(self, sample_fused):
        words, tags = padded(sample_fused[0])
        feats = span_features(words, tags, 1, 3)
        assert len(feats) == 12
        assert len({f.split(b"=")[0] for f in feats}) == 12
        assert all(isinstance(f, bytes) for f in feats)

    def test_boundary_positions_use_sentinels(self, sample_fused):
        tree = sample_fused[0]
        words, tags = padded(tree)
        n = len(tree)
        feats = span_features(words, tags, 1, n)
        assert b"s_prev=<s>" in feats
        assert b"s_next=</s>" in feats

    def test_single_position_span_marks_itself(self, sample_fused):
        words, tags = padded(sample_fused[0])
        assert b"s_in=<self>" in span_features(words, tags, 2, 2)

    def test_arc_templates_encode_direction_and_distance(self, sample_fused):
        words, tags = padded(sample_fused[0])
        left = arc_features(words, tags, 4, 2)
        right = arc_features(words, tags, 2, 4)
        assert len(left) == len(right) == 11
        assert any(f.startswith(b"a_d=L") for f in left)
        assert any(f.startswith(b"a_d=R") for f in right)

    def test_root_templates(self, sample_fused):
        words, tags = padded(sample_fused[0])
        feats = root_features(words, tags, 2, len(sample_fused[0]))
        assert len(feats) == 3

    def test_hashes_are_frozen_crc32(self):
        # crc32 is specified by IEEE 802.3; these constants hold on every
        # platform, which is what makes saved models portable
        assert zlib.crc32(b"s_len=1") == 2490473529
        assert zlib.crc32(b"NP", zlib.crc32(b"s_len=1")) == 3010848548
        vocab = CategoryVocab(["NP"])
        model = LinearModel(vocab, dim=2 ** 20)
        assert model._plain_idx([b"r_p=VBZ"]) == [3239093122 & (2 ** 20 - 1)]
        assert model._plain_idx([b"r_p=VBZ"]) == [41858]


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="other")
        with pytest.raises(ValueError):
            TrainConfig(lam=1.2)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(dim=1)
        with pytest.raises(ValueError, match="power of two"):
            TrainConfig(dim=1000)


class TestLinearModel:
    def test_zero_weights_score_zero(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused[:5])
        model = LinearModel(vocab, dim=2 ** 16)
        table = model.score_table(sample_fused[0].tokens)
        assert not table.span.any()
        assert not table.arc.any()
        assert not table.root.any()

    def test_tree_parts_joint_mode(self, sample_fused):
        tree = sample_fused[0]
        spans, arcs, root = tree_parts(tree)
        n = len(tree)
        assert len(spans) == 2 * n - 1
        assert len(arcs) == n - 1
        deps = project_dependencies(tree)
        assert deps.heads[root] == 0
        assert arcs == [(c, deps.heads[c]) for c in range(1, n + 1)
                        if c != root]

    def test_tree_parts_division_mode(self, sample_fused):
        tree = sample_fused[0]
        spans, arcs, root = tree_parts(tree, division_labels=True)
        assert any(label.startswith(HEAD_PREFIX) for _, _, label in spans)
        # the dependency half does not depend on the span encoding
        assert (arcs, root) == tree_parts(tree)[1:]

    def test_identical_gold_features_cancel(self, sample_fused):
        tree = sample_fused[0]
        vocab = CategoryVocab.from_trees([tree])
        model = LinearModel(vocab)
        spans, arcs, root = tree_parts(tree)
        a = model.feature_counts(tree.tokens, spans, arcs, root)
        b = model.feature_counts(tree.tokens, spans, arcs, root)
        assert a == b
        assert not (a[0] - b[0]) and not (a[1] - b[1])

    def test_save_load_round_trip(self, tmp_path, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused[:5])
        model = LinearModel(vocab, dim=2 ** 16, mode="joint", lam=0.25)
        rng = np.random.default_rng(3)
        model.weights = rng.normal(size=model.dim)
        path = tmp_path / "model.pkl"
        model.save(str(path))
        again = LinearModel.load(str(path))
        assert again.vocab == model.vocab
        assert (again.dim, again.mode, again.lam) == (2 ** 16, "joint", 0.25)
        np.testing.assert_array_equal(again.weights, model.weights)
        tokens = sample_fused[0].tokens
        np.testing.assert_array_equal(again.score_table(tokens).span,
                                      model.score_table(tokens).span)

    @pytest.mark.parametrize("payload", [
        {"weights": np.zeros(4)},
        {"dim": 4, "mode": "joint", "lam": 0.5, "categories": ["A"],
         "weights": np.zeros(4, dtype=np.int64)},
        {"dim": 1000, "mode": "joint", "lam": 0.5, "categories": ["A"],
         "weights": np.zeros(1000)},
        [1, 2, 3],
    ])
    def test_load_refuses_other_pickles(self, tmp_path, payload):
        path = tmp_path / "other.pkl"
        path.write_bytes(pickle.dumps(payload, protocol=4))
        with pytest.raises(ModelFileError, match="not a model file"):
            LinearModel.load(str(path))

    def test_save_is_deterministic(self, tmp_path, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused[:5])
        model = LinearModel(vocab, dim=2 ** 14)
        model.save(str(tmp_path / "a.pkl"))
        model.save(str(tmp_path / "b.pkl"))
        assert (tmp_path / "a.pkl").read_bytes() == \
            (tmp_path / "b.pkl").read_bytes()


def test_averager_matches_hand_simulation():
    # one weight, three sentences: updates after sentences 1 and 2, none
    # after 3; end-of-sentence values are 1, 2, 2 so the average is 5/3
    avg = _Averager(acc=np.zeros(1), last=np.zeros(1, dtype=np.int64))
    w = np.zeros(1)
    avg.touch([0], w)
    w[0] += 1.0
    avg.steps += 1
    avg.touch([0], w)
    w[0] += 1.0
    avg.steps += 1
    avg.steps += 1
    assert avg.snapshot(w)[0] == pytest.approx(5.0 / 3.0)
    assert w[0] == 2.0  # snapshot leaves the online weights alone


@pytest.fixture(scope="module")
def tiny_corpus():
    return sample_corpus(30, seed=7)


class TestTraining:
    def test_objective_falls_and_fits_training_data(self, tiny_corpus):
        config = TrainConfig(epochs=8, dim=2 ** 18, seed=13)
        model, history = train_linear(tiny_corpus, config, dev=tiny_corpus)
        assert len(history) == 8
        assert history[-1]["objective"] < history[0]["objective"]
        assert history[0]["updates"] > 0
        assert history[-1]["dev_f1"] >= 95.0
        assert history[-1]["dev_uas"] >= 95.0

    def test_training_is_reproducible(self, tiny_corpus):
        config = TrainConfig(epochs=3, dim=2 ** 16, seed=13)
        a, ha = train_linear(tiny_corpus, config)
        b, hb = train_linear(tiny_corpus, config)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert ha == hb

    def test_seed_changes_the_run(self, tiny_corpus):
        a, _ = train_linear(tiny_corpus, TrainConfig(epochs=2, dim=2 ** 16,
                                                     seed=13))
        b, _ = train_linear(tiny_corpus, TrainConfig(epochs=2, dim=2 ** 16,
                                                     seed=14))
        assert not np.array_equal(a.weights, b.weights)

    def test_trained_model_parses_new_text(self, tiny_corpus):
        config = TrainConfig(epochs=6, dim=2 ** 18, seed=13)
        model, _ = train_linear(tiny_corpus, config)
        held_out = sample_corpus(40, seed=7)[30:]
        for gold in held_out:
            pred = decode_with_model(model, gold.tokens)
            assert len(pred) == len(gold)
            project_constituents(pred).validate()

    def test_division_mode_trains(self, tiny_corpus):
        config = TrainConfig(epochs=6, dim=2 ** 18, mode="division", seed=13)
        model, history = train_linear(tiny_corpus, config, dev=tiny_corpus)
        assert history[-1]["objective"] < history[0]["objective"]
        assert history[-1]["dev_f1"] >= 90.0
        pred = decode_with_model(model, tiny_corpus[0].tokens)
        assert len(pred) == len(tiny_corpus[0])
