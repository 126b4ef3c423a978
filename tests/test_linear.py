"""Feature hashing, scoring, and perceptron training."""

import hashlib
import pickle
import random
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headspan.decode import LEN_CAP
from headspan.errors import ModelFileError
from headspan.fuse import project_constituents, project_dependencies
from headspan.linear import (
    LinearModel,
    TrainConfig,
    _Averager,
    _count_difference,
    _crc_shift,
    arc_features,
    decode_with_model,
    root_features,
    span_features,
    train_linear,
)
from headspan.scoring import CategoryVocab, ScoreTable, tree_parts
from headspan.synth import sample_corpus
from headspan.trees import HEAD_PREFIX, Token


def padded(tree):
    words = [b"<s>"] + [t.form.encode() for t in tree.tokens] + [b"</s>"]
    tags = [b"<s>"] + [t.pos.encode() for t in tree.tokens] + [b"</s>"]
    return words, tags


def reference_score_table(model, tokens):
    """The per-label crc32 scorer that ``LinearModel.score_table`` replaced,
    kept verbatim: one crc32 call per (span, label, feature)."""
    mask = model.dim - 1
    cat_bytes = [c.encode() for c in model.vocab]

    def combine(bases, cid):
        cat = cat_bytes[cid]
        return [zlib.crc32(cat, b) & mask for b in bases]

    def plain_idx(feats):
        return [zlib.crc32(f) & mask for f in feats]

    n = len(tokens)
    words = [b"<s>"] + [t.form.encode() for t in tokens] + [b"</s>"]
    tags = [b"<s>"] + [t.pos.encode() for t in tokens] + [b"</s>"]
    table = ScoreTable.zeros(n, model.vocab)
    w = model.weights
    v = len(model.vocab)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            bases = [zlib.crc32(f)
                     for f in span_features(words, tags, i, j)]
            for cid in range(v):
                idx = combine(bases, cid)
                table.span[i, j, cid] = w[idx].sum()
    if model.mode == "joint":
        for child in range(1, n + 1):
            for head in range(1, n + 1):
                if child == head:
                    continue
                idx = plain_idx(arc_features(words, tags, child, head))
                table.arc[child, head] = w[idx].sum()
        for head in range(1, n + 1):
            idx = plain_idx(root_features(words, tags, head, n))
            table.root[head] = w[idx].sum()
    return table


def noisy_model(vocab, dim, mode, seed=0):
    model = LinearModel(vocab, dim=dim, mode=mode)
    model.weights = np.random.default_rng(seed).normal(size=dim)
    return model


def assert_tables_equal(model, tokens):
    got = model.score_table(tokens)
    want = reference_score_table(model, tokens)
    for part in ("span", "arc", "root"):
        np.testing.assert_array_equal(getattr(got, part), getattr(want, part),
                                      strict=True)


# labels of one to seven bytes, multi-byte UTF-8 and chain atoms among them;
# every vocabulary also holds <E> and #
MIXED_LABELS = ["NP", "S+VP", "H_NP", "VP~x", "É", "名詞", "S+VP+NP",
                "ADJP+Ü", "H_<E>", "X"]


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
        # one token tagged VBZ: its span's first feature is s_len=1 and its
        # root's second r_p=VBZ
        span_idx, dep_idx = model.feature_counts(
            [Token(1, "runs", "VBZ")], [(1, 1, "NP")], [], 1)
        assert span_idx[0] == 3010848548 & (2 ** 20 - 1)
        assert dep_idx[1] == 3239093122 & (2 ** 20 - 1)
        assert dep_idx[1] == 41858

    def test_crc32_is_affine_in_its_start_value(self):
        rng = random.Random(4)
        for _ in range(500):
            data = rng.randbytes(rng.randrange(12))
            start = rng.getrandbits(32)
            table = _crc_shift(len(data))
            shift = 0
            for p in range(4):
                shift ^= int(table[p, start >> 8 * p & 255])
            assert zlib.crc32(data, start) == zlib.crc32(data) ^ shift


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
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
            assert _count_difference(x, y)[0].size == 0

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
        {"dim": 4, "mode": "joint", "lam": 5.0, "categories": ["A"],
         "weights": np.zeros(4)},
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


class TestScoreTableMatchesReference:
    """The vectorized scorer gives the per-label scorer's tables, bit for
    bit: same hashed indices, same float sums."""

    @pytest.mark.parametrize("mode", ["joint", "division"])
    def test_bundled_sentences(self, sample_fused, mode):
        vocab = CategoryVocab.from_trees(sample_fused,
                                         division_labels=mode == "division")
        model = noisy_model(vocab, 2 ** 16, mode)
        for tree in sample_fused:
            assert_tables_equal(model, tree.tokens)

    @pytest.mark.parametrize("dim", [2, 2 ** 16, 2 ** 20])
    @pytest.mark.parametrize("mode", ["joint", "division"])
    def test_labels_of_many_byte_lengths(self, sample_fused, dim, mode):
        model = noisy_model(CategoryVocab(MIXED_LABELS), dim, mode, seed=dim)
        for tree in sample_fused[:12]:
            assert_tables_equal(model, tree.tokens)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(words=st.lists(st.tuples(st.text(min_size=1, max_size=5),
                                    st.sampled_from(["NN", "VBZ", "Ä", "名"])),
                          min_size=1, max_size=7),
           labels=st.lists(st.text(min_size=1, max_size=4), max_size=6,
                           unique=True),
           dim=st.sampled_from([2, 2 ** 16, 2 ** 20]),
           mode=st.sampled_from(["joint", "division"]))
    def test_random_sentences(self, words, labels, dim, mode):
        tokens = [Token(i, form, pos)
                  for i, (form, pos) in enumerate(words, start=1)]
        model = noisy_model(CategoryVocab(MIXED_LABELS + labels), dim, mode)
        assert_tables_equal(model, tokens)

    def test_memory_stays_near_the_table_at_the_length_cap(self):
        # row-at-a-time scoring: the working arrays are one table row times
        # 12 features, where all spans at once would take about 455 MB here
        labels = [f"L{k}" + "x" * (k % 7) for k in range(164)]
        model = LinearModel(CategoryVocab(labels), dim=2 ** 16)
        tokens = [Token(i, f"w{i % 50}", f"T{i % 9}")
                  for i in range(1, LEN_CAP + 1)]
        # the hashes are built first, untraced: tracing the million small
        # Python objects that build them takes seconds
        hashes = model.hashes(tokens)
        tracemalloc.start()
        try:
            table = model.score_table(tokens, hashes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(model.vocab) == 166
        assert peak <= 2 * table.span.nbytes


def test_count_difference_keeps_only_changed_indices():
    gold = np.array([5, 3, 5, 9, 7])
    pred = np.array([3, 5, 2, 9, 9])
    idx, delta = _count_difference(gold, pred)
    assert idx.tolist() == [2, 5, 7, 9]
    assert delta.tolist() == [-1, 1, 1, -1]


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

    @pytest.mark.parametrize("mode, digest", [
        ("joint",
         "787508a5899a09bbaca954211e89722c8bd29a1fc9b8385406b1589e381ff3b3"),
        ("division",
         "e2e838ca270fe47414116b198c078c8e36e502045e99b92ef62addbbff48c10f"),
    ])
    def test_trained_weights_are_pinned(self, tiny_corpus, mode, digest):
        # digests of the weights the per-label scorer and the Counter-based
        # update trained; the vectorized ones must give the same bits
        config = TrainConfig(epochs=3, dim=2 ** 16, seed=13, mode=mode)
        model, _ = train_linear(tiny_corpus, config, dev=tiny_corpus)
        got = hashlib.sha256(model.weights.astype("<f8").tobytes())
        assert got.hexdigest() == digest

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
