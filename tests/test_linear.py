"""Feature hashing, scoring, and perceptron training."""

import hashlib
import json
import pickle
import re
import tracemalloc
import zlib
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headspan import decode, division, linear
from headspan.decode import (
    LEN_CAP,
    decode_division,
    decode_joint_mixed,
    decode_table,
)
from headspan.errors import ModelFileError, ScoreFileError
from headspan.fuse import project_constituents, project_dependencies
from headspan.linear import (
    LinearModel,
    TrainConfig,
    _Averager,
    _count_difference,
    decode_many,
    decode_with_model,
    train_linear,
)
from headspan.scoring import (
    CategoryVocab,
    ScoreTable,
    tree_parts,
)
from headspan.synth import sample_corpus
from headspan.trees import HEAD_PREFIX, ConstNode, HpsgNode, HpsgTree, Token


# The feature templates, the specification the model's keys follow. A
# feature is its template's name and its parts: a word or tag (bytes, taken
# as its crc32) or a small integer. ``LinearModel.hashes_many`` must give
# the low 32 bits of each feature's ``key``.

M64 = 2 ** 64 - 1


def mix(z: int) -> int:
    """splitmix64's finalizer on a Python int, kept to 64 bits."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def key(feature) -> int:
    """A feature's 64-bit key: crc32 of its template's name, each part mixed
    in turn as ``key = mix(key ^ part)``."""
    name, *parts = feature
    k = zlib.crc32(name.encode())
    for part in parts:
        k = mix(k ^ (zlib.crc32(part) if isinstance(part, bytes) else part))
    return k


def salt(label: str) -> int:
    return mix(zlib.crc32(label.encode()))


def _bucket(value: int, edges: Sequence[int] = (1, 2, 3, 4, 5, 8, 12)) -> int:
    """The bucket of a length or distance: the first edge at or above it,
    or 7 past them all."""
    return next((k for k, e in enumerate(edges) if value <= e), len(edges))


def span_features(words: list[bytes], tags: list[bytes], i: int,
                  j: int) -> list[tuple]:
    """Sparse features identifying span (i, j); label conjoined by salt."""
    ln = _bucket(j - i + 1)
    return [
        ("s_len", ln),
        ("s_fw", words[i]),
        ("s_lw", words[j]),
        ("s_fp", tags[i]),
        ("s_lp", tags[j]),
        ("s_prev", tags[i - 1]),
        ("s_next", tags[j + 1]),
        ("s_in", tags[i + 1] if i < j else b"<self>"),
        ("s_pp", tags[i], tags[j]),
        ("s_out", tags[i - 1], tags[j + 1]),
        ("s_ww", words[i], words[j]),
        ("s_lpp", ln, tags[i], tags[j]),
    ]


def arc_features(words: list[bytes], tags: list[bytes], child: int,
                 head: int) -> list[tuple]:
    d = head - child
    # the direction, 0 for a head on the right and 8 on the left, and the
    # distance's bucket
    db = 8 * (d < 0) + _bucket(abs(d))
    return [
        ("a_ww", words[child], words[head]),
        ("a_pp", tags[child], tags[head]),
        ("a_wp", words[child], tags[head]),
        ("a_pw", tags[child], words[head]),
        ("a_d", db),
        ("a_ppd", tags[child], tags[head], db),
        ("a_cctx", tags[child - 1], tags[child], tags[head]),
        ("a_hctx", tags[child], tags[head], tags[head + 1]),
        ("a_cp", tags[child]),
        ("a_hp", tags[head]),
        ("a_hw", words[head]),
    ]


def root_features(words: list[bytes], tags: list[bytes], head: int,
                  n: int) -> list[tuple]:
    return [
        ("r_w", words[head]),
        ("r_p", tags[head]),
        ("r_pos", 8 * _bucket(head) + _bucket(n - head + 1)),
    ]


def padded_tokens(tokens):
    return ([b"<s>"] + [t.form.encode() for t in tokens] + [b"</s>"],
            [b"<s>"] + [t.pos.encode() for t in tokens] + [b"</s>"])


def padded(tree):
    return padded_tokens(tree.tokens)


def reference_hashes(tokens):
    """The low 32 bits of every feature's key: spans (12 per span, by start
    then end), arcs (11 per arc, by child then head) and roots (3 per
    head)."""
    n = len(tokens)
    words, tags = padded_tokens(tokens)
    pos = range(1, n + 1)

    def keys(rows, width):
        return np.array([[key(f) & 0xFFFFFFFF for f in row] for row in rows],
                        dtype=np.int64).reshape(-1, width)

    return (keys((span_features(words, tags, i, j)
                  for i in pos for j in range(i, n + 1)), 12),
            keys((arc_features(words, tags, c, h)
                  for c in pos for h in pos if c != h), 11),
            keys((root_features(words, tags, h, n) for h in pos), 3))


def span_hashes(model, h, n):
    """The 12 feature keys of every span of a length-n sentence, by start
    then end, read off its ``Hashes`` in template order."""
    at = np.arange(n * (n + 1) // 2)
    pair = h.pair_rows + h.blocks[at // model._block_spans]
    return np.vstack([h.single[h.terms], h.pairs[pair]]).T


def assert_hashes_match(tokens):
    """The keys, template by template, against the reference's; a model of
    dimension 2^32 masks none of their 32 bits."""
    model = LinearModel(CategoryVocab(["NP"]), dim=2 ** 32,
                        weights=np.zeros(0))
    h = model.hashes_many([tokens])[0]
    got = (span_hashes(model, h, len(tokens)), h.arc, h.root)
    for part, mine, want in zip(("span", "arc", "root"), got,
                                reference_hashes(tokens)):
        assert mine.shape == want.shape, part
        for t in range(want.shape[1]):
            np.testing.assert_array_equal(mine[:, t], want[:, t],
                                          err_msg=f"{part} template {t}")


def reference_score_table(model, tokens):
    """A per-label scorer from the reference keys: one index per (span,
    label, feature), ``(key ^ salt) & mask`` on the full 64-bit values."""
    mask = model.dim - 1
    salts = [salt(c) for c in model.vocab]

    def combine(bases, cid):
        return [(b ^ salts[cid]) & mask for b in bases]

    def plain_idx(feats):
        return [key(f) & mask for f in feats]

    n = len(tokens)
    words, tags = padded_tokens(tokens)
    table = ScoreTable.zeros(n, model.vocab)
    w = model.weights
    v = len(model.vocab)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            bases = [key(f) for f in span_features(words, tags, i, j)]
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
    got = model.score_table(tokens, model.hashes_many([tokens])[0])
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
        assert len({f[0] for f in feats}) == 12
        assert all(isinstance(p, (bytes, int)) for f in feats for p in f[1:])

    def test_boundary_positions_use_sentinels(self, sample_fused):
        tree = sample_fused[0]
        words, tags = padded(tree)
        n = len(tree)
        feats = span_features(words, tags, 1, n)
        assert ("s_prev", b"<s>") in feats
        assert ("s_next", b"</s>") in feats

    def test_single_position_span_marks_itself(self, sample_fused):
        words, tags = padded(sample_fused[0])
        assert ("s_in", b"<self>") in span_features(words, tags, 2, 2)

    def test_arc_templates_encode_direction_and_distance(self, sample_fused):
        words, tags = padded(sample_fused[0])
        left = arc_features(words, tags, 4, 2)
        right = arc_features(words, tags, 2, 4)
        assert len(left) == len(right) == 11
        assert ("a_d", 8 + _bucket(2)) in left
        assert ("a_d", _bucket(2)) in right

    def test_root_templates(self, sample_fused):
        words, tags = padded(sample_fused[0])
        feats = root_features(words, tags, 2, len(sample_fused[0]))
        assert len(feats) == 3

    def test_hashes_are_frozen_crc32(self):
        # crc32 is specified by IEEE 802.3 and splitmix64 by its constants;
        # these values hold on every platform, which is what makes saved
        # models portable. splitmix64 seeded with 0 first returns its
        # finalizer of the golden-ratio increment
        assert mix(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
        mixed = linear._key(0, np.array([0x9E3779B97F4A7C15], np.uint64))
        assert mixed.tolist() == [0xE220A8397B1DCDAF]
        assert zlib.crc32(b"s_len") == 410227471
        assert key(("s_len", 0)) == 0xFBCBC91E35728F29
        assert salt("NP") == 0x2CDBDD55E89F4F4A
        vocab = CategoryVocab(["NP"])
        model = LinearModel(vocab, dim=2 ** 20)
        # one token tagged VBZ: its span's first feature is s_len of bucket
        # 0 and its root's second r_p of VBZ
        tokens = [Token(1, "runs", "VBZ")]
        span_idx, dep_idx = model.feature_counts(
            tokens, [(1, 1, "NP")], [], 1, model.hashes_many([tokens])[0])
        assert span_idx[0] == (0xFBCBC91E35728F29 ^ 0x2CDBDD55E89F4F4A) & (
            2 ** 20 - 1)
        assert span_idx[0] == 901219
        assert dep_idx[1] == key(("r_p", b"VBZ")) & (2 ** 20 - 1)
        assert dep_idx[1] == 131245


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


def model_arrays(weights=None, **header):
    """A model archive's arrays: four zero weights, header fields replaced
    by ``header``."""
    fields = {"version": linear.FORMAT_VERSION, "dim": 4, "mode": "joint",
              "lam": 0.5, "categories": ["A"], **header}
    return {"header": np.array(json.dumps(fields)),
            "weights": np.zeros(4) if weights is None else weights}


class TestLinearModel:
    def test_zero_weights_score_zero(self, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused[:5])
        model = LinearModel(vocab, dim=2 ** 16)
        tokens = sample_fused[0].tokens
        table = model.score_table(tokens, model.hashes_many([tokens])[0])
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
        hashes = model.hashes_many([tree.tokens])[0]
        a = model.feature_counts(tree.tokens, spans, arcs, root, hashes)
        b = model.feature_counts(tree.tokens, spans, arcs, root, hashes)
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
        np.testing.assert_array_equal(
            again.score_table(tokens, again.hashes_many([tokens])[0]).span,
            model.score_table(tokens, model.hashes_many([tokens])[0]).span)

    @pytest.mark.parametrize("payload", [
        {"weights": np.zeros(4)},
        {"dim": 4, "mode": "joint", "lam": 0.5, "categories": ["A"],
         "weights": np.zeros(4, dtype=np.int64)},
        {"dim": 1000, "mode": "joint", "lam": 0.5, "categories": ["A"],
         "weights": np.zeros(1000)},
        [1, 2, 3],
        {"dim": 4, "mode": "joint", "lam": 5.0, "categories": ["A"],
         "weights": np.zeros(4)},
        *({"dim": 4, "mode": "joint", "lam": 0.5, "categories": ["A"],
           "weights": np.array([0.0, 1.0, bad, 2.0])}
          for bad in (np.nan, np.inf, -np.inf)),
        # a whole model file of the pickled format, which keyed features by
        # crc32 of their strings
        {"dim": 4, "mode": "joint", "lam": 0.5, "categories": ["A"],
         "weights": np.zeros(4)},
    ])
    def test_load_refuses_other_pickles(self, tmp_path, payload):
        path = tmp_path / "other.pkl"
        path.write_bytes(pickle.dumps(payload, protocol=4))
        with pytest.raises(ModelFileError,
                           match=f"^{re.escape(str(path))}: not a model "
                           f"file .*zip"):
            LinearModel.load(str(path))

    def test_load_reads_a_well_formed_archive(self, tmp_path):
        path = tmp_path / "good.bin"
        with open(path, "wb") as fh:
            np.savez(fh, **model_arrays(np.array([0.0, 1.0, -2.0, 0.5])))
        model = LinearModel.load(str(path))
        assert (model.dim, model.mode, model.lam) == (4, "joint", 0.5)
        assert list(model.vocab)[2:] == ["A"]
        assert model.weights.tolist() == [0.0, 1.0, -2.0, 0.5]

    @pytest.mark.parametrize("arrays, why", [
        (model_arrays(version=linear.FORMAT_VERSION + 1),
         "unknown format version"),
        (model_arrays(version=0), "unknown format version 0"),
        (model_arrays(extra=1), "unexpected contents"),
        ({k: v for k, v in model_arrays().items() if k != "weights"},
         "unexpected contents"),
        ({**model_arrays(), "other": np.zeros(1)}, "unexpected contents"),
        (model_arrays(lam=5.0), "unexpected contents"),
        (model_arrays(lam=-0.5), "unexpected contents"),
        (model_arrays(dim=8), "unexpected contents"),
        (model_arrays(np.zeros((2, 2))), "unexpected contents"),
        (model_arrays(np.zeros(4, dtype=np.int64)), "unexpected contents"),
        (model_arrays(np.zeros(4, dtype=np.float32)), "unexpected contents"),
        (model_arrays(np.zeros(1000), dim=1000), "power of two"),
        (model_arrays(mode="other"), "mode must be one of"),
        *((model_arrays(np.array([0.0, 1.0, bad, 2.0])),
           "non-finite weights")
          for bad in (np.nan, np.inf, -np.inf)),
        ({"header": np.array("not json"), "weights": np.zeros(4)},
         "Expecting value"),
        ({"header": np.array("[1, 2]"), "weights": np.zeros(4)},
         "list indices"),
    ])
    def test_load_refuses_malformed_archives(self, tmp_path, arrays, why):
        path = tmp_path / "other.bin"
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ModelFileError,
                           match=f"^{re.escape(str(path))}: not a model "
                           f"file \\(.*{why}"):
            LinearModel.load(str(path))

    def test_load_refuses_a_bare_array(self, tmp_path):
        path = tmp_path / "weights.npy"
        np.save(path, np.zeros(4))
        with pytest.raises(ModelFileError, match="not a model file"):
            LinearModel.load(str(path))

    def test_save_is_deterministic(self, tmp_path, sample_fused):
        vocab = CategoryVocab.from_trees(sample_fused[:5])
        model = LinearModel(vocab, dim=2 ** 14)
        model.save(str(tmp_path / "a.pkl"))
        model.save(str(tmp_path / "b.pkl"))
        assert (tmp_path / "a.pkl").read_bytes() == \
            (tmp_path / "b.pkl").read_bytes()


# forms and tags of one to four bytes a character, the characters of the
# sentinels <s>, </s> and <self> among them
UNICODE_TEXT = (st.text(min_size=1, max_size=6)
                | st.text(alphabet="a~=<s/>éÜß名詞😀", min_size=1, max_size=6))


class TestFactoredHashes:
    """Every key the model builds is the reference key of its feature; a
    wrong chaining order shows here before any float sum can hide it."""

    def test_bundled_sentences(self, sample_fused):
        for tree in sample_fused:
            assert_hashes_match(tree.tokens)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(words=st.lists(st.tuples(UNICODE_TEXT, UNICODE_TEXT),
                          min_size=1, max_size=14))
    def test_random_forms_and_tags(self, words):
        assert_hashes_match([Token(i, form, pos) for i, (form, pos)
                             in enumerate(words, start=1)])


def assert_same_hashes(got, want):
    """Two :class:`Hashes` equal array for array: dtype, shape and every
    value."""
    for name, mine, theirs in zip(got._fields, got, want):
        assert mine.dtype == theirs.dtype, name
        np.testing.assert_array_equal(mine, theirs, err_msg=name, strict=True)


def assert_batch_matches(model, sentences):
    """``hashes_many`` of the whole batch equals ``hashes_many`` of each
    alone."""
    batch = model.hashes_many(sentences)
    assert len(batch) == len(sentences)
    for tokens, got in zip(sentences, batch):
        assert_same_hashes(got, model.hashes_many([tokens])[0])


class TestBatchHashes:
    """One pass over a batch gives every sentence the hashes and keys it
    gets alone, whatever else the batch holds."""

    @pytest.mark.parametrize("mode", ["joint", "division"])
    def test_bundled_sentences(self, sample_fused, mode):
        model = noisy_model(CategoryVocab(MIXED_LABELS), 2 ** 16, mode)
        assert_batch_matches(model, [t.tokens for t in sample_fused])

    @pytest.mark.parametrize("mode", ["joint", "division"])
    def test_awkward_tokens(self, mode):
        # non-ASCII forms, one-token sentences, words that equal tags or the
        # padding, and a form that is a template prefix
        rows = [[("名詞", "NN")], [("NN", "NN"), ("<s>", "</s>")],
                [("é", "Ü"), ("s_pp=", "~"), ("x~y", "NN"), ("VB", "é")],
                [("😀", "NN")], [("a", "DT"), ("NN", "a"), ("a", "a")]]
        sentences = [[Token(i, form, pos) for i, (form, pos)
                      in enumerate(row, start=1)] for row in rows]
        model = noisy_model(CategoryVocab(MIXED_LABELS), 2 ** 16, mode)
        assert_batch_matches(model, sentences)
        assert_batch_matches(model, sentences[:1])

    def test_many_pair_blocks(self, sample_fused, monkeypatch):
        # blocks of 2 spans: every sentence's pair keys come in many blocks,
        # each with its own id in the keys' high bits
        monkeypatch.setattr(linear, "_BLOCK", 3 * len(MIXED_LABELS))
        model = noisy_model(CategoryVocab(MIXED_LABELS), 2 ** 16, "joint")
        assert model._block_spans == 2
        sentences = [t.tokens for t in sample_fused[:40]]
        assert_batch_matches(model, sentences)
        for tokens, h in zip(sentences, model.hashes_many(sentences)):
            spans = len(tokens) * (len(tokens) + 1) // 2
            assert len(h.blocks) == (spans + 1) // 2

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(rows=st.lists(st.lists(st.tuples(UNICODE_TEXT, UNICODE_TEXT),
                                  min_size=1, max_size=9),
                         min_size=1, max_size=5))
    def test_random_batches(self, rows):
        sentences = [[Token(i, form, pos) for i, (form, pos)
                      in enumerate(row, start=1)] for row in rows]
        model = noisy_model(CategoryVocab(MIXED_LABELS), 2 ** 16, "joint")
        assert_batch_matches(model, sentences)

    def test_batches_keep_to_the_span_budget(self):
        # 1, 3, 6, 10, 15 and 21 spans
        sentences = [[None] * n for n in (1, 2, 3, 4, 5, 6, 1)]
        assert list(linear._batches(sentences, 20)) == [
            (0, 4), (4, 5), (5, 6), (6, 7)]
        assert list(linear._batches([], 20)) == []


class TestBatchedDecode:
    """``decode_many`` gives the trees and notes of one ``decode_table``
    at a time, and raises the first refusal in input order."""

    @staticmethod
    def one_at_a_time(model, sentences, route, lam):
        out = []
        for tokens in sentences:
            try:
                table = model.score_table(tokens,
                                          model.hashes_many([tokens])[0])
                out.append(decode_table(table, route, lam, tokens))
            except ScoreFileError as exc:
                return out, str(exc)
        return out, None

    @staticmethod
    def batched(model, sentences, route, lam):
        out = []
        try:
            for result in decode_many(model, sentences, route, lam):
                out.append(result)
        except ScoreFileError as exc:
            return out, str(exc)
        return out, None

    @pytest.mark.parametrize("route, cap", [
        ("joint", LEN_CAP), ("joint", 6), ("division", LEN_CAP),
        ("eisner", LEN_CAP)])
    def test_same_trees_and_notes(self, sample_fused, route, cap,
                                  monkeypatch):
        # small windows and fill batches, so that lengths meet across
        # several of each
        monkeypatch.setattr(linear, "_WINDOW_SPANS", 400)
        monkeypatch.setattr(decode, "batch_size", lambda n: 3)
        monkeypatch.setattr(decode, "LEN_CAP", cap)
        vocab = CategoryVocab.from_trees(sample_fused)
        model = noisy_model(vocab, 2 ** 16, "joint", seed=8)
        sentences = [t.tokens for t in sample_fused[:60]]
        want = self.one_at_a_time(model, sentences, route, 0.4)
        got = self.batched(model, sentences, route, 0.4)
        assert got == want
        assert want[1] is None and len(want[0]) == 60
        # the span route takes a joint model's heads from its arcs, so the
        # only notes are those of the cap
        notes = [note for _, found in want[0] for note in found]
        assert all("above cap" in note for note in notes)
        assert (len(notes) > 0) == (cap < LEN_CAP)

    def refusals(self, sample_fused, route, value, monkeypatch, trail=None):
        """One-at-a-time and batched results when sentences 4 and 9 (by
        ordinal) score ``value`` for span (1, 1) under the empty label.
        Sentence 9 is as long as sentence 1 and sentence 4 longer than any
        other, so a length at a time decodes sentence 9 first. ``trail``,
        when given, receives per window of the batched decode the sizes of
        its gather groups, as far as they were decoded."""
        vocab = CategoryVocab.from_trees(sample_fused)
        model = noisy_model(vocab, 2 ** 16, "joint", seed=8)
        sentences = [t.tokens for t in sample_fused[:12]]
        sentences[3] = sentences[3] + max(sentences, key=len)
        sentences[8] = list(sentences[0])
        bad = {id(sentences[3]), id(sentences[8])}
        # the bad sentences' hashes, kept alive so their ids stay theirs
        poisoned = []
        hashes_many, span_blocks = model.hashes_many, model._span_blocks

        def hashed(batch):
            made = hashes_many(batch)
            poisoned.extend(h for tokens, h in zip(batch, made)
                            if id(tokens) in bad)
            return made

        def blocks(h, n, *gathered):
            # the span blocks that score_table and summary both read; span
            # (1, 1), flat cell n + 2, is the first row of the first block
            for cells, block in span_blocks(h, n, *gathered):
                if cells[0] == n + 2 and any(h is p for p in poisoned):
                    block[0, 0] = value
                yield cells, block

        monkeypatch.setattr(model, "hashes_many", hashed)
        monkeypatch.setattr(model, "_span_blocks", blocks)
        if trail is not None:
            gathers = model._gathers

            def traced(hashes):
                trail.append([])
                for lo, hi, gathered in gathers(hashes):
                    trail[-1].append(hi - lo)
                    yield lo, hi, gathered

            monkeypatch.setattr(model, "_gathers", traced)
        return (self.one_at_a_time(model, sentences, route, 0.5),
                self.batched(model, sentences, route, 0.5))

    @pytest.mark.parametrize("route", ["joint", "division"])
    def test_first_refusal_in_input_order(self, sample_fused, route,
                                          monkeypatch):
        want, got = self.refusals(sample_fused, route, np.inf, monkeypatch)
        assert want[1] == "non-finite values in span scores"
        assert len(want[0]) == 3
        assert got == want

    @pytest.mark.parametrize("route", ["joint", "division"])
    def test_refusal_of_a_label_that_wins_no_span(self, sample_fused, route,
                                                  monkeypatch):
        # -inf wins no span, so no summary shows it: the model path must
        # refuse it from the scored blocks, as the dense table is refused
        want, got = self.refusals(sample_fused, route, -np.inf, monkeypatch)
        assert want[1] == "non-finite values in span scores"
        assert len(want[0]) == 3
        assert got == want

    @pytest.mark.parametrize("setting", ["windows", "groups"])
    def test_a_refusal_in_a_later_window_or_group_comes_in_its_turn(
            self, sample_fused, setting, monkeypatch):
        # small windows, or groups of 400 keys, two short sentences':
        # sentence 4 is decoded after a window or group that went before
        # it, and what comes before its refusal is the three results
        # before it
        if setting == "windows":
            monkeypatch.setattr(linear, "_WINDOW_SPANS", 40)
        else:
            labels = len(CategoryVocab.from_trees(sample_fused))
            monkeypatch.setattr(linear, "_GATHER_BYTES", 8 * labels * 400)
        trail: list = []
        want, got = self.refusals(sample_fused, "joint", np.inf, monkeypatch,
                                  trail)
        assert want[1] == "non-finite values in span scores"
        assert len(want[0]) == 3
        assert got == want
        if setting == "windows":
            assert len(trail) > 1
        else:
            assert len(trail) == 1 and len(trail[0]) > 1

    @pytest.mark.parametrize("setting", ["defaults", "windows", "groups"])
    def test_windows_and_gather_groups_keep_the_results(
            self, sample_fused, setting, monkeypatch):
        # blocks of 3 spans, so that a sentence's pair keys cross blocks
        vocab = CategoryVocab.from_trees(sample_fused)
        monkeypatch.setattr(linear, "_BLOCK", 3 * len(vocab))
        model = noisy_model(vocab, 2 ** 16, "joint", seed=8)
        sentences = [t.tokens for t in sample_fused[:40]]
        alone = [model.hashes_many([tokens])[0] for tokens in sentences]
        want = [model.summary(tokens, h, 0.5)
                for tokens, h in zip(sentences, alone)]
        if setting == "windows":
            monkeypatch.setattr(linear, "_WINDOW_SPANS", 40)
        if setting == "groups":
            # the median sentence's keys: longer sentences are gathered a
            # block at a time, shorter ones in groups
            keys = sorted(len(h.single) + len(h.pairs)
                          for h in alone)
            monkeypatch.setattr(linear, "_GATHER_BYTES",
                                8 * len(vocab) * keys[len(keys) // 2])
        groups, got = [], {}
        gathers, summary = model._gathers, model.summary

        def grouped(hashes):
            for lo, hi, gathered in gathers(hashes):
                groups.append(None if gathered[0] is None else hi - lo)
                yield lo, hi, gathered

        def kept(tokens, hashes, lam, gathered=None):
            got[id(tokens)] = summary(tokens, hashes, lam, gathered)
            return got[id(tokens)]

        monkeypatch.setattr(model, "_gathers", grouped)
        monkeypatch.setattr(model, "summary", kept)
        trees = self.batched(model, sentences, "joint", 0.5)
        assert trees == self.one_at_a_time(model, sentences, "joint", 0.5)
        for tokens, summary_alone in zip(sentences, want):
            assert same_summary(got[id(tokens)], summary_alone)
        if setting == "defaults":
            assert groups == [40]
        elif setting == "windows":
            assert len(groups) > 10 and None not in groups
        else:
            assert None in groups and max(g or 0 for g in groups) > 1

    def test_one_gathered_table_at_a_time_within_the_budget(self,
                                                            monkeypatch):
        # three sentences of 30 distinct words and tags nearly fill a
        # table at 166 labels, so six make two groups
        labels = [f"L{k}" for k in range(164)]
        model = LinearModel(CategoryVocab(labels), dim=2 ** 16)
        sentences = [[Token(i, f"w{s}_{i}", f"T{s}_{i}")
                      for i in range(1, 31)] for s in range(6)]
        hashes = model.hashes_many(sentences)
        tables = []
        weigh = model._weigh

        def weighed(keys):
            table = weigh(keys)
            tables.append(table.nbytes)
            return table

        # no decoding: what is traced is the gathered tables' memory
        monkeypatch.setattr(model, "_weigh", weighed)
        monkeypatch.setattr(linear, "decode_tables", lambda *args: iter(()))
        tracemalloc.start()
        try:
            for _ in decode_many(model, sentences, hashes=hashes):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tables) == 2 and min(tables) > linear._GATHER_BYTES * 0.9
        assert peak <= linear._GATHER_BYTES + 2 ** 20

    def test_dev_passes_see_the_per_sentence_trees(self, tiny_corpus):
        model, _ = train_linear(tiny_corpus, TrainConfig(epochs=2,
                                                         dim=2 ** 16))
        sentences = [t.tokens for t in tiny_corpus]
        batched = [tree for tree, _ in decode_many(model, sentences)]
        assert batched == [decode_with_model(model, tokens)
                           for tokens in sentences]


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
        # block-at-a-time scoring: the working arrays hold a bounded number
        # of span labels, where all spans at once would take hundreds of MB
        labels = [f"L{k}" + "x" * (k % 7) for k in range(164)]
        model = LinearModel(CategoryVocab(labels), dim=2 ** 16)
        tokens = [Token(i, f"w{i % 50}", f"T{i % 9}")
                  for i in range(1, LEN_CAP + 1)]
        # the hashes are built first, untraced, so the peak is the scorer's
        hashes = model.hashes_many([tokens])[0]
        tracemalloc.start()
        try:
            table = model.score_table(tokens, hashes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(model.vocab) == 166
        assert peak <= 2 * table.span.nbytes


def reference_indices(model, tokens, spans, arcs, root):
    """Sorted weight indices of an analysis from the template strings: the
    multiset ``feature_counts`` must give."""
    mask = model.dim - 1
    words, tags = padded_tokens(tokens)
    span_idx = [(key(f) ^ salt(c)) & mask
                for i, j, c in spans
                for f in span_features(words, tags, i, j)]
    dep = [f for c, h in arcs for f in arc_features(words, tags, c, h)]
    if root:
        dep += root_features(words, tags, root, len(tokens))
    return sorted(span_idx), sorted(key(f) & mask for f in dep)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def same_summary(a, b):
    """Two summaries hold the same bits; repr tells -0.0 from 0.0."""
    return (same_bits(a.best, b.best) and np.array_equal(a.label, b.label)
            and repr(a.top) == repr(b.top) and same_bits(a.arc, b.arc)
            and same_bits(a.root, b.root))


# weights whose sums depend on the order they are added in: 2^53 + 1
# rounds back to 2^53, and -0.0 survives only a sum of -0.0 alone
MIXED_MAGNITUDES = [2.0 ** 53, -2.0 ** 53, 1.0, -1.0, -0.0]


class TestSummationOrder:
    """With weights of mixed magnitude, an association order other than
    numpy's pairwise one changes the bits of the scores."""

    @pytest.mark.parametrize("mode", ["joint", "division"])
    def test_scores_match_the_reference_bit_for_bit(self, sample_fused,
                                                    mode):
        vocab = CategoryVocab.from_trees(sample_fused,
                                         division_labels=mode == "division")
        model = LinearModel(vocab, dim=2 ** 10, mode=mode)
        model.weights = np.random.default_rng(8).choice(MIXED_MAGNITUDES,
                                                        size=model.dim)
        for tree in sample_fused[:60]:
            got = model.score_table(tree.tokens,
                                    model.hashes_many([tree.tokens])[0])
            want = reference_score_table(model, tree.tokens)
            for part in ("span", "arc", "root"):
                assert same_bits(getattr(got, part), getattr(want, part)), \
                    part

    def test_all_negative_zero_weights_sum_to_positive_zero(self,
                                                            sample_fused):
        model = LinearModel(CategoryVocab(MIXED_LABELS), dim=2 ** 8)
        model.weights = np.full(model.dim, -0.0)
        tokens = sample_fused[0].tokens
        table = model.score_table(tokens, model.hashes_many([tokens])[0])
        for part in (table.span, table.arc, table.root):
            assert not np.signbit(part).any()

    def test_the_weights_tell_orders_apart(self, sample_fused):
        # the check above has power: summed left to right, the same twelve
        # weights give other bits on many spans
        model = LinearModel(CategoryVocab(MIXED_LABELS), dim=2 ** 10)
        w = np.random.default_rng(8).choice(MIXED_MAGNITUDES, size=model.dim)
        mask = model.dim - 1
        words, tags = padded(sample_fused[0])
        n = len(sample_fused[0])
        differ = 0
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                for c in model.vocab:
                    terms = w[[(key(f) ^ salt(c)) & mask
                               for f in span_features(words, tags, i, j)]]
                    left_to_right = 0.0
                    for x in terms:
                        left_to_right += x
                    differ += left_to_right != terms.sum()
        assert differ >= 10


class TestFeatureCounts:
    @pytest.mark.parametrize("mode", ["joint", "division"])
    def test_gold_and_predicted_parts_match_the_templates(self, sample_fused,
                                                          mode):
        division_mode = mode == "division"
        vocab = CategoryVocab.from_trees(sample_fused,
                                         division_labels=division_mode)
        model = noisy_model(vocab, 2 ** 16, mode, seed=2)
        for tree in sample_fused[:40]:
            tokens = tree.tokens
            hashes = model.hashes_many([tokens])[0]
            table = model.score_table(tokens, hashes)
            if division_mode:
                gold = (tree_parts(tree, division_labels=True)[0], [], 0)
                pred = (decode_division(table.summary(1.0))[0], [], 0)
            else:
                gold = tree_parts(tree)
                pred, _ = decode_joint_mixed(table.summary(0.5))
            for parts in (gold, pred):
                got = model.feature_counts(tokens, *parts, hashes)
                want = reference_indices(model, tokens, *parts)
                for mine, theirs in zip(got, want):
                    assert sorted(mine.tolist()) == theirs

    def test_keys_of_many_blocks(self, sample_fused, monkeypatch):
        # blocks of 2 spans (the vocabulary holds 12 labels with <E> and
        # #): every sentence's pair keys come in many blocks, which scoring
        # and counting must both address
        monkeypatch.setattr(linear, "_BLOCK", 3 * len(MIXED_LABELS))
        vocab = CategoryVocab(MIXED_LABELS)
        model = noisy_model(vocab, 2 ** 16, "joint", seed=4)
        assert model._block_spans == 2
        for tree in sample_fused[:12]:
            tokens = tree.tokens
            spans_in = len(tokens) * (len(tokens) + 1) // 2
            hashes = model.hashes_many([tokens])[0]
            assert len(hashes.blocks) == (spans_in + 1) // 2
            assert_tables_equal(model, tokens)
            spans = [(i, j, label) for i in range(1, len(tokens) + 1)
                     for j in range(i, len(tokens) + 1)
                     for label in ("NP", "名詞", "S+VP+NP")]
            got = model.feature_counts(tokens, spans, [], 0, hashes)
            want = reference_indices(model, tokens, spans, [], 0)
            assert sorted(got[0].tolist()) == want[0]


def test_count_difference_keeps_only_changed_indices():
    gold = np.array([5, 3, 5, 9, 7])
    pred = np.array([3, 5, 2, 9, 9])
    idx, delta = _count_difference(gold, pred)
    assert idx.tolist() == [2, 5, 7, 9]
    assert delta.tolist() == [-1, 1, 1, -1]


def test_averager_matches_hand_simulation():
    # one weight, three sentences: updates after sentences 1 and 2, none
    # after 3; end-of-sentence values are 1, 2, 2 so the average is 5/3
    avg = _Averager(1)
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


def test_snapshot_is_the_average_bit_for_bit():
    # written into a reused buffer, touched weights only: still bitwise the
    # dense formula, and a kept snapshot is never written again
    rng = np.random.default_rng(37)
    dim = 64
    avg = _Averager(dim)
    w = np.zeros(dim)
    kept = None
    for epoch in range(6):
        for _ in range(5):
            idx = np.unique(rng.integers(0, dim // 2, size=6))
            avg.touch(idx, w)
            w[idx] += rng.normal(size=len(idx)) * 10.0 ** rng.integers(-3, 3)
            avg.steps += 1
        want = (avg.acc + (avg.steps - avg.last) * w) / avg.steps
        got = avg.snapshot(w)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        if kept is not None:
            assert got is not kept
            assert kept.view(np.int64).tolist() == kept_bits
        if epoch in (1, 2, 4):
            kept = avg.keep()
            kept_bits = want.view(np.int64).tolist()
            assert kept is got
    assert avg.kept is kept


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
        pytest.param("joint", "5ef9b6d34594eea42a3b2f6ade83776e"
                     "acd19e45309a792cab7b685db82fd949", id="joint"),
        pytest.param("division", "a146b7965791de79eecaa081d2f50b5b"
                     "c5b55dc13613677bdfceb1ac98d995fa", id="division"),
    ])
    def test_trained_weights_are_pinned(self, tiny_corpus, mode, digest):
        # digests of the weights trained under the integer key rule, the
        # division one since the span decoder gives the sentence span no
        # H_ label; a change to the keys, the scorer or the update shows
        # here
        config = TrainConfig(epochs=3, dim=2 ** 16, seed=13, mode=mode)
        model, _ = train_linear(tiny_corpus, config, dev=tiny_corpus)
        got = hashlib.sha256(model.weights.astype("<f8").tobytes())
        assert got.hexdigest() == digest

    def test_best_dev_epoch_before_the_last_is_returned(self):
        # dev F1 + UAS on this run peaks at epoch 3 of 4 (166.70 against
        # 165.22); training 3 epochs without dev ends on that epoch's
        # averaged weights
        trees, dev = sample_corpus(8, seed=5), sample_corpus(10, seed=55)
        config = TrainConfig(epochs=4, dim=2 ** 12, seed=24)
        model, history = train_linear(trees, config, dev=dev)
        scores = [r["dev_f1"] + r["dev_uas"] for r in history]
        assert max(scores) == scores[2] > scores[3]
        third, _ = train_linear(trees, TrainConfig(epochs=3, dim=2 ** 12,
                                                   seed=24))
        fourth, _ = train_linear(trees, config)
        assert model.weights.tobytes() == third.weights.tobytes()
        assert model.weights.tobytes() != fourth.weights.tobytes()

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

    def test_joint_training_builds_no_tree(self, sample_fused, monkeypatch):
        # each loss-augmented decode yields parts, which the update counts
        built = []
        init = HpsgTree.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(HpsgTree, "__init__", counting)
        _, history = train_linear(sample_fused[:20],
                                  TrainConfig(epochs=2, dim=2 ** 14, seed=13))
        assert history[0]["updates"] > 0
        assert built == []

    @pytest.mark.parametrize("mode", ["joint", "division"])
    def test_each_tree_is_encoded_once(self, sample_fused, mode,
                                       monkeypatch):
        # the vocabulary comes from the gold spans, not a second encoding
        calls = []
        encode = division.binarize_head_outward

        def counting(tree):
            calls.append(1)
            return encode(tree)

        monkeypatch.setattr(division, "binarize_head_outward", counting)
        trees = sample_fused[:20]
        model, _ = train_linear(trees, TrainConfig(epochs=1, dim=2 ** 14,
                                                   mode=mode, seed=13))
        assert len(calls) == 20
        monkeypatch.setattr(division, "binarize_head_outward", encode)
        assert model.vocab == CategoryVocab.from_trees(
            trees, division_labels=mode == "division")

    def test_division_training_builds_no_tree(self, sample_fused,
                                              monkeypatch):
        # only the gold encoding builds nodes, once for all epochs; each
        # loss-augmented decode yields spans, which the update counts
        built = []
        for cls in (ConstNode, HpsgNode):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(1)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        counts = []
        for epochs in (1, 3):
            built.clear()
            _, history = train_linear(sample_fused[:20], TrainConfig(
                epochs=epochs, dim=2 ** 14, mode="division", seed=13))
            assert history[-1]["updates"] > 0
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

    def test_division_mode_trains(self, tiny_corpus):
        config = TrainConfig(epochs=6, dim=2 ** 18, mode="division", seed=13)
        model, history = train_linear(tiny_corpus, config, dev=tiny_corpus)
        assert history[-1]["objective"] < history[0]["objective"]
        assert history[-1]["dev_f1"] >= 90.0
        pred = decode_with_model(model, tiny_corpus[0].tokens)
        assert len(pred) == len(tiny_corpus[0])
