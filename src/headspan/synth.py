"""Deterministic synthetic treebanks for tests and the bundled sample data.

Two generators live here. ``sample_corpus`` draws sentences from a small
hand-written grammar with fixed head rules; every sentence it produces is
projective and single-headed in every phrase, so fusing its constituent and
dependency views is lossless. ``random_tree`` makes arbitrary head-annotated
trees with no linguistic pretensions, for structural round-trip tests.
"""

from __future__ import annotations

import random

import numpy as np

from .fuse import project_constituents, project_dependencies
from .scoring import CategoryVocab, ScoreTable
from .trees import (
    ConstituentTree,
    DependencyTree,
    HpsgNode,
    HpsgTree,
    Token,
    make_node,
    preterminal,
)

LEXICON = {
    "DT": ["the", "a", "some", "this", "every"],
    "JJ": ["quick", "gray", "old", "small", "bright", "formal", "wooden"],
    "NN": ["fox", "dog", "report", "board", "factory", "garden", "engine",
           "market", "letter", "bridge"],
    "NNS": ["foxes", "reports", "boards", "engines", "markets", "letters"],
    "NNP": ["Avery", "Brook", "Casey", "Devon", "Ellis", "Harbor"],
    "VBZ": ["sees", "likes", "sells", "makes", "moves", "reviews", "keeps"],
    "VBD": ["saw", "liked", "sold", "made", "moved", "reviewed", "kept"],
    "IN": ["in", "on", "near", "with", "under", "from"],
    "CC": ["and", "or"],
    "RB": ["quickly", "slowly", "often", "quietly"],
    "PRP": ["it", "they", "she", "he"],
}


class _Builder:
    """Grows a token list while grammar rules assemble nodes over it."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.tokens: list[Token] = []

    def leaf(self, pos: str, form: str | None = None) -> HpsgNode:
        if form is None:
            form = self.rng.choice(LEXICON[pos])
        idx = len(self.tokens) + 1
        self.tokens.append(Token(index=idx, form=form, pos=pos))
        return preterminal(idx, pos)

    def noun_phrase(self, depth: int = 0) -> HpsgNode:
        roll = self.rng.random()
        if roll < 0.12:
            pron = self.leaf("PRP")
            return make_node("NP", [pron], pron.head)
        if roll < 0.28:
            names = [self.leaf("NNP")
                     for _ in range(self.rng.randint(1, 2))]
            return make_node("NP", names, names[-1].head)
        kids = []
        if self.rng.random() < 0.7:
            kids.append(self.leaf("DT"))
        for _ in range(self.rng.randint(0, 2)):
            kids.append(self.leaf("JJ"))
        noun = self.leaf(self.rng.choice(["NN", "NN", "NNS"]))
        kids.append(noun)
        base = make_node("NP", kids, noun.head)
        if depth < 2 and self.rng.random() < 0.25:
            pp = self.prep_phrase(depth + 1)
            base = make_node("NP", [base, pp], base.head)
        if depth < 1 and self.rng.random() < 0.12:
            cc = self.leaf("CC")
            right = self.noun_phrase(depth + 1)
            base = make_node("NP", [base, cc, right], base.head)
        return base

    def prep_phrase(self, depth: int) -> HpsgNode:
        prep = self.leaf("IN")
        obj = self.noun_phrase(depth)
        return make_node("PP", [prep, obj], prep.head)

    def verb_phrase(self) -> HpsgNode:
        kids = []
        if self.rng.random() < 0.2:
            adv = self.leaf("RB")
            kids.append(make_node("ADVP", [adv], adv.head))
        verb = self.leaf(self.rng.choice(["VBZ", "VBD"]))
        kids.append(verb)
        if self.rng.random() < 0.85:
            kids.append(self.noun_phrase())
        if self.rng.random() < 0.3:
            kids.append(self.prep_phrase(1))
        return make_node("VP", kids, verb.head)

    def sentence(self) -> HpsgTree:
        subj = self.noun_phrase()
        vp = self.verb_phrase()
        stop = self.leaf(".", ".")
        root = make_node("S", [subj, vp, stop], vp.head)
        return HpsgTree(tokens=self.tokens, root=root)


_DEP_LABELS = {
    ("DT", "n"): "det", ("JJ", "n"): "amod", ("NN", "n"): "nn",
    ("NNS", "n"): "nn", ("NNP", "n"): "nn", ("CC", "n"): "cc",
    ("RB", "v"): "advmod", (".", "v"): "punct", ("IN", "v"): "prep",
    ("IN", "n"): "prep",
}


def _label_arcs(tree: HpsgTree, deps: DependencyTree) -> list[str | None]:
    """POS-driven dependency labels, enough for label-aware round trips."""
    labels: list[str | None] = [None] * (len(tree) + 1)
    pos = [None] + [t.pos for t in tree.tokens]
    verb_head = {h for h in range(1, len(tree) + 1)
                 if pos[h] in ("VBZ", "VBD")}
    for child in range(1, len(tree) + 1):
        head = deps.heads[child]
        if head == 0:
            labels[child] = "root"
            continue
        side = "v" if head in verb_head else "n"
        got = _DEP_LABELS.get((pos[child], side))
        if got is None:
            if pos[child] in ("NN", "NNS", "NNP", "PRP"):
                if head in verb_head:
                    got = "nsubj" if child < head else "dobj"
                else:
                    got = "pobj"
            else:
                got = "dep"
        labels[child] = got
    return labels


def sample_corpus(count: int, seed: int = 7,
                  max_len: int = 16) -> list[HpsgTree]:
    """Deterministic corpus of clean head-annotated sentences."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        tree = _Builder(rng).sentence()
        if len(tree) > max_len:
            continue
        deps = project_dependencies(tree)
        deps.labels = _label_arcs(tree, deps)
        tree.dep_heads = list(deps.heads)
        tree.dep_labels = list(deps.labels)
        out.append(tree)
    return out


def corpus_views(trees: list[HpsgTree]) -> tuple[list[ConstituentTree],
                                                 list[DependencyTree]]:
    """The paired constituent and dependency projections of a corpus."""
    consts = [project_constituents(t) for t in trees]
    deps = []
    for t in trees:
        d = project_dependencies(t)
        if t.dep_labels is not None:
            d.labels = list(t.dep_labels)
        deps.append(d)
    return consts, deps


_RAND_POS = ["NN", "VB", "JJ", "IN", "DT", "RB"]
_RAND_CATS = ["S", "NP", "VP", "PP", "ADJP", "X"]


def random_tree(rng: random.Random, n: int) -> HpsgTree:
    """Arbitrary head-annotated tree over ``n`` fresh tokens.

    Shapes are unconstrained: random arity up to 4, random head daughters,
    occasional unary categories over preterminals and extra unary layers,
    so encoders and decoders meet atoms, bare leaves, and deep nesting.
    """
    tokens = [Token(index=i, form=f"w{i}", pos=rng.choice(_RAND_POS))
              for i in range(1, n + 1)]

    def grow(start: int, end: int) -> HpsgNode:
        if start == end:
            leaf = preterminal(start, tokens[start - 1].pos)
            if rng.random() < 0.3:
                return make_node(rng.choice(_RAND_CATS), [leaf], start)
            return leaf
        size = end - start + 1
        arity = rng.randint(2, min(4, size))
        cuts = sorted(rng.sample(range(start, end), arity - 1))
        bounds = [start] + [c + 1 for c in cuts] + [end + 1]
        kids = [grow(bounds[k], bounds[k + 1] - 1) for k in range(arity)]
        head = rng.choice(kids).head
        node = make_node(rng.choice(_RAND_CATS), kids, head)
        if rng.random() < 0.15:
            node = make_node(rng.choice(_RAND_CATS), [node], head)
        return node

    return HpsgTree(tokens=tokens, root=grow(1, n))


def random_score_table(rng: np.random.Generator, n: int,
                       vocab: CategoryVocab) -> ScoreTable:
    """Dense scores drawn uniformly from [-1, 1), for decoder agreement
    checks.

    Slots with no meaning (index 0, reversed spans, self-loop arcs) stay
    zero so written score files contain only legal entries.
    """
    v = len(vocab)
    table = ScoreTable.zeros(n, vocab)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            table.span[i, j] = rng.uniform(-1.0, 1.0, v)
    for child in range(1, n + 1):
        for head in range(1, n + 1):
            if head != child:
                table.arc[child, head] = rng.uniform(-1.0, 1.0)
    table.root[1:] = rng.uniform(-1.0, 1.0, n)
    return table
