"""Seeded input generator for the benchmark workloads.

Every workload's inputs are a function of its seed alone. Sentence lengths
follow a fixed mix (exact counts per length), so the decoder and scorer do
the same amount of work on every seed and only the words, tags and tree
shapes change. The program under test receives only the files written here.

    python3 perfbench/gen.py --workload parse-long --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from functools import cache
from pathlib import Path

import numpy as np

from headspan.scoring import CategoryVocab, oracle_scores, write_scores
from headspan.synth import corpus_views, sample_corpus
from headspan.treebank import write_bracketed, write_conll, write_hpsg
from headspan.trees import HpsgNode, HpsgTree, Token, make_node, preterminal

WORKLOADS = ("pipeline", "parse-long", "parse-wide")

GRAMMAR_MAX_LEN = 16      # the bundled grammar's sentences, as in data/

# pipeline: grammar sentences, {length: count}
PIPELINE_TRAIN = {n: c for n, c in zip(range(3, 17), (
    2, 5, 8, 10, 11, 11, 10, 10, 9, 8, 6, 5, 3, 2))}
PIPELINE_HOLDOUT = 20
PIPELINE_EPOCHS = 4
PIPELINE_TEST = {n: 2 * c for n, c in zip(range(3, 17), (
    1, 3, 4, 5, 6, 6, 5, 5, 5, 4, 3, 3, 2, 2))}

# parse-long: coordinated clauses of the bundled grammar, n = 30 to 70
LONG_LENGTHS = {30: 2, 34: 2, 38: 2, 42: 2, 46: 2, 50: 1, 55: 1, 62: 1, 70: 1}
LONG_CLEAN_EVERY = 4      # every 4th sentence gets a noise-free table
LONG_SIGMA = 0.5          # noise on gold entries
LONG_DISTRACTORS = 2      # per token: wrong span labels and wrong arcs

# parse-wide: refined categories; one model per program version, trained on
# short sentences of a fixed pool, then seeded mid-length test sentences
WIDE_POOL_SEED = 0
WIDE_POOL_SIZE = 3000
WIDE_TRAIN_MAX_LEN = 24
WIDE_EXTRA_MIN_LEN = 12
WIDE_TRAIN_EXTRA = 40
WIDE_HOLDOUT = 20
WIDE_EPOCHS = 4
WIDE_STEP = 1.0
WIDE_TEST = {n: 3 for n in range(15, 25)}
WIDE_TRAIN_ARGS = ["--epochs", str(WIDE_EPOCHS), "--holdout",
                   str(WIDE_HOLDOUT), "--step", str(WIDE_STEP)]


def tree_stream(rng: random.Random, max_len: int):
    """Endless stream of grammar sentences of at most ``max_len`` tokens."""
    while True:
        yield from sample_corpus(500, seed=rng.randrange(2 ** 31),
                                 max_len=max_len)


def _key(tree: HpsgTree) -> tuple:
    return tuple((t.form, t.pos) for t in tree.tokens)


def take_lengths(stream, quotas: dict[int, int], seen: set) -> list[HpsgTree]:
    """Fill exact per-length quotas from the stream, skipping repeats.

    The result is ordered as the sentences arrived, so lengths interleave.
    """
    need = dict(quotas)
    out = []
    while any(need.values()):
        tree = next(stream)
        key = _key(tree)
        if need.get(len(tree), 0) and key not in seen:
            seen.add(key)
            need[len(tree)] -= 1
            out.append(tree)
    return out


def _shift(node: HpsgNode, off: int) -> HpsgNode:
    return HpsgNode(label=node.label, head=node.head + off,
                    children=[_shift(ch, off) for ch in node.children],
                    start=node.start + off, end=node.end + off)


def coordinate(rng: random.Random, stream, n: int) -> HpsgTree:
    """One sentence of exactly ``n`` tokens: clauses joined by conjunctions.

    Each clause is a grammar sentence without its full stop; the result is
    ``(S clause CC clause ... .)`` headed by the first clause's verb.
    """
    biggest = GRAMMAR_MAX_LEN - 1
    spare: dict[int, list[HpsgTree]] = {}   # clauses passed over, by size

    def clause(size: int | None = None, most: int = biggest) -> HpsgTree:
        """The next clause of exactly ``size`` tokens, or of at most ``most``."""
        if spare.get(size):
            return spare[size].pop()
        while True:
            tree = next(stream)
            got = len(tree) - 1
            if got == size if size is not None else got <= most:
                return tree
            spare.setdefault(got, []).append(tree)

    clauses = []
    budget = n - 1                          # tokens left before the stop
    while True:
        if clauses:
            budget -= 1                     # the conjunction
        if budget <= biggest:
            clauses.append(clause(size=budget))
            break
        # leave room for a conjunction and a clause of at least two tokens
        clauses.append(clause(most=budget - 3))
        budget -= len(clauses[-1]) - 1

    tokens: list[Token] = []
    kids: list[HpsgNode] = []
    for k, tree in enumerate(clauses):
        if k:
            tokens.append(Token(len(tokens) + 1, rng.choice(["and", "or"]),
                                "CC"))
            kids.append(preterminal(len(tokens), "CC"))
        off = len(tokens)
        tokens.extend(Token(t.index + off, t.form, t.pos)
                      for t in tree.tokens[:-1])
        body = [_shift(ch, off) for ch in tree.root.children[:-1]]
        kids.append(make_node("S", body, tree.root.head + off))
    tokens.append(Token(len(tokens) + 1, ".", "."))
    kids.append(preterminal(len(tokens), "."))
    tree = HpsgTree(tokens=tokens, root=make_node("S", kids, kids[0].head))
    tree.validate_spans()
    return tree


def refine(tree: HpsgTree) -> HpsgTree:
    """Split each category by its edge tags and width.

    An ``NP`` that runs from a ``DT`` to an ``NN`` over three tokens becomes
    ``NP~DT~NN~3``; widths of six or more read ``6``. On the bundled grammar
    this gives about 160 labels, the size of a PTB chain-atom vocabulary.
    Each refinement is visible to the model's span features (first and last
    tag, length bucket), so held-out accuracy stays near the plain grammar's
    and varies little between seeds.
    """
    pos = [""] + [t.pos for t in tree.tokens]

    def go(node: HpsgNode) -> HpsgNode:
        if node.is_preterminal:
            return HpsgNode(label=node.label, head=node.head,
                            start=node.start, end=node.end)
        width = min(node.end - node.start + 1, 6)
        label = f"{node.label}~{pos[node.start]}~{pos[node.end]}~{width}"
        return HpsgNode(label=label, head=node.head,
                        children=[go(ch) for ch in node.children],
                        start=node.start, end=node.end)

    return HpsgTree(tokens=tree.tokens, root=go(tree.root))


def labels_of(tree: HpsgTree) -> set[str]:
    return set(list(CategoryVocab.from_trees([tree]))[2:])


def _write(path: Path, writer, items) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        writer(items, fh)


def _write_gold(out: Path, stem: str, trees: list[HpsgTree]) -> None:
    consts, deps = corpus_views(trees)
    _write(out / f"{stem}.brackets", write_bracketed, consts)
    _write(out / f"{stem}.conll", write_conll, deps)


def gen_pipeline(seed: int, out: Path) -> dict:
    rng = random.Random(f"pipeline/{seed}")
    stream = tree_stream(rng, GRAMMAR_MAX_LEN)
    seen: set = set()
    train = take_lengths(stream, PIPELINE_TRAIN, seen)
    test = take_lengths(stream, PIPELINE_TEST, seen)
    _write_gold(out, "train", train)
    _write_gold(out, "test", test)
    return {"train": len(train), "holdout": PIPELINE_HOLDOUT,
            "epochs": PIPELINE_EPOCHS, "test": len(test),
            "sentences": len(train) + len(test),
            "tokens": sum(len(t) for t in train + test),
            "labels": len(CategoryVocab.from_trees(train)) - 2}


def noisy_table(rng: np.random.Generator, tree: HpsgTree,
                vocab: CategoryVocab):
    """Oracle table with gold entries jittered and wrong entries added."""
    table = oracle_scores(tree, vocab)
    n = len(tree)
    gold = table.span != 0
    table.span[gold] += rng.normal(0.0, LONG_SIGMA, int(gold.sum()))
    arcs = table.arc != 0
    table.arc[arcs] += rng.normal(0.0, LONG_SIGMA, int(arcs.sum()))
    table.root[1:] += np.where(table.root[1:] != 0,
                               rng.normal(0.0, LONG_SIGMA, n), 0.0)
    for _ in range(LONG_DISTRACTORS * n):
        i, j = sorted(rng.integers(1, n + 1, 2))
        table.span[i, j, rng.integers(0, len(vocab))] += rng.uniform(0.2, 1.0)
        c, h = rng.choice(np.arange(1, n + 1), 2, replace=False)
        table.arc[c, h] += rng.uniform(0.2, 1.0)
    return table


def gen_parse_long(seed: int, out: Path) -> dict:
    rng = random.Random(f"parse-long/{seed}")
    stream = tree_stream(rng, GRAMMAR_MAX_LEN)
    lengths = [n for n, c in LONG_LENGTHS.items() for _ in range(c)]
    golds = [coordinate(rng, stream, n) for n in lengths]
    vocab = CategoryVocab.from_trees(golds)
    nrng = np.random.default_rng(rng.randrange(2 ** 31))
    clean = [k % LONG_CLEAN_EVERY == 0 for k in range(len(golds))]
    tables = [oracle_scores(t, vocab) if ok else noisy_table(nrng, t, vocab)
              for t, ok in zip(golds, clean)]
    _write_gold(out, "gold", golds)
    _write(out / "gold.hpsg", write_hpsg, golds)
    _write(out / "scores.txt", write_scores, tables)
    return {"test": len(golds), "sentences": len(golds),
            "tokens": sum(lengths),
            "lengths": lengths, "labels": len(vocab) - 2,
            "clean": [k for k, ok in enumerate(clean) if ok],
            "sigma": LONG_SIGMA}


@cache
def wide_training_corpus() -> list[HpsgTree]:
    """The parse-wide training trees, the same for every seed.

    Every pool sentence that adds a label the corpus lacks is taken, so the
    corpus covers every label of the pool; then come ``WIDE_TRAIN_EXTRA``
    more of at least ``WIDE_EXTRA_MIN_LEN`` tokens and the holdout. The
    model is therefore the same on every run of one program version, and the
    label count is fixed.
    """
    pool = [refine(t) for t in sample_corpus(
        WIDE_POOL_SIZE, seed=WIDE_POOL_SEED, max_len=WIDE_TRAIN_MAX_LEN)]
    covered: set[str] = set()
    train, rest = [], []
    for tree in pool:
        labels = labels_of(tree)
        if labels - covered:
            covered |= labels
            train.append(tree)
        elif len(tree) >= WIDE_EXTRA_MIN_LEN:
            rest.append(tree)
    return train + rest[:WIDE_TRAIN_EXTRA + WIDE_HOLDOUT]


def wide_training_text() -> str:
    """The parse-wide training corpus as an ``.hpsg`` file's text."""
    out = io.StringIO()
    write_hpsg(wide_training_corpus(), out)
    return out.getvalue()


def gen_parse_wide(seed: int, out: Path) -> dict:
    train = wide_training_corpus()
    rng = random.Random(f"parse-wide/{seed}")
    test = [refine(t) for t in
            take_lengths(tree_stream(rng, max(WIDE_TEST)), WIDE_TEST, set())]
    _write_gold(out, "test", test)
    return {"train": len(train), "holdout": WIDE_HOLDOUT, "test": len(test),
            "sentences": len(test), "tokens": sum(len(t) for t in test),
            "labels": len(CategoryVocab.from_trees(train[:-WIDE_HOLDOUT]))
            - 2}


GENERATORS = {"pipeline": gen_pipeline, "parse-long": gen_parse_long,
              "parse-wide": gen_parse_wide}


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    meta = GENERATORS[workload](seed, out)
    meta.update(workload=workload, seed=seed)
    (out / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    return meta


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    meta = generate(args.workload, args.seed, Path(args.out))
    print(json.dumps({k: v for k, v in meta.items() if k != "lengths"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
