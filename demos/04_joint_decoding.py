"""Joint decoding over span and arc scores.

One chart decoder maximizes lam * (span label total) + (1 - lam) * (arc
total) over every binary head-annotated derivation. At lam = 1 only the
brackets matter and it agrees with the bracket-only decoder, at lam = 0 it
reduces to projective dependency parsing, and in between a single tree
serves both readings at once.
"""

import numpy as np

from headspan.decode import (
    brute_force,
    decode_division,
    decode_eisner,
    decode_joint,
)
from headspan.fuse import project_dependencies
from headspan.scoring import CategoryVocab, oracle_scores
from headspan.synth import random_score_table, sample_corpus
from headspan.treebank import format_hpsg

# --- oracle recovery -----------------------------------------------------
# a table that awards 1.0 to each gold part decodes straight back to gold
trees = sample_corpus(1, seed=41)
gold = trees[0]
vocab = CategoryVocab.from_trees(trees)
table = oracle_scores(gold, vocab)

pred, score = decode_joint(table, 0.5, tokens=gold.tokens)
n = len(gold)
# the binarized gold tree has 2n - 1 scored spans, plus n arc or root hits
wanted = 0.5 * (2 * n - 1) + 0.5 * n
print(f"oracle table, n={n}: score {score:.3f}, expected {wanted:.3f}")
assert abs(score - wanted) < 1e-9
assert format_hpsg(pred) == format_hpsg(gold)
print("decoded tree is the gold tree:")
print(" ", format_hpsg(pred))

# --- the endpoints are the specialist decoders ---------------------------
rng = np.random.default_rng(3)
table = random_score_table(rng, 7, vocab)

_, spans_only = decode_joint(table, 1.0)
_, div_score = decode_division(table.summary(1.0))
print(f"lam=1 vs bracket-only decoder: {spans_only:.6f} vs {div_score:.6f}")
assert abs(spans_only - div_score) < 1e-9

joint0, arcs_only = decode_joint(table, 0.0)
dep, dep_score = decode_eisner(table)
print(f"lam=0 vs dependency-only decoder: {arcs_only:.6f} vs {dep_score:.6f}")
assert abs(arcs_only - dep_score) < 1e-9
assert project_dependencies(joint0).heads == dep.heads

# --- the chart agrees with exhaustive search -----------------------------
worst = 0.0
for n in (2, 3, 4, 5):
    for lam in (0.0, 0.5, 1.0):
        t = random_score_table(rng, n, vocab)
        _, fast = decode_joint(t, lam)
        _, slow = brute_force(t, lam)
        worst = max(worst, abs(fast - slow))
print(f"chart vs exhaustive search, 12 random tables: worst gap {worst:.2e}")
assert worst < 1e-9
