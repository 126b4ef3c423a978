"""Training the hashed linear model on head-annotated trees.

An averaged perceptron scores spans, arcs and roots through one shared
hashed weight vector. Each update decodes the current best tree with a
loss bonus on wrong span labels and moves weights from predicted parts
toward gold parts. The interpolation weight steers training between the
bracket and dependency objectives, exactly as it steers decoding.
"""

from headspan.evaluate import attachment_scores, bracket_f1
from headspan.fuse import project_constituents, project_dependencies
from headspan.linear import TrainConfig, decode_many, train_linear
from headspan.synth import sample_corpus

corpus = sample_corpus(60, seed=17)
train, dev = corpus[:45], corpus[45:]
print(f"{len(train)} training sentences, {len(dev)} held out")

config = TrainConfig(epochs=6, step=0.1, lam=0.5, dim=2 ** 16, seed=3,
                     log=print)
model, history = train_linear(train, config, dev=dev)

# the hinge objective falls as the separator takes shape
assert history[-1]["objective"] < history[0]["objective"]

# parse the held-out sentences and score both readings at once
gold_c = [project_constituents(t) for t in dev]
gold_d = [project_dependencies(t) for t in dev]
pred = [tree for tree, _ in decode_many(model, [t.tokens for t in dev])]
pred_c = [project_constituents(t) for t in pred]
pred_d = [project_dependencies(t) for t in pred]

brackets = bracket_f1(gold_c, pred_c)
deps = attachment_scores(gold_d, pred_d)
print(f"held out: bracket F1 {brackets.f1:.2f}, UAS {deps.uas:.2f}")

print("one held-out parse:")
tree = pred[0]
print(" ", " ".join(t.form for t in tree.tokens))
print("  heads:", project_dependencies(tree).heads[1:])

# equal configuration and data give bit-for-bit equal models
quiet = TrainConfig(epochs=6, step=0.1, lam=0.5, dim=2 ** 16, seed=3)
again, _ = train_linear(train, quiet, dev=dev)
assert (model.weights == again.weights).all()
print("retraining with the same seed reproduces the weights exactly")
