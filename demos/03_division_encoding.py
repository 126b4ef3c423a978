"""Division encoding: head-annotated trees as ordinary labeled brackets.

A head-annotated tree rewrites losslessly into a plain binary constituent
tree, so any bracket parser can produce one without knowing about heads.
Unary chains of phrase labels collapse into a single plus-joined atom, a
bare preterminal gains an explicit empty category <E> above it, wider
phrases binarize outward around the head token with <E> intermediates,
and an H_ prefix marks each head daughter for the way back. A span
parser returns the encoding as its labeled spans, and from_division
rebuilds the head-annotated tree from those spans and the tokens.
"""

from pathlib import Path

from headspan.division import from_division, to_division
from headspan.fuse import fuse
from headspan.scoring import tree_spans
from headspan.treebank import (
    format_bracketed,
    format_hpsg,
    pair_treebanks,
    read_bracketed,
    read_conll,
    read_hpsg,
)

DATA = Path(__file__).resolve().parent.parent / "data"

pairs = pair_treebanks(
    read_bracketed((DATA / "multihead.brackets").read_text(encoding="utf-8")),
    read_conll((DATA / "multihead.conll").read_text(encoding="utf-8")))
tree, _ = fuse(*pairs[0])

print("head-annotated tree:")
print(" ", format_hpsg(tree))

div = to_division(tree)
print("division encoding:")
print(" ", format_bracketed(div))


# every token sits under exactly one atom or <E> wrapper, and a binary
# tree over n leaves has n - 1 branching nodes: 2n - 1 spans in all
spans = tree_spans(tree, division_labels=True)
n = len(tree.tokens)
print(f"{n} tokens, {len(spans)} labeled spans (expected {2 * n - 1})")
assert len(spans) == 2 * n - 1

back, flags = from_division(spans, tree.tokens)
assert flags == []
assert format_hpsg(back) == format_hpsg(tree)
print("the labeled spans and the tokens give back the head-annotated tree")

# a unary chain of phrase labels becomes one atom
chain = read_hpsg("(S[1] (VP[1] (VB[1] Go) (ADVP[2] (RB[2] away))))")[0]
print("unary chain S over VP collapses to a plus-joined atom:")
print(" ", format_bracketed(to_division(chain)))
back2, flags2 = from_division(tree_spans(chain, division_labels=True),
                              chain.tokens)
assert flags2 == []
assert format_hpsg(back2) == format_hpsg(chain)
