"""Division-span encoding: head-annotated trees as plain labeled binary trees.

The encoding rewrites a head-annotated tree so that heads are recoverable
from category labels alone, which lets an ordinary span-label CKY parser
produce head-annotated output:

* unary chains of internal nodes collapse to a single ``+``-joined atomic
  category (``S+VP``);
* every preterminal without a phrasal category above it receives an explicit
  empty-category node, so each single-token span carries exactly one
  predictable label (an atom or ``<E>``);
* n-ary nodes are binarized head-outward: left siblings of the head daughter
  are split off first, then right siblings, so every inserted ``<E>`` node
  contains the head daughter;
* within every sibling pair the ``H_`` prefix marks the children at or left
  of the head daughter: the left child always carries it, the right child
  carries it exactly when it contains the head. The head daughter is
  therefore the last child whose label carries ``H_``. A single (unary)
  child always carries it. The root label is bare.

``from_parts`` inverts the bare form from its labeled spans and arcs, as
the joint decoders return them. ``from_division`` inverts all of this. On
labelings a decoder might emit that violate the prefix discipline (no
``H_`` child at all) it keeps the leftmost child's head and records a flag
instead of failing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import StructureError
from .trees import (
    EMPTY,
    HEAD_PREFIX,
    ConstituentTree,
    ConstNode,
    HpsgNode,
    HpsgTree,
    Token,
    children_of,
    fold,
    preterminal,
)

if TYPE_CHECKING:
    from .scoring import Parts

CHAIN_JOINER = "+"


def binarize_head_outward(tree: HpsgTree) -> HpsgNode:
    """Binary, head-annotated form of the tree with bare (unprefixed) labels.

    This is the common core of the division encoding and of span extraction
    for scoring: unary chains collapsed to atoms, explicit empty categories
    over bare preterminals, head-outward binarization with empty-category
    intermediates. Heads stay on every node.
    """

    def wrap_bare(node: HpsgNode) -> HpsgNode:
        if node.is_preterminal:
            return HpsgNode(label=EMPTY, head=node.head, children=[node],
                            start=node.start, end=node.end)
        return node

    def encode(node: HpsgNode, kids: list[HpsgNode]) -> HpsgNode:
        if node.is_preterminal:
            return HpsgNode(label=node.label, head=node.head,
                            start=node.start, end=node.end)
        labels = [nd.label for nd in _unary_chain(node)]
        if len(kids) == 1:
            # atom directly over a preterminal
            return HpsgNode(label=CHAIN_JOINER.join(labels), head=node.head,
                            children=kids, start=node.start, end=node.end)
        kids = [wrap_bare(kid) for kid in kids]
        # the tree is validated before the fold: one child carries the head
        t = next(k for k, kid in enumerate(kids) if kid.head == node.head)
        # attach right siblings nearest first, then left ones, each pair
        # becoming an empty-category node before the next attaches
        pair = [kids[t]]
        for k in [*range(t + 1, len(kids)), *range(t - 1, -1, -1)]:
            if len(pair) == 2:
                pair = [HpsgNode(label=EMPTY, head=node.head, children=pair,
                                 start=pair[0].start, end=pair[1].end)]
            pair = pair + [kids[k]] if k > t else [kids[k]] + pair
        return HpsgNode(label=CHAIN_JOINER.join(labels), head=node.head,
                        children=pair, start=node.start, end=node.end)

    tree.validate_spans()
    return wrap_bare(fold(tree.root, lambda nd: _unary_chain(nd)[-1].children,
                          encode))


def from_parts(parts: Parts, tokens: Sequence[Token]) -> HpsgTree:
    """The head-annotated tree of a binary derivation over ``tokens``:
    its 2n - 1 labeled spans in any order, its arcs and its root.

    A binary span takes the head of whichever child the other child
    depends on; ``<E>`` spans dissolve into their children and ``+`` atoms
    unfold into unary chains, undoing :func:`binarize_head_outward`.
    """
    spans, arcs, _ = parts
    head_of = dict(arcs)
    # (nodes, head) of each finished span, taken children first
    stack: list[tuple[list[HpsgNode], int]] = []
    for i, j, label in sorted(spans, key=lambda s: (s[1], -s[0])):
        if i == j:
            head, kids = i, [preterminal(i, tokens[i - 1].pos)]
        else:
            (left, hl), (right, hr) = stack.pop(-2), stack.pop()
            head = hr if head_of.get(hl) == hr else hl
            kids = left + right
        stack.append((kids if label == EMPTY else
                      [expand_chain(label, kids, head, i, j)], head))
    return HpsgTree(tokens=list(tokens), root=stack[0][0][0])


def _unary_chain(node: HpsgNode) -> list[HpsgNode]:
    """The node and the internal nodes below it that are only children."""
    chain = [node]
    while (len(chain[-1].children) == 1
           and not chain[-1].children[0].is_preterminal):
        chain.append(chain[-1].children[0])
    return chain


def to_division(tree: HpsgTree) -> ConstituentTree:
    """Encode a head-annotated tree as a labeled binary constituent tree."""

    def conv(node: HpsgNode, kids: list[ConstNode]) -> ConstNode:
        # the parent marks its children: the left or only child always,
        # the right child when it holds the head
        for child, kid in zip(node.children, kids):
            if child is node.children[0] or child.head == node.head:
                kid.label = HEAD_PREFIX + kid.label
        return ConstNode(label=node.label, children=kids,
                         start=node.start, end=node.end)

    encoded = binarize_head_outward(tree)
    return ConstituentTree(tokens=list(tree.tokens),
                           root=fold(encoded, children_of, conv))


def expand_chain(label: str, children: list[HpsgNode], head: int,
                 start: int, end: int) -> HpsgNode:
    """Unfold a ``+``-joined atom into a unary chain over ``children``."""
    parts = label.split(CHAIN_JOINER)
    node = HpsgNode(label=parts[-1], head=head, children=children,
                    start=start, end=end)
    for part in reversed(parts[:-1]):
        node = HpsgNode(label=part, head=head, children=[node],
                        start=start, end=end)
    return node


def _split_prefix(label: str) -> tuple[str, bool]:
    if label.startswith(HEAD_PREFIX):
        return label[len(HEAD_PREFIX):], True
    return label, False


def from_division(tree: ConstituentTree) -> tuple[HpsgTree, list[str]]:
    """Recover the head-annotated tree from a division encoding.

    Returns the tree and a list of flags describing spans where head
    recovery had to fall back (no ``H_``-marked child); such spans default
    to the leftmost child's head.
    """
    flags: list[str] = []
    tokens: list[Token] = []

    def dec(node: ConstNode, parts: list[tuple[list[HpsgNode], bool, int]]
            ) -> tuple[list[HpsgNode], bool, int]:
        label, marked = _split_prefix(node.label)
        if node.is_preterminal:
            src = tree.tokens[node.start - 1]
            tokens.append(Token(index=node.start, form=src.form, pos=label))
            pret = HpsgNode(label=label, head=node.start,
                            start=node.start, end=node.end)
            return [pret], marked, node.start
        if len(parts) == 1:
            # an only child is the head daughter whether or not it is marked
            head = parts[0][2]
        else:
            head = next((h for _, m, h in reversed(parts) if m), None)
            if head is None:
                flags.append(
                    f"span ({node.start},{node.end}): no H-marked child, "
                    f"defaulting to leftmost head"
                )
                head = parts[0][2]
        kids = [kid for nodes, _, _ in parts for kid in nodes]
        if label == EMPTY:
            return kids, marked, head
        built = expand_chain(label, kids, head, node.start, node.end)
        return [built], marked, head

    pieces, _, _ = fold(tree.root, children_of, dec)
    if len(pieces) != 1:
        raise StructureError(
            "division root is an empty category over multiple children"
        )
    return HpsgTree(tokens=tokens, root=pieces[0]), flags
