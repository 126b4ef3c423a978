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

``from_division`` inverts all of this. On labelings a decoder might emit
that violate the prefix discipline (no ``H_`` child at all) it keeps the
leftmost child's head and records a flag instead of failing.
"""

from __future__ import annotations

from .errors import StructureError
from .trees import (
    EMPTY,
    HEAD_PREFIX,
    ConstituentTree,
    ConstNode,
    HpsgNode,
    HpsgTree,
    Token,
)

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

    def encode(node: HpsgNode) -> HpsgNode:
        if node.is_preterminal:
            return HpsgNode(label=node.label, head=node.head,
                            start=node.start, end=node.end)
        # collapse unary chains of internal nodes into one atom
        labels = [node.label]
        cur = node
        while len(cur.children) == 1 and not cur.children[0].is_preterminal:
            cur = cur.children[0]
            labels.append(cur.label)
        label = CHAIN_JOINER.join(labels)
        if len(cur.children) == 1:
            # atom directly over a preterminal
            child = encode(cur.children[0])
            return HpsgNode(label=label, head=node.head, children=[child],
                            start=node.start, end=node.end)
        kids = [wrap_bare(encode(ch)) for ch in cur.children]

        def nest(sub: list[HpsgNode]) -> list[HpsgNode]:
            if len(sub) == 2:
                return sub
            t = next(k for k, ch in enumerate(sub) if ch.head == node.head)
            if t == 0:
                inner = sub[:-1]
                mid = HpsgNode(label=EMPTY, head=node.head, children=nest(inner),
                               start=inner[0].start, end=inner[-1].end)
                return [mid, sub[-1]]
            inner = sub[1:]
            mid = HpsgNode(label=EMPTY, head=node.head, children=nest(inner),
                           start=inner[0].start, end=inner[-1].end)
            return [sub[0], mid]

        return HpsgNode(label=label, head=node.head, children=nest(kids),
                        start=node.start, end=node.end)

    tree.validate_spans()
    return wrap_bare(encode(tree.root))


def to_division(tree: HpsgTree) -> ConstituentTree:
    """Encode a head-annotated tree as a labeled binary constituent tree."""

    def conv(node: HpsgNode, prefixed: bool) -> ConstNode:
        label = HEAD_PREFIX + node.label if prefixed else node.label
        if node.is_preterminal:
            return ConstNode(label=label, start=node.start, end=node.end)
        if len(node.children) == 1:
            kids = [conv(node.children[0], True)]
        else:
            left, right = node.children
            kids = [conv(left, True), conv(right, right.head == node.head)]
        return ConstNode(label=label, children=kids,
                         start=node.start, end=node.end)

    encoded = binarize_head_outward(tree)
    return ConstituentTree(tokens=list(tree.tokens), root=conv(encoded, False))


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

    def dec(node: ConstNode) -> tuple[list[HpsgNode], bool, int]:
        label, marked = _split_prefix(node.label)
        if node.is_preterminal:
            src = tree.tokens[node.start - 1]
            tokens.append(Token(index=node.start, form=src.form, pos=label))
            pret = HpsgNode(label=label, head=node.start,
                            start=node.start, end=node.end)
            return [pret], marked, node.start
        parts = [dec(ch) for ch in node.children]
        if len(parts) == 1:
            # an only child is the head daughter whether or not it is marked
            head = parts[0][2]
        else:
            head = None
            for nodes_, marked_, head_ in parts:
                if marked_:
                    head = head_
            if head is None:
                flags.append(
                    f"span ({node.start},{node.end}): no H-marked child, "
                    f"defaulting to leftmost head"
                )
                head = parts[0][2]
        kids: list[HpsgNode] = []
        for nodes_, _, _ in parts:
            kids.extend(nodes_)
        if label == EMPTY:
            return kids, marked, head
        built = expand_chain(label, kids, head, node.start, node.end)
        return [built], marked, head

    pieces, _, _ = dec(tree.root)
    if len(pieces) != 1:
        raise StructureError(
            "division root is an empty category over multiple children"
        )
    return HpsgTree(tokens=tokens, root=pieces[0]), flags
