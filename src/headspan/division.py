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

Phrase labels that the encoding would rewrite are refused: one holding
``+`` or spelled ``<E>`` by :func:`binarize_head_outward`, one starting
with ``H_`` by :func:`to_division`.

One children-first builder inverts both forms from their 2n - 1 labeled
spans, as the decoders return them: ``from_parts`` the bare form, whose
heads come from the arcs, and ``from_division`` the marked one. On
labelings a decoder might emit that violate the prefix discipline (no
``H_`` child at all) ``from_division`` keeps the leftmost child's head and
records a flag instead of failing.
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
        for label in labels:
            if CHAIN_JOINER in label or label == EMPTY:
                raise StructureError(
                    f"phrase label {label!r}: the encoding reserves "
                    f"{CHAIN_JOINER!r} and {EMPTY}")
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

    for node in tree.internal_nodes():
        if node.label.startswith(HEAD_PREFIX):
            raise StructureError(
                f"phrase label {node.label!r}: the division encoding "
                f"reserves the prefix {HEAD_PREFIX}")
    encoded = binarize_head_outward(tree)
    return ConstituentTree(tokens=list(tree.tokens),
                           root=fold(encoded, children_of, conv))


def from_parts(parts: Parts, tokens: Sequence[Token]) -> HpsgTree:
    """The head-annotated tree of a binary derivation over ``tokens``:
    its 2n - 1 bare labeled spans in any order, its arcs and its root.

    A binary span takes the head of whichever child the other child
    depends on.
    """
    spans, arcs, _ = parts
    return _build(spans, tokens, dict(arcs))[0]


def from_division(spans: Sequence[tuple[int, int, str]],
                  tokens: Sequence[Token]) -> tuple[HpsgTree, list[str]]:
    """The head-annotated tree of a division encoding over ``tokens``: its
    2n - 1 ``H_``-marked labeled spans in any order.

    A binary span takes the head of its right child when that child is
    marked, else of its left. Returns the tree and a flag for each span
    where neither child is marked, which keeps the leftmost child's head.
    """
    return _build(spans, tokens, None)


def _build(spans: Sequence[tuple[int, int, str]], tokens: Sequence[Token],
           head_of: dict[int, int] | None) -> tuple[HpsgTree, list[str]]:
    """The tree of a binary bracketing and its head-recovery flags, with
    heads from the arcs ``head_of`` or, when it is None, from the ``H_``
    marks. ``<E>`` spans dissolve into their children and ``+`` atoms
    unfold into unary chains, undoing :func:`binarize_head_outward`.
    """
    flags: list[str] = []
    # (nodes, head, marked) of each finished span, taken children first
    stack: list[tuple[list[HpsgNode], int, bool]] = []
    for i, j, label in sorted(spans, key=lambda s: (s[1], -s[0])):
        marked = head_of is None and label.startswith(HEAD_PREFIX)
        if marked:
            label = label[len(HEAD_PREFIX):]
        if i == j:
            head, kids = i, [preterminal(i, tokens[i - 1].pos)]
        else:
            (left, hl, ml), (right, hr, mr) = stack.pop(-2), stack.pop()
            if head_of is not None:
                head = hr if head_of.get(hl) == hr else hl
            else:
                head = hr if mr else hl
                if not (ml or mr):
                    flags.append(f"span ({i},{j}): no H-marked child, "
                                 f"defaulting to leftmost head")
            kids = left + right
        stack.append((kids if label == EMPTY else
                      [expand_chain(label, kids, head, i, j)], head, marked))
    pieces = stack[0][0]
    if len(pieces) != 1:
        raise StructureError(
            "division root is an empty category over multiple children")
    return HpsgTree(tokens=list(tokens), root=pieces[0]), flags


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
