"""Tree data structures shared across the package.

Spans are 1-based inclusive intervals over the token sequence: a sentence of
n tokens is covered by [1, n]. Preterminals are childless nodes spanning a
single position whose label is the POS tag; the surface form lives in the
owning tree's token list. Head indices are token positions, with 0 reserved
for the root attachment in dependency trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterator, Optional

from .errors import StructureError

# Reserved category spellings. The empty category marks spans that carry no
# phrasal label (binarization intermediates and bare preterminal positions);
# the split category wraps sibling runs created when a multi-headed phrase is
# divided. Both use their on-disk ASCII spelling in memory as well.
EMPTY = "<E>"
SPLIT = "#"
HEAD_PREFIX = "H_"


@dataclass(frozen=True)
class Token:
    """One input token: 1-based position, surface form, POS tag."""

    index: int
    form: str
    pos: str


class _Node:
    """What constituent and head-annotated nodes share; ``==`` walks
    :func:`iter_nodes` and ``repr`` shows one node, so neither recurses."""

    _shown: tuple[str, ...] = ()

    def _shallow(self) -> tuple:
        return (*(getattr(self, f) for f in self._shown), len(self.children))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # equal child counts at every pre-order position fix the shape,
        # so the shorter walk ends only where both do
        return all(a._shallow() == b._shallow()
                   for a, b in zip(iter_nodes(self), iter_nodes(other)))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__name__}({shown})"

    @property
    def is_preterminal(self) -> bool:
        return not self.children

    def iter_nodes(self) -> Iterator:
        return iter_nodes(self)

    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


class _Tree:
    """What constituent and head-annotated trees share; equal trees have
    equal tokens and nodes, whatever else they carry."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.tokens == other.tokens and self.root == other.root

    def __len__(self) -> int:
        return len(self.tokens)

    def iter_nodes(self) -> Iterator:
        return iter_nodes(self.root)

    def internal_nodes(self) -> Iterator:
        return (nd for nd in self.iter_nodes() if not nd.is_preterminal)


@dataclass(eq=False, repr=False)
class ConstNode(_Node):
    """Node of a plain constituent tree (no head annotation)."""

    label: str
    children: list["ConstNode"] = field(default_factory=list)
    start: int = 0
    end: int = 0

    _shown = ("label", "start", "end")


@dataclass(eq=False)
class ConstituentTree(_Tree):
    tokens: list[Token]
    root: ConstNode

    def validate(self) -> None:
        """Check span bookkeeping: contiguous leaves, children partition parents."""
        check_spans(self.root, len(self.tokens))


@dataclass
class DependencyTree:
    """Single-rooted dependency tree; heads[i] is the head of token i, 0 = root.

    heads is 1-based with an unused slot at index 0. labels mirrors heads and
    may hold None where no relation label is known.
    """

    tokens: list[Token]
    heads: list[int]
    labels: Optional[list[Optional[str]]] = None

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def root(self) -> int:
        return self.heads.index(0, 1)

    def validate(self) -> None:
        n = len(self.tokens)
        if len(self.heads) != n + 1:
            raise StructureError("heads must have length n+1")
        if self.labels is not None and len(self.labels) != n + 1:
            raise StructureError("labels must have length n+1")
        roots = [i for i in range(1, n + 1) if self.heads[i] == 0]
        if len(roots) != 1:
            raise StructureError(f"expected exactly one root, found {len(roots)}")
        for i in range(1, n + 1):
            h = self.heads[i]
            if not 0 <= h <= n or h == i:
                raise StructureError(f"token {i} has invalid head {h}")
        # cycle check: walk i marks the tokens it meets with i and stops at
        # the root or at an earlier walk's mark, which reaches the root, so
        # each head is read once; meeting its own mark is a cycle
        walk = [0] * (n + 1)
        for i in range(1, n + 1):
            j = i
            while j and not walk[j]:
                walk[j] = i
                j = self.heads[j]
            if j and walk[j] == i:
                raise StructureError(f"cycle through token {i}")


@dataclass(eq=False, repr=False)
class HpsgNode(_Node):
    """Phrase node carrying both a category and a head token index.

    Every internal node's head equals the head of exactly one child (the head
    daughter); a preterminal's head is its own position.
    """

    label: str
    head: int
    children: list["HpsgNode"] = field(default_factory=list)
    start: int = 0
    end: int = 0

    _shown = ("label", "head", "start", "end")

    def keeps_head_principle(self) -> bool:
        """Whether this node keeps the invariant above."""
        return ([ch.head for ch in self.children]
                or [self.start]).count(self.head) == 1


@dataclass(eq=False)
class HpsgTree(_Tree):
    """Head-annotated constituent tree.

    dep_heads/dep_labels optionally carry the token-level dependency
    annotations the tree was fused from; they ride along for auditing and
    output fidelity and are excluded from equality (decoder outputs have
    none).
    """

    tokens: list[Token]
    root: HpsgNode
    dep_heads: Optional[list[int]] = None
    dep_labels: Optional[list[Optional[str]]] = None

    def validate_spans(self) -> None:
        check_spans(self.root, len(self.tokens), heads=True)


def preterminal(index: int, pos: str) -> HpsgNode:
    return HpsgNode(label=pos, head=index, start=index, end=index)


def make_node(label: str, children: list[HpsgNode], head: int) -> HpsgNode:
    if not children:
        raise StructureError("internal node needs children")
    return HpsgNode(label=label, head=head, children=children,
                    start=children[0].start, end=children[-1].end)


def make_const_node(label: str, children: list[ConstNode]) -> ConstNode:
    if not children:
        raise StructureError("internal node needs children")
    return ConstNode(label=label, children=children,
                     start=children[0].start, end=children[-1].end)


children_of = attrgetter("children")


def iter_nodes(root) -> Iterator:
    """Every node under ``root`` in pre-order, children left to right."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack += node.children[::-1]


def fold(root, children: Callable[[Any], list],
         leave: Callable[[Any, list], Any]) -> Any:
    """Bottom-up fold without recursion: ``leave(node, child_results)``.

    ``leave`` runs children first and left to right, as a recursive
    post-order walk would: the order is one right-first pre-order pass,
    read backwards. ``children(node)`` is asked once per node in that pass.
    """
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        kids = children(node)
        order.append((node, len(kids)))
        stack += kids
    results: list = []
    for node, k in reversed(order):
        cut = len(results) - k
        value = leave(node, results[cut:])
        del results[cut:]
        results.append(value)
    return results[0]


def check_spans(root, n: int, heads: bool = False) -> None:
    """Preterminals cover 1..n in order and children partition each span.

    With ``heads`` every node must also keep the head principle.
    """
    leaves = [nd.start for nd in iter_nodes(root) if nd.is_preterminal]
    if leaves != list(range(1, n + 1)):
        raise StructureError("preterminal spans must cover 1..n in order")
    for nd in iter_nodes(root):
        if heads and not nd.keeps_head_principle():
            what = ("its position" if nd.is_preterminal
                    else "the head of exactly one child")
            raise StructureError(
                f"head {nd.head} of {nd.label}{nd.span()} is not {what}")
        if nd.is_preterminal:
            if nd.start != nd.end:
                raise StructureError(f"preterminal with span {nd.span()}")
            continue
        pos = nd.start
        for child in nd.children:
            if child.start != pos:
                raise StructureError(
                    f"children of {nd.label}{nd.span()} do not partition "
                    f"the span")
            pos = child.end + 1
        if pos != nd.end + 1:
            raise StructureError(
                f"children of {nd.label}{nd.span()} do not cover the span")
