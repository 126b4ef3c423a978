"""Fusing constituent and dependency trees into head-annotated trees.

The head of a phrase is the token inside its span whose dependency head lies
outside the span (or is the sentence root). Phrases where that set has more
than one element cannot carry a single head: such a phrase is divided into
maximal left-to-right runs of children whose combined span has a singleton
external-head set, each run of two or more children is wrapped in a node with
the reserved split category ``#``, and the runs replace the phrase in its
parent. Phrases are fused bottom-up, children before parents, so a dissolved
child's runs take part in the grouping of its parent.

After division every surviving node is single-headed whenever the dependency
tree is projective and decomposable under the constituent structure; whatever
cannot be represented shows up in the audit report as token-level head errors
(the projected head differs from the annotated one). A defensive path keeps
irreducible nodes with their leftmost external head and flags the span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import StructureError
from .trees import (
    SPLIT,
    ConstituentTree,
    ConstNode,
    DependencyTree,
    HpsgNode,
    HpsgTree,
    check_spans,
    children_of,
    fold,
    iter_nodes,
    make_const_node,
    make_node,
)


@dataclass
class HeadAuditReport:
    """Outcome of fusing or validating one sentence."""

    ordinal: int = 0
    multihead_before: int = 0
    residuals: int = 0
    offending_spans: list[tuple[int, int]] = field(default_factory=list)
    head_errors: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.multihead_before == 0
            and self.residuals == 0
            and not self.head_errors
        )

    def summary(self) -> str:
        bits = [
            f"sent {self.ordinal}",
            f"multihead_before={self.multihead_before}",
            f"residuals={self.residuals}",
            f"head_errors={len(self.head_errors)}",
        ]
        if self.offending_spans:
            spans = ",".join(f"({i},{j})" for i, j in self.offending_spans)
            bits.append(f"offending={spans}")
        if self.head_errors:
            bits.append("tokens=" + ",".join(map(str, self.head_errors)))
        return " ".join(bits)


def external_heads(heads: list[int], start: int, end: int) -> list[int]:
    """Tokens in [start, end] whose dependency head lies outside the span."""
    return [
        t for t in range(start, end + 1)
        if heads[t] == 0 or heads[t] < start or heads[t] > end
    ]


def fuse(
    c: ConstituentTree, d: DependencyTree, ordinal: int = 0
) -> tuple[HpsgTree, HeadAuditReport]:
    """Fuse a constituent tree with a dependency tree over the same tokens."""
    if len(c) != len(d):
        raise StructureError("constituent and dependency trees differ in length")
    heads = d.heads
    report = HeadAuditReport(ordinal=ordinal)

    def group_runs(kids: list[HpsgNode]) -> list[HpsgNode]:
        """Partition kids into maximal runs with singleton external-head sets.

        Maximal munch: each run is the longest child sequence from its start
        whose combined span has exactly one external head. A prefix of a good
        run need not be good itself (the head may sit at the far end), so
        every candidate end is probed rather than growing child by child.
        """
        groups: list[HpsgNode] = []
        s = 0
        while s < len(kids):
            start = kids[s].start
            chosen = -1
            head = 0
            for e in range(len(kids) - 1, s - 1, -1):
                ext = external_heads(heads, start, kids[e].end)
                if len(ext) == 1:
                    chosen = e
                    head = ext[0]
                    break
            if chosen < 0:
                # irreducible child: keep its leftmost external head, flag it
                ext = external_heads(heads, start, kids[s].end)
                head = ext[0] if ext else kids[s].head
                report.residuals += 1
                report.offending_spans.append((kids[s].start, kids[s].end))
                chosen = s
            run = kids[s:chosen + 1]
            if len(run) == 1:
                node = run[0]
                node.head = head
                groups.append(node)
            else:
                groups.append(make_node(SPLIT, run, head))
            s = chosen + 1
        return groups

    def build(node: ConstNode, parts: list[list[HpsgNode]]) -> list[HpsgNode]:
        if node.is_preterminal:
            return [HpsgNode(label=node.label, head=node.start,
                             start=node.start, end=node.end)]
        kids = [kid for part in parts for kid in part]
        ext = external_heads(heads, node.start, node.end)
        if len(ext) == 1:
            return [make_node(node.label, kids, ext[0])]
        # multi-headed phrase: divide into single-headed runs and dissolve
        report.multihead_before += 1
        return group_runs(kids)

    pieces = fold(c.root, children_of, build)
    if len(pieces) != 1:
        # can only happen on a multi-headed root span, which a valid
        # dependency tree rules out (exactly one token attaches to 0)
        raise StructureError("sentence span dissolved; dependency tree invalid")
    tree = HpsgTree(
        tokens=list(c.tokens),
        root=pieces[0],
        dep_heads=list(heads),
        dep_labels=list(d.labels) if d.labels is not None else None,
    )
    projected = project_dependencies(tree)
    report.head_errors = [
        t for t in range(1, len(c) + 1) if projected.heads[t] != heads[t]
    ]
    return tree, report


def validate(tree: HpsgTree, ordinal: int = 0) -> HeadAuditReport:
    """Re-derive head sets bottom-up and report head-principle violations.

    A node breaking the head principle (a preterminal heads its position, a
    phrase shares its head with one child) is reported. When the tree
    carries its fused dependency annotation, external-head sets are
    recomputed against it and any span whose set is not exactly {assigned
    head} is reported, along with token-level projection mismatches.
    """
    report = HeadAuditReport(ordinal=ordinal)
    check_spans(tree.root, len(tree))
    for nd in tree.iter_nodes():
        if not nd.keeps_head_principle():
            report.residuals += 1
            report.offending_spans.append(nd.span())
    if tree.dep_heads is not None:
        heads = tree.dep_heads
        for nd in tree.iter_nodes():
            ext = external_heads(heads, nd.start, nd.end)
            if len(ext) > 1:
                report.multihead_before += 1
            if ext != [nd.head]:
                span = nd.span()
                if span not in report.offending_spans:
                    report.residuals += 1
                    report.offending_spans.append(span)
        projected = project_dependencies(tree)
        report.head_errors = [
            t for t in range(1, len(tree) + 1)
            if projected.heads[t] != heads[t]
        ]
    return report


def project_constituents(tree: HpsgTree) -> ConstituentTree:
    """Drop head annotations; split nodes (``#``) dissolve into their parent."""

    def conv(node: HpsgNode, parts: list[list[ConstNode]]) -> list[ConstNode]:
        if node.is_preterminal:
            return [ConstNode(label=node.label, start=node.start, end=node.end)]
        kids = [kid for part in parts for kid in part]
        if node.label == SPLIT:
            return kids
        return [make_const_node(node.label, kids)]

    pieces = fold(tree.root, children_of, conv)
    if len(pieces) != 1:
        raise StructureError("root is a split node; cannot project")
    return ConstituentTree(tokens=list(tree.tokens), root=pieces[0])


def project_dependencies(tree: HpsgTree) -> DependencyTree:
    """Each token attaches to the head of the smallest enclosing node whose
    head differs from it; the root node's head attaches to 0."""
    n = len(tree)
    heads = [0] * (n + 1)

    for node in iter_nodes(tree.root):
        for child in node.children:
            if child.head != node.head:
                heads[child.head] = node.head
    heads[tree.root.head] = 0
    labels: Optional[list[Optional[str]]] = (
        list(tree.dep_labels) if tree.dep_labels is not None else None
    )
    return DependencyTree(tokens=list(tree.tokens), heads=heads, labels=labels)
