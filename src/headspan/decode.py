"""Exact decoders over span, arc, and root score tables.

``decode_joint`` finds the best head-annotated tree under the interpolated
objective: ``lam`` times the sum of labeled span scores of the binarized
encoding plus ``1 - lam`` times the sum of arc scores and the root score.
Its chart is indexed by (start, end, head) and tracks two quantities per
cell: the best score with the span acting as a complete dependent (a real
category is then required on spans longer than one token) and as a
continuation of a phrase still collecting dependents (the empty category is
then allowed). Each merge of two adjacent cells realizes exactly one arc
between their heads, so the dependency part is accumulated merge by merge.
Time is O(n^5) and memory O(n^3).

``decode_division`` is a plain span-label CKY over the same tables (arcs
ignored), ``decode_eisner`` a first-order projective dependency decoder
(spans ignored), and ``brute_force`` an exhaustive re-derivation used to
certify the charts on small sentences. ``decode_table`` is the single route
from a table to a tree: it picks one of the three decoders, mixes in the
interpolation weight and applies the sentence-length cap, for the command
line and for trained models alike.

Ties are broken deterministically everywhere: smaller split point first,
then smaller sub-head, then smaller category id. A span's left dependent
reading wins over its right dependent reading at equal score because its
split points are all smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import division
from .errors import SizeGuardError
from .scoring import ScoreTable
from .trees import (
    ConstituentTree,
    ConstNode,
    DependencyTree,
    HpsgNode,
    HpsgTree,
    Token,
)


@dataclass
class DecodeConfig:
    """Interpolation weight between span scores (1.0) and arc scores (0.0)."""

    lam: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")


@dataclass
class JointChart:
    """Filled joint chart: scores and backpointers indexed [i, j, h].

    ``complete[i, j, h]`` is the best score of span (i, j) headed by ``h``
    when the span stands as a finished dependent; ``partial`` allows the
    empty category on top. ``side`` records whether the best split attached
    a left (0) or right (1) dependent, ``sub`` the dependent's head, and
    ``split`` the boundary between dependent and continuation.
    """

    complete: np.ndarray
    partial: np.ndarray
    side: np.ndarray
    sub: np.ndarray
    split: np.ndarray


def _placeholder_tokens(n: int) -> list[Token]:
    return [Token(index=i, form=f"w{i}", pos="X") for i in range(1, n + 1)]


def _real_label_argmax(span_m: np.ndarray) -> np.ndarray:
    """Best real (non-empty) category per span, (n+1, n+1) of label ids.

    Ordinary categories win ties against the reserved split category, so
    uninformative (all-equal) span scores never label a phrase ``#``.
    """
    v = span_m.shape[2]
    if v <= 2:
        return np.ones(span_m.shape[:2], dtype=np.int64)
    rest_best = span_m[:, :, 2:].max(axis=2)
    rest_arg = span_m[:, :, 2:].argmax(axis=2) + 2
    return np.where(span_m[:, :, 1] > rest_best, 1, rest_arg)


def _root_label(span_m: np.ndarray, n: int) -> tuple[int, float]:
    """Label id and span score for the whole-sentence span.

    The reserved split category never labels the sentence span: fusing a
    tree whose sentence span would need dividing is refused outright, so no
    valid tree carries one there and none may be decoded. Single-token
    sentences may stay bare preterminals (empty category); longer sentences
    need an ordinary category.
    """
    v = span_m.shape[2]
    if n == 1:
        empty = float(span_m[1, 1, 0])
        if v > 2 and float(span_m[1, 1, 2:].max()) > empty:
            lid = int(span_m[1, 1, 2:].argmax()) + 2
            return lid, float(span_m[1, 1, lid])
        return 0, empty
    if v <= 2:
        raise ValueError(
            "score table has no ordinary category to label the sentence span")
    lid = int(span_m[1, n, 2:].argmax()) + 2
    return lid, float(span_m[1, n, lid])


def fill_joint_chart(span_m: np.ndarray, arc_m: np.ndarray) -> JointChart:
    """Run the joint recurrences over premixed score arrays.

    ``span_m`` is (n+1, n+1, categories), ``arc_m`` (n+1, n+1) indexed
    [dependent, head]; both already carry their interpolation weights.
    """
    n = span_m.shape[0] - 1
    best_any = span_m.max(axis=2)
    best_real = span_m[:, :, 1:].max(axis=2)

    neg = -np.inf
    complete = np.full((n + 1, n + 1, n + 1), neg)
    partial = np.full((n + 1, n + 1, n + 1), neg)
    side = np.zeros((n + 1, n + 1, n + 1), dtype=np.int8)
    sub = np.zeros((n + 1, n + 1, n + 1), dtype=np.int32)
    split = np.zeros((n + 1, n + 1, n + 1), dtype=np.int32)

    idx = np.arange(1, n + 1)
    complete[idx, idx, idx] = best_any[idx, idx]
    partial[idx, idx, idx] = best_any[idx, idx]

    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            best = np.full(length, neg)
            bside = np.zeros(length, dtype=np.int8)
            bsub = np.zeros(length, dtype=np.int32)
            bsplit = np.zeros(length, dtype=np.int32)
            for k in range(i, j):
                # dependent on the left: spans [i,k] head r, [k+1,j] head h
                left_c = complete[i, k, i:k + 1]
                grid = left_c[:, None] + arc_m[i:k + 1, k + 1:j + 1]
                colmax = grid.max(axis=0)
                colarg = grid.argmax(axis=0)
                cand = colmax + partial[k + 1, j, k + 1:j + 1]
                seg = slice(k + 1 - i, j + 1 - i)
                cur = best[seg]
                mask = cand > cur
                if mask.any():
                    cur[mask] = cand[mask]
                    bside[seg][mask] = 0
                    bsub[seg][mask] = colarg[mask] + i
                    bsplit[seg][mask] = k
                # dependent on the right: spans [k+1,j] head r, [i,k] head h
                right_c = complete[k + 1, j, k + 1:j + 1]
                grid = right_c[:, None] + arc_m[k + 1:j + 1, i:k + 1]
                colmax = grid.max(axis=0)
                colarg = grid.argmax(axis=0)
                cand = colmax + partial[i, k, i:k + 1]
                seg = slice(0, k + 1 - i)
                cur = best[seg]
                mask = cand > cur
                if mask.any():
                    cur[mask] = cand[mask]
                    bside[seg][mask] = 1
                    bsub[seg][mask] = colarg[mask] + k + 1
                    bsplit[seg][mask] = k
            complete[i, j, i:j + 1] = best + best_real[i, j]
            partial[i, j, i:j + 1] = best + best_any[i, j]
            side[i, j, i:j + 1] = bside
            sub[i, j, i:j + 1] = bsub
            split[i, j, i:j + 1] = bsplit

    return JointChart(complete=complete, partial=partial, side=side,
                      sub=sub, split=split)


def _build_tree(side: np.ndarray, sub: np.ndarray, split: np.ndarray,
                span_m: np.ndarray, vocab, tokens: Sequence[Token],
                h_root: int, root_lid: int
                ) -> tuple[HpsgNode, list[tuple[int, int, str]]]:
    """Tree and labeled derivation spans read off chart backpointers.

    ``side``, ``sub`` and ``split`` are laid out as in :class:`JointChart`.
    """
    cat_any = span_m.argmax(axis=2)
    cat_real = _real_label_argmax(span_m)
    n = span_m.shape[0] - 1
    spans_out: list[tuple[int, int, str]] = []

    def build(i: int, j: int, h: int, is_complete: bool,
              lid: int | None = None) -> list[HpsgNode]:
        if i == j:
            children = [HpsgNode(label=tokens[i - 1].pos, head=i, start=i,
                                 end=i)]
            if lid is None:
                lid = int(cat_any[i, i])
        else:
            s = int(side[i, j, h])
            r = int(sub[i, j, h])
            k = int(split[i, j, h])
            if s == 0:
                children = build(i, k, r, True) + build(k + 1, j, h, False)
            else:
                children = build(i, k, h, False) + build(k + 1, j, r, True)
            if lid is None:
                lid = int((cat_real if is_complete else cat_any)[i, j])
        label = vocab.category(lid)
        spans_out.append((i, j, label))
        if lid == 0:
            return children
        return [division.expand_chain(label, children, h, i, j)]

    nodes = build(1, n, h_root, True, root_lid)
    return nodes[0], spans_out


def decode_joint_mixed(span_m: np.ndarray, arc_m: np.ndarray,
                       root_m: np.ndarray, vocab,
                       tokens: Sequence[Token] | None = None
                       ) -> tuple[HpsgTree, float, list[tuple[int, int, str]]]:
    """Joint decode over arrays that already carry interpolation weights.

    Besides the tree and its score, returns the labeled spans of the exact
    derivation the chart chose (2n - 1 of them, empty categories included).
    The derivation can binarize the tree's flat phrases differently from the
    canonical head-outward encoding at no loss, so re-encoding the returned
    tree may touch different chart cells; the span list is the record of
    what was actually scored.
    """
    n = span_m.shape[0] - 1
    if tokens is None:
        tokens = _placeholder_tokens(n)
    root_lid, root_span_best = _root_label(span_m, n)
    chart = fill_joint_chart(span_m, arc_m)
    if n == 1:
        totals = root_span_best + root_m[1:2]
    else:
        # the chart baked the unrestricted best real label into the top
        # cells; swap it for the best label the sentence span may take
        adjust = root_span_best - float(span_m[1, n, 1:].max())
        totals = chart.complete[1, n, 1:n + 1] + adjust + root_m[1:n + 1]
    h_root = int(np.argmax(totals)) + 1
    score = float(totals[h_root - 1])
    root, spans = _build_tree(chart.side, chart.sub, chart.split, span_m,
                              vocab, tokens, h_root, root_lid)
    tree = HpsgTree(tokens=list(tokens), root=root)
    return tree, score, spans


def decode_joint(table: ScoreTable, config: DecodeConfig | None = None,
                 tokens: Sequence[Token] | None = None
                 ) -> tuple[HpsgTree, float]:
    """Best head-annotated tree under the interpolated objective."""
    if config is None:
        config = DecodeConfig()
    lam = config.lam
    tree, score, _ = decode_joint_mixed(lam * table.span,
                                        (1.0 - lam) * table.arc,
                                        (1.0 - lam) * table.root,
                                        table.vocab, tokens)
    return tree, score


def decode_division(table: ScoreTable,
                    tokens: Sequence[Token] | None = None
                    ) -> tuple[ConstituentTree, float]:
    """Best labeled binary tree under raw span scores alone.

    Any span may take the empty category except the whole-sentence span of
    a multi-token sentence, which needs an ordinary category so the result
    decodes to a head-annotated tree. Every span is materialized as a node,
    empty categories included, so the returned score equals the tree's span
    score sum exactly.
    """
    n = table.n
    vocab = table.vocab
    if tokens is None:
        tokens = _placeholder_tokens(n)
    best_any = table.span.max(axis=2)
    cat_any = table.span.argmax(axis=2)
    inner = np.zeros((n + 1, n + 1))
    chart = np.full((n + 1, n + 1), -np.inf)
    split = np.zeros((n + 1, n + 1), dtype=np.int32)
    idx = np.arange(1, n + 1)
    chart[idx, idx] = best_any[idx, idx]
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            vals = chart[i, i:j] + chart[i + 1:j + 1, j]
            k = int(np.argmax(vals))
            inner[i, j] = float(vals[k])
            chart[i, j] = inner[i, j] + best_any[i, j]
            split[i, j] = k + i

    root_lid, root_span_best = _root_label(table.span, n)
    if n == 1:
        score = root_span_best
    else:
        score = float(inner[1, n]) + root_span_best

    def build(i: int, j: int, is_root: bool) -> ConstNode:
        lid = root_lid if is_root else int(cat_any[i, j])
        if i == j:
            kids = [ConstNode(label=tokens[i - 1].pos, start=i, end=i)]
        else:
            k = int(split[i, j])
            kids = [build(i, k, False), build(k + 1, j, False)]
        return ConstNode(label=vocab.category(lid), children=kids,
                         start=i, end=j)

    tree = ConstituentTree(tokens=list(tokens), root=build(1, n, True))
    return tree, score


def decode_eisner(table: ScoreTable,
                  tokens: Sequence[Token] | None = None
                  ) -> tuple[DependencyTree, float]:
    """Best projective dependency tree under raw arc and root scores.

    Span scores and the interpolation weight play no part here; this is the
    dependency-only route, used to cross-check the joint decoder when the
    interpolation weight removes the span term.
    """
    n = table.n
    if tokens is None:
        tokens = _placeholder_tokens(n)
    arc = table.arc
    c_left = np.zeros((n + 1, n + 1))
    c_right = np.zeros((n + 1, n + 1))
    i_left = np.zeros((n + 1, n + 1))
    i_right = np.zeros((n + 1, n + 1))
    bp_i = np.zeros((n + 1, n + 1), dtype=np.int32)
    bp_cl = np.zeros((n + 1, n + 1), dtype=np.int32)
    bp_cr = np.zeros((n + 1, n + 1), dtype=np.int32)

    for width in range(1, n):
        for i in range(1, n - width + 1):
            j = i + width
            base = c_right[i, i:j] + c_left[i + 1:j + 1, j]
            k = int(np.argmax(base))
            bp_i[i, j] = k + i
            i_right[i, j] = base[k] + arc[j, i]
            i_left[i, j] = base[k] + arc[i, j]
            vals = i_right[i, i + 1:j + 1] + c_right[i + 1:j + 1, j]
            k = int(np.argmax(vals))
            c_right[i, j] = vals[k]
            bp_cr[i, j] = k + i + 1
            vals = c_left[i, i:j] + i_left[i:j, j]
            k = int(np.argmax(vals))
            c_left[i, j] = vals[k]
            bp_cl[i, j] = k + i

    totals = np.array([c_left[1, h] + c_right[h, n] + table.root[h]
                       for h in range(1, n + 1)])
    h_root = int(np.argmax(totals)) + 1
    score = float(totals[h_root - 1])

    heads = [0] * (n + 1)

    def rec_cr(i: int, j: int) -> None:
        if i == j:
            return
        k = int(bp_cr[i, j])
        rec_ir(i, k)
        rec_cr(k, j)

    def rec_cl(i: int, j: int) -> None:
        if i == j:
            return
        k = int(bp_cl[i, j])
        rec_cl(i, k)
        rec_il(k, j)

    def rec_ir(i: int, j: int) -> None:
        heads[j] = i
        k = int(bp_i[i, j])
        rec_cr(i, k)
        rec_cl(k + 1, j)

    def rec_il(i: int, j: int) -> None:
        heads[i] = j
        k = int(bp_i[i, j])
        rec_cr(i, k)
        rec_cl(k + 1, j)

    heads[h_root] = 0
    rec_cl(1, h_root)
    rec_cr(h_root, n)
    tree = DependencyTree(tokens=list(tokens), heads=heads)
    return tree, score


ROUTES = ("joint", "division", "eisner")


def decode_table(table: ScoreTable, route: str, lam: float,
                 tokens: Sequence[Token] | None = None,
                 len_cap: int | None = None
                 ) -> tuple[HpsgTree | DependencyTree, list[str]]:
    """Decode one sentence's table along ``route``.

    ``joint`` weighs spans by ``lam`` and falls back to ``division`` above
    ``len_cap`` tokens; ``division`` recovers heads from the span decoder's
    labels; ``eisner`` returns a dependency tree. The notes record the
    fallback and any head-recovery flags.
    """
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")
    if route == "eisner":
        return decode_eisner(table, tokens)[0], []
    notes = []
    if route == "joint" and len_cap is not None and table.n > len_cap:
        notes.append(f"length {table.n} above cap {len_cap}, using the span "
                     f"decoder")
        route = "division"
    if route == "division":
        dtree, _ = decode_division(table, tokens)
        tree, flags = division.from_division(dtree)
        return tree, notes + flags
    return decode_joint(table, DecodeConfig(lam=lam), tokens)[0], notes


BRUTE_FORCE_CAP = 8


def _enumerate_derivations(n: int) -> list[tuple]:
    """All projective head-outward derivations of a length-n sentence.

    Each derivation is (head, arcs, spans, struct): arcs as (dependent,
    head) pairs, spans as (start, end, stands_complete) for every internal
    span strictly inside (1, n), and struct a nested tuple for rebuilding
    the tree. Sub-lists are cached per span; scoring never is.
    """
    memo: dict[tuple[int, int], list[tuple]] = {}

    def ders(i: int, j: int) -> list[tuple]:
        got = memo.get((i, j))
        if got is not None:
            return got
        if i == j:
            out = [(i, (), (), None)]
        else:
            out = []
            for k in range(i, j):
                for hl, al, sl, tl in ders(i, k):
                    for hr, ar, sr, tr in ders(k + 1, j):
                        arcs = al + ar
                        spans = sl + sr
                        left_c = ((i, k, True),) if i < k else ()
                        left_p = ((i, k, False),) if i < k else ()
                        right_c = ((k + 1, j, True),) if k + 1 < j else ()
                        right_p = ((k + 1, j, False),) if k + 1 < j else ()
                        out.append((hr, arcs + ((hl, hr),),
                                    spans + left_c + right_p,
                                    (k, 0, hl, hr, tl, tr)))
                        out.append((hl, arcs + ((hr, hl),),
                                    spans + left_p + right_c,
                                    (k, 1, hl, hr, tl, tr)))
        memo[(i, j)] = out
        return out

    return ders(1, n)


def brute_force(table: ScoreTable, config: DecodeConfig | None = None,
                tokens: Sequence[Token] | None = None
                ) -> tuple[HpsgTree, float]:
    """Exhaustive maximizer over every derivation, scored from scratch.

    Refuses sentences longer than ``BRUTE_FORCE_CAP`` tokens: the number of
    derivations grows too fast beyond that to be worth enumerating.
    """
    if config is None:
        config = DecodeConfig()
    n = table.n
    if n > BRUTE_FORCE_CAP:
        raise SizeGuardError(
            f"brute force handles up to {BRUTE_FORCE_CAP} tokens, got {n}")
    if tokens is None:
        tokens = _placeholder_tokens(n)
    lam = config.lam
    vocab = table.vocab
    span_m = lam * table.span
    arc_l = ((1.0 - lam) * table.arc).tolist()
    root_l = ((1.0 - lam) * table.root).tolist()
    any_l = span_m.max(axis=2).tolist()
    real_l = span_m[:, :, 1:].max(axis=2).tolist()

    root_lid, root_span_best = _root_label(span_m, n)
    if n == 1:
        base = root_span_best
        top = 0.0
    else:
        base = sum(any_l[i][i] for i in range(1, n + 1))
        top = root_span_best

    best_score = -np.inf
    best = None
    for head, arcs, spans, struct in _enumerate_derivations(n):
        score = base + top + root_l[head]
        for child, parent in arcs:
            score += arc_l[child][parent]
        for a, b, stands in spans:
            score += real_l[a][b] if stands else any_l[a][b]
        if score > best_score:
            best_score = score
            best = (head, struct)

    assert best is not None
    # the winning derivation as chart backpointers, for the shared builder
    head, struct = best
    side = np.zeros((n + 1, n + 1, n + 1), dtype=np.int8)
    sub = np.zeros((n + 1, n + 1, n + 1), dtype=np.int32)
    split = np.zeros((n + 1, n + 1, n + 1), dtype=np.int32)
    stack = [(1, n, head, struct)]
    while stack:
        i, j, h, node = stack.pop()
        if i == j:
            continue
        k, dep_side, hl, hr, tl, tr = node
        side[i, j, h] = dep_side
        sub[i, j, h] = hl if dep_side == 0 else hr
        split[i, j, h] = k
        stack += [(i, k, hl, tl), (k + 1, j, hr, tr)]
    root, _ = _build_tree(side, sub, split, span_m, vocab, tokens, head,
                          root_lid)
    return HpsgTree(tokens=list(tokens), root=root), float(best_score)


def max_projective_score(table: ScoreTable) -> float:
    """Exhaustive best dependency score, the slow twin of decode_eisner."""
    n = table.n
    if n > BRUTE_FORCE_CAP:
        raise SizeGuardError(
            f"brute force handles up to {BRUTE_FORCE_CAP} tokens, got {n}")
    arc_l = table.arc.tolist()
    root_l = table.root.tolist()
    best = -np.inf
    for head, arcs, _, _ in _enumerate_derivations(n):
        score = root_l[head]
        for child, parent in arcs:
            score += arc_l[child][parent]
        best = max(best, score)
    return float(best)
