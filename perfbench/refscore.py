"""Reference scorer and output checks, written apart from ``headspan``.

It reads the three file formats with its own small readers and computes
labelled bracket F1 and UAS under the conventions ``headspan eval`` states:
punctuation is deleted by gold tag with span indices remapped, preterminals
are not brackets, the empty and split categories and the ``H_`` prefix are
not labels, brackets match as multisets and scores are micro-averaged. It
also checks the structural properties every parse must have.

Trees are tuples: ``(label, [children])`` for a phrase, ``(tag, form)`` for
a preterminal; head-annotated trees carry ``(label, head, [children])`` and
``(tag, head, form)``.
"""

from __future__ import annotations

from collections import Counter

PUNCT = frozenset({"``", "''", ":", ",", "."})
NOT_LABELS = ("<E>", "#", "")


def _sexprs(text: str) -> list:
    """Top-level s-expressions of a bracketed file as nested lists."""
    out: list = []
    stack: list[list] = []
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            if not stack:
                raise ValueError(f"atom {tok!r} outside a tree")
            stack[-1].append(tok)
    if stack:
        raise ValueError("unbalanced brackets")
    return out


def _tree(sx: list):
    if len(sx) == 2 and isinstance(sx[1], str):
        return (sx[0], sx[1])
    return (sx[0], [_tree(ch) for ch in sx[1:]])


def read_brackets(text: str) -> list:
    return [_tree(sx) for sx in _sexprs(text)]


def _hpsg_tree(sx: list):
    label, _, head = sx[0].rpartition("[")
    head = int(head.rstrip("]"))
    if len(sx) == 2 and isinstance(sx[1], str):
        return (label, head, sx[1])
    return (label, head, [_hpsg_tree(ch) for ch in sx[1:]])


def read_hpsg(text: str) -> list:
    return [_hpsg_tree(sx) for sx in _sexprs(text)]


def read_conll(text: str) -> list[list[tuple[str, str, int]]]:
    """Sentences as lists of (form, tag, head); tag from column 5."""
    sents: list[list[tuple[str, str, int]]] = []
    rows: list[tuple[str, str, int]] = []
    for line in text.splitlines() + [""]:
        cols = line.split()
        if not cols:
            if rows:
                sents.append(rows)
                rows = []
            continue
        if int(cols[0]) != len(rows) + 1:
            raise ValueError(f"token id {cols[0]} out of order")
        rows.append((cols[1], cols[4], int(cols[6])))
    return sents


def leaves(tree) -> list[tuple[str, str]]:
    """(form, tag) of every token, in order, of a plain or head tree."""
    if isinstance(tree[-1], str):
        return [(tree[-1], tree[0])]
    return [leaf for ch in tree[-1] for leaf in leaves(ch)]


def _spans(tree, start: int, out: list) -> int:
    """Append (label, first, last) of every phrase; return the next index."""
    if isinstance(tree[1], str):
        return start + 1
    pos = start
    for ch in tree[1]:
        pos = _spans(ch, pos, out)
    out.append((tree[0], start, pos - 1))
    return pos


def bracket_counts(gold, pred, punct=PUNCT) -> tuple[int, int, int]:
    """(matched, gold, predicted) brackets of one sentence pair."""
    tags = [tag for _, tag in leaves(gold)]
    before = [0]                      # kept tokens before position i
    for tag in tags:
        before.append(before[-1] + (tag not in punct))

    def multiset(tree) -> Counter:
        spans: list = []
        _spans(tree, 0, spans)
        out: Counter = Counter()
        for label, a, b in spans:
            if label.startswith("H_"):
                label = label[2:]
            if label in NOT_LABELS or before[b + 1] == before[a]:
                continue
            out[(label, before[a], before[b + 1])] += 1
        return out

    g, p = multiset(gold), multiset(pred)
    return sum((g & p).values()), sum(g.values()), sum(p.values())


def bracket_f1(golds: list, preds: list, punct=PUNCT) -> float:
    if len(golds) != len(preds):
        raise ValueError("corpus sizes differ")
    match = gold = pred = 0
    for g, p in zip(golds, preds):
        m, a, b = bracket_counts(g, p, punct)
        match, gold, pred = match + m, gold + a, pred + b
    return 200.0 * match / (gold + pred) if gold + pred else 0.0


def uas(golds: list, preds: list, punct=PUNCT) -> float:
    if len(golds) != len(preds):
        raise ValueError("corpus sizes differ")
    right = total = 0
    for g, p in zip(golds, preds):
        for (_, tag, head), (_, _, phead) in zip(g, p, strict=True):
            if tag not in punct:
                total += 1
                right += head == phead
    return 100.0 * right / total if total else 0.0


def dependency_errors(heads: list[int]) -> list[str]:
    """Why ``heads`` (1-based values, 0 = root) is not a single-rooted,
    acyclic, projective tree; empty when it is one."""
    n = len(heads)
    roots = [d for d, h in enumerate(heads, start=1) if h == 0]
    if len(roots) != 1:
        return [f"{len(roots)} roots"]
    if any(not 0 <= h <= n or h == d for d, h in enumerate(heads, start=1)):
        return ["head out of range or self-loop"]
    for d in range(1, n + 1):
        seen = set()
        while d:
            if d in seen:
                return ["cycle"]
            seen.add(d)
            d = heads[d - 1]
    arcs = [tuple(sorted((d, h))) for d, h in enumerate(heads, start=1)]
    for a, b in arcs:
        for c, e in arcs:
            if a < c < b < e:
                return [f"arcs ({a},{b}) and ({c},{e}) cross"]
    return []


def project(tree) -> tuple[tuple, list[int]]:
    """Plain tree and head list of a head-annotated tree.

    The plain tree drops heads and dissolves split (``#``) phrases into
    their parent; each phrase's non-head children attach their head token
    to the phrase's head.
    """
    heads: dict[int, int] = {tree[1]: 0}

    def walk(node) -> list:
        label, head, rest = node
        if isinstance(rest, str):
            return [(label, rest)]
        kids = []
        for ch in rest:
            if ch[1] != head:
                heads[ch[1]] = head
            kids.extend(walk(ch))
        return kids if label == "#" else [(label, kids)]

    (plain,) = walk(tree)
    return plain, [heads[i] for i in range(1, len(heads) + 1)]
