"""Treebank readers and writers.

Three formats are supported:

* bracketed constituent trees, one or more per file, PTB conventions:
  ``(S (NP (DT the) (NN cat)) (VP (VBZ sleeps)) (. .))``. Function tags and
  coindices after the first ``-`` or ``=`` in an internal label are stripped
  (``NP-SBJ-1`` reads as ``NP``); labels that themselves start with ``-`` are
  kept verbatim so ``-NONE-`` stays recognizable. ``-NONE-`` subtrees are
  removed and the remaining tokens reindexed; a tree left empty is skipped
  with a warning. A top-level wrapper with an empty label around a single
  tree is unwrapped. Trees may span several lines; parens inside the stream
  are balanced per tree.

* CoNLL dependency format: one token per line, tab (or space-run) separated
  columns ID FORM LEMMA CPOS POS FEATS HEAD DEPREL [...], blank line between
  sentences, ``_`` for absent values. POS is taken from column 5 and falls
  back to column 4. CoNLL-U extras are skipped with one warning per file:
  ``#`` comment lines, multiword-token rows (ID ``1-2``) and empty-node rows
  (ID ``8.1``).

* head-annotated trees, one per line, where every bracket label carries the
  node's head token index as a ``[h]`` suffix:
  ``(S[2] (NP[1] (NN[1] rust)) (VBZ[2] grows))``.

PTB escape tokens (``-LRB-`` and friends) pass through verbatim in both
forms and POS tags.
"""

from __future__ import annotations

import logging
import re
import sys
from typing import IO, Iterable, Iterator, Optional

from .errors import AlignmentError, TreebankError
from .trees import (
    ConstituentTree,
    ConstNode,
    DependencyTree,
    HpsgNode,
    HpsgTree,
    Token,
)

log = logging.getLogger(__name__)

_HEAD_LABEL = re.compile(r"^(.*)\[(\d+)\]$", re.DOTALL)

NONE_LABEL = "-NONE-"


def strip_function_tags(label: str) -> str:
    """Drop function tags/coindices from an internal node label.

    Labels starting with ``-`` (e.g. ``-NONE-``) are kept whole.
    """
    if not label or label.startswith("-"):
        return label
    for sep in "-=":
        cut = label.find(sep)
        if cut > 0:
            label = label[:cut]
    return label


# ---------------------------------------------------------------------------
# s-expression scanning


def _tokenize_sexpr(text: str, lineno_base: int) -> Iterator[tuple[str, str, int]]:
    """Yield (kind, value, lineno) with kind in {'(', ')', 'atom'}."""
    line = lineno_base
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch.isspace():
            i += 1
        elif ch in "()":
            yield ch, ch, line
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            yield "atom", text[i:j], line
            i = j


def _parse_sexprs(text: str, lineno_base: int = 1):
    """Parse every top-level s-expression in text into nested lists.

    Returns a list of (tree, lineno) where tree is either an atom string or a
    list whose first element is the (possibly empty) label atom.
    """
    out = []
    stack: list[list] = []
    open_lines: list[int] = []
    expecting_label = False
    for kind, value, line in _tokenize_sexpr(text, lineno_base):
        if kind == "(":
            node: list = [""]
            if stack:
                stack[-1].append(node)
            stack.append(node)
            open_lines.append(line)
            expecting_label = True
        elif kind == ")":
            if not stack:
                raise TreebankError("unbalanced ')'", line)
            node = stack.pop()
            start_line = open_lines.pop()
            if not stack:
                out.append((node, start_line))
            expecting_label = False
        else:
            if not stack:
                raise TreebankError(f"stray token {value!r} outside brackets", line)
            if expecting_label:
                stack[-1][0] = value
                expecting_label = False
            else:
                stack[-1].append(value)
    if stack:
        raise TreebankError("unbalanced '(' at end of input", open_lines[0])
    return out


def _sexpr_to_const(sx, line: int, tokens: list[Token], strip_tags: bool) -> Optional[ConstNode]:
    """Build a ConstNode, appending tokens in order. Returns None for -NONE-."""
    label = sx[0]
    rest = sx[1:]
    if not rest:
        raise TreebankError(f"empty bracket under label {label!r}", line)
    if len(rest) == 1 and isinstance(rest[0], str):
        # preterminal: (POS form)
        if label == NONE_LABEL:
            return None
        index = len(tokens) + 1
        tokens.append(Token(index=index, form=rest[0], pos=label))
        return ConstNode(label=label, start=index, end=index)
    children = []
    for part in rest:
        if isinstance(part, str):
            raise TreebankError(
                f"mixed token/bracket children under {label!r}", line
            )
        child = _sexpr_to_const(part, line, tokens, strip_tags)
        if child is not None:
            children.append(child)
    if not children:
        return None  # all children were empty elements
    if strip_tags:
        label = strip_function_tags(label)
    return ConstNode(
        label=label,
        children=children,
        start=children[0].start,
        end=children[-1].end,
    )


def read_bracketed(stream: IO[str] | str, strip_tags: bool = True) -> list[ConstituentTree]:
    """Read every bracketed tree from a stream or string."""
    text = stream if isinstance(stream, str) else stream.read()
    trees = []
    for ordinal, (sx, line) in enumerate(_parse_sexprs(text), start=1):
        if isinstance(sx, str):
            raise TreebankError(f"expected a tree, found atom {sx!r}", line)
        # unwrap an anonymous top-level pair: ( (S ...) )
        while sx[0] == "" and len(sx) == 2 and isinstance(sx[1], list):
            sx = sx[1]
        tokens: list[Token] = []
        try:
            root = _sexpr_to_const(sx, line, tokens, strip_tags)
        except RecursionError:
            raise TreebankError(
                f"tree nested deeper than the reader's recursion limit "
                f"({sys.getrecursionlimit()})", line) from None
        if root is None or not tokens:
            log.warning("skipping tree %d (line %d): empty after trace removal",
                        ordinal, line)
            continue
        tree = ConstituentTree(tokens=tokens, root=root)
        tree.validate()
        trees.append(tree)
    return trees


def _write_const_node(node: ConstNode, tokens: list[Token], out: list[str]) -> None:
    if node.is_preterminal:
        out.append(f"({node.label} {tokens[node.start - 1].form})")
        return
    out.append(f"({node.label}")
    for child in node.children:
        out.append(" ")
        _write_const_node(child, tokens, out)
    out.append(")")


def format_bracketed(tree: ConstituentTree) -> str:
    parts: list[str] = []
    _write_const_node(tree.root, tree.tokens, parts)
    return "".join(parts)


def write_bracketed(trees: Iterable[ConstituentTree], stream: IO[str]) -> None:
    for tree in trees:
        stream.write(format_bracketed(tree))
        stream.write("\n")


# ---------------------------------------------------------------------------
# CoNLL


_CONLLU_EXTRA_ID = re.compile(r"\d+[-.]\d+")


def read_conll(stream: IO[str] | str) -> list[DependencyTree]:
    text = stream if isinstance(stream, str) else stream.read()
    sentences: list[DependencyTree] = []
    rows: list[tuple[int, list[str]]] = []

    def flush():
        if not rows:
            return
        tokens = [None]  # 1-based
        heads = [0]
        labels: list[Optional[str]] = [None]
        for expected, (line_no, cols) in enumerate(rows, start=1):
            if len(cols) < 8:
                raise TreebankError(
                    f"expected at least 8 columns, found {len(cols)}", line_no
                )
            try:
                idx = int(cols[0])
            except ValueError:
                raise TreebankError(f"non-integer token id {cols[0]!r}", line_no)
            if idx != expected:
                raise TreebankError(
                    f"token ids must be 1..n in order, found {idx}", line_no
                )
            form = cols[1]
            if not form or form == "_":
                raise TreebankError("missing FORM", line_no)
            pos = cols[4] if cols[4] != "_" else cols[3]
            if pos == "_":
                raise TreebankError("missing POS (columns 4 and 5 empty)", line_no)
            try:
                head = int(cols[6])
            except ValueError:
                raise TreebankError(f"non-integer head {cols[6]!r}", line_no)
            label = cols[7] if cols[7] != "_" else None
            tokens.append(Token(index=expected, form=form, pos=pos))
            heads.append(head)
            labels.append(label)
        first_line = rows[0][0]
        if all(lab is None for lab in labels[1:]):
            labels = None
        tree = DependencyTree(tokens=tokens[1:], heads=heads, labels=labels)
        try:
            tree.validate()
        except Exception as exc:
            raise TreebankError(str(exc), first_line)
        sentences.append(tree)
        rows.clear()

    skipped = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        cols = line.split()
        if line.startswith("#") or _CONLLU_EXTRA_ID.fullmatch(cols[0]):
            skipped += 1
            continue
        rows.append((line_no, cols))
    flush()
    if skipped:
        log.warning("skipped %d CoNLL-U comment, multiword and empty-node "
                    "lines", skipped)
    return sentences


def format_conll(tree: DependencyTree) -> str:
    lines = []
    for tok in tree.tokens:
        i = tok.index
        label = "_"
        if tree.labels is not None and tree.labels[i] is not None:
            label = tree.labels[i]
        lines.append(
            "\t".join(
                [str(i), tok.form, "_", tok.pos, tok.pos, "_",
                 str(tree.heads[i]), label, "_", "_"]
            )
        )
    return "\n".join(lines)


def write_conll(trees: Iterable[DependencyTree], stream: IO[str]) -> None:
    for tree in trees:
        stream.write(format_conll(tree))
        stream.write("\n\n")


# ---------------------------------------------------------------------------
# head-annotated trees


def _sexpr_to_hpsg(sx, line: int, tokens: list[Token]) -> HpsgNode:
    m = _HEAD_LABEL.match(sx[0])
    if not m:
        raise TreebankError(f"label {sx[0]!r} lacks a [head] suffix", line)
    label, head = m.group(1), int(m.group(2))
    rest = sx[1:]
    if not rest:
        raise TreebankError(f"empty bracket under label {label!r}", line)
    if len(rest) == 1 and isinstance(rest[0], str):
        index = len(tokens) + 1
        tokens.append(Token(index=index, form=rest[0], pos=label))
        if head != index:
            raise TreebankError(
                f"preterminal at position {index} claims head {head}", line
            )
        return HpsgNode(label=label, head=head, start=index, end=index)
    children = []
    for part in rest:
        if isinstance(part, str):
            raise TreebankError(f"mixed token/bracket children under {label!r}", line)
        children.append(_sexpr_to_hpsg(part, line, tokens))
    node = HpsgNode(
        label=label,
        head=head,
        children=children,
        start=children[0].start,
        end=children[-1].end,
    )
    if not node.start <= head <= node.end:
        raise TreebankError(
            f"head {head} outside span ({node.start},{node.end}) at {label!r}", line
        )
    return node


def read_hpsg(stream: IO[str] | str) -> list[HpsgTree]:
    text = stream if isinstance(stream, str) else stream.read()
    trees = []
    for sx, line in _parse_sexprs(text):
        if isinstance(sx, str):
            raise TreebankError(f"expected a tree, found atom {sx!r}", line)
        tokens: list[Token] = []
        root = _sexpr_to_hpsg(sx, line, tokens)
        tree = HpsgTree(tokens=tokens, root=root)
        tree.validate_spans()
        trees.append(tree)
    return trees


def _write_hpsg_node(node: HpsgNode, tokens: list[Token], out: list[str]) -> None:
    if node.is_preterminal:
        out.append(f"({node.label}[{node.head}] {tokens[node.start - 1].form})")
        return
    out.append(f"({node.label}[{node.head}]")
    for child in node.children:
        out.append(" ")
        _write_hpsg_node(child, tokens, out)
    out.append(")")


def format_hpsg(tree: HpsgTree) -> str:
    parts: list[str] = []
    _write_hpsg_node(tree.root, tree.tokens, parts)
    return "".join(parts)


def write_hpsg(trees: Iterable[HpsgTree], stream: IO[str]) -> None:
    for tree in trees:
        stream.write(format_hpsg(tree))
        stream.write("\n")


# ---------------------------------------------------------------------------
# pairing


def pair_treebanks(
    constituents: list[ConstituentTree], dependencies: list[DependencyTree]
) -> list[tuple[ConstituentTree, DependencyTree]]:
    """Zip the two treebanks, failing loudly on any misalignment."""
    if len(constituents) != len(dependencies):
        raise AlignmentError(
            f"sentence counts differ: {len(constituents)} bracketed trees vs "
            f"{len(dependencies)} dependency sentences"
        )
    pairs = []
    for ordinal, (ct, dt) in enumerate(zip(constituents, dependencies), start=1):
        if len(ct) != len(dt):
            raise AlignmentError(
                f"sentence {ordinal}: {len(ct)} tokens in brackets vs {len(dt)} in conll"
            )
        for a, b in zip(ct.tokens, dt.tokens):
            if a.form != b.form:
                raise AlignmentError(
                    f"sentence {ordinal}, token {a.index}: "
                    f"form {a.form!r} vs {b.form!r}"
                )
        pairs.append((ct, dt))
    return pairs
