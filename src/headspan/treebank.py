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

Bracketed trees are read in one pass, each node built as its bracket closes,
and written from an explicit stack, so any depth works; errors come in file
order and name the line a tree starts on.
"""

from __future__ import annotations

import logging
import re
from operator import attrgetter
from typing import IO, Any, Callable, Iterable, Iterator, Optional

from .errors import AlignmentError, StructureError, TreebankError
from .trees import (
    ConstituentTree,
    ConstNode,
    DependencyTree,
    HpsgNode,
    HpsgTree,
    Token,
    make_const_node,
    make_node,
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
# s-expressions


_SEXPR_TOKEN = re.compile(r"[()\n]|[^\s()]+")


def _read_sexprs(text: str, close: Callable[..., Any]) -> Iterator[tuple]:
    """Yield (value, tokens, line) for every top-level bracket, in order.

    Each bracket is built as it closes, by ``close(label, parts, tokens,
    line)``: ``parts`` are its atoms and its sub-brackets' values in order,
    ``tokens`` one list per top-level tree for ``close`` to fill, ``line``
    the line that tree starts on. A tree is yielded before the rest is read.
    """
    line = start = 1
    tokens: list[Token] = []
    stack: list[list] = []      # [label, parts] of each open bracket
    for m in _SEXPR_TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line += 1
        elif tok == "(":
            if not stack:
                start, tokens = line, []
            stack.append([None, []])
        elif tok == ")":
            if not stack:
                raise TreebankError("unbalanced ')'", line)
            label, parts = stack.pop()
            value = close(label or "", parts, tokens, start)
            if stack:
                stack[-1][1].append(value)
            else:
                yield value, tokens, start
        elif not stack:
            raise TreebankError(f"stray token {tok!r} outside brackets", line)
        elif stack[-1][0] is None and not stack[-1][1]:
            stack[-1][0] = tok
        else:
            stack[-1][1].append(tok)
    if stack:
        raise TreebankError("unbalanced '(' at end of input", start)


def _leaf_or_children(label: str, parts: list, tokens: list[Token],
                      line: int) -> Token | list:
    """The new token of a ``(POS form)`` bracket, else the child values."""
    if not parts:
        raise TreebankError(f"empty bracket under label {label!r}", line)
    if len(parts) == 1 and isinstance(parts[0], str):
        return Token(index=len(tokens) + 1, form=parts[0], pos=label)
    if any(isinstance(part, str) for part in parts):
        raise TreebankError(f"mixed token/bracket children under {label!r}",
                            line)
    return parts


def _close_const(label: str, parts: list, tokens: list[Token],
                 line: int) -> Optional[ConstNode]:
    """One constituent bracket; None for ``-NONE-`` and emptied brackets."""
    got = _leaf_or_children(label, parts, tokens, line)
    if isinstance(got, Token):
        if label == NONE_LABEL:
            return None
        tokens.append(got)
        return ConstNode(label=label, start=got.index, end=got.index)
    children = [child for child in got if child is not None]
    if not children:
        return None  # all children were empty elements
    return make_const_node(strip_function_tags(label), children)


def _close_hpsg(label: str, parts: list, tokens: list[Token],
                line: int) -> HpsgNode:
    m = _HEAD_LABEL.match(label)
    if not m:
        raise TreebankError(f"label {label!r} lacks a [head] suffix", line)
    label, head = m.group(1), int(m.group(2))
    got = _leaf_or_children(label, parts, tokens, line)
    if isinstance(got, Token):
        tokens.append(got)
        if head != got.index:
            raise TreebankError(
                f"preterminal at position {got.index} claims head {head}",
                line)
        return HpsgNode(label=label, head=head, start=head, end=head)
    return make_node(label, got, head)


def _format_tree(root, tokens: list[Token], name: Callable[..., str]) -> str:
    """Bracketed text of a tree, each node written as ``(name ...)``."""
    out: list[str] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:            # pushed to close the bracket above it
            out.append(")")
        elif node.children:
            out.append(f" ({name(node)}")
            stack.append(None)
            stack += node.children[::-1]
        else:
            out.append(f" ({name(node)} {tokens[node.start - 1].form})")
    return "".join(out)[1:]


def read_bracketed(stream: IO[str] | str) -> list[ConstituentTree]:
    """Read every bracketed tree from a stream or string."""
    text = stream if isinstance(stream, str) else stream.read()
    trees = []
    for ordinal, (root, tokens, line) in enumerate(
            _read_sexprs(text, _close_const), start=1):
        # unwrap an anonymous top-level pair: ( (S ...) )
        while root and not root.label and len(root.children) == 1:
            root = root.children[0]
        if root is None:
            log.warning("skipping tree %d (line %d): empty after trace removal",
                        ordinal, line)
            continue
        tree = ConstituentTree(tokens=tokens, root=root)
        tree.validate()
        trees.append(tree)
    return trees


def format_bracketed(tree: ConstituentTree) -> str:
    return _format_tree(tree.root, tree.tokens, attrgetter("label"))


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


def read_hpsg(stream: IO[str] | str) -> list[HpsgTree]:
    text = stream if isinstance(stream, str) else stream.read()
    trees = []
    for root, tokens, line in _read_sexprs(text, _close_hpsg):
        tree = HpsgTree(tokens=tokens, root=root)
        try:
            tree.validate_spans()
        except StructureError as exc:
            raise TreebankError(str(exc), line) from None
        trees.append(tree)
    return trees


def format_hpsg(tree: HpsgTree) -> str:
    return _format_tree(tree.root, tree.tokens,
                        lambda nd: f"{nd.label}[{nd.head}]")


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
