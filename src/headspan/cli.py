"""Command line interface.

Subcommands: ``convert`` fuses a constituent file with a dependency file
into head-annotated trees, ``parse`` decodes sentences from score files or
a trained model, ``train`` fits the linear model, ``eval`` scores parser
output against gold files, and ``check`` cross-verifies the decoders on
random inputs.

Exit codes: 0 success, 1 usage or configuration error or out of memory, 2
unreadable or malformed data, 3 failed verification in ``check``, 141
(128 + SIGPIPE) when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .decode import (
    BRUTE_FORCE_CAP,
    ROUTES,
    brute_force,
    decode_division,
    decode_eisner,
    decode_joint,
    decode_tables,
    max_projective_score,
)
from .errors import (
    AlignmentError,
    ModelFileError,
    ScoreFileError,
    SizeGuardError,
    StructureError,
    TreebankError,
)
from .evaluate import DEFAULT_PUNCT, attachment_scores, bracket_f1
from .fuse import fuse, project_constituents, project_dependencies
from .linear import LinearModel, TrainConfig, decode_many, train_linear
from .scoring import CategoryVocab, read_scores
from .synth import random_score_table
from .treebank import (
    pair_treebanks,
    read_bracketed,
    read_conll,
    read_hpsg,
    write_conll,
    write_bracketed,
    write_hpsg,
)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="headspan",
        description="Joint constituent and dependency parsing toolkit.")
    parser.add_argument("--version", action="version",
                        version=f"headspan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_ArgumentParser)

    p = sub.add_parser("convert", help="fuse constituent and dependency "
                       "files into head-annotated trees")
    p.add_argument("--const", required=True, help="bracketed trees")
    p.add_argument("--conll", required=True, help="dependency file")
    p.add_argument("--out", required=True, help="head-annotated output")

    p = sub.add_parser("parse", help="decode sentences from scores or a "
                       "model")
    p.add_argument("--input", required=True,
                   help="sentences: a dependency file or bracketed trees "
                   "(detected by content); only forms and tags are used")
    p.add_argument("--scores", help="score file aligned with the input")
    p.add_argument("--model", help="trained model file")
    p.add_argument("--decoder", choices=ROUTES,
                   help="default: the model's mode, or joint with --scores")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="span weight, 0 = arcs only, 1 = spans only "
                   "(default: the model's, or 0.5 with --scores)")
    p.add_argument("--out", help="head-annotated trees output")
    p.add_argument("--out-const", help="constituent projection output")
    p.add_argument("--out-dep", help="dependency projection output")

    p = sub.add_parser("train", help="fit the linear model on gold trees")
    p.add_argument("--hpsg", help="head-annotated training file")
    p.add_argument("--const", help="bracketed trees (with --conll)")
    p.add_argument("--conll", help="dependency file (with --const)")
    p.add_argument("--model-out", required=True)
    p.add_argument("--mode", choices=["joint", "division"], default="joint")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=2 ** 20)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--holdout", type=int, default=0,
                   help="keep the last N sentences for epoch selection")

    p = sub.add_parser("eval", help="score predictions against gold files")
    p.add_argument("--gold-const")
    p.add_argument("--pred-const")
    p.add_argument("--gold-dep")
    p.add_argument("--pred-dep")
    p.add_argument("--punct-set", default=" ".join(sorted(DEFAULT_PUNCT)),
                   help="space-separated tags deleted before scoring")
    p.add_argument("--format", choices=["text", "keyvalues"], default="text")

    p = sub.add_parser("check", help="cross-verify decoders on random "
                       "score tables")
    p.add_argument("--trials", type=int, default=200,
                   help="random tables per sentence length")
    p.add_argument("--n-cap", type=int, default=6,
                   help="largest sentence length, at most "
                   f"{BRUTE_FORCE_CAP}")
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--tolerance", type=float, default=1e-9)
    return parser


def _read_trees(path: str):
    with open(path, encoding="utf-8") as fh:
        return read_bracketed(fh)


def _read_deps(path: str):
    with open(path, encoding="utf-8") as fh:
        return read_conll(fh)


def cmd_convert(args) -> int:
    consts = _read_trees(args.const)
    deps = _read_deps(args.conll)
    pairs = pair_treebanks(consts, deps)
    fused = []
    multihead = residuals = head_errors = 0
    for ordinal, (ctree, dtree) in enumerate(pairs, start=1):
        tree, report = fuse(ctree, dtree, ordinal=ordinal)
        fused.append(tree)
        multihead += report.multihead_before
        residuals += report.residuals
        head_errors += len(report.head_errors)
        for start, end in report.offending_spans:
            print(f"sentence {ordinal}: residual span ({start},{end})",
                  file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_hpsg(fused, fh)
    print(f"sentences          {len(fused)}")
    print(f"multi-head phrases {multihead}")
    print(f"residual phrases   {residuals}")
    print(f"head errors        {head_errors}")
    return 0


def _load_parse_input(path: str):
    text = Path(path).read_text(encoding="utf-8")
    first = next((ch for ch in text if not ch.isspace()), "")
    if first == "(":
        return [t.tokens for t in read_bracketed(text)]
    return [d.tokens for d in read_conll(text)]


def _check_alignment(tables, sentences) -> None:
    """One score table per sentence, each as long as its sentence."""
    for ordinal, (tokens, table) in enumerate(zip(sentences, tables),
                                              start=1):
        if table.n != len(tokens):
            raise ScoreFileError(
                f"sentence {ordinal}: score table covers {table.n} tokens, "
                f"sentence has {len(tokens)}")
    if len(tables) < len(sentences):
        raise ScoreFileError(
            f"sentence {len(tables) + 1}: no score table ({len(tables)} "
            f"tables for {len(sentences)} sentences)")
    if len(tables) > len(sentences):
        raise ScoreFileError(f"{len(tables)} score tables for "
                             f"{len(sentences)} sentences")


def cmd_parse(args) -> int:
    if (args.scores is None) == (args.model is None):
        raise ValueError("provide exactly one of --scores and --model")
    sentences = _load_parse_input(args.input)
    if args.scores is not None:
        with open(args.scores, encoding="utf-8") as fh:
            tables = read_scores(fh)
        _check_alignment(tables, sentences)
        decoder = args.decoder or "joint"
        if decoder == "joint" and tables and tables[0].vocab.has_marks():
            raise ValueError("the scores have head-marked (H_) span labels; "
                             "use --decoder division, not joint")
        lam = 0.5 if args.lam is None else args.lam
        results = decode_tables(sentences, lambda k, w: tables[k].summary(w),
                                decoder, lam)
    else:
        model = LinearModel.load(args.model)
        decoder = args.decoder or model.mode
        lam = model.lam if args.lam is None else args.lam
        if model.mode == "division" and decoder != "division":
            raise ValueError(
                f"a division-mode model has head-marked span labels and no "
                f"arc weights; use --decoder division, not {decoder}")
        results = decode_many(model, sentences, decoder, lam)
    if decoder == "eisner" and (args.out or args.out_const):
        raise ValueError("the eisner decoder produces dependencies only; "
                         "use --out-dep")

    parsed = []
    # finite weights can sum past the float range; decode_tables refuses
    # the table then, so numpy's overflow warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for tree, notes in results:
                for note in notes:
                    print(f"sentence {len(parsed) + 1}: {note}",
                          file=sys.stderr)
                parsed.append(tree)
        except ScoreFileError as exc:
            # raised in its sentence's turn, after the results before it
            raise ScoreFileError(f"sentence {len(parsed) + 1}: {exc}"
                                 ) from None

    # eisner output is already a dependency tree: written as it is
    as_dep = (lambda t: t) if decoder == "eisner" else project_dependencies
    wrote_any = False
    for path, write, project in ((args.out, write_hpsg, lambda t: t),
                                 (args.out_const, write_bracketed,
                                  project_constituents),
                                 (args.out_dep, write_conll, as_dep)):
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                write([project(t) for t in parsed], fh)
            wrote_any = True
    if not wrote_any:
        write = write_conll if decoder == "eisner" else write_hpsg
        write(parsed, sys.stdout)
    return 0


def cmd_train(args) -> int:
    if args.holdout < 0:
        raise ValueError(f"--holdout must be at least 0, got {args.holdout}")
    if args.hpsg is not None:
        if args.const or args.conll:
            raise ValueError("--hpsg replaces --const and --conll")
        with open(args.hpsg, encoding="utf-8") as fh:
            trees = read_hpsg(fh)
    else:
        if not (args.const and args.conll):
            raise ValueError("provide --hpsg, or --const with --conll")
        pairs = pair_treebanks(_read_trees(args.const),
                               _read_deps(args.conll))
        trees = []
        for ordinal, (ctree, dtree) in enumerate(pairs, start=1):
            tree, report = fuse(ctree, dtree, ordinal=ordinal)
            if report.residuals:
                print(f"sentence {ordinal}: {report.residuals} residual "
                      f"phrases kept in training data", file=sys.stderr)
            trees.append(tree)
    if not trees:
        raise ValueError("no training sentences")
    dev = None
    if args.holdout:
        if args.holdout >= len(trees):
            raise ValueError("holdout leaves no training sentences")
        dev = trees[-args.holdout:]
        trees = trees[:-args.holdout]
    config = TrainConfig(epochs=args.epochs, step=args.step, lam=args.lam,
                         dim=args.dim, mode=args.mode, seed=args.seed,
                         log=print)
    model, history = train_linear(trees, config, dev=dev)
    model.save(args.model_out)
    final = history[-1]
    print(f"saved model to {args.model_out} "
          f"(final objective {final['objective']:.3f})")
    return 0


def cmd_eval(args) -> int:
    punct = frozenset(args.punct_set.split())
    report = None
    if (args.gold_const is None) != (args.pred_const is None):
        raise ValueError("--gold-const and --pred-const go together")
    if (args.gold_dep is None) != (args.pred_dep is None):
        raise ValueError("--gold-dep and --pred-dep go together")
    if args.gold_const:
        report = bracket_f1(_read_trees(args.gold_const),
                            _read_trees(args.pred_const), punct=punct)
    if args.gold_dep:
        dep_report = attachment_scores(_read_deps(args.gold_dep),
                                       _read_deps(args.pred_dep),
                                       punct=punct)
        report = dep_report if report is None else report.merge(dep_report)
    if report is None:
        raise ValueError("nothing to evaluate; provide gold and predicted "
                         "files")
    if args.format == "keyvalues":
        print(report.format_keyvalues())
    else:
        print(report.format_text())
    return 0


def cmd_check(args) -> int:
    if args.n_cap > BRUTE_FORCE_CAP:
        raise SizeGuardError(
            f"--n-cap above {BRUTE_FORCE_CAP} would enumerate too many "
            f"derivations")
    if args.n_cap < 2:
        raise ValueError("--n-cap must be at least 2")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if not 0.0 <= args.tolerance < math.inf:
        raise ValueError(f"--tolerance must be finite and at least 0, got "
                         f"{args.tolerance}")
    rng = np.random.default_rng(args.seed)
    vocab = CategoryVocab(["A", "B", "C"])
    tol = args.tolerance
    ran = 0
    failed: list[str] = []
    for n in range(2, args.n_cap + 1):
        for trial in range(args.trials):
            table = random_score_table(rng, n, vocab)
            _, joint = decode_joint(table, args.lam)
            _, brute = brute_force(table, args.lam)
            if abs(joint - brute) > tol:
                failed.append(
                    f"n={n} trial={trial}: joint {joint!r} vs exhaustive "
                    f"{brute!r}")
            _, dep_joint = decode_joint(table, 0.0)
            _, eisner = decode_eisner(table)
            best_dep = max_projective_score(table)
            if abs(dep_joint - eisner) > tol or abs(eisner - best_dep) > tol:
                failed.append(
                    f"n={n} trial={trial}: arcs-only routes disagree "
                    f"(joint {dep_joint!r}, eisner {eisner!r}, exhaustive "
                    f"{best_dep!r})")
            _, span_joint = decode_joint(table, 1.0)
            _, division = decode_division(table.summary(1.0))
            if span_joint > division + tol:
                failed.append(
                    f"n={n} trial={trial}: spans-only joint {span_joint!r} "
                    f"exceeds span decoder {division!r}")
            ran += 3
    for line in failed:
        print(line, file=sys.stderr)
    status = "FAILED" if failed else "passed"
    print(f"{ran} checks {status} "
          f"({args.trials} tables per length 2..{args.n_cap})")
    return 3 if failed else 0


_COMMANDS = {
    "convert": cmd_convert,
    "parse": cmd_parse,
    "train": cmd_train,
    "eval": cmd_eval,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (TreebankError, AlignmentError, ScoreFileError, StructureError,
            ModelFileError, FileNotFoundError, IsADirectoryError,
            PermissionError) as exc:
        print(f"headspan {args.command}: {exc}", file=sys.stderr)
        return 2
    except (SizeGuardError, ValueError) as exc:
        print(f"headspan {args.command}: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"headspan {args.command}: input nested deeper than the "
              f"recursion limit ({sys.getrecursionlimit()})", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"headspan {args.command}: out of memory "
              f"({str(exc) or 'an allocation failed'})", file=sys.stderr)
        return 1


def console_main() -> None:
    try:
        status = main()
        # flushed here, so that a reader gone early raises inside the try
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is left goes to devnull, so the
        # flush at exit cannot fail; 141 is 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(status)


if __name__ == "__main__":
    console_main()
