"""Spans around calls into headspan's layers, recorded from outside ``src/``.

Each public function the workloads reach is replaced, for the length of a
``Tracer.installed()`` block, by a wrapper that records one span (name,
start, end, parent) and, for some layers, a work count. The wrappers are set
on the names where the callers look them up: ``headspan.cli.decode_joint``
rather than ``headspan.decode.decode_joint``, because ``cli`` imported the
name. Spans stay in memory; ``layer_totals`` turns one round of them into
self times, a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from headspan import cli, decode, division, evaluate, linear
from headspan.linear import LinearModel

MB = float(2 ** 20)


def _score_entries(tracer, args, result):
    n, v = result.n, len(result.vocab)
    tracer.counts["linear.score_entries"] += n * (n + 1) // 2 * v + n * (n - 1)


def _updates(tracer, args, result):
    _, history = result
    tracer.counts["linear.updates"] += sum(r["updates"] for r in history)


def _model_mb(tracer, args, result):
    size = sum(a.nbytes for a in vars(result).values()
               if isinstance(a, np.ndarray))
    tracer.peaks["linear.model_mb"] = max(tracer.peaks["linear.model_mb"],
                                          size / MB)


def _chart_cells(tracer, args, result):
    cells = args[0].shape[0] ** 3
    tracer.counts["decode.chart_cells"] += cells
    if tracer.largest is None or cells > tracer.largest[0]:
        tracer.largest = (cells, args[0], args[1])


# (owner, attribute, span name, hook run on the result)
TARGETS = [
    (cli, "read_bracketed", "treebank.read", None),
    (cli, "read_conll", "treebank.read", None),
    (cli, "read_hpsg", "treebank.read", None),
    (cli, "write_hpsg", "treebank.write", None),
    (cli, "write_bracketed", "treebank.write", None),
    (cli, "write_conll", "treebank.write", None),
    (cli, "fuse", "fuse.fuse", None),
    (cli, "project_constituents", "fuse.project", None),
    (cli, "project_dependencies", "fuse.project", None),
    (linear, "project_constituents", "fuse.project", None),
    (linear, "project_dependencies", "fuse.project", None),
    (linear, "binarize_head_outward", "division.encode", None),
    (linear, "to_division", "division.encode", None),
    (division, "binarize_head_outward", "division.encode", None),
    (division, "to_division", "division.encode", None),
    (cli, "read_scores", "scoring.read_scores", None),
    (LinearModel, "score_table", "linear.score_table", _score_entries),
    (LinearModel, "feature_counts", "linear.feature_counts", None),
    (LinearModel, "save", "linear.save", None),
    (LinearModel, "load", "linear.load", _model_mb),
    (linear, "decode_with_model", "linear.dev_decode", None),
    (cli, "train_linear", "linear.train_self", _updates),
    (cli, "decode_joint", "decode.joint", None),
    (decode, "decode_joint_mixed", "decode.backtrack", None),
    (linear, "decode_joint_mixed", "decode.backtrack", None),
    (decode, "fill_joint_chart", "decode.fill_chart", _chart_cells),
    (cli, "bracket_f1", "evaluate.eval", None),
    (cli, "attachment_scores", "evaluate.eval", None),
    (evaluate, "bracket_f1", "evaluate.eval", None),
    (evaluate, "attachment_scores", "evaluate.eval", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS}
                    | {f"cli.{c}" for c in ("convert", "train", "parse",
                                            "eval")})
COUNT_NAMES = ["linear.score_entries", "linear.updates",
               "decode.chart_cells"]
PEAK_NAMES = ["linear.model_mb", "decode.chart_peak_mb"]


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []       # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.largest: tuple | None = None     # (cells, span_m, arc_m)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def chart_peak_mb(self) -> float:
        """tracemalloc peak of the round's largest chart, filled again.

        tracemalloc slows the chart about tenfold, so the peak is taken on
        one call after the timed rounds, not inside them.
        """
        if self.largest is None:
            return 0.0
        _, span_m, arc_m = self.largest
        tracemalloc.start()
        try:
            decode.fill_joint_chart(span_m, arc_m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / MB

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in TARGETS:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, hook))
                else:
                    new = self.wrap(raw, name, hook)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def layer_totals(self) -> dict[str, float]:
        """Self seconds per span name over the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: 0.0 for name in SPAN_NAMES}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name] += end - start - inner
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)
