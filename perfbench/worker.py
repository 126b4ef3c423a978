"""Timed rounds of one workload, in one fresh process with one thread.

A round runs the plan's CLI subcommands in order through
``headspan.cli.main``. Rounds repeat until ``--seconds`` have passed.
Before each round, fresh interpreters import ``headspan`` and its CLI,
timed for ``setup_s``; spread over the run like the rounds, they see the
same drift in the host's speed rather than one moment of it. With
``--trace 1`` a warm-up round comes first, then traced and untraced rounds
alternate, so the tracing overhead is measured on the same inputs in the
same process. The result file holds every round's wall time, exit codes,
output digest and, for traced rounds, self time per layer, and every timed
import.

    python3 perfbench/worker.py --plan PLAN.json --seconds 20 --trace 0 \
        --result RESULT.json
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

from headspan import cli

from spans import Tracer

IMPORT = [sys.executable, "-c", "import headspan, headspan.cli"]
IMPORTS_PER_ROUND = 2


def time_import() -> float:
    """Wall time of a fresh interpreter importing headspan and its CLI."""
    start = perf_counter()
    subprocess.run(IMPORT, check=True)
    return perf_counter() - start


def run_round(commands: list[list[str]], tracer: Tracer | None) -> dict:
    codes = []
    printed = {}
    start = perf_counter()
    for argv in commands:
        out = io.StringIO()
        span = tracer.span(f"cli.{argv[0]}") if tracer else nullcontext()
        with redirect_stdout(out), span:
            try:
                codes.append(cli.main(argv))
            except Exception:       # a crash fails the round, not the run
                traceback.print_exc()
                codes.append(-1)
        printed[argv[0]] = out.getvalue()
    wall = perf_counter() - start
    return {"wall": wall, "codes": codes, "eval": printed.get("eval", "")}


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        path = Path(p)
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def count_blocks(path: str) -> int:
    """Sentences in a CoNLL file: runs of non-blank lines."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return 0
    return sum(1 for block in text.split("\n\n") if block.strip())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())

    tracer = Tracer() if args.trace else None
    subprocess.run(IMPORT, check=True)      # compiles bytecode, untimed
    imports = []
    rounds = []
    started = perf_counter()
    # traced runs: one warm-up round, then whole (traced, untraced) pairs
    while (len(rounds) < 1 + 2 * args.trace
           or (args.trace and len(rounds) % 2 == 0)
           or perf_counter() - started < args.seconds):
        imports += [time_import() for _ in range(IMPORTS_PER_ROUND)]
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            with tracer.installed():
                record = run_round(plan["commands"], tracer)
            record["layers"] = tracer.layer_totals()
            record["counts"] = dict(tracer.counts)
            record["peaks"] = dict(tracer.peaks)
            record["top_level"] = tracer.top_level_seconds()
        else:
            record = run_round(plan["commands"], None)
        record["traced"] = traced
        record["warmup"] = bool(args.trace) and not rounds
        record["digest"] = digest(plan["outputs"])
        record["trees"] = count_blocks(plan["count"])
        rounds.append(record)

    if tracer is not None:
        last_traced = [r for r in rounds if r["traced"]][-1]
        last_traced["peaks"]["decode.chart_peak_mb"] = tracer.chart_peak_mb()
    result = {"rounds": rounds, "imports": imports,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
