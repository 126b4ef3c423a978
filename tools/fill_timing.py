"""Time the joint chart fill of this checkout against another revision.

    python3 tools/fill_timing.py --base HEAD~1 --sizes 3,9,16,40,240 --runs 5
    python3 tools/fill_timing.py --batch 8 --sizes 3,9,16,24,32,40

Run it from the root of a checkout. The base revision's sources are
exported with ``git archive`` into a temporary directory, which is removed
afterwards. Each run times ``fill_joint_chart`` on ``--batch`` seeded random
tables per sentence length, one fill at a time, in a fresh interpreter per
side, and the two sides alternate which goes first. Each side's fill gets
the spans as it takes them: an older revision the V-wide mixed span
array, whose label reductions its fill makes, and a revision with span
summaries (``ScoreTable.summary``) the summary's two label constants per
span. That summary is timed with the fill, as it holds the reductions; it
also checks and mixes the spans, which the older side's timing leaves
out. With ``--batch`` above 1 this checkout also fills the tables as one
batch. A run takes the best
of five timing windows. For each length the script prints the median over
the runs of the milliseconds per sentence: single fills on each side, and
the batched fill with its gain over single fills. For a side that has a
fill plan (``decode._fill_plan``) it prints the median milliseconds to
build one, its share of one fill and the bytes it holds (``tracemalloc``
peak of the build). It is a measuring tool, not a test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# one run of one side: prints {n: [ms per single fill, ms per sentence of
# a batched fill, ms per plan build, bytes]}; a side that cannot fill a
# batch gets None
PROBE = r"""
import json, sys, time, tracemalloc
import numpy as np
from headspan import decode
from headspan.scoring import CategoryVocab, ScoreTable
from headspan.synth import random_score_table


def per_call(fill):
    # the best of five windows of at least 40 ms: a slow spell of the host
    # in one window does not count
    fill()
    best = None
    for _ in range(5):
        repeats = 0
        t = time.perf_counter()
        while repeats == 0 or time.perf_counter() - t < 0.04:
            fill()
            repeats += 1
        ms = (time.perf_counter() - t) / repeats * 1e3
        best = ms if best is None else min(best, ms)
    return best, repeats


size = int(sys.argv[2])
out = {}
for n in map(int, sys.argv[1].split(",")):
    rng = np.random.default_rng(n)
    tables = [random_score_table(rng, n, CategoryVocab(["A", "B", "C"]))
              for _ in range(size)]
    arcs = [t.mixed(0.5).arc for t in tables]
    if hasattr(ScoreTable, "summary"):
        def spans():
            return [t.summary(0.5).best for t in tables]
    else:
        mixed = [t.mixed(0.5).span for t in tables]

        def spans():
            return mixed
    fill, repeats = per_call(lambda: [decode.fill_joint_chart(s, a)
                                      for s, a in zip(spans(), arcs)])
    fill /= size
    batched = None
    arc = np.stack(arcs)
    try:
        # a revision without batched fills fails here or returns one chart
        charts = (decode.fill_joint_chart(np.stack(spans()), arc)
                  if size > 1 else None)
    except Exception:
        charts = None
    if isinstance(charts, list):
        batched = per_call(lambda: decode.fill_joint_chart(
            np.stack(spans()), arc))[0] / size
    build = held = None
    if hasattr(decode, "_fill_plan"):
        make = decode._fill_plan.__wrapped__
        # a revision that cut long lengths into steps planned per step budget
        key = ((n, decode._STEP_CANDIDATES)
               if hasattr(decode, "_STEP_CANDIDATES") else (n,))
        t = time.perf_counter()
        for _ in range(repeats):
            make(*key)
        build = (time.perf_counter() - t) / repeats * 1e3
        tracemalloc.start()
        plan = make(*key)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        del plan
    out[n] = [fill, batched, build, held]
print(json.dumps(out))
"""


def run_side(src: Path, sizes: str, batch: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", PROBE, sizes, str(batch)],
                          env=env,
                          check=True, capture_output=True, text=True)
    return {int(k): v for k, v in json.loads(done.stdout).items()}


def median(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD",
                    help="revision to compare against (default HEAD)")
    ap.add_argument("--sizes", default="3,9,16,40,240")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--batch", type=int, default=1,
                    help="tables per length, also filled as one batch")
    args = ap.parse_args(argv)
    if args.batch < 1:
        ap.error("--batch must be at least 1")
    here = Path.cwd() / "src"
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.base, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"base": Path(tmp) / "src", "this": here}
        runs: dict[str, list[dict]] = {"base": [], "this": []}
        for r in range(args.runs):
            order = ["base", "this"] if r % 2 == 0 else ["this", "base"]
            for side in order:
                runs[side].append(run_side(sides[side], args.sizes,
                                          args.batch))
    print(f"median of {args.runs} runs, ms per sentence of {args.batch} "
          f"single fills and of one batched fill; plan build for the sides "
          f"that have one")
    print(f"{'n':>4} {'base':>10} {'this':>10} {'ratio':>6} {'batched':>10} "
          f"{'gain':>6} {'build ms':>9} {'of fill':>8} {'plan KB':>8}")
    for n in map(int, args.sizes.split(",")):
        base = median([run[n][0] for run in runs["base"]])
        this = median([run[n][0] for run in runs["this"]])
        batched = median([run[n][1] for run in runs["this"]])
        build = median([run[n][2] for run in runs["this"]])
        held = median([run[n][3] for run in runs["this"]])
        line = f"{n:4d} {base:10.3f} {this:10.3f} {this / base:6.3f}"
        line += (f" {'-':>10} {'-':>6}" if batched is None else
                 f" {batched:10.3f} {this / batched:6.2f}")
        if build is not None:
            line += (f" {build:9.3f} {100 * build / this:7.2f}% "
                     f"{held / 1024:8.1f}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
