"""Time the joint chart fill of this checkout against another revision.

    python3 tools/fill_timing.py --base HEAD~1 --sizes 3,9,16,40,240 --runs 5

Run it from the root of a checkout. The base revision's sources are
exported with ``git archive`` into a temporary directory, which is removed
afterwards. Each run times ``fill_joint_chart`` on one seeded random table
per sentence length, in a fresh interpreter per side, and the two sides
alternate which goes first. For each length the script prints the median
over the runs of the milliseconds per fill, and for a side that has a fill
plan (``decode._fill_plan``) the median milliseconds to build one, its
share of one fill and the bytes it holds (``tracemalloc`` peak of the
build). It is a measuring tool, not a test.
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

# one run of one side: prints {n: [ms per fill, ms per plan build, bytes]}
PROBE = r"""
import json, sys, time, tracemalloc
import numpy as np
from headspan import decode
from headspan.scoring import CategoryVocab
from headspan.synth import random_score_table

out = {}
for n in map(int, sys.argv[1].split(",")):
    mixed = random_score_table(np.random.default_rng(n), n,
                               CategoryVocab(["A", "B", "C"])).mixed(0.5)
    decode.fill_joint_chart(mixed.span, mixed.arc)
    repeats = 0
    t = time.perf_counter()
    while repeats == 0 or time.perf_counter() - t < 0.2:
        decode.fill_joint_chart(mixed.span, mixed.arc)
        repeats += 1
    fill = (time.perf_counter() - t) / repeats * 1e3
    build = held = None
    if hasattr(decode, "_fill_plan"):
        make = decode._fill_plan.__wrapped__
        budget = decode._STEP_CANDIDATES
        t = time.perf_counter()
        for _ in range(repeats):
            make(n, budget)
        build = (time.perf_counter() - t) / repeats * 1e3
        tracemalloc.start()
        plan = make(n, budget)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        del plan
    out[n] = [fill, build, held]
print(json.dumps(out))
"""


def run_side(src: Path, sizes: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", PROBE, sizes], env=env,
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
    args = ap.parse_args(argv)
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
                runs[side].append(run_side(sides[side], args.sizes))
    print(f"median of {args.runs} runs, ms per fill; plan build for the "
          f"sides that have one")
    print(f"{'n':>4} {'base':>10} {'this':>10} {'ratio':>6} "
          f"{'build ms':>9} {'of fill':>8} {'plan KB':>8}")
    for n in map(int, args.sizes.split(",")):
        base = median([run[n][0] for run in runs["base"]])
        this = median([run[n][0] for run in runs["this"]])
        build = median([run[n][1] for run in runs["this"]])
        held = median([run[n][2] for run in runs["this"]])
        extra = ("" if build is None else
                 f" {build:9.3f} {100 * build / this:7.2f}% "
                 f"{held / 1024:8.1f}")
        print(f"{n:4d} {base:10.3f} {this:10.3f} {this / base:6.3f}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
