"""Steadiness check: two sets of runs of the same code must agree.

    python3 perfbench/steady.py --runs 10 [--workloads parse-long ...]

For every workload it makes two sets of ``--runs`` untraced runs, each run
with its own seed (set 1 takes seeds 1..N, set 2 takes 101..100+N), using
the command, run length and bounds in ``BENCHMARK.json``. Per metric it
prints each set's median and quartiles, the quartile spread as a share of
the median, and how far set 2's median is worse than set 1's. A metric
agrees when each spread (except ``setup_s``'s) is within the metric's bound
and the drift is within it too; the share of failed operations must be the
same in both sets. Raw results go to ``perfbench/_runs/steady.json``. Exits
1 if anything disagrees. Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
SET_SEEDS = (1, 101)


def one_run(command: list[str], workload: str, seed: int,
            seconds: int) -> dict:
    out = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description="Compare two sets of runs.")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = ap.parse_args(argv)

    raw: dict = {}
    ok = True
    for workload in args.workloads:
        sets = []
        for first in SET_SEEDS:
            runs = []
            for seed in range(first, first + args.runs):
                runs.append(one_run(bench["command"], workload, seed,
                                    bench["run_seconds"]))
                print(f"{workload} seed {seed}: "
                      f"{json.dumps(runs[-1]['metrics'])}", file=sys.stderr)
            sets.append(runs)
        raw[workload] = sets
        print(f"\n{workload}  ({args.runs} runs per set)")
        print(f"  {'metric':<12} {'set1 q1/med/q3':>28} {'spread':>7} "
              f"{'set2 q1/med/q3':>28} {'spread':>7} {'drift':>7} "
              f"{'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            stats = [quantiles([r["metrics"][name]["value"] for r in runs],
                               n=4) for runs in sets]
            spreads = [(q3 - q1) / q2 for q1, q2, q3 in stats]
            drift = sign * (stats[1][1] - stats[0][1]) / stats[0][1]
            agree = drift <= bound and (
                name == "setup_s" or max(spreads) <= bound)
            steady = name == "setup_s" or max(spreads) < bound / 3
            ok &= agree
            cells = [f"{q1:9.4g}/{q2:9.4g}/{q3:9.4g} {sp:7.2%}"
                     for (q1, q2, q3), sp in zip(stats, spreads)]
            print(f"  {name:<12} {cells[0]} {cells[1]} {drift:7.2%} "
                  f"{bound:6.2f}  {'agree' if agree else 'DISAGREE'}"
                  f"{'' if steady else ' (spread above a third of bound)'}")
        shares = [sum(r["failed"] for r in runs)
                  / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= shares[0] == shares[1] and correct
        print(f"  failed share {shares[0]:.4f} vs {shares[1]:.4f}; "
              f"all runs correct: {correct}")
    if "parse-long" in raw:
        print("\nparse-long, the two metrics that drifted before:")
        for name in ("wall_s", "setup_s"):
            meds = [median(r["metrics"][name]["value"] for r in runs)
                    for runs in raw["parse-long"]]
            print(f"  {name}: set 1 median {meds[0]:.4f} s, set 2 median "
                  f"{meds[1]:.4f} s ({meds[1] / meds[0] - 1:+.2%})")
    out = HERE / "_runs" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw))
    print("\nall metrics agree" if ok else "\nSOME METRICS DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
