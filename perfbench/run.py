"""Benchmark entry point: one run of one workload, one JSON line of results.

    python3 perfbench/run.py --workload parse-long --seed 1 --seconds 30 \
        --trace 0

Run it from the root of a checkout; it reads the program from ``src/``.
Each run writes the seeded inputs under ``perfbench/_runs/``, trains the
wide model if the checkout has none for this program yet, runs the timed
rounds (and the fresh-interpreter imports timed for ``setup_s``) in a fresh
worker process with one thread, checks every output and prints the metrics
as the last line. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. A failed check or a failed program call shows in ``correct`` and
``failed``; a broken benchmark or a missing program exits non-zero without
a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

WORKLOADS = ("pipeline", "parse-long", "parse-wide")
WORKER_LIMIT_S = 165         # the worker is killed past this

# held-out accuracy floors (percent); see README
FLOORS = {"pipeline": {"bracket_f1": 85.0, "uas": 85.0},
          "parse-wide": {"bracket_f1": 75.0, "uas": 85.0}}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def plan(workload: str, d: Path, model: Path, meta: dict) -> dict:
    """The timed CLI calls, their outputs and the gold files."""
    p = lambda name: str(d / name)
    pred = ["--out", p("pred.hpsg"), "--out-const", p("pred.brackets"),
            "--out-dep", p("pred.conll")]
    gold = "test" if workload != "parse-long" else "gold"
    evaluate = ["eval", "--gold-const", p(f"{gold}.brackets"),
                "--pred-const", p("pred.brackets"), "--gold-dep",
                p(f"{gold}.conll"), "--pred-dep", p("pred.conll"),
                "--format", "keyvalues"]
    if workload == "pipeline":
        commands = [
            ["convert", "--const", p("train.brackets"), "--conll",
             p("train.conll"), "--out", p("train.hpsg")],
            ["train", "--hpsg", p("train.hpsg"), "--model-out",
             str(model), "--epochs", str(meta["epochs"]), "--holdout",
             str(meta["holdout"])],
            ["parse", "--input", p("test.conll"), "--model", str(model),
             *pred],
        ]
    elif workload == "parse-long":
        commands = [["parse", "--input", p("gold.conll"), "--scores",
                     p("scores.txt"), *pred]]
    else:
        commands = [["parse", "--input", p("test.conll"), "--model",
                     str(model), *pred]]
    outputs = [p("pred.hpsg"), p("pred.brackets"), p("pred.conll")]
    if workload == "pipeline":
        outputs += [p("train.hpsg"), str(model)]
    return {"commands": commands + [evaluate], "outputs": outputs,
            "count": p("pred.conll"), "gold": gold}


def wide_model(env: dict) -> Path:
    """The parse-wide model, trained by the code under test before timing.

    Its training corpus does not depend on the seed, so the model is kept
    under a digest of the program's sources and the training file, and
    trained again only when either changes. The first run of any workload
    in a checkout trains it, so that a later ``parse-wide`` run never pays
    for training inside its time limit.
    """
    import gen

    models = HERE / "_runs" / "models"
    corpus = models / "wide-train.hpsg"
    text = gen.wide_training_text()
    argv = ["train", "--hpsg", str(corpus), *gen.WIDE_TRAIN_ARGS]
    h = hashlib.sha256(" ".join(gen.WIDE_TRAIN_ARGS).encode())
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    h.update(text.encode())
    model = models / f"{h.hexdigest()[:24]}.bin"
    if not model.exists():
        shutil.rmtree(models, ignore_errors=True)
        models.mkdir(parents=True)
        corpus.write_text(text, encoding="utf-8")
        partial = models / "training.bin"
        subprocess.run([sys.executable, "-m", "headspan", *argv,
                        "--model-out", str(partial)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        partial.rename(model)
    return model


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "headspan" / "cli.py").is_file():
        print(f"perfbench: no headspan sources under {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2

    import checks
    import gen

    env = child_env()
    work = HERE / "_runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    meta = gen.generate(args.workload, args.seed, work)
    wide = wide_model(env)
    model = wide if args.workload == "parse-wide" else work / "model.bin"
    the_plan = plan(args.workload, work, model, meta)
    (work / "plan.json").write_text(json.dumps(the_plan, indent=1))
    result_file = work / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--plan",
         str(work / "plan.json"), "--seconds", str(args.seconds), "--trace",
         str(args.trace), "--result", str(result_file)],
        env=env, check=True,
        timeout=WORKER_LIMIT_S)
    result = json.loads(result_file.read_text())

    verdict = checks.check_run(args.workload, work, meta, the_plan, result,
                               FLOORS.get(args.workload, {}))
    for line in verdict["problems"]:
        print(f"perfbench: {line}", file=sys.stderr)
    if args.trace:
        metrics = checks.layer_metrics(result)
    else:
        metrics = checks.end_to_end_metrics(meta, result, verdict)
    print(json.dumps({"correct": not verdict["problems"],
                      "attempted": verdict["attempted"],
                      "failed": verdict["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
