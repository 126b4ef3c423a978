"""Checks on one run's outputs, and the metrics the run reports.

The checks use ``refscore`` only, never ``headspan``: the program's outputs
are read back with the reference readers and held to properties every
parse must have, to the reference scorer, and to the generator's gold trees.
"""

from __future__ import annotations

from pathlib import Path
from statistics import median

import refscore
from spans import COUNT_NAMES, PEAK_NAMES, SPAN_NAMES

UNATTRIBUTED_MARGIN = 0.02   # share of a traced round the spans may miss


def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def _printed(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = float(value)
    return out


def check_outputs(work: Path, gold_stem: str, problems: list) -> tuple:
    """Structure and token checks; returns the reference F1 and UAS."""
    gold_dep = refscore.read_conll(_text(work / f"{gold_stem}.conll"))
    gold_const = refscore.read_brackets(_text(work / f"{gold_stem}.brackets"))
    pred_dep = refscore.read_conll(_text(work / "pred.conll"))
    pred_const = refscore.read_brackets(_text(work / "pred.brackets"))
    pred_hpsg = refscore.read_hpsg(_text(work / "pred.hpsg"))
    for name, pred in (("dependency", pred_dep), ("constituent", pred_const),
                       ("head-annotated", pred_hpsg)):
        if len(pred) != len(gold_dep):
            problems.append(f"{len(pred)} {name} trees for {len(gold_dep)} "
                            f"sentences")
            return 0.0, 0.0
    for k, (g, d, c, h) in enumerate(zip(gold_dep, pred_dep, pred_const,
                                         pred_hpsg), start=1):
        tokens = [(form, tag) for form, tag, _ in g]
        if ([(form, tag) for form, tag, _ in d] != tokens
                or refscore.leaves(c) != tokens
                or refscore.leaves(h) != tokens):
            problems.append(f"sentence {k}: output tokens differ from input")
        for why in refscore.dependency_errors([head for _, _, head in d]):
            problems.append(f"sentence {k}: dependency output: {why}")
        plain, heads = refscore.project(h)
        if plain != c or heads != [head for _, _, head in d]:
            problems.append(f"sentence {k}: projections disagree with the "
                            f"head-annotated output")
    return (refscore.bracket_f1(gold_const, pred_const),
            refscore.uas(gold_dep, pred_dep))


def check_conversion(work: Path, problems: list) -> None:
    """Converted trees must project back to the input trees exactly."""
    fused = refscore.read_hpsg(_text(work / "train.hpsg"))
    consts = refscore.read_brackets(_text(work / "train.brackets"))
    deps = refscore.read_conll(_text(work / "train.conll"))
    if not len(fused) == len(consts) == len(deps):
        problems.append(f"convert wrote {len(fused)} trees for "
                        f"{len(consts)} sentences")
        return
    for k, (tree, const, dep) in enumerate(zip(fused, consts, deps), 1):
        plain, heads = refscore.project(tree)
        if plain != const or heads != [head for _, _, head in dep]:
            problems.append(f"converted sentence {k} does not project back "
                            f"to its input")


def check_clean_decodes(work: Path, clean: list[int], problems: list) -> None:
    """Noise-free oracle tables must decode to exactly the gold tree."""
    gold = refscore.read_hpsg(_text(work / "gold.hpsg"))
    pred = refscore.read_hpsg(_text(work / "pred.hpsg"))
    for k in clean:
        if k >= len(pred) or pred[k] != gold[k]:
            problems.append(f"sentence {k + 1}: noise-free table did not "
                            f"decode to its gold tree")


def check_run(workload: str, work: Path, meta: dict, plan: dict,
              result: dict, floors: dict) -> dict:
    rounds = result["rounds"]
    problems: list[str] = []
    per_round = meta["test"]
    failed = 0
    for r in rounds:
        if any(r["codes"]):
            failed += per_round
        else:
            failed += max(0, per_round - r["trees"])
    if len({r["digest"] for r in rounds}) > 1 \
            or len({r["eval"] for r in rounds}) > 1:
        problems.append("rounds wrote different outputs")

    f1, uas = check_outputs(work, plan["gold"], problems)
    printed = _printed(rounds[-1]["eval"])
    for name, ref in (("bracket_f1", f1), ("uas", uas)):
        got = printed.get(name)
        if got is None or abs(got - ref) > 0.005 + 1e-9:
            problems.append(f"headspan eval printed {name} {got}, the "
                            f"reference scorer gives {ref:.4f}")
    if workload == "pipeline":
        check_conversion(work, problems)
    if workload == "parse-long":
        check_clean_decodes(work, meta["clean"], problems)
    for name, floor in floors.items():
        value = {"bracket_f1": f1, "uas": uas}[name]
        if value < floor:
            problems.append(f"{name} {value:.2f} is below the floor {floor}")
    for r in rounds:
        if r["traced"] and r["wall"] - r["top_level"] \
                > UNATTRIBUTED_MARGIN * r["wall"]:
            problems.append("trace spans miss more than "
                            f"{UNATTRIBUTED_MARGIN:.0%} of a traced round")
    return {"problems": problems, "attempted": per_round * len(rounds),
            "failed": failed, "bracket_f1": f1, "uas": uas}


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(meta: dict, result: dict, verdict: dict) -> dict:
    wall = median(r["wall"] for r in result["rounds"])
    return {
        "setup_s": _m(median(result["imports"]), "s"),
        "wall_s": _m(wall, "s"),
        "sent_per_s": _m(meta["sentences"] / wall, "sent/s"),
        "tok_per_s": _m(meta["tokens"] / wall, "tok/s"),
        "peak_rss_mb": _m(result["maxrss_kb"] / 1024.0, "MB"),
        "bracket_f1": _m(verdict["bracket_f1"], "%"),
        "uas": _m(verdict["uas"], "%"),
    }


def layer_metrics(result: dict) -> dict:
    traced = [r for r in result["rounds"] if r["traced"]]
    plain = [r for r in result["rounds"]
             if not r["traced"] and not r["warmup"]]
    out = {f"{name}_s": _m(median(r["layers"][name] for r in traced), "s")
           for name in SPAN_NAMES}
    for name in COUNT_NAMES:
        out[name] = _m(median(r["counts"].get(name, 0) for r in traced),
                       "count")
    for name in PEAK_NAMES:
        out[name] = _m(max(r["peaks"].get(name, 0.0) for r in traced), "MB")
    traced_wall = median(r["wall"] for r in traced)
    out["trace.wall_s"] = _m(traced_wall, "s")
    out["trace.unattributed_s"] = _m(
        median(r["wall"] - r["top_level"] for r in traced), "s")
    out["trace.overhead_s"] = _m(
        traced_wall - median(r["wall"] for r in plain), "s")
    return out
