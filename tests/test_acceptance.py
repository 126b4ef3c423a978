"""Whole-package acceptance checks.

Nine checks cover the toolkit end to end: oracle recovery, decoder
agreement with exhaustive search, degeneration to the specialist decoders,
invertibility of the encodings, fusion hygiene on the bundled corpus,
training convergence and reproducibility, the value of joint decoding on
held-out text, the cost envelope of the joint chart, and the evaluation
arithmetic. Each check prints one PASS or FAIL summary line (bypassing
output capture so the line shows up in piped runs) and then asserts.
"""

import io
import statistics
import time
import tracemalloc

import numpy as np
import pytest

from headspan.decode import (
    brute_force,
    decode_division,
    decode_eisner,
    decode_joint,
    fill_joint_chart,
)
from headspan.division import from_division
from headspan.evaluate import attachment_scores, bracket_f1
from headspan.fuse import (
    fuse,
    project_constituents,
    project_dependencies,
    validate,
)
from headspan.linear import TrainConfig, decode_with_model, train_linear
from headspan.scoring import CategoryVocab, oracle_scores, tree_spans
from headspan.synth import random_score_table
from headspan.treebank import write_bracketed, write_hpsg

TOL = 1e-9


@pytest.fixture()
def announce(capsys):
    """Print one PASS/FAIL line per check on the real stdout.

    Capture is suspended for the print so the line survives piped runs
    without needing ``-s``.
    """
    def _announce(num: int, ok: bool, detail: str,
                  extra_lines: tuple[str, ...] = ()) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            for line in extra_lines:
                print(line, flush=True)
            print(f"acceptance {num}/9 {status}  {detail}", flush=True)
    return _announce


def _hpsg_text(tree) -> str:
    buf = io.StringIO()
    write_hpsg([tree], buf)
    return buf.getvalue()


def _bracket_text(tree) -> str:
    buf = io.StringIO()
    write_bracketed([tree], buf)
    return buf.getvalue()


def test_oracle_tables_decode_back_to_their_trees(sample_fused, announce):
    """Check 1: joint decoding at half weight recovers every corpus tree
    from its own oracle scores, exactly and within the time budget."""
    vocab = CategoryVocab.from_trees(sample_fused)
    started = time.perf_counter()
    exact = 0
    score_drift = 0.0
    golds_c, preds_c, golds_d, preds_d = [], [], [], []
    for gold in sample_fused:
        table = oracle_scores(gold, vocab)
        decoded, score = decode_joint(table, 0.5, gold.tokens)
        n = len(gold)
        # one point per binarized span, arc, and root, half weight each
        wanted = 0.5 * (2 * n - 1) + 0.5 * n
        score_drift = max(score_drift, abs(score - wanted))
        if _hpsg_text(decoded) == _hpsg_text(gold):
            exact += 1
        golds_c.append(project_constituents(gold))
        preds_c.append(project_constituents(decoded))
        golds_d.append(project_dependencies(gold))
        preds_d.append(project_dependencies(decoded))
    elapsed = time.perf_counter() - started
    brackets = bracket_f1(golds_c, preds_c)
    attach = attachment_scores(golds_d, preds_d)
    total = len(sample_fused)
    ok = (exact == total and brackets.f1 == 100.0 and attach.uas == 100.0
          and score_drift <= TOL and elapsed < 60.0)
    announce(1, ok,
            f"oracle recovery {exact}/{total} exact, F1 {brackets.f1:.2f}, "
            f"UAS {attach.uas:.2f}, score drift {score_drift:.2e}, "
            f"{elapsed:.1f}s (cap 60s)")
    assert exact == total
    assert brackets.f1 == 100.0
    assert attach.uas == 100.0
    assert score_drift <= TOL
    assert elapsed < 60.0


def test_joint_chart_matches_exhaustive_search(announce):
    """Check 2: on a thousand random tables the chart score equals the
    best score over every enumerated derivation."""
    rng = np.random.default_rng(11)
    vocab = CategoryVocab(["A", "B", "C"])
    lams = [0.0, 0.25, 0.5, 0.75, 1.0]
    started = time.perf_counter()
    trials = 0
    worst = 0.0
    for n in range(2, 7):
        for trial in range(200):
            table = random_score_table(rng, n, vocab)
            lam = lams[trial % len(lams)]
            _, fast = decode_joint(table, lam)
            _, slow = brute_force(table, lam)
            worst = max(worst, abs(fast - slow))
            trials += 1
    elapsed = time.perf_counter() - started
    ok = worst <= TOL and trials == 1000 and elapsed < 120.0
    announce(2, ok,
            f"chart vs exhaustive search on {trials} random tables "
            f"(lengths 2-6), max gap {worst:.2e} (tol 1e-09), "
            f"{elapsed:.1f}s (cap 120s)")
    assert trials == 1000
    assert worst <= TOL
    assert elapsed < 120.0


def test_degenerate_weights_match_specialist_decoders(announce):
    """Check 3: with the span weight at one the joint score never beats
    the span-only decoder, and at zero it equals the dependency decoder."""
    rng = np.random.default_rng(23)
    vocab = CategoryVocab(["A", "B", "C"])
    span_violation = -np.inf
    dep_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        table = random_score_table(rng, n, vocab)
        _, spans_only = decode_joint(table, 1.0)
        _, division = decode_division(table.summary(1.0))
        span_violation = max(span_violation, spans_only - division)
        _, arcs_only = decode_joint(table, 0.0)
        _, eisner = decode_eisner(table)
        dep_gap = max(dep_gap, abs(arcs_only - eisner))
    ok = span_violation <= TOL and dep_gap <= TOL
    announce(3, ok,
            f"degenerate weights on 100 tables: spans-only exceeds the "
            f"span decoder by at most {max(span_violation, 0.0):.2e}, "
            f"arcs-only gap to the dependency decoder {dep_gap:.2e} "
            f"(tol 1e-09)")
    assert span_violation <= TOL
    assert dep_gap <= TOL


def test_encodings_and_projections_invert(sample_pairs, sample_fused, announce):
    """Check 4: the division encoding and the fusion both undo exactly,
    sentence by sentence, over the whole corpus."""
    encode_bad = 0
    for gold in sample_fused:
        back, flags = from_division(tree_spans(gold, True), gold.tokens)
        if flags or _hpsg_text(back) != _hpsg_text(gold):
            encode_bad += 1
    project_bad = 0
    for (ctree, dtree), fused in zip(sample_pairs, sample_fused):
        const = project_constituents(fused)
        deps = project_dependencies(fused)
        if (_bracket_text(const) != _bracket_text(ctree)
                or deps.heads != dtree.heads
                or deps.labels != dtree.labels):
            project_bad += 1
    total = len(sample_fused)
    ok = encode_bad == 0 and project_bad == 0
    announce(4, ok,
            f"round trips over {total} sentences: encoding mismatches "
            f"{encode_bad}, projection mismatches {project_bad}")
    assert encode_bad == 0
    assert project_bad == 0


def test_fusion_is_clean_on_the_bundled_corpus(sample_pairs, announce):
    """Check 5: fusing the corpus leaves (nearly) no phrase behind whose
    head set the head principle cannot explain."""
    clean = 0
    leftovers: list[str] = []
    for ordinal, (ctree, dtree) in enumerate(sample_pairs, start=1):
        tree, _ = fuse(ctree, dtree, ordinal=ordinal)
        audit = validate(tree, ordinal=ordinal)
        if audit.residuals == 0 and not audit.head_errors:
            clean += 1
        else:
            for start, end in audit.offending_spans:
                leftovers.append(
                    f"sentence {ordinal}: residual span ({start},{end})")
    total = len(sample_pairs)
    rate = 100.0 * clean / total
    ok = rate >= 99.0
    announce(5, ok,
             f"fusion audit: {clean}/{total} sentences clean "
             f"({rate:.1f}%, floor 99.0%), {len(leftovers)} residuals listed",
             extra_lines=tuple(leftovers))
    assert rate >= 99.0


def test_training_converges_and_reproduces(sample_fused, tmp_path, announce):
    """Check 6: ten epochs on fifty sentences drive the hinge down and
    fit the training set; the same seed writes an identical model file."""
    trees = sample_fused[:50]
    config = TrainConfig(epochs=10, step=0.1, lam=0.5, dim=2 ** 18,
                         mode="joint", seed=13)
    model, history = train_linear(trees, config)
    first, last = history[0]["objective"], history[-1]["objective"]
    preds = [decode_with_model(model, t.tokens) for t in trees]
    brackets = bracket_f1([project_constituents(t) for t in trees],
                          [project_constituents(t) for t in preds])
    again, _ = train_linear(trees, config)
    path_a, path_b = tmp_path / "a.model", tmp_path / "b.model"
    model.save(str(path_a))
    again.save(str(path_b))
    identical = path_a.read_bytes() == path_b.read_bytes()
    ok = last < first and brackets.f1 >= 95.0 and identical
    announce(6, ok,
            f"training on 50 sentences: hinge {first:.1f} -> {last:.1f}, "
            f"fit F1 {brackets.f1:.2f} (floor 95.00), retrained model file "
            f"{'identical' if identical else 'DIFFERS'}")
    assert last < first
    assert brackets.f1 >= 95.0
    assert identical


def test_joint_weight_holds_both_metrics(sample_fused, announce):
    """Check 7: the half-and-half model gives up less than half a point
    on held-out text against each single-objective model."""
    train, held = sample_fused[:150], sample_fused[150:]
    gold_c = [project_constituents(t) for t in held]
    gold_d = [project_dependencies(t) for t in held]
    f1 = {}
    uas = {}
    for lam in (0.0, 0.5, 1.0):
        config = TrainConfig(epochs=10, step=0.1, lam=lam, dim=2 ** 18,
                             mode="joint", seed=13)
        model, _ = train_linear(train, config)
        preds = [decode_with_model(model, t.tokens) for t in held]
        f1[lam] = bracket_f1(
            gold_c, [project_constituents(t) for t in preds]).f1
        uas[lam] = attachment_scores(
            gold_d, [project_dependencies(t) for t in preds]).uas
    ok = all(f1[0.5] >= f1[lam] - 0.5 and uas[0.5] >= uas[lam] - 0.5
             for lam in (0.0, 1.0))
    announce(7, ok,
            f"held-out (100 sentences): joint F1 {f1[0.5]:.2f} vs "
            f"{f1[0.0]:.2f}/{f1[1.0]:.2f}, joint UAS {uas[0.5]:.2f} vs "
            f"{uas[0.0]:.2f}/{uas[1.0]:.2f} (slack 0.50 each)")
    for lam in (0.0, 1.0):
        assert f1[0.5] >= f1[lam] - 0.5
        assert uas[0.5] >= uas[lam] - 0.5


def _median_decode_time(n: int, rng, vocab, reps: int = 9) -> float:
    times = []
    for _ in range(reps):
        table = random_score_table(rng, n, vocab)
        started = time.perf_counter()
        decode_joint(table, 0.5)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _peak_decode_memory(n: int, rng, vocab) -> int:
    table = random_score_table(rng, n, vocab)
    tracemalloc.start()
    decode_joint(table, 0.5)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _candidates(n: int, rng, vocab) -> int:
    mixed = random_score_table(rng, n, vocab).summary(0.5)
    return fill_joint_chart(mixed.best, mixed.arc).candidates


def test_decode_cost_envelope(announce):
    """Check 8: doubling the sentence keeps the chart's work within the
    fourth-power envelope, counted exactly and timed, and memory within the
    cubic envelope."""
    rng = np.random.default_rng(3)
    vocab = CategoryVocab(["A", "B", "C"])
    t20 = _median_decode_time(20, rng, vocab)
    t40 = _median_decode_time(40, rng, vocab)
    time_ratio = t40 / t20
    m50 = _peak_decode_memory(50, rng, vocab)
    m100 = _peak_decode_memory(100, rng, vocab)
    mem_ratio = m100 / m50
    # (split, head) pairs compared: sum over lengths L of (n-L+1)(L-1)L,
    # x15.3 from 20 to 40 tokens; an O(n^5) chart compares about x30
    want = {n: sum((n - length + 1) * (length - 1) * length
                   for length in range(2, n + 1)) for n in (20, 40)}
    count = {n: _candidates(n, rng, vocab) for n in (20, 40)}
    count_ratio = count[40] / count[20]
    # charts are (n+1)^3 cells; allow four times the cubic prediction
    mem_cap = 4.0 * ((100 + 1) / (50 + 1)) ** 3
    # three times the quartic prediction 2^4
    ok = (count == want and count_ratio <= 16.0 and time_ratio <= 48.0
          and mem_ratio <= mem_cap)
    announce(8, ok,
            f"fourth-power envelope: candidates 20->40 tokens "
            f"x{count_ratio:.2f} (cap 16, exact {count[20]} -> {count[40]}), "
            f"time x{time_ratio:.1f} (cap 48), "
            f"memory 50->100 tokens x{mem_ratio:.2f} (cap {mem_cap:.2f}; "
            f"peaks {m50 / 1e6:.1f}MB -> {m100 / 1e6:.1f}MB)")
    assert count == want
    assert count_ratio <= 16.0
    assert time_ratio <= 48.0
    assert mem_ratio <= mem_cap


def test_metrics_match_hand_computed_scores(announce):
    """Check 9: the bracket and attachment arithmetic reproduces scores
    worked out by hand, to two decimals."""
    from headspan.treebank import read_bracketed, read_conll

    pairs = [
        # (gold, pred, gold brackets, predicted brackets, matching)
        ("(S (NP (DT the) (NN dog)) (VP (VBD saw) (DT a) (NN fox)) (. .))",
         "(S (NP (DT the) (NN dog)) (VP (VBD saw)) (NP (DT a) (NN fox)) (. .))",
         3, 4, 2),
        ("(S (NP (DT the) (NN dog)) (VP (VBD saw) (DT a) (NN fox)) (. .))",
         "(S (NP (DT the) (NN dog)) (VP (VBD saw) (DT a) (NN fox)) (. .))",
         3, 3, 3),
        ("(S (NP (NNP Avery)) (, ,) (ADVP (RB quickly)) (VP (VBD moved)) (. .))",
         "(S (NP (NNP Avery)) (, ,) (VP (RB quickly) (VBD moved)) (. .))",
         4, 3, 2),
        ("(S (NP (NP (DT the) (NN fox))) (VP (VBD ran)))",
         "(S (NP (DT the) (NN fox)) (VP (VBD ran)))",
         4, 3, 3),
        ("(S (NP (DT the) (NN fox)) (VP (VBD ran)))",
         "(S (ADJP (DT the) (NN fox)) (VP (VBD ran)))",
         3, 3, 2),
    ]
    bad = []
    # the first pair is the canonical worked example: recall 2/3,
    # precision 2/4, F1 2*2/(3+4)
    head = bracket_f1(read_bracketed(pairs[0][0]),
                      read_bracketed(pairs[0][1]))
    for name, got, want in (("LR", head.recall, 66.67),
                            ("LP", head.precision, 50.00),
                            ("F1", head.f1, 57.14)):
        if abs(got - want) > 0.005:
            bad.append(f"{name} {got:.2f} != {want:.2f}")
    for idx, (gold, pred, g, p, m) in enumerate(pairs, start=1):
        report = bracket_f1(read_bracketed(gold), read_bracketed(pred))
        counts = (report.bracket_gold, report.bracket_pred,
                  report.bracket_match)
        if counts != (g, p, m):
            bad.append(f"pair {idx} counts {counts} != {(g, p, m)}")
    golds, preds = [], []
    for gold, pred, *_ in pairs:
        golds.extend(read_bracketed(gold))
        preds.extend(read_bracketed(pred))
    combined = bracket_f1(golds, preds)
    # totals by hand: 12 matches over 17 gold and 16 predicted brackets
    for name, got, want in (("micro LR", combined.recall, 70.59),
                            ("micro LP", combined.precision, 75.00),
                            ("micro F1", combined.f1, 72.73),
                            ("exact", combined.exact_rate, 20.00)):
        if abs(got - want) > 0.005:
            bad.append(f"{name} {got:.2f} != {want:.2f}")
    gold_dep = read_conll("\n".join([
        "1\tdogs\t_\tNNS\tNNS\t_\t2\tnsubj\t_\t_",
        "2\tran\t_\tVBD\tVBD\t_\t0\troot\t_\t_",
        "3\thome\t_\tNN\tNN\t_\t2\tdobj\t_\t_",
    ]))
    pred_dep = read_conll("\n".join([
        "1\tdogs\t_\tNNS\tNNS\t_\t2\tdet\t_\t_",
        "2\tran\t_\tVBD\tVBD\t_\t0\troot\t_\t_",
        "3\thome\t_\tNN\tNN\t_\t2\tdobj\t_\t_",
    ]))
    attach = attachment_scores(gold_dep, pred_dep)
    if abs(attach.uas - 100.0) > 0.005:
        bad.append(f"UAS {attach.uas:.2f} != 100.00")
    if abs(attach.las - 66.67) > 0.005:
        bad.append(f"LAS {attach.las:.2f} != 66.67")
    ok = not bad
    announce(9, ok,
            "evaluation arithmetic: 5 bracket pairs (headline 66.67/50.00/"
            "57.14, micro 70.59/75.00/72.73, exact 20.00) and attachment "
            "100.00/66.67 all within 0.005"
            + ("" if ok else "; " + "; ".join(bad)))
    assert not bad, "; ".join(bad)
