import sys
import threading

import numpy as np
import pytest

from editcrf import (
    LabeledPair,
    TrainConfig,
    Variant,
    accuracy_coverage,
    build_model,
    classify,
    f1,
    run_ablation,
    score_pairs,
)
from editcrf.evaluation import (
    Counts,
    apply_transitive_closure,
    precision,
    recall,
    report,
)


def test_classify_tie_predicts_mismatch():
    counts = classify([("p", 0.5, 1)], 0.5)
    assert counts.fn == 1 and counts.tp == 0


def test_classify_symmetric_model_scores():
    counts = classify([("a", 0.5, 1), ("b", 0.5, 0)], 0.5)
    assert counts.tp == 0 and counts.fp == 0


def test_classify_strictly_above_threshold():
    counts = classify([("p", 0.51, 1)], 0.5)
    assert counts.tp == 1


def test_classify_rejects_out_of_range():
    with pytest.raises(ValueError, match="pp"):
        classify([("pp", 1.2, 1)], 0.5)


def test_f1_formula():
    counts = Counts(tp=1, fp=1, fn=0, tn=0)
    assert precision(counts) == 0.5
    assert recall(counts) == 1.0
    assert f1(counts) == pytest.approx(2 / 3)


def test_f1_empty_counts_flagged():
    counts = Counts(tp=0, fp=0, fn=0, tn=5)
    assert f1(counts) == 0.0
    r = report([("a", 0.1, 0)] * 1, 0.5)
    assert r.empty_positives


def test_f1_perfect():
    assert f1(Counts(tp=5, fp=0, fn=0, tn=5)) == 1.0


def test_f1_monotone_threshold():
    scores = [("a", 0.9, 1), ("b", 0.6, 0), ("c", 0.4, 1), ("d", 0.2, 0)]
    prev_tp = prev_fp = 10**9
    for t in (0.1, 0.5, 0.8):
        counts = classify(scores, t)
        assert counts.tp <= prev_tp and counts.fp <= prev_fp
        prev_tp, prev_fp = counts.tp, counts.fp


def test_accuracy_coverage_all_correct():
    scores = [("a", 0.9, 1), ("b", 0.8, 1), ("c", 0.1, 0)]
    curve = accuracy_coverage(scores)
    assert [acc for _, acc in curve] == [1.0, 1.0, 1.0]
    assert curve[-1][0] == 1.0


def test_accuracy_coverage_top_item_wrong():
    scores = [("a", 0.9, 0), ("b", 0.8, 1)]
    curve = accuracy_coverage(scores)
    assert curve[0][1] == 0.0


def test_accuracy_coverage_empty():
    assert accuracy_coverage([]) == []


def test_transitive_closure_links_chain():
    pairs = [
        LabeledPair("ab", "a", "b", 1),
        LabeledPair("bc", "b", "c", 1),
        LabeledPair("ac", "a", "c", 1),
    ]
    scores = [("ab", 0.9, 1), ("bc", 0.9, 1), ("ac", 0.1, 1)]
    predictions = apply_transitive_closure(pairs, scores, 0.5)
    assert predictions["ac"] == 1


def separable_pairs(n=12):
    pairs = []
    for k in range(n):
        pairs.append(LabeledPair(f"p{k}", "aa", "aa", 1))
        pairs.append(LabeledPair(f"n{k}", "aa", "bb", 0))
    return pairs


def fast_config():
    return TrainConfig(em_max_iters=2, mstep_max_iters=15)


def test_ablation_single_variant():
    rows = run_ablation(
        separable_pairs(),
        [Variant(name="ids", ops=("insert", "delete", "substitute"))],
        config=fast_config(),
        fold_swap=False,
    )
    assert len(rows) == 1
    assert rows[0].error is None
    assert rows[0].f1_mean == pytest.approx(1.0)


def test_ablation_reproducible():
    variants = [Variant(name="ids", ops=("insert", "delete", "substitute"))]
    a = run_ablation(separable_pairs(), variants, config=fast_config(), seed=4)
    b = run_ablation(separable_pairs(), variants, config=fast_config(), seed=4)
    assert a == b


def test_ablation_failed_variant_does_not_abort():
    variants = [
        Variant(name="broken", ops=("insert",)),
        Variant(name="ids", ops=("insert", "delete", "substitute")),
    ]
    rows = run_ablation(separable_pairs(), variants, config=fast_config(), fold_swap=False)
    assert rows[0].error is not None
    assert rows[1].error is None


def test_ablation_requires_variants():
    with pytest.raises(ValueError):
        run_ablation(separable_pairs(), [], config=fast_config())


def test_fold_report_averages():
    from editcrf.evaluation import fold_report

    fold_a = [("a", 0.9, 1), ("b", 0.1, 0)]
    fold_b = [("c", 0.9, 1), ("d", 0.9, 0)]
    r = fold_report([fold_a, fold_b], 0.5)
    assert r.fold_f1 == (1.0, pytest.approx(2 / 3))
    assert r.f1 == pytest.approx((1.0 + 2 / 3) / 2)
    assert r.counts.tp == 2 and r.counts.fp == 1


def test_ablation_viterbi_inference_mode():
    variants = [
        Variant(name="hard", ops=("insert", "delete", "substitute"), inference="viterbi"),
    ]
    rows = run_ablation(separable_pairs(4), variants, config=fast_config(), fold_swap=False)
    assert rows[0].error is None
    assert 0.0 <= rows[0].f1_mean <= 1.0


def test_concurrent_scoring_on_shared_model_matches_serial():
    rng = np.random.default_rng(11)
    alphabet = list("abcdefghij0123456789.-() ")

    def text():
        return "".join(rng.choice(alphabet, rng.integers(1, 7)))

    pairs = [LabeledPair(str(k), text(), text(), k % 2) for k in range(200)]
    base = build_model(["insert", "delete", "substitute", "swap-two-characters"])
    params = rng.uniform(-1, 1, base.n_features)
    want = [score_pairs(base.with_params(params), [p])[0][1] for p in pairs]
    # A model object nothing has been compiled for: every pair the threads
    # score is new to it.
    shared = base.with_params(params)
    orders = [rng.permutation(len(pairs)) for _ in range(4)]
    results, errors = [None] * len(orders), []

    def work(t):
        try:
            got = {k: score_pairs(shared, [pairs[k]])[0][1] for k in orders[t]}
            results[t] = [got[k] for k in range(len(pairs))]
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert results == [want] * len(orders)
