"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.  The heavyweight criterion (the skip-operation
ablation on synthetic names) takes a few minutes; everything else runs in
seconds.
"""

import functools
import itertools
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from editcrf import (
    LabeledPair,
    NoiseConfig,
    Record,
    SamplingConfig,
    TrainConfig,
    build_model,
    classify,
    em_train,
    f1,
    generate_pairs,
    grad_check,
    incomplete_loglik,
    load_model,
    random_person_names,
    save_model,
    score_pairs,
    split_pairs,
    synthesize_names,
)
from editcrf.cli import main as cli_main
from editcrf.engine import Batch, expectations
from editcrf.lattice import _BestPaths
from conftest import oracle_terms

IDS = ("insert", "delete", "substitute")
SKIPS = (
    "skip-word-if-present-in-other-string-x",
    "skip-word-if-present-in-other-string-y",
)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def sweep():
    """Exhaustive strings over {a, b} up to length 3, 20 random weight
    vectors, with both oracle and dynamic-program values per pair."""
    model = build_model(IDS, "first-order")
    rng = np.random.default_rng(20240)
    weights = rng.uniform(-1.0, 1.0, (20, model.n_features))
    strings = [""] + [
        "".join(s) for n in (1, 2, 3) for s in itertools.product("ab", repeat=n)
    ]
    items = []
    batches = []
    t0 = time.perf_counter()
    for x in strings:
        for y in strings:
            if not x and not y:
                continue
            terms = oracle_terms(model, x, y)
            batch = Batch(model, [(x, y)])
            batches.append(batch)
            for wvec in weights:
                # Counts come from the path that training runs.
                exp = expectations(batch, wvec)
                best = _BestPaths(batch, batch.edge_weights(wvec)).alignment(0, "all")
                items.append(
                    SimpleNamespace(
                        x=x,
                        y=y,
                        dp_logz=float(exp.logz[0]),
                        dp_lz0=float(exp.lz0[0]),
                        dp_lz1=float(exp.lz1[0]),
                        dp_counts=exp.counts_all,
                        dp_viterbi=best.score,
                        oracle_logz=terms.log_z(wvec),
                        oracle_lz0=terms.constrained_log_z(wvec, 0),
                        oracle_lz1=terms.constrained_log_z(wvec, 1),
                        oracle_counts=terms.expected_counts(wvec),
                        oracle_viterbi=terms.viterbi_score(wvec),
                        weight_index=len(items),
                    )
                )
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        model=model, weights=weights, items=items, batches=batches, elapsed=elapsed
    )


@criterion(1, "oracle equivalence")
def test_criterion_1_oracle_equivalence(sweep):
    assert len(sweep.items) == 224 * 20
    for item in sweep.items:
        assert item.dp_logz == pytest.approx(item.oracle_logz, rel=1e-9)
        assert item.dp_lz0 == pytest.approx(item.oracle_lz0, rel=1e-9)
        assert item.dp_lz1 == pytest.approx(item.oracle_lz1, rel=1e-9)
        np.testing.assert_allclose(
            item.dp_counts, item.oracle_counts, rtol=1e-9, atol=1e-12
        )
        assert item.dp_viterbi == pytest.approx(item.oracle_viterbi, rel=1e-9)
    print(f"\n  sweep time {sweep.elapsed:.1f}s (target < 10s)")
    assert sweep.elapsed < 10.0


@criterion(2, "normalization")
def test_criterion_2_normalization(sweep):
    for item in sweep.items:
        p1 = np.exp(item.dp_lz1 - item.dp_logz)
        p0 = np.exp(item.dp_lz0 - item.dp_logz)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


@criterion(3, "gradient check")
def test_criterion_3_gradient_check():
    corpus = [
        LabeledPair("p0", "ab", "ba", 1),
        LabeledPair("p1", "a", "ab", 0),
        LabeledPair("p2", "ba", "ab", 1),
        LabeledPair("p3", "bb", "aa", 0),
        LabeledPair("p4", "ab", "ab", 1),
    ]
    model = build_model(IDS, "first-order")
    rng = np.random.default_rng(321)
    model = model.with_params(rng.uniform(-1.0, 1.0, model.n_features))
    err = grad_check(model, corpus, h=1e-5)
    print(f"\n  max relative gradient error {err:.3g}")
    assert err <= 1e-4


@criterion(4, "EM monotonicity and separable accuracy")
def test_criterion_4_em_monotonicity():
    corpus = []
    for k in range(10):
        corpus.append(LabeledPair(f"p{k}", "aa", "aa", 1))
        corpus.append(LabeledPair(f"n{k}", "aa", "bb", 0))
    model = build_model(IDS, "first-order")
    config = TrainConfig(em_max_iters=50, mstep_max_iters=40)
    state = em_train(model, corpus, config)
    values = [v for _, v in state.history]
    for prev, cur in zip(values, values[1:]):
        assert cur >= prev - 1e-6
    assert state.history[-1][0] <= 50
    trained = model.with_params(state.params)
    counts = classify(score_pairs(trained, corpus), 0.5)
    assert counts.tp == 10 and counts.tn == 10 and counts.fp == 0 and counts.fn == 0


def _names_corpus(seed):
    names = random_person_names(200, seed=seed)
    noise = NoiseConfig(
        record_error_prob=0.4,
        typo_insert_prob=0.4,
        typo_delete_prob=0.4,
        typo_swap_prob=0.4,
        word_swap_prob=0.5,
        seed=seed,
    )
    records = synthesize_names(names, noise, duplicates_per_name=3)
    pairs = generate_pairs(records, SamplingConfig(ratio=10, filter="jaro-top", seed=seed))
    return split_pairs(pairs, 0.5, seed=seed, mode="pair")


def _train_f1(ops, train, test, config):
    model = build_model(ops, "first-order")
    state = em_train(model, train, config)
    trained = model.with_params(state.params)
    return f1(classify(score_pairs(trained, test), 0.5))


@criterion(5, "skip-operation ablation direction")
def test_criterion_5_skip_ablation():
    t0 = time.perf_counter()
    config = TrainConfig(em_max_iters=2, mstep_max_iters=15)
    gaps = []
    for seed in (101, 202):
        train, test = _names_corpus(seed)
        with_skip = _train_f1(IDS + SKIPS, train, test, config)
        without_skip = _train_f1(IDS, train, test, config)
        print(f"\n  seed={seed} with={with_skip:.4f} without={without_skip:.4f}")
        gaps.append(with_skip - without_skip)
    elapsed = time.perf_counter() - t0
    print(f"  mean gap {np.mean(gaps):.4f} (target >= 0.05), time {elapsed:.0f}s")
    assert np.mean(gaps) >= 0.05
    assert elapsed < 600.0


def _address_corpus(seed, n_entities=48):
    """Street addresses: duplicates differ by letter typos in the street
    name; near-miss negatives share the street but differ in digits."""
    rng = random.Random(seed)
    streets = ["maple", "oak", "cedar", "pine", "elm", "birch", "walnut", "spruce"]
    suffixes = ["st", "ave", "rd"]
    records = []
    for e in range(n_entities):
        street = streets[e % len(streets)]
        suffix = suffixes[e % len(suffixes)]
        number = "".join(rng.choice("0123456789") for _ in range(3))
        records.append(Record(f"e{e:02d}-0", f"e{e:02d}", f"{number} {street} {suffix}"))
        for d in (1, 2):
            letters = list(street)
            k = rng.randrange(len(letters))
            roll = rng.random()
            if roll < 0.4:
                letters[k] = rng.choice("abcdefghijklmnopqrstuvwxyz")
            elif roll < 0.7 and len(letters) > 2:
                del letters[k]
            records.append(
                Record(f"e{e:02d}-{d}", f"e{e:02d}", f"{number} {''.join(letters)} {suffix}")
            )
    return records


@criterion(6, "letter/digit feature split direction")
def test_criterion_6_feature_split():
    records = _address_corpus(7)
    pairs = generate_pairs(records, SamplingConfig(ratio=10, filter="jaro-top", seed=7))
    train, test = split_pairs(pairs, 0.5, seed=7, mode="pair")
    config = TrainConfig(em_max_iters=3, mstep_max_iters=25)

    def run(feats):
        model = build_model(IDS, "first-order", predicates=feats)
        state = em_train(model, train, config)
        trained = model.with_params(state.params)
        return f1(classify(score_pairs(trained, test), 0.5))

    split_f1 = run(("salp", "dalp", "snum", "dnum"))
    plain_f1 = run(("s", "d"))
    print(f"\n  split-features F1={split_f1:.4f}  plain F1={plain_f1:.4f}")
    assert split_f1 >= plain_f1


@criterion(7, "beam soundness and monotonicity")
def test_criterion_7_beam(sweep):
    for batch in sweep.batches:
        for wvec in sweep.weights:
            w = batch.edge_weights(wvec)
            exact, pruned = batch.forward(w)
            assert not pruned
            e0, e1 = batch.log_partitions(exact)
            wide, pruned = batch.forward(w, beam=10**9)
            assert not pruned
            np.testing.assert_array_equal(wide, exact)
            prev0, prev1 = -np.inf, -np.inf
            for width in (1, 2, 3):
                alpha, _ = batch.forward(w, beam=width)
                l0, l1 = batch.log_partitions(alpha)
                assert l0[0] <= e0[0] + 1e-12 and l1[0] <= e1[0] + 1e-12
                assert l0[0] >= prev0 - 1e-12 and l1[0] >= prev1 - 1e-12
                prev0, prev1 = l0[0], l1[0]


def _run_cli_pipeline(root, seed=17):
    records = root / "records.tsv"
    pairs = root / "pairs.tsv"
    model = root / "model.json"
    scores = root / "scores.tsv"
    steps = [
        ["synth", "--random-names", "30", "--duplicates", "2", "--seed", str(seed),
         "--out", str(records)],
        ["pairs", "--records", str(records), "--ratio", "5", "--seed", str(seed),
         "--out", str(pairs)],
        ["train", "--pairs", str(pairs), "--em-iters", "1", "--mstep-iters", "10",
         "--seed", str(seed), "--out", str(model)],
        ["score", "--model", str(model), "--pairs", str(pairs), "--out", str(scores)],
    ]
    for step in steps:
        assert cli_main(step) == 0
    return records, pairs, model, scores


@criterion(8, "pipeline determinism")
def test_criterion_8_determinism(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    *_, scores_a = _run_cli_pipeline(run_a)
    *_, scores_b = _run_cli_pipeline(run_b)
    assert scores_a.read_bytes() == scores_b.read_bytes()


@criterion(9, "model round-trip fidelity")
def test_criterion_9_round_trip(tmp_path):
    train, held_out = _names_corpus_small()
    model = build_model(IDS + SKIPS, "first-order")
    state = em_train(model, train, TrainConfig(em_max_iters=1, mstep_max_iters=10))
    trained = model.with_params(state.params)
    path = tmp_path / "model.json"
    save_model(trained, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.params, trained.params)
    assert loaded.equals(trained)
    original_scores = score_pairs(trained, held_out)
    reloaded_scores = score_pairs(loaded, held_out)
    assert [(pid, f"{p:.17g}") for pid, p, _ in original_scores] == [
        (pid, f"{p:.17g}") for pid, p, _ in reloaded_scores
    ]
    assert incomplete_loglik(loaded, held_out) == incomplete_loglik(trained, held_out)


def _names_corpus_small():
    names = random_person_names(40, seed=5)
    noise = NoiseConfig(seed=5)
    records = synthesize_names(names, noise, duplicates_per_name=2)
    pairs = generate_pairs(records, SamplingConfig(ratio=5, filter="jaro-top", seed=5))
    return split_pairs(pairs, 0.5, seed=5, mode="pair")
