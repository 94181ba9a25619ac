import math

import numpy as np
import pytest
from scipy.optimize import minimize

from editcrf import (
    BeamConfig,
    InitScheme,
    LabeledPair,
    TrainConfig,
    build_model,
    default_init_scheme,
    direct_train,
    e_step,
    em_train,
    grad_check,
    incomplete_loglik,
    init_params,
    m_step,
    posterior_match,
    score_pairs,
    classify,
)
from editcrf import training
from editcrf.engine import Batch, expectations
from conftest import oracle_terms

OPS3 = ["insert", "delete", "substitute"]


def toy_separable():
    pairs = []
    for k in range(10):
        pairs.append(LabeledPair(f"p{k}", "aa", "aa", 1))
        pairs.append(LabeledPair(f"n{k}", "aa", "bb", 0))
    return pairs


def small_mixed():
    return [
        LabeledPair("p0", "ab", "ab", 1),
        LabeledPair("p1", "ba", "ab", 1),
        LabeledPair("n0", "ab", "bb", 0),
        LabeledPair("n1", "a", "bb", 0),
        LabeledPair("p2", "b", "b", 1),
    ]


def test_init_shrink_examples():
    model = build_model(OPS3, predicates=["same", "different"])
    scheme = InitScheme(
        table={"insert": {}, "delete": {}, "substitute": {"same": 1.0, "different": -0.05}},
        shrink=0.1,
    )
    params = init_params(model, scheme)
    p_same = model.predicates.index("same")
    p_diff = model.predicates.index("different")
    for g in model.groups:
        if g.op != "substitute":
            continue
        if g.subset == 1:
            assert params[model.feature_id(g.index, p_same)] == 1.0
            assert params[model.feature_id(g.index, p_diff)] == -0.05
        else:
            assert params[model.feature_id(g.index, p_same)] == pytest.approx(0.9)
            assert params[model.feature_id(g.index, p_diff)] == 0.0  # clamped


def test_init_zero_shrink_gives_symmetric_model():
    model = build_model(OPS3)
    scheme = default_init_scheme(model.ops)
    symmetric = InitScheme(table=scheme.table, shrink=0.0)
    trained = model.with_params(init_params(model, symmetric))
    for x, y in [("aa", "aa"), ("ab", "ba")]:
        assert posterior_match(trained, x, y) == pytest.approx(0.5, abs=1e-12)


def test_init_requires_full_coverage():
    model = build_model(OPS3)
    with pytest.raises(ValueError, match="substitute"):
        init_params(model, InitScheme(table={"insert": {}, "delete": {}}))


def test_incomplete_loglik_zero_weights():
    model = build_model(OPS3)
    corpus = [LabeledPair("a", "ab", "ba", 1), LabeledPair("b", "ab", "bb", 0)]
    assert incomplete_loglik(model, corpus) == pytest.approx(2 * math.log(0.5), abs=1e-12)


def test_penalized_equals_unpenalized_at_zero_weights():
    model = build_model(OPS3)
    corpus = [LabeledPair("a", "ab", "ba", 1)]
    assert incomplete_loglik(model, corpus, sigma2=1.0) == incomplete_loglik(model, corpus)


def test_loglik_is_negative():
    model = build_model(OPS3)
    rng = np.random.default_rng(1)
    model = model.with_params(rng.uniform(-1, 1, model.n_features))
    assert incomplete_loglik(model, small_mixed()) < 0


def test_e_step_matches_constrained_oracle():
    model0 = build_model(OPS3)
    rng = np.random.default_rng(9)
    model = model0.with_params(rng.uniform(-1, 1, model0.n_features))
    corpus = [LabeledPair("p", "ab", "ba", 1)]
    result = e_step(model, corpus)
    terms = oracle_terms(model, "ab", "ba")
    np.testing.assert_allclose(
        result.clamped_total, terms.expected_counts(model.params, 1), atol=1e-9
    )
    np.testing.assert_allclose(result.per_pair_counts[0], result.clamped_total, atol=1e-9)


def test_e_step_per_pair_counts_match_oracle_on_mixed_corpus():
    model0 = build_model(OPS3)
    rng = np.random.default_rng(19)
    model = model0.with_params(rng.uniform(-1, 1, model0.n_features))
    corpus = small_mixed()
    result = e_step(model, corpus)
    assert len(result.per_pair_counts) == len(corpus)
    for row, p in zip(result.per_pair_counts, corpus):
        want = oracle_terms(model, p.x, p.y).expected_counts(model.params, p.z)
        np.testing.assert_allclose(row, want, atol=1e-9)
    np.testing.assert_allclose(
        np.sum(result.per_pair_counts, axis=0), result.clamped_total, atol=1e-12
    )


def test_counts_do_not_depend_on_batches_built_before():
    rng = np.random.default_rng(23)
    base = build_model(OPS3 + ["swap-two-characters"])
    params = rng.uniform(-1, 1, base.n_features)
    corpus = [
        LabeledPair(str(k), x, y, k % 2)
        for k, (x, y) in enumerate([("jon smith", "john smyth"), ("a.b-c", "abc"), ("12 (x)", "21 x"),
                                    ("acme", "acne"), ("q", "q9.")])
    ]
    fresh, used = base.with_params(params), base.with_params(params)
    Batch(used, [(p.y[::-1], p.x[::-1]) for p in corpus])
    results = []
    for model in (fresh, used):
        batch = Batch(model, [(p.x, p.y) for p in corpus])
        results.append((e_step(model, corpus).clamped_total, expectations(batch, params).counts_all))
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def test_e_step_single_pair_aggregate():
    model = build_model(OPS3)
    corpus = [LabeledPair("p", "a", "b", 0)]
    result = e_step(model, corpus)
    assert len(result.per_pair_counts) == 1
    np.testing.assert_allclose(result.clamped_total, result.per_pair_counts[0], atol=1e-12)


def test_m_step_gradient_at_zero_matches_oracle():
    model = build_model(OPS3)
    corpus = [LabeledPair("p", "ab", "ba", 1)]
    terms = oracle_terms(model, "ab", "ba")
    clamped = terms.expected_counts(model.params, 1)
    unconstrained = terms.expected_counts(model.params, "all")
    # the analytic gradient of Q at zero weights has no prior term
    from editcrf.engine import Batch, expectations

    batch = Batch(model, [("ab", "ba")])
    exp = expectations(batch, model.params)
    np.testing.assert_allclose(clamped - exp.counts_all, clamped - unconstrained, atol=1e-9)


def test_m_step_reaches_gradient_tolerance():
    model = build_model(OPS3)
    corpus = small_mixed()
    result = e_step(model, corpus, keep_per_pair=False)
    config = TrainConfig(mstep_max_iters=500, mstep_grad_tol=1e-6)
    new_params = m_step(model, result.clamped_total, corpus, config)
    # gradient of Q at the optimum
    from editcrf.engine import Batch, expectations

    batch = Batch(model, [(p.x, p.y) for p in corpus])
    exp = expectations(batch, new_params)
    grad = result.clamped_total - exp.counts_all - 2 * new_params / config.sigma2
    assert np.abs(grad).max() <= 1e-6 * 1.01


def test_m_step_never_decreases_q():
    model = build_model(OPS3)
    corpus = small_mixed()
    rng = np.random.default_rng(2)
    model = model.with_params(rng.uniform(-0.5, 0.5, model.n_features))
    result = e_step(model, corpus, keep_per_pair=False)
    config = TrainConfig(mstep_max_iters=3)

    def q_of(params):
        from editcrf.engine import Batch, expectations

        batch = Batch(model, [(p.x, p.y) for p in corpus])
        exp = expectations(batch, params, want_counts=False)
        return float(
            result.clamped_total @ params
            - np.sum(exp.logz)
            - np.sum(params**2) / config.sigma2
        )

    new_params = m_step(model, result.clamped_total, corpus, config)
    assert q_of(new_params) >= q_of(np.array(model.params)) - 1e-9


def test_tiny_sigma2_forces_weights_to_zero():
    model = build_model(OPS3)
    corpus = toy_separable()
    state = em_train(model, corpus, TrainConfig(sigma2=1e-6, em_max_iters=3, mstep_max_iters=50))
    assert np.abs(state.params).max() < 1e-3


def test_em_toy_separable_reaches_perfect_accuracy():
    model = build_model(OPS3)
    corpus = toy_separable()
    state = em_train(model, corpus, TrainConfig(em_max_iters=50, mstep_max_iters=40))
    trained = model.with_params(state.params)
    scores = score_pairs(trained, corpus)
    counts = classify(scores, 0.5)
    assert counts.tp == 10 and counts.tn == 10 and counts.fp == 0 and counts.fn == 0


def test_em_zero_iterations_returns_init():
    model = build_model(OPS3)
    corpus = toy_separable()
    state = em_train(model, corpus, TrainConfig(em_max_iters=0))
    np.testing.assert_array_equal(state.params, init_params(model))
    assert len(state.history) == 1
    assert state.history[0][0] == 0


def test_em_history_is_monotone():
    model = build_model(OPS3)
    corpus = small_mixed()
    state = em_train(model, corpus, TrainConfig(em_max_iters=8, mstep_max_iters=10))
    values = [v for _, v in state.history]
    for prev, cur in zip(values, values[1:]):
        assert cur >= prev - 1e-6


def test_em_deterministic_trajectory():
    model = build_model(OPS3)
    corpus = small_mixed()
    config = TrainConfig(em_max_iters=4, mstep_max_iters=15, seed=7)
    a = em_train(model, corpus, config)
    b = em_train(model, corpus, config)
    assert a.history == b.history
    np.testing.assert_array_equal(a.params, b.params)


def test_larger_sigma2_never_hurts_training_fit():
    model = build_model(OPS3)
    corpus = toy_separable()
    fits = []
    for sigma2 in (0.1, 10.0):
        state = em_train(
            model, corpus, TrainConfig(sigma2=sigma2, em_max_iters=20, mstep_max_iters=60)
        )
        trained = model.with_params(state.params)
        fits.append(incomplete_loglik(trained, corpus))
    assert fits[1] >= fits[0] - 1e-9


def test_direct_train_improves_likelihood():
    model = build_model(OPS3)
    corpus = small_mixed()
    state = direct_train(model, corpus, TrainConfig(em_max_iters=3, mstep_max_iters=30))
    first = state.history[0][1]
    last = state.history[-1][1]
    assert last >= first


def test_direct_train_evaluates_each_point_once(monkeypatch):
    """The iteration log reuses the objective evaluation L-BFGS just made."""
    calls, evals = [0], []
    full_gradient, lbfgs = training._full_gradient, training.minimize

    def counting_gradient(*args, **kwargs):
        calls[0] += 1
        return full_gradient(*args, **kwargs)

    def recording_minimize(*args, **kwargs):
        result = lbfgs(*args, **kwargs)
        evals.append(result.nfev)
        return result

    monkeypatch.setattr(training, "_full_gradient", counting_gradient)
    monkeypatch.setattr(training, "minimize", recording_minimize)
    state = direct_train(build_model(OPS3), small_mixed(), TrainConfig(em_max_iters=3, mstep_max_iters=30))
    assert len(state.history) > 2
    assert calls[0] <= evals[0]


def test_m_step_evaluates_its_start_point_once(monkeypatch):
    model = build_model(OPS3).with_params(init_params(build_model(OPS3)))
    corpus = small_mixed()
    clamped = e_step(model, corpus).clamped_total
    points = []

    def recording_expectations(batch, params, *args, **kwargs):
        points.append(np.array(params))
        return expectations(batch, params, *args, **kwargs)

    monkeypatch.setattr(training, "expectations", recording_expectations)
    m_step(model, clamped, corpus, TrainConfig(mstep_max_iters=5))
    assert len(points) > 1
    assert sum(np.array_equal(p, model.params) for p in points) == 1


def test_soft_em_m_step_starts_from_the_e_step_pass(monkeypatch):
    """Each soft-EM iteration runs one E-step pass and one pass per L-BFGS
    evaluation except the first, at the point the E-step has just done."""
    passes, nfev = [], []

    def counting_expectations(*args, **kwargs):
        passes.append("e" if kwargs.get("labels") is not None else "m")
        return expectations(*args, **kwargs)

    def counting_minimize(*args, **kwargs):
        result = minimize(*args, **kwargs)
        nfev.append(result.nfev)
        return result

    monkeypatch.setattr(training, "expectations", counting_expectations)
    monkeypatch.setattr(training, "minimize", counting_minimize)
    state = em_train(build_model(OPS3), small_mixed(), TrainConfig(em_max_iters=3, mstep_max_iters=5))
    iters = len(state.history) - 1
    assert iters >= 2 and len(nfev) == iters
    assert passes.count("e") == iters + 1
    assert passes.count("m") == sum(nfev) - iters


def test_soft_em_start_point_reuse_changes_nothing(monkeypatch):
    model, corpus, config = build_model(OPS3), small_mixed(), TrainConfig(em_max_iters=3, mstep_max_iters=5)
    reused = em_train(model, corpus, config)
    mstep = training._mstep_on_batch
    monkeypatch.setattr(
        training, "_mstep_on_batch", lambda batch, clamped, p, config, start=None: mstep(batch, clamped, p, config)
    )
    fresh = em_train(model, corpus, config)
    np.testing.assert_array_equal(reused.params, fresh.params)
    assert reused.history == fresh.history


def test_beam_config_equals_its_width():
    model = build_model(OPS3)
    trained = model.with_params(init_params(model))
    scores = score_pairs(trained, small_mixed(), beam=2)
    assert scores != score_pairs(trained, small_mixed())
    assert score_pairs(trained, small_mixed(), beam=BeamConfig(2)) == scores
    # One-character pairs keep paths in both subsets under any beam.
    corpus = [LabeledPair(f"{a}{b}", a, b, int(a == b)) for a in "ab" for b in "ab"]
    config = dict(em_max_iters=2, mstep_max_iters=5)
    by_config = em_train(model, corpus, TrainConfig(beam=BeamConfig(2), **config))
    by_width = em_train(model, corpus, TrainConfig(beam=2, **config))
    np.testing.assert_array_equal(by_config.params, by_width.params)
    assert by_config.history == by_width.history


@pytest.mark.parametrize("width", [2, 3])
def test_beam_counts_are_the_gradient_of_the_beam_log_partition(width):
    """Under a beam, the unconstrained counts that the M-step uses as the
    gradient of sum log Z must be that of the pruned log Z, which central
    differences give while the cut set stays put."""
    model = build_model(OPS3)
    batch = Batch(model, [("john", "jon"), ("smyth", "smith"), ("abc", "cba"), ("mary", "marie")])
    params = np.random.default_rng(3).normal(0, 1, model.n_features)
    exp = expectations(batch, params, beam=width)
    assert exp.pruned
    h = 1e-5
    fd = np.empty(model.n_features)
    for k in range(model.n_features):
        step = np.zeros(model.n_features)
        step[k] = h
        hi, lo = (expectations(batch, params + s, beam=width, want_counts=False) for s in (step, -step))
        fd[k] = (np.sum(hi.logz) - np.sum(lo.logz)) / (2 * h)
    np.testing.assert_allclose(exp.counts_all, fd, rtol=0, atol=1e-6)


def test_viterbi_mode_trains_and_improves():
    model = build_model(OPS3)
    corpus = toy_separable()
    state = em_train(
        model, corpus, TrainConfig(em_max_iters=3, mstep_max_iters=20), inference="viterbi"
    )
    values = [v for _, v in state.history]
    assert values[-1] >= values[0]
    trained = model.with_params(state.params)
    scores = score_pairs(trained, corpus, inference="viterbi")
    counts = classify(scores, 0.5)
    assert counts.tp == 10 and counts.tn == 10


def test_grad_check_small_corpus():
    model = build_model(OPS3)
    rng = np.random.default_rng(13)
    model = model.with_params(rng.uniform(-1, 1, model.n_features))
    err = grad_check(model, small_mixed(), h=1e-5)
    assert err <= 1e-4


def test_grad_check_large_step_degrades():
    model = build_model(OPS3)
    rng = np.random.default_rng(13)
    model = model.with_params(rng.uniform(-1, 1, model.n_features))
    fine = grad_check(model, small_mixed(), h=1e-5)
    coarse = grad_check(model, small_mixed(), h=1e-1)
    assert coarse > fine


def test_grad_check_guards():
    model = build_model(OPS3)
    with pytest.raises(ValueError):
        grad_check(model, [LabeledPair("p", "abcde", "a", 1)])
    lex_model = build_model(OPS3 + ["skip-any-word-x"])
    with pytest.raises(ValueError):
        grad_check(lex_model, [LabeledPair("p", "ab", "a", 1)])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(sigma2=0.0)
    with pytest.raises(ValueError):
        TrainConfig(em_tol=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beam=0)
