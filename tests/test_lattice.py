import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import logsumexp

from editcrf import (
    Alignment,
    BeamConfig,
    backward,
    build_model,
    constrained_log_partition,
    enumerate_alignments,
    expected_feature_counts,
    forward,
    log_partition,
    log_potential,
    posterior_match,
    viterbi,
)
from editcrf import edits
from editcrf.engine import MAX, Batch, _Cells, expectations
from editcrf.errors import DegenerateInputError, NoPathError
from editcrf.features import LexiconSet, eval_predicate
from editcrf.lattice import _BestPaths, alignment_feature_counts
from editcrf.model import Q0
from conftest import oracle_terms

SKIP_PRESENT = [edits.SKIP_PRES_X, edits.SKIP_PRES_Y]

# Pairs for the word-level operations: every separator, nested and
# unbalanced parentheses, dotted and all-caps abbreviations, digits, mixed
# case, lexicon words, and an empty x and an empty y.
WORDY_PAIRS = [
    ("Proc. ACM (SIGMOD), 1999", "porceedings of the ACM sigmod: 1999"),
    ('J. SMITH; DEPT "R&D"', "john smith, Department of R&D"),
    ("((a) b (c", "x) y (z"),
    ("IBM corp.", "International Business Machines Corp"),
    ("", "the lab"),
    ("Lab (of) MIT", ""),
    ("a1-B2 c3;d", "A1 b2-C3 (d)"),
]


def with_same_substitute_weight(model, value=1.0):
    params = np.array(model.params)
    p_idx = model.predicates.index("same")
    for g in model.groups:
        if g.op == "substitute" and g.subset == 1:
            params[model.feature_id(g.index, p_idx)] = value
    return model.with_params(params)


def test_zero_weight_log_partition_counts_paths(ids_model):
    lat = forward(ids_model, "a", "b")
    assert log_partition(lat) == pytest.approx(math.log(6), abs=1e-12)
    assert constrained_log_partition(lat, 0) == pytest.approx(math.log(3), abs=1e-12)
    assert constrained_log_partition(lat, 1) == pytest.approx(math.log(3), abs=1e-12)


def test_enumeration_counts(ids_model):
    assert len(enumerate_alignments(ids_model, "a", "b")) == 6
    assert len(enumerate_alignments(ids_model, "a", "")) == 2
    assert len(enumerate_alignments(ids_model, "ab", "")) == 2


def test_both_empty_is_degenerate(ids_model):
    with pytest.raises(DegenerateInputError):
        forward(ids_model, "", "")
    with pytest.raises(DegenerateInputError):
        enumerate_alignments(ids_model, "", "")


def test_posterior_symmetric_model_is_half(ids_model):
    assert posterior_match(ids_model, "a", "b") == pytest.approx(0.5, abs=1e-12)
    assert posterior_match(ids_model, "abc", "a") == pytest.approx(0.5, abs=1e-12)


def test_posterior_weighted_example(ids_model):
    model = with_same_substitute_weight(ids_model)
    expected = (math.e + 2) / (math.e + 5)
    assert posterior_match(model, "a", "a") == pytest.approx(expected, rel=1e-12)


def test_posterior_normalization(ids_model):
    rng = np.random.default_rng(11)
    model = ids_model.with_params(rng.uniform(-1, 1, ids_model.n_features))
    for x, y in [("a", "b"), ("ab", "ba"), ("aab", "b")]:
        p1 = posterior_match(model, x, y)
        lat = forward(model, x, y)
        p0 = math.exp(constrained_log_partition(lat, 0) - log_partition(lat))
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_log_potential_zero_weights_and_linearity(ids_model):
    assert log_potential(ids_model, "a", "a", 0, 0, (1, 1), 0, "substitute", 2) == 0.0
    rng = np.random.default_rng(5)
    params = rng.uniform(-1, 1, ids_model.n_features)
    m1 = ids_model.with_params(params)
    base = log_potential(m1, "a", "a", 0, 0, (1, 1), 0, "substitute", 2)
    from editcrf.features import extract

    vec = extract(m1, "a", "a", 0, 0, (1, 1), 0, "substitute", 2)
    m2 = ids_model.with_params(params + 0.25)
    shifted = log_potential(m2, "a", "a", 0, 0, (1, 1), 0, "substitute", 2)
    assert shifted == pytest.approx(base + 0.25 * len(vec), rel=1e-12)


def test_log_potential_validates_landing(ids_model):
    with pytest.raises(ValueError):
        log_potential(ids_model, "a", "a", 0, 0, (2, 2), 0, "substitute", 2)


def test_backward_boundary_and_start_cut(ids_model):
    lat = backward(ids_model, "a", "b")
    for state in (1, 2):
        assert lat.beta_at(1, 1, state) == 0.0
    assert lat.alpha_at(0, 0, 0) == 0.0
    assert lat.beta_at(0, 0, 0) == pytest.approx(math.log(6), abs=1e-12)


def _cut_mass(lat, d):
    """Alpha+beta mass crossing anti-diagonal d: nodes on the diagonal
    plus edges that jump over it."""
    batch = lat.batch
    nx, ny, n_states = int(batch.nx[0]), int(batch.ny[0]), len(batch.runtime.states)
    terms = []
    for i in range(nx + 1):
        j = d - i
        if not 0 <= j <= ny:
            continue
        for state in ([0] if d == 0 else []) + list(batch.runtime.states):
            a = lat.alpha_at(i, j, state)
            b = lat.beta_at(i, j, state)
            if np.isfinite(a) and np.isfinite(b):
                terms.append(a + b)
    dst_cell = (batch.dst - 1) // n_states
    dst_diag = dst_cell // (ny + 1) + dst_cell % (ny + 1)
    spanning = np.flatnonzero((batch.src_diag < d) & (dst_diag > d))
    for k in spanning:
        a = lat.alpha[batch.src[k]]
        b = lat.beta[batch.dst[k]]
        if np.isfinite(a) and np.isfinite(b):
            terms.append(a + lat.w[k] + b)
    return logsumexp(terms)


def test_anti_diagonal_cuts_reproduce_log_z(ids_model):
    rng = np.random.default_rng(3)
    model = ids_model.with_params(rng.uniform(-1, 1, ids_model.n_features))
    for x, y in [("ab", "ba"), ("aab", "bb"), ("a", "bbb")]:
        lat = backward(model, x, y)
        lz = log_partition(lat)
        for d in range(len(x) + len(y) + 1):
            assert _cut_mass(lat, d) == pytest.approx(lz, abs=1e-9)


def test_expected_counts_match_oracle(ids_model):
    rng = np.random.default_rng(17)
    for x, y in [("a", "b"), ("ab", "ba"), ("aab", "ba")]:
        terms = oracle_terms(ids_model, x, y)
        for _ in range(3):
            model = ids_model.with_params(rng.uniform(-1, 1, ids_model.n_features))
            for constraint in ("all", 0, 1):
                got = expected_feature_counts(model, x, y, constraint)
                want = terms.expected_counts(model.params, constraint)
                np.testing.assert_allclose(got, want, atol=1e-9)


def test_expected_counts_symmetric_subsets(ids_model):
    counts = expected_feature_counts(ids_model, "a", "b", "all")
    by_label = {}
    for g in ids_model.groups:
        key = (g.op, g.label.endswith(":q0"))
        by_label.setdefault(key, {})[g.subset] = g.index
    bias = len(ids_model.predicates) - 1
    for key, sides in by_label.items():
        c0 = counts[ids_model.feature_id(sides[0], bias)]
        c1 = counts[ids_model.feature_id(sides[1], bias)]
        assert c0 == pytest.approx(c1, abs=1e-12)


def test_expected_counts_inactive_predicate_is_zero(ids_model):
    counts = expected_feature_counts(ids_model, "a", "b", "all")
    p_idx = ids_model.predicates.index("same-numeric")
    for g in ids_model.groups:
        assert counts[ids_model.feature_id(g.index, p_idx)] == 0.0


def test_viterbi_weighted_single_substitute(ids_model):
    model = with_same_substitute_weight(ids_model)
    best = viterbi(model, "a", "a", "all")
    assert best.edits == ("substitute",)
    assert best.states == (2,)
    assert best.score == pytest.approx(1.0, abs=1e-12)


def test_viterbi_zero_weight_tie_break(ids_model):
    best = viterbi(ids_model, "a", "b", "all")
    assert best.edits == ("substitute",)
    assert best.states == (1,)
    assert best.ix == (1,) and best.iy == (1,)


def test_viterbi_tie_break_matches_oracle():
    """Weights in {-1, 0, 1} make exact score ties common; the chosen path
    is the oracle's maximum-score path that is shortest, then smallest by
    operation names, then by state ids, in one-pair and multi-pair batches."""
    rng = np.random.default_rng(71)
    strings = [""] + ["".join(s) for n in (1, 2, 3) for s in itertools.product("ab", repeat=n)]
    pairs = [(x, y) for x in strings for y in strings if x or y]
    for ops in (["insert", "delete", "substitute"], ["insert", "delete", "substitute", "swap-two-characters"]):
        model0 = build_model(ops, "first-order")
        params_list = [np.zeros(model0.n_features)] + [
            rng.integers(-1, 2, model0.n_features).astype(float) for _ in range(2)
        ]
        listed = {
            (x, y): [
                (a, alignment_feature_counts(model0, x, y, a), int(a.states[0] in model0.topology.s1))
                for a, _ in enumerate_alignments(model0, x, y)
            ]
            for x, y in pairs
        }
        for params in params_list:
            model = model0.with_params(params)
            batch = Batch(model, pairs)
            paths = _BestPaths(batch, batch.edge_weights(params))
            for k, (x, y) in enumerate(pairs):
                for constraint in ("all", 0, 1):
                    best = min(
                        (-float(counts @ params), len(a.edits), a.edits, a.states, a)
                        for a, counts, subset in listed[(x, y)]
                        if constraint in ("all", subset)
                    )
                    want = Alignment(best[4].edits, best[4].ix, best[4].iy, best[4].states, -best[0])
                    got = viterbi(model, x, y, constraint)
                    assert got == want, (ops, params, x, y, constraint)
                    assert paths.alignment(k, constraint)[0] == got


def test_viterbi_score_bounded_by_log_partition(ids_model):
    rng = np.random.default_rng(23)
    for _ in range(5):
        model = ids_model.with_params(rng.uniform(-1, 1, ids_model.n_features))
        lat = forward(model, "ab", "bba")
        assert viterbi(model, "ab", "bba").score <= log_partition(lat) + 1e-12


def test_viterbi_constrained_matches_oracle(ids_model):
    rng = np.random.default_rng(29)
    terms = oracle_terms(ids_model, "ab", "ba")
    for _ in range(5):
        model = ids_model.with_params(rng.uniform(-1, 1, ids_model.n_features))
        for z in (0, 1):
            got = viterbi(model, "ab", "ba", z).score
            assert got == pytest.approx(terms.viterbi_score(model.params, z), abs=1e-9)


def test_dp_matches_oracle_small_sweep(ids_model):
    rng = np.random.default_rng(41)
    strings = ["", "a", "b", "ab", "ba", "bb"]
    weights = [rng.uniform(-1, 1, ids_model.n_features) for _ in range(5)]
    for x in strings:
        for y in strings:
            if not x and not y:
                continue
            terms = oracle_terms(ids_model, x, y)
            for params in weights:
                model = ids_model.with_params(params)
                lat = forward(model, x, y)
                assert log_partition(lat) == pytest.approx(
                    terms.log_z(params), rel=1e-9
                )
                for z in (0, 1):
                    assert constrained_log_partition(lat, z) == pytest.approx(
                        terms.constrained_log_z(params, z), rel=1e-9
                    )
                assert posterior_match(model, x, y) == pytest.approx(
                    terms.posterior_match(params), rel=1e-9
                )
                assert viterbi(model, x, y).score == pytest.approx(
                    terms.viterbi_score(params), rel=1e-9
                )


def test_unlimited_beam_equals_wide_beam(ids_model):
    rng = np.random.default_rng(7)
    model = ids_model.with_params(rng.uniform(-1, 1, ids_model.n_features))
    exact = forward(model, "ab", "ba")
    wide = forward(model, "ab", "ba", beam=BeamConfig(width=10_000))
    np.testing.assert_array_equal(exact.alpha, wide.alpha)
    assert not wide.pruned


def test_narrow_beam_lower_bounds_mass(ids_model):
    lat = forward(ids_model, "ab", "ba", beam=1)
    lz0, lz1 = lat.batch.log_partitions(lat.alpha)
    exact = forward(ids_model, "ab", "ba")
    e0, e1 = exact.batch.log_partitions(exact.alpha)
    assert lz0[0] <= e0[0] + 1e-12
    assert lz1[0] <= e1[0] + 1e-12
    assert lat.pruned


def test_beam_width_validation():
    with pytest.raises(ValueError):
        BeamConfig(width=0)


def test_no_path_error_under_substitute_only():
    model = build_model(["substitute"])
    lat = forward(model, "ab", "b")
    with pytest.raises(NoPathError):
        log_partition(lat)


def test_mask_grid_matches_eval_predicate():
    model = build_model(["insert", "delete", "substitute"])
    x, y = "a1(b.", "B1 a."
    mask = _Cells([x], [y]).masks(model.predicates).reshape(len(x) + 1, len(y) + 1)
    for i in range(len(x) + 1):
        for j in range(len(y) + 1):
            for bit, name in enumerate(model.predicates):
                assert (mask[i, j] >> bit) & 1 == eval_predicate(name, x, y, i, j)


def test_batch_of_many_matches_per_pair(ids_model):
    rng = np.random.default_rng(55)
    pairs = [("a", "b"), ("ab", "ba"), ("b", ""), ("", "ab")]
    pairs += [("john a. smith", "smith, john"), ("mary-ann lee", "lee (mary) ann")]
    second = build_model(["insert", "delete", "substitute", "swap-two-characters"] + SKIP_PRESENT, "second-order")
    for model0 in (ids_model, second):
        model = model0.with_params(rng.uniform(-1, 1, model0.n_features))
        batch = Batch(model, pairs)
        w = batch.edge_weights(model.params)
        alpha, _ = batch.forward(w)
        lz0, lz1 = batch.log_partitions(alpha)
        beta = batch.backward(w)
        beams = {width: batch.log_partitions(batch.forward(w, beam=width)[0]) for width in (1, 2, 3)}
        for k, (x, y) in enumerate(pairs):
            lat = forward(model, x, y)
            assert constrained_log_partition(lat, 0) == lz0[k]
            assert constrained_log_partition(lat, 1) == lz1[k]
            one = Batch(model, [(x, y)])
            one_w = one.edge_weights(model.params)
            own = slice(batch.node_offset[k], batch.node_offset[k + 1])
            np.testing.assert_array_equal(beta[own], one.backward(one_w))
            # A pair's beam result does not depend on the other pairs of its batch.
            for width, (b0, b1) in beams.items():
                o0, o1 = one.log_partitions(one.forward(one_w, beam=width)[0])
                assert (b0[k], b1[k]) == (o0[0], o1[0]), (x, y, width)


def test_every_signature_id_is_used():
    model = build_model(["insert", "delete", "substitute"] + SKIP_PRESENT)
    for pairs in ([("john smith", "jon smith")], [("john smith", "jon smith"), ("a b", "b"), ("", "x")]):
        batch = Batch(model, pairs)
        assert np.bincount(batch.sig, minlength=batch.n_sigs).all()


def _decoded_edges(batch):
    """(pair, i, j, from, op, to, landed i, landed j, group, predicate mask)
    of every edge of a batch, read back from its arrays."""
    model, states = batch.model, np.array(batch.runtime.states)
    n_predicates = len(model.predicates)
    rows, features = batch.sig_rows, batch.sig_features
    sig_group = np.zeros(batch.n_sigs, dtype=np.int64)
    sig_group[rows] = features // n_predicates
    sig_mask = np.bincount(rows, weights=1 << (features % n_predicates), minlength=batch.n_sigs)
    pair = batch.pair_of_edge.astype(np.int64)
    ends = []
    for node in (batch.src, batch.dst):
        cell, s_idx = np.divmod(node - batch.node_offset[pair] - 1, len(states))
        i, j = np.divmod(cell, batch.ny[pair] + 1)
        start = cell < 0
        ends.append((np.where(start, 0, i), np.where(start, 0, j), np.where(start, Q0, states[s_idx])))
    (i, j, frm), (i2, j2, to) = ends
    ops = np.array(model.ops)[batch.op_idx]
    columns = (pair, i, j, frm, ops, to, i2, j2, sig_group[batch.sig], sig_mask[batch.sig].astype(np.int64))
    return list(zip(*(c.tolist() for c in columns)))


def _applied_edges(model, pairs):
    """The same tuples from edits.apply_edit and features.eval_predicate."""
    out = []
    for k, (x, y) in enumerate(pairs):
        for i in range(len(x) + 1):
            for j in range(len(y) + 1):
                bits = enumerate(model.predicates)
                mask = sum(eval_predicate(name, x, y, i, j) << bit for bit, name in bits)
                for op in model.ops:
                    for landing in edits.apply_edit(op, x, y, i, j, lexicon=model.lexicon_union):
                        for t in model.topology.transitions:
                            if t.op == op and (t.frm != Q0 or (i, j) == (0, 0)):
                                group = model.group_of_transition(*t)
                                out.append((k, i, j, t.frm, op, t.to, *landing, group, mask))
    return out


@pytest.mark.parametrize("order, n_pairs", [("first-order", len(WORDY_PAIRS)), ("second-order", 3)])
def test_compiled_edges_match_apply_edit(order, n_pairs):
    """Every edge of a multi-pair batch, for all registered operations, is
    one application of a transition that edits.apply_edit allows, with the
    predicates features.eval_predicate finds at its source cell, and every
    such application is one edge."""
    lexicon = LexiconSet("words", frozenset({"the", "of", "corp.", "acm", "lab"}))
    model = build_model(edits.registry(), order, lexicons={"words": lexicon})
    pairs = WORDY_PAIRS[:n_pairs]
    got = _decoded_edges(Batch(model, pairs))
    want = _applied_edges(model, pairs)
    assert len(set(got)) == len(got)
    assert set(got) == set(want)
    assert {e[4] for e in got} == set(edits.registry())


def test_second_order_matches_oracle():
    model0 = build_model(["insert", "delete", "substitute"], "second-order")
    rng = np.random.default_rng(61)
    terms = oracle_terms(model0, "ab", "b")
    for _ in range(3):
        model = model0.with_params(rng.uniform(-1, 1, model0.n_features))
        lat = forward(model, "ab", "b")
        assert log_partition(lat) == pytest.approx(terms.log_z(model.params), rel=1e-9)
        got = expected_feature_counts(model, "ab", "b", "all")
        np.testing.assert_allclose(got, terms.expected_counts(model.params), atol=1e-9)


def _node_diagonals(batch):
    """Anti-diagonal i + j of every node of a batch; 0 for start nodes."""
    node = np.arange(batch.n_nodes)
    pair = np.searchsorted(batch.node_offset, node, "right") - 1
    cell = np.maximum(node - batch.node_offset[pair] - 1, 0) // len(batch.runtime.states)
    i, j = np.divmod(cell, batch.ny[pair] + 1)
    return i + j


@pytest.mark.parametrize("order", ["first-order", "second-order"])
def test_sweep_steps_write_each_node_once(order):
    """Forward steps read only nodes of earlier diagonals than the ones
    they write, backward steps only of later ones, and in both directions
    every node is written by at most one run of one step."""
    lexicon = LexiconSet("words", frozenset({"the", "of", "corp.", "acm", "lab"}))
    model = build_model(edits.registry(), order, lexicons={"words": lexicon})
    batch = Batch(model, WORDY_PAIRS + [("ab", "ba"), ("abc", "")])
    diag = _node_diagonals(batch)
    for steps, later in ((batch._forward_steps, False), (batch._backward_steps, True)):
        written = []
        for lo, hi, read, starts, run, nodes in steps:
            assert len(read) == len(run) == hi - lo
            np.testing.assert_array_equal(run[starts], np.arange(len(starts)))
            assert np.all(np.diff(run) >= 0)
            assert len(np.unique(nodes)) == len(nodes)
            if later:
                assert diag[read].min() > diag[nodes].max()
            else:
                assert diag[read].max() < diag[nodes].min()
            written.append(nodes)
        written = np.concatenate(written)
        assert len(np.unique(written)) == len(written)


def _reference_sweeps(batch, w):
    """Alpha, beta and max-sweep scores by a plain recursion: nodes in
    anti-diagonal order, each one's edges gathered by a loop over edges."""
    src, dst, w = batch.src.tolist(), batch.dst.tolist(), w.tolist()
    into = [[] for _ in range(batch.n_nodes)]
    out_of = [[] for _ in range(batch.n_nodes)]
    for k in range(batch.n_edges):
        into[dst[k]].append(k)
        out_of[src[k]].append(k)
    order = np.argsort(_node_diagonals(batch), kind="stable").tolist()
    alpha = np.full(batch.n_nodes, -np.inf)
    alpha[batch.start_ids] = 0.0
    best = alpha.copy()
    for n in order:
        if into[n]:
            alpha[n] = np.logaddexp.reduce([alpha[src[k]] + w[k] for k in into[n]])
            best[n] = max(best[src[k]] + w[k] for k in into[n])
    beta = np.full(batch.n_nodes, -np.inf)
    beta[batch.acc0] = beta[batch.acc1] = 0.0
    for n in reversed(order):
        if out_of[n]:
            beta[n] = np.logaddexp.reduce([w[k] + beta[dst[k]] for k in out_of[n]])
    return alpha, beta, best


_PROPERTY_MODELS = {
    order: build_model(["insert", "delete", "substitute", "swap-two-characters"] + SKIP_PRESENT, order)
    for order in ("first-order", "second-order")
}


def _assert_close_log(got, want):
    """Equal -inf patterns; finite values agree to rel 1e-12, or abs 1e-12 near 0."""
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=1e-12)


@settings(max_examples=20, deadline=None)
@example(x="Ab ab-ba " * 4 + "abAB", y="ba aB-ab " * 4 + "BAba", order="first-order", seed=7)
@example(x="Ab ab-ba " * 4 + "abAB", y="ba aB-ab " * 4 + "BAba", order="second-order", seed=8)
@given(
    x=st.text(alphabet="abAB -", max_size=40),
    y=st.text(alphabet="abAB -", max_size=40),
    order=st.sampled_from(sorted(_PROPERTY_MODELS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweeps_match_reference_recursion(x, y, order, seed):
    """Lattices beyond the reach of the brute-force oracle, with weights in
    [-50, 50], against the per-edge recursion."""
    if not x and not y:
        x = "a"
    model0 = _PROPERTY_MODELS[order]
    model = model0.with_params(np.random.default_rng(seed).uniform(-50, 50, model0.n_features))
    batch = Batch(model, [(x, y)])
    w = batch.edge_weights(model.params)
    alpha, beta, best = _reference_sweeps(batch, w)
    _assert_close_log(batch.forward(w)[0], alpha)
    _assert_close_log(batch.backward(w), beta)
    np.testing.assert_array_equal(batch._sweep_forward(w, semiring=MAX), best)


def _reference_counts(batch, w, labels):
    """Unconstrained, clamped and per-pair clamped counts from log-space
    edge posteriors exp(alpha[src] + w + beta[dst] - lz), with beta from
    the log-space backward sweep and features summed by a sparse product."""
    alpha, _ = batch.forward(w)
    beta = batch.backward(w)
    lz0, lz1 = batch.log_partitions(alpha)
    pair, subset = np.divmod(batch.pair_subset, 2)
    log_mass = alpha[batch.src] + w + beta[batch.dst]
    p_all = np.exp(log_mass - np.logaddexp(lz0, lz1)[pair])
    p_true = np.exp(np.where(subset == labels[pair], log_mass - np.where(labels == 1, lz1, lz0)[pair], -np.inf))
    n_sigs, n_features = batch.n_sigs, batch.model.n_features
    sig_features = sparse.csr_array(
        (np.ones(len(batch.sig_rows)), (batch.sig_rows, batch.sig_features)), shape=(n_sigs, n_features)
    )
    edge_sigs = sparse.csr_array(
        (np.ones(batch.n_edges), (np.arange(batch.n_edges), batch.sig)), shape=(batch.n_edges, n_sigs)
    )
    edge_features = (edge_sigs @ sig_features).T
    per_pair = np.array([edge_features @ np.where(pair == k, p_true, 0.0) for k in range(batch.n_pairs)])
    return edge_features @ p_all, edge_features @ p_true, per_pair


def _split_weights(model, value):
    """+value on every feature of the S1 groups and -value on those of S0."""
    params = np.zeros(model.n_features)
    for g in model.groups:
        for p in range(len(model.predicates)):
            params[model.feature_id(g.index, p)] = value if g.subset == 1 else -value
    return params


_pair_strategy = st.tuples(
    st.text(alphabet="abAB -", max_size=40), st.text(alphabet="abAB -", max_size=40), st.integers(0, 1)
)


@settings(max_examples=20, deadline=None)
# The true subset S0 holds e^-3308 of the first pair's mass, so dividing
# unconstrained posteriors by it overflows.
@example(pairs=[("abcdefgh", "abcdefgh", 0), ("xyz", "xzy", 0)], order="first-order", seed=None)
@example(pairs=[("Ab ab-ba " * 4 + "abAB", "ba aB-ab " * 4 + "BAba", 1), ("ab", "", 0)], order="second-order", seed=9)
@given(
    pairs=st.lists(_pair_strategy, min_size=1, max_size=3),
    order=st.sampled_from(sorted(_PROPERTY_MODELS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_counts_match_log_space_reference(pairs, order, seed):
    """Counts from the probability-space adjoint sweep, against log-space
    edge posteriors from alpha and beta, with weights in [-50, 50] (seed
    None: +50 on S1, -50 on S0)."""
    pairs = [(x if x or y else "a", y, z) for x, y, z in pairs]
    model0 = _PROPERTY_MODELS[order]
    if seed is None:
        params = _split_weights(model0, 50.0)
    else:
        params = np.random.default_rng(seed).uniform(-50, 50, model0.n_features)
    batch = Batch(model0, [(x, y) for x, y, _ in pairs])
    labels = np.array([z for _, _, z in pairs])
    exp = expectations(batch, params, labels, per_pair=True)
    want_all, want_clamped, want_by_pair = _reference_counts(batch, batch.edge_weights(params), labels)
    for got, want in ((exp.counts_all, want_all), (exp.counts_clamped, want_clamped), (exp.clamped_by_pair, want_by_pair)):
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
