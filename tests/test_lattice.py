import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import logsumexp

from editcrf import (
    Alignment,
    LabeledPair,
    TrainConfig,
    build_model,
    constrained_log_partition,
    enumerate_alignments,
    expected_feature_counts,
    forward,
    log_partition,
    log_potential,
    posterior_match,
    score_pairs,
    viterbi,
)
from editcrf import edits
from editcrf.data import NoiseConfig, random_person_names, synthesize_names
from editcrf.engine import MAX, Batch, _Cells, beam_width, expectations
from editcrf.errors import DegenerateInputError, NoPathError
from editcrf.features import LexiconSet, eval_predicate, predicate_table
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

# Pairs for the character and word tables: a character whose lower() is
# two characters (İ), ß, É and é, an astral emoji, an Arabic-Indic digit,
# a tab, and leading, trailing, doubled and separator-only runs.  The
# first and the last pair alone apply every registered operation.
ODD_PAIRS = [
    ("İß DÉPT", "ßİ (département)"),
    ("  a ", " "),
    ("a  b", "  A b"),
    ("Émile\té", "émile É"),
    ("É. 😀 ٣4", "émile ٣4 😀"),
    (" (ß) ss", "ss"),
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


def _node(batch, i, j, state):
    """Id of node (i, j, state) of a one-pair batch, found in its node
    table; q0 is the start node."""
    s_idx = -1 if state == Q0 else batch.runtime.state_index[state]
    _, at_i, at_j, at_s = batch._node_table
    (node,) = np.flatnonzero((at_i == i) & (at_j == j) & (at_s == s_idx))
    return node


def _one_pair_tables(model, x, y):
    """A one-pair batch with its edge weights, alpha and beta."""
    batch = Batch(model, [(x, y)])
    w = batch.edge_weights(model.params)
    return batch, w, batch.forward(w)[0], batch.backward(w)


def test_backward_boundary_and_start_cut(ids_model):
    batch, _, alpha, beta = _one_pair_tables(ids_model, "a", "b")
    for state in (1, 2):
        assert beta[_node(batch, 1, 1, state)] == 0.0
    assert alpha[_node(batch, 0, 0, Q0)] == 0.0
    assert beta[_node(batch, 0, 0, Q0)] == pytest.approx(math.log(6), abs=1e-12)


def _cut_mass(batch, w, alpha, beta, d):
    """Alpha+beta mass crossing anti-diagonal d: nodes on the diagonal
    plus edges that jump over it."""
    nx, ny = int(batch.nx[0]), int(batch.ny[0])
    terms = []
    for i in range(nx + 1):
        j = d - i
        if not 0 <= j <= ny:
            continue
        for state in ([Q0] if d == 0 else []) + list(batch.runtime.states):
            a = alpha[_node(batch, i, j, state)]
            b = beta[_node(batch, i, j, state)]
            if np.isfinite(a) and np.isfinite(b):
                terms.append(a + b)
    diag = _node_diagonals(batch)
    spanning = np.flatnonzero((diag[batch.src] < d) & (diag[batch.dst] > d))
    for k in spanning:
        a = alpha[batch.src[k]]
        b = beta[batch.dst[k]]
        if np.isfinite(a) and np.isfinite(b):
            terms.append(a + w[k] + b)
    return logsumexp(terms)


def test_anti_diagonal_cuts_reproduce_log_z(ids_model):
    rng = np.random.default_rng(3)
    model = ids_model.with_params(rng.uniform(-1, 1, ids_model.n_features))
    for x, y in [("ab", "ba"), ("aab", "bb"), ("a", "bbb")]:
        tables = _one_pair_tables(model, x, y)
        lz = log_partition(forward(model, x, y))
        for d in range(len(x) + len(y) + 1):
            assert _cut_mass(*tables, d) == pytest.approx(lz, abs=1e-9)


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
                    assert paths.alignment(k, constraint) == got


GOLDEN_VITERBI = Path(__file__).with_name("golden_viterbi.json")


def _golden_params(n, kind):
    """Weights that need no random generator: all zero, in {-1, 0, 1} (exact
    score ties are common), or in [-1, 1) from correctly rounded divisions."""
    hashed = np.arange(n, dtype=np.int64) * 2654435761 % 1000003
    if kind == "zero":
        return np.zeros(n)
    if kind == "ternary":
        return (hashed % 3 - 1).astype(float)
    return hashed / 1000003 * 2 - 1


def _golden_records():
    """Best alignment of every WORDY_PAIRS pair under every registered
    operation, both model orders, three weight vectors and each constraint,
    as JSON-ready rows with the score in float.hex form."""
    lexicon = LexiconSet("words", frozenset({"the", "of", "corp.", "acm", "lab"}))
    rows = []
    for order in ("first-order", "second-order"):
        model0 = build_model(edits.registry(), order, lexicons={"words": lexicon})
        for kind in ("zero", "ternary", "graded"):
            model = model0.with_params(_golden_params(model0.n_features, kind))
            for x, y in WORDY_PAIRS:
                for constraint in ("all", 0, 1):
                    a = viterbi(model, x, y, constraint)
                    rows.append([order, kind, x, y, constraint, list(a.edits), list(a.ix), list(a.iy),
                                 list(a.states), a.score.hex()])
    return rows


def test_viterbi_alignments_match_golden_file():
    """Best alignments, tie-breaks included, and their scores bit for bit
    equal those recorded in golden_viterbi.json, which pins them across
    changes to the edge order and the sweeps.  After an intended change,
    re-record by writing _golden_records() to that file as JSON."""
    want = json.loads(GOLDEN_VITERBI.read_text())
    got = json.loads(json.dumps(_golden_records()))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


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
                # Viterbi p(match): the S1 share of exponentiated best-path scores.
                v0, v1 = terms.viterbi_score(params, 0), terms.viterbi_score(params, 1)
                [(_, p, _)] = score_pairs(model, [LabeledPair("p", x, y, 0)], inference="viterbi")
                assert p == pytest.approx(math.exp(v1 - np.logaddexp(v0, v1)), rel=1e-9)


def test_unlimited_beam_equals_wide_beam(ids_model):
    rng = np.random.default_rng(7)
    model = ids_model.with_params(rng.uniform(-1, 1, ids_model.n_features))
    exact = forward(model, "ab", "ba")
    wide = forward(model, "ab", "ba", beam=10_000)
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
        beam_width(0)


@pytest.mark.parametrize("width", [2.5, 2.0, True, "2"])
def test_beam_width_rejects_non_integers(ids_model, width):
    """A beam width is an int or None; a float or a bool is rejected up
    front, not deep inside the beam's cut."""
    with pytest.raises(ValueError, match="beam width must be an integer"):
        beam_width(width)
    with pytest.raises(ValueError, match="beam width must be an integer"):
        score_pairs(ids_model, [LabeledPair("p", "ab", "ba", 1)], beam=width)
    with pytest.raises(ValueError, match="beam width must be an integer"):
        TrainConfig(beam=width)
    assert beam_width(np.int64(2)) == 2


def test_no_path_error_under_substitute_only():
    model = build_model(["substitute"])
    lat = forward(model, "ab", "b")
    with pytest.raises(NoPathError):
        log_partition(lat)


def test_mask_grid_matches_eval_predicate():
    """Every cell's mask from its key and the predicate table, in a
    multi-pair table of the odd characters, holds the predicates
    eval_predicate finds there: for the default predicates, through the
    model's table, and for a subset in another order."""
    model = build_model(["insert", "delete", "substitute"])
    pairs = [("a1(b.", "B1 a."), ("", "x\t"), ("ab", "")] + ODD_PAIRS
    cells = _Cells([x for x, _ in pairs], [y for _, y in pairs])
    subset = ("end-of-y", "same", "punctuation-x", "different-next-character")
    for predicates, (mask_of_key, bits) in (
        (model.predicates, model.predicate_table),
        (subset, predicate_table(subset)),
    ):
        masks = bits[mask_of_key[cells.key]] @ (1 << np.arange(len(predicates)))
        for k, (x, y) in enumerate(pairs):
            mask = masks[cells.offset[k] : cells.offset[k + 1]].reshape(len(x) + 1, len(y) + 1)
            for i in range(len(x) + 1):
                for j in range(len(y) + 1):
                    for bit, name in enumerate(predicates):
                        assert (mask[i, j] >> bit) & 1 == eval_predicate(name, x, y, i, j)


def test_predicate_table_numbers_masks_in_order():
    """Mask numbers ascend with the masks, each mask once, and an
    unknown predicate is an error."""
    mask_of_key, bits = predicate_table(("same", "bias", "end-of-x"))
    masks = bits @ (1 << np.arange(3))
    assert (np.diff(masks) > 0).all()
    assert set(mask_of_key.tolist()) == set(range(len(masks)))
    with pytest.raises(ValueError, match="unknown predicate"):
        predicate_table(("same", "no-such-predicate"))


def test_batch_rejects_pair_ids_of_another_length(ids_model):
    with pytest.raises(ValueError, match="1 pair ids for 2 pairs"):
        Batch(ids_model, [("ab", "ac"), ("", "")], pair_ids=["only"])
    with pytest.raises(ValueError, match="2 pair ids for 1 pairs"):
        Batch(ids_model, [("ab", "ac")], pair_ids=["a", "b"])
    assert Batch(ids_model, [("ab", "ac")], pair_ids=("a",)).pair_ids == ["a"]


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
            own = batch._node_table[0] == k
            np.testing.assert_array_equal(beta[own], one.backward(one_w))
            # A pair's beam result does not depend on the other pairs of its batch.
            for width, (b0, b1) in beams.items():
                o0, o1 = one.log_partitions(one.forward(one_w, beam=width)[0])
                assert (b0[k], b1[k]) == (o0[0], o1[0]), (x, y, width)


def test_mixed_length_batch_matches_one_pair_batches_bit_for_bit():
    """In a batch of pairs of very different lengths, whose accepting nodes
    lie on different diagonals, each pair's clamped counts and beta equal
    those of its one-pair batch exactly: the reverse sweeps add into the
    accepting seeds of the shorter pairs and never overwrite them."""
    model0 = _PROPERTY_MODELS["second-order"]
    params = np.random.default_rng(13).uniform(-2, 2, model0.n_features)
    pairs = [("a", "b"), ("john a. smith", "smith, john"), ("", "ab"), ("abcdefghij klm", "abc"), ("xy", "")]
    labels = np.array([1, 0, 1, 0, 1])
    batch = Batch(model0, pairs)
    got = expectations(batch, params, labels, per_pair=True)
    beta = batch.backward(batch.edge_weights(params))
    for k, pair in enumerate(pairs):
        one = Batch(model0, [pair])
        want = expectations(one, params, labels[k : k + 1], per_pair=True)
        assert np.array_equal(got.clamped_by_pair[k], want.clamped_by_pair[0]), pair
        own = batch._node_table[0] == k
        assert np.array_equal(beta[own], one.backward(one.edge_weights(params))), pair


def test_mixed_length_batch_beam_matches_one_pair_batches_bit_for_bit():
    """Each pair's beam alpha and cut mask in a mixed-length batch, read
    through the node table, equal those of its one-pair batch exactly:
    the beam ranks a pair's nodes on a diagonal among themselves only."""
    model0 = _PROPERTY_MODELS["second-order"]
    params = np.random.default_rng(29).uniform(-2, 2, model0.n_features)
    pairs = [("a", "b"), ("john a. smith", "smith, john"), ("", "ab"), ("abcdefghij klm", "abc"), ("xy", "")]
    batch = Batch(model0, pairs)
    w = batch.edge_weights(params)
    exact = batch.forward(w)[0]
    ones = [Batch(model0, [pair]) for pair in pairs]
    for width in (1, 2, 3):
        alpha, pruned = batch.forward(w, beam=width)
        assert pruned
        cut = batch._beam_cut(exact, width)
        for k, (pair, one) in enumerate(zip(pairs, ones)):
            own = batch._node_table[0] == k
            np.testing.assert_array_equal(batch._node_table[1:, own], one._node_table[1:])
            one_w = one.edge_weights(params)
            assert np.array_equal(alpha[own], one.forward(one_w, beam=width)[0]), (pair, width)
            assert np.array_equal(cut[own], one._beam_cut(one.forward(one_w)[0], width)), (pair, width)


def test_pair_with_more_diagonals_than_16_bits_hold(ids_model):
    """70,002 anti-diagonals need a sort key wider than 16 bits; the forward
    edges still run by destination diagonal, and p(match) is a probability
    (one half under zero weights, by symmetry)."""
    x, y = "a" * 70000, "b"
    batch = Batch(ids_model, [(x, y)])
    dst_diag = _node_diagonals(batch)[batch.dst]
    assert dst_diag.max() == 70001
    assert np.all(np.diff(dst_diag) >= 0)
    assert posterior_match(ids_model, x, y) == pytest.approx(0.5, rel=1e-9)


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
        _, i, j, s_idx = batch._node_table[:, node]
        ends.append((i, j, np.where(s_idx < 0, Q0, states[s_idx])))
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


@pytest.mark.parametrize(
    "order, pairs",
    [
        pytest.param("first-order", WORDY_PAIRS, id="first-order-7"),
        pytest.param("second-order", WORDY_PAIRS[:3], id="second-order-3"),
        pytest.param("first-order", ODD_PAIRS, id="first-order-odd"),
        pytest.param("second-order", ODD_PAIRS[::5], id="second-order-odd"),
    ],
)
def test_compiled_edges_match_apply_edit(order, pairs):
    """Every edge of a multi-pair batch, for all registered operations, is
    one application of a transition that edits.apply_edit allows, with the
    predicates features.eval_predicate finds at its source cell, and every
    such application is one edge."""
    lexicon = LexiconSet("words", frozenset({"the", "of", "corp.", "acm", "lab", "ss", "a"}))
    model = build_model(edits.registry(), order, lexicons={"words": lexicon})
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
    _, i, j, _ = batch._node_table.astype(np.int64)
    return i + j


@pytest.mark.parametrize("order", ["first-order", "second-order"])
def test_sweep_steps_write_each_node_once(order):
    """Each step is one destination diagonal: its edges read only nodes of
    earlier diagonals and write nodes of its own, whose ids are exactly
    the step's range a:z, and the ranges ascend without overlap and hold
    no start node, so one step writes each node.  Walked backwards, a step
    therefore writes only sources on earlier diagonals, whose out-edges
    all lie in the steps already walked."""
    lexicon = LexiconSet("words", frozenset({"the", "of", "corp.", "acm", "lab"}))
    model = build_model(edits.registry(), order, lexicons={"words": lexicon})
    batch = Batch(model, WORDY_PAIRS + [("ab", "ba"), ("abc", "")])
    diag = _node_diagonals(batch)
    start = batch._node_table[3] < 0
    np.testing.assert_array_equal(np.flatnonzero(start), batch.start_ids)
    end = last = 0
    for lo, hi, src, dst, a, z in batch._steps:
        assert lo == end < hi
        end = hi
        np.testing.assert_array_equal(src, batch.src[lo:hi])
        np.testing.assert_array_equal(dst, batch.dst[lo:hi])
        d = diag[dst[0]]
        np.testing.assert_array_equal(np.flatnonzero(diag == d), np.arange(a, z))
        assert last <= a < z
        last = z
        assert not start[a:z].any()
        assert diag[src].max() < d
        assert ((a <= dst) & (dst < z)).all()
    assert end == batch.n_edges


def _increase_strictly(rows):
    """Whether the columns of rows, read as tuples, strictly increase."""
    step = np.diff(rows, axis=1)
    first = np.argmax(step != 0, axis=0)
    return bool(np.all(step[first, np.arange(step.shape[1])] > 0))


@pytest.mark.parametrize("order", ["first-order", "second-order"])
def test_compiled_edge_order(order):
    """Forward edges run by destination diagonal, then in emission order:
    by transition, then in the order _Cells.landings lists the operation's
    applications, so strictly by (destination diagonal, transition, rank
    of the application); and signature ids are the ranks of the edges'
    (group, mask) codes."""
    lexicon = LexiconSet("words", frozenset({"the", "of", "corp.", "acm", "lab"}))
    model = build_model(edits.registry(), order, lexicons={"words": lexicon})
    pairs = WORDY_PAIRS + [("ab", "ba"), ("abc", ""), ("kitten", "sitting")]
    batch = Batch(model, pairs)
    diag = _node_diagonals(batch)
    src, dst, op = batch.src, batch.dst, batch.op_idx.astype(np.int64)
    pair, i, j, frm = batch._node_table[:, src].astype(np.int64)
    _, dst_i, dst_j, to = batch._node_table[:, dst].astype(np.int64)
    cells = _Cells([x for x, _ in pairs], [y for _, y in pairs])
    src_cell = cells.offset[pair] + i * cells.stride[pair] + j
    dst_cell = cells.offset[pair] + dst_i * cells.stride[pair] + dst_j
    transition = {tuple(row[:3]): k for k, row in enumerate(batch.runtime.transitions.tolist())}
    rank = np.empty(batch.n_edges, dtype=np.int64)
    n_cells = int(cells.offset[-1])
    for k, name in enumerate(model.ops):
        at, land = cells.landings(name, model.lexicon_union)
        listed = at.astype(np.int64) * n_cells + land
        mine = np.flatnonzero(op == k)
        key = (src_cell * n_cells + dst_cell)[mine]
        by_key = np.argsort(listed)
        rank[mine] = by_key[np.searchsorted(listed, key, sorter=by_key)]
        np.testing.assert_array_equal(listed[rank[mine]], key)
    trans = np.array([transition[t] for t in zip(frm.tolist(), op.tolist(), to.tolist())])
    assert _increase_strictly(np.stack((diag[dst], trans, rank)))
    states = batch.runtime.states
    triples, which = np.unique(np.stack((frm, op, to)), axis=1, return_inverse=True)
    group = np.array([
        model.group_of_transition(Q0 if f < 0 else states[f], model.ops[o], states[t])
        for f, o, t in triples.T.tolist()
    ])[which]
    cells, where = np.unique(np.stack((pair, i, j)), axis=1, return_inverse=True)
    mask = np.array([
        sum(eval_predicate(name, *pairs[k], a, b) << bit for bit, name in enumerate(model.predicates))
        for k, a, b in cells.T.tolist()
    ])[where]
    codes = group << len(model.predicates) | mask
    np.testing.assert_array_equal(batch.sig, np.unique(codes, return_inverse=True)[1])


def test_forward_only_work_builds_no_backward_order():
    """score_pairs and posterior_match run forward and log_partitions
    only, and soft-EM counts seed their adjoints at accepting nodes, so
    neither builds the per-edge pair arrays; the counts equal those of a
    fresh batch."""
    model = build_model(["insert", "delete", "substitute"] + SKIP_PRESENT, "first-order")
    model = model.with_params(np.random.default_rng(11).uniform(-1, 1, model.n_features))
    pairs = [("john smith", "smith john"), ("kitten", "sitting"), ("a b", "b")]
    labels = np.array([1, 0, 1])
    batch = Batch(model, pairs)
    batch.log_partitions(batch.forward(batch.edge_weights(model.params))[0])
    assert "pair_of_edge" not in vars(batch)
    got = expectations(batch, model.params, labels)
    assert "pair_of_edge" not in vars(batch)
    fresh = expectations(Batch(model, pairs), model.params, labels)
    np.testing.assert_array_equal(got.counts_all, fresh.counts_all)
    np.testing.assert_array_equal(got.counts_clamped, fresh.counts_clamped)


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


def _reference_counts(batch, w, labels, beam=None):
    """Unconstrained, clamped and per-pair clamped counts from log-space
    edge posteriors exp(alpha[src] + w + beta[dst] - lz), with beta from
    the log-space backward sweep and features summed by a sparse product.
    With a beam, alpha is the beam's and w has the cut nodes' outgoing
    weights at -inf, so the counts are the gradient of the beam's log Z."""
    alpha, _ = batch.forward(w, beam)
    if beam is not None:
        w = np.where(batch._beam_cut(batch.forward(w)[0], beam)[batch.src], -np.inf, w)
    beta = batch.backward(w)
    lz0, lz1 = batch.log_partitions(alpha)
    pair, _, _, state = batch._node_table[:, batch.dst]
    subset = (state >= len(batch.model.topology.s0)).astype(int)
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


_MIXED_PAIRS = [("a", "b"), ("john a. smith", "smith, john"), ("", "ab"), ("abcdefghij klm", "abc"), ("xy", "")]
# Pairs that keep a complete alignment within beams of width 1 to 3 under
# the weights of test_counts_match_log_space_reference_within_a_beam.
_BEAM_PAIRS = [("a", "b"), ("ab", "ba"), ("", "ab"), ("xy", ""), ("a b", "b a"), ("ab cd", "cd")]


def test_unconstrained_counts_do_not_depend_on_labels():
    """An M-step evaluation and an E-step at the same point give the same
    unconstrained counts, bit for bit."""
    model0 = _PROPERTY_MODELS["second-order"]
    params = np.random.default_rng(17).uniform(-2, 2, model0.n_features)
    batch = Batch(model0, _MIXED_PAIRS)
    labels = np.array([1, 0, 1, 0, 1])
    alone = expectations(batch, params)
    with_labels = expectations(batch, params, labels, per_pair=True)
    assert alone.counts_clamped is None
    assert np.array_equal(alone.counts_all, with_labels.counts_all)


@pytest.mark.parametrize("beam", [None, 1, 2, 3])
def test_counts_match_log_space_reference_within_a_beam(beam):
    """Counts from the forward's kept shares, on a second-order model with
    skip operations, whose lattices hold nodes that no edge enters, equal
    the log-space reference to rel 1e-12, within each beam too."""
    model0 = _PROPERTY_MODELS["second-order"]
    params = np.random.default_rng(23).uniform(-2, 2, model0.n_features)
    batch = Batch(model0, _BEAM_PAIRS)
    entered = np.zeros(batch.n_nodes, dtype=bool)
    entered[batch.dst] = True
    entered[batch.start_ids] = True
    assert not entered.all()
    w = batch.edge_weights(params)
    # A narrow beam can cut every path of one subset; label the other.
    lz0, lz1 = batch.log_partitions(batch.forward(w, beam)[0])
    labels = np.array([1, 0, 1, 0, 1, 0])
    labels = np.where(np.isfinite(np.where(labels == 1, lz1, lz0)), labels, 1 - labels)
    exp = expectations(batch, params, labels, beam=beam, per_pair=True)
    assert exp.pruned == (beam is not None)
    want = _reference_counts(batch, w, labels, beam)
    for got, want in zip((exp.counts_all, exp.counts_clamped, exp.clamped_by_pair), want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


def test_clamped_counts_exact_when_the_labelled_subset_is_negligible():
    """With +50 on S1 and -50 on S0, the labelled S0 holds less than 1e-308
    of the pair's mass; its clamped counts still match the reference, and
    equal those under -50 on S1 too, as S0's paths do not touch S1."""
    model0 = _PROPERTY_MODELS["first-order"]
    pairs, labels = [("abcdefgh", "abcdefgh"), ("xyz", "xzy")], np.array([0, 0])
    batch = Batch(model0, pairs)
    params = _split_weights(model0, 50.0)
    exp = expectations(batch, params, labels, per_pair=True)
    assert np.exp(exp.lz0[0] - exp.logz[0]) < 1e-308
    want = _reference_counts(batch, batch.edge_weights(params), labels)
    for got, want in zip((exp.counts_clamped, exp.clamped_by_pair), want[1:]):
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
    s0_only = expectations(batch, -np.abs(params), labels, per_pair=True)
    assert np.exp(s0_only.lz0[0] - s0_only.logz[0]) > 0.1
    np.testing.assert_allclose(exp.counts_clamped, s0_only.counts_clamped, rtol=1e-12, atol=1e-13)


def _sparse_counts_by_pair(batch, edge_mass):
    """Per-pair feature counts as a dense (pair, signature) mass matrix
    times the sparse (signature, feature) indicator."""
    key = batch.pair_of_edge.astype(np.int64) * batch.n_sigs + batch.sig
    mass = np.bincount(key, weights=edge_mass, minlength=batch.n_pairs * batch.n_sigs)
    indptr = np.searchsorted(batch.sig_rows, np.arange(batch.n_sigs + 1))
    indicator = sparse.csr_array(
        (np.ones(len(batch.sig_rows)), batch.sig_features, indptr), shape=(batch.n_sigs, batch.model.n_features)
    )
    return mass.reshape(batch.n_pairs, batch.n_sigs) @ indicator


@pytest.mark.parametrize("scale", [1.0, 20.0])
@pytest.mark.parametrize("n_pairs", [1, 30])
@pytest.mark.parametrize("order", sorted(_PROPERTY_MODELS))
def test_counts_by_pair_equals_sparse_product(order, n_pairs, scale):
    """The bincount over (pair, feature) bins adds each count's signatures
    in the sparse product's order, so the two agree bit for bit."""
    records = synthesize_names(random_person_names(n_pairs, seed=n_pairs), NoiseConfig(seed=n_pairs))
    batch = Batch(_PROPERTY_MODELS[order], [(a.text, b.text) for a, b in zip(records[::2], records[1::2])])
    assert batch.n_pairs == n_pairs
    for seed in range(3):
        edge_mass = scale * np.random.default_rng(seed).standard_normal(batch.n_edges)
        got = batch.counts_by_pair(edge_mass)
        assert got.shape == (n_pairs, batch.model.n_features)
        assert np.array_equal(got, _sparse_counts_by_pair(batch, edge_mass))
