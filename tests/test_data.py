import functools
import io
import itertools

import numpy as np
import pytest

from editcrf import (
    LabeledPair,
    NoiseConfig,
    Record,
    SamplingConfig,
    build_model,
    cosine_tokens,
    generate_pairs,
    jaro,
    load_pairs,
    load_records,
    random_person_names,
    save_pairs,
    save_records,
    split_pairs,
    synthesize_names,
)
from editcrf import data, metrics, posterior_match, training
from editcrf.errors import DataFormatError, NoPathError


def records_tsv(rows):
    return "record_id\tentity_id\ttext\n" + "".join(f"{r}\n" for r in rows)


def test_load_records_basic():
    text = records_tsv(["r1\te1\tkatz deli", "r2\te1\tkatz's deli", "r3\te2\tthe inn"])
    records = load_records(io.StringIO(text))
    assert len(records) == 3
    assert records[0] == Record("r1", "e1", "katz deli")


def test_load_records_malformed_row_cites_line():
    text = records_tsv(["r1\te1\tok", "r2\tmissing-column"])
    with pytest.raises(DataFormatError, match="line 3"):
        load_records(io.StringIO(text))


def test_load_records_duplicate_id():
    text = records_tsv(["r1\te1\ta", "r1\te2\tb"])
    with pytest.raises(DataFormatError, match="r1"):
        load_records(io.StringIO(text))


def test_load_records_rejects_pair_id_separator_in_record_id():
    text = records_tsv(["r1\te1\ta", "a|b\te2\tb"])
    with pytest.raises(DataFormatError, match="line 3.*'a\\|b'"):
        load_records(io.StringIO(text))


def test_generate_pairs_rejects_pair_id_separator_in_record_id():
    """Ids "a|b" + "c" and "a" + "b|c" would both give the pair id "a|b|c"."""
    records = [Record("a|b", "e1", "x"), Record("c", "e2", "y"), Record("a", "e3", "z"), Record("b|c", "e4", "w")]
    with pytest.raises(ValueError, match="'a\\|b'"):
        generate_pairs(records, SamplingConfig(ratio=10))


def test_load_records_rejects_empty_text():
    text = records_tsv(["r1\te1\t"])
    with pytest.raises(DataFormatError, match="non-empty"):
        load_records(io.StringIO(text))


def test_records_round_trip():
    records = [Record("r1", "e1", "a b"), Record("r2", "e2", "c")]
    buf = io.StringIO()
    save_records(records, buf)
    assert load_records(io.StringIO(buf.getvalue())) == records


def test_save_records_rejects_tabs():
    with pytest.raises(DataFormatError):
        save_records([Record("r1", "e1", "bad\ttext")], io.StringIO())


def test_pairs_round_trip():
    pairs = [LabeledPair("a|b", "x", "y", 1), LabeledPair("c|d", "", "q", 0)]
    buf = io.StringIO()
    save_pairs(pairs, buf)
    loaded = load_pairs(io.StringIO(buf.getvalue()))
    assert [(p.pair_id, p.x, p.y, p.z) for p in loaded] == [
        ("a|b", "x", "y", 1),
        ("c|d", "", "q", 0),
    ]


def test_load_pairs_validates_label():
    text = "pair_id\tx\ty\tz\npp\ta\tb\t2\n"
    with pytest.raises(DataFormatError, match="label"):
        load_pairs(io.StringIO(text))


def three_entity_records():
    return [
        Record("r1", "e1", "katz deli"),
        Record("r2", "e1", "katz's deli"),
        Record("r3", "e1", "deli katz"),
        Record("r4", "e2", "blue inn"),
        Record("r5", "e3", "red cafe"),
    ]


def test_generate_pairs_single_entity():
    records = [
        Record("r1", "e1", "a"),
        Record("r2", "e1", "b"),
        Record("r3", "e1", "c"),
    ]
    pairs = generate_pairs(records, SamplingConfig(ratio=10))
    assert sum(p.z for p in pairs) == 3
    assert sum(1 - p.z for p in pairs) == 0


def test_generate_pairs_ratio():
    records = []
    for e in range(6):
        records.append(Record(f"a{e}", f"e{e}", f"name {e}"))
        records.append(Record(f"b{e}", f"e{e}", f"name {e}x"))
    pairs = generate_pairs(records, SamplingConfig(ratio=2))
    positives = [p for p in pairs if p.z == 1]
    negatives = [p for p in pairs if p.z == 0]
    assert len(positives) == 6
    assert len(negatives) == 12


def test_generate_pairs_takes_all_when_candidates_short():
    records = three_entity_records()
    pairs = generate_pairs(records, SamplingConfig(ratio=10))
    # 3 positives, only 7 cross-entity candidates exist
    assert sum(p.z for p in pairs) == 3
    assert sum(1 - p.z for p in pairs) == 7


def test_jaro_top_filter_selects_highest():
    records = []
    for e in range(8):
        records.append(Record(f"a{e}", f"e{e}", "alpha beta" + "x" * e))
        records.append(Record(f"b{e}", f"e{e}", "alpha beta" + "y" * e))
    pairs = generate_pairs(records, SamplingConfig(ratio=1))
    negatives = [p for p in pairs if p.z == 0]
    chosen = {p.pair_id for p in negatives}
    all_pairs = generate_pairs(records, SamplingConfig(ratio=10**6))
    unchosen = [p for p in all_pairs if p.z == 0 and p.pair_id not in chosen]
    worst_chosen = min(jaro(p.x, p.y) for p in negatives)
    best_unchosen = max(jaro(p.x, p.y) for p in unchosen)
    assert worst_chosen >= best_unchosen


def test_generate_pairs_order_invariant():
    records = three_entity_records()
    a = generate_pairs(records, SamplingConfig(ratio=2))
    b = generate_pairs(list(reversed(records)), SamplingConfig(ratio=2))
    assert [p.pair_id for p in a] == [p.pair_id for p in b]


def test_labels_follow_entities():
    records = three_entity_records()
    for p in generate_pairs(records, SamplingConfig(ratio=10)):
        assert p.z == int(p.entity_x == p.entity_y)


def test_split_four_equal_entities():
    pairs = []
    for e in range(4):
        pairs.append(
            LabeledPair(f"p{e}", "a", "b", 1, entity_x=f"e{e}", entity_y=f"e{e}")
        )
    train, test = split_pairs(pairs, 0.5, seed=3)
    assert len(train) == 2 and len(test) == 2
    train_entities = {p.entity_x for p in train}
    test_entities = {p.entity_x for p in test}
    assert not (train_entities & test_entities)


def test_split_deterministic_and_swappable():
    pairs = [
        LabeledPair(f"p{k}", "a", "b", k % 2, entity_x=f"e{k}", entity_y=f"e{k}")
        for k in range(10)
    ]
    a = split_pairs(pairs, 0.5, seed=11)
    b = split_pairs(pairs, 0.5, seed=11)
    assert a == b
    swapped = split_pairs(pairs, 0.5, seed=11, swap=True)
    assert swapped == (a[1], a[0])


def test_split_single_entity_fails():
    pairs = [LabeledPair("p", "a", "b", 1, entity_x="e", entity_y="e")]
    with pytest.raises(ValueError, match="single entity"):
        split_pairs(pairs, 0.5)


def test_split_pair_mode_ignores_entities():
    pairs = [LabeledPair(f"p{k}", "a", "b", 0) for k in range(9)]
    train, test = split_pairs(pairs, 0.5, seed=0, mode="pair")
    assert len(train) + len(test) == 9
    assert abs(len(train) - 4.5) <= 0.5


def test_split_entity_mode_requires_entity_ids():
    pairs = [LabeledPair("p", "a", "b", 1)]
    with pytest.raises(ValueError, match="entity"):
        split_pairs(pairs, 0.5, mode="entity")


def test_synthesize_no_noise_is_identity():
    noise = NoiseConfig(
        record_error_prob=0.0,
        typo_insert_prob=0.0,
        typo_delete_prob=0.0,
        typo_swap_prob=0.0,
        word_swap_prob=0.0,
        seed=1,
    )
    records = synthesize_names(["john smith", "mary jones"], noise, duplicates_per_name=2)
    assert len(records) == 6
    for r in records:
        base = "john smith" if r.entity_id == "e0" else "mary jones"
        assert r.text == base


def test_synthesize_forced_word_swap():
    noise = NoiseConfig(
        record_error_prob=1.0,
        typo_insert_prob=0.0,
        typo_delete_prob=0.0,
        typo_swap_prob=0.0,
        word_swap_prob=1.0,
        seed=1,
    )
    records = synthesize_names(["john smith"], noise, duplicates_per_name=1)
    assert records[0].text == "john smith"
    assert records[1].text == "smith john"


def test_synthesize_deterministic_under_seed():
    noise = NoiseConfig(seed=42)
    a = synthesize_names(["john smith", "kathleen mcbride"], noise, 3)
    b = synthesize_names(["john smith", "kathleen mcbride"], noise, 3)
    assert a == b


def test_paper_strength_noise_config_is_valid():
    noise = NoiseConfig(
        record_error_prob=0.4,
        typo_insert_prob=0.4,
        typo_delete_prob=0.4,
        typo_swap_prob=0.4,
        word_swap_prob=0.5,
    )
    records = synthesize_names(random_person_names(20, seed=1), noise, 3)
    assert len(records) == 80


def test_noise_config_validates_probabilities():
    with pytest.raises(ValueError):
        NoiseConfig(record_error_prob=1.5)


def test_random_person_names_distinct():
    names = random_person_names(50, seed=9)
    assert len(set(names)) == 50
    assert random_person_names(50, seed=9) == names


def test_cosine_filter_selects_token_overlap():
    records = [
        Record("a1", "e1", "alpha beta"),
        Record("a2", "e1", "alpha beta x"),
        Record("b1", "e2", "alpha gamma"),
        Record("c1", "e3", "delta epsilon"),
        Record("d1", "e4", "zeta eta"),
    ]
    pairs = generate_pairs(records, SamplingConfig(ratio=1, filter="cosine-top"))
    negatives = [p for p in pairs if p.z == 0]
    assert len(negatives) == 1
    assert {negatives[0].entity_x, negatives[0].entity_y} == {"e1", "e2"}


def test_handset_filter_runs():
    records = [
        Record("a1", "e1", "ab"),
        Record("a2", "e1", "ab"),
        Record("b1", "e2", "ac"),
        Record("c1", "e3", "zz"),
    ]
    pairs = generate_pairs(records, SamplingConfig(ratio=1, filter="handset-crf-top"))
    negatives = [p for p in pairs if p.z == 0]
    assert len(negatives) == 1
    # the hand-set model prefers the near miss "ab"/"ac" over "zz"
    assert {negatives[0].x, negatives[0].y} == {"ab", "ac"}


def _reference_generate_pairs(records, ratio, score):
    """generate_pairs as one score call and one sort key per candidate."""
    ordered = sorted(records, key=lambda r: r.record_id)
    positives, candidates = [], []
    for a, b in itertools.combinations(ordered, 2):
        pair = LabeledPair(
            pair_id=f"{a.record_id}|{b.record_id}",
            x=a.text,
            y=b.text,
            z=int(a.entity_id == b.entity_id),
            entity_x=a.entity_id,
            entity_y=b.entity_id,
        )
        (positives if pair.z == 1 else candidates).append(pair)
    wanted = ratio * len(positives)
    if wanted >= len(candidates):
        return positives + sorted(candidates, key=lambda p: p.pair_id)
    scored = sorted(candidates, key=lambda p: (-score(p.x, p.y), p.pair_id))
    return positives + scored[:wanted]


def _handset_score():
    model = build_model(["insert", "delete", "substitute"], "first-order")
    model = model.with_params(training.init_params(model))
    return lambda x, y: posterior_match(model, x, y)


# One positive, so the number of negatives kept equals the ratio.  Texts
# repeated across entities tie at the cut-off; ids such as "a", "a-b" and
# "ab" sort as records in that order, but "a-b|ab" < "a|a-b" < "a|ab" as
# pair ids, since "-" < "|" < "b".  No record id holds "|" itself.
TIED_RECORDS = [
    Record("a", "e1", "jon smith"),
    Record("a-b", "e2", "jon smith"),
    Record("ab", "e3", "jon smith"),
    Record("a~c", "e1", "john smith"),
    Record("b", "e4", "jon smyth"),
    Record("b-0", "e5", "jane smith"),
    Record("b0", "e6", "jane smith"),
    Record("c", "e7", "smith jon"),
    Record("c-1", "e8", "smith jon"),
    Record("d", "e9", "ab"),
    Record("d-d", "e10", "ba"),
    Record("e", "e11", "ab"),
]

REFERENCE_SCORES = {
    "jaro-top": lambda: jaro,
    "cosine-top": lambda: cosine_tokens,
    "handset-crf-top": _handset_score,
}


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("filter_name", sorted(REFERENCE_SCORES))
def test_generate_pairs_equals_per_candidate_reference(filter_name, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(metrics, "_BLOCK", block)
        monkeypatch.setattr(data, "_HANDSET_CHUNK", block)
    score = functools.lru_cache(maxsize=None)(REFERENCE_SCORES[filter_name]())
    # 65 candidates: cut-offs inside the ties at the top, and all of them.
    for ratio in (0, 1, 2, 3, 4, 5, 6, 7, 10, 20, 64, 65, 66):
        expected = _reference_generate_pairs(TIED_RECORDS, ratio, score)
        got = generate_pairs(TIED_RECORDS, SamplingConfig(ratio=ratio, filter=filter_name))
        assert got == expected


def test_handset_filter_raises_when_a_candidate_has_no_path(monkeypatch):
    monkeypatch.setattr(training, "init_params", lambda model: np.full(model.n_features, -np.inf))
    records = [
        Record("a1", "e1", "ab"),
        Record("a2", "e1", "ab"),
        Record("b1", "e2", "ac"),
        Record("c1", "e3", "zz"),
    ]
    with pytest.raises(NoPathError):
        generate_pairs(records, SamplingConfig(ratio=1, filter="handset-crf-top"))
