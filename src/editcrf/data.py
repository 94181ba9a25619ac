"""Corpora: records, labeled pairs, negative sampling, splits, synthesis.

Records are single unsegmented character sequences tagged with an entity
id; pairs of records sharing an entity are positives, and negatives are
sampled from cross-entity pairs preferring near misses under a cheap
similarity filter.  Everything is deterministic under its seed.
"""

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DataFormatError

RECORD_HEADER = "record_id\tentity_id\ttext"
PAIR_HEADER = "pair_id\tx\ty\tz"
# Joins the two record ids of a generated pair id, so no record id may hold it.
PAIR_ID_SEPARATOR = "|"


@dataclass(frozen=True)
class Record:
    record_id: str
    entity_id: str
    text: str


@dataclass(frozen=True)
class LabeledPair:
    pair_id: str
    x: str
    y: str
    z: int
    entity_x: Optional[str] = None
    entity_y: Optional[str] = None


@dataclass(frozen=True)
class SamplingConfig:
    """Negative sampling: ratio negatives per positive, near-miss filter."""

    ratio: int = 10
    filter: str = "jaro-top"
    seed: int = 0

    def __post_init__(self):
        if self.ratio < 0:
            raise ValueError("ratio must be >= 0")
        if self.filter not in ("jaro-top", "cosine-top", "handset-crf-top"):
            raise ValueError(f"unknown negative filter {self.filter!r}")


@dataclass(frozen=True)
class NoiseConfig:
    """Perturbation rates for synthetic duplicates.

    A duplicate is corrupted with probability ``record_error_prob``; a
    corrupted duplicate swaps its first and last words with probability
    ``word_swap_prob`` and then receives, independently per typo kind,
    one random character insertion, deletion, or adjacent transposition
    with the corresponding probability.
    """

    record_error_prob: float = 0.4
    typo_insert_prob: float = 0.4
    typo_delete_prob: float = 0.4
    typo_swap_prob: float = 0.4
    word_swap_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in (
            "record_error_prob",
            "typo_insert_prob",
            "typo_delete_prob",
            "typo_swap_prob",
            "word_swap_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


def _check_text(text: str, what: str, line_no: int):
    if "\t" in text or "\n" in text or "\r" in text:
        raise DataFormatError(f"line {line_no}: literal tab or newline in {what}")


def load_records(source) -> List[Record]:
    """Read a records TSV (header: record_id, entity_id, text)."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    if not lines or lines[0] != RECORD_HEADER:
        raise DataFormatError(f"line 1: expected header {RECORD_HEADER!r}")
    records: List[Record] = []
    seen = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise DataFormatError(f"line {line_no}: expected 3 tab-separated columns, found {len(cols)}")
        record_id, entity_id, text = cols
        if not text:
            raise DataFormatError(f"line {line_no}: record text must be non-empty")
        if PAIR_ID_SEPARATOR in record_id:
            raise DataFormatError(f"line {line_no}: record_id {record_id!r} contains {PAIR_ID_SEPARATOR!r}")
        if record_id in seen:
            raise DataFormatError(f"line {line_no}: duplicate record_id {record_id!r}")
        seen.add(record_id)
        records.append(Record(record_id=record_id, entity_id=entity_id, text=text))
    return records


def save_records(records: Sequence[Record], destination) -> None:
    lines = [RECORD_HEADER]
    for k, r in enumerate(records, start=2):
        _check_text(r.record_id + r.entity_id + r.text, "record fields", k)
        lines.append(f"{r.record_id}\t{r.entity_id}\t{r.text}")
    payload = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)


def load_pairs(source) -> List[LabeledPair]:
    """Read a pairs TSV (header: pair_id, x, y, z)."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    if not lines or lines[0] != PAIR_HEADER:
        raise DataFormatError(f"line 1: expected header {PAIR_HEADER!r}")
    pairs: List[LabeledPair] = []
    seen = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise DataFormatError(f"line {line_no}: expected 4 tab-separated columns, found {len(cols)}")
        pair_id, x, y, z = cols
        if z not in ("0", "1"):
            raise DataFormatError(f"line {line_no}: label must be 0 or 1, got {z!r}")
        if pair_id in seen:
            raise DataFormatError(f"line {line_no}: duplicate pair_id {pair_id!r}")
        seen.add(pair_id)
        pairs.append(LabeledPair(pair_id=pair_id, x=x, y=y, z=int(z)))
    return pairs


def save_pairs(pairs: Sequence[LabeledPair], destination) -> None:
    lines = [PAIR_HEADER]
    for k, p in enumerate(pairs, start=2):
        _check_text(p.pair_id + p.x + p.y, "pair fields", k)
        lines.append(f"{p.pair_id}\t{p.x}\t{p.y}\t{p.z}")
    payload = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)


# Candidates per batched lattice pass of the handset-crf-top filter; a
# batch of 512 name pairs takes a few tens of MB.
_HANDSET_CHUNK = 512

# (records sorted by id, ia, ib) -> float64 score of each candidate
# (records[ia[k]], records[ib[k]]).
Scorer = Callable[[Sequence[Record], np.ndarray, np.ndarray], np.ndarray]


def _pair(first: Record, second: Record) -> LabeledPair:
    """The pair of two records, first's id ordered before second's."""
    return LabeledPair(
        pair_id=f"{first.record_id}{PAIR_ID_SEPARATOR}{second.record_id}",
        x=first.text,
        y=second.text,
        z=int(first.entity_id == second.entity_id),
        entity_x=first.entity_id,
        entity_y=second.entity_id,
    )


def _negative_scorer(filter_name: str) -> Scorer:
    from . import metrics

    if filter_name == "jaro-top":
        return lambda ordered, ia, ib: metrics.jaro_many([r.text for r in ordered], ia, ib)
    if filter_name == "cosine-top":
        return lambda ordered, ia, ib: np.array(
            [metrics.cosine_tokens(ordered[a].text, ordered[b].text)
             for a, b in zip(ia.tolist(), ib.tolist())],
            dtype=np.float64,
        )
    # Hand-set model scores; imported lazily to keep data loading light.
    from .evaluation import score_pairs
    from .model import build_model
    from .training import init_params

    model = build_model(["insert", "delete", "substitute"], "first-order")
    model = model.with_params(init_params(model))

    def handset(ordered, ia, ib):
        out = np.empty(len(ia))
        for s in range(0, len(ia), _HANDSET_CHUNK):
            chunk = [_pair(ordered[a], ordered[b])
                     for a, b in zip(ia[s : s + _HANDSET_CHUNK].tolist(),
                                     ib[s : s + _HANDSET_CHUNK].tolist())]
            out[s : s + len(chunk)] = [p for _, p, _ in score_pairs(model, chunk)]
        return out

    return handset


def _top(scores: np.ndarray, wanted: int, pair_id: Callable[[int], str]) -> List[int]:
    """Indexes of the wanted highest scores, ordered by (-score, pair id,
    index) as a stable sort of all candidates would order them.

    Only the candidates at the cut-off score need their pair ids to
    decide which of them are kept.
    """
    if wanted == 0:
        return []
    cut = np.partition(scores, len(scores) - wanted)[len(scores) - wanted]
    above = np.flatnonzero(scores > cut).tolist()
    at = sorted(np.flatnonzero(scores == cut).tolist(), key=pair_id)
    value = scores.tolist()
    return sorted(above + at[: wanted - len(above)], key=lambda k: (-value[k], pair_id(k), k))


def generate_pairs(records: Sequence[Record], sampling: SamplingConfig) -> List[LabeledPair]:
    """All intra-entity positives plus the ratio-scaled nearest negatives.

    Negatives are the highest-scoring cross-entity pairs under the
    configured filter, ties broken by pair id; when fewer candidates
    exist than requested, all are taken.  The result is independent of
    the input record order and of ``sampling.seed``.  Candidates are index
    pairs into the records sorted by id, in ``itertools.combinations``
    order; the filter scores them all in one array pass, and only the
    pairs returned become ``LabeledPair`` objects.
    """
    if len(records) < 2:
        raise ValueError("need at least 2 records to generate pairs")
    for r in records:
        if PAIR_ID_SEPARATOR in r.record_id:
            raise ValueError(f"record_id {r.record_id!r} contains {PAIR_ID_SEPARATOR!r}, which joins pair ids")
    ordered = sorted(records, key=lambda r: r.record_id)
    entity_ids = {}
    entity = np.array([entity_ids.setdefault(r.entity_id, len(entity_ids)) for r in ordered])
    ia, ib = np.triu_indices(len(ordered), 1)
    same = entity[ia] == entity[ib]
    positives = [_pair(ordered[a], ordered[b]) for a, b in zip(ia[same].tolist(), ib[same].tolist())]
    ia, ib = ia[~same], ib[~same]
    wanted = sampling.ratio * len(positives)
    if wanted >= len(ia):
        negatives = sorted(
            (_pair(ordered[a], ordered[b]) for a, b in zip(ia.tolist(), ib.tolist())),
            key=lambda p: p.pair_id,
        )
    else:
        scores = _negative_scorer(sampling.filter)(ordered, ia, ib)
        ids, first, second = [r.record_id for r in ordered], ia.tolist(), ib.tolist()

        def pair_id(k):
            return f"{ids[first[k]]}{PAIR_ID_SEPARATOR}{ids[second[k]]}"

        kept = _top(scores, wanted, pair_id)
        negatives = [_pair(ordered[first[k]], ordered[second[k]]) for k in kept]
    return positives + negatives


def split_pairs(
    pairs: Sequence[LabeledPair],
    fraction: float = 0.5,
    seed: int = 0,
    mode: str = "entity",
    swap: bool = False,
) -> Tuple[List[LabeledPair], List[LabeledPair]]:
    """Deterministic train/test split.

    ``mode="entity"`` keeps each connected component of the entity graph
    on one side, so no entity contributes pairs to both; this needs
    entity ids on the pairs.  ``mode="pair"`` splits pairs uniformly at
    random.  ``swap=True`` exchanges the two sides (fold interchange).
    """
    if not pairs:
        raise ValueError("cannot split an empty pair list")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    rng = random.Random(seed)
    if mode == "pair":
        shuffled = sorted(pairs, key=lambda p: p.pair_id)
        rng.shuffle(shuffled)
        cut = round(fraction * len(shuffled))
        train, test = shuffled[:cut], shuffled[cut:]
    elif mode == "entity":
        entities = set()
        for p in pairs:
            if p.entity_x is None or p.entity_y is None:
                raise ValueError(
                    "entity-disjoint split requires entity ids on pairs; "
                    "use mode='pair' for pairs loaded without them"
                )
            entities.update((p.entity_x, p.entity_y))
        if len(entities) < 2:
            raise ValueError("cannot split pairs drawn from a single entity")
        parent = {e: e for e in entities}

        def find(e):
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        for p in pairs:
            ra, rb = find(p.entity_x), find(p.entity_y)
            if ra != rb:
                parent[ra] = rb
        components = {}
        for p in pairs:
            components.setdefault(find(p.entity_x), []).append(p)
        units = sorted(components.values(), key=lambda unit: unit[0].pair_id)
        rng.shuffle(units)
        target_train = fraction * len(pairs)
        target_test = (1.0 - fraction) * len(pairs)
        train, test = [], []
        for unit in units:
            deficit_train = target_train - len(train)
            deficit_test = target_test - len(test)
            (train if deficit_train >= deficit_test else test).extend(unit)
    else:
        raise ValueError(f"unknown split mode {mode!r}")
    if swap:
        train, test = test, train
    return train, test


def _typo_insert(text: str, rng: random.Random) -> str:
    pos = rng.randrange(len(text) + 1)
    ch = rng.choice("abcdefghijklmnopqrstuvwxyz")
    return text[:pos] + ch + text[pos:]


def _typo_delete(text: str, rng: random.Random) -> str:
    if not text:
        return text
    pos = rng.randrange(len(text))
    return text[:pos] + text[pos + 1 :]


def _typo_swap(text: str, rng: random.Random) -> str:
    if len(text) < 2:
        return text
    pos = rng.randrange(len(text) - 1)
    return text[:pos] + text[pos + 1] + text[pos] + text[pos + 2 :]


def _word_swap(text: str) -> str:
    words = text.split()
    if len(words) >= 2:
        words[0], words[-1] = words[-1], words[0]
    return " ".join(words)


def perturb(text: str, noise: NoiseConfig, rng: random.Random) -> str:
    """One noisy copy of text under the noise model (see NoiseConfig)."""
    if rng.random() >= noise.record_error_prob:
        return text
    if rng.random() < noise.word_swap_prob:
        text = _word_swap(text)
    if rng.random() < noise.typo_swap_prob:
        text = _typo_swap(text, rng)
    if rng.random() < noise.typo_delete_prob:
        text = _typo_delete(text, rng)
    if rng.random() < noise.typo_insert_prob:
        text = _typo_insert(text, rng)
    return text


def synthesize_names(
    base_names: Sequence[str],
    noise: NoiseConfig,
    duplicates_per_name: int = 1,
) -> List[Record]:
    """Each base name plus perturbed duplicates sharing its entity id."""
    if not base_names:
        raise ValueError("base name list must be non-empty")
    if duplicates_per_name < 1:
        raise ValueError("duplicates_per_name must be >= 1")
    rng = random.Random(noise.seed)
    records: List[Record] = []
    width = len(str(len(base_names)))
    for n, name in enumerate(base_names):
        entity = f"e{n:0{width}d}"
        records.append(Record(record_id=f"{entity}-0", entity_id=entity, text=name))
        for d in range(1, duplicates_per_name + 1):
            text = perturb(name, noise, rng)
            if not text:
                text = name
            records.append(Record(record_id=f"{entity}-{d}", entity_id=entity, text=text))
    return records


_FIRST_NAMES = (
    "james", "mary", "robert", "patricia", "john", "jennifer", "michael",
    "linda", "david", "elizabeth", "william", "barbara", "richard", "susan",
    "joseph", "jessica", "thomas", "sarah", "charles", "karen", "daniel",
    "lisa", "matthew", "nancy", "anthony", "betty", "mark", "margaret",
    "donald", "sandra", "steven", "ashley", "paul", "kimberly", "andrew",
    "emily", "joshua", "donna", "kenneth", "michelle",
)

_LAST_NAMES = (
    "smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
    "davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez",
    "wilson", "anderson", "thomas", "taylor", "moore", "jackson", "martin",
    "lee", "perez", "thompson", "white", "harris", "sanchez", "clark",
    "ramirez", "lewis", "robinson", "walker", "young", "allen", "king",
    "wright", "scott", "torres", "nguyen", "hill", "flores",
)


def random_person_names(n: int, seed: int = 0) -> List[str]:
    """n distinct two-word person names drawn from built-in vocabularies."""
    combos = [f"{a} {b}" for a in _FIRST_NAMES for b in _LAST_NAMES]
    if n > len(combos):
        raise ValueError(f"at most {len(combos)} distinct names are available")
    rng = random.Random(seed)
    return rng.sample(combos, n)
