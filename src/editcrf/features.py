"""Input predicates, feature extraction, and lexicon construction.

A feature is a conjunction of one input predicate with one transition
parameter group.  Predicates are evaluated at the source cell (i, j) of a
step, so single-character operations behave exactly like classic edit
distance costs; the landing is available to callers that want it.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

import numpy as np

from .edits import fold, is_separator, tokens

# Canonical predicate order.  "bias" is always active and is appended to
# every enabled predicate set.
PREDICATES = (
    "same",
    "different",
    "same-alphabetic",
    "different-alphabetic",
    "same-numeric",
    "different-numeric",
    "punctuation-x",
    "punctuation-y",
    "alphabet-mismatch",
    "number-mismatch",
    "end-of-x",
    "end-of-y",
    "same-next-character",
    "different-next-character",
    "bias",
)

# Short aliases accepted in CLI feature lists.
PREDICATE_ALIASES = {
    "s": "same",
    "d": "different",
    "salp": "same-alphabetic",
    "dalp": "different-alphabetic",
    "snum": "same-numeric",
    "dnum": "different-numeric",
}


def _is_punct(ch: str) -> bool:
    return not ch.isalnum() and not ch.isspace()


def eval_predicate(name: str, x: str, y: str, i: int, j: int) -> int:
    """Evaluate one input predicate at cell (i, j); returns 0 or 1.

    Character-comparing predicates are 0 at the end of either string
    because there is no character to compare; end-of-x / end-of-y are the
    boundary indicators themselves.
    """
    if not (0 <= i <= len(x) and 0 <= j <= len(y)):
        raise ValueError(f"positions ({i}, {j}) out of range")
    if name == "bias":
        return 1
    if name == "end-of-x":
        return int(i == len(x))
    if name == "end-of-y":
        return int(j == len(y))
    if name in ("same-next-character", "different-next-character"):
        if i + 1 >= len(x) or j + 1 >= len(y):
            return 0
        same = fold(x[i + 1]) == fold(y[j + 1])
        return int(same if name == "same-next-character" else not same)
    if i >= len(x) or j >= len(y):
        return 0
    cx, cy = x[i], y[j]
    if name == "same":
        return int(fold(cx) == fold(cy))
    if name == "different":
        return int(fold(cx) != fold(cy))
    if name == "same-alphabetic":
        return int(cx.isalpha() and cy.isalpha() and fold(cx) == fold(cy))
    if name == "different-alphabetic":
        return int(cx.isalpha() and cy.isalpha() and fold(cx) != fold(cy))
    if name == "same-numeric":
        return int(cx.isdigit() and cy.isdigit() and cx == cy)
    if name == "different-numeric":
        return int(cx.isdigit() and cy.isdigit() and cx != cy)
    if name == "punctuation-x":
        return int(_is_punct(cx))
    if name == "punctuation-y":
        return int(_is_punct(cy))
    if name == "alphabet-mismatch":
        return int(cx.isalpha() != cy.isalpha())
    if name == "number-mismatch":
        return int(cx.isdigit() != cy.isdigit())
    raise ValueError(f"unknown predicate {name!r}")


# The facts about a cell (i, j) that decide every predicate, bit k of a
# cell key being CELL_FACTS[k]: for x, then for y, whether the character
# at the cell is alphabetic, a digit or punctuation, whether there is none
# (the cell is at the string's end) and whether it is the string's last;
# then whether the two characters fold to the same one, and whether the
# two after them do.
CELL_FACTS = (
    "alpha-x", "digit-x", "punct-x", "end-x", "last-x",
    "alpha-y", "digit-y", "punct-y", "end-y", "last-y",
    "same", "same-next",
)


def predicate_table(predicates: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Predicate masks of every cell key, as (mask_of_key, bits): the
    masks that occur, ascending, are numbered 0, 1, ...; cell key k has
    mask number mask_of_key[k], and bits[m, p] says whether predicate
    predicates[p] is active under mask m, which is bit p of the mask.
    The same rules as :func:`eval_predicate`, over all keys at once."""
    keys = np.arange(1 << len(CELL_FACTS), dtype=np.uint16)
    facts = keys >> np.arange(len(CELL_FACTS), dtype=np.uint16)[:, None] & 1
    fact = dict(zip(CELL_FACTS, facts.astype(bool)))
    inside = ~fact["end-x"] & ~fact["end-y"]
    same, different = inside & fact["same"], inside & ~fact["same"]
    alpha = fact["alpha-x"] & fact["alpha-y"]
    digit = fact["digit-x"] & fact["digit-y"]
    has_next = inside & ~fact["last-x"] & ~fact["last-y"]
    rules = {
        "same": same,
        "different": different,
        "same-alphabetic": same & alpha,
        "different-alphabetic": different & alpha,
        "same-numeric": same & digit,
        "different-numeric": different & digit,
        "punctuation-x": inside & fact["punct-x"],
        "punctuation-y": inside & fact["punct-y"],
        "alphabet-mismatch": inside & (fact["alpha-x"] != fact["alpha-y"]),
        "number-mismatch": inside & (fact["digit-x"] != fact["digit-y"]),
        "end-of-x": fact["end-x"],
        "end-of-y": fact["end-y"],
        "same-next-character": has_next & fact["same-next"],
        "different-next-character": has_next & ~fact["same-next"],
        "bias": np.ones(len(keys), dtype=bool),
    }
    for name in predicates:
        if name not in rules:
            raise ValueError(f"unknown predicate {name!r}")
    bits = np.array([rules[name] for name in predicates]).reshape(len(predicates), len(keys))
    masks = np.zeros(len(keys), dtype=np.uint32)
    for p, row in enumerate(bits):
        masks |= np.left_shift(row, p, dtype=np.uint32)
    # Rank the masks by one stable radix sort of 16-bit values.
    order = masks.astype(np.min_scalar_type(masks.max())).argsort(kind="stable")
    first = np.concatenate(([True], masks[order[1:]] != masks[order[:-1]]))
    mask_of_key = np.empty(len(keys), dtype=np.uint16)
    mask_of_key[order] = first.cumsum() - 1
    return mask_of_key, bits.T[order[first]]


def normalize_predicates(names: Iterable[str]) -> Tuple[str, ...]:
    """Resolve aliases, validate, add bias, and return in canonical order."""
    resolved = set()
    for name in names:
        full = PREDICATE_ALIASES.get(name, name)
        if full not in PREDICATES:
            raise ValueError(f"unknown predicate {name!r}")
        resolved.add(full)
    resolved.add("bias")
    return tuple(p for p in PREDICATES if p in resolved)


def extract(model, x, y, i, j, landing, from_state, op, to_state) -> Dict[int, float]:
    """Sparse feature vector for one candidate step.

    One active feature per active input predicate, conjoined with the
    parameter group of the (from_state, op, to_state) transition; the
    group's bias feature is always active.  Predicates are evaluated at
    the source cell (i, j).
    """
    group = model.group_of_transition(from_state, op, to_state)
    if group is None:
        raise ValueError(f"({from_state}, {op!r}, {to_state}) is not a model transition")
    vec: Dict[int, float] = {}
    for p_idx, pred in enumerate(model.predicates):
        if eval_predicate(pred, x, y, i, j):
            vec[model.feature_id(group, p_idx)] = 1.0
    return vec


@dataclass(frozen=True)
class LexiconSet:
    """A named set of lowercase tokens used by lexicon skip edits."""

    name: str
    words: FrozenSet[str]

    def __post_init__(self):
        for w in self.words:
            if not w:
                raise ValueError("lexicon words must be non-empty")
            if any(is_separator(c) for c in w):
                raise ValueError(f"lexicon word {w!r} contains a separator")


def build_lexicon(
    corpus: Iterable[str],
    top_k: int,
    stoplist: FrozenSet[str] = frozenset(),
    name: str = "default",
) -> LexiconSet:
    """The top_k most frequent case-folded tokens across the corpus.

    Stoplist entries are removed before ranking.  Ties are broken
    lexicographically so the result is deterministic.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    counts: Counter = Counter()
    for s in corpus:
        counts.update(tokens(s))
    stop = {t.lower() for t in stoplist}
    ranked = sorted(
        (t for t in counts if t not in stop),
        key=lambda t: (-counts[t], t),
    )
    return LexiconSet(name=name, words=frozenset(ranked[:top_k]))
