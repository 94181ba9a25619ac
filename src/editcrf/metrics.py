"""Reference string-similarity measures for filtering and baselines."""

import math
from collections import Counter
from typing import Sequence

import numpy as np

from .edits import tokens

# Candidates that jaro_many and cosine_many score in one array pass.
# jaro_many's working arrays take about 10 * _BLOCK * L bytes for strings
# of up to L characters.  Larger blocks were no faster on name records and
# raised the peak memory of pair generation.
_BLOCK = 1024


def jaro(x: str, y: str) -> float:
    """Jaro similarity in [0, 1] (Jaro 1989), one pair at a time.

    Matching window is floor(max(|x|, |y|) / 2) - 1; the score averages
    m/|x|, m/|y|, and (m - t)/m where t counts half-transpositions.
    Two empty strings score 1 by convention; no matches scores 0.

    This is the reference implementation: :func:`jaro_many`, which pair
    generation uses, must equal it bit for bit, and the tests compare the
    two.
    """
    if x == y:
        return 1.0
    if not x or not y:
        return 0.0
    window = max(len(x), len(y)) // 2 - 1
    x_flags = [False] * len(x)
    y_flags = [False] * len(y)
    matches = 0
    for i, cx in enumerate(x):
        lo = max(0, i - window)
        hi = min(len(y), i + window + 1)
        for j in range(lo, hi):
            if not y_flags[j] and y[j] == cx:
                x_flags[i] = y_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    x_matched = [c for c, f in zip(x, x_flags) if f]
    y_matched = [c for c, f in zip(y, y_flags) if f]
    half_transpositions = sum(a != b for a, b in zip(x_matched, y_matched))
    t = half_transpositions / 2.0
    m = float(matches)
    return (m / len(x) + m / len(y) + (m - t) / m) / 3.0


def _codes(texts: Sequence[str], lengths: np.ndarray) -> np.ndarray:
    """One row of int32 code points per text, right-padded with -1."""
    flat = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    codes = np.full((len(texts), int(lengths.max(initial=0))), -1, dtype=np.int32)
    rows = np.repeat(np.arange(len(texts)), lengths)
    codes[rows, np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)] = flat
    return codes


def jaro_many(texts: Sequence[str], ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """``jaro(texts[ia[k]], texts[ib[k]])`` for every k, bit for bit.

    Each text is encoded once; candidates are then scored in blocks of
    ``_BLOCK``.  Per block, one loop over x positions takes, with arrays
    over pairs, the first unused equal y character inside the window, as
    :func:`jaro` does, and the score uses the same operations in the same
    order.
    """
    ia, ib = np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    x_codes = _codes(texts, lengths)
    # A different pad on the y side, so padding never matches padding.
    y_codes = np.where(x_codes < 0, -2, x_codes)
    index = {}
    text_id = np.array([index.setdefault(t, len(index)) for t in texts], dtype=np.int64)
    out = np.empty(len(ia))
    # Blocks of similar lengths pad little.
    order = np.lexsort((lengths[ib], lengths[ia]))
    for s in range(0, len(ia), _BLOCK):
        block = order[s : s + _BLOCK]
        a, b = ia[block], ib[block]
        out[block] = _jaro_block(x_codes[a], y_codes[b], lengths[a], lengths[b])
    out[text_id[ia] == text_id[ib]] = 1.0
    return out


def _jaro_block(x: np.ndarray, y: np.ndarray, lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    """Jaro of each row pair of padded code arrays; equal texts excluded."""
    n = len(lx)
    nx, ny = int(lx.max(initial=0)), int(ly.max(initial=0))
    if nx == 0 or ny == 0:
        return np.zeros(n)
    x, y = x[:, :nx], y[:, :ny]
    window = (np.maximum(lx, ly) // 2 - 1)[:, None]
    cols, rows = np.arange(ny), np.arange(n)
    free = np.ones((n, ny), dtype=bool)
    x_hit = np.zeros((n, nx), dtype=bool)
    for i in range(nx):
        c = (y == x[:, i, None]) & (np.abs(cols - i) <= window) & free
        j = c.argmax(axis=1)
        hit = c[rows, j]
        free[rows, j] &= ~hit
        x_hit[:, i] = hit
    matches = x_hit.sum(axis=1)
    # Row-major order lists each pair's matched characters in string
    # order, and both sides of pair p hold matches[p] of them, so the k-th
    # of x meets the k-th of y.
    mismatched = x[x_hit] != y[~free]
    half = np.bincount(np.repeat(rows, matches)[mismatched], minlength=n)
    t = half / 2.0
    m = matches.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (m / lx + m / ly + (m - t) / m) / 3.0
    score[matches == 0] = 0.0
    return score


def cosine_tokens(x: str, y: str) -> float:
    """Cosine of raw token-count vectors after case folding.

    Tokenization uses the same separator class as the edit operations;
    a string with no tokens scores 0 against anything.
    """
    cx = Counter(tokens(x))
    cy = Counter(tokens(y))
    if not cx or not cy:
        return 0.0
    dot = sum(cx[t] * cy[t] for t in cx.keys() & cy.keys())
    nx = math.sqrt(sum(v * v for v in cx.values()))
    ny = math.sqrt(sum(v * v for v in cy.values()))
    return dot / (nx * ny)


def cosine_many(texts: Sequence[str], ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """``cosine_tokens(texts[ia[k]], texts[ib[k]])`` for every k, bit for bit.

    Each text is tokenized once, into its token counts and their norm.
    Per block of ``_BLOCK`` candidates, each token of a candidate's x text
    is looked up among its y text's sorted (text, token) keys.  The dot
    product is an integer, so summing it as a float is exact, and it is
    divided by the same norms as in :func:`cosine_tokens`.
    """
    ia, ib = np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)
    counts = [Counter(tokens(t)) for t in texts]
    norm = np.array([math.sqrt(sum(v * v for v in c.values())) for c in counts])
    n_tokens = np.fromiter(map(len, counts), dtype=np.int64, count=len(counts))
    start = np.cumsum(n_tokens) - n_tokens
    vocab = {}
    token = np.array([vocab.setdefault(t, len(vocab)) for c in counts for t in c], dtype=np.int64)
    count = np.array([v for c in counts for v in c.values()], dtype=np.float64)
    # Each text's entries stay in its own run when sorted by (text, token).
    key = np.repeat(np.arange(len(texts), dtype=np.int64), n_tokens) * len(vocab) + token
    order = np.argsort(key)
    key, token, count = key[order], token[order], count[order]
    dot = np.empty(len(ia))
    for s in range(0, len(ia), _BLOCK):
        a, b = ia[s : s + _BLOCK], ib[s : s + _BLOCK]
        n = n_tokens[a]
        candidate = np.repeat(np.arange(len(a)), n)
        entry = np.arange(len(candidate)) + np.repeat(start[a] - (np.cumsum(n) - n), n)
        wanted = b[candidate] * len(vocab) + token[entry]
        at = np.minimum(np.searchsorted(key, wanted), len(key) - 1)
        both = np.where(key[at] == wanted, count[entry] * count[at], 0.0)
        dot[s : s + _BLOCK] = np.bincount(candidate, weights=both, minlength=len(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        score = dot / (norm[ia] * norm[ib])
    score[(n_tokens[ia] == 0) | (n_tokens[ib] == 0)] = 0.0
    return score


def levenshtein(x: str, y: str) -> int:
    """Unit-cost insert/delete/substitute distance."""
    if len(x) < len(y):
        x, y = y, x
    previous = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        current = [i] + [0] * len(y)
        for j, cy in enumerate(y, start=1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (cx != cy),
            )
        previous = current
    return previous[len(y)]
