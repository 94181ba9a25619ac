"""Shared test fixtures and enumeration-based oracle helpers.

The oracle deliberately avoids the dynamic program: it enumerates every
complete alignment, accumulates each one's feature counts by re-walking
its steps, and derives partition functions, posteriors, expected counts,
and best-path scores from those explicit lists.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import settings
from scipy.special import logsumexp

from editcrf import build_model, enumerate_alignments
from editcrf.lattice import alignment_feature_counts

# CI selects this profile (--hypothesis-profile=ci) so that every property
# test draws the same examples on every run; local runs keep random search.
settings.register_profile("ci", derandomize=True)


@dataclass
class OracleTerms:
    """Per-path feature counts and subset membership for one pair."""

    counts: np.ndarray  # (n_paths, n_features)
    subsets: np.ndarray  # (n_paths,) in {0, 1}
    keys: List[Tuple[int, Tuple[str, ...], Tuple[int, ...]]]

    def scores(self, params: np.ndarray) -> np.ndarray:
        return self.counts @ params

    def log_z(self, params: np.ndarray) -> float:
        return float(logsumexp(self.scores(params)))

    def constrained_log_z(self, params: np.ndarray, z: int) -> float:
        return float(logsumexp(self.scores(params)[self.subsets == z]))

    def posterior_match(self, params: np.ndarray) -> float:
        s = self.scores(params)
        return float(np.exp(logsumexp(s[self.subsets == 1]) - logsumexp(s)))

    def expected_counts(self, params: np.ndarray, constraint="all") -> np.ndarray:
        s = self.scores(params)
        if constraint == "all":
            sel = np.ones(len(s), dtype=bool)
        else:
            sel = self.subsets == constraint
        p = np.exp(s[sel] - logsumexp(s[sel]))
        return p @ self.counts[sel]

    def viterbi_score(self, params: np.ndarray, constraint="all") -> float:
        s = self.scores(params)
        if constraint != "all":
            s = s[self.subsets == constraint]
        return float(s.max())

    def best_alignment_key(self, params: np.ndarray):
        """Tie-break key of the max-score path: shortest, then op names,
        then state ids."""
        s = self.scores(params)
        best = s.max()
        contenders = [self.keys[k] for k in np.flatnonzero(s == best)]
        return min(contenders)


def oracle_terms(model, x: str, y: str) -> OracleTerms:
    aligns = enumerate_alignments(model, x, y)
    counts = np.stack(
        [alignment_feature_counts(model, x, y, a) for a, _ in aligns]
    )
    subsets = np.array(
        [1 if a.states[0] in model.topology.s1 else 0 for a, _ in aligns], dtype=np.int8
    )
    keys = [(len(a.edits), a.edits, a.states) for a, _ in aligns]
    return OracleTerms(counts=counts, subsets=subsets, keys=keys)


@pytest.fixture(scope="session")
def ids_model():
    """First-order insert/delete/substitute model with zero weights."""
    return build_model(["insert", "delete", "substitute"], "first-order")
