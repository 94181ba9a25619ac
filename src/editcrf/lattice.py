"""Exact inference over the (i, j, state) edit lattice of one string pair.

Masses and scores live in natural-log space.  One anti-diagonal forward
sweep runs in two semirings.  In log-sum it totals alignment mass, and
expected feature counts come from its adjoint (see :mod:`editcrf.engine`);
the log-space backward pass fills beta for :func:`backward`.  In max it
scores best paths, and the edges whose sums reach their end node exactly
give the single best alignment.  Ties go to the shortest alignment, then
the smallest operation-name sequence, then the smallest state-id sequence.
A brute-force enumerator over tiny inputs serves as an independent oracle.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import edits
from .engine import MAX, Batch, BeamConfig, expectations
from .errors import DegenerateInputError, NoPathError
from .features import extract
from .model import Q0, FsmModel

Constraint = Union[str, int]


@dataclass(frozen=True)
class Alignment:
    """A complete alignment: edits, landed positions, and visited states.

    Positions are the cumulative consumption points of each step, so the
    final entries equal (|x|, |y|).  All states lie in one subset.
    """

    edits: Tuple[str, ...]
    ix: Tuple[int, ...]
    iy: Tuple[int, ...]
    states: Tuple[int, ...]
    score: float


class Lattice:
    """Forward (and optionally backward) tables for one pair."""

    def __init__(self, model: FsmModel, x: str, y: str, beam=None):
        self.model = model
        self.x = x
        self.y = y
        self.beam = beam
        self.batch = Batch(model, [(x, y)])
        self.w = self.batch.edge_weights(model.params)
        self.alpha, self.pruned = self.batch.forward(self.w, self.beam)
        self.beta: Optional[np.ndarray] = None

    def run_backward(self) -> "Lattice":
        if self.beta is None:
            self.beta = self.batch.backward(self.w)
        return self

    def _node(self, i: int, j: int, state: int) -> Optional[int]:
        b = self.batch
        if state == Q0:
            return 0 if (i, j) == (0, 0) else None
        s_idx = b.runtime.state_index.get(state)
        if s_idx is None or not (0 <= i <= b.nx[0] and 0 <= j <= b.ny[0]):
            return None
        return 1 + (i * (int(b.ny[0]) + 1) + j) * len(b.runtime.states) + s_idx

    def alpha_at(self, i: int, j: int, state: int) -> float:
        node = self._node(i, j, state)
        return float(self.alpha[node]) if node is not None else -np.inf

    def beta_at(self, i: int, j: int, state: int) -> float:
        if self.beta is None:
            raise ValueError("backward pass has not been run")
        node = self._node(i, j, state)
        return float(self.beta[node]) if node is not None else -np.inf


def log_potential(model: FsmModel, x, y, i, j, landing, from_state, op, to_state) -> float:
    """Dot product of the weights with the step's feature vector."""
    allowed = edits.apply_edit(op, x, y, i, j, lexicon=model.lexicon_union)
    if tuple(landing) not in [tuple(l) for l in allowed]:
        raise ValueError(f"{tuple(landing)} is not a landing of {op!r} at ({i}, {j})")
    vec = extract(model, x, y, i, j, landing, from_state, op, to_state)
    return float(sum(model.params[fid] * v for fid, v in vec.items()))


def forward(model: FsmModel, x: str, y: str, beam=None) -> Lattice:
    """Fill alpha in anti-diagonal order; exact when beam is unlimited."""
    return Lattice(model, x, y, beam=beam)


def backward(model: FsmModel, x: str, y: str) -> Lattice:
    """Forward plus backward tables (beta = 0 at accepting nodes)."""
    return Lattice(model, x, y).run_backward()


def log_partition(lattice: Lattice) -> float:
    lz0, lz1 = lattice.batch.log_partitions(lattice.alpha)
    total = float(np.logaddexp(lz0[0], lz1[0]))
    if not np.isfinite(total):
        raise NoPathError("no complete alignment reaches an accepting node")
    return total


def constrained_log_partition(lattice: Lattice, z: int) -> float:
    if z not in (0, 1):
        raise ValueError("constraint label must be 0 or 1")
    lz0, lz1 = lattice.batch.log_partitions(lattice.alpha)
    value = float(lz1[0] if z == 1 else lz0[0])
    if not np.isfinite(value):
        raise NoPathError(f"no complete alignment inside subset S{z}")
    return value


def posterior_match(model: FsmModel, x: str, y: str, beam=None) -> float:
    """p(match | x, y): the S1 share of total alignment mass."""
    lattice = forward(model, x, y, beam=beam)
    lz0, lz1 = lattice.batch.log_partitions(lattice.alpha)
    total = np.logaddexp(lz0[0], lz1[0])
    if not np.isfinite(total):
        raise NoPathError("no complete alignment reaches an accepting node")
    return float(np.exp(lz1[0] - total))


def expected_feature_counts(
    model: FsmModel, x: str, y: str, constraint: Constraint = "all"
) -> np.ndarray:
    """Posterior-expected feature counts, optionally within one subset."""
    if constraint not in ("all", 0, 1):
        raise ValueError(f"constraint must be 'all', 0, or 1, got {constraint!r}")
    labels = None if constraint == "all" else np.array([constraint])
    exp = expectations(Batch(model, [(x, y)]), model.params, labels, want_counts=labels is None)
    return exp.counts_all if labels is None else exp.counts_clamped


class _BestPaths:
    """Best paths of every pair of a batch from one max-product sweep,
    which serves "all", S0 and S1 at once: they share no node after q0.

    An edge is tight when score[src] + w == score[dst], exactly, as the
    sweep added the same two floats.  A node's parent is its tight incoming
    edge; where several tie, the tie-break of :func:`viterbi` picks one.
    """

    def __init__(self, batch: Batch, w: np.ndarray):
        self.batch, self.w = batch, w
        self.score = batch._sweep_forward(w, semiring=MAX)
        self._parent: Optional[np.ndarray] = None

    def subset_scores(self) -> Tuple[np.ndarray, np.ndarray]:
        """Best-path score of each pair in S0 and in S1; -inf when none."""
        return self.score[self.batch.acc0].max(axis=1), self.score[self.batch.acc1].max(axis=1)

    def parents(self) -> np.ndarray:
        """Chosen incoming edge of every node; -1 where there is none."""
        if self._parent is None:
            b, score = self.batch, self.score
            from_score = score[b.src]
            tight = np.flatnonzero(np.isfinite(from_score) & (from_score + self.w == score[b.dst]))
            to = b.dst[tight]
            self._parent = parent = np.full(b.n_nodes, -1, dtype=np.int64)
            parent[to] = tight
            tied = tight[np.bincount(to, minlength=b.n_nodes)[to] > 1]
            if len(tied):
                tied = tied[np.argsort(b.dst[tied], kind="stable")]
                # Node ids follow row-major cells and every edge moves down
                # or right, so in ascending order a tie is settled after
                # every tie among its ancestors.
                for group in np.split(tied, np.flatnonzero(np.diff(b.dst[tied])) + 1):
                    parent[b.dst[group[0]]] = min(group, key=self._key)
        return self._parent

    def best_nodes(self, constraint: Constraint) -> np.ndarray:
        """Accepting node that ends each pair's best path; -1 when none."""
        b = self.batch
        if constraint == "all":
            acc = np.concatenate((b.acc0, b.acc1), axis=1)
        elif constraint in (0, 1):
            acc = b.acc1 if constraint == 1 else b.acc0
        else:
            raise ValueError(f"constraint must be 'all', 0, or 1, got {constraint!r}")
        vals = self.score[acc]
        rows, pick = np.arange(b.n_pairs), vals.argmax(axis=1)
        best = vals[rows, pick]
        out = np.where(np.isfinite(best), acc[rows, pick], -1)
        n_best = np.count_nonzero(vals == best[:, None], axis=1)
        for p in np.flatnonzero(np.isfinite(best) & (n_best > 1)):
            out[p] = min(acc[p][vals[p] == best[p]], key=lambda n: self._key(self.parents()[n]))
        return out

    def path_edges(self, nodes: np.ndarray) -> np.ndarray:
        """Edges of the best paths ending at the given nodes, traced together."""
        parent, out = self.parents(), []
        k = parent[nodes]
        while len(k):
            out.append(k[k >= 0])
            k = parent[self.batch.src[out[-1]]]
        return np.concatenate(out)

    def alignment(self, pair: int, constraint: Constraint) -> Tuple[Alignment, List[int]]:
        """A pair's best alignment under the constraint, and its edges."""
        node = self.best_nodes(constraint)[pair]
        if node < 0:
            raise NoPathError(f"no complete alignment under constraint {constraint!r}")
        ks = self._path(self.parents()[node])
        ops, ix, iy, states = zip(*[self._step(k) for k in ks])
        return Alignment(ops, ix, iy, states, score=float(self.score[node])), ks

    def _path(self, k: int) -> List[int]:
        """Edges of the path that ends with edge k, following parents back."""
        out = []
        while k >= 0:
            out.append(int(k))
            k = self._parent[self.batch.src[k]]
        return out[::-1]

    def _step(self, k: int) -> Tuple[str, int, int, int]:
        """(operation, landed i, landed j, state) of edge k."""
        b = self.batch
        pair = b.pair_of_edge[k]
        cell, s_idx = divmod(int(b.dst[k] - b.node_offset[pair]) - 1, len(b.runtime.states))
        i, j = divmod(cell, int(b.ny[pair]) + 1)
        return b.model.ops[b.op_idx[k]], i, j, b.runtime.states[s_idx]

    def _key(self, k: int) -> Tuple[int, Tuple[str, ...], Tuple[int, ...]]:
        """Tie-break key of the path that ends with edge k."""
        ops, _, _, states = zip(*[self._step(e) for e in self._path(k)])
        return len(ops), ops, states


def viterbi(model: FsmModel, x: str, y: str, constraint: Constraint = "all") -> Alignment:
    """Maximum-score complete alignment under the constraint.

    Ties are broken deterministically: shorter alignments first, then
    lexicographically by operation-name sequence, then by state ids.
    """
    batch = Batch(model, [(x, y)])
    return viterbi_on_batch(batch, batch.edge_weights(model.params), constraint)[0]


def viterbi_on_batch(
    batch: Batch, w: np.ndarray, constraint: Constraint = "all"
) -> Tuple[Alignment, List[int]]:
    """Max-product pass over a single-pair batch with explicit potentials.

    Returns the best alignment and the indices of its batch edges, which
    lets callers accumulate feature counts without re-extraction.
    """
    return _BestPaths(batch, w).alignment(0, constraint)


def viterbi_subset_scores(model: FsmModel, x: str, y: str) -> Tuple[float, float]:
    """Best-path log-scores in (S0, S1); -inf when a subset has no path."""
    batch = Batch(model, [(x, y)])
    v0, v1 = _BestPaths(batch, batch.edge_weights(model.params)).subset_scores()
    return float(v0[0]), float(v1[0])


def viterbi_match_score(model: FsmModel, x: str, y: str) -> float:
    """Match probability from the ratio of best-path exponentiated scores."""
    v0, v1 = viterbi_subset_scores(model, x, y)
    total = np.logaddexp(v0, v1)
    if not np.isfinite(total):
        raise NoPathError("no complete alignment in either subset")
    return float(np.exp(v1 - total))


def alignment_feature_counts(model: FsmModel, x: str, y: str, alignment: Alignment) -> np.ndarray:
    """Dense feature counts accumulated along one alignment's steps."""
    counts = np.zeros(model.n_features)
    i, j, state = 0, 0, Q0
    for op, i2, j2, to in zip(alignment.edits, alignment.ix, alignment.iy, alignment.states):
        vec = extract(model, x, y, i, j, (i2, j2), state, op, to)
        for fid, v in vec.items():
            counts[fid] += v
        i, j, state = i2, j2, to
    return counts


def enumerate_alignments(model: FsmModel, x: str, y: str) -> List[Tuple[Alignment, float]]:
    """Exhaustively list all complete alignments with their log-scores.

    Independent of the dynamic program: walks transitions and landings
    directly, scoring each step with :func:`log_potential`.  Guarded to
    tiny inputs without word-level operations.
    """
    if len(x) > 4 or len(y) > 4:
        raise ValueError("enumeration is limited to strings of length <= 4")
    blocked = set(model.ops) & edits.WORD_LEVEL_OPS
    if blocked:
        raise ValueError(
            "enumeration is not supported with word-level operations: "
            + ", ".join(sorted(blocked))
        )
    if not x and not y:
        raise DegenerateInputError("both strings are empty; no non-empty alignment exists")
    trans_from: Dict[int, List] = {}
    for t in model.topology.transitions:
        trans_from.setdefault(t.frm, []).append(t)
    results: List[Tuple[Alignment, float]] = []

    def rec(i, j, state, ops, ix, iy, states, score):
        if i == len(x) and j == len(y) and state != Q0:
            alignment = Alignment(
                edits=tuple(ops), ix=tuple(ix), iy=tuple(iy), states=tuple(states), score=score
            )
            results.append((alignment, score))
            return
        for t in trans_from.get(state, ()):
            for landing in edits.apply_edit(t.op, x, y, i, j, lexicon=model.lexicon_union):
                lp = log_potential(model, x, y, i, j, landing, t.frm, t.op, t.to)
                rec(
                    landing.i_next,
                    landing.j_next,
                    t.to,
                    ops + [t.op],
                    ix + [landing.i_next],
                    iy + [landing.j_next],
                    states + [t.to],
                    score + lp,
                )

    rec(0, 0, Q0, [], [], [], [], 0.0)
    return results
