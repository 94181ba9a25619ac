"""Exact inference over the (i, j, state) edit lattice of string pairs.

Masses and scores live in natural-log space.  One anti-diagonal forward
sweep runs in two semirings.  In log-sum it totals alignment mass, and
expected feature counts come from its adjoint (see :mod:`editcrf.engine`).
In max it scores best paths, and the edges whose sums reach their end node
exactly give the single best alignment.  Ties go to the shortest alignment,
then the smallest operation-name sequence, then the smallest state-id
sequence.  Every single-pair query is the batched code run on a one-pair
:class:`Batch`.  A brute-force enumerator over tiny inputs serves as an
independent oracle.
"""

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import edits
from .engine import MAX, Batch, expectations
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


class Lattice(NamedTuple):
    """Forward table of one pair: its one-pair batch, alpha, and whether a
    beam cut a node with finite mass."""

    batch: Batch
    alpha: np.ndarray
    pruned: bool


def log_potential(model: FsmModel, x, y, i, j, landing, from_state, op, to_state) -> float:
    """Dot product of the weights with the step's feature vector."""
    allowed = edits.apply_edit(op, x, y, i, j, lexicon=model.lexicon_union)
    if tuple(landing) not in [tuple(l) for l in allowed]:
        raise ValueError(f"{tuple(landing)} is not a landing of {op!r} at ({i}, {j})")
    vec = extract(model, x, y, i, j, landing, from_state, op, to_state)
    return float(sum(model.params[fid] * v for fid, v in vec.items()))


def forward(model: FsmModel, x: str, y: str, beam: Optional[int] = None) -> Lattice:
    """Fill alpha in anti-diagonal order; exact when beam is unlimited."""
    batch = Batch(model, [(x, y)])
    return Lattice(batch, *batch.forward(batch.edge_weights(model.params), beam))


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


def posterior_match(model: FsmModel, x: str, y: str, beam: Optional[int] = None) -> float:
    """p(match | x, y): the S1 share of total alignment mass."""
    total, p = match_posteriors(Batch(model, [(x, y)]), beam=beam)
    if not np.isfinite(total[0]):
        raise NoPathError("no complete alignment reaches an accepting node")
    return float(p[0])


def _check_inference(inference: str, beam: Optional[int]) -> None:
    """Raise ValueError unless inference is "fb", or "viterbi" with no
    beam: the best-path sweep is exact and has no beam to apply."""
    if inference not in ("fb", "viterbi"):
        raise ValueError("inference must be 'fb' or 'viterbi'")
    if inference == "viterbi" and beam is not None:
        raise ValueError("a beam applies to fb inference only, not to viterbi")


def match_posteriors(
    batch: Batch, inference: str = "fb", beam: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Each pair's total log mass, not finite when the pair has no complete
    alignment, and its p(match) under the batch's model: the S1 share of
    alignment mass under "fb", within the beam when one is set, and of
    exponentiated best-path scores under "viterbi", which takes no beam."""
    _check_inference(inference, beam)
    w = batch.edge_weights(batch.model.params)
    if inference == "fb":
        lz0, lz1 = batch.log_partitions(batch.forward(w, beam)[0])
    else:
        lz0, lz1 = _BestPaths(batch, w).subset_scores()
    total = np.logaddexp(lz0, lz1)
    with np.errstate(invalid="ignore"):
        return total, np.exp(lz1 - total)


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
                # Node ids ascend with the anti-diagonal and every edge
                # moves to a later one, so in ascending order a tie is
                # settled after every tie among its ancestors.
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

    def path_mass(self, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """One float per edge: weights[i] on every edge of the best path
        that ends at nodes[i], 0 on the others, with the paths traced
        together.  A pair's S0 and S1 paths share no node after q0, and two
        pairs share no node at all, so paths given for different (pair,
        subset)s share no edge and one assignment per step is exact."""
        parent, mass = self.parents(), np.zeros(self.batch.n_edges)
        k = parent[nodes]
        while len(k):
            on = k >= 0
            k, weights = k[on], weights[on]
            mass[k] = weights
            k = parent[self.batch.src[k]]
        return mass

    def alignment(self, pair: int, constraint: Constraint) -> Alignment:
        """A pair's best alignment under the constraint."""
        node = self.best_nodes(constraint)[pair]
        if node < 0:
            raise NoPathError(f"no complete alignment under constraint {constraint!r}")
        ops, ix, iy, states = zip(*[self._step(k) for k in self._path(self.parents()[node])])
        return Alignment(ops, ix, iy, states, score=float(self.score[node]))

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
        _, i, j, s_idx = b._node_table[:, b.dst[k]].tolist()
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
    return _BestPaths(batch, batch.edge_weights(model.params)).alignment(0, constraint)


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
