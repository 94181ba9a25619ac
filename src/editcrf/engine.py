"""Vectorized edit-lattice construction and log-space sweeps.

The lattice for a string pair has one node per (i, j, state) triple plus a
start node for q0 at (0, 0).  Because every edit strictly increases i + j,
nodes can be processed one anti-diagonal at a time, and a whole corpus of
pairs can share a single sweep: edges of all pairs are merged, sorted by
source anti-diagonal, and reduced with segmented log-sum-exp.

Edges carry a signature id standing for their active feature-id set, a
(parameter group, predicate mask) pair.  Signature ids belong to the batch:
they number the distinct pairs among its own edges in sorted (group, mask)
order.  Edge potentials for new parameter vectors are then a sparse
matrix-vector product followed by a gather, and expected feature counts are
a weighted bincount over signatures.  All reductions run in a fixed order
and a batch shares no state with other batches, so every quantity is
deterministic for a given model and corpus, and one model may be used from
several threads at once.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from . import edits
from .errors import DegenerateInputError, NoPathError
from .model import Q0, FsmModel

NEG_INF = -np.inf


def _char_profile(s: str):
    ford = np.array([ord(edits.fold(c)) for c in s], dtype=np.int64)
    alpha = np.array([c.isalpha() for c in s], dtype=bool)
    digit = np.array([c.isdigit() for c in s], dtype=bool)
    punct = np.array([not c.isalnum() and not c.isspace() for c in s], dtype=bool)
    return ford, alpha, digit, punct


def _predicate_mask_grid(predicates: Sequence[str], x: str, y: str) -> np.ndarray:
    """Bitmask grid of active predicates per cell, bit k = predicates[k]."""
    nx, ny = len(x), len(y)
    fx, ax, dx, px = _char_profile(x)
    fy, ay, dy, py = _char_profile(y)
    same = fx[:, None] == fy[None, :]
    grids = {}
    shape = (nx + 1, ny + 1)

    def core(values) -> np.ndarray:
        g = np.zeros(shape, dtype=bool)
        g[:nx, :ny] = values
        return g

    for name in predicates:
        if name == "bias":
            g = np.ones(shape, dtype=bool)
        elif name == "same":
            g = core(same)
        elif name == "different":
            g = core(~same)
        elif name == "same-alphabetic":
            g = core(same & ax[:, None] & ay[None, :])
        elif name == "different-alphabetic":
            g = core(~same & ax[:, None] & ay[None, :])
        elif name == "same-numeric":
            g = core(same & dx[:, None] & dy[None, :])
        elif name == "different-numeric":
            g = core(~same & dx[:, None] & dy[None, :])
        elif name == "punctuation-x":
            g = core(np.broadcast_to(px[:, None], (nx, ny)))
        elif name == "punctuation-y":
            g = core(np.broadcast_to(py[None, :], (nx, ny)))
        elif name == "alphabet-mismatch":
            g = core(ax[:, None] != ay[None, :])
        elif name == "number-mismatch":
            g = core(dx[:, None] != dy[None, :])
        elif name == "end-of-x":
            g = np.zeros(shape, dtype=bool)
            g[nx, :] = True
        elif name == "end-of-y":
            g = np.zeros(shape, dtype=bool)
            g[:, ny] = True
        elif name == "same-next-character":
            g = np.zeros(shape, dtype=bool)
            if nx > 1 and ny > 1:
                g[: nx - 1, : ny - 1] = same[1:, 1:]
        elif name == "different-next-character":
            g = np.zeros(shape, dtype=bool)
            if nx > 1 and ny > 1:
                g[: nx - 1, : ny - 1] = ~same[1:, 1:]
        else:
            raise ValueError(f"unknown predicate {name!r}")
        grids[name] = g
    mask = np.zeros(shape, dtype=np.int32)
    for bit, name in enumerate(predicates):
        mask |= grids[name].astype(np.int32) << bit
    return mask


def _word_starts(s: str) -> List[int]:
    return [p for p in range(len(s)) if edits.word_span(s, p) is not None]


def _op_landing_grids(op: str, x: str, y: str, lexicon) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cond, land_i, land_j) grids describing where op applies and lands."""
    nx, ny = len(x), len(y)
    shape = (nx + 1, ny + 1)
    cond = np.zeros(shape, dtype=bool)
    li = np.zeros(shape, dtype=np.int32)
    lj = np.zeros(shape, dtype=np.int32)
    ii = np.arange(nx + 1, dtype=np.int32)[:, None]
    jj = np.arange(ny + 1, dtype=np.int32)[None, :]
    if op == edits.INSERT:
        cond[:, :ny] = True
        li[:] = ii
        lj[:] = jj + 1
        return cond, li, lj
    if op == edits.DELETE:
        cond[:nx, :] = True
        li[:] = ii + 1
        lj[:] = jj
        return cond, li, lj
    if op == edits.SUBSTITUTE:
        cond[:nx, :ny] = True
        li[:] = ii + 1
        lj[:] = jj + 1
        return cond, li, lj
    if op == edits.SWAP:
        if nx >= 2 and ny >= 2:
            fx = np.array([ord(edits.fold(c)) for c in x], dtype=np.int64)
            fy = np.array([ord(edits.fold(c)) for c in y], dtype=np.int64)
            ok = (
                (fx[:-1, None] == fy[None, 1:])
                & (fx[1:, None] == fy[None, :-1])
                & (fx[:-1] != fx[1:])[:, None]
            )
            cond[: nx - 1, : ny - 1] = ok
        li[:] = ii + 2
        lj[:] = jj + 2
        return cond, li, lj
    # Word-level operations: applicability depends on one or both strings,
    # so fill the few relevant rows or columns with explicit landings.
    li[:] = ii
    lj[:] = jj
    if op in (edits.SKIP_ANY_X, edits.SKIP_LEX_X, edits.SKIP_PRES_X, edits.SKIP_PAREN_X, edits.DELETE_TO_WORD_END_X):
        positions = range(nx) if op in (edits.SKIP_PAREN_X, edits.DELETE_TO_WORD_END_X) else _word_starts(x)
        for i in positions:
            landings = edits.apply_edit(op, x, y, i, 0, lexicon=lexicon)
            if landings:
                cond[i, :] = True
                li[i, :] = landings[0].i_next
        return cond, li, lj
    if op in (edits.SKIP_ANY_Y, edits.SKIP_LEX_Y, edits.SKIP_PRES_Y, edits.SKIP_PAREN_Y):
        positions = range(ny) if op == edits.SKIP_PAREN_Y else _word_starts(y)
        for j in positions:
            landings = edits.apply_edit(op, x, y, 0, j, lexicon=lexicon)
            if landings:
                cond[:, j] = True
                lj[:, j] = landings[0].j_next
        return cond, li, lj
    if op == edits.ABBREV:
        for i in _word_starts(x):
            for j in _word_starts(y):
                landings = edits.apply_edit(op, x, y, i, j, lexicon=lexicon)
                if landings:
                    cond[i, j] = True
                    li[i, j] = landings[0].i_next
                    lj[i, j] = landings[0].j_next
        return cond, li, lj
    raise ValueError(f"unknown edit operation {op!r}")


@dataclass
class PairGraph:
    """Static lattice structure for one string pair under one model.

    Edge k's active features are given by codes[sig[k]], a signature code
    group << n_predicates | predicate mask; codes may repeat.
    """

    x: str
    y: str
    nx: int
    ny: int
    n_states: int
    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    codes: np.ndarray
    sig: np.ndarray
    op_idx: np.ndarray
    subset: np.ndarray
    src_diag: np.ndarray
    acc0: np.ndarray
    acc1: np.ndarray

    def node_cell(self, node: int) -> Tuple[int, int, int]:
        """(i, j, state_index) of a non-start node."""
        cell, s_idx = divmod(node - 1, self.n_states)
        i, j = divmod(cell, self.ny + 1)
        return i, j, s_idx


class Runtime:
    """Read-only model tables for lattice compilation: transitions, states, lexicon."""

    def __init__(self, model: FsmModel):
        self.model = model
        self.lexicon = model.lexicon_union
        self.op_index = {op: k for k, op in enumerate(model.ops)}
        states = list(model.topology.s0) + list(model.topology.s1)
        self.states = states
        self.state_index = {s: k for k, s in enumerate(states)}
        self.transitions = []
        for t in model.topology.transitions:
            group = model.group_of_transition(*t)
            self.transitions.append(
                (t.frm, t.op, t.to, group, model.topology.subset_of(t.to))
            )

    def build_graph(self, x: str, y: str) -> PairGraph:
        model = self.model
        if not x and not y:
            raise DegenerateInputError(
                "both strings are empty; no non-empty alignment exists"
            )
        nx, ny = len(x), len(y)
        n_states = len(self.states)
        mask_grid = _predicate_mask_grid(model.predicates, x, y)
        per_op = {}
        for op in model.ops:
            cond, li, lj = _op_landing_grids(op, x, y, self.lexicon)
            ii, jj = np.nonzero(cond)
            masks = mask_grid[ii, jj]
            uniq, inverse = np.unique(masks, return_inverse=True)
            per_op[op] = (
                ii.astype(np.int64),
                jj.astype(np.int64),
                li[ii, jj].astype(np.int64),
                lj[ii, jj].astype(np.int64),
                uniq.astype(np.int64),
                inverse,
            )
        srcs, dsts, sig_codes, sigs, opxs, subs = [], [], [], [], [], []
        n_codes = 0
        stride = ny + 1
        n_predicates = len(model.predicates)
        for frm, op, to, group, subset in self.transitions:
            ii, jj, land_i, land_j, uniq, inverse = per_op[op]
            if frm == Q0:
                sel = (ii == 0) & (jj == 0)
                if not sel.any():
                    continue
                e_ii, e_jj = ii[sel], jj[sel]
                e_li, e_lj = land_i[sel], land_j[sel]
                e_inv = inverse[sel]
                src = np.zeros(len(e_ii), dtype=np.int64)
            else:
                if len(ii) == 0:
                    continue
                e_ii, e_jj, e_li, e_lj, e_inv = ii, jj, land_i, land_j, inverse
                src = 1 + (e_ii * stride + e_jj) * n_states + self.state_index[frm]
            dst = 1 + (e_li * stride + e_lj) * n_states + self.state_index[to]
            srcs.append(src)
            dsts.append(dst)
            sig_codes.append(group << n_predicates | uniq)
            sigs.append(e_inv + n_codes)
            n_codes += len(uniq)
            opxs.append(np.full(len(e_ii), self.op_index[op], dtype=np.int8))
            subs.append(np.full(len(e_ii), subset, dtype=np.int8))
        if srcs:
            src = np.concatenate(srcs)
            dst = np.concatenate(dsts)
            codes = np.concatenate(sig_codes)
            sig = np.concatenate(sigs)
            op_idx = np.concatenate(opxs)
            subset = np.concatenate(subs)
        else:
            src = dst = codes = sig = np.zeros(0, dtype=np.int64)
            op_idx = subset = np.zeros(0, dtype=np.int8)
        cell = (src - 1) // n_states
        i_of = cell // stride
        j_of = cell % stride
        src_diag = np.where(src == 0, 0, i_of + j_of).astype(np.int32)
        final = 1 + (nx * stride + ny) * n_states
        acc0 = np.array([final + self.state_index[s] for s in model.topology.s0], dtype=np.int64)
        acc1 = np.array([final + self.state_index[s] for s in model.topology.s1], dtype=np.int64)
        return PairGraph(
            x=x,
            y=y,
            nx=nx,
            ny=ny,
            n_states=n_states,
            n_nodes=1 + (nx + 1) * (ny + 1) * n_states,
            src=src,
            dst=dst,
            codes=codes,
            sig=sig,
            op_idx=op_idx,
            subset=subset,
            src_diag=src_diag,
            acc0=acc0,
            acc1=acc1,
        )


def _segment_logsumexp(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Log-sum-exp over contiguous segments (max-shifted for stability)."""
    m = np.maximum.reduceat(vals, starts)
    finite = np.isfinite(m)
    safe = np.where(finite, m, 0.0)
    lens = np.diff(np.append(starts, len(vals)))
    shifted = np.exp(vals - np.repeat(safe, lens))
    sums = np.add.reduceat(shifted, starts)
    with np.errstate(divide="ignore"):
        out = safe + np.log(sums)
    return np.where(finite, out, NEG_INF)


def _signature_matrix(codes: np.ndarray, n_predicates: int, n_features: int) -> sparse.csr_array:
    """(n_sigs, n_features) indicator of sorted signature codes: code
    group << n_predicates | mask has features group * n_predicates + p for
    the set bits p of mask, in ascending order within each row."""
    bits = codes[:, None] >> np.arange(n_predicates) & 1
    rows, preds = np.nonzero(bits)
    fids = (codes[rows] >> n_predicates) * n_predicates + preds
    indptr = np.searchsorted(rows, np.arange(len(codes) + 1))
    return sparse.csr_array((np.ones(len(fids)), fids, indptr), shape=(len(codes), n_features))


# Semirings of the forward sweep as (segmented reduce, elementwise combine):
# log-sum for alignment mass, max for best-path scores, which max leaves
# exactly equal to the best alpha[src] + w.
LOG_SUM = (_segment_logsumexp, np.logaddexp)
MAX = (np.maximum.reduceat, np.maximum)


class Batch:
    """Merged, sweep-ready lattices for one or more string pairs."""

    def __init__(self, model: FsmModel, xy_pairs: Sequence[Tuple[str, str]], pair_ids=None):
        self.model = model
        self.runtime = Runtime(model)
        self.pair_ids = list(pair_ids) if pair_ids is not None else [str(k) for k in range(len(xy_pairs))]
        graphs = []
        for k, (x, y) in enumerate(xy_pairs):
            try:
                graphs.append(self.runtime.build_graph(x, y))
            except DegenerateInputError as exc:
                raise DegenerateInputError(f"pair {self.pair_ids[k]!r}: {exc}") from exc
        self.graphs = graphs
        self.n_pairs = len(graphs)
        if self.n_pairs == 0:
            raise ValueError("batch requires at least one pair")
        sizes = np.array([g.n_nodes for g in graphs], dtype=np.int64)
        self.node_offset = np.concatenate(([0], np.cumsum(sizes)))
        self.n_nodes = int(self.node_offset[-1])
        self.start_ids = self.node_offset[:-1]
        src = np.concatenate([g.src + off for g, off in zip(graphs, self.node_offset)])
        dst = np.concatenate([g.dst + off for g, off in zip(graphs, self.node_offset)])
        # Signature ids are ranks of the batch's own codes, so they do not
        # depend on what else was compiled for the model.
        codes, code_sig = np.unique(np.concatenate([g.codes for g in graphs]), return_inverse=True)
        code_offset = np.cumsum([0] + [len(g.codes) for g in graphs])
        local_sig = np.concatenate([g.sig + off for g, off in zip(graphs, code_offset)])
        self.sig = code_sig.astype(np.int32)[local_sig]
        self.n_sigs = len(codes)
        self.sig_matrix = _signature_matrix(codes, len(model.predicates), model.n_features)
        self.op_idx = np.concatenate([g.op_idx for g in graphs])
        self.subset = np.concatenate([g.subset for g in graphs])
        src_diag = np.concatenate([g.src_diag for g in graphs])
        self.pair_of_edge = np.concatenate(
            [np.full(len(g.src), k, dtype=np.int32) for k, g in enumerate(graphs)]
        )
        order = np.lexsort((self.op_idx, src, dst, src_diag))
        self.src = src[order]
        self.dst = dst[order]
        self.sig = self.sig[order]
        self.op_idx = self.op_idx[order]
        self.subset = self.subset[order]
        self.src_diag = src_diag[order]
        self.pair_of_edge = self.pair_of_edge[order]
        self.n_edges = len(self.src)
        self.n_diags = int(self.src_diag.max()) + 1 if self.n_edges else 1
        self.fwd_diag_ptr = np.searchsorted(self.src_diag, np.arange(self.n_diags + 1))
        if self.n_edges:
            change = (np.diff(self.src_diag) != 0) | (np.diff(self.dst) != 0)
            self.fwd_seg_starts = np.concatenate(([0], np.flatnonzero(change) + 1))
        else:
            self.fwd_seg_starts = np.zeros(0, dtype=np.int64)
        self.fwd_seg_dst = self.dst[self.fwd_seg_starts] if self.n_edges else np.zeros(0, dtype=np.int64)
        self.fwd_seg_ptr = np.searchsorted(
            self.src_diag[self.fwd_seg_starts], np.arange(self.n_diags + 1)
        )
        # Backward ordering groups each source's outgoing edges together.
        border = np.lexsort((self.dst, self.op_idx, self.src, self.src_diag))
        self.bwd_perm = border
        b_src = self.src[border]
        b_diag = self.src_diag[border]
        self.bwd_diag_ptr = np.searchsorted(b_diag, np.arange(self.n_diags + 1))
        if self.n_edges:
            bchange = (np.diff(b_diag) != 0) | (np.diff(b_src) != 0)
            self.bwd_seg_starts = np.concatenate(([0], np.flatnonzero(bchange) + 1))
        else:
            self.bwd_seg_starts = np.zeros(0, dtype=np.int64)
        self.bwd_seg_src = b_src[self.bwd_seg_starts] if self.n_edges else np.zeros(0, dtype=np.int64)
        self.bwd_seg_ptr = np.searchsorted(
            b_diag[self.bwd_seg_starts], np.arange(self.n_diags + 1)
        )
        self.acc0 = np.stack([g.acc0 + off for g, off in zip(graphs, self.node_offset)])
        self.acc1 = np.stack([g.acc1 + off for g, off in zip(graphs, self.node_offset)])
        self._beam_nodes = None

    # -- potentials ---------------------------------------------------

    def edge_weights(self, params: np.ndarray) -> np.ndarray:
        sig_w = self.sig_matrix @ np.asarray(params, dtype=np.float64)
        return sig_w[self.sig]

    # -- sweeps -------------------------------------------------------

    def _beam_structure(self):
        if self._beam_nodes is None:
            ids, pairs, diags = [], [], []
            for k, (g, off) in enumerate(zip(self.graphs, self.node_offset)):
                local = np.arange(g.n_nodes, dtype=np.int64)
                cell = (local - 1) // g.n_states
                i = cell // (g.ny + 1)
                j = cell % (g.ny + 1)
                diag = np.where(local == 0, 0, i + j)
                ids.append(local + off)
                pairs.append(np.full(g.n_nodes, k, dtype=np.int32))
                diags.append(diag.astype(np.int32))
            ids = np.concatenate(ids)
            pairs = np.concatenate(pairs)
            diags = np.concatenate(diags)
            order = np.lexsort((ids, pairs, diags))
            ids, pairs, diags = ids[order], pairs[order], diags[order]
            ptr = np.searchsorted(diags, np.arange(diags.max() + 2))
            self._beam_nodes = (ids, pairs, ptr)
        return self._beam_nodes

    def _beam_kill_lists(self, ranking_alpha: np.ndarray, width: int):
        """Nodes to suppress per anti-diagonal, keeping the `width`
        highest-mass nodes per pair (ties broken by node id).

        Ranking uses the exact forward mass, so the kept sets for width
        w are a prefix of those for width w + 1; surviving path sets
        therefore nest and pruned partition mass grows monotonically
        with the beam width.
        """
        ids, pairs, ptr = self._beam_structure()
        kill_by_diag = {}
        pruned = False
        for d in range(len(ptr) - 1):
            lo, hi = ptr[d], ptr[d + 1]
            if hi - lo <= width:
                continue
            node_ids = ids[lo:hi]
            node_pairs = pairs[lo:hi]
            vals = ranking_alpha[node_ids]
            order = np.lexsort((node_ids, -vals, node_pairs))
            sorted_pairs = node_pairs[order]
            first = np.concatenate(([0], np.flatnonzero(np.diff(sorted_pairs) != 0) + 1))
            start_of = np.repeat(first, np.diff(np.append(first, len(order))))
            rank = np.arange(len(order)) - start_of
            kill = order[rank >= width]
            if len(kill):
                kill_by_diag[d] = node_ids[kill]
                pruned = pruned or bool(np.isfinite(vals[kill]).any())
        return kill_by_diag, pruned

    def _sweep_forward(self, w: np.ndarray, kill_by_diag=None, semiring=LOG_SUM) -> np.ndarray:
        reduce, combine = semiring
        alpha = np.full(self.n_nodes, NEG_INF)
        alpha[self.start_ids] = 0.0
        for d in range(self.n_diags):
            if kill_by_diag and d in kill_by_diag:
                alpha[kill_by_diag[d]] = NEG_INF
            lo, hi = self.fwd_diag_ptr[d], self.fwd_diag_ptr[d + 1]
            if lo == hi:
                continue
            vals = alpha[self.src[lo:hi]] + w[lo:hi]
            s_lo, s_hi = self.fwd_seg_ptr[d], self.fwd_seg_ptr[d + 1]
            starts = self.fwd_seg_starts[s_lo:s_hi] - lo
            seg = reduce(vals, starts)
            dsts = self.fwd_seg_dst[s_lo:s_hi]
            alpha[dsts] = combine(alpha[dsts], seg)
        return alpha

    def forward(self, w: np.ndarray, beam: Optional[int] = None) -> Tuple[np.ndarray, bool]:
        """Forward pass; returns (alpha, pruned_mass_flag).

        With a finite beam, a ranking pass first computes exact forward
        mass, then only the `width` highest-mass nodes per anti-diagonal
        (per pair) survive a second pass.  The result is a lower bound on
        alignment mass that never decreases as the beam widens.
        """
        alpha = self._sweep_forward(w)
        if beam is None:
            return alpha, False
        kill_by_diag, pruned = self._beam_kill_lists(alpha, beam)
        if not pruned:
            return alpha, False
        return self._sweep_forward(w, kill_by_diag), True

    def backward(self, w: np.ndarray) -> np.ndarray:
        beta = np.full(self.n_nodes, NEG_INF)
        beta[self.acc0.ravel()] = 0.0
        beta[self.acc1.ravel()] = 0.0
        for d in range(self.n_diags - 1, -1, -1):
            lo, hi = self.bwd_diag_ptr[d], self.bwd_diag_ptr[d + 1]
            if lo == hi:
                continue
            sel = self.bwd_perm[lo:hi]
            vals = w[sel] + beta[self.dst[sel]]
            s_lo, s_hi = self.bwd_seg_ptr[d], self.bwd_seg_ptr[d + 1]
            starts = self.bwd_seg_starts[s_lo:s_hi] - lo
            seg = _segment_logsumexp(vals, starts)
            beta[self.bwd_seg_src[s_lo:s_hi]] = seg
        return beta

    # -- aggregates ---------------------------------------------------

    def log_partitions(self, alpha: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        lz0, lz1 = (
            _segment_logsumexp(alpha[acc].ravel(), np.arange(0, acc.size, acc.shape[1]))
            for acc in (self.acc0, self.acc1)
        )
        return lz0, lz1

    def posterior_counts(
        self,
        w: np.ndarray,
        alpha: np.ndarray,
        beta: np.ndarray,
        log_norm: np.ndarray,
        edge_mask: Optional[np.ndarray] = None,
        by_pair: bool = False,
    ) -> np.ndarray:
        """Expected feature counts under edge posteriors alpha*w*beta/norm;
        with by_pair, one row per pair."""
        logp = alpha[self.src] + w + beta[self.dst] - log_norm[self.pair_of_edge]
        if edge_mask is not None:
            logp = np.where(edge_mask, logp, NEG_INF)
        p = np.exp(logp)
        if by_pair:
            return self.counts_by_pair(p)
        mass = np.bincount(self.sig, weights=p, minlength=self.n_sigs)
        return self.sig_matrix.T @ mass

    def counts_by_pair(self, edge_mass: np.ndarray) -> np.ndarray:
        """Feature counts per pair of a per-edge mass: one bincount over (pair, signature)."""
        key = self.pair_of_edge.astype(np.int64) * self.n_sigs + self.sig
        mass = np.bincount(key, weights=edge_mass, minlength=self.n_pairs * self.n_sigs)
        return np.ascontiguousarray(mass.reshape(self.n_pairs, self.n_sigs) @ self.sig_matrix)

    def check_paths(self, lz: np.ndarray, what: str) -> None:
        bad = np.flatnonzero(~np.isfinite(lz))
        if len(bad):
            raise NoPathError(
                f"no complete alignment for pair {self.pair_ids[bad[0]]!r} ({what})"
            )


@dataclass
class Expectations:
    """One full inference pass over a batch."""

    lz0: np.ndarray
    lz1: np.ndarray
    logz: np.ndarray
    counts_all: Optional[np.ndarray]
    counts_clamped: Optional[np.ndarray]
    pruned: bool
    clamped_by_pair: Optional[np.ndarray] = None


def expectations(
    batch: Batch,
    params: np.ndarray,
    labels: Optional[np.ndarray] = None,
    beam: Optional[int] = None,
    want_counts: bool = True,
    per_pair: bool = False,
) -> Expectations:
    """Partition functions and (optionally) expected feature counts.

    When labels are given, also accumulates counts clamped to each pair's
    true-label subset, the E-step quantity, and with per_pair each pair's.
    """
    w = batch.edge_weights(params)
    alpha, pruned = batch.forward(w, beam)
    lz0, lz1 = batch.log_partitions(alpha)
    logz = np.logaddexp(lz0, lz1)
    batch.check_paths(logz, "unconstrained")
    counts_all = counts_clamped = clamped_by_pair = None
    if want_counts or labels is not None:
        beta = batch.backward(w)
        if want_counts:
            counts_all = batch.posterior_counts(w, alpha, beta, logz)
        if labels is not None:
            labels = np.asarray(labels)
            lz_true = np.where(labels == 1, lz1, lz0)
            batch.check_paths(lz_true, "true-label subset")
            mask = batch.subset == labels[batch.pair_of_edge]
            counts_clamped = batch.posterior_counts(w, alpha, beta, lz_true, mask)
            if per_pair:
                clamped_by_pair = batch.posterior_counts(w, alpha, beta, lz_true, mask, by_pair=True)
    return Expectations(
        lz0=lz0,
        lz1=lz1,
        logz=logz,
        counts_all=counts_all,
        counts_clamped=counts_clamped,
        pruned=pruned,
        clamped_by_pair=clamped_by_pair,
    )
