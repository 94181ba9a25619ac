"""Vectorized edit-lattice construction and sweeps.

The lattice for a string pair has one node per (i, j, state) triple plus a
start node for q0 at (0, 0).  Because every edit strictly increases i + j,
nodes can be processed one anti-diagonal at a time, and a whole corpus of
pairs can share a single sweep: edges of all pairs are merged and sorted by
anti-diagonal.

Every pass runs through one sweep routine over per-diagonal steps of one
direction, in one of three semirings, and both directions pull: forward
steps, in ascending destination diagonals, read sources and write
destinations (log-sum for alignment mass, max for best-path scores);
backward steps, in descending source diagonals, read destinations and
write sources (log-sum for beta, product-sum for the adjoint).  A step
only reads nodes that earlier steps finished, and all the edges that
write one node form one run of one step, so each node is written exactly
once, by one segmented reduce whose per-edge run indices are compiled
with the schedule.  A beam reruns the forward sweep with the cut nodes'
outgoing potentials at -inf.

Expected feature counts are the gradient of log Z.  They come from the
log-space forward alone plus one backward product-sum sweep in
probability space, whose node values are posteriors in [0, 1] within a
subset (see :meth:`Batch._subset_posteriors`), so they need no rescaling
and a beam's counts are the gradient of its pruned log Z.  The log-space
backward sweep serves only callers that read beta.

A batch is compiled in one pass over all of its pairs.  Their strings are
concatenated once, every (i, j) cell of every pair is one row of a flat
cell table whose predicate bits are computed together, and each
operation's edges are emitted for all pairs at once.  A batch therefore
costs a fixed number of NumPy calls, a few hundred microseconds, plus time
that grows with its edges, whether it holds one pair or thousands;
single-pair queries pay the fixed part each time.

Edges carry a signature id standing for their active feature-id set, a
(parameter group, predicate mask) pair.  Signature ids belong to the batch:
they number the distinct pairs among its own edges in sorted (group, mask)
order.  Each signature's features are kept once per batch as (signature,
feature) entries, so edge potentials for new parameter vectors are a
bincount over the entries followed by a gather, and expected feature counts
are a bincount over signatures, then over the entries.  All reductions run
in a fixed order and a batch shares no state with other batches, so every
quantity is deterministic for a given model and corpus, and one model may
be used from several threads at once.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from . import edits
from .errors import DegenerateInputError, NoPathError
from .model import FsmModel

NEG_INF = -np.inf


def beam_width(beam: "Beam") -> Optional[int]:
    """Width of a beam given as an int, a :class:`BeamConfig` or None
    (exact inference), checked."""
    width = beam.width if isinstance(beam, BeamConfig) else beam
    if width is not None and width < 1:
        raise ValueError("beam width must be >= 1 when finite")
    return width


@dataclass(frozen=True)
class BeamConfig:
    """Per-anti-diagonal pruning width; None means unlimited (exact)."""

    width: Optional[int] = None

    def __post_init__(self):
        beam_width(self.width)


Beam = Union[int, BeamConfig, None]


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row and rank within the row of every element of rows of the given lengths."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(len(row)) - (np.cumsum(counts) - counts)[row]


def _cell_table(nx: np.ndarray, ny: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(offset, pair, i, j) of the flat cell table of a batch: the cells of
    pair k are offset[k] + i * (ny[k] + 1) + j, pairs in order."""
    stride = ny + 1
    counts = (nx + 1) * stride
    pair, local = _ragged(counts)
    i = local // stride[pair]
    return np.concatenate(([0], np.cumsum(counts))), pair, i, local - i * stride[pair]


class _Cells:
    """The flat cell table of a batch together with its strings.

    All x strings, then all y strings, are concatenated into one text; each
    character gets its folded code and class flags once, and each string
    its words once.  Predicate masks and operation landings are then
    computed for every cell of every pair at once.
    """

    def __init__(self, xs: Sequence[str], ys: Sequence[str]):
        self.xs, self.ys = xs, ys
        self.nx = np.array([len(x) for x in xs], dtype=np.int64)
        self.ny = np.array([len(y) for y in ys], dtype=np.int64)
        self.offset, self.pair, self.i, self.j = _cell_table(self.nx, self.ny)
        self.stride = self.ny + 1
        self.cell_nx, self.cell_ny = self.nx[self.pair], self.ny[self.pair]
        self.text = "".join(xs) + "".join(ys)
        self.start = np.concatenate(([0], np.cumsum(np.concatenate((self.nx, self.ny)))))
        self.code = np.frombuffer(self.text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        chars = sorted(set(self.text))
        # One row per distinct character plus a padding row, so that cells
        # at the end of a string may look one and two characters on.
        props = np.array(
            [
                (
                    ord(edits.fold(c)),
                    c.isalpha(),
                    c.isdigit(),
                    not c.isalnum() and not c.isspace(),
                    edits.is_separator(c),
                )
                for c in chars
            ]
            + [(-1, False, False, False, False)],
            dtype=np.int64,
        )
        at = np.searchsorted(np.array([ord(c) for c in chars], dtype=np.uint32), self.code)
        props = props[np.concatenate((at, [len(chars)] * 2))].T
        self.fold = props[0]
        self.alpha, self.digit, self.punct, self.sep = props[1:].astype(bool)
        self.gx = self.start[self.pair] + self.i
        self.gy = self.start[len(xs) + self.pair] + self.j

    def masks(self, predicates: Sequence[str]) -> np.ndarray:
        """Bitmask of active predicates per cell, bit k = predicates[k]."""
        i, j, gx, gy, nx, ny = self.i, self.j, self.gx, self.gy, self.cell_nx, self.cell_ny
        inside = (i < nx) & (j < ny)
        same = self.fold[gx] == self.fold[gy]
        same_in, diff_in = inside & same, inside & ~same
        ax, ay, dx, dy = self.alpha[gx], self.alpha[gy], self.digit[gx], self.digit[gy]
        has_next = (i + 1 < nx) & (j + 1 < ny)
        same_next = self.fold[gx + 1] == self.fold[gy + 1]
        bits = []
        for name in predicates:
            if name == "bias":
                bits.append(np.ones(len(i), dtype=bool))
            elif name == "same":
                bits.append(same_in)
            elif name == "different":
                bits.append(diff_in)
            elif name == "same-alphabetic":
                bits.append(same_in & ax & ay)
            elif name == "different-alphabetic":
                bits.append(diff_in & ax & ay)
            elif name == "same-numeric":
                bits.append(same_in & dx & dy)
            elif name == "different-numeric":
                bits.append(diff_in & dx & dy)
            elif name == "punctuation-x":
                bits.append(inside & self.punct[gx])
            elif name == "punctuation-y":
                bits.append(inside & self.punct[gy])
            elif name == "alphabet-mismatch":
                bits.append(inside & (ax != ay))
            elif name == "number-mismatch":
                bits.append(inside & (dx != dy))
            elif name == "end-of-x":
                bits.append(i == nx)
            elif name == "end-of-y":
                bits.append(j == ny)
            elif name == "same-next-character":
                bits.append(has_next & same_next)
            elif name == "different-next-character":
                bits.append(has_next & ~same_next)
            else:
                raise ValueError(f"unknown predicate {name!r}")
        packed = np.packbits(np.array(bits), axis=0, bitorder="little")
        return sum(row.astype(np.int64) << 8 * k for k, row in enumerate(packed))

    @cached_property
    def runs(self) -> Tuple[np.ndarray, np.ndarray]:
        """String index and end of the non-separator run of every text position."""
        n = len(self.text)
        owner = np.repeat(np.arange(len(self.start) - 1), np.diff(self.start))
        next_sep = np.minimum.accumulate(np.where(self.sep[:n], np.arange(n), n)[::-1])[::-1]
        return owner, np.minimum(next_sep, self.start[owner + 1])

    @cached_property
    def words(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[str]]:
        """Pair, side (True for x), start, landing of a skip (the end plus at
        most one separator) and token id of every word of every string,
        positions within the string, and the distinct folded tokens."""
        owner, run_end = self.runs
        sep = self.sep[: len(self.text)]
        first = np.arange(len(sep)) == self.start[owner]
        starts = np.flatnonzero(~sep & (first | np.concatenate(([True], sep[:-1]))))
        string, ends = owner[starts], run_end[starts]
        base = self.start[string]
        land = ends + (ends < self.start[string + 1])
        folded = self.text.translate({ord(c): edits.fold(c) for c in set(self.text)})
        ids = {}
        tok = [ids.setdefault(folded[a:b], len(ids)) for a, b in zip(starts.tolist(), ends.tolist())]
        n = len(self.xs)
        return string % n, string < n, starts - base, land - base, np.array(tok, dtype=np.int64), list(ids)

    def _x_rows(self, k, i, i_next) -> Tuple[np.ndarray, np.ndarray]:
        """Cells (i, j) of pairs k and their landings (i_next, j), for every j."""
        row, j = _ragged(self.stride[k])
        src = (self.offset[k] + i * self.stride[k])[row] + j
        return src, src + ((i_next - i) * self.stride[k])[row]

    def _y_rows(self, k, j, j_next) -> Tuple[np.ndarray, np.ndarray]:
        """Cells (i, j) of pairs k and their landings (i, j_next), for every i."""
        row, i = _ragged(self.nx[k] + 1)
        src = (self.offset[k] + j)[row] + i * self.stride[k][row]
        return src, src + (j_next - j)[row]

    def landings(self, op: str, lexicon) -> Tuple[np.ndarray, np.ndarray]:
        """Source and landing cells of every application of op, as
        :func:`edits.apply_edit` defines them."""
        i, j, gx, gy, nx, ny = self.i, self.j, self.gx, self.gy, self.cell_nx, self.cell_ny
        stride = ny + 1
        if op == edits.INSERT:
            src = np.flatnonzero(j < ny)
            return src, src + 1
        if op == edits.DELETE:
            src = np.flatnonzero(i < nx)
            return src, src + stride[src]
        if op == edits.SUBSTITUTE:
            src = np.flatnonzero((i < nx) & (j < ny))
            return src, src + stride[src] + 1
        if op == edits.SWAP:
            f = self.fold
            ok = (i + 1 < nx) & (j + 1 < ny)
            ok &= (f[gx] == f[gy + 1]) & (f[gx + 1] == f[gy]) & (f[gx] != f[gx + 1])
            src = np.flatnonzero(ok)
            return src, src + 2 * stride[src] + 2
        if op not in edits.WORD_LEVEL_OPS:
            raise ValueError(f"unknown edit operation {op!r}")
        n = len(self.xs)
        skip_x = (edits.SKIP_ANY_X, edits.SKIP_LEX_X, edits.SKIP_PRES_X)
        if op in skip_x or op in (edits.SKIP_ANY_Y, edits.SKIP_LEX_Y, edits.SKIP_PRES_Y):
            pair, in_x, start, land, tok, tokens = self.words
            on_x = op in skip_x
            keep = side = in_x if on_x else ~in_x
            if op in (edits.SKIP_LEX_X, edits.SKIP_LEX_Y):
                keep = side & np.array([t in lexicon for t in tokens], dtype=bool)[tok]
            elif op in (edits.SKIP_PRES_X, edits.SKIP_PRES_Y):
                # Words whose (pair, token) key also occurs on the other side.
                key = pair * len(tokens) + tok
                other = np.sort(key[~side])
                keep = side & (np.searchsorted(other, key, "right") > np.searchsorted(other, key))
            rows = self._x_rows if on_x else self._y_rows
            return rows(pair[keep], start[keep], land[keep])
        owner, run_end = self.runs
        if op == edits.DELETE_TO_WORD_END_X:
            p = np.flatnonzero(~self.sep[: self.start[n]])
            base = self.start[owner[p]]
            return self._x_rows(owner[p], p - base, run_end[p] - base)
        if op in (edits.SKIP_PAREN_X, edits.SKIP_PAREN_Y):
            # Only an opening parenthesis applies; edits finds its match.
            on_x = op == edits.SKIP_PAREN_X
            lo, hi = (0, self.start[n]) if on_x else (self.start[n], len(self.text))
            p = np.flatnonzero(self.code[lo:hi] == ord("(")) + lo
            k, at = owner[p] % n, p - self.start[owner[p]]
            spots = zip(k.tolist(), at.tolist())
            if on_x:
                ends = [edits.apply_edit(op, self.xs[a], self.ys[a], b, 0, lexicon)[0].i_next for a, b in spots]
                return self._x_rows(k, at, np.array(ends, dtype=np.int64))
            ends = [edits.apply_edit(op, self.xs[a], self.ys[a], 0, b, lexicon)[0].j_next for a, b in spots]
            return self._y_rows(k, at, np.array(ends, dtype=np.int64))
        # Abbreviation expansion: every x word against every y word of its pair.
        pair, in_x, start = self.words[:3]
        y_words = {}
        for a, c in zip(pair[~in_x].tolist(), start[~in_x].tolist()):
            y_words.setdefault(a, []).append(c)
        cells = []
        for a, b in zip(pair[in_x].tolist(), start[in_x].tolist()):
            off, stride = int(self.offset[a]), int(self.stride[a])
            for c in y_words.get(a, ()):
                for li, lj in edits.apply_edit(op, self.xs[a], self.ys[a], b, c, lexicon):
                    cells.append((off + b * stride + c, off + li * stride + lj))
        cells = np.array(cells, dtype=np.int64).reshape(-1, 2)
        return cells[:, 0], cells[:, 1]


# The most negative finite float: a segment whose terms are all -inf is
# shifted by it instead of by its max, so its exps are 0 and its log-sum
# comes out -inf without a -inf - -inf.
_FLOOR = np.finfo(np.float64).min


def _segment_logsumexp(vals: np.ndarray, starts: np.ndarray, run: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the contiguous runs of vals that begin at starts,
    with run the index of each value's run; vals is overwritten.  Each run
    is shifted by its max for stability.  Call under errstate(divide="ignore"):
    an all -inf run takes log(0)."""
    m = np.maximum.reduceat(vals, starts)
    np.maximum(m, _FLOOR, out=m)
    vals -= m.take(run)
    np.exp(vals, out=vals)
    sums = np.add.reduceat(vals, starts)
    np.log(sums, out=sums)
    sums += m
    return sums


def _segment_max(vals: np.ndarray, starts: np.ndarray, run: np.ndarray) -> np.ndarray:
    """Max over the contiguous runs of vals that begin at starts."""
    return np.maximum.reduceat(vals, starts)


def _segment_sum(vals: np.ndarray, starts: np.ndarray, run: np.ndarray) -> np.ndarray:
    """Sum over the contiguous runs of vals, added in order within each run."""
    return np.bincount(run, weights=vals, minlength=len(starts))


_Step = Tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _steps(diag: np.ndarray, read: np.ndarray, write: np.ndarray) -> List[_Step]:
    """Per-diagonal steps of one sweep order, whose edges run by diagonal,
    then by the node they write, so that each node is written by one run
    of one step.  A step is a diagonal's edge range lo:hi, the node each of
    those edges reads, the starts (relative to lo) of the runs of edges that
    write one node, each edge's run index within the step, and the node
    each run writes."""
    if not len(diag):
        return []
    new_diag = diag[1:] != diag[:-1]
    new_run = np.concatenate(([True], new_diag | (write[1:] != write[:-1])))
    seg = np.flatnonzero(new_run)
    edge_ptr = np.flatnonzero(np.concatenate(([True], new_diag, [True])))
    seg_ptr = np.searchsorted(seg, edge_ptr)
    starts = seg - np.repeat(edge_ptr[:-1], np.diff(seg_ptr))
    run = np.cumsum(new_run)
    run -= np.repeat(seg_ptr[:-1] + 1, np.diff(edge_ptr))
    written = write[seg]
    bounds = zip(edge_ptr[:-1].tolist(), edge_ptr[1:].tolist(), seg_ptr[:-1].tolist(), seg_ptr[1:].tolist())
    return [(lo, hi, read[lo:hi], starts[a:b], run[lo:hi], written[a:b]) for lo, hi, a, b in bounds]


def _signature_features(codes: np.ndarray, n_predicates: int) -> Tuple[np.ndarray, np.ndarray]:
    """Entries (signature, feature id) of the indicator of sorted signature
    codes: code group << n_predicates | mask has features
    group * n_predicates + p for the set bits p of mask.  Entries run by
    signature, then by feature, so a bincount over them adds in the same
    order as a sparse product with the indicator or its transpose."""
    rows, preds = np.nonzero(codes[:, None] >> np.arange(n_predicates) & 1)
    return rows, (codes[rows] >> n_predicates) * n_predicates + preds


class Semiring(NamedTuple):
    """How a sweep step joins each read node value with its edge's weight
    (times, a ufunc) and reduces the joined values of the edges that write
    one node (plus, a segmented reduce)."""

    times: np.ufunc
    plus: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _sweep(steps: List[_Step], values: np.ndarray, w: np.ndarray, semiring: Semiring) -> np.ndarray:
    """Run the steps of one sweep order over node values in place, with w
    the edge weights in that order.  Every step reads nodes that earlier
    steps finished and writes each of its nodes once, with the semiring's
    segmented reduce: log-sum for alignment mass, max for best-path scores
    (which max leaves exactly equal to the best alpha[src] + w), and sum
    of products for the adjoint's node posteriors."""
    times, plus = semiring
    with np.errstate(divide="ignore"):
        for lo, hi, read, starts, run, written in steps:
            vals = values[read]
            times(vals, w[lo:hi], out=vals)
            values[written] = plus(vals, starts, run)
    return values


LOG_SUM = Semiring(np.add, _segment_logsumexp)
MAX = Semiring(np.add, _segment_max)
PRODUCT_SUM = Semiring(np.multiply, _segment_sum)


class Batch:
    """Merged, sweep-ready lattices for one or more string pairs."""

    def __init__(self, model: FsmModel, xy_pairs: Sequence[Tuple[str, str]], pair_ids=None):
        self.model = model
        self.runtime = rt = model.transition_table
        xs, ys = [x for x, _ in xy_pairs], [y for _, y in xy_pairs]
        self.pair_ids = list(pair_ids) if pair_ids is not None else [str(k) for k in range(len(xs))]
        self.n_pairs = len(xs)
        if self.n_pairs == 0:
            raise ValueError("batch requires at least one pair")
        cells = _Cells(xs, ys)
        self.nx, self.ny = cells.nx, cells.ny
        empty = np.flatnonzero((self.nx == 0) & (self.ny == 0))
        if len(empty):
            raise DegenerateInputError(
                f"pair {self.pair_ids[empty[0]]!r}: both strings are empty; no non-empty alignment exists"
            )
        n_states = len(rt.states)
        # Node id of cell c in state s is pair + 1 + c * n_states + s; the
        # start node of a pair is the id just before its cell (0, 0).
        self.node_offset = np.arange(self.n_pairs + 1) + cells.offset * n_states
        self.n_nodes = int(self.node_offset[-1])
        self.start_ids = self.node_offset[:-1]
        base = cells.pair + 1 + np.arange(len(cells.pair)) * n_states
        diag = cells.i + cells.j
        masks, mask_id = np.unique(cells.masks(model.predicates), return_inverse=True)
        # Every application of an operation, once per transition of that
        # operation; transitions from q0 apply at cell (0, 0) only.
        apps = [cells.landings(op, model.lexicon_union) for op in model.ops]
        app_op = np.repeat(np.arange(len(model.ops)), [len(src) for src, _ in apps])
        app_src = np.concatenate([src for src, _ in apps])
        row, rank = _ragged(rt.n_from_states[app_op] + rt.n_from_q0[app_op] * (diag[app_src] == 0))
        trans = rt.first[app_op][row] + rank
        cell = app_src[row]
        land = np.concatenate([dst for _, dst in apps])[row]
        del apps, app_op, app_src, row, rank
        frm, op_idx, to, group, subset = rt.transitions.T
        src = base[cell] + frm[trans]
        dst = base[land] + to[trans]
        # dst_diag lives until the forward steps are built, so it is kept
        # narrow; keys built from it are int64.
        src_diag, dst_diag = diag[cell], diag[land].astype(np.int32)
        del land
        # Backward order is (source diagonal, source, operation,
        # destination), one unique key below diagonals * n_nodes * n_ops *
        # n_states; forward order (destination diagonal, destination,
        # source diagonal, source, operation) is a stable sort of it by
        # (destination diagonal, destination), so that a node's in-edges
        # are one run.
        by_src = np.argsort(
            ((src_diag * self.n_nodes + src) * len(model.ops) + op_idx[trans]) * n_states + to[trans]
        )
        by_dst = np.argsort((np.multiply(dst_diag, self.n_nodes, dtype=np.int64) + dst)[by_src], kind="stable")
        order = by_src[by_dst]
        del by_src
        self.src = src[order]
        self.dst = dst[order]
        self.src_diag = src_diag[order].astype(np.int32)
        dst_diag = dst_diag[order]
        del src, dst, src_diag
        trans, cell = trans[order], cell[order]
        del order
        self.op_idx = op_idx.astype(np.int8)[trans]
        self.pair_of_edge = cells.pair.astype(np.int32)[cell]
        # Index of each edge's (pair, subset) in a flat (n_pairs, 2) table.
        self.pair_subset = 2 * self.pair_of_edge + subset.astype(np.int32)[trans]
        # Signature ids number the (group, mask) pairs of the batch's own
        # edges in sorted order, which is the order of their codes
        # group << n_predicates | mask, so they depend on nothing else.
        key = group[trans] * len(masks) + mask_id[cell]
        del trans, cell
        used = np.bincount(key, minlength=model.n_groups * len(masks)) > 0
        self.sig = (np.cumsum(used) - 1)[key].astype(np.int32)
        key = np.flatnonzero(used)
        self.n_sigs = len(key)
        n_predicates = len(model.predicates)
        codes = (key // len(masks)) << n_predicates | masks[key % len(masks)]
        self.sig_rows, self.sig_features = _signature_features(codes, n_predicates)
        self.n_edges = len(self.src)
        self.bwd_perm = np.empty_like(by_dst)
        self.bwd_perm[by_dst] = np.arange(self.n_edges)
        self._forward_steps = _steps(dst_diag, self.src, self.dst)
        final = self.node_offset[1:] - n_states
        n_s0 = len(model.topology.s0)
        self.acc0 = final[:, None] + np.arange(n_s0)
        self.acc1 = final[:, None] + np.arange(n_s0, n_states)

    # -- potentials ---------------------------------------------------

    def edge_weights(self, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=np.float64)
        sig_w = np.bincount(self.sig_rows, weights=params[self.sig_features], minlength=self.n_sigs)
        return sig_w[self.sig]

    # -- sweeps -------------------------------------------------------

    @cached_property
    def _backward_steps(self) -> List[_Step]:
        perm = self.bwd_perm
        return _steps(self.src_diag[perm], self.dst[perm], self.src[perm])[::-1]

    def _sweep_forward(self, w: np.ndarray, semiring=LOG_SUM) -> np.ndarray:
        alpha = np.full(self.n_nodes, NEG_INF)
        alpha[self.start_ids] = 0.0
        return _sweep(self._forward_steps, alpha, w, semiring)

    def _beam_cut(self, alpha: np.ndarray, width: int) -> np.ndarray:
        """Mask of the nodes outside the beam: those ranked width or later
        by exact forward mass among the nodes of their pair on their
        anti-diagonal, ties broken by node id.  A pair's final cell holds
        only accepting nodes and is never cut.

        Ranking uses the exact forward mass, so the kept sets for width
        w are a prefix of those for width w + 1; surviving path sets
        therefore nest and pruned partition mass grows monotonically
        with the beam width.
        """
        n_states = len(self.runtime.states)
        _, pair, i, j = _cell_table(self.nx, self.ny)
        # Start nodes stay on diagonal 0.
        group = np.zeros(self.n_nodes, dtype=np.int64)
        nodes = (pair + 1 + np.arange(len(pair)) * n_states)[:, None] + np.arange(n_states)
        group[nodes] = ((i + j) * self.n_pairs)[:, None]
        group += np.repeat(np.arange(self.n_pairs), np.diff(self.node_offset))
        # Rank by mass, largest first, equal masses equal; a stable sort by
        # (group, rank) then keeps ties in node id order.
        by_mass = np.argsort(-alpha)
        ordered = alpha[by_mass]
        mass_rank = np.empty(self.n_nodes, dtype=np.int64)
        mass_rank[by_mass] = np.cumsum(np.concatenate(([0], ordered[1:] != ordered[:-1])))
        order = np.argsort(group * self.n_nodes + mass_rank, kind="stable")
        group = group[order]
        # A node ranks width or later when the node width places before it
        # in that order is of its group.
        cut = np.zeros(self.n_nodes, dtype=bool)
        cut[order[width:]] = group[width:] == group[:-width]
        cut[self.acc0] = cut[self.acc1] = False
        return cut

    def forward(self, w: np.ndarray, beam: Beam = None) -> Tuple[np.ndarray, bool]:
        """Forward pass; returns (alpha, pruned_mass_flag).

        With a finite beam, the exact sweep ranks the nodes, and a second
        sweep runs with the outgoing weights of the nodes outside the beam
        at -inf (see :meth:`_beam_cut`).  The result is a lower bound on
        alignment mass that never decreases as the beam widens, and the
        flag is set only when a node with finite mass was cut.
        """
        beam = beam_width(beam)
        alpha = self._sweep_forward(w)
        if beam is None:
            return alpha, False
        cut = self._beam_cut(alpha, beam)
        if not np.isfinite(alpha[cut]).any():
            return alpha, False
        alpha = self._sweep_forward(np.where(cut[self.src], NEG_INF, w))
        alpha[cut] = NEG_INF
        return alpha, True

    def backward(self, w: np.ndarray) -> np.ndarray:
        beta = np.full(self.n_nodes, NEG_INF)
        beta[self.acc0] = beta[self.acc1] = 0.0
        return _sweep(self._backward_steps, beta, w[self.bwd_perm], LOG_SUM)

    # -- aggregates ---------------------------------------------------

    def log_partitions(self, alpha: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        rows = np.arange(self.n_pairs)
        with np.errstate(divide="ignore"):
            lz0, lz1 = (
                _segment_logsumexp(alpha[acc].ravel(), rows * acc.shape[1], rows.repeat(acc.shape[1]))
                for acc in (self.acc0, self.acc1)
            )
        return lz0, lz1

    def posterior_counts(
        self,
        w: np.ndarray,
        alpha: np.ndarray,
        lz0: np.ndarray,
        lz1: np.ndarray,
        logz: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        by_pair: bool = False,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """Expected feature counts from one probability-space adjoint sweep.

        Returns the unconstrained counts when logz is given, the counts
        clamped to each pair's labelled subset when labels are, and with
        by_pair also the clamped counts with one row per pair; None for
        what was not asked.  Both sets weight the same edge posteriors
        within a subset (see :meth:`_subset_posteriors`): the unconstrained
        ones by P(subset | pair) = exp(lz_subset - log Z) <= 1, the clamped
        ones by 1 on the labelled subset and 0 on the other.
        """
        lz = np.stack((lz0, lz1), axis=1)
        p = self._subset_posteriors(w, alpha, lz)
        counts_all = clamped = clamped_by_pair = None
        if logz is not None:
            share = np.exp(lz - logz[:, None])
            counts_all = self.feature_counts(p * share.ravel().take(self.pair_subset))
        if labels is not None:
            p *= (labels[:, None] == (0, 1)).ravel().take(self.pair_subset)
            clamped = self.feature_counts(p)
            if by_pair:
                clamped_by_pair = self.counts_by_pair(p)
        return counts_all, clamped, clamped_by_pair

    def _subset_posteriors(self, w: np.ndarray, alpha: np.ndarray, lz: np.ndarray) -> np.ndarray:
        """P(edge | pair, the edge's subset) of every edge, given the
        subsets' log-partitions lz, one (lz0, lz1) row per pair: the
        adjoint of the forward log-sum sweep, run in probability space.

        Each edge carries the share q = exp(alpha[src] + w - alpha[dst]) of
        its destination's mass, 0 into a node that no path reaches.  Node
        posteriors mu start at the accepting nodes as exp(alpha - lz of the
        node's subset) and flow back as mu[src] = sum of mu[dst] * q in the
        product-sum semiring; S0 and S1 share no node after q0, so one
        vector serves both subsets.  An edge's posterior is mu[dst] * q.
        Every quantity lies in [0, 1], so nothing needs rescaling, and with
        a beam's alpha the result is the gradient of the beam's log Z.
        """
        # exp(x - +inf) = 0 where x - -inf would give exp(NaN) or exp(+inf).
        lower = np.where(np.isneginf(alpha), np.inf, alpha)
        q = alpha[self.src]
        q += w
        q -= lower[self.dst]
        np.exp(q, out=q)
        lz = np.where(np.isneginf(lz), np.inf, lz)
        mu = np.zeros(self.n_nodes)
        mu[self.acc0] = np.exp(alpha[self.acc0] - lz[:, :1])
        mu[self.acc1] = np.exp(alpha[self.acc1] - lz[:, 1:])
        _sweep(self._backward_steps, mu, q[self.bwd_perm], PRODUCT_SUM)
        q *= mu[self.dst]
        return q

    def feature_counts(self, edge_mass: np.ndarray) -> np.ndarray:
        """Feature counts of a per-edge mass: a bincount over signatures, then over their features."""
        mass = np.bincount(self.sig, weights=edge_mass, minlength=self.n_sigs)
        return np.bincount(self.sig_features, weights=mass[self.sig_rows], minlength=self.model.n_features)

    def counts_by_pair(self, edge_mass: np.ndarray) -> np.ndarray:
        """Feature counts per pair of a per-edge mass: one bincount over (pair, signature)."""
        key = self.pair_of_edge.astype(np.int64) * self.n_sigs + self.sig
        mass = np.bincount(key, weights=edge_mass, minlength=self.n_pairs * self.n_sigs)
        indptr = np.searchsorted(self.sig_rows, np.arange(self.n_sigs + 1))
        indicator = sparse.csr_array(
            (np.ones(len(self.sig_rows)), self.sig_features, indptr), shape=(self.n_sigs, self.model.n_features)
        )
        return np.ascontiguousarray(mass.reshape(self.n_pairs, self.n_sigs) @ indicator)

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
    beam: Beam = None,
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
    if labels is not None:
        labels = np.asarray(labels)
        batch.check_paths(np.where(labels == 1, lz1, lz0), "true-label subset")
    if want_counts or labels is not None:
        counts_all, counts_clamped, clamped_by_pair = batch.posterior_counts(
            w, alpha, lz0, lz1, logz if want_counts else None, labels, per_pair
        )
    return Expectations(
        lz0=lz0,
        lz1=lz1,
        logz=logz,
        counts_all=counts_all,
        counts_clamped=counts_clamped,
        pruned=pruned,
        clamped_by_pair=clamped_by_pair,
    )
