"""Vectorized edit-lattice construction and sweeps.

The lattice for a string pair has one node per (i, j, state) triple plus a
start node for q0 at (0, 0).  Because every edit strictly increases i + j,
nodes can be processed one anti-diagonal at a time, and a whole corpus of
pairs can share a single sweep: edges of all pairs are merged and sorted by
anti-diagonal.  Node ids are diagonal-major: they run by anti-diagonal,
then pair, then cell, then state, with each pair's start node just before
its cell (0, 0) on diagonal 0.  The nodes of one diagonal therefore form
one range of ids, and ids ascend along every edge.

Every pass runs over one schedule of steps, one step per destination
diagonal.  Forward, the steps run in ascending diagonals, read sources and
scatter into destinations (log-sum for alignment mass, max for best-path
scores); walked backwards, the same steps read destinations and scatter
into sources (log-sum for beta, product-sum for the adjoint).  A node's
in-edges all lie in the step of its own diagonal and its out-edges in
later ones, so in either direction a node is complete before a step
reads it.  A scatter is NumPy's unbuffered ``ufunc.at``, which folds the
values into each node in edge order; a forward log-sum scatters each
node's max first and adds exps shifted by it.  A beam reruns the forward
sweep with the cut nodes' outgoing potentials at -inf.

Expected feature counts are the gradient of log Z.  The forward that
training runs keeps what its log-sum steps compute: each edge's shifted
exp and the reciprocal of each node's sum of them, whose product is the
edge's share of its destination's mass (see :class:`Shares`).  Each count
set asked is then one backward product-sum sweep over those shares in
probability space, seeded at accepting nodes: the unconstrained counts at
all of them with exp(alpha - log Z), the counts clamped to a pair's
labelled subset at that subset's only, with exp(alpha - its log Z).  Node
values are posteriors in [0, 1], so they need no rescaling, and under a
beam the shares are the cut sweep's, so a beam's counts are the gradient
of its pruned log Z.  The log-space backward sweep serves only callers
that read beta.

A batch is compiled in one pass over all of its pairs.  Their strings are
concatenated once, every (i, j) cell of every pair is one row of a flat
cell table whose predicate masks are one lookup in the model's predicate
table (see :class:`_Cells`), and each operation's edges are emitted for
all pairs at once, by transition, then by cell.  One stable sort of the edges' destination diagonals, in the
narrowest unsigned type that holds them (a radix sort up to 65,536
diagonals), puts them in forward order, and the emission order holds
within a diagonal.  So every pair's edges keep, relative to each other,
the order they have in a batch of that pair alone, and a pair's results
do not depend on the other pairs of its batch, bit for bit.  The per-edge
arrays that only training and Viterbi read are made on first use, so fb
scoring never builds them.  A batch therefore costs a fixed number of
NumPy calls, about 220 µs for one pair of names on a 2-CPU host, plus time
that grows with its edges, whether it holds one pair or thousands;
single-pair queries pay the fixed part each time, and a forward sweep
about 5.5 µs of call overhead per diagonal.  Hot paths call array methods
(``a.cumsum()``, ``a.nonzero()[0]``, ``a.repeat(n)``) rather than their
``np.*`` wrappers, each of which costs a Python call more.

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

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import edits
from .errors import DegenerateInputError, NoPathError
from .model import FsmModel

NEG_INF = -np.inf


def beam_width(beam: Optional[int]) -> Optional[int]:
    """Width of a beam, checked: an int >= 1, or None for exact inference."""
    if beam is None:
        return None
    if isinstance(beam, bool) or not isinstance(beam, numbers.Integral):
        raise ValueError(f"beam width must be an integer or None, got {beam!r}")
    if beam < 1:
        raise ValueError("beam width must be >= 1 when finite")
    return beam


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row and rank within the row of every element of rows of the given lengths."""
    row = np.arange(len(counts)).repeat(counts)
    return row, np.arange(len(row)) - (counts.cumsum() - counts)[row]


def _cell_table(nx: np.ndarray, ny: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(offset, pair, i, j, stride) of the flat cell table of a batch: the
    cells of pair k are offset[k] + i * (ny[k] + 1) + j, pairs in order,
    and stride is ny + 1 of each cell's pair."""
    stride = ny + 1
    counts = (nx + 1) * stride
    end = counts.cumsum()
    pair = np.arange(len(counts)).repeat(counts)
    stride = stride[pair]
    i, j = np.divmod(np.arange(end[-1]) - (end - counts)[pair], stride)
    return np.concatenate(([0], end)), pair, i, j, stride


# Bits of a cell key, in the order of features.CELL_FACTS.  A text
# position's flags are its x facts (alpha, digit, punct, end, last), held
# _Y_SHIFT bits higher at y positions, so a cell's key ORs the flags of
# its two positions with the two comparisons.  _SEP, a word separator, is
# a character flag only and never part of a key.
_ALPHA, _DIGIT, _PUNCT, _END, _LAST, _SEP = 1, 2, 4, 8, 16, 32
_Y_SHIFT = 5
_SAME, _SAME_NEXT = 1 << 10, 1 << 11
_X_END, _Y_END = _END, _END << _Y_SHIFT
_HAS_NEXT = (_END | _LAST) * (1 | 1 << _Y_SHIFT)


def _char_flags(c: str) -> str:
    """The alpha, digit, punct and separator flags of a character, as the
    character of that code."""
    flags = c.isalpha() | c.isdigit() << 1 | (not c.isalnum() and not c.isspace()) << 2
    return chr(flags | edits.is_separator(c) << 5)


class _Cells:
    """The flat cell table of a batch together with its strings.

    All x strings, then all y strings, are concatenated into one text, each
    followed by one terminator position that counts as a separator and as
    the end of its string, and the text by one padding position.  Each
    position gets its folded code and class flags once, from one
    translation of the text per distinct character, and each string its
    words once.

    Each cell gets a key of the twelve facts that decide every predicate
    (features.CELL_FACTS): the flags of its x and its y position, which say
    whether a character is alphabetic, a digit or punctuation, whether it
    is a terminator and whether the position after it is, and whether the
    folded codes at the two positions are equal, and at the two after them.
    The model's predicate table (``FsmModel.predicate_table``), built once
    per model over all 4,096 keys, maps a key to its mask number, so the
    masks of a batch are one lookup.  Operation landings are computed for
    every cell of every pair at once.
    """

    def __init__(self, xs: Sequence[str], ys: Sequence[str]):
        self.xs, self.ys = xs, ys
        n = len(xs)
        strings = list(xs) + list(ys)
        lens = np.array([len(s) for s in strings])
        self.nx, self.ny = lens[:n], lens[n:]
        self.offset, self.pair, self.i, self.j, self.cell_stride = _cell_table(self.nx, self.ny)
        self.stride = self.ny + 1
        # String s occupies start[s] to tail[s], its terminator.
        self.start = np.concatenate(([0], (lens + 1).cumsum()))
        self.tail = self.start[1:] - 1
        self.text = text = "\0".join(strings) + "\0\0"
        chars = set(text)
        self.folded = text.translate({ord(c): edits.fold(c) for c in chars})
        self.fold = np.frombuffer(self.folded.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        flags = np.frombuffer(text.translate({ord(c): _char_flags(c) for c in chars}).encode("latin-1"), np.uint8)
        # A terminator is a separator and its string's end, and the position
        # before it is the string's last; for an empty string that is the
        # terminator before it, or the padding, whose facts no predicate
        # reads.  The padding is no separator: words end before it.
        self.sep = flags[:-1] >= _SEP
        self.sep[self.tail] = True
        side = np.bitwise_and(flags, _ALPHA | _DIGIT | _PUNCT, dtype=np.intp)
        side[self.tail - 1] |= _LAST
        side[self.tail] = _END
        side[self.start[n] :] <<= _Y_SHIFT
        self.gx = self.start[self.pair] + self.i
        self.gy = self.start[n:][self.pair] + self.j
        fold, after = self.fold, self.fold[1:]
        key = side.take(self.gx) | side.take(self.gy)
        key |= (fold.take(self.gx) == fold.take(self.gy)) * _SAME
        key |= (after.take(self.gx) == after.take(self.gy)) * _SAME_NEXT
        self.key = key

    @cached_property
    def run_end(self) -> np.ndarray:
        """End of the non-separator run of every text position."""
        n = len(self.sep)
        return np.minimum.accumulate(np.where(self.sep, np.arange(n), n)[::-1])[::-1]

    def _string_of(self, p: np.ndarray) -> np.ndarray:
        """String index of every text position p."""
        return self.start.searchsorted(p, "right") - 1

    @cached_property
    def words(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[str]]:
        """Pair, side (True for x), start, landing of a skip (the end plus at
        most one separator) and token id of every word of every string,
        positions within the string, and the distinct folded tokens."""
        # Read with a separator before it, the text starts and ends with
        # one, so the places where separators stop or start alternate: a
        # word's start, then its end.
        sep = self.sep
        bounds = (sep != np.concatenate(([True], sep[:-1]))).nonzero()[0]
        starts, ends = bounds[::2], bounds[1::2]
        string = self._string_of(starts)
        base = self.start[string]
        land = np.minimum(ends + 1, self.tail[string])
        ids = {}
        tok = [ids.setdefault(self.folded[a:b], len(ids)) for a, b in zip(starts.tolist(), ends.tolist())]
        n = len(self.xs)
        return string % n, string < n, starts - base, land - base, np.array(tok, dtype=np.int64), list(ids)

    @cached_property
    def present(self) -> np.ndarray:
        """Whether each word's token also occurs in the other string of its pair."""
        pair, in_x, _, _, tok, tokens = self.words
        # A (pair, token, side) key, whose last bit flipped is the key of
        # the same token on the other side.
        key = (pair * len(tokens) + tok) * 2 + in_x
        ordered = np.sort(key)
        other = key ^ 1
        return ordered.searchsorted(other, "right") > ordered.searchsorted(other)

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
        if op == edits.INSERT:
            src = ((self.key & _Y_END) == 0).nonzero()[0]
            return src, src + 1
        if op == edits.DELETE:
            src = ((self.key & _X_END) == 0).nonzero()[0]
            return src, src + self.cell_stride[src]
        if op == edits.SUBSTITUTE:
            src = ((self.key & (_X_END | _Y_END)) == 0).nonzero()[0]
            land = src + self.cell_stride[src]
            land += 1
            return src, land
        if op == edits.SWAP:
            f, gx, gy = self.fold, self.gx, self.gy
            ok = (self.key & _HAS_NEXT) == 0
            ok &= (f[gx] == f[gy + 1]) & (f[gx + 1] == f[gy]) & (f[gx] != f[gx + 1])
            src = ok.nonzero()[0]
            return src, src + 2 * self.cell_stride[src] + 2
        if op not in edits.WORD_LEVEL_OPS:
            raise ValueError(f"unknown edit operation {op!r}")
        n = len(self.xs)
        skip_x = (edits.SKIP_ANY_X, edits.SKIP_LEX_X, edits.SKIP_PRES_X)
        if op in skip_x or op in (edits.SKIP_ANY_Y, edits.SKIP_LEX_Y, edits.SKIP_PRES_Y):
            pair, in_x, start, land, tok, tokens = self.words
            on_x = op in skip_x
            keep = in_x if on_x else ~in_x
            if op in (edits.SKIP_LEX_X, edits.SKIP_LEX_Y):
                keep = keep & np.array([t in lexicon for t in tokens], dtype=bool)[tok]
            elif op in (edits.SKIP_PRES_X, edits.SKIP_PRES_Y):
                keep = keep & self.present
            pair = pair[keep]
            if not len(pair):
                return pair, pair
            return (self._x_rows if on_x else self._y_rows)(pair, start[keep], land[keep])
        if op == edits.DELETE_TO_WORD_END_X:
            p = np.flatnonzero(~self.sep[: self.start[n]])
            k = self._string_of(p)
            base = self.start[k]
            return self._x_rows(k, p - base, self.run_end[p] - base)
        if op in (edits.SKIP_PAREN_X, edits.SKIP_PAREN_Y):
            # Only an opening parenthesis applies; edits finds its match.
            on_x = op == edits.SKIP_PAREN_X
            lo, hi = (0, self.start[n]) if on_x else (self.start[n], len(self.sep))
            code = np.frombuffer(self.text[lo:hi].encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
            p = np.flatnonzero(code == ord("(")) + lo
            string = self._string_of(p)
            k, at = string % n, p - self.start[string]
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


# The most negative finite float: a node whose terms are all -inf is
# shifted by it instead of by their max, so their exps are 0 and its
# log-sum comes out -inf without a -inf - -inf.
_FLOOR = np.finfo(np.float64).min


# A step is one destination diagonal: its edge range lo:hi, those edges'
# sources and destinations, and the range a:z of the nodes on the diagonal.
_Step = Tuple[int, int, np.ndarray, np.ndarray, int, int]


def _by_diagonal(diag: np.ndarray, n_diags: int) -> np.ndarray:
    """Stable order of elements by their anti-diagonal, below n_diags,
    sorted in the narrowest unsigned type that holds the diagonals: a
    radix sort up to 16 bits."""
    return diag.astype(np.min_scalar_type(n_diags - 1)).argsort(kind="stable")


# The sweeps' two semirings, each named by its plus: the ufunc whose
# unbuffered ``at`` scatter folds a step's values into the nodes they
# write, in edge order.  Both take + as times.
LOG_SUM = np.logaddexp
MAX = np.maximum


def _sweep(steps: List[_Step], values: np.ndarray, w: np.ndarray, semiring: np.ufunc, reverse=False) -> np.ndarray:
    """Run the steps over node values in place, with w the edge weights.

    Forward, steps run in ascending diagonals, read sources and scatter into
    destinations; reverse, they run backwards, read destinations and
    scatter into sources.  Either way every node a step reads is complete:
    a node's in-edges all lie in the step of its own diagonal, and its
    out-edges in later steps.  The scatters fold into the seeds already in
    values and overwrite no node.

    A forward log-sum is shifted for stability instead of folded with
    logaddexp: the step scatters the max of each node's terms, then the
    sum of their exps shifted by it, and writes log(sum) + max to the
    diagonal's node range.  That is the one step that overwrites nodes; a
    node on the diagonal without in-edges gets -inf, its starting value.
    This sweep drops the exps and sums once a step has used them; the
    forward that training runs keeps them (see :func:`_log_sum_shares`).
    """
    shifted = semiring is LOG_SUM and not reverse
    if shifted:
        shift = np.full(len(values), _FLOOR)
        total = np.zeros(len(values))
    with np.errstate(divide="ignore"):
        for lo, hi, src, dst, a, z in (steps[::-1] if reverse else steps):
            read, write = (dst, src) if reverse else (src, dst)
            vals = values.take(read)
            vals += w[lo:hi]
            if not shifted:
                semiring.at(values, write, vals)
                continue
            np.maximum.at(shift, dst, vals)
            vals -= shift.take(dst)
            np.exp(vals, out=vals)
            np.add.at(total, dst, vals)
            out = values[a:z]
            np.log(total[a:z], out=out)
            out += shift[a:z]
    return values


class Shares(NamedTuple):
    """What a forward log-sum sweep keeps for its adjoint: e, each edge's
    exp(alpha[src] + w - shift[dst]), the exp its step scatters; and scale,
    each node's 1 / total, the reciprocal of the sum of the exps into it,
    0 at a node that no mass reaches.  As alpha[dst] = log(total[dst]) +
    shift[dst], an edge's share exp(alpha[src] + w - alpha[dst]) of its
    destination's mass is e * scale[dst]."""

    e: np.ndarray
    scale: np.ndarray


def _log_sum_shares(steps: List[_Step], values: np.ndarray, w: np.ndarray) -> Shares:
    """The forward log-sum sweep of :func:`_sweep`, which writes every
    step's shifted exps into one per-edge array and keeps every node's sum
    of them; returns the :class:`Shares` of the sweep."""
    shift = np.full(len(values), _FLOOR)
    total = np.zeros(len(values))
    e = np.empty(len(w))
    with np.errstate(divide="ignore"):
        for lo, hi, src, dst, a, z in steps:
            vals = values.take(src)
            vals += w[lo:hi]
            np.maximum.at(shift, dst, vals)
            vals -= shift.take(dst)
            exps = e[lo:hi]
            np.exp(vals, out=exps)
            np.add.at(total, dst, exps)
            out = values[a:z]
            np.log(total[a:z], out=out)
            out += shift[a:z]
    # A node's total is at least 1, its largest term's exp, when any mass
    # reaches it, and 0, kept as the scale, otherwise.
    return Shares(e, np.divide(1.0, total, out=total, where=total > 0))


class Batch:
    """Merged, sweep-ready lattices for one or more string pairs."""

    def __init__(self, model: FsmModel, xy_pairs: Sequence[Tuple[str, str]], pair_ids=None):
        self.model = model
        self.runtime = rt = model.transition_table
        xs, ys = [x for x, _ in xy_pairs], [y for _, y in xy_pairs]
        self.n_pairs = len(xs)
        if self.n_pairs == 0:
            raise ValueError("batch requires at least one pair")
        self.pair_ids = [str(k) for k in range(self.n_pairs)] if pair_ids is None else list(pair_ids)
        if len(self.pair_ids) != self.n_pairs:
            raise ValueError(f"{len(self.pair_ids)} pair ids for {self.n_pairs} pairs")
        for k, (x, y) in enumerate(zip(xs, ys)):
            if not x and not y:
                raise DegenerateInputError(
                    f"pair {self.pair_ids[k]!r}: both strings are empty; no non-empty alignment exists"
                )
        cells = _Cells(xs, ys)
        self.nx, self.ny = cells.nx, cells.ny
        n_states = len(rt.states)
        # Per-cell and per-edge values that fit are kept in int32, to halve
        # the memory the edge arrays pass through.  Arrays that index
        # others stay intp: NumPy converts an int32 index on every gather.
        diag = (cells.i + cells.j).astype(np.int32)
        n_diags = int(diag.max()) + 1
        # Nodes are numbered by (diagonal, pair, cell, state), so that the
        # nodes of each diagonal form one range.  A cell's rank is its
        # place in that order.  Diagonal 0 holds each pair's start node
        # followed by its cell (0, 0), whose base - 1 is therefore the
        # start node; later diagonals hold no start node.
        rank = np.empty(len(diag), dtype=np.intp)
        rank[_by_diagonal(diag, n_diags)] = np.arange(len(diag))
        base = np.minimum(rank + 1, self.n_pairs)
        base += rank * n_states
        del rank
        self.n_nodes = self.n_pairs + len(diag) * n_states
        self.start_ids = np.arange(self.n_pairs) * (n_states + 1)
        # The masks of the batch's cells, renumbered in ascending order, as
        # the model's mask numbers ascend with the masks.
        mask_of_key, mask_bits = model.predicate_table
        mask_id = mask_of_key.take(cells.key)
        in_batch = np.bincount(mask_id, minlength=len(mask_bits)) > 0
        mask_id = (in_batch.cumsum(dtype=np.int32) - 1).take(mask_id)
        mask_bits = mask_bits[in_batch]
        frm, op_idx, to, group = rt.transitions.T
        # Every application of an operation, once per transition of that
        # operation: transitions from q0 apply at cell (0, 0) only.  Edges
        # are emitted in transition order and then sorted.
        apps = [cells.landings(op, model.lexicon_union) for op in model.ops]
        final = base.take(cells.offset[1:] - 1)
        del cells
        at_start = diag == 0
        starts = []
        for src, land in apps:
            first = at_start.take(src)
            starts.append((src[first], land[first]))
        blocks = [(starts if f < 0 else apps)[k] for f, k in zip(frm.tolist(), op_idx.tolist())]
        lens = np.array([len(src) for src, _ in blocks])
        cell, land = (np.concatenate(c) for c in zip(*blocks))
        del apps, starts, blocks
        src = base.take(cell)
        src += frm.repeat(lens)
        dst = base.take(land)
        dst += to.repeat(lens)
        dst_diag = diag.take(land)
        del land
        # Signature ids number the (group, mask) pairs of the batch's own
        # edges in sorted order, which is the order of their (group, mask
        # number) keys, so they depend on nothing else.
        n_masks = len(mask_bits)
        key = (group * n_masks).repeat(lens)
        key += mask_id.take(cell)
        used = np.bincount(key, minlength=model.n_groups * n_masks) > 0
        sig = (used.cumsum(dtype=np.intp) - 1).take(key)
        del key
        op = op_idx.astype(np.int8).repeat(lens)
        del cell
        # Forward order is by destination diagonal only, and within one by
        # emission order.
        order = _by_diagonal(dst_diag, n_diags)
        edge_end = np.bincount(dst_diag, minlength=n_diags).cumsum().tolist()
        del dst_diag
        # Permute one array at a time and free its unsorted copy before the
        # next, so that the build holds one spare edge array, not four.
        unsorted = dict(src=src, dst=dst, op_idx=op, sig=sig)
        del src, dst, op, sig
        for name in list(unsorted):
            setattr(self, name, unsorted.pop(name).take(order))
        del order
        self.n_edges = len(self.src)
        # Diagonal d's nodes end after the start nodes and the states of
        # the cells of diagonals 0 to d.
        node_end = (self.n_pairs + np.bincount(diag, minlength=n_diags).cumsum() * n_states).tolist()
        self._steps: List[_Step] = [
            (lo, hi, self.src[lo:hi], self.dst[lo:hi], a, z)
            for lo, hi, a, z in zip([0] + edge_end[:-1], edge_end, [0] + node_end[:-1], node_end)
            if hi > lo
        ]
        # Each signature has the features group * n_predicates + p for
        # the predicates p of its mask, by signature, then by feature, so
        # a bincount over them adds each feature's signatures in ascending
        # order, as a product with the indicator matrix would.
        sig_group, sig_mask = np.divmod(used.nonzero()[0], n_masks)
        self.n_sigs = len(sig_group)
        self.sig_rows, preds = mask_bits[sig_mask].nonzero()
        self.sig_features = sig_group.take(self.sig_rows) * len(model.predicates) + preds
        # The nodes of each pair's final cell, S0 states first, are its
        # accepting nodes.
        self._accepting = final[:, None] + np.arange(n_states)

    @property
    def acc0(self) -> np.ndarray:
        """Each pair's accepting nodes in S0, one row per pair."""
        return self._accepting[:, : len(self.model.topology.s0)]

    @property
    def acc1(self) -> np.ndarray:
        """Each pair's accepting nodes in S1, one row per pair."""
        return self._accepting[:, len(self.model.topology.s0) :]

    # -- potentials ---------------------------------------------------

    def edge_weights(self, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=np.float64)
        sig_w = np.bincount(self.sig_rows, weights=params[self.sig_features], minlength=self.n_sigs)
        return sig_w[self.sig]

    # -- arrays built on first use ------------------------------------

    def _cells_by_rank(self) -> np.ndarray:
        """(pair, i, j) of every cell, one row each, in node order."""
        _, pair, i, j, _ = _cell_table(self.nx, self.ny)
        diag = i + j
        return np.stack((pair, i, j))[:, _by_diagonal(diag, int(diag.max()) + 1)]

    @cached_property
    def _node_table(self) -> np.ndarray:
        """(pair, i, j, state index) of every node, one int32 row each; a
        start node lies at (0, 0) of its pair, with state index -1."""
        n_states, n_pairs = len(self.runtime.states), self.n_pairs
        cells = self._cells_by_rank()
        # Diagonal 0 holds, per pair, a start node and the n_states nodes
        # of its cell (0, 0); every later cell holds n_states nodes.  Both
        # reshapes split the contiguous last axis, so they are views.
        table = np.empty((4, self.n_nodes), dtype=np.int32)
        head = table[:, : n_pairs * (n_states + 1)].reshape(4, n_pairs, n_states + 1)
        rest = table[:, n_pairs * (n_states + 1) :].reshape(4, -1, n_states)
        head[:3] = cells[:, :n_pairs, None]
        head[3] = np.arange(-1, n_states)
        rest[:3] = cells[:, n_pairs:, None]
        rest[3] = np.arange(n_states)
        return table

    # Every edge's destination lies past diagonal 0, where node n_pairs +
    # rank * n_states + state is in the cell of that rank; per-pair counts
    # read the per-edge array below from that, without the node table.

    @cached_property
    def pair_of_edge(self) -> np.ndarray:
        """Pair of each edge."""
        by_rank = self._cells_by_rank()[0].astype(np.int32)
        return by_rank.take((self.dst - self.n_pairs) // len(self.runtime.states))

    # -- sweeps -------------------------------------------------------

    def _sweep_forward(self, w: np.ndarray, semiring=LOG_SUM) -> np.ndarray:
        alpha = np.full(self.n_nodes, NEG_INF)
        alpha[self.start_ids] = 0.0
        return _sweep(self._steps, alpha, w, semiring)

    def _beam_cut(self, alpha: np.ndarray, width: int) -> np.ndarray:
        """Mask of the nodes outside the beam: those ranked width or later
        by exact forward mass among the nodes of their pair on their
        anti-diagonal, ties broken by node id: the smaller i, then the
        smaller state id.  A pair's final cell holds only accepting nodes
        and is never cut.

        Ranking uses the exact forward mass, so the kept sets for width
        w are a prefix of those for width w + 1; surviving path sets
        therefore nest and pruned partition mass grows monotonically
        with the beam width.
        """
        pair, i, j, _ = self._node_table
        group = (i + j).astype(np.int64) * self.n_pairs + pair
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

    def forward(self, w: np.ndarray, beam: Optional[int] = None, shares: bool = False):
        """Forward pass; returns (alpha, pruned_mass_flag), and with shares
        (alpha, pruned_mass_flag, the sweep's :class:`Shares`), which
        :meth:`posterior_counts` reads.

        With a finite beam, the exact sweep ranks the nodes, and a second
        sweep runs with the outgoing weights of the nodes outside the beam
        at -inf (see :meth:`_beam_cut`); the shares are then that sweep's.
        The result is a lower bound on alignment mass that never decreases
        as the beam widens, and the flag is set only when a node with
        finite mass was cut.
        """
        beam = beam_width(beam)
        alpha, kept = self._log_sum_forward(w, shares)
        pruned = False
        if beam is not None:
            cut = self._beam_cut(alpha, beam)
            if np.isfinite(alpha[cut]).any():
                alpha, kept = self._log_sum_forward(np.where(cut[self.src], NEG_INF, w), shares)
                alpha[cut] = NEG_INF
                pruned = True
        return (alpha, pruned, kept) if shares else (alpha, pruned)

    def _log_sum_forward(self, w: np.ndarray, shares: bool) -> Tuple[np.ndarray, Optional[Shares]]:
        """Alpha from one log-sum sweep, and the sweep's shares when asked,
        else None."""
        if not shares:
            return self._sweep_forward(w), None
        alpha = np.full(self.n_nodes, NEG_INF)
        alpha[self.start_ids] = 0.0
        return alpha, _log_sum_shares(self._steps, alpha, w)

    def backward(self, w: np.ndarray) -> np.ndarray:
        beta = np.full(self.n_nodes, NEG_INF)
        beta[self.acc0] = beta[self.acc1] = 0.0
        return _sweep(self._steps, beta, w, LOG_SUM, reverse=True)

    # -- aggregates ---------------------------------------------------

    def log_partitions(self, alpha: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each pair's log-sum of alpha over its S0 and over its S1
        accepting nodes, in one pass over the (pair, state) table of those
        nodes: each subset's terms are shifted by their max for stability."""
        vals = alpha.take(self._accepting)
        n_s0 = len(self.model.topology.s0)
        subsets = (0, n_s0)
        m = np.maximum.reduceat(vals, subsets, axis=1)
        np.maximum(m, _FLOOR, out=m)
        vals -= m.repeat((n_s0, vals.shape[1] - n_s0), axis=1)
        np.exp(vals, out=vals)
        sums = np.add.reduceat(vals, subsets, axis=1)
        with np.errstate(divide="ignore"):
            np.log(sums, out=sums)
        sums += m
        return sums[:, 0], sums[:, 1]

    def posterior_counts(
        self,
        shares: Shares,
        alpha: np.ndarray,
        lz0: np.ndarray,
        lz1: np.ndarray,
        logz: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        by_pair: bool = False,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """Expected feature counts, one adjoint sweep per set asked, over the
        shares of the forward sweep that gave alpha.

        Returns the unconstrained counts when logz is given, the counts
        clamped to each pair's labelled subset when labels are, and with
        by_pair also the clamped counts with one row per pair; None for
        what was not asked.  The unconstrained adjoint is seeded at every
        accepting node with exp(alpha - log Z); the clamped one at the
        labelled subset's accepting nodes only, with exp(alpha - that
        subset's log Z), and at the other subset's with 0, as exp(-inf),
        which cannot overflow however little mass the labelled subset
        holds.  The shares are spent: the last adjoint writes its edge
        posteriors over their e, and an earlier one works on a copy.
        """
        counts_all = clamped = clamped_by_pair = None
        e, scale = shares
        acc = alpha.take(self._accepting)
        if logz is not None:
            p = self._edge_posteriors(e if labels is None else e.copy(), scale, acc - logz[:, None])
            counts_all = self.feature_counts(p)
        if labels is not None:
            lz_true = np.where(labels == 1, lz1, lz0)
            in_s1 = np.arange(acc.shape[1]) >= len(self.model.topology.s0)
            seed = np.where(in_s1 == (labels[:, None] == 1), acc - lz_true[:, None], NEG_INF)
            p = self._edge_posteriors(e, scale, seed)
            clamped = self.feature_counts(p)
            if by_pair:
                clamped_by_pair = self.counts_by_pair(p)
        return counts_all, clamped, clamped_by_pair

    def _edge_posteriors(self, e: np.ndarray, scale: np.ndarray, seed: np.ndarray) -> np.ndarray:
        """Every edge's posterior, written over the shares' e, from one
        adjoint of the forward log-sum sweep, run in the product-sum
        semiring in probability space, with node values mu seeded at the
        accepting nodes, one row per pair, as exp(seed).

        mu flows back as mu[src] += mu[dst] * q, with q = e * scale[dst]
        the edge's share of its destination's mass (see :class:`Shares`).
        Walked backwards, a step first scales the mu of its diagonal's
        nodes, complete by then, so that it scatters e * mu[dst], which is
        the edge's posterior.  Seeds and node values lie in [0, 1], so
        nothing needs rescaling.
        """
        mu = np.zeros(self.n_nodes)
        mu[self._accepting] = np.exp(seed)
        for lo, hi, src, dst, a, z in reversed(self._steps):
            nodes = mu[a:z]
            nodes *= scale[a:z]
            edges = e[lo:hi]
            edges *= mu.take(dst)
            np.add.at(mu, src, edges)
        return e

    def feature_counts(self, edge_mass: np.ndarray) -> np.ndarray:
        """Feature counts of a per-edge mass: a bincount over signatures, then over their features."""
        mass = np.bincount(self.sig, weights=edge_mass, minlength=self.n_sigs)
        return np.bincount(self.sig_features, weights=mass[self.sig_rows], minlength=self.model.n_features)

    def counts_by_pair(self, edge_mass: np.ndarray) -> np.ndarray:
        """Feature counts per pair of a per-edge mass, one row per pair: a
        bincount over (pair, signature), then one over (pair, feature)
        bins of the signature-feature entries."""
        key = self.pair_of_edge.astype(np.int64) * self.n_sigs + self.sig
        mass = np.bincount(key, weights=edge_mass, minlength=self.n_pairs * self.n_sigs)
        n_features = self.model.n_features
        bins = np.arange(self.n_pairs, dtype=np.int64)[:, None] * n_features + self.sig_features
        counts = np.bincount(
            bins.ravel(), weights=mass.reshape(self.n_pairs, self.n_sigs)[:, self.sig_rows].ravel(),
            minlength=self.n_pairs * n_features,
        )
        return counts.reshape(self.n_pairs, n_features)

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
    if want_counts or labels is not None:
        alpha, pruned, shares = batch.forward(w, beam, shares=True)
    else:
        (alpha, pruned), shares = batch.forward(w, beam), None
    lz0, lz1 = batch.log_partitions(alpha)
    logz = np.logaddexp(lz0, lz1)
    batch.check_paths(logz, "unconstrained")
    counts_all = counts_clamped = clamped_by_pair = None
    if labels is not None:
        labels = np.asarray(labels)
        batch.check_paths(np.where(labels == 1, lz1, lz0), "true-label subset")
    if shares is not None:
        counts_all, counts_clamped, clamped_by_pair = batch.posterior_counts(
            shares, alpha, lz0, lz1, logz if want_counts else None, labels, per_pair
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
