"""Penalized maximum-likelihood training with latent alignments.

The incomplete log-likelihood sums, over labeled pairs, the log posterior
of the true label; a zero-mean spherical Gaussian prior sum(w_k^2)/sigma^2
penalizes it.  Training alternates an E-step (expected feature counts
clamped to each pair's true-label subset) with a quasi-Newton M-step that
maximizes

    Q(w) = <clamped, w> - sum_j log Z_j(w) - sum_k w_k^2 / sigma^2,

whose gradient is clamped minus unconstrained expected counts minus the
prior term.  Each M-step starts from the current weights and never returns
a worse Q, which makes the outer loop a generalized EM with a monotone
penalized likelihood.  Hard EM is the same loop with max in place of sum:
each subset's best path stands in for its alignment posteriors and its
score for its log-partition, so it fills the same expectations and runs
the same E-step and M-step.  A direct quasi-Newton mode on the same
objective is provided as an alternative.
"""

import functools
import logging
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import edits
from .engine import Batch, Expectations, beam_width, expectations
from .errors import NumericalError
from .lattice import _BestPaths, _check_inference
from .model import FsmModel
from .optimize import minimize

logger = logging.getLogger("editcrf.training")

# Relative reduction of the objective at which an L-BFGS run stops.
FTOL = 1e-14


@dataclass(frozen=True)
class InitScheme:
    """Hand-set match-side weights plus the shrink constant for S0.

    ``table`` maps each operation name to a predicate-to-weight mapping
    applied to every match-subset parameter group of that operation.  The
    mismatch subset receives the same values moved toward zero by
    ``shrink`` (clamped at zero), so with shrink 0 the two subsets start
    identical and every pair scores 0.5.
    """

    table: Mapping[str, Mapping[str, float]]
    shrink: float = 0.1

    def __post_init__(self):
        if not np.isfinite(self.shrink) or self.shrink < 0:
            raise ValueError("shrink constant must be finite and >= 0")


def default_init_scheme(ops: Sequence[str]) -> InitScheme:
    """Reasonable starting point: reward same-character substitutions,
    penalize different-character ones, mildly discourage indels and skips."""
    table: Dict[str, Dict[str, float]] = {}
    for op in ops:
        if op == edits.SUBSTITUTE:
            table[op] = {
                "same": 1.0,
                "same-alphabetic": 1.0,
                "same-numeric": 1.0,
                "different": -1.0,
                "different-alphabetic": -1.0,
                "different-numeric": -1.0,
            }
        elif op in (edits.INSERT, edits.DELETE):
            table[op] = {"bias": -0.5}
        elif op.startswith("skip-"):
            table[op] = {"bias": -0.2}
        else:
            table[op] = {}
    return InitScheme(table=table)


@dataclass(frozen=True)
class TrainConfig:
    sigma2: float = 10.0
    em_max_iters: int = 20
    em_tol: float = 1e-5
    mstep_max_iters: int = 50
    mstep_grad_tol: float = 1e-4
    init: Optional[InitScheme] = None
    beam: Optional[int] = None

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be > 0")
        if self.em_tol <= 0 or self.mstep_grad_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.em_max_iters < 0 or self.mstep_max_iters < 0:
            raise ValueError("iteration caps must be >= 0")
        beam_width(self.beam)


@dataclass(frozen=True)
class TrainState:
    """Final parameters plus the per-iteration penalized log-likelihood."""

    params: np.ndarray
    history: Tuple[Tuple[int, float], ...]
    log_lines: Tuple[str, ...] = ()


def _shrink_toward_zero(value: float, c: float) -> float:
    if value > 0:
        return max(0.0, value - c)
    if value < 0:
        return min(0.0, value + c)
    return 0.0


def init_params(model: FsmModel, scheme: Optional[InitScheme] = None) -> np.ndarray:
    """Hand-set match-side weights, copied to the mismatch side shrunk
    toward zero by the scheme's constant."""
    if scheme is None:
        scheme = default_init_scheme(model.ops)
    missing = [op for op in model.ops if op not in scheme.table]
    if missing:
        raise ValueError(f"init table does not cover operations: {', '.join(missing)}")
    params = np.zeros(model.n_features)
    pred_index = {p: k for k, p in enumerate(model.predicates)}
    for group in model.groups:
        for pred, weight in scheme.table[group.op].items():
            if not np.isfinite(weight):
                raise ValueError(f"non-finite init weight for ({group.op!r}, {pred!r})")
            p_idx = pred_index.get(pred)
            if p_idx is None:
                continue
            value = weight if group.subset == 1 else _shrink_toward_zero(weight, scheme.shrink)
            params[model.feature_id(group.index, p_idx)] = value
    return params


def _corpus_batch(model: FsmModel, corpus) -> Tuple[Batch, np.ndarray]:
    if not corpus:
        raise ValueError("corpus must be non-empty")
    batch = Batch(
        model,
        [(p.x, p.y) for p in corpus],
        pair_ids=[p.pair_id for p in corpus],
    )
    labels = np.array([p.z for p in corpus], dtype=np.int8)
    return batch, labels


def incomplete_loglik(model: FsmModel, corpus, sigma2: Optional[float] = None) -> float:
    """Sum over pairs of log p(z | x, y); penalized when sigma2 is given."""
    batch, labels = _corpus_batch(model, corpus)
    return _loglik_on_batch(batch, labels, model.params, sigma2)


def _loglik_on_batch(batch, labels, params, sigma2=None, beam=None) -> float:
    exp = expectations(batch, params, labels=None, beam=beam, want_counts=False)
    lz_true = np.where(labels == 1, exp.lz1, exp.lz0)
    batch.check_paths(lz_true, "true-label subset")
    value = float(np.sum(lz_true - exp.logz))
    if sigma2 is not None:
        value -= float(np.sum(np.square(params)) / sigma2)
    return value


@dataclass
class EStepResult:
    clamped_total: np.ndarray
    per_pair_counts: Optional[List[np.ndarray]]


def e_step(model: FsmModel, corpus, keep_per_pair: bool = True) -> EStepResult:
    """Expected feature counts clamped to each pair's true-label subset."""
    batch, labels = _corpus_batch(model, corpus)
    exp = expectations(batch, model.params, labels, want_counts=False, per_pair=keep_per_pair)
    return EStepResult(
        clamped_total=exp.counts_clamped,
        per_pair_counts=list(exp.clamped_by_pair) if keep_per_pair else None,
    )


def _inference_pass(config: TrainConfig, inference: str = "fb"):
    """The pass that fills a training mode's Expectations: alignment
    posteriors within the beam ("fb"), or each subset's best path
    ("viterbi", which :func:`em_train` runs only without a beam)."""
    if inference == "viterbi":
        return _best_path_expectations
    return functools.partial(expectations, beam=config.beam)


def _best_path_expectations(batch, params, labels=None) -> Expectations:
    """Expectations of hard EM from one max sweep: the subsets' best-path
    scores as lz0 and lz1, and counts of the edges of both best paths,
    which stand in for the edge posteriors: the unconstrained counts give
    a subset's path the weight P(subset | pair) = exp(lz_subset - log Z),
    the clamped ones 1 to the labelled subset's path and 0 to the other."""
    paths = _BestPaths(batch, batch.edge_weights(params))
    lz = np.stack(paths.subset_scores(), axis=1)
    # best_nodes gives -1 for a subset with no path, so check before tracing.
    batch.check_paths(lz.min(axis=1), "S0 or S1")
    logz = np.logaddexp(lz[:, 0], lz[:, 1])
    # Every pair's S0 path, then every pair's S1 path.
    nodes = np.concatenate((paths.best_nodes(0), paths.best_nodes(1)))
    counts_all = batch.feature_counts(paths.path_mass(nodes, np.exp(lz - logz[:, None]).T.ravel()))
    clamped = None
    if labels is not None:
        clamped = batch.feature_counts(paths.path_mass(nodes, (labels == [[0], [1]]).ravel()))
    return Expectations(lz[:, 0], lz[:, 1], logz, counts_all, clamped, pruned=False)


def _mstep_on_batch(
    batch, clamped: np.ndarray, params0: np.ndarray, config: TrainConfig, infer,
    start: Optional[Expectations] = None,
) -> np.ndarray:
    """M-step from params0 on the Expectations that infer(batch, params)
    fills; start, when given, holds log Z and unconstrained counts at
    params0, which the E-step has already computed."""
    sigma2 = config.sigma2

    def objective(params, exp):
        q = float(clamped @ params - np.sum(exp.logz) - np.sum(np.square(params)) / sigma2)
        grad = clamped - exp.counts_all - 2.0 * params / sigma2
        if not np.isfinite(q) or not np.all(np.isfinite(grad)):
            bad = np.flatnonzero(~np.isfinite(exp.logz))
            where = f"pair {batch.pair_ids[bad[0]]!r}" if len(bad) else "the prior term"
            raise NumericalError(f"non-finite M-step objective or gradient at {where}")
        return -q, -grad

    def neg_q(params):
        return objective(params, infer(batch, params))

    return _ascend(neg_q, params0, config, None if start is None else objective(params0, start))


def _memo_last(f, seed=None):
    """f with a one-entry memo: a call at the point of the previous call
    returns that call's result, so a point is evaluated once.  A seed
    (point, value) fills the memo before the first call."""
    last = {} if seed is None else dict(x=np.array(seed[0]), value=seed[1])

    def g(p):
        if "x" not in last or not np.array_equal(p, last["x"]):
            last.update(x=np.array(p), value=f(p))
        return last["value"]

    return g


def _ascend(neg_q, params0: np.ndarray, config: TrainConfig, start=None) -> np.ndarray:
    """L-BFGS on -Q from params0; returns params0 when Q would fall.  start,
    when given, is neg_q(params0)."""
    # L-BFGS starts by evaluating params0 again.
    neg_q = _memo_last(neg_q, None if start is None else (params0, start))
    q0 = -neg_q(params0)[0]
    result = minimize(neg_q, params0, maxiter=config.mstep_max_iters, gtol=config.mstep_grad_tol, ftol=FTOL)
    keep = not np.isfinite(result.fun) or -result.fun < q0 - 1e-9
    _log_outcome("M-step", result, " (kept the start point: Q would fall)" if keep else "")
    return params0 if keep else result.x


def _log_outcome(what, result, note=""):
    logger.debug(
        "%s: nit=%d nfev=%d grad_inf=%.6g stop=%s%s",
        what, result.nit, result.nfev, result.grad_inf, result.stop, note,
    )


def m_step(model: FsmModel, clamped_counts: np.ndarray, corpus, config: TrainConfig) -> np.ndarray:
    """Quasi-Newton ascent on Q given frozen clamped counts."""
    batch, _ = _corpus_batch(model, corpus)
    clamped = np.asarray(clamped_counts, dtype=np.float64)
    return _mstep_on_batch(batch, clamped, model.params, config, _inference_pass(config))


def _full_gradient(batch, labels, params, sigma2, infer):
    exp = infer(batch, params, labels=labels)
    lz_true = np.where(labels == 1, exp.lz1, exp.lz0)
    batch.check_paths(lz_true, "true-label subset")
    loglik = float(np.sum(lz_true - exp.logz)) - float(np.sum(np.square(params)) / sigma2)
    grad = exp.counts_clamped - exp.counts_all - 2.0 * params / sigma2
    return loglik, grad, exp


def em_train(model: FsmModel, corpus, config: TrainConfig, inference: str = "fb") -> TrainState:
    """Generalized EM on the penalized incomplete log-likelihood.

    ``inference="viterbi"`` replaces expected counts and log-partitions by
    the single best alignment per subset (hard EM); the history then
    tracks the best-path analogue of the likelihood.  It takes no beam:
    a config with one raises ValueError.
    """
    _check_inference(inference, config.beam)
    labels_present = {p.z for p in corpus}
    if labels_present != {0, 1}:
        logger.warning(
            "training corpus has labels %s only; both match and mismatch "
            "pairs are recommended",
            sorted(labels_present),
        )
    params = init_params(model, config.init)
    batch, labels = _corpus_batch(model, corpus)
    infer = _inference_pass(config, inference)
    history: List[Tuple[int, float]] = []
    lines: List[str] = []
    t0 = time.perf_counter()
    loglik, grad, estep = _full_gradient(batch, labels, params, config.sigma2, infer)
    history.append((0, loglik))
    lines.append(_log_line(0, loglik, grad, t0))
    for it in range(1, config.em_max_iters + 1):
        try:
            # The E-step's pass at params is also the M-step's start point.
            new_params = _mstep_on_batch(batch, estep.counts_clamped, params, config, infer, start=estep)
        except NumericalError as exc:
            logger.warning("M-step failed at iteration %d: %s; keeping last state", it, exc)
            break
        params = new_params
        prev = loglik
        loglik, grad, estep = _full_gradient(batch, labels, params, config.sigma2, infer)
        history.append((it, loglik))
        lines.append(_log_line(it, loglik, grad, t0))
        if loglik - prev < config.em_tol * abs(prev) and loglik >= prev - 1e-9:
            break
    return TrainState(params=params, history=tuple(history), log_lines=tuple(lines))


def _log_line(it: int, loglik: float, grad: np.ndarray, t0: float) -> str:
    line = (
        f"iter={it} loglik_pen={loglik:.6f} "
        f"grad_inf={np.abs(grad).max():.6g} wall={time.perf_counter() - t0:.3f}"
    )
    logger.info("%s", line)
    return line


def direct_train(model: FsmModel, corpus, config: TrainConfig) -> TrainState:
    """Quasi-Newton ascent directly on the penalized likelihood (no EM)."""
    params = init_params(model, config.init)
    batch, labels = _corpus_batch(model, corpus)
    sigma2 = config.sigma2
    history: List[Tuple[int, float]] = []
    lines: List[str] = []
    t0 = time.perf_counter()

    # L-BFGS reports each iterate to the callback right after it was
    # evaluated there, so the callback reuses that evaluation.
    infer = _inference_pass(config)
    evaluate = _memo_last(lambda p: _full_gradient(batch, labels, p, sigma2, infer)[:2])

    def neg_l(p):
        loglik, grad = evaluate(p)
        if not np.isfinite(loglik) or not np.all(np.isfinite(grad)):
            raise NumericalError("non-finite objective or gradient in direct training")
        return -loglik, -grad

    loglik0, grad0 = evaluate(params)
    history.append((0, loglik0))
    lines.append(_log_line(0, loglik0, grad0, t0))
    iteration = [0]

    def track(xk):
        iteration[0] += 1
        loglik, grad = evaluate(xk)
        history.append((iteration[0], loglik))
        lines.append(_log_line(iteration[0], loglik, grad, t0))

    cap = max(1, config.em_max_iters) * max(1, config.mstep_max_iters)
    result = minimize(neg_l, params, maxiter=cap, gtol=config.mstep_grad_tol, ftol=FTOL, callback=track)
    _log_outcome("direct ascent", result)
    return TrainState(
        params=result.x,
        history=tuple(history),
        log_lines=tuple(lines),
    )


def grad_check(
    model: FsmModel,
    corpus,
    h: float = 1e-5,
    sigma2: float = 10.0,
) -> float:
    """Max relative error between the analytic gradient of the penalized
    likelihood and central finite differences.

    Relative error uses max(|analytic|, |numeric|, 1) as the denominator,
    so coordinates with near-zero gradient are compared absolutely.
    Guarded to tiny corpora without word-level operations.
    """
    for p in corpus:
        if len(p.x) > 4 or len(p.y) > 4:
            raise ValueError("grad_check is limited to strings of length <= 4")
    blocked = set(model.ops) & edits.WORD_LEVEL_OPS
    if blocked:
        raise ValueError(
            "grad_check is not supported with word-level operations: "
            + ", ".join(sorted(blocked))
        )
    batch, labels = _corpus_batch(model, corpus)
    params = model.params.copy()
    _, grad, _ = _full_gradient(batch, labels, params, sigma2, expectations)
    worst = 0.0
    for k in range(len(params)):
        step = np.zeros_like(params)
        step[k] = h
        hi = _loglik_on_batch(batch, labels, params + step, sigma2)
        lo = _loglik_on_batch(batch, labels, params - step, sigma2)
        fd = (hi - lo) / (2.0 * h)
        denom = max(abs(grad[k]), abs(fd), 1.0)
        worst = max(worst, abs(grad[k] - fd) / denom)
    return worst
