"""Duplicate-detection metrics and the ablation harness.

Scores are match posteriors; a pair is predicted a duplicate when its
score strictly exceeds the threshold (ties predict mismatch).  Precision
is 1 when nothing was predicted positive; recall is 0 when no positives
exist, and that degenerate condition is flagged on the report.
"""

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import edits
from .data import LabeledPair, split_pairs
from .engine import Batch
from .errors import EditCrfError
from .features import build_lexicon
from .lattice import _check_inference, match_posteriors
from .model import FIRST_ORDER, FsmModel, build_model
from .training import TrainConfig, em_train

logger = logging.getLogger("editcrf.evaluation")

Scored = Tuple[str, float, int]  # (pair_id, p_match, z_true)


@dataclass(frozen=True)
class Counts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0


@dataclass(frozen=True)
class EvalReport:
    threshold: float
    counts: Counts
    precision: float
    recall: float
    f1: float
    curve: Tuple[Tuple[float, float], ...]
    empty_positives: bool
    fold_precision: Tuple[float, ...] = ()
    fold_recall: Tuple[float, ...] = ()
    fold_f1: Tuple[float, ...] = ()


def classify(scores: Sequence[Scored], threshold: float) -> Counts:
    """Confusion counts; predict match iff p_match > threshold."""
    tp = fp = fn = tn = 0
    for pair_id, p, z in scores:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"pair {pair_id!r}: probability {p} outside [0, 1]")
        predicted = p > threshold
        if predicted and z == 1:
            tp += 1
        elif predicted and z == 0:
            fp += 1
        elif not predicted and z == 1:
            fn += 1
        else:
            tn += 1
    return Counts(tp=tp, fp=fp, fn=fn, tn=tn)


def precision(counts: Counts) -> float:
    if counts.tp + counts.fp == 0:
        return 1.0
    return counts.tp / (counts.tp + counts.fp)


def recall(counts: Counts) -> float:
    if counts.tp + counts.fn == 0:
        return 0.0
    return counts.tp / (counts.tp + counts.fn)


def f1(counts: Counts) -> float:
    p, r = precision(counts), recall(counts)
    if p + r == 0:
        return 0.0
    return 2.0 * p * r / (p + r)


def accuracy_coverage(
    scores: Sequence[Scored], threshold: float = 0.5
) -> List[Tuple[float, float]]:
    """(coverage, accuracy) points over descending match posterior.

    Pairs are ranked by p_match (ties by pair id); the k-th point reports
    the fraction of the top k whose thresholded prediction is correct.
    """
    ranked = sorted(scores, key=lambda s: (-s[1], s[0]))
    points = []
    correct = 0
    for k, (_, p, z) in enumerate(ranked, start=1):
        correct += int((p > threshold) == bool(z))
        points.append((k / len(ranked), correct / k))
    return points


def report(scores: Sequence[Scored], threshold: float = 0.5) -> EvalReport:
    counts = classify(scores, threshold)
    return EvalReport(
        threshold=threshold,
        counts=counts,
        precision=precision(counts),
        recall=recall(counts),
        f1=f1(counts),
        curve=tuple(accuracy_coverage(scores, threshold)),
        empty_positives=(counts.tp + counts.fp + counts.fn == 0),
    )


def fold_report(fold_scores: Sequence[Sequence[Scored]], threshold: float = 0.5) -> EvalReport:
    """Per-fold metrics plus their means; counts and curve are pooled."""
    if not fold_scores:
        raise ValueError("fold_report needs at least one fold")
    per_fold = [classify(fold, threshold) for fold in fold_scores]
    pooled: List[Scored] = [s for fold in fold_scores for s in fold]
    counts = classify(pooled, threshold)
    return EvalReport(
        threshold=threshold,
        counts=counts,
        precision=float(np.mean([precision(c) for c in per_fold])),
        recall=float(np.mean([recall(c) for c in per_fold])),
        f1=float(np.mean([f1(c) for c in per_fold])),
        curve=tuple(accuracy_coverage(pooled, threshold)),
        empty_positives=(counts.tp + counts.fp + counts.fn == 0),
        fold_precision=tuple(precision(c) for c in per_fold),
        fold_recall=tuple(recall(c) for c in per_fold),
        fold_f1=tuple(f1(c) for c in per_fold),
    )


def score_pairs(
    model: FsmModel, pairs: Sequence[LabeledPair], inference: str = "fb", beam: Optional[int] = None
) -> List[Scored]:
    """Match posteriors for a pair list, in input order.

    A narrow beam can cut every path of a pair.  This raises
    NoPathError naming the first pair left with no complete alignment,
    while ``editcrf score`` writes NA for each such pair and exits 3.
    """
    _check_inference(inference, beam)
    if not pairs:
        return []
    batch = Batch(model, [(p.x, p.y) for p in pairs], pair_ids=[p.pair_id for p in pairs])
    total, probs = match_posteriors(batch, inference, beam)
    batch.check_paths(total, "either subset")
    return [(p.pair_id, float(pr), p.z) for p, pr in zip(pairs, probs)]


def apply_transitive_closure(
    pairs: Sequence[LabeledPair], scores: Sequence[Scored], threshold: float
) -> Dict[str, int]:
    """Predictions after merging predicted matches into clusters.

    Strings sharing a cluster are all predicted duplicates of each other.
    Disabled by default in the pipeline; provided for comparison runs.
    """
    by_id = {p.pair_id: p for p in pairs}
    parent: Dict[str, str] = {}

    def find(s: str) -> str:
        parent.setdefault(s, s)
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for pair_id, p, _ in scores:
        pair = by_id[pair_id]
        find(pair.x), find(pair.y)
        if p > threshold:
            parent[find(pair.x)] = find(pair.y)
    out = {}
    for pair_id, p, _ in scores:
        pair = by_id[pair_id]
        out[pair_id] = int(find(pair.x) == find(pair.y))
    return out


@dataclass(frozen=True)
class Variant:
    """One ablation row: a feature set, an operation set, a tying order,
    and the inference mode used for training expectations and scoring."""

    name: str
    ops: Tuple[str, ...]
    features: Optional[Tuple[str, ...]] = None
    order: str = FIRST_ORDER
    inference: str = "fb"


@dataclass(frozen=True)
class AblationRow:
    name: str
    f1_mean: float
    fold_f1: Tuple[float, ...]
    error: Optional[str] = None


def _train_and_score(
    variant: Variant,
    train: Sequence[LabeledPair],
    test: Sequence[LabeledPair],
    config: TrainConfig,
    threshold: float,
    lexicon_top_k: int,
) -> float:
    lexicons = {}
    if set(variant.ops) & edits.LEXICON_OPS:
        lex = build_lexicon((s for p in train for s in (p.x, p.y)), top_k=lexicon_top_k)
        lexicons[lex.name] = lex
    model = build_model(
        variant.ops, variant.order, predicates=variant.features, lexicons=lexicons
    )
    state = em_train(model, list(train), config, inference=variant.inference)
    trained = model.with_params(state.params)
    scores = score_pairs(trained, test, inference=variant.inference, beam=config.beam)
    return f1(classify(scores, threshold))


def run_ablation(
    pairs: Sequence[LabeledPair],
    variants: Sequence[Variant],
    config: Optional[TrainConfig] = None,
    n_splits: int = 1,
    threshold: float = 0.5,
    seed: int = 0,
    split_mode: str = "pair",
    fold_swap: bool = True,
    lexicon_top_k: int = 25,
) -> List[AblationRow]:
    """Train and evaluate every variant on identical splits and seeds.

    Each random split contributes one fold (plus its interchange when
    fold_swap is set); rows report mean F1 across folds.  A failing
    variant yields a row carrying the error instead of aborting the run.
    """
    if not variants:
        raise ValueError("variant list must be non-empty")
    if config is None:
        config = TrainConfig()
    folds = []
    for split_idx in range(n_splits):
        for swap in (False, True) if fold_swap else (False,):
            folds.append(
                split_pairs(pairs, 0.5, seed=seed + split_idx, mode=split_mode, swap=swap)
            )
    rows: List[AblationRow] = []
    for variant in variants:
        f1s: List[float] = []
        error = None
        try:
            for train, test in folds:
                f1s.append(
                    _train_and_score(variant, train, test, config, threshold, lexicon_top_k)
                )
        except (EditCrfError, ValueError) as exc:
            error = str(exc)
            logger.warning("variant %r failed: %s", variant.name, exc)
        rows.append(
            AblationRow(
                name=variant.name,
                f1_mean=float(np.mean(f1s)) if f1s else float("nan"),
                fold_f1=tuple(f1s),
                error=error,
            )
        )
    return rows


def ablation_table_tsv(rows: Sequence[AblationRow]) -> str:
    lines = ["name\tf1_mean\tfold_f1\terror"]
    for r in rows:
        folds = ",".join(f"{v:.4f}" for v in r.fold_f1)
        lines.append(f"{r.name}\t{r.f1_mean:.4f}\t{folds}\t{r.error or ''}")
    return "\n".join(lines) + "\n"


def ablation_table_text(rows: Sequence[AblationRow]) -> str:
    width = max(len(r.name) for r in rows)
    lines = [f"{'run'.ljust(width)}  F1"]
    for r in rows:
        note = f"  ERROR: {r.error}" if r.error else ""
        lines.append(f"{r.name.ljust(width)}  {r.f1_mean:.3f}{note}")
    return "\n".join(lines) + "\n"
