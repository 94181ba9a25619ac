"""Spans recorded from outside the program, and the per-layer metrics
computed from them.

A :class:`Tracer` replaces a public function or method at the attribute
where its callers look it up (``editcrf.metrics.jaro``,
``editcrf.engine.Batch.forward``, ...) with a wrapper that records one span
per call: id, parent span id, name, start, end and a few counters taken
from the call's arguments or result.  Spans stay in memory until the run
ends.  :meth:`Tracer.restore` puts every original attribute back.
"""

import functools
import gzip
import json
import time
from collections import defaultdict

import numpy as np

COUNTERS = "trace.counters"


class Tracer:
    def __init__(self):
        # Each span is [id, parent, name, start, end, counters-or-None].
        self.spans = []
        self._stack = []
        self._patched = []

    def wrap(self, owner, attr, name, counters=None):
        """Replace owner.attr by a span-recording wrapper.

        ``counters(args, kwargs, result)`` returns a dict of counts for
        the span.  It runs after the span has closed, inside a span of its
        own named ``trace.counters``, so its cost counts as tracing
        overhead and not as any layer's self time."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counters is not None:
                extra = [len(spans), span[1], COUNTERS, clock(), 0.0, None]
                spans.append(extra)
                span[5] = counters(args, kwargs, result)
                extra[4] = clock()
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end, counts in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "counters": counts or {},
                }) + "\n")


def _batch_counters(args, kwargs, result):
    """Size of a freshly built Batch: pairs, nodes, edges, signatures used,
    and the bytes held by its NumPy arrays."""
    batch = args[0]
    sig = getattr(batch, "sig", None)
    sigs = int(np.count_nonzero(np.bincount(sig))) if sig is not None and len(sig) else 0
    nbytes = sum(v.nbytes for v in vars(batch).values() if isinstance(v, np.ndarray))
    return {
        "pairs": int(getattr(batch, "n_pairs", 0)),
        "nodes": int(getattr(batch, "n_nodes", 0)),
        "edges": int(getattr(batch, "n_edges", 0)),
        "sigs": sigs,
        "bytes": int(nbytes),
    }


def _sweep_counters(args, kwargs, result):
    return {"edges": int(getattr(args[0], "n_edges", 0))}


def install(tracer, lib):
    """Wrap every public entry point the per-layer metrics need; `lib`
    holds the editcrf modules by name."""
    data, metrics, engine = lib.data, lib.metrics, lib.engine
    lattice, evaluation, training = lib.lattice, lib.evaluation, lib.training
    tracer.wrap(metrics, "jaro", "metrics.jaro")
    tracer.wrap(
        data, "generate_pairs", "data.generate_pairs",
        lambda a, k, out: {"negatives": sum(1 for p in out if p.z == 0)},
    )
    tracer.wrap(engine.Batch, "__init__", "engine.build", _batch_counters)
    tracer.wrap(engine.Batch, "edge_weights", "engine.edge_weights")
    for method in ("forward", "backward", "posterior_counts"):
        tracer.wrap(engine.Batch, method, f"engine.{method}", _sweep_counters)
    tracer.wrap(engine.Batch, "log_partitions", "engine.log_partitions")
    tracer.wrap(lattice, "posterior_match", "lattice.posterior_match")
    # viterbi_on_batch is looked up in two modules; wrap both bindings.
    for module in (lattice, training):
        if hasattr(module, "viterbi_on_batch"):
            tracer.wrap(module, "viterbi_on_batch", "lattice.viterbi_on_batch")
    tracer.wrap(evaluation, "score_pairs", "evaluation.score_pairs")
    tracer.wrap(
        training, "em_train", "training.em_train",
        lambda a, k, out: {"em_iters": len(out.history) - 1},
    )
    # The L-BFGS M-step, as scipy.optimize.minimize is looked up by training.
    tracer.wrap(
        training, "minimize", "training.lbfgs",
        lambda a, k, out: {"evals": int(out.nfev)},
    )


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("metrics.jaro.calls", "count", "lower"),
    ("metrics.jaro.s", "s", "lower"),
    ("data.generate_pairs.self_s", "s", "lower"),
    ("data.kept_per_jaro_call", "pairs/call", "higher"),
    ("engine.build.s", "s", "lower"),
    ("engine.build.us_per_pair", "us/pair", "lower"),
    ("engine.batch.pairs", "count", "lower"),
    ("engine.batch.edges", "count", "lower"),
    ("engine.batch.nodes", "count", "lower"),
    ("engine.batch.sigs", "count", "lower"),
    ("engine.batch.bytes", "B", "lower"),
    ("engine.forward.calls", "count", "lower"),
    ("engine.forward.ns_per_edge", "ns/edge", "lower"),
    ("engine.backward.ns_per_edge", "ns/edge", "lower"),
    ("engine.posterior_counts.ns_per_edge", "ns/edge", "lower"),
    ("engine.edge_weights.s", "s", "lower"),
    ("engine.log_partitions.us_per_call", "us/call", "lower"),
    ("lattice.posterior_match.self_s", "s", "lower"),
    ("lattice.viterbi_on_batch.calls", "count", "lower"),
    ("lattice.viterbi_on_batch.ms_per_call", "ms/call", "lower"),
    ("training.em_iters", "count", "lower"),
    ("training.lbfgs_evals", "count", "lower"),
    ("training.lbfgs_evals_per_em_iter", "evals/iter", "lower"),
    ("training.mstep.s", "s", "lower"),
    ("training.estep.s", "s", "lower"),
    ("evaluation.score_pairs.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(spans, overhead_s):
    """Per-layer metrics from one traced repetition's spans."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    sums = defaultdict(int)
    for sid, parent, name, start, end, counts in spans:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_time[name] += dur
        if parent >= 0:
            self_time[spans[parent][2]] -= dur
        for key, value in (counts or {}).items():
            sums[name, key] += value

    # Time in em_train outside the L-BFGS calls and outside lattice builds:
    # E-steps plus the M-step's start-point evaluation.
    in_train = [False] * len(spans)
    build_in_train = 0.0
    for sid, parent, name, start, end, _ in spans:
        in_train[sid] = name == "training.em_train" or (parent >= 0 and in_train[parent])
        if in_train[sid] and name == "engine.build":
            build_in_train += end - start
    em_iters = sums["training.em_train", "em_iters"]
    lbfgs_evals = sums["training.lbfgs", "evals"]

    def per_edge(name):
        return _ratio(total[name], sums[name, "edges"], 1e9)

    values = {
        "metrics.jaro.calls": calls["metrics.jaro"],
        "metrics.jaro.s": total["metrics.jaro"],
        "data.generate_pairs.self_s": self_time["data.generate_pairs"],
        "data.kept_per_jaro_call": _ratio(
            sums["data.generate_pairs", "negatives"], calls["metrics.jaro"]),
        "engine.build.s": total["engine.build"],
        "engine.build.us_per_pair": _ratio(
            total["engine.build"], sums["engine.build", "pairs"], 1e6),
        "engine.batch.pairs": sums["engine.build", "pairs"],
        "engine.batch.edges": sums["engine.build", "edges"],
        "engine.batch.nodes": sums["engine.build", "nodes"],
        "engine.batch.sigs": sums["engine.build", "sigs"],
        "engine.batch.bytes": sums["engine.build", "bytes"],
        "engine.forward.calls": calls["engine.forward"],
        "engine.forward.ns_per_edge": per_edge("engine.forward"),
        "engine.backward.ns_per_edge": per_edge("engine.backward"),
        "engine.posterior_counts.ns_per_edge": per_edge("engine.posterior_counts"),
        "engine.edge_weights.s": total["engine.edge_weights"],
        "engine.log_partitions.us_per_call": _ratio(
            total["engine.log_partitions"], calls["engine.log_partitions"], 1e6),
        "lattice.posterior_match.self_s": self_time["lattice.posterior_match"],
        "lattice.viterbi_on_batch.calls": calls["lattice.viterbi_on_batch"],
        "lattice.viterbi_on_batch.ms_per_call": _ratio(
            total["lattice.viterbi_on_batch"], calls["lattice.viterbi_on_batch"], 1e3),
        "training.em_iters": em_iters,
        "training.lbfgs_evals": lbfgs_evals,
        "training.lbfgs_evals_per_em_iter": _ratio(lbfgs_evals, em_iters),
        "training.mstep.s": total["training.lbfgs"],
        "training.estep.s": (
            total["training.em_train"] - total["training.lbfgs"] - build_in_train),
        "evaluation.score_pairs.self_s": self_time["evaluation.score_pairs"],
        "trace.spans": len(spans),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
