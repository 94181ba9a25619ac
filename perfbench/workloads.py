"""The three workloads: inputs, one timed repetition, and output checks.

Each workload calls the library through module attributes
(``data.generate_pairs``, ``evaluation.score_pairs``, ...), so the tracer
in ``spans.py`` sees every call.  A repetition returns its outputs, the
seconds of each named part, and how many operations it attempted and how
many failed.  The runner keeps the first repetition's outputs whole and a
small ``reduce``d summary of every repetition, so memory does not grow
with the number of repetitions.  ``check`` returns a list of problems,
empty when every output is correct.
"""

import hashlib
import itertools
import math
import statistics
import time
import traceback

import numpy as np

import inputs

IDS = ("insert", "delete", "substitute")
SKIPS = (
    "skip-word-if-present-in-other-string-x",
    "skip-word-if-present-in-other-string-y",
)

# Workload sizes.  Each repetition is split into parts of about a tenth
# of a second, each timed on its own: the shared host slows down in
# bursts, and only short parts repeated many times give a steady fastest
# time (see README.md).
# pairgen: PAIRGEN_SETS record sets of 40 entities x 3 records = 120
# records, 7,140 record pairs and 7,020 cross-entity candidates each.
# train: TRAIN_CORPORA independent corpora.  score: batches of FB_CHUNK
# and VITERBI_CHUNK pairs, and each query on its own.
PAIRGEN_SETS, PAIRGEN_ENTITIES, PAIRGEN_PER_ENTITY, PAIRGEN_RATIO = 2, 40, 3, 10
TRAIN_CORPORA, TRAIN_PAIRS, HELD_OUT_PAIRS, POSITIVE_SHARE = 2, 30, 15, 0.2
FB_PAIRS, FB_CHUNK, VITERBI_PAIRS, VITERBI_CHUNK, QUERIES = 300, 100, 24, 12, 120

# Match-side starting weights for the fixed scoring model; the mismatch
# side gets the same values shrunk toward zero by the library's InitScheme.
SCORE_WEIGHTS = {
    "substitute": {"same": 1.2, "same-alphabetic": 0.8, "different": -1.0,
                   "different-alphabetic": -0.6, "bias": -0.1},
    "insert": {"bias": -0.7, "end-of-x": 0.2},
    "delete": {"bias": -0.7, "end-of-y": 0.2},
    SKIPS[0]: {"bias": -0.3},
    SKIPS[1]: {"bias": -0.3},
}


def _failure(what):
    print(f"failed: {what}\n{traceback.format_exc()}", flush=True)


def _bad_probability(p):
    return not (isinstance(p, float) and math.isfinite(p) and 0.0 <= p <= 1.0)


def _timing(parts):
    """Seconds of the given parts: the sum of each part's fastest
    repetition, and the sum of their medians; None when every call
    failed."""
    if not parts:
        return {"value": None, "median": None, "unit": "s", "samples": 0}
    return {"value": sum(min(v) for v in parts.values()),
            "median": sum(statistics.median(v) for v in parts.values()),
            "unit": "s", "samples": min(len(v) for v in parts.values())}


def _select(parts, prefix):
    return {k: v for k, v in parts.items() if k.startswith(prefix)}


def _rate(n, parts):
    """Items per second over the given parts, from _timing's two sums."""
    t = _timing(parts)
    if t["value"] is None:
        return dict(t, unit="1/s")
    return {"value": n / t["value"], "median": n / t["median"], "unit": "1/s",
            "samples": t["samples"]}


def digest(pairs):
    h = hashlib.sha256()
    for p in pairs:
        h.update(f"{p.pair_id}\t{p.x}\t{p.y}\t{p.z}\n".encode())
    return h.hexdigest()


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))]


# -- reference implementations for the checks ---------------------------


def reference_jaro(x, y):
    """Textbook Jaro similarity, written independently of editcrf.metrics."""
    if x == y:
        return 1.0
    if not x or not y:
        return 0.0
    window = max(len(x), len(y)) // 2 - 1
    used = [False] * len(y)
    x_hits = []
    for i, c in enumerate(x):
        for j in range(max(0, i - window), min(len(y), i + window + 1)):
            if not used[j] and y[j] == c:
                used[j] = True
                x_hits.append(c)
                break
    m = len(x_hits)
    if m == 0:
        return 0.0
    y_hits = [c for c, u in zip(y, used) if u]
    t = sum(a != b for a, b in zip(x_hits, y_hits)) / 2.0
    return (m / len(x) + m / len(y) + (m - t) / m) / 3.0


def reference_pairs(rows, ratio):
    """All intra-entity pairs plus the `ratio` x positives cross-entity
    pairs of highest Jaro, ties by pair id, as (pair_id, x, y, z)."""
    ordered = sorted(rows)
    positives, candidates = [], []
    for a, b in itertools.combinations(ordered, 2):
        pair = (f"{a[0]}|{b[0]}", a[2], b[2], int(a[1] == b[1]))
        (positives if pair[3] else candidates).append(pair)
    wanted = ratio * len(positives)
    if wanted >= len(candidates):
        return positives + candidates
    ranked = sorted(candidates, key=lambda p: (-reference_jaro(p[1], p[2]), p[0]))
    return positives + ranked[:wanted]


def exactness_checks(lib, seed):
    """Dynamic-program results against brute-force enumeration on tiny pairs.

    Posterior match agrees to rel 1e-9, p0 + p1 = 1 within 1e-12, each
    subset's Viterbi score equals the best enumerated score, and the
    analytic gradient matches finite differences."""
    problems = []
    model = lib.model.build_model(IDS + ("swap-two-characters",), "first-order")
    rng = np.random.default_rng(seed)
    model = model.with_params(rng.uniform(-1.0, 1.0, model.n_features))
    s1 = set(model.topology.s1)
    for x, y in inputs.tiny_pairs(seed, 8):
        scored = lib.lattice.enumerate_alignments(model, x, y)
        by_subset = {0: [], 1: []}
        for alignment, score in scored:
            by_subset[int(alignment.states[0] in s1)].append(score)
        lz = {z: np.logaddexp.reduce(by_subset[z]) for z in (0, 1)}
        oracle = math.exp(lz[1] - np.logaddexp(lz[0], lz[1]))
        p = lib.lattice.posterior_match(model, x, y)
        if not abs(p - oracle) <= 1e-9 * abs(oracle):
            problems.append(f"posterior_match({x!r}, {y!r}) = {p!r}, oracle {oracle!r}")
        lat = lib.lattice.forward(model, x, y)
        logz = lib.lattice.log_partition(lat)
        p0, p1 = (math.exp(lib.lattice.constrained_log_partition(lat, z) - logz) for z in (0, 1))
        if not abs(p0 + p1 - 1.0) <= 1e-12:
            problems.append(f"p0 + p1 = {p0 + p1!r} for ({x!r}, {y!r})")
        for z in (0, 1):
            best = max(by_subset[z])
            got = lib.lattice.viterbi(model, x, y, constraint=z).score
            if not abs(got - best) <= 1e-9 * max(1.0, abs(best)):
                problems.append(f"viterbi({x!r}, {y!r}, S{z}) = {got!r}, oracle {best!r}")
    corpus = [lib.data.LabeledPair(f"g{k}", x, y, k % 2)
              for k, (x, y) in enumerate(inputs.tiny_pairs(seed + 1, 5))]
    small = lib.model.build_model(IDS, "first-order")
    small = small.with_params(rng.uniform(-1.0, 1.0, small.n_features))
    err = lib.training.grad_check(small, corpus, h=1e-5)
    if not err <= 1e-4:
        problems.append(f"gradient check error {err!r} > 1e-4")
    return problems


def lattice_size(lib, pairs):
    """Nodes and edges of the lattices of `pairs` under the workloads' edit
    operations, from one Batch built after the timed repetitions."""
    model = lib.model.build_model(IDS + SKIPS, "first-order")
    batch = lib.engine.Batch(model, [(p.x, p.y) for p in pairs])
    return {"nodes": int(batch.n_nodes), "edges": int(batch.n_edges)}


def _posterior_checks(lib, model, pairs, scores):
    """Batched p_match against single-pair posteriors, and p0 + p1 = 1."""
    problems = []
    for p, (pid, pm, _) in list(zip(pairs, scores))[:: max(1, len(pairs) // 10)]:
        single = lib.lattice.posterior_match(model, p.x, p.y)
        if not abs(single - pm) <= 1e-9:
            problems.append(f"{pid}: batched p_match {pm!r}, single {single!r}")
        lat = lib.lattice.forward(model, p.x, p.y)
        logz = lib.lattice.log_partition(lat)
        p0, p1 = (math.exp(lib.lattice.constrained_log_partition(lat, z) - logz) for z in (0, 1))
        if not abs(p0 + p1 - 1.0) <= 1e-12:
            problems.append(f"{pid}: p0 + p1 = {p0 + p1!r}")
    return problems


# -- workloads ------------------------------------------------------------


class Pairgen:
    """generate_pairs with the jaro-top filter on PAIRGEN_SETS sets of
    synthesized name records, one call per set."""

    name = "pairgen"

    def make_inputs(self, lib, seed):
        sets = [inputs.records(seed, f"set{k}", PAIRGEN_ENTITIES, PAIRGEN_PER_ENTITY)
                for k in range(PAIRGEN_SETS)]
        n = PAIRGEN_ENTITIES * PAIRGEN_PER_ENTITY
        return {
            "rows": sets,
            "records": [[lib.data.Record(*r) for r in rows] for rows in sets],
            "sampling": lib.data.SamplingConfig(ratio=PAIRGEN_RATIO, filter="jaro-top"),
            "sizes": {"sets": PAIRGEN_SETS, "records": PAIRGEN_SETS * n,
                      "record_pairs": PAIRGEN_SETS * (n * (n - 1) // 2),
                      "chars": sum(len(r[2]) for rows in sets for r in rows)},
        }

    def run(self, lib, inp):
        outs, parts, failed = [], {}, 0
        for k, records in enumerate(inp["records"]):
            t0 = time.perf_counter()
            try:
                out = lib.data.generate_pairs(records, inp["sampling"])
            except Exception:
                _failure("generate_pairs")
                out = None
                failed += 1
            else:
                parts[f"generate_pairs{k}_s"] = time.perf_counter() - t0
            outs.append(out)
        return outs, parts, len(outs), failed

    def reduce(self, out):
        return [digest(o) if o is not None else None for o in out]

    def check(self, lib, inp, first, summaries):
        problems = []
        for k, rows in enumerate(inp["rows"]):
            if len({s[k] for s in summaries if s[k] is not None}) > 1:
                problems.append(f"set {k}: generate_pairs gave different pair lists within one run")
            if first[k] is None:
                continue
            got = sorted((p.pair_id, p.x, p.y, p.z) for p in first[k])
            if got != sorted(reference_pairs(rows, PAIRGEN_RATIO)):
                problems.append(f"set {k}: generate_pairs differs from the reference top-k by Jaro")
        return problems

    def detail(self, lib, inp, first, summaries, parts):
        positives = sum(p.z for out in first if out for p in out)
        candidates = inp["sizes"]["record_pairs"] - positives
        return {
            "candidates_per_s": _rate(candidates, parts),
            "pairs_out": {"value": sum(len(out) for out in first if out), "unit": "count"},
            "digest": summaries[0],
        }


class Train:
    """EM training (2 EM iterations x <= 15 L-BFGS) plus fb scoring of
    held-out pairs, on TRAIN_CORPORA independent corpora."""

    name = "train"

    def make_inputs(self, lib, seed):
        LP = lib.data.LabeledPair
        corpora = [
            ([LP(*r) for r in inputs.labeled_pairs(seed, f"t{k}", TRAIN_PAIRS, POSITIVE_SHARE)],
             [LP(*r) for r in inputs.labeled_pairs(seed, f"h{k}", HELD_OUT_PAIRS, POSITIVE_SHARE)])
            for k in range(TRAIN_CORPORA)
        ]
        config = lib.training.TrainConfig(em_max_iters=2, mstep_max_iters=15)
        return {
            "corpora": corpora,
            "config": config,
            "sizes": {"train": inputs.size_of([p for c in corpora for p in c[0]]),
                      "held_out": inputs.size_of([p for c in corpora for p in c[1]])},
        }

    def run(self, lib, inp):
        outs, parts = [], {}
        attempted = failed = 0
        for k, (train, held) in enumerate(inp["corpora"]):
            attempted += 1 + len(held)
            t0 = time.perf_counter()
            try:
                model = lib.model.build_model(IDS + SKIPS, "first-order")
                state = lib.training.em_train(model, train, inp["config"])
                t1 = time.perf_counter()
                trained = model.with_params(state.params)
                scores = lib.evaluation.score_pairs(trained, held)
            except Exception:
                _failure("em_train or score_pairs")
                failed += 1 + len(held)
                outs.append(None)
                continue
            parts[f"train{k}_s"] = t1 - t0
            parts[f"held_out{k}_s"] = time.perf_counter() - t1
            failed += sum(_bad_probability(s[1]) for s in scores)
            outs.append((trained, state, scores))
        return outs, parts, attempted, failed

    def reduce(self, out):
        return [o[1].params if o is not None else None for o in out]

    def check(self, lib, inp, first, summaries):
        problems = []
        for k, (_, held) in enumerate(inp["corpora"]):
            if first[k] is None:
                continue
            trained, state, scores = first[k]
            if any(s[k] is not None and not np.array_equal(s[k], state.params) for s in summaries):
                problems.append(f"corpus {k}: em_train gave different parameters within one run")
            history = [v for _, v in state.history]
            for a, b in zip(history, history[1:]):
                if b < a - 1e-9 * abs(a):
                    problems.append(f"corpus {k}: penalized log-likelihood fell from {a!r} to {b!r}")
            if any(_bad_probability(s[1]) for s in scores):
                problems.append(f"corpus {k}: held-out p_match not finite or outside [0, 1]")
            else:
                problems += _posterior_checks(lib, trained, held, scores)
        return problems

    def detail(self, lib, inp, first, summaries, parts):
        done = [o for o in first if o is not None]
        scores = [s for o in done for s in o[2]]
        f1 = None
        if scores and not any(_bad_probability(s[1]) for s in scores):
            f1 = lib.evaluation.f1(lib.evaluation.classify(scores, 0.5))
        return {
            "train_s": _timing(_select(parts, "train")),
            "held_out_score_s": _timing(_select(parts, "held_out")),
            "f1": {"value": f1, "unit": "1", "threshold": 0.5, "pairs": len(scores)},
            "em_iters": {"value": [len(o[1].history) - 1 for o in done], "unit": "count"},
            "lattice": {"train": lattice_size(lib, [p for c in inp["corpora"] for p in c[0]]),
                        "held_out": lattice_size(lib, [p for c in inp["corpora"] for p in c[1]])},
        }


class Score:
    """A fixed model: batched fb scoring, batched Viterbi scoring, and
    single-pair posterior_match queries issued one after another."""

    name = "score"

    def make_inputs(self, lib, seed):
        LP = lib.data.LabeledPair
        fb = [LP(*r) for r in inputs.labeled_pairs(seed, "s", FB_PAIRS, POSITIVE_SHARE)]
        vit = [LP(*r) for r in inputs.labeled_pairs(seed, "v", VITERBI_PAIRS, POSITIVE_SHARE)]
        scheme = lib.training.InitScheme(table=SCORE_WEIGHTS, shrink=0.3)
        return {
            "fb": fb,
            "viterbi": vit,
            "queries": fb[:QUERIES],
            "scheme": scheme,
            "sizes": {"fb": inputs.size_of(fb), "viterbi": inputs.size_of(vit),
                      "queries": inputs.size_of(fb[:QUERIES])},
        }

    def run(self, lib, inp):
        parts = {}
        t0 = time.perf_counter()
        model = lib.model.build_model(IDS + SKIPS, "first-order")
        model = model.with_params(lib.training.init_params(model, inp["scheme"]))
        parts["model_s"] = time.perf_counter() - t0
        results = {"model": model}
        for part, chunk in (("fb", FB_CHUNK), ("viterbi", VITERBI_CHUNK)):
            pairs, scores = inp[part], []
            for k in range(0, len(pairs), chunk):
                some = pairs[k : k + chunk]
                t0 = time.perf_counter()
                try:
                    scores += lib.evaluation.score_pairs(model, some, inference=part)
                except Exception:
                    _failure(f"score_pairs inference={part}")
                    scores += [(p.pair_id, None, p.z) for p in some]
                else:
                    parts[f"{part}{k // chunk}_s"] = time.perf_counter() - t0
            results[part] = scores
        latencies, answers = [], []
        posterior_match = lib.lattice.posterior_match
        for k, p in enumerate(inp["queries"]):
            t0 = time.perf_counter()
            try:
                answer = posterior_match(model, p.x, p.y)
            except Exception:
                _failure(f"posterior_match {p.pair_id}")
                answer = None
            latencies.append(time.perf_counter() - t0)
            parts[f"query{k:03d}_s"] = latencies[-1]
            answers.append(answer)
        results["queries"] = answers
        results["latencies"] = latencies
        scored = results["fb"] + results["viterbi"] + answers
        failed = sum(_bad_probability(s[1] if isinstance(s, tuple) else s) for s in scored)
        return results, parts, len(scored), failed

    def reduce(self, out):
        summary = {part: out[part] and [s[1] for s in out[part]] for part in ("fb", "viterbi")}
        summary.update(queries=out["queries"], latencies=out["latencies"])
        return summary

    def check(self, lib, inp, first, summaries):
        problems = []
        for part in ("fb", "viterbi"):
            base = summaries[0][part]
            for s in summaries:
                if s[part] is None or any(_bad_probability(p) for p in s[part]):
                    problems.append(f"{part} p_match not finite or outside [0, 1]")
                    break
                if any(abs(a - b) > 1e-12 for a, b in zip(s[part], base)):
                    problems.append(f"{part} p_match differs between repetitions")
                    break
        if problems:
            return problems
        for s in summaries:
            for answer, (pid, pm, _) in zip(s["queries"], first["fb"]):
                if answer is None or not abs(answer - pm) <= 1e-9:
                    problems.append(f"{pid}: posterior_match {answer!r}, batched {pm!r}")
                    break
        problems += _posterior_checks(lib, first["model"], inp["fb"], first["fb"])
        return problems

    def detail(self, lib, inp, first, summaries, parts):
        latencies = [t for s in summaries for t in s["latencies"]]
        return {
            "score_pairs_per_s": _rate(len(inp["fb"]), _select(parts, "fb")),
            "viterbi_pairs_per_s": _rate(len(inp["viterbi"]), _select(parts, "viterbi")),
            "query_p50_ms": {"value": 1e3 * percentile(latencies, 50), "unit": "ms",
                             "samples": len(latencies)},
            "query_p99_ms": {"value": 1e3 * percentile(latencies, 99), "unit": "ms",
                             "samples": len(latencies)},
            "lattice": {part: lattice_size(lib, inp[part]) for part in ("fb", "viterbi", "queries")},
        }


WORKLOADS = {w.name: w for w in (Pairgen(), Train(), Score())}
