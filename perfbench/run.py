#!/usr/bin/env python3
"""editcrf benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload {pairgen,train,score} --seed N \
        --seconds S --trace {0,1}

The library is imported from ``src/`` next to this directory.  All load
comes from this one process: a closed loop with a single caller repeats
the workload until ``--seconds`` have passed (at least three times).
With ``--trace 0`` the last stdout line reports the end-to-end metrics;
``work_best_s`` sums, over the workload's parts, each part's fastest
repetition.  With ``--trace 1`` it reports per-layer metrics from one
traced repetition.  The line before it holds the workload's own named metrics,
input sizes and environment; ``perfbench/out/`` receives the same record
and, for traced runs, the spans.  The exit code is 1 when an output check
or an operation fails and 2 when the library cannot be found.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_REPS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may run on; must
    run before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def load_library():
    sys.path.insert(0, str(SRC))
    import editcrf
    from editcrf import data, engine, evaluation, lattice, metrics, model, training

    if Path(editcrf.__file__).resolve().parent != (SRC / "editcrf").resolve():
        raise ImportError(f"editcrf was imported from {editcrf.__file__}, not {SRC}")
    return SimpleNamespace(data=data, engine=engine, evaluation=evaluation,
                           lattice=lattice, metrics=metrics, model=model, training=training)


def set_up(lib, workload, seed):
    """Import the library in a fresh interpreter and generate the inputs,
    SETUP_REPEATS times; returns the inputs and the median seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import editcrf"], env=env, check=True)
        inp = workload.make_inputs(lib, seed)
        times.append(time.perf_counter() - t0)
    return inp, statistics.median(times)


def repeat(lib, workload, inp, seconds, reps=MIN_REPS):
    """Closed loop: repeat the workload at least `reps` times, and then
    while another repetition fits in `seconds`."""
    durations, summaries, parts = [], [], {}
    first = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out, rep_parts, a, f = workload.run(lib, inp)
        durations.append(time.perf_counter() - t0)
        if first is None:
            first = out
        summaries.append(workload.reduce(out))
        for name, value in rep_parts.items():
            parts.setdefault(name, []).append(value)
        attempted += a
        failed += f
        elapsed = time.perf_counter() - start
        if len(durations) >= reps and elapsed + statistics.median(durations) > seconds:
            return durations, first, summaries, parts, attempted, failed


def traced_repetition(lib, workload, inp):
    """Two untraced repetitions, then one traced; returns per-layer metrics,
    the tracer, and the repetitions' results as repeat() does, with part
    times from the untraced repetitions only.  Tracing overhead is the
    traced time minus the faster untraced one."""
    import spans

    durations, first, summaries, parts, attempted, failed = repeat(
        lib, workload, inp, 0.0, reps=2)
    tracer = spans.Tracer()
    spans.install(tracer, lib)
    try:
        t0 = time.perf_counter()
        out, _, a, f = workload.run(lib, inp)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    layers = spans.layer_metrics(tracer.spans, traced_s - min(durations))
    summaries.append(workload.reduce(out))
    return (layers, tracer, durations + [traced_s], first, summaries, parts,
            attempted + a, failed + f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pairgen", "train", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "editcrf" / "__init__.py").is_file():
        print(f"editcrf sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    import numpy
    import scipy

    import workloads

    lib = load_library()
    workload = workloads.WORKLOADS[args.workload]
    inp, setup_s = set_up(lib, workload, args.seed)

    if args.trace:
        metrics, tracer, durations, first, summaries, parts, attempted, failed = (
            traced_repetition(lib, workload, inp))
    else:
        durations, first, summaries, parts, attempted, failed = repeat(
            lib, workload, inp, args.seconds)
        metrics = {
            "work_best_s": {"value": sum(min(v) for v in parts.values()), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    problems = (workload.check(lib, inp, first, summaries)
                + workloads.exactness_checks(lib, args.seed))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "nproc": nproc,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "sizes": inp["sizes"],
        "repetitions": durations,
        "setup_s": setup_s,
        "workload_metrics": workload.detail(lib, inp, first, summaries, parts),
        "problems": problems,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.dump(OUT / f"{stem}.spans.jsonl.gz")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if not problems and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
