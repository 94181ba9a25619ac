#!/usr/bin/env python3
"""Alternating parent/change benchmark runs, summarised as BENCH_<label>.json.

Usage, from the repository root:

    python3 tools/bench_compare.py --label compile --parent HEAD~1 --change HEAD \
        --seeds 701-710 --seconds 30 --note "what the change does"

PARENT and CHANGE are git revisions, exported with ``git archive`` into
fresh directories, or directories that already hold a checkout.  For each
workload and seed the script runs ``perfbench/run.py --trace 0`` once in
each checkout, back to back, with the parent first on even positions of
the seed list and the change first on odd ones.  It writes every run, and
per workload the medians and quartiles of each side's end-to-end metrics,
how many pairs the change read lower in, failed operations and whether
every run was correct.  The exit code is 1 when a run failed or was
incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pairgen", "train", "score")
METRICS = ("work_best_s", "setup_s", "peak_rss_mb")


def seed_list(text):
    """Seeds from "a-b" ranges and single numbers, separated by commas."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def checkout(rev, into):
    """A directory holding rev: the path itself when it is a directory,
    else a git archive of the revision under into."""
    if Path(rev).is_dir():
        return Path(rev).resolve(), rev
    commit = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into, commit


def run_one(where, workload, seed, seconds):
    """One untraced benchmark run: exit code, its record and its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=where, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        record, result = {}, {}
    return proc.returncode, record, result


def quartiles(values):
    """First and third quartiles, inclusive method, to 4 decimals."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def summarise(runs):
    """Per metric: each side's median and quartiles, the change's
    relative median and the pairs it read lower in; failed operations
    and whether every run was correct."""
    out = {}
    for metric in METRICS:
        parent = [r[metric] for r in runs if r["side"] == "parent" and r[metric] is not None]
        change = [r[metric] for r in runs if r["side"] == "change" and r[metric] is not None]
        by_seed = {(r["seed"], r["side"]): r[metric] for r in runs}
        pairs = [(by_seed[s, "parent"], by_seed[s, "change"]) for s in sorted({r["seed"] for r in runs})
                 if by_seed.get((s, "parent")) is not None and by_seed.get((s, "change")) is not None]
        if len(parent) < 2 or len(change) < 2:
            out[metric] = None
            continue
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[metric] = {
            "parent_median": round(p_med, 4),
            "parent_quartiles": quartiles(parent),
            "change_median": round(c_med, 4),
            "change_quartiles": quartiles(change),
            "change_pct": round(100 * (c_med / p_med - 1), 1),
            "change_lower_in": sum(c < p for p, c in pairs),
            "pairs": len(pairs),
        }
    out["failed_ops"] = {side: sum(r["failed"] or 0 for r in runs if r["side"] == side)
                         for side in ("parent", "change")}
    out["all_correct"] = all(r["correct"] for r in runs)
    return out


def dump(bench):
    """JSON text with one line per summary metric and per run."""
    items = []
    for key, value in bench.items():
        if key == "summary":
            blocks = [
                f"  {json.dumps(w)}: {{\n"
                + ",\n".join(f"   {json.dumps(m)}: {json.dumps(x)}" for m, x in s.items())
                + "\n  }"
                for w, s in value.items()
            ]
            items.append(' "summary": {\n' + ",\n".join(blocks) + "\n }")
        elif key == "runs":
            items.append(' "runs": [\n' + ",\n".join(f"  {json.dumps(r)}" for r in value) + "\n ]")
        else:
            items.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--parent", required=True, help="git revision or checkout directory")
    ap.add_argument("--change", required=True, help="git revision or checkout directory")
    ap.add_argument("--seeds", type=seed_list, required=True, help='e.g. "701-710"')
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--note", default="", help="one line on what the change does")
    ap.add_argument("--out", type=Path, help="default: BENCH_<label>.json in the repository root")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    with tempfile.TemporaryDirectory(prefix="bench_compare_") as tmp:
        sides = {side: checkout(getattr(args, side), Path(tmp) / side) for side in ("parent", "change")}
        runs, host = [], {}
        for workload in workloads:
            for pos, seed in enumerate(args.seeds):
                first = "parent" if pos % 2 == 0 else "change"
                for side in (first, "change" if first == "parent" else "parent"):
                    code, record, result = run_one(sides[side][0], workload, seed, args.seconds)
                    metrics = result.get("metrics", {})
                    env = record.get("env", {})
                    host = host or {k: env[k] for k in ("nproc", "python", "numpy", "scipy") if k in env}
                    runs.append({
                        "workload": workload, "seed": seed, "side": side, "first": first, "exit": code,
                        "correct": result.get("correct") is True, "attempted": result.get("attempted"),
                        "failed": result.get("failed"),
                        **{m: round(metrics[m]["value"], 5) if m in metrics else None for m in METRICS},
                    })
                    print(json.dumps(runs[-1]), flush=True)

    seeds = args.seeds
    bench = {
        "label": args.label,
        "change": args.note,
        "parent": sides["parent"][1],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "method": (
            f"{len(seeds)} pairs per workload on seeds {seeds[0]}-{seeds[-1]}, each pair run back to back "
            "in checkouts of the parent and the change, alternating which side runs first (parent "
            "first on even positions); medians and quartiles over the runs of each side; change_lower_in "
            "counts the pairs where the change read lower"
        ),
        "host": host,
        "seeds": seeds,
        "summary": {w: summarise([r for r in runs if r["workload"] == w]) for w in workloads},
        "runs": runs,
    }
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(dump(bench))
    print(f"wrote {out}")
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
