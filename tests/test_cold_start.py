"""Importing the package, scoring, aligning, generating pairs and training
(soft EM, hard EM and direct) load no SciPy.

The checks run in a fresh interpreter, because this process has already
imported SciPy through the test fixtures.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import editcrf, editcrf.cli
from editcrf import (
    LabeledPair, Record, SamplingConfig, TrainConfig, build_model,
    direct_train, em_train, generate_pairs, posterior_match, score_pairs,
)

seen = {"import": scipy_modules()}
model = build_model(["insert", "delete", "substitute"], predicates=["same", "different"])
posterior_match(model, "anna", "ana")
pairs = [
    LabeledPair("p0", "ab", "ab", 1),
    LabeledPair("n0", "ab", "bb", 0),
    LabeledPair("p1", "b", "b", 1),
]
score_pairs(model, pairs, inference="fb")
score_pairs(model, pairs, inference="viterbi")
records = [Record("a1", "a", "anna smith"), Record("a2", "a", "ana smith"),
           Record("b1", "b", "john brown"), Record("b2", "b", "jon brown")]
generate_pairs(records, SamplingConfig(ratio=1, filter="jaro-top"))
seen["inference"] = scipy_modules()
config = TrainConfig(em_max_iters=1, mstep_max_iters=2)
for inference in ("fb", "viterbi"):
    state = em_train(model, pairs, config, inference=inference)
    seen[f"em {inference}"] = [scipy_modules(), len(state.history)]
state = direct_train(model, pairs, config)
seen["direct"] = [scipy_modules(), len(state.history)]
print(json.dumps(seen))
"""


def test_cold_start_loads_no_scipy():
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["inference"] == []
    for run in ("em fb", "em viterbi", "direct"):
        modules, history = seen[run]
        assert modules == [], run
        # Each run took at least one step, so the optimizer ran.
        assert history >= 2, run
