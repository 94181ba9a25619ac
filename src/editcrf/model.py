"""Finite-state model over edit operations.

The machine has a single initial state q0 (id 0) and two disjoint sets of
non-initial states: S0 (mismatch) and S1 (match), with no transitions
between the sets.  Transitions are labeled by edit operations.  Every
complete alignment therefore lives wholly inside one subset, and the
subset determines which label the alignment supports.

Parameters are organized into transition groups.  Under first-order
tying, all transitions entering a state with a given operation share one
group, with entry transitions from q0 kept separate; under second-order
tying every (from, op, to) triple owns a group.  A feature id is a
(group, input predicate) conjunction, laid out group-major.
"""

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import edits
from .errors import ModelFormatError
from .features import PREDICATES, LexiconSet, normalize_predicates, predicate_table

Q0 = 0
FIRST_ORDER = "first-order"
SECOND_ORDER = "second-order"
FORMAT_VERSION = 1


class Transition(NamedTuple):
    frm: int
    op: str
    to: int


@dataclass(frozen=True)
class FsmTopology:
    """States partitioned into {q0}, S0, S1, plus the transition set."""

    s0: Tuple[int, ...]
    s1: Tuple[int, ...]
    transitions: Tuple[Transition, ...]

    @property
    def states(self) -> Tuple[int, ...]:
        return (Q0,) + self.s0 + self.s1

    def subset_of(self, state: int) -> Optional[int]:
        if state in self.s0:
            return 0
        if state in self.s1:
            return 1
        return None


class Group(NamedTuple):
    """One parameter group: a tied class of transitions."""

    index: int
    label: str
    op: str
    subset: int


class TransitionTable(NamedTuple):
    """The transitions as read-only index rows (from-state index or -1 for
    q0, op index, to-state index, group) in topology order, with
    states indexed S0 first, then S1."""

    states: Tuple[int, ...]
    state_index: Mapping[int, int]
    transitions: np.ndarray


def build_default_topology(ops: Sequence[str], order: str = FIRST_ORDER) -> FsmTopology:
    """Canonical two-subset topology for the given edit operations.

    First order uses one state per subset, fully connected within the
    subset and from q0.  Second order uses one state per operation per
    subset, so the destination state remembers the previous edit.
    """
    ops = tuple(ops)
    if not ops:
        raise ValueError("operation list must be non-empty")
    known = set(edits.registry())
    for op in ops:
        if op not in known:
            raise ValueError(f"unknown edit operation {op!r}")
    if order not in (FIRST_ORDER, SECOND_ORDER):
        raise ValueError(f"order must be {FIRST_ORDER!r} or {SECOND_ORDER!r}")
    transitions: List[Transition] = []
    if order == FIRST_ORDER:
        s0, s1 = (1,), (2,)
        for state in (1, 2):
            for op in ops:
                transitions.append(Transition(Q0, op, state))
            for op in ops:
                transitions.append(Transition(state, op, state))
    else:
        k = len(ops)
        s0 = tuple(range(1, k + 1))
        s1 = tuple(range(k + 1, 2 * k + 1))
        for subset in (s0, s1):
            for op_idx, op in enumerate(ops):
                transitions.append(Transition(Q0, op, subset[op_idx]))
            for frm in subset:
                for op_idx, op in enumerate(ops):
                    transitions.append(Transition(frm, op, subset[op_idx]))
    return FsmTopology(s0=s0, s1=s1, transitions=tuple(transitions))


def _group_key(tying: str, t: Transition):
    if tying == FIRST_ORDER:
        return (t.to, t.op, t.frm == Q0)
    return (t.frm, t.op, t.to)


def _group_label(tying: str, t: Transition) -> str:
    if tying == FIRST_ORDER:
        suffix = ":q0" if t.frm == Q0 else ""
        return f"s{t.to}.{t.op}{suffix}"
    return f"s{t.frm}.{t.op}.s{t.to}"


@dataclass(frozen=True, eq=False)
class FsmModel:
    """Immutable model: topology, tying, parameters, lexicons, templates.

    Safe for concurrent read; training produces a new model via
    :meth:`with_params` rather than mutating in place.
    """

    topology: FsmTopology
    tying: str
    ops: Tuple[str, ...]
    predicates: Tuple[str, ...]
    params: np.ndarray
    lexicons: Mapping[str, LexiconSet] = field(default_factory=dict)

    def __post_init__(self):
        arr = np.asarray(self.params, dtype=np.float64)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "params", arr)
        object.__setattr__(self, "lexicons", dict(self.lexicons))

    @cached_property
    def _transition_group(self) -> Dict[Transition, int]:
        """Each transition's group: groups are numbered in the order in which
        the transitions first reach their tying keys."""
        index: Dict[object, int] = {}
        return {
            t: index.setdefault(_group_key(self.tying, t), len(index))
            for t in self.topology.transitions
        }

    @cached_property
    def groups(self) -> Tuple[Group, ...]:
        out: List[Group] = []
        for t, g in self._transition_group.items():
            if g == len(out):
                out.append(Group(g, _group_label(self.tying, t), t.op, self.topology.subset_of(t.to)))
        return tuple(out)

    def group_of_transition(self, frm: int, op: str, to: int) -> Optional[int]:
        return self._transition_group.get(Transition(frm, op, to))

    @cached_property
    def transition_table(self) -> TransitionTable:
        states = tuple(self.topology.s0) + tuple(self.topology.s1)
        state_index = {s: k for k, s in enumerate(states)}
        op_index = {op: k for k, op in enumerate(self.ops)}
        rows = np.array(
            [
                (
                    -1 if t.frm == Q0 else state_index[t.frm],
                    op_index[t.op],
                    state_index[t.to],
                    self._transition_group[t],
                )
                for t in self.topology.transitions
            ],
            dtype=np.int64,
        ).reshape(-1, 4)
        rows.setflags(write=False)
        return TransitionTable(states, MappingProxyType(state_index), rows)

    @cached_property
    def predicate_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """(mask_of_key, bits) of :func:`features.predicate_table` for the
        model's predicates: each cell key's mask number, and each mask's
        predicate bits."""
        mask_of_key, bits = predicate_table(self.predicates)
        mask_of_key.setflags(write=False)
        bits.setflags(write=False)
        return mask_of_key, bits

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_features(self) -> int:
        return self.n_groups * len(self.predicates)

    def feature_id(self, group: int, predicate_idx: int) -> int:
        return group * len(self.predicates) + predicate_idx

    @cached_property
    def feature_names(self) -> Tuple[str, ...]:
        return tuple(
            f"{g.label}*{p}" for g in self.groups for p in self.predicates
        )

    @cached_property
    def lexicon_union(self):
        words = set()
        for lex in self.lexicons.values():
            words.update(lex.words)
        return frozenset(words)

    def with_params(self, params: np.ndarray) -> "FsmModel":
        return replace(self, params=np.asarray(params, dtype=np.float64))

    def equals(self, other: "FsmModel") -> bool:
        return (
            self.topology == other.topology
            and self.tying == other.tying
            and self.ops == other.ops
            and self.predicates == other.predicates
            and np.array_equal(self.params, other.params)
            and {n: l.words for n, l in self.lexicons.items()}
            == {n: l.words for n, l in other.lexicons.items()}
        )


def build_model(
    ops: Sequence[str],
    order: str = FIRST_ORDER,
    predicates: Optional[Iterable[str]] = None,
    lexicons: Optional[Mapping[str, LexiconSet]] = None,
    params: Optional[np.ndarray] = None,
) -> FsmModel:
    """Construct a model on the canonical topology with zero weights."""
    topology = build_default_topology(ops, order)
    preds = normalize_predicates(predicates if predicates is not None else PREDICATES)
    model = FsmModel(
        topology=topology,
        tying=order,
        ops=tuple(ops),
        predicates=preds,
        params=np.zeros(1),
        lexicons=lexicons or {},
    )
    n = model.n_features
    vec = np.zeros(n) if params is None else np.asarray(params, dtype=np.float64)
    if vec.shape != (n,):
        raise ValueError(f"parameter vector must have length {n}, got {vec.shape}")
    return model.with_params(vec)


def validate(model: FsmModel) -> List[str]:
    """All violated invariants of the model; empty means ok."""
    violations: List[str] = []
    topo = model.topology
    s0, s1 = set(topo.s0), set(topo.s1)
    if not topo.s0 or not topo.s1:
        violations.append("subset emptiness: S0 and S1 must both be non-empty")
    if s0 & s1:
        violations.append("subset overlap: S0 and S1 must be disjoint")
    if Q0 in s0 or Q0 in s1:
        violations.append("initial state q0 may not belong to S0 or S1")
    known_ops = set(edits.registry())
    reachable = {Q0}
    entered = {0: False, 1: False}
    for t in topo.transitions:
        if t.to == Q0:
            violations.append(f"transition {t} re-enters the initial state")
        sub_from = topo.subset_of(t.frm)
        sub_to = topo.subset_of(t.to)
        if sub_to is None:
            violations.append(f"transition {t} targets an unknown state")
            continue
        if sub_from is not None and sub_from != sub_to:
            violations.append(f"subset crossing: transition {t} links S{sub_from} to S{sub_to}")
        if t.op not in known_ops:
            violations.append(f"transition {t} uses unknown operation {t.op!r}")
        if t.frm == Q0:
            entered[sub_to] = True
    for sub, ok in entered.items():
        if not ok and topo.s0 and topo.s1:
            violations.append(f"no entry transition from q0 into S{sub}")
    changed = True
    while changed:
        changed = False
        for t in topo.transitions:
            if t.frm in reachable and t.to not in reachable:
                reachable.add(t.to)
                changed = True
    for state in s0 | s1:
        if state not in reachable:
            violations.append(f"state {state} is unreachable from q0")
    if model.params.shape != (model.n_features,):
        violations.append(
            "dangling parameter group: parameter vector has length "
            f"{model.params.shape[0]}, expected {model.n_features}"
        )
    if not np.all(np.isfinite(model.params)):
        violations.append("parameter vector contains non-finite weights")
    return violations


def _model_document(model: FsmModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "editcrf-model",
        "tying": model.tying,
        "ops": list(model.ops),
        "predicates": list(model.predicates),
        "topology": {
            "s0": list(model.topology.s0),
            "s1": list(model.topology.s1),
            "transitions": [[t.frm, t.op, t.to] for t in model.topology.transitions],
        },
        "lexicons": {name: sorted(lex.words) for name, lex in model.lexicons.items()},
        "weights": [float(w) for w in model.params],
    }


def save_model(model: FsmModel, destination) -> int:
    """Write the model as a UTF-8 JSON document; returns bytes written.

    Weights round-trip bit-exactly: floats are emitted with Python's
    shortest-exact decimal representation.
    """
    violations = validate(model)
    if violations:
        raise ModelFormatError("refusing to save invalid model: " + "; ".join(violations))
    payload = json.dumps(_model_document(model), indent=1, ensure_ascii=False) + "\n"
    data = payload.encode("utf-8")
    if hasattr(destination, "write"):
        destination.write(payload)
        return len(data)
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write(payload)
    return len(data)


def _require(doc: dict, key: str):
    if key not in doc:
        raise ModelFormatError(f"model document is missing required key {key!r}")
    return doc[key]


def load_model(source) -> FsmModel:
    """Load a model saved by :func:`save_model`."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"model document parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = _require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format_version {version!r}; this build reads version {FORMAT_VERSION}"
        )
    ops = tuple(_require(doc, "ops"))
    known = set(edits.registry())
    for op in ops:
        if op not in known:
            raise ModelFormatError(f"model document names unknown edit operation {op!r}")
    topo_doc = _require(doc, "topology")
    for key in ("s0", "s1", "transitions"):
        if key not in topo_doc:
            raise ModelFormatError(f"model topology is missing required key {key!r}")
    transitions = []
    for row in topo_doc["transitions"]:
        if len(row) != 3:
            raise ModelFormatError(f"malformed transition entry {row!r}")
        frm, op, to = row
        if op not in known:
            raise ModelFormatError(f"model document names unknown edit operation {op!r}")
        transitions.append(Transition(int(frm), op, int(to)))
    topology = FsmTopology(
        s0=tuple(int(s) for s in topo_doc["s0"]),
        s1=tuple(int(s) for s in topo_doc["s1"]),
        transitions=tuple(transitions),
    )
    tying = _require(doc, "tying")
    if tying not in (FIRST_ORDER, SECOND_ORDER):
        raise ModelFormatError(f"unknown tying scheme {tying!r}")
    predicates = normalize_predicates(_require(doc, "predicates"))
    lexicons = {
        name: LexiconSet(name=name, words=frozenset(words))
        for name, words in _require(doc, "lexicons").items()
    }
    weights = np.asarray(_require(doc, "weights"), dtype=np.float64)
    model = FsmModel(
        topology=topology,
        tying=tying,
        ops=ops,
        predicates=predicates,
        params=np.zeros(1),
        lexicons=lexicons,
    )
    if weights.shape != (model.n_features,):
        raise ModelFormatError(
            f"weight array has length {weights.shape[0]}, expected {model.n_features}"
        )
    model = model.with_params(weights)
    violations = validate(model)
    if violations:
        raise ModelFormatError("loaded model is invalid: " + "; ".join(violations))
    return model
