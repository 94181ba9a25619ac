"""Command-line pipeline: synth, pairs, train, eval, score, align, ablate,
inspect.

Configuration precedence is built-in defaults, then a key=value config
file, then command-line flags.  Exit codes: 0 success, 1 usage error,
2 data error, 3 numerical failure.
"""

import argparse
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import edits
from .data import (
    NoiseConfig,
    SamplingConfig,
    generate_pairs,
    load_pairs,
    load_records,
    random_person_names,
    save_pairs,
    save_records,
    split_pairs,
    synthesize_names,
)
from .errors import (
    DataFormatError,
    DegenerateInputError,
    ModelFormatError,
    NoPathError,
    NumericalError,
)
from .evaluation import (
    Variant,
    ablation_table_text,
    ablation_table_tsv,
    accuracy_coverage,
    apply_transitive_closure,
    classify,
    f1 as f1_of,
    precision,
    recall,
    run_ablation,
)
from .features import build_lexicon, LexiconSet
from .engine import Batch
from .lattice import _BestPaths, _check_inference, match_posteriors
from .model import FIRST_ORDER, SECOND_ORDER, build_model, load_model, save_model
from .training import TrainConfig, direct_train, em_train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# One-letter cell codes for alignment grids.
OP_CODES = {
    edits.INSERT: "i",
    edits.DELETE: "d",
    edits.SUBSTITUTE: "s",
    edits.SWAP: "w",
    edits.SKIP_ANY_X: "a",
    edits.SKIP_ANY_Y: "a",
    edits.SKIP_LEX_X: "l",
    edits.SKIP_LEX_Y: "l",
    edits.SKIP_PRES_X: "r",
    edits.SKIP_PRES_Y: "r",
    edits.SKIP_PAREN_X: "p",
    edits.SKIP_PAREN_Y: "p",
    edits.DELETE_TO_WORD_END_X: "u",
    edits.ABBREV: "b",
}


class CliError(Exception):
    """Usage-level error raised by command implementations."""


def _parse_bool(key: str, text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise CliError(f"config key {key}: expected a boolean, got {text!r}")


def _parse_beam(text: str) -> Optional[int]:
    if text.strip().lower() in ("inf", "none", "unlimited"):
        return None
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_USAGE on a usage error, and keeps each flag added to
    it by dest, so that a config file can name them."""

    def __init__(self, *args, **kwargs):
        self.flags: Dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_config_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DataFormatError(f"{path}:{line_no}: expected key=value")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise DataFormatError(f"cannot read config file {path}: {exc}") from exc
    return values


def _set_config_defaults(commands: Dict[str, _Parser], args: argparse.Namespace) -> None:
    """Make the config file's values the defaults of args.command's flags.

    argparse parses a string default with its flag's type, so the next
    parse reads the file's values as it reads flags, and a flag given on
    the command line still wins.  argparse never checks a default against
    the flag's choices, so that check is made here, before any command
    runs.  A key names a flag of any command; one that this command lacks,
    or a required flag, is ignored.
    """
    values = _parse_config_file(args.config)
    known = {dest for p in commands.values() for dest in p.flags} - {"help", "config"}
    unknown = set(values) - known
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    command = commands[args.command]
    defaults = {}
    for key, text in values.items():
        flag = command.flags.get(key)
        if flag is None or flag.required:
            continue
        if flag.choices is not None:
            try:
                value = flag.type(text) if flag.type else text
            except ValueError:
                value = text
            if value not in flag.choices:
                choices = ", ".join(map(str, flag.choices))
                raise CliError(f"config key {key}: invalid choice {text!r} (choose from {choices})")
        # A store_true flag takes no value, so it has no type to parse one.
        defaults[key] = _parse_bool(key, text) if flag.nargs == 0 else text
    command.set_defaults(**defaults)


def _split_list(text: Optional[str]) -> Optional[List[str]]:
    if text is None or text == "":
        return None
    return [item.strip() for item in text.split(",") if item.strip()]


def _ops_of(args) -> List[str]:
    ops = _split_list(args.ops) or []
    known = set(edits.registry())
    for op in ops:
        if op not in known:
            raise CliError(f"unknown edit operation {op!r}")
    if not ops:
        raise CliError("operation list is empty")
    return ops


def _order_of(order) -> str:
    """The tying of --order 1 or 2, given as an int or as text."""
    tying = {"1": FIRST_ORDER, "2": SECOND_ORDER}.get(str(order))
    if tying is None:
        raise CliError("--order must be 1 or 2")
    return tying


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        sigma2=args.sigma2,
        em_max_iters=args.em_iters,
        em_tol=args.em_tol,
        mstep_max_iters=args.mstep_iters,
        mstep_grad_tol=args.mstep_grad_tol,
        beam=args.beam,
    )


def _sampling_config(args) -> SamplingConfig:
    names = {"jaro": "jaro-top", "cosine": "cosine-top", "handset": "handset-crf-top"}
    if args.filter not in names:
        raise CliError("--filter must be jaro, cosine, or handset")
    return SamplingConfig(ratio=args.ratio, filter=names[args.filter], seed=args.seed)


def _noise_config(args) -> NoiseConfig:
    return NoiseConfig(
        record_error_prob=args.record_error_prob,
        typo_insert_prob=args.typo_insert_prob,
        typo_delete_prob=args.typo_delete_prob,
        typo_swap_prob=args.typo_swap_prob,
        word_swap_prob=args.word_swap_prob,
        seed=args.seed,
    )


def cmd_synth(args) -> int:
    if bool(args.names) == bool(args.random_names):
        raise CliError("provide exactly one of --names or --random-names")
    if args.names:
        try:
            with open(args.names, "r", encoding="utf-8") as fh:
                base = [line.strip() for line in fh if line.strip()]
        except OSError as exc:
            raise DataFormatError(f"cannot read names file {args.names}: {exc}") from exc
    else:
        base = random_person_names(args.random_names, seed=args.seed)
    records = synthesize_names(base, _noise_config(args), duplicates_per_name=args.duplicates)
    save_records(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_pairs(args) -> int:
    records = load_records(args.records)
    pairs = generate_pairs(records, _sampling_config(args))
    save_pairs(pairs, args.out)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    if args.train_out or args.test_out:
        if not (args.train_out and args.test_out):
            raise CliError("--train-out and --test-out must be given together")
        train, test = split_pairs(
            pairs, args.split_fraction, seed=args.seed, mode=args.split_mode
        )
        save_pairs(train, args.train_out)
        save_pairs(test, args.test_out)
        print(f"split {len(train)}/{len(test)} into {args.train_out} and {args.test_out}")
    return EXIT_OK


def _load_training_pairs(args):
    if bool(args.pairs) == bool(args.records):
        raise CliError("provide exactly one of --pairs or --records")
    if args.pairs:
        return load_pairs(args.pairs)
    records = load_records(args.records)
    return generate_pairs(records, _sampling_config(args))


def cmd_train(args) -> int:
    pairs = _load_training_pairs(args)
    ops = _ops_of(args)
    features = _split_list(args.features)
    lexicons = {}
    if set(ops) & edits.LEXICON_OPS:
        if args.lexicon:
            try:
                with open(args.lexicon, "r", encoding="utf-8") as fh:
                    words = frozenset(w.strip().lower() for w in fh if w.strip())
            except OSError as exc:
                raise DataFormatError(f"cannot read lexicon {args.lexicon}: {exc}") from exc
            lexicons["default"] = LexiconSet(name="default", words=words)
        else:
            lex = build_lexicon(
                (s for p in pairs for s in (p.x, p.y)), top_k=args.lexicon_top_k
            )
            lexicons[lex.name] = lex
    model = build_model(ops, _order_of(args.order), predicates=features, lexicons=lexicons)
    config = _train_config(args)
    if args.direct:
        state = direct_train(model, pairs, config)
    else:
        state = em_train(model, pairs, config, inference=args.inference)
    trained = model.with_params(state.params)
    save_model(trained, args.out)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write("\n".join(state.log_lines) + "\n")
    final = state.history[-1]
    print(f"trained model written to {args.out} (iterations={final[0]}, loglik_pen={final[1]:.6f})")
    return EXIT_OK


def cmd_score(args) -> int:
    _check_inference(args.inference, args.beam)
    model = load_model(args.model)
    pairs = load_pairs(args.pairs)
    lines = ["pair_id\tp_match\tprediction"]
    if args.beam is not None:
        lines.append(f"# beam_width={args.beam} approximate=true")
    # One batched pass scores every pair that has a lattice; pairs with both
    # strings empty or with no complete alignment are written as NA.
    probs = np.full(len(pairs), np.nan)
    live = [k for k, p in enumerate(pairs) if p.x or p.y]
    if live:
        batch = Batch(model, [(pairs[k].x, pairs[k].y) for k in live])
        total, p_match = match_posteriors(batch, args.inference, args.beam)
        probs[live] = np.where(np.isfinite(total), p_match, np.nan)
    for p, prob in zip(pairs, probs):
        if np.isnan(prob):
            lines.append(f"{p.pair_id}\tNA\tNA")
        else:
            lines.append(f"{p.pair_id}\t{prob:.6f}\t{int(prob > args.threshold)}")
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    failed = int(np.count_nonzero(np.isnan(probs)))
    if failed:
        print(f"{failed} pair(s) failed inference", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _load_scores(path) -> List[tuple]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "pair_id\tp_match\tprediction":
        raise DataFormatError(f"{path}: expected a scores file header")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise DataFormatError(f"{path}:{line_no}: expected 3 columns")
        if cols[1] == "NA":
            continue
        rows.append((cols[0], float(cols[1])))
    return rows


def cmd_eval(args) -> int:
    pairs = {p.pair_id: p for p in load_pairs(args.pairs)}
    scored = []
    for pair_id, prob in _load_scores(args.scores):
        if pair_id not in pairs:
            raise DataFormatError(f"scores reference unknown pair_id {pair_id!r}")
        scored.append((pair_id, prob, pairs[pair_id].z))
    counts = classify(scored, args.threshold)
    if args.transitive_closure:
        predictions = apply_transitive_closure(list(pairs.values()), scored, args.threshold)
        relabeled = [
            (pid, float(predictions[pid]), z) for pid, _, z in scored
        ]
        counts = classify(relabeled, 0.5)
    lines = [
        f"pairs={len(scored)}",
        f"threshold={args.threshold}",
        f"tp={counts.tp} fp={counts.fp} fn={counts.fn} tn={counts.tn}",
        f"precision={precision(counts):.6f}",
        f"recall={recall(counts):.6f}",
        f"f1={f1_of(counts):.6f}",
    ]
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    sys.stdout.write(payload)
    if args.curve_out:
        curve = accuracy_coverage(scored, args.threshold)
        with open(args.curve_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("coverage\taccuracy\n")
            for cov, acc in curve:
                fh.write(f"{cov:.6f}\t{acc:.6f}\n")
    return EXIT_OK


def render_alignment_grid(x: str, y: str, alignment) -> List[str]:
    """Text grid: y heads the columns, x heads the rows, cells carry the
    one-letter code of the step that landed there; the start cell is -."""
    cols = len(y) + 1
    grid = [["."] * cols for _ in range(len(x) + 1)]
    grid[0][0] = "-"
    for op, i, j in zip(alignment.edits, alignment.ix, alignment.iy):
        grid[i][j] = OP_CODES.get(op, "?")
    header = " ".join(["ε"] + list(y))
    lines = ["  " + header]
    for r in range(len(x) + 1):
        label = "ε" if r == 0 else x[r - 1]
        lines.append(" ".join([label] + grid[r]))
    return lines


def cmd_align(args) -> int:
    model = load_model(args.model)
    if args.subset not in ("match", "mismatch", "best"):
        raise CliError("--subset must be match, mismatch, or best")
    batch = Batch(model, [(args.x, args.y)])
    paths = _BestPaths(batch, batch.edge_weights(model.params))
    v0, v1 = (float(v[0]) for v in paths.subset_scores())
    if v0 == -np.inf and v1 == -np.inf:
        raise NoPathError("no complete alignment in either subset")
    higher = "match" if v1 >= v0 else "mismatch"
    print(f"match log-score: {v1:.6f}")
    print(f"mismatch log-score: {v0:.6f}")
    print(f"higher: {higher}")
    wanted = [args.subset] if args.subset != "best" else [higher]
    for name in wanted:
        z = 1 if name == "match" else 0
        alignment = paths.alignment(0, z)
        print(f"[{name}]")
        for line in render_alignment_grid(args.x, args.y, alignment):
            print(line)
    return EXIT_OK


def _parse_variant(text: str) -> Variant:
    """One --variant, its fields read by the rules of the train flags of
    the same names."""
    fields = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise CliError(f"variant field {chunk!r} is not key=value")
        key, value = chunk.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"name", "ops", "features", "order", "inference"}
    if unknown:
        raise CliError(f"unknown variant fields: {', '.join(sorted(unknown))}")
    if "name" not in fields or "ops" not in fields:
        raise CliError("variant needs at least name=...;ops=...")
    inference = fields.get("inference", "fb")
    if inference not in ("fb", "viterbi"):
        raise CliError("variant inference must be fb or viterbi")
    features = _split_list(fields.get("features"))
    return Variant(
        name=fields["name"],
        ops=tuple(_split_list(fields["ops"]) or ()),
        features=tuple(features) if features else None,
        order=_order_of(fields.get("order", "1")),
        inference=inference,
    )


def cmd_ablate(args) -> int:
    pairs = load_pairs(args.pairs)
    variants = [_parse_variant(v) for v in args.variant]
    rows = run_ablation(
        pairs,
        variants,
        config=_train_config(args),
        n_splits=args.splits,
        threshold=args.threshold,
        seed=args.seed,
        split_mode=args.split_mode,
        fold_swap=args.fold_swap,
        lexicon_top_k=args.lexicon_top_k,
    )
    sys.stdout.write(ablation_table_text(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(ablation_table_tsv(rows))
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    topo = model.topology
    print(f"tying: {model.tying}")
    print(f"states: q0 + S0={list(topo.s0)} S1={list(topo.s1)}")
    print(f"transitions: {len(topo.transitions)}")
    print(f"operations: {', '.join(op for op in edits.registry() if op in model.ops)}")
    print(f"predicates: {', '.join(model.predicates)}")
    print(f"features: {model.n_features}")
    for name, lex in sorted(model.lexicons.items()):
        print(f"lexicon {name}: {len(lex.words)} words")
    order = np.argsort(-np.abs(model.params), kind="stable")
    print(f"top {min(args.top, len(order))} weights by magnitude:")
    for fid in order[: args.top]:
        print(f"  {model.feature_names[fid]} = {model.params[fid]:+.6f}")
    return EXIT_OK


def _command(sub, name: str, func, help: str) -> _Parser:
    """The parser of one command, with the flags that every command takes."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, default=SamplingConfig.seed)
    p.set_defaults(func=func)
    return p


def _add_train_flags(parser):
    parser.add_argument("--sigma2", type=float, default=TrainConfig.sigma2)
    parser.add_argument("--em-iters", dest="em_iters", type=int, default=TrainConfig.em_max_iters)
    parser.add_argument("--em-tol", dest="em_tol", type=float, default=TrainConfig.em_tol)
    parser.add_argument("--mstep-iters", dest="mstep_iters", type=int,
                        default=TrainConfig.mstep_max_iters)
    parser.add_argument("--mstep-grad-tol", dest="mstep_grad_tol", type=float,
                        default=TrainConfig.mstep_grad_tol)
    parser.add_argument("--beam", type=_parse_beam, default=TrainConfig.beam)
    parser.add_argument("--inference", choices=("fb", "viterbi"), default="fb")


def _add_model_flags(parser):
    parser.add_argument("--ops", default="insert,delete,substitute")
    parser.add_argument("--features")
    parser.add_argument("--order", type=int, choices=(1, 2), default=1)
    parser.add_argument("--lexicon")
    parser.add_argument("--lexicon-top-k", dest="lexicon_top_k", type=int, default=25)


def _add_sampling_flags(parser):
    parser.add_argument("--ratio", type=int, default=SamplingConfig.ratio)
    parser.add_argument("--filter", choices=("jaro", "cosine", "handset"), default="jaro")


def _add_noise_flags(parser):
    for rate in ("record_error_prob", "typo_insert_prob", "typo_delete_prob",
                 "typo_swap_prob", "word_swap_prob"):
        parser.add_argument("--" + rate.replace("_", "-"), dest=rate, type=float,
                            default=getattr(NoiseConfig, rate))


def build_parser() -> _Parser:
    parser = _Parser(prog="editcrf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # by name, for the config file's keys

    p = _command(sub, "synth", cmd_synth, "generate noisy duplicate records")
    p.add_argument("--names", help="file with one base name per line")
    p.add_argument("--random-names", dest="random_names", type=int, help="draw N built-in names")
    p.add_argument("--duplicates", type=int, default=3)
    _add_noise_flags(p)
    p.add_argument("--out", required=True)

    p = _command(sub, "pairs", cmd_pairs, "generate labeled pairs from records")
    p.add_argument("--records", required=True)
    _add_sampling_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--train-out", dest="train_out")
    p.add_argument("--test-out", dest="test_out")
    p.add_argument("--split-mode", dest="split_mode", choices=("entity", "pair"), default="pair")
    p.add_argument("--split-fraction", dest="split_fraction", type=float, default=0.5)

    p = _command(sub, "train", cmd_train, "train a model on labeled pairs")
    p.add_argument("--pairs")
    p.add_argument("--records")
    _add_sampling_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--direct", action="store_true",
                   help="optimize the penalized likelihood directly instead of EM")
    p.add_argument("--out", required=True)
    p.add_argument("--log")

    p = _command(sub, "score", cmd_score, "score pairs with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--inference", choices=("fb", "viterbi"), default="fb")
    p.add_argument("--beam", type=_parse_beam)
    p.add_argument("--out")

    p = _command(sub, "eval", cmd_eval, "precision/recall/F1 from scores")
    p.add_argument("--scores", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--transitive-closure", dest="transitive_closure", action="store_true")
    p.add_argument("--out")
    p.add_argument("--curve-out", dest="curve_out")

    p = _command(sub, "align", cmd_align, "render best alignments for one pair")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--subset", choices=("match", "mismatch", "best"), default="best")

    p = _command(sub, "ablate", cmd_ablate, "train and compare model variants")
    p.add_argument("--pairs", required=True)
    p.add_argument("--variant", action="append", required=True,
                   help="name=...;ops=a,b;features=s,d;order=1;inference=fb (repeatable)")
    p.add_argument("--splits", type=int, default=1)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--split-mode", dest="split_mode", choices=("entity", "pair"), default="pair")
    p.add_argument("--fold-swap", dest="fold_swap", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--lexicon-top-k", dest="lexicon_top_k", type=int, default=25)
    _add_train_flags(p)
    p.add_argument("--out")

    p = _command(sub, "inspect", cmd_inspect, "print topology and top weights")
    p.add_argument("--model", required=True)
    p.add_argument("--top", type=int, default=20)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _set_config_defaults(parser.commands, args)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: missing input path: {exc.filename}", file=sys.stderr)
        return EXIT_DATA
    except (DataFormatError, ModelFormatError, DegenerateInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NoPathError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
