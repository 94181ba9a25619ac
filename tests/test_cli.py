import numpy as np
import pytest

from editcrf import build_model, load_model, load_pairs, save_model, save_pairs, score_pairs, viterbi
from editcrf.cli import main, render_alignment_grid
from editcrf.data import LabeledPair
from editcrf.engine import Batch


def run(argv):
    return main([str(a) for a in argv])


def pipeline(tmp_path, seed=3, out="scores.tsv"):
    records = tmp_path / "records.tsv"
    pairs = tmp_path / "pairs.tsv"
    model = tmp_path / "model.json"
    scores = tmp_path / out
    assert run(["synth", "--random-names", 10, "--duplicates", 2, "--seed", seed,
                "--out", records]) == 0
    assert run(["pairs", "--records", records, "--ratio", 3, "--seed", seed,
                "--out", pairs]) == 0
    assert run(["train", "--pairs", pairs, "--em-iters", 1, "--mstep-iters", 8,
                "--seed", seed, "--out", model]) == 0
    assert run(["score", "--model", model, "--pairs", pairs, "--out", scores]) == 0
    return records, pairs, model, scores


def test_pipeline_composes_end_to_end(tmp_path, capsys):
    records, pairs, model, scores = pipeline(tmp_path)
    assert run(["eval", "--scores", scores, "--pairs", pairs]) == 0
    out = capsys.readouterr().out
    assert "f1=" in out


def test_pipeline_deterministic_bytes(tmp_path):
    *_, scores_a = pipeline(tmp_path, out="a.tsv")
    *_, scores_b = pipeline(tmp_path, out="b.tsv")
    assert scores_a.read_bytes() == scores_b.read_bytes()


def test_score_rows_format(tmp_path):
    _, pairs, model, scores = pipeline(tmp_path)
    lines = scores.read_text().splitlines()
    assert lines[0] == "pair_id\tp_match\tprediction"
    for line in lines[1:3]:
        pair_id, p, pred = line.split("\t")
        assert len(p.split(".")[1]) == 6
        assert pred in ("0", "1")


def test_score_empty_pairs_header_only(tmp_path):
    _, _, model, _ = pipeline(tmp_path)
    empty = tmp_path / "empty.tsv"
    save_pairs([], empty)
    out = tmp_path / "empty_scores.tsv"
    assert run(["score", "--model", model, "--pairs", empty, "--out", out]) == 0
    assert out.read_text() == "pair_id\tp_match\tprediction\n"


def test_symmetric_model_scores_half(tmp_path):
    model_path = tmp_path / "zero.json"
    save_model(build_model(["insert", "delete", "substitute"]), model_path)
    pairs_path = tmp_path / "p.tsv"
    save_pairs([LabeledPair("q", "ab", "ba", 1)], pairs_path)
    out = tmp_path / "s.tsv"
    assert run(["score", "--model", model_path, "--pairs", pairs_path, "--out", out]) == 0
    row = out.read_text().splitlines()[1].split("\t")
    assert row[1] == "0.500000"
    assert row[2] == "0"


def test_train_missing_input_path(tmp_path, capsys):
    code = run(["train", "--pairs", tmp_path / "nope.tsv", "--out", tmp_path / "m.json"])
    assert code == 2
    assert "nope.tsv" in capsys.readouterr().err


def test_train_em0_equals_init(tmp_path):
    _, pairs, _, _ = pipeline(tmp_path)
    model_path = tmp_path / "init.json"
    assert run(["train", "--pairs", pairs, "--em-iters", 0, "--out", model_path]) == 0
    model = load_model(model_path)
    from editcrf import init_params

    base = build_model(["insert", "delete", "substitute"])
    np.testing.assert_array_equal(model.params, init_params(base))


def test_trained_model_round_trips(tmp_path):
    _, pairs, model_path, scores = pipeline(tmp_path)
    model = load_model(model_path)
    reload_path = tmp_path / "copy.json"
    save_model(model, reload_path)
    assert load_model(reload_path).equals(model)
    out2 = tmp_path / "rescore.tsv"
    assert run(["score", "--model", reload_path, "--pairs", pairs, "--out", out2]) == 0
    assert out2.read_bytes() == scores.read_bytes()


def test_align_renders_grid(tmp_path, capsys):
    _, _, model, _ = pipeline(tmp_path)
    assert run(["align", "--model", model, "--x", "ab", "--y", "ab",
                "--subset", "best"]) == 0
    out = capsys.readouterr().out
    assert "match log-score:" in out
    assert "mismatch log-score:" in out
    assert "higher:" in out
    grid_lines = [l for l in out.splitlines() if l.startswith(("ε", "a", "b", " "))]
    assert any("s" in l for l in grid_lines)


def test_align_no_path_exit_code(tmp_path, capsys):
    model_path = tmp_path / "ins.json"
    save_model(build_model(["insert"]), model_path)
    assert run(["align", "--model", model_path, "--x", "ab", "--y", "x",
                "--subset", "best"]) == 3


def test_render_grid_shape_and_marks():
    model = build_model(["insert", "delete", "substitute"])
    params = np.array(model.params)
    p_same = model.predicates.index("same")
    for g in model.groups:
        if g.op == "substitute" and g.subset == 1:
            params[model.feature_id(g.index, p_same)] = 2.0
    best = viterbi(model.with_params(params), "a", "a", 1)
    lines = render_alignment_grid("a", "a", best)
    assert len(lines) <= len("a") + 2
    assert lines[1].split()[1] == "-"
    assert lines[2].split()[2] == "s"


def test_inspect_lists_ops_in_registry_order(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    save_model(
        build_model(["substitute", "delete", "insert"]), model_path
    )
    assert run(["inspect", "--model", model_path, "--top", 3]) == 0
    out = capsys.readouterr().out
    assert "operations: insert, delete, substitute" in out


def config_file(tmp_path, text, name="conf.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_config_file_precedence(tmp_path):
    _, pairs, _, _ = pipeline(tmp_path)
    # top names a flag of inspect only, so train ignores it.
    config = config_file(tmp_path, "em-iters=0\nsigma2=5.0\ntop=3\n")
    m1 = tmp_path / "m1.json"
    # config applies when flag absent
    assert run(["train", "--pairs", pairs, "--config", config, "--out", m1]) == 0
    base = build_model(["insert", "delete", "substitute"])
    from editcrf import init_params

    np.testing.assert_array_equal(load_model(m1).params, init_params(base))
    # flag beats config
    m2 = tmp_path / "m2.json"
    assert run(["train", "--pairs", pairs, "--config", config, "--em-iters", 1,
                "--mstep-iters", 5, "--out", m2]) == 0
    assert not np.array_equal(load_model(m2).params, init_params(base))


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    _, pairs, _, _ = pipeline(tmp_path)
    model = tmp_path / "m.json"
    # config and help name no setting; a bad value is a usage error too.
    for text in ("emiters=0\n", "config=other.txt\n", "help=1\n", "em_iters=abc\n"):
        assert run(["train", "--pairs", pairs, "--config", config_file(tmp_path, text),
                    "--out", model]) == 1
    assert not model.exists()


def test_missing_config_file_is_data_error(tmp_path, capsys):
    _, pairs, _, _ = pipeline(tmp_path)
    assert run(["train", "--pairs", pairs, "--config", tmp_path / "nope.conf",
                "--out", tmp_path / "m.json"]) == 2
    assert "nope.conf" in capsys.readouterr().err


def test_config_direct_true_acts_as_flag(tmp_path):
    _, pairs, _, _ = pipeline(tmp_path)
    by_flag, by_config = tmp_path / "flag.json", tmp_path / "config.json"
    train = ["train", "--pairs", pairs, "--em-iters", 1, "--mstep-iters", 4]
    assert run(train + ["--direct", "--out", by_flag]) == 0
    assert run(train + ["--config", config_file(tmp_path, "direct=true\n"), "--out", by_config]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()


def test_config_fold_swap_false_runs_one_fold(tmp_path):
    _, pairs, _, _ = pipeline(tmp_path)
    ablate = ["ablate", "--pairs", pairs, "--variant", "name=ids;ops=insert,delete,substitute",
              "--em-iters", 0]
    folds = []
    for k, extra in enumerate([[], ["--config", config_file(tmp_path, "fold_swap=false\n")]]):
        out = tmp_path / f"table{k}.tsv"
        assert run(ablate + extra + ["--out", out]) == 0
        folds.append(out.read_text().splitlines()[1].split("\t")[2].split(","))
    assert [len(f) for f in folds] == [2, 1]


def test_ablate_no_fold_swap_reaches_run_ablation(tmp_path, monkeypatch):
    import editcrf.cli as cli

    _, pairs, _, _ = pipeline(tmp_path)
    seen = []
    real = cli.run_ablation

    def recording_run_ablation(*args, **kwargs):
        seen.append(kwargs["fold_swap"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_ablation", recording_run_ablation)
    ablate = ["ablate", "--pairs", pairs, "--variant", "name=ids;ops=insert,delete,substitute",
              "--em-iters", 0]
    for extra in ([], ["--fold-swap"], ["--no-fold-swap"]):
        assert run(ablate + extra) == 0
    assert seen == [True, True, False]


def test_config_choice_is_checked_before_the_command_runs(tmp_path, capsys):
    """A config value outside its flag's choices is a usage error, as on
    the command line, and the command writes nothing."""
    records, pairs, model, _ = pipeline(tmp_path)
    outs = [tmp_path / name for name in ("all.tsv", "train.tsv", "test.tsv")]
    split = ["pairs", "--records", records, "--out", outs[0], "--train-out", outs[1], "--test-out", outs[2]]
    assert run(split + ["--config", config_file(tmp_path, "split_mode=cluster\n")]) == 1
    assert not any(out.exists() for out in outs)
    assert "invalid choice 'cluster'" in capsys.readouterr().err
    scores = tmp_path / "greedy.tsv"
    score = ["score", "--model", model, "--pairs", pairs, "--out", scores]
    assert run(score + ["--inference", "greedy"]) == 1
    assert run(score + ["--config", config_file(tmp_path, "inference=greedy\n")]) == 1
    assert not scores.exists()
    # A typed flag's value is parsed before it is checked.
    trained = tmp_path / "m.json"
    assert run(["train", "--pairs", pairs, "--out", trained, "--config", config_file(tmp_path, "order=3\n")]) == 1
    assert not trained.exists()


def test_config_beam_inf_is_exact(tmp_path):
    _, pairs, model, scores = pipeline(tmp_path)
    out = tmp_path / "inf.tsv"
    config = config_file(tmp_path, "beam=inf\n")
    assert run(["score", "--model", model, "--pairs", pairs, "--config", config, "--out", out]) == 0
    assert out.read_bytes() == scores.read_bytes()


def test_usage_error_exit_code():
    assert run(["train"]) == 1  # neither --pairs nor --records


def test_ablate_single_variant(tmp_path, capsys):
    _, pairs, _, _ = pipeline(tmp_path)
    capsys.readouterr()
    out = tmp_path / "table.tsv"
    code = run([
        "ablate", "--pairs", pairs,
        "--variant", "name=ids;ops=insert,delete,substitute",
        "--splits", 1, "--em-iters", 1, "--mstep-iters", 6, "--out", out,
    ])
    assert code == 0
    table = out.read_text().splitlines()
    assert table[0].startswith("name\t")
    assert len(table) == 2
    assert capsys.readouterr().out.startswith("run")


@pytest.mark.parametrize("field", ["order=3", "order=first-order", "inferense=viterbi"])
def test_ablate_rejects_bad_variant_field(tmp_path, field):
    _, pairs, _, _ = pipeline(tmp_path)
    assert run(["ablate", "--pairs", pairs, "--em-iters", 0, "--variant",
                f"name=a;ops=insert,delete,substitute;{field}"]) == 1


def test_ablate_viterbi_variant_with_beam_reports_error(tmp_path):
    _, pairs, _, _ = pipeline(tmp_path)
    out = tmp_path / "table.tsv"
    code = run(["ablate", "--pairs", pairs, "--em-iters", 0, "--beam", 5, "--variant",
                "name=hard;ops=insert,delete,substitute;order=2;inference=viterbi", "--out", out])
    assert code == 0
    assert "beam applies to fb" in out.read_text().splitlines()[1]


def test_viterbi_with_beam_exits_2_and_writes_nothing(tmp_path, capsys):
    _, pairs, model, _ = pipeline(tmp_path)
    scores, trained = tmp_path / "vb.tsv", tmp_path / "vb.json"
    assert run(["score", "--model", model, "--pairs", pairs, "--inference", "viterbi",
                "--beam", 1, "--out", scores]) == 2
    assert run(["train", "--pairs", pairs, "--inference", "viterbi", "--beam", 3,
                "--em-iters", 1, "--out", trained]) == 2
    assert not scores.exists() and not trained.exists()
    assert "beam applies to fb" in capsys.readouterr().err


def test_synth_zero_noise_identity(tmp_path):
    names = tmp_path / "names.txt"
    names.write_text("alpha beta\n")
    out = tmp_path / "r.tsv"
    assert run(["synth", "--names", names, "--duplicates", 2,
                "--record-error-prob", 0, "--out", out]) == 0
    rows = out.read_text().splitlines()[1:]
    assert all(r.split("\t")[2] == "alpha beta" for r in rows)


def test_eval_transitive_closure_flag(tmp_path, capsys):
    _, pairs, _, scores = pipeline(tmp_path)
    capsys.readouterr()
    assert run(["eval", "--scores", scores, "--pairs", pairs,
                "--transitive-closure"]) == 0
    out = capsys.readouterr().out
    assert "f1=" in out
    config = config_file(tmp_path, "transitive_closure=yes\n")
    assert run(["eval", "--scores", scores, "--pairs", pairs, "--config", config]) == 0
    assert capsys.readouterr().out == out


def test_score_viterbi_inference(tmp_path):
    _, pairs, model, _ = pipeline(tmp_path)
    out = tmp_path / "viterbi_scores.tsv"
    assert run(["score", "--model", model, "--pairs", pairs,
                "--inference", "viterbi", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pair_id\tp_match\tprediction"
    assert len(lines) > 1


def test_score_beam_marks_approximate(tmp_path):
    _, pairs, model, _ = pipeline(tmp_path)
    out = tmp_path / "beam_scores.tsv"
    assert run(["score", "--model", model, "--pairs", pairs,
                "--beam", 50, "--out", out]) == 0
    assert "# beam_width=50 approximate=true" in out.read_text()


def test_score_narrow_beam_flags_failed_pairs(tmp_path):
    _, pairs, model, _ = pipeline(tmp_path)
    out = tmp_path / "narrow_scores.tsv"
    code = run(["score", "--model", model, "--pairs", pairs, "--beam", 1, "--out", out])
    text = out.read_text()
    if code == 3:
        assert "\tNA\tNA" in text
    else:
        assert code == 0


@pytest.mark.parametrize("width", [0, -2])
def test_score_rejects_invalid_beam(tmp_path, capsys, width):
    model_path, pairs_path, out = tmp_path / "m.json", tmp_path / "p.tsv", tmp_path / "s.tsv"
    save_model(build_model(["insert", "delete", "substitute"]), model_path)
    save_pairs([LabeledPair("a", "ab", "ba", 1), LabeledPair("b", "x", "y", 0)], pairs_path)
    assert run(["score", "--model", model_path, "--pairs", pairs_path, "--beam", width, "--out", out]) == 2
    assert not out.exists()
    assert "beam width must be >= 1 when finite" in capsys.readouterr().err


def test_score_checks_inference_and_beam_without_pairs(tmp_path, capsys):
    model_path, empty, out = tmp_path / "m.json", tmp_path / "empty.tsv", tmp_path / "s.tsv"
    save_model(build_model(["insert", "delete", "substitute"]), model_path)
    save_pairs([], empty)
    assert run(["score", "--model", model_path, "--pairs", empty, "--inference", "viterbi",
                "--beam", 3, "--out", out]) == 2
    assert not out.exists()
    assert "beam applies to fb" in capsys.readouterr().err
    with pytest.raises(ValueError, match="beam applies to fb"):
        score_pairs(build_model(["insert", "delete", "substitute"]), [], inference="viterbi", beam=3)


def test_score_pairs_rejects_invalid_beam():
    model = build_model(["insert", "delete", "substitute"])
    with pytest.raises(ValueError, match="beam width"):
        score_pairs(model, [LabeledPair("a", "ab", "ba", 1)], beam=0)


def test_score_marks_failed_pairs_na_in_one_batch(tmp_path, monkeypatch, capsys):
    base = build_model(["substitute"])
    model = base.with_params(np.random.default_rng(4).uniform(-1, 1, base.n_features))
    model_path = tmp_path / "sub.json"
    save_model(model, model_path)
    pairs = [
        LabeledPair("g1", "ab", "cd", 1),
        LabeledPair("nopath", "ab", "b", 0),
        LabeledPair("g2", "abc", "abd", 0),
        LabeledPair("empty", "", "", 1),
        LabeledPair("g3", "x", "x", 1),
    ]
    pairs_path = tmp_path / "mixed.tsv"
    save_pairs(pairs, pairs_path)
    want = ["pair_id\tp_match\tprediction"]
    for p in pairs:
        if p.pair_id in ("nopath", "empty"):
            want.append(f"{p.pair_id}\tNA\tNA")
        else:
            prob = score_pairs(model, [p])[0][1]
            want.append(f"{p.pair_id}\t{prob:.6f}\t{int(prob > 0.5)}")
    builds = []
    build = Batch.__init__

    def counting_build(self, *args, **kwargs):
        builds.append(len(args[1]))
        build(self, *args, **kwargs)

    monkeypatch.setattr(Batch, "__init__", counting_build)
    out = tmp_path / "s.tsv"
    assert run(["score", "--model", model_path, "--pairs", pairs_path, "--out", out]) == 3
    assert out.read_text() == "\n".join(want) + "\n"
    assert builds == [4]
    assert "2 pair(s) failed inference" in capsys.readouterr().err
