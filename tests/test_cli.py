import json

import numpy as np
import pytest

from drsort import bandit, cli, valuenet, warehouse
from drsort.seeding import stream


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


def write_policy(path, env=warehouse.EnvConfig()):
    params = valuenet.init_mlp(valuenet.default_q_dims(env.action_max),
                               stream(1, "test/cli-q"), dtype=valuenet.NET_DTYPE)
    valuenet.save_checkpoint(path, params, kind="vdn")
    return path


def write_predictor(path):
    params = valuenet.init_mlp(bandit.default_cb_dims(warehouse.EnvConfig().n_destinations, 9),
                               stream(1, "test/cli-cb"), dtype=valuenet.NET_DTYPE)
    valuenet.save_checkpoint(path, params, kind="cb")
    return path


CHECKPOINTS = {
    "policy": write_policy,
    "predictor": write_predictor,
    "main-policy": lambda path: write_policy(path, warehouse.main_formulation_config()),
}


def test_verify_passes(capsys):
    code = cli.main(["verify"])
    assert code == cli.EXIT_OK
    assert "all 7 property suites passed" in capsys.readouterr().out


def test_a_failing_property_suite_exits_3(capsys, monkeypatch):
    def one_fails(seed):
        return [cli.verify.CheckResult("good", True, "ok"),
                cli.verify.CheckResult("bad", False, "planted")]

    monkeypatch.setattr(cli.verify, "run_all", one_fails)
    assert cli.main(["verify"]) == cli.EXIT_RUNTIME
    out = capsys.readouterr().out
    assert "[FAIL] bad: planted" in out
    assert "1 of 2 property suites failed" in out


def test_usage_errors_exit_1(capsys):
    assert run(capsys)[0] == cli.EXIT_USAGE
    assert run(capsys, "train", "--mode", "fixed")[0] == cli.EXIT_USAGE  # no --seed
    assert run(capsys, "train", "--mode", "minimax", "--seed", 1)[0] == cli.EXIT_USAGE
    assert run(capsys, "report", "--runs", "runs")[0] == cli.EXIT_USAGE  # no such subcommand


def test_fixed_training_without_a_group_exits_2(capsys, tmp_path):
    code, err = run(capsys, "train", "--mode", "fixed", "--seed", 1, "--out", tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "--group" in err
    code, err = run(capsys, "train", "--mode", "fixed", "--group", 10, "--seed", 1,
                    "--out", tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "[1, 9]" in err
    assert list(tmp_path.iterdir()) == []


def test_a_group_outside_fixed_mode_exits_2(capsys, tmp_path):
    code, err = run(capsys, "train", "--mode", "random", "--group", 99, "--episodes", 1,
                    "--seed", 1, "--out", tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "--group" in err and "random mode" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["train", "--mode", "random"], ["cb-train"]])
def test_negative_episodes_exit_2(capsys, tmp_path, command):
    code, err = run(capsys, *command, "--episodes", -1, "--seed", 1, "--out", tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "--episodes: must be >= 0" in err
    assert list(tmp_path.iterdir()) == []


def test_eval_with_zero_trials_exits_2(capsys, tmp_path):
    checkpoint = write_policy(tmp_path / "policy.json")
    code, err = run(capsys, "eval", "--checkpoint", checkpoint, "--trials", 0, "--seed", 1,
                    "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert "--trials: must be >= 1" in err
    assert not (tmp_path / "out").exists()


def test_mixed_cb_training_without_a_policy_checkpoint_exits_2(capsys, tmp_path):
    code, err = run(capsys, "cb-train", "--seed", 1, "--episodes", 1, "--out", tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "--policy-checkpoint" in err and "'mixed'" in err
    assert list(tmp_path.iterdir()) == []


def test_a_policy_checkpoint_under_random_exploration_exits_2(capsys, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "master_seed": 1, "evaluation": {"seed": 1}, "runs": [],
        "cb": {"explore": "random", "episodes": 1},
    }), encoding="utf-8")
    checkpoint = write_policy(tmp_path / "policy.json")
    code, err = run(capsys, "cb-train", "--seed", 1, "--config", config_path,
                    "--policy-checkpoint", checkpoint, "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert "--policy-checkpoint" in err and "'random'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, checkpoint, message",
    [
        (["train", "--mode", "cb", "--episodes", 1, "--trace", "--cb-checkpoint"], "policy",
         "expected a 'cb' checkpoint, got 'vdn'"),
        (["cb-train", "--episodes", 1, "--policy-checkpoint"], "predictor",
         "expected a 'vdn' checkpoint, got 'cb'"),
        (["eval", "--checkpoint"], "predictor", "expected a 'vdn' checkpoint, got 'cb'"),
        # a main-formulation policy (action_max 10) under the appendix-B preset (action_max 1)
        (["eval", "--checkpoint"], "main-policy",
         f"maps {warehouse.OBS_DIM + 11} inputs to 1 outputs, "
         f"where this config needs {warehouse.OBS_DIM + 2} to 1"),
    ],
    ids=["train-cb-on-a-policy", "cb-train-on-a-predictor", "eval-of-a-predictor",
         "eval-of-a-main-formulation-policy"],
)
def test_a_checkpoint_of_the_wrong_kind_or_widths_exits_2(
    capsys, tmp_path, command, checkpoint, message
):
    path = CHECKPOINTS[checkpoint](tmp_path / "checkpoint.json")
    code, err = run(capsys, *command, path, "--seed", 1, "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert f"config error: {path}: " in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("layer_dims"), "$.layer_dims: missing required field"),
        (lambda doc: doc["weights"].pop(), "weights holds 2 layers, where layer_dims"),
        (lambda doc: doc.update(dtype="int8"), "dtype 'int8' is not 'float32' or 'float64'"),
        (lambda doc: doc.update(layer_dims=[7.9, 64, 64, 1.5]),
         "$.layer_dims: expected int, got float"),
        (lambda doc: doc["layer_dims"].__setitem__(1, 0), "layer_dims [7, 0, 64, 1] holds"),
        (lambda doc: doc["weights"][0].__setitem__(3, "1.5"), "$.weights: expected float, got str"),
        (lambda doc: doc["weights"][2].__setitem__(0, True), "$.weights: expected float, got bool"),
        (lambda doc: doc["weights"][1].__setitem__(5, float("nan")),
         "$.weights: must be finite, got nan"),
        (lambda doc: doc["biases"][0].__setitem__(0, float("inf")),
         "$.biases: must be finite, got inf"),
        (lambda doc: doc.update(meta=[1]), "$.meta: expected dict, got list"),
    ],
    ids=["missing-key", "short-weight-list", "int8-dtype", "fractional-widths", "zero-width",
         "string-weight", "bool-weight", "nan-weight", "infinite-bias", "meta-list"],
)
def test_a_broken_checkpoint_exits_2_naming_the_file_and_field(capsys, tmp_path, edit, message):
    path = write_policy(tmp_path / "policy.json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = run(capsys, "eval", "--checkpoint", path, "--seed", 1, "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert f"config error: {path}: " in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"format_version": 1,', "$: invalid JSON: "),
        ("[1]", "$: expected dict, got list"),
        ('{"format_version": 1, "format_version": 1}',
         "$: key 'format_version' appears twice in one object"),
    ],
    ids=["truncated-json", "top-level-list", "repeated-key"],
)
def test_a_checkpoint_that_is_not_a_json_object_exits_2_naming_the_file(
    capsys, tmp_path, text, message
):
    path = tmp_path / "policy.json"
    path.write_text(text, encoding="utf-8")
    code, err = run(capsys, "eval", "--checkpoint", path, "--seed", 1, "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert f"config error: {path}: {message}" in err
    assert not (tmp_path / "out").exists()


def test_cb_training_without_a_predictor_checkpoint_exits_2(capsys, tmp_path):
    code, err = run(capsys, "train", "--mode", "cb", "--episodes", 1, "--seed", 1,
                    "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert "--cb-checkpoint: cb mode requires a trained worst-case predictor" in err
    assert not (tmp_path / "out").exists()


def test_a_predictor_checkpoint_outside_cb_mode_exits_2(capsys, tmp_path):
    code, err = run(capsys, "train", "--mode", "random", "--cb-checkpoint",
                    tmp_path / "nonexistent.json", "--episodes", 1, "--seed", 1,
                    "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert "--cb-checkpoint: random mode reads no predictor" in err
    assert not (tmp_path / "out").exists()


def test_train_traces_of_two_modes_with_one_seed_keep_apart(capsys, tmp_path):
    for mode in ("random", "exhaustive"):
        assert run(capsys, "train", "--mode", mode, "--episodes", 1, "--seed", 1,
                   "--out", tmp_path, "--trace")[0] == cli.EXIT_OK
    traces = sorted(p.name for p in tmp_path.glob("trajectory_train-*.jsonl"))
    assert traces == ["trajectory_train-exhaustive-s1.jsonl", "trajectory_train-random-s1.jsonl"]
    for name in traces:
        assert len((tmp_path / name).read_text(encoding="utf-8").splitlines()) == 10


@pytest.mark.parametrize(
    "version, message",
    [(99, "$: format_version 99 is not the supported version 1"),
     (None, "$.format_version: missing required field")],
    ids=["version-99", "no-version"],
)
@pytest.mark.parametrize(
    "command, checkpoint",
    [
        (["train", "--mode", "cb", "--episodes", 1, "--cb-checkpoint"], "predictor"),
        (["cb-train", "--episodes", 1, "--policy-checkpoint"], "policy"),
        (["eval", "--checkpoint"], "policy"),
    ],
    ids=["train-cb", "cb-train", "eval"],
)
def test_a_checkpoint_of_another_or_no_format_version_exits_2_naming_the_file(
    capsys, tmp_path, command, checkpoint, version, message
):
    path = CHECKPOINTS[checkpoint](tmp_path / "checkpoint.json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["format_version"] = version
    if version is None:
        del doc["format_version"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = run(capsys, *command, path, "--seed", 1, "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert f"config error: {path}: {message}" in err
    assert not (tmp_path / "out").exists()


def test_a_missing_file_during_a_run_exits_3(capsys, monkeypatch):
    def failing(seed):
        raise FileNotFoundError("scratch.bin")

    monkeypatch.setattr(cli.verify, "run_all", failing)
    assert run(capsys, "verify") == (
        cli.EXIT_RUNTIME, "runtime error: FileNotFoundError: scratch.bin\n"
    )


def test_a_run_shorter_than_one_batch_says_so_on_stderr(capsys, tmp_path):
    policy = write_policy(tmp_path / "policy.json")
    for argv, what in (
        (("train", "--mode", "random"), "policy"),
        (("cb-train", "--policy-checkpoint", policy), "predictor"),
    ):
        code = cli.main([str(a) for a in argv + ("--episodes", 1, "--seed", 1, "--out", tmp_path)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert out.startswith("trained ")
        assert err == f"warning: 10 steps < batch_size 64; the {what} is untrained\n"
    for episodes in (0, 7):
        assert run(capsys, "cb-train", "--episodes", episodes, "--seed", 1,
                   "--policy-checkpoint", policy, "--out", tmp_path) == (cli.EXIT_OK, "")


def test_an_experiment_names_each_run_shorter_than_one_batch_on_stderr(capsys, tmp_path):
    def experiment(runs):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "master_seed": 0, "evaluation": {"seed": 1, "trials": 1}, "cb": {"episodes": 3},
            "output_dir": str(tmp_path / "out"), "runs": runs,
        }), encoding="utf-8")
        code = cli.main(["experiment", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert out.startswith(f"experiment complete: {len(runs)} runs succeeded, 0 failed")
        return err

    runs = [
        {"name": "marl-center", "mode": "fixed", "group": 5, "episodes": 6, "seeds": [1]},
        {"name": "drmarl-cb", "mode": "cb", "episodes": 6, "seeds": [1]},
        {"name": "long", "mode": "random", "episodes": 7, "seeds": [1]},
        {"name": "empty", "mode": "random", "episodes": 0, "seeds": [1]},
    ]
    assert experiment(runs) == (
        "warning: 60 steps < batch_size 64; the policy of run 'marl-center' is untrained\n"
        "warning: 60 steps < batch_size 64; the policy of run 'drmarl-cb' is untrained\n"
        "warning: 30 steps < batch_size 64; the predictor is untrained\n"
    )
    # no cb run trains no predictor, so none is named
    assert experiment(runs[2:]) == ""


def test_an_experiment_warns_before_it_trains(capsys, tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("training started")

    monkeypatch.setattr(cli.experiment, "run_experiment", failing)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "master_seed": 0, "evaluation": {"seed": 1, "trials": 1}, "cb": {"episodes": 3},
        "output_dir": str(tmp_path / "out"),
        "runs": [{"name": "drmarl-cb", "mode": "cb", "episodes": 6, "seeds": [1]}],
    }), encoding="utf-8")
    assert run(capsys, "experiment", "--config", cfg) == (cli.EXIT_RUNTIME, (
        "warning: 60 steps < batch_size 64; the policy of run 'drmarl-cb' is untrained\n"
        "warning: 30 steps < batch_size 64; the predictor is untrained\n"
        "runtime error: RuntimeError: training started\n"
    ))


def test_train_cb_train_and_eval_chain(capsys, tmp_path):
    assert run(capsys, "train", "--mode", "fixed", "--group", 5, "--episodes", 1,
               "--seed", 1, "--out", tmp_path)[0] == cli.EXIT_OK
    policy = tmp_path / "policy-fixed-g5-s1.json"
    assert run(capsys, "cb-train", "--episodes", 1, "--seed", 1,
               "--policy-checkpoint", policy, "--out", tmp_path)[0] == cli.EXIT_OK
    assert run(capsys, "train", "--mode", "cb", "--episodes", 1, "--seed", 1,
               "--cb-checkpoint", tmp_path / "cb-s1.json", "--out", tmp_path)[0] == cli.EXIT_OK
    assert run(capsys, "eval", "--checkpoint", tmp_path / "policy-cb-s1.json",
               "--trials", 1, "--seed", 2, "--out", tmp_path)[0] == cli.EXIT_OK
    doc = json.loads((tmp_path / "eval-policy-cb-s1.json").read_text(encoding="utf-8"))
    assert [g["group"] for g in doc["per_group"]] == list(range(1, 10))
    assert (tmp_path / "cb_s1.csv").read_text(encoding="utf-8").startswith("episode,loss\n")


def test_eval_trace_holds_the_evaluated_episodes(capsys, tmp_path):
    assert run(capsys, "train", "--mode", "random", "--episodes", 2, "--seed", 4,
               "--out", tmp_path)[0] == cli.EXIT_OK
    assert run(capsys, "eval", "--checkpoint", tmp_path / "policy-random-s4.json",
               "--trials", 2, "--seed", 4, "--out", tmp_path, "--trace")[0] == cli.EXIT_OK
    doc = json.loads((tmp_path / "eval-policy-random-s4.json").read_text(encoding="utf-8"))
    lines = (tmp_path / "trajectory_eval-policy-random-s4.jsonl").read_text(encoding="utf-8")
    records = [json.loads(line) for line in lines.splitlines()]
    steps = len(records) // len(doc["per_group"])
    assert steps == 10
    for g, group in enumerate(doc["per_group"]):
        sorted_total = sum(sum(r["sorted"]) for r in records[g * steps : (g + 1) * steps])
        assert sorted_total == group["episode_throughputs"][0]


def test_an_experiment_config_with_a_float_for_an_int_exits_2_before_writing(capsys, tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "master_seed": 0, "evaluation": {"seed": 1}, "train": {"target_sync_every": 1.5},
        "output_dir": str(out),
        "runs": [{"name": "r", "mode": "random", "episodes": 1, "seeds": [1]}],
    }), encoding="utf-8")
    code, err = run(capsys, "experiment", "--config", cfg)
    assert code == cli.EXIT_CONFIG
    assert "$.train.target_sync_every" in err
    assert not out.exists()


def test_an_experiment_run_name_with_a_slash_exits_2_before_training(capsys, tmp_path, monkeypatch):
    def training(*args, **kwargs):
        raise RuntimeError("training started")

    monkeypatch.setattr(cli.experiment, "run_experiment", training)
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "master_seed": 0, "evaluation": {"seed": 1}, "output_dir": str(out),
        "runs": [{"name": "a/b", "mode": "random", "episodes": 1, "seeds": [1]}],
    }), encoding="utf-8")
    code, err = run(capsys, "experiment", "--config", cfg)
    assert code == cli.EXIT_CONFIG
    assert "$.runs[0].name: names output files, so it may hold no '/' or NUL" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, make, message",
    [
        (["experiment", "--config"], lambda path: path.mkdir(), "cannot be read: Is a directory"),
        (["eval", "--seed", 1, "--checkpoint"], lambda path: path.mkdir(),
         "cannot be read: Is a directory"),
        (["experiment", "--config"], lambda path: path.write_bytes(b'{"runs": "\xff"}'),
         "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        (["train", "--mode", "random", "--seed", 1, "--config"],
         lambda path: path.write_bytes(b"\xfe\xff"), "is not UTF-8 text"),
        (["eval", "--seed", 1, "--checkpoint"], lambda path: path.write_bytes(b'{"kind": "\xff"}'),
         "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["config-directory", "checkpoint-directory", "latin-1-config", "utf-16-config",
         "latin-1-checkpoint"],
)
def test_an_unreadable_input_file_exits_2_naming_it(capsys, tmp_path, command, make, message):
    path = tmp_path / "input.json"
    make(path)
    code, err = run(capsys, *command, path, "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert f"config error: {path}: {message}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["experiment"],
        ["train", "--mode", "random", "--seed", 1],
        ["cb-train", "--seed", 1],
        ["eval", "--checkpoint", "policy.json", "--seed", 1],
    ],
    ids=["experiment", "train", "cb-train", "eval"],
)
def test_a_config_with_a_repeated_key_exits_2_before_writing(capsys, tmp_path, command):
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(
        '{"master_seed": 0, "evaluation": {"seed": 1}, "output_dir": ' + json.dumps(str(out))
        + ', "runs": [{"name": "r", "mode": "random", "episodes": 1, "episodes": 5, '
        '"seeds": [1]}]}',
        encoding="utf-8",
    )
    code, err = run(capsys, *command, "--config", cfg, "--out", out)
    assert code == cli.EXIT_CONFIG
    assert "config error: $: key 'episodes' appears twice in one object" in err
    assert not out.exists()


def test_eval_prints_the_mean_of_the_written_per_group_rates(capsys, tmp_path):
    assert run(capsys, "train", "--mode", "random", "--episodes", 2, "--seed", 4,
               "--out", tmp_path)[0] == cli.EXIT_OK
    policy = tmp_path / "policy-random-s4.json"
    assert cli.main(["eval", "--checkpoint", str(policy), "--trials", "2", "--seed", "3",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    written = tmp_path / "eval-policy-random-s4.json"
    doc = json.loads(written.read_text(encoding="utf-8"))
    rates = [group["recirc_rate_mean"] for group in doc["per_group"]]
    assert len(set(rates)) > 1
    assert capsys.readouterr().out == (
        f"evaluated {policy} on 9 groups: mean recirc rate {np.mean(rates):.4%} -> {written}\n"
    )
