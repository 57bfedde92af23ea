import csv
import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from drsort import bandit, cli, config, experiment, training, valuenet

CENTER = {"name": "marl-center", "mode": "fixed", "group": config.CENTER_GROUP,
          "episodes": 2, "seeds": [1, 2]}
CB = {"name": "drmarl-cb", "mode": "cb", "episodes": 2, "seeds": [1, 2]}
RANDOM = {"name": "drmarl-random", "mode": "random", "episodes": 2, "seeds": [1]}


def tiny_config(runs):
    """Appendix-B preset with few episodes, small batches and one evaluation trial."""
    doc = {
        "master_seed": 0,
        "evaluation": {"trials": 1, "seed": 7},
        "train": {"batch_size": 8},
        "cb": {"episodes": 3, "batch_size": 8},
        "runs": runs,
    }
    return config.parse_config(json.dumps(doc))


def metrics_by_policy(out):
    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == experiment.METRIC_COLUMNS
    return {row[0]: row for row in rows}


@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    out = tmp_path_factory.mktemp("canonical")
    report = experiment.run_experiment(tiny_config([CENTER, CB, RANDOM]), out)
    return out, report


def test_matrix_runs_clean_and_leaves_the_predictor_frozen(canonical):
    out, report = canonical
    assert report["errors"] == []
    assert sorted((d["name"], d["seed"]) for d in report["runs"]) == [
        ("drmarl-cb", 1), ("drmarl-cb", 2), ("drmarl-random", 1),
        ("marl-center", 1), ("marl-center", 2),
    ]
    cfg = tiny_config([CENTER, CB, RANDOM])
    # a step follows every push once the buffer holds a batch: 2 x 10 - 8 + 1
    steps = CENTER["episodes"] * cfg.env.episode_steps - cfg.train.batch_size + 1
    assert {(d["gradient_steps"], d["target_syncs"]) for d in report["runs"]} == {
        (steps, steps // cfg.train.target_sync_every)
    }
    env_steps = CENTER["episodes"] * cfg.env.episode_steps
    for doc in report["runs"]:
        assert len(doc["group_histogram"]) == cfg.group_set.size
        assert sum(doc["group_histogram"]) == env_steps
        assert 0.0 <= doc["bootstrap_hit_rate"] <= 1.0
        if doc["mode"] == "fixed":
            expected = [0] * cfg.group_set.size
            expected[doc["group"] - 1] = env_steps
            assert doc["group_histogram"] == expected
    cb_docs = [d for d in report["runs"] if d["mode"] == "cb"]
    assert all(d["cb_digest_before"] and d["cb_digest_before"] == d["cb_digest_after"]
               for d in cb_docs)
    assert list(metrics_by_policy(out)) == ["marl-center", "drmarl-cb", "drmarl-random"]


def test_rerun_writes_byte_identical_metrics(canonical, tmp_path):
    out, _ = canonical
    experiment.run_experiment(tiny_config([CENTER, CB, RANDOM]), tmp_path)
    assert (tmp_path / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()


def test_report_subcommand_rebuilds_metrics_byte_for_byte(canonical, tmp_path):
    out, _ = canonical
    assert cli.main(["report", "--runs", str(out), "--out", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()
    with open(tmp_path / "convergence.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.reader(fh))) == 1 + 5 * 2  # header, 5 jobs x 2 episodes


def test_report_subcommand_on_a_missing_trace_exits_2_writing_nothing(canonical, tmp_path, capsys):
    out, report = canonical
    runs = tmp_path / "runs"
    shutil.copytree(out, runs)
    trace = report["runs"][-1]["trace"]
    (runs / trace).unlink()
    rebuilt = tmp_path / "rebuilt"
    assert cli.main(["report", "--runs", str(runs), "--out", str(rebuilt)]) == cli.EXIT_CONFIG
    assert Path(trace).name in capsys.readouterr().err
    assert not list(rebuilt.glob("*.csv"))


@pytest.mark.parametrize("text, message", [
    ("{not json", "not valid JSON: "),
    ("[]", "the top level is not a JSON object"),
    ('{"runs": []}', "missing field 'config'"),
    ('{"config": {}}', "missing field 'runs'"),
    ('{"config": {}, "runs": []}', "config $.master_seed: missing required field"),
    ('{"config": CONFIG, "runs": [{"seed": 1, "trace": "t.csv"}]}',
     "runs[0]: missing field 'name'"),
    ('{"config": CONFIG, "runs": [{"name": "a", "trace": "t.csv"}]}',
     "runs[0]: missing field 'seed'"),
    ('{"config": CONFIG, "runs": [{"name": "a", "seed": 1}]}', "runs[0]: missing field 'trace'"),
    ('{"config": CONFIG, "runs": [{"name": "a", "seed": 1, "trace": "../report.json"}]}',
     "runs[0].trace: '../report.json' is not a file name"),
    ('{"config": CONFIG, "runs": [{"name": "a", "seed": 1, "trace": ".."}]}',
     "runs[0].trace: '..' is not a file name"),
], ids=["not-json", "top-level-list", "no-config", "no-runs", "bad-config", "no-name",
        "no-seed", "no-trace", "trace-path", "trace-parent"])
def test_report_subcommand_on_a_broken_report_exits_2_writing_nothing(
    canonical, tmp_path, capsys, text, message
):
    out, report = canonical
    runs = tmp_path / "runs"
    shutil.copytree(out, runs)
    text = text.replace("CONFIG", json.dumps(report["config"]))
    (runs / "report.json").write_text(text, encoding="utf-8")
    rebuilt = tmp_path / "rebuilt"
    assert cli.main(["report", "--runs", str(runs), "--out", str(rebuilt)]) == cli.EXIT_CONFIG
    assert f"config error: {runs / 'report.json'}: {message}" in capsys.readouterr().err
    assert not list(rebuilt.glob("*.csv"))


def test_cli_cb_train_on_the_anchor_checkpoint_matches_the_runners_predictor(
    canonical, tmp_path
):
    out, report = canonical
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(report["config"]), encoding="utf-8")
    code = cli.main(["cb-train", "--config", str(cfg_path), "--seed", "1",
                     "--policy-checkpoint", str(out / "checkpoints" / "marl-center-s1.json"),
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    ours = valuenet.load_checkpoint(tmp_path / "cb-s1.json")
    runners = valuenet.load_checkpoint(out / "checkpoints" / "cb-s1.json")
    assert valuenet.params_digest(ours["params"]) == valuenet.params_digest(runners["params"])
    assert ours["config_hash"] == runners["config_hash"]
    assert ours["meta"].keys() == runners["meta"].keys() == {"seed", "wall_clock_s"}
    assert (tmp_path / "cb_s1.csv").read_bytes() == (out / "cb_s1.csv").read_bytes()


def test_trace_csv_columns_are_the_trace_row_fields(canonical):
    out, report = canonical
    names = tuple(f.name for f in dataclasses.fields(training.TraceRow))
    assert experiment.TRACE_COLUMNS == names
    records = experiment.read_trace_csv(out / report["runs"][0]["trace"])
    assert [tuple(record) for record in records] == [names, names]
    assert [type(records[0][name]) for name in names] == [int, str] + [float] * 6


def test_results_do_not_depend_on_run_order(canonical, tmp_path):
    # the cb run is listed before the fixed run its exploration anchors on
    out, _ = canonical
    experiment.run_experiment(tiny_config([RANDOM, CB, CENTER]), tmp_path)
    assert metrics_by_policy(tmp_path) == metrics_by_policy(out)


def test_cb_run_without_an_anchor_is_recorded_as_an_error(tmp_path):
    runs = [dict(CENTER, seeds=[1]), dict(CB, seeds=[1, 3])]
    report = experiment.run_experiment(tiny_config(runs), tmp_path)
    assert [(e["name"], e["seed"]) for e in report["errors"]] == [("drmarl-cb", 3)]
    assert "mixed exploration requires q_params" in report["errors"][0]["error"]
    assert [(d["name"], d["seed"]) for d in report["runs"]] == [
        ("marl-center", 1), ("drmarl-cb", 1),
    ]


def test_each_seeds_predictor_trains_once_on_its_first_fixed_run(monkeypatch, tmp_path):
    # two cb runs share seed 1, listed before the fixed runs that list it
    runs = [dict(CB, seeds=[1]), dict(CB, name="drmarl-cb-again", seeds=[1]),
            dict(CENTER, seeds=[1]), dict(CENTER, name="marl-group-1", group=1, seeds=[1])]
    events = []
    real_train, real_cb = training.train_drmarl, bandit.train_cb

    def recording_train(train_config, env_config, group_set, seed, *args, **kwargs):
        result = real_train(train_config, env_config, group_set, seed, *args, **kwargs)
        events.append(("train", train_config.worst_case_mode, train_config.fixed_group,
                       seed, result.params))
        return result

    def recording_cb(env_config, group_set, cb_config, seed, q_params=None):
        events.append(("cb", seed, q_params))
        return real_cb(env_config, group_set, cb_config, seed, q_params=q_params)

    monkeypatch.setattr(training, "train_drmarl", recording_train)
    monkeypatch.setattr(bandit, "train_cb", recording_cb)
    report = experiment.run_experiment(tiny_config(runs), tmp_path)
    assert report["errors"] == []
    assert [event[:4] for event in events] == [
        ("train", "fixed", config.CENTER_GROUP - 1, 1), ("train", "fixed", 0, 1),
        ("cb", 1, events[0][4]), ("train", "cb", None, 1), ("train", "cb", None, 1),
    ]
    assert events[2][2] is events[0][4]


def test_run_name_with_a_comma_survives_metrics_csv(tmp_path):
    name = "marl, center"
    report = experiment.run_experiment(
        tiny_config([dict(CENTER, name=name, episodes=1, seeds=[1])]), tmp_path
    )
    assert report["errors"] == []
    row = metrics_by_policy(tmp_path)[name]
    assert len(row) == len(experiment.METRIC_COLUMNS)
    assert 0.0 <= float(row[1]) <= 1.0


def count_eval_streams(monkeypatch):
    """A list that grows by one at each `stream(..., "eval", ...)` the trainer module makes."""
    made = []
    real = training.stream

    def counting(seed, name, *qualifiers):
        if name == "eval":
            made.append(qualifiers)
        return real(seed, name, *qualifiers)

    monkeypatch.setattr(training, "stream", counting)
    return made


def test_matrix_draws_the_evaluation_inductions_once(monkeypatch, tmp_path):
    runs = [dict(CENTER, episodes=1), dict(RANDOM, episodes=1)]
    cfg = config.parse_config(json.dumps({
        "master_seed": 0, "evaluation": {"trials": 2, "seed": 7}, "train": {"batch_size": 8},
        "runs": runs,
    }))
    made = count_eval_streams(monkeypatch)
    evaluated = []
    real_evaluate = training.evaluate_policy

    def recording(params, *args, **kwargs):
        evaluated.append(params)
        return real_evaluate(params, *args, **kwargs)

    # perfbench times evaluations through this module attribute
    monkeypatch.setattr(training, "evaluate_policy", recording)
    report = experiment.run_experiment(cfg, tmp_path)
    assert report["errors"] == []
    assert len(evaluated) == len(report["runs"]) == 3
    # one stream per (group, trial) for the whole matrix, not per policy
    assert sorted(made) == [(g, trial) for g in range(cfg.group_set.size) for trial in range(2)]

    for params, doc in zip(evaluated, report["runs"]):
        for sink in (None, [].append):
            plain = real_evaluate(params, cfg.env, cfg.group_set, 2, 7, trace_sink=sink)
            per_group = experiment.evaluation_to_doc(plain)["per_group"]
            assert per_group == doc["evaluation"]["per_group"]
