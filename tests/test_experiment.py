import csv
import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
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


def test_evaluation_doc_holds_numpys_mean_and_std_of_each_groups_episodes():
    cfg = tiny_config([RANDOM])
    params = training.train_drmarl(
        cfg.runs[0].train_config(cfg.train), cfg.env, cfg.group_set, 1
    ).params
    report = training.evaluate_policy(params, cfg.env, cfg.group_set, 20, 7)
    doc = experiment.evaluation_to_doc(report)
    assert doc["wall_clock_s"] == report.wall_clock_s
    assert [g["group"] for g in doc["per_group"]] == list(range(1, cfg.group_set.size + 1))
    for group, entry in zip(report.per_group, doc["per_group"], strict=True):
        rates = [ep.recirc_rate for ep in group.episodes]
        throughputs = [ep.throughput for ep in group.episodes]
        amounts = [ep.recirc_amount for ep in group.episodes]
        for key, expected in (
            ("recirc_rate_mean", np.mean(rates)),
            ("recirc_rate_std", np.std(rates)),
            ("throughput_mean", np.mean(throughputs)),
            ("recirc_amount_mean", np.mean(amounts)),
        ):
            assert type(entry[key]) is float
            assert entry[key].hex() == float(expected).hex(), (group.group, key)
        assert entry["episode_recirc_rates"] == rates
        assert entry["episode_throughputs"] == throughputs
        assert all(type(t) is int for t in entry["episode_throughputs"])
    # the policy sorts some packages, so the statistics are not all equal
    assert len({entry["recirc_rate_std"] for entry in doc["per_group"]}) > 1


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


def _set_wall_clock(rows):
    rows[1][experiment.TRACE_COLUMNS.index("wall_clock_s")] = "fast"


def _misspell_header(rows):
    rows[0][0] = "epsiode"


def _shorten_row(rows):
    del rows[2][-1]


@pytest.mark.parametrize("edit, message", [
    (_set_wall_clock, "line 2: could not convert string to float: 'fast'"),
    (_misspell_header, f"header is not {','.join(experiment.TRACE_COLUMNS)}"),
    (_shorten_row, "line 3 has 7 fields, not 8"),
], ids=["not-a-number", "wrong-header", "short-row"])
def test_report_subcommand_on_a_malformed_trace_exits_2_writing_nothing(
    canonical, tmp_path, capsys, edit, message
):
    out, report = canonical
    runs = tmp_path / "runs"
    shutil.copytree(out, runs)
    trace = runs / report["runs"][-1]["trace"]
    with open(trace, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    experiment.write_csv(trace, rows[0], rows[1:])
    rebuilt = tmp_path / "rebuilt"
    assert cli.main(["report", "--runs", str(runs), "--out", str(rebuilt)]) == cli.EXIT_CONFIG
    assert f"config error: {trace}: {message}" in capsys.readouterr().err
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
    ('{"config": CONFIG, "runs": [{"name": "a", "seed": 1, "trace": "t.csv"}]}',
     "runs[0].evaluation.per_group is empty or not a list"),
    ('{"config": CONFIG, "runs": [{"name": "a", "seed": 1, "trace": "t.csv", "evaluation": '
     '{"per_group": [1]}}]}', "runs[0].evaluation.per_group[0] is not an object"),
    ('{"config": CONFIG, "runs": [{"name": "a", "seed": 1, "trace": "t.csv", "evaluation": '
     '{"per_group": [{"throughput_mean": 1, "recirc_amount_mean": 1}]}}]}',
     "runs[0].evaluation.per_group[0].recirc_rate_mean is not a number"),
    ('{"config": CONFIG, "runs": [{"name": "a", "seed": 1, "trace": "t.csv", "evaluation": '
     '{"per_group": [{"recirc_rate_mean": true, "throughput_mean": 1, '
     '"recirc_amount_mean": 1}]}}]}',
     "runs[0].evaluation.per_group[0].recirc_rate_mean is not a number"),
    ('{"config": CONFIG, "runs": 5}', "runs is not a list"),
    ('{"config": CONFIG, "runs": ["name seed trace"]}', "runs[0] is not an object"),
    ('{"config": CONFIG, "runs": {"x": 1}}', "runs is not a list"),
    ('{"config": CONFIG, "runs": [{"name": "drmarl-randm", "seed": 1, "trace": "t.csv", '
     '"evaluation": ONE_GROUP}]}', "runs[0].name: 'drmarl-randm' is not a run of the config"),
    ('{"config": CONFIG, "runs": [{"name": "marl-center", "seed": "one", "trace": "t.csv", '
     '"evaluation": ONE_GROUP}]}', "runs[0].seed: 'one' is not a seed of run 'marl-center'"),
    ('{"config": CONFIG, "runs": [{"name": "marl-center", "seed": true, "trace": "t.csv", '
     '"evaluation": ONE_GROUP}]}', "runs[0].seed: True is not a seed of run 'marl-center'"),
    ('{"config": CONFIG, "runs": [FIRST_RUN, FIRST_RUN]}',
     "runs[1]: ('marl-center', 1) repeats an earlier entry"),
    ('{"config": CONFIG, "runs": [{"name": "marl-center", "seed": 1, "trace": "t.csv", '
     '"evaluation": ONE_GROUP}]}',
     "runs[0].evaluation.per_group has length 1, not the config's 9 groups"),
    ('{"config": CONFIG, "runs": [{"name": "marl-center", "seed": 1, "trace": "t.csv", '
     '"evaluation": {"per_group": [{"recirc_rate_mean": NaN, "throughput_mean": 1, '
     '"recirc_amount_mean": 1}]}}]}',
     "runs[0].evaluation.per_group[0].recirc_rate_mean is not finite"),
    ('{"config": CONFIG, "runs": [{"name": "marl-center", "seed": 1, "trace": "t.csv", '
     '"evaluation": {"per_group": [{"recirc_rate_mean": 0.5, "throughput_mean": Infinity, '
     '"recirc_amount_mean": 1}]}}]}',
     "runs[0].evaluation.per_group[0].throughput_mean is not finite"),
    ('{"config": CONFIG, "runs": [{"name": "marl-center", "seed": 1, "trace": "t.csv", '
     '"evaluation": {"per_group": [{"recirc_rate_mean": 0.5, "throughput_mean": 1, '
     f'"recirc_amount_mean": {10**400}}}]}}}}]}}',
     "runs[0].evaluation.per_group[0].recirc_amount_mean is not finite"),
    ('{"config": CONFIG, "runs": [{"name": "marl-center", "seed": 1, '
     '"trace": "trace_marl-center-s1.csv", "evaluation": {"per_group": ' + json.dumps(
         [{"recirc_rate_mean": 0.5, "throughput_mean": 1e308 if g < 2 else 1,
           "recirc_amount_mean": 1} for g in range(9)]) + '}}]}',
     "metrics.csv: marl-center: the pooled throughput_mean is not finite"),
    ('{"config": CONFIG, "runs": [], "runs": []}', "key 'runs' appears twice in one object"),
], ids=["not-json", "top-level-list", "no-config", "no-runs", "bad-config", "no-name",
        "no-seed", "no-trace", "trace-path", "trace-parent", "no-evaluation",
        "group-not-object", "no-recirc-rate", "bool-recirc-rate", "runs-int",
        "runs-of-strings", "runs-object", "unknown-name", "string-seed", "bool-seed",
        "repeated-run", "short-per-group", "nan-recirc-rate", "infinite-throughput",
        "int-past-float-range", "pooled-overflow", "repeated-key"])
def test_report_subcommand_on_a_broken_report_exits_2_writing_nothing(
    canonical, tmp_path, capsys, text, message
):
    out, report = canonical
    runs = tmp_path / "runs"
    shutil.copytree(out, runs)
    one_group = {"recirc_rate_mean": 0.5, "throughput_mean": 1, "recirc_amount_mean": 1}
    text = (text.replace("FIRST_RUN", json.dumps(report["runs"][0]))
            .replace("ONE_GROUP", json.dumps({"per_group": [one_group]}))
            .replace("CONFIG", json.dumps(report["config"])))
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
