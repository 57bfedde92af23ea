import csv
import dataclasses
import io
import json
import typing

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


def read_trace(path):
    """A trace CSV's header and its rows as dicts, each value of its TraceRow field's type."""
    types = typing.get_type_hints(training.TraceRow)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return tuple(header), [{key: types[key](value) for key, value in zip(header, row, strict=True)}
                           for row in rows]


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


def test_every_checkpoint_a_run_writes_reads_back_bit_exact(tmp_path, monkeypatch):
    saved = {}
    save = valuenet.save_checkpoint

    def recording_save(path, params, **kwargs):
        saved[path.name] = (kwargs["kind"], valuenet.params_digest(params))
        save(path, params, **kwargs)

    monkeypatch.setattr(valuenet, "save_checkpoint", recording_save)
    cfg = tiny_config([CENTER, CB])
    experiment.run_experiment(cfg, tmp_path)
    load = {"vdn": lambda path: experiment.load_policy(path, cfg.env),
            "cb": lambda path: experiment.load_predictor(path, cfg.env, cfg.group_set)}
    written = sorted((tmp_path / "checkpoints").iterdir())
    assert [path.name for path in written] == sorted(saved)
    assert sorted(kind for kind, _ in saved.values()) == ["cb"] * 2 + ["vdn"] * 4
    for path in written:
        kind, digest = saved[path.name]
        assert valuenet.params_digest(load[kind](path)) == digest


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
    ours = config.load_checkpoint(tmp_path / "cb-s1.json")
    runners = config.load_checkpoint(out / "checkpoints" / "cb-s1.json")
    assert valuenet.params_digest(ours["params"]) == valuenet.params_digest(runners["params"])
    assert ours["config_hash"] == runners["config_hash"]
    assert ours["meta"].keys() == runners["meta"].keys() == {"seed", "wall_clock_s"}
    assert (tmp_path / "cb_s1.csv").read_bytes() == (out / "cb_s1.csv").read_bytes()


def test_trace_csv_columns_are_the_trace_row_fields(canonical):
    out, report = canonical
    names = tuple(f.name for f in dataclasses.fields(training.TraceRow))
    assert experiment.TRACE_COLUMNS == names
    header, records = read_trace(out / report["runs"][0]["trace"])
    assert header == names
    assert [tuple(record) for record in records] == [names, names]
    assert [type(records[0][name]) for name in names] == [int, str] + [float] * 6


def read_convergence(out):
    with open(out / "convergence.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == experiment.CONVERGENCE_COLUMNS
    return rows


def test_convergence_csv_cumulates_each_trace_in_report_order(canonical):
    out, report = canonical
    # the oracle reads the traces back from disk, in report.json's order
    expected = []
    for doc in report["runs"]:
        cumulative = 0.0
        for record in read_trace(out / doc["trace"])[1]:
            cumulative += record["wall_clock_s"]
            expected.append((doc["name"], doc["seed"], record["episode"],
                             record["mean_return"], record["recirc_rate"], cumulative))
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([experiment.CONVERGENCE_COLUMNS, *expected])
    assert (out / "convergence.csv").read_text(encoding="utf-8") == text.getvalue()

    rows = read_convergence(out)
    assert len(rows) == 5 * 2  # 5 jobs x 2 episodes
    for doc in report["runs"]:
        totals = [float(row[5]) for row in rows if row[:2] == [doc["name"], str(doc["seed"])]]
        assert len(totals) == 2
        assert totals == sorted(totals)


def test_results_do_not_depend_on_run_order(canonical, tmp_path):
    # the cb run is listed before the fixed run its exploration anchors on
    out, _ = canonical
    experiment.run_experiment(tiny_config([RANDOM, CB, CENTER]), tmp_path)
    assert metrics_by_policy(tmp_path) == metrics_by_policy(out)


def test_cb_run_without_an_anchor_is_recorded_as_an_error(tmp_path):
    runs = [dict(CENTER, seeds=[1]), dict(CB, seeds=[1, 3])]
    cfg = tiny_config(runs)
    report = experiment.run_experiment(cfg, tmp_path)
    assert [(e["name"], e["seed"]) for e in report["errors"]] == [("drmarl-cb", 3)]
    assert "mixed exploration requires q_params" in report["errors"][0]["error"]
    assert [(d["name"], d["seed"]) for d in report["runs"]] == [
        ("marl-center", 1), ("drmarl-cb", 1),
    ]
    # the failed job leaves no rows
    assert [row[:3] for row in read_convergence(tmp_path)] == [
        ["marl-center", "1", "1"], ["marl-center", "1", "2"],
        ["drmarl-cb", "1", "1"], ["drmarl-cb", "1", "2"],
    ]
    # a run none of whose jobs succeeded has no metrics row
    assert [row[0] for row in experiment.metric_rows(cfg, report["runs"][:1])] == ["marl-center"]


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
