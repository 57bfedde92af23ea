import csv
import dataclasses
import json

import pytest

from drsort import cli, config, experiment, training, valuenet

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


def test_run_name_with_a_comma_survives_metrics_csv(tmp_path):
    name = "marl, center"
    report = experiment.run_experiment(
        tiny_config([dict(CENTER, name=name, episodes=1, seeds=[1])]), tmp_path
    )
    assert report["errors"] == []
    row = metrics_by_policy(tmp_path)[name]
    assert len(row) == len(experiment.METRIC_COLUMNS)
    assert 0.0 <= float(row[1]) <= 1.0
