import dataclasses
import json

import pytest

from drsort import config


def minimal_doc(**overrides):
    doc = {
        "master_seed": 1,
        "evaluation": {"trials": 2, "seed": 3},
        "runs": [
            {"name": "marl-center", "mode": "fixed", "group": config.CENTER_GROUP,
             "episodes": 2, "seeds": [1, 2]},
            {"name": "drmarl-cb", "mode": "cb", "episodes": 2, "seeds": [1]},
        ],
    }
    doc.update(overrides)
    return doc


def parse(doc):
    return config.parse_config(json.dumps(doc))


def test_document_round_trip():
    original = parse(
        minimal_doc(train={"n_probe": 3, "hidden": [16, 8]}, cb={"episodes": 5},
                    env={"n_chutes": 8}, output_dir="elsewhere")
    )
    again = parse(config.config_to_doc(original))
    assert again == original
    assert again.train.hidden == (16, 8) and again.env.n_chutes == 8


def test_preset_defaults_fill_omitted_sections():
    cfg = parse(minimal_doc())
    env, group_set, train, cb = config.appendix_b_defaults()
    assert (cfg.env, cfg.group_set, cfg.train, cfg.cb) == (env, group_set, train, cb)
    assert cfg.output_dir == "out" and cfg.eval_trials == 2 and cfg.eval_seed == 3


def test_env_overrides_that_match_the_groups_parse():
    groups = {"groups": [{"probs": [0.5, 0.5], "volume": 60}]}
    runs = [{"name": "r", "mode": "random", "episodes": 1, "seeds": [1]}]
    cfg = parse(minimal_doc(env={"n_destinations": 2, "step_volume": 60}, groups=groups,
                            runs=runs))
    assert (cfg.env.n_destinations, cfg.env.step_volume) == (2, 60)
    assert (cfg.group_set.n_destinations, cfg.group_set.volume) == (2, 60)


def with_run(run, index=1):
    doc = minimal_doc()
    doc["runs"][index] = run
    return doc


LEARNER_ERRORS = [
    ({"learning_rate": 0.0}, "learning_rate must be > 0"),
    ({"learning_rate": -1}, "learning_rate must be > 0"),
    ({"epsilon_start": 0.5, "epsilon_end": 0.6}, "nonincreasing"),
    ({"epsilon_end": 2}, "within [0, 1]"),
    ({"epsilon_end": -0.1}, "within [0, 1]"),
    ({"epsilon_decay_fraction": -1}, "epsilon_decay_fraction must lie in [0, 1]"),
    ({"buffer_capacity": 0}, "buffer_capacity must be >= 1"),
    ({"hidden": [0, 4]}, "hidden widths must be integers >= 1"),
]


@pytest.mark.parametrize(
    "doc, path, message",
    [
        (with_run({"name": "x", "mode": "minimax", "episodes": 1, "seeds": [1]}),
         "$.runs[1].mode", "unknown mode"),
        (with_run({"name": "x", "mode": "fixed", "episodes": 1, "seeds": [1]}),
         "$.runs[1].group", "requires a group"),
        (with_run({"name": "x", "mode": "fixed", "group": 10, "episodes": 1, "seeds": [1]}),
         "$.runs[1].group", "[1, 9]"),
        (with_run({"name": "x", "mode": "fixed", "group": 0, "episodes": 1, "seeds": [1]}, 0),
         "$.runs[0].group", "[1, 9]"),
        (minimal_doc(train={"learning_rat": 0.1}), "$.train.learning_rat", "unknown field"),
        (minimal_doc(train={"n_probe": 0}), "$.train", "n_probe"),
        (minimal_doc(outptu_dir="x"), "$.outptu_dir", "unknown field"),
        (minimal_doc(evaluation={"trials": 2, "seed": 3, "trails": 5}),
         "$.evaluation.trails", "unknown field"),
        (with_run({"name": "x", "mode": "random", "episodes": 1, "seed": [1]}),
         "$.runs[1].seed", "unknown field"),
        (minimal_doc(env={"n_destinations": 12}), "$.env", "groups' N 20"),
        (minimal_doc(env={"step_volume": 600}), "$.env", "volume 1200"),
        (minimal_doc(env={"recirc_carryover": False}), "$.env.recirc_carryover", "unknown field"),
        (minimal_doc(train={"reward_scale": 1.0}), "$.train.reward_scale", "unknown field"),
        (minimal_doc(train={"target_sync_every": 0}), "$.train", "target_sync_every must be >= 1"),
        (minimal_doc(train={"batch_size": 0}), "$.train", "batch_size must be >= 1"),
        (minimal_doc(train={"episodes": -1}), "$.train", "episodes must be >= 0"),
        (minimal_doc(cb={"batch_size": 0}), "$.cb", "batch_size must be >= 1"),
        (minimal_doc(cb={"explore": "checkpoint"}), "$.cb", "unknown explore kind"),
        (with_run({"name": "x", "mode": "random", "episodes": -3, "seeds": [1]}),
         "$.runs[1].episodes", ">= 0"),
        (minimal_doc(evaluation={"trials": 0, "seed": 3}), "$.evaluation.trials", ">= 1"),
        (with_run({"name": "x", "mode": "random", "group": 3, "episodes": 1, "seeds": [1]}),
         "$.runs[1].group", "random mode takes no group"),
        *[(minimal_doc(**{section: learner}), f"$.{section}", message)
          for section in ("train", "cb") for learner, message in LEARNER_ERRORS],
        (minimal_doc(train={"worst_case_mode": "fixed"}), "$.train.worst_case_mode",
         "unknown field"),
        (minimal_doc(train={"fixed_group": 4}), "$.train.fixed_group", "unknown field"),
        (with_run({"name": "x", "mode": "random", "episodes": 1, "seeds": [3, 3]}),
         "$.runs[1].seeds", "list of distinct integers"),
    ],
)
def test_errors_name_the_offending_path(doc, path, message):
    with pytest.raises(config.ConfigError) as info:
        parse(doc)
    assert info.value.path == path
    assert message in str(info.value)


@pytest.mark.parametrize(
    "doc, path",
    [
        (with_run({"name": "x", "mode": "random", "episodes": 1, "seeds": [True]}),
         "$.runs[1].seeds"),
        (with_run({"name": "x", "mode": "random", "episodes": True, "seeds": [1]}),
         "$.runs[1].episodes"),
        (with_run({"name": "x", "mode": "fixed", "group": True, "episodes": 1, "seeds": [1]}),
         "$.runs[1].group"),
        (minimal_doc(train={"episodes": True}), "$.train.episodes"),
        (minimal_doc(train={"gamma": True}), "$.train.gamma"),
        (minimal_doc(train={"hidden": [64, True]}), "$.train.hidden"),
        (minimal_doc(cb={"learning_rate": False}), "$.cb.learning_rate"),
        (minimal_doc(env={"n_chutes": True}), "$.env.n_chutes"),
        (minimal_doc(master_seed=True), "$.master_seed"),
        (minimal_doc(evaluation={"trials": True, "seed": 3}), "$.evaluation.trials"),
    ],
    ids=["run-seeds", "run-episodes", "run-group", "train-episodes", "train-gamma",
         "train-hidden", "cb-learning-rate", "env-n-chutes", "master-seed", "eval-trials"],
)
def test_a_json_boolean_is_not_a_number(doc, path):
    with pytest.raises(config.ConfigError) as info:
        parse(doc)
    assert info.value.path == path
    assert "bool" in str(info.value) or "integers" in str(info.value)


@pytest.mark.parametrize("section", ["env", "train", "cb"])
def test_every_config_field_is_settable_or_owned_by_the_run(section):
    # a field that the document sets and every run then overwrites would be a dead key
    base = getattr(parse(minimal_doc()), section)
    names = {f.name for f in dataclasses.fields(base)}
    if section == "train":
        trained = config.RunSpec("r", "fixed", 0, (1,), group=2).train_config(base)
        owned = {name for name in names if getattr(trained, name) != getattr(base, name)}
        # drsort train reads $.train.episodes when --episodes is omitted
        assert owned == {"episodes", *config.RUN_FIELDS}
        assert trained.fixed_group == 1
    for name in names:
        value = getattr(base, name)
        doc = minimal_doc(**{section: {name: list(value) if isinstance(value, tuple) else value}})
        if section == "train" and name in config.RUN_FIELDS:
            with pytest.raises(config.ConfigError, match="unknown field"):
                parse(doc)
        else:
            assert getattr(parse(doc), section) == base
