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


def with_run(run, index=1):
    doc = minimal_doc()
    doc["runs"][index] = run
    return doc


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
    ],
)
def test_errors_name_the_offending_path(doc, path, message):
    with pytest.raises(config.ConfigError) as info:
        parse(doc)
    assert info.value.path == path
    assert message in str(info.value)
