import dataclasses
import json

import pytest

from drsort import config, experiment, induction, valuenet, warehouse
from drsort.seeding import stream


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
    """parse_config of a document, or of config text as given."""
    return config.parse_config(doc if isinstance(doc, str) else json.dumps(doc))


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
        (minimal_doc(train={"buffer_capacity": 10}), "$.train",
         "buffer_capacity 10 is smaller than batch_size 64"),
        (minimal_doc(cb={"buffer_capacity": 10}), "$.cb",
         "buffer_capacity 10 is smaller than batch_size 64"),
        (minimal_doc(cb={"buffer_capacity": 63}), "$.cb",
         "buffer_capacity 63 is smaller than batch_size 64"),
        (with_run({"name": "a/b", "mode": "random", "episodes": 1, "seeds": [1]}),
         "$.runs[1].name", "names output files, so it may hold no '/' or NUL"),
        (with_run({"name": "a\0b", "mode": "random", "episodes": 1, "seeds": [1]}, 0),
         "$.runs[0].name", "may hold no '/' or NUL"),
        (with_run({"name": "x", "mode": "random", "episodes": 1, "seeds": [1, 2**64 + 1]}),
         "$.runs[1].seeds", "list of distinct integers, taken modulo 2**64"),
        # JSON text, since no dict holds a key twice
        pytest.param(json.dumps(minimal_doc(env={"n_chutes": 4}))[:-1] + ', "env": {}}',
                     "$", "key 'env' appears twice in one object", id="repeated-top-level-key"),
        pytest.param(
            json.dumps(with_run({"name": "x", "mode": "random", "episodes": 1, "seeds": [1]}))
            .replace('"episodes": 1,', '"episodes": 1, "episodes": 5,'),
            "$", "key 'episodes' appears twice in one object", id="repeated-key-in-a-run"),
    ],
)
def test_errors_name_the_offending_path(doc, path, message):
    with pytest.raises(config.ConfigError) as info:
        parse(doc)
    assert info.value.path == path
    assert message in str(info.value)


def with_group(drop=(), **entry):
    """The appendix-b groups with the first entry's fields changed or dropped."""
    groups = [{"mu": mu, "sigma": 2.0, "n": 20, "volume": 1200}
              for mu in induction.APPENDIX_B_MEANS]
    first = groups[0]
    first.update(entry)
    for key in drop:
        del first[key]
    return minimal_doc(groups={"kind": "appendix-b", "groups": groups})


@pytest.mark.parametrize(
    "doc, path, message",
    [
        (minimal_doc(env={"action_max": 1.5}), "$.env.action_max", "expected int, got float"),
        (minimal_doc(train={"target_sync_every": 1.5}), "$.train.target_sync_every",
         "expected int, got float"),
        (minimal_doc(train={"n_probe": 2.5}), "$.train.n_probe", "expected int, got float"),
        (minimal_doc(train={"episodes": 2.5}), "$.train.episodes", "expected int, got float"),
        (minimal_doc(train={"hidden": [64, 32.0]}), "$.train.hidden", "expected int, got float"),
        (minimal_doc(cb={"buffer_capacity": 100.5}), "$.cb.buffer_capacity",
         "expected int, got float"),
        (with_run({"name": "x", "mode": "random", "episodes": 1.0, "seeds": [1]}),
         "$.runs[1].episodes", "expected int, got float"),
        (with_run({"name": "x", "mode": "random", "episodes": 1, "seeds": [1.5]}),
         "$.runs[1].seeds", "expected int, got float"),
        (minimal_doc(evaluation={"trials": 2.5, "seed": 3}), "$.evaluation.trials",
         "expected int, got float"),
        (minimal_doc(master_seed=1.0), "$.master_seed", "expected int, got float"),
        (minimal_doc(train={"learning_rate": "0.001"}), "$.train.learning_rate",
         "expected float, got str"),
        (minimal_doc(train={"batch_size": "64"}), "$.train.batch_size", "expected int, got str"),
        (with_group(volume=60.7), "$.groups.groups[0].volume", "expected int, got float"),
        (with_group(n=20.9), "$.groups.groups[0].n", "expected int, got float"),
        (with_group(mu="1.5"), "$.groups.groups[0].mu", "expected float, got str"),
        (with_group(sigma=True), "$.groups.groups[0].sigma", "expected float, got bool"),
        (with_group(weight=1.0), "$.groups.groups[0].weight", "unknown field"),
        (with_group(drop=["sigma"]), "$.groups.groups[0].sigma", "missing required field"),
        (with_group(mu=float("nan")), "$.groups.groups[0].mu", "must be finite"),
        (with_group(sigma=-1.0), "$.groups", "sigma must be positive"),
        (minimal_doc(env={"action_penalty": float("nan")}), "$.env.action_penalty",
         "must be finite"),
        (minimal_doc(train={"learning_rate": float("inf")}), "$.train.learning_rate",
         "must be finite"),
        (minimal_doc(cb={"learning_rate": 10**400}), "$.cb.learning_rate", "must be finite"),
    ],
    ids=["env-action-max", "train-target-sync", "train-n-probe", "train-episodes",
         "train-hidden", "cb-buffer-capacity", "run-episodes", "run-seeds", "eval-trials",
         "master-seed", "str-for-float", "str-for-int", "group-volume", "group-n", "group-mu",
         "group-sigma-bool", "group-unknown-key", "group-missing-key", "group-mu-nan",
         "group-sigma-range",
         "env-nan", "train-infinity", "int-beyond-float-range"],
)
def test_a_value_of_the_wrong_type_is_an_error_at_its_path(doc, path, message):
    with pytest.raises(config.ConfigError) as info:
        parse(doc)
    assert info.value.path == path
    assert message in str(info.value)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, field", [
    (lambda: warehouse.EnvConfig(action_penalty=NAN), "action_penalty"),
    (lambda: warehouse.EnvConfig(action_penalty=INF), "action_penalty"),
    (lambda: induction.TruncatedNormalSpec(NAN, 2.0, 20, 1200), "mu"),
    (lambda: induction.TruncatedNormalSpec(-INF, 2.0, 20, 1200), "mu"),
    (lambda: induction.TruncatedNormalSpec(0.0, NAN, 20, 1200), "sigma"),
    (lambda: induction.TruncatedNormalSpec(0.0, INF, 20, 1200), "sigma"),
    (lambda: induction.MultinomialSpec((NAN, 1.0), 10), "probability vector"),
    (lambda: valuenet.LearnerConfig(learning_rate=INF), "learning_rate"),
], ids=["penalty-nan", "penalty-inf", "mu-nan", "mu-inf", "sigma-nan", "sigma-inf",
        "probs-nan", "learning-rate-inf"])
def test_the_dataclasses_reject_a_non_finite_number_at_construction(build, field):
    # the reader rejects these in a file first; code that builds the objects meets these checks
    with pytest.raises(ValueError, match=field):
        build()


def test_an_int_literal_in_a_float_field_is_stored_as_a_float(tmp_path):
    params = valuenet.init_mlp(valuenet.default_q_dims(1), stream(1, "test/config-q"),
                               dtype=valuenet.NET_DTYPE)
    docs, hashes = [], []
    for literal in (1, 1.0):
        cfg = parse(minimal_doc(train={"epsilon_start": literal}))
        assert type(cfg.train.epsilon_start) is float
        docs.append(json.dumps(config.config_to_doc(cfg)))
        path = tmp_path / f"policy-{literal!r}.json"
        experiment.save_policy(path, params, cfg.runs[0].train_config(cfg.train), meta={})
        hashes.append(valuenet.load_checkpoint(path)["config_hash"])
    assert docs[0] == docs[1]
    assert hashes[0] == hashes[1]


def test_group_set_document_round_trip():
    def round_trip(group_set):
        return config.group_set_from_doc(json.loads(json.dumps(config.group_set_to_doc(group_set))))

    gs = induction.build_group_set("appendix-b")
    assert round_trip(gs) == gs
    spec = induction.MultinomialSpec(probs_vector=(0.25, 0.75), volume=8)
    custom = induction.GroupSet(kind="custom", groups=(spec,))
    assert round_trip(custom) == custom


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
