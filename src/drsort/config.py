"""Experiment configuration: JSON schema, validation, presets.

A config file declares the environment, the group set, the training and
predictor hyperparameters, the list of policy runs, and the evaluation
protocol. Every seed is explicit, and unknown keys are rejected.
Validation errors name the offending path (e.g. "runs[2].mode").

Each rule has one owner. EnvConfig, valuenet.LearnerConfig (the fields both
trainers share), TrainConfig and CbConfig check their own fields. RunSpec
checks a run's mode, 1-based group, episodes and seeds, and maps them onto
a TrainConfig, so $.train takes no mode or group. parse_config checks the
document: types, unknown keys, unique run names, evaluation trials, and an
env whose N and V equal the group set's.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .bandit import CbConfig
from .induction import GroupSet, build_group_set, group_set_from_json, group_set_to_json
from .training import WORST_CASE_MODES, TrainConfig
from .warehouse import EnvConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the config path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# TrainConfig fields that RunSpec.train_config sets for every run
RUN_FIELDS = ("worst_case_mode", "fixed_group")


@dataclass(frozen=True)
class RunSpec:
    """One policy run, trained once per seed."""

    name: str
    mode: str  # one of training.WORST_CASE_MODES
    episodes: int
    seeds: tuple[int, ...]
    group: int | None = None  # 1-based, required for fixed mode

    def check(self, n_groups: int, at) -> None:
        """Raise a ConfigError at `at(field)` if the run breaks a rule."""
        if self.episodes < 0:
            raise ConfigError(at("episodes"), "must be >= 0")
        seeds = self.seeds
        # type(), not isinstance(): a JSON true is a bool, which isinstance counts as an int
        if not seeds or not all(type(s) is int for s in seeds) or len(set(seeds)) < len(seeds):
            raise ConfigError(at("seeds"), "must be a nonempty list of distinct integers")
        if self.mode not in WORST_CASE_MODES:
            raise ConfigError(at("mode"), f"unknown mode {self.mode!r}")
        if self.mode == "fixed":
            if self.group is None:
                raise ConfigError(at("group"), "fixed mode requires a group")
            if not 1 <= self.group <= n_groups:
                raise ConfigError(at("group"), f"group must be in [1, {n_groups}]")
        elif self.group is not None:
            raise ConfigError(at("group"), f"{self.mode} mode takes no group")

    def train_config(self, base: TrainConfig) -> TrainConfig:
        """`base` with this run's mode, episodes and 0-based fixed group."""
        group = None if self.group is None else self.group - 1
        return dataclasses.replace(
            base, worst_case_mode=self.mode, fixed_group=group, episodes=self.episodes
        )


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    env: EnvConfig
    group_set: GroupSet
    train: TrainConfig
    cb: CbConfig
    runs: tuple[RunSpec, ...]
    eval_trials: int
    eval_seed: int
    output_dir: str


def _take(doc: dict, key: str, path: str, kind, default=None, required: bool = False):
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    value = doc[key]
    if kind in (int, float) and isinstance(value, bool):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got bool")
    if kind is float and isinstance(value, int):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _reject_unknown(doc: dict, known, path: str) -> None:
    for key in doc:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _dataclass_overrides(cls, base, doc: dict, path: str, exclude=()):
    if not doc:
        return base
    _reject_unknown(doc, {f.name for f in dataclasses.fields(cls)} - set(exclude), path)
    updates = {}
    for key, value in doc.items():
        if isinstance(value, list):
            value = tuple(value)
        # no config field takes a boolean, and bool would pass the int checks
        items = value if isinstance(value, tuple) else (value,)
        if any(isinstance(item, bool) for item in items):
            raise ConfigError(f"{path}.{key}", "expected a number, got bool")
        updates[key] = value
    try:
        return dataclasses.replace(base, **updates)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def appendix_b_defaults() -> tuple[EnvConfig, GroupSet, TrainConfig, CbConfig]:
    """Desk-scale preset: N=20, M=10, T=10, V=1200, m=9 groups; every config at its defaults."""
    return EnvConfig(), build_group_set("appendix-b"), TrainConfig(), CbConfig()


PRESETS = {"appendix-b": appendix_b_defaults}

CENTER_GROUP = 5  # 1-based index of the mu=0 group in the appendix-b preset

_TOP_LEVEL_KEYS = ("preset", "master_seed", "env", "train", "cb", "groups", "evaluation",
                   "output_dir", "runs")


def parse_config(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("$", "top-level value must be an object")
    _reject_unknown(doc, _TOP_LEVEL_KEYS, "$")

    preset = _take(doc, "preset", "$", str, default="appendix-b")
    if preset not in PRESETS:
        raise ConfigError("$.preset", f"unknown preset {preset!r}")
    env, group_set, train, cb = PRESETS[preset]()

    env = _dataclass_overrides(EnvConfig, env, _take(doc, "env", "$", dict, {}), "$.env")
    train = _dataclass_overrides(
        TrainConfig, train, _take(doc, "train", "$", dict, {}), "$.train", exclude=RUN_FIELDS
    )
    cb = _dataclass_overrides(CbConfig, cb, _take(doc, "cb", "$", dict, {}), "$.cb")
    if "groups" in doc:
        try:
            group_set = group_set_from_json(json.dumps(doc["groups"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("$.groups", str(exc)) from exc
    if (env.n_destinations, env.step_volume) != (group_set.n_destinations, group_set.volume):
        raise ConfigError("$.env", (
            f"n_destinations {env.n_destinations} and step_volume {env.step_volume} must equal "
            f"the groups' N {group_set.n_destinations} and volume {group_set.volume}"
        ))

    master_seed = _take(doc, "master_seed", "$", int, required=True)
    evaluation = _take(doc, "evaluation", "$", dict, {})
    _reject_unknown(evaluation, ("trials", "seed"), "$.evaluation")
    eval_trials = _take(evaluation, "trials", "$.evaluation", int, default=20)
    if eval_trials < 1:
        raise ConfigError("$.evaluation.trials", "must be >= 1")
    eval_seed = _take(evaluation, "seed", "$.evaluation", int, required=True)
    output_dir = _take(doc, "output_dir", "$", str, default="out")

    runs_doc = _take(doc, "runs", "$", list, required=True)
    runs = []
    for idx, entry in enumerate(runs_doc):
        path = f"$.runs[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigError(path, "run must be an object")
        _reject_unknown(entry, [f.name for f in dataclasses.fields(RunSpec)], path)
        run = RunSpec(
            name=_take(entry, "name", path, str, required=True),
            mode=_take(entry, "mode", path, str, required=True),
            episodes=_take(entry, "episodes", path, int, required=True),
            seeds=tuple(_take(entry, "seeds", path, list, required=True)),
            group=_take(entry, "group", path, int),
        )
        run.check(group_set.size, lambda field, path=path: f"{path}.{field}")
        runs.append(run)
    names = [r.name for r in runs]
    if len(set(names)) != len(names):
        raise ConfigError("$.runs", "run names must be unique")

    return ExperimentConfig(
        master_seed=master_seed,
        env=env,
        group_set=group_set,
        train=train,
        cb=cb,
        runs=tuple(runs),
        eval_trials=eval_trials,
        eval_seed=eval_seed,
        output_dir=output_dir,
    )


def config_to_doc(config: ExperimentConfig) -> dict:
    """Serializable document; parse(serialize(c)) == parse of the original."""
    return {
        "preset": "appendix-b",
        "master_seed": config.master_seed,
        "env": dataclasses.asdict(config.env),
        "train": {
            k: v for k, v in dataclasses.asdict(config.train).items() if k not in RUN_FIELDS
        },
        "cb": dataclasses.asdict(config.cb),
        "groups": json.loads(group_set_to_json(config.group_set)),
        "evaluation": {"trials": config.eval_trials, "seed": config.eval_seed},
        "runs": [
            {k: v for k, v in dataclasses.asdict(run).items() if v is not None}
            for run in config.runs
        ],
        "output_dir": config.output_dir,
    }


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
