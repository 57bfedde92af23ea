"""Experiment configuration: JSON schema, validation, presets.

A config file declares the environment, the group set, both learners'
hyperparameters, the policy runs and the evaluation protocol; every seed
is explicit. Errors name the offending path (e.g. "$.runs[2].mode").

Each rule has one owner. The reader (`_read`) owns types: each field's
type is its dataclass annotation, and unknown or missing keys are errors.
The dataclasses own ranges: EnvConfig, valuenet.LearnerConfig (the fields
both trainers share), TrainConfig, CbConfig and the group specs check
their values, and RunSpec checks a run's name, mode, group, episodes and
seeds. parse_config owns the cross-field rules: an env whose N and V equal
the group set's, unique run names, and evaluation trials >= 1.
`valuenet.unique_keys` owns the repeated-key rule, for configs and checkpoints alike.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field

from .bandit import CbConfig
from .induction import GroupSet, MultinomialSpec, TruncatedNormalSpec, build_group_set
from .training import WORST_CASE_MODES, TrainConfig
from .valuenet import RepeatedKeyError, unique_keys
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
        if "/" in self.name or "\0" in self.name:
            raise ConfigError(at("name"), "names output files, so it may hold no '/' or NUL")
        if self.episodes < 0:
            raise ConfigError(at("episodes"), "must be >= 0")
        # seeding.stream reads a seed modulo 2**64, so seeds equal there draw the same streams
        if not self.seeds or len({seed % 2**64 for seed in self.seeds}) < len(self.seeds):
            raise ConfigError(
                at("seeds"), "must be a nonempty list of distinct integers, taken modulo 2**64"
            )
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


@dataclass
class _Document:  # the top level; each section is read on its own
    master_seed: int
    runs: tuple[dict, ...]
    preset: str = "appendix-b"
    env: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    cb: dict = field(default_factory=dict)
    groups: dict | None = None  # the preset's group set when absent
    evaluation: dict = field(default_factory=dict)
    output_dir: str = "out"


@dataclass
class _Evaluation:
    seed: int
    trials: int = 20


# the two kinds of $.groups entry: a truncated normal and explicit probabilities
_NORMAL_ENTRY = {"mu": float, "sigma": float, "n": int, "volume": int}
_PROBS_ENTRY = {"probs": tuple[float, ...], "volume": int}


def _typed(value, hint, path: str):
    """`value` as the annotated type `hint`, or a ConfigError at `path`.

    The JSON type must match exactly, so a bool is no number; an int
    literal in a float field becomes a float, and a float must be finite.
    A list is read as tuple[T, ...], and a failing item reports the list's path.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None
        return None if value is None else _typed(value, args[0], path)
    if typing.get_origin(hint) is tuple:
        if type(value) is not list:
            raise ConfigError(path, f"expected list, got {type(value).__name__}")
        return tuple(_typed(item, args[0], path) for item in value)
    if hint is float and type(value) is int:  # one beyond the float range reads as infinite
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not hint:
        raise ConfigError(path, f"expected {hint.__name__}, got {type(value).__name__}")
    if hint is float and not math.isfinite(value):
        raise ConfigError(path, f"must be finite, got {value}")
    return value


def _fields(doc: dict, hints: dict, path: str, required=()) -> dict:
    """The entries of the JSON object `doc`, each typed by its entry in `hints`."""
    for key in doc:
        if key not in hints:
            raise ConfigError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{path}.{key}", "missing required field")
    return {key: _typed(value, hints[key], f"{path}.{key}") for key, value in doc.items()}


def _read(cls, doc: dict, path: str, base=None, exclude=()):
    """A `cls` from the JSON object `doc`, each field typed by its annotation.

    Fields that `doc` omits keep `base`'s values, or else the class's
    defaults; without a `base`, a field with no default is required.
    """
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in exclude]
    required = [f.name for f in fields if not base and f.default is f.default_factory is MISSING]
    values = _fields(doc, {f.name: hints[f.name] for f in fields}, path, required)
    try:
        return cls(**values) if base is None else dataclasses.replace(base, **values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def group_set_from_doc(doc: dict) -> GroupSet:
    """The group set of a `$.groups` object: an optional kind and a list of entries."""
    top = _fields(doc, {"kind": str, "groups": tuple[dict, ...]}, "$.groups", ["groups"])
    entries = []
    for idx, entry in enumerate(top["groups"]):
        hints = _PROBS_ENTRY if "probs" in entry else _NORMAL_ENTRY
        entries.append(_fields(entry, hints, f"$.groups.groups[{idx}]", hints))
    try:
        return GroupSet(kind=top.get("kind", "custom"), groups=tuple(
            MultinomialSpec(e["probs"], e["volume"]) if "probs" in e
            else TruncatedNormalSpec(e["mu"], e["sigma"], e["n"], e["volume"])
            for e in entries
        ))
    except ValueError as exc:
        raise ConfigError("$.groups", str(exc)) from exc


def group_set_to_doc(group_set: GroupSet) -> dict:
    """The `$.groups` object that group_set_from_doc reads back to `group_set`."""
    return {"kind": group_set.kind, "groups": [
        {"probs": list(g.probs_vector), "volume": g.volume} if isinstance(g, MultinomialSpec)
        else {"mu": g.mu, "sigma": g.sigma, "n": g.n_destinations, "volume": g.volume}
        for g in group_set.groups
    ]}


def appendix_b_defaults() -> tuple[EnvConfig, GroupSet, TrainConfig, CbConfig]:
    """Desk-scale preset: N=20, M=10, T=10, V=1200, m=9 groups; every config at its defaults."""
    return EnvConfig(), build_group_set("appendix-b"), TrainConfig(), CbConfig()


PRESETS = {"appendix-b": appendix_b_defaults}

CENTER_GROUP = 5  # 1-based index of the mu=0 group in the appendix-b preset


def parse_config(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except RepeatedKeyError as exc:
        raise ConfigError("$", str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    top = _read(_Document, _typed(doc, dict, "$"), "$")

    if top.preset not in PRESETS:
        raise ConfigError("$.preset", f"unknown preset {top.preset!r}")
    env, group_set, train, cb = PRESETS[top.preset]()

    env = _read(EnvConfig, top.env, "$.env", env)
    train = _read(TrainConfig, top.train, "$.train", train, exclude=RUN_FIELDS)
    cb = _read(CbConfig, top.cb, "$.cb", cb)
    if top.groups is not None:
        group_set = group_set_from_doc(top.groups)
    if (env.n_destinations, env.step_volume) != (group_set.n_destinations, group_set.volume):
        raise ConfigError("$.env", f"n_destinations {env.n_destinations} and step_volume "
                          f"{env.step_volume} must equal the groups' N "
                          f"{group_set.n_destinations} and volume {group_set.volume}")

    evaluation = _read(_Evaluation, top.evaluation, "$.evaluation")
    if evaluation.trials < 1:
        raise ConfigError("$.evaluation.trials", "must be >= 1")

    runs = []
    for idx, entry in enumerate(top.runs):
        path = f"$.runs[{idx}]"
        run = _read(RunSpec, entry, path)
        run.check(group_set.size, lambda key, path=path: f"{path}.{key}")
        runs.append(run)
    names = [r.name for r in runs]
    if len(set(names)) != len(names):
        raise ConfigError("$.runs", "run names must be unique")

    return ExperimentConfig(
        master_seed=top.master_seed,
        env=env,
        group_set=group_set,
        train=train,
        cb=cb,
        runs=tuple(runs),
        eval_trials=evaluation.trials,
        eval_seed=evaluation.seed,
        output_dir=top.output_dir,
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
        "groups": group_set_to_doc(config.group_set),
        "evaluation": {"trials": config.eval_trials, "seed": config.eval_seed},
        "runs": [
            {k: v for k, v in dataclasses.asdict(run).items() if v is not None}
            for run in config.runs
        ],
        "output_dir": config.output_dir,
    }


def load_config(path) -> ExperimentConfig:
    """parse_config of the file at `path`; a file that cannot be read as UTF-8
    text is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot be read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"is not UTF-8 text: {exc}") from exc
    return parse_config(text)
