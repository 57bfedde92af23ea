"""Command-line interface: parses arguments and maps errors to exit codes.

Subcommands: train, cb-train, eval, verify, report, experiment. What each
one trains, evaluates and writes is done by `experiment`, `training` and
`verify`, the same functions the experiment runner calls.
Exit codes: 0 success, 1 usage, 2 configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

from . import experiment, training, valuenet, verify
from .config import ConfigError, appendix_b_defaults, load_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="drsort", description="Distributionally robust chute-mapping toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one policy")
    train.add_argument("--mode", required=True, choices=training.WORST_CASE_MODES)
    train.add_argument("--group", type=int, help="1-based training group for fixed mode")
    train.add_argument("--episodes", type=int, default=None)
    train.add_argument("--seed", type=int, required=True)
    train.add_argument("--config", type=Path, help="experiment config supplying defaults")
    train.add_argument("--cb-checkpoint", type=Path, help="trained predictor (cb mode)")
    train.add_argument("--out", type=Path, default=Path("out"))
    train.add_argument("--trace", action="store_true", help="write a trajectory JSONL log")

    cbt = sub.add_parser("cb-train", help="train the worst-case reward predictor")
    cbt.add_argument("--episodes", type=int, default=None)
    cbt.add_argument("--seed", type=int, required=True)
    cbt.add_argument("--policy-checkpoint", type=Path, help="exploration policy parameters")
    cbt.add_argument("--config", type=Path)
    cbt.add_argument("--out", type=Path, default=Path("out"))

    ev = sub.add_parser("eval", help="evaluate a checkpoint across all groups")
    ev.add_argument("--checkpoint", type=Path, required=True)
    ev.add_argument("--trials", type=int, default=20)
    ev.add_argument("--seed", type=int, required=True)
    ev.add_argument("--config", type=Path)
    ev.add_argument("--out", type=Path, default=Path("out"))
    ev.add_argument("--trace", action="store_true")

    vf = sub.add_parser("verify", help="run the fast property suites")
    vf.add_argument("--seed", type=int, default=0)

    rp = sub.add_parser("report", help="aggregate a finished matrix into CSV reports")
    rp.add_argument("--runs", type=Path, required=True)
    rp.add_argument("--out", type=Path, default=None)

    ex = sub.add_parser("experiment", help="run a full experiment config")
    ex.add_argument("--config", type=Path, required=True)
    ex.add_argument("--out", type=Path, default=None)
    return parser


def _resolve_defaults(config_path: Path | None):
    if config_path is None:
        return appendix_b_defaults()
    cfg = load_config(config_path)
    return cfg.env, cfg.group_set, cfg.train, cfg.cb


@contextlib.contextmanager
def _jsonl_sink(path: Path | None):
    """A trace sink writing one JSON record per line to `path`; None when path is None."""
    if path is None:
        yield None
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield lambda record: fh.write(json.dumps(record) + "\n")


def _cmd_train(args) -> int:
    env, group_set, train_cfg, _ = _resolve_defaults(args.config)
    if args.mode == "fixed":
        if args.group is None:
            raise ConfigError("--group", "fixed mode requires --group")
        if not 1 <= args.group <= group_set.size:
            raise ConfigError("--group", f"group must be in [1, {group_set.size}]")
    cb_params = None
    if args.mode == "cb":
        if args.cb_checkpoint is None:
            raise ConfigError(
                "--cb-checkpoint",
                "cb mode requires a trained worst-case predictor checkpoint "
                "(run `drsort cb-train` first)",
            )
        cb_params = valuenet.load_checkpoint(args.cb_checkpoint)["params"]
    updates = {
        "worst_case_mode": args.mode,
        "fixed_group": (args.group - 1) if args.group is not None else None,
    }
    if args.episodes is not None:
        updates["episodes"] = args.episodes
    train_cfg = dataclasses.replace(train_cfg, **updates)

    args.out.mkdir(parents=True, exist_ok=True)
    trace_path = args.out / f"trajectory_train-s{args.seed}.jsonl" if args.trace else None
    with _jsonl_sink(trace_path) as sink:
        result = training.train_drmarl(
            train_cfg, env, group_set, args.seed, cb_params, trace_sink=sink
        )

    tag = f"{args.mode}" + (f"-g{args.group}" if args.group else "") + f"-s{args.seed}"
    experiment.write_trace_csv(args.out / f"trace_train-{tag}.csv", result.trace)
    checkpoint = args.out / f"policy-{tag}.json"
    experiment.save_policy(
        checkpoint, result.params, train_cfg,
        {"mode": args.mode, "group": args.group, "seed": args.seed},
    )
    print(f"trained {args.mode} policy over {train_cfg.episodes} episodes -> {checkpoint}")
    return EXIT_OK


def _cmd_cb_train(args) -> int:
    env, group_set, _, cb_cfg = _resolve_defaults(args.config)
    if args.episodes is not None:
        cb_cfg = dataclasses.replace(cb_cfg, episodes=args.episodes)
    q_params = None
    if args.policy_checkpoint is not None:
        q_params = valuenet.load_checkpoint(args.policy_checkpoint)["params"]
    elif cb_cfg.explore in ("checkpoint", "mixed"):
        raise ConfigError(
            "--policy-checkpoint",
            f"{cb_cfg.explore!r} exploration needs a trained policy checkpoint "
            "(run `drsort train` first, or set cb.explore to \"random\" in --config)",
        )
    args.out.mkdir(parents=True, exist_ok=True)
    checkpoint = args.out / f"cb-s{args.seed}.json"
    result = experiment.train_predictor(
        env, group_set, cb_cfg, args.seed, q_params, checkpoint, args.out / f"cb_s{args.seed}.csv"
    )
    first = result.episode_losses[0] if result.episode_losses else float("nan")
    last = result.episode_losses[-1] if result.episode_losses else float("nan")
    print(f"trained predictor ({cb_cfg.episodes} episodes, loss {first:.4g} -> {last:.4g}) -> {checkpoint}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    env, group_set, _, _ = _resolve_defaults(args.config)
    params = valuenet.load_checkpoint(args.checkpoint)["params"]
    args.out.mkdir(parents=True, exist_ok=True)
    # the trace holds each group's trial-0 episode of this very evaluation
    trace_path = args.out / f"trajectory_eval-{args.checkpoint.stem}.jsonl" if args.trace else None
    with _jsonl_sink(trace_path) as sink:
        report = training.evaluate_policy(
            params, env, group_set, args.trials, args.seed, trace_sink=sink
        )
    doc = experiment.evaluation_to_doc(report)
    out_path = args.out / f"eval-{args.checkpoint.stem}.json"
    out_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    mean_rate = report.mean_over_groups("recirc_rate")
    print(f"evaluated {args.checkpoint} on {group_set.size} groups: "
          f"mean recirc rate {mean_rate:.4%} -> {out_path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verify.run_all(args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} of {len(results)} property suites failed")
        return EXIT_RUNTIME
    print(f"all {len(results)} property suites passed")
    return EXIT_OK


def _cmd_report(args) -> int:
    out = args.out if args.out is not None else args.runs
    experiment.regenerate_reports(args.runs, out)
    print(f"wrote metrics.csv and convergence.csv under {out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    report = experiment.run_experiment(cfg, args.out)
    n_ok = len(report["runs"])
    n_err = len(report["errors"])
    out = args.out if args.out is not None else cfg.output_dir
    print(f"experiment complete: {n_ok} runs succeeded, {n_err} failed -> {out}")
    return EXIT_OK if n_err == 0 else EXIT_RUNTIME


_COMMANDS = {
    "train": _cmd_train,
    "cb-train": _cmd_cb_train,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "report": _cmd_report,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
