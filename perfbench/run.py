"""drsort benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload appb-matrix --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the workload is repeated with the same inputs until
``--seconds`` have passed, and the end-to-end metrics are medians over the
repetitions. The workload's times are calibrated to the machine's speed
(see ``calibrate.py``); the raw times are printed and recorded next to them.
With ``--trace 1`` it runs a warm-up repetition, one with only
the top-level calls timed and one with every layer function wrapped, and
reports per-layer metrics of the last. The last line of standard output is
the JSON result; a fuller record (machine, checks, recirculation, metrics.csv
digest) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The workload runs in one process with no threads of its own, and BLAS
# starts no pool either (set before numpy loads; set-up children inherit
# it). With two BLAS threads on the two shared vCPUs, a batched product
# waits for whichever vCPU another tenant holds: training once ran 7x
# slower while evaluation, which makes no batched products, did not.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402 - numpy must load after the thread settings
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 11
PROBE_WINDOW_S = 1.0
LAYERS = ("induction", "warehouse", "budget", "valuenet", "bandit", "training", "experiment")
TOTALS = (
    "training.train_drmarl",
    "training.evaluate_policy",
    "bandit.train_cb",
    "experiment.run_experiment",
)

# A fresh interpreter times the workload's set-up from its first statement:
# imports, config parse, group-set build and temp dir. Then it probes the
# reference block itself, so the probe sees the same CPU as the set-up.
_SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
ctx = workloads.setup(sys.argv[3], int(sys.argv[4]),
                      workloads.Sizes(**json.loads(sys.argv[5])), sys.argv[6])
elapsed = time.perf_counter() - t0
import calibrate
calibrate.probe()
print(repr(elapsed), repr(calibrate.probe()))
ctx.close()
"""


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import drsort from this checkout's src/ and nowhere else."""
    if not (SRC / "drsort" / "__init__.py").is_file():
        raise ProgramMissing(f"no drsort sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import drsort

    if Path(drsort.__file__).resolve().parent != (SRC / "drsort").resolve():
        raise ProgramMissing(f"drsort imported from {drsort.__file__}, not from {SRC}")
    return drsort


def _blas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(lib_path))
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_info() -> dict:
    """Where and on what code a result was measured."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "drsort").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def setup_seconds(workload: str, seed: int, sizes, scratch: Path) -> tuple[float, float]:
    """Set-up time of one workload in a fresh interpreter, and its probe time."""
    proc = subprocess.run(
        [
            sys.executable, "-c", _SETUP_CHILD,
            str(SRC), str(BENCH_DIR), workload, str(seed),
            json.dumps(dataclasses.asdict(sizes)), str(scratch),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    elapsed, reference = proc.stdout.split()
    return float(elapsed), float(reference)


def _median(values):
    return statistics.median(values) if values else None


def span_times(rep, calibrated: bool) -> list[tuple[str, float]]:
    """(name, seconds) of each timed call of a repetition.

    Calibrated, a call's time is scaled by the probes taken within
    `PROBE_WINDOW_S` of it: at least the one right before and right after.
    """
    t = rep.tracer
    probes = list(zip(t.probed_at, t.references))
    out = []
    for name, start, end in zip(t.names, t.starts, t.ends):
        seconds = end - start
        if calibrated:
            seconds *= calibrate.speed_factor(
                [ref for at, ref in probes if start - PROBE_WINDOW_S <= at <= end + PROBE_WINDOW_S]
            )
        out.append((name, seconds))
    return out


def rep_wall(rep, calibrated: bool) -> float:
    """Repetition wall time without its probes.

    Calibrated, its calls count as in `span_times` and the time between them
    at the repetition's mean speed.
    """
    t = rep.tracer
    wall = rep.wall_s - t.probe_s
    if not calibrated:
        return wall
    calls = [(s, e, c) for s, e, (_, c) in zip(t.starts, t.ends, span_times(rep, True))]
    between = wall - sum(e - s for s, e, _ in calls)
    return sum(c for _, _, c in calls) + between * calibrate.speed_factor(t.references)


def end_to_end(reps, setup_samples, calibrated: bool) -> tuple[dict, dict]:
    """The seven end-to-end metrics as (value, unit), and the samples behind them.

    `setup_samples` are (set-up seconds, probe seconds) pairs. The timed
    calls never nest, so every span is a call of the workload.
    """
    times = [span_times(r, calibrated) for r in reps]

    def total(i: int, name: str) -> float:
        return sum(seconds for n, seconds in times[i] if n == name)

    samples = {
        "setup_s": [
            s * calibrate.speed_factor([ref]) if calibrated else s for s, ref in setup_samples
        ],
        "wall_s": [rep_wall(r, calibrated) for r in reps],
        "train_ms_per_episode": [
            1000.0 * total(i, "training.train_drmarl") / r.episodes_trained
            for i, r in enumerate(reps) if r.episodes_trained
        ],
        "eval_s_per_policy": [
            seconds for ts in times for n, seconds in ts if n == "training.evaluate_policy"
        ],
        "cb_train_s": [total(i, "bandit.train_cb") for i in range(len(reps))],
    }
    units = {"setup_s": "s", "wall_s": "s", "train_ms_per_episode": "ms",
             "eval_s_per_policy": "s", "cb_train_s": "s"}
    summary = {name: (_median(values), units[name]) for name, values in samples.items()}
    attempted = sum(r.attempted for r in reps)
    summary["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    summary["failed_ratio"] = (sum(r.failed for r in reps) / attempted if attempted else 1.0, "1")
    return summary, samples


def per_layer(traced, untraced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, and the layer shares.

    The shares add up to 1, so a speed-up in one layer raises the others';
    they are recorded for reading, not compared between runs.
    """
    import workloads

    tracer = traced.tracer
    stats = tracing.per_name(tracer)
    out = {}
    for target in workloads.TRACED:
        s = stats.get(target.name)
        out[f"{target.name}.calls"] = (s.calls if s else 0, "count")
        out[f"{target.name}.self_ms"] = (1000.0 * s.self_s if s else 0.0, "ms")
    for name in TOTALS:
        s = stats.get(name)
        out[f"{name}.total_ms"] = (1000.0 * s.total_s if s else 0.0, "ms")

    rows = tracer.units["valuenet.action_value_table_batch"]
    sampled = tracer.units["valuenet.replay_sample"]
    acting, all_steps = tracing.count_under(tracer, "warehouse.step", "training.train_drmarl")
    explore = out["budget.sample_feasible_uniform.calls"][0]
    out["valuenet.action_value_table_batch.rows"] = (rows, "count")
    out["training.bootstrap.rows_per_sample"] = (rows / sampled if sampled else 0.0, "1")
    out["warehouse.steps_per_env_step"] = (all_steps / acting if acting else 0.0, "1")
    out["budget.explore_share"] = (explore / acting if acting else 0.0, "1")
    out["trace.overhead_ratio"] = (traced.wall_s / untraced_wall_s, "1")

    layer_self = tracing.per_layer_self(stats)
    total_self = sum(layer_self.values())
    shares = {}
    for layer in LAYERS:
        own = layer_self.get(layer, 0.0)
        out[f"layer.{layer}.self_ms"] = (1000.0 * own, "ms")
        shares[layer] = own / total_self if total_self else 0.0
    return out, shares


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
            out_dir: Path = OUT) -> dict:
    """Run one workload and return the result record (see module docstring)."""
    import workloads

    sizes = sizes or workloads.FULL
    out_dir = Path(out_dir)
    scratch = out_dir / "tmp"
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "sizes": vars(sizes), "machine": machine_info()}
    setup_samples = []
    if not trace:
        setup_samples = [setup_seconds(workload, seed, sizes, scratch) for _ in range(SETUP_SAMPLES)]
        calibrate.probe()  # the first probe of a process warms numpy up
    ctx = workloads.setup(workload, seed, sizes, scratch)
    reps = []
    try:
        if trace:
            # the first repetition warms up, so the overhead compares two warm ones
            for targets in (workloads.TIMED, workloads.TIMED, workloads.TRACED):
                reps.append(workloads.run_once(ctx, len(reps), targets))
        else:
            start = time.perf_counter()
            while True:
                reps.append(
                    workloads.run_once(ctx, len(reps), workloads.TIMED, calibrate.probe)
                )
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(r.wall_s for r in reps) > seconds:
                    break
        problems = []
        for i, rep in enumerate(reps):
            problems += [f"rep {i}: {p}" for p in workloads.check(ctx, rep)]
        if len({r.metrics_sha256 for r in reps}) != 1:
            problems.append("repetitions with the same inputs gave different outputs")
    finally:
        ctx.close()

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    summary = samples = raw = raw_samples = {}
    if not trace:
        record["timeline"] = [
            {
                "probes": list(zip(r.tracer.probed_at, r.tracer.references)),
                "spans": [
                    (n, t0, t1)
                    for n, t0, t1, parent in zip(
                        r.tracer.names, r.tracer.starts, r.tracer.ends, r.tracer.parents
                    )
                    if parent < 0
                ],
            }
            for r in reps
        ]
        summary, samples = end_to_end(reps, setup_samples, True)
        raw, raw_samples = end_to_end(reps, setup_samples, False)
    record.update(
        summary={k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        raw_summary={k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        samples=samples,
        raw_samples=raw_samples,
        rep_wall_s=[r.wall_s for r in reps],
        metrics_sha256=reps[0].metrics_sha256,
        recirculation=workloads.recirculation(reps[0]),
        problems=problems,
        errors=[e for r in reps for e in r.errors],
    )
    if trace:
        layers, record["layer_shares"] = per_layer(reps[2], reps[1].wall_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        out_dir.mkdir(parents=True, exist_ok=True)
        spans = out_dir / f"spans-{workload}.csv"
        reps[2].tracer.write_csv(spans)
        record["spans_csv"] = spans.name
    else:
        gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        metrics = {
            m["name"]: {"value": summary[m["name"]][0], "unit": summary[m["name"]][1]}
            for m in gated if summary[m["name"]][0] is not None
        }
    record["result"] = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record


def _print_human(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    m = record["machine"]
    print(f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"{m['blas']} x{m['blas_threads']} threads, commit {m['git_commit']}")
    if record["summary"]:
        print(f"  {'':<22} {'calibrated':>24} {'raw':>24}")
    for name, item in record["summary"].items():
        raw = record["raw_summary"][name]["value"]
        print(f"  {name:<22} {item['value']!r:>24} {raw!r:>24} {item['unit']}")
    print(f"  repetitions            {len(record['rep_wall_s'])}")
    print(f"  metrics_sha256         {record['metrics_sha256']}")
    for policy, r in record["recirculation"].items():
        print(f"  recirculation {policy:<18} mean {r['mean']:.5f}  worst group {r['worst_group']:.5f}")
    metrics = record["result"]["metrics"]
    if record["trace"]:
        for layer in LAYERS:
            print(f"  layer {layer:<12} self {metrics[f'layer.{layer}.self_ms']['value']:12.1f} ms"
                  f"  share {record['layer_shares'][layer]:.4f}")
        for name in ("training.bootstrap.rows_per_sample", "warehouse.steps_per_env_step",
                     "budget.explore_share", "trace.overhead_ratio"):
            print(f"  {name:<36} {metrics[name]['value']:.4f}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=2), encoding="utf-8")
    _print_human(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
