"""Self-tests of the benchmark: span arithmetic, patch hygiene, workload smoke.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys

import pytest

import run  # first: it fixes the BLAS thread count before numpy loads
import calibrate
import tracing

run.import_program()
import workloads  # noqa: E402 - needs drsort on the path first

TINY = workloads.Sizes(
    matrix_episodes=8, exhaustive_episodes=8, main_dp_episodes=8, eval_trials=1, cb_episodes=2
)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _hand_built():
    """root[0,10] > a[1,4] > c[2,3];  root > b[5,9] > d[5,7], e[6,8] (d, e overlap)."""
    t = tracing.Tracer()
    spans = [
        ("experiment.root", 0.0, 10.0, -1),
        ("training.a", 1.0, 4.0, 0),
        ("warehouse.c", 2.0, 3.0, 1),
        ("training.b", 5.0, 9.0, 0),
        ("warehouse.d", 5.0, 7.0, 3),
        ("budget.e", 6.0, 8.0, 3),
    ]
    for name, start, end, parent in spans:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
    return t


def test_self_time_subtracts_the_union_of_child_spans():
    t = _hand_built()
    assert tracing.self_times(t.starts, t.ends, t.parents) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_self_time_clips_children_to_the_parent_interval():
    assert tracing.self_times([0.0, -1.0], [2.0, 1.5], [-1, 0]) == [0.5, 2.5]


def test_per_name_and_per_layer_aggregates():
    t = _hand_built()
    stats = tracing.per_name(t)
    assert stats["training.a"] == tracing.SpanStats(calls=1, total_s=3.0, self_s=2.0)
    assert tracing.per_layer_self(stats) == {
        "experiment": 3.0, "training": 3.0, "warehouse": 3.0, "budget": 2.0
    }
    assert tracing.count_under(t, "warehouse.d", "training.b") == (1, 1)
    assert tracing.count_under(t, "warehouse.c", "experiment.root") == (0, 1)


def test_wrapper_records_nesting_with_an_injected_clock():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("warehouse.inner", lambda x: x + 1)
    outer = t.wrap("training.outer", lambda x: inner(x) * 2, units=lambda a, k, r: r)
    assert outer(1) == 4
    assert t.names == ["training.outer", "warehouse.inner"]
    assert t.parents == [-1, 0]
    assert (t.starts, t.ends) == ([0.0, 1.0], [3.0, 2.0])
    assert t.units["training.outer"] == 4


def test_probes_bracket_outermost_spans_outside_their_clock():
    ticks = iter(range(100))
    refs = iter([0.5, 0.7])
    t = tracing.Tracer(clock=lambda: float(next(ticks)), probe=lambda: next(refs))
    inner = t.wrap("warehouse.inner", lambda: None)
    outer = t.wrap("training.outer", lambda: inner())
    outer()
    # probe [0,1], span [2,5] around inner [3,4], probe [6,7]
    assert (t.starts, t.ends) == ([2.0, 3.0], [5.0, 4.0])
    assert t.references == [0.5, 0.7]
    assert t.probe_s == 2.0


def test_speed_factor_is_the_reference_over_the_mean_probe():
    ref = calibrate.REFERENCE_S
    assert calibrate.speed_factor([ref, 2 * ref, 3 * ref]) == pytest.approx(0.5)
    assert calibrate.speed_factor([ref]) == pytest.approx(1.0)


def _bindings():
    return [b for target in workloads.TRACED for b in tracing._owners(target)]


def test_every_binding_is_wrapped_then_restored(tmp_path):
    before = _bindings()
    training = sys.modules["drsort.training"]
    # names imported with `from .valuenet import ...` are patched where they are bound too
    assert any(o is training and a == "mlp_forward_cached" for o, a, _ in before)
    assert any(o is training and a == "cb_worst_group" for o, a, _ in before)
    ctx = workloads.setup("appb-exhaustive", 5, TINY, tmp_path)
    try:
        tracer = tracing.Tracer()
        with pytest.raises(RuntimeError):
            with tracing.patched(tracer, workloads.TRACED) as patches:
                assert len(patches) == len(before)
                assert all(getattr(o, a) is not orig for o, a, orig in patches)
                raise RuntimeError("restore on error too")
        rep = workloads.run_once(ctx, 0, workloads.TRACED)
    finally:
        ctx.close()
    assert rep.tracer.names
    for owner, attr, original in before:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} still wrapped"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_untraced_run_reports_every_metric(workload, tmp_path):
    record = run.measure(workload, 11, 0.5, False, TINY, out_dir=tmp_path)
    assert record["problems"] == []
    assert record["summary"]["failed_ratio"]["value"] == 0
    assert set(record["summary"]) == {
        "setup_s", "wall_s", "train_ms_per_episode", "eval_s_per_policy",
        "cb_train_s", "peak_rss_mb", "failed_ratio",
    }
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (record["summary"]["cb_train_s"]["value"] > 0) == (workload == "appb-matrix")
    assert set(record["raw_summary"]) == set(record["summary"])
    for rep in record["timeline"]:
        assert len(rep["probes"]) == 2 * len(rep["spans"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload, tmp_path):
    record = run.measure(workload, 11, 0.5, True, TINY, out_dir=tmp_path)
    assert record["problems"] == []
    metrics = record["result"]["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["warehouse.step.calls"]["value"] > 0
    on_matrix = workload == "appb-matrix"
    assert (metrics["bandit.train_cb.calls"]["value"] > 0) == on_matrix
    assert (metrics["experiment.run_experiment.calls"]["value"] > 0) == on_matrix
    expected_steps = {"appb-exhaustive": 73.0, "main-dp": 1.0}.get(workload)
    if expected_steps is not None:
        assert metrics["warehouse.steps_per_env_step"]["value"] == expected_steps
    assert sum(record["layer_shares"].values()) == pytest.approx(1.0)
    assert (tmp_path / f"spans-{workload}.csv").is_file()
