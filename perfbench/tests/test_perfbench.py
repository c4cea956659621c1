"""The benchmark's own tests, on tiny inputs (short horizons, few items).

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import passrun  # noqa: E402
import run  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402
from tracing import BOUNDARIES  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def tiny_plan(workload, work):
    if workload == "replicate":
        return workloads.replicate(work, t_end=0.2)
    if workload == "ensemble":
        return workloads.ensemble(work, seed=3, n_items=3, t_end=5.0)
    return workloads.network(work, seed=3, t_end=30.0, n=3)


def printed_metrics(text):
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[2] == "=":
            out[parts[1]] = parts[4]
    return out


def test_every_end_to_end_metric_is_printed_with_its_unit(tmp_path, capsys):
    plan = tiny_plan("ensemble", tmp_path)
    metrics, units, attempted, failed = run.evaluate(plan, tmp_path, seconds=0.0, trace=0)
    printed = printed_metrics(capsys.readouterr().out)
    assert set(metrics) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert printed[name] == unit
        assert units[name] == unit
    assert printed["failed_frac"] == "ratio"
    assert (attempted, failed) == (3, 0)
    assert metrics["ok_frac"] == 1.0


@pytest.mark.parametrize("workload", ["replicate", "ensemble", "network"])
def test_traced_run_reports_every_layer_and_agrees_with_untraced(workload, tmp_path, capsys):
    plan = tiny_plan(workload, tmp_path)
    metrics, units, attempted, failed = run.evaluate(plan, tmp_path, seconds=0.0, trace=1)
    printed = printed_metrics(capsys.readouterr().out)
    assert set(metrics) == set(PER_LAYER)
    for name, unit in PER_LAYER.items():
        assert printed[name] == unit
        assert units[name] == unit
    result = json.loads((tmp_path / "result.json").read_text())
    plain, traced = result["passes"]
    assert plain["outcomes"] == traced["outcomes"]
    assert not any(item == "trace" for item, _ in result["failures"])
    # RK4: four vector-field calls per step plus one for the final record
    integrations = sum(item["kind"] == "run" for inv in plan["invocations"]
                       for item in inv["items"])
    assert metrics["dynamics.rhs_calls"] == 4 * metrics["simulate.steps"] + integrations
    layer_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layer_sum == pytest.approx(metrics["trace.solve_s"], rel=1e-6)
    if workload == "replicate":
        # the shortened presets cannot converge; both runs must say so alike
        assert failed == attempted
    else:
        assert failed == 0
    if workload == "ensemble":
        assert metrics["simulate.sweep_concurrency"] > 0.0


def test_failing_item_raises_failed_frac_and_the_pass_carries_on(tmp_path, capsys):
    plan = tiny_plan("ensemble", tmp_path)
    path = tmp_path / plan["invocations"][0]["argv"][1]
    doc = json.loads(path.read_text())
    # a step far past the stability limit: RK4 overflows and integrate raises
    doc["sweep"][1]["sim"]["dt"] = 0.5
    path.write_text(json.dumps(doc))
    metrics, _, attempted, failed = run.evaluate(plan, tmp_path, seconds=0.0, trace=0)
    out = capsys.readouterr().out
    assert (attempted, failed) == (3, 1)
    assert metrics["ok_frac"] == pytest.approx(2.0 / 3.0)
    assert "FAILED ensemble[1]" in out
    assert printed_metrics(out)["failed_frac"] == "ratio"


def test_not_converged_item_is_counted_as_failed(tmp_path, capsys):
    plan = tiny_plan("ensemble", tmp_path)
    path = tmp_path / plan["invocations"][0]["argv"][1]
    doc = json.loads(path.read_text())
    doc["sweep"][2]["sim"]["t_end"] = 0.01
    path.write_text(json.dumps(doc))
    _, _, attempted, failed = run.evaluate(plan, tmp_path, seconds=0.0, trace=0)
    assert (attempted, failed) == (3, 1)
    assert "FAILED ensemble[2]: summary says not converged" in capsys.readouterr().out


def test_same_seed_same_inputs(tmp_path):
    a = workloads.ensemble(tmp_path / "a", seed=11, n_items=2, t_end=1.0)
    b = workloads.ensemble(tmp_path / "b", seed=11, n_items=2, t_end=1.0)
    c = workloads.ensemble(tmp_path / "c", seed=12, n_items=2, t_end=1.0)
    assert a["inputs_sha256"] == b["inputs_sha256"] != c["inputs_sha256"]


def test_every_boundary_names_a_workload():
    for owner, attr, name, kind, wanted in BOUNDARIES:
        assert wanted, f"{owner}:{attr} is wrapped but no workload must reach it"
        assert name.split(".")[0] in ("cli", "config", "graphs", "games", "tuning",
                                      "dynamics", "simulate", "runner")


def test_tracer_under_thread_contention(tmp_path, monkeypatch):
    # more sweep threads than cores, switching as often as possible
    plan = workloads.ensemble(tmp_path, seed=5, n_items=12, t_end=0.5)
    monkeypatch.chdir(tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = passrun.traced_pass(plan, tmp_path / "spans.json")
    finally:
        sys.setswitchinterval(interval)
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert len({s["id"] for s in spans}) == len(spans)
    runs = Counter(s["item"] for s in spans if s["name"] == "runner.run_experiment")
    assert runs == Counter(f"ensemble[{k}]" for k in range(12))
    layers = {k: v for k, (v, _) in result["layers"].items()}
    assert layers["runner.run_experiment_s"] <= layers["simulate.run_sweep_s"]


def test_speed_probe_scales_each_stretch_by_the_probes_around_it():
    probe = speedprobe.SpeedProbe()
    nominal = speedprobe.NOMINAL_S
    # (start, end, kernel cpu): a baseline at nominal speed, then a probe
    # at half speed from t = 2 to 2.5, then one at nominal speed at t = 4
    probe.probes = [(0.0, 0.1, nominal), (2.0, 2.5, 2 * nominal), (4.0, 4.1, nominal)]
    scaled, raw = probe.scaled(1.0, 5.0)
    assert raw == pytest.approx(1.0 + 1.5 + 0.9)
    assert scaled == pytest.approx(1.0 / 1.5 + 1.5 / 1.5 + 0.9)
    # a span that ends inside a probe stops at the probe's start
    assert probe.scaled(1.0, 2.2) == pytest.approx((1.0 / 1.5, 1.0))


def test_probed_pass_reports_scaled_and_raw_times(tmp_path, monkeypatch):
    plan = workloads.ensemble(tmp_path, seed=4, n_items=2, t_end=5.0)
    monkeypatch.chdir(tmp_path)
    probe = speedprobe.SpeedProbe(period=0.05)
    result = passrun.run_pass(plan, probe=probe)
    assert [why for _, why in result["outcomes"]] == [None, None]
    assert len(result["probe_cpu_s"]) >= 2
    assert 0.0 < result["setup_raw_s"] < result["wall_s"]
    speed = result["solve_s"] / result["wall_s"]
    assert result["cpu_s"] == pytest.approx(result["cpu_raw_s"] * speed)
