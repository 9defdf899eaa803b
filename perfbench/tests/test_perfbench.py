"""Tier-1 tests of the benchmark itself (toy sizes; seconds, not minutes)."""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from perfbench import compare, probes, run
from perfbench.trace import (
    LAYERS, STEP_LAYER, Tracer, layer_seconds, self_times, tail_percentile,
)
from perfbench.workloads import WORKLOADS, smoke

CONTRACT = run.load_contract()
REPORT = run.report_metrics()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PROBE_NAMES = probes.metric_names()


def child_env() -> dict:
    source = str(run.ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=(
        source + os.pathsep + inherited if inherited else source))


# -- BENCHMARK.json --------------------------------------------------------------
def test_contract_schema():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["perfbench"]
    assert CONTRACT["command"][:2] == ["python3", "perfbench/run.py"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in (*CONTRACT["end_to_end"], *CONTRACT["per_layer"]):
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_contract_names_the_workloads_and_probes_the_code_has():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in CONTRACT["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    per_layer = {metric["name"] for metric in CONTRACT["per_layer"]}
    assert PROBE_NAMES <= per_layer
    assert {f"{layer}_s" for layer in (*LAYERS, STEP_LAYER)} <= per_layer


# -- smoke: every workload, untraced and traced -----------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_untraced(name):
    result = run.measure(smoke(WORKLOADS[name]), seed=3, seconds=0.0, trace=False)
    assert result["correct"], result["checks"]
    assert result["failed"] == 0 and result["attempted"] == 3
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]
    for metric in CONTRACT["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        # Three toy rounds may not classify a single test sample yet.
        assert reported["value"] > 0 or metric["name"] == "final_accuracy"
    line = json.loads(run.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced(name):
    result = run.measure(smoke(WORKLOADS[name]), seed=3, seconds=0.0,
                         trace=True, with_probes=False)
    assert result["correct"], result["checks"]
    assert result["trace"]["unattached"] == []
    values = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert not PROBE_NAMES & set(values)
    assert all(value is not None for value in values.values())
    assert values["trace.unmeasured"] == 0
    assert (values["parallel.bytes_on_wire"] > 0) == (name == "conv_process")
    busiest = {"fedavg_conv": "parallel.train_full_s",
               "conv_process": "parallel.wait_s"}.get(name, "parallel.backward_s")
    assert values[busiest] > 0
    spans = result["trace"]["spans"]
    assert spans and all(span["end"] >= span["start"] for span in spans)
    steps = [span for span in spans if span["name"] == "session.step"]
    assert [span["round"] for span in steps] == [0, 1]  # round 2 runs untraced
    assert all(span["parent"] in {step["id"] for step in steps}
               for span in spans if span["name"] != "session.step")


def test_probes_smoke_cover_every_probe_metric():
    values, errors = probes.run_all(3, smoke=True)
    assert errors == {}
    assert set(values) == PROBE_NAMES
    assert all(math.isfinite(value) and value > 0 for value in values.values())


def test_failing_probe_reports_null_with_reason(monkeypatch):
    def broken(context):
        raise ImportError("moved away")

    monkeypatch.setattr(probes, "PROBES", [(broken, ("x.a_ms", "x.b_ms"))])
    values, errors = probes.run_all(3, smoke=True)
    assert values == {"x.a_ms": None, "x.b_ms": None}
    assert errors["x.a_ms"] == "ImportError: moved away"


# -- span arithmetic ----------------------------------------------------------------
def spans_of(*rows):
    """``(name, layer, start, end, parent, round)`` rows as tracer spans."""
    return [list(row) for row in rows]


def test_self_time_subtracts_the_interval_children_cover():
    spans = spans_of(
        ("session.step", STEP_LAYER, 0.0, 10.0, None, 1),
        ("executor.forward", "parallel.forward", 1.0, 4.0, 0, 1),
        ("executor.forward", "parallel.forward", 3.0, 6.0, 0, 1),  # overlaps
        ("server.evaluate", "core.evaluate", 8.0, 9.0, 0, 1),
        ("inner", "core.plan", 8.2, 8.7, 3, 1),
        ("session.step", STEP_LAYER, 10.0, 12.0, None, 2),
    )
    assert self_times(spans) == pytest.approx([4.0, 3.0, 3.0, 0.5, 0.5, 2.0])
    totals = layer_seconds(spans, [1, 2])
    assert totals[STEP_LAYER] == pytest.approx([4.0, 2.0])
    assert totals["parallel.forward"] == pytest.approx([6.0, 0.0])
    assert totals["core.plan"] == pytest.approx([0.5, 0.0])
    assert layer_seconds(spans, [2]) == {STEP_LAYER: pytest.approx([2.0])}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    hundred = [float(value) for value in range(100)]
    assert tail_percentile(hundred) == (89.0, 90.0)
    assert sum(value > 89.0 for value in hundred) == 10
    assert tail_percentile([float(v) for v in range(60)]) == (49.0, pytest.approx(83.3333333))
    # Too few samples for any tail: never below the median.
    assert tail_percentile([5.0, 1.0, 3.0]) == (3.0, pytest.approx(66.6666667))
    assert tail_percentile([float(v) for v in range(20)])[0] == 9.0


# -- attach points --------------------------------------------------------------------
def test_missing_attach_point_yields_null_not_an_exception():
    tracer = Tracer()
    engine = SimpleNamespace(policy=SimpleNamespace(plan_round=lambda ctx: "plan"))
    session = SimpleNamespace(algorithm=SimpleNamespace(engine=engine))
    components = SimpleNamespace(executor=None)
    assert tracer.attach(components, "executor") is False
    tracer.attach_engine(session)
    assert tracer.unattached == ["executor", "server"]
    with tracer.step(0):
        assert engine.policy.plan_round(None) == "plan"
    assert tracer.layer_known("core.plan")
    assert not tracer.layer_known("core.evaluate")
    assert not tracer.layer_known("parallel.forward")
    assert [span[0] for span in tracer.spans] == ["session.step", "policy.plan_round"]

    bare = Tracer()
    bare.attach_engine(SimpleNamespace(algorithm=object()))
    assert bare.unattached == ["engine"] and not bare.layer_known("core.plan")


def test_proxy_delegates_and_records_only_inside_a_step():
    class Executor:
        name = "fake"

        def forward(self, workers, sizes):
            return workers, sizes

    owner = SimpleNamespace(executor=Executor())
    tracer = Tracer()
    tracer.attach(owner, "executor")
    assert owner.executor.name == "fake"
    assert owner.executor.forward(1, 2) == (1, 2) and tracer.spans == []
    owner.executor.mark = 5
    assert owner.executor.mark == 5
    assert "executor.install" in tracer.unattached  # a required method is absent
    assert tracer.layer_known("parallel.forward")
    assert not tracer.layer_known("parallel.install")


# -- compare ---------------------------------------------------------------------------
def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, [1.02, 1.03, 1.02, 1.04], "lower", 0.1) == "ok"
    assert compare.verdict(steady, [1.20, 1.21, 1.19, 1.22], "lower", 0.1) == "worse"
    assert compare.verdict(steady, [0.80, 0.81, 0.79, 0.82], "higher", 0.1) == "worse"
    noisy = [0.7, 1.0, 1.3, 1.0]
    assert compare.verdict(noisy, [1.0, 0.9, 1.1, 1.05], "lower", 0.1) == "unresolved"
    # Wide spread, but every run of B beats every run of A.
    assert compare.verdict(noisy, [0.5, 0.4, 0.6, 0.3], "lower", 0.1) == "ok"


def test_compare_flags_regressions_failures_and_differences():
    def result(round_s, failed=0, accuracy=1.0):
        e2e = {m["name"]: {"values": [1.0, 1.0, 1.0]} for m in REPORT}
        e2e["round_s"] = {"values": round_s}
        return {"seed": 7, "workloads": {"conv_serial": {
            "end_to_end": e2e, "rounds_attempted": 30, "rounds_failed": failed,
            "exact": {"final_accuracy": accuracy},
        }}}

    base = result([1.0, 1.0, 1.0])
    rows, regressed = compare.compare(base, result([1.0, 1.01, 1.0]), REPORT)
    assert not regressed and {row["verdict"] for row in rows} == {"ok", "same"}
    rows, regressed = compare.compare(base, result([1.5, 1.5, 1.5]), REPORT)
    assert regressed
    assert [r["metric"] for r in rows if r["verdict"] == "worse"] == ["round_s"]
    __, regressed = compare.compare(base, result([1.0, 1.0, 1.0], failed=1), REPORT)
    assert regressed
    rows, regressed = compare.compare(
        base, result([1.0, 1.0, 1.0], accuracy=0.9), REPORT)
    assert not regressed and "differs" in {row["verdict"] for row in rows}
    assert "conv_serial" in compare.format_rows(rows)


# -- the commands ------------------------------------------------------------------------
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl and /proc")
def test_contract_command_prints_one_result_line_and_leaves_no_process():
    """``conv_process``: the shm transport's resource tracker outlives a parent
    that does not stop it; as sub-reaper this process would inherit it."""
    import ctypes

    prctl = ctypes.CDLL(None).prctl
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    try:
        before = set(run.child_pids())
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "conv_process",
             "--seed", "5", "--seconds", "0", "--trace", "0", "--smoke"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=120,
        )
        left = set(run.child_pids()) - before
    finally:
        prctl(36, 0, 0, 0, 0)
    assert completed.returncode == 0, completed.stderr
    assert left == set()
    line = json.loads(completed.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_contract_command_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_mlp",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_full_command_smoke(tmp_path):
    out = tmp_path / "result.json"
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--repeats", "1",
         "--workload", "fleet_mlp", "--seed", "5", "--out", str(out)],
        cwd=run.ROOT, env=child_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(out.read_text())
    assert result["ok"] and result["host"]["nproc"] >= 1
    workload = result["workloads"]["fleet_mlp"]
    assert workload["rounds_failed"] == 0 and workload["unattached"] == []
    assert set(workload["end_to_end"]) == {m["name"] for m in REPORT}
    assert set(result["probes"]) == PROBE_NAMES and result["probe_errors"] == {}
    for metric in (*REPORT, *CONTRACT["per_layer"]):
        assert metric["name"] in completed.stdout
    assert (run.RESULTS / "trace_fleet_mlp.json").exists()
