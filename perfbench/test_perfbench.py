"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

The traced runs march every workload to its horizon twice, so this takes a
few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# self times that partition a traced march (the set-up layers do not run in it)
SELF_TIMES = (
    "fespace.drift_s", "detector.alpha_s", "stabilizer.alg1_s",
    "stabilizer.alg2_s", "stabilizer.transport_s", "solver.lu_factor_s",
    "solver.lu_solve_s", "solver.poisson_self_s", "solver.residual_self_s",
    "solver.sweep_self_s", "solver.step_self_s", "diagnostics.report_s",
    "trace.unattributed_s",
)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600, check=False)
    return proc


def traced(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0.1",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def counts(detail):
    layers = detail["layers"]
    out = {k: v for k, v in layers.items() if k.endswith("_calls")}
    out["solver.lu_nnz"] = layers["solver.lu_nnz"]
    out["solver.residuals_per_iter"] = layers["solver.residuals_per_iter"]
    out["picard_iters_per_step"] = detail["e2e"]["picard_iters_per_step"]
    return out


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def traced_pair(request):
    return traced(request.param), traced(request.param)


def test_traced_counts_repeat(traced_pair):
    (d1, r1), (d2, r2) = traced_pair
    assert counts(d1) == counts(d2)
    for result in (r1, r2):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(d1["layers"])


def test_self_times_partition_the_traced_march(traced_pair):
    (detail, _), _ = traced_pair
    layers = detail["layers"]
    total = sum(layers[k] for k in SELF_TIMES)
    assert total == pytest.approx(layers["trace.march_s"], rel=1e-9)
    assert layers["trace.overhead_s"] == pytest.approx(
        layers["trace.march_s"] - detail["e2e"]["march_s"], rel=1e-9)


def test_bypassed_layers_read_zero(traced_pair):
    (detail, _), _ = traced_pair
    layers = detail["layers"]
    if detail["workload"] == "wave-a2-c025":
        bypassed = ("fespace.drift_calls", "stabilizer.alg1_calls")
        used = ("stabilizer.alg2_calls", "stabilizer.transport_calls")
    else:
        bypassed = ("stabilizer.alg2_calls", "stabilizer.transport_calls")
        used = ("fespace.drift_calls", "stabilizer.alg1_calls")
    assert all(layers[k] == 0 for k in bypassed)
    assert all(layers[k] > 0 for k in used)


def test_benchmark_json_matches_the_output(traced_pair):
    (detail, _), _ = traced_pair
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {w["name"]: w["why"] for w in spec["workloads"]}[
        detail["workload"]] == detail["why"]
    assert {m["name"] for m in spec["per_layer"]} == set(detail["layers"])
    assert {m["name"] for m in spec["end_to_end"]} == set(detail["e2e"])
    in_process()
    import measure
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in measure.LAYERS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(measure.END_TO_END)


def in_process():
    """Make pnpfem and the benchmark's modules importable in this process."""
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def test_missing_boundary_is_reported_absent(monkeypatch):
    in_process()
    import measure
    import pnpfem.solver
    import tracing
    from workloads import WORKLOADS

    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + (
        (pnpfem.solver, "picard_step_alg3", "solver.step"),))
    scenario = WORKLOADS["selective-a1-c025"].scenario(0, T=0.02)
    m = measure.march(scenario, None, tracing.Tracer())
    layers, absent = measure.layer_metrics(m, m.march_s)
    assert m.failed == 0 and m.attempted == 2
    assert absent == ["solver.step_self_s", "solver.unconverged_steps"]
    assert not set(absent) & set(layers)
    assert layers["solver.sweep_calls"] > 0


def test_reference_tolerance_separates_drift_from_defects():
    in_process()
    import reference
    from pnpfem.diagnostics import CSV_COLUMNS, StepReport

    ref = reference.load("wave-a2-c025")
    # channel at cell 0.25: smallest lumped mass 1/96, area 20
    tol = reference.Tolerance(ref, tau=1e-6, k=1e-2, d_min=1 / 96, area=20.0)
    m = 20
    for column in ("mass_p", "entropy", "min_n"):
        t = tol.column_tol(column, m)
        for shift, expected in ((0.5 * t, []), (2.0 * t, [column])):
            row = StepReport(**{c: getattr(ref[m], c) for c in CSV_COLUMNS})
            setattr(row, column, getattr(row, column) + shift)
            assert [c for c, _, _ in tol.mismatches(m, row, ref[m])] \
                == expected


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "wave-a2-c025", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
