"""Tests of the benchmark itself: span arithmetic, gates, tracer robustness, spec."""

import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracer as tracing
import workloads
from qetsim import chain, cooling, protocol

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9] > c again [6, 8]
    tr = tracing.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
    with tr.span("root", "bench"):
        with tr.span("m.a", "m"):
            with tr.span("n.b", "n"):
                pass
        with tr.span("m.c", "m"):
            with tr.span("m.c", "m"):
                pass
    out = tr.summary(1)
    assert out["root.self_s"] == 3          # 10 - (4 - 1) - (9 - 5)
    assert out["m.a.s"] == 3 and out["m.a.self_s"] == 2
    assert out["n.b.s"] == 1 and out["n.b.self_s"] == 1
    # a span nested in itself counts one call and its outer duration only
    assert out["m.c.calls"] == 1 and out["m.c.s"] == 4 and out["m.c.self_s"] == 4
    assert out["m.s"] == 7 and out["m.self_s"] == 6
    assert out["bench.self_s"] + out["m.self_s"] + out["n.self_s"] == out["root.s"] == 10


def test_summary_is_per_operation():
    tr = tracing.Tracer(clock=fake_clock(range(100)))
    for _ in range(2):
        with tr.span("root", "bench"):
            with tr.span("m.a", "m"):
                pass
    out = tr.summary(2)
    assert out["root.calls"] == 1 and out["m.a.calls"] == 1 and out["m.a.s"] == 1


@pytest.fixture(scope="module")
def small_chain():
    return chain.calibrated_chain(8, seed=3)


def test_ground_gate_accepts_and_rejects(small_chain):
    gate = workloads.Ground(n_sites=8)
    inputs = gate.prepare(3)
    spec, res = small_chain
    assert gate.check(inputs, (spec, res)) == []
    shifted = spec.with_epsilon(np.asarray(spec.epsilon) + 1e-6)
    assert gate.check(inputs, (shifted, res))
    bent = res.state.copy()
    bent[0] += 1e-6
    bent /= np.linalg.norm(bent)
    res_bent = type(res)(res.energy, bent, res.residual, res.iterations)
    assert gate.check(inputs, (spec, res_bent))


def test_free_fermion_reference_matches_solver(small_chain):
    spec, _ = small_chain
    assert abs(sum(spec.epsilon) - workloads.free_fermion_ground_energy(8)) < 1e-12


def cool_doc(e_r):
    return {"e_r_numeric": e_r, "e_a": e_r + 1.0, "e_b": 0.03}


def test_cool_gate_accepts_and_rejects():
    e_r = workloads.residual_energy_formula(12)
    assert workloads.check_cool((0, cool_doc(e_r)), e_r) == []
    assert workloads.check_cool((0, cool_doc(e_r + 1e-4)), e_r)
    assert workloads.check_cool((1, cool_doc(e_r)), e_r)
    assert workloads.check_cool((0, dict(cool_doc(e_r), e_b=e_r + 1e-3)), e_r)
    assert workloads.check_cool((0, dict(cool_doc(e_r), e_a=e_r - 1e-3)), e_r)
    assert workloads.check_cool((1, None), e_r)


def test_residual_energy_formula_tends_to_paper_value():
    assert abs(workloads.residual_energy_formula(10**6) - (6 / math.pi - 1)) < 1e-9


def sweep_doc(reference, ok=True):
    rows = [{"n": n, "distance": d, "eb_numeric": v} for (n, d), v in sorted(reference.items())]
    return {"rows": rows, "checks": {"eb_decreasing_with_distance": ok}}


def test_sweep_gate_accepts_and_rejects():
    reference = workloads.Sweep().prepare(0)["reference"]
    assert len(reference) == 15
    assert workloads.check_sweep((0, sweep_doc(reference)), reference) == []
    key = (16, 8)
    perturbed = dict(reference)
    perturbed[key] = reference[key] * (1 + 1e-4)
    assert workloads.check_sweep((0, sweep_doc(perturbed)), reference)
    missing = {k: v for k, v in reference.items() if k != key}
    assert workloads.check_sweep((0, sweep_doc(missing)), reference)
    assert workloads.check_sweep((0, sweep_doc(reference, ok=False)), reference)
    assert workloads.check_sweep((1, sweep_doc(reference)), reference)


def test_sweep_reference_records_provenance():
    doc = json.loads(workloads.REFERENCE_SWEEP.read_text(encoding="utf-8"))
    assert "seed 0" in doc["provenance"] and "commit" in doc["provenance"]


def traced(op):
    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        with tr.span(tracing.ROOT, "bench"):
            op()
    finally:
        restore()
    return tr


def test_tracer_reaches_names_imported_into_other_modules(small_chain):
    spec, res = small_chain
    original = protocol.build_hamiltonian
    setup = protocol.MeasurementSetup.cardinal("x", "x")
    tr = traced(lambda: protocol.run_protocol(spec, setup, ground=res))
    out = tr.summary(1)
    # protocol binds build_hamiltonian with `from .chain import ...`
    assert out["chain.build_hamiltonian.calls"] >= 1
    assert out["protocol.run_protocol.calls"] == 1
    assert out["protocol.applies_per_run"] == out["pauli.apply.calls"]
    assert protocol.build_hamiltonian is original is chain.build_hamiltonian


def test_tracer_survives_missing_functions(monkeypatch):
    monkeypatch.delattr(protocol, "correlation_tensors")
    monkeypatch.delattr(cooling, "OutcomeObjective")
    monkeypatch.delattr(chain.HermitianOperator, "from_strings")
    tr = traced(lambda: chain.HermitianOperator(4, ()))
    out = tr.summary(1)
    assert "protocol.correlation_tensors.s" not in out
    assert "cooling.objective" in tr.absent
    # construction is still timed through __init__ when from_strings is gone
    assert "pauli.operator_build" not in tr.absent
    assert out["pauli.operator_build.calls"] == 1


def test_counts_repeat_for_a_fixed_seed():
    keys = ("pauli.apply.calls", "pauli.apply.term_passes", "pauli.apply.bytes_computed",
            "eigensolver.ground_state.matvecs", "pauli.operator_build.calls")
    sweep = workloads.Sweep(sizes=(8,))
    inputs = sweep.prepare(5)
    first, second = (traced(lambda: sweep.run(inputs)).summary(1) for _ in range(2))
    assert all(first[k] == second[k] > 0 for k in keys)
    # every per-layer metric the spec names is one the tracer or run.py produces
    added_by_run = {"trace.solve_s", "trace.overhead_s", "trace.spans", "bench.unattributed_s"}
    assert {m["name"] for m in SPEC["per_layer"]} <= set(first) | added_by_run


def test_objective_evaluations_repeat_for_a_fixed_seed(small_chain):
    params = inspect.signature(cooling.minimize_residual).parameters
    if not {"restarts", "max_evals"} <= set(params):
        pytest.skip("the simplex search no longer takes restarts and max_evals")
    spec, res = small_chain
    setup = protocol.MeasurementSetup.cardinal("y", "x")

    def op():
        cooling.minimize_residual(spec, setup, restarts=2, max_evals=200, ground=res)

    counts = [traced(op).summary(1) for _ in range(2)]
    assert counts[0]["cooling.objective.evals"] == counts[1]["cooling.objective.evals"] > 0
    assert counts[0]["cooling.restart_hit_ratio"] == counts[1]["cooling.restart_hit_ratio"]


def test_each_workload_has_a_one_sentence_reason():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        why = w["why"]
        assert why.endswith(".") and "\n" not in why and len(why) <= 200
        assert ". " not in why[:-1], f"{w['name']}: more than one sentence"


def test_spec_bounds_and_metric_names():
    names = [m["name"] for m in SPEC["end_to_end"]] + [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "solve_s", "cpu_s", "peak_rss_mb"} == {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ground",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
