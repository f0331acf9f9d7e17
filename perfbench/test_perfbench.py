"""Self-test of the benchmark: tiny runs of every workload, metric names
against BENCHMARK.json, failure accounting, and the bare-directory refusal.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import calibration
import run
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    assert f"PYTHONHASHSEED={run.hash_seed(3)}" in out.stdout
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        for name in ("minors.find_minor.hit_ratio", "dilution.reachable_dilutions.new_state_ratio"):
            assert 0 <= result["metrics"][name]["value"] <= 1


def test_workload_names_match():
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_layer_map_names_known_metrics():
    layer_map = json.loads((HERE / "layers.json").read_text())
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    names = set(workloads.WORKLOADS)
    for row in layer_map:
        assert set(row["layer"]) <= per_layer
        assert set(row["moves"]) <= end_to_end
        assert row["workload"] in names and set(row["no_change"]) <= names


def _phase(patch):
    lib = run.library()
    w = workloads.Degree2Sweep(lib, 1, tiny=True)
    jobs = w.round(0)
    patch(lib)
    return run.measure(w, lib, jobs, 0, [None])[None]


def test_wrong_answer_counts_as_failure(monkeypatch):
    phase = _phase(
        lambda lib: monkeypatch.setattr(lib.minors, "find_minor", lambda *a, **k: None),
    )
    assert phase.failures and phase.wrong == len(phase.failures)
    assert "disagree" in phase.failures[0]


def test_budget_exhaustion_fails_without_being_wrong(monkeypatch):
    def exhausted(*args, **kwargs):
        raise run.library().errors.BudgetExceededError("budget")

    phase = _phase(
        lambda lib: monkeypatch.setattr(lib.dilution, "reachable_dilutions", exhausted),
    )
    assert len(phase.failures) == phase.attempted and phase.wrong == 0


def test_corpus_is_reduced_connected_degree2():
    lib = run.library()
    w = workloads.Degree2Sweep(lib, 1)
    assert len(w.hosts) == 206 and len(w.targets) == 31
    hg = lib.hypergraph
    for h in w.hosts:
        assert h.is_reduced() and h.max_degree() <= 2 and hg.is_connected(h)
        assert len(h.edges) <= 6
    assert len({hg.canonical_form(h) for h in w.hosts}) == 206


def test_width_corpus_sizes():
    lib = run.library()
    w = workloads.WidthOracles(lib, 1)
    assert len(w.tw_graphs) == 20 and len(w.ghw_graphs) == 30
    for h in w.tw_graphs:
        assert 10 <= len(h.vertices) <= 12 and h.rank() <= 2
        assert lib.hypergraph.is_connected(h)
    for h in w.ghw_graphs:
        assert 10 <= len(h.vertices) <= 12 and 7 <= len(h.edges) <= 9
        assert h.max_degree() <= 3 and h.rank() <= 4 and lib.hypergraph.is_connected(h)


def test_scaling_cancels_machine_speed(monkeypatch):
    """A piece timed while the kernel runs at twice its reference time reads
    half its wall time; the samples on both sides of a piece count equally."""
    speeds = iter([2, 2, 2, 4])
    monkeypatch.setattr(
        calibration, "sample", lambda: next(speeds) * calibration.REF_S
    )
    scaler = calibration.Scaler()
    for took in (0.01, 0.01, 0.03, 0.03):
        scaler.add(took)
    assert scaler.raw() == [0.01, 0.01, 0.03, 0.03]
    assert scaler.scaled() == pytest.approx([0.005, 0.005, 0.015, 0.01])


def test_same_seed_same_inputs():
    lib = run.library()
    cq = workloads.CqCount(lib, 5, tiny=True)
    draw = lambda: cq._random_instance(workloads.rng_for(cq.name, 5, 1))  # noqa: E731
    assert draw() == draw()
    mesh = lib.generators.mesh(3, 4)
    copy = lambda: workloads.relabel(lib, mesh, workloads.rng_for("x", 5, 0), "v")  # noqa: E731
    assert copy() == copy() != mesh


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "cq-count", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
