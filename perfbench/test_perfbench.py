"""Self-tests of the benchmark: exact traced call counts, self-time
accounting, the correctness checks, and refusal outside a checkout.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run

# Exact call counts at seed 0.  A function that a kirchlab module imported
# by name and the tracer failed to rebind would under-count here.
EXPECTED_CALLS = {
    "resonance_2mode": {"dynamics.step_rotation": 31415, "dynamics.evolve_pair": 1},
    "simulate_narrow": {
        "dynamics.step_rotation": 40000,
        "energy.modified_energy": 12003,
        "energy.second_order_term": 12003,
    },
    "simulate_wide": {"energy.modified_energy": 12, "energy.second_order_term": 12},
}


def _traced_run(workload, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(run.workload_config(workload, 0)))
    out = tmp_path / "out"
    rec, problem = run.run_child(config_path, out, ("--trace", str(tmp_path / "spans.csv")))
    assert problem is None and rec is not None
    assert run.check_outputs(workload, out) == []
    return rec


@pytest.mark.parametrize("workload", sorted(EXPECTED_CALLS))
def test_traced_counts_and_self_time_accounting(workload, tmp_path):
    rec = _traced_run(workload, tmp_path)
    layers = rec["layers"]
    for span, calls in EXPECTED_CALLS[workload].items():
        assert layers[span]["calls"] == calls, span
    # every span but the config parse nests in cli.run, so the self times
    # inside it add up to its duration
    inside = sum(s["self_s"] for span, s in layers.items() if span != "config.parse_config")
    assert inside == pytest.approx(layers["cli.run"]["total_s"], rel=1e-9)
    assert layers["cli.run"]["total_s"] == pytest.approx(rec["run_s"], abs=1e-3)
    spans = (tmp_path / "spans.csv").read_text().splitlines()
    assert len(spans) - 1 == sum(s["calls"] for s in layers.values())


def test_drifting_hamiltonian_fails_the_check(tmp_path):
    rows = ["t,hamiltonian", "0.0,1.0", "0.1,1.0"]
    (tmp_path / "trajectory.csv").write_text("\n".join(rows) + "\n")
    assert run.check_outputs("simulate_narrow", tmp_path) == []
    (tmp_path / "trajectory.csv").write_text("\n".join(rows + ["0.2,1.000001"]) + "\n")
    assert run.check_outputs("simulate_narrow", tmp_path)


def test_reference_comparison_uses_the_stated_tolerance():
    ref = json.loads(run.REFERENCE.read_text())["simulate_narrow"]["files"]
    assert run.compare(ref, ref) == ([], True)
    got = copy.deepcopy(ref)
    row = got["trajectory.csv"]["rows"]["0"]
    row[1] *= 1 + run.REFERENCE_RTOL / 10
    assert run.compare(ref, got)[0] == []
    row[1] *= 1 + 10 * run.REFERENCE_RTOL
    assert run.compare(ref, got)[0]


def test_seed_reaches_only_data_seed():
    for workload in run.WORKLOADS:
        base, other = run.workload_config(workload, 0), run.workload_config(workload, 7)
        if workload.startswith("simulate"):
            assert other["data"].pop("seed") == 7 and base["data"].pop("seed") == 0
        assert base == other


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
