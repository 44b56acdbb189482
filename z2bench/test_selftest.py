"""Self-test of the benchmark harness, at reduced sizes.

    python3 -m pytest z2bench/test_selftest.py

Runs every workload through run.py in both modes and checks that each
metric named in BENCHMARK.json prints with its unit, that every point
passes, and that the solver counts used as named counts repeat exactly
between two passes.
"""

import json
import subprocess
import sys

import pytest

import spans
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(workloads.HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=workloads.ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


def test_benchmark_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    stdout, result = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        assert f"\n{m['name']} " in "\n" + stdout
    assert "fail_frac 0.0" in stdout


@pytest.mark.parametrize("workload", ["ground_scan", "doublet_branch"])
def test_solver_counts_repeat_between_passes(workload):
    z2 = workloads.import_package()
    step_list = workloads.steps(workload, 0, "smoke")
    tracer = spans.Tracer()
    counts = []
    for _ in range(2):
        tracer.install()
        try:
            workloads.run_steps(step_list, z2)
        finally:
            tracer.uninstall()
        layers = spans.layer_metrics(tracer.take())
        counts.append((layers["model.apply_calls"], layers["eigensolve.matvecs_per_pair"]))
    assert counts[0] == counts[1]
    assert not hasattr(z2.cli.build_vcm, "__wrapped__")  # uninstall restored it
    assert counts[0][0] > 0 and counts[0][1] > 0
