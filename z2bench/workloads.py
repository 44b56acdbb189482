"""Workloads of the z2memory benchmark: seeded inputs, steps and point checks.

A workload is a fixed list of steps.  A step is one `z2mem` invocation
through `z2memory.cli.main`, or one public library call.  Each step yields
points (CSV data rows, or one number for a library call), and every point
is checked against the values recorded in `reference.json` at the commit
that defined the benchmark, or against an exact law.

This module imports only the standard library, so the set-up probe pays
nothing for it beyond what `z2mem` itself costs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# Seeds are reduced modulo VARIANTS; reference.json holds every variant.
VARIANTS = 16
RTOL = 1e-9
# Absolute floor for values that are roundoff residuals or far tails of a
# distribution, where a relative tolerance means nothing.
ATOL = 1e-12
KEY_RTOL = 1e-12  # numeric key columns (lambda, n, kt, mz) must match this well

WORKLOADS = {
    "ground_scan": (
        "k=1 Krylov solves over N=8..14 at ordered, critical and disordered "
        "fields plus one VCM each: the eigensolve/macroscopicity workload, "
        "bypasses thermal"
    ),
    "doublet_branch": (
        "k=2 deflated solves on the exponentially split doublet, recombination "
        "and the Mz histogram: same solver as ground_scan, used differently"
    ),
    "thermal_decay": (
        "full spectrum, Gibbs states and W at N=8 (row cache) and N=9 "
        "(blocked branch): the thermal workload, bypasses the Krylov solver"
    ),
    "identity_reports": (
        "valence-bond identities, Pauli two-point scans and stabilizer "
        "algebra: reaches rvb and pauli, fixed per-call cost dominates"
    ),
}

# Value columns per command and their relative tolerance; every other
# column is a key that must match the reference.  adiabatic_time is
# 1/gap^2, so it inherits twice the gap's relative tolerance.
VALUE_COLUMNS = {
    "scan-e1": {"e1": RTOL},
    "e2": {"e2": RTOL},
    "gap": {"gap": RTOL, "adiabatic_time": 2 * RTOL},
    "superpose": {"e1": RTOL},
    "pz": {"probability": RTOL},
    "thermal": {"e1": RTOL},
    "rvb": {"observed": RTOL},
    "stabilizer": {
        "product_identity_residual": RTOL,
        "flip_commutation_residual": RTOL,
        "phase_commutation_residual": RTOL,
        "logical_anticommutator_residual": RTOL,
    },
}


@dataclass(frozen=True)
class Step:
    """One timed unit of a workload.

    ``argv`` is a `z2mem` command line for a CLI step; for a library step
    ``func`` names a public function of `z2memory.rvb` called with ``n``.
    """

    label: str
    argv: tuple = ()
    func: str = ""
    n: int = 0


def inputs(seed: int) -> dict:
    """Field values and temperature endpoints of a seed.

    Variant 0 is the paper's grid.  Other variants draw each field from a
    band around it that keeps its phase at these sizes (ordered 0.5, critical
    1.0, disordered 1.5) and shift the kT endpoints; the sweep sizes, and so
    the work per pass, stay the same.
    """
    variant = seed % VARIANTS
    if variant == 0:
        return {"lam_ordered": 0.5, "lam_critical": 1.0, "lam_disordered": 1.5,
                "kt_min": 0.05, "kt_max": 2.0}
    rng = random.Random(variant)
    return {
        "lam_ordered": round(0.5 * (1.0 + rng.uniform(-0.04, 0.04)), 4),
        "lam_critical": round(1.0 + rng.uniform(-0.01, 0.01), 4),
        "lam_disordered": round(1.5 * (1.0 + rng.uniform(-0.04, 0.04)), 4),
        "kt_min": round(0.05 * (1.0 + rng.uniform(-0.1, 0.1)), 5),
        "kt_max": round(2.0 * (1.0 + rng.uniform(-0.1, 0.1)), 4),
    }


# Sizes of each pass: "full" is measured, "warm" is the warm-up (one call
# into each layer, at sizes that reach the same threaded BLAS paths),
# "smoke" is the self-test.  n: scan range; thermal: (N, --kt-points) per
# call, None keeping the default 40; stabilizer: its n-max; rvb: sizes of
# the residue scans, the last one also gets rvb_vcm_check.
SIZES = {
    "full": {"n": (8, 14), "thermal": ((8, None), (9, 12)), "stabilizer": 12,
             "rvb": (8, 10, 12)},
    "warm": {"n": (11, 12), "thermal": ((8, 2), (9, 2)), "stabilizer": 9,
             "rvb": (10,)},
    "smoke": {"n": (5, 8), "thermal": ((5, 6), (6, 3)), "stabilizer": 6,
              "rvb": (4, 6, 8)},
}


def _cli(label: str, *argv) -> Step:
    return Step(label=label, argv=tuple(str(a) for a in argv if a is not None))


def steps(workload: str, seed: int, size: str = "full") -> list[Step]:
    """The steps of one pass of a workload at one of the SIZES."""
    p = inputs(seed)
    lo, lc, ld = p["lam_ordered"], p["lam_critical"], p["lam_disordered"]
    sz = SIZES[size]
    n_range = ("--n-min", sz["n"][0], "--n-max", sz["n"][1])
    if workload == "ground_scan":
        return [
            _cli("scan-e1", "scan-e1", *n_range, "--lambdas", f"{lo},{lc},{ld}"),
            _cli("e2", "e2", *n_range, "--lambda", lo),
        ]
    if workload == "doublet_branch":
        return [
            _cli("gap", "gap", *n_range, "--lambda", lo),
            _cli("superpose", "superpose", *n_range, "--lambda", lo),
            _cli("pz", "pz", "--n", sz["n"][1], "--lambda", lo, "--state", "superposed"),
        ]
    if workload == "thermal_decay":
        return [
            _cli(f"thermal-n{n}", "thermal", "--n", n, "--lambda", lo,
                 "--kt-min", p["kt_min"], "--kt-max", p["kt_max"],
                 *(("--kt-points", points) if points else ()))
            for n, points in sz["thermal"]
        ]
    if workload == "identity_reports":
        # No field enters these identities, so the seed changes nothing here.
        # rvb runs at N=14: below it the command checks the 07b claim and
        # exits 1 by design.
        ns = sz["rvb"]
        return [
            _cli("rvb", "rvb", "--n", 14),
            _cli("stabilizer", "stabilizer", "--n-min", 3, "--n-max", sz["stabilizer"]),
            *(Step(label=f"connected_correlation_scan({n})",
                   func="connected_correlation_scan", n=n) for n in ns),
            Step(label=f"rvb_vcm_check({ns[-1]})", func="rvb_vcm_check", n=ns[-1]),
        ]
    raise KeyError(f"unknown workload {workload!r}")


def git_sha() -> str | None:
    """HEAD of the repository holding the benchmark, or None outside git.
    The ceiling keeps git from searching directories above that root."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def import_package():
    """Import z2memory from the source tree next to the benchmark."""
    if not (SRC / "z2memory" / "__init__.py").is_file():
        raise FileNotFoundError(f"no z2memory package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import z2memory.cli  # noqa: F401  (loads every module of the package)

    return sys.modules["z2memory"]


def execute(step: Step, z2):
    """Run one step; a CLI step gives (exit code, stdout), a library step a float.

    Library functions are looked up at call time so a tracer's wrappers apply.
    """
    if step.func:
        return float(getattr(z2.rvb, step.func)(step.n))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = z2.cli.main(list(step.argv))
    return code, out.getvalue()


def run_steps(step_list, z2) -> list:
    """Outputs of every step; an exception becomes its output, so the point
    checks count it as failed points instead of ending the run."""
    outputs = []
    for step in step_list:
        try:
            outputs.append(execute(step, z2))
        except Exception as exc:  # noqa: BLE001  (reported per point)
            outputs.append(exc)
    return outputs


def warm_up(workload: str, seed: int, size: str, z2) -> None:
    """Run the warm-up steps; a failing step ends the benchmark.  The first
    threaded BLAS calls of a process can take ~0.3 s each instead of ~6 ms;
    the warm-up absorbs them so they land in setup_s, not in sweep_s."""
    for step in steps(workload, seed, size):
        out = execute(step, z2)
        if not step.func and out[0] != 0:
            raise RuntimeError(f"warm-up step {step.label} exited {out[0]}")


def table(csv_text: str) -> dict:
    """Header and data rows of a z2mem CSV, '#' comment lines skipped."""
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return {"header": rows[0] if rows else [], "rows": rows[1:]}


def rvb_residue(n: int) -> float:
    """Exact connected correlation at ring distance >= 2 in the two-covering
    superposition: 1/(2^(N/2-1) - (-1)^(N/2)), from the covering overlap
    (-1/2)^(N/2-1)."""
    return 1.0 / (2 ** (n // 2 - 1) - (-1) ** (n // 2))


def _close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * abs(ref) + ATOL


def _key_matches(a: str, b: str) -> bool:
    try:
        return abs(float(a) - float(b)) <= KEY_RTOL * abs(float(b))
    except ValueError:
        return a == b


def _row_ok(row, ref_row, header, values) -> bool:
    if len(row) != len(ref_row):
        return False
    for name, cell, ref_cell in zip(header, row, ref_row):
        if name in values:
            try:
                if not _close(float(cell), float(ref_cell), values[name]):
                    return False
            except ValueError:
                return False
        elif not _key_matches(cell, ref_cell):
            return False
    return True


def check_step(step: Step, output, ref) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one step's points.

    A CLI step has one point per reference data row; flags that differ from
    the recorded ones, a nonzero exit, an exception, a changed header or a
    changed row count fail all of them.
    A library step is one point.
    """
    if step.func:
        target = (rvb_residue(step.n) if step.func == "connected_correlation_scan"
                  else ref["value"])
        if isinstance(output, Exception):
            return 1, 1, [f"{step.label}: {output!r}"]
        if not _close(output, target, RTOL):
            return 1, 1, [f"{step.label}: {output!r} != {target!r}"]
        return 1, 0, []

    ref_rows = ref["rows"]
    attempted = len(ref_rows)
    if isinstance(output, Exception):
        return attempted, attempted, [f"{step.label}: {output!r}"]
    if list(step.argv) != ref["argv"]:
        return attempted, attempted, [f"{step.label}: reference recorded for {ref['argv']}"]
    code, text = output
    if code != 0:
        return attempted, attempted, [f"{step.label}: exit {code}"]
    got = table(text)
    if got["header"] != ref["header"]:
        return attempted, attempted, [f"{step.label}: header {got['header']}"]
    if len(got["rows"]) != attempted:
        return attempted, attempted, [f"{step.label}: {len(got['rows'])} rows"]
    values = VALUE_COLUMNS[step.argv[0]]
    problems = [
        f"{step.label} row {i}: {row} vs {ref_row}"
        for i, (row, ref_row) in enumerate(zip(got["rows"], ref_rows))
        if not _row_ok(row, ref_row, ref["header"], values)
    ]
    return attempted, len(problems), problems


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def reference_for(refs: dict, workload: str, seed: int, size: str) -> dict:
    """Recorded outputs of one workload and seed, keyed by step label."""
    return refs[size][workload][str(seed % VARIANTS)]
