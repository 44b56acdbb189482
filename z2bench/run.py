"""z2memory benchmark: time, CPU and memory of the paper's sweeps, checked
point by point.

    python3 z2bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (defined, with the reason for each, in workloads.py):
ground_scan, doublet_branch, thermal_decay, identity_reports.  Each runs
`z2mem` commands through `z2memory.cli.main`, and identity_reports also
calls library functions.  Every point of every pass is checked against
reference.json (relative 1e-9, absolute floor 1e-12) or, for the
valence-bond residue, against its exact law.

A run with --trace 0 starts WORKERS fresh interpreters (worker.py) one
after another, each for an equal share of --seconds.  Each imports
z2memory, runs one warm-up call per layer the workload uses, then runs full
passes back to back (a closed loop with one client).  It reports:
  setup_s      median over workers of spawn-to-warm-up-done seconds
  sweep_s      median wall seconds of one pass, over every pass
  cpu_s        median user+system CPU seconds of one pass (all threads)
  peak_rss_mb  median over workers of ru_maxrss, in MB
No timing percentile is reported: fewer than ten passes would lie beyond it.

A run with --trace 1 starts one worker that alternates untraced and traced
passes (spans.py) and reports the per-layer metrics, medians over traced
passes, plus trace.overhead_s: traced minus untraced median sweep seconds.

The last line of stdout is the result as JSON; the lines before it give
every sample, the failure fraction with its base and the environment.  BLAS
threads and `--threads` stay at the defaults a user gets, and are recorded.
--smoke shrinks every size and uses one worker; test_selftest.py uses it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import spans
import workloads
from worker import parse

WORKERS = 3
END_TO_END = {"setup_s": "s", "sweep_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**spans.LAYER_METRICS, "trace.overhead_s": "s"}


def spawn(args, seconds: float) -> tuple[float, dict]:
    """Run one worker; returns its set-up seconds and its result."""
    cmd = [sys.executable, str(workloads.HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=170)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker exited {proc.returncode}")
    return setup, json.loads(rest.splitlines()[-1])


def report(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} {value!r} {unit}  {note}".rstrip())


def main(argv=None) -> int:
    args = parse(argv)
    if not (workloads.SRC / "z2memory" / "__init__.py").is_file():
        sys.exit(f"z2bench: no z2memory package under {workloads.SRC}")
    n_workers = 1 if args.trace or args.smoke else WORKERS
    runs = [spawn(args, args.seconds / n_workers) for _ in range(n_workers)]

    setups = [s for s, _ in runs]
    passes = [p for _, r in runs for p in r["passes"]]
    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall"] for p in untraced]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload} seed {args.seed} inputs "
          f"{json.dumps(workloads.inputs(args.seed))}")
    print(f"env {json.dumps(runs[0][1]['env'])}")
    report("fail_frac", failed / attempted, "", f"failed {failed} of {attempted} points")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = spans.medians([p["layers"] for p in traced])
        traced_sweep = statistics.median(p["wall"] for p in traced)
        metrics = {name: layers[name] for name in spans.LAYER_METRICS}
        metrics["trace.overhead_s"] = traced_sweep - statistics.median(walls)
        for name, value in metrics.items():
            report(name, value, PER_LAYER[name])
        report("eigensolve.matvecs_per_pair base", layers["solve_matvecs"], "matvec",
               f"over {layers['pairs']} pairs")
        cover = layers["top_level_s"]
        report("traced sweep_s", traced_sweep, "s",
               f"library spans + cli.self_s cover {cover:.6f} s "
               f"({cover / traced_sweep:.1%}); {len(traced)} traced and "
               f"{len(untraced)} untraced passes")
        if len(traced) > 1:
            repeat = all(
                len({p["layers"][k] for p in traced}) == 1
                for k in ("model.apply_calls", "eigensolve.matvecs_per_pair")
            )
            print(f"counts repeat across traced passes: {repeat}")
        print(f"spans written to {runs[0][1]['spans_file']}")
    else:
        rss = [r["maxrss_kb"] * 1024 / 1e6 for _, r in runs]
        metrics = {
            "setup_s": statistics.median(setups),
            "sweep_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu"] for p in untraced),
            "peak_rss_mb": statistics.median(rss),
        }
        report("setup_s", metrics["setup_s"], "s", f"median of {setups}")
        report("sweep_s", metrics["sweep_s"], "s",
               f"median of {len(walls)} passes {[round(w, 4) for w in walls]}")
        report("cpu_s", metrics["cpu_s"], "s",
               f"median of {[round(p['cpu'], 4) for p in untraced]}")
        report("peak_rss_mb", metrics["peak_rss_mb"], "MB", f"median of {rss}")

    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
