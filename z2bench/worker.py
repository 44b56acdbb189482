"""One fresh interpreter of a benchmark run, started by run.py.

    python3 z2bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Imports z2memory, runs the workload's warm-up and prints ``ready``: run.py
times set-up from spawn to that line.  Then it runs full passes for about
--seconds (each pass starts only while time is left, and at least one runs;
with --trace 1 untraced and traced passes alternate, at least one of each),
checks every point after its pass, and prints one JSON line: the passes, the
process's ru_maxrss and the environment.  Failed points go to stderr.
Traced passes write their spans to .z2bench_out/ before the JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import sys
import time

import spans
import workloads

OUT_DIR = workloads.ROOT / ".z2bench_out"


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, self-test")
    return parser.parse_args(argv)


def environment(z2) -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        dep = config["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "z2memory").rglob("*.py")):
        digest.update(path.relative_to(workloads.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:  # the --threads default a z2mem user gets
        threads = z2.cli._build_parser().parse_args(["scan-e1"]).threads
    except (AttributeError, SystemExit):
        threads = None
    return {
        "git_sha": workloads.git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "threads": threads,
    }


def run_pass(step_list, ref, z2, tracer=None) -> tuple[dict, list]:
    """One timed pass, then its point checks; returns the pass and its spans."""
    if tracer:
        tracer.install()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        outputs = workloads.run_steps(step_list, z2)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if tracer:
            tracer.uninstall()
    attempted = failed = 0
    for step, out in zip(step_list, outputs):
        a, f, problems = workloads.check_step(step, out, ref.get(step.label))
        attempted += a
        failed += f
        for line in problems[:10]:
            print(f"point failed: {line}", file=sys.stderr)
    recorded = tracer.take() if tracer else []
    return {
        "traced": bool(tracer),
        "wall": wall,
        "cpu": cpu,
        "attempted": attempted,
        "failed": failed,
        "layers": spans.layer_metrics(recorded) if tracer else None,
    }, recorded


def measure(args, z2) -> tuple[list[dict], list]:
    size = "smoke" if args.smoke else "full"
    step_list = workloads.steps(args.workload, args.seed, size)
    ref = workloads.reference_for(workloads.load_reference(), args.workload, args.seed, size)
    tracer = spans.Tracer() if args.trace else None
    kinds = itertools.cycle((False, True)) if args.trace else itertools.repeat(False)
    passes, traced_spans = [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline or (
        args.trace and len({p["traced"] for p in passes}) < 2
    ):
        p, recorded = run_pass(step_list, ref, z2, tracer if next(kinds) else None)
        passes.append(p)
        if p["traced"]:
            traced_spans.append(recorded)
    return passes, traced_spans


def main(argv=None) -> None:
    args = parse(argv)
    z2 = workloads.import_package()
    workloads.warm_up(args.workload, args.seed, "smoke" if args.smoke else "warm", z2)
    print("ready", flush=True)
    passes, traced_spans = measure(args, z2)
    result = {
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(z2),
    }
    if traced_spans:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        spans.write_spans(path, traced_spans)
        result["spans_file"] = path.relative_to(workloads.ROOT).as_posix()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
