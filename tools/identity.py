"""Check that the working tree gives every output of a git revision to the bit.

    python tools/identity.py REV [--smoke] [--tree DIR]

extracts REV with `git archive` into a temporary directory and runs one
fixed list of outputs in fresh interpreters, on that tree and on the
working tree (or DIR), at the default OpenBLAS thread count and again under
OPENBLAS_NUM_THREADS=1.  The list:

  - every step of z2bench's `workloads.steps` for its 16 seed variants, at
    full and at smoke size, the steps read from each tree;
  - gap_scan(lam, N, N) at N=4..14 on 61 fields: the 48 of the seed
    variants and GAP_FIELDS;
  - `z2mem rvb --n N` for N=4..14;
  - `z2mem thermal --n N --lambda lam` for N=3..10 on THERMAL_FIELDS;
  - `z2mem scan-e1` at N=512 on E1_FIELDS.

A command's output is its exit code, its stdout lines and its stderr lines;
a library call's output is its floats as float.hex, its integers, or the
error it raises.  Each output that differs between the two trees is
printed with its first differing value, numbers as float.hex, and a last
line sums up.  The exit status is 0 only if no output differs.  --smoke
runs a subset of the list, two seed variants at smoke size and small
chains, in seconds.  No output is stored: both trees run every time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import numbers
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = 16
# Fields beyond the seed variants': the disordered and negative side, the
# small fields where the gap is refused, and 0.15 just above that bound.
GAP_FIELDS = (0.1, 0.2, 0.3, -0.5, -0.7, 0.9, -1.3, 2.0, 5.0, 1e-3, 0.05, -0.05, 0.15)
THERMAL_FIELDS = (0.4895, 0.5, 1.5, -0.7)
E1_FIELDS = (0.5, 1.0, 1.5, -0.7)
THREADS = (None, "1")  # OPENBLAS_NUM_THREADS: the default count, then one


def _cli(z2, argv) -> list[str]:
    """Exit code, stdout lines and stderr lines of one `z2mem` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = z2.cli.main([str(a) for a in argv])
        except Exception as exc:  # noqa: BLE001  (the error is the output)
            code = f"raised {type(exc).__name__}: {exc}"
    return [f"exit {code}", *out.getvalue().splitlines(),
            *(f"stderr {line}" for line in err.getvalue().splitlines())]


def _flat(value) -> list[str]:
    """Floats as float.hex and integers as decimals, nested tuples flattened."""
    if isinstance(value, (tuple, list)):
        return [item for v in value for item in _flat(v)]
    if isinstance(value, numbers.Integral):
        return [str(value)]
    return [float(value).hex()]


def _call(func, *args) -> list[str]:
    """The flattened result of one library call, or the error it raises."""
    try:
        return _flat(func(*args))
    except Exception as exc:  # noqa: BLE001  (the error is the output)
        return [f"{type(exc).__name__}: {exc}"]


def _outputs(tree: Path, smoke: bool):
    """(key, output) for every entry of the list, run on the package and
    the benchmark steps of ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "z2bench")]
    import workloads  # z2bench's, from the tree
    import z2memory.cli  # noqa: F401  (loads every module of the package)

    z2 = sys.modules["z2memory"]
    if not Path(z2.__file__).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"z2memory imported from {z2.__file__}, not from {tree}")
    variants = range(2) if smoke else range(VARIANTS)
    for size in ("smoke",) if smoke else ("full", "smoke"):
        for workload in workloads.WORKLOADS:
            for v in variants:
                for step in workloads.steps(workload, v, size):
                    key = f"{workload} {size} variant {v}: {step.label}"
                    if step.func:
                        yield key, _call(getattr(z2.rvb, step.func), step.n)
                    else:
                        yield key, _cli(z2, step.argv)
    seeded = [workloads.inputs(v)[name] for v in variants
              for name in ("lam_ordered", "lam_critical", "lam_disordered")]
    sizes = range(4, 9) if smoke else range(4, 15)
    for lam in (*seeded, *(GAP_FIELDS[::4] if smoke else GAP_FIELDS)):
        for n in sizes:
            yield f"gap_scan({lam!r}, {n}, {n})", _call(z2.gap_scan, lam, n, n)
    for n in sizes:
        yield f"z2mem rvb --n {n}", _cli(z2, ("rvb", "--n", n))
    for lam in THERMAL_FIELDS[1::2] if smoke else THERMAL_FIELDS:
        for n in range(3, 6) if smoke else range(3, 11):
            argv = ("thermal", "--n", n, "--lambda", lam)
            yield "z2mem " + " ".join(map(str, argv)), _cli(z2, argv)
    n = 32 if smoke else 512
    argv = ("scan-e1", "--n-min", n, "--n-max", n,
            "--lambdas", ",".join(map(str, E1_FIELDS)))
    yield "z2mem " + " ".join(map(str, argv)), _cli(z2, argv)


def extract(rev: str, dest: Path) -> None:
    """The tree of ``rev`` in this repository, written under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, smoke: bool, threads: str | None, scratch: Path) -> dict:
    """The outputs of ``tree`` from a fresh interpreter."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "OPENBLAS_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    dump = scratch / "outputs.json"
    argv = [sys.executable, __file__, "--dump", str(tree), str(dump)]
    done = subprocess.run(argv + (["--smoke"] if smoke else []), env=env,
                          cwd=scratch, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"outputs of {tree} failed:\n{done.stderr}")
    return json.loads(dump.read_text())


def _shown(line: str, other: str) -> str:
    """The first cell of a CSV line that differs from ``other``'s, as
    float.hex where it is a number."""
    cells, others = line.split(","), other.split(",")
    cell = next((c for c, o in zip(cells, others) if c != o), line)
    try:
        return float(cell).hex()
    except ValueError:
        return cell


def differences(old: dict, new: dict) -> list[str]:
    """One line per output that differs, naming its first differing value
    in each tree; an output missing from a tree differs."""
    lines = []
    for key in [*old, *(k for k in new if k not in old)]:
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{key}: only in {'the revision' if b is None else 'the tree'}")
            continue
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        x = a[i] if i < len(a) else "<end>"
        y = b[i] if i < len(b) else "<end>"
        lines.append(f"{key}: value {i}: {_shown(x, y)} -> {_shown(y, x)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against")
    parser.add_argument("--smoke", action="store_true", help="a subset, in seconds")
    parser.add_argument("--tree", type=Path, help="tree to check (default: the working tree)")
    parser.add_argument("--dump", nargs=2, type=Path, metavar=("TREE", "FILE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        tree, path = args.dump
        path.write_text(json.dumps(dict(_outputs(tree, args.smoke))))
        return 0
    if args.rev is None:
        parser.error("a revision is required")
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.rev],
                         capture_output=True, text=True, check=True).stdout.strip()
    found = 0
    with tempfile.TemporaryDirectory() as tmp:
        base, scratch = Path(tmp) / "rev", Path(tmp)
        extract(sha, base)
        for threads in THREADS:
            old = _run(base, args.smoke, threads, scratch)
            new = _run((args.tree or ROOT).resolve(), args.smoke, threads, scratch)
            label = "default threads" if threads is None else f"OPENBLAS_NUM_THREADS={threads}"
            for line in differences(old, new):
                print(f"[{label}] {line}")
                found += 1
    print(f"identity: {len(new)} outputs at each of {len(THREADS)} thread settings, "
          f"{found} differ ({sha} against {args.tree or 'the working tree'})")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
