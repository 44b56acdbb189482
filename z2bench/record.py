"""Record the reference outputs that run.py checks every point against.

    python3 z2bench/record.py

Runs every step of every workload once per seed variant, at full and at
smoke size, and writes reference.json.  A step that exits nonzero or raises
stops the recording: references hold only outputs that met the package's
own contracts.  Re-record only in a change that alters the benchmark, never
in one that claims a gain.
"""

import json
import sys

import workloads


def record_step(step, output) -> dict:
    if step.func:
        return {"value": output}
    code, text = output
    if code != 0:
        raise RuntimeError(f"{step.label} {' '.join(step.argv)} exited {code}")
    return {"argv": list(step.argv), **workloads.table(text)}


def main() -> None:
    z2 = workloads.import_package()
    refs = {"git_sha": workloads.git_sha(), "variants": workloads.VARIANTS}
    for size in ("full", "smoke"):
        refs[size] = {}
        for name in workloads.WORKLOADS:
            refs[size][name] = {}
            for variant in range(workloads.VARIANTS):
                step_list = workloads.steps(name, variant, size)
                refs[size][name][str(variant)] = {
                    step.label: record_step(step, workloads.execute(step, z2))
                    for step in step_list
                }
                print(size, name, variant, file=sys.stderr, flush=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
