"""Committed BENCH_*.json files: each one records what a performance claim
rests on, written from z2bench/run.py output."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHA = re.compile(r"[0-9a-f]{40}")


def test_bench_records_parse_and_name_their_fields():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json committed"
    for path in paths:
        record = json.loads(path.read_text())
        assert SHA.fullmatch(record["parent_sha"]), path.name
        assert SHA.fullmatch(record["change_sha"]), path.name
        for key in ("git_sha", "python", "numpy", "numpy_blas", "cpu_count"):
            assert key in record["env"], (path.name, key)
        assert record["workloads"], path.name
        for name, workload in record["workloads"].items():
            assert workload["pairs"] >= 1, (path.name, name)
            for metric, sides in workload["metrics"].items():
                for side in ("parent", "change"):
                    q = sides[side]
                    assert q["q1"] <= q["median"] <= q["q3"], (path.name, name, metric)
                assert 0 <= sides["change_wins"] <= workload["pairs"]
