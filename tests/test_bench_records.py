"""Committed BENCH_*.json files: each one records what a performance claim
rests on, written from z2bench/run.py output."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHA = re.compile(r"[0-9a-f]{40}")


def _records():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json committed"
    return [(path.name, json.loads(path.read_text())) for path in paths]


def test_bench_records_parse_and_name_their_fields():
    for name, record in _records():
        assert SHA.fullmatch(record["parent_sha"]), name
        assert SHA.fullmatch(record["change_sha"]), name
        for key in ("git_sha", "python", "numpy", "numpy_blas", "cpu_count"):
            assert key in record["env"], (name, key)
        assert record["workloads"], name
        for wname, workload in record["workloads"].items():
            assert workload["pairs"] >= 1, (name, wname)
            for metric, sides in workload["metrics"].items():
                for side in ("parent", "change"):
                    q = sides[side]
                    assert q["q1"] <= q["median"] <= q["q3"], (name, wname, metric)
                assert 0 <= sides["change_wins"] <= workload["pairs"]


def test_bench_claims_name_a_measured_benchmark_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    for name, record in _records():
        claim = record["claim"]
        assert claim["workload"] in workloads, name
        assert claim["metric"] in metrics, name
        measured = record["workloads"][claim["workload"]]
        sides = measured["metrics"][claim["metric"]]
        assert claim["pairs"] == measured["pairs"], name
        assert claim["change_wins"] == sides["change_wins"], name
        assert 0 <= claim["change_wins"] <= claim["pairs"], name
        # a gain counts only if the change wins at least nine pairs in ten
        # and its median drop exceeds the parent's interquartile range
        met = (
            claim["change_wins"] >= 0.9 * claim["pairs"]
            and claim["median_drop_s"] > claim["parent_iqr_s"]
        )
        assert claim["met"] == met, name
