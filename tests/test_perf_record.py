"""Every committed performance record (``perf/BENCH_*.json``) parses and
holds what comparing two changes by diffing their records needs."""
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted((ROOT / "perf").glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_perf_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_perf_record_is_complete(path):
    rec = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", rec["parent"])
    assert set(rec["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, workload in rec["workloads"].items():
        metrics = workload["metrics"]
        for metric in BENCHMARK["end_to_end"]:
            entry = metrics[metric["name"]]
            assert entry["unit"] == metric["unit"], (name, metric["name"])
            assert type(entry["value"]) in (int, float), (name, metric["name"])
    tier1 = rec["tier1"]
    assert type(tier1["passed"]) is int and tier1["passed"] > 0
    assert type(tier1["wall_s"]) in (int, float) and tier1["wall_s"] > 0
    assert type(rec["src_py_lines"]) is int and rec["src_py_lines"] > 0
