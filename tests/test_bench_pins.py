"""The benchmark's seed-0 outputs still match the digests pinned in
``bench/pins.json``: both fuzz campaigns (``verify.run_one``) and every
swarm trace (``robogather run`` through the CLI). The same gate runs in
``bench/run.py`` at seed 0; here it runs with the tier-1 suite, without
timing, on the benchmark's own inputs and digest functions (read, not
changed).
"""
from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH_DIR)

import run as bench_run  # noqa: E402
from workloads import make_workloads  # noqa: E402

with open(os.path.join(BENCH_DIR, "pins.json"), encoding="utf-8") as _fh:
    PINS = json.load(_fh)


@pytest.mark.parametrize("name", sorted(PINS))
def test_seed_zero_outputs_match_the_pins(name, tmp_path):
    mods = bench_run.import_program()
    workload = make_workloads(ROOT)[name]
    inputs = workload.make_inputs(mods, bench_run.PINNED_SEED, str(tmp_path))
    results = [workload.run(mods, item) for item in inputs]
    assert [res.failure for res in results if res.failure is not None] == []
    assert workload.pass_digests(results) == PINS[name]
