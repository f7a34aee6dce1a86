"""Checks of the benchmark itself; not part of the tier-1 suite.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracing import LEAVES, SPANS, ROOT_SPAN, Tracer, _resolve  # noqa: E402
from workloads import FuzzWorkload, RunResult, SwarmWorkload  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run.import_program()


def test_tracer_restores_every_wrapped_function(mods):
    before = {path: getattr(*_resolve(mods, path)) for path, _ in SPANS + LEAVES}
    tracer = Tracer()
    tracer.install(mods)
    assert all(getattr(*_resolve(mods, path)) is not fn for path, fn in before.items())
    tracer.uninstall()
    assert all(getattr(*_resolve(mods, path)) is fn for path, fn in before.items())


def test_self_times_partition_the_root_span(mods):
    workload = FuzzWorkload("exact", runs_per_cell=1)
    inputs = workload.make_inputs(mods, 0, None)[:6]
    tracer = Tracer()
    tracer.install(mods)
    try:
        results, _factor = run.run_pass(workload, mods, inputs, tracer)
    finally:
        tracer.uninstall()
    assert all(res.failure is None for res in results)
    roots = [s for s in tracer.spans if s[0] == ROOT_SPAN]
    assert len(roots) == len(inputs)
    covered = sum(t1 - t0 for _name, t0, t1, _parent, _run in roots)
    assert sum(tracer.self_times().values()) == pytest.approx(covered, rel=1e-9)
    rounds = sum(res.rounds for res in results)
    # execute and the chaining re-check each run one local round per round
    assert tracer.calls["model.round"] == 2 * rounds
    assert len(tracer.checked) == len(inputs)


def test_counts_repeat_exactly(mods):
    workload = FuzzWorkload("floating", runs_per_cell=1)
    inputs = workload.make_inputs(mods, 3, None)[:8]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(mods)
        try:
            run.run_pass(workload, mods, inputs, tracer)
        finally:
            tracer.uninstall()
        counts.append((dict(tracer.calls), tracer.sec_points))
    assert counts[0] == counts[1]


def test_gate_fails_changed_outputs():
    workload = SwarmWorkload(ROOT)
    first = [RunResult("a.json", 1.0, digest="x"), RunResult("b.json", 1.0, digest="y")]
    later = [RunResult("a.json", 1.0, digest="x"), RunResult("b.json", 1.0, digest="z")]
    failures, _ = run.gate("swarm-replay", workload, [first, later], seed=5)
    assert [(index, key) for index, key, _ in failures] == [(1, "b.json")]
    # at the pinned seed these digests are not the pinned ones
    failures, _ = run.gate("swarm-replay", workload, [first], seed=run.PINNED_SEED)
    assert {key for _, key, _ in failures} == {"a.json", "b.json"}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz-exact", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
