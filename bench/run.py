#!/usr/bin/env python3
"""robogather benchmark: host cost of simulating and checking SSYNC rounds.

Run from the root of a checkout:

    python3 bench/run.py --workload fuzz-exact --seed 0 --seconds 35 --trace 0

The benchmark imports the package from ``src/`` and builds one fixed input
set from ``--seed``; the time from the start of this script to the end of
that is the set-up time, measured once, cold. It then makes passes over the
input set, one run at a time in this process, as many as end within
``--seconds`` (default: ``run_seconds`` of BENCHMARK.json; at least three
passes), and reports medians per input over the passes. Pass times are in
calibrated seconds (see ``hostspeed.py``); the host-second figures are
printed too. Every run is checked: property violations, timeouts, non-zero
exit codes and exceptions fail it, and so does an output digest that
differs from the first pass or, at the pinned seed, from ``bench/pins.json``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics,
the layer scaling probe and the tracing overhead; the spans are written to
``bench/out/``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

from time import perf_counter

# Set-up is timed from here, before this script imports anything else, so
# every module the package needs is loaded inside the timed window.
START = perf_counter()

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
PINS = os.path.join(BENCH_DIR, "pins.json")

sys.path.insert(0, BENCH_DIR)

from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import RunResult, make_workloads  # noqa: E402

PACKAGE = "robogather"
LAYERS = ("scalars", "geometry", "frames", "model", "gather2d", "verify", "traceio", "cli")
PINNED_SEED = 0
SETUP_SAMPLES = 3  # host-speed samples taken right after set-up
MIN_PASSES = 3  # untraced runs; a traced run makes at least one pass of each kind

# Scaling probe: one all-active local round and one global round on a fixed
# spread configuration (distinct integer points; its own seed, so the probe
# reads the same for every workload seed).
PROBE_NG = (8, 32, 128)
PROBE_SEED = 1602
PROBE_REPEATS = 3  # median of up to three, fewer once a cell has taken PROBE_BUDGET_S
PROBE_BUDGET_S = 1.0

# Printed with every result but not gated: the swarm-only command times, the
# failure share (0 when all is well) and the p90, which needs at least ten
# samples beyond it.
REPORT_ONLY = {
    "run_ms.p90": ("cal_ms", "lower"),
    "run_cmd_s": ("cal_s", "lower"),
    "check_cmd_s": ("cal_s", "lower"),
    "failed_frac": ("frac", "lower"),
}


def import_program() -> dict:
    """Import every layer of the package and return the modules by name."""
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def run_pass(workload, mods, inputs, tracer=None) -> tuple[list, float]:
    """One run per input; an exception fails that run and the pass goes on.

    Returns the results and the pass's host-speed factor.
    """
    speed = HostSpeed()
    speed.sample(force=True)
    results = []
    for run_id, item in enumerate(inputs):
        speed.sample()
        try:
            if tracer is None:
                res = workload.run(mods, item)
            else:
                res = tracer.root(run_id, workload.run, mods, item)
        except Exception as exc:  # one failed run must not end the workload
            where = traceback.extract_tb(exc.__traceback__)[-1]
            failure = f"exception: {exc!r} at {os.path.basename(where.filename)}:{where.lineno}"
            res = RunResult(key=str(item[0]), seconds=0.0, failure=failure)
        results.append(res)
    speed.sample(force=True)
    return results, speed.factor()


def gate(workload_name, workload, passes, seed) -> tuple[list, dict]:
    """Mark failed runs and return (failures, digests of the first pass).

    Each run must reproduce its output of the first pass. At the pinned seed
    each digest of a pass must also match ``bench/pins.json``: a fuzz
    campaign has one digest, so a mismatch there fails every run of the pass;
    a swarm trace file has its own.
    """
    digests = workload.pass_digests(passes[0])
    expected = None
    if seed == PINNED_SEED:
        with open(PINS, encoding="utf-8") as fh:
            expected = json.load(fh).get(workload_name, {})
    failures = []
    for index, results in enumerate(passes):
        got = workload.pass_digests(results)
        for res, first in zip(results, passes[0]):
            key = workload.digest_key(res)
            if res.failure is None and res.digest != first.digest:
                res.failure = "output differs from pass 0"
            elif res.failure is None and expected is not None and got[key] != expected.get(key):
                res.failure = f"digest differs from the pin ({key})"
            if res.failure is not None:
                failures.append((index, res.key, res.failure))
    return failures, digests


def quantile(values, q) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(passes, factors, setup_s, uses_cli) -> tuple[dict, list]:
    """End-to-end metrics and per-input seconds: medians over all passes of
    each run's times scaled by its pass's factor (all 1 for host seconds)."""
    n = len(passes[0])
    med = lambda attr, i: statistics.median(  # noqa: E731
        getattr(p[i], attr) * f for p, f in zip(passes, factors)
    )
    seconds = [med("seconds", i) for i in range(n)]
    total = sum(seconds)
    rounds = sum(res.rounds for res in passes[0])
    attempted = n * len(passes)
    failed = sum(res.failure is not None for p in passes for res in p)
    values = {
        "setup_s": setup_s,
        "rounds_per_s": rounds / total,
        "runs_per_s": n / total,
        "run_ms.p50": statistics.median(seconds) * 1e3,
        "run_ms.p90": quantile(seconds, 0.9) * 1e3 if n >= 100 else None,
        "run_cmd_s": sum(med("run_cmd_s", i) for i in range(n)) if uses_cli else None,
        "check_cmd_s": sum(med("check_cmd_s", i) for i in range(n)) if uses_cli else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / attempted,
    }
    return values, seconds


def per_layer(tracers, factors, traced_results, mods) -> dict:
    """Per-layer metrics: counts from the first traced pass, calibrated self
    times as the median over traced passes."""
    first = tracers[0]
    gathering_point = mods["gather2d"].gathering_point
    rounds = configs = movers = post_gather = 0
    for trace, backend in first.checked:
        chain = trace.configs()
        rounds += len(trace.steps)
        configs += len(chain)
        for before, after in zip(chain, chain[1:]):
            movers += any(not backend.points_eq(p, q) for p, q in zip(before, after))
            post_gather += gathering_point(before, backend) is not None
    rounds = max(rounds, 1)
    calls = first.calls
    selfs = [(t.self_times(), f) for t, f in zip(tracers, factors)]
    self_s = lambda *names: statistics.median(sum(s[n] for n in names) * f for s, f in selfs)  # noqa: E731
    trace_bytes = sum(res.trace_bytes for res in traced_results[0])
    return {
        "frames.apply.calls_per_round": calls["frames.apply"] / rounds,
        "frames.make_frame.calls_per_round": calls["frames.make_frame"] / rounds,
        "frames.self_s": self_s("frames.apply", "frames.make_frame", "frames.inverse"),
        "model.round.calls_per_round": calls["model.round"] / rounds,
        "model.round.self_s": self_s("model.round"),
        "model.spectrum_of.calls_per_round": calls["model.spectrum_of"] / rounds,
        "model.spectrum_of.self_s": self_s("model.spectrum_of"),
        "geometry.sec.calls_per_round": calls["geometry.sec"] / rounds,
        "geometry.sec.mean_points": first.sec_points / max(calls["geometry.sec"], 1),
        "geometry.sec.self_s": self_s("geometry.sec"),
        "geometry.circumcircle.calls_per_round": calls["geometry.circumcircle"] / rounds,
        "gather2d.summarize.calls_per_config": calls["gather2d.summarize"] / max(configs, 1),
        "gather2d.summarize.self_s": self_s("gather2d.summarize"),
        "gather2d.pgm.calls_per_round": calls["gather2d.pgm"] / rounds,
        "gather2d.pgm.self_s": self_s("gather2d.pgm"),
        "gather2d.round_global.self_s": self_s("gather2d.round_global"),
        "verify.check_trace.self_s": self_s("verify.check_trace"),
        "verify.strategy.self_s": self_s("verify.strategy"),
        "verify.gen_initial.self_s": self_s("verify.gen_initial"),
        "verify.mover_round_frac": movers / rounds,
        "verify.post_gather_round_frac": post_gather / rounds,
        "traceio.write_trace.s_per_round": self_s("traceio.write_trace") / rounds,
        "traceio.read_trace.s_per_round": self_s("traceio.read_trace") / rounds,
        "traceio.bytes_per_round": trace_bytes / rounds,
        "cli.cmd_run.self_s": self_s("cli.cmd_run"),
        "cli.cmd_check.self_s": self_s("cli.cmd_check"),
    }


def scaling_probe(mods) -> dict:
    """Calibrated milliseconds for one all-active model.round and one round_global."""
    scalars, model, gather2d, verify = mods["scalars"], mods["model"], mods["gather2d"], mods["verify"]
    speed = HostSpeed()
    out = {}
    for backend_name in ("exact", "floating"):
        backend = scalars.get_backend(backend_name)
        robogram = gather2d.robogram(backend)
        for ng in PROBE_NG:
            rng = random.Random(PROBE_SEED + ng)
            side = 2 * ng + 1
            cells = rng.sample(range(side * side), ng)
            conf = tuple(backend.point(c % side - ng, c // side - ng) for c in cells)
            action = model.DemonicAction(
                tuple(verify.DEFAULT_POLICY.sample(rng, backend) for _ in range(ng))
            )
            local_ms, global_ms = [], []
            spent = 0.0
            while len(local_ms) < PROBE_REPEATS and spent < PROBE_BUDGET_S:
                speed.sample(force=True)
                t0 = perf_counter()
                local = model.round(robogram, action, conf, backend)
                t1 = perf_counter()
                glob = gather2d.round_global(range(ng), conf, backend)
                t2 = perf_counter()
                if not all(backend.points_eq(p, q) for p, q in zip(local, glob)):
                    raise RuntimeError(f"probe: local and global rounds differ ({backend_name}, nG={ng})")
                local_ms.append((t1 - t0) * 1e3)
                global_ms.append((t2 - t1) * 1e3)
                spent += t2 - t0
            out[f"model.round.ms.{backend_name}.nG{ng}"] = statistics.median(local_ms)
            out[f"gather2d.round_global.ms.{backend_name}.nG{ng}"] = statistics.median(global_ms)
    speed.sample(force=True)
    factor = speed.factor()
    return {name: ms * factor for name, ms in out.items()}


def environment() -> dict:
    """Interpreter, commit, CPU count and the size of src/."""
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    src_lines = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "src_py_lines": src_lines,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "run_seconds": spec["run_seconds"],
        "end_to_end": {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
        "per_layer": {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    spec = load_spec()
    workloads = make_workloads(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    sys.path.insert(0, SRC)

    mods = import_program()
    inputs = workload.make_inputs(mods, args.seed, workdir)
    setup_s = perf_counter() - START
    speed = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        speed.sample(force=True)
    setup_factor = speed.factor()

    passes, traced, tracers = [], [], []
    factors, traced_factors = [], []
    min_passes = 1 if args.trace else MIN_PASSES
    start = perf_counter()
    elapsed = 0.0
    # Stop once the next pass (or untraced + traced pair) would end past --seconds.
    while len(passes) < min_passes or elapsed * (len(passes) + 1) / len(passes) <= args.seconds:
        results, factor = run_pass(workload, mods, inputs)
        passes.append(results)
        factors.append(factor)
        if args.trace:
            tracer = Tracer()
            tracer.install(mods)
            try:
                results, factor = run_pass(workload, mods, inputs, tracer)
            finally:
                tracer.uninstall()
            traced.append(results)
            traced_factors.append(factor)
            tracers.append(tracer)
        elapsed = perf_counter() - start

    failures, digests = gate(args.workload, workload, passes + traced, args.seed)
    values, input_s = end_to_end(passes, factors, setup_s * setup_factor, workload.uses_cli)
    n_inputs = len(input_s)
    host, _ = end_to_end(passes, [1.0] * len(passes), setup_s, workload.uses_cli)
    rounds = sum(res.rounds for res in passes[0])
    if args.trace:
        values.update(per_layer(tracers, traced_factors, traced, mods))
        values.update(scaling_probe(mods))
        pass_s = lambda runs, fs: statistics.median(  # noqa: E731
            sum(res.seconds for res in results) * f for results, f in zip(runs, fs)
        )
        untraced_s, traced_s = pass_s(passes, factors), pass_s(traced, traced_factors)
        values["trace.rounds_per_s.untraced"] = rounds / untraced_s
        values["trace.rounds_per_s.traced"] = rounds / traced_s
        values["trace.overhead_frac"] = traced_s / untraced_s - 1
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for index, tracer in enumerate(tracers):
                tracer.write_spans(fh, index)
        print(f"# spans written to {os.path.relpath(spans_path, ROOT)}")

    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    shown = dict(gated) if args.trace else dict(gated, **REPORT_ONLY)
    print(
        f"# workload {args.workload}, seed {args.seed}, {n_inputs} inputs x "
        f"{len(passes)} untraced + {len(traced)} traced passes, {rounds} rounds per pass"
    )
    for name, (unit, better) in shown.items():
        value = values.get(name)
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:44s} {text:>14s} {unit:12s} ({better} is better)")
    print(
        "# host-speed factors: set-up %.3f, passes %s%s"
        % (setup_factor, [round(f, 3) for f in factors], f", traced {[round(f, 3) for f in traced_factors]}" if args.trace else "")
    )
    if not args.trace:
        raw = ", ".join(f"{name}={host[name]:.6g}" for name in spec["end_to_end"] if name != "peak_rss_mb")
        print(f"# in host seconds: {raw}")
    print(
        f"# run_ms samples: {n_inputs} per-input medians over {len(passes)} passes"
        " (p90 only from at least 100, so that ten lie beyond it)"
    )
    if n_inputs <= 20:
        for res, seconds in zip(passes[0], input_s):
            print(f"# input {res.key}: {res.rounds} rounds, {seconds * 1e3:.1f} ms")
    for key, digest in sorted(digests.items()):
        print(f"# digest {key} {digest}{'' if args.seed == PINNED_SEED else ' (not gated)'}")
    for index, key, reason in failures[:5]:
        print(f"# failed: pass {index} input {key}: {reason}")
    if len(failures) > 5:
        print(f"# failed: {len(failures) - 5} more")
    print(f"# env {json.dumps(environment())}")

    missing = [name for name in gated if values.get(name) is None]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    attempted = n_inputs * (len(passes) + len(traced))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _b) in gated.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
