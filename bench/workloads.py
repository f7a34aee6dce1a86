"""The three workloads: inputs made from a seed, one run per input, and the
digests that pin each run's output.

* ``fuzz-exact`` / ``fuzz-float`` run a fuzz campaign like ``verify.fuzz``
  through ``verify.run_one`` (generate, execute, check), stratified so every
  (nG, strategy) cell of nG 3..8 and the four default strategies gets the
  same number of runs. Only the run seeds depend on the workload seed, so
  the cost mix is the same for every seed.
* ``swarm-replay`` writes scenario files and sends each through the
  in-process command line: ``cli.main(["run", ...])`` writes a trace file,
  ``cli.main(["check", ...])`` reads it back and grades it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

FUZZ_NG = range(3, 9)
FUZZ_KINDS = ("round_robin", "all_active", "random_kfair", "single_mover")

# Generated swarm scenarios: (nG, demon, phase of the start). Starts are
# spread (generator pool = nG, bbox = nG) and drawn until the start is in the
# listed phase: with a spread pool about 40% of draws start in `majority`
# and gather in a few rounds, and a `single_mover` run costs about twice as
# much from a scalene start as from a diameter start. The starts are one
# fixed set, drawn from START_SEED; the workload seed picks the demon seeds
# (frames and activation choices). With only eight scenarios, starts drawn
# from the workload seed would make the per-round geometry, and so the cost,
# differ from seed to seed by more than the host noise.
START_SEED = 2016
SWARM = (
    (32, "all_active", "scalene_dirty"),
    (32, "random_kfair", "diameter_dirty"),
    (32, "round_robin", "scalene_dirty"),
    (32, "single_mover", "diameter_dirty"),
    (32, "single_mover", "scalene_dirty"),
    (64, "random_kfair", "scalene_dirty"),
    (64, "round_robin", "diameter_dirty"),
    (128, "all_active", "diameter_dirty"),
)
BUNDLED = ("cocircular_demo.json", "majority_demo.json")


@dataclass
class RunResult:
    key: str  # identifies the input within its pass
    seconds: float  # host time of the whole run
    rounds: int = 0  # rounds executed and checked
    failure: Optional[str] = None  # None when the run passed its checks
    digest: str = ""  # digest of the run's output
    run_cmd_s: float = 0.0  # swarm: time in cli.main(["run", ...])
    check_cmd_s: float = 0.0  # swarm: time in cli.main(["check", ...])
    trace_bytes: int = 0  # swarm: size of the trace file written


def sha256_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def report_digest(rep) -> str:
    """Digest of a CheckReport's verdicts: per-property checks and
    violations, observed phase arcs and the rounds-to-gather list."""
    return sha256_json(
        {
            "properties": {p: [s.checks, s.violations] for p, s in rep.properties.items()},
            "observed_arcs": sorted(f"{a.value}->{b.value}" for a, b in rep.observed_arcs),
            "rounds_to_gather": rep.rounds_to_gather,
        }
    )


class FuzzWorkload:
    uses_cli = False

    def __init__(self, backend_name: str, runs_per_cell: int):
        self.backend_name = backend_name
        self.runs_per_cell = runs_per_cell

    def make_inputs(self, mods, seed: int, workdir: str) -> list:
        rng = random.Random(seed)
        cells = [(ng, kind) for ng in FUZZ_NG for kind in FUZZ_KINDS] * self.runs_per_cell
        rng.shuffle(cells)
        return [(rng.randrange(2**62), ng, kind) for ng, kind in cells]

    def run(self, mods, item) -> RunResult:
        run_seed, ng, kind = item
        backend = mods["scalars"].get_backend(self.backend_name)
        t0 = perf_counter()
        _spec, trace, rep = mods["verify"].run_one(
            run_seed, backend, ng_range=(ng, ng), strategy_kinds=(kind,)
        )
        seconds = perf_counter() - t0
        failure = None
        if not rep.ok:
            bad = sorted(p for p, s in rep.properties.items() if s.violations)
            failure = "timeout" if rep.timeouts else "violation of " + ",".join(bad)
        return RunResult(
            key=str(run_seed),
            seconds=seconds,
            rounds=len(trace.steps),
            failure=failure,
            digest=report_digest(rep),
        )

    def digest_key(self, res: RunResult) -> str:
        return "campaign"

    def pass_digests(self, results: list) -> dict:
        """One digest for the campaign: the run digests in input order."""
        return {"campaign": sha256_json([res.digest for res in results])}


class SwarmWorkload:
    uses_cli = True

    def __init__(self, root: str):
        self.root = root

    def _start_phase(self, mods, ng: int, gen_seed: int) -> str:
        verify, model, gather2d = mods["verify"], mods["model"], mods["gather2d"]
        exact = mods["scalars"].EXACT
        conf = verify.gen_initial(ng, random.Random(gen_seed), exact, bbox=ng, pool_size=ng)
        return gather2d.classify_phase(model.spectrum_of(conf, exact), exact).value

    def make_inputs(self, mods, seed: int, workdir: str) -> list:
        starts, demons = random.Random(START_SEED), random.Random(seed)
        items = []
        for name in BUNDLED:
            stem = os.path.splitext(name)[0]
            items.append(
                (name, os.path.join(self.root, "scenarios", name), os.path.join(workdir, stem + ".jsonl"))
            )
        for ng, demon, phase in SWARM:
            gen_seed = starts.randrange(2**31)
            while self._start_phase(mods, ng, gen_seed) != phase:
                gen_seed = starts.randrange(2**31)
            scenario = {
                "nG": ng,
                "backend": "exact",
                "initial": {"generator": {"bbox": ng, "pool": ng, "seed": gen_seed}},
                "demon": {"kind": demon, "seed": demons.randrange(2**31)},
            }
            stem = f"n{ng}_{demon}_{phase}"
            path = os.path.join(workdir, stem + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario, fh, indent=2)
            items.append((stem + ".json", path, os.path.join(workdir, stem + ".jsonl")))
        return items

    def run(self, mods, item) -> RunResult:
        name, scenario_path, trace_path = item
        main = mods["cli"].main
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            t0 = perf_counter()
            rc_run = main(["run", "--scenario", scenario_path, "--out", trace_path])
            t1 = perf_counter()
            rc_check = main(["check", "--trace", trace_path])
            t2 = perf_counter()
        with open(trace_path, "rb") as fh:
            data = fh.read()
        end = json.loads(data.splitlines()[-1])
        failure = None
        if rc_run != 0 or rc_check != 0:
            failure = f"exit codes run={rc_run} check={rc_check}: {out.getvalue().strip()[-200:]}"
        return RunResult(
            key=name,
            seconds=t2 - t0,
            rounds=end["rounds"],
            failure=failure,
            digest=hashlib.sha256(data).hexdigest(),
            run_cmd_s=t1 - t0,
            check_cmd_s=t2 - t1,
            trace_bytes=len(data),
        )

    def digest_key(self, res: RunResult) -> str:
        return res.key

    def pass_digests(self, results: list) -> dict:
        """The sha256 of every trace file written."""
        return {res.key: res.digest for res in results}


def make_workloads(root: str) -> dict:
    return {
        "fuzz-exact": FuzzWorkload("exact", runs_per_cell=24),
        "fuzz-float": FuzzWorkload("floating", runs_per_cell=32),
        "swarm-replay": SwarmWorkload(root),
    }
