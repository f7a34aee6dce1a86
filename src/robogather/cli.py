"""Command-line entry points: run, check, fuzz, render.

Exit codes: 0 ok, 1 input error, 2 horizon exhausted without gathering,
3 property violation / counterexample found, also when standard output is
closed by its reader (``robogather check ... | head -1``, see ``_say``).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import traceio, verify
from .scalars import get_backend

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HORIZON = 2
EXIT_VIOLATION = 3


def _say(text: str) -> None:
    """Print ``text`` to standard output; once its reader has closed it, it
    points at the null device, so the rest is dropped and no flush raises."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def cmd_run(args) -> int:
    try:
        data = traceio.load_scenario(args.scenario)
        if args.backend:
            data["backend"] = args.backend
        if args.eps is not None:
            data["eps"] = {"abs": args.eps, "rel": args.eps}
        if args.horizon is not None:
            data["horizon"] = args.horizon
        if args.seed is not None:
            demon = data.get("demon")  # one that is not an object is left for the reader to reject
            if demon is None or isinstance(demon, dict):
                data["demon"] = {**(demon or {}), "seed": args.seed}
        if args.allow_forbidden:
            data["allow_forbidden"] = True
        backend, conf, strategy, horizon = traceio.read_scenario(data)
    except traceio.ScenarioError as exc:
        return _fail(str(exc))

    # ``run`` executes the global round; ``check`` replays the local-frame one.
    trace, summaries = verify.execute_global(strategy, conf, backend, horizon)
    try:
        traceio.write_trace(
            args.out,
            trace,
            backend,
            k=strategy.k,
            strategy_kind=strategy.kind,
            seed=strategy.seed,
            horizon=horizon,
            summaries=summaries,
        )
    except OSError as exc:
        return _fail(f"cannot write trace {args.out}: {exc}")
    rounds = len(trace.steps)
    if summaries[-1].gathered_pt is not None:
        _say(f"gathered after {rounds} rounds; trace written to {args.out}")
        return EXIT_OK
    _say(f"horizon {horizon} exhausted without gathering; trace written to {args.out}")
    return EXIT_HORIZON


def cmd_check(args) -> int:
    try:
        loaded = traceio.read_trace(args.trace)
    except traceio.TraceFormatError as exc:
        return _fail(str(exc))
    report = verify.check_trace(
        loaded.trace,
        loaded.backend,
        declared_k=loaded.k,
        run_seed=loaded.seed,
    )
    _say(report.summary())
    if report.ok:
        return EXIT_OK
    return EXIT_VIOLATION


def cmd_fuzz(args) -> int:
    try:
        backend = get_backend(args.backend or "exact", args.eps, args.eps)
    except ValueError as exc:
        return _fail(str(exc))
    kinds = tuple(k.strip() for k in args.strategies.split(",") if k.strip())
    for k in kinds:
        if k not in verify.UNSCRIPTED_KINDS:
            return _fail(f"fuzz cannot run strategy {k!r} (expected one of {verify.UNSCRIPTED_KINDS})")
    if args.ng_min < 3 or args.ng_max < args.ng_min:
        return _fail("invalid nG range")
    if args.horizon is not None and args.horizon < 0:
        return _fail(f"--horizon must be at least 0, got {args.horizon}")
    if args.runs < 1:
        return _fail(f"--runs must be at least 1, got {args.runs}")
    report, counterexamples = verify.fuzz(
        args.runs,
        backend,
        ng_range=(args.ng_min, args.ng_max),
        strategy_kinds=kinds or verify.FUZZ_KINDS,
        seed=args.seed,
        horizon=args.horizon,
    )
    _say(report.summary())
    if report.ok:
        return EXIT_OK
    outdir = args.out or "."
    try:
        os.makedirs(outdir, exist_ok=True)
        for i, cex in enumerate(counterexamples):
            spath = os.path.join(outdir, f"counterexample_{i}_scenario.json")
            tpath = os.path.join(outdir, f"counterexample_{i}_trace.jsonl")
            traceio.save_scenario(traceio.scenario_for_run(cex.spec, backend), spath)
            traceio.write_trace(
                tpath,
                cex.trace,
                backend,
                k=cex.spec.k,
                strategy_kind=cex.spec.strategy_kind,
                seed=cex.spec.strategy_seed,
                horizon=cex.spec.horizon,
            )
            _say(f"counterexample written: {spath} / {tpath}")
    except OSError as exc:
        return _fail(f"cannot write counterexamples to {outdir}: {exc}")
    return EXIT_VIOLATION


def cmd_render(args) -> int:
    if args.max_panels < 1:
        return _fail(f"--max-panels must be at least 1, got {args.max_panels}")
    try:
        loaded = traceio.read_trace(args.trace)
    except traceio.TraceFormatError as exc:
        return _fail(str(exc))
    from . import render

    try:
        render.render_trace(loaded.trace, loaded.backend, args.out, args.max_panels)
    except OverflowError:
        return _fail(f"cannot render {args.trace}: its coordinates are beyond the float range")
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}")
    _say(f"wrote {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` keeps
    no state in it, so every call parses as a new parser would."""
    parser = argparse.ArgumentParser(
        prog="robogather",
        description="SSYNC oblivious-robot gathering: simulate, check, fuzz, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write its trace")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--out", required=True, help="output trace path (JSON lines)")
    p_run.add_argument("--backend", choices=["exact", "floating"], help="override scenario backend")
    p_run.add_argument("--eps", type=float, help="override float tolerance (abs and rel)")
    p_run.add_argument("--horizon", type=int, help="override round budget")
    p_run.add_argument("--seed", type=int, help="override demon seed")
    p_run.add_argument(
        "--allow-forbidden",
        action="store_true",
        help="accept a bivalent initial configuration (negative tests only)",
    )

    p_check = sub.add_parser("check", help="re-verify a trace against all invariants")
    p_check.add_argument("--trace", required=True, help="trace path")

    p_fuzz = sub.add_parser("fuzz", help="run seeded random simulations and grade them")
    p_fuzz.add_argument("--runs", type=int, default=100)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--backend", choices=["exact", "floating"], default="exact")
    p_fuzz.add_argument("--eps", type=float, help="float tolerance (abs and rel)")
    p_fuzz.add_argument("--ng-min", type=int, default=3)
    p_fuzz.add_argument("--ng-max", type=int, default=8)
    p_fuzz.add_argument(
        "--strategies",
        default=",".join(verify.FUZZ_KINDS),
        help=f"comma-separated strategy kinds, from {', '.join(verify.UNSCRIPTED_KINDS)}",
    )
    p_fuzz.add_argument("--horizon", type=int, help="fixed round budget (default: k*7*(nG+1))")
    p_fuzz.add_argument("--out", help="directory for counterexample scenario/trace files")

    p_render = sub.add_parser("render", help="render a trace as a multi-panel SVG")
    p_render.add_argument("--trace", required=True)
    p_render.add_argument("--out", required=True, help="output SVG path")
    p_render.add_argument("--max-panels", type=int, default=24)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # each command is looked up when called, so a wrapper set on this
    # module's attribute (a profiler's, say) is the one that runs
    commands = {"run": cmd_run, "check": cmd_check, "fuzz": cmd_fuzz, "render": cmd_render}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
