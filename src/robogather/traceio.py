"""Scenario and trace persistence.

A scenario is one human-editable JSON object, kept as such: ``read_scenario``
checks every key under its JSON name in one pass and materializes it, the
trace header's backend, tolerance and initial points are read by the same
code (``_read_start``), and ``scenario_for_run`` freezes a fuzz run into
one. A trace is
a line-delimited UTF-8 file: one self-contained JSON record per line — a
header, one record per round, and an end marker. Exact-backend coordinates
serialize as "numerator/denominator" strings so replay is bit-exact;
floating coordinates serialize as JSON numbers (repr round-trips exactly).
A document is parsed with one memo per kind of object: each distinct [x, y]
pair is parsed once and every later occurrence is the same ``Point``, so an
unchanged configuration holds the same objects and is summarized once
(``verify.summaries_of``); each distinct frame object is parsed and checked
once, and each distinct string among frame parameters is parsed once. A
pair and a frame are keyed by their repr, which keeps ``true``, ``1``,
``1.0`` and ``-0.0`` apart (they are equal as dict keys). The header and
each distinct frame object are read through the same key check as a
scenario, so a misspelt key is an input error there too. The writer
makes the JSON text of each distinct ``Point`` and ``FrameParams`` object
once per write and splices it into the lines.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from . import frames, gather2d, model, verify
from .model import Configuration, DemonicAction, FrameParams, Trace
from .scalars import FLOAT_INPUT_MAX, Backend, Point, get_backend


class ScenarioError(Exception):
    """Malformed or invalid scenario input."""


class TraceFormatError(Exception):
    """Malformed trace file."""


def _coord_out(value, backend: Backend):
    return str(value) if backend.is_exact else float(value)


def _point_out(p: Point, backend: Backend) -> list:
    return [_coord_out(p.x, backend), _coord_out(p.y, backend)]


def _point_in(pair, backend: Backend, shared: dict) -> Point:
    """The point of an [x, y] pair, from the document's point memo ``shared``,
    keyed by the pair's repr; a pair is checked and parsed on its first read."""
    key = repr(pair)
    p = shared.get(key)
    if p is None:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise TraceFormatError(f"expected an [x, y] pair, got {pair!r}")
        x, y = pair
        p = shared[key] = Point(backend.parse(x), backend.parse(y))
    return p


def _frame_out(fp: FrameParams, backend: Backend) -> dict:
    return {
        "zoom": _coord_out(fp.zoom, backend),
        "c": _coord_out(fp.c, backend),
        "s": _coord_out(fp.s, backend),
        "reflect": fp.reflect,
    }


def _scalar_in(value, backend: Backend, shared: dict):
    """``backend.parse(value)``; a string, the form an exact trace writes, is
    parsed once per document through the memo ``shared``."""
    if type(value) is not str:
        return backend.parse(value)
    x = shared.get(value)
    if x is None:
        x = shared[value] = backend.parse(value)
    return x


# The keys of a frame object and of a trace header
_FRAME_KEYS = ("zoom", "c", "s", "reflect")
_HEADER_KEYS = ("type", "backend", "nG", "k", "strategy", "seed", "horizon", "initial", "eps")


def _frame_in(obj, backend: Backend, shared: dict, scalars: dict) -> FrameParams:
    """The frame of a step that is not null, from the document's frame memo
    ``shared``: one checked ``FrameParams`` per distinct JSON object, keyed
    by its repr, its keys checked and the frame built (and, if exact,
    checked) on its first read; a float one is checked against the tolerance
    of ``backend``. Its zoom, c and s are read through the scalar memo
    ``scalars``."""
    key = repr(obj)
    fp = shared.get(key)
    if fp is None:
        obj = _obj(obj, "frame", _FRAME_KEYS)
        zoom, c, s = obj["zoom"], obj["c"], obj["s"]
        reflect = _bool(obj["reflect"], "frame reflect")
        try:
            fp = FrameParams(*(_scalar_in(v, backend, scalars) for v in (zoom, c, s)), reflect)
            if fp.form is None:
                frames.check_params(fp, backend)
        except frames.InvalidFrame as exc:
            raise TraceFormatError(f"invalid frame: {exc}") from exc
        shared[key] = fp
    return fp


def _int(value, what: str, optional: bool = False) -> Optional[int]:
    """``value`` if it is a JSON integer (None passes when ``optional``), else
    ScenarioError: a bool, a float or a string is not silently converted."""
    if (value is None and optional) or type(value) is int:
        return value
    raise ScenarioError(f"{what} must be an integer, got {value!r}")


def _bool(value, what: str) -> bool:
    """``value`` if it is a JSON boolean, else ScenarioError: a string such as
    "false" or a number is not silently converted."""
    if type(value) is bool:
        return value
    raise ScenarioError(f"{what} must be true or false, got {value!r}")


def _obj(value, what: str, known: tuple[str, ...]) -> dict:
    """``value`` if it is a JSON object whose keys are all in ``known``, {}
    if it is null, else ScenarioError: a misspelt key is an input error, not
    a default silently taken."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ScenarioError(f"unknown {what} key(s) {unknown} (expected {', '.join(known)})")
    return value


def _read_start(
    doc: dict, backend_name, points, least: int, memo: dict
) -> tuple[Backend, int, Optional[Configuration]]:
    """The backend (``backend_name`` at the tolerance ``doc["eps"]``), robot
    count ``doc["nG"]`` and initial configuration (None when ``points`` is)
    of a scenario or a trace header, its points read through the point memo
    ``memo``. ScenarioError unless nG is a JSON integer of at least
    ``least`` that counts the points and each ``eps`` value is absent or a
    number (a JSON boolean is not a number)."""
    n = _int(doc.get("nG"), "nG")
    if n < least:
        raise ScenarioError(f"nG must be at least {least}, got {n}")
    eps = _obj(doc.get("eps"), "eps", ("abs", "rel"))
    for key in ("abs", "rel"):
        if type(eps.get(key)) not in (int, float, type(None)):
            raise ScenarioError(f"eps.{key} must be a number, got {eps[key]!r}")
    try:
        backend = get_backend(backend_name, eps.get("abs"), eps.get("rel"))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if points is None:
        return backend, n, None
    if not isinstance(points, list):
        raise ScenarioError(f"initial points must be a list, got {points!r}")
    if len(points) != n:
        raise ScenarioError(f"{len(points)} initial points for nG={n}")
    try:
        conf = tuple([_point_in(pair, backend, memo) for pair in points])
    except (TraceFormatError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise ScenarioError(f"bad initial coordinates: {exc}") from exc
    return backend, n, conf


def read_scenario(data) -> tuple[Backend, Configuration, verify.Strategy, int]:
    """The backend, initial configuration, demon and round budget of a
    scenario, the JSON object ``robogather run`` reads (see README, "Scenario
    format"), validated in one pass: a key it does not name is an input
    error (ScenarioError), as is every bad value."""
    data = _obj(data, "scenario", ("nG", "backend", "eps", "initial", "demon", "horizon", "allow_forbidden"))
    if "nG" not in data:
        raise ScenarioError("scenario is missing 'nG'")
    initial = _obj(data.get("initial"), "initial", ("points", "generator"))
    points, gen = initial.get("points"), initial.get("generator")
    if points is not None and gen is not None:
        raise ScenarioError("initial takes points or generator, not both")
    backend, n, conf = _read_start(data, data.get("backend", "exact"), points, 3, {})
    horizon = _int(data.get("horizon"), "horizon", optional=True)
    if horizon is not None and horizon < 0:
        raise ScenarioError(f"horizon must be at least 0, got {horizon}")
    allow_forbidden = _bool(data.get("allow_forbidden", False), "allow_forbidden")

    if conf is not None:
        if gather2d.forbidden(conf, backend) and not allow_forbidden:
            raise ScenarioError(
                "initial configuration is bivalent; pass allow_forbidden "
                "(negative tests only) to run it anyway"
            )
    else:
        gen = _obj(gen, "initial.generator", ("bbox", "pool", "seed"))
        rng = random.Random(_int(gen.get("seed", 0), "generator seed"))
        bbox = _int(gen.get("bbox", 10), "generator bbox")
        if not backend.is_exact and bbox > FLOAT_INPUT_MAX:
            raise ScenarioError(f"generator bbox must be at most {FLOAT_INPUT_MAX:g} on floats, got {bbox}")
        pool = _int(gen.get("pool"), "generator pool", optional=True)
        try:
            conf = verify.gen_initial(n, rng, backend, bbox=bbox, pool_size=pool)
        except (ValueError, IndexError, RuntimeError) as exc:
            # e.g. a negative bbox, an empty pool or more pool points than the box holds
            raise ScenarioError(f"cannot generate the initial configuration: {exc}") from exc

    demon = _obj(data.get("demon"), "demon", ("kind", "seed", "k", "script"))
    kind = demon.get("kind", "round_robin")
    seed = _int(demon.get("seed", 0), "demon seed")
    k = _int(demon.get("k"), "demon k", optional=True)
    try:
        strategy = verify.Strategy(kind, n, backend, seed=seed, k=k, script=demon.get("script"))
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"bad demon: {exc}") from exc
    if horizon is None:
        horizon = verify.horizon_for(strategy.k, n)
    return backend, conf, strategy, horizon


def load_scenario(path: str) -> dict:
    """The scenario object of the JSON file at ``path``, unvalidated
    (``read_scenario`` validates it); ScenarioError unless the file reads as
    one JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    return data


def save_scenario(data: dict, path: str) -> None:
    """Write the scenario object ``data`` to ``path``: ``json.dump`` with an
    indent of 2, then a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def write_trace(
    path: str,
    trace: Trace,
    backend: Backend,
    k: Optional[int] = None,
    strategy_kind: Optional[str] = None,
    seed: Optional[int] = None,
    horizon: Optional[int] = None,
    summaries: Sequence[gather2d.RoundSummary] = (),
) -> None:
    """Serialize a trace as JSON lines with per-round annotations read from
    ``verify.summaries_of``: ``robogather run`` passes the ``summaries`` its
    execution made, and no list given changes a byte."""
    summary_of = verify.summaries_of(trace, backend, summaries)
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "type": "header",
            "backend": backend.name,
            "nG": len(trace.initial),
            "k": k,
            "strategy": strategy_kind,
            "seed": seed,
            "horizon": horizon,
            "initial": [_point_out(p, backend) for p in trace.initial],
        }
        if not backend.is_exact:
            header["eps"] = {"abs": backend.eps_abs, "rel": backend.eps_rel}
        fh.write(json.dumps(header) + "\n")

        # The JSON text of each distinct point and frame, made once per
        # write and keyed by object (each entry holds its object, so no id is
        # reused); a round's locations are encoded again only when its
        # configuration is not made of the previous one's very objects.
        texts: dict[int, tuple[Any, str]] = {}

        def text(obj, out) -> str:
            hit = texts.get(id(obj))
            if hit is None:
                hit = texts[id(obj)] = (obj, json.dumps(out(obj, backend)))
            return hit[1]

        def locations_text(conf: Configuration) -> str:
            return "[" + ", ".join([text(p, _point_out) for p in conf]) + "]"

        points_eq = backend.points_eq
        prev = trace.initial
        locations = locations_text(prev)
        gathered_round = 0 if next(summary_of).gathered_pt is not None else None
        for step, summary in zip(trace.steps, summary_of):
            cur = step.config
            if verify._same_points(cur, prev):
                moving = []
            else:
                locations = locations_text(cur)
                moving = [i for i, (p, q) in enumerate(zip(prev, cur)) if p is not q and not points_eq(p, q)]
            rest = {
                "phase": summary.phase.value,
                "measure": [summary.measure.weight, summary.measure.residual],
                "moving": moving,
                "clean": summary.clean,
                "forbidden": summary.forbidden,
                "gathered": summary.gathered_pt is not None,
            }
            # the bytes of json.dumps of the whole record, keys in this order
            steps = ", ".join(["null" if fp is None else text(fp, _frame_out) for fp in step.action.steps])
            fh.write(
                f'{{"type": "round", "index": {step.index}, "steps": [{steps}], '
                f'"locations": {locations}, {json.dumps(rest)[1:]}\n'
            )
            if gathered_round is None and summary.gathered_pt is not None:
                gathered_round = step.index + 1
            prev = cur
        end = {
            "type": "end",
            "rounds": len(trace.steps),
            "stopped_early": trace.stopped_early,
            "gathered_round": gathered_round,
        }
        fh.write(json.dumps(end) + "\n")


@dataclass
class LoadedTrace:
    trace: Trace
    backend: Backend
    k: Optional[int]
    seed: Optional[int]


def read_trace(path: str) -> LoadedTrace:
    """Parse a trace file back into a checkable Trace with shared points and
    frames; the header's nG must be at least 1 and count its initial points,
    the k-th round record must have index k, and the header and every frame
    may hold only the keys the writer writes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from exc
    if not lines:
        raise TraceFormatError("empty trace file")
    records = []
    for i, ln in enumerate(lines):
        try:
            records.append(json.loads(ln))
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {i + 1}: invalid JSON: {exc}") from exc
    header = records[0]
    if not isinstance(header, dict) or header.get("type") != "header":
        raise TraceFormatError("first record must be the header")
    # the document's memos, one per kind of object
    point_memo: dict = {}
    frame_memo: dict = {}
    scalar_memo: dict = {}
    try:
        _obj(header, "header", _HEADER_KEYS)
        backend, _, initial = _read_start(header, header["backend"], header["initial"], 1, point_memo)
        if initial is None:
            raise ScenarioError("initial points must be a list, got None")
        k = _int(header.get("k"), "k", optional=True)
        seed = _int(header.get("seed"), "seed", optional=True)
        if k is not None and k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
    except (KeyError, ValueError, TypeError, ZeroDivisionError, ScenarioError) as exc:
        raise TraceFormatError(f"bad header: {exc}") from exc

    steps: list[model.TraceStep] = []
    stopped_early = False
    for rec in records[1:]:
        if not isinstance(rec, dict):
            raise TraceFormatError(f"record is not a JSON object: {rec!r}")
        kind = rec.get("type")
        if kind == "round":
            try:
                fps = [obj if obj is None else _frame_in(obj, backend, frame_memo, scalar_memo) for obj in rec["steps"]]
                action = DemonicAction(tuple(fps))
                config = tuple([_point_in(pair, backend, point_memo) for pair in rec["locations"]])
                index = _int(rec["index"], "round index")
            except (KeyError, ValueError, TypeError, ZeroDivisionError, ScenarioError) as exc:
                raise TraceFormatError(f"bad round record: {exc}") from exc
            if len(config) != len(initial) or len(action.steps) != len(initial):
                raise TraceFormatError("round record size does not match nG")
            if index != len(steps):
                raise TraceFormatError(f"round record at position {len(steps)} has index {index}")
            steps.append(model.TraceStep(index, action, config))
        elif kind == "end":
            try:
                stopped_early = _bool(rec.get("stopped_early", False), "stopped_early")
            except ScenarioError as exc:
                raise TraceFormatError(f"bad end record: {exc}") from exc
        else:
            raise TraceFormatError(f"unknown record type {kind!r}")
    return LoadedTrace(
        trace=Trace(initial, steps, stopped_early),
        backend=backend,
        k=k,
        seed=seed,
    )


def scenario_for_run(spec: verify.RunSpec, backend: Backend) -> dict:
    """Freeze a fuzz run into a replayable scenario with explicit coordinates
    and, on floats, the run's tolerance."""
    data: dict[str, Any] = {
        "nG": spec.n_robots,
        "backend": spec.backend_name,
        "initial": {"points": [_point_out(p, backend) for p in spec.initial]},
        "demon": {"kind": spec.strategy_kind, "seed": spec.strategy_seed, "k": spec.k},
    }
    if not backend.is_exact:
        data["eps"] = {"abs": backend.eps_abs, "rel": backend.eps_rel}
    data["horizon"] = spec.horizon
    return data
