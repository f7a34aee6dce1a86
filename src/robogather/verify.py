"""Demon strategy generators and the property/fuzz harness.

Strategies produce k-fair action streams by construction (a deadline forces
any robot about to starve); the checker replays a finished trace and grades
every round against the protocol's invariants: the local/global round
equivalence, common destination of movers, unreachability of bivalent
configurations, strict measure decrease, phase-transition conformance and
gather persistence. Failures are report entries with a replayable seed,
never exceptions. Every demon kind is one entry of ``DEMON_KINDS``;
``fuzz`` accepts those that need no given script (``UNSCRIPTED_KINDS``).
"""
from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from . import gather2d, geometry, model
from .gather2d import EXPECTED_ARCS, Phase, RoundSummary
from .model import Configuration, DemonicAction, FrameParams, Trace, TraceStep
from .scalars import Backend, Point

# Every demon kind: (its bound k, its activation script), each for n robots.
# A script fixes k; None makes a deadline demon and GIVEN_SCRIPT one whose
# script the caller gives, and either may be given its own k.
GIVEN_SCRIPT = "given"
DEMON_KINDS = {
    "round_robin": (lambda n: n, lambda n: [[i] for i in range(n)]),
    "all_active": (lambda n: 1, lambda n: [range(n)]),
    "random_kfair": (lambda n: 2 * n, None),
    "single_mover": (lambda n: 2 * n, None),
    "adversarial": (lambda n: n, GIVEN_SCRIPT),
    # Never activates robot 0; claims round-robin fairness. Negative control.
    "unfair_skip0": (lambda n: n, lambda n: [[1 + i % (n - 1)] for i in range(n - 1)]),
}
# The kinds that need no given script: those ``fuzz`` accepts.
UNSCRIPTED_KINDS = tuple(kind for kind, (_, script) in DEMON_KINDS.items() if script != GIVEN_SCRIPT)

# The strategies a fuzz campaign draws from unless told otherwise.
FUZZ_KINDS = ("round_robin", "all_active", "random_kfair", "single_mover")


def horizon_for(k: int, n_robots: int) -> int:
    """Round budget for a k-fair execution: at most 7·(nG+1) rounds can move
    a robot (the measure has 7 weight levels and the residual is at most nG),
    and a non-gathered configuration sees a mover within any k-window."""
    return k * 7 * (n_robots + 1)


_ZOOM_LO, _ZOOM_HI = Fraction(1, 10), Fraction(10)


def _unit_circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    """The rational point ((1 − t²)/(1 + t²), 2t/(1 + t²)) on the unit
    circle of the half-angle parameter t = p/q, built from the integers
    (q² − p², 2pq) over q² + p²."""
    p, q = t.numerator, t.denominator
    den = q * q + p * p
    return Fraction(q * q - p * p, den), Fraction(2 * p * q, den)


# The exact frame distribution's support: zoom
# _ZOOM_LO + (_ZOOM_HI - _ZOOM_LO) · i/12 = (12 + 99·i)/120 for i = 0..12, the
# unit pair of the half-angle parameter p/q of the draws (p, q), and reflect:
# one shared FrameParams per point, built on first draw, so its form is
# derived once.
_EXACT_FRAMES: list[Optional[FrameParams]] = [None] * (13 * 13 * 6 * 2)
_LOG_ZOOM_RANGE = (math.log(float(_ZOOM_LO)), math.log(float(_ZOOM_HI)))


class FramePolicy:
    """The demon's frame distribution: zoom in [1/10, 10], a uniform
    rotation, reflection with probability 1/2 (robots share no chirality).
    Rotations are rational unit pairs on the exact backend (half-angle
    parameters p/q with |p|, q <= 6) and angle-derived on the floating one."""

    def sample(self, rng: random.Random, backend: Backend) -> FrameParams:
        if backend.is_exact:
            i, p, q, reflect = rng.randint(0, 12), rng.randint(-6, 6), rng.randint(1, 6), rng.random() < 0.5
            key = ((i * 13 + p + 6) * 6 + q - 1) * 2 + reflect
            fp = _EXACT_FRAMES[key]
            if fp is None:
                zoom = Fraction(12 + 99 * i, 120)
                fp = _EXACT_FRAMES[key] = FrameParams(zoom, *_unit_circle_point(Fraction(p, q)), reflect)
            return fp
        zoom = math.exp(rng.uniform(*_LOG_ZOOM_RANGE))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return FrameParams(zoom, math.cos(theta), math.sin(theta), rng.random() < 0.5)


DEFAULT_POLICY = FramePolicy()


class Strategy:
    """A seeded demon of a kind in ``DEMON_KINDS``: callable (round index,
    configuration, optional summary) -> DemonicAction, with a declared
    fairness bound ``k``, the kind's unless given; ValueError on a kind, k
    or script that ``DEMON_KINDS`` does not allow.

    With a script it cycles through the script's activation sets. Without
    one it is a deadline demon: a robot idle for k-1 rounds is due and is
    activated, which makes the schedule k-fair. ``random_kfair`` adds each
    robot with probability 1/2; ``single_mover`` (a stall-maximizing
    adversary) activates the due robots, or else one robot already at its
    destination, read from ``round_global`` given the summary, if any.
    """

    def __init__(
        self,
        kind: str,
        n_robots: int,
        backend: Backend,
        seed: int,
        k: int | None = None,
        script: Sequence[Iterable[int]] | None = None,
    ):
        if kind not in DEMON_KINDS:
            raise ValueError(f"unknown strategy kind {kind!r} (expected one of {tuple(DEMON_KINDS)})")
        if k is not None and k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        kind_k, kind_script = DEMON_KINDS[kind]
        if callable(kind_script) and k is not None and k != kind_k(n_robots):
            raise ValueError(f"demon key 'k' is fixed at {kind_k(n_robots)} for {kind}, got {k}")
        if kind_script != GIVEN_SCRIPT:
            if script is not None:
                raise ValueError(f"demon key 'script' applies to adversarial only, not {kind}")
            script = kind_script(n_robots) if callable(kind_script) else None
        elif script is None:
            raise ValueError(f"{kind} strategy requires a script")
        self.kind = kind
        self.n_robots = n_robots
        self.backend = backend
        self.seed = seed
        self.rng = random.Random(seed)
        self.k = kind_k(n_robots) if k is None else k
        self.script = None if script is None else [set(ids) for ids in script]
        if self.script is not None and (
            not self.script
            or any(type(i) is not int or not 0 <= i < n_robots for ids in self.script for i in ids)
        ):
            raise ValueError(f"script must be a non-empty list of lists of robot ids in [0, {n_robots})")
        self._ages = [0] * n_robots

    def __call__(self, index: int, conf: Configuration, summary: RoundSummary | None = None) -> DemonicAction:
        if self.script is not None:
            active = self.script[index % len(self.script)]
        else:
            due = {i for i, a in enumerate(self._ages) if a >= self.k - 1}
            if self.kind == "random_kfair":
                active = {i for i in range(self.n_robots) if self.rng.random() < 0.5} | due
            elif due:
                active = due
            else:
                dests = gather2d.round_global(range(self.n_robots), conf, self.backend, summary)
                stayers = [i for i in range(self.n_robots) if self.backend.points_eq(conf[i], dests[i])]
                active = {self.rng.choice(stayers) if stayers else self.rng.randrange(self.n_robots)}
            self._ages = [0 if i in active else a + 1 for i, a in enumerate(self._ages)]
        # frames are drawn for the active ids only, in increasing order
        steps: list[Optional[FrameParams]] = [None] * self.n_robots
        for i in sorted(active):
            steps[i] = DEFAULT_POLICY.sample(self.rng, self.backend)
        return DemonicAction(tuple(steps))


def _cocircular_pool(rng: random.Random, backend: Backend, bbox: int, size: int) -> list[Point]:
    """``size`` distinct points on one circle, plus possibly its center and an
    interior point; the only way random draws ever put four towers on a SEC."""
    half = bbox // 2 or 1
    if backend.is_exact:
        cx, cy = Fraction(rng.randint(-half, half)), Fraction(rng.randint(-half, half))
        radius = Fraction(rng.randint(1, half))
        params: set[Fraction] = set()
        while len(params) < size:
            params.add(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
        units = [_unit_circle_point(t) for t in sorted(params)]
        pool = [Point(cx + radius * a, cy + radius * b) for a, b in units]
    else:
        cx, cy = rng.uniform(-half, half), rng.uniform(-half, half)
        radius = rng.uniform(1.0, half)
        angles: list[float] = []
        while len(angles) < size:
            a = rng.uniform(0.0, 2.0 * math.pi)
            if all(abs(a - b) > 0.12 for b in angles):
                angles.append(a)
        pool = [Point(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles]
    if rng.random() < 0.5:
        pool.append(Point(cx, cy))  # the center itself
    if rng.random() < 0.5:
        # a strictly interior point off the center
        pool.append(Point(cx + radius / rng.randint(3, 6), cy))
    return pool


def _equilateral_pool(rng: random.Random, bbox: int) -> list[Point]:
    """Float-only: an equilateral triple (equal within tolerance), possibly
    with an interior point. No exact-rational equilateral triangle exists."""
    half = bbox // 2 or 1
    cx, cy = rng.uniform(-half, half), rng.uniform(-half, half)
    radius = rng.uniform(1.0, half)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    pool = [
        Point(
            cx + radius * math.cos(theta + k * 2.0 * math.pi / 3.0),
            cy + radius * math.sin(theta + k * 2.0 * math.pi / 3.0),
        )
        for k in range(3)
    ]
    if rng.random() < 0.5:
        pool.append(Point(cx, cy))
    if rng.random() < 0.4:
        pool.append(Point(cx + radius / 3.0, cy))
    return pool


def gen_initial(
    n_robots: int,
    rng: random.Random,
    backend: Backend,
    bbox: int = 10,
    pool_size: int | None = None,
) -> Configuration:
    """Random non-bivalent initial configuration inside [-bbox, bbox]².

    Locations are drawn from a small pool so multiplicity points occur with
    positive probability (a pool of one yields a gathered start, which is
    allowed). Unless ``pool_size`` is given, the pool is cocircular (or an
    equilateral triple on the floating backend) with probability 0.4 so the
    corpus also reaches the general and triangle phases. Bivalent draws are
    rejected and resampled. On the floating backend pool points stay more
    than 0.1 apart, clear of the tolerance regime.
    """
    if n_robots < 3:
        raise ValueError("at least 3 robots are required")
    while True:
        pool: list[Point] = []
        if pool_size is None and rng.random() < 0.4:
            if not backend.is_exact and rng.random() < 0.35:
                pool = _equilateral_pool(rng, bbox)
            else:
                pool = _cocircular_pool(rng, backend, bbox, rng.randint(4, 6))
        else:
            size = pool_size if pool_size is not None else rng.randint(1, min(n_robots, 5))
            guard = 0
            drawn: set[tuple[int, int]] = set()  # the exact pool, as integer pairs
            while len(pool) < size:
                guard += 1
                if guard > 1000:
                    raise RuntimeError("could not draw a separated location pool")
                if backend.is_exact:
                    xy = rng.randint(-bbox, bbox), rng.randint(-bbox, bbox)
                    ok = xy not in drawn
                    drawn.add(xy)
                    p = backend.point(*xy)
                else:
                    p = Point(rng.uniform(-bbox, bbox), rng.uniform(-bbox, bbox))
                    ok = all((p.x - q.x) ** 2 + (p.y - q.y) ** 2 > 1e-2 for q in pool)
                if ok:
                    pool.append(p)
        conf = tuple(rng.choice(pool) for _ in range(n_robots))
        if not gather2d.forbidden(conf, backend):
            return conf


# ---------------------------------------------------------------------------
# Reports


@dataclass
class PropertyStats:
    checks: int = 0
    violations: int = 0


@dataclass(frozen=True)
class Failure:
    prop: str
    run_seed: Optional[int]
    round_index: Optional[int]
    detail: str
    before: Optional[Configuration] = None
    after: Optional[Configuration] = None


PROPERTIES = (
    "chaining",
    "round_simplify",
    "same_destination",
    "never_forbidden",
    "measure_decrease",
    "phase_transition",
    "gather_persistence",
    "k_fairness",
    "gathering",
)

_MAX_FAILURES_KEPT = 25


@dataclass
class CheckReport:
    """Aggregated per-property pass/fail counters plus enough context to
    replay the first counterexamples."""

    properties: dict[str, PropertyStats] = field(default_factory=dict)
    failures: list[Failure] = field(default_factory=list)
    rounds_to_gather: list[int] = field(default_factory=list)
    observed_arcs: set[tuple[Phase, Phase]] = field(default_factory=set)

    def record(
        self,
        prop: str,
        ok: bool,
        run_seed: int | None = None,
        round_index: int | None = None,
        detail: str = "",
        before: Configuration | None = None,
        after: Configuration | None = None,
    ) -> None:
        stats = self.properties.setdefault(prop, PropertyStats())
        stats.checks += 1
        if not ok:
            stats.violations += 1
            if len(self.failures) < _MAX_FAILURES_KEPT:
                self.failures.append(
                    Failure(prop, run_seed, round_index, detail, before, after)
                )

    def merge(self, other: "CheckReport") -> None:
        for prop, stats in other.properties.items():
            mine = self.properties.setdefault(prop, PropertyStats())
            mine.checks += stats.checks
            mine.violations += stats.violations
        self.failures.extend(other.failures[: _MAX_FAILURES_KEPT - len(self.failures)])
        self.rounds_to_gather.extend(other.rounds_to_gather)
        self.observed_arcs |= other.observed_arcs

    @property
    def ok(self) -> bool:
        return all(s.violations == 0 for s in self.properties.values())

    # the fuzz run counters, read from the one ``gathering`` check that
    # ``run_one`` records per run and the rounds to gather of those that did
    @property
    def runs(self) -> int:
        return self.properties.get("gathering", PropertyStats()).checks

    @property
    def gathered_runs(self) -> int:
        return len(self.rounds_to_gather)

    @property
    def timeouts(self) -> int:
        return self.violations_of("gathering")

    def violations_of(self, prop: str) -> int:
        return self.properties.get(prop, PropertyStats()).violations

    def unobserved_arcs(self) -> set[tuple[Phase, Phase]]:
        """Reachability arcs never exercised by the corpus, reported for audit."""
        return set(EXPECTED_ARCS) - self.observed_arcs

    def outside_expected_arcs(self) -> set[tuple[Phase, Phase]]:
        """Observed arcs missing from the expected arc set (the audit trail);
        the checker only tolerates the ones in gather2d.AUDITED_ARCS."""
        return self.observed_arcs - set(EXPECTED_ARCS)

    def summary(self) -> str:
        lines = []
        for prop in PROPERTIES:
            if prop not in self.properties:
                continue
            s = self.properties[prop]
            verdict = "ok" if s.violations == 0 else "FAIL"
            lines.append(f"{prop:s}: {s.checks - s.violations}/{s.checks} {verdict}")
        if self.runs:
            lines.append(
                f"runs: {self.runs}, gathered: {self.gathered_runs}, timeouts: {self.timeouts}"
            )
            if self.rounds_to_gather:
                rtg = self.rounds_to_gather
                lines.append(
                    f"rounds to gather: min {min(rtg)}, max {max(rtg)}, "
                    f"mean {sum(rtg) / len(rtg):.1f}"
                )
            never = sorted(f"{a.value} -> {b.value}" for a, b in self.unobserved_arcs())
            lines.append(f"audit: expected arcs never observed: {', '.join(never) or 'none'}")
        for a, b in sorted((x.value, y.value) for x, y in self.outside_expected_arcs()):
            lines.append(f"audit: observed arc outside the expected reachability graph: {a} -> {b}")
        for f in self.failures[:5]:
            where = f"round {f.round_index}" if f.round_index is not None else "-"
            seed = f"seed {f.run_seed}" if f.run_seed is not None else "unseeded"
            lines.append(f"counterexample [{f.prop}] {seed} {where}: {f.detail}")
        return "\n".join(lines)


def _configs_eq(a: Configuration, b: Configuration, backend: Backend) -> bool:
    """Are ``a`` and ``b`` the same configuration? First one tuple ``==`` in
    C, which tests each pair by identity before ``==``; the robot-by-robot
    ``points_eq`` loop runs only when that says no (float coordinates are
    finite, so ``==`` implies equal within the tolerance)."""
    return tuple(a) == tuple(b) or (len(a) == len(b) and all(map(backend.points_eq, a, b)))


def _same_points(a: Configuration, b: Configuration) -> bool:
    """Does ``a`` hold the very ``Point`` objects of ``b``, in order: the same
    configuration bit for bit?"""
    return len(a) == len(b) and all(map(operator.is_, a, b))


def _summarize_after(conf: Configuration, prev_sum: RoundSummary | None, backend: Backend) -> RoundSummary:
    """``gather2d.summarize(conf)``, or ``prev_sum`` when ``conf`` holds the very
    ``Point`` objects of the configuration it records."""
    if prev_sum is not None and _same_points(conf, prev_sum.conf):
        return prev_sum
    return gather2d.summarize(conf, backend)


def summaries_of(
    trace: Trace, backend: Backend, summaries: Sequence[RoundSummary] = ()
) -> Iterator[RoundSummary]:
    """The summary of each configuration of ``trace``, initial first: the
    entry of ``summaries`` at its position if that records it (its very
    ``Point`` objects, on ``backend``), else the one before it if it holds
    the same objects (``traceio.read_trace`` shares points), else a new
    ``gather2d.summarize``. So a summary always describes its configuration,
    and a stale or misaligned list changes no verdict and no trace byte."""
    summary = None
    for i, conf in enumerate(trace.configs()):
        given = summaries[i] if i < len(summaries) else None
        ok = given is not None and given.backend == backend and _same_points(conf, given.conf)
        summary = given if ok else _summarize_after(conf, summary, backend)
        yield summary


def check_trace(
    trace: Trace,
    backend: Backend,
    declared_k: int | None = None,
    run_seed: int | None = None,
    summaries: Sequence[RoundSummary] = (),
) -> CheckReport:
    """Replay a trace and grade every round against the protocol invariants.

    All verdicts are recomputed from the configurations, so a corrupted
    trace cannot pass. ``chaining`` compares the recorded configuration with
    the local-frame ``model.round`` and ``round_simplify`` with the
    frame-free ``gather2d.round_global``, given the previous configuration's
    summary. Fuzz runs and ``robogather run`` execute on ``round_global``,
    so on their traces ``chaining`` is the runtime check that the local
    round equals the global one, and ``round_simplify`` only confirms the
    executed round. A ``GeometryError`` the local round raises is a
    ``chaining`` violation that names it. A fuzz run passes the ``summaries``
    of its execution; ``robogather check`` none. ``summaries_of`` uses a
    given summary only for the configuration it records, so the local round
    is always handed the spectrum of the very configuration it replays, and
    a stale summary cannot make it repeat a wrong global round.

    A passing check is only counted: a violation's text, and its ``before``
    and ``after`` configurations, are built only when the check fails.
    """
    summary_of = summaries_of(trace, backend, summaries)
    rep = CheckReport()
    r = gather2d.robogram(backend)
    prev = trace.initial
    prev_sum = next(summary_of)
    gathered_pt = prev_sum.gathered_pt
    # checks of the properties not graded on every round; chaining,
    # round_simplify and phase_transition are graded on each one
    rounds, moved, unforbidden, measured, persisted = len(trace.steps), 0, 0, 0, 0

    def fail(prop: str, detail: str) -> None:
        # called in the round it grades, so idx, prev and cur are that round's
        rep.record(prop, False, run_seed, idx, detail, before=prev, after=cur)

    for step, cur_sum in zip(trace.steps, summary_of):
        cur = step.config
        idx = step.index

        try:
            if not _configs_eq(model.round(r, step.action, prev, backend, prev_sum.spectrum), cur, backend):
                fail("chaining", "recorded configuration does not match the local-frame round")
        except geometry.GeometryError as exc:
            fail("chaining", f"the local-frame round raised {type(exc).__name__}: {exc}")

        glob = gather2d.round_global(step.action.activated(), prev, backend, prev_sum)
        if not _configs_eq(glob, cur, backend):
            fail("round_simplify", "recorded configuration does not match the global-view round")

        movers = [i for i in range(len(prev)) if not backend.points_eq(prev[i], cur[i])]
        if movers:
            moved += 1
            dest = cur[movers[0]]
            if not all(backend.points_eq(cur[i], dest) for i in movers[1:]):
                fail("same_destination", f"moving robots {movers} do not share one destination")

        if not prev_sum.forbidden:
            unforbidden += 1
            if cur_sum.forbidden:
                fail("never_forbidden", "a bivalent configuration was reached from a non-bivalent one")
            if movers:
                measured += 1
                if not gather2d.lt_measure(cur_sum.measure, prev_sum.measure):
                    fail(
                        "measure_decrease",
                        f"measure {tuple(cur_sum.measure)} not below {tuple(prev_sum.measure)}",
                    )

        arc = (prev_sum.phase, cur_sum.phase)
        if arc[0] is not arc[1]:
            rep.observed_arcs.add(arc)
        if not gather2d.allowed_transition(*arc):
            fail(
                "phase_transition",
                f"transition {arc[0].value} -> {arc[1].value} is outside the reachability graph",
            )

        if gathered_pt is not None:
            persisted += 1
            if not gather2d.gathered_at(gathered_pt, cur, backend):
                fail("gather_persistence", "a gathered execution left its gathering point")
        elif cur_sum.gathered_pt is not None:
            gathered_pt = cur_sum.gathered_pt

        prev, prev_sum = cur, cur_sum

    for prop, checks in (
        ("chaining", rounds),
        ("round_simplify", rounds),
        ("same_destination", moved),
        ("never_forbidden", unforbidden),
        ("measure_decrease", measured),
        ("phase_transition", rounds),
        ("gather_persistence", persisted),
    ):
        passes = checks - rep.violations_of(prop)  # the failures are recorded
        if passes:
            rep.properties.setdefault(prop, PropertyStats()).checks += passes
    if declared_k is not None:
        rep.record(
            "k_fairness",
            model.check_k_fair(trace.actions(), declared_k),
            run_seed,
            None,
            f"action stream violates {declared_k}-bounded fairness",
        )
    return rep


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to replay one fuzz run."""

    run_seed: int
    strategy_seed: int
    n_robots: int
    strategy_kind: str
    k: int
    backend_name: str
    initial: Configuration
    horizon: int


@dataclass
class Counterexample:
    spec: RunSpec
    trace: Trace


def execute_global(
    strat: Strategy, conf: Configuration, backend: Backend, horizon: int, keep: int = 0
) -> tuple[Trace, list[RoundSummary]]:
    """Execute ``strat`` from ``conf`` on ``gather2d.round_global``. Returns
    the trace and the summary of each configuration, initial first, made
    once per distinct configuration (found by identity, see ``summaries_of``)
    and shared by the demon, the executed round and the stop rule. Stop
    when the last ``keep + 1`` configurations are gathered (``robogather
    run`` keeps 0 rounds after gathering, a fuzz run ``k``), or after
    ``horizon + keep`` rounds."""
    cur, cur_sum = conf, gather2d.summarize(conf, backend)
    summaries = [cur_sum]
    steps: list[TraceStep] = []
    streak = 0  # consecutive gathered configurations, ending at cur
    while True:
        streak = streak + 1 if cur_sum.gathered_pt is not None else 0
        if streak > keep or len(steps) == horizon + keep:
            return Trace(conf, steps, stopped_early=streak > keep), summaries
        da = strat(len(steps), cur, cur_sum)
        cur = gather2d.round_global(da.activated(), cur, backend, cur_sum)
        cur_sum = _summarize_after(cur, cur_sum, backend)
        steps.append(TraceStep(len(steps), da, cur))
        summaries.append(cur_sum)


def run_one(
    run_seed: int,
    backend: Backend,
    ng_range: tuple[int, int] = (3, 8),
    strategy_kinds: Sequence[str] = FUZZ_KINDS,
    horizon: int | None = None,
) -> tuple[RunSpec, Trace, CheckReport]:
    """One seeded fuzz run: generate, execute (``execute_global``), check
    (against the local ``model.round``). Deterministic in the seed.
    ``check_trace`` reuses the summaries of the execution."""
    rng = random.Random(run_seed)
    n_robots = rng.randint(*ng_range)
    kind = rng.choice(list(strategy_kinds))
    strategy_seed = rng.randrange(2**62)
    strat = Strategy(kind, n_robots, backend, seed=strategy_seed)
    conf = gen_initial(n_robots, rng, backend)
    h = horizon if horizon is not None else horizon_for(strat.k, n_robots)
    trace, summaries = execute_global(strat, conf, backend, h, keep=strat.k)
    rep = check_trace(trace, backend, strat.k, run_seed, summaries=summaries)

    gathered_round = next((i for i, s in enumerate(summaries) if s.gathered_pt is not None), None)
    gathered_in_time = gathered_round is not None and gathered_round <= h
    rep.record("gathering", gathered_in_time, run_seed, None, f"not gathered within horizon {h}")
    if gathered_in_time:
        rep.rounds_to_gather.append(gathered_round)
    spec = RunSpec(run_seed, strategy_seed, n_robots, kind, strat.k, backend.name, conf, h)
    return spec, trace, rep


def fuzz(
    n_runs: int,
    backend: Backend,
    ng_range: tuple[int, int] = (3, 8),
    strategy_kinds: Sequence[str] = FUZZ_KINDS,
    seed: int = 0,
    horizon: int | None = None,
) -> tuple[CheckReport, list[Counterexample]]:
    """Run ``n_runs`` independent seeded simulations and grade them all.

    Returns the aggregate report and the first three failing runs (if any)
    with everything needed to replay them.
    """
    master = random.Random(seed)
    report = CheckReport()
    counterexamples: list[Counterexample] = []
    for _ in range(n_runs):
        run_seed = master.randrange(2**62)
        spec, trace, rep = run_one(run_seed, backend, ng_range, strategy_kinds, horizon)
        if (not rep.ok) and len(counterexamples) < 3:
            counterexamples.append(Counterexample(spec, trace))
        report.merge(rep)
    return report, counterexamples
