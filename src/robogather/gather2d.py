"""The universal gathering protocol in the plane.

Destinations are computed from the spectrum alone: go to the unique highest
tower if there is one; otherwise aim at a *target* derived from the towers on
the smallest enclosing circle (SEC center in general, special vertex choices
when exactly three towers sit on the SEC). A spectrum is *clean* when every
tower is on the SEC or at the target; in a dirty spectrum, robots already on
the SEC or at the target hold still while the others move in, cleaning it.

The module also provides the global-frame restatement of a round
(``round_global``), the twelve-phase classification, the bivalent
("forbidden") predicate, and the lexicographic termination measure.

One analysis per distinct configuration: ``summarize`` builds the spectrum
once and runs ``_analyze`` (which computes the SEC) at most once, and reads
the phase, measure, forbidden flag and gathering point from that spectrum
and that analysis, whose target pick also records the (clean, dirty)
phases of the SEC towers' shape. A majority spectrum needs no SEC, so its
analysis is made on first need (``RoundSummary.sec_analysis``). ``pgm``
calls ``_analyze`` alone. ``round_global`` reads everything from a summary
(made with ``summarize`` when not given), and returns an exact robot that
stays, even one activated at its destination, as its own ``Point`` object.
So ``verify.execute_global`` (fuzz, ``robogather run``) and ``check`` (on
the shared points of ``traceio.read_trace``) reuse the summary of a round
that moves no robot, by identity. In a dirty round it decides whether a
robot holds still once per location object. The local-frame
``model.round`` is never given a summary: ``verify.check_trace`` hands it
at most the spectrum of a summary that records the very configuration, and
it runs ``pgm`` in every robot's frame. A spectrum is the view in the
global frame (``frames.View``): every reader here takes its towers and
multiplicities, and one majority rule (``highest_tower``) finds its unique
highest tower. Exact towers are ``geometry.IntegerPoints``, whose integers
``geometry.sec`` reads; a robot's view builds a tower's ``Point`` only for
the unique highest tower or the SEC boundary. The analysis of an exact
spectrum records the indices of its SEC towers on the towers (their
``hint``), and every view of that spectrum starts its SEC from them. A
similarity maps the SEC onto the SEC and the SEC is unique, and ``sec``
accepts the hinted circle only when it encloses every tower of the view,
so the hint can change no verdict, only the time a view's SEC takes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from . import geometry, model
from .geometry import Circle, TriangleKind
from .model import Configuration, Robogram, View
from .scalars import Backend, Point


class EmptySpectrum(Exception):
    """Analysis of an empty spectrum: with at least 3 robots this is a
    harness bug, so it fails fast instead of returning a default."""


class InternalInvariant(Exception):
    """A geometrically impossible situation (e.g. a multi-tower spectrum
    whose SEC holds fewer than two towers)."""


class Phase(Enum):
    GATHERED = "gathered"
    MAJORITY = "majority"
    DIAMETER_CLEAN = "diameter_clean"
    DIAMETER_DIRTY = "diameter_dirty"
    EQUILATERAL_CLEAN = "equilateral_clean"
    EQUILATERAL_DIRTY = "equilateral_dirty"
    ISOSCELES_CLEAN = "isosceles_clean"
    ISOSCELES_DIRTY = "isosceles_dirty"
    SCALENE_CLEAN = "scalene_clean"
    SCALENE_DIRTY = "scalene_dirty"
    GENERAL_CLEAN = "general_clean"
    GENERAL_DIRTY = "general_dirty"


# Weight of the phase the moving robots are in; first component of the
# termination measure. GATHERED is terminal and gets the global minimum.
PHASE_WEIGHT: dict[Phase, int] = {
    Phase.GATHERED: 0,
    Phase.MAJORITY: 0,
    Phase.DIAMETER_CLEAN: 1,
    Phase.DIAMETER_DIRTY: 2,
    Phase.EQUILATERAL_CLEAN: 3,
    Phase.ISOSCELES_CLEAN: 3,
    Phase.SCALENE_CLEAN: 3,
    Phase.EQUILATERAL_DIRTY: 4,
    Phase.ISOSCELES_DIRTY: 4,
    Phase.SCALENE_DIRTY: 4,
    Phase.GENERAL_CLEAN: 5,
    Phase.GENERAL_DIRTY: 6,
}

class Measure(NamedTuple):
    """Lexicographic termination measure: (phase weight, residual count)."""

    weight: int
    residual: int


def lt_measure(a: Measure, b: Measure) -> bool:
    """Strict lexicographic order; well-founded on pairs of naturals."""
    return a.weight < b.weight or (a.weight == b.weight and a.residual < b.residual)


def target_triangle(p1: Point, p2: Point, p3: Point, backend: Backend) -> tuple[Point, TriangleKind]:
    """Destination when exactly three towers sit on the SEC, and the kind of
    their triangle.

    Equilateral: the barycenter. Otherwise the apex ``classify_triangle``
    finds: for isosceles (excluding equilateral) the vertex shared by the
    two equal sides, for scalene the vertex opposite the longest side.
    Permutation-invariant.
    """
    shape = geometry.classify_triangle(p1, p2, p3, backend)
    if shape.apex is None:
        return geometry.barycenter_3(p1, p2, p3), shape.kind
    return shape.apex, shape.kind


# The (clean, dirty) phases of each shape the SEC towers form: a diameter,
# a triangle of each kind (``TriangleKind`` values), or a general polygon.
_SHAPE_PHASES = {
    shape: (Phase(f"{shape}_clean"), Phase(f"{shape}_dirty"))
    for shape in ("diameter", "equilateral", "isosceles", "scalene", "general")
}


@dataclass(frozen=True)
class _Analysis:
    """Shared per-spectrum geometry, computed once."""

    boundary: list[Point]  # towers on the SEC
    circle: Circle
    tgt: Point
    sect_pts: list[Point]
    clean: bool
    phases: tuple[Phase, Phase]  # (clean, dirty), from the shape of the boundary


def _analyze(towers: Sequence[Point], backend: Backend) -> _Analysis:
    """The SEC of ``towers``, with its boundary as ``geometry.sec`` returns
    it (one integer pass on the exact backend, on the integers themselves
    for an exact view's ``geometry.IntegerPoints``), the target, the points a
    robot may hold still on, the clean flag, and the phases of the
    boundary's shape, recorded while the target is picked.

    Exact towers are distinct, so a clean exact spectrum has at most one
    tower off the SEC, at a target that is no boundary tower; ``in`` finds
    it, and a view builds no point off its boundary."""
    if not towers:
        raise EmptySpectrum("cannot analyze an empty spectrum")
    circle, boundary = geometry.sec(towers, backend)
    if len(boundary) == 1:
        tgt, phases = boundary[0], (Phase.GATHERED, Phase.GATHERED)
    elif len(boundary) == 3:
        tgt, kind = target_triangle(boundary[0], boundary[1], boundary[2], backend)
        phases = _SHAPE_PHASES[kind.value]
    elif len(boundary) >= 2:
        tgt, phases = circle.center, _SHAPE_PHASES["diameter" if len(boundary) == 2 else "general"]
    else:
        raise InternalInvariant("spectrum support has no tower on its own SEC")
    sect_pts = list(boundary)
    if not any(backend.points_eq(tgt, p) for p in sect_pts):
        sect_pts.insert(0, tgt)
    if backend.is_exact:
        off = len(towers) - len(boundary)
        clean = off == 0 or (off == 1 and len(sect_pts) > len(boundary) and tgt in towers)
    else:
        clean = all(any(backend.points_eq(p, q) for q in sect_pts) for p in towers)
    return _Analysis(boundary, circle, tgt, sect_pts, clean, phases)


def target(s: View, backend: Backend) -> Point:
    """The common destination of a multi-tower spectrum: the single SEC tower
    when there is only one (already gathered), the triangle rule for exactly
    three, and the SEC center otherwise."""
    return _analyze(s.towers, backend).tgt


def highest_tower(s: View) -> Optional[int]:
    """The majority rule: the index of the tower of ``s`` that holds more
    robots than any other, or None (highest towers tie, or there is none)."""
    mults = s.mults
    top = max(mults, default=0)
    return mults.index(top) if mults.count(top) == 1 else None


def pgm(s: View, backend: Backend) -> Point:
    """Destination computed by a robot from its view ``s``: its towers and
    their multiplicities (``model.View``).

    The observer sits at the origin of its own frame. Total by construction:
    the unreachable no-robot branch returns the origin.
    """
    origin = backend.origin()
    if not s.mults:
        return origin
    top = highest_tower(s)
    if top is not None:  # read only the unique highest tower
        return s.towers[top]
    ana = _analyze(s.towers, backend)
    if not ana.clean and any(backend.points_eq(origin, q) for q in ana.sect_pts):
        return origin
    return ana.tgt


def robogram(backend: Backend) -> Robogram:
    """The gathering protocol as a robogram: ``pgm`` on ``backend``."""
    return lambda s: pgm(s, backend)


def round_global(
    activated: Iterable[int],
    conf: Configuration,
    backend: Backend,
    summary: Optional[RoundSummary] = None,
) -> Configuration:
    """One round restated in the global frame, with no local frames at all.

    Activated robots: go to the unique highest tower if any; in a clean
    spectrum go to the target; in a dirty one, hold still when already on
    the SEC or at the target, otherwise go to the target. Must agree with
    model.round on the gathering robogram for every valid action.

    Everything is read from ``summary``, which is ``summarize(conf,
    backend)`` and is made here when not given: the analysis, or, when there
    is none (gathered and majority), the highest tower of its spectrum.
    Only the activated ids are visited, in any order and with repeats: a
    robot's move reads ``conf`` alone.
    """
    if summary is None:
        summary = summarize(conf, backend)
    ana, s = summary.analysis, summary.spectrum
    dest = s.towers[highest_tower(s)] if ana is None else ana.tgt
    out, exact = list(conf), backend.is_exact
    if ana is None or ana.clean:
        # an exact robot activated at its destination keeps its own Point (on
        # floats -0.0 == 0.0, but the two print differently in a trace)
        for i in activated:
            if not (exact and conf[i] == dest):
                out[i] = dest
        return tuple(out)
    sect = ana.sect_pts
    holds: dict[int, bool] = {}  # id of a location object -> it is on the SEC or the target
    for i in activated:
        loc = conf[i]
        hold = holds.get(id(loc))
        if hold is None:
            # exact: list ``in``, which tests identity before ``==``, in C
            hold = holds[id(loc)] = loc in sect if exact else any(backend.points_eq(loc, q) for q in sect)
        if not hold:
            out[i] = dest
    return tuple(out)


def _classify(s: View, backend: Backend) -> tuple[Phase, Optional[_Analysis]]:
    """The phase of ``s`` and the analysis it was read from (None for the
    gathered and majority phases, which need no SEC)."""
    n_towers = len(s.mults)
    if not n_towers:
        raise EmptySpectrum("cannot classify an empty spectrum")
    if n_towers == 1:
        return Phase.GATHERED, None
    if highest_tower(s) is not None:
        return Phase.MAJORITY, None
    ana = _analyze(s.towers, backend)
    n = len(ana.boundary)
    if n < 2:
        raise InternalInvariant(f"{n_towers} towers but {n} on the SEC")
    return ana.phases[not ana.clean], ana


def classify_phase(s: View, backend: Backend) -> Phase:
    """Total, deterministic classification of a spectrum into the twelve
    mutually exclusive protocol phases."""
    return _classify(s, backend)[0]


def _bivalent(mults: Sequence[int]) -> bool:
    """Two towers of equal multiplicity."""
    return len(mults) == 2 and mults[0] == mults[1]


def forbidden(conf: Configuration, backend: Backend) -> bool:
    """Bivalent configurations: an even robot count split exactly half-and-half
    across two locations. Gathering is impossible from these. Read from the
    tower counts of ``model.towers_of``, the grouping of ``spectrum_of``,
    with no spectrum built."""
    return _bivalent(model.towers_of(conf, backend)[1])


def gathered_at(pt: Point, conf: Configuration, backend: Backend) -> bool:
    """True iff every robot is at ``pt``: on the exact backend counted in C
    (``tuple.count`` tests identity before ``==``)."""
    if backend.is_exact:
        return conf.count(pt) == len(conf)
    return all(backend.points_eq(loc, pt) for loc in conf)


def gathering_point(conf: Configuration, backend: Backend) -> Optional[Point]:
    """The common location if the configuration is gathered, else None."""
    first = conf[0]
    if all(backend.points_eq(loc, first) for loc in conf[1:]):
        return first
    return None


# Reachability between phases, used by the trace checker. Self-loops are
# always allowed (partial activations may leave the spectrum unchanged);
# every dirty phase can also fall straight into MAJORITY, and the triangle
# phases are all linked to MAJORITY as well.
_P = Phase
EXPECTED_ARCS: frozenset[tuple[Phase, Phase]] = frozenset(
    {
        (_P.MAJORITY, _P.GATHERED),
        (_P.DIAMETER_CLEAN, _P.GATHERED),
        (_P.DIAMETER_CLEAN, _P.MAJORITY),
        (_P.DIAMETER_DIRTY, _P.DIAMETER_CLEAN),
        (_P.DIAMETER_DIRTY, _P.MAJORITY),
        (_P.EQUILATERAL_CLEAN, _P.DIAMETER_DIRTY),
        (_P.EQUILATERAL_CLEAN, _P.GATHERED),
        (_P.EQUILATERAL_CLEAN, _P.MAJORITY),
        (_P.ISOSCELES_CLEAN, _P.GATHERED),
        (_P.ISOSCELES_CLEAN, _P.MAJORITY),
        (_P.SCALENE_CLEAN, _P.GATHERED),
        (_P.SCALENE_CLEAN, _P.MAJORITY),
        (_P.EQUILATERAL_DIRTY, _P.EQUILATERAL_CLEAN),
        (_P.EQUILATERAL_DIRTY, _P.MAJORITY),
        (_P.ISOSCELES_DIRTY, _P.ISOSCELES_CLEAN),
        (_P.ISOSCELES_DIRTY, _P.MAJORITY),
        (_P.SCALENE_DIRTY, _P.SCALENE_CLEAN),
        (_P.SCALENE_DIRTY, _P.MAJORITY),
        (_P.GENERAL_CLEAN, _P.DIAMETER_CLEAN),
        (_P.GENERAL_CLEAN, _P.DIAMETER_DIRTY),
        (_P.GENERAL_CLEAN, _P.EQUILATERAL_CLEAN),
        (_P.GENERAL_CLEAN, _P.ISOSCELES_CLEAN),
        (_P.GENERAL_CLEAN, _P.SCALENE_DIRTY),
        (_P.GENERAL_CLEAN, _P.ISOSCELES_DIRTY),
        (_P.GENERAL_CLEAN, _P.MAJORITY),
        (_P.GENERAL_DIRTY, _P.GENERAL_CLEAN),
        (_P.GENERAL_DIRTY, _P.MAJORITY),
    }
)

# Transitions absent from the expected arc set above but confirmed reachable
# by hand geometry. A clean general spectrum (>= 4 towers on the SEC,
# everything on the SEC or at its center) gathers in a single all-active
# round exactly like every other clean phase: all robots move to the center.
# Example: towers at (3,2), (3,8), (27/5,16/5), (96/25,53/25) -- all at
# squared distance 9 from (3,5) -- plus a tower at (3,5) itself. The checker
# accepts these but reports them separately so the discrepancy stays visible.
AUDITED_ARCS: frozenset[tuple[Phase, Phase]] = frozenset(
    {
        (_P.GENERAL_CLEAN, _P.GATHERED),
    }
)


def allowed_transition(before: Phase, after: Phase) -> bool:
    return (
        before is after
        or (before, after) in EXPECTED_ARCS
        or (before, after) in AUDITED_ARCS
    )


@dataclass(frozen=True)
class RoundSummary:
    """Derived, per-configuration annotations recorded in traces, with the
    configuration they describe, and the spectrum and the analysis they were
    read from (None for the gathered and majority phases)."""

    phase: Phase
    measure: Measure
    forbidden: bool
    gathered_pt: Optional[Point]
    spectrum: View = field(compare=False, repr=False)
    analysis: Optional[_Analysis] = field(compare=False, repr=False)
    backend: Backend = field(compare=False, repr=False)
    conf: Configuration = field(compare=False, repr=False)

    @cached_property
    def sec_analysis(self) -> _Analysis:
        """``analysis``, or for the gathered and majority phases one made on
        first need, for ``clean`` and ``render`` (a frozen dataclass still
        has the ``__dict__`` that caches it)."""
        return self.analysis or _analyze(self.spectrum.towers, self.backend)

    @property
    def clean(self) -> bool:
        """Every tower on the SEC or at the target."""
        return self.phase is Phase.GATHERED or self.sec_analysis.clean


def summarize(conf: Configuration, backend: Backend) -> RoundSummary:
    """Phase, termination measure, clean and forbidden flags and gathering
    point of a configuration, all read from one spectrum and one analysis.

    The measure is lexicographic (phase weight, residual count). Majority:
    robots away from the unique highest tower. Clean phases: robots away
    from the target. Dirty phases: robots neither at the target nor on the
    SEC. Gathered maps to the global minimum (0, 0).
    """
    s = model.spectrum_of(conf, backend)
    phase, ana = _classify(s, backend)
    if phase is Phase.GATHERED:
        # one tower means every robot is at the first one's location
        return RoundSummary(phase, Measure(0, 0), False, s.towers[0], s, None, backend, conf)
    if phase is Phase.MAJORITY:
        residual = len(conf) - s.mults[highest_tower(s)]
    else:
        # robots neither at the target nor, when dirty, on the SEC (a tower
        # is on the SEC iff it is in the boundary list)
        residual = sum(
            m
            for p, m in zip(s.towers, s.mults)
            if not backend.points_eq(p, ana.tgt) and (ana.clean or p not in ana.boundary)
        )
    return RoundSummary(
        phase=phase,
        measure=Measure(PHASE_WEIGHT[phase], residual),
        forbidden=_bivalent(s.mults),
        gathered_pt=None,
        spectrum=s,
        analysis=ana,
        backend=backend,
        conf=conf,
    )
