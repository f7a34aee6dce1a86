"""Shared hypothesis strategies and helpers for the test suite."""
from __future__ import annotations

import math
from fractions import Fraction

import hypothesis
from hypothesis import strategies as st

from robogather import frames, gather2d, geometry, model, verify
from robogather.scalars import EXACT, FLOAT64, FloatBackend, Point

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=100, derandomize=True
)
hypothesis.settings.load_profile("default")


# --- exact-backend strategies ------------------------------------------------

@st.composite
def bounded_fractions(draw, lo, hi, max_den: int):
    """``Fraction(n, d)`` in [lo, hi] with d in 1..max_den: the values of
    ``st.fractions(lo, hi, max_denominator=max_den)``, drawn as two integers
    (d first, then n in [ceil(lo·d), floor(hi·d)]), which is much cheaper."""
    d = draw(st.integers(1, max_den))
    n = draw(st.integers(math.ceil(lo * d), math.floor(hi * d)))
    return Fraction(n, d)


rational = bounded_fractions(-20, 20, 8)

exact_points = st.builds(Point, rational, rational)

exact_point_lists = st.lists(exact_points, max_size=8)


def _unit_pair(t: Fraction) -> tuple[Fraction, Fraction]:
    den = 1 + t * t
    return (1 - t * t) / den, (2 * t) / den


rotation_params = bounded_fractions(-5, 5, 6)

zooms = bounded_fractions(Fraction(1, 10), 10, 10)


@st.composite
def exact_similarities(draw):
    """Exact frames as production builds them, through ``make_frame`` for a
    drawn robot location; each carries the integer form its ``FrameParams``
    derived when it was built."""
    zoom = draw(zooms)
    c, s = _unit_pair(draw(rotation_params))
    reflect = draw(st.booleans())
    return frames.make_frame(draw(exact_points), model.FrameParams(zoom, c, s, reflect), EXACT)


# --- float-backend strategies ------------------------------------------------

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)

float_points = st.builds(Point, finite_floats, finite_floats)

float_point_lists = st.lists(float_points, max_size=10)


# --- helpers ------------------------------------------------------------------


def closed_form_frame(ref) -> model.FrameParams:
    """The exact demon's frame built from the draws of ``ref`` directly, in
    the order ``FramePolicy.sample`` makes them."""
    zoom = Fraction(12 + 99 * ref.randint(0, 12), 120)
    c, s = verify._unit_circle_point(Fraction(ref.randint(-6, 6), ref.randint(1, 6)))
    return model.FrameParams(zoom, c, s, ref.random() < 0.5)


def sec_boundary(points, backend) -> list:
    """The input points on the boundary of their SEC, deduplicated, in input
    order: built from ``geometry.sec`` and ``geometry.on_circle``."""
    c = geometry.sec(points, backend)[0]
    out: list = []
    for p in points:
        if not any(backend.points_eq(p, q) for q in out) and geometry.on_circle(c, p, backend):
            out.append(p)
    return out


def local_round_matches_global(conf, da, backend) -> bool:
    """Does one local-frame round equal the global-view round? Graded by
    ``verify.check_trace``'s ``chaining`` on a one-round trace that records
    the global round."""
    after = gather2d.round_global(da.activated(), conf, backend)
    trace = model.Trace(conf, [model.TraceStep(0, da, after)])
    return verify.check_trace(trace, backend).violations_of("chaining") == 0


def local_step(backend):
    """The local-frame round of the gathering robogram, as a step function
    for ``model.execute``."""
    r = gather2d.robogram(backend)
    return lambda da, conf: model.round(r, da, conf, backend)


def gathered_stable_stop(backend, extra: int):
    """Stop predicate for ``model.execute``: gathered and stayed gathered for
    ``extra`` more rounds (the stop rule of ``verify.run_one``)."""
    streak = 0

    def stop(conf) -> bool:
        nonlocal streak
        if gather2d.gathering_point(conf, backend) is not None:
            streak += 1
        else:
            streak = 0
        return streak > extra

    return stop


def first_gathered_round(trace, backend):
    """Index of the first gathered configuration (0 = initial), or None."""
    for i, conf in enumerate(trace.configs()):
        if gather2d.gathering_point(conf, backend) is not None:
            return i
    return None


def distinct_configs(trace) -> int:
    """The initial configuration plus each one whose robots are not all the
    same objects as its predecessor's: what is summarized once each."""
    confs = trace.configs()
    return 1 + sum(not all(p is q for p, q in zip(a, b)) for a, b in zip(confs, confs[1:]))


def executed_run(run_seed: int, backend):
    """The spec of ``verify.run_one(run_seed, backend)``, and the trace and
    summaries of its execution as ``run_one`` hands them to the checker."""
    spec, _trace, _rep = verify.run_one(run_seed, backend)
    strat = verify.Strategy(spec.strategy_kind, spec.n_robots, backend, seed=spec.strategy_seed)
    trace, summaries = verify.execute_global(strat, spec.initial, backend, spec.horizon, keep=spec.k)
    return spec, trace, summaries


def misaligned_summaries(trace, summaries, other_run, backend) -> dict:
    """Summary lists that do not record ``trace``'s configurations position
    by position, by name: its own ``summaries`` shifted by one, one short,
    one long and reversed, ``other_run``'s, and those of its very points on
    a backend that summarizes them differently."""
    other = FLOAT64 if backend.is_exact else FloatBackend(eps_abs=5.0, eps_rel=0.0)
    return {
        "shifted": summaries[1:] + summaries[-1:],
        "short": summaries[:-1],
        "long": summaries + summaries[-1:],
        "reversed": summaries[::-1],
        "another run": other_run,
        "other backend": [gather2d.summarize(conf, other) for conf in trace.configs()],
    }


class SecRuns:
    """Counts of ``geometry.sec``'s Welzl runs while installed on
    ``monkeypatch``: ``hinted`` is the calls given an exact form with a
    ``hint`` (each runs Welzl once on the hint's 2-4 points, and once more
    only if that circle misses a point), ``full`` the Welzl runs on a whole
    distinct set, every run but the hinted ones."""

    def __init__(self, monkeypatch):
        self.welzl = self.hinted = 0
        welzl, sec = geometry._welzl, geometry.sec

        def counting_welzl(pts):
            self.welzl += 1
            return welzl(pts)

        def counting_sec(points, backend):
            self.hinted += bool(getattr(points, "hint", None))
            return sec(points, backend)

        monkeypatch.setattr(geometry, "_welzl", counting_welzl)
        monkeypatch.setattr(geometry, "sec", counting_sec)

    @property
    def full(self) -> int:
        return self.welzl - self.hinted

    def clear(self) -> None:
        self.welzl = self.hinted = 0


def circles_eq(a, b, backend) -> bool:
    return backend.points_eq(a.center, b.center) and backend.eq(a.radius_sq, b.radius_sq)


def assert_points_close(p, q, tol=1e-9):
    assert abs(float(p.x) - float(q.x)) <= tol and abs(float(p.y) - float(q.y)) <= tol, (p, q)
