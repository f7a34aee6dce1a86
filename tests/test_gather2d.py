import functools
import itertools
import math
import random
from fractions import Fraction as F

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SecRuns, bounded_fractions, exact_points, exact_similarities, float_points
from robogather import frames, gather2d, geometry, model, verify
from robogather.gather2d import Measure, Phase
from robogather.geometry import TriangleKind
from robogather.model import DemonicAction, FrameParams
from robogather.scalars import EXACT, FLOAT64, Point

P = EXACT.point


def spectrum(*pts, backend=EXACT):
    """The spectrum of the configuration ``pts``."""
    return model.spectrum_of(pts, backend)


def towers(counts, backend=EXACT):
    """The spectrum of a configuration with ``counts[p]`` robots at each
    location ``p``, in that order."""
    return spectrum(*(p for p, m in counts.items() for _ in range(m)), backend=backend)


EMPTY = spectrum()


# --- target_triangle -------------------------------------------------------------


def test_target_triangle_isosceles_apex():
    assert gather2d.target_triangle(P(0, 0), P(2, 0), P(1, 5), EXACT) == (P(1, 5), TriangleKind.ISOSCELES)


def test_target_triangle_scalene_opposite_longest():
    assert gather2d.target_triangle(P(0, 0), P(4, 0), P(1, 1), EXACT) == (P(1, 1), TriangleKind.SCALENE)


def test_target_triangle_equilateral_barycenter_floating():
    tri = (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, math.sqrt(3) / 2))
    tgt, kind = gather2d.target_triangle(*tri, FLOAT64)
    assert FLOAT64.points_eq(tgt, Point(0.5, math.sqrt(3) / 6))
    assert kind is TriangleKind.EQUILATERAL


@given(st.permutations([0, 1, 2]))
def test_target_triangle_permutation_invariant(perm):
    pts = [P(0, 0), P(4, 0), P(1, 1)]
    assert gather2d.target_triangle(*(pts[i] for i in perm), EXACT) == (P(1, 1), TriangleKind.SCALENE)


# --- target / is_clean -------------------------------------------------


def test_target_gathered_spectrum():
    assert gather2d.target(spectrum(*(P(3, 3),) * 5), EXACT) == P(3, 3)


def test_target_diameter_center():
    s = towers({P(0, 0): 2, P(2, 0): 3})
    assert gather2d.target(s, EXACT) == P(1, 0)


def test_target_square_support_goes_to_isosceles_apex():
    # boundary towers form a right isosceles triangle; the interior tower is
    # not on the SEC, so the target is the triangle apex (0,0)
    s = spectrum(P(0, 0), P(2, 0), P(0, 2), P(1, 1))
    assert gather2d.target(s, EXACT) == P(0, 0)


def test_target_empty_spectrum_raises():
    with pytest.raises(gather2d.EmptySpectrum):
        gather2d.target(EMPTY, EXACT)


def test_is_clean_examples():
    assert gather2d.summarize((P(1, 1),) * 3, EXACT).clean
    assert gather2d.summarize((P(0, 0), P(2, 0), P(1, 0)), EXACT).clean
    assert not gather2d.summarize((P(0, 0), P(2, 0), P(F(1, 2), 0)), EXACT).clean
    # a majority spectrum is still graded for cleanliness
    assert not gather2d.summarize((P(0, 0), P(0, 0), P(2, 0), P(F(1, 2), 0)), EXACT).clean


# --- pgm --------------------------------------------------------------------------


def test_pgm_gathered_stays():
    assert gather2d.pgm(spectrum(*(P(0, 0),) * 5), EXACT) == P(0, 0)


def test_pgm_unique_highest_tower():
    s = towers({P(0, 0): 1, P(3, 0): 2})
    assert gather2d.pgm(s, EXACT) == P(3, 0)


def test_pgm_clean_diameter_observer_at_target_stays():
    s = spectrum(P(-1, 0), P(1, 0), P(0, 0))
    assert gather2d.pgm(s, EXACT) == P(0, 0)


def test_pgm_dirty_observer_on_sect_stays():
    # dirty: (1/2, 0) is neither on the SEC nor at the target (1,0); the
    # observer at the origin is on the SEC so it holds still
    s = spectrum(P(0, 0), P(2, 0), P(F(1, 2), 0))
    assert gather2d.pgm(s, EXACT) == P(0, 0)


def test_pgm_dirty_off_sect_observer_moves_to_target():
    # same spectrum seen by the robot at (1/2, 0): shifted so the observer
    # is the origin; it must move to the target
    s = spectrum(P(F(-1, 2), 0), P(F(3, 2), 0), P(0, 0))
    assert gather2d.pgm(s, EXACT) == P(F(1, 2), 0)


def test_pgm_empty_spectrum_returns_origin():
    assert gather2d.pgm(EMPTY, EXACT) == P(0, 0)


def test_robogram_is_pure():
    r = gather2d.robogram(EXACT)
    s = towers({P(0, 0): 2, P(5, 5): 3})
    assert r(s) == r(towers({P(0, 0): 2, P(5, 5): 3}))


# --- round_global ------------------------------------------------------------------


def test_round_global_no_activation():
    conf = (P(0, 0), P(1, 1), P(2, 2))
    assert gather2d.round_global(set(), conf, EXACT) == conf


def test_round_global_majority():
    conf = (P(0, 0), P(0, 0), P(7, 1))
    assert gather2d.round_global({0, 1, 2}, conf, EXACT) == (P(0, 0),) * 3


def test_round_global_clean_diameter():
    conf = (P(0, 0), P(2, 0), P(0, 0), P(2, 0), P(1, 0))
    after = gather2d.round_global(range(5), conf, EXACT)
    assert after == (P(1, 0),) * 5


def test_round_global_dirty_keeps_sect_robots():
    conf = (P(0, 0), P(2, 0), P(F(1, 2), 0))
    after = gather2d.round_global(range(3), conf, EXACT)
    # target is (1,0): boundary robots stay, the straggler moves in
    assert after == (P(0, 0), P(2, 0), P(1, 0))


# --- classification -----------------------------------------------------------------


def test_classify_gathered():
    assert gather2d.classify_phase(spectrum(*(P(2, 2),) * 5), EXACT) is Phase.GATHERED


def test_classify_majority():
    s = towers({P(0, 0): 3, P(1, 1): 1, P(2, 0): 1})
    assert gather2d.classify_phase(s, EXACT) is Phase.MAJORITY


def test_classify_isosceles_clean():
    s = spectrum(P(0, 0), P(2, 0), P(1, 5))
    assert gather2d.classify_phase(s, EXACT) is Phase.ISOSCELES_CLEAN


def test_classify_diameter_clean_and_dirty():
    assert (
        gather2d.classify_phase(spectrum(P(0, 0), P(2, 0), P(1, 0)), EXACT)
        is Phase.DIAMETER_CLEAN
    )
    assert (
        gather2d.classify_phase(spectrum(P(0, 0), P(2, 0), P(F(1, 2), 0)), EXACT)
        is Phase.DIAMETER_DIRTY
    )


def test_classify_scalene_phases():
    s = spectrum(P(0, 0), P(4, 0), P(1, 3))
    assert gather2d.classify_phase(s, EXACT) is Phase.SCALENE_CLEAN


def test_classify_general_phases():
    # four towers exactly on one circle (center (3,5), squared radius 9)
    ring = [P(3, 2), P(3, 8), P(F(27, 5), F(16, 5)), P(F(96, 25), F(53, 25))]
    s = spectrum(*ring)
    assert gather2d.classify_phase(s, EXACT) is Phase.GENERAL_CLEAN
    s_dirty = spectrum(*ring, P(4, 5))
    assert gather2d.classify_phase(s_dirty, EXACT) is Phase.GENERAL_DIRTY
    s_center = spectrum(*ring, P(3, 5))
    assert gather2d.classify_phase(s_center, EXACT) is Phase.GENERAL_CLEAN


def test_classify_equilateral_floating():
    tri = [
        Point(math.cos(a), math.sin(a))
        for a in (0.3, 0.3 + 2 * math.pi / 3, 0.3 + 4 * math.pi / 3)
    ]
    s = spectrum(*tri, backend=FLOAT64)
    assert gather2d.classify_phase(s, FLOAT64) is Phase.EQUILATERAL_CLEAN


@pytest.mark.parametrize(
    "conf, backend, phase",
    [
        ((P(0, 0), P(2, 0), P(1, 5)), EXACT, Phase.ISOSCELES_CLEAN),
        ((P(0, 0), P(2, 0), P(1, 5), P(1, 1)), EXACT, Phase.ISOSCELES_DIRTY),
        ((P(0, 0), P(4, 0), P(1, 3)), EXACT, Phase.SCALENE_CLEAN),
        ((P(0, 0), P(4, 0), P(1, 3), P(1, 1)), EXACT, Phase.SCALENE_DIRTY),
        (
            tuple(Point(math.cos(0.3 + k * 2 * math.pi / 3), math.sin(0.3 + k * 2 * math.pi / 3)) for k in range(3)),
            FLOAT64,
            Phase.EQUILATERAL_CLEAN,
        ),
    ],
    ids=["isosceles-clean", "isosceles-dirty", "scalene-clean", "scalene-dirty", "equilateral-clean"],
)
def test_summarize_classifies_a_triangle_once(monkeypatch, conf, backend, phase):
    # the phase is read from the shape _analyze records while it picks the
    # target, not from a second classify_triangle on the same boundary
    calls = []
    classify = geometry.classify_triangle
    monkeypatch.setattr(geometry, "classify_triangle", lambda *args: calls.append(1) or classify(*args))
    assert gather2d.summarize(conf, backend).phase is phase
    assert len(calls) == 1


def test_classify_empty_raises():
    with pytest.raises(gather2d.EmptySpectrum):
        gather2d.classify_phase(EMPTY, EXACT)


@given(exact_similarities())
def test_classify_invariant_under_similarity(f):
    base = spectrum(P(0, 0), P(2, 0), P(F(1, 2), 0), P(2, 0))
    assert gather2d.classify_phase(base, EXACT) is gather2d.classify_phase(frames.view(f, base), EXACT)


# --- measure -----------------------------------------------------------------------


def test_measure_majority():
    conf = (P(0, 0), P(0, 0), P(0, 0), P(1, 1), P(2, 2))
    assert gather2d.summarize(conf, EXACT).measure == Measure(0, 2)


def test_measure_clean_diameter():
    conf = (P(0, 0), P(0, 0), P(2, 0), P(2, 0), P(1, 0))
    assert gather2d.summarize(conf, EXACT).measure == Measure(1, 4)


def test_measure_gathered_is_minimum():
    conf = (P(5, 5),) * 4
    assert gather2d.summarize(conf, EXACT).measure == Measure(0, 0)


@given(st.permutations(range(5)))
def test_measure_invariant_under_id_permutation(perm):
    conf = (P(0, 0), P(0, 0), P(2, 0), P(2, 0), P(1, 0))
    permuted = tuple(conf[i] for i in perm)
    assert gather2d.summarize(conf, EXACT) == gather2d.summarize(permuted, EXACT)
    assert gather2d.classify_phase(
        model.spectrum_of(conf, EXACT), EXACT
    ) is gather2d.classify_phase(model.spectrum_of(permuted, EXACT), EXACT)


def test_measure_dirty_counts_stragglers_only():
    conf = (P(0, 0), P(2, 0), P(F(1, 2), 0))
    # boundary robots are on the SEC; only the straggler counts
    assert gather2d.summarize(conf, EXACT).measure == Measure(2, 1)


_GRID = [P(x, y) for x in (0, 1, 2, 4) for y in (0, 1, 3)] + [P(F(1, 2), 0), P(1, F(3, 2))]


@given(st.lists(st.sampled_from(_GRID), min_size=3, max_size=8))
def test_summarize_agrees_with_standalone_predicates(pts):
    conf = tuple(pts)
    summary = gather2d.summarize(conf, EXACT)
    s = model.spectrum_of(conf, EXACT)
    assert summary.phase is gather2d.classify_phase(s, EXACT)
    assert summary.forbidden == gather2d.forbidden(conf, EXACT)
    assert summary.gathered_pt == gather2d.gathering_point(conf, EXACT)
    assert summary.clean == (summary.phase is Phase.GATHERED or gather2d._analyze(s.towers, EXACT).clean)
    assert summary.sec_analysis.circle == geometry.sec(list(s.towers), EXACT)[0]


def test_highest_tower():
    assert gather2d.highest_tower(towers({P(0, 0): 3, P(1, 1): 1, P(2, 2): 3})) is None
    assert gather2d.highest_tower(towers({P(0, 0): 1, P(1, 1): 3, P(2, 2): 2})) == 1
    assert gather2d.highest_tower(spectrum(P(4, 4), P(4, 4))) == 0
    assert gather2d.highest_tower(EMPTY) is None


def test_lt_measure():
    assert gather2d.lt_measure(Measure(0, 3), Measure(1, 0))
    assert gather2d.lt_measure(Measure(2, 5), Measure(2, 6))
    assert not gather2d.lt_measure(Measure(3, 1), Measure(3, 1))
    assert not gather2d.lt_measure(Measure(1, 0), Measure(0, 3))


# --- forbidden / gathered ------------------------------------------------------------


def test_forbidden_examples():
    assert gather2d.forbidden((P(0, 0), P(0, 0), P(1, 1), P(1, 1)), EXACT)
    assert not gather2d.forbidden((P(0, 0), P(1, 1), P(2, 2)), EXACT)
    assert not gather2d.forbidden((P(0, 0), P(0, 0), P(0, 0), P(1, 1)), EXACT)


@st.composite
def _few_location_configs(draw, backend):
    """Robots at one to three locations, often two of equal count: a robot is
    at the pool's own ``Point``, at an equal but distinct one, or, on floats,
    nudged within the tolerance."""
    pool = draw(st.lists(exact_points, min_size=1, max_size=3, unique=True))
    if not backend.is_exact:
        pool = [Point(float(x), float(y)) for x, y in pool]
    count = draw(st.integers(1, 4))
    counts = [count if draw(st.booleans()) else draw(st.integers(1, 4)) for _ in pool]
    conf = []
    for p, n in zip(pool, counts):
        for _ in range(n):
            how = draw(st.sampled_from(["same", "copy", "nudged"]))
            if how == "copy" or (how == "nudged" and backend.is_exact):
                p = Point(*p)
            elif how == "nudged":
                p = Point(p.x * (1 + 1e-12) + 1e-12, p.y)
            conf.append(p)
    return tuple(draw(st.permutations(conf)))


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "floating"])
@given(data=st.data())
def test_forbidden_is_the_bivalent_spectrum(backend, data):
    # forbidden reads the grouping of spectrum_of, with no spectrum built
    conf = data.draw(_few_location_configs(backend))
    assert gather2d.forbidden(conf, backend) == gather2d._bivalent(model.spectrum_of(conf, backend).mults)


def test_gathered_at_examples():
    conf = (P(2, 3),) * 3
    assert gather2d.gathered_at(P(2, 3), conf, EXACT)
    assert not gather2d.gathered_at(P(0, 0), conf, EXACT)
    assert not gather2d.gathered_at(P(2, 3), (P(2, 3), P(2, 3), P(0, 0)), EXACT)
    assert gather2d.gathering_point(conf, EXACT) == P(2, 3)
    assert gather2d.gathering_point((P(2, 3), P(0, 0), P(2, 3)), EXACT) is None


# --- pgm reads a view as a multiset ----------------------------------------------------


@st.composite
def observed_views(draw, backend):
    """A robot's view of a spectrum, through a drawn frame centered on one of
    its towers: a random spectrum, or at least four towers on one circle (a
    rational parameterization, rounded on floats) with at most its center
    and one more point inside. Every multiplicity is 1 or 2, so highest
    towers often tie. Float coordinates are the values of small rationals,
    far apart against the tolerance."""
    exact = backend.is_exact
    if draw(st.booleans()):
        (ox, oy), r = draw(exact_points), draw(st.integers(1, 20))
        ts = draw(st.lists(bounded_fractions(-5, 5, 6), min_size=4, max_size=6, unique=True))
        pool = [Point(ox + r * (1 - t * t) / (1 + t * t), oy + r * 2 * t / (1 + t * t)) for t in ts]
        pool += draw(st.lists(st.sampled_from([Point(ox, oy), Point(ox + F(r, 3), oy)]), max_size=2, unique=True))
    else:
        pool = draw(st.lists(exact_points, min_size=1, max_size=6, unique=True))
    if not exact:
        pool = [Point(float(x), float(y)) for x, y in pool]
    conf = tuple(p for p in pool for _ in range(draw(st.integers(1, 2))))
    f = draw(exact_similarities())
    fp = FrameParams(f.fp.zoom, f.fp.c, f.fp.s, f.fp.reflect)
    if not exact:
        theta = draw(st.floats(-math.pi, math.pi))
        fp = FrameParams(draw(st.floats(0.5, 2)), math.cos(theta), math.sin(theta), fp.reflect)
    robot = draw(st.sampled_from(conf))
    return frames.view(frames.make_frame(robot, fp, backend), model.spectrum_of(conf, backend))


def _permuted(v, order):
    """``v`` with its towers and multiplicities permuted jointly."""
    towers = v.towers
    if isinstance(towers, geometry.IntegerPoints):
        towers = geometry.IntegerPoints([towers.coords[i] for i in order], towers.den)
    else:
        towers = [towers[i] for i in order]
    return frames.View(towers, tuple(v.mults[i] for i in order))


def _pgm_ignores_order(backend, **options):
    """The property that ``pgm`` gives the same destination under every joint
    permutation of a view's towers and multiplicities: bit for bit on the
    exact backend, and within the tolerance on floats, where
    ``barycenter_3``'s sum depends on the order. ``options`` are Hypothesis
    settings."""

    @settings(**options)
    @given(observed_views(backend), st.data())
    def prop(v, data):
        order = data.draw(st.permutations(range(len(v.mults))))
        got, want = gather2d.pgm(_permuted(v, order), backend), gather2d.pgm(v, backend)
        assert got == want if backend.is_exact else backend.points_eq(got, want), (v, order)

    return prop


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "floating"])
def test_pgm_ignores_the_order_of_a_view(backend):
    _pgm_ignores_order(backend)()


def _target_first_boundary_tower(on_sec, _real=geometry.sec):
    """``geometry.sec`` with the circle's center moved to the first boundary
    tower when ``on_sec(len(boundary))``. ``_analyze`` aims a diameter (2
    towers on the SEC) or a general polygon (4 or more) at the center, so
    this is the mutant whose target there is ``boundary[0]``: the first of
    the view's towers on the SEC, which the order of the view decides."""

    def mutant(points, backend):
        circle, boundary = _real(points, backend)
        return (circle._replace(center=boundary[0]) if on_sec(len(boundary)) else circle), boundary

    return mutant


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "floating"])
@pytest.mark.parametrize(
    "on_sec", [lambda n: n == 2, lambda n: n >= 4], ids=["diameter-target-first", "general-target-first"]
)
def test_negative_control_order_mutant_fails_pgm_order_property(monkeypatch, backend, on_sec):
    # both rounds share _analyze, so chaining cannot see these mutants; a
    # robogram that reads the view's order must fail the order property
    # (no shrinking: the first failing example is enough)
    monkeypatch.setattr(geometry, "sec", _target_first_boundary_tower(on_sec))
    with pytest.raises(AssertionError):
        _pgm_ignores_order(backend, phases=[hypothesis.Phase.generate])()


# --- the SEC hint of a view ------------------------------------------------------------


@pytest.mark.parametrize("gen_seed", [0, 2, 9], ids=["scalene_dirty", "diameter_dirty", "majority"])
def test_check_builds_one_hull_per_distinct_configuration_not_per_robot(monkeypatch, gen_seed):
    # an all-active exact round from a generated nG-64 spread start: only
    # the summaries, one per configuration that needs a SEC, run Welzl on
    # the whole tower set; every view runs it once, on its hint alone
    conf = verify.gen_initial(64, random.Random(gen_seed), EXACT, bbox=64, pool_size=64)
    da = verify.Strategy("all_active", 64, EXACT, seed=1)(0, conf)
    trace = model.Trace(conf, [model.TraceStep(0, da, gather2d.round_global(da.activated(), conf, EXACT))])
    with_sec = sum(gather2d.summarize(c, EXACT).analysis is not None for c in trace.configs())
    assert (with_sec > 0) == (gen_seed != 9)
    runs = SecRuns(monkeypatch)
    assert verify.check_trace(trace, EXACT).ok
    assert runs.full == with_sec
    assert (runs.hinted > 0) == (with_sec > 0)


def test_a_directly_built_integer_form_has_no_hint():
    # so the order property above runs every view's SEC on the full path
    towers = model.spectrum_of((P(0, 0), P(4, 0), P(1, 3)), EXACT).towers
    assert towers.hint is None and geometry.integer_form(list(towers)).hint is None
    geometry.sec(towers, EXACT)
    assert towers.hint == (0, 1, 2)
    assert _permuted(frames.View(towers, (1, 1, 1)), [2, 0, 1]).towers.hint is None


# --- local/global equivalence property ------------------------------------------------


@st.composite
def configurations_and_actions(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    pool_size = draw(st.integers(min_value=1, max_value=4))
    pool = draw(
        st.lists(exact_points, min_size=pool_size, max_size=pool_size, unique=True)
    )
    conf = tuple(draw(st.sampled_from(pool)) for _ in range(n))
    zoom_nums = st.integers(min_value=1, max_value=10)
    t_strategy = bounded_fractions(-4, 4, 5)

    def frame():
        zoom = F(draw(zoom_nums), draw(zoom_nums))
        t = draw(t_strategy)
        c = (1 - t * t) / (1 + t * t)
        s = (2 * t) / (1 + t * t)
        return FrameParams(zoom, c, s, draw(st.booleans()))

    steps = tuple(frame() if draw(st.booleans()) else None for _ in range(n))
    return conf, DemonicAction(steps)


@given(configurations_and_actions())
def test_round_equals_round_global_exact(pair):
    conf, da = pair
    r = gather2d.robogram(EXACT)
    local = model.round(r, da, conf, EXACT)
    glob = gather2d.round_global(da.activated(), conf, EXACT)
    assert local == glob


@pytest.mark.parametrize(
    "backend, points", [(EXACT, exact_points), (FLOAT64, float_points)], ids=["exact", "floating"]
)
@given(data=st.data())
def test_round_global_given_the_summary_equals_from_scratch(backend, points, data):
    pool = data.draw(st.lists(points, min_size=1, max_size=4))
    conf = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=3, max_size=7)))
    activated = data.draw(st.sets(st.integers(min_value=0, max_value=len(conf) - 1)))
    summary = gather2d.summarize(conf, backend)
    assert gather2d.round_global(activated, conf, backend, summary) == gather2d.round_global(
        activated, conf, backend
    )


def _round_global_by_robot(activated, conf, backend):
    """``round_global`` from its definition, one robot at a time: an
    activated robot goes to the unique highest tower, else to the target of
    a clean spectrum; in a dirty one it holds still on the SEC or the target
    and goes to the target from anywhere else. An exact robot at its
    destination stays its own object."""
    act = set(activated)
    s = model.spectrum_of(conf, backend)
    top = gather2d.highest_tower(s)
    ana = None if top is not None else gather2d._analyze(s.towers, backend)
    out = []
    for i, loc in enumerate(conf):
        if i not in act:
            dest = loc
        elif ana is None:
            dest = s.towers[top]
        elif not ana.clean and any(backend.points_eq(loc, q) for q in ana.sect_pts):
            dest = loc
        else:
            dest = ana.tgt
        out.append(loc if backend.is_exact and loc == dest else dest)
    return tuple(out)


@functools.cache
def _generated_starts(backend, kind):
    """Twelve ``verify.gen_initial`` starts at nG 3..8 whose spectrum is of
    ``kind``: majority (a gathered start counts), clean or dirty."""
    starts = []
    for seed in itertools.count():
        rng = random.Random(seed)
        conf = verify.gen_initial(rng.randint(3, 8), rng, backend)
        ana = gather2d.summarize(conf, backend).analysis
        if kind == ("majority" if ana is None else "clean" if ana.clean else "dirty"):
            starts.append(conf)
            if len(starts) == 12:
                return starts


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "floating"])
@pytest.mark.parametrize("kind", ["majority", "clean", "dirty"])
@given(data=st.data())
def test_round_global_visits_only_the_activated_robots(backend, kind, data):
    # any ids of the configuration, in any order and with repeats
    conf = data.draw(st.sampled_from(_generated_starts(backend, kind)))
    activated = data.draw(st.lists(st.integers(0, len(conf) - 1), max_size=2 * len(conf)))
    summary = data.draw(st.sampled_from([None, gather2d.summarize(conf, backend)]))
    got = gather2d.round_global(activated, conf, backend, summary)
    assert type(got) is tuple
    assert got == _round_global_by_robot(activated, conf, backend)
    for i, loc in enumerate(conf):
        if i not in activated or (backend.is_exact and got[i] == loc):
            assert got[i] is loc


def test_round_global_exact_robot_at_its_destination_keeps_its_point():
    # majority: robots 0 and 1 are on the highest tower; clean diameter:
    # robot 2 is at the SEC center, the target
    for conf, at_dest in (
        ((P(0, 0), P(0, 0), P(2, 0)), (0, 1)),
        ((P(0, 0), P(2, 0), P(1, 0)), (2,)),
    ):
        conf = tuple(Point(F(p.x), F(p.y)) for p in conf)  # no shared objects
        after = gather2d.round_global(reversed(range(len(conf))), conf, EXACT)
        assert [i for i in range(len(conf)) if after[i] is conf[i]] == list(at_dest)


@pytest.mark.parametrize(
    "conf",
    [
        (P(0, 0), P(0, 0), P(2, 0), P(F(1, 2), 0)),  # dirty: (1/2, 0) is off the SEC
        (P(0, 0), P(0, 0), P(2, 0), P(1, 0)),  # clean: (1, 0) is the SEC center
    ],
    ids=["dirty", "clean"],
)
def test_majority_summary_computes_no_sec_until_clean_is_read(monkeypatch, conf):
    calls = []
    sec = geometry.sec

    def counting_sec(points, backend):
        calls.append(len(points))
        return sec(points, backend)

    monkeypatch.setattr(geometry, "sec", counting_sec)
    summary = gather2d.summarize(conf, EXACT)
    assert summary.phase is Phase.MAJORITY
    assert calls == []
    clean = summary.clean
    assert len(calls) == 1
    assert clean == gather2d._analyze(model.spectrum_of(conf, EXACT).towers, EXACT).clean


# --- phase transition bookkeeping -----------------------------------------------------


def test_allowed_transitions():
    assert gather2d.allowed_transition(Phase.MAJORITY, Phase.GATHERED)
    assert gather2d.allowed_transition(Phase.GENERAL_DIRTY, Phase.GENERAL_DIRTY)
    assert gather2d.allowed_transition(Phase.GENERAL_CLEAN, Phase.GATHERED)  # audited
    assert not gather2d.allowed_transition(Phase.MAJORITY, Phase.GENERAL_DIRTY)
    assert not gather2d.allowed_transition(Phase.GATHERED, Phase.MAJORITY)


def test_phase_weights_decrease_along_arcs():
    for before, after in gather2d.EXPECTED_ARCS | gather2d.AUDITED_ARCS:
        assert gather2d.PHASE_WEIGHT[after] <= gather2d.PHASE_WEIGHT[before]
