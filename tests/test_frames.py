import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import exact_point_lists, exact_points, exact_similarities, sec_boundary
from robogather import frames, gather2d, geometry, model
from robogather.frames import Similarity, View, apply, inverse, make_frame, preimage, view
from robogather.model import FrameParams
from robogather.scalars import EXACT, FLOAT64, Point

P = EXACT.point


def _sim(zoom, c, s, reflect, center):
    """A similarity built directly, not through ``make_frame``."""
    return Similarity(FrameParams(zoom, c, s, reflect), center)


IDENT = _sim(F(1), F(1), F(0), False, P(0, 0))


def _spectrum(*pts, backend=EXACT):
    """The spectrum of the configuration ``pts``."""
    return model.spectrum_of(pts, backend)


def _pairs(v):
    """The (tower, multiplicity) pairs of a view, in its order."""
    return list(zip(v.towers, v.mults))


def _mapped(f, s):
    """The (tower, multiplicity) pairs of spectrum ``s`` seen through ``f``."""
    return _pairs(view(f, s))


def test_make_frame_pure_translation():
    f = make_frame(P(5, 7), FrameParams(F(1), F(1), F(0), False), EXACT)
    assert apply(f, P(5, 7)) == P(0, 0)
    assert apply(f, P(0, 0)) == P(-5, -7)
    assert apply(f, P(6, 7)) == P(1, 0)


def test_make_frame_rotate_and_scale():
    f = make_frame(P(0, 0), FrameParams(F(2), F(0), F(1), False), EXACT)
    assert apply(f, P(1, 0)) == P(0, 2)


def test_make_frame_rational_reflection():
    # 3-4-5 rotation with a mirror still sends the robot to its own origin
    f = make_frame(P(1, 0), FrameParams(F(1), F(3, 5), F(4, 5), True), EXACT)
    assert apply(f, P(1, 0)) == P(0, 0)


def test_make_frame_validation():
    with pytest.raises(frames.InvalidFrame):
        make_frame(P(0, 0), FrameParams(F(0), F(1), F(0), False), EXACT)
    with pytest.raises(frames.InvalidFrame):
        make_frame(P(0, 0), FrameParams(F(-1), F(1), F(0), False), EXACT)
    with pytest.raises(frames.InvalidFrame):
        make_frame(P(0, 0), FrameParams(F(1), F(1), F(1), False), EXACT)


def test_apply_examples():
    assert apply(IDENT, P(3, -2)) == P(3, -2)
    zoom3 = _sim(F(3), F(1), F(0), False, P(0, 0))
    assert apply(zoom3, P(1, 1)) == P(3, 3)
    mirror = _sim(F(1), F(1), F(0), True, P(0, 0))
    assert apply(mirror, P(1, 2)) == P(1, -2)


def test_inverse_examples():
    assert inverse(IDENT) == IDENT
    zoom2 = _sim(F(2), F(1), F(0), False, P(0, 0))
    assert apply(inverse(zoom2), P(2, 0)) == P(1, 0)
    f = make_frame(P(5, 7), FrameParams(F(1), F(1), F(0), False), EXACT)
    assert apply(inverse(f), P(0, 0)) == P(5, 7)


@given(exact_similarities(), exact_points)
def test_inverse_roundtrip_exact(f, p):
    assert apply(inverse(f), apply(f, p)) == p
    assert apply(f, apply(inverse(f), p)) == p


@given(exact_similarities(), exact_points, exact_points)
def test_distances_scale_by_zoom_squared(f, p, q):
    assert geometry.dist_sq(apply(f, p), apply(f, q)) == f.fp.zoom**2 * geometry.dist_sq(p, q)


def test_float_roundtrip_within_tolerance():
    theta = 0.7
    f = make_frame(Point(3.0, -1.0), FrameParams(2.5, math.cos(theta), math.sin(theta), True), FLOAT64)
    p = Point(0.25, 9.5)
    back = apply(inverse(f), apply(f, p))
    assert FLOAT64.points_eq(back, p)


def test_view_through_a_frame_without_integer_form_examples():
    s = _spectrum(P(1, 0), P(1, 0))
    shift = _sim(F(1), F(1), F(0), False, P(1, 0))
    assert _mapped(shift, s) == [(P(0, 0), 2)]
    assert _mapped(shift, s)[0][0] is EXACT.origin()
    s = _spectrum(P(1, 0), P(0, 1), P(0, 1), P(0, 1))
    zoom2 = _sim(F(2), F(1), F(0), False, P(0, 0))
    assert _mapped(zoom2, s) == [(P(2, 0), 1), (P(0, 2), 3)]
    assert _mapped(IDENT, s) == _pairs(s)


def test_a_view_is_a_record_not_a_multiset():
    # a view has no len and no iteration, so no reader takes its two fields
    # for its towers
    v = _spectrum(P(1, 0), P(0, 1), P(1, 0))
    assert list(v.towers) == [P(1, 0), P(0, 1)] and v.mults == (2, 1)
    with pytest.raises(TypeError):
        len(v)
    with pytest.raises(TypeError):
        list(v)


@given(exact_similarities(), exact_point_lists)
def test_view_preserves_cardinality(f, pts):
    assert sum(m for _, m in _mapped(f, _spectrum(*pts))) == len(pts)


# --- equivariance with the geometry kernel -----------------------------------


@st.composite
def _configs_with_towers(draw):
    pool = draw(st.lists(exact_points, min_size=1, max_size=5))
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)))


@given(exact_similarities(), _configs_with_towers())
def test_mapped_towers_equal_spectrum_of_mapped_robots(f, conf):
    # model.round relies on this identity on the exact backend; the key order
    # matters because pgm reads the highest tower and the SEC boundary in it
    towers = _mapped(f, model.spectrum_of(conf, EXACT))
    robots = model.spectrum_of(tuple(apply(f, q) for q in conf), EXACT)
    assert towers == _pairs(robots)


@given(exact_similarities(), exact_point_lists)
def test_sec_commutes_with_similarity(f, pts):
    if not pts:
        return  # sec([]) is pinned at the origin, which similarities move
    direct = geometry.sec([apply(f, p) for p in pts], EXACT)[0]
    base = geometry.sec(pts, EXACT)[0]
    assert direct.center == apply(f, base.center)
    assert direct.radius_sq == f.fp.zoom**2 * base.radius_sq


@given(exact_similarities(), exact_point_lists)
def test_on_sec_commutes_with_similarity(f, pts):
    mapped = sec_boundary([apply(f, p) for p in pts], EXACT)
    base = sec_boundary(pts, EXACT)
    assert sorted(mapped) == sorted(apply(f, p) for p in base)


@given(exact_similarities(), exact_points, exact_points, exact_points)
def test_classification_invariant_under_similarity(f, p1, p2, p3):
    if len({p1, p2, p3}) < 3:
        return
    base = geometry.classify_triangle(p1, p2, p3, EXACT)
    mapped = geometry.classify_triangle(apply(f, p1), apply(f, p2), apply(f, p3), EXACT)
    assert base.kind is mapped.kind
    if base.apex is not None:
        assert mapped.apex == apply(f, base.apex)


@given(exact_similarities(), exact_points, exact_points, exact_points)
def test_triangle_target_commutes_with_similarity(f, p1, p2, p3):
    # the apex classify_triangle finds (for scalene, the vertex opposite the
    # longest side) and the equilateral barycenter both move with the frame
    if len({p1, p2, p3}) < 3:
        return
    tgt, kind = gather2d.target_triangle(p1, p2, p3, EXACT)
    assert gather2d.target_triangle(apply(f, p1), apply(f, p2), apply(f, p3), EXACT) == (apply(f, tgt), kind)


@given(exact_similarities(), exact_points, exact_points, exact_points)
def test_barycenter_commutes_with_similarity(f, p1, p2, p3):
    lhs = geometry.barycenter_3(apply(f, p1), apply(f, p2), apply(f, p3))
    assert lhs == apply(f, geometry.barycenter_3(p1, p2, p3))


@given(exact_similarities(), exact_point_lists)
def test_target_commutes_with_similarity(f, pts):
    if not pts:
        return
    s = _spectrum(*pts)
    lhs = gather2d._analyze(view(f, s).towers, EXACT).tgt
    assert lhs == apply(f, gather2d.target(s, EXACT))


# --- the center form against the textbook formula -----------------------------


def _textbook(fp, center, p):
    """zoom · M · (p − center) in Fraction arithmetic (floats converted
    exactly), M = rotation (c, -s; s, c) after the reflection y -> -y."""
    zoom, c, s = F(fp.zoom), F(fp.c), F(fp.s)
    x, y = F(p.x) - F(center.x), F(p.y) - F(center.y)
    if fp.reflect:
        y = -y
    return Point(zoom * (c * x - s * y), zoom * (s * x + c * y))


def _textbook_inverse(fp, center, q):
    """p with zoom · M · (p − center) = q: rotate q by (c, s; -s, c), undo
    the reflection, divide by zoom and add the center."""
    zoom, c, s = fp.zoom, fp.c, fp.s
    x, y = c * q.x + s * q.y, -s * q.x + c * q.y
    if fp.reflect:
        y = -y
    return Point(x / zoom + center.x, y / zoom + center.y)


@given(exact_similarities(), exact_points)
def test_integer_frame_map_matches_textbook_formula(f, p):
    assert f.fp.form is not None
    assert apply(f, p) == _textbook(f.fp, f.center, p)
    assert apply(inverse(f), p) == _textbook_inverse(f.fp, f.center, p)
    assert _mapped(f, _spectrum(p, p)) == [(_textbook(f.fp, f.center, p), 2)]


@given(exact_similarities(), exact_points, exact_points)
def test_integer_make_frame_matches_textbook_formula(f, loc, p):
    fp = FrameParams(f.fp.zoom, f.fp.c, f.fp.s, f.fp.reflect)
    g = make_frame(loc, fp, EXACT)
    assert g.center is loc and apply(g, loc) == P(0, 0)
    assert apply(g, p) == _textbook(fp, loc, p)
    assert apply(inverse(g), p) == _textbook_inverse(fp, loc, p)


# --- one integer form per frame: preimage and the robot's own tower -----------


@pytest.mark.parametrize("reflect", [False, True])
@given(exact_similarities(), exact_points)
def test_preimage_inverts_the_integer_form(reflect, f, q):
    f = make_frame(f.center, FrameParams(f.fp.zoom, f.fp.c, f.fp.s, reflect), EXACT)
    p = preimage(f, q)
    assert apply(f, p) == q
    assert preimage(f, apply(f, q)) == q
    assert p == _textbook_inverse(f.fp, f.center, q)


def test_preimage_examples_with_negative_coordinates():
    # 3-4-5 rotation, zoom 2, mirrored and not, around a robot at (-3, -1/2)
    for reflect in (False, True):
        f = make_frame(P(-3, F(-1, 2)), FrameParams(F(2), F(3, 5), F(4, 5), reflect), EXACT)
        assert preimage(f, P(0, 0)) == P(-3, F(-1, 2))
        q = P(-7, F(-5, 3))
        assert preimage(f, q) == _textbook_inverse(f.fp, f.center, q)


@given(exact_similarities(), exact_points, exact_points, exact_points)
def test_frames_are_equal_exactly_when_params_and_centers_are(f, loc, other, p):
    fp = f.fp
    g = make_frame(loc, FrameParams(fp.zoom, fp.c, fp.s, fp.reflect), EXACT)
    # built directly, the same similarity carries the same integer form from
    # construction, and both map a point to the same point
    rebuilt = _sim(fp.zoom, fp.c, fp.s, fp.reflect, loc)
    assert g.fp.form is not None and rebuilt.fp.form == g.fp.form
    assert g == rebuilt and hash(g) == hash(rebuilt) and apply(g, p) == apply(rebuilt, p)
    assert (g == _sim(fp.zoom, fp.c, fp.s, fp.reflect, other)) == (other == loc)
    assert g != _sim(fp.zoom, fp.c, fp.s, not fp.reflect, loc)
    assert g != _sim(2 * fp.zoom, fp.c, fp.s, fp.reflect, loc)


@given(exact_similarities(), _configs_with_towers())
def test_own_tower_maps_to_the_origin_in_key_order(f, conf):
    spec = model.spectrum_of(conf, EXACT)
    for loc in conf:
        g = make_frame(loc, FrameParams(f.fp.zoom, f.fp.c, f.fp.s, f.fp.reflect), EXACT)
        mapped = _mapped(g, spec)
        assert mapped == [(apply(g, p), m) for p, m in _pairs(spec)]
        assert dict(mapped)[EXACT.origin()] == conf.count(loc)


def _counting_points(monkeypatch):
    """Count the points ``geometry`` builds: an exact view's towers are
    ``geometry.IntegerPoints``, which build one per tower read."""
    built = []

    def counted(*args):
        built.append(args)
        return Point(*args)

    monkeypatch.setattr(geometry, "Point", counted)
    return built


@given(exact_similarities(), exact_point_lists)
def test_own_tower_key_equal_but_distinct_maps_to_the_origin(f, pts):
    # the own tower is found by value: a key equal to the robot's point but
    # a distinct object maps to the shared origin. Mapping builds no point,
    # reading the own tower builds none, and reading another builds one
    robot = f.center
    twin = Point(F(robot.x.numerator, robot.x.denominator), F(robot.y.numerator, robot.y.denominator))
    assert twin == robot and twin is not robot
    spec = _spectrum(twin, twin, *[p for p in pts if p != robot])
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = _counting_points(monkeypatch)
        mapped = view(f, spec)
        assert built == []
        assert mapped.towers[0] is EXACT.origin() and mapped.mults[0] == 2
        assert built == []
        others = list(zip(mapped.towers, mapped.mults))[1:]
        assert len(built) == len(spec.towers) - 1
    assert others == [(apply(f, p), m) for p, m in _pairs(spec)[1:]]


_mixed_denominators = st.builds(
    F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 49, 210])
)


@given(
    st.lists(st.builds(Point, _mixed_denominators, _mixed_denominators), min_size=1, max_size=10),
    st.data(),
    st.booleans(),
    exact_similarities(),
)
def test_view_is_the_textbook_image_of_the_spectrum(pts, data, reflect, f):
    # every view of a round is built from one integer form of its spectrum:
    # towers in the spectrum's key order, each the textbook image of its key,
    # with the key's multiplicity, for a robot at a key object or at an equal
    # but distinct point
    conf = tuple(data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=16)))
    spec = model.spectrum_of(conf, EXACT)
    fp = FrameParams(f.fp.zoom, f.fp.c, f.fp.s, reflect)
    loc = data.draw(st.sampled_from(conf))
    for robot in (loc, Point(F(loc.x.numerator, loc.x.denominator), F(loc.y.numerator, loc.y.denominator))):
        seen = view(make_frame(robot, fp, EXACT), spec)
        assert len(seen.towers) == len(spec.towers)
        assert _pairs(seen) == [(_textbook(fp, robot, p), m) for p, m in _pairs(spec)]
        assert seen.towers[list(spec.towers).index(loc)] is EXACT.origin()
    # a gathered configuration is seen as exactly one tower at the origin
    gathered = model.spectrum_of((loc,) * len(conf), EXACT)
    assert _mapped(make_frame(loc, fp, EXACT), gathered) == [(EXACT.origin(), len(conf))]


def test_float_own_tower_maps_to_the_origin_and_images_still_merge():
    loc = Point(0.3, -1.7)
    f = make_frame(loc, FrameParams(2.5, math.cos(0.7), math.sin(0.7), True), FLOAT64)
    mapped = _mapped(f, _spectrum(loc, Point(4.0, 1.0), loc, backend=FLOAT64))
    assert mapped == [(Point(0.0, 0.0), 2), (apply(f, Point(4.0, 1.0)), 1)]
    # 1 and 1 + 2^-52 round to the same float once shifted by 10^6 (two
    # towers no float spectrum keeps apart, so the view is built directly)
    shift = _sim(1.0, 1.0, 0.0, False, Point(-1e6, 0.0))
    collide = View([Point(1.0, 0.0), Point(1.0 + 2**-52, 0.0)], (1, 2))
    assert _mapped(shift, collide) == [(Point(1e6 + 1, 0.0), 3)]


# offsets of a nearby tower from the robot: 0, or at least 1e-12, so no
# product in the view underflows into the subnormals
_offsets = st.floats(-1e-2, 1e-2).filter(lambda v: v == 0 or abs(v) >= 1e-12)


@given(
    st.floats(-2e6, 2e6),
    st.floats(-2e6, 2e6),
    _offsets,
    _offsets,
    st.floats(0.1, 10),
    st.floats(-math.pi, math.pi),
    st.booleans(),
)
def test_float_view_of_a_nearby_tower_is_accurate_far_from_the_origin(cx, cy, dx, dy, zoom, theta, reflect):
    # the view takes p − center first, so the relative error of a nearby
    # tower's image does not grow with the robot's distance from the origin
    center, p = Point(cx, cy), Point(cx + dx, cy + dy)
    fp = FrameParams(zoom, math.cos(theta), math.sin(theta), reflect)
    got = apply(make_frame(center, fp, FLOAT64), p)
    want = _textbook(fp, center, p)
    err_sq = (F(got.x) - want.x) ** 2 + (F(got.y) - want.y) ** 2
    assert err_sq <= F(1e-15) ** 2 * (want.x**2 + want.y**2)
