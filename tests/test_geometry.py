import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    _unit_pair,
    bounded_fractions,
    circles_eq,
    exact_point_lists,
    exact_similarities,
    exact_points,
    float_point_lists,
    float_points,
    rational,
    sec_boundary,
)
from robogather import frames, model
from robogather import geometry as g
from robogather.scalars import EXACT, FLOAT64, Point

P = EXACT.point


# --- distance ----------------------------------------------------------------


def test_dist_sq_examples():
    assert g.dist_sq(P(0, 0), P(0, 0)) == 0
    assert g.dist_sq(P(0, 0), P(3, 4)) == 25
    assert g.dist_sq(P(1, 1), P(-2, 5)) == 25


@given(exact_points, exact_points)
def test_dist_sq_symmetric_and_definite(p, q):
    assert g.dist_sq(p, q) == g.dist_sq(q, p)
    assert (g.dist_sq(p, q) == 0) == (p == q)


# --- triangle classification ---------------------------------------------------


def test_classify_isosceles_apex():
    shape = g.classify_triangle(P(0, 0), P(2, 0), P(1, 5), EXACT)
    assert shape.kind is g.TriangleKind.ISOSCELES
    assert shape.apex == P(1, 5)


def test_classify_scalene():
    shape = g.classify_triangle(P(0, 0), P(4, 0), P(1, 1), EXACT)
    assert shape.kind is g.TriangleKind.SCALENE
    assert shape.apex == P(1, 1)  # opposite the longest side, (0,0)-(4,0)


def test_classify_equilateral_floating():
    tri = (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, math.sqrt(3) / 2))
    shape = g.classify_triangle(*tri, FLOAT64)
    assert shape.kind is g.TriangleKind.EQUILATERAL


def test_classify_rejects_coincident_points():
    with pytest.raises(g.DegenerateInput):
        g.classify_triangle(P(1, 1), P(1, 1), P(2, 2), EXACT)


@given(exact_points, exact_points, exact_points, st.permutations([0, 1, 2]))
def test_classify_permutation_invariant(p1, p2, p3, perm):
    pts = [p1, p2, p3]
    if len({p1, p2, p3}) < 3:
        return
    a = g.classify_triangle(*pts, EXACT)
    b = g.classify_triangle(*(pts[i] for i in perm), EXACT)
    assert a.kind is b.kind
    assert a.apex == b.apex


def _classify_reference(p1, p2, p3):
    """(kind, apex) of an exact triangle on ``Fraction`` arithmetic, or None
    when two points coincide: squared sides, the apex opposite the base."""
    pts = (p1, p2, p3)
    if len(set(pts)) < 3:
        return None
    sides = [(q.x - r.x) ** 2 + (q.y - r.y) ** 2 for q, r in ((p2, p3), (p1, p3), (p1, p2))]
    if sides[0] == sides[1] == sides[2]:
        return g.TriangleKind.EQUILATERAL, None
    for i in range(3):  # the two sides that meet at pts[i] are equal
        if sides[i - 1] == sides[i - 2]:
            return g.TriangleKind.ISOSCELES, pts[i]
    return g.TriangleKind.SCALENE, pts[sides.index(max(sides))]


@st.composite
def _exact_triangles(draw):
    """Three exact points in any order: random, right-angled, isosceles
    (mirrored across the x-axis or not), collinear, or with two coinciding
    (equal values, sometimes as distinct objects)."""
    shape = draw(st.sampled_from(["random", "right", "isosceles", "collinear", "coincident"]))
    p, q = draw(exact_points), draw(exact_points)
    ux, uy, k = q.x - p.x, q.y - p.y, draw(rational)
    if shape == "random":
        pts = [p, q, draw(exact_points)]
    elif shape == "right":  # the right angle at p
        pts = [p, q, Point(p.x - k * uy, p.y + k * ux)]
    elif shape == "isosceles":  # apex on the perpendicular bisector of p q
        pts = [p, q, Point((p.x + q.x) / 2 - k * uy, (p.y + q.y) / 2 + k * ux)]
    elif shape == "collinear":
        pts = [p, q, Point(p.x + k * ux, p.y + k * uy)]
    else:
        pts = [p, q, draw(st.sampled_from([p, Point(F(p.x.numerator, p.x.denominator), p.y)]))]
    if draw(st.booleans()):
        pts = [Point(x, -y) for x, y in pts]
    return draw(st.permutations(pts))


@given(_exact_triangles())
def test_exact_classify_matches_a_fraction_reference(pts):
    # same kind, the very apex object, DegenerateInput on coincident points
    want = _classify_reference(*pts)
    if want is None:
        with pytest.raises(g.DegenerateInput):
            g.classify_triangle(*pts, EXACT)
        return
    shape = g.classify_triangle(*pts, EXACT)
    assert shape.kind is want[0]
    assert shape.apex is want[1]


# --- barycenter ----------------------------------------------------------------


def _sum_dist_sq(c, pts):
    return sum(g.dist_sq(c, p) for p in pts)


def _grid_search_min(pts, lo, hi, steps=20, refinements=6):
    """Coarse-to-fine grid search for the minimizer of the summed squared
    distance; independent oracle for the barycenter."""
    cx, cy = (lo + hi) / 2, (lo + hi) / 2
    span = (hi - lo) / 2
    for _ in range(refinements):
        best = None
        for i in range(steps + 1):
            for j in range(steps + 1):
                cand = Point(cx - span + 2 * span * i / steps, cy - span + 2 * span * j / steps)
                val = _sum_dist_sq(cand, pts)
                if best is None or val < best[0]:
                    best = (val, cand)
        cx, cy = best[1]
        span /= steps / 4
    return Point(cx, cy)


def test_barycenter_examples():
    assert g.barycenter_3(P(0, 0), P(3, 0), P(0, 3)) == P(1, 1)
    p = P(F(2, 7), F(-5, 3))
    assert g.barycenter_3(p, p, p) == p


def test_barycenter_matches_grid_search_oracle():
    pts = (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, math.sqrt(3) / 2))
    found = _grid_search_min(pts, -1.0, 2.0)
    bary = g.barycenter_3(*pts)
    assert abs(bary.x - 0.5) < 1e-12 and abs(bary.y - math.sqrt(3) / 6) < 1e-12
    assert abs(found.x - bary.x) < 1e-4 and abs(found.y - bary.y) < 1e-4


@given(exact_points, exact_points, exact_points, rational, rational)
def test_barycenter_beats_perturbations(p1, p2, p3, dx, dy):
    bary = g.barycenter_3(p1, p2, p3)
    other = Point(bary.x + dx, bary.y + dy)
    assert _sum_dist_sq(bary, (p1, p2, p3)) <= _sum_dist_sq(other, (p1, p2, p3))


@given(exact_points, exact_points, exact_points, st.permutations([0, 1, 2]))
def test_barycenter_permutation_invariant(p1, p2, p3, perm):
    pts = [p1, p2, p3]
    assert g.barycenter_3(*pts) == g.barycenter_3(*(pts[i] for i in perm))


# --- scalene apex: the vertex opposite the longest side -------------------------


def test_classify_scalene_apex_examples():
    assert g.classify_triangle(P(0, 0), P(1, 1), P(4, 0), EXACT).apex == P(1, 1)
    # hand oracle: squared sides 25 vs 5 vs 20, max side joins (0,0)-(5,0)
    assert g.classify_triangle(P(0, 0), P(5, 0), P(1, 2), EXACT).apex == P(1, 2)
    # squared sides 18 (opposite (0,0)), 10 (opposite (4,0)) and 16 (opposite
    # (1,3)): the longest side is (4,0)-(1,3), not the one on the x-axis
    assert g.classify_triangle(P(0, 0), P(4, 0), P(1, 3), EXACT).apex == P(0, 0)
    shape = g.classify_triangle(Point(0.0, 0.0), Point(5.0, 0.0), Point(1.0, 2.0), FLOAT64)
    assert shape.kind is g.TriangleKind.SCALENE and shape.apex == Point(1.0, 2.0)


@given(float_points, float_points, float_points, st.permutations([0, 1, 2]))
def test_classify_scalene_apex_permutation_invariant(p1, p2, p3, perm):
    # the exact case is test_classify_permutation_invariant; on floats the
    # apex is picked by raw comparisons, which must not depend on order
    pts = [p1, p2, p3]
    try:
        a = g.classify_triangle(*pts, FLOAT64)
    except g.DegenerateInput:
        return
    b = g.classify_triangle(*(pts[i] for i in perm), FLOAT64)
    assert a.kind is b.kind
    assert a.apex == b.apex


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
@given(data=st.data())
def test_classify_scalene_apex_is_opposite_the_strictly_longest_side(backend, data):
    points = exact_points if backend.is_exact else float_points
    pts = [data.draw(points) for _ in range(3)]
    try:
        shape = g.classify_triangle(*pts, backend)
    except g.DegenerateInput:
        return
    if shape.kind is not g.TriangleKind.SCALENE:
        return
    others = [p for p in pts if p is not shape.apex]
    assert len(others) == 2
    longest = g.dist_sq(*others)
    for q in others:
        assert longest > g.dist_sq(shape.apex, q)
        assert not backend.eq(longest, g.dist_sq(shape.apex, q))


# --- circumcircle ----------------------------------------------------------------


def test_circumcircle_right_triangle():
    c = g.circumcircle(P(0, 0), P(2, 0), P(0, 2), EXACT)
    assert c.center == P(1, 1)
    assert c.radius_sq == 2


def test_circumcircle_equilateral_center_is_barycenter():
    tri = (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, math.sqrt(3) / 2))
    c = g.circumcircle(*tri, FLOAT64)
    bary = g.barycenter_3(*tri)
    assert FLOAT64.points_eq(c.center, bary)


def test_circumcircle_collinear_raises():
    with pytest.raises(g.CollinearInput):
        g.circumcircle(P(0, 0), P(1, 0), P(2, 0), EXACT)


@given(exact_points, exact_points, exact_points)
def test_circumcircle_passes_all_three(p1, p2, p3):
    try:
        c = g.circumcircle(p1, p2, p3, EXACT)
    except g.CollinearInput:
        return
    for p in (p1, p2, p3):
        assert g.on_circle(c, p, EXACT)


@given(exact_points, exact_points, exact_points, rational, rational)
def test_at_most_one_circle_through_three_points(p1, p2, p3, dx, dy):
    # a circle through three distinct points is unique: any center shift must
    # knock at least one of them off the boundary
    if dx == 0 and dy == 0:
        return
    try:
        c = g.circumcircle(p1, p2, p3, EXACT)
    except g.CollinearInput:
        return
    shifted = g.Circle(Point(c.center.x + dx, c.center.y + dy), c.radius_sq)
    assert not all(g.on_circle(shifted, p, EXACT) for p in (p1, p2, p3))


# --- smallest enclosing circle ------------------------------------------------


def test_sec_empty_and_singleton():
    c = g.sec([], EXACT)[0]
    assert c.radius_sq == 0 and c.center == P(0, 0)
    c = g.sec([P(3, 4)], EXACT)[0]
    assert c.radius_sq == 0 and c.center == P(3, 4)


def test_sec_two_points_diameter():
    c = g.sec([P(0, 0), P(2, 0)], EXACT)[0]
    assert c == g.Circle(P(1, 0), F(1))


def test_sec_square_with_center():
    # oracle: brute force agrees, and boundary excludes the interior point
    pts = [P(0, 0), P(2, 0), P(0, 2), P(1, 1)]
    c = g.sec(pts, EXACT)[0]
    assert c == g.sec_bruteforce(pts, EXACT)
    assert c == g.Circle(P(1, 1), F(2))
    assert sec_boundary(pts, EXACT) == [P(0, 0), P(2, 0), P(0, 2)]


def test_sec_bruteforce_examples():
    assert g.sec_bruteforce([P(0, 0), P(2, 0)], EXACT) == g.Circle(P(1, 0), F(1))
    assert g.sec_bruteforce([], EXACT).radius_sq == 0


def test_sec_bruteforce_cap():
    pts = [P(i, i * i) for i in range(13)]
    with pytest.raises(g.InputTooLarge):
        g.sec_bruteforce(pts, EXACT)


@given(exact_point_lists)
def test_sec_matches_bruteforce_exact(pts):
    assert g.sec(pts, EXACT)[0] == g.sec_bruteforce(pts, EXACT)


@given(float_point_lists)
def test_sec_matches_bruteforce_float(pts):
    # both round the exact SEC of the floats once: equal bit for bit
    a = g.sec(pts, FLOAT64)[0]
    b = g.sec_bruteforce(pts, FLOAT64)
    assert [v.hex() for v in (*a.center, a.radius_sq)] == [v.hex() for v in (*b.center, b.radius_sq)]


@given(float_point_lists)
@example([Point(-1.0, 0.0), Point(1.0, -1.0), Point(1.0, 1.0)])  # center y is 0.0, not -0.0
def test_float_sec_is_the_exact_sec_of_the_floats_rounded(pts):
    # a float is a dyadic rational: the float SEC is the exact SEC of the
    # floats' own values, each component rounded to nearest once
    exact = g.sec_bruteforce([P(F(x), F(y)) for x, y in pts], EXACT)
    want = (float(exact.center.x), float(exact.center.y), float(exact.radius_sq))
    c = g.sec(pts, FLOAT64)[0]
    assert [v.hex() for v in (c.center.x, c.center.y, c.radius_sq)] == [v.hex() for v in want]


@given(exact_point_lists)
def test_sec_encloses_every_point(pts):
    c = g.sec(pts, EXACT)[0]
    for p in pts:
        assert g.dist_sq(c.center, p) <= c.radius_sq


@given(float_point_lists)
def test_sec_encloses_every_point_float(pts):
    c = g.sec(pts, FLOAT64)[0]
    for p in pts:
        d2 = g.dist_sq(c.center, p)
        assert d2 <= c.radius_sq or FLOAT64.eq(d2, c.radius_sq)


@given(exact_point_lists, st.randoms(use_true_random=False))
def test_sec_permutation_and_duplication_invariant(pts, rnd):
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    if pts:
        shuffled += [rnd.choice(pts)] * 2
    assert g.sec(pts, EXACT)[0] == g.sec(shuffled, EXACT)[0]


@given(exact_point_lists)
def test_sec_of_boundary_points_is_fixpoint(pts):
    boundary = sec_boundary(pts, EXACT)
    assert g.sec(boundary, EXACT)[0] == g.sec(pts, EXACT)[0]


def test_on_sec_examples():
    assert sec_boundary([P(0, 0), P(2, 0), P(1, 0)], EXACT) == [P(0, 0), P(2, 0)]
    assert sec_boundary([P(5, -3)], EXACT) == [P(5, -3)]


@given(float_point_lists)
def test_on_sec_fixpoint_float(pts):
    boundary = sec_boundary(pts, FLOAT64)
    assert circles_eq(g.sec(boundary, FLOAT64)[0], g.sec(pts, FLOAT64)[0], FLOAT64)


# --- on_circle -------------------------------------------------------------------


def test_on_circle_examples():
    c = g.Circle(P(0, 0), F(25))
    assert g.on_circle(c, P(3, 4), EXACT)
    assert not g.on_circle(c, P(0, 0), EXACT)
    assert g.on_circle(g.Circle(P(1, 0), F(1)), P(2, 0), EXACT)


# --- integer Welzl on the tie cases random points rarely hit --------------------


@st.composite
def _cocircular_sets(draw):
    """At least four distinct rational points on one circle, plus its center
    and possibly repeats, in any order."""
    cx, cy = draw(rational), draw(rational)
    r = draw(bounded_fractions(F(1, 4), 10, 6))
    params = draw(st.lists(bounded_fractions(-8, 8, 4), min_size=4, max_size=8, unique=True))
    pts = [P(cx + r * ux, cy + r * uy) for ux, uy in map(_unit_pair, params)]
    pts.append(P(cx, cy))
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    return draw(st.permutations(pts))


@st.composite
def _collinear_sets(draw):
    """Two to eight distinct rational points on one line, possibly repeated."""
    ax, ay = draw(rational), draw(rational)
    vx, vy = draw(rational), draw(rational)
    if vx == vy == 0:
        vx = F(1)
    params = draw(st.lists(bounded_fractions(-6, 6, 5), min_size=2, max_size=8, unique=True))
    pts = [P(ax + t * vx, ay + t * vy) for t in params]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=2))


def _fraction_sec_search(pts):
    """The exhaustive SEC search on Fractions: every point, every pair as a
    diameter and every circumcircle (``geometry.circumcircle``), the smallest
    enclosing one first."""
    pts = sorted(set(pts))
    if not pts:
        return g.Circle(P(0, 0), F(0))
    cands = [g.Circle(p, F(0)) for p in pts]
    for a, b in combinations(pts, 2):
        cands.append(g.Circle(P((a.x + b.x) / 2, (a.y + b.y) / 2), g.dist_sq(a, b) / 4))
    for a, b, c in combinations(pts, 3):
        try:
            cands.append(g.circumcircle(a, b, c, EXACT))
        except g.CollinearInput:
            pass
    cands.sort(key=lambda circ: circ.radius_sq)
    return next(circ for circ in cands if all(g.dist_sq(circ.center, p) <= circ.radius_sq for p in pts))


@given(st.one_of(exact_point_lists, _cocircular_sets(), _collinear_sets()))
def test_integer_sec_oracle_matches_fraction_circumcircle_search(pts):
    assert g.sec_bruteforce(pts, EXACT) == _fraction_sec_search(pts)


@given(exact_points, exact_points, exact_points)
def test_integer_sec_oracle_of_an_acute_triangle_is_its_circumcircle(a, b, c):
    d_ab, d_bc, d_ca = g.dist_sq(a, b), g.dist_sq(b, c), g.dist_sq(c, a)
    longest = max(d_ab, d_bc, d_ca)
    if 2 * longest >= d_ab + d_bc + d_ca or len({a, b, c}) < 3:
        return  # right, obtuse or degenerate: the SEC is a diameter circle
    assert g.sec_bruteforce([a, b, c], EXACT) == g.circumcircle(a, b, c, EXACT)


@given(_cocircular_sets())
def test_sec_matches_bruteforce_cocircular(pts):
    c = g.sec(pts, EXACT)[0]
    assert c == g.sec_bruteforce(pts, EXACT)
    for p in pts:
        assert g.on_circle(c, p, EXACT) == (g.dist_sq(c.center, p) == c.radius_sq)


@given(_collinear_sets())
def test_sec_matches_bruteforce_collinear(pts):
    c = g.sec(pts, EXACT)[0]
    assert c == g.sec_bruteforce(pts, EXACT)
    assert len(sec_boundary(pts, EXACT)) == 2


# --- the boundary sec returns ----------------------------------------------------


@st.composite
def _lists_with_repeats(draw):
    pts = draw(exact_point_lists)
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return draw(st.permutations(pts))


@given(st.one_of(_lists_with_repeats(), _cocircular_sets(), _collinear_sets()))
def test_exact_sec_boundary_is_the_points_on_the_circle_in_input_order(pts):
    c, boundary = g.sec(pts, EXACT)
    assert boundary == [p for p in pts if g.dist_sq(c.center, p) == c.radius_sq]
    # on_circle on Fractions decides what the scaled-integer kernel decided
    assert boundary == [p for p in pts if g.on_circle(c, p, EXACT)]


@given(float_point_lists)
def test_float_sec_boundary_is_the_on_circle_filter(pts):
    pts = pts + pts[:2]
    c, boundary = g.sec(pts, FLOAT64)
    assert boundary == [p for p in pts if g.on_circle(c, p, FLOAT64)]


def test_cached_shuffle_order_is_the_seeded_shuffle():
    for n in range(301):
        order = list(range(n))
        random.Random(0x5EC).shuffle(order)
        assert g._shuffle_order(n) == tuple(order)


# --- the integer form -----------------------------------------------------------

# well past the brute-force oracle's cap, so only certificates can check them
_large_exact_lists = st.lists(exact_points, min_size=13, max_size=300)
_large_float_lists = st.lists(float_points, min_size=13, max_size=300)


def _dot(o, a, b):
    return (a.x - o.x) * (b.x - o.x) + (a.y - o.y) * (b.y - o.y)


def _certified_minimal(circle, boundary) -> bool:
    """Is ``circle`` the smallest circle through its ``boundary``, on
    Fractions: one point at radius 0, two antipodal points, or three that
    form a non-obtuse triangle (which then holds the center)?"""
    pts = sorted(set(boundary))
    c = circle.center
    if len(pts) == 1:
        return circle.radius_sq == 0 and pts[0] == c
    if any(P((a.x + b.x) / 2, (a.y + b.y) / 2) == c for a, b in combinations(pts, 2)):
        return True
    return any(
        _dot(a, b, e) >= 0 and _dot(b, a, e) >= 0 and _dot(e, a, b) >= 0 for a, b, e in combinations(pts, 3)
    )


@given(_large_exact_lists, st.integers(1, 12))
@settings(max_examples=40)
def test_exact_sec_of_many_points_is_enclosing_and_certified_by_its_boundary(pts, k):
    c, boundary = g.sec(pts, EXACT)
    assert all(g.dist_sq(c.center, p) <= c.radius_sq for p in pts)
    assert boundary == [p for p in pts if g.dist_sq(c.center, p) == c.radius_sq]
    assert _certified_minimal(c, boundary)
    # the integer form, even one not in lowest terms, gives the same circle
    # and boundary
    form = g.integer_form(pts)
    assert list(form) == pts
    assert g.sec(form, EXACT) == (c, boundary)
    assert g.sec(g.IntegerPoints([(x * k, y * k) for x, y in form.coords], form.den * k), EXACT) == (c, boundary)


@given(_large_float_lists, st.integers(1, 12))
@settings(max_examples=40)
def test_float_sec_from_the_integer_form_equals_sec_from_the_points(pts, k):
    c, boundary = g.sec(pts, FLOAT64)
    # the form holds the floats' exact values, which compare equal to them
    form = g.integer_form(pts)
    assert g.sec(g.IntegerPoints([(x * k, y * k) for x, y in form.coords], form.den * k), FLOAT64) == (c, boundary)
    assert all(g.dist_sq(c.center, p) <= c.radius_sq or g.on_circle(c, p, FLOAT64) for p in pts)
    # the rounded circle is the exact SEC of the floats, rounded once
    exact = g.sec([P(F(x), F(y)) for x, y in pts], EXACT)[0]
    assert c == g.Circle(Point(float(exact.center.x), float(exact.center.y)), float(exact.radius_sq))


@given(exact_similarities(), _large_exact_lists)
@settings(max_examples=40)
def test_sec_of_a_view_from_its_own_form_equals_sec_of_its_points(f, pts):
    fp = f.fp
    robot = pts[0]
    spec = model.spectrum_of(tuple(pts), EXACT)
    seen = frames.view(frames.make_frame(robot, fp, EXACT), spec)
    for v in (spec, seen):
        assert isinstance(v.towers, g.IntegerPoints)
        assert g.sec(v.towers, EXACT) == g.sec(list(v.towers), EXACT)


# --- the SEC hint ------------------------------------------------------------------

_hint_spectra = st.one_of(
    st.lists(exact_points, min_size=3, max_size=40),  # spread
    _cocircular_sets(),
    _collinear_sets(),
    st.lists(exact_points, min_size=2, max_size=2, unique=True),  # two towers
    st.lists(exact_points, min_size=1, max_size=1),  # one tower
)


def _hinted(towers, hint):
    return g.IntegerPoints(towers.coords, towers.den, hint=tuple(hint))


@given(exact_similarities(), _hint_spectra, st.data())
def test_a_hint_changes_neither_the_sec_nor_the_boundary_of_a_view(f, pts, data):
    spec = model.spectrum_of(tuple(pts), EXACT)
    towers = frames.view(f, spec).towers
    assert towers.hint is None  # the spectrum was not analysed yet
    expected = g.sec(_hinted(towers, ()), EXACT)
    n = len(towers)
    on = [i for i in range(n) if towers[i] in expected[1]]
    hints = {
        "random subset": data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)),
        "every index": range(n),
        "the true boundary": on,
    }
    inside = [i for i in range(n) if i not in on]
    if inside:
        hints["one interior tower"] = [data.draw(st.sampled_from(inside))]
    for name, hint in hints.items():
        assert g.sec(_hinted(towers, hint), EXACT) == expected, name
    # the hint the analysis of the spectrum records, as every view copies it
    g.sec(spec.towers, EXACT)
    assert spec.towers.hint == tuple(on)
    seen = frames.view(f, spec).towers
    assert seen.hint == tuple(on)
    assert g.sec(seen, EXACT) == expected
