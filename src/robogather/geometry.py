"""Planar geometry kernel: triangle classification, circumcircles, and the
smallest enclosing circle (SEC).

Circles store their radius *squared* so the exact backend stays closed under
rational arithmetic; every comparison the callers need is monotone in the
squared radius. Constructions are exact and only yes/no predicates such as
``on_circle`` use the float tolerance. The SEC is computed on integers on
both backends, from an integer form of the points: integer pairs over one
common denominator (``IntegerPoints``, also the one form of the towers of
an exact spectrum or view, ``frames.View``). ``sec`` reads the integers of
``IntegerPoints`` as they are, and scales any other points by the lcm L of
the denominators of their exact values (``integer_form``; a float is a
dyadic rational). The kernel keeps only the vertices of the convex hull of
the distinct integer pairs (Andrew's monotone chain on the sorted pairs),
whose SEC is that of the whole set, and runs Welzl's move-to-front
algorithm (expected linear time) on them behind a deterministic,
seed-driven shuffle. A circle is an integer tuple
(ux, uy, d, rn) with d ≠ 0, center (ux/d, uy/d) and squared radius rn/d² in
scaled units, and every enclosure test is one integer comparison. The SEC is
unique, so the circle does not depend on the form or on the order; only the
result is converted back, to ``Fraction``s or to correctly rounded floats.
``sec`` also returns the circle's boundary, the input points on it: on the
exact backend each is decided on the same integers, on floats by
``on_circle``'s tolerance test on the rounded circle. An exact form may
carry a ``hint``, the indices of the points on its SEC: ``sec`` then runs
Welzl on those alone and keeps the circle only if it encloses every point
(a smallest circle of a subset that encloses the set is the unique SEC).

The brute-force oracle ``sec_bruteforce`` is one integer search on both
backends that shares no code path with that Welzl: it clears denominators
with its own code, tries every point, diameter and Cramer-rule circumcircle
on absolute coordinates (Welzl's are relative to a boundary point), and
rounds the winner once with its own lines, so on floats it must equal
``sec`` bit for bit. The tests pin it against an exhaustive search over
``circumcircle``, which on the exact backend is plain ``Fraction``
arithmetic, sharing nothing with either integer kernel.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .scalars import EXACT, Backend, Point, Scalar


class GeometryError(Exception):
    pass


class DegenerateInput(GeometryError):
    """Two input points coincide where distinct points are required."""


class CollinearInput(GeometryError):
    """Three collinear points admit no circumcircle."""


class InputTooLarge(GeometryError):
    """Brute-force oracle refused an input beyond its size cap."""


class Circle(NamedTuple):
    center: Point
    radius_sq: Scalar


class TriangleKind(Enum):
    EQUILATERAL = "equilateral"
    ISOSCELES = "isosceles"
    SCALENE = "scalene"


@dataclass(frozen=True)
class TriangleShape:
    """Classification result. ``apex`` is the vertex the protocol aims at:
    the vertex opposite the base, where the base of an isosceles triangle is
    its unequal side and that of a scalene one its strictly longest side. An
    equilateral triangle has no apex (None). Here isosceles excludes
    equilateral.
    """

    kind: TriangleKind
    apex: Optional[Point] = None


def dist_sq(p: Point, q: Point) -> Scalar:
    """Squared euclidean distance; symmetric, zero iff the points coincide."""
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def classify_triangle(p1: Point, p2: Point, p3: Point, backend: Backend) -> TriangleShape:
    """Classify a triangle by its squared side lengths, and find its apex
    from them (``TriangleShape``).

    Invariant under any permutation of the inputs. A scalene triangle has no
    two sides equal, even within the tolerance, so its longest side is
    strictly the longest and its apex is unique. Collinear-but-distinct
    points are still classified (purely by side lengths); callers that need
    a genuine triangle must check collinearity themselves.

    On the exact backend every test reads the three points' integer form
    (``integer_form``): one scale for all three, so the squared sides keep
    their order and their equalities.
    """
    if backend.is_exact:
        (x1, y1), (x2, y2), (x3, y3) = integer_form((p1, p2, p3)).coords
        a2 = (x2 - x3) ** 2 + (y2 - y3) ** 2  # side opposite p1
        b2 = (x1 - x3) ** 2 + (y1 - y3) ** 2  # side opposite p2
        c2 = (x1 - x2) ** 2 + (y1 - y2) ** 2  # side opposite p3
        for side, a, b in ((c2, p1, p2), (b2, p1, p3), (a2, p2, p3)):
            if not side:
                raise DegenerateInput(f"coincident points {a} and {b}")
        ab, bc, ac = a2 == b2, b2 == c2, a2 == c2
    else:
        for a, b in ((p1, p2), (p1, p3), (p2, p3)):
            if backend.points_eq(a, b):
                raise DegenerateInput(f"coincident points {a} and {b}")
        a2 = dist_sq(p2, p3)  # side opposite p1
        b2 = dist_sq(p1, p3)  # side opposite p2
        c2 = dist_sq(p1, p2)  # side opposite p3
        ab = backend.eq(a2, b2)
        bc = backend.eq(b2, c2)
        ac = backend.eq(a2, c2)
    # Two out of three equalities can only happen through tolerance
    # non-transitivity on floats; close it upward to equilateral.
    if ab + bc + ac >= 2:
        return TriangleShape(TriangleKind.EQUILATERAL)
    if ab:
        return TriangleShape(TriangleKind.ISOSCELES, apex=p3)
    if ac:
        return TriangleShape(TriangleKind.ISOSCELES, apex=p2)
    if bc:
        return TriangleShape(TriangleKind.ISOSCELES, apex=p1)
    apex = p1 if a2 > b2 and a2 > c2 else p2 if b2 > c2 else p3
    return TriangleShape(TriangleKind.SCALENE, apex)


def barycenter_3(p1: Point, p2: Point, p3: Point) -> Point:
    """Mean of three points; the minimizer of the sum of squared distances."""
    return Point((p1.x + p2.x + p3.x) / 3, (p1.y + p2.y + p3.y) / 3)


def _cross(o: Point, a: Point, b: Point) -> Scalar:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def circumcircle(p1: Point, p2: Point, p3: Point, backend: Backend) -> Circle:
    """The unique circle through three non-collinear points, by the textbook
    formula. Exact on ``Fraction``s, where it is the reference the tests pin
    the integer brute-force oracle against."""
    d = 2 * _cross(p1, p2, p3)
    if backend.eq(d, 0):
        raise CollinearInput(f"collinear points {p1}, {p2}, {p3}")
    n1 = p1.x * p1.x + p1.y * p1.y
    n2 = p2.x * p2.x + p2.y * p2.y
    n3 = p3.x * p3.x + p3.y * p3.y
    ux = (n1 * (p2.y - p3.y) + n2 * (p3.y - p1.y) + n3 * (p1.y - p2.y)) / d
    uy = (n1 * (p3.x - p2.x) + n2 * (p1.x - p3.x) + n3 * (p2.x - p1.x)) / d
    center = Point(ux, uy)
    return Circle(center, dist_sq(center, p1))


def on_circle(c: Circle, p: Point, backend: Backend) -> bool:
    """Is ``p`` on the boundary of ``c``? Exact on ``Fraction``s, within the
    tolerance on floats."""
    return backend.eq(dist_sq(c.center, p), c.radius_sq)


# Fixed shuffle seed: sec() must be a deterministic function of the point
# *set* (we sort before shuffling), independent of caller ordering.
_SEC_SHUFFLE_SEED = 0x5EC


@lru_cache(maxsize=256)
def _shuffle_order(n: int) -> tuple[int, ...]:
    """The permutation ``random.Random(_SEC_SHUFFLE_SEED).shuffle`` applies to
    a list of length ``n``, seeded once per length (per recent length)."""
    order = list(range(n))
    random.Random(_SEC_SHUFFLE_SEED).shuffle(order)
    return tuple(order)


class IntegerPoints:
    """A read-only sequence of points held as integers over one common
    denominator: point i is (coords[i][0] / den, coords[i][1] / den), and
    ``den`` need not make the pairs lowest terms; ``sec`` and ``in`` read the
    integers. Indexing and iteration return the ``points`` it keeps (made by
    ``integer_form``), or else build point i as ``Fraction``s (the shared
    ``EXACT.origin()`` for (0, 0)) each time it is read.

    ``hint`` is the indices of the points an exact ``sec`` found on the SEC,
    recorded by its first full analysis, or copied from a spectrum by
    ``frames.view``: a similarity maps the SEC onto the SEC, so an
    index-aligned view has the same boundary indices. ``sec`` trusts it only
    after every point passes its enclosure test, so a wrong hint costs time
    and never changes a result. A form built directly has none."""

    __slots__ = ("coords", "den", "points", "hint")

    def __init__(
        self,
        coords: list[tuple[int, int]],
        den: int,
        points: Optional[Sequence[Point]] = None,
        hint: Optional[tuple[int, ...]] = None,
    ):
        self.coords = coords
        self.den = den
        self.points = points
        self.hint = hint

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Point:
        if self.points is not None:
            return self.points[i]
        x, y = self.coords[i]
        return Point(Fraction(x, self.den), Fraction(y, self.den)) if x or y else EXACT.origin()

    def __iter__(self):
        return iter(self.points) if self.points is not None else map(self.__getitem__, range(len(self.coords)))

    def __contains__(self, p: Point) -> bool:
        """Is ``p`` one of the points? Decided on the integers, building no point."""
        (xn, xd), (yn, yd), w = p.x.as_integer_ratio(), p.y.as_integer_ratio(), self.den
        return (xn * w) % xd == 0 and (yn * w) % yd == 0 and (xn * w // xd, yn * w // yd) in self.coords


def integer_form(points: Sequence[Point]) -> IntegerPoints:
    """The exact values of ``points`` as ``IntegerPoints`` that keep them, over
    the lcm of the denominators of their coordinates (``as_integer_ratio``
    reads a ``Fraction``'s and a float's alike)."""
    ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in points]
    den = lcm(*[d for r in ratios for _, d in r])
    return IntegerPoints([(xn * (den // xd), yn * (den // yd)) for (xn, xd), (yn, yd) in ratios], den, points)


def sec(points: Sequence[Point], backend: Backend) -> tuple[Circle, list[Point]]:
    """Smallest enclosing circle of a point list, and its boundary: the input
    points on the circle, in input order, repeats kept.

    The circle is permutation- and duplication-invariant; ``sec([])`` is the
    zero circle at the origin, with no boundary. Welzl's move-to-front scheme
    on the hull vertices of an integer form of the points, on both backends:
    ``points`` itself when it is ``IntegerPoints`` (an exact view's towers),
    else ``integer_form(points)``. On floats the circle is rounded once, by
    int true division, which is correctly rounded, and the boundary is
    ``on_circle``'s tolerance test on that rounded circle. On the exact
    backend each point is decided on the integers,
    (x·d − ux)² + (y·d − uy)² = rn, so only the boundary's items of
    ``points`` are read.

    On the exact backend a form's ``hint`` (the boundary indices of the
    spectrum a view was mapped from) lets Welzl run on those few points
    alone; the circle is accepted only if no point lies outside it, and the
    boundary is read from that same pass. A circle that is the smallest
    around a subset and encloses the whole set is the SEC of the set, which
    is unique, so the circle and the boundary are those of the full path.
    Any point outside sends ``sec`` down the full path, which records the
    boundary indices as the form's ``hint``.
    """
    form = points if isinstance(points, IntegerPoints) else integer_form(points)
    ints, scale = form.coords, form.den
    if not ints:
        return Circle(backend.origin(), backend.scalar(0)), []
    exact, on = backend.is_exact, None
    if exact and form.hint:
        found = _welzl([ints[i] for i in form.hint])
        on = _boundary_indices(ints, *found)
    if on is None:
        found = _welzl(_hull_vertices(sorted(set(ints))))
        if exact:
            on = _boundary_indices(ints, *found)
            form.hint = tuple(on)
    ux, uy, d, rn = found
    den = d * scale
    if not exact:
        circle = Circle(Point(ux / den, uy / den), rn / (den * den))
        return circle, [p for p in points if on_circle(circle, p, backend)]
    return Circle(Point(Fraction(ux, den), Fraction(uy, den)), Fraction(rn, den * den)), [points[i] for i in on]


def _boundary_indices(ints: Sequence[tuple[int, int]], ux: int, uy: int, d: int, rn: int) -> Optional[list[int]]:
    """The indices of the pairs on the circle (ux, uy, d, rn), in order, or
    None as soon as one lies outside it: one pass, one integer compare per
    pair."""
    on = []
    for i, (x, y) in enumerate(ints):
        dx = x * d - ux
        dy = y * d - uy
        q = dx * dx + dy * dy
        if q >= rn:
            if q > rn:
                return None
            on.append(i)
    return on


def _welzl(pts: Sequence[tuple[int, int]]) -> tuple[int, int, int, int]:
    """The SEC (ux, uy, d, rn), d > 0, of non-empty integer pairs: Welzl's
    move-to-front in the seeded shuffled order. ``sec`` hands it the hull
    vertices of the distinct pairs, or a hint's few points; the SEC of a set
    is that of its hull vertices, and it is unique, so the circle depends
    neither on the filter nor on the order."""
    pts = [pts[i] for i in _shuffle_order(len(pts))]
    ux, uy, d, rn = pts[0][0], pts[0][1], 1, 0
    for i, (x, y) in enumerate(pts):
        dx, dy = x * d - ux, y * d - uy
        if dx * dx + dy * dy > rn:
            ux, uy, d, rn = _int_sec_one_point(pts[: i + 1], x, y)
    if d < 0:  # so that a zero center coordinate rounds to 0.0, not -0.0
        ux, uy, d = -ux, -uy, -d
    return ux, uy, d, rn


def _hull_vertices(pts: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The vertices of the convex hull of ``pts``, sorted distinct integer
    pairs, counterclockwise from the first: Andrew's monotone chain, which
    drops every point inside the hull or inside one of its edges. Only the
    points strictly below the line from the first point to the last can be
    on the lower chain, and only those strictly above it on the upper one,
    so each point is scanned by one chain. Collinear input gives its two
    ends."""
    if len(pts) < 3:
        return list(pts)
    first, last = pts[0], pts[-1]
    (lx, ly), ex, ey = first, last[0] - first[0], last[1] - first[1]
    below = [p for p in pts if ex * (p[1] - ly) < ey * (p[0] - lx)]
    above = [p for p in reversed(pts) if ex * (p[1] - ly) > ey * (p[0] - lx)]
    hull: list[tuple[int, int]] = []
    for chain, seq in (([first], below + [last]), ([last], above + [first])):
        for x, y in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                chain.pop()
            chain.append((x, y))
        hull += chain[:-1]
    return hull


def _int_sec_one_point(pts: Sequence[tuple[int, int]], px: int, py: int) -> tuple[int, int, int, int]:
    ux, uy, d, rn = px, py, 1, 0
    for i, (x, y) in enumerate(pts):
        dx, dy = x * d - ux, y * d - uy
        if dx * dx + dy * dy <= rn:
            continue
        if rn == 0:
            dx, dy = px - x, py - y
            ux, uy, d, rn = px + x, py + y, 2, dx * dx + dy * dy
        else:
            ux, uy, d, rn = _int_sec_two_points(pts[: i + 1], px, py, x, y)
    return ux, uy, d, rn


def _int_sec_two_points(
    pts: Sequence[tuple[int, int]], px: int, py: int, qx: int, qy: int
) -> tuple[int, int, int, int]:
    """Smallest circle through p and q enclosing ``pts``, grown one point at
    a time (the two-point step of the textbook incremental form).

    Welzl only calls this when that circle exists. Then the points outside
    the circle with diameter pq all lie on one side of the line pq, and each
    point found outside the current circle moves its center further to that
    side, which keeps every earlier point inside. Exact arithmetic never
    misplaces a point, so no left/right bookkeeping is needed.
    """
    ex, ey = qx - px, qy - py
    e2 = ex * ex + ey * ey
    ux, uy, d, rn = px + qx, py + qy, 2, e2
    for x, y in pts:
        dx, dy = x * d - ux, y * d - uy
        if dx * dx + dy * dy <= rn:
            continue
        fx, fy = x - px, y - py
        d = 2 * (ex * fy - ey * fx)
        if d == 0:
            raise GeometryError(
                f"collinear point {x, y} outside the circle on {px, py}, {qx, qy} (unreachable)"
            )
        # circumcenter of p, q, r relative to p is (vx, vy)/d
        f2 = fx * fx + fy * fy
        vx = fy * e2 - ey * f2
        vy = ex * f2 - fx * e2
        ux, uy, rn = px * d + vx, py * d + vy, vx * vx + vy * vy
    return ux, uy, d, rn


# Distinct points ``sec_bruteforce`` accepts: it tries O(n³) candidates
# against n points each
_BRUTEFORCE_CAP = 12


def sec_bruteforce(points: Sequence[Point], backend: Backend) -> Circle:
    """Independent SEC oracle: try every circle determined by one point,
    each pair as a diameter, and each non-collinear triple; return the
    smallest one enclosing all input points.

    Exhaustive, so capped at ``_BRUTEFORCE_CAP`` distinct points. One
    integer search on both backends: the points are scaled once by the lcm L
    of the denominators of their exact values (``as_integer_ratio``) to
    integer pairs. A candidate is (ux, uy, d, rn): center (ux/d, uy/d),
    squared radius rn/d². The smallest enclosing candidate is kept, radii
    compared by cross-multiplication (rn/d² < rn'/d'² iff rn·d'² < rn'·d²);
    the SEC is unique, so the first of equal radius is the same circle. On
    floats the winner is rounded once, by int true division.
    """
    pts = sorted(set(points))
    if len(pts) > _BRUTEFORCE_CAP:
        raise InputTooLarge(f"{len(pts)} distinct points exceed the cap of {_BRUTEFORCE_CAP}")
    if not pts:
        return Circle(backend.origin(), backend.scalar(0))
    ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in pts]
    scale = lcm(*[d for r in ratios for _, d in r])
    ints = [(xn * (scale // xd), yn * (scale // yd)) for (xn, xd), (yn, yd) in ratios]

    def candidates():
        for x, y in ints:
            yield x, y, 1, 0
        for (ax, ay), (bx, by) in combinations(ints, 2):
            yield ax + bx, ay + by, 2, (ax - bx) ** 2 + (ay - by) ** 2
        for (ax, ay), (bx, by), (cx, cy) in combinations(ints, 3):
            d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
            if d == 0:
                continue
            n1, n2, n3 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
            ux = n1 * (by - cy) + n2 * (cy - ay) + n3 * (ay - by)
            uy = n1 * (cx - bx) + n2 * (ax - cx) + n3 * (bx - ax)
            yield ux, uy, d, (ux - ax * d) ** 2 + (uy - ay * d) ** 2

    best = None
    for ux, uy, d, rn in candidates():
        if best is not None and rn * best[2] ** 2 >= best[3] * d * d:
            continue
        if all((x * d - ux) ** 2 + (y * d - uy) ** 2 <= rn for x, y in ints):
            best = ux, uy, d, rn
    if best is None:
        raise GeometryError("no enclosing candidate found (unreachable)")
    ux, uy, d, rn = best
    if d < 0:  # a Cramer denominator may be negative; 0 / -n would read -0.0
        ux, uy, d = -ux, -uy, -d
    den = d * scale
    if backend.is_exact:
        return Circle(Point(Fraction(ux, den), Fraction(uy, den)), Fraction(rn, den * den))
    return Circle(Point(ux / den, uy / den), rn / (den * den))
