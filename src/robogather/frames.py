"""Similarities of the plane: the changes of frame a demon may impose.

A similarity is a ``FrameParams`` (a zoom, a rotation and an optional
reflection) and a *center*, the point it sends to the origin:
f(p) = zoom · M · (p − center). The demon hands each activated robot the
similarity centered on the robot's own location, as in the formal model of
the source paper. Robots share no chirality, so a demon may hand a robot a
mirrored frame. Rotations are parameterized by a unit pair (c, s) with
c² + s² = 1 rather than an angle, so the exact backend can use rational
rotations built from Pythagorean triples.

A ``FrameParams`` with rational parameters is checked when it is built,
and it keeps the integer form (A, B, D) of zoom · M, over one common
denominator D > 0: A/D = zoom·c and B/D = zoom·s. A shared frame pays for
it once. ``view`` maps a whole view with it, and ``preimage`` returns
center + (zoom·M)⁻¹·q with one integer expression and one ``Fraction`` per
coordinate, instead of about ten ``Fraction`` operations per point. The
form need not be in lowest terms, because every point that leaves ``view``
or ``preimage`` is a normalized ``Fraction``. ``apply`` maps a single point
by the generic formula, exact on ``Fraction``s too, as does every float
frame, which has no form and is checked against a run's tolerance in
``make_frame``. On floats, p − center is taken first, so a nearby tower's
image stays accurate however far the robot is from the origin.

The spectrum and a robot's *view*, the spectrum mapped into its frame, are
one record on both backends, ``View``: the towers in the spectrum's key
order and their multiplicities, index-aligned. ``model.spectrum_of`` builds
the spectrum, the view in the global frame, and ``view`` maps it through one
robot's frame. On the exact backend the towers are
``geometry.IntegerPoints``, integers over one common denominator L, made
once per configuration: each tower then costs one integer expression in the
frame's (A, B, D), and the view keeps the results as integers over D·L. It
hashes no image and builds a tower's ``Point`` only when the robogram reads
that tower, while ``geometry.sec`` reads the integers themselves. On floats
the towers are mapped one by one through ``apply``, and images that round
to the same float merge.

A frame made for a robot sends that robot's own tower to exactly the
origin, and a robot whose destination is its own origin stays exactly where
it is (``model.round``), on both backends. On the exact
backend the own tower is found by value, as the one at integer offset
(0, 0) from the center, so an equal but distinct key maps to the shared
``EXACT.origin()`` too; on floats it is any key equal to the center.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .geometry import IntegerPoints
from .scalars import EXACT, FLOAT64, Backend, Point, Scalar


class InvalidFrame(Exception):
    """Rejected frame parameters: non-positive zoom or non-unit rotation."""


@dataclass(frozen=True, slots=True)
class FrameParams:
    """The linear part of a frame a demon hands to an activated robot: a
    zoom, a unit pair (c, s) and a reflection (see ``make_frame``). Rational
    parameters are checked here (InvalidFrame) and ``form`` is their integer
    form (``check_params``); float ones have none."""

    zoom: Scalar
    c: Scalar
    s: Scalar
    reflect: bool
    form: Optional[tuple[int, int, int]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if float not in (type(self.zoom), type(self.c), type(self.s)):
            object.__setattr__(self, "form", check_params(self, EXACT))


@dataclass(frozen=True, slots=True)
class Similarity:
    """f(p) = zoom · M · (p − center), where M is the rotation (c, -s; s, c)
    composed with reflection across the x-axis when ``reflect`` is set, and
    zoom, c, s and reflect are those of ``fp``.

    zoom > 0, c² + s² = 1; distances scale by zoom²:
    dist_sq(f p, f q) = zoom² · dist_sq(p, q). Two similarities are equal
    when their ``FrameParams`` values and their centers are.
    """

    fp: FrameParams
    center: Point


def _linear(fp: FrameParams, x: Scalar, y: Scalar) -> Point:
    """zoom · M · (x, y), by the generic formula."""
    if fp.reflect:
        y = -y
    return Point(fp.zoom * (fp.c * x - fp.s * y), fp.zoom * (fp.s * x + fp.c * y))


def apply(f: Similarity, p: Point) -> Point:
    """f(p), by the generic formula: exact on ``Fraction``s, and on floats
    p − center is taken first."""
    fp, (cx, cy), (x, y) = f.fp, f.center, p
    return _linear(fp, x - cx, y - cy)


def check_params(fp: FrameParams, backend: Backend) -> Optional[tuple[int, int, int]]:
    """Raise InvalidFrame unless zoom > 0 and c² + s² = 1, and return the
    integer form (A, B, D) of an exact ``fp``, None on floats.

    On floats c² + s² = 1 holds within the tolerance. On the exact backend
    both tests run on the integers of the form: with zoom = zn/zd and
    D = zd·lcm(cd, sd) over the denominators of c and s, A/D = zoom·c and
    B/D = zoom·s, so zoom > 0 is zn > 0 and c² + s² = 1 is
    A² + B² = (zn·lcm(cd, sd))²."""
    zoom, c, s = fp.zoom, fp.c, fp.s
    form = None
    if backend.is_exact:
        zn, cd, sd = zoom.numerator, c.denominator, s.denominator
        m = lcm(cd, sd)
        a, b = zn * c.numerator * (m // cd), zn * s.numerator * (m // sd)
        form = (a, b, zoom.denominator * m)
        positive, unit = zn > 0, a * a + b * b == (zn * m) ** 2
    else:
        positive, unit = zoom > 0, backend.eq(c * c + s * s, 1)
    if not positive:
        raise InvalidFrame(f"zoom must be positive, got {zoom}")
    if not unit:
        raise InvalidFrame(f"(c, s) = ({c}, {s}) is not a unit pair")
    return form


def make_frame(robot_loc: Point, fp: FrameParams, backend: Backend) -> Similarity:
    """The frame of a robot at ``robot_loc``: the similarity with the linear
    part of ``fp`` centered on the robot, which it sends to the origin of its
    own frame. Checks a float ``fp`` against the tolerance of ``backend``
    (an exact one was checked when it was built) and does no arithmetic."""
    if fp.form is None:
        check_params(fp, backend)
    return Similarity(fp, robot_loc)


def inverse(f: Similarity) -> Similarity:
    """The inverse similarity: apply(inverse(f), apply(f, p)) == p. It is
    centered on f's image of the origin.

    The linear part of a reflecting similarity is an involution, so the
    inverse keeps (c, s); a pure rotation inverts to (c, -s).
    """
    fp, (cx, cy) = f.fp, f.center
    inv = replace(fp, zoom=1 / fp.zoom, s=fp.s if fp.reflect else -fp.s)
    return Similarity(inv, _linear(fp, -cx, -cy))


def preimage(f: Similarity, q: Point) -> Point:
    """The point p with apply(f, p) == q.

    On the integer form, with N = A² + B², p − center is
    (D·(A·qx + B·qy)/N, ±D·(A·qy − B·qx)/N), negated in y when reflecting,
    so each coordinate of p is one integer expression over N·qxd·qyd times
    the denominator of the center's coordinate, and no inverse frame is
    built. A float frame has no form: it is apply(inverse(f), q).
    """
    fp = f.fp
    if fp.form is None:
        return apply(inverse(f), q)
    a, b, d = fp.form
    (x, y), (cx, cy) = q, f.center
    xd, yd = x.denominator, y.denominator
    u, v, w = x.numerator * yd, y.numerator * xd, (a * a + b * b) * xd * yd
    pu, pv = d * (a * u + b * v), d * (a * v - b * u)
    if fp.reflect:
        pv = -pv
    cxn, cxd, cyn, cyd = cx.numerator, cx.denominator, cy.numerator, cy.denominator
    return Point(Fraction(cxn * w + cxd * pu, cxd * w), Fraction(cyn * w + cyd * pv, cyd * w))


class View:
    """A multiset of locations as one record: tower ``towers[i]`` holds
    ``mults[i]`` robots. A spectrum is one (``model.spectrum_of``), and so is
    what a robot sees (``view``). On the exact backend ``towers`` is
    ``geometry.IntegerPoints``, on floats a list of points. ``len`` and
    iteration are left undefined, so that no caller reads its two fields
    where it meant the towers."""

    __slots__ = ("towers", "mults")

    def __init__(self, towers: Sequence[Point], mults: tuple[int, ...]):
        self.towers = towers
        self.mults = mults

    def __repr__(self) -> str:
        return f"View({list(self.towers)!r}, {self.mults!r})"


def view(f: Similarity, g: View) -> View:
    """The view ``g`` (a spectrum, the view in the global frame) seen through
    ``f``, the tower at ``f.center`` read as the origin.

    A frame with an integer form maps the integers of exact towers. With
    p − center = (u, v), zoom·M·(u, v) is (A·u − B·v, B·u + A·v)/D, or
    (A·u + B·v, B·u − A·v)/D when reflecting. Over the denominator
    L = lcm(den, the center's denominators), each tower (X, Y)/den gives
    u = (k·X − OX)/L and v = (k·Y − OY)/L for k = L/den and integers OX, OY,
    so the terms in the center fold into one integer per coordinate: each
    tower costs four products, and its image is that pair over D·L. The
    tower at offset (0, 0), the robot's own, reads as the shared
    ``EXACT.origin()``. The view keeps the towers' ``hint``, the indices of
    the towers ``geometry.sec`` found on the spectrum's SEC: the view is
    index-aligned with the spectrum and a similarity maps the SEC onto the
    SEC, so they index the view's boundary too, and ``sec`` checks them
    against every tower before it uses them.

    A float frame maps tower by tower through ``apply``, sending the tower
    equal to the center to the origin, and merges images that round to the
    same point."""
    fp, center = f.fp, f.center
    if fp.form is None:
        origin = FLOAT64.origin()
        merged: dict[Point, int] = {}
        for p, mult in zip(g.towers, g.mults):
            q = origin if p == center else apply(f, p)
            merged[q] = merged.get(q, 0) + mult
        return View(list(merged), tuple(merged.values()))
    a, b, d = fp.form
    m11, m12, m21, m22 = (a, b, b, -a) if fp.reflect else (a, -b, b, a)
    towers, (cx, cy) = g.towers, center
    den = lcm(towers.den, cx.denominator, cy.denominator)
    ox, oy = cx.numerator * (den // cx.denominator), cy.numerator * (den // cy.denominator)
    ex, ey = m11 * ox + m12 * oy, m21 * ox + m22 * oy
    k = den // towers.den
    m11, m12, m21, m22 = m11 * k, m12 * k, m21 * k, m22 * k
    coords = [(m11 * x + m12 * y - ex, m21 * x + m22 * y - ey) for x, y in towers.coords]
    return View(IntegerPoints(coords, d * den, hint=towers.hint), g.mults)
