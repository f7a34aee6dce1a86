"""Similarities of the plane: the changes of frame a demon may impose.

A similarity is a ``FrameParams`` (a zoom, a rotation and an optional
reflection) and a *center*, the point it sends to the origin:
f(p) = zoom · M · (p − center). The demon hands each activated robot the
similarity centered on the robot's own location, as in the formal model of
the source paper. Robots share no chirality, so a demon may hand a robot a
mirrored frame. Rotations are parameterized by a unit pair (c, s) with
c² + s² = 1 rather than an angle, so the exact backend can use rational
rotations built from Pythagorean triples.

On the exact backend ``linear_form`` keeps the integer form (A, B, D) of
zoom · M on the ``FrameParams``, over one common denominator D > 0:
A/D = zoom·c and B/D = zoom·s. A shared frame pays for it once. ``view``
maps a whole spectrum with it, and ``preimage`` returns center + (zoom·M)⁻¹·q
with one integer expression and one ``Fraction`` per coordinate, instead of
about ten ``Fraction`` operations per point. The form need not be in lowest
terms, because every point that leaves ``view`` or ``preimage`` is a
normalized ``Fraction``. ``apply`` maps a single point by the generic
formula, exact on ``Fraction``s too, as does every frame whose
``FrameParams`` has no form (on floats, or an exact frame built directly).
On floats, p − center is taken first, so a nearby tower's image stays
accurate however far the robot is from the origin.

A robot's *view* is the spectrum mapped into its frame: a multiset of
towers in the spectrum's key order, which a robogram reads as
``model.View`` says. On the exact backend it is a ``View``, built by
``view`` from the ``IntegerSpectrum`` of the spectrum, which is made once
per round: the towers as integers over one common denominator L. Each
tower then costs one integer expression in the frame's (A, B, D), and the
view keeps the results as integers over D·L: it hashes no image, and
builds a tower's ``Point`` only when the robogram reads that tower, while
``geometry.sec`` reads the integers themselves. On floats a view is the
``Counter`` ``map_multiset`` builds, tower by tower through ``apply``, so
images that round to the same float merge.

A frame made for a robot sends that robot's own tower to exactly the
origin, and a robot whose destination is its own origin stays exactly where
it is (``model.round``), on both backends. On the exact
backend the own tower is found by value, as the one at integer offset
(0, 0) from the center, so an equal but distinct key maps to the shared
``EXACT.origin()`` too; on floats it is any key equal to the center.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional

from .scalars import EXACT, FLOAT64, Backend, Point, Scalar


class InvalidFrame(Exception):
    """Rejected frame parameters: non-positive zoom or non-unit rotation."""


@dataclass(frozen=True, slots=True)
class FrameParams:
    """The linear part of a frame a demon hands to an activated robot: a
    zoom, a unit pair (c, s) and a reflection (see ``make_frame``). ``form``
    is the integer form ``linear_form`` keeps on an exact one."""

    zoom: Scalar
    c: Scalar
    s: Scalar
    reflect: bool
    form: Optional[tuple[int, int, int]] = field(default=None, init=False, repr=False, compare=False)


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


def check_params(zoom: Scalar, c: Scalar, s: Scalar, backend: Backend) -> None:
    """Raise InvalidFrame unless zoom > 0 and c² + s² = 1 (exactly on
    ``Fraction``s, within the tolerance on floats)."""
    if not zoom > 0:
        raise InvalidFrame(f"zoom must be positive, got {zoom}")
    if not backend.eq(c * c + s * s, 1):
        raise InvalidFrame(f"(c, s) = ({c}, {s}) is not a unit pair")


def linear_form(fp: FrameParams, backend: Backend) -> Optional[tuple[int, int, int]]:
    """Validate ``fp`` and return its (A, B, D), A/D = zoom·c, B/D = zoom·s, kept
    on ``fp`` so each exact ``FrameParams`` is validated once; None on floats."""
    form = fp.form
    if form is None:
        zoom, c, s = fp.zoom, fp.c, fp.s
        check_params(zoom, c, s, backend)
        if backend.is_exact:
            zn, zd, cd, sd = zoom.numerator, zoom.denominator, c.denominator, s.denominator
            d = zd * lcm(cd, sd)
            form = (zn * c.numerator * (d // (zd * cd)), zn * s.numerator * (d // (zd * sd)), d)
            object.__setattr__(fp, "form", form)
    return form


def make_frame(robot_loc: Point, fp: FrameParams, backend: Backend) -> Similarity:
    """The frame of a robot at ``robot_loc``: the similarity with the linear
    part of ``fp`` centered on the robot, which it sends to the origin of its
    own frame. Validates ``fp`` (``linear_form``) and does no arithmetic."""
    linear_form(fp, backend)
    return Similarity(fp, robot_loc)


def inverse(f: Similarity) -> Similarity:
    """The inverse similarity: apply(inverse(f), apply(f, p)) == p. It is
    centered on f's image of the origin and has no integer form.

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
    built. Without a form it is apply(inverse(f), q).
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


class IntegerSpectrum(NamedTuple):
    """The towers of an exact spectrum over one common denominator, the
    form every view of a round is built from: tower i is
    (coords[i][0] / den, coords[i][1] / den), of multiplicity ``mults[i]``,
    in the spectrum's key order."""

    coords: list[tuple[int, int]]
    den: int
    mults: tuple[int, ...]


def integer_spectrum(s: Counter) -> IntegerSpectrum:
    """The ``IntegerSpectrum`` of an exact spectrum, with den the lcm of its
    coordinates' denominators."""
    den = lcm(*(v.denominator for p in s for v in p))
    coords = [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator)) for x, y in s]
    return IntegerSpectrum(coords, den, tuple(s.values()))


class View:
    """A robot's view on the exact backend: a read-only multiset of towers in
    the spectrum's key order, held as integers over one denominator: tower i
    is (coords[i][0] / den, coords[i][1] / den), of multiplicity
    ``mults[i]``. Indexing builds tower i's ``Point`` (the shared
    ``EXACT.origin()`` for (0, 0)) each time it is read, so a reader that
    wants few towers builds few points; ``geometry.sec`` reads the integers.
    It offers what a robogram may read: ``len``, ``values()``, ``in``,
    indexing, iteration and ``items()``."""

    __slots__ = ("coords", "den", "mults")

    def __init__(self, coords: list[tuple[int, int]], den: int, mults: tuple[int, ...]):
        self.coords = coords
        self.den = den
        self.mults = mults

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Point:
        x, y = self.coords[i]
        return Point(Fraction(x, self.den), Fraction(y, self.den)) if x or y else EXACT.origin()

    def __iter__(self):
        return map(self.__getitem__, range(len(self.coords)))

    def __contains__(self, p: Point) -> bool:
        """Is ``p`` a tower? Decided on the integers, building no point."""
        (xn, xd), (yn, yd), w = p.x.as_integer_ratio(), p.y.as_integer_ratio(), self.den
        return (xn * w) % xd == 0 and (yn * w) % yd == 0 and (xn * w // xd, yn * w // yd) in self.coords

    def items(self):
        return zip(self, self.mults)

    def values(self) -> tuple[int, ...]:
        return self.mults

    def __repr__(self) -> str:
        return f"View({list(self.items())!r})"


def view(f: Similarity, spec: IntegerSpectrum) -> View:
    """The view of ``spec`` through the exact frame ``f``, as integers.

    With p − center = (u, v), zoom·M·(u, v) is (A·u − B·v, B·u + A·v)/D, or
    (A·u + B·v, B·u − A·v)/D when reflecting. Over the denominator
    L = lcm(den, the center's denominators), each tower (X, Y)/den gives
    u = (k·X − OX)/L and v = (k·Y − OY)/L for k = L/den and integers OX, OY,
    so the terms in the center fold into one integer per coordinate: each
    tower costs four products, and its image is that pair over D·L. The
    tower at offset (0, 0), the robot's own, reads as the shared
    ``EXACT.origin()``."""
    fp, (cx, cy) = f.fp, f.center
    a, b, d = fp.form
    m11, m12, m21, m22 = (a, b, b, -a) if fp.reflect else (a, -b, b, a)
    den = lcm(spec.den, cx.denominator, cy.denominator)
    ox, oy = cx.numerator * (den // cx.denominator), cy.numerator * (den // cy.denominator)
    ex, ey = m11 * ox + m12 * oy, m21 * ox + m22 * oy
    k = den // spec.den
    m11, m12, m21, m22 = m11 * k, m12 * k, m21 * k, m22 * k
    coords = [(m11 * x + m12 * y - ex, m21 * x + m22 * y - ey) for x, y in spec.coords]
    return View(coords, d * den, spec.mults)


def map_multiset(f: Similarity, s: Counter) -> View | Counter:
    """The view of spectrum ``s`` through ``f``: through ``view`` for an
    exact frame with an integer form, otherwise a ``Counter`` built tower by
    tower through ``apply``, with the tower at ``f.center`` (any key equal to
    it) sent to the origin and images that collide merged."""
    if f.fp.form is not None:
        return view(f, integer_spectrum(s))
    center = f.center
    origin = FLOAT64.origin()
    out: Counter = Counter()
    for p, mult in s.items():
        out[origin if p == center else apply(f, p)] += mult
    return out
