"""Similarities of the plane: the changes of frame a demon may impose.

A similarity is translation ∘ rotation ∘ uniform scaling, optionally composed
with a reflection (robots share no chirality, so a demon may hand a robot a
mirrored frame). Rotations are parameterized by a unit pair (c, s) with
c² + s² = 1 rather than an angle, so the exact backend can use rational
rotations built from Pythagorean triples.

On the exact backend a similarity also carries an integer form
(A, B, TX, TY, D) over one common denominator D > 0: A/D = zoom·c,
B/D = zoom·s and (TX/D, TY/D) is the translation. ``apply`` evaluates one
integer expression per coordinate and builds one ``Fraction`` from it,
instead of about ten ``Fraction`` operations per point. ``linear_form``
keeps (A, B, D) on a ``FrameParams``, so a shared frame pays for it once,
and a frame from ``make_frame`` derives its translation, over D·xd·yd with
the robot's denominators, on first read: a robot that sees only its own
tower derives none. The form need not be in lowest terms, because every
point that leaves ``apply`` or ``preimage`` is a normalized ``Fraction``;
``preimage`` maps a point back with one integer expression, and no inverse
frame. A ``Similarity`` built directly (an inverse, say), or on floats, has
no integer form and maps by the generic formula, exact on ``Fraction``s too.

A frame made for a robot sends that robot's own tower to the origin with no
arithmetic (the identity that defines ``make_frame``), and a robot whose
destination is its own origin stays exactly where it is (``model.round``),
on both backends. On the exact backend ``map_multiset`` finds the own tower
by identity, with no ``Fraction`` comparison; an equal but distinct key goes
through ``apply``, whose integer form sends it to exactly (0, 0).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from .scalars import EXACT, FLOAT64, Backend, Point, Scalar

if TYPE_CHECKING:  # pragma: no cover
    from .model import FrameParams, Spectrum

_set = object.__setattr__  # fills a frozen object's slot on first use
_params = attrgetter("zoom", "c", "s", "reflect", "tx", "ty")  # what Similarity equality compares


class InvalidFrame(Exception):
    """Rejected frame parameters: non-positive zoom or non-unit rotation."""


@dataclass(frozen=True, slots=True, eq=False)
class Similarity:
    """f(p) = zoom · M · p + translation, where M is the rotation (c, -s; s, c)
    composed with reflection across the x-axis when ``reflect`` is set.

    zoom > 0, c² + s² = 1; distances scale by zoom²:
    dist_sq(f p, f q) = zoom² · dist_sq(p, q).

    ``ints`` is the integer form (A, B, TX, TY, D) of an exact frame from
    ``make_frame``, and ``robot`` the location that frame sends to the
    origin; both are None for a similarity built directly.
    """

    zoom: Scalar
    c: Scalar
    s: Scalar
    reflect: bool
    tx: Scalar
    ty: Scalar
    ints: Optional[tuple[int, int, int, int, int]] = field(default=None, repr=False)
    robot: Optional[Point] = field(default=None, repr=False)

    def __eq__(self, other):
        return isinstance(other, Similarity) and _params(self) == _params(other)

    def __hash__(self):
        return hash(_params(self))


class _ExactFrame(Similarity):
    """An exact frame from ``make_frame``, set up with its ``FrameParams`` and robot only;
    ``__getattr__`` (it slows every read, so no other class has one) derives the rest."""

    __slots__ = ("fp",)

    def __getattr__(self, name: str):
        if name == "ints":
            value = _with_translation(self.fp.form, self.reflect, self.robot)
        elif name in ("tx", "ty"):
            _, _, txn, tyn, den = self.ints
            value = Fraction(txn if name == "tx" else tyn, den)
        elif name in ("zoom", "c", "s", "reflect"):
            value = getattr(self.fp, name)
        else:
            raise AttributeError(name)
        _set(self, name, value)
        return value


def _image(a: int, b: int, tx: int, ty: int, d: int, reflect: bool, p: Point) -> Point:
    """((A·x − B·y + TX)/D, (B·x + A·y + TY)/D), y negated first when
    reflecting, over the common denominator D·xd·yd of the point."""
    x, y = p
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    if reflect:
        yn = -yn
    u, v, w = xn * yd, yn * xd, xd * yd
    return Point(Fraction(a * u - b * v + tx * w, d * w), Fraction(b * u + a * v + ty * w, d * w))


def _linear(zoom: Scalar, c: Scalar, s: Scalar, reflect: bool, p: Point) -> Point:
    """The linear part zoom · M · p (translation not applied)."""
    x, y = p
    if reflect:
        y = -y
    return Point(zoom * (c * x - s * y), zoom * (s * x + c * y))


def apply(f: Similarity, p: Point) -> Point:
    if f.ints is not None:
        return _image(*f.ints, f.reflect, p)
    lx, ly = _linear(f.zoom, f.c, f.s, f.reflect, p)
    return Point(lx + f.tx, ly + f.ty)


def check_params(zoom: Scalar, c: Scalar, s: Scalar, backend: Backend) -> None:
    """Raise InvalidFrame unless zoom > 0 and c² + s² = 1."""
    if not zoom > 0:
        raise InvalidFrame(f"zoom must be positive, got {zoom}")
    if backend.is_exact:
        cd, sd = c.denominator, s.denominator
        unit = (c.numerator * sd) ** 2 + (s.numerator * cd) ** 2 == (cd * sd) ** 2
    else:
        unit = backend.eq(c * c + s * s, backend.scalar(1))
    if not unit:
        raise InvalidFrame(f"(c, s) = ({c}, {s}) is not a unit pair")


def linear_form(fp: "FrameParams", backend: Backend) -> Optional[tuple[int, int, int]]:
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
            _set(fp, "form", form)
    return form


def _with_translation(form: tuple[int, int, int], reflect: bool, robot: Point) -> tuple[int, ...]:
    """The integer form of the frame with (A, B, D) that sends ``robot`` to the
    origin: the translation is minus (A·x − B·y, B·x + A·y)/D, y negated when reflecting."""
    a, b, d = form
    x, y = robot
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    if reflect:
        yn = -yn
    u, v, w = xn * yd, yn * xd, xd * yd
    return a * w, b * w, b * v - a * u, -(b * u + a * v), d * w


def make_frame(robot_loc: Point, fp: "FrameParams", backend: Backend) -> Similarity:
    """Build the frame of a robot at ``robot_loc``: the unique similarity with
    the linear part of ``fp`` mapping the robot to the origin of its own
    frame. An exact frame derives its translation on first read."""
    if not backend.is_exact:
        check_params(fp.zoom, fp.c, fp.s, backend)
        lx, ly = _linear(fp.zoom, fp.c, fp.s, fp.reflect, robot_loc)
        # Translation cancels the same linear expression, so f(robot_loc) is
        # the exact origin (identical rounding).
        return Similarity(fp.zoom, fp.c, fp.s, fp.reflect, -lx, -ly, None, robot_loc)
    linear_form(fp, backend)
    f = object.__new__(_ExactFrame)
    _set(f, "fp", fp)
    _set(f, "robot", robot_loc)
    return f


def inverse(f: Similarity) -> Similarity:
    """The inverse similarity: apply(inverse(f), apply(f, p)) == p.

    The linear part of a reflecting similarity is an involution, so the
    inverse keeps (c, s); a pure rotation inverts to (c, -s).
    """
    zoom_inv = 1 / f.zoom
    if f.reflect:
        c, s = f.c, f.s
    else:
        c, s = f.c, -f.s
    lx, ly = _linear(zoom_inv, c, s, f.reflect, Point(f.tx, f.ty))
    return Similarity(zoom_inv, c, s, f.reflect, -lx, -ly)


def preimage(f: Similarity, q: Point) -> Point:
    """The point p with apply(f, p) == q.

    On the integer form, with N = A² + B², X = D·qx − TX and Y = D·qy − TY,
    the preimage is ((A·X + B·Y)/N, ±(A·Y − B·X)/N), negated in y when
    reflecting: one integer expression per coordinate over the common
    denominator N·qxd·qyd, and no inverse frame. On floats it is
    apply(inverse(f), q).
    """
    if f.ints is None:
        return apply(inverse(f), q)
    a, b, tx, ty, d = f.ints
    x, y = q
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    u = (d * xn - tx * xd) * yd
    v = (d * yn - ty * yd) * xd
    w = (a * a + b * b) * xd * yd
    py = a * v - b * u
    return Point(Fraction(a * u + b * v, w), Fraction(-py if f.reflect else py, w))


def map_multiset(f: Similarity, s: "Spectrum") -> "Spectrum":
    """Apply ``f`` pointwise to a multiset of points, keeping multiplicities
    and key order. The tower at ``f.robot`` maps to the origin with no
    arithmetic: on the exact backend the tower whose key *is* that point,
    on floats any key equal to it, so the own tower is never rounded."""
    robot = f.robot
    if type(f) is _ExactFrame:
        # an exact similarity is injective, so the towers stay distinct and
        # each image is hashed once
        origin = EXACT.origin()
        return Counter({origin if p is robot else apply(f, p): mult for p, mult in s.items()})
    origin = FLOAT64.origin()
    out: Counter = Counter()
    for p, mult in s.items():
        out[origin if p == robot else apply(f, p)] += mult
    return out
