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
instead of about ten ``Fraction`` operations per point; points keep their
``Fraction`` coordinates, so callers see the same values.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Optional

from .scalars import Backend, Point, Scalar

if TYPE_CHECKING:  # pragma: no cover
    from .model import Spectrum


class InvalidFrame(Exception):
    """Rejected frame parameters: non-positive zoom or non-unit rotation."""


@dataclass(frozen=True)
class Similarity:
    """f(p) = zoom · M · p + translation, where M is the rotation (c, -s; s, c)
    composed with reflection across the x-axis when ``reflect`` is set.

    zoom > 0, c² + s² = 1; distances scale by zoom²:
    dist_sq(f p, f q) = zoom² · dist_sq(p, q).

    ``ints`` is the integer form (A, B, TX, TY, D) when the parameters are
    ``Fraction``s, derived from them on construction, and None on floats.
    """

    zoom: Scalar
    c: Scalar
    s: Scalar
    reflect: bool
    tx: Scalar
    ty: Scalar
    ints: Optional[tuple[int, int, int, int, int]] = field(
        init=False, default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if isinstance(self.zoom, Fraction):
            object.__setattr__(self, "ints", _int_form(self.zoom, self.c, self.s, self.tx, self.ty))


def _int_form(zoom, c, s, tx, ty) -> tuple[int, int, int, int, int]:
    zd, cd, sd = zoom.denominator, c.denominator, s.denominator
    d = lcm(zd * lcm(cd, sd), tx.denominator, ty.denominator)
    return (
        zoom.numerator * c.numerator * (d // (zd * cd)),
        zoom.numerator * s.numerator * (d // (zd * sd)),
        tx.numerator * (d // tx.denominator),
        ty.numerator * (d // ty.denominator),
        d,
    )


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


def identity(backend: Backend) -> Similarity:
    one = backend.scalar(1)
    zero = backend.scalar(0)
    return Similarity(one, one, zero, False, zero, zero)


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


def make_frame(
    robot_loc: Point,
    zoom: Scalar,
    c: Scalar,
    s: Scalar,
    reflect: bool,
    backend: Backend,
) -> Similarity:
    """Build the frame of a robot at ``robot_loc``: the unique similarity with
    the given linear part mapping the robot to the origin of its own frame.
    """
    check_params(zoom, c, s, backend)
    if backend.is_exact:
        # the translation is the image of the robot under the negated linear part
        a, b, _, _, d = _int_form(zoom, c, s, 0, 0)
        tx, ty = _image(-a, -b, 0, 0, d, reflect, robot_loc)
        return Similarity(zoom, c, s, reflect, tx, ty)
    lx, ly = _linear(zoom, c, s, reflect, robot_loc)
    # Translation cancels the same linear expression, so f(robot_loc) is the
    # exact origin (identical rounding).
    return Similarity(zoom, c, s, reflect, -lx, -ly)


def inverse(f: Similarity) -> Similarity:
    """The inverse similarity: apply(inverse(f), apply(f, p)) == p.

    The linear part of a reflecting similarity is an involution, so the
    inverse keeps (c, s); a pure rotation inverts to (c, -s).

    On the integer form, with N = A² + B², the inverse linear part is
    (D/N)·(A, B; −B, A) for a rotation and (D/N)·(A, B; B, −A) for a
    reflection, so the inverse translation −L⁻¹·t is
    (−(A·TX + B·TY), ±(B·TX − A·TY)) / N.
    """
    zoom_inv = 1 / f.zoom
    if f.reflect:
        c, s = f.c, f.s
    else:
        c, s = f.c, -f.s
    if f.ints is not None:
        a, b, tx, ty, _ = f.ints
        n = a * a + b * b
        v = b * tx - a * ty
        tx_inv, ty_inv = Fraction(-(a * tx + b * ty), n), Fraction(-v if f.reflect else v, n)
        return Similarity(zoom_inv, c, s, f.reflect, tx_inv, ty_inv)
    lx, ly = _linear(zoom_inv, c, s, f.reflect, Point(f.tx, f.ty))
    return Similarity(zoom_inv, c, s, f.reflect, -lx, -ly)


def map_multiset(f: Similarity, s: "Spectrum") -> "Spectrum":
    """Apply ``f`` pointwise to a multiset of points, keeping multiplicities."""
    if f.ints is not None:
        # an exact similarity is injective, so the towers stay distinct and
        # each image is hashed once
        return Counter({apply(f, p): mult for p, mult in s.items()})
    out: Counter = Counter()
    for p, mult in s.items():
        out[apply(f, p)] += mult
    return out
