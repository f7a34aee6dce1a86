"""Similarities of the plane: the changes of frame a demon may impose.

A similarity is translation ∘ rotation ∘ uniform scaling, optionally composed
with a reflection (robots share no chirality, so a demon may hand a robot a
mirrored frame). Rotations are parameterized by a unit pair (c, s) with
c² + s² = 1 rather than an angle, so the exact backend can use rational
rotations built from Pythagorean triples.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    """

    zoom: Scalar
    c: Scalar
    s: Scalar
    reflect: bool
    tx: Scalar
    ty: Scalar


def _linear(f: Similarity, p: Point) -> Point:
    """The linear part zoom · M · p (translation not applied)."""
    x, y = p
    if f.reflect:
        y = -y
    return Point(f.zoom * (f.c * x - f.s * y), f.zoom * (f.s * x + f.c * y))


def apply(f: Similarity, p: Point) -> Point:
    lx, ly = _linear(f, p)
    return Point(lx + f.tx, ly + f.ty)


def identity(backend: Backend) -> Similarity:
    one = backend.scalar(1)
    zero = backend.scalar(0)
    return Similarity(one, one, zero, False, zero, zero)


def check_params(zoom: Scalar, c: Scalar, s: Scalar, backend: Backend) -> None:
    """Raise InvalidFrame unless zoom > 0 and c² + s² = 1."""
    if not zoom > 0:
        raise InvalidFrame(f"zoom must be positive, got {zoom}")
    if not backend.eq(c * c + s * s, backend.scalar(1)):
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
    zero = backend.scalar(0)
    f0 = Similarity(zoom, c, s, reflect, zero, zero)
    lx, ly = _linear(f0, robot_loc)
    # Translation cancels the same linear expression, so f(robot_loc) is the
    # exact origin on both backends (identical rounding on floats).
    return Similarity(zoom, c, s, reflect, -lx, -ly)


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
    zero = f.zoom - f.zoom
    g0 = Similarity(zoom_inv, c, s, f.reflect, zero, zero)
    lx, ly = _linear(g0, Point(f.tx, f.ty))
    return Similarity(zoom_inv, c, s, f.reflect, -lx, -ly)


def map_multiset(f: Similarity, s: "Spectrum") -> "Spectrum":
    """Apply ``f`` pointwise to a multiset of points, keeping multiplicities."""
    out: Counter = Counter()
    for p, mult in s.items():
        out[apply(f, p)] += mult
    return out
