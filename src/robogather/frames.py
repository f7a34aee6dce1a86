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
A/D = zoom·c and B/D = zoom·s. A shared frame pays for it once. ``apply``
works out p − center on the two points' integers and evaluates one integer
expression per coordinate, and ``preimage`` returns center + (zoom·M)⁻¹·q
the same way: one ``Fraction`` per coordinate, instead of about ten
``Fraction`` operations per point. The form need not be in lowest terms,
because every point that leaves ``apply`` or ``preimage`` is a normalized
``Fraction``. A frame whose ``FrameParams`` has no form (on floats, or an
exact frame built directly) maps by the generic formula, exact on
``Fraction``s too. On floats, p − center is taken first, so a nearby
tower's image stays accurate however far the robot is from the origin.

A frame made for a robot sends that robot's own tower to the origin with no
arithmetic, and a robot whose destination is its own origin stays exactly
where it is (``model.round``), on both backends. On the exact backend
``map_multiset`` finds the own tower by identity, with no ``Fraction``
comparison; an equal but distinct key goes through ``apply``, which sends
it to exactly (0, 0).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Optional

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
    fp, (cx, cy), (x, y) = f.fp, f.center, p
    if fp.form is None:
        return _linear(fp, x - cx, y - cy)
    a, b, d = fp.form
    # p − center as (u/du, v/dv), y negated when reflecting
    xd, yd, cxd, cyd = x.denominator, y.denominator, cx.denominator, cy.denominator
    u, du = x.numerator * cxd - cx.numerator * xd, xd * cxd
    v, dv = y.numerator * cyd - cy.numerator * yd, yd * cyd
    if fp.reflect:
        v = -v
    u, v, w = u * dv, v * du, d * du * dv
    return Point(Fraction(a * u - b * v, w), Fraction(b * u + a * v, w))


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


def map_multiset(f: Similarity, s: Counter) -> Counter:
    """Apply ``f`` pointwise to a spectrum, keeping multiplicities and key
    order. The tower at ``f.center`` maps to the origin with no
    arithmetic: on the exact backend the tower whose key *is* that point,
    on floats any key equal to it, so the own tower is never rounded."""
    center = f.center
    if f.fp.form is not None:
        # an exact similarity is injective, so the towers stay distinct and
        # each image is hashed once
        origin = EXACT.origin()
        return Counter({origin if p is center else apply(f, p): mult for p, mult in s.items()})
    origin = FLOAT64.origin()
    out: Counter = Counter()
    for p, mult in s.items():
        out[origin if p == center else apply(f, p)] += mult
    return out
