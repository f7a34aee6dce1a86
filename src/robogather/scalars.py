"""Scalar backends and the plane point type.

All geometric decisions in the package (equality, enclosure, tie breaking)
are routed through a backend object so the same code runs bit-exact on
arbitrary-precision rationals and tolerance-aware on 64-bit floats.

Two backends are provided:

* ``ExactBackend`` -- coordinates are ``fractions.Fraction``; equality is
  decidable equality and every comparison is exact.
* ``FloatBackend`` -- coordinates are binary64 floats; two scalars compare
  equal iff ``|a - b| <= eps_abs + eps_rel * max(|a|, |b|)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, NamedTuple, Union

Scalar = Union[Fraction, float]


class Point(NamedTuple):
    """A location in the plane; equality and hashing are component-wise."""

    x: Scalar
    y: Scalar


# Points and Fractions are immutable, so every caller can share one origin
_EXACT_ORIGIN = Point(Fraction(0), Fraction(0))


@dataclass(frozen=True)
class ExactBackend:
    """Exact rational arithmetic; all comparisons are decidable."""

    name: ClassVar[str] = "exact"
    is_exact: ClassVar[bool] = True

    def scalar(self, value) -> Fraction:
        if isinstance(value, float):
            if not value.is_integer():
                raise TypeError(
                    "exact backend takes ints, Fractions or 'p/q' strings, "
                    f"not non-integral float {value!r}"
                )
            value = int(value)
        return Fraction(value)

    def eq(self, a: Scalar, b: Scalar) -> bool:
        return a == b

    def point(self, x, y) -> Point:
        return Point(self.scalar(x), self.scalar(y))

    def origin(self) -> Point:
        return _EXACT_ORIGIN

    def points_eq(self, p: Point, q: Point) -> bool:
        return p == q

    def parse(self, text) -> Fraction:
        """A coordinate or frame parameter read from a scenario or a trace: a
        'p/q' or decimal string, or a JSON integer, read exactly. A JSON
        boolean is a ValueError, and any other JSON number, integral ones too,
        a TypeError: the JSON reader has already rounded it to a float."""
        if type(text) is str or type(text) is int:
            return Fraction(text)
        if isinstance(text, float):
            raise TypeError(f"exact backend reads 'p/q' strings and JSON integers, not the rounded float {text!r}")
        raise ValueError(f"{text!r} is not a number")


# Largest float magnitude read from input. It keeps 8·zoom²·|coordinate|²
# below the largest float, so no squared distance in a robot's frame overflows.
FLOAT_INPUT_MAX = 1e75

# Smallest float eps_abs + eps_rel: below it, the round-off of a frame change
# (~1e-15 at unit scale) exceeds the tolerance and the local round fails.
FLOAT_EPS_MIN = 1e-12


@dataclass(frozen=True)
class FloatBackend:
    """Binary64 floats with a mixed absolute/relative equality tolerance."""

    eps_abs: float = 1e-9
    eps_rel: float = 1e-9
    name: ClassVar[str] = "floating"
    is_exact: ClassVar[bool] = False

    def scalar(self, value) -> float:
        if isinstance(value, str):
            return float(Fraction(value))
        return float(value)

    def eq(self, a: Scalar, b: Scalar) -> bool:
        return abs(a - b) <= self.eps_abs + self.eps_rel * max(abs(a), abs(b))

    def point(self, x, y) -> Point:
        return Point(self.scalar(x), self.scalar(y))

    def origin(self) -> Point:
        return Point(0.0, 0.0)

    def points_eq(self, p: Point, q: Point) -> bool:
        return self.eq(p.x, q.x) and self.eq(p.y, q.y)

    def parse(self, text) -> float:
        """A coordinate or frame parameter read from a scenario or a trace;
        ValueError unless a finite number (not a JSON boolean) at most
        ``FLOAT_INPUT_MAX`` in magnitude."""
        if isinstance(text, bool):
            raise ValueError(f"{text!r} is not a number")
        try:
            value = self.scalar(text)
        except OverflowError:  # a 'p/q' string beyond the float range
            value = math.inf
        if not abs(value) <= FLOAT_INPUT_MAX:
            raise ValueError(f"{text!r} is not a finite float of magnitude at most {FLOAT_INPUT_MAX:g}")
        return value


Backend = Union[ExactBackend, FloatBackend]

EXACT = ExactBackend()
FLOAT64 = FloatBackend()


def get_backend(name: str, eps_abs: float | None = None, eps_rel: float | None = None) -> Backend:
    """Look up a backend by name ("exact" or "floating"), with optional eps
    overrides; ValueError unless each given tolerance is finite and >= 0 and,
    on floats, eps_abs + eps_rel is at least ``FLOAT_EPS_MIN``."""
    for label, eps in (("eps.abs", eps_abs), ("eps.rel", eps_rel)):
        if eps is not None and not (math.isfinite(eps) and eps >= 0):
            raise ValueError(f"{label} must be finite and at least 0, got {eps!r}")
    if name == "exact":
        return EXACT
    if name == "floating":
        if eps_abs is None and eps_rel is None:
            return FLOAT64
        eps_abs = FLOAT64.eps_abs if eps_abs is None else eps_abs
        eps_rel = FLOAT64.eps_rel if eps_rel is None else eps_rel
        if eps_abs + eps_rel < FLOAT_EPS_MIN:
            raise ValueError(f"eps.abs + eps.rel must be at least {FLOAT_EPS_MIN:g}, got {eps_abs + eps_rel!r}")
        return FloatBackend(eps_abs=eps_abs, eps_rel=eps_rel)
    raise ValueError(f"unknown backend {name!r} (expected 'exact' or 'floating')")
