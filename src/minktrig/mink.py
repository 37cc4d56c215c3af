"""Linear algebra of the indefinite product -x1*y1 + x2*y2 + x3*y3 on R^3.

Sign convention: the first coordinate is the time coordinate.  All vectors
are plain triples of floats.  Components are not checked for finiteness
here: surface_point() and the CLI's parser reject non-finite input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class MVec3:
    """A vector of R^3 under the indefinite product.  x1 is the time coordinate."""

    x1: float
    x2: float
    x3: float

    def __add__(self, other: "MVec3") -> "MVec3":
        return MVec3(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "MVec3") -> "MVec3":
        return MVec3(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "MVec3":
        return MVec3(-self.x1, -self.x2, -self.x3)

    def __mul__(self, s: float) -> "MVec3":
        return MVec3(self.x1 * s, self.x2 * s, self.x3 * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "MVec3":
        return MVec3(self.x1 / s, self.x2 / s, self.x3 / s)

    def as_tuple(self) -> tuple:
        return (self.x1, self.x2, self.x3)

    def euclid_norm(self) -> float:
        return math.sqrt(self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3)


E1 = MVec3(1.0, 0.0, 0.0)
E2 = MVec3(0.0, 1.0, 0.0)
E3 = MVec3(0.0, 0.0, 1.0)


def minkowski_product(x: MVec3, y: MVec3) -> float:
    return -x.x1 * y.x1 + x.x2 * y.x2 + x.x3 * y.x3


def minkowski_norm(x: MVec3) -> float:
    return math.sqrt(abs(minkowski_product(x, x)))


def euclid_dot(x: MVec3, y: MVec3) -> float:
    return x.x1 * y.x1 + x.x2 * y.x2 + x.x3 * y.x3


def cross(x: MVec3, y: MVec3) -> MVec3:
    """Euclidean cross product.  J(x cross y) is Minkowski-orthogonal to x and y."""
    return MVec3(
        x.x2 * y.x3 - x.x3 * y.x2,
        x.x3 * y.x1 - x.x1 * y.x3,
        x.x1 * y.x2 - x.x2 * y.x1,
    )
