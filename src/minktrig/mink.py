"""Linear algebra of the indefinite product -x1*y1 + x2*y2 + x3*y3 on R^3.

Sign convention: the first coordinate is the time coordinate.  All vectors
are plain triples of floats; 3x3 matrices are numpy arrays.  Components are
not checked for finiteness here: surface_point() and the CLI's parser reject
non-finite input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

J_MATRIX = np.diag([-1.0, 1.0, 1.0])


@dataclass(frozen=True)
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

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])

    @staticmethod
    def from_array(a) -> "MVec3":
        return MVec3(float(a[0]), float(a[1]), float(a[2]))

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


def apply_matrix(m: np.ndarray, x: MVec3) -> MVec3:
    return MVec3.from_array(np.asarray(m) @ x.as_array())


def _rotation_e1(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def random_lorentz(
    rng: np.random.Generator,
    orthochronous: bool = True,
    max_rapidity: float = 3.0,
) -> np.ndarray:
    """Rotation-boost-rotation Lorentz matrix with bounded rapidity; the
    rotations turn the x2-x3 plane and the boost acts in the e1-e2 plane.

    With ``orthochronous`` the (1,1) entry is >= 1, so the forward hyperboloid
    sheet is preserved.
    """
    r1 = _rotation_e1(rng.uniform(0.0, 2.0 * math.pi))
    r2 = _rotation_e1(rng.uniform(0.0, 2.0 * math.pi))
    rapidity = rng.uniform(0.0, max_rapidity)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    m = r1 @ boost @ r2
    if not orthochronous and rng.random() < 0.5:
        m = J_MATRIX @ m
    return m
