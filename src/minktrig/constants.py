"""Numerical tolerances, collected in one place so tests can tighten or loosen them."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # lightlike band of a plane, relative to its normal's Euclidean norm^2
    eps_light: float = 1e-9
    # membership on the unit quadric |<<x,x>>| = 1
    eps_surf: float = 1e-9
    # clamp band for arccos/arcosh arguments at their domain boundary
    eps_clamp: float = 1e-9
    # determinant band (relative to the product of Euclidean norms) below
    # which a triangle counts as degenerate
    eps_degen: float = 1e-9


DEFAULT_TOL = Tolerances()

# Default residual bound for the trigonometric-law reports and the CLI.
DEFAULT_RESIDUAL_BOUND = 1e-9
