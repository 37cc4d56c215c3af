"""Numerical bands, collected in one place."""

# lightlike band of a plane, relative to its normal's Euclidean norm^2
EPS_LIGHT = 1e-9
# membership on the unit quadric |<<x,x>>| = 1
EPS_SURF = 1e-9
# clamp band for arccos/arcosh arguments at their domain boundary
EPS_CLAMP = 1e-9
# determinant band (relative to the product of Euclidean norms) below
# which a triangle counts as degenerate
EPS_DEGEN = 1e-9
# Euclidean distance within which two points are equal (or opposite)
_POINT_EQ_TOL = 1e-12

# Default residual bound for the trigonometric-law reports and the CLI.
DEFAULT_RESIDUAL_BOUND = 1e-9
