"""Default tolerances and step sizes shared across the package.

``Tolerances`` holds the gates a run config may override; the other
constants are fixed.
"""

from dataclasses import dataclass

# Central-difference step: FD_STEP_SCALE * max(1, |x_axis|).
FD_STEP_SCALE = 1e-6

# Step used when differencing derived fields (values that are themselves
# computed, e.g. an inner covariant derivative).
NESTED_FD_STEP = 1e-5

# Agreement required between dual-number and central-difference derivatives.
FD_MATCH_TOL = 1e-5

# Admissibility residual gates: analytically specified curves vs. curves
# produced by the integrator (the latter scaled with step size).
ADMISSIBILITY_TOL = 1e-6
ADMISSIBILITY_TOL_SAMPLED = 1e-3

# Threshold for numerical rank, relative to the largest singular value.
RANK_REL_TOL = 1e-9

# Anchor-homomorphism residual gates per derivative mode.
ANCHOR_HOM_TOL = 1e-8
ANCHOR_HOM_TOL_FD = 1e-4

# Fixed-step RK4 resolution per unit of curve parameter.
TRANSPORT_STEPS_PER_UNIT = 1000

# Base-point continuity required between segments of a piecewise curve.
BASE_CONTINUITY_TOL = 1e-9

# Condition-number bound beyond which a bundle change counts as singular.
COND_LIMIT = 1e12

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class Tolerances:
    """The gates a run config may override under ``tolerances``."""

    admissibility_tol: float = ADMISSIBILITY_TOL
    rank_rel_tol: float = RANK_REL_TOL
    anchor_hom_tol: float = ANCHOR_HOM_TOL
