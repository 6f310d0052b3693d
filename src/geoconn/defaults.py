"""Default tolerances and step sizes shared across the package.

Every numeric gate in the library references one of these constants so that
reports can record the exact thresholds a run used.
"""

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


def tolerance_table() -> dict:
    """All defaults as a dict, for embedding into machine-readable reports."""
    return {
        "fd_step_scale": FD_STEP_SCALE,
        "nested_fd_step": NESTED_FD_STEP,
        "fd_match_tol": FD_MATCH_TOL,
        "admissibility_tol": ADMISSIBILITY_TOL,
        "admissibility_tol_sampled": ADMISSIBILITY_TOL_SAMPLED,
        "rank_rel_tol": RANK_REL_TOL,
        "anchor_hom_tol": ANCHOR_HOM_TOL,
        "anchor_hom_tol_fd": ANCHOR_HOM_TOL_FD,
        "transport_steps_per_unit": TRANSPORT_STEPS_PER_UNIT,
        "base_continuity_tol": BASE_CONTINUITY_TOL,
        "cond_limit": COND_LIMIT,
    }
