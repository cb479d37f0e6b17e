"""Shared tolerances and run-setting defaults.

``TAU_DEG``, ``TAU_NPC``, ``TAU_LEAD``, ``MAX_QUAD_ERROR`` and
``TAU_PROFILE`` are the library's one degeneracy tolerance, null-phase
tolerance, degree cut, quadrature error bound and profile tolerance;
every function that decides one of these reads it from here, and no
caller overrides it.  ``DEFAULT_GRID`` and ``DEFAULT_SUBGRID`` are the
default sample counts of a curve grid and of the null-phase check, for
the library and for the CLI's ``--grid`` and ``--subgrid`` alike.  Other
tolerances (those of ``CurveLift``, ``MajoranaRep`` and more) keep their
own.
"""

# Overlap moduli below TAU_DEG (relative to the norms involved) count as
# degenerate: the phase of the product is no longer numerically meaningful.
TAU_DEG = 1e-12

# Relative imaginary part allowed in three-point invariants along a curve
# before the null-phase check reports a violation.
TAU_NPC = 1e-10

# Star-polynomial coefficients whose amplitude is below TAU_LEAD times the
# largest amplitude are treated as zero when deciding the effective degree.
TAU_LEAD = 1e-10

# Largest estimated quadrature error the connection integral accepts.
MAX_QUAD_ERROR = 1e-6

# Slack allowed in a real profile's boundary values, norms and dot products.
TAU_PROFILE = 1e-9

DEFAULT_GRID = 257
DEFAULT_SUBGRID = 21

