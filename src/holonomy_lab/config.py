"""Shared tolerances and run configuration.

``TAU_DEG``, ``TAU_NPC``, ``TAU_LEAD``, ``MAX_QUAD_ERROR`` and
``TAU_PROFILE`` are the library's one degeneracy tolerance, null-phase
tolerance, degree cut, quadrature error bound and profile tolerance;
every function that decides one of these reads it from here, and no
caller overrides it.  The defaults of the settings :class:`RunConfig`
carries live here too; other tolerances (those of ``CurveLift``,
``MajoranaRep`` and more) keep their own.  The CLI builds a
:class:`RunConfig` from an optional JSON file plus the flags of the
command at hand, so batch runs are reproducible from the config alone.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields

# Overlap moduli below TAU_DEG (relative to the norms involved) count as
# degenerate: the phase of the product is no longer numerically meaningful.
TAU_DEG = 1e-12

# Relative imaginary part allowed in three-point invariants along a curve
# before the null-phase check reports a violation.
TAU_NPC = 1e-10

# Polynomial coefficients below TAU_LEAD times the largest coefficient are
# treated as zero when deciding the effective degree of a star polynomial.
TAU_LEAD = 1e-10

# Largest estimated quadrature error the connection integral accepts.
MAX_QUAD_ERROR = 1e-6

# Slack allowed in a real profile's boundary values, norms and dot products.
TAU_PROFILE = 1e-9

DEFAULT_GRID = 257
DEFAULT_SUBGRID = 21


@dataclass(frozen=True)
class RunConfig:
    """Grid sizes, seeding and output file for a batch run."""

    grid: int = DEFAULT_GRID
    subgrid: int = DEFAULT_SUBGRID
    seed: int = 0
    output: str | None = None

    def __post_init__(self) -> None:
        for name in ("grid", "subgrid", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError("output must be a file name")
        if self.grid < 5 or self.grid % 2 == 0:
            # the connection integral runs Simpson's rule over the grid; a
            # grid of 5 estimates its error against the trapezoid rule,
            # since every other sample leaves only 3
            raise ValueError("grid must be odd and at least 5")
        if self.subgrid < 3:
            raise ValueError("subgrid must be at least 3")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**raw)

    def replace(self, **overrides) -> "RunConfig":
        data = asdict(self)
        data.update({k: v for k, v in overrides.items() if v is not None})
        return RunConfig(**data)
