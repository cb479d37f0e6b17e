"""Geometric phases, null phase curves and star decompositions.

A numerical toolkit for triads of pure states: cyclic invariants and
their phases, the six intrinsic angles and canonical reconstructions,
star decompositions with their sphere geometry, and sampled curves with
the null-phase property.
"""

from .config import TAU_DEG, TAU_LEAD, TAU_NPC
from .core import (
    DegenerateTriadError,
    bargmann,
    bi_phase,
    inner,
    normalize,
    principal_angle,
    random_state,
    random_unitary,
    ray_angle,
)
from .angles import (
    CanonicalParamsN2,
    CanonicalParamsN3,
    CoherentTriadParams,
    IntrinsicAngles,
    build_canonical_n2,
    build_canonical_n3,
    extract_angles,
    gauge_transform,
    pancharatnam_phase,
    solve_dependent_coherent,
    solve_dependent_n2,
    solve_dependent_n3,
)
from .majorana import (
    MajoranaRep,
    coefficients_to_roots,
    overlap_general,
    permanent,
    pure_product_state,
    random_su2,
    roots_to_coefficients,
    spin_matrices,
    spinor_to_star,
    star_matching_distance,
    star_to_spinor,
    su2_apply,
    su2_rotation,
    weight_residual,
)
from .curves import (
    CurveFrame,
    CurveLift,
    NpcReport,
    RealProfile,
    connection_integral,
    frame_from_pair,
    generate_npc_profile,
    geodesic_lift,
    in_phase_gauge,
    loop_geometric_phase,
    open_curve_phase,
    profile_to_lift,
    validate_profile,
    verify_npc,
)
from .decompose import (
    CanonicalReduction,
    bi_factorization,
    phase_from_solid_angles_n3,
    reduce_triad,
    solid_angle,
    star_trajectory,
)

__version__ = "0.1.0"
