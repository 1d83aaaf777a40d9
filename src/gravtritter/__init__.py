"""Gravitational redshift as a mode-mixing unitary on photon wavepackets."""

__version__ = "0.1.0"

from .errors import (
    DegeneracyError,
    DomainError,
    GravTritterError,
    InconsistencyError,
)
from .fock import (
    FockState,
    HomRecord,
    TwoModeDensityMatrix,
    evolve_two_photon,
    hom_coefficient,
    hom_record,
    negativity,
    negativity_lower_bound,
    partial_transpose,
    trace_out_third,
)
from .geometry import (
    StaticSchwarzschildConfig,
    schwarzschild_chi,
    weak_field_chi,
)
from .modes import (
    CombProfile,
    GaussianProfile,
    ModeProfile,
    TabulatedProfile,
    inner_product,
    make_comb,
    orthonormalize_pair,
    profile_from_json,
    redshift_transform,
)
from .search import HomRoot, SweepRow, SweepSpec, find_hom, sweep_chi
from .tritter import (
    OverlapRecord,
    TritterAngles,
    angles_from_overlaps,
    build_tritter,
    nogo_normalization,
    tritter_from_modes,
)

__all__ = [
    "__version__",
    "CombProfile",
    "DegeneracyError",
    "DomainError",
    "FockState",
    "GaussianProfile",
    "GravTritterError",
    "HomRecord",
    "HomRoot",
    "InconsistencyError",
    "ModeProfile",
    "OverlapRecord",
    "StaticSchwarzschildConfig",
    "SweepRow",
    "SweepSpec",
    "TabulatedProfile",
    "TritterAngles",
    "TwoModeDensityMatrix",
    "angles_from_overlaps",
    "build_tritter",
    "evolve_two_photon",
    "find_hom",
    "hom_coefficient",
    "hom_record",
    "inner_product",
    "make_comb",
    "negativity",
    "negativity_lower_bound",
    "nogo_normalization",
    "orthonormalize_pair",
    "partial_transpose",
    "profile_from_json",
    "redshift_transform",
    "schwarzschild_chi",
    "sweep_chi",
    "trace_out_third",
    "tritter_from_modes",
    "weak_field_chi",
]
