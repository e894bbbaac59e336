"""Exact rational cone computations for symmetrized moduli of pointed rational curves."""

from .cones import (
    Certificate,
    Cone,
    certify,
    dual_description,
)
from .spaces import (
    BoundaryLabel,
    CurveClass,
    DivisorClass,
    SpaceId,
    boundary_class,
    canonical_label,
    enumerate_boundaries,
    express_in_basis,
    picard_number,
    psi_sum,
    relations_and_basis,
)
from .curves import (
    LinearMap,
    counterexample_ftau,
    curve_ck,
    eff_cone,
    ftau_sum,
    nem_hrep,
    nem_rays_inductive,
    pi_star_map,
)
from .bridge import (
    hyperelliptic_pullback_cone,
    hyperelliptic_pushforward,
    m21_cones,
    m21_pushforward,
    mg1_inequality_family,
    mg1_witnesses,
    pointed_pushforward,
    x71_mori_data,
)

__all__ = [
    "BoundaryLabel",
    "Certificate",
    "Cone",
    "CurveClass",
    "DivisorClass",
    "LinearMap",
    "SpaceId",
    "boundary_class",
    "canonical_label",
    "certify",
    "counterexample_ftau",
    "curve_ck",
    "dual_description",
    "eff_cone",
    "enumerate_boundaries",
    "express_in_basis",
    "ftau_sum",
    "hyperelliptic_pullback_cone",
    "hyperelliptic_pushforward",
    "m21_cones",
    "m21_pushforward",
    "mg1_inequality_family",
    "mg1_witnesses",
    "nem_hrep",
    "nem_rays_inductive",
    "picard_number",
    "pi_star_map",
    "pointed_pushforward",
    "psi_sum",
    "relations_and_basis",
    "x71_mori_data",
]

__version__ = "0.1.0"
