"""gl2kisin: exact mod-p combinatorics of GL2 Frobenius modules.

Finite fields, Laurent polynomials, weight/Weyl-element bookkeeping, shape and
gauge classification of 2x2 Frobenius matrices, a tangent-space injectivity
solver over F_p, and Jordan-Holder structure of the associated principal
representations.
"""

from .errors import ConfigError, InternalCheckError, PreconditionError
from .fields import GF, FiniteField, FieldElement
from .laurent import Laurent, phi_twist, series_div, series_inverse
from .matrices import Mat2, monomial_matrix
from .weights import (
    SerreWeightLabel,
    adm_name,
    adm_set,
    classify_weight,
    make_label,
    star,
    t_lambda,
)
from .rho import (
    RhoBar,
    inertia_exponents,
    serre_weights,
    tau_presentation,
    theta,
    x_rho,
    x_sigma,
)
from .kisin import (
    Shape,
    etale_matrices,
    gauge_check,
    height_check,
    iwahori_check,
    kisin_matrices,
    shape_of,
    torus_rigidity_dims,
    verify_recovery,
)
from .oracles import coset_certify
from .tangent import assemble_system, residual_check, solve_claim, stability_check
from .d0 import d0_checks, jh_component, serre_weight_dim, socle_profile

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "PreconditionError",
    "InternalCheckError",
    "GF",
    "FiniteField",
    "FieldElement",
    "Laurent",
    "phi_twist",
    "series_inverse",
    "series_div",
    "Mat2",
    "monomial_matrix",
    "SerreWeightLabel",
    "adm_name",
    "adm_set",
    "classify_weight",
    "make_label",
    "star",
    "t_lambda",
    "RhoBar",
    "inertia_exponents",
    "serre_weights",
    "tau_presentation",
    "theta",
    "x_rho",
    "x_sigma",
    "Shape",
    "etale_matrices",
    "gauge_check",
    "height_check",
    "iwahori_check",
    "kisin_matrices",
    "shape_of",
    "torus_rigidity_dims",
    "verify_recovery",
    "coset_certify",
    "assemble_system",
    "residual_check",
    "solve_claim",
    "stability_check",
    "d0_checks",
    "jh_component",
    "serre_weight_dim",
    "socle_profile",
]
