"""frobq: exact q-series arithmetic for two-row array counting functions.

Four independent routes to the same coefficient streams (brute-force
enumeration, bivariate product slicing, theta-quotient closed forms, and
infinite-product formulas), plus a congruence verifier/scanner over them.
"""

from .exactring import ZZ, CycInt, ModRing, NotUnitError, cyclotomic_poly, zeta_pow
from .qseries import (
    BivarSeries,
    ProductFactor,
    ProductSpec,
    ProductSpecError,
    RingMismatchError,
    TruncSeries,
    decimal_coefficients,
    euler_cube,
    euler_product,
    extract_progression,
    first_divergence,
    jacobi_triple,
    parse_product_spec,
    product_from_spec,
)
from .frobenius import (
    FrobeniusArray,
    bivar_coefficient_series,
    count_cphi,
    count_phi,
    enumerate_arrays,
)
from .theorems import (
    NonIntegralCoefficientError,
    cphi2m1_product,
    cphi_theta_series,
    phi2m1_product,
    phi_theta_series,
    quad_exponent,
)
from .congruence import (
    CongruenceClaim,
    progression_exponent_check,
    residue_argument_check,
    scan_congruences,
    verify_congruence,
)

__all__ = [
    "ZZ", "CycInt", "ModRing", "NotUnitError", "cyclotomic_poly", "zeta_pow",
    "BivarSeries", "ProductFactor", "ProductSpec", "ProductSpecError", "RingMismatchError",
    "TruncSeries", "decimal_coefficients", "euler_cube", "euler_product",
    "extract_progression", "first_divergence", "jacobi_triple", "parse_product_spec",
    "product_from_spec",
    "FrobeniusArray", "bivar_coefficient_series", "count_cphi", "count_phi", "enumerate_arrays",
    "NonIntegralCoefficientError", "cphi2m1_product", "cphi_theta_series",
    "phi2m1_product", "phi_theta_series", "quad_exponent",
    "CongruenceClaim", "progression_exponent_check", "residue_argument_check",
    "scan_congruences", "verify_congruence",
]
