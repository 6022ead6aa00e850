"""frobq: exact q-series arithmetic for two-row array counting functions.

Four independent routes to the same coefficient streams (brute-force
enumeration, bivariate product slicing, theta-quotient closed forms, and
infinite-product formulas), plus a congruence verifier/scanner over them.

`import frobq` loads no submodule.  Each name below, and each submodule,
is loaded on first access (PEP 562) and looked up in its module every time,
so a patched module attribute is what `frobq.<name>` returns.
"""

import importlib

# The two counting variants, shared by `frobenius` and the CLI's parser.
VARIANTS = ("repetition", "colored")

_EXPORTS = {
    "exactring": ("CycInt", "cyclotomic_poly", "zeta_pow"),
    "qseries": (
        "BivarSeries", "ModRing", "NotUnitError", "ProductFactor", "ProductSpec",
        "ProductSpecError", "RingMismatchError", "TruncSeries", "ZZ", "euler_product",
        "first_divergence", "parse_product_spec", "product_from_spec",
    ),
    "frobenius": ("FrobeniusArray", "bivar_coefficient_series", "count_cphi", "count_phi",
                  "enumerate_arrays"),
    "theorems": ("NonIntegralCoefficientError", "cphi2m1_product", "cphi_theta_series",
                 "euler_cube", "jacobi_triple", "phi2m1_product", "phi_theta_series",
                 "quad_exponent"),
    "congruence": ("CongruenceClaim", "progression_exponent_check", "residue_argument_check",
                   "scan_congruences", "verify_congruence"),
}
_SUBMODULES = (*_EXPORTS, "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
