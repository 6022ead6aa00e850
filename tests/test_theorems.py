"""Closed-form series against the oracle, and the proof-identity battery."""

import itertools

import pytest

from frobq.frobenius import count_cphi, count_phi
from frobq.theorems import (
    MAX_LATTICE_BOX,
    NonIntegralCoefficientError,
    cphi2m1_product,
    cphi_theta_series,
    mod5_numerator_identity,
    mod5_numerator_product,
    mod5_numerator_signed,
    mod5_numerator_theta,
    phi2m1_product,
    phi_theta_series,
    psi2_identity_check,
    quad_exponent,
    quad_exponent_closed,
)


# ---------------------------------------------------------------------------
# the quadratic exponent
# ---------------------------------------------------------------------------

def test_quad_exponent_k2_examples():
    assert quad_exponent(2, -1, (0,)) == 0
    for m in range(-6, 7):
        assert quad_exponent(2, -1, (m,)) == m * m + m


def test_quad_exponent_k3_example():
    # binomial: C(2,2) + C(2,2) + C(-1,2) = 1 + 1 + 1; closed: (2 + 4 + 0)/2
    assert quad_exponent(3, 0, (1, 1)) == 3
    assert quad_exponent_closed(3, 0, (1, 1)) == 3


def test_quad_exponent_length_check():
    with pytest.raises(ValueError):
        quad_exponent(3, 0, (1,))


def test_quad_exponent_closed_form_matches_binomial_form():
    for k in (1, 2, 3, 4):
        for alpha in range(-4, 5):
            for m in itertools.product(range(-6, 7), repeat=k - 1):
                assert quad_exponent(k, alpha, m) == quad_exponent_closed(k, alpha, m)


# ---------------------------------------------------------------------------
# theta-quotient series
# ---------------------------------------------------------------------------

def test_cphi_theta_examples():
    assert cphi_theta_series(2, -1, 2).coeffs == (2, 4, 12)
    assert cphi_theta_series(1, 0, 4).coeffs == (1, 1, 2, 3, 5)


def test_phi_theta_examples():
    assert phi_theta_series(2, -1, 3).coeffs == (1, 2, 3, 6)
    assert phi_theta_series(1, 0, 3).coeffs == (1, 1, 2, 3)
    assert phi_theta_series(2, -1, 0).coeffs == (1,)


def test_theta_series_match_oracle_counts():
    rep = phi_theta_series(2, -1, 12)
    col = cphi_theta_series(2, -1, 12)
    for n in range(13):
        assert rep.coeffs[n] == count_phi(2, -1, n)
        assert col.coeffs[n] == count_cphi(2, -1, n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_theta_series_match_oracle_on_grid(k):
    for alpha in range(-2, 3):
        rep = phi_theta_series(k, alpha, 10)
        col = cphi_theta_series(k, alpha, 10)
        for n in range(11):
            assert rep.coeffs[n] == count_phi(k, alpha, n), (k, alpha, n)
            assert col.coeffs[n] == count_cphi(k, alpha, n), (k, alpha, n)


def test_phi_theta_integrality_detector_fires_on_mutation():
    with pytest.raises(NonIntegralCoefficientError):
        phi_theta_series(2, -1, 10, zeta_exponent_shift=1)


def test_lattice_guard_refuses_oversized_box():
    # k=9, N=60: (2*isqrt(120) + 1)^8 = 21^8 box points
    assert 21 ** 8 > MAX_LATTICE_BOX
    for fn in (phi_theta_series, cphi_theta_series):
        with pytest.raises(ValueError, match="lattice guard"):
            fn(9, 0, 60)
    # the largest box the benchmark walks, k=6 at N=14, is 11^5 points
    assert 11 ** 5 <= MAX_LATTICE_BOX
    series = cphi_theta_series(6, -2, 14)
    assert series.coeffs[:4] == tuple(count_cphi(6, -2, n) for n in range(4))


def test_phi_theta_integrality_holds_on_grid():
    for k in (1, 2, 3):
        for alpha in range(-2, 3):
            phi_theta_series(k, alpha, 10)  # raises on any non-integral coefficient


# ---------------------------------------------------------------------------
# product formulas
# ---------------------------------------------------------------------------

def test_product_prefixes():
    assert phi2m1_product(4).coeffs == (1, 2, 3, 6, 10)
    assert cphi2m1_product(4).coeffs == (2, 4, 12, 24, 50)
    assert phi2m1_product(0).coeffs == (1,)


def test_products_equal_theta_series_to_50():
    assert phi_theta_series(2, -1, 50) == phi2m1_product(50)
    assert cphi_theta_series(2, -1, 50) == cphi2m1_product(50)


def test_progression_slice_of_phi2m1_matches_oracle():
    from frobq.qseries import extract_progression

    picked = extract_progression(phi2m1_product(14), 5, 4)
    assert picked.coeffs == tuple(count_phi(2, -1, n) for n in (4, 9, 14))
    assert picked.coeffs == (10, 90, 525)


# ---------------------------------------------------------------------------
# proof identities
# ---------------------------------------------------------------------------

def test_psi2_identity():
    assert psi2_identity_check(0)
    assert psi2_identity_check(30)
    assert not psi2_identity_check(30, mutated=True)


def test_mod5_numerator_small_coefficients():
    for series in (mod5_numerator_product(6), mod5_numerator_theta(6), mod5_numerator_signed(6)):
        assert series.coeffs[0] == 1
        assert series.coeffs[2] == -2


def test_mod5_numerator_identity_to_100():
    assert mod5_numerator_identity(100)
