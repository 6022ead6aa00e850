"""Acceptance battery: one test per shipping criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every expected number here is either trivially forced, taken from a hand
expansion done independently, or recomputed in-test by the enumeration
oracle; the series paths are never used to generate their own expectations.
"""

import time

import pytest

from frobq import cli
from frobq.congruence import residue_argument_check, verify_congruence
from frobq.frobenius import bivar_coefficient_series, count_cphi, count_phi
from frobq.qseries import euler_product
from frobq.theorems import (
    NonIntegralCoefficientError,
    cphi2m1_product,
    cphi_theta_series,
    euler_cube,
    jacobi_triple,
    mod5_numerator_product,
    mod5_numerator_signed,
    mod5_numerator_theta,
    phi2m1_product,
    phi_theta_series,
    psi2_product,
)
from test_teeth import ZETA_PLUS_ONE, plant


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_phi_progression_mod5():
    started = time.perf_counter()
    series = phi2m1_product(204)
    claim = verify_congruence(series, 5, 4, 5)
    elapsed = time.perf_counter() - started
    first_two = (series.coeffs[4], series.coeffs[9])
    oracle = (count_phi(2, -1, 4), count_phi(2, -1, 9))
    ok = (claim.status == "verified" and claim.witnesses == 41
          and first_two == oracle == (10, 90)
          and elapsed < 1.0)
    _report(1, ok, f"phi(5n+4) = 0 mod 5 up to 204, {claim.witnesses} witnesses, "
                   f"first two progression coefficients {first_two}, {elapsed:.3f}s")


def test_criterion_2_cphi_progression_mod5():
    series = cphi2m1_product(204)
    claim = verify_congruence(series, 5, 4, 5)
    ok = claim.status == "verified" and claim.witnesses == 41 and series.coeffs[4] == 50
    _report(2, ok, f"cphi(5n+4) = 0 mod 5 up to 204, {claim.witnesses} witnesses, "
                   f"coefficient at index 4 is {series.coeffs[4]}")


def test_criterion_3_four_way_agreement_repetition():
    started = time.perf_counter()
    theta = phi_theta_series(2, -1, 50)
    product = phi2m1_product(50)
    sliced = bivar_coefficient_series("repetition", 2, -1, 50)
    oracle_ok = all(theta.coeffs[n] == count_phi(2, -1, n) for n in range(13))
    elapsed = time.perf_counter() - started
    ok = (theta == product == sliced and oracle_ok
          and theta.coeffs[:5] == (1, 2, 3, 6, 10)
          and elapsed < 10.0)
    _report(3, ok, f"theta = product = bivariate on 0..50, = oracle on 0..12, "
                   f"prefix {list(theta.coeffs[:5])}, {elapsed:.2f}s")


def test_criterion_4_four_way_agreement_colored():
    started = time.perf_counter()
    theta = cphi_theta_series(2, -1, 50)
    product = cphi2m1_product(50)
    sliced = bivar_coefficient_series("colored", 2, -1, 50)
    oracle_ok = all(theta.coeffs[n] == count_cphi(2, -1, n) for n in range(13))
    elapsed = time.perf_counter() - started
    ok = (theta == product == sliced and oracle_ok
          and theta.coeffs[:5] == (2, 4, 12, 24, 50)
          and elapsed < 10.0)
    _report(4, ok, f"theta = product = bivariate on 0..50, = oracle on 0..12, "
                   f"prefix {list(theta.coeffs[:5])}, {elapsed:.2f}s")


def test_criterion_5_theta_vs_oracle_grid():
    started = time.perf_counter()
    mismatches = []
    for k in (1, 2, 3):
        for alpha in range(-2, 3):
            rep = phi_theta_series(k, alpha, 10)
            col = cphi_theta_series(k, alpha, 10)
            for n in range(11):
                if rep.coeffs[n] != count_phi(k, alpha, n):
                    mismatches.append(("repetition", k, alpha, n))
                if col.coeffs[n] != count_cphi(k, alpha, n):
                    mismatches.append(("colored", k, alpha, n))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 60.0
    _report(5, ok, f"k in 1..3, alpha in -2..2, n <= 10, both variants: "
                   f"{len(mismatches)} mismatches, {elapsed:.2f}s")


def test_criterion_6_proof_identity_battery():
    started = time.perf_counter()
    euler = euler_product(100)
    cube_ok = euler_cube(100) == euler * euler * euler
    product_side, theta_side = jacobi_triple(100)
    jacobi_ok = product_side == theta_side
    numerator = mod5_numerator_product(100)
    numerator_ok = numerator == mod5_numerator_theta(100) == mod5_numerator_signed(100)
    psi2_ok = psi2_product(100) == phi2m1_product(100)
    elapsed = time.perf_counter() - started
    ok = cube_ok and jacobi_ok and numerator_ok and psi2_ok and elapsed < 5.0
    _report(6, ok, f"at N=100: euler cube {cube_ok}, triple product {jacobi_ok}, "
                   f"mod-5 numerator {numerator_ok}, psi2 {psi2_ok}, {elapsed:.2f}s")


def test_criterion_7_residue_argument():
    pairs = residue_argument_check(1, 2, 5)
    ok = pairs == [(0, 0)]
    _report(7, ok, f"x^2 + 2y^2 = 0 mod 5 over all 25 pairs: solutions {pairs}")


def test_criterion_8_scanner_discovery(capsys):
    args = ["scan", "--builtin", "phi2m1", "--N", "204", "--maxA", "8", "--maxM", "7"]
    code1 = cli.main(list(args))
    out1 = capsys.readouterr().out
    code2 = cli.main(list(args))
    out2 = capsys.readouterr().out
    found = '{"A": 5, "B": 4, "M": 5, "status": "verified", "subsumed": false, "verified_up_to": 204}'
    ok = code1 == code2 == 0 and out1 == out2 and found in out1
    with capsys.disabled():
        _report(8, ok, "scan emits (A=5, B=4, M=5) verified; byte-identical across runs")


def test_criterion_9_integrality_detector(monkeypatch):
    clean = True
    try:
        for k in (1, 2, 3):
            for alpha in range(-2, 3):
                phi_theta_series(k, alpha, 10)
    except NonIntegralCoefficientError:
        clean = False
    plant(monkeypatch, *ZETA_PLUS_ONE)
    with pytest.raises(NonIntegralCoefficientError):
        phi_theta_series(2, -1, 10)
    _report(9, clean, "no spurious non-integral coefficients on the grid; "
                      "off-by-one root exponent trips the detector")
