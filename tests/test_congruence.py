"""Congruence verification, scanning, and the finite residue arguments."""

import dataclasses

import pytest

from frobq.congruence import (
    progression_exponent_check,
    residue_argument_check,
    scan_congruences,
    verify_congruence,
)
from frobq.exactring import ZZ, ModRing
from frobq.frobenius import bivar_coefficient_series
from frobq.qseries import TruncSeries
from frobq.theorems import cphi2m1_product, phi2m1_product, phi_theta_series


def test_verify_phi2m1_progression():
    claim = verify_congruence(phi2m1_product(104), 5, 4, 5)
    assert claim.status == "verified"
    assert claim.witnesses == 21
    assert claim.verified_up_to == 104


def test_verify_cphi2m1_progression():
    claim = verify_congruence(cphi2m1_product(104), 5, 4, 5)
    assert claim.status == "verified"
    assert claim.witnesses == 21


def test_verify_reports_first_violation():
    claim = verify_congruence(phi2m1_product(10), 1, 0, 2)
    assert claim.status == "violated"
    assert claim.first_violation == 0  # the constant term is 1


def test_verify_validates_inputs():
    s = phi2m1_product(10)
    with pytest.raises(ValueError):
        verify_congruence(s, 0, 0, 5)
    with pytest.raises(ValueError):
        verify_congruence(s, 5, 5, 5)
    with pytest.raises(ValueError):
        verify_congruence(s, 5, 4, 1)


def test_verify_honours_the_series_ring():
    sevens = [7] * 30
    with pytest.raises(ValueError, match="cannot decide residues mod 7"):
        verify_congruence(TruncSeries(ModRing(5), sevens), 1, 0, 7)
    # mod 35 determines the residues mod 5 and mod 7, so the claims match ZZ
    reduced = TruncSeries(ModRing(35), sevens)
    exact = TruncSeries(ZZ, sevens)
    for modulus, status in ((5, "violated"), (7, "verified")):
        claim = verify_congruence(reduced, 1, 0, modulus)
        assert claim.status == status
        assert claim == verify_congruence(exact, 1, 0, modulus)


def test_claims_are_immutable():
    claim = scan_congruences(TruncSeries.zero(ZZ, 40), 2, 2, min_witnesses=10)[1]
    assert claim.subsumed
    with pytest.raises(dataclasses.FrozenInstanceError):
        claim.subsumed = False


def test_verified_means_every_witness_divisible():
    series = phi2m1_product(60)
    claim = verify_congruence(series, 5, 4, 5)
    witnessed = range(4, 61, 5)
    assert claim.status == "verified"
    assert claim.witnesses == len(witnessed)
    assert all(series.coeffs[i] % 5 == 0 for i in witnessed)


def test_progression_holds_on_all_three_series_paths():
    paths = [
        phi2m1_product(54),
        phi_theta_series(2, -1, 54),
        bivar_coefficient_series("repetition", 2, -1, 54),
    ]
    assert paths[0] == paths[1] == paths[2]
    for series in paths:
        assert verify_congruence(series, 5, 4, 5).status == "verified"


# ---------------------------------------------------------------------------
# scanner
# ---------------------------------------------------------------------------

def test_scan_finds_the_mod5_progression():
    claims = scan_congruences(phi2m1_product(204), 8, 7, min_witnesses=20)
    assert any(c.step == 5 and c.offset == 4 and c.modulus == 5 and c.status == "verified"
               for c in claims)


def test_scan_colored_variant_too():
    claims = scan_congruences(cphi2m1_product(204), 8, 7, min_witnesses=20)
    assert any((c.step, c.offset, c.modulus) == (5, 4, 5) for c in claims)


def test_scan_is_deterministic():
    series = phi2m1_product(204)
    first = [c.to_json_dict() for c in scan_congruences(series, 8, 7)]
    second = [c.to_json_dict() for c in scan_congruences(series, 8, 7)]
    assert first == second


def test_scan_zero_series_reports_everything():
    zero = TruncSeries.zero(ZZ, 120)
    claims = scan_congruences(zero, 3, 3, min_witnesses=10)
    cells = {(c.step, c.offset, c.modulus) for c in claims}
    expected = {(a, b, m) for m in (2, 3) for a in (1, 2, 3) for b in range(a)}
    assert cells == expected


def test_scan_flags_subsumption():
    zero = TruncSeries.zero(ZZ, 120)
    claims = {(c.step, c.offset, c.modulus): c for c in scan_congruences(zero, 4, 2, min_witnesses=10)}
    assert not claims[(1, 0, 2)].subsumed
    assert claims[(2, 0, 2)].subsumed
    assert claims[(2, 1, 2)].subsumed
    assert claims[(4, 3, 2)].subsumed


def test_scan_sorted_by_modulus_step_offset():
    claims = scan_congruences(TruncSeries.zero(ZZ, 120), 3, 3, min_witnesses=10)
    keys = [(c.modulus, c.step, c.offset) for c in claims]
    assert keys == sorted(keys)


def test_scan_insufficient_witnesses():
    with pytest.raises(ValueError, match="insufficient witnesses"):
        scan_congruences(phi2m1_product(30), 8, 5, min_witnesses=20)


def test_scan_composite_moduli_flag():
    zero = TruncSeries.zero(ZZ, 120)
    primes_only = scan_congruences(zero, 1, 9, min_witnesses=10)
    assert {c.modulus for c in primes_only} == {2, 3, 5, 7}
    widened = scan_congruences(zero, 1, 9, min_witnesses=10, primes_only=False)
    assert {c.modulus for c in widened} == set(range(2, 10))


def test_claim_json_shape():
    claim = verify_congruence(phi2m1_product(204), 5, 4, 5)
    assert claim.to_json_dict() == {
        "A": 5, "B": 4, "M": 5,
        "verified_up_to": 204, "status": "verified", "subsumed": False,
    }


# ---------------------------------------------------------------------------
# finite residue arguments
# ---------------------------------------------------------------------------

def test_residue_argument_key_case():
    assert residue_argument_check(1, 2, 5) == [(0, 0)]


def test_residue_argument_mod2():
    assert residue_argument_check(1, 1, 2) == [(0, 0), (1, 1)]


def test_residue_argument_degenerate_b_zero():
    pairs = residue_argument_check(1, 0, 4)
    assert {(0, y) for y in range(4)} <= set(pairs)
    assert {(2, y) for y in range(4)} <= set(pairs)
    assert (1, 0) not in pairs


def test_progression_exponent_check_instances():
    assert progression_exponent_check(5, 4, 5)
    assert progression_exponent_check()  # defaults to the same instance
    assert not progression_exponent_check(5, 3, 5)


def test_ring_guard_survives_an_attempted_relabel():
    # a series keeps the ring it was reduced in: relabelling ModRing(5) as
    # ModRing(7) would let residues mod 5 pass the guard as residues mod 7
    ring = ModRing(5)
    series = TruncSeries(ring, [7, 7, 7])
    with pytest.raises(AttributeError):
        ring.modulus = 7
    assert series.ring == ModRing(5) and series.coeffs == (2, 2, 2)
    with pytest.raises(ValueError, match="cannot decide residues mod 7"):
        verify_congruence(series, 1, 0, 7)
