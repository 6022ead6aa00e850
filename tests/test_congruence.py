"""Congruence verification, scanning, and the finite residue arguments."""

import dataclasses
import re

import pytest

import frobq.congruence as congruence
from frobq.congruence import (
    CongruenceClaim,
    progression_exponent_check,
    residue_argument_check,
    scan_congruences,
    verify_congruence,
)
from frobq.exactring import CycInt, cyclotomic_poly, zeta_pow
from frobq.frobenius import bivar_coefficient_series, count_cphi, count_phi, enumerate_arrays
from frobq.qseries import (
    ZZ,
    BivarSeries,
    ModRing,
    ProductFactor,
    ProductSpecError,
    TruncSeries,
    parse_product_spec,
    product_from_spec,
)
from frobq.theorems import (
    PHI2M1_SPEC_TEXT,
    cphi2m1_product,
    cphi_theta_series,
    phi2m1_product,
    phi_theta_series,
    quad_exponent,
)


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


@pytest.mark.parametrize("call, error", [
    # a float modulus gave a "violated" claim with modulus 5.5
    pytest.param(lambda s: verify_congruence(s, 5, 4, 5.5), TypeError, id="verify-modulus"),
    pytest.param(lambda s: verify_congruence(s, 5.0, 4, 5), TypeError, id="verify-step"),
    pytest.param(lambda s: verify_congruence(s, 5, "4", 5), TypeError, id="verify-offset"),
    # a float bound failed deep inside the scan
    pytest.param(lambda s: scan_congruences(s, 2, 3.0), TypeError, id="scan-max-modulus"),
    pytest.param(lambda s: scan_congruences(s, 2.0, 3), TypeError, id="scan-max-step"),
    pytest.param(lambda s: scan_congruences(s, 2, 3, min_witnesses=1.5), TypeError,
                 id="scan-min-witnesses"),
    # a float step passed the exponent check, a float coefficient the residue one
    pytest.param(lambda s: progression_exponent_check(5.0, 4, 5), TypeError,
                 id="exponent-check-step"),
    pytest.param(lambda s: residue_argument_check(1.5, 2, 5), TypeError, id="residue-check-a"),
    # a float modulus made float coefficients, [1.0, 4.5, 4.5, 0.0, 0.0, 1.0]
    pytest.param(lambda s: product_from_spec(parse_product_spec("-,1,0,1"), 5, ModRing(5.5)),
                 TypeError, id="mod-ring-fraction"),
    pytest.param(lambda s: ModRing(5.0), TypeError, id="mod-ring-float"),
    # a series kept its order as given: a float failed on a slice
    pytest.param(lambda s: TruncSeries(ZZ, [1, 2], 1.0), TypeError, id="series-order"),
    # route 2's kernel keyed a row 0.5, wrote floats, or failed deep inside
    pytest.param(lambda s: BivarSeries.from_terms(3, -1, 1, [(0.5, 0, 1)]), TypeError,
                 id="from-terms-z"),
    pytest.param(lambda s: BivarSeries(3, -1, 1).apply_factor(1, 1.5), TypeError,
                 id="apply-factor-q-exponent"),
    pytest.param(lambda s: BivarSeries(3.0, -1, 1), TypeError, id="bivar-order"),
    pytest.param(lambda s: bivar_coefficient_series("colored", 2.5, -1, 5), TypeError,
                 id="bivar-k"),
    pytest.param(lambda s: quad_exponent(2, -1, [1.5]), TypeError, id="quad-exponent"),
    # route 1 found no array of row difference 5.0, and counted at 0.0 and 100.0
    pytest.param(lambda s: enumerate_arrays("repetition", 1, 5.0, 0), TypeError,
                 id="enumerate-alpha"),
    pytest.param(lambda s: count_cphi(2, 0.0, 0), TypeError, id="count-cphi-alpha"),
    pytest.param(lambda s: count_phi(1, 100.0, 0), TypeError, id="count-phi-alpha"),
    # a coordinate 1.5 came back from as_int; a float order or exponent
    # failed on a sequence repeat
    pytest.param(lambda s: CycInt(3, [1.5]), TypeError, id="cycint-coordinate"),
    pytest.param(lambda s: CycInt(3.0, [1]), TypeError, id="cycint-order"),
    pytest.param(lambda s: zeta_pow(3.0, 1), TypeError, id="zeta-pow-order"),
    pytest.param(lambda s: zeta_pow(3, 1.0), TypeError, id="zeta-pow-exponent"),
    pytest.param(lambda s: cyclotomic_poly(3.0), TypeError, id="cyclotomic-order"),
    # route 3 returned the zero series for a float k or alpha whose lattice
    # is empty, before any integer operation ran
    *(pytest.param(lambda s, f=f, args=args: f(*args), TypeError, id=f"{name}-{arg}")
      for name, f in (("cphi-theta", cphi_theta_series), ("phi-theta", phi_theta_series))
      for arg, args in (("k", (2.0, 1000, 10)), ("alpha", (2, 1000.5, 10)),
                        ("order", (2, 1000, 10.0)))),
])
def test_entry_points_refuse_malformed_numbers(call, error):
    with pytest.raises(error):
        call(phi2m1_product(60))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda s: scan_congruences(s, 0, 5), ValueError, "max_step must be >= 1",
                 id="scan-max-step"),
    pytest.param(lambda s: scan_congruences(s, 2, 1), ValueError, "max_modulus must be >= 2",
                 id="scan-max-modulus"),
    pytest.param(lambda s: scan_congruences(s, 2, 3, min_witnesses=0), ValueError,
                 "min_witnesses must be >= 1", id="scan-min-witnesses"),
    pytest.param(lambda s: progression_exponent_check(0, 4, 5), ValueError,
                 "need step >= 1 and modulus >= 2", id="exponent-check-step"),
    pytest.param(lambda s: residue_argument_check(1, 2, 1), ValueError,
                 "modulus must be >= 2", id="residue-check-modulus"),
    pytest.param(lambda s: zeta_pow(0, 1), ValueError, "order must be >= 1", id="zeta-pow-order"),
    pytest.param(lambda s: bivar_coefficient_series("plain", 2, -1, 5), ValueError,
                 "variant must be one of ('repetition', 'colored')", id="bivar-variant"),
    pytest.param(lambda s: bivar_coefficient_series("colored", 0, -1, 5), ValueError,
                 "k must be >= 1", id="bivar-k"),
    pytest.param(lambda s: bivar_coefficient_series("colored", 2, -1, -1), ValueError,
                 "truncation order must be >= 0", id="bivar-order"),
    pytest.param(lambda s: cphi_theta_series(0, -1, 5), ValueError, "k must be >= 1",
                 id="cphi-theta-k"),
    pytest.param(lambda s: phi_theta_series(0, -1, 5), ValueError, "k must be >= 1",
                 id="phi-theta-k"),
    pytest.param(lambda s: BivarSeries(-1, 0, 1), ValueError, "truncation order must be >= 0",
                 id="bivar-series-order"),
    pytest.param(lambda s: BivarSeries(3, 1, 0), ValueError, "empty z window",
                 id="bivar-series-window"),
    pytest.param(lambda s: TruncSeries(ZZ, []), ValueError,
                 "need coefficients or an explicit order", id="series-empty"),
    pytest.param(lambda s: TruncSeries(ZZ, [1], -1), ValueError,
                 "truncation order must be >= 0", id="series-order"),
    pytest.param(lambda s: product_from_spec(parse_product_spec("-,1,0,1"), -1), ValueError,
                 "truncation order must be >= 0", id="product-order"),
    pytest.param(lambda s: ProductFactor(2, 1, 0, 1).validate(), ProductSpecError,
                 "sign must be + or -", id="factor-sign"),
])
def test_entry_points_refuse_out_of_range_numbers(call, error, message):
    # each refusal names what is wrong, word for word
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(phi2m1_product(20))


def test_a_bool_order_is_read_as_the_int_one():
    # the series kept N=True
    series = product_from_spec(parse_product_spec("-,1,0,-1"), True)
    assert type(series.order) is int and series.order == 1
    # a cyclotomic integer kept order=True
    assert type(CycInt(True, [1]).order) is int and CycInt(True, [1]).order == 1


@pytest.mark.parametrize("order", [0, 3])
def test_verify_refuses_a_claim_without_witnesses(order):
    # 5n+4 <= N has no index below N = 4: a "verified" claim would check nothing
    with pytest.raises(ValueError, match="insufficient witnesses: A=5, B=4 has no index"):
        verify_congruence(phi2m1_product(order), 5, 4, 5)
    assert verify_congruence(phi2m1_product(4), 5, 4, 5).witnesses == 1


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
    # a coarser claim subsumes only through a divisor of the step: 2 does not
    # divide 3, so (3, 0) stands beside (2, 0)
    holes = TruncSeries(ZZ, [int(n % 2 != 0 and n % 3 != 0) for n in range(121)])
    claims = {(c.step, c.offset): c.subsumed for c in scan_congruences(holes, 6, 2, min_witnesses=10)}
    assert claims == {(2, 0): False, (3, 0): False, (4, 0): True, (4, 2): True,
                      (6, 0): True, (6, 2): True, (6, 3): True, (6, 4): True}


def test_scan_sorted_by_modulus_step_offset():
    claims = scan_congruences(TruncSeries.zero(ZZ, 120), 3, 3, min_witnesses=10)
    keys = [(c.modulus, c.step, c.offset) for c in claims]
    assert keys == sorted(keys)


def test_scan_insufficient_witnesses():
    series = phi2m1_product(30)
    # the sparsest cell is A = max_step, B = max_step - 1: indices 7, 15, 23
    with pytest.raises(ValueError, match="A=8, B=7 has 3 indices up to order 30, need 20"):
        scan_congruences(series, 8, 5, min_witnesses=20)
    with pytest.raises(ValueError, match="A=8, B=7 has 3 indices up to order 30, need 4"):
        scan_congruences(series, 8, 5, min_witnesses=4)
    assert scan_congruences(series, 8, 5, min_witnesses=3)


def test_scan_composite_moduli_flag():
    zero = TruncSeries.zero(ZZ, 120)
    primes_only = scan_congruences(zero, 1, 9, min_witnesses=10)
    assert {c.modulus for c in primes_only} == {2, 3, 5, 7}
    widened = scan_congruences(zero, 1, 9, min_witnesses=10, primes_only=False)
    assert {c.modulus for c in widened} == set(range(2, 10))


def _scan_by_verify(series, max_step, max_modulus, primes_only):
    """The scan as one verify_congruence call per (M, A, B), in (M, A, B) order."""
    moduli = [m for m in range(2, max_modulus + 1)
              if not primes_only or all(m % d for d in range(2, m))]
    claims, held = [], set()
    for m in moduli:
        for a in range(1, max_step + 1):
            for b in range(a):
                claim = verify_congruence(series, a, b, m)
                if claim.status != "verified":
                    continue
                held.add((m, a, b))
                subsumed = any((m, d, b % d) in held for d in range(1, a) if a % d == 0)
                claims.append(CongruenceClaim(a, b, m, claim.verified_up_to, "verified",
                                              witnesses=claim.witnesses, subsumed=subsumed))
    return claims


SCAN_CASES = {
    "phi2m1": (lambda: phi2m1_product(204), 12, 12, 17),
    "cphi2m1": (lambda: cphi2m1_product(204), 12, 12, 17),
    "zero": (lambda: TruncSeries.zero(ZZ, 120), 6, 12, 20),
    "holes": (lambda: TruncSeries(ZZ, [int(n % 2 != 0 and n % 3 != 0) for n in range(121)]),
              12, 12, 10),
    "euler": (lambda: product_from_spec(parse_product_spec("-,1,0,1"), 120), 40, 7, 1),
    "mod210": (lambda: product_from_spec(parse_product_spec(PHI2M1_SPEC_TEXT), 204,
                                         ModRing(210)), 12, 7, 17),
}


@pytest.mark.parametrize("primes_only", [True, False])
@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scan_equals_a_verify_congruence_per_claim(case, primes_only):
    make, max_step, max_modulus, min_witnesses = SCAN_CASES[case]
    if case == "mod210" and not primes_only:
        # every modulus tried must divide 210: 4 does not
        max_modulus = 3
    series = make()
    claims = scan_congruences(series, max_step, max_modulus, min_witnesses=min_witnesses,
                              primes_only=primes_only)
    assert claims == _scan_by_verify(series, max_step, max_modulus, primes_only)
    assert any(c.subsumed for c in claims) and any(not c.subsumed for c in claims)


def test_scan_refuses_a_modulus_the_ring_cannot_decide():
    series = TruncSeries(ModRing(10), [n % 10 for n in range(121)])
    # mod 10 decides residues mod 2 and 5 but not mod 3, the first prime after 2
    for max_modulus, primes_only in ((3, True), (7, True), (3, False), (12, False)):
        with pytest.raises(ValueError, match=r"^a ModRing\(10\) series cannot decide "
                                             r"residues mod 3$"):
            scan_congruences(series, 4, max_modulus, min_witnesses=10, primes_only=primes_only)
    assert scan_congruences(series, 4, 2, min_witnesses=10)
    # too few witnesses is refused first, whatever the moduli
    with pytest.raises(ValueError, match="A=20, B=19 has 6 indices up to order 120, need 10"):
        scan_congruences(series, 20, 7, min_witnesses=10)


def test_scan_guard_counts_every_triple_inclusively(monkeypatch):
    zero = TruncSeries.zero(ZZ, 120)
    # (7 - 1) moduli candidates times 8 * 9 / 2 cells: 216 triples
    monkeypatch.setattr(congruence, "MAX_SCAN_TRIPLES", 216)
    assert len(scan_congruences(zero, 8, 7, min_witnesses=10, primes_only=False)) == 216
    with pytest.raises(ValueError, match=r"^scan guard: 252 \(M, A, B\) triples exceed "
                                         r"MAX_SCAN_TRIPLES=216$"):
        scan_congruences(zero, 8, 8, min_witnesses=10)
    with pytest.raises(ValueError, match="scan guard: 225 "):
        scan_congruences(zero, 9, 6, min_witnesses=10)
    monkeypatch.setattr(congruence, "MAX_SCAN_TRIPLES", 215)
    with pytest.raises(ValueError, match="scan guard: 216 "):
        scan_congruences(zero, 8, 7, min_witnesses=10)


@pytest.mark.parametrize("max_step, max_modulus, primes_only, triples", [
    (8, 1_000_000_000, True, 35_999_999_964),
    (20, 3_000_000, False, 629_999_790),
    (20, 300_000, True, 62_999_790),
])
def test_scan_guard_refuses_before_the_sieve(monkeypatch, max_step, max_modulus, primes_only,
                                             triples):
    def no_sieve(n):
        raise AssertionError("the sieve ran")

    monkeypatch.setattr(congruence, "_primes_up_to", no_sieve)
    series = product_from_spec(parse_product_spec("-,1,0,1"), 400)
    with pytest.raises(ValueError, match=f"scan guard: {triples} \\(M, A, B\\) triples exceed "
                                         f"MAX_SCAN_TRIPLES={congruence.MAX_SCAN_TRIPLES}"):
        scan_congruences(series, max_step, max_modulus, primes_only=primes_only)
    # the witness refusal still comes first
    with pytest.raises(ValueError, match="insufficient witnesses"):
        scan_congruences(series, max_step, max_modulus, min_witnesses=51,
                         primes_only=primes_only)


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
