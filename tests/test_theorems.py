"""Closed-form series against the oracle, and the proof-identity battery."""

import itertools
import time
from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobq.exactring as exactring
import frobq.theorems as theorems
from frobq.exactring import CycInt, cyclotomic_poly
from frobq.frobenius import bivar_coefficient_series, count_cphi, count_phi
import frobq.qseries as qseries
from frobq.qseries import (
    MAX_PRODUCT_WORK,
    ZZ,
    TruncSeries,
    euler_product,
    parse_product_spec,
    product_work,
)
from frobq.theorems import (
    MAX_DIVISION_WORK,
    MAX_LATTICE_BOX,
    NonIntegralCoefficientError,
    _divide_by_euler,
    _lattice_table,
    _pentagonal_exponents,
    cphi2m1_product,
    cphi_theta_series,
    division_work,
    mod5_numerator_product,
    mod5_numerator_signed,
    mod5_numerator_theta,
    phi2m1_product,
    phi_theta_series,
    PSI2_SPEC_TEXT,
    psi2_product,
    quad_exponent,
)


# ---------------------------------------------------------------------------
# the quadratic exponent
# ---------------------------------------------------------------------------

def test_quad_exponent_k2_examples():
    assert quad_exponent(2, -1, (0,)) == 0
    for m in range(-6, 7):
        assert quad_exponent(2, -1, (m,)) == m * m + m


def test_quad_exponent_k3_example():
    # binomial: C(2,2) + C(2,2) + C(-1,2) = 1 + 1 + 1
    assert quad_exponent(3, 0, (1, 1)) == 3


def test_quad_exponent_length_check():
    with pytest.raises(ValueError):
        quad_exponent(3, 0, (1,))


# ---------------------------------------------------------------------------
# the lattice walk and the pentagonal division
# ---------------------------------------------------------------------------

def _box_histogram(k, alpha, order):
    # reference: every point of the box that bounds the lattice, kept by the
    # binomial form of Q; counts by (Q, zeta exponent mod k+1)
    bound = isqrt(2 * order + abs(alpha))
    hist = Counter()
    for m in itertools.product(range(-bound, bound + 1), repeat=k - 1):
        q = quad_exponent(k, alpha, m)
        if q <= order:
            e = k * alpha + sum((i + 1 - k) * mi for i, mi in enumerate(m))
            hist[q, e % (k + 1)] += 1
    return hist


def _walk_histogram(k, alpha, order):
    table = _lattice_table(k, alpha, order)
    return Counter({divmod(i, k + 1): c for i, c in enumerate(table) if c})


def _colored_numerator(monkeypatch, k, alpha, order):
    # what cphi_theta_series divides by (q;q)^k: the walk's table folded
    # over its exponents below THETA_POWER_FROM_K, the theta power from there
    numerators = []
    monkeypatch.setattr(theorems, "_divide_by_euler",
                        lambda coeffs, times: numerators.append(list(coeffs)))
    series = cphi_theta_series(k, alpha, order)
    return numerators[0] if numerators else list(series.coeffs)


def _box_by_q(hist, order):
    # the box histogram summed over the zeta exponent: one count per Q
    counts = [0] * (order + 1)
    for (q, _), c in hist.items():
        counts[q] += c
    return counts


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_lattice_walk_matches_box(k, monkeypatch):
    # the walk computes Q in closed form, [sum m_i^2 + (S - alpha)^2 + alpha] / 2,
    # and counts by (Q, zeta exponent); the colored numerator sums the exponent away
    for alpha in range(-6, 7):
        for order in (0, 1, 7, 20):
            box = _box_histogram(k, alpha, order)
            assert _walk_histogram(k, alpha, order) == box, (k, alpha, order)
            assert _colored_numerator(monkeypatch, k, alpha, order) == _box_by_q(box, order), \
                (k, alpha, order)


def test_interval_is_the_brute_force_solution_set():
    # the closed form against every m the quadratic can admit, |m| <= sqrt(budget);
    # a negative budget and many (budget, c) pairs give empty intervals
    for free in range(1, 9):
        for budget in range(-5, 201):
            r = isqrt(max(budget, 0))
            for c in range(-40, 41):
                lo, hi = theorems._interval(free, budget, c)
                want = [m for m in range(-r, r + 1) if free * (budget - m * m) >= (c + m) ** 2]
                assert list(range(lo, hi + 1)) == want, (free, budget, c)


def _dense_inverse_of_euler_power(order, k):
    # 1/(q;q)^k over ZZ: the dense inverse of (q;q), multiplied in k times
    inverse = euler_product(order).inverse()
    power = TruncSeries(ZZ, [1], order)
    for _ in range(k):
        power = power * inverse
    return power


@settings(max_examples=100)
@given(values=st.lists(st.integers(-50, 50), min_size=1, max_size=45), times=st.integers(0, 7))
def test_pentagonal_division_matches_dense_inverse(values, times):
    # times 3..7 divide by Jacobi's cube once or twice, with 0, 1 or 2
    # pentagonal divisions after
    order = len(values) - 1
    coeffs = list(values)
    _divide_by_euler(coeffs, times)
    expected = TruncSeries(ZZ, values) * _dense_inverse_of_euler_power(order, times)
    assert tuple(coeffs) == expected.coeffs


def test_split_cost_is_the_least_cost_of_r_integers():
    # every r-tuple from a window wide enough to hold the balanced split
    for r in range(1, 5):
        best = {}
        for m in itertools.product(range(-6, 6), repeat=r):
            cost = sum(mi * (mi + 1) // 2 for mi in m)
            best[sum(m)] = min(best.get(sum(m), cost), cost)
        for t in range(-3 * r, 3 * r):
            assert theorems._split_cost(r, t) == best[t], (r, t)


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_theta_power_matches_the_walk(k):
    cases = [(alpha, order) for alpha in range(-k - 2, 3) for order in (0, 1, 2, 7, 12)]
    if k == 6:
        cases.append((0, 72))  # the largest box the guard accepts at k=6
    for alpha, order in cases:
        table = _lattice_table(k, alpha, order)
        walked = [sum(table[q * (k + 1):(q + 1) * (k + 1)]) for q in range(order + 1)]
        assert theorems._theta_power(k, alpha, order) == walked, (k, alpha, order)


@pytest.mark.parametrize("k, order", [(7, 24), (8, 10)])
def test_colored_theta_reflects_and_shifts(k, order):
    # X_{k,alpha} = X_{k,-k-alpha}, and X_{k,alpha+k} = q^(alpha+k) X_{k,alpha}:
    # m_i -> -1 - m_i and m_i -> m_i + 1 map the lattice onto itself.  Routes
    # 1 and 2 stop at k=6; these orders are the largest the guard accepts at
    # every alpha of the shift
    series = {alpha: cphi_theta_series(k, alpha, order).coeffs for alpha in range(-k - 6, k + 5)}
    for alpha in range(-k - 6, 5):
        assert series[alpha] == series[-k - alpha], alpha
        d = alpha + k
        shifted, base = (alpha + k, alpha) if d >= 0 else (alpha, alpha + k)
        assert series[shifted] == ((0,) * abs(d) + series[base])[:order + 1], alpha


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


def _reduce_mod_cyclotomic(poly, order):
    # remainder of the polynomial in zeta by Phi_order, by long division
    phi = cyclotomic_poly(order)
    deg = len(phi) - 1
    rem = list(poly)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, p in enumerate(phi):
                rem[i - deg + j] -= c * p
    return rem[:deg]


def _first_non_integer_of_dense_quotient(k, alpha, order, table):
    # the detector's answer from a dense reference: each zeta-exponent
    # coordinate of the numerator times the dense inverse of (q;q)^k over
    # ZZ, then each coefficient reduced mod Phi_(k+1) and scanned for the
    # first non-integer one
    width = k + 1
    sign = -1 if alpha % 2 else 1
    inverse = _dense_inverse_of_euler_power(order, k)
    by_exponent = [
        (TruncSeries(ZZ, [sign * table[q * width + e] for q in range(order + 1)]) * inverse).coeffs
        for e in range(width)]
    for i, poly in enumerate(zip(*by_exponent)):
        coords = _reduce_mod_cyclotomic(poly, width)
        if any(coords[1:]):
            return i, CycInt(width, coords)


# widths 3, 4, 5, 6 and 8: at 6, Phi_6 = x^2 - x + 1 mixes the signs of
# the power basis weights that the fold applies
@pytest.mark.parametrize("k, alpha, bump",
                         [(2, -1, 5), (3, 0, 4), (4, 1, 3), (5, -2, 4), (7, -3, 3)])
def test_phi_theta_detector_matches_dense_quotient(monkeypatch, k, alpha, bump):
    # one extra point at zeta^1, later than the first Q: the constant
    # coordinate of the reported value must come from the quotient, not the
    # numerator, and the non-constant ones from the numerator
    order = 12
    table = _lattice_table(k, alpha, order)
    table[bump * (k + 1) + 1] += 1
    monkeypatch.setattr(theorems, "_lattice_table", lambda *args: table)
    with pytest.raises(NonIntegralCoefficientError) as info:
        phi_theta_series(k, alpha, order)
    index, value = _first_non_integer_of_dense_quotient(k, alpha, order, table)
    assert (info.value.index, info.value.value) == (index, value)
    assert index == bump


def test_lattice_guard_refuses_oversized_box():
    # k=9, N=60: (2*isqrt(120) + 1)^8 = 21^8 box points
    assert 21 ** 8 > MAX_LATTICE_BOX
    for fn in (phi_theta_series, cphi_theta_series):
        with pytest.raises(ValueError, match="lattice guard"):
            fn(9, 0, 60)
    # the largest box the benchmark accepts, k=6 at N=14, is 11^5 points;
    # colored k=6 runs the theta power, which the box still bounds
    assert 11 ** 5 <= MAX_LATTICE_BOX
    series = cphi_theta_series(6, -2, 14)
    assert series.coeffs[:4] == tuple(count_cphi(6, -2, n) for n in range(4))


def test_lattice_guard_counts_each_coordinate_as_two_values():
    # at N=0, alpha=0 the box is one point, but the walk recurses once a
    # coordinate: 2^22 <= MAX_LATTICE_BOX < 2^23
    assert cphi_theta_series(23, 0, 0).coeffs == (1,)
    for fn in (phi_theta_series, cphi_theta_series):
        with pytest.raises(ValueError, match=r"lattice guard: box of 2\^23 points"):
            fn(24, 0, 0)
        with pytest.raises(ValueError, match=r"lattice guard: box of 2\^1999 points"):
            fn(2000, 0, 0)


def test_lattice_guard_names_a_huge_box_without_building_it():
    # 3^(10^9 - 1) would take minutes to build; N=0 keeps the division
    # free.  At alpha = -4 the walk's first interval is [-1, 1].
    with pytest.raises(ValueError, match=r"box of 3\^999999999 points"):
        cphi_theta_series(10**9, -4, 0)


@pytest.mark.parametrize("k, alpha, order", [
    (3, 10**8, 10), (5, 600, 10), (5, -605, 10), (10**9, 1, 0), (10**7, 10**9, 1),
    (1, 1000, 20000), (1, -1000, 20000)])
def test_empty_lattice_is_zero_before_any_table(monkeypatch, k, alpha, order):
    # the walk's first interval is empty, so no point has Q <= order; the
    # old box, 2*isqrt(2N+|alpha|)+1 a side, refused each of the first five.
    # At k=1 the one point m = alpha has Q = alpha(alpha+1)/2 > order
    def built(*args):
        raise AssertionError("built a table for an empty lattice")

    monkeypatch.setattr(theorems, "_lattice_table", built)
    monkeypatch.setattr(theorems, "_theta_power", built)
    monkeypatch.setattr(exactring, "_power_basis_rows", built)
    for fn in (phi_theta_series, cphi_theta_series):
        started = time.perf_counter()
        assert fn(k, alpha, order) == TruncSeries.zero(ZZ, order)
        assert time.perf_counter() - started < 0.1


def test_lattice_guard_takes_the_walks_interval():
    # the first interval is [-6, 4], an 11^6 = 1,771,561 point box, where the
    # old one was 15^6 = 11,390,625 and refused
    assert 11 ** 6 <= MAX_LATTICE_BOX < 15 ** 6
    for fn, variant in ((phi_theta_series, "repetition"), (cphi_theta_series, "colored")):
        started = time.perf_counter()
        series = fn(7, -10, 20)
        assert time.perf_counter() - started < 0.5
        assert series == bivar_coefficient_series(variant, 7, -10, 20)


def test_division_work_closed_form_matches_literal_sum():
    for order in range(400):
        odd, even = _pentagonal_exponents(order)
        assert division_work(3, order) == 3 * sum(order + 1 - g for g in odd + even)
    # the updates the division loops make, counted at one order
    odd, even = _pentagonal_exponents(60)
    assert division_work(1, 60) == sum(1 for n in range(1, 61) for g in odd + even if g <= n)
    # one division by Jacobi's cube, j(j+1)/2 for j >= 1, makes fewer than
    # the three pentagonal ones counted for it
    for order in range(400):
        cube = [j * (j + 1) // 2 for j in range(1, order + 1) if j * (j + 1) // 2 <= order]
        assert sum(order + 1 - g for g in cube) <= division_work(3, order)


def test_division_guard_limit_is_inclusive(monkeypatch):
    work = division_work(2, 50)
    monkeypatch.setattr(theorems, "MAX_DIVISION_WORK", work)
    series = cphi_theta_series(2, 0, 50)
    assert series.coeffs[:4] == tuple(count_cphi(2, 0, n) for n in range(4))
    monkeypatch.setattr(theorems, "MAX_DIVISION_WORK", work - 1)
    for fn in (phi_theta_series, cphi_theta_series):
        with pytest.raises(ValueError, match=f"division guard: {work} coefficient updates exceed "
                                             f"MAX_DIVISION_WORK={work - 1}"):
            fn(2, 0, 50)


def test_division_guard_refuses_before_the_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked the lattice before refusing")

    monkeypatch.setattr(theorems, "_lattice_table", no_walk)
    for fn in (phi_theta_series, cphi_theta_series):
        with pytest.raises(ValueError, match="division guard"):
            fn(2, 0, 200_000)
        with pytest.raises(ValueError, match="division guard"):
            fn(1, 0, 10**30)


def test_division_guard_admits_every_size_the_routes_run():
    # the benchmark's theta sizes, and the largest orders the product guard
    # lets cor1 (phi2m1, N=13692) and cor2 (cphi2m1, N=8450) reach
    for k, order in ((2, 800), (3, 400), (2, 13692)):
        assert division_work(k, order) <= MAX_DIVISION_WORK
    phi2m1 = parse_product_spec(theorems.PHI2M1_SPEC_TEXT)
    assert product_work(phi2m1, 13692) <= MAX_PRODUCT_WORK < product_work(phi2m1, 13693)


# ---------------------------------------------------------------------------
# product formulas
# ---------------------------------------------------------------------------

def test_product_prefixes():
    assert phi2m1_product(4).coeffs == (1, 2, 3, 6, 10)
    assert cphi2m1_product(4).coeffs == (2, 4, 12, 24, 50)
    assert phi2m1_product(0).coeffs == (1,)


def test_progression_slice_of_phi2m1_matches_oracle():
    picked = phi2m1_product(14).coeffs[4::5]
    assert picked == tuple(count_phi(2, -1, n) for n in (4, 9, 14))
    assert picked == (10, 90, 525)


# ---------------------------------------------------------------------------
# proof identities
# ---------------------------------------------------------------------------

def test_psi2_guard_refuses_before_expanding(monkeypatch):
    spec = parse_product_spec(PSI2_SPEC_TEXT)
    assert product_work(spec, 8885) <= MAX_PRODUCT_WORK < product_work(spec, 8886)

    def no_expansion(*args, **kwargs):
        raise AssertionError("expanded before refusing")

    monkeypatch.setattr(qseries, "_apply_power", no_expansion)
    with pytest.raises(ValueError, match=f"product guard: {product_work(spec, 8886)} "):
        psi2_product(8886)


def test_mod5_numerator_small_coefficients():
    for series in (mod5_numerator_product(6), mod5_numerator_theta(6), mod5_numerator_signed(6)):
        assert series.coeffs[0] == 1
        assert series.coeffs[2] == -2


def test_mod5_numerator_identity_to_100():
    product = mod5_numerator_product(100)
    assert product == mod5_numerator_theta(100)
    assert product == mod5_numerator_signed(100)
