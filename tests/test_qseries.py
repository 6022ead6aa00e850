"""Series engine: arithmetic, builders, the product DSL, and bivariate slicing."""

import random
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobq import qseries
from frobq._packed import Packed
from frobq.qseries import (
    MAX_PRODUCT_WORK,
    MIN_PASS_WORK,
    ZZ,
    BivarSeries,
    ModRing,
    NotUnitError,
    ProductFactor,
    ProductSpec,
    ProductSpecError,
    RingMismatchError,
    TruncSeries,
    _apply_binomial,
    _apply_power,
    _expand_run,
    euler_product,
    first_divergence,
    parse_product_spec,
    product_from_spec,
    product_work,
)
from frobq.theorems import (
    CPHI2M1_SPEC_TEXT,
    MAX_JACOBI_WORK,
    PHI2M1_SPEC_TEXT,
    PSI2_SPEC_TEXT,
    division_work,
    euler_cube,
    jacobi_guard,
    jacobi_triple,
    jacobi_work,
    mod5_numerator_signed,
    mod5_numerator_theta,
)
from test_teeth import REVERSED_SWEEP, edited


# ---------------------------------------------------------------------------
# independent oracles used below
# ---------------------------------------------------------------------------

def _count_partitions(n, max_part=None):
    # plain recursive partition counter, no series machinery
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    return sum(_count_partitions(n - p, p) for p in range(1, min(n, max_part) + 1))


def _pentagonal_coefficients(order):
    # coefficient of q^e in prod (1-q^n) is (-1)^j at e = j(3j-1)/2, else 0
    coeffs = [0] * (order + 1)
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e <= order:
                coeffs[e] += (-1) ** j
        j += 1
    coeffs[0] = 1
    return coeffs


# ---------------------------------------------------------------------------
# core arithmetic
# ---------------------------------------------------------------------------

def test_mul_examples():
    n = 12
    geo = TruncSeries(ZZ, [1] * (n + 1))
    one_minus_q = TruncSeries(ZZ, [1, -1], n)
    assert (one_minus_q * geo) == TruncSeries(ZZ, [1], n)
    one_plus_q = TruncSeries(ZZ, [1, 1], 2)
    assert (one_plus_q * one_plus_q).coeffs == (1, 2, 1)


def test_mul_truncates_to_min_order():
    a = TruncSeries(ZZ, [1, 1, 1, 1])
    b = TruncSeries(ZZ, [1, 2])
    assert (a * b).order == 1


def test_ring_mismatch_rejected():
    a = TruncSeries(ZZ, [1, 2])
    b = TruncSeries(ModRing(5), [1, 2])
    with pytest.raises(RingMismatchError):
        a * b


def test_first_divergence_refuses_series_over_different_rings():
    # the two expansions agree mod 5, yet q^4 was reported, where 5 != 0
    spec = parse_product_spec("-,1,0,-1")
    with pytest.raises(RingMismatchError):
        first_divergence(product_from_spec(spec, 10, ModRing(5)), product_from_spec(spec, 10))


def test_constructor_reduces_through_the_ring():
    # equality and first_divergence must not depend on how a series was built
    series = TruncSeries(ModRing(5), [7, 12])
    assert series.coeffs == (2, 2)
    assert series == TruncSeries(ModRing(5), [2, 2])
    assert first_divergence(series, TruncSeries(ModRing(5), [2, 2])) is None
    for ring in (ZZ, ModRing(5)):
        with pytest.raises(TypeError):
            TruncSeries(ring, [1.5])


def test_inverse_examples():
    inv = TruncSeries(ZZ, [1, -1], 6).inverse()
    assert inv.coeffs == (1,) * 7
    assert TruncSeries(ZZ, [1], 5).inverse() == TruncSeries(ZZ, [1], 5)


def test_inverse_of_euler_counts_partitions():
    # oracle first: brute-force partition counts for n <= 5
    expected = [_count_partitions(n) for n in range(6)]
    assert expected == [1, 1, 2, 3, 5, 7]
    assert list(euler_product(5).inverse().coeffs) == expected


def test_inverse_needs_unit_constant():
    with pytest.raises(NotUnitError):
        TruncSeries(ZZ, [2, 1]).inverse()


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8),
       st.lists(st.integers(-9, 9), min_size=1, max_size=8),
       st.lists(st.integers(-9, 9), min_size=1, max_size=8))
def test_ring_axioms_on_series(xs, ys, zs):
    a = TruncSeries(ZZ, xs)
    b = TruncSeries(ZZ, ys)
    c = TruncSeries(ZZ, zs)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=10),
       st.sampled_from([1, -1]))
def test_inverse_times_self_is_one(tail, unit):
    series = TruncSeries(ZZ, [unit] + tail)
    assert series * series.inverse() == TruncSeries(ZZ, [1], series.order)


def test_inverse_over_mod_ring():
    ring = ModRing(5)
    series = TruncSeries(ring, [3, 1, 4, 1, 2])
    assert series * series.inverse() == TruncSeries(ring, [1], 4)


# ---------------------------------------------------------------------------
# the in-place binomial kernel against dense multiply and inverse
# ---------------------------------------------------------------------------

def _kernel_vs_reference(values, sign, e, ring, divide, kernel_sign):
    """(kernel result, reference result), each a coefficient tuple."""
    series = TruncSeries(ring, values)
    binomial = TruncSeries(ring, [1] + [0] * (e - 1) + [sign], series.order)
    # the kernel leaves ints congruent to the result; the constructor reduces
    coeffs = list(series.coeffs)
    _apply_binomial(coeffs, kernel_sign, e, divide)
    reference = series * (binomial.inverse() if divide else binomial)
    return TruncSeries(ring, coeffs).coeffs, reference.coeffs


# lengths up to 40 and e up to 41 reach both division branches: running
# sums along residue classes (e*e < len) and blocks of e (e*e >= len)
_KERNEL_CASES = dict(
    values=st.lists(st.integers(-30, 30), min_size=1, max_size=40),
    sign=st.sampled_from([1, -1]),
    e=st.integers(1, 41),
    ring=st.sampled_from([ZZ, ModRing(7)]),
    divide=st.booleans(),
)
_THIRTY = list(range(-14, 16))


@settings(max_examples=200)
@given(**_KERNEL_CASES)
@example(values=_THIRTY, sign=1, e=5, ring=ZZ, divide=True)  # 25 < 30: running sums
@example(values=_THIRTY, sign=-1, e=5, ring=ZZ, divide=True)
@example(values=_THIRTY, sign=1, e=6, ring=ZZ, divide=True)  # 36 >= 30: blocks
@example(values=_THIRTY, sign=-1, e=6, ring=ZZ, divide=True)
@example(values=_THIRTY, sign=1, e=2, ring=ModRing(7), divide=True)
@example(values=_THIRTY, sign=-1, e=29, ring=ModRing(7), divide=True)
def test_apply_binomial_matches_dense_reference(values, sign, e, ring, divide):
    kernel, reference = _kernel_vs_reference(values, sign, e, ring, divide, sign)
    assert kernel == reference


@st.composite
def _run_cases(draw):
    # (values, g, powers): up to three powers (sign, e, times) with g
    # dividing each e; the test zeroes the values off the multiples of g
    g = draw(st.sampled_from([1, 2, 3, 4]))
    powers = st.tuples(_KERNEL_CASES["sign"], st.integers(1, 41 // g).map(lambda s: g * s),
                       st.integers(-3, 3).filter(bool))
    return draw(_KERNEL_CASES["values"]), g, draw(st.lists(powers, min_size=1, max_size=3))


@settings(max_examples=300)
@given(case=_run_cases(), ring=_KERNEL_CASES["ring"],
       kernel=st.sampled_from(["by cost", "list", "packed", "until it widens"]))
@example(case=(_THIRTY, 2, [(1, 8, -1)]), ring=ZZ, kernel="list")  # 4^2 >= 15: blocks
@example(case=(_THIRTY, 2, [(1, 6, -1)]), ring=ZZ, kernel="list")  # 3^2 < 15: running sums
@example(case=(_THIRTY, 3, [(-1, 6, -1)]), ring=ModRing(7), kernel="packed")
# one-byte slots that widen during 1/(1 - x)^8, x = q^2: the passes still
# to run, and (1 + x^2)^2, fall back to the list
@example(case=([1] + [0] * 39, 2, [(-1, 2, -8), (1, 4, 2)]), ring=ZZ, kernel="until it widens")
def test_expand_run_matches_dense_reference(case, ring, kernel):
    # a run at stride g, on either kernel or both, is the dense passes, and
    # leaves every coefficient off a multiple of g zero
    values, g, powers = case
    series = TruncSeries(ring, [v if i % g == 0 else 0 for i, v in enumerate(values)])
    coeffs = list(series.coeffs)
    for sign, e, times in powers:
        binomial = TruncSeries(ring, [1] + [0] * (e - 1) + [sign], series.order)
        factor = binomial.inverse() if times < 0 else binomial
        for _ in range(abs(times)):
            series = series * factor
    with _forced(kernel):
        assert _expand_run(coeffs, powers, g) is None
    assert TruncSeries(ring, coeffs) == series
    assert not any(c for i, c in enumerate(coeffs) if i % g)


@st.composite
def _packed_cases(draw):
    # (values, g, e) with g dividing e; the test zeroes the values off the
    # multiples of g
    g = draw(st.sampled_from([1, 2, 3]))
    return draw(_KERNEL_CASES["values"]), g, g * draw(st.integers(1, 41 // g))


@settings(max_examples=300)
@given(case=_packed_cases(), sign=_KERNEL_CASES["sign"], times=st.integers(-3, 3).filter(bool))
@example(case=(_THIRTY, 1, 1), sign=-1, times=-3)  # 3 x 5 steps, at 16-bit slots
@example(case=(_THIRTY, 2, 2), sign=1, times=-3)
@example(case=(_THIRTY, 3, 3), sign=1, times=3)
def test_packed_steps_on_a_stride_match_dense_reference(case, sign, times):
    # the packed int of the digits values[::g] starts at the narrowest slots
    # they allow, so the steps of a power overflow them unless the range
    # check widens them
    values, g, e = case
    values = [v if i % g == 0 else 0 for i, v in enumerate(values)]
    series = TruncSeries(ZZ, values)
    binomial = TruncSeries(ZZ, [1] + [0] * (e - 1) + [sign], series.order)
    factor = binomial.inverse() if times < 0 else binomial
    for _ in range(abs(times)):
        series = series * factor
    packed = Packed(values[::g])
    while times:  # the power stops after a pass that widens the slots
        times = packed.apply(sign, e // g, times)
    assert packed.digits() == list(series.coeffs[::g])


def test_packed_kernel_widens_as_the_digits_grow():
    # 1/(q;q) to q^400 on the packed int alone starts at one byte a slot,
    # and p(400) has 63 bits: the range check must widen the slots on the way
    widths = []
    real_load = Packed._load

    def spy(self, data, nbytes, offset_bytes):
        widths.append(nbytes)
        real_load(self, data, nbytes, offset_bytes)

    with _forced("packed"), mock.patch.object(Packed, "_load", spy):
        got = product_from_spec(parse_product_spec("-,1,0,-1"), 400)
    assert got == TruncSeries(ZZ, _pentagonal_coefficients(400)).inverse()
    assert widths[0] == 1 and widths[-1] >= 9


@pytest.mark.parametrize("text, order, total", [
    # 60 powers of one pass each
    ("-,1,0,-1", 60, 60),
    # one power of 8 passes, 1/(1 - q)^8: it must not finish on the packed
    # int once the slots widen
    ("-,61,60,-8", 60, 8),
])
def test_passes_fall_back_to_the_list_as_the_slots_widen(monkeypatch, text, order, total):
    # a rule that favours the packed int only at one-byte slots: the run
    # starts packed, and once the range check widens the slots every pass
    # still to run falls back to the list
    passes = []

    def spy(state, sign, s, times):
        left = _apply_power(state, sign, s, times)
        passes.append(("list" if type(state) is list else "packed", abs(times) - abs(left)))
        return left

    monkeypatch.setattr(qseries, "_apply_power", spy)
    spec = parse_product_spec(text)
    with _forced("until it widens"):
        got = product_from_spec(spec, order)
    assert got == _repeated_passes(spec, order, ZZ)
    kernels = [kernel for kernel, _ in passes]
    assert kernels[0] == "packed" and kernels[-1] == "list"
    assert kernels == sorted(kernels, reverse=True)  # no pass packed after a list pass
    assert sum(done for _, done in passes) == total


@st.composite
def _acting_factors(draw):
    # (values, e) where the factor can act: a constant term that is a nonzero
    # residue mod 7, and q^e inside the truncation
    values = [draw(st.sampled_from([v for v in range(-30, 31) if v % 7]))]
    values += draw(st.lists(st.integers(-30, 30), min_size=1, max_size=39))
    return values, draw(st.integers(1, len(values) - 1))


@settings(max_examples=100)
@given(case=_acting_factors(), sign=_KERNEL_CASES["sign"], ring=_KERNEL_CASES["ring"],
       divide=_KERNEL_CASES["divide"])
def test_apply_binomial_property_rejects_flipped_sign(case, sign, ring, divide):
    # a kernel applying the opposite sign must fail the property whenever the
    # factor can act
    values, e = case
    kernel, reference = _kernel_vs_reference(values, sign, e, ring, divide, -sign)
    assert kernel != reference


# ---------------------------------------------------------------------------
# classical builders
# ---------------------------------------------------------------------------

def test_euler_product_small():
    assert euler_product(7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)
    assert euler_product(0) == TruncSeries(ZZ, [1], 0)


def test_euler_product_pentagonal_to_200():
    expected = _pentagonal_coefficients(200)
    series = euler_product(200)
    assert list(series.coeffs) == expected
    assert all(c in (-1, 0, 1) for c in series.coeffs)


def test_euler_cube_small():
    assert euler_cube(6).coeffs == (1, -3, 0, 5, 0, 0, -7)
    assert euler_cube(0) == TruncSeries(ZZ, [1], 0)


def test_euler_cube_is_cube_of_euler_product():
    e = euler_product(200)
    assert euler_cube(200) == e * e * e


# ---------------------------------------------------------------------------
# product DSL
# ---------------------------------------------------------------------------

def test_parse_two_factor_spec():
    spec = parse_product_spec("-,2,1,-2; -,12,8,-1")
    assert spec.factors == (ProductFactor(-1, 2, 1, -2), ProductFactor(-1, 12, 8, -1))


def test_parse_rejects_zero_factor():
    with pytest.raises(ProductSpecError):
        parse_product_spec("-,1,1,-1")


def test_parse_allows_constant_plus_factor():
    spec = parse_product_spec("+,2,2,1")
    series = product_from_spec(spec, 2)
    assert series.coeffs[0] == 2  # n=1 gives (1 + q^0) = 2


def test_parse_reports_position():
    with pytest.raises(ProductSpecError) as err:
        parse_product_spec("-,2,1,-2; x,12,8,-1")
    assert err.value.position == 10
    with pytest.raises(ProductSpecError) as err:
        parse_product_spec("-,2,banana,1")
    assert err.value.position == 4


def test_parse_rejects_malformed_factor():
    for text in ("", " ; ", "-,2,1", "-,2,1,-2,-3", "-,0,0,1", "-,2,3,1", "-,2,1,0"):
        with pytest.raises(ProductSpecError):
            parse_product_spec(text)


def test_parse_render_round_trip():
    for text in ("-,2,1,-2; -,12,8,-1; -,12,6,-1; -,12,4,-1; -,12,0,-1",
                 "-,2,0,1; +,2,0,1; +,2,2,1; -,1,0,-2",
                 "+,3,1,2"):
        spec = parse_product_spec(text)
        assert parse_product_spec(spec.render()) == spec


def test_product_from_spec_known_expansions():
    # 1/((1-q)^2 (1-q^3)^2 (1-q^4)) to q^4, expanded by hand
    spec = parse_product_spec("-,2,1,-2; -,12,8,-1; -,12,6,-1; -,12,4,-1; -,12,0,-1")
    assert product_from_spec(spec, 4).coeffs == (1, 2, 3, 6, 10)
    spec = parse_product_spec("-,2,0,1; +,2,0,1; +,2,2,1; -,1,0,-2")
    assert product_from_spec(spec, 2).coeffs == (2, 4, 12)


def test_product_from_spec_empty_is_one():
    assert product_from_spec(ProductSpec(()), 9) == TruncSeries(ZZ, [1], 9)


def test_product_from_spec_mod_ring():
    spec = parse_product_spec("-,1,0,-1")
    ring = ModRing(5)
    series = product_from_spec(spec, 10, ring)
    expected = [_count_partitions(n) % 5 for n in range(11)]
    assert list(series.coeffs) == expected


@settings(max_examples=100)
@given(st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, 9), st.integers(0, 9),
                          st.integers(-3, 3).filter(bool)), min_size=1, max_size=4),
       st.integers(0, 60))
def test_product_work_closed_form_matches_literal_count(factors, order):
    # one update per coefficient from q^e up, and at least MIN_PASS_WORK, per
    # binomial, per exponent unit
    spec = ProductSpec(tuple(ProductFactor(s, p, min(r, p), x) for s, p, r, x in factors))
    literal = sum(abs(f.exponent) * max(order + 1 - e, MIN_PASS_WORK) for f in spec.factors
                  for e in range(f.period - f.residue, order + 1, f.period))
    assert product_work(spec, order) == literal


def test_product_guard_refuses_before_expanding():
    phi2m1 = parse_product_spec(PHI2M1_SPEC_TEXT)
    assert MAX_PRODUCT_WORK >= 20 * product_work(phi2m1, 3000)
    spec = parse_product_spec("-,1,0,-1")
    # work N(N+1)/2, plus 190 for the 19 passes that count MIN_PASS_WORK
    # though they update fewer: the limit sits between N = 15810 and 15811
    assert product_work(spec, 15810) <= MAX_PRODUCT_WORK < product_work(spec, 15811)
    with pytest.raises(ValueError, match="product guard: 125001956 coefficient updates"):
        product_from_spec(spec, 15811)
    with pytest.raises(ValueError, match="product guard"):
        product_from_spec(spec, 10 ** 6, ModRing(5))
    # (q;q) is the DSL product -,1,0,1, with the same work
    with pytest.raises(ValueError, match="product guard: 125001956 coefficient updates"):
        euler_product(15811)


def test_product_guard_counts_the_fixed_cost_of_a_pass(monkeypatch):
    # 1/(1 - q)^E at N = 1 makes E passes of one update each, about 0.8 us
    # a pass: counted as one update a pass, E = 125,000,000 was accepted and
    # would have run for minutes
    spec = parse_product_spec("-,1,0,-125000000")
    assert product_work(spec, 1) == 125_000_000 * MIN_PASS_WORK

    def no_expansion(*args, **kwargs):
        raise AssertionError("expanded before refusing")

    monkeypatch.setattr(qseries, "_apply_power", no_expansion)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="product guard"):
        product_from_spec(spec, 1)
    assert time.perf_counter() - start < 0.1
    # below N = MIN_PASS_WORK, every pass counts MIN_PASS_WORK
    for order in (1, 2, 3):
        largest = MAX_PRODUCT_WORK // (order * MIN_PASS_WORK)
        assert product_work(parse_product_spec(f"-,1,0,-{largest}"), order) <= MAX_PRODUCT_WORK
        assert product_work(parse_product_spec(f"-,1,0,-{largest + 1}"), order) > MAX_PRODUCT_WORK


def test_product_guard_counts_the_length_of_the_result(monkeypatch):
    # one binomial of one update, but N + 1 coefficients to build: counted
    # as 20 updates, N = 3 * 10^7 ran out of a 1 GiB cap and N = 10^9 made
    # 10^9 coefficients.  product_work stays the literal count
    spec = parse_product_spec("+,6250000,0,1")
    assert product_work(spec, 6_250_000) == MIN_PASS_WORK
    assert MIN_PASS_WORK * 6_250_000 == MAX_PRODUCT_WORK

    def no_expansion(*args, **kwargs):
        raise AssertionError("expanded before refusing")

    monkeypatch.setattr(qseries, "_apply_power", no_expansion)
    with pytest.raises(ValueError, match="product guard: 125000020 coefficient updates"):
        product_from_spec(spec, 6_250_000)
    with pytest.raises(ValueError, match="product guard: 20000000020 coefficient updates"):
        product_from_spec(parse_product_spec("+,30000000,0,1"), 10**9)
    # the limit is inclusive: N + 1 = MAX_PRODUCT_WORK / MIN_PASS_WORK
    monkeypatch.undo()
    monkeypatch.setattr(qseries, "MAX_PRODUCT_WORK", 101 * MIN_PASS_WORK)
    assert product_from_spec(parse_product_spec("+,100,0,1"), 100).coeffs[100] == 1
    with pytest.raises(ValueError, match=f"product guard: {102 * MIN_PASS_WORK} "):
        product_from_spec(parse_product_spec("+,100,0,1"), 101)


def _or_not_unit(fn):
    try:
        return fn()
    except NotUnitError:
        return NotUnitError


def _repeated_passes(spec, order, ring):
    # the literal expansion: every binomial |exponent| times, (1 + q^0) = 2
    # included as one scale by 2, or by its inverse, per pass
    coeffs = [1] + [0] * order
    for f in spec.factors:
        for e in range(f.period - f.residue, order + 1, f.period):
            for _ in range(abs(f.exponent)):
                if e:
                    _apply_binomial(coeffs, f.sign, e, divide=f.exponent < 0)
                else:
                    two = ring.from_int(2)
                    scale = ring.invert(two) if f.exponent < 0 else two
                    coeffs = [ring.from_int(c * scale) for c in coeffs]
    return TruncSeries(ring, coeffs, order)


_CONSTANT_RINGS = [ZZ, ModRing(2), ModRing(4), ModRing(5), ModRing(7), ModRing(9)]


@pytest.mark.parametrize("ring", _CONSTANT_RINGS, ids=repr)
def test_constant_factor_scales_once_like_repeated_passes(ring):
    # the constant factor sits between other factors, so it scales a list
    # that is already dense
    for exponent in [e for e in range(-40, 41) if e]:
        spec = parse_product_spec(f"-,1,0,-1; +,3,3,{exponent}; +,2,1,1")
        got = _or_not_unit(lambda: product_from_spec(spec, 12, ring))
        assert got == _or_not_unit(lambda: _repeated_passes(spec, 12, ring)), exponent


@pytest.mark.parametrize("ring", [ZZ, ModRing(2), ModRing(4)], ids=repr)
def test_constant_factor_division_keeps_the_not_unit_message(ring):
    spec = parse_product_spec("-,1,0,-1; +,3,3,-5")
    with pytest.raises(NotUnitError) as repeated:
        _repeated_passes(spec, 6, ring)
    with pytest.raises(NotUnitError) as once:
        product_from_spec(spec, 6, ring)
    assert str(once.value) == str(repeated.value)


@st.composite
def _netting_specs(draw):
    # families from a small pool, so equal binomials (sign, e) recur across
    # families; a family may come with its own inverse, which cancels, or
    # with the inverse of its other-sign twin, which must not
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from([1, -1]))
        period = draw(st.integers(1, 6))
        residue = draw(st.integers(0, period if sign > 0 else period - 1))
        exponent = draw(st.integers(-3, 3).filter(bool))
        factors.append(ProductFactor(sign, period, residue, exponent))
        twin = draw(st.sampled_from(["none", "inverse", "other sign"]))
        if twin == "inverse" or (twin == "other sign" and residue < period):
            factors.append(ProductFactor(sign if twin == "inverse" else -sign, period,
                                         residue, -exponent))
    return ProductSpec(tuple(draw(st.permutations(factors))))


class _PassCounter:
    """The updates of the passes that run through `_apply_power`, on either kernel:
    a pass at x^s on n digits updates those of x^s .. x^(n-1)."""

    def __init__(self):
        self.updates = 0

    def __call__(self, state, sign, s, times):
        left = _apply_power(state, sign, s, times)
        n = len(state) if type(state) is list else state.n
        self.updates += (abs(times) - abs(left)) * (n - s)
        return left


_RULES = {
    "by cost": qseries._packed_saving,
    "packed": lambda *args: float("inf"),
    "list": lambda *args: float("-inf"),
    # the packed int only at one-byte slots: a run that widens them hands
    # the passes it has still to run to the list
    "until it widens": lambda n, s, sign, divide, bits: 10 ** 12 if bits < 16 else -1,
}


def _forced(kernel):
    # the cost rule, or a rule forced to pick the kernel of every pass
    return mock.patch.object(qseries, "_packed_saving", _RULES[kernel])


@settings(max_examples=600, deadline=None)
@given(spec=_netting_specs(), order=st.integers(0, 60), ring=st.sampled_from(_CONSTANT_RINGS),
       kernel=st.sampled_from(["by cost", "packed", "list"]))
@example(spec=parse_product_spec("+,2,0,1; -,2,0,-1"), order=12, ring=ZZ,
         kernel="by cost")  # no cross-sign merge
@example(spec=parse_product_spec("-,3,0,1; -,2,0,1; -,1,0,-1"), order=20, ring=ZZ,
         kernel="packed")  # 3, 2, 1
@example(spec=parse_product_spec("-,2,0,1; +,2,0,1; +,2,2,1; -,1,0,-2"), order=40, ring=ModRing(5),
         kernel="list")
def test_netted_strided_plan_matches_repeated_passes(spec, order, ring, kernel):
    # the plan cancels equal binomials across families and expands on the
    # stride of their common divisor, on the kernel the cost rule picks or
    # on either one forced; the result is the literal expansion,
    # NotUnitError included, and it asks for no more updates than counted
    counter = _PassCounter()
    with mock.patch.object(qseries, "_apply_power", counter), _forced(kernel):
        got = _or_not_unit(lambda: product_from_spec(spec, order, ring))
    assert got == _or_not_unit(lambda: _repeated_passes(spec, order, ring))
    assert counter.updates <= product_work(spec, order)


@pytest.mark.parametrize("text, order, most", [
    # (1 - q^2n), multiplied in once and divided out twice, is divided out
    # once, and the even exponents run on every other coefficient
    (CPHI2M1_SPEC_TEXT, 1200, 0.51),
    # the even exponents run on every other coefficient or fewer
    (PHI2M1_SPEC_TEXT, 1200, 0.83),
    # (1 + q^6n) cancels, and every even exponent runs on stride 2
    (PSI2_SPEC_TEXT, 600, 0.47),
    # nothing nets and the stride is 1
    ("-,1,0,-1", 300, 1),
])
def test_plan_updates_against_the_literal_count(monkeypatch, text, order, most):
    spec = parse_product_spec(text)
    counter = _PassCounter()
    monkeypatch.setattr(qseries, "_apply_power", counter)
    product_from_spec(spec, order)
    assert counter.updates <= most * product_work(spec, order)


@pytest.mark.parametrize("text, order, ring, want", [
    ("+,1,1,400000", 0, ZZ, (2 ** 400000,)),
    # 1/2 = 4 mod 7, and 4^3 = 1 mod 7; e = 4 lies past the order
    ("+,4,4,-400000", 3, ModRing(7), (4, 0, 0, 0)),
])
def test_large_constant_exponent_is_one_step(text, order, ring, want):
    # 400,000 passes took seconds; one scale by 2^|E| takes milliseconds
    start = time.perf_counter()
    series = product_from_spec(parse_product_spec(text), order, ring)
    assert time.perf_counter() - start < 0.5
    assert series.coeffs == want


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_first_divergence():
    a = TruncSeries(ZZ, [1, 2, 3])
    b = TruncSeries(ZZ, [1, 2, 4, 9])
    assert first_divergence(a, b) == 2
    assert first_divergence(a, a) is None


# ---------------------------------------------------------------------------
# bivariate series and the triple product
# ---------------------------------------------------------------------------

def test_bivar_one_and_slice():
    one = BivarSeries.from_terms(3, -2, 2, [(0, 0, 1)])
    assert one.z_slice(0) == TruncSeries(ZZ, [1], 3)
    assert one.z_slice(1) == TruncSeries.zero(ZZ, 3)


def test_bivar_multiplication_clips_window():
    f = BivarSeries.from_terms(4, -1, 1, [(0, 0, 1), (1, 1, 1)])
    # (1 + zq)^3 would reach z^3 but the window stops at z^1
    g = f * f * f
    assert sorted(g.rows) == [0, 1]
    assert g.z_slice(1).coeffs == (0, 3, 0, 0, 0)


def _rows(draw, order, zs, first=None):
    # dense rows with a drawn number of leading zeros (or exactly `first`),
    # so the kernel's start index matters
    rows = {}
    for z in zs:
        lead = draw(st.integers(0, order + 1)) if first is None else first
        values = draw(st.lists(st.integers(-9, 9), min_size=order + 1 - lead,
                               max_size=order + 1 - lead))
        if first is not None:
            values[0] = draw(st.sampled_from([v for v in range(-9, 10) if v]))
        rows[z] = [0] * lead + values
    return rows


def _with_rows(order, zmin, zmax, rows):
    # a series holding `rows` as given
    series = BivarSeries(order, zmin, zmax)
    series.rows.update(rows)
    return series


@st.composite
def _bivar_and_term(draw):
    # a series and one factor term z^dz q^dq, dq past the truncation included
    order = draw(st.integers(0, 10))
    zmin, zmax = draw(st.integers(-4, 0)), draw(st.integers(0, 4))
    zs = draw(st.lists(st.integers(zmin, zmax), unique=True, max_size=zmax - zmin + 1))
    rows = _rows(draw, order, zs)
    dz = draw(st.sampled_from([1, 2, 3, -1, -2, -3]))
    return _with_rows(order, zmin, zmax, rows), (dz, draw(st.integers(0, max(order, 1))))


def _factor_reference(series, dz, dq):
    # the general product with the factor as a series; its own window holds
    # both terms, so only the product's window clips
    factor = BivarSeries.from_terms(series.order, min(0, dz), max(0, dz),
                                    [(0, 0, 1), (dz, dq, 1)])
    return series * factor


def _copy(series):
    rows = {z: list(row) for z, row in series.rows.items()}
    return _with_rows(series.order, series.zmin, series.zmax, rows)


@settings(max_examples=300)
@given(_bivar_and_term())
def test_apply_factor_matches_general_product(case):
    series, (dz, dq) = case
    reference = _factor_reference(series, dz, dq)
    series.apply_factor(dz, dq)
    assert series == reference
    assert set(series.rows) <= set(range(series.zmin, series.zmax + 1))
    assert all(len(row) == series.order + 1 for row in series.rows.values())


@st.composite
def _chained_rows(draw):
    # rows 0 and dz, both with their first nonzero coefficient at index
    # `first`, and one term z^dz q^dq whose square lands in the window: a
    # sweep that updates row dz before reading it adds z^2dz q^2dq times
    # row 0, nonzero at index first + 2dq
    dz = draw(st.sampled_from([1, 2, -1, -2]))
    dq = draw(st.integers(0, 3))
    order = draw(st.integers(2 * dq, 10))
    first = draw(st.integers(0, order - 2 * dq))
    rows = _rows(draw, order, (0, dz), first)
    return _with_rows(order, -4, 4, rows), (dz, dq)


@settings(max_examples=100)
@given(_chained_rows())
def test_apply_factor_property_rejects_wrong_sweep(case):
    series, (dz, dq) = case
    reference = _factor_reference(series, dz, dq)
    right, wrong = _copy(series), _copy(series)
    right._sweep(dz, dq)
    edited(*REVERSED_SWEEP)(wrong, dz, dq)
    assert right == reference
    assert wrong != reference


@pytest.mark.parametrize("terms", [
    (0, -1),  # both refusals at once
    (2, -3),
    (0, 0),  # would change the constant 1
    (-1, -1),
    (0, 3),  # no z-exponent
    (1, -1),  # a negative q-exponent would slice from index -1
    (-2, -2),
])
def test_apply_factor_refusals(terms):
    series = BivarSeries.from_terms(4, -2, 2, [(0, 0, 1), (1, 1, 2), (-1, 0, 3)])
    before = _copy(series)
    with pytest.raises(ValueError):
        series.apply_factor(*terms)
    assert series == before


def test_from_terms_refuses_a_negative_q_exponent():
    with pytest.raises(ValueError, match="q-exponents must be >= 0"):
        BivarSeries.from_terms(4, -2, 2, [(0, 0, 1), (0, -1, 1)])
    # terms past the truncation or outside the window are still dropped
    series = BivarSeries.from_terms(4, -2, 2, [(0, 0, 1), (0, 5, 1), (3, 0, 1)])
    assert series.rows == {0: [1, 0, 0, 0, 0]}


def test_jacobi_triple_basics():
    product, theta = jacobi_triple(12)
    assert product.z_slice(0).coeffs[0] == 1
    assert theta.z_slice(0).coeffs[0] == 1
    assert theta.z_slice(1) == TruncSeries(ZZ, [0, 1], 12)
    # the window is exact: z^4 and z^-5 are the extreme terms, both at q^10
    assert (product.zmin, product.zmax) == (-5, 4)
    for z in (-5, 4):
        assert product.z_slice(z) == theta.z_slice(z) == TruncSeries(ZZ, [0] * 10 + [1], 12)


def test_jacobi_triple_agrees_to_50():
    product, theta = jacobi_triple(50)
    assert product == theta


def _triangle(m):
    return m * (m + 1) // 2


def test_jacobi_work_closed_form_matches_literal_sum():
    # per window row z^m, starting at q^(m(m+1)/2): the z^-1 factors at
    # q^0..q^N, then the z q^n factors at q^1..q^N; 961 and 962 straddle
    # the guard's limit
    for order in [*range(61), 961, 962]:
        rows = [m for m in range(-order - 2, order + 2) if _triangle(m) <= order]
        literal = sum(max(0, order + 1 - _triangle(m) - dq)
                      for m in rows
                      for dq in [*range(order + 1), *range(1, order + 1)])
        assert jacobi_work(order) == literal


def test_jacobi_guard_refuses_a_huge_order_at_once():
    # the count summed about sqrt(2N) terms: 1.4 * 10^9 at N = 10^18
    started = time.perf_counter()
    with pytest.raises(ValueError, match="triple product guard"):
        jacobi_guard(10**18)
    assert time.perf_counter() - started < 0.1


def test_jacobi_work_bounds_the_slice_updates(monkeypatch):
    # tally each slice update's length as apply_factor's sweep performs it
    done = []
    sweep = BivarSeries._sweep

    def counting_sweep(self, dz, dq):
        n = self.order + 1
        low = {z: next(i for i, c in enumerate(row) if c) for z, row in self.rows.items()
               if any(row)}
        done.extend(n - low[z] - dq for z in low
                    if self.zmin <= z + dz <= self.zmax and low[z] + dq < n)
        sweep(self, dz, dq)

    monkeypatch.setattr(BivarSeries, "_sweep", counting_sweep)
    for order in (0, 1, 5, 20, 60):
        done.clear()
        jacobi_triple(order)
        assert sum(done) <= jacobi_work(order)
        if order >= 20:
            assert jacobi_work(order) < 1.3 * sum(done)


def test_jacobi_guard_refuses_before_expanding(monkeypatch):
    assert jacobi_work(961) <= MAX_JACOBI_WORK < jacobi_work(962)
    with pytest.raises(ValueError, match=f"triple product guard: {jacobi_work(962)} "):
        jacobi_triple(962)

    def no_expansion(*args):
        raise AssertionError("expanded before refusing")

    monkeypatch.setattr(BivarSeries, "apply_factor", no_expansion)
    with pytest.raises(ValueError, match="triple product guard"):
        jacobi_triple(5000)


def test_jacobi_work_refuses_a_negative_order():
    # the message jacobi_triple and the verify targets give; the closed-form
    # sums bound their index the same way, and mod5_numerator_theta and
    # division_work gave an isqrt error
    for fn in (jacobi_work, jacobi_guard, jacobi_triple, euler_cube, mod5_numerator_theta,
               mod5_numerator_signed, lambda order: division_work(2, order)):
        with pytest.raises(ValueError, match="^truncation order must be >= 0$"):
            fn(-1)


def test_rng_smoke_mod_series_matches_int_series():
    # reduction commutes with series arithmetic
    rng = random.Random(23)
    ring = ModRing(7)
    for _ in range(50):
        xs = [rng.randrange(-20, 21) for _ in range(8)]
        ys = [rng.randrange(-20, 21) for _ in range(8)]
        a, b = TruncSeries(ZZ, xs), TruncSeries(ZZ, ys)
        a7, b7 = TruncSeries(ring, xs), TruncSeries(ring, ys)
        m, m7 = TruncSeries(ZZ, [-3], 7), TruncSeries(ring, [-3], 7)
        for over_z, over_mod in ((a * b, a7 * b7), (a * m, a7 * m7)):
            assert [c % 7 for c in over_z.coeffs] == list(over_mod.coeffs)
