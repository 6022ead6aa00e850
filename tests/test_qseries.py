"""Series engine: arithmetic, builders, the product DSL, and bivariate slicing."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobq.qseries import (
    MAX_PRODUCT_WORK,
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
    euler_product,
    first_divergence,
    parse_product_spec,
    product_from_spec,
    product_work,
)
from frobq.theorems import (
    MAX_JACOBI_WORK,
    PHI2M1_SPEC_TEXT,
    euler_cube,
    jacobi_guard,
    jacobi_triple,
    jacobi_work,
    mod5_numerator_signed,
    mod5_numerator_theta,
)


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
    # one update per coefficient from q^e up, per binomial, per exponent unit
    spec = ProductSpec(tuple(ProductFactor(s, p, min(r, p), x) for s, p, r, x in factors))
    literal = sum(abs(f.exponent) * (order + 1 - e) for f in spec.factors
                  for e in range(f.period - f.residue, order + 1, f.period))
    assert product_work(spec, order) == literal


def test_product_guard_refuses_before_expanding():
    phi2m1 = parse_product_spec(PHI2M1_SPEC_TEXT)
    assert MAX_PRODUCT_WORK >= 20 * product_work(phi2m1, 3000)
    spec = parse_product_spec("-,1,0,-1")
    # work N(N+1)/2: the limit sits between N = 15810 and N = 15811
    assert product_work(spec, 15810) <= MAX_PRODUCT_WORK < product_work(spec, 15811)
    with pytest.raises(ValueError, match="product guard: 125001766 coefficient updates"):
        product_from_spec(spec, 15811)
    with pytest.raises(ValueError, match="product guard"):
        product_from_spec(spec, 10 ** 6, ModRing(5))
    # (q;q) is the DSL product -,1,0,1, with the same work
    with pytest.raises(ValueError, match="product guard: 125001766 coefficient updates"):
        euler_product(15811)


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
    one = BivarSeries.one(3, -2, 2)
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
    # a series holding `rows` as given, cut rows included
    series = BivarSeries(order, zmin, zmax)
    series.rows.update(rows)
    return series


@st.composite
def _bivar_and_factor(draw):
    # a series, a factor, and a live length per row: the full order + 1,
    # or for about half the cases a drawn cut, so that sources shorter and
    # longer than their targets both occur
    order = draw(st.integers(0, 10))
    zmin, zmax = draw(st.integers(-4, 0)), draw(st.integers(0, 4))
    zs = draw(st.lists(st.integers(zmin, zmax), unique=True, max_size=zmax - zmin + 1))
    rows = _rows(draw, order, zs)
    dz = {1: st.integers(0, 3), -1: st.integers(-3, 0), 0: st.just(0)}[
        draw(st.sampled_from([1, -1, 0]))]
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        z = draw(dz)
        terms.append((z, draw(st.integers(0 if z else 1, max(order, 1))), draw(st.integers(-3, 3))))
    cut = draw(st.booleans())
    live = {z: draw(st.integers(1, order + 1)) if cut else order + 1 for z in rows}
    return _with_rows(order, zmin, zmax, rows), terms, live


def _factor_reference(series, terms):
    # the general product with the factor as a series; its own window holds
    # every term, so only the product's window clips
    lo = min(0, *(dz for dz, _, _ in terms))
    hi = max(0, *(dz for dz, _, _ in terms))
    factor = BivarSeries.from_terms(series.order, lo, hi, [(0, 0, 1), *terms])
    return series * factor


def _copy(series):
    rows = {z: list(row) for z, row in series.rows.items()}
    return _with_rows(series.order, series.zmin, series.zmax, rows)


@settings(max_examples=300)
@given(_bivar_and_factor())
def test_apply_factor_matches_general_product(case):
    # on cut rows, row z of the result must keep its length and match the
    # uncut product on the prefix that every source it reads covers
    series, terms, live = case
    reference = _factor_reference(series, terms)
    n = series.order + 1
    series.truncate(lambda z: live.get(z, n))
    series.apply_factor(terms)
    for z, row in series.rows.items():
        exact = min([live.get(z, n)] + [live[z - dz] + dq for dz, dq, _ in terms
                                        if z - dz in live])
        assert len(row) == live.get(z, n)
        assert row[:exact] == reference.rows.get(z, [0] * n)[:exact]
    if all(length == n for length in live.values()):
        assert series == reference
    assert set(series.rows) <= set(range(series.zmin, series.zmax + 1))


def test_short_source_keeps_the_target_length():
    # row 0 is cut to 3 coefficients and feeds row 1 through z q: the
    # update covers q^1..q^3 and leaves q^4, q^5 of row 1 as they were
    series = _with_rows(5, 0, 1, {0: [1, 2, 3], 1: [1, 1, 1, 1, 1, 1]})
    series.apply_factor([(1, 1, 1)])
    assert series.rows == {0: [1, 2, 3], 1: [1, 2, 3, 4, 1, 1]}
    # a short target takes only its own prefix of a long source
    series = _with_rows(5, 0, 1, {0: [1, 1, 1, 1, 1, 1], 1: [5, 5]})
    series.apply_factor([(1, 1, 2)])
    assert series.rows == {0: [1] * 6, 1: [5, 7]}


def test_truncate_cuts_drops_and_shrinks_the_window():
    series = _with_rows(4, -3, 3, {z: [1] * 5 for z in range(-3, 4)})
    series.truncate(lambda z: 5 - 2 * abs(z - 1))
    assert (series.zmin, series.zmax) == (-1, 3)
    assert series.rows == {-1: [1], 0: [1] * 3, 1: [1] * 5, 2: [1] * 3, 3: [1]}
    # every row dead: the rows go and the window stays
    series.truncate(lambda z: 0)
    assert series.rows == {} and (series.zmin, series.zmax) == (-1, 3)


@st.composite
def _chained_rows(draw):
    # rows 0 and dz, both with their first nonzero coefficient at index
    # `first`, and one term c z^dz q^dq whose square lands in the window:
    # a sweep that updates row dz before reading it adds c^2 z^2dz q^2dq
    # times row 0, nonzero at index first + 2dq
    dz = draw(st.sampled_from([1, 2, -1, -2]))
    dq = draw(st.integers(0, 3))
    order = draw(st.integers(2 * dq, 10))
    first = draw(st.integers(0, order - 2 * dq))
    rows = _rows(draw, order, (0, dz), first)
    c = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return _with_rows(order, -4, 4, rows), (dz, dq, c)


@settings(max_examples=100)
@given(_chained_rows())
def test_apply_factor_property_rejects_wrong_sweep(case):
    series, (dz, dq, c) = case
    reference = _factor_reference(series, [(dz, dq, c)])
    right, wrong = _copy(series), _copy(series)
    right._sweep([(dz, dq, c)], descending=dz > 0)
    wrong._sweep([(dz, dq, c)], descending=dz < 0)
    assert right == reference
    assert wrong != reference


@pytest.mark.parametrize("terms", [
    [(1, 1, 1), (-1, 1, 1)],  # mixed z-exponent signs
    [(2, 0, 1), (0, 3, 1), (-1, 2, 1)],
    [(0, 0, 1)],  # would change the constant 1
    [(1, 2, 1), (0, 0, -1)],
])
def test_apply_factor_refusals(terms):
    series = BivarSeries.from_terms(4, -2, 2, [(0, 0, 1), (1, 1, 2), (-1, 0, 3)])
    before = _copy(series)
    with pytest.raises(ValueError):
        series.apply_factor(terms)
    assert series == before


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
    # q^0..q^N, then the q^n and z q^n factors at q^1..q^N
    for order in range(61):
        rows = [m for m in range(-order - 2, order + 2) if _triangle(m) <= order]
        literal = sum(max(0, order + 1 - _triangle(m) - dq)
                      for m in rows
                      for dq in [*range(order + 1), *range(1, order + 1), *range(1, order + 1)])
        assert jacobi_work(order) == literal


def test_jacobi_work_bounds_the_slice_updates(monkeypatch):
    # tally each slice update's length as apply_factor's sweep performs it
    done = []
    sweep = BivarSeries._sweep

    def counting_sweep(self, factor, descending):
        n = self.order + 1
        low = {z: next(i for i, c in enumerate(row) if c) for z, row in self.rows.items()
               if any(row)}
        for dz, dq, _ in factor:
            done.extend(n - low[z] - dq for z in low
                        if self.zmin <= z + dz <= self.zmax and low[z] + dq < n)
        sweep(self, factor, descending)

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
    # sums bound their index the same way, and mod5_numerator_theta gave an
    # isqrt error
    for fn in (jacobi_work, jacobi_guard, jacobi_triple, euler_cube, mod5_numerator_theta,
               mod5_numerator_signed):
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
        for over_z, over_mod in ((a * b, a7 * b7), (a * -3, a7 * -3)):
            assert [c % 7 for c in over_z.coeffs] == list(over_mod.coeffs)
