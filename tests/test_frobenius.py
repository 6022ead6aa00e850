"""Enumeration oracle vs the bivariate product expansion."""

import copy
import dataclasses
import functools
import gc
import itertools
import math
import pickle
import time
import tracemalloc

import pytest

from frobq import VARIANTS, frobenius
from frobq.frobenius import (
    MAX_BIVAR_WORK,
    MAX_ENUM_ARRAYS,
    MAX_ENUM_ROW,
    MAX_ENUM_WEIGHT,
    FrobeniusArray,
    bivar_coefficient_series,
    bivar_work,
    count_cphi,
    count_phi,
    enumerate_arrays,
)
from frobq.qseries import BivarSeries
from test_routes import disagreements
from test_teeth import ROWS, plant


# ---------------------------------------------------------------------------
# enumeration basics, pinned against hand enumerations
# ---------------------------------------------------------------------------

def test_weight_zero_repetition():
    arrays = enumerate_arrays("repetition", 2, -1, 0)
    assert arrays == [FrobeniusArray((), (0,))]


def test_weight_two_repetition():
    arrays = enumerate_arrays("repetition", 2, -1, 2)
    assert set(arrays) == {
        FrobeniusArray((), (2,)),
        FrobeniusArray((1,), (0, 0)),
        FrobeniusArray((0,), (1, 0)),
    }


def test_weight_zero_colored():
    arrays = enumerate_arrays("colored", 2, -1, 0)
    assert set(arrays) == {
        FrobeniusArray((), ((0, 1),)),
        FrobeniusArray((), ((0, 2),)),
    }


def test_weight_three_repetition_hand_list():
    arrays = set(enumerate_arrays("repetition", 2, -1, 3))
    assert arrays == {
        FrobeniusArray((), (3,)),
        FrobeniusArray((2,), (0, 0)),
        FrobeniusArray((1,), (1, 0)),
        FrobeniusArray((0,), (2, 0)),
        FrobeniusArray((0,), (1, 1)),
        FrobeniusArray((0, 0), (1, 0, 0)),
    }


def test_rows_are_nonincreasing_and_bounded():
    for arr in enumerate_arrays("repetition", 2, -1, 6):
        for row in (arr.top, arr.bottom):
            assert list(row) == sorted(row, reverse=True)
            assert all(row.count(v) <= 2 for v in row)
        assert arr.weight == 6
        assert arr.row_difference == -1


def test_colored_rows_canonical_and_distinct():
    for arr in enumerate_arrays("colored", 2, -1, 4):
        for row in (arr.top, arr.bottom):
            assert len(set(row)) == len(row)
            assert list(row) == sorted(row, reverse=True)
            assert all(1 <= c <= 2 for _, c in row)
        assert arr.weight == 4


def test_colored_rows_build_pairs_only_for_values_met():
    # weight 0 has one empty row: no value, so no (value, color) pair at any k
    tracemalloc.start()
    try:
        assert frobenius._colored_rows.__wrapped__(0, 0, 0, 10**6) == ((),)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert enumerate_arrays("colored", 10**6, 0, 0) == [FrobeniusArray((), ())]


def test_enumeration_is_sorted_and_duplicate_free():
    # every case has top rows of several lengths, which interleave in the
    # canonical order: (0,) < (0, 0) < (1,) < (1, 0) ...
    for variant in ("repetition", "colored"):
        for k, alpha, n in ((2, -1, 5), (2, -2, 10), (3, 1, 9), (1, 0, 8)):
            arrays = enumerate_arrays(variant, k, alpha, n)
            keyed = [(a.top, a.bottom) for a in arrays]
            assert keyed == sorted(keyed), (variant, k, alpha, n)
            assert len(set(keyed)) == len(keyed), (variant, k, alpha, n)
            assert len({len(a.top) for a in arrays}) > 1, (variant, k, alpha, n)


def test_enumeration_guard():
    with pytest.raises(ValueError, match="enumeration guard"):
        enumerate_arrays("repetition", 2, -1, MAX_ENUM_WEIGHT + 1)
    with pytest.raises(ValueError):
        enumerate_arrays("striped", 2, -1, 1)
    with pytest.raises(ValueError):
        enumerate_arrays("repetition", 0, -1, 1)
    with pytest.raises(ValueError):
        enumerate_arrays("repetition", 2, -1, -1)


def test_enumeration_guard_refuses_by_count_before_building_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("rows built before the guard refused")

    # 26,447,631 arrays at k=6, weight 12; 9,436,609,944 at weight 20
    assert count_cphi(6, 0, 12) > MAX_ENUM_ARRAYS
    monkeypatch.setattr(frobenius, "_colored_rows", refuse)
    for n in (12, 20):
        with pytest.raises(ValueError, match=f"enumeration guard: {count_cphi(6, 0, n)} arrays"):
            enumerate_arrays("colored", 6, 0, n)


def test_enumeration_guard_limit_is_inclusive(monkeypatch):
    # colored k=2, alpha=-1, weight 2 has 12 arrays
    monkeypatch.setattr(frobenius, "MAX_ENUM_ARRAYS", 12)
    assert len(enumerate_arrays("colored", 2, -1, 2)) == 12
    monkeypatch.setattr(frobenius, "MAX_ENUM_ARRAYS", 11)
    with pytest.raises(ValueError, match="12 arrays exceed MAX_ENUM_ARRAYS=11"):
        enumerate_arrays("colored", 2, -1, 2)
    monkeypatch.setattr(frobenius, "MAX_ENUM_ARRAYS", count_phi(2, -1, 6))
    assert len(enumerate_arrays("repetition", 2, -1, 6)) > 0
    monkeypatch.setattr(frobenius, "MAX_ENUM_ARRAYS", count_phi(2, -1, 6) - 1)
    with pytest.raises(ValueError, match="enumeration guard"):
        enumerate_arrays("repetition", 2, -1, 6)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector switched on or off for the test, and restored after it."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("variant", ["repetition", "colored"])
def test_enumeration_leaves_the_collector_as_it_found_it(collector, variant, monkeypatch):
    assert enumerate_arrays(variant, 2, -1, 7)
    assert gc.isenabled() is collector
    monkeypatch.setattr(frobenius, "MAX_ENUM_ARRAYS", 0)
    with pytest.raises(ValueError, match="enumeration guard"):
        enumerate_arrays(variant, 2, -1, 7)
    assert gc.isenabled() is collector


def test_enumeration_restores_the_collector_when_the_build_raises(collector, monkeypatch):
    seen = []

    def fail(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("row build failed")

    monkeypatch.setattr(frobenius, "_colored_rows", fail)
    with pytest.raises(RuntimeError, match="row build failed"):
        enumerate_arrays("colored", 2, -1, 7)
    # the rows are built with the collector paused, and its state comes back
    assert seen == [False]
    assert gc.isenabled() is collector


def test_row_caches_stay_small_after_a_large_enumeration():
    # the row caches outlive the call, the arrays do not: 800,934 arrays
    # take some 50 MiB, the rows they share about 3.3 MiB
    frobenius._bounded_rows.cache_clear()
    frobenius._colored_rows.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert len(enumerate_arrays("colored", 3, -2, 17)) == 800_934
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert frobenius._colored_rows.cache_info().currsize > 0
    assert held < 16 << 20


@pytest.mark.parametrize("variant, count", [("repetition", count_phi), ("colored", count_cphi)])
@pytest.mark.parametrize("k, n", [(0, 1), (2, -1), (2, MAX_ENUM_WEIGHT + 1)])
def test_counts_refuse_what_enumeration_refuses(variant, count, k, n):
    with pytest.raises(ValueError) as expected:
        enumerate_arrays(variant, k, -1, n)
    with pytest.raises(ValueError) as got:
        count(k, -1, n)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("variant, count", [("repetition", count_phi), ("colored", count_cphi)])
@pytest.mark.parametrize("k, alpha, n", [(10**7, -10**7, 3), (10**6, -999995, 8),
                                         (10**8, -10**8, 3), (1000, -371, 30)])
def test_route_one_refuses_long_rows_at_once(variant, count, k, alpha, n):
    # every row is built and cached: the first call kept 1006 MiB of rows
    # of 10^7 zeros for the life of the process, the second peaked at 1.8 GiB
    row = max(n, min(n - alpha, n + k))
    for call in (count, functools.partial(enumerate_arrays, variant)):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"enumeration guard: rows of up to {row} entries "
                                             f"exceed MAX_ENUM_ROW={MAX_ENUM_ROW}"):
            call(k, alpha, n)
        assert time.perf_counter() - started < 0.1


def test_route_one_row_limit_is_inclusive():
    # weight 0 is one bottom row of -alpha zeros
    assert count_phi(1000, -MAX_ENUM_ROW, 0) == 1
    with pytest.raises(ValueError, match="MAX_ENUM_ROW"):
        count_phi(1000, -MAX_ENUM_ROW - 1, 0)
    # past k zeros a bottom row needs nonzero entries, which weight 3 caps
    assert count_phi(2, -10**9, 3) == 0


def test_route_one_builds_no_row_longer_than_its_guard_allows(monkeypatch):
    lengths = []

    def recorded(total, length, max_part, k, rows_fn=frobenius._bounded_rows):
        lengths.append(length)
        return rows_fn(total, length, max_part, k)

    monkeypatch.setattr(frobenius, "_bounded_rows", recorded)
    for k, alpha, n in itertools.product((1, 2, 5, 40), (-45, -9, -2, 0, 3), (0, 4, 9)):
        lengths.clear()
        count_phi(k, alpha, n)
        bound = max(n, min(n - alpha, n + k))
        assert max(lengths, default=0) <= bound, (k, alpha, n)
        if k >= max(n, n - alpha) and n >= alpha:
            # a top row of n zeros pairs with a bottom row of n - alpha zeros
            assert max(lengths) == bound, (k, alpha, n)


# ---------------------------------------------------------------------------
# the array value type
# ---------------------------------------------------------------------------

def test_array_is_slotted_frozen_and_hashable():
    a = FrobeniusArray(((2, 1), (0, 2)), ((1, 1),))
    assert not hasattr(a, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.top = ()
    b = FrobeniusArray(((2, 1), (0, 2)), ((1, 1),))
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, FrobeniusArray((), ((1, 1),))}) == 2
    assert a.weight == 2 + 2 + 0 + 1
    assert a.row_difference == 1
    assert a.to_json_dict() == {"top": [[2, 1], [0, 2]], "bottom": [[1, 1]]}
    rep = FrobeniusArray((3, 3, 0), (1,))
    assert (rep.weight, rep.row_difference) == (3 + 6 + 1, 2)
    assert rep.to_json_dict() == {"top": [[3], [3], [0]], "bottom": [[1]]}


@pytest.mark.parametrize("variant, k, alpha, n", [
    ("repetition", 2, -1, 7), ("repetition", 1, 0, 0), ("colored", 3, 1, 6), ("colored", 2, 0, 0),
])
def test_enumerated_arrays_are_constructed_values(variant, k, alpha, n):
    # enumeration fills the slots of blank arrays; the values must be the
    # ones the constructor makes
    arrays = enumerate_arrays(variant, k, alpha, n)
    assert arrays
    for a in arrays:
        b = FrobeniusArray(a.top, a.bottom)
        assert type(a) is FrobeniusArray
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.to_json_dict() == b.to_json_dict()
    assert pickle.loads(pickle.dumps(arrays)) == arrays
    assert copy.deepcopy(arrays) == arrays
    assert [copy.copy(a) for a in arrays] == arrays
    assert len(set(arrays)) == len(arrays)
    a = arrays[-1]
    for name in ("top", "bottom"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)
    assert a == FrobeniusArray(a.top, a.bottom)
    assert not hasattr(a, "__dict__")


# ---------------------------------------------------------------------------
# colored rows
# ---------------------------------------------------------------------------

def _reference_colored_rows(total, length, max_part, k):
    # one (value, color) pair at a time, run by run
    rows = []
    for base in frobenius._bounded_rows(total, length, max_part, k):
        groups = [(v, len(list(g))) for v, g in itertools.groupby(base)]
        choices = [itertools.combinations(range(k, 0, -1), mult) for _, mult in groups]
        for pick in itertools.product(*choices):
            row = []
            for (v, _), colors in zip(groups, pick):
                row.extend((v, c) for c in colors)
            rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_colored_rows_match_the_per_pair_reference(k):
    for total in range(11):
        for length in range(total + k + 2):
            for max_part in {total // 2, total}:
                args = (total, length, max_part, k)
                assert frobenius._colored_rows(*args) == _reference_colored_rows(*args), args


def test_colored_rows_share_their_pairs():
    # one object for each distinct (value, color) pair of a call's rows
    rows = frobenius._colored_rows(8, 6, 8, 3)
    pairs = [e for row in rows for e in row]
    assert len(pairs) > 3 * len(set(pairs))
    assert len({id(e) for e in pairs}) == len(set(pairs))


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["repetition", "colored"])
def test_list_size_counts_the_entries_enumeration_builds(variant):
    # every row of a split has one length, so the entries follow from the counts
    for k in (1, 2, 3):
        for alpha in range(-3, 3):
            for n in range(8):
                arrays = enumerate_arrays(variant, k, alpha, n)
                entries = sum(len(a.top) + len(a.bottom) for a in arrays)
                assert frobenius._list_size(variant, k, alpha, n) == (len(arrays), entries), \
                    (k, alpha, n)


def test_count_cphi_builds_no_colored_row(monkeypatch):
    expected = len(enumerate_arrays("colored", 3, 1, 9))

    def refuse(*args):
        raise AssertionError("count_cphi built colored rows")

    monkeypatch.setattr(frobenius, "_colored_rows", refuse)
    assert count_cphi(3, 1, 9) == expected


def test_count_phi_k1_is_partition_numbers():
    assert [count_phi(1, 0, n) for n in range(5)] == [1, 1, 2, 3, 5]


def test_count_phi_small_values():
    assert count_phi(2, -1, 3) == 6
    assert count_phi(2, -1, 4) == 10


def test_count_cphi_small_values():
    assert count_cphi(2, -1, 0) == 2
    assert count_cphi(2, -1, 1) == 4
    assert count_cphi(2, -1, 2) == 12


def test_json_serialization_shape():
    rep = enumerate_arrays("repetition", 2, -1, 2)[0]
    assert rep.to_json_dict() == {"top": [], "bottom": [[2]]}
    col = enumerate_arrays("colored", 2, -1, 0)[0]
    assert col.to_json_dict() == {"top": [], "bottom": [[0, 1]]}
    assert FrobeniusArray((), ()).to_json_dict() == {"top": [], "bottom": []}
    assert FrobeniusArray(((1, 2),), ()).to_json_dict() == {"top": [[1, 2]], "bottom": []}
    for variant in ("repetition", "colored"):
        for a in enumerate_arrays(variant, 2, 0, 5):
            for row, encoded in zip((a.top, a.bottom), a.to_json_dict().values()):
                assert [tuple(e) if variant == "colored" else e[0] for e in encoded] == list(row)


# ---------------------------------------------------------------------------
# bivariate expansion path
# ---------------------------------------------------------------------------

def test_bivar_examples():
    assert bivar_coefficient_series("repetition", 2, -1, 4).coeffs == (1, 2, 3, 6, 10)
    assert bivar_coefficient_series("colored", 2, -1, 2).coeffs == (2, 4, 12)
    assert bivar_coefficient_series("repetition", 1, 0, 4).coeffs == (1, 1, 2, 3, 5)


def test_bivar_window_edges():
    # k=2, weight 12: the longest top row is 0,0,1,1,2,2 (6 entries, cost
    # 6 + 6), the longest bottom row 0,0,1,1,2,2,3,3 (8 entries, cost 12),
    # so the exact z window is [-8, 6]
    m1, m2, order = 6, 8, 12
    for variant, count in (("repetition", count_phi), ("colored", count_cphi)):
        for alpha in (m1, -m2):
            series = bivar_coefficient_series(variant, 2, alpha, order)
            assert list(series.coeffs) == [count(2, alpha, n) for n in range(order + 1)]
            assert series.coeffs[order] > 0
        for alpha in (m1 + 1, -m2 - 1, 10**9, -10**9):
            assert not any(bivar_coefficient_series(variant, 2, alpha, order).coeffs)


def test_route_two_reads_no_row_bound_of_route_one(monkeypatch):
    # route 1 overstating the least entry sum of a row longer than 2 skips
    # splits that do hold arrays; the route that checks it must not move
    def route_two():
        return {(variant, alpha): bivar_coefficient_series(variant, 2, alpha, 12).coeffs
                for variant in VARIANTS for alpha in range(-9, 8)}

    expected = route_two()
    plant(monkeypatch, "frobenius._min_row_sum", "+ rem * full", "+ rem * full + (length > 2)")
    assert route_two() == expected
    for variant in VARIANTS:
        assert any(disagreements(variant, 2, alpha, {"count": 12, "bivar": 12})
                   for alpha in range(-2, 3))


def _plant_row(monkeypatch, name):
    # the edit of the planted-bug table's row `name`, for a test that checks
    # it case by case
    row, = [row for row in ROWS if row.name == name]
    plant(monkeypatch, row.target, row.old, row.new)


@pytest.mark.parametrize("k", [1, 3])
def test_oracle_catches_colored_rows_missing_a_run(monkeypatch, k):
    # only enumeration builds colored rows: the oracle sees the run go
    # missing, and the counts do not move
    _plant_row(monkeypatch, "colored rows miss the lone zero of color 1")
    assert ("enum", "bivar", 0) in disagreements("colored", k, -1, {"enum": 6, "bivar": 6})
    assert not any(disagreements("colored", k, alpha, {"count": 12, "bivar": 12})
                   for alpha in range(-2, 3))


def _uncut_product(variant, k, order):
    # the whole product, no row ever cut: a top row fits at most `order`
    # entries and a bottom row at most order + k (k zero entries cost
    # nothing), so the window [-order - k, order] clips nothing; each factor
    # is a series of its own, whose window [-k, k] holds its terms
    acc = BivarSeries.from_terms(order, -order - k, order, [(0, 0, 1)])
    for lam in range(order + 1):
        for sign, shift in ((1, 1), (-1, 0)):
            terms = [(sign * j, j * (lam + shift),
                      1 if variant == "repetition" else math.comb(k, j))
                     for j in range(1, k + 1)]
            acc *= BivarSeries.from_terms(order, -k, k, [(0, 0, 1), *terms])
    return acc


@pytest.mark.parametrize("variant", ["repetition", "colored"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cut_expansion_matches_uncut_product(variant, k):
    # the factors with lam > order only reach q^(> order), so row alpha of
    # the order-25 product, cut to its first order + 1 coefficients, is
    # the answer at every smaller order
    top = 25
    reference = _uncut_product(variant, k, top)
    for order in range(top + 1):
        m1 = max(z for z, row in reference.rows.items() if any(row[:order + 1]))
        m2 = -min(z for z, row in reference.rows.items() if any(row[:order + 1]))
        for alpha in range(-m2 - 1, m1 + 2):
            expected = list(reference.rows.get(alpha, [0] * (top + 1))[:order + 1])
            series = bivar_coefficient_series(variant, k, alpha, order)
            assert list(series.coeffs) == expected, (variant, k, alpha, order)


def test_packed_cut_matches_its_rule_row_by_row():
    # row z keeps its first order + 1 - |z - alpha| cost slots, and the rows
    # that keep none are dropped; a second cut with a smaller cost leaves
    # the rows kept as they are
    for order, zmin, zmax, alpha, cost in itertools.product(
            (0, 3, 8), (-6, -2, 0), (0, 3, 6), range(-12, 13, 3), range(1, 6)):
        zs = range(zmin, zmax + 1)
        acc = frobenius._PackedRows(order, alpha, ((z, 1) for z in zs))
        assert (acc.nbytes, acc.cost) == (1, 1)
        acc.rows.update(dict.fromkeys(zs, int.from_bytes(b"\1" * (order + 1), "little")))
        live = {z: order + 1 - abs(z - alpha) * cost for z in zs}
        for step in (cost, max(1, cost - 1)):
            acc.cut(step)
            assert acc.cost == step
            assert acc.rows == {z: int.from_bytes(b"\1" * live[z], "little")
                                for z in zs if live[z] > 0}


@pytest.mark.parametrize("variant, count", [("repetition", count_phi), ("colored", count_cphi)])
def test_cut_bound_has_teeth(monkeypatch, variant, count):
    # charging one more unit of q per unit of z (cost lam + 3, not lam + 2)
    # cuts coefficients that do reach z^alpha, and the series stops
    # matching the counts
    order = 10
    counts = [count(2, -1, n) for n in range(order + 1)]
    assert list(bivar_coefficient_series(variant, 2, -1, order).coeffs) == counts
    _plant_row(monkeypatch, "route 2 cuts at lam + 3")
    # the planted function replaces the one in frobq, not this file's import
    assert list(frobenius.bivar_coefficient_series(variant, 2, -1, order).coeffs) != counts


def _assert_bivar_small_order_is_quick(variant, count, k):
    # X_{k,alpha} = X_{k,-k-alpha}: the rows near alpha = -k are checked
    # against the counts at alpha, whose rows are short
    elapsed = 0.0
    for alpha in (-3, 0, 3):
        counts = [count(k, alpha, n) for n in range(4)]
        for at in (alpha, -k - alpha):
            started = time.perf_counter()
            series = bivar_coefficient_series(variant, k, at, 3)
            elapsed += time.perf_counter() - started
            assert list(series.coeffs) == counts, at
    assert elapsed < 0.15


@pytest.mark.parametrize("variant, count", [("repetition", count_phi), ("colored", count_cphi)])
def test_bivar_at_large_k_and_small_order_is_quick(variant, count):
    # the window spanned the 2000 rows that bottom rows of zeros reach, and
    # every factor had 2000 terms: a colored call took over a second, most
    # of it C(k, j) for terms that no row in the window could use.  Near
    # alpha = -k the free bottom factor kept k rows alive until it started
    # the expansion: 1.5 s colored, 0.9 s repetition.
    _assert_bivar_small_order_is_quick(variant, count, 2000)


@pytest.mark.parametrize("k", [10**6, 10**8])
@pytest.mark.parametrize("variant, count", [("repetition", count_phi), ("colored", count_cphi)])
def test_bivar_at_huge_k_and_small_order_is_quick(variant, count, k):
    # a search for the longest bottom row took k steps even after the
    # window and the factors stopped growing with k
    _assert_bivar_small_order_is_quick(variant, count, k)


@pytest.mark.parametrize("order", [10**6, 10**9])
@pytest.mark.parametrize("variant", VARIANTS)
def test_bivar_guard_refuses_huge_orders_at_once(variant, order):
    # alpha = 2 order + 1 has the zero series, whose list alone would hold
    # order + 1 entries
    for k, alpha in ((2, -1), (10**8, -10**8), (2, 2 * order + 1)):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="bivariate guard: .* slice entries counted, "
                                             f"above MAX_BIVAR_WORK={MAX_BIVAR_WORK}"):
            bivar_coefficient_series(variant, k, alpha, order)
        assert time.perf_counter() - started < 0.1


def test_bivar_guard_limit():
    # colored k=2 at order 2169 took 6.4 s on a 2-CPU x86 guest
    assert bivar_work(2, 2169) <= MAX_BIVAR_WORK < bivar_work(2, 2170)
    with pytest.raises(ValueError, match="bivariate guard"):
        bivar_coefficient_series("colored", 2, -1, 2170)


def test_weight_words_bound_the_largest_starting_weight():
    for k in range(1, 160):
        for first in range(0, k + 1, 7):
            for last in range(first, k + 1, 5):
                biggest = max(math.comb(k, j) for j in range(first, last + 1))
                assert frobenius._weight_words(k, first, last) >= -(-biggest.bit_length() // 64)
    # one word up to 64 bits, so k <= 64 counts as before
    assert frobenius._weight_words(64, 0, 64) == 1
    assert frobenius._weight_words(10**5, 49970, 50030) == 1563


@pytest.mark.parametrize("k, alpha, order", [
    (10**5, -50000, 30), (10**5, -50000, 60), (10**6, -500000, 1), (10**6, -500000, 100),
    (1000, -500, 357)])
def test_bivar_guard_weighs_big_starting_weights(monkeypatch, k, alpha, order):
    # C(10^5, 50000) has 99,992 bits: 61 of them took 9 s at N = 30, where
    # the entry count was 0.06% of the limit; C(10^6, 500000) alone took
    # 11.6 s.  The guard refuses before it computes any C(k, j).
    def no_comb(*args):
        raise AssertionError("computed a weight before refusing")

    monkeypatch.setattr(frobenius, "comb", no_comb)
    assert bivar_work(k, order) <= MAX_BIVAR_WORK
    started = time.perf_counter()
    with pytest.raises(ValueError, match="bivariate guard"):
        bivar_coefficient_series("colored", k, alpha, order)
    assert time.perf_counter() - started < 0.1


def test_bivar_weights_are_running_products(monkeypatch):
    # every C(k, j) was its own comb: colored k = 10^5, alpha = -50000 took
    # 3.2 s at N = 10, nearly all of it 21 combs of about 1563 words each
    calls = [0]

    def counted(k, j):
        calls[0] += 1
        return math.comb(k, j)

    monkeypatch.setattr(frobenius, "comb", counted)
    for k, alpha, order in ((1, 0, 5), (5, -2, 9), (13, -20, 12), (30, 4, 7), (3, 9, 4)):
        counts = [count_cphi(k, alpha, n) for n in range(order + 1)]
        calls[0] = 0
        assert list(bivar_coefficient_series("colored", k, alpha, order).coeffs) == counts
        assert calls[0] <= 1, (k, alpha, order)
    calls[0] = 0
    started = time.perf_counter()
    series = bivar_coefficient_series("colored", 10**5, -50000, 10)
    assert time.perf_counter() - started < 1
    assert calls[0] == 1
    # the lowest weight: n = 50000 zeros in the bottom row, the lam = 0 term
    assert series.coeffs[0] == math.comb(10**5, 50000)


def test_bivar_work_bounds_the_entries_made(monkeypatch):
    # a term (dz, dq, c) of a sweep updates the last live - dq slots of its
    # target row z + dz, from every nonzero source row z, where live =
    # order + 1 - |z + dz - alpha| cost; a missing target with live > 0 is
    # created with order + 1 slots
    made = [0]
    sweep = frobenius._PackedRows.sweep

    def counting_sweep(self, factor, descending):
        n = self.order + 1
        for z, source in self.rows.items():
            for dz, dq, _ in factor if source else ():
                live = n - abs(z + dz - self.alpha) * self.cost
                if live > 0:
                    made[0] += max(0, (live if z + dz in self.rows else n) - dq)
        sweep(self, factor, descending)

    monkeypatch.setattr(frobenius._PackedRows, "sweep", counting_sweep)
    for variant, k, order in itertools.product(VARIANTS, (1, 2, 3, 7, 30), (0, 1, 4, 13, 24)):
        most = 0
        for alpha in range(-k - order - 1, order + 2):
            made[0] = 0
            bivar_coefficient_series(variant, k, alpha, order)
            most = max(most, made[0])
        work = bivar_work(k, order)
        assert most <= work < 4 * most or most == work == 0, (variant, k, order)


# ---------------------------------------------------------------------------
# structural identities, validated through the oracle
# ---------------------------------------------------------------------------

def test_row_swap_symmetry():
    # swapping rows sends (weight n, difference alpha) to (n - alpha, -alpha)
    for k in (1, 2):
        for alpha in range(-2, 3):
            for n in range(9):
                if n - alpha < 0:
                    continue
                assert count_phi(k, alpha, n) == count_phi(k, -alpha, n - alpha)
                assert count_cphi(k, alpha, n) == count_cphi(k, -alpha, n - alpha)


def test_row_swap_is_a_bijection_on_arrays():
    swapped = {
        FrobeniusArray(a.bottom, a.top)
        for a in enumerate_arrays("repetition", 2, 1, 7)
    }
    assert swapped == set(enumerate_arrays("repetition", 2, -1, 6))


def test_minimal_weight_support():
    for k in (1, 2, 3):
        for alpha in range(0, k + 1):
            assert count_phi(k, alpha, alpha) >= 1
            for n in range(alpha):
                assert count_phi(k, alpha, n) == 0


def test_k1_variants_coincide():
    for alpha in range(-2, 3):
        for n in range(10):
            assert count_phi(1, alpha, n) == count_cphi(1, alpha, n)
