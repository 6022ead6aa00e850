"""Two-row array counting: brute-force enumeration and the product expansion.

An array here is a pair of nonincreasing rows of nonnegative integers, top
length m1 and bottom length m2; its weight is m1 plus the sum of all entries,
and its row difference is m1 - m2.  Two counting variants:

  * repetition: no value occurs more than k times within one row;
  * colored: entries are (value, color) pairs with colors 1..k, no pair
    occurring twice within a row; rows are canonically ordered by value
    descending, then color descending.

`enumerate_arrays` is the ground truth (exhaustive search, small weights
only).  `bivar_coefficient_series` computes the same counts a second,
independent way: expand the two-variable product

    repetition:  prod_{lam>=0} (sum_{j=0..k} z^j q^(j(lam+1)))
                               (sum_{j=0..k} z^-j q^(j lam))
    colored:     prod_{lam>=0} (1 + z q^(lam+1))^k (1 + z^-1 q^lam)^k

and read off the coefficient of z^alpha.
"""

from __future__ import annotations

import functools
import gc
import itertools
from collections import deque
from math import comb, prod
from operator import itemgetter

from . import VARIANTS
from ._value import FrozenValue
from .qseries import ZZ, BivarSeries, TruncSeries

# Exhaustive enumeration is the oracle, not a production path; keep it honest.
MAX_ENUM_WEIGHT = 30
# The most arrays `enumerate_arrays` builds; it counts them first, in
# milliseconds.  On a 2-CPU x86 guest with CPython 3.11.7 it builds an array
# in 0.81-0.98 us and peaks at 57-67 bytes an array, from 2.0 million arrays
# (colored k=3, alpha=-2, n=19: 1.65 s, 131 MiB) to 26.4 million (colored
# k=6, alpha=0, n=12: 22.9 s, 1449 MiB).  The limit is about 9 s and 650 MiB.
MAX_ENUM_ARRAYS = 10_000_000


class FrobeniusArray(FrozenValue):
    """One two-row array; entries are ints (repetition) or (value, color) pairs."""

    # two slots and no __dict__: 48 bytes an array on CPython 3.11
    __slots__ = ("top", "bottom")

    @property
    def weight(self) -> int:
        return len(self.top) + sum(self._values(self.top)) + sum(self._values(self.bottom))

    @property
    def row_difference(self) -> int:
        return len(self.top) - len(self.bottom)

    @staticmethod
    def _values(row):
        return [e[0] if isinstance(e, tuple) else e for e in row]

    def to_json_dict(self) -> dict:
        # an array's entries are all (value, color) pairs or all ints
        entries = self.top or self.bottom
        if entries and isinstance(entries[0], tuple):
            return {"top": list(map(list, self.top)), "bottom": list(map(list, self.bottom))}
        return {"top": [[v] for v in self.top], "bottom": [[v] for v in self.bottom]}


# enumeration fills the two slots of blank arrays through these, in C, with
# no __init__ frame an array
_new_array = FrobeniusArray.__new__
_set_top = FrobeniusArray.top.__set__
_set_bottom = FrobeniusArray.bottom.__set__


def _min_row_sum(length: int, k: int) -> int:
    # smallest entry sum a length-`length` row can have when each value
    # appears at most k times: k zeros, k ones, ...
    full, rem = divmod(length, k)
    return k * full * (full - 1) // 2 + rem * full


@functools.lru_cache(maxsize=None)
def _bounded_rows(total: int, length: int, max_part: int, k: int) -> tuple:
    """Nonincreasing rows: `length` values in 0..max_part summing to `total`,
    no value repeated more than k times."""
    if length == 0:
        return ((),) if total == 0 else ()
    if total == 0:
        return ((0,) * length,) if length <= k else ()
    rows = []
    for v in range(min(max_part, total), 0, -1):
        for j in range(1, min(k, length) + 1):
            rest = total - j * v
            if rest < 0:
                break
            for tail in _bounded_rows(rest, length - j, v - 1, k):
                rows.append((v,) * j + tail)
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _colored_rows(total: int, length: int, max_part: int, k: int) -> tuple:
    """Canonical colored rows: distinct (value, color) pairs, colors 1..k,
    sorted by value descending then color descending.  Only enumeration
    builds them; `count_cphi` weights the repetition rows instead."""
    # runs[v, j]: the colorings of a run of j entries equal to v, one tuple
    # of (v, c) pairs per choice of j colors, colors descending.  The rows of
    # one call share these tuples and the pairs in them, which are built for
    # a value when a run of it is first met.
    pairs = {}
    runs = {}
    rows = []
    for base in _bounded_rows(total, length, max_part, k):
        choices = []
        for v, g in itertools.groupby(base):
            key = (v, len(list(g)))
            if key not in runs:
                if v not in pairs:
                    pairs[v] = [(v, c) for c in range(k, 0, -1)]
                runs[key] = list(itertools.combinations(pairs[v], key[1]))
            choices.append(runs[key])
        # one row per choice of a coloring for each run, joined in C
        rows.extend(map(tuple, map(itertools.chain.from_iterable, itertools.product(*choices))))
    return tuple(rows)


def _colored_count(rows, k: int) -> int:
    """The number of colored rows over these repetition rows: a value that
    occurs j times in a row picks its colors among k, in C(k, j) ways."""
    return sum(prod(comb(k, len(list(g))) for _, g in itertools.groupby(row)) for row in rows)


def _check_enum_args(variant: str, k: int, n: int) -> None:
    # the argument checks shared by `enumerate_arrays` and the counts
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("weight must be >= 0")
    if n > MAX_ENUM_WEIGHT:
        raise ValueError(f"enumeration guard: weight {n} exceeds MAX_ENUM_WEIGHT={MAX_ENUM_WEIGHT}")


def _row_pairs(rows_fn, k: int, alpha: int, n: int):
    """Yield (tops, bottoms) for every split of weight n into a top row of
    length m1 and entry sum n1 and a bottom row of length m1 - alpha and
    entry sum n - m1 - n1 with both row lists nonempty.  Every top pairs with
    every bottom of its split, and a top row belongs to exactly one split,
    since its length and sum fix m1 and n1."""
    for m1 in range(n + 1):
        m2 = m1 - alpha
        if m2 < 0:
            continue
        budget = n - m1  # entry sums of both rows together
        if _min_row_sum(m1, k) + _min_row_sum(m2, k) > budget:
            continue
        for n1 in range(budget + 1):
            tops = rows_fn(n1, m1, n1, k)
            if not tops:
                continue
            n2 = budget - n1
            bottoms = rows_fn(n2, m2, n2, k)
            if bottoms:
                yield tops, bottoms


def enumerate_arrays(variant: str, k: int, alpha: int, n: int,
                     limit: int = MAX_ENUM_ARRAYS) -> list[FrobeniusArray]:
    """Every array of the given variant, weight n, row difference alpha.

    Exhaustive and deterministic: the arrays come out sorted by (top,
    bottom).  No list of arrays is sorted; each split's bottom rows are
    sorted once and the distinct top rows once, and since a top row pairs
    with exactly the bottoms of its own split, concatenating gives the
    canonical order.

    The arrays are built in C, with no Python frame an array: the whole
    list is allocated blank with `FrobeniusArray.__new__`, and the slot
    descriptors' `__set__` fill `top` (each top row repeated once for each
    of its bottoms) and `bottom` through `map`.  They are the values
    `FrobeniusArray(top, bottom)` makes: the same fields, equality, hash
    and pickling.

    The rows are built and the arrays filled with the cyclic garbage
    collector paused; it is switched back on afterwards only if it was on.
    The build makes only acyclic tuples, lists and arrays, which reference
    counting frees, so a collection during it would free nothing and only
    walk the growing heap of arrays.  Any cycle left behind, such as a
    raised exception's traceback, is collected by the first collection
    after the call.

    Guarded: refuses weights above MAX_ENUM_WEIGHT, and more than `limit`
    arrays by `count_phi`/`count_cphi` before it builds any row.  The count
    only decides whether to refuse; the arrays come from the search alone.
    """
    _check_enum_args(variant, k, n)
    collecting = gc.isenabled()
    gc.disable()
    try:
        total = (count_phi if variant == "repetition" else count_cphi)(k, alpha, n)
        if total > limit:
            raise ValueError(f"enumeration guard: {total} arrays exceed the limit of {limit}")
        rows_fn = _bounded_rows if variant == "repetition" else _colored_rows
        by_top = []
        for tops, bottoms in _row_pairs(rows_fn, k, alpha, n):
            bottoms = sorted(bottoms)
            by_top.extend((top, bottoms) for top in tops)
        by_top.sort(key=itemgetter(0))
        lengths = [len(bottoms) for _, bottoms in by_top]
        arrays = list(map(_new_array, itertools.repeat(FrobeniusArray, sum(lengths))))
        tops = map(itertools.repeat, map(itemgetter(0), by_top), lengths)
        deque(map(_set_top, arrays, itertools.chain.from_iterable(tops)), 0)
        bottoms = itertools.chain.from_iterable(map(itemgetter(1), by_top))
        deque(map(_set_bottom, arrays, bottoms), 0)
        return arrays
    finally:
        if collecting:
            gc.enable()


def count_phi(k: int, alpha: int, n: int) -> int:
    """Number of weight-n, row-difference-alpha arrays, repetition variant.

    Equal to len(enumerate_arrays("repetition", k, alpha, n)) and computed
    from the same exhaustive row lists, but multiplies the top and bottom
    row counts of each split instead of building the arrays.
    """
    _check_enum_args("repetition", k, n)
    pairs = _row_pairs(_bounded_rows, k, alpha, n)
    return sum(len(tops) * len(bottoms) for tops, bottoms in pairs)


def count_cphi(k: int, alpha: int, n: int) -> int:
    """Number of weight-n, row-difference-alpha arrays, colored variant.

    Equal to len(enumerate_arrays("colored", k, alpha, n)), but builds no
    colored row: it multiplies the top and bottom counts of each split, and
    counts each list of repetition rows by the colored rows over it
    (`_colored_count`).
    """
    _check_enum_args("colored", k, n)
    pairs = _row_pairs(_bounded_rows, k, alpha, n)
    return sum(_colored_count(tops, k) * _colored_count(bottoms, k) for tops, bottoms in pairs)


def _reach_cost(z: int, alpha: int, lam: int) -> int:
    """Least q-weight the factors after `lam` can add to move z^z to z^alpha.

    Those factors have lam' >= lam + 1: a top entry raises z by one at a
    cost of at least lam + 2, a bottom entry lowers it by one at a cost of
    at least lam + 1.
    """
    return (alpha - z) * (lam + 2) if z < alpha else (z - alpha) * (lam + 1)


def bivar_coefficient_series(variant: str, k: int, alpha: int, order: int) -> TruncSeries:
    """Coefficient of z^alpha in the variant's two-variable product, as a q-series.

    Every term of every partial product that survives the q truncation is an
    array of weight <= order whose row difference is its z-exponent, so the
    z window lies in [-M2, M1]: M1 is the longest top row that fits in
    weight `order` (each entry costs its value plus 1) and M2 the longest
    bottom row (each entry costs its value).  An alpha outside it gives the
    zero series at once.  A row below alpha - order needs more than `order`
    top entries to reach alpha, so the window starts at max(-M2, alpha -
    order).  The product is expanded in place, one `apply_factor` per factor,
    whose terms z^j stop at the window's width, as a wider one leaves it.

    Only what can still reach z^alpha is expanded.  Once both factors of
    lam = L are applied, a term at (z, w) can end in z^alpha q^(<= order)
    only if w + cost_L(z) <= order, where cost_L = `_reach_cost(., alpha,
    L)`.  So after each lam, `BivarSeries.truncate` keeps the first
    order + 1 - cost_L(z) coefficients of row z and drops the row when that
    count is <= 0; the window shrinks to the rows left.  Row alpha has cost
    0 and is never cut.

    The cut is exact: every kept coefficient is the true one.  cost_L is
    nondecreasing in L, and it obeys the triangle inequality for moves that
    cost L + 2 a step up and L + 1 a step down.  The sweeps of lam = L read
    rows cut by cost_(L-1), or uncut for L = 0; a row a sweep creates is
    uncut.  A term (dz, dq) feeds (z, w) from (z - dz, w - dq), and under
    cost_(L-1) that move costs exactly dq (dq = dz(L+1) for a top entry,
    |dz| L for a bottom one), so cost_(L-1)(z - dz) <= dq + cost_(L-1)(z).
    Hence a coefficient in the cost_(L-1) prefix of its row reads only
    coefficients in the cost_(L-1) prefixes of theirs, in both sweeps of
    lam = L, and those prefixes stay exact.  The truncation after them
    keeps the cost_L prefixes, which are no longer.  The work is about
    k order^2 log(order) slice entries, against k order^2 times the
    window's row count without the cut.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    m1 = m2 = 0
    while m1 + 1 + _min_row_sum(m1 + 1, k) <= order:
        m1 += 1
    while _min_row_sum(m2 + 1, k) <= order:
        m2 += 1
    if not -m2 <= alpha <= m1:
        return TruncSeries.zero(ZZ, order)
    zmin = max(-m2, alpha - order)
    width = min(k, m1 - zmin)
    weights = [1] * width if variant == "repetition" else [comb(k, j) for j in range(1, width + 1)]
    acc = BivarSeries.one(order, zmin, m1)
    for lam in range(order + 1):
        reach = list(enumerate(weights[:acc.zmax - acc.zmin], 1))
        acc.apply_factor([(j, j * (lam + 1), w) for j, w in reach])
        acc.apply_factor([(-j, j * lam, w) for j, w in reach])
        acc.truncate(lambda z: order + 1 - _reach_cost(z, alpha, lam))
    return acc.z_slice(alpha)
