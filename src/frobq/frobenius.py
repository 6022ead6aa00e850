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
from operator import index, itemgetter, or_

from . import VARIANTS
from ._value import FrozenValue
from .qseries import ZZ, TruncSeries

# Exhaustive enumeration is the oracle, not a production path; keep it honest.
MAX_ENUM_WEIGHT = 30
# The most arrays `enumerate_arrays` builds; it counts them first, in
# milliseconds.  On a 2-CPU x86 guest with CPython 3.11.7 it builds an array
# in 0.81-0.98 us and peaks at 57-67 bytes an array, from 2.0 million arrays
# (colored k=3, alpha=-2, n=19: 1.65 s, 131 MiB) to 26.4 million (colored
# k=6, alpha=0, n=12: 22.9 s, 1449 MiB).  The limit is about 9 s and 650 MiB.
MAX_ENUM_ARRAYS = 10_000_000
# The most entries a row of route 1 may hold.  Every row is built, and the
# row caches keep them for the life of the process.  On the same guest, at
# k=1000, n=30, a longest row of 60/100/200/400/500 entries peaked at
# 86/152/314/637/798 MiB (0.2-2.0 s): the limit is about the 650 MiB above.
MAX_ENUM_ROW = 400
# The most slots route 2's term updates cover, counted by `bivar_work` and,
# when colored, weighted by the machine words of the largest starting weight
# C(k, j).  On the same guest a counted slot took 13-28 ns with k <= 100,
# and the largest accepted orders took 1.9-4.2 s: repetition k=2, N=2169 in
# 1.9 s, colored k=2, N=2169 in 2.4 s, colored k=4, N=1613 in 2.4 s and
# colored k=100 (two-word weights), alpha=-50, N=362 in 4.2 s.  C(k, j)
# itself costs about w^2 word steps for w words: C(10^5, 50000), 1563
# words, took 0.15 s.  Colored k=10^5, alpha=-50000 takes 0.22 s at N=10
# (accepted), one such `comb` and running products from it; N=30 is refused.
MAX_BIVAR_WORK = 150_000_000


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
        return {"top": self.json_row(self.top), "bottom": self.json_row(self.bottom)}

    @staticmethod
    def json_row(row) -> list:
        # a row's entries are all (value, color) pairs or all ints
        if row and isinstance(row[0], tuple):
            return list(map(list, row))
        return [[v] for v in row]


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


def _check_enum_args(variant: str, k: int, alpha: int, n: int) -> tuple[int, int, int]:
    # route 1's argument checks, run by `_list_size` and `enumerate_arrays`,
    # which go on with the (k, alpha, n) returned as ints; a number that is
    # not an int raises TypeError
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    k, alpha, n = index(k), index(alpha), index(n)
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("weight must be >= 0")
    if n > MAX_ENUM_WEIGHT:
        raise ValueError(f"enumeration guard: weight {n} exceeds MAX_ENUM_WEIGHT={MAX_ENUM_WEIGHT}")
    # a top row holds at most n entries, a bottom row n - alpha, and no row
    # more than k zeros and n nonzero entries
    row = max(n, min(n - alpha, n + k))
    if row > MAX_ENUM_ROW:
        raise ValueError(f"enumeration guard: rows of up to {row} entries exceed "
                         f"MAX_ENUM_ROW={MAX_ENUM_ROW}")
    return k, alpha, n


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


def enumerate_arrays(variant: str, k: int, alpha: int, n: int) -> list[FrobeniusArray]:
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

    A k, alpha or n that is not an int raises TypeError.  Guarded:
    refuses weights above MAX_ENUM_WEIGHT, rows longer than
    MAX_ENUM_ROW, and more than MAX_ENUM_ARRAYS arrays, counted by
    `_list_size` before it builds any row.  The count only decides whether
    to refuse; the arrays come from the search alone.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        k, alpha, n = _check_enum_args(variant, k, alpha, n)
        total = _list_size(variant, k, alpha, n)[0]
        if total > MAX_ENUM_ARRAYS:
            raise ValueError(f"enumeration guard: {total} arrays exceed "
                             f"MAX_ENUM_ARRAYS={MAX_ENUM_ARRAYS}")
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
    return _list_size("repetition", k, alpha, n)[0]


def count_cphi(k: int, alpha: int, n: int) -> int:
    """Number of weight-n, row-difference-alpha arrays, colored variant.

    Equal to len(enumerate_arrays("colored", k, alpha, n)), but builds no
    colored row: it multiplies the top and bottom counts of each split, and
    counts each list of repetition rows by the colored rows over it
    (`_colored_count`).
    """
    return _list_size("colored", k, alpha, n)[0]


def _list_size(variant: str, k: int, alpha: int, n: int) -> tuple[int, int]:
    """(arrays, row entries) of weight n and row difference alpha, from the
    repetition rows alone.  Every top row of one split has m1 entries and
    every bottom m1 - alpha, so each split adds its count times
    2*m1 - alpha entries."""
    k, alpha, n = _check_enum_args(variant, k, alpha, n)
    arrays = entries = 0
    for tops, bottoms in _row_pairs(_bounded_rows, k, alpha, n):
        if variant == "repetition":
            count = len(tops) * len(bottoms)
        else:
            count = _colored_count(tops, k) * _colored_count(bottoms, k)
        arrays += count
        entries += count * (len(tops[0]) + len(bottoms[0]))
    return arrays, entries


def bivar_work(k: int, order: int) -> int:
    """Slots the term updates of `bivar_coefficient_series` cover, at most:
    an update of a target row of live length m by a term q^dq covers its
    last m - dq slots.

    Step L reads rows cut by cost_(L-1), so rows with |z - alpha| <= D =
    order // (L+1), which hold at most (2D+1)(order+1) - (L+1)D(D+1)
    coefficients, and each of its two factors has min(k, D) terms.  The
    rows a sweep creates are whole, but on the grid of the tests (k up to
    30, orders up to 24) the count was 2.6-3.1 times the most slots the
    updates of one alpha covered.  The sum stops once it passes
    MAX_BIVAR_WORK, so a huge order is refused at once.  It counts slots,
    not words: see `_weight_words`.
    """
    total = 0
    for lam in range(order + 1):
        d = order // (lam + 1)
        total += 2 * min(k, d) * ((2 * d + 1) * (order + 1) - (lam + 1) * d * (d + 1))
        if total > MAX_BIVAR_WORK:
            break
    return total


def _weight_words(k: int, first: int, last: int) -> int:
    """64-bit words of the largest C(k, j) with first <= j <= last, bounded
    without computing it: C(k, j) = C(k, k - j) < 2^k, and < k^j."""
    j = min(max(first, k // 2), last)  # the j in range closest to k/2
    return max(1, -(-min(k, min(j, k - j) * k.bit_length()) // 64))


def _binomials(k: int, first: int, last: int, start: int) -> list:
    """C(k, j) for first <= j <= last, given start = C(k, first), as the
    running product C(k, j) = C(k, j - 1) * (k - j + 1) // j, which is exact."""
    return list(itertools.accumulate(range(first + 1, last + 1),
                                     lambda c, j: c * (k - j + 1) // j, initial=start))


class _PackedRows:
    """Route 2's working series in z and q, truncated at q^order.

    Row z is one nonnegative int of slots of B = 8 * nbytes bits, slot e
    holding the coefficient of z^z q^e (Kronecker substitution: q becomes
    2^B).  Its live length, the slots that can still reach z^alpha, is
    order + 1 - |z - alpha| * cost: `cut` raises the cost.  Every entry is
    a count, so no slot needs a sign, and while no entry reaches 2^B a sum
    of rows or a row times a count is exact slot by slot: a term of a
    factor is one multiply, shift, mask and add of a whole row.  `fit`
    keeps that true, and missing rows are zero.
    """

    __slots__ = ("order", "alpha", "cost", "rows", "nbytes")

    def __init__(self, order: int, alpha: int, starts):
        # starts: (z, w) pairs, the rows w z^z q^0, each live at cost 1
        self.order, self.alpha, self.cost = order, alpha, 1
        self.rows = dict(starts)
        self.nbytes = max(1, (max(self.rows.values(), default=0).bit_length() + 7) // 8)

    def fit(self, weight: int) -> None:
        """Make room for one step: two factors 1 + sum w z^dz q^dq whose
        weights w sum to `weight` each.

        A factor multiplies the largest entry by at most 1 + weight, so the
        step by at most (1 + weight)^2 < 2^h, h = 2 * bit_length(1 + weight).
        The entries are nonnegative, so one OR of the rows shows whether any
        sets a bit among its slot's top h bits.  If none does, every entry
        is below 2^(B - h) and stays below 2^B through the step.  If one
        does, every entry is still below 2^B, so slots at least h bits wider
        pass the test.  There are no floats and no rule for the width.
        """
        h = 2 * (1 + weight).bit_length()
        bits = 8 * self.nbytes
        # a slot of h bits or fewer has room only for zeros: every set bit counts
        head = -1
        if bits > h:
            ones = int.from_bytes((b"\1" + bytes(self.nbytes - 1)) * (self.order + 1), "little")
            head = (ones << (bits - h)) * ((1 << h) - 1)
        if functools.reduce(or_, self.rows.values(), 0) & head:
            self._widen(self.nbytes + (h + 7) // 8 + self.nbytes // 4)

    def _widen(self, nbytes: int) -> None:
        # move each row's bytes into slots of `nbytes`, whose new high bytes
        # stay zero: column by column, or slot by slot if the slots are fewer
        nb, n = self.nbytes, self.order + 1
        for z, y in self.rows.items():
            old, data = y.to_bytes(n * nb, "little"), bytearray(n * nbytes)
            if n < nb:
                for i in range(n):
                    data[i * nbytes:i * nbytes + nb] = old[i * nb:i * nb + nb]
            else:
                for j in range(nb):
                    data[j::nbytes] = old[j::nb]
            self.rows[z] = int.from_bytes(data, "little")
        self.nbytes = nbytes

    def sweep(self, factor, descending: bool) -> None:
        """Multiply in place by 1 + sum c z^dz q^dq over (dz, dq, c) in
        `factor`, every dz > 0 when `descending` and < 0 otherwise.

        The sources are visited by z descending when dz > 0 and ascending
        when dz < 0, so each row is read before anything is added into it:
        its targets z + dz come before it.  A term adds source * c, shifted
        dq slots, into the target's live slots, and skips a target with
        none.  A missing target is created with the whole term, to q^order.
        """
        rows, n, alpha, cost = self.rows, self.order + 1, self.alpha, self.cost
        bits = 8 * self.nbytes
        for z in sorted(rows, reverse=descending):
            source = rows[z]
            if not source:
                continue
            for dz, dq, c in factor:
                target = z + dz
                live = n - abs(target - alpha) * cost
                if target in rows:
                    if dq < live:
                        y = (source * c) << dq * bits
                        if y.bit_length() > live * bits:
                            y &= (1 << live * bits) - 1
                        rows[target] += y
                elif live > 0:
                    rows[target] = ((source * c) << dq * bits) & (1 << n * bits) - 1

    def cut(self, cost: int) -> None:
        """Raise the cost to `cost`: mask every row to its live length and
        drop the rows that keep none.  Row alpha keeps all its slots, so a
        carry out of q^order stays, and `coefficients` refuses it."""
        self.cost, rows, bits = cost, self.rows, 8 * self.nbytes
        for z in list(rows):
            keep = self.order + 1 - abs(z - self.alpha) * cost
            if keep <= 0:
                del rows[z]
            elif z != self.alpha and rows[z].bit_length() > keep * bits:
                rows[z] &= (1 << keep * bits) - 1

    def coefficients(self, z: int) -> list:
        """Row z's order + 1 slots as ints."""
        nb = self.nbytes
        data = self.rows.get(z, 0).to_bytes((self.order + 1) * nb, "little")
        return [int.from_bytes(data[i:i + nb], "little") for i in range(0, len(data), nb)]


def bivar_coefficient_series(variant: str, k: int, alpha: int, order: int) -> TruncSeries:
    """Coefficient of z^alpha in the variant's two-variable product, as a q-series.

    The lam = 0 bottom factor sum_j w_j z^-j (w_j = 1, or C(k, j) when
    colored) costs nothing in q, so it is applied first, as the starting
    rows.  Step lam then applies the top factor of lam and the bottom factor
    of lam + 1, whose terms are z^(+-j) q^(j(lam+1)), one
    `_PackedRows.sweep` each; a term with j(lam+1) > order passes q^order
    and is left out.  The rows are packed ints, every entry a count, and
    `_PackedRows.fit` widens their slots before a step that could fill
    one, so each term is a shift and an add of a row.
    Every factor after the first costs at least 1 a unit of z, so only rows
    with |z - alpha| <= order can reach z^alpha, and only the starting rows
    z^-j among them are built, at most 2 order + 1 whatever k is.  With
    none the series is zero.

    Only what can still reach z^alpha is expanded.  A term of a factor
    after step L costs at least L + 2 a unit of z, so a term at (z, w) can
    end in z^alpha q^(<= order) only if w + cost_L(z) <= order, where
    cost_L(z) = |z - alpha| (L + 2), and cost_(-1)(z) = |z - alpha|.  So
    in step L row z has order + 1 - cost_(L-1)(z) live slots: a sweep skips
    a target with none and masks a term into a row to them, and after the
    step `_PackedRows.cut(L + 2)` masks row z to its first
    order + 1 - cost_L(z) slots, dropping it when none are left.

    The cut is exact: every kept coefficient is the true one.  cost_L is
    nondecreasing in L and obeys the triangle inequality.  Step L reads
    rows cut by cost_(L-1) (a starting row is one slot) and rows its
    sweeps create whole.  A term (dz, dq) feeds (z, w) from (z - dz,
    w - dq), and under cost_(L-1) that move costs exactly dq = |dz|(L+1),
    so cost_(L-1)(z - dz) <= dq + cost_(L-1)(z).  Hence a coefficient in
    the cost_(L-1) prefix of its row reads only coefficients in the
    cost_(L-1) prefixes of theirs, in both sweeps of step L, and those
    prefixes stay exact.  The truncation after them keeps the cost_L
    prefixes, which are no longer.

    A k, alpha or order that is not an int raises TypeError.  Guarded:
    refuses, before any C(k, j) is computed, more than MAX_BIVAR_WORK
    entries by `bivar_work` when the starting weights fit in a machine
    word.  Colored starting weights of w > 1 words (`_weight_words`)
    make every entry cost about w times as much, and the count is then
    w * (entries + rows * (w - 1)), which charges each starting weight w^2
    word steps.  That bounds their cost: the weights are one `comb` for the
    first starting row and running products from there (`_binomials`), so
    only the first costs about w^2 and each other one about w.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    k, alpha, order = index(k), index(alpha), index(order)
    if k < 1:
        raise ValueError("k must be >= 1")
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    first, last = max(0, -alpha - order), min(k, order - alpha)
    rows = max(0, last - first + 1)
    words = _weight_words(k, first, last) if variant == "colored" and rows else 1
    work = words * (bivar_work(k, order) + rows * (words - 1))
    if work > MAX_BIVAR_WORK:
        raise ValueError(f"bivariate guard: {work} slice entries counted, above "
                         f"MAX_BIVAR_WORK={MAX_BIVAR_WORK}")
    if not rows:
        return TruncSeries.zero(ZZ, order)
    if variant == "repetition":
        starts, weights = [1] * rows, [1] * min(k, order)
    else:
        starts = _binomials(k, first, last, comb(k, first))
        weights = _binomials(k, 0, min(k, order), 1)[1:]
    acc = _PackedRows(order, alpha, ((-j, w) for j, w in enumerate(starts, first)))
    for lam in range(order + 1):
        reach = list(enumerate(weights[:order // (lam + 1)], 1))
        acc.fit(sum(w for _, w in reach))
        for sign in (1, -1):
            acc.sweep([(sign * j, j * (lam + 1), w) for j, w in reach], sign > 0)
        acc.cut(lam + 2)
    return TruncSeries(ZZ, acc.coefficients(alpha), order)
