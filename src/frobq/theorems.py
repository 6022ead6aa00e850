"""Closed forms for the array counting functions, and their proof identities.

The two counting families have theta-quotient generating functions.  With
S = m_1 + ... + m_(k-1) ranging over integer lattice vectors and the
quadratic exponent

    Q(m) = sum C(m_i + 1, 2) + C(alpha - S + 1, 2)
         = [ sum m_i^2 + (S - alpha)^2 + alpha ] / 2,

the colored counts have generating function  (sum_m q^Q) / (q;q)^k  and the
repetition counts have the same shape with each lattice term weighted by
(-1)^alpha zeta^(m_1(1-k) + m_2(2-k) + ... + m_(k-1)(-1) + k*alpha) for zeta
a primitive (k+1)-th root of unity; all the root-of-unity contributions must
cancel.  Both fold one table of the numerator, which a walk over the lattice
counts by (Q, zeta exponent mod k+1), by whole exponent columns: colored
adds them all, and repetition folds each coordinate of the power basis of
Z[zeta], divides the constant one once and scans the others for the
cancellation.  From k = THETA_POWER_FROM_K on, colored uses [z^alpha] theta^k
for theta = sum_m z^m q^(m(m+1)/2) (put m_k = alpha - S), built by k
multiplications by theta.  The division by (q;q)^k makes one division by
Jacobi's cube (q;q)^3 for each whole three in k and divides by the
pentagonal series for the rest.

Note the cross terms m_i*m_j land OUTSIDE the /2 when Q is expanded:
Q = sum m_i^2 + sum_{i<j} m_i m_j - alpha*S + (alpha^2 + alpha)/2.  The
binomial form above is the definition of record here; it is what the k=2
product formulas and the enumeration oracle pin down.

For k=2, alpha=-1 both families collapse to infinite products (phi2m1 and
cphi2m1 below), and the module also exposes the intermediate product
identities used on the way to the mod-5 divisibility pattern of their
5n+4 coefficients, and the battery's two classical identities: Euler's cube
and Jacobi's triple product.  Every closed-form sum is built by `_sparse_sum`.
"""

from __future__ import annotations

from math import isqrt
from operator import add, index, sub

from .qseries import (ZZ, BivarSeries, TruncSeries, euler_product, parse_product_spec,
                      product_from_spec)


# Refuse lattices too large to walk in seconds.  The estimate is the box
# that contains every kept point, the walk's first interval to the power
# k - 1, each side counted as at least 2; the walk itself visits only kept
# points, but at k=9, N=60 even those are too many.  The colored theta
# power (from THETA_POWER_FROM_K on) costs far less than the walk at the
# same box; the box still bounds it, to be replaced by its own cost.
MAX_LATTICE_BOX = 5_000_000

# Refuse divisions by (q;q)^k above this many coefficient updates, counted
# as k pentagonal divisions.  The largest accepted ones take 8-10 s on a
# 2-CPU x86 guest, 140-160 ns an update as the coefficients grow past a
# thousand bits: k=1, N=145055 in 9.5 s; k=2, N=91417 in 8.3 s; k=3,
# N=69784 in 9.4 s.  From k = 3 on, a cube division makes fewer updates
# than the three counted for it: re-timed in turns, best of 3, k=3,
# N=69784 took 5.5 s as three pentagonal divisions and 4.1 s as one cube.
MAX_DIVISION_WORK = 60_000_000

# The colored numerator is the theta power from this k on, and the walk's
# table folded over its exponents below it.  Best of 7 on a 2-CPU x86
# guest, walk and fold against power: k=4, alpha=-1, N=40 0.65 ms against
# 1.41 ms; k=4, alpha=0, N=600 19.7 ms against 87 ms; k=5, alpha=-2, N=24
# 2.6 ms against 1.2 ms; k=5, alpha=0, N=100 19 ms against 5.6 ms.  Over
# the accepted region of k = 5..12 with N <= 16 (best of 5, twice) the
# walk still won only at N <= 12, and above N = 6 only at k = 5, where both
# take under 0.5 ms, by at most 0.13 ms.
THETA_POWER_FROM_K = 5


class NonIntegralCoefficientError(ArithmeticError):
    """A coefficient that must be a plain integer came out genuinely cyclotomic.

    This is the built-in detector for a wrong root-of-unity exponent: it
    signals that the closed form being evaluated is not the one the counts
    satisfy.
    """

    def __init__(self, index: int, value):
        super().__init__(f"coefficient of q^{index} is not a rational integer: {value!r}")
        self.index = index
        self.value = value

    def __reduce__(self):
        # BaseException pickles self.args, the one-string message
        return type(self), (self.index, self.value)


def _choose2(t: int) -> int:
    # C(t, 2) = t(t-1)/2 for ANY integer t, negatives included
    return t * (t - 1) // 2


def quad_exponent(k: int, alpha: int, m) -> int:
    """The lattice exponent Q(m_1..m_(k-1)) in its binomial form of record.

    Every argument is an int, or TypeError is raised."""
    k, alpha, m = index(k), index(alpha), tuple(map(index, m))
    if len(m) != k - 1:
        raise ValueError(f"need exactly {k - 1} lattice coordinates, got {len(m)}")
    s = sum(m)
    return sum(_choose2(mi + 1) for mi in m) + _choose2(alpha - s + 1)


def _interval(free: int, budget: int, c: int) -> tuple[int, int]:
    # The integers m with free*(budget - m*m) >= (c + m)^2, as (lo, hi); empty
    # when lo > hi.  With `free` coordinates left, this one included, the rest
    # add at least (c + m)^2 / free to the squares, so this is the exact
    # Fincke-Pohst interval.  The test is (free+1)m^2 + 2cm + c^2 - free*budget
    # <= 0, with roots (-c -+ sqrt(d))/(free+1) for d = free*((free+1)*budget
    # - c^2), so lo = -floor((c + sqrt(d))/(free+1)) and hi = floor((sqrt(d)
    # - c)/(free+1)).  Write sqrt(d) = s + x with s = isqrt(d), 0 <= x < 1:
    # for an integer p, floor((p + x)/(free+1)) = p // (free+1), so both
    # floors are exact.
    d = free * ((free + 1) * budget - c * c)
    if d < 0:
        return 1, 0
    s = isqrt(d)
    return -((c + s) // (free + 1)), (s - c) // (free + 1)


def _lattice_guard(k: int, alpha: int, order: int) -> bool:
    # Route 3's one guard, before any table: k, the order and the division
    # by (q;q)^k, then whether any lattice point has Q <= order, refusing a
    # box above MAX_LATTICE_BOX.  Q is symmetric in m_1..m_(k-1), so each
    # coordinate of a kept point lies in the walk's first interval; an empty
    # one means an empty lattice.  The walk recurses once a coordinate, so
    # each counts as at least 2 values; from k - 1 = the limit's bit length
    # on, 2^(k-1) alone exceeds the limit, and the box is named, not built.
    # A number that is not an int raises TypeError, even on an empty lattice.
    # At k = 1 there is no coordinate: the one point m = alpha is kept by the
    # walk's own test.
    k, alpha, order = index(k), index(alpha), index(order)
    if k < 1:
        raise ValueError("k must be >= 1")
    work = division_work(k, order)  # refuses a negative order
    if work > MAX_DIVISION_WORK:
        raise ValueError(f"division guard: {work} coefficient updates exceed "
                         f"MAX_DIVISION_WORK={MAX_DIVISION_WORK}")
    if k == 1:
        return alpha * alpha <= 2 * order - alpha
    lo, hi = _interval(k - 1, 2 * order - alpha, -alpha)
    if lo > hi:
        return False
    side = max(hi - lo + 1, 2)
    huge = k - 1 >= MAX_LATTICE_BOX.bit_length()
    box = f"{side}^{k - 1}" if huge else side ** (k - 1)
    if huge or box > MAX_LATTICE_BOX:
        raise ValueError(f"lattice guard: box of {box} points exceeds "
                         f"MAX_LATTICE_BOX={MAX_LATTICE_BOX}")
    return True


def _lattice_table(k: int, alpha: int, order: int) -> list[int]:
    # Counts of the lattice points with Q <= order, flat by (Q, zeta exponent
    # mod k+1): entry Q*(k+1) + e, so table[e::k+1] is exponent column e.
    # Both variants reduce it by `_fold`, colored with every weight 1.  Q <= order
    # is sum m_i^2 + (S - alpha)^2 <= 2*order - alpha; the walk keeps the
    # square sum P, c = S - alpha and the exponent, which starts at k*alpha
    # and in which coordinate i weighs i+1-k, minus its count of free ones.
    width = k + 1
    table = [0] * ((order + 1) * width)
    limit = 2 * order - alpha

    def walk(free, p, c, e):
        lo, hi = _interval(free, limit - p, c)
        if free > 1:
            for m in range(lo, hi + 1):
                walk(free - 1, p + m * m, c + m, e - free * m)
            return
        for m in range(lo, hi + 1):
            q = (p + m * m + (c + m) ** 2 + alpha) // 2
            table[q * width + (e - m) % width] += 1

    e = k * alpha
    if k > 1:
        walk(k - 1, 0, -alpha, e)
    elif alpha * alpha <= limit:
        table[(alpha * alpha + alpha) // 2 * width + e % width] += 1
    return table


def _fold(table: list[int], weights: list[int]) -> list[int]:
    # sum_e weights[e] * table[e::k+1], for k + 1 = len(weights).  Every
    # weight is -1, 0 or 1: x^e for e <= k has such power basis coordinates
    # in Z[zeta_(k+1)] for every k + 1 < 105, and the box guard refuses k >= 24.
    width = len(weights)
    out = [0] * (len(table) // width)
    for e, w in enumerate(weights):
        if w:
            out = list(map(sub if w < 0 else add, out, table[e::width]))
    return out


def _split_cost(r: int, t: int) -> int:
    # The least sum of m(m+1)/2 over r >= 1 integers that sum to t.  The cost
    # is convex, so the balanced split wins: b of them a + 1 and r - b of
    # them a, for t = r*a + b with 0 <= b < r.
    a, b = divmod(t, r)
    return (b * (a + 1) * (a + 2) + (r - b) * a * (a + 1)) // 2


def _theta_power(k: int, alpha: int, order: int) -> list[int]:
    # The colored numerator [z^alpha] theta^k, theta = sum_m z^m q^(m(m+1)/2),
    # which the walk's table, folded over its exponents, is too.  Row s of the
    # product so far is a q-count list; each factor adds every row, shifted
    # by m(m+1)/2, into row s + m.  After factor i, row s can still reach
    # z^alpha only through k - i factors that sum to alpha - s, so it keeps
    # q <= order - _split_cost(k - i, alpha - s) and, after the last one,
    # row alpha alone keeps q <= order.  Before factor i, row s is zero
    # below _split_cost(i - 1, s), and that prefix is not added.
    t = (isqrt(8 * order + 1) - 1) // 2  # the largest m >= 0 with m(m+1)/2 <= order
    terms = [(m * (m + 1) // 2, m) for m in range(-t - 1, t + 1)]
    rows = {0: [1]}
    for i in range(1, k + 1):
        left, new = k - i, {}
        for s, row in rows.items():
            start = _split_cost(i - 1, s) if i > 1 else 0
            for cost, m in terms:
                z = s + m
                target = new.get(z)
                if target is None:
                    if left:
                        keep = order + 1 - _split_cost(left, alpha - z)
                    else:
                        keep = order + 1 if z == alpha else 0
                    if keep <= cost + start:
                        continue
                    target = new[z] = [0] * keep
                n = min(len(row), len(target) - cost)
                if n > start:
                    target[cost + start:cost + n] = map(add, target[cost + start:cost + n],
                                                        row[start:n])
        rows = new
    return rows.get(alpha, [0] * (order + 1))


def _pentagonal_exponents(order: int) -> tuple[list[int], list[int]]:
    # The generalized pentagonal numbers g = j(3j-1)/2, j(3j+1)/2 in 1..order,
    # split by sign: (q;q) = 1 - sum_(j odd) q^g + sum_(j even) q^g.
    odd, even = [], []
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        side = odd if j % 2 else even
        side.extend(g for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if g <= order)
        j += 1
    return odd, even


def _divide_by_euler(coeffs: list[int], times: int) -> None:
    # coeffs /= (q;q)^times in place over ZZ.  Each division walks up, so
    # every update reads only quotient coefficients; O(N^1.5) a division.
    # Each whole three in `times` is one division by Jacobi's cube (q;q)^3 =
    # sum_j (-1)^j (2j+1) q^(j(j+1)/2), c[n] -= sum_(j>=1) (-1)^j (2j+1)
    # c[n - j(j+1)/2], about sqrt(2N) terms; each of the rest divides by the
    # pentagonal series, c[n] += sum_odd c[n-g] - sum_even c[n-g], about
    # 1.63 sqrt(N) terms.
    order = len(coeffs) - 1
    t = (isqrt(8 * order + 1) - 1) // 2  # the largest j with j(j+1)/2 <= order
    cube = [(j * (j + 1) // 2, 2 * j + 1 if j % 2 else -2 * j - 1) for j in range(1, t + 1)]
    for _ in range(times // 3):
        for n in range(1, len(coeffs)):
            acc = coeffs[n]
            for g, w in cube:
                if g > n:
                    break
                acc += w * coeffs[n - g]
            coeffs[n] = acc
    odd, even = _pentagonal_exponents(order)
    for _ in range(times % 3):
        for n in range(1, len(coeffs)):
            acc = coeffs[n]
            for g in odd:
                if g > n:
                    break
                acc += coeffs[n - g]
            for g in even:
                if g > n:
                    break
                acc -= coeffs[n - g]
            coeffs[n] = acc


def division_work(k: int, order: int) -> int:
    """Coefficient updates of k pentagonal divisions, dividing by (q;q)^k.

    This bounds what `_divide_by_euler` makes: it divides by Jacobi's cube
    once for each whole three in k, whose about sqrt(2N) terms a
    coefficient are fewer than the three pentagonal divisions counted for
    it.  Each generalized pentagonal g <= order updates the order + 1 - g
    coefficients from q^g up, once a division.  The g are j(3j-1)/2 for
    j = 1..a and j(3j+1)/2 for j = 1..b, a and b the largest j that keep
    g <= order; they sum to a^2(a+1)/2 and b(b+1)^2/2, so the count takes
    no time at any order.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    s = isqrt(24 * order + 1)
    a, b = (s + 1) // 6, (s - 1) // 6
    return k * ((a + b) * (order + 1) - a * a * (a + 1) // 2 - b * (b + 1) ** 2 // 2)


def cphi_theta_series(k: int, alpha: int, order: int) -> TruncSeries:
    """Colored-count generating function: (sum over the lattice of q^Q) / (q;q)^k.

    The numerator is the walk's table below k = THETA_POWER_FROM_K and the
    theta power [z^alpha] theta^k from there on."""
    if not _lattice_guard(k, alpha, order):
        return TruncSeries.zero(ZZ, order)
    coeffs = (_theta_power(k, alpha, order) if k >= THETA_POWER_FROM_K
              else _fold(_lattice_table(k, alpha, order), [1] * (k + 1)))
    _divide_by_euler(coeffs, k)
    return TruncSeries(ZZ, coeffs, order)


def phi_theta_series(k: int, alpha: int, order: int, *,
                     zeta_exponent_shift: int = 0) -> TruncSeries:
    """Repetition-count generating function via the root-of-unity lattice sum.

    The lattice sum is counted by (Q, zeta exponent) and folded, whole
    exponent columns at a time, into each coordinate of the power basis of
    Z[zeta_(k+1)]; only the constant one is divided by (q;q)^k.  That series
    is 1 + O(q) over ZZ, so every other coordinate of the quotient first
    turns nonzero where the numerator's does, with the same value: after the
    one division, the scan of the folded coordinates stops at the first such
    index and raises NonIntegralCoefficientError.  `zeta_exponent_shift` adds
    to every root-of-unity exponent as the table is folded, and exists so
    the benchmark's self-check can prove the detector actually fires; leave
    it at 0.
    """
    from .exactring import CycInt, _power_basis_rows

    if not _lattice_guard(k, alpha, order):
        return TruncSeries.zero(ZZ, order)
    width, table = k + 1, _lattice_table(k, alpha, order)
    rows = _power_basis_rows(width)
    sign = -1 if alpha % 2 else 1
    constant, *others = (_fold(table, [sign * rows[(e + zeta_exponent_shift) % width][i]
                                       for e in range(width)]) for i in range(len(rows[0])))
    _divide_by_euler(constant, k)
    for q, coords in enumerate(zip(*others)):
        if any(coords):
            raise NonIntegralCoefficientError(q, CycInt(width, [constant[q], *coords]))
    return TruncSeries(ZZ, constant, order)


# ---------------------------------------------------------------------------
# k=2, alpha=-1 product formulas
# ---------------------------------------------------------------------------

PHI2M1_SPEC_TEXT = "-,2,1,-2; -,12,8,-1; -,12,6,-1; -,12,4,-1; -,12,0,-1"
CPHI2M1_SPEC_TEXT = "-,2,0,1; +,2,0,1; +,2,2,1; -,1,0,-2"


def phi2m1_product(order: int) -> TruncSeries:
    """Repetition counts at k=2, alpha=-1 as the product
    1 / prod (1-q^(2n-1))^2 (1-q^(12n-8)) (1-q^(12n-6)) (1-q^(12n-4)) (1-q^(12n))."""
    return product_from_spec(parse_product_spec(PHI2M1_SPEC_TEXT), order)


def cphi2m1_product(order: int) -> TruncSeries:
    """Colored counts at k=2, alpha=-1 as the product
    prod (1-q^(2n)) (1+q^(2n)) (1+q^(2n-2)) / (1-q^n)^2."""
    return product_from_spec(parse_product_spec(CPHI2M1_SPEC_TEXT), order)


# 1 - x + x^2 = (1 + x^3) / (1 + x) at x = q^(2i) turns the trinomial into
# binomials.
PSI2_SPEC_TEXT = "-,2,0,1; +,6,0,1; +,2,0,-1; -,1,0,-2"
PSI2_MUTANT_SPEC_TEXT = "-,2,0,1; -,6,0,1; +,2,0,-1; -,1,0,-2"


def psi2_product(order: int, *, mutated: bool = False) -> TruncSeries:
    """prod_{i>=1} (1 - q^(2i)) (1 - q^(2i) + q^(4i)) / (q;q)^2, expanded as
    the product-DSL spec PSI2_SPEC_TEXT and guarded like every DSL expansion.

    With mutated=True the numerator factor (1 + q^(6i)) becomes (1 - q^(6i)),
    which breaks the identity with the phi2m1 product; tests use it to show
    the comparison has teeth.
    """
    text = PSI2_MUTANT_SPEC_TEXT if mutated else PSI2_SPEC_TEXT
    return product_from_spec(parse_product_spec(text), order)


# ---------------------------------------------------------------------------
# Mod-5 numerator identity: three routes to the same series
# ---------------------------------------------------------------------------

MOD5_NUMERATOR_SPEC_TEXT = "-,2,0,1; -,12,2,1; -,12,10,1"


def mod5_numerator_product(order: int) -> TruncSeries:
    """prod_{n>=1} (1 - q^(2n)) (1 - q^(12n-2)) (1 - q^(12n-10))."""
    return product_from_spec(parse_product_spec(MOD5_NUMERATOR_SPEC_TEXT), order)


def mod5_numerator_theta(order: int) -> TruncSeries:
    """sum_m q^(9m^2 - 3m) - q^(9m^2 + 9m + 2) over all integers m."""
    t = _triangular_root(order)
    return _sparse_sum(order, ((e, c) for m in range(-t, t + 1)
                               for e, c in ((9 * m * m - 3 * m, 1), (9 * m * m + 9 * m + 2, -1))))


def mod5_numerator_signed(order: int) -> TruncSeries:
    """sum_{j>=0} a_j q^(j^2 + j) with a_j = 1 for j = 0,2 mod 3 and -2 for j = 1 mod 3."""
    return _sparse_sum(order, ((j * j + j, -2 if j % 3 == 1 else 1)
                               for j in range(_triangular_root(order) + 1)))


# ---------------------------------------------------------------------------
# Closed-form sums, Euler's cube and Jacobi's triple product
# ---------------------------------------------------------------------------


def _triangular_root(order: int) -> int:
    # the largest t >= 0 with t(t+1)/2 <= order, that is (2t+1)^2 <= 8*order+1
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    return (isqrt(8 * order + 1) - 1) // 2


def _sparse_sum(order: int, terms) -> TruncSeries:
    # sum c q^e over the (e, c) in `terms`, every e >= 0, dropping e > order.
    # Each caller runs its index j over |j| <= _triangular_root(order): all
    # its exponents are at least |j|(|j|+1)/2, so it skips no term kept here.
    coeffs = [0] * (order + 1)
    for e, c in terms:
        if e <= order:
            coeffs[e] += c
    return TruncSeries(ZZ, coeffs, order)


def euler_cube(order: int) -> TruncSeries:
    """sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2), the cube of the Euler product."""
    return _sparse_sum(order, ((j * (j + 1) // 2, -(2 * j + 1) if j % 2 else 2 * j + 1)
                               for j in range(_triangular_root(order) + 1)))


# Refuse triple products above this many coefficient updates: about 3 s on
# a 2-CPU x86 guest over ZZ; the largest accepted order is 961.
MAX_JACOBI_WORK = 43_400_000


def jacobi_work(order: int) -> int:
    """Coefficient updates `jacobi_triple` performs on its product side, at most.

    Row z^m starts no lower than q^(m(m+1)/2).  With L = order + 1 -
    m(m+1)/2, the factors z^-1 q^(n-1) for n = 1..order+1 update it over at
    most L(L+1)/2 coefficients and z q^n for n = 1..order over at most
    L(L-1)/2: L^2 in all.  Rows m >= 0 and -m-1 start alike, so each m >= 0
    counts twice.  The sum over m <= t is here in closed form, with
    sum T_m = p/6 and sum T_m^2 = p(3t^2 + 6t + 1)/60 for T_m = m(m+1)/2
    and p = t(t+1)(t+2), so a huge order is refused at once."""
    t, a = _triangular_root(order), order + 1
    p = t * (t + 1) * (t + 2)
    return 2 * (t + 1) * a * a - 2 * a * p // 3 + p * (3 * t * t + 6 * t + 1) // 30


def jacobi_guard(order: int) -> None:
    """Raise ValueError when `jacobi_work(order)` exceeds MAX_JACOBI_WORK."""
    work = jacobi_work(order)
    if work > MAX_JACOBI_WORK:
        raise ValueError(f"triple product guard: {work} coefficient updates exceed "
                         f"MAX_JACOBI_WORK={MAX_JACOBI_WORK}")


def jacobi_triple(order: int):
    """Both sides of the triple product identity, for equality testing.

    Product side: prod_{n>=1} (1 - q^n)(1 + z q^n)(1 + z^{-1} q^{n-1}),
    started from row z^0 = (q;q), the Euler product, with the two z factors
    of each n applied to it; sum side: sum_m z^m q^(m(m+1)/2).  The z window
    [-(up+1), up] is exact: z^m costs at least q^(m(m+1)/2) on both sides,
    which is the same for m and -m-1, so with up the largest m >= 0 whose
    cost fits in q-degree `order` no term is ever clipped.
    Guarded: `jacobi_guard` refuses before anything is expanded.
    """
    jacobi_guard(order)
    up = _triangular_root(order)
    zmin, zmax = -(up + 1), up
    euler = euler_product(order).coeffs
    product = BivarSeries.from_terms(order, zmin, zmax, ((0, e, c) for e, c in enumerate(euler)))
    for n in range(1, order + 2):
        product.apply_factor(-1, n - 1)
        if n <= order:
            product.apply_factor(1, n)
    theta = BivarSeries.from_terms(order, zmin, zmax,
                                   ((m, m * (m + 1) // 2, 1) for m in range(zmin, zmax + 1)))
    return product, theta
