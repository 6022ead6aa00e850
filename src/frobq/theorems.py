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
cancel, which `phi_theta_series` checks coefficient by coefficient.

Note the cross terms m_i*m_j land OUTSIDE the /2 when Q is expanded:
Q = sum m_i^2 + sum_{i<j} m_i m_j - alpha*S + (alpha^2 + alpha)/2.  The
binomial form above is the definition of record here; it is what the k=2
product formulas and the enumeration oracle pin down.

For k=2, alpha=-1 both families collapse to infinite products (phi2m1 and
cphi2m1 below), and the module also exposes the intermediate product
identities used on the way to the mod-5 divisibility pattern of their
5n+4 coefficients.
"""

from __future__ import annotations

from math import isqrt

from .exactring import ZZ, CycInt, _power_basis_rows
from .qseries import TruncSeries, parse_product_spec, product_from_spec


# Refuse lattices too large to walk in seconds.  The estimate is the box
# (2*isqrt(2N+|alpha|)+1)^(k-1) that contains every kept point; the walk
# itself visits only kept points, but at k=9, N=60 even those are too many.
MAX_LATTICE_BOX = 5_000_000


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


def _choose2(t: int) -> int:
    # C(t, 2) = t(t-1)/2 for ANY integer t, negatives included
    return t * (t - 1) // 2


def quad_exponent(k: int, alpha: int, m) -> int:
    """The lattice exponent Q(m_1..m_(k-1)) in its binomial form of record."""
    m = tuple(m)
    if len(m) != k - 1:
        raise ValueError(f"need exactly {k - 1} lattice coordinates, got {len(m)}")
    s = sum(m)
    return sum(_choose2(mi + 1) for mi in m) + _choose2(alpha - s + 1)


def _interval(free: int, budget: int, c: int) -> tuple[int, int]:
    # The integers m with free*(budget - m*m) >= (c + m)^2, as (lo, hi); empty
    # when lo > hi.  With `free` coordinates left, this one included, the rest
    # add at least (c + m)^2 / free to the squares, so this is the exact
    # Fincke-Pohst interval.  Its test is concave in m with the peak at
    # -c/(free+1), so walk outward from there.
    top = -c // (free + 1)
    hi = top
    while free * (budget - (hi + 1) ** 2) >= (c + hi + 1) ** 2:
        hi += 1
    lo = top + 1
    while free * (budget - (lo - 1) ** 2) >= (c + lo - 1) ** 2:
        lo -= 1
    return lo, hi


def _lattice_table(k: int, alpha: int, order: int, shift: int = 0) -> list[int]:
    # Counts of the lattice points with Q <= order, flat by (Q, zeta exponent
    # mod k+1): entry Q*(k+1) + e.  Q <= order is
    # sum m_i^2 + (S - alpha)^2 <= 2*order - alpha, and the walk keeps the
    # running square sum P, c = S - alpha and the exponent, in which
    # coordinate i carries weight i+1-k, i.e. minus its count of free ones.
    bound = isqrt(2 * order + abs(alpha))
    box = (2 * bound + 1) ** (k - 1)
    if box > MAX_LATTICE_BOX:
        raise ValueError(f"lattice guard: box of {box} points exceeds "
                         f"MAX_LATTICE_BOX={MAX_LATTICE_BOX}")
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

    e = k * alpha + shift
    if k > 1:
        walk(k - 1, 0, -alpha, e)
    elif alpha * alpha <= limit:
        table[(alpha * alpha + alpha) // 2 * width + e % width] += 1
    return table


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
    # c[n] += sum_odd c[n-g] - sum_even c[n-g] reads only quotient
    # coefficients; about sqrt(N) terms each, O(N^1.5) a division.
    odd, even = _pentagonal_exponents(len(coeffs) - 1)
    for _ in range(times):
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


def _check_args(k: int, order: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if order < 0:
        raise ValueError("truncation order must be >= 0")


def cphi_theta_series(k: int, alpha: int, order: int) -> TruncSeries:
    """Colored-count generating function: (sum over the lattice of q^Q) / (q;q)^k."""
    _check_args(k, order)
    table = _lattice_table(k, alpha, order)
    width = k + 1
    coeffs = [sum(table[q * width:(q + 1) * width]) for q in range(order + 1)]
    _divide_by_euler(coeffs, k)
    return TruncSeries(ZZ, coeffs, order)


def phi_theta_series(k: int, alpha: int, order: int, *,
                     zeta_exponent_shift: int = 0) -> TruncSeries:
    """Repetition-count generating function via the root-of-unity lattice sum.

    The lattice sum is counted by (Q, zeta exponent) and each Q row is
    reduced to the power basis of Z[zeta_(k+1)]; only the constant coordinate
    is then divided by (q;q)^k.  That series is 1 + O(q) over ZZ, so every
    other coordinate of the quotient first turns nonzero where the
    numerator's does, with the same value: the first such index raises
    NonIntegralCoefficientError.  `zeta_exponent_shift` perturbs every
    root-of-unity exponent and exists so tests can prove the detector
    actually fires; leave it at 0.
    """
    _check_args(k, order)
    table = _lattice_table(k, alpha, order, zeta_exponent_shift)
    width = k + 1
    basis = _power_basis_rows(width)
    sign = -1 if alpha % 2 else 1
    numerator = []
    for q in range(order + 1):
        coords = [0] * len(basis[0])
        for e, count in enumerate(table[q * width:(q + 1) * width]):
            if count:
                for i, b in enumerate(basis[e]):
                    coords[i] += sign * count * b
        numerator.append(coords)
    constant = [coords[0] for coords in numerator]
    for idx, coords in enumerate(numerator):
        if any(coords[1:]):
            del constant[idx + 1:]
            _divide_by_euler(constant, k)
            raise NonIntegralCoefficientError(idx, CycInt(width, [constant[idx], *coords[1:]]))
    _divide_by_euler(constant, k)
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
    coeffs = [0] * (order + 1)
    bound = isqrt(order) + 2
    for m in range(-bound, bound + 1):
        e = 9 * m * m - 3 * m
        if 0 <= e <= order:
            coeffs[e] += 1
        e = 9 * m * m + 9 * m + 2
        if 0 <= e <= order:
            coeffs[e] -= 1
    return TruncSeries(ZZ, coeffs, order)


def mod5_numerator_signed(order: int) -> TruncSeries:
    """sum_{j>=0} a_j q^(j^2 + j) with a_j = 1 for j = 0,2 mod 3 and -2 for j = 1 mod 3."""
    coeffs = [0] * (order + 1)
    j = 0
    while j * j + j <= order:
        coeffs[j * j + j] += 1 if j % 3 in (0, 2) else -2
        j += 1
    return TruncSeries(ZZ, coeffs, order)
