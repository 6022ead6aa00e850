"""Cyclotomic integers Z[zeta], the repetition theta route's lattice weights.

zeta is a primitive n-th root of unity, and the theta route needs Z[zeta]
only to reduce integer counts of lattice points by zeta exponent: a
cyclotomic integer is stored in the power basis 1, z, ..., z^(d-1) of
Z[x]/Phi_n(x), where Phi_n is the n-th cyclotomic polynomial and d = phi(n)
its degree.  The representation is unique, so "is this a plain integer" is a
zero test on the non-constant coordinates.  CycInt is the value of such an
element, as reported by the theta route's integrality detector.  The
coefficient rings of the series layer (ZZ, ModRing) live in `qseries`.
"""

from __future__ import annotations

import functools

from ._value import FrozenValue


# ---------------------------------------------------------------------------
# Dense integer polynomials (constant term first), just enough for Phi_n.
# ---------------------------------------------------------------------------


def _poly_div_exact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    # Long division that must leave remainder zero (den divides num over Z).
    work = list(num)
    dlen = len(den)
    dlead = den[-1]
    quot = [0] * (len(num) - dlen + 1)
    for i in reversed(range(len(quot))):
        c = work[i + dlen - 1]
        if c % dlead:
            raise ArithmeticError("inexact polynomial division")
        c //= dlead
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                work[i + j] -= c * dj
    if any(work):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quot)


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(order: int) -> tuple[int, ...]:
    """Dense coefficients, constant term first, of the cyclotomic polynomial.

    Computed by dividing x^order - 1 by the cyclotomic polynomials of all
    proper divisors; orders in use are tiny, so simplicity wins.

    >>> cyclotomic_poly(1), cyclotomic_poly(2)
    ((-1, 1), (1, 1))
    >>> cyclotomic_poly(3), cyclotomic_poly(4), cyclotomic_poly(6)
    ((1, 1, 1), (1, 0, 1), (1, -1, 1))
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    poly = (-1,) + (0,) * (order - 1) + (1,)
    for d in range(1, order):
        if order % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_poly(d))
    return poly


@functools.lru_cache(maxsize=None)
def _power_basis_rows(order: int) -> tuple[tuple[int, ...], ...]:
    # rows[e] expresses x^e in the power basis mod Phi_order, for every e a
    # product reduction (degree <= 2d-2) or an exponent lookup (e < order)
    # can hit.
    phi = cyclotomic_poly(order)
    deg = len(phi) - 1
    rows = [tuple(1 if i == e else 0 for i in range(deg)) for e in range(deg)]
    top = max(2 * deg - 2, order - 1)
    red = tuple(-c for c in phi[:deg])  # x^deg in the basis (Phi is monic)
    for e in range(deg, top + 1):
        prev = rows[e - 1]
        carry = prev[deg - 1]
        rows.append(tuple((prev[i - 1] if i else 0) + carry * red[i] for i in range(deg)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Cyclotomic integers
# ---------------------------------------------------------------------------


class CycInt(FrozenValue):
    """An element of Z[zeta] for zeta a primitive `order`-th root of unity.

    `coeffs` always has length exactly deg(Phi_order); inputs may be
    shorter and are zero-padded.  Multiplication reduces modulo the
    cyclotomic polynomial, so e.g. in order 3 the square of the generator
    comes out as (-1, -1), i.e. -1 - zeta.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 1:
            raise ValueError("order must be >= 1")
        deg = len(cyclotomic_poly(order)) - 1
        coeffs = tuple(coeffs)
        if len(coeffs) > deg:
            raise ValueError(f"at most {deg} coordinates for order {order}")
        super().__init__(order, coeffs + (0,) * (deg - len(coeffs)))

    @classmethod
    def _from_poly(cls, order: int, poly) -> "CycInt":
        # poly: dense coefficient list of any degree the reduction rows cover
        rows = _power_basis_rows(order)
        deg = len(rows[0])
        out = [0] * deg
        for e, c in enumerate(poly):
            if not c:
                continue
            if e < deg:
                out[e] += c
            else:
                row = rows[e]
                for i in range(deg):
                    out[i] += c * row[i]
        return cls(order, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.order, tuple(a * other for a in self.coeffs))
        if not isinstance(other, CycInt):
            return NotImplemented
        if other.order != self.order:
            raise ValueError(f"mixed root orders {self.order} and {other.order}")
        a, b = self.coeffs, other.coeffs
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return CycInt._from_poly(self.order, prod)

    __rmul__ = __mul__

    def __repr__(self):
        return f"CycInt({self.order}, {list(self.coeffs)})"

    def as_int(self) -> int | None:
        """The plain-integer value, or None when a non-constant coordinate is set."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]


def zeta_pow(order: int, e: int) -> CycInt:
    """zeta^e reduced into the power basis; e may be negative.

    >>> zeta_pow(3, -1)
    CycInt(3, [-1, -1])
    >>> zeta_pow(4, 2).as_int()
    -1
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return CycInt(order, _power_basis_rows(order)[e % order])
