"""Truncated formal power series in q over an exact coefficient ring.

A TruncSeries holds coefficients for q^0 .. q^N inclusive and nothing beyond;
binary operations truncate at min(N_a, N_b) so precision loss is always
explicit.  On top of the core ring operations this module provides:

  * the Euler product (q;q) = prod (1 - q^n) and its cube as a theta-style sum,
  * a tiny product DSL: each factor (sign, period, residue, exponent) denotes
    prod_{n>=1} (1 + sign * q^(period*n - residue))^exponent,
  * BivarSeries, a two-variable series truncated in q and confined to a window
    of z-exponents, used to slice out fixed-row-difference coefficients,
  * both sides of the Jacobi triple product identity
        prod_{n>=1} (1 - q^n)(1 + z q^n)(1 + z^{-1} q^{n-1})
            = sum_m z^m q^(m(m+1)/2)
    as bivariate series for equality testing.

Everything is pure and exact; there are no floats anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .exactring import ZZ


class RingMismatchError(ValueError):
    """Two series over different coefficient rings were combined."""


class ProductSpecError(ValueError):
    """A product-DSL string failed to parse or validate.

    `position` is the character offset of the offending token in the input.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class TruncSeries:
    """Formal power series in q truncated at order N (coefficients 0..N)."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("need coefficients or an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        del coeffs[order + 1:]
        coeffs += [ring.zero] * (order + 1 - len(coeffs))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, ring, values, order: int | None = None) -> "TruncSeries":
        """Build a series from plain ints, coercing each through the ring."""
        return cls(ring, [ring.from_int(v) for v in values], order)

    @classmethod
    def zero(cls, ring, order: int) -> "TruncSeries":
        return cls(ring, [], order)

    @classmethod
    def one(cls, ring, order: int) -> "TruncSeries":
        return cls(ring, [ring.one], order)

    @classmethod
    def monomial(cls, ring, order: int, exponent: int, coeff=None) -> "TruncSeries":
        """coeff * q^exponent, silently zero when exponent exceeds the order."""
        if coeff is None:
            coeff = ring.one
        coeffs = [ring.zero] * (order + 1)
        if 0 <= exponent <= order:
            coeffs[exponent] = coeff
        return cls(ring, coeffs, order)

    # -- helpers -----------------------------------------------------------

    def _check_ring(self, other: "TruncSeries"):
        if self.ring != other.ring:
            raise RingMismatchError(f"cannot combine {self.ring!r} and {other.ring!r} series")

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation 0..{self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.ring, self.coeffs[: order + 1], order)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        add = self.ring.add
        return TruncSeries(self.ring, [add(a, b) for a, b in zip(self.coeffs, other.coeffs)], n)

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        sub = self.ring.sub
        return TruncSeries(self.ring, [sub(a, b) for a, b in zip(self.coeffs, other.coeffs)], n)

    def __neg__(self):
        neg = self.ring.neg
        return TruncSeries(self.ring, [neg(a) for a in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, int):
            c = self.ring.from_int(other)
            mul = self.ring.mul
            return TruncSeries(self.ring, [mul(a, c) for a in self.coeffs], self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        ring = self.ring
        add, mul, zero = ring.add, ring.mul, ring.zero
        a, b = self.coeffs, other.coeffs
        out = [zero] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if ai == zero:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj == zero:
                    continue
                out[i + j] = add(out[i + j], mul(ai, bj))
        return TruncSeries(ring, out, n)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return (self ** (-e)).inverse()
        result = TruncSeries.one(self.ring, self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse up to the truncation order.

        The constant term must be a unit of the ring (propagates NotUnitError
        otherwise); satisfies self * self.inverse() == 1 up to order N.
        """
        ring = self.ring
        add, mul, neg, zero = ring.add, ring.mul, ring.neg, ring.zero
        inv0 = ring.invert(self.coeffs[0])
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = zero
            for j in range(1, n + 1):
                aj = self.coeffs[j]
                if aj == zero:
                    continue
                acc = add(acc, mul(aj, out[n - j]))
            out.append(neg(mul(inv0, acc)))
        return TruncSeries(ring, out, self.order)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.ring == other.ring and self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self.coeffs[:8])
        if self.order > 7:
            shown += ", ..."
        return f"TruncSeries({self.ring!r}, N={self.order}, [{shown}])"


def first_divergence(a: TruncSeries, b: TruncSeries) -> int | None:
    """Smallest q-exponent where the two series disagree, else None.

    Compares up to the smaller truncation order.
    """
    n = min(a.order, b.order)
    for i in range(n + 1):
        if a.coeffs[i] != b.coeffs[i]:
            return i
    return None


def decimal_coefficients(series: TruncSeries) -> list[str]:
    """Coefficients rendered as decimal strings (exact; no floats)."""
    return [str(c) for c in series.coeffs]


def extract_progression(series: TruncSeries, step: int, offset: int) -> TruncSeries:
    """The series whose n-th coefficient is coefficient step*n + offset of the input."""
    if step < 1 or not 0 <= offset < step:
        raise ValueError("need step >= 1 and 0 <= offset < step")
    picked = list(series.coeffs[offset::step])
    if not picked:
        raise ValueError(f"offset {offset} exceeds truncation order {series.order}")
    return TruncSeries(series.ring, picked)


# ---------------------------------------------------------------------------
# Classical builders
# ---------------------------------------------------------------------------


def _apply_binomial(coeffs: list, sign: int, e: int, ring, divide: bool = False) -> None:
    # coeffs *= (1 + sign*q^e), or coeffs /= it when `divide`; sign is +1 or -1.
    # Multiplying walks down so every source is still an old coefficient;
    # dividing walks up so every source is already a quotient coefficient.
    if e == 0:
        scale = ring.from_int(1 + sign)
        if divide:
            scale = ring.invert(scale)
        for i in range(len(coeffs)):
            coeffs[i] = ring.mul(coeffs[i], scale)
        return
    step = ring.add if (sign > 0) != divide else ring.sub
    zero = ring.zero
    for i in range(e, len(coeffs)) if divide else range(len(coeffs) - 1, e - 1, -1):
        src = coeffs[i - e]
        if src != zero:
            coeffs[i] = step(coeffs[i], src)


def euler_product(order: int, ring=ZZ) -> TruncSeries:
    """prod_{n=1..N} (1 - q^n) truncated at N; later factors cannot contribute."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    coeffs = [ring.one] + [ring.zero] * order
    for n in range(1, order + 1):
        _apply_binomial(coeffs, -1, n, ring)
    return TruncSeries(ring, coeffs, order)


def euler_cube(order: int, ring=ZZ) -> TruncSeries:
    """sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2), the cube of the Euler product."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    coeffs = [ring.zero] * (order + 1)
    j = 0
    while j * (j + 1) // 2 <= order:
        term = (2 * j + 1) if j % 2 == 0 else -(2 * j + 1)
        e = j * (j + 1) // 2
        coeffs[e] = ring.add(coeffs[e], ring.from_int(term))
        j += 1
    return TruncSeries(ring, coeffs, order)


# ---------------------------------------------------------------------------
# Product DSL
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductFactor:
    """One factor family prod_{n>=1} (1 + sign*q^(period*n - residue))^exponent."""

    sign: int
    period: int
    residue: int
    exponent: int

    def validate(self, position: int | None = None) -> None:
        if self.sign not in (1, -1):
            raise ProductSpecError("sign must be + or -", position)
        if self.period < 1:
            raise ProductSpecError("period must be >= 1", position)
        if not 0 <= self.residue <= self.period:
            raise ProductSpecError("residue must lie in 0..period", position)
        if self.exponent == 0:
            raise ProductSpecError("exponent must be nonzero", position)
        if self.residue == self.period and self.sign == -1:
            raise ProductSpecError("factor (1 - q^0) is zero", position)

    def render(self) -> str:
        s = "+" if self.sign > 0 else "-"
        return f"{s},{self.period},{self.residue},{self.exponent}"


@dataclass(frozen=True)
class ProductSpec:
    """A parsed list of infinite-product factor families."""

    factors: tuple[ProductFactor, ...]

    def render(self) -> str:
        return "; ".join(f.render() for f in self.factors)


_SIGN_TOKEN = re.compile(r"^[+-]$")
_INT_TOKEN = re.compile(r"^-?\d+$")


def parse_product_spec(text: str) -> ProductSpec:
    """Parse the factor DSL: `SIGN,PERIOD,RESIDUE,EXP` joined by `;`.

    Whitespace is ignored.  Raises ProductSpecError with the character
    position of the first offending token on syntax errors, and for the
    semantically invalid zero factor (1 - q^0).
    """
    factors = []
    pos = 0
    for chunk in text.split(";"):
        start = pos
        pos += len(chunk) + 1
        if not chunk.strip():
            raise ProductSpecError("empty factor", start)
        parts = chunk.split(",")
        if len(parts) != 4:
            raise ProductSpecError("factor needs exactly sign,period,residue,exponent", start)
        offs, fields = [], []
        field_pos = start
        for part in parts:
            offs.append(field_pos + len(part) - len(part.lstrip()))
            fields.append(part.strip())
            field_pos += len(part) + 1
        if not _SIGN_TOKEN.match(fields[0]):
            raise ProductSpecError(f"expected + or -, got {fields[0]!r}", offs[0])
        for name, idx in (("period", 1), ("residue", 2), ("exponent", 3)):
            if not _INT_TOKEN.match(fields[idx]):
                raise ProductSpecError(f"expected integer {name}, got {fields[idx]!r}", offs[idx])
        factor = ProductFactor(
            sign=1 if fields[0] == "+" else -1,
            period=int(fields[1]),
            residue=int(fields[2]),
            exponent=int(fields[3]),
        )
        factor.validate(start)
        factors.append(factor)
    return ProductSpec(tuple(factors))


def product_from_spec(spec: ProductSpec, order: int, ring=ZZ) -> TruncSeries:
    """Expand the spec's product truncated at `order`.

    Every binomial (1 + sign*q^e) with e <= order is applied in place to one
    coefficient list, |exponent| times: multiplied in for a positive exponent,
    divided out for a negative one.  Dividing by a constant factor (1 + q^0)
    raises NotUnitError when 2 is not a unit of the ring.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    for f in spec.factors:
        f.validate()
    coeffs = [ring.one] + [ring.zero] * order
    for f in spec.factors:
        for e in range(f.period - f.residue, order + 1, f.period):
            for _ in range(abs(f.exponent)):
                _apply_binomial(coeffs, f.sign, e, ring, divide=f.exponent < 0)
    return TruncSeries(ring, coeffs, order)


# ---------------------------------------------------------------------------
# Bivariate series
# ---------------------------------------------------------------------------


class BivarSeries:
    """A series in z and q, truncated at q^order, z-exponents clipped to a window.

    Rows are stored sparsely: `rows[z]` is the dense q-coefficient list for
    z-exponent z; missing rows are zero, and multiplication creates a row only
    when a nonzero term lands in it.  Multiplication drops any product term
    whose z-exponent leaves [zmin, zmax]; the callers in this package compute
    a window that every term of every partial product lies in, so nothing is
    ever dropped.  Unlike TruncSeries this is a mutable working object.
    """

    __slots__ = ("ring", "order", "zmin", "zmax", "rows")

    def __init__(self, ring, order: int, zmin: int, zmax: int, rows: dict | None = None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if zmin > zmax:
            raise ValueError("empty z window")
        self.ring = ring
        self.order = order
        self.zmin = zmin
        self.zmax = zmax
        self.rows = {} if rows is None else rows

    @classmethod
    def one(cls, ring, order: int, zmin: int, zmax: int) -> "BivarSeries":
        out = cls(ring, order, zmin, zmax)
        if zmin <= 0 <= zmax:
            row = [ring.zero] * (order + 1)
            row[0] = ring.one
            out.rows[0] = row
        return out

    @classmethod
    def from_terms(cls, ring, order: int, zmin: int, zmax: int, terms) -> "BivarSeries":
        """Build from (z_exponent, q_exponent, int_coefficient) triples.

        Terms beyond the q truncation or outside the z window are dropped,
        consistent with multiplication semantics.
        """
        out = cls(ring, order, zmin, zmax)
        for z, e, c in terms:
            if not (zmin <= z <= zmax) or not (0 <= e <= order):
                continue
            row = out.rows.get(z)
            if row is None:
                row = [ring.zero] * (order + 1)
                out.rows[z] = row
            row[e] = ring.add(row[e], ring.from_int(c))
        return out

    def _entries(self):
        zero = self.ring.zero
        for z, row in self.rows.items():
            for e, c in enumerate(row):
                if c != zero:
                    yield z, e, c

    def __mul__(self, other: "BivarSeries") -> "BivarSeries":
        if self.ring != other.ring:
            raise RingMismatchError("bivariate ring mismatch")
        order = min(self.order, other.order)
        zmin, zmax = self.zmin, self.zmax
        ring = self.ring
        add, mul, zero = ring.add, ring.mul, ring.zero
        out = BivarSeries(ring, order, zmin, zmax)
        other_entries = list(other._entries())
        for z1, row1 in self.rows.items():
            for z2, e2, c2 in other_entries:
                z = z1 + z2
                if z < zmin or z > zmax:
                    continue
                target = out.rows.get(z)
                for e1 in range(order - e2 + 1):
                    c1 = row1[e1]
                    if c1 != zero:
                        if target is None:
                            target = out.rows[z] = [zero] * (order + 1)
                        target[e1 + e2] = add(target[e1 + e2], mul(c1, c2))
        return out

    def z_slice(self, z: int) -> TruncSeries:
        """The coefficient of z^z as a plain series in q."""
        row = self.rows.get(z)
        if row is None:
            return TruncSeries.zero(self.ring, self.order)
        return TruncSeries(self.ring, row, self.order)

    def __eq__(self, other):
        if not isinstance(other, BivarSeries):
            return NotImplemented
        if self.ring != other.ring or self.order != other.order:
            return False
        zero_row = [self.ring.zero] * (self.order + 1)
        keys = set(self.rows) | set(other.rows)
        for z in keys:
            if list(self.rows.get(z, zero_row)) != list(other.rows.get(z, zero_row)):
                return False
        return True

    __hash__ = None

    def __repr__(self):
        support = sorted(z for z, row in self.rows.items() if any(c != self.ring.zero for c in row))
        return (f"BivarSeries({self.ring!r}, N={self.order}, "
                f"window=[{self.zmin},{self.zmax}], z-support={support})")


def jacobi_triple(order: int, ring=ZZ):
    """Both sides of the triple product identity, for equality testing.

    Product side: prod_{n>=1} (1 - q^n)(1 + z q^n)(1 + z^{-1} q^{n-1});
    sum side: sum_m z^m q^(m(m+1)/2).  The z window [-down, up] is exact:
    z^m costs at least q^(m(m+1)/2) for m >= 0 and q^(m(m-1)/2) for m < 0,
    on both sides, so up and down are the largest |m| that fit in q-degree
    `order` and no term is ever clipped.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    up = 0
    while (up + 1) * (up + 2) // 2 <= order:
        up += 1
    down = 0
    while (down + 1) * down // 2 <= order:
        down += 1
    zmin, zmax = -down, up
    product = BivarSeries.one(ring, order, zmin, zmax)
    for n in range(1, order + 2):
        product = product * BivarSeries.from_terms(
            ring, order, zmin, zmax, [(0, 0, 1), (-1, n - 1, 1)])
        if n <= order:
            product = product * BivarSeries.from_terms(
                ring, order, zmin, zmax, [(0, 0, 1), (0, n, -1)])
            product = product * BivarSeries.from_terms(
                ring, order, zmin, zmax, [(0, 0, 1), (1, n, 1)])
    theta = BivarSeries(ring, order, zmin, zmax)
    for m in range(zmin, zmax + 1):
        e = m * (m + 1) // 2
        if 0 <= e <= order:
            row = [ring.zero] * (order + 1)
            row[e] = ring.one
            theta.rows[m] = row
    return product, theta
