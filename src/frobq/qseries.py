"""Truncated formal power series in q over an exact coefficient ring.

A TruncSeries holds coefficients for q^0 .. q^N inclusive and nothing beyond,
over ZZ or, for the product DSL, over ModRing; binary operations truncate at
min(N_a, N_b) so precision loss is always explicit.  Arithmetic runs on plain
ints and the constructor reduces every coefficient through the ring, so two
series over one ring are equal exactly when they denote the same series.  On
top of the core ring operations this module provides:

  * the Euler product (q;q) = prod (1 - q^n) and its cube as a theta-style sum,
  * a tiny product DSL: each factor (sign, period, residue, exponent) denotes
    prod_{n>=1} (1 + sign * q^(period*n - residue))^exponent,
  * BivarSeries, a two-variable series over ZZ truncated in q and confined to
    a window of z-exponents, expanded in place factor by factor and used to
    slice out fixed-row-difference coefficients,
  * both sides of the Jacobi triple product identity
        prod_{n>=1} (1 - q^n)(1 + z q^n)(1 + z^{-1} q^{n-1})
            = sum_m z^m q^(m(m+1)/2)
    as bivariate series for equality testing.

Everything is pure and exact; there are no floats anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, compress, count, repeat
from operator import add, mul, neg, sub

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
        coeffs = list(map(ring.from_int, coeffs))
        if order is None:
            if not coeffs:
                raise ValueError("need coefficients or an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        del coeffs[order + 1:]
        coeffs += [0] * (order + 1 - len(coeffs))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, order: int) -> "TruncSeries":
        return cls(ring, [], order)

    @classmethod
    def one(cls, ring, order: int) -> "TruncSeries":
        return cls(ring, [1], order)

    @classmethod
    def monomial(cls, ring, order: int, exponent: int, coeff: int = 1) -> "TruncSeries":
        """coeff * q^exponent, silently zero when exponent exceeds the order."""
        coeffs = [0] * (order + 1)
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
        return TruncSeries(self.ring, map(add, self.coeffs, other.coeffs), n)

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        return TruncSeries(self.ring, map(sub, self.coeffs, other.coeffs), n)

    def __neg__(self):
        return TruncSeries(self.ring, map(neg, self.coeffs), self.order)

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncSeries(self.ring, map(mul, self.coeffs, repeat(other)), self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return TruncSeries(self.ring, out, n)

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
        inv0 = ring.invert(self.coeffs[0])
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = 0
            for j in range(1, n + 1):
                aj = self.coeffs[j]
                if aj:
                    acc += aj * out[n - j]
            out.append(ring.from_int(-inv0 * acc))
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
    """coeffs *= (1 + sign*q^e) in place, or coeffs /= it when `divide`.

    `sign` is +1 or -1.  Sweep-order invariant: multiplying reads only old
    coefficients, so it is one slice update whose right-hand side is copied
    before the assignment.  Dividing reads only quotient coefficients,
    c[i] -= sign*c[i-e] upward: with short residue classes mod e (e*e >=
    len) that is one slice update per block of e coefficients from the
    finished block before it.  With few long classes, dividing by (1 - q^e)
    is a running sum along each class, one `accumulate`, and dividing by
    (1 + q^e) multiplies by (1 - q^e) and then divides by (1 - q^2e), whose
    running sums need no sign changes.  These steps only add and subtract,
    so they are the same on ints for every ring, and the TruncSeries built
    from the list reduces it.  e = 0 scales by 1 + sign or, dividing, by its
    inverse in the ring, which raises NotUnitError when it has none; the
    scaled list is reduced at once, so a repeated constant factor does not
    grow the ints.
    """
    n = len(coeffs)
    if e == 0:
        scale = ring.from_int(1 + sign)
        if divide:
            scale = ring.invert(scale)
        coeffs[:] = map(ring.from_int, map(mul, coeffs, repeat(scale)))
    elif e >= n:
        return
    elif not divide:
        coeffs[e:] = map(add if sign > 0 else sub, coeffs[e:], coeffs[:n - e])
    elif e * e >= n:
        step = sub if sign > 0 else add
        for i in range(e, n, e):
            coeffs[i:i + e] = map(step, coeffs[i:i + e], coeffs[i - e:i])
    elif sign > 0:
        _apply_binomial(coeffs, -1, e, ring)
        _apply_binomial(coeffs, -1, 2 * e, ring, divide=True)
    else:
        for r in range(e):
            coeffs[r::e] = accumulate(coeffs[r::e])


def euler_product(order: int) -> TruncSeries:
    """prod_{n=1..N} (1 - q^n) truncated at N, as the product-DSL spec -,1,0,1;
    guarded like every DSL expansion."""
    return product_from_spec(parse_product_spec("-,1,0,1"), order)


def euler_cube(order: int) -> TruncSeries:
    """sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2), the cube of the Euler product."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    coeffs = [0] * (order + 1)
    j = 0
    while j * (j + 1) // 2 <= order:
        coeffs[j * (j + 1) // 2] = -(2 * j + 1) if j % 2 else 2 * j + 1
        j += 1
    return TruncSeries(ZZ, coeffs, order)


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


# Refuse expansions above this many coefficient updates.  The largest
# accepted ones take 10-13 s on a 2-CPU x86 guest (85-105 ns an update, ZZ
# and ModRing alike); the limit is 20x the work of phi2m1_product(3000).
MAX_PRODUCT_WORK = 125_000_000


def product_work(spec: ProductSpec, order: int) -> int:
    """Coefficient updates `product_from_spec` performs: each binomial
    (1 + sign*q^e) with e <= order updates the order + 1 - e coefficients
    from q^e up, |exponent| times, so the work is the sum over factors of
    |exponent| * sum_e (order + 1 - e), here in closed form."""
    total = 0
    for f in spec.factors:
        first = f.period - f.residue
        if first <= order:
            t = (order - first) // f.period + 1  # binomials of this family
            total += abs(f.exponent) * (t * (order + 1 - first) - f.period * t * (t - 1) // 2)
    return total


def product_from_spec(spec: ProductSpec, order: int, ring=ZZ) -> TruncSeries:
    """Expand the spec's product truncated at `order`.

    Every binomial (1 + sign*q^e) with e <= order is applied in place to one
    coefficient list, |exponent| times: multiplied in for a positive exponent,
    divided out for a negative one.  Dividing by a constant factor (1 + q^0)
    raises NotUnitError when 2 is not a unit of the ring.  Guarded: raises
    ValueError before expanding when `product_work` exceeds MAX_PRODUCT_WORK.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    for f in spec.factors:
        f.validate()
    work = product_work(spec, order)
    if work > MAX_PRODUCT_WORK:
        raise ValueError(f"product guard: {work} coefficient updates exceed "
                         f"MAX_PRODUCT_WORK={MAX_PRODUCT_WORK}")
    coeffs = [1] + [0] * order
    for f in spec.factors:
        for e in range(f.period - f.residue, order + 1, f.period):
            for _ in range(abs(f.exponent)):
                _apply_binomial(coeffs, f.sign, e, ring, divide=f.exponent < 0)
    return TruncSeries(ring, coeffs, order)


# ---------------------------------------------------------------------------
# Bivariate series
# ---------------------------------------------------------------------------


class BivarSeries:
    """A series in z and q over ZZ, truncated at q^order, z-exponents clipped to a window.

    Rows are stored sparsely: `rows[z]` is the dense q-coefficient list for
    z-exponent z; missing rows are zero, and multiplication creates a row only
    when a nonzero term lands in it.  Multiplication drops any product term
    whose z-exponent leaves [zmin, zmax].  Unlike TruncSeries this is a
    mutable working object: `apply_factor` multiplies it in place by a
    sparse factor, which is how the products in this package are expanded;
    `*` is the general product.

    A row may be shorter than order + 1: `truncate` cuts each row to a live
    length, for a caller that reads only some coefficients and has shown
    that the ones cut cannot reach them.  `apply_factor` keeps every row's
    length, so a cut row holds only its live prefix.  `jacobi_triple` never
    cuts: its window holds every term of every partial product.
    `bivar_coefficient_series` cuts after each pair of factors, and its
    docstring proves that the prefixes it keeps are exact.
    """

    __slots__ = ("order", "zmin", "zmax", "rows")

    def __init__(self, order: int, zmin: int, zmax: int, rows: dict | None = None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if zmin > zmax:
            raise ValueError("empty z window")
        self.order = order
        self.zmin = zmin
        self.zmax = zmax
        self.rows = {} if rows is None else rows

    @classmethod
    def one(cls, order: int, zmin: int, zmax: int) -> "BivarSeries":
        out = cls(order, zmin, zmax)
        if zmin <= 0 <= zmax:
            out.rows[0] = [1] + [0] * order
        return out

    @classmethod
    def from_terms(cls, order: int, zmin: int, zmax: int, terms) -> "BivarSeries":
        """Build from (z_exponent, q_exponent, int_coefficient) triples.

        Terms beyond the q truncation or outside the z window are dropped,
        consistent with multiplication semantics.
        """
        out = cls(order, zmin, zmax)
        for z, e, c in terms:
            if zmin <= z <= zmax and 0 <= e <= order:
                out.rows.setdefault(z, [0] * (order + 1))[e] += c
        return out

    def __mul__(self, other: "BivarSeries") -> "BivarSeries":
        order = min(self.order, other.order)
        zmin, zmax = self.zmin, self.zmax
        out = BivarSeries(order, zmin, zmax)
        other_entries = [(z, e, c) for z, row in other.rows.items()
                         for e, c in enumerate(row) if c]
        for z1, row1 in self.rows.items():
            for z2, e2, c2 in other_entries:
                z = z1 + z2
                if z < zmin or z > zmax:
                    continue
                target = out.rows.get(z)
                for e1 in range(order - e2 + 1):
                    c1 = row1[e1]
                    if c1:
                        if target is None:
                            target = out.rows[z] = [0] * (order + 1)
                        target[e1 + e2] += c1 * c2
        return out

    def apply_factor(self, terms) -> None:
        """Multiply in place by 1 + sum c * z^dz * q^dq over (dz, dq, c) in `terms`.

        The coefficients c are ints.  All nonzero dz must have one sign, and
        the constant term is the implicit 1, so a (0, 0) term or a mix of
        positive and negative dz raises ValueError.
        The result equals `self * factor` under the same window and
        truncation rules, without allocating a series for the factor.

        Sweep-order invariant: every row is read as a source before it is
        written.  Rows are visited by z descending when some dz > 0 and
        ascending when some dz < 0, so the rows z - dz a row reads are still
        unchanged; a dz = 0 term reads a copy of its own row taken before any
        term adds to it.  Each term is one slice update of the target row,
        starting where the source row's first nonzero coefficient lands and
        ending at the end of the target or of the source, whichever comes
        first.  A row keeps its length; a row created by the sweep has
        length order + 1.  So on cut rows (see `truncate`) the result's
        row z is exact on its first min(len(row z), len(source) + dq)
        coefficients, the minimum over the terms (dz, dq, c) and their
        source rows z - dz.
        """
        factor = list(terms)
        if any(dz == 0 and dq == 0 for dz, dq, _ in factor):
            raise ValueError("a (0, 0) term would change the factor's constant 1")
        up = any(dz > 0 for dz, _, _ in factor)
        if up and any(dz < 0 for dz, _, _ in factor):
            raise ValueError("factor mixes positive and negative z-exponents")
        self._sweep(factor, descending=up)

    def _sweep(self, factor, descending: bool) -> None:
        # apply_factor's row loop; `descending` must be the direction the
        # invariant asks for (tests pass the other one to show it matters)
        n, rows = self.order + 1, self.rows
        factor = [(dz, dq, c) for dz, dq, c in factor if dq < n and c]
        if not factor:
            return
        low = {}
        for z, row in rows.items():
            first = next(compress(count(), row), None)
            if first is not None:
                low[z] = first
        targets = {z + dz for z in low for dz, _, _ in factor}
        flat = any(dz == 0 for dz, _, _ in factor)
        for z in sorted(targets, reverse=descending):
            if not self.zmin <= z <= self.zmax:
                continue
            row = rows.get(z)
            own = row[:] if flat and z in low else None
            for dz, dq, c in factor:
                lo = low.get(z - dz)
                if lo is None:
                    continue
                end = (n if row is None else len(row)) - dq
                if lo >= end:
                    continue
                if row is None:
                    row = rows[z] = [0] * n
                part = (own if dz == 0 else rows[z - dz])[lo:end]
                a = lo + dq
                b = a + len(part)
                if c != 1:
                    part = map(mul, part, repeat(c))
                row[a:b] = map(add, row[a:b], part)

    def truncate(self, live) -> None:
        """Cut every row z to its first `live(z)` coefficients, in place.

        A row with live(z) <= 0 is dropped, and the window shrinks to the
        smallest one holding every z of the old window with live(z) > 0, so
        a sweep never recreates a dropped row outside it.  With no such z
        the rows are dropped and the window is left as it is.  A row that
        is already shorter than its live length is left as it is.
        """
        alive = [z for z in range(self.zmin, self.zmax + 1) if live(z) > 0]
        for z in list(self.rows):
            keep = live(z)
            if keep > 0:
                del self.rows[z][keep:]
            else:
                del self.rows[z]
        if alive:
            self.zmin, self.zmax = alive[0], alive[-1]

    def z_slice(self, z: int) -> TruncSeries:
        """The coefficient of z^z as a plain series in q."""
        return TruncSeries(ZZ, self.rows.get(z, ()), self.order)

    def __eq__(self, other):
        if not isinstance(other, BivarSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        zero_row = [0] * (self.order + 1)
        return all(list(self.rows.get(z, zero_row)) == list(other.rows.get(z, zero_row))
                   for z in set(self.rows) | set(other.rows))

    __hash__ = None

    def __repr__(self):
        support = sorted(z for z, row in self.rows.items() if any(row))
        return (f"BivarSeries(N={self.order}, "
                f"window=[{self.zmin},{self.zmax}], z-support={support})")


# Refuse triple products above this many coefficient updates: about 10 s on
# a 2-CPU x86 guest over ZZ (137-183 ns an update at orders 300-1000); the
# largest accepted order is 961.
MAX_JACOBI_WORK = 65_000_000


def jacobi_work(order: int) -> int:
    """Coefficient updates `jacobi_triple` performs on its product side, at most.

    Row z^m starts no lower than q^(m(m+1)/2).  With L = order + 1 -
    m(m+1)/2, the factors z^-1 q^(n-1) for n = 1..order+1 update it over at
    most L(L+1)/2 coefficients, and q^n and z q^n for n = 1..order over at
    most L(L-1)/2 each: L(3L-1)/2 in all.  Rows m >= 0 and -m-1 start alike,
    so each m >= 0 counts twice."""
    total, m = 0, 0
    while m * (m + 1) // 2 <= order:
        rest = order + 1 - m * (m + 1) // 2
        total += rest * (3 * rest - 1)
        m += 1
    return total


def jacobi_guard(order: int) -> None:
    """Raise ValueError when `jacobi_work(order)` exceeds MAX_JACOBI_WORK."""
    work = jacobi_work(order)
    if work > MAX_JACOBI_WORK:
        raise ValueError(f"triple product guard: {work} coefficient updates exceed "
                         f"MAX_JACOBI_WORK={MAX_JACOBI_WORK}")


def jacobi_triple(order: int):
    """Both sides of the triple product identity, for equality testing.

    Product side: prod_{n>=1} (1 - q^n)(1 + z q^n)(1 + z^{-1} q^{n-1});
    sum side: sum_m z^m q^(m(m+1)/2).  The z window [-down, up] is exact:
    z^m costs at least q^(m(m+1)/2) on both sides, so up and down are the
    largest |m| that fit in q-degree `order` and no term is ever clipped.
    Guarded: `jacobi_guard` refuses before anything is expanded.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    jacobi_guard(order)
    up = 0
    while (up + 1) * (up + 2) // 2 <= order:
        up += 1
    down = 0
    while (down + 1) * down // 2 <= order:
        down += 1
    zmin, zmax = -down, up
    product = BivarSeries.one(order, zmin, zmax)
    for n in range(1, order + 2):
        product.apply_factor([(-1, n - 1, 1)])
        if n <= order:
            product.apply_factor([(0, n, -1)])
            product.apply_factor([(1, n, 1)])
    theta = BivarSeries.from_terms(order, zmin, zmax,
                                   ((m, m * (m + 1) // 2, 1) for m in range(zmin, zmax + 1)))
    return product, theta
