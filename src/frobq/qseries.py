"""Truncated formal power series in q over an exact coefficient ring.

Two rings carry series: plain arbitrary-precision integers (ZZ; Python ints
are already exact), which every route runs on, and the integers modulo m
(ModRing), which only the product DSL and the congruence verifier accept.
A ring is two operations: from_int, its reduction of an int (which refuses
anything that is not an integer), and invert.

A TruncSeries is the immutable value every route returns: coefficients for
q^0 .. q^N inclusive and nothing beyond.  The constructor reduces every
coefficient through the ring's from_int, so two series over one ring are
equal exactly when they denote the same series.  Its only arithmetic is the
dense product `*` (by a series, truncated at min(N_a, N_b) so precision
loss is always explicit) and `inverse`, which the tests use as
the reference the faster kernels are checked against.  The routes build
their own coefficient lists; this module provides:

  * a tiny product DSL: each factor (sign, period, residue, exponent) denotes
    prod_{n>=1} (1 + sign * q^(period*n - residue))^exponent, expanded pass
    by pass on a coefficient list or on one packed int, and the Euler
    product (q;q) = prod (1 - q^n) as one such spec,
  * BivarSeries, a two-variable series over ZZ truncated in q and confined to
    a window of z-exponents, expanded in place by one factor 1 + z^dz q^dq
    at a time for the identity battery's Jacobi triple product, whose
    Euler-product row has negative entries; its general product `*` is
    the tests' dense reference for route 2.

Everything is pure and exact; there are no floats anywhere.
"""

from __future__ import annotations

import re
from itertools import accumulate, compress, count, groupby, repeat
from math import gcd, lcm
from operator import add, index, itemgetter, mul, sub

from ._value import FrozenValue


class NotUnitError(ValueError):
    """Inversion was requested for an element with no inverse in its ring."""


class IntegerRing(FrozenValue):
    """Plain Python ints: exact, arbitrary precision, nothing to configure."""

    __slots__ = ()

    from_int = staticmethod(index)

    def invert(self, a: int) -> int:
        if a == 1 or a == -1:
            return a
        raise NotUnitError(f"{a} is not a unit in ZZ")

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


class ModRing(FrozenValue):
    """Integers modulo m >= 2; residues are bare ints kept in [0, m)."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        modulus = index(modulus)
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        super().__init__(modulus)

    def from_int(self, n: int) -> int:
        return index(n) % self.modulus

    def invert(self, a: int) -> int:
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            raise NotUnitError(f"{a} is not a unit mod {self.modulus}") from None

    def __repr__(self):
        return f"ModRing({self.modulus})"


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


class TruncSeries(FrozenValue):
    """Formal power series in q truncated at order N (coefficients 0..N)."""

    __slots__ = ("ring", "coeffs", "order")

    def __init__(self, ring, coeffs, order: int | None = None):
        coeffs = list(map(ring.from_int, coeffs))
        if order is None:
            if not coeffs:
                raise ValueError("need coefficients or an explicit order")
            order = len(coeffs) - 1
        else:
            order = index(order)
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        del coeffs[order + 1:]
        coeffs += [0] * (order + 1 - len(coeffs))
        super().__init__(ring, tuple(coeffs), order)

    @classmethod
    def zero(cls, ring, order: int) -> "TruncSeries":
        return cls(ring, [], order)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        _check_rings(self, other)
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

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self.coeffs[:8])
        if self.order > 7:
            shown += ", ..."
        return f"TruncSeries({self.ring!r}, N={self.order}, [{shown}])"


def _check_rings(a: TruncSeries, b: TruncSeries) -> None:
    if a.ring != b.ring:
        raise RingMismatchError(f"cannot combine {a.ring!r} and {b.ring!r} series")


def first_divergence(a: TruncSeries, b: TruncSeries) -> int | None:
    """Smallest q-exponent where the two series disagree, else None.

    Compares up to the smaller truncation order; series over different
    rings raise RingMismatchError, as `*` does.
    """
    _check_rings(a, b)
    n = min(a.order, b.order)
    for i in range(n + 1):
        if a.coeffs[i] != b.coeffs[i]:
            return i
    return None


# ---------------------------------------------------------------------------
# Classical builders
# ---------------------------------------------------------------------------


def _apply_binomial(coeffs: list, sign: int, e: int, divide: bool = False) -> None:
    """coeffs *= (1 + sign*q^e) in place, or coeffs /= it when `divide`.

    `sign` is +1 or -1 and e >= 1.  Sweep-order invariant: multiplying reads
    only old coefficients, so it is one slice update whose right-hand side
    is copied before the assignment.  Dividing reads only quotient
    coefficients, c[i] -= sign*c[i-e] upward: with short residue classes mod
    e (e*e >= len) that is one slice update per block of e coefficients from
    the finished block before it.  With few long classes, dividing by
    (1 - q^e) is a running sum along each class, one `accumulate`, and
    dividing by (1 + q^e) multiplies by (1 - q^e) and then divides by
    (1 - q^2e), whose running sums need no sign changes.  These steps only
    add and subtract, so they are the same on ints for every ring, and the
    TruncSeries built from the list reduces it.
    """
    n = len(coeffs)
    if e >= n:
        return
    elif not divide:
        coeffs[e:] = map(add if sign > 0 else sub, coeffs[e:], coeffs[:n - e])
    elif e * e >= n:
        step = sub if sign > 0 else add
        for i in range(e, n, e):
            coeffs[i:i + e] = map(step, coeffs[i:i + e], coeffs[i - e:i])
    elif sign > 0:
        _apply_binomial(coeffs, -1, e)
        _apply_binomial(coeffs, -1, 2 * e, divide=True)
    else:
        for r in range(e):
            coeffs[r::e] = accumulate(coeffs[r::e])


def _constant_factor(times: int, ring, divide: bool) -> int:
    """(1 + q^0)^times = 2^times in the ring, or its inverse when `divide`;
    raises NotUnitError when 2 has no inverse.  Over ModRing it is the
    builtin modular pow, so the power stays small however large `times` is."""
    base = ring.invert(ring.from_int(2)) if divide else 2
    if isinstance(ring, ModRing):
        return pow(base, times, ring.modulus)
    return base ** times


def euler_product(order: int) -> TruncSeries:
    """prod_{n=1..N} (1 - q^n) truncated at N, as the product-DSL spec -,1,0,1;
    guarded like every DSL expansion."""
    return product_from_spec(parse_product_spec("-,1,0,1"), order)


# ---------------------------------------------------------------------------
# Product DSL
# ---------------------------------------------------------------------------


class ProductFactor(FrozenValue):
    """One factor family prod_{n>=1} (1 + sign*q^(period*n - residue))^exponent."""

    __slots__ = ("sign", "period", "residue", "exponent")

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


class ProductSpec(FrozenValue):
    """A parsed list of infinite-product factor families."""

    __slots__ = ("factors",)  # a tuple of ProductFactor

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
        factor = ProductFactor(1 if fields[0] == "+" else -1, *map(int, fields[1:]))
        factor.validate(start)
        factors.append(factor)
    return ProductSpec(tuple(factors))


# Refuse expansions above this much work, in the literal-pass units of
# `product_work`.  The limit is 20x the work of phi2m1_product(3000).  On a
# 2-CPU x86 guest with CPython 3.11.7, over ZZ, three runs each, interleaved
# with the list-only kernel of before (in brackets), the largest accepted
# expansions of these shapes take 1.8-9.7 s: 1/(q;q) at N = 15810, where
# nothing nets, the stride is 1 and every pass divides, 6.9-9.7 s
# (10.4-11.7); phi2m1 at N = 13692 6.7-9.1 s (7.2-8.3); the cphi2m1 spec at
# N = 8450 3.5-4.2 s (3.9-4.3); psi2 at N = 8885 3.3-3.5 s (3.7-4.7);
# (q;q) at N = 15000 1.8-2.4 s (4.6-5.5).  The work counts passes and
# coefficients, not their width, so a spec whose coefficients grow to
# thousands of bits takes far longer: 1/(1 - q)^62500 at N = 2000
# (`-,2000,1999,-62500`, exactly the limit, coefficients of about 10^4
# bits) 36-49 s (37-48), almost all of it on the list, where a pass at that
# width is cheaper than on the packed int.
MAX_PRODUCT_WORK = 125_000_000
# A list pass costs 0.7-1.5 us however few coefficients it updates, the time
# of 9-22 updates of 1/(q;q) at N = 6000 on the same guest, so
# `product_work` counts each pass as at least 20 (24 would refuse psi2 at
# N = 8885).  Without the floor, 1/(1 - q)^E at N = 1 counts E, and
# E = 10^7, 1/12 of the limit, took 7.6 s on the list; with it, the largest
# accepted E at N = 1, 2 and 3 takes 2.7-7.0 s on the packed int
# (4.6-10.4 s on the list, in the runs above).  `product_from_spec` also
# charges MIN_PASS_WORK for each coefficient of the result, which is built
# however few passes touch it: `+,6250000,0,1` counts 20 updates, yet at
# N = 6,249,999, the largest order that charge accepts, `expand` takes
# 2.9 s and 507 MiB on the same guest.
MIN_PASS_WORK = 20


def product_work(spec: ProductSpec, order: int) -> int:
    """The work of the literal expansion, in literal-pass units: each
    binomial (1 + sign*q^e) with e <= order is a pass over the
    order + 1 - e coefficients from q^e up, |exponent| times, and each such
    pass counts at least MIN_PASS_WORK, so the count is the sum over
    factors of |exponent| * sum_e max(order + 1 - e, MIN_PASS_WORK), here
    in closed form.  Netting and the stride only remove passes and
    coefficients from that; the passes `product_from_spec` still runs cost
    one update a counted coefficient on the list, and a few operations on
    the whole packed int otherwise, so the count measures the expansion,
    not its time.  A constant factor (1 + q^0) counts |exponent| passes at
    e = 0 although it is applied as one scale: over ZZ, 2^|exponent| grows
    every coefficient by |exponent| bits."""
    total = 0
    for f in spec.factors:
        first = f.period - f.residue
        if first <= order:
            t = (order - first) // f.period + 1  # binomials of this family
            # the first u, e <= order + 1 - F with F = MIN_PASS_WORK, count
            # order + 1 - e = F + over - (e - first); the rest count F
            over = order + 1 - MIN_PASS_WORK - first
            u = max(0, over // f.period + 1)
            total += abs(f.exponent) * (t * MIN_PASS_WORK + u * over
                                        - f.period * u * (u - 1) // 2)
    return total


# The cost rule's constants, in tenths of a ns: a packed step costs about
# _PACKED_WORD per 64-bit word of y, a list pass _LIST_COEFF per coefficient
# it updates plus _LIST_WORD per 64-bit word of the widest one, and packing
# and unpacking cost _CONVERT a slot.  Measured on a 2-CPU x86 guest with
# CPython 3.11.7 (best of 5-15, runs up to 30 % apart): a packed step 50-90
# a word, subtractions the dearer; a list multiply pass 770-1000 and the
# running sums of a list division 490-720 a coefficient, plus 25-50 a word;
# packing and unpacking 360-760 a slot up to 4-word slots.  _LIST_COEFF sits
# between the two list paths.  Loading `frobq._packed` costs about 1 ms
# where no bytecode cache is written (_LOAD); it is charged to every packing
# of a list, so only a run that saves more packs, and a process that
# expands only small products never loads the kernel.
_PACKED_WORD = 65
_LIST_COEFF, _LIST_WORD = 570, 30
_CONVERT, _LOAD = 6000, 10_000_000


def _packed_saving(n: int, s: int, sign: int, divide: bool, bits: int) -> int:
    """Predicted time that one pass at x^s on n slots of `bits` bits saves on
    the packed int over the list, in 1/640 ns; the one rule that chooses the
    kernel.  A packed pass costs its steps (1 to multiply, about log2(n/s)
    to divide) times n * W * _PACKED_WORD, W = bits/64, and a list pass
    (n - s) * (_LIST_COEFF + _LIST_WORD * max(W, 1)), twice when it divides
    by (1 + q^e) as running sums."""
    steps, passes = 1, 1
    if divide and sign > 0:
        steps, passes = 1 + ((n - 1) // (2 * s)).bit_length(), 1 + (s * s < n)
    elif divide:
        steps = ((n - 1) // s).bit_length()
    return (passes * (n - s) * (64 * _LIST_COEFF + _LIST_WORD * max(bits, 64))
            - steps * n * bits * _PACKED_WORD)


def _apply_power(state, sign: int, s: int, times: int) -> int:
    """state *= (1 + sign*x^s)^times: |times| passes, dividing when
    times < 0, on the digit list (`_apply_binomial`) or on the packed int
    (`Packed.apply` in `frobq._packed`), whichever `state` is.  Returns the
    passes left, signed as `times`: the packed int stops after a pass that
    widens its slots.  Every pass of `product_from_spec` goes through here."""
    if type(state) is not list:
        return state.apply(sign, s, times)
    for _ in range(abs(times)):
        _apply_binomial(state, sign, s, times < 0)
    return 0


def _expand_run(coeffs: list, powers: list, g: int) -> None:
    """Apply the powers (sign, e, times) of one run of the plan at stride g
    to `coeffs` in place.  The run works on its digits, the coefficients of
    q^0, q^g, q^2g, ..., as a series in x = q^g, so a pass at e is one at
    s = e/g, and writes them back; every coefficient off a multiple of g
    must be zero, and stays zero.  The digits are packed only when the
    saving that `_packed_saving` predicts at their width beats packing and
    unpacking them and loading the kernel.  On the packed int, the passes
    the rule predicts cheaper there run first, and the rule is asked again
    whenever the slots widen; the passes it sends to the list run there
    last."""
    digits = coeffs[::g]
    n = len(digits)
    rest = powers = [(sign, e // g, times) for sign, e, times in powers]
    # a packed slot holds its digit and a margin of a few bits
    bits = max(max(digits), -min(digits)).bit_length() + 8
    gain = sum(abs(times) * max(_packed_saving(n, s, sign, times < 0, bits), 0)
               for sign, s, times in powers)
    if gain > 64 * (n * _CONVERT + _LOAD):
        from ._packed import Packed  # loaded only by a run that packs
        packed, rest = Packed(digits), []
        for sign, s, times in powers:
            while times and _packed_saving(n, s, sign, times < 0, packed.bits) > 0:
                times = _apply_power(packed, sign, s, times)
            if times:
                rest.append((sign, s, times))
        digits = packed.digits()
    for sign, s, times in rest:
        _apply_power(digits, sign, s, times)
    coeffs[::g] = digits


def product_from_spec(spec: ProductSpec, order: int, ring=ZZ) -> TruncSeries:
    """Expand the spec's product truncated at `order`.

    The plan: each binomial (1 + sign*q^e) with 1 <= e <= order gets its net
    exponent, summed over the spec's families, so equal binomials from
    different families cancel.  (1 + q^e) and (1 - q^e) are never combined.
    Each binomial with a nonzero net exponent is applied in place to one
    coefficient list, |net| times: multiplied in for a positive net, divided
    out for a negative one.  Every factor has constant term 1, so the
    factors commute and (1 + sign*q^e)^a (1 + sign*q^e)^b is
    (1 + sign*q^e)^(a+b) exactly: the plan gives the product of the spec.

    The stride: with g the gcd of the exponents applied so far, the product
    so far is a series in q^g, so every coefficient off a multiple of g is
    zero.  Each run of the plan at one g goes to `_expand_run`, which
    works on the run's digits, the coefficients of q^0, q^g, ..., as a
    series in x = q^g: a pass at e makes order//g - e//g + 1 updates, not
    order + 1 - e.  The plan runs by descending gcd(e, L), L the lcm of the
    periods, then by e, so the exponents that share the most with the
    periods run first, on the longest stride.

    The kernels: `_expand_run` applies every pass either to the digit list
    or to the digits packed into one int (`frobq._packed.Packed`), as the
    cost rule `_packed_saving` predicts cheaper from the number of digits
    and their width.  Both do the same literal pass, every pass goes
    through `_apply_power`, and the packed int lives within one run.

    The constant factors (1 + q^0) = 2 make one ring scalar, 2^|exponent|
    or its inverse each, which scales the list once at the end; it is
    computed first, so dividing by a non-unit 2 raises NotUnitError before
    anything is expanded.  Guarded: raises ValueError before expanding when
    `product_work`, the literal count, or MIN_PASS_WORK a coefficient of the
    result, whichever is larger, exceeds MAX_PRODUCT_WORK.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    for f in spec.factors:
        f.validate()
    work = max(product_work(spec, order), MIN_PASS_WORK * (order + 1))
    if work > MAX_PRODUCT_WORK:
        raise ValueError(f"product guard: {work} coefficient updates exceed "
                         f"MAX_PRODUCT_WORK={MAX_PRODUCT_WORK}")
    scale = 1
    for f in spec.factors:
        if f.residue == f.period:
            scale = ring.from_int(scale * _constant_factor(abs(f.exponent), ring, f.exponent < 0))
    net = {}
    for f in spec.factors:
        first = f.period - f.residue or f.period  # q^0 is in `scale`
        for e in range(first, order + 1, f.period):
            net[f.sign, e] = net.get((f.sign, e), 0) + f.exponent
    periods = lcm(*(f.period for f in spec.factors))
    plan = sorted((key for key, times in net.items() if times),
                  key=lambda key: (-gcd(key[1], periods), key[1], key[0]))
    coeffs = [1] + [0] * order
    strides = accumulate((e for _, e in plan), gcd)  # g after each binomial
    for g, run in groupby(zip(strides, plan), key=itemgetter(0)):
        _expand_run(coeffs, [(sign, e, net[sign, e]) for _, (sign, e) in run], g)
    # the passes are linear, so the constant factors can scale the list last
    return TruncSeries(ring, map(mul, coeffs, repeat(scale)), order)


# ---------------------------------------------------------------------------
# Bivariate series
# ---------------------------------------------------------------------------


class BivarSeries:
    """A series in z and q over ZZ, truncated at q^order, z-exponents clipped to a window.

    Rows are stored sparsely: `rows[z]` is the dense q-coefficient list for
    z-exponent z, of length order + 1; missing rows are zero, and
    multiplication creates a row only when a nonzero term lands in it.
    Multiplication drops any product term whose z-exponent leaves
    [zmin, zmax].  Unlike TruncSeries this is a mutable working object:
    `apply_factor` multiplies it in place by one term's factor
    1 + z^dz q^dq, reading each source row once, which is how
    `theorems.jacobi_triple` expands its product; `*` is the general
    product.  No q exponent is negative: `from_terms` and `apply_factor`
    refuse one.  Every exponent, coefficient, order and window bound is an
    int: the constructor, `from_terms` and `apply_factor` refuse anything
    else with TypeError.
    """

    __slots__ = ("order", "zmin", "zmax", "rows")

    def __init__(self, order: int, zmin: int, zmax: int):
        order, zmin, zmax = index(order), index(zmin), index(zmax)
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if zmin > zmax:
            raise ValueError("empty z window")
        self.order = order
        self.zmin = zmin
        self.zmax = zmax
        self.rows = {}

    @classmethod
    def from_terms(cls, order: int, zmin: int, zmax: int, terms) -> "BivarSeries":
        """Build from (z_exponent, q_exponent, int_coefficient) triples.

        Terms beyond the q truncation or outside the z window are dropped,
        consistent with multiplication semantics; a negative q exponent
        raises ValueError, and a term that is not three ints TypeError.
        """
        out = cls(order, zmin, zmax)
        for z, e, c in terms:
            z, e, c = index(z), index(e), index(c)
            if e < 0:
                raise ValueError("q-exponents must be >= 0")
            if zmin <= z <= zmax and e <= order:
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

    def apply_factor(self, dz: int, dq: int) -> None:
        """Multiply in place by 1 + z^dz * q^dq.

        dz and dq are ints (TypeError otherwise); dz = 0 or dq < 0 raises
        ValueError before any row changes.  The result equals `self * factor`
        under the same window and truncation rules, without allocating a
        series for the factor.

        Sweep-order invariant: every row is read as a source before it is
        written.  The sources are visited by z descending when dz > 0 and
        ascending when dz < 0, and each adds into row z + dz, which comes
        before it in that order, so each row is read before anything is
        added into it.  Each source is one slice update of its target,
        starting where the source's first nonzero coefficient lands.
        """
        dz, dq = index(dz), index(dq)
        if dz == 0:
            raise ValueError("factor z-exponent must be nonzero")
        if dq < 0:
            raise ValueError("factor q-exponent must be >= 0")
        self._sweep(dz, dq)

    def _sweep(self, dz: int, dq: int) -> None:
        # apply_factor's row loop, in the order its invariant asks for
        n, rows = self.order + 1, self.rows
        for z in sorted(rows, reverse=dz > 0):
            if not self.zmin <= z + dz <= self.zmax:
                continue
            source = rows[z]
            lo = next(compress(count(), source), n)
            if lo + dq >= n:
                continue
            row = rows.get(z + dz)
            if row is None:
                row = rows[z + dz] = [0] * n
            row[lo + dq:] = map(add, row[lo + dq:], source[lo:n - dq])

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
