"""Arithmetic-progression congruences on coefficient streams.

`verify_congruence` checks a single claim "coefficient(A*n + B) = 0 mod M"
against every index the truncation provides.  `scan_congruences` searches the
whole (A, B, M) box from one gcd per progression and reports every claim
that holds with enough witnesses, flagging claims implied by a coarser one.
`residue_argument_check` and `progression_exponent_check` mechanize the
finite residue computations that turn such observations into proofs for the
5n+4 pattern: a contribution to q^(5n+4) forces
(2j+1)^2 + 2(2k+1)^2 = 0 mod 5, whose only solution over Z/5 x Z/5 is (0, 0).
"""

from __future__ import annotations

import math

from ._value import FrozenValue
from .qseries import ModRing, TruncSeries


class CongruenceClaim(FrozenValue):
    """One claim: coefficient(step*n + offset) = 0 (mod modulus) for all checked n."""

    __slots__ = ("step", "offset", "modulus", "verified_up_to", "status", "first_violation",
                 "witnesses", "subsumed")

    def __init__(self, step: int, offset: int, modulus: int, verified_up_to: int,
                 status: str, first_violation: int | None = None, witnesses: int = 0,
                 subsumed: bool = False):
        # status is "verified" or "violated"
        super().__init__(step, offset, modulus, verified_up_to, status, first_violation,
                         witnesses, subsumed)

    def to_json_dict(self) -> dict:
        out = {
            "A": self.step,
            "B": self.offset,
            "M": self.modulus,
            "verified_up_to": self.verified_up_to,
            "status": self.status,
            "subsumed": self.subsumed,
        }
        if self.first_violation is not None:
            out["first_violation"] = self.first_violation
        return out


def verify_congruence(series: TruncSeries, step: int, offset: int, modulus: int) -> CongruenceClaim:
    """Check coefficient(step*n + offset) = 0 (mod modulus) on every available index.

    A series over ModRing(m) only knows its coefficients mod m, so the check
    refuses a modulus that does not divide m.  A claim with no index up to
    the truncation has no witness, and is refused rather than passed.
    """
    if step < 1 or not 0 <= offset < step:
        raise ValueError("need step >= 1 and 0 <= offset < step")
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if isinstance(series.ring, ModRing) and series.ring.modulus % modulus:
        raise ValueError(f"a {series.ring!r} series cannot decide residues mod {modulus}")
    indices = range(offset, series.order + 1, step)
    if not indices:
        raise ValueError(f"insufficient witnesses: A={step}, B={offset} has no index "
                         f"up to order {series.order}")
    for count, idx in enumerate(indices, 1):
        if series.coeffs[idx] % modulus != 0:
            return CongruenceClaim(step, offset, modulus, verified_up_to=idx,
                                   status="violated", first_violation=idx, witnesses=count)
    return CongruenceClaim(step, offset, modulus, verified_up_to=indices[-1],
                           status="verified", witnesses=len(indices))


def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for q in range(p * p, n + 1, p):
                sieve[q] = 0
    return out


# Refuse scans above this many (M, A, B) triples.  In the worst case, the
# zero series with every modulus, each triple is a claim: at the limit that
# takes 8.6-9.1 s and at most 254 MiB on a 2-CPU x86 guest, however A and M
# share the triples.  `frobq scan` prints such claims as JSON in about 3x
# that: `-,1,0,1` at N = maxA = 1731, maxM 2 gives 1.39M lines in 28 s.
MAX_SCAN_TRIPLES = 1_500_000


def scan_congruences(series: TruncSeries, max_step: int, max_modulus: int,
                     min_witnesses: int = 20, primes_only: bool = True) -> list[CongruenceClaim]:
    """All (A, B, M) with A <= max_step, M <= max_modulus that hold on every index.

    Moduli are primes by default (composites are redundant for discovery);
    primes_only=False widens to every modulus >= 2.  Every scanned (A, B)
    cell must offer at least `min_witnesses` indices within the truncation,
    otherwise the scan refuses (short series breed vacuous claims).  A claim
    holds exactly when M divides the gcd of the coefficients at B, B + A, ...,
    so one gcd per (A, B) decides every modulus; a ModRing(m) series refuses
    a modulus that does not divide m, as `verify_congruence` does.  A
    reported claim whose index set is contained in a coarser reported claim
    with the same modulus is flagged subsumed, never dropped.  Guarded:
    raises ValueError before the prime sieve when the count of (M, A, B)
    triples exceeds MAX_SCAN_TRIPLES.  Output is sorted by (M, A, B) and is
    deterministic.
    """
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    if max_modulus < 2:
        raise ValueError("max_modulus must be >= 2")
    if min_witnesses < 1:
        raise ValueError("min_witnesses must be >= 1")
    # cell (A, B) has floor((N - B)/A) + 1 indices, least at B = A - 1, where
    # it is floor((N + 1)/A), which does not grow with A: the last is sparsest
    available = len(range(max_step - 1, series.order + 1, max_step))
    if available < min_witnesses:
        raise ValueError(
            f"insufficient witnesses: A={max_step}, B={max_step - 1} has {available} "
            f"indices up to order {series.order}, need {min_witnesses}")
    triples = (max_modulus - 1) * max_step * (max_step + 1) // 2
    if triples > MAX_SCAN_TRIPLES:
        raise ValueError(f"scan guard: {triples} (M, A, B) triples exceed "
                         f"MAX_SCAN_TRIPLES={MAX_SCAN_TRIPLES}")
    moduli = _primes_up_to(max_modulus) if primes_only else range(2, max_modulus + 1)
    if isinstance(series.ring, ModRing):
        # the gcd of residues mod m would answer for moduli they cannot decide
        for modulus in moduli:
            if series.ring.modulus % modulus:
                raise ValueError(f"a {series.ring!r} series cannot decide residues mod {modulus}")
    coeffs, order = series.coeffs, series.order
    gcds = [[math.gcd(*coeffs[offset::step]) for offset in range(step)]
            for step in range(max_step + 1)]
    proper_divisors = [[a for a in range(1, step) if step % a == 0] for step in range(max_step + 1)]
    claims = []
    for modulus in moduli:
        for step in range(1, max_step + 1):
            divisors = proper_divisors[step]
            for offset, gcd in enumerate(gcds[step]):
                if gcd % modulus:
                    continue
                indices = range(offset, order + 1, step)
                subsumed = any(gcds[a][offset % a] % modulus == 0 for a in divisors)
                claims.append(CongruenceClaim(step, offset, modulus, verified_up_to=indices[-1],
                                              status="verified", witnesses=len(indices),
                                              subsumed=subsumed))
    return claims


def residue_argument_check(a: int, b: int, modulus: int) -> list[tuple[int, int]]:
    """All (x, y) in [0, m)^2 with a*x^2 + b*y^2 = 0 (mod m), exhaustively.

    The key finite fact for the 5n+4 congruences is that (1, 2, 5) yields
    exactly [(0, 0)]: checked over all 25 pairs, nothing else works.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    return [
        (x, y)
        for x in range(modulus)
        for y in range(modulus)
        if (a * x * x + b * y * y) % modulus == 0
    ]


def progression_exponent_check(step: int = 5, offset: int = 4, modulus: int = 5) -> bool:
    """Exhaustively verify the exponent-to-residue equivalence behind the 5n+4 claims.

    Over all j, k in [0, 2*modulus): the exponent C(j+1,2) + k^2 + k lands on
    the progression (= offset mod step) exactly when
    (2j+1)^2 + 2(2k+1)^2 = 0 (mod modulus), and every such (j, k) has
    2j+1 = 2k+1 = 0 (mod modulus), killing the coefficient (2j+1) mod modulus.
    """
    if step < 1 or modulus < 2:
        raise ValueError("need step >= 1 and modulus >= 2")
    for j in range(2 * modulus):
        for k in range(2 * modulus):
            on_progression = (j * (j + 1) // 2 + k * k + k) % step == offset % step
            quadratic_zero = ((2 * j + 1) ** 2 + 2 * (2 * k + 1) ** 2) % modulus == 0
            if on_progression != quadratic_zero:
                return False
            if on_progression and not ((2 * j + 1) % modulus == 0 and (2 * k + 1) % modulus == 0):
                return False
    return True
