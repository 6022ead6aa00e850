"""Ring layer: cyclotomic integers, residues, and the descriptor surface."""

import random

import pytest

from frobq.exactring import (
    ZZ,
    CycInt,
    ModRing,
    NotUnitError,
    cyclotomic_poly,
    zeta_pow,
)


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order,expected", [
    (1, (-1, 1)),
    (2, (1, 1)),
    (3, (1, 1, 1)),
    (4, (1, 0, 1)),
    (5, (1, 1, 1, 1, 1)),
    (6, (1, -1, 1)),
    (12, (1, 0, -1, 0, 1)),
])
def test_cyclotomic_poly_known(order, expected):
    assert cyclotomic_poly(order) == expected


def test_cyclotomic_poly_rejects_bad_order():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_cyclotomic_polys_multiply_back():
    # prod over divisors d of n of Phi_d must be x^n - 1
    for n in (6, 8, 12):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_poly(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


# ---------------------------------------------------------------------------
# construction and reduction
# ---------------------------------------------------------------------------

def test_make_identity_and_generator():
    assert CycInt(3, (1,)).coeffs == (1, 0)
    assert CycInt(3, (0, 1)).coeffs == (0, 1)
    assert CycInt(3, ()).coeffs == (0, 0)  # zero padding


def test_make_rejects_order_below_one():
    with pytest.raises(ValueError):
        CycInt(0, (1,))


def test_make_rejects_too_many_coordinates():
    with pytest.raises(ValueError):
        CycInt(3, (1, 2, 3))


def test_zeta_square_reduces():
    # x^2 = -1 - x mod x^2 + x + 1
    assert (zeta_pow(3, 1) * zeta_pow(3, 1)).coeffs == (-1, -1)


def test_zeta_pow_examples():
    assert zeta_pow(3, 0).coeffs == (1, 0)
    assert zeta_pow(3, -1).coeffs == (-1, -1)
    assert zeta_pow(4, 2).as_int() == -1


def test_zeta_pow_negative_wraps():
    for order in (2, 3, 4, 5, 6):
        for e in range(-2 * order, 2 * order + 1):
            assert zeta_pow(order, e) == zeta_pow(order, e % order)


def test_zeta_order_relation():
    for order in (1, 2, 3, 4, 5, 6):
        power = zeta_pow(order, 0)
        for _ in range(order):
            power = power * zeta_pow(order, 1)
        assert power.as_int() == 1


def test_prime_order_power_sum_vanishes():
    # the coordinates of 1, zeta, ..., zeta^(p-1) sum to zero
    for p in (2, 3, 5, 7):
        columns = zip(*(zeta_pow(p, e).coeffs for e in range(p)))
        assert [sum(column) for column in columns] == [0] * (p - 1)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_mul_inverse_roots():
    assert (zeta_pow(3, 1) * zeta_pow(3, 2)).as_int() == 1


def test_mul_conjugate_pair_is_one():
    # (1 + zeta)(1 + zeta^2) = 1 + zeta + zeta^2 + zeta^3 = 1, with 1 + zeta^2 = -zeta
    assert (CycInt(3, (1, 1)) * CycInt(3, (0, -1))).as_int() == 1


def test_mul_identity_random():
    rng = random.Random(7)
    one = CycInt(5, (1,))
    for _ in range(50):
        a = CycInt(5, tuple(rng.randrange(-9, 10) for _ in range(4)))
        assert a * one == a


def test_mul_order_mismatch_rejected():
    with pytest.raises(ValueError):
        zeta_pow(3, 1) * zeta_pow(4, 1)


def test_as_int():
    assert CycInt(3, (5, 0)).as_int() == 5
    assert CycInt(3, (0, 1)).as_int() is None


def test_order_two_behaves_like_integers():
    # Phi_2 = x + 1, so the generator is -1 and every element is rational
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randrange(-50, 51), rng.randrange(-50, 51)
        assert (CycInt(2, (a,)) * CycInt(2, (b,))).as_int() == a * b
        assert (CycInt(2, (a,)) * b).as_int() == a * b
    assert zeta_pow(2, 1).as_int() == -1


# ---------------------------------------------------------------------------
# ring descriptors
# ---------------------------------------------------------------------------

def test_mod_ring_invert():
    ring = ModRing(10)
    assert ring.invert(3) * 3 % 10 == 1
    with pytest.raises(NotUnitError):
        ring.invert(4)


def test_mod_ring_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        ModRing(1)


def test_integer_ring_invert():
    assert ZZ.invert(-1) == -1
    with pytest.raises(NotUnitError):
        ZZ.invert(2)


def test_ring_equality():
    assert ModRing(5) == ModRing(5)
    assert ModRing(5) != ModRing(7)
    assert hash(ModRing(5)) == hash(ModRing(5))
    assert repr(ModRing(5)) == "ModRing(5)"
