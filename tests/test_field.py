import random

import pytest

from conormal import PrimeField


def test_large_prime_inverse():
    field = PrimeField(31991)
    assert field.inv(2) == 15996
    assert 2 * field.inv(2) % field.p == 1


def test_inverse_of_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_modulus_validation():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(91)  # 7 * 13
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)
    PrimeField(3)
    PrimeField(2**31 - 1)


def test_field_axioms_randomized():
    field = PrimeField(31991)
    p = field.p
    rng = random.Random(20240601)
    for _ in range(10_000):
        a = rng.randrange(p)
        if a:
            assert a * field.inv(a) % p == 1

