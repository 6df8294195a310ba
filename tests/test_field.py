import random

import pytest

from conormal import PrimeField


def test_large_prime_inverse():
    field = PrimeField(31991)
    assert field.inv(2) == 15996
    assert field.mul(2, 15996) == 1


def test_small_examples():
    assert PrimeField(5).add(3, 4) == 2


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
        a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        if a:
            assert field.mul(a, field.inv(a)) == 1

