"""Arithmetic in prime fields GF(p) for odd primes p.

Field elements are plain Python ints kept canonical in [0, p).  The
PrimeField object carries the modulus and the inverse; the hot loops
(polynomial reduction) do their own arithmetic mod p on the ints, free of
wrapper objects.

The module also owns seed derivation, with one hash: `derive_seed`.
"""

import hashlib

_MAX_MODULUS = 2**31


def stable_seed(seed):
    """Collapse any hashable seed description into a deterministic int."""
    return seed if isinstance(seed, int) else derive_seed(repr(seed))


def derive_seed(*parts) -> int:
    """Deterministic labeled sub-seed (stable across platforms and runs)."""
    data = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3,317,044,064,679,887,385,961,981."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field GF(p), p an odd prime below 2**31.

    Elements are ints in [0, p).  All operations return canonical
    representatives.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        if p == 2:
            raise ValueError("modulus 2 is not supported; the field must have odd characteristic")
        if p >= _MAX_MODULUS:
            raise ValueError(f"modulus {p} exceeds the 2**31 limit")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)
