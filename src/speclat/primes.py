"""Primality testing, for the primes a user gives (``padic``'s p, a
congruence's p), and ``prime_factors``, the one factorization, read by the
finite fields and lift precision of ``arith`` and the split moduli of
``specpoly``, which need no primality test (see its docstring).  It is trial
division alone: what it factors is a level N or a field order p^nu - 1, at
most 10^7 under the caps.

Miller-Rabin with one witness set proven deterministic, the primes 2..41
below 3.3e24 (Sorenson and Webster, Math. Comp. 2017; 2..37 suffice only
below 3.18e23), and fixed extra witnesses above that, ample at desk scale.
Every n that reaches it is prime to 2..47, so at least 53, above each base.
"""

from __future__ import annotations

import math

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_PRIMORIAL = math.prod(_SMALL_PRIMES)
_MR_DET_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below 3.3e24."""
    if n < 2:
        return False
    if math.gcd(n, _PRIMORIAL) > 1:
        return n in _SMALL_PRIMES
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES[:13] if n < _MR_DET_BOUND else _SMALL_PRIMES + (53, 59, 61, 67, 71):
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


def prime_factors(n: int) -> dict[int, int]:
    """{p: e}, ascending, with n = prod p^e for an integer n >= 1: trial
    division by 2 and the odd d with d^2 <= n, ended past d = 2^10 by a
    cofactor that ``is_prime`` (each tested once).  A composite cofactor with
    no prime factor below 2^20 raises ``ValueError``."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    factors: dict[int, int] = {}
    m, d, tested = n, 2, 1
    while d * d <= m:
        if d > 1 << 10 and m != tested:
            if is_prime(m):
                break
            tested = m
        if d > 1 << 20:
            raise ValueError(f"cannot factor {n}: a composite factor has no prime factor below 2^20")
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = 1  # a prime above every d tried
    return factors
