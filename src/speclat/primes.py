"""Primality testing and prime generation helpers.

Deterministic Miller-Rabin for anything below 3.3e24 (which covers the
64-bit moduli used for CRT reconstruction); a fixed extra witness set is
used above that, which is ample at desk scale.
"""

from __future__ import annotations

from typing import Iterator

# Deterministic witness set for n < 3,317,044,064,679,887,385,961,981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DET_BOUND = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _MR_WITNESSES
    if n >= _MR_DET_BOUND:
        # extra fixed witnesses; composites surviving all of these do not
        # occur at the sizes this package handles
        witnesses = _MR_WITNESSES + (41, 43, 47, 53, 59, 61, 67, 71)
    for a in witnesses:
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


def primes_below(start: int, N: int = 1) -> Iterator[int]:
    """Yield primes p < start with p = 1 (mod N) in descending order.  For
    N > 1 these are the primes whose field F_p holds the N-th roots of unity."""
    step = N if N % 2 == 0 else 2 * N  # odd p = 1 (mod N)
    n = start - 1 - (start - 2) % step
    while n > 2:
        if is_prime(n):
            yield n
        n -= step
    if N == 1 and start > 2:
        yield 2


def root_of_unity(N: int, p: int) -> int:
    """An element of exact multiplicative order N modulo a prime p = 1 (mod N)."""
    if (p - 1) % N:
        raise ValueError(f"{p} is not 1 mod {N}")
    factors = [q for q in range(2, N + 1) if N % q == 0 and is_prime(q)]
    for g in range(2, p):
        omega = pow(g, (p - 1) // N, p)
        if all(pow(omega, N // q, p) != 1 for q in factors):
            return omega
    return 1  # N = 1 (or p = 2)


def sieve(limit: int) -> list[int]:
    """All primes <= limit by a plain Eratosthenes sieve."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        p += 1
    return [i for i, f in enumerate(flags) if f]
