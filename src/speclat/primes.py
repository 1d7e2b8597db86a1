"""Primality testing, for the primes a user gives (``padic``'s p, a
congruence's p), and ``prime_factors``, the one factorization, read by the
finite fields and lift precision of ``arith`` and the split moduli of
``specpoly``, which need no primality test (see its docstring).

Miller-Rabin with one witness set proven deterministic, the primes 2..41
below 3.3e24 (Sorenson and Webster, Math. Comp. 2017; 2..37 suffice only
below 3.18e23), and fixed extra witnesses above that, ample at desk scale.
Every n that reaches it is prime to 2..47, so at least 53, above each base.
"""

from __future__ import annotations

import math
import random

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


def _rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of an odd composite n: Pollard rho, Floyd's cycle."""
    g = n
    while g == n:
        c, x = rng.randrange(1, n - 2), rng.randrange(n)  # c = 0, -2 are degenerate
        y, g = x, 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
    return g


def _root(m: int, k: int) -> int:
    """The integer k-th root of m >= 1, rounded down: Newton's method from above."""
    r = 1 << -(-m.bit_length() // k)
    while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
        r = s
    return r


def prime_factors(n: int) -> dict[int, int]:
    """{p: e}, ascending, with n = prod p^e for an integer n >= 1: trial
    division by d < 2^10, alone enough below 2^20 (a composite left has two
    factors >= 1031), then, for each factor that fails ``is_prime``, its
    k-th root if it is a perfect k-th power (k <= log_1031 of it), else
    Pollard rho, which would need about sqrt(p) steps to split p^k."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    factors: dict[int, int] = {}
    d = 2
    while d < 1 << 10 and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    stack, rng = [n] if n > 1 else [], None
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        elif k := next((k for k in range(2, m.bit_length() // 10 + 1) if _root(m, k) ** k == m), 0):
            stack += [_root(m, k)] * k
        else:
            f = _rho(m, rng := rng or random.Random(n))  # made only if rho runs
            stack += (f, m // f)
    return dict(sorted(factors.items()))

