"""Integer factorization, p-adic valuations, and point counts over finite
fields.

The valuation inequality tested here: for q = p^nu, the p-adic valuation of
the level-(q-1) spectral polynomial at an integer z is at least the number
of points on W = z over the q-element field, counted on the torus of
nonzero coordinate tuples in the lattice basis.  Counting is brute force
over the multiplicative group, enumerated as powers of a generator, so a
monomial evaluation is a single index reduction mod q-1.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from . import primes
from .errors import SizeLimit
from .context import SpectralContext
from .specpoly import DEFAULT_SIZE_LIMIT, evaluate_at_integer

DEFAULT_POINT_CAP = 10**7
_TRIAL_LIMIT = 10**6


def vp(x: int, p: int) -> int | float:
    """p-adic valuation; math.inf for x = 0."""
    if not primes.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x == 0:
        return math.inf
    v = 0
    x = abs(x)
    while x % p == 0:
        x //= p
        v += 1
    return v


@dataclass(frozen=True)
class FactoredInteger:
    """sign * prod p^e * cofactor; cofactor 1 when fully factored."""

    sign: int
    factors: dict[int, int]
    cofactor: int = 1


@lru_cache(maxsize=1)
def _trial_primes() -> list[int]:
    return primes.sieve(_TRIAL_LIMIT)


def _pollard_brent(n: int, rng: random.Random) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(x: int, rho_rounds: int = 64) -> FactoredInteger:
    """Trial division to 10^6 followed by Pollard rho; numbers up to desk
    scale (~10^40) factor completely, anything stubborn is left as a
    flagged cofactor."""
    if x == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if x < 0 else 1
    n = abs(x)
    factors: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    cofactor = 1
    stack = [n] if n > 1 else []
    rng = random.Random(abs(x))
    budget = rho_rounds
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if primes.is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        if budget <= 0:
            cofactor *= m
            continue
        budget -= 1
        d = _pollard_brent(m, rng)
        stack.extend((d, m // d))
    return FactoredInteger(sign, dict(sorted(factors.items())), cofactor)


# -- finite fields --------------------------------------------------------------


def _poly_mul_mod(a, b, modulus, p):
    """Product of coefficient tuples, reduced mod the monic modulus and p."""
    nu = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, nu - 1, -1):
        f = out[i]
        if f:
            out[i] = 0
            for j in range(nu):
                out[i - nu + j] = (out[i - nu + j] - f * modulus[j]) % p
    out = out[:nu]
    return tuple(out + [0] * (nu - len(out)))


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)

    def norm(c):
        while c and c[-1] % p == 0:
            c.pop()
        return c

    a, b = norm(a), norm(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            f = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] = (a[i + shift] - f * c) % p
            a = norm(a)
            if not a:
                break
        a, b = b, a
    return a


class PrimePowerField:
    """Arithmetic in the field with p^nu elements.

    The modulus is a random monic irreducible polynomial (deterministic
    retry seeded by (p, nu)); irreducibility is certified by checking that
    gcd(x^(p^i) - x, modulus) is trivial for every i up to nu/2.  Elements
    are coefficient tuples of length nu.
    """

    def __init__(self, p: int, nu: int):
        if not primes.is_prime(p):
            raise ValueError(f"{p} is not prime")
        if nu < 1:
            raise ValueError("nu must be >= 1")
        self.p = p
        self.nu = nu
        self.order = p**nu
        self.modulus = self._find_modulus()
        self.zero = (0,) * nu
        self.one = self.embed(1)

    def _find_modulus(self) -> tuple[int, ...]:
        p, nu = self.p, self.nu
        rng = random.Random(f"modulus:{p}:{nu}")
        while True:
            coeffs = [rng.randrange(p) for _ in range(nu)] + [1]
            if self._is_irreducible(tuple(coeffs)):
                return tuple(coeffs)

    def _is_irreducible(self, modulus) -> bool:
        p, nu = self.p, self.nu
        if nu == 1:
            return True
        x = (0, 1) + (0,) * (nu - 2)
        frob = x
        for _ in range(nu // 2):
            frob = self._pow_raw(frob, p, modulus)
            # gcd(x^(p^i) - x, modulus) must be a unit
            diff = list(frob)
            diff[1] = (diff[1] - 1) % p
            g = _poly_gcd(diff, modulus, p)
            if len(g) != 1:
                return False
        return True

    def _pow_raw(self, base, e, modulus):
        result = (1,) + (0,) * (self.nu - 1)
        while e:
            if e & 1:
                result = _poly_mul_mod(result, base, modulus, self.p)
            base = _poly_mul_mod(base, base, modulus, self.p)
            e >>= 1
        return result

    def embed(self, x: int) -> tuple[int, ...]:
        return (x % self.p,) + (0,) * (self.nu - 1)

    def mul(self, a, b):
        return _poly_mul_mod(a, b, self.modulus, self.p)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def scale(self, c: int, a):
        return tuple(c * x % self.p for x in a)

    def pow(self, a, e: int):
        return self._pow_raw(a, e, self.modulus)

    def elements(self):
        """All field elements in counter order."""
        for t in itertools.product(range(self.p), repeat=self.nu):
            yield tuple(reversed(t))

    def generator(self) -> tuple[int, ...]:
        """A generator of the multiplicative group, deterministic choice."""
        g_order = self.order - 1
        if g_order == 1:
            return self.one
        prime_divs = sorted(factorize(g_order).factors)
        for cand in self.elements():
            if cand == self.zero:
                continue
            if all(
                self.pow(cand, g_order // ell) != self.one for ell in prime_divs
            ):
                return cand
        raise RuntimeError("no generator found (impossible for a field)")


def count_points(
    ps: SpectralContext,
    z: int,
    p: int,
    nu: int = 1,
    cap: int = DEFAULT_POINT_CAP,
) -> int:
    """Number of tuples of nonzero field elements where the diffraction
    polynomial takes the value z in the p^nu-element field.

    Coordinates follow the lattice basis; the count is basis independent
    because any two bases differ by a unimodular monomial substitution.
    ``ps`` is the point set's context; the benchmark's span counters read
    the argument by that name.
    """
    n = ps.dimension
    field = PrimePowerField(p, nu)
    g_order = field.order - 1
    if g_order**n > cap:
        raise SizeLimit(f"(p^nu - 1)^n = {g_order**n} exceeds cap {cap}")
    terms = [(e, c % p) for e, c in ps.w.sorted_terms() if c % p]
    gen = field.generator()
    table = [field.one]
    for _ in range(g_order - 1):
        table.append(field.mul(table[-1], gen))
    target = field.embed(z)
    count = 0
    for idx in itertools.product(range(g_order), repeat=n):
        acc = field.zero
        for e, c in terms:
            k = sum(ej * ij for ej, ij in zip(e, idx)) % g_order
            acc = field.add(acc, field.scale(c, table[k]))
        if acc == target:
            count += 1
    return count


def valuation_inequality_check(
    ctx: SpectralContext,
    z: int,
    p: int,
    nu: int = 1,
    size_limit: int = DEFAULT_SIZE_LIMIT,
    cap: int = DEFAULT_POINT_CAP,
) -> tuple[int | float, int, bool]:
    """(vp of the level-(p^nu - 1) spectral value at z, point count, holds).

    An infinite valuation (value 0) counts as holding.
    """
    N = p**nu - 1
    poly = ctx.spectral_polynomial(N, size_limit)
    lhs = vp(evaluate_at_integer(poly, z), p)
    rhs = count_points(ctx, z, p, nu, cap)
    return lhs, rhs, lhs >= rhs
