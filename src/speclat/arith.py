"""p-adic valuations, finite fields, and the valuation inequality: for
q = p^nu and N = q - 1, v_p(b_N(z)) at an integer z is at least the number
of points on W = z in (F_q^*)^n, lattice basis.
F_q is its primitive modulus F: tuples mod (F, p) under ``_poly_mul_mod`` and
``_poly_pow``, which the Galois rings GR(p^k, nu) use mod (F, p^k).

Both sides come from one pass over the character classes of level N, one
row each (``specpoly._character_rows``), planned by ``_valuations``.  Let
zeta, a root of unity of order N, be the Teichmueller lift of a generator g
of F_q^* to GR(p^k, nu) = (Z/p^k)[x]/(F) (Serre, Local Fields, II 4-5); in the
unramified ring W(F_q) the least v_p of the coefficients, v, is the
valuation at one prime above p, and W(chi_k) = W(g^k) mod p.  So
v_p(b_N(z)) = sum_classes mult v(z - W(chi)) >= sum of mult over v >= 1, the
point count.  A nonzero alpha = z - W(chi) has conjugates of size at most
|z| + C^2 (0 <= W <= C^2, the coefficient sum of W), so v(alpha) <=
log_p |Norm alpha| < K when p^K > (|z| + C^2)^phi(N): alpha = 0 mod p^K
proves alpha = 0, a valuation of inf.
"""

from __future__ import annotations

import math

from . import limits, primes, specpoly
from .errors import SizeLimit
from .context import SpectralContext
from .laurent import fold_mod_N


def vp(x: int, p: int) -> int | float:
    """p-adic valuation; math.inf for x = 0."""
    if not primes.is_prime(p):
        raise ValueError(f"{p} is not prime")
    return math.inf if x == 0 else _count_factors(abs(x), p, math.inf)


def _count_factors(x: int, p: int, cap: int | float) -> int:
    """The factors of p in x, counted up to cap."""
    d = 0
    while d < cap and x % p == 0:
        x, d = x // p, d + 1
    return d


# -- finite fields --------------------------------------------------------------


def _poly_mul_mod(a, b, modulus, p):
    """Product of coefficient tuples, its remainder by the monic modulus
    (``specpoly._divmod_monic``) reduced mod the integer p, prime or not."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    out = specpoly._divmod_monic(out, modulus)[1] if len(out) >= len(modulus) else out
    return tuple([c % p for c in out] + [0] * (len(modulus) - 1 - len(out)))


def _poly_pow(base, e, modulus, m):
    """base**e, reduced mod the monic modulus and the integer m."""
    result = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, modulus, m)
        base = _poly_mul_mod(base, base, modulus, m)
        e >>= 1
    return result


def primitive_modulus(p: int, nu: int) -> tuple[int, ...]:
    """The monic F of degree nu with F_p[x]/(F) the field of p^nu elements.

    F is primitive: the first monic polynomial, its lower coefficients
    (a_0, .., a_{nu-1}) taken in lexicographic order, modulo which x has
    multiplicative order p^nu - 1.  That certifies F irreducible, since
    modulo a reducible F fewer than p^nu - 1 residues are units, and x
    generates the multiplicative group.  The search starts at a_0 = 1: with
    a_0 = 0, x divides F and is no unit.  It skips each a_0 whose (-1)^nu a_0
    does not generate F_p^*, as that is the norm of x, x^((p^nu - 1) / (p - 1)),
    which generates F_p^* when x generates F_q^*: so the p^(nu-1) candidates
    with a_0 = 1 (norm +-1) are never tried for p > 3.  Trial division splits
    p^nu - 1 and p - 1 (``primes.prime_factors``), raising ``ValueError`` if
    either has two prime factors above 2^20: none does under the ``padic`` cap.
    """
    if not primes.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if nu < 1:
        raise ValueError("nu must be >= 1")
    g_order, one = p**nu - 1, (1,) + (0,) * (nu - 1)
    quotients = [g_order // ell for ell in primes.prime_factors(g_order)]
    base_quotients = [(p - 1) // ell for ell in primes.prime_factors(p - 1)]
    for a0 in range(1, p):
        if any(pow((-1) ** nu * a0, e, p) == 1 for e in base_quotients):
            continue
        for i in range(p ** (nu - 1)):  # a_1, .., a_{nu-1}: the base-p digits of i
            F = (a0, *(i // p**j % p for j in reversed(range(nu - 1))), 1)
            if _poly_pow((0, 1), g_order, F, p) == one and all(
                _poly_pow((0, 1), e, F, p) != one for e in quotients
            ):
                return F


def _teichmuller(F, p: int, x, j: int, k: int):
    """Yields (i, x_i) for i = 2j, 4j, .., k, from x the root of unity of order
    q - 1 in GR(p^j, nu) = (Z/p^j)[x]/(F): x_i is that root in GR(p^i, nu), x
    mod p^j.  Each Newton step x <- x - x (x^(q-1) - 1) / (q - 1) doubles the
    precision."""
    q = p ** (len(F) - 1)
    while j < k:
        j = min(2 * j, k)
        m = p**j
        e = _poly_pow(x, q - 1, F, m)
        t = _poly_mul_mod(x, ((e[0] - 1) % m,) + e[1:], F, m)
        x = tuple((a - pow(q - 1, -1, m) * b) % m for a, b in zip(x, t))
        yield j, x


def _row_value(row, power, m: int) -> tuple[int, ...]:
    """sum_r A_r zeta**r mod m for the row ((r, A_r), ...), power(r) = zeta**r."""
    coeffs, cols = zip(*[(a, power(r)) for r, a in row])
    return tuple(sum(a * c for a, c in zip(coeffs, col)) % m for col in zip(*cols))


def _depth(z: int, v, p: int, k: int) -> int:
    """v(z - v) for v in GR(p^k, nu), read as k when z = v mod p^k."""
    return _count_factors(math.gcd((z - v[0]) % p**k, *v[1:]), p, k)


def _lift_precision(z: int, c2: int, N: int, p: int) -> int:
    """The least K with p^K > (|z| + c2)^phi(N), no power formed: floor(q) + 1
    for q = phi(N) ln(|z| + c2) / ln p.  q errs by a few ulps, far below 2^-40
    of it, so q (1 + 2^-40) is floored: K is the least, or one more (one rung
    at most) where q lies within a relative 2^-40 below an integer."""
    phi = math.prod((ell - 1) * ell ** (e - 1) for ell, e in primes.prime_factors(N).items())
    return math.floor(phi * math.log(abs(z) + c2) / math.log(p) * (1 + 2**-40)) + 1


def _valuations(ctx: SpectralContext, zs, p: int, nu: int):
    """The run of ``valuation_inequality_check``, its cap checked first: (p^nu - 1)^n
    past ``limits.DEFAULT_SIZE_LIMIT`` characters, none for an empty ``zs``."""
    if not zs:
        return lambda: []
    n, cap = ctx.dimension, limits.DEFAULT_SIZE_LIMIT
    # (p^nu - 1)^n >= 2^(n (nu (bitlen p - 1) - 1)): a huge nu is refused before p^nu is formed
    if n * (nu * (p.bit_length() - 1) - 1) >= cap.bit_length():
        raise SizeLimit(f"({p}^{nu} - 1)^{n} torsion characters exceed cap {cap}")
    N = p**nu - 1
    specpoly.check_level(N, n, cap)
    return lambda: _valuation_rows(ctx, zs, p, nu, N)


def valuation_inequality_check(
    ctx: SpectralContext, zs, p: int, nu: int = 1
) -> list[tuple[int | float, int, bool]]:
    """(v_p(b_N(z)), point count, holds), N = p^nu - 1, for each integer z in
    ``zs``, from one pass over the character classes held to
    ``limits.DEFAULT_SIZE_LIMIT`` before any work (``_valuations``).  Each
    row is evaluated once at a precision p^k0 below 2^30, at the zeta one
    ladder climbs to; the rows with z = W(chi) mod p^k0 again only at the
    rungs that continue it, up to the p^K of the module docstring (none if
    k0 >= K).  An infinite valuation (value 0) counts as holding.  ``zs`` is
    iterated once, after the cap: a ``range`` of every residue is never held
    as a list."""
    return _valuations(ctx, zs, p, nu)()


def _valuation_rows(ctx: SpectralContext, zs, p: int, nu: int, N: int) -> list:
    rows = specpoly._character_rows(fold_mod_N(ctx.w, N), N)
    F = primitive_modulus(p, nu)
    # k0 >= 2, as p <= N + 1 <= cap: the ladder from g at p^1 has a rung
    g, k0 = _poly_pow((0, 1), 1, F, p), 30 // p.bit_length()
    *_, (_, zeta) = _teichmuller(F, p, g, 1, k0)
    powers = [(1,) + (0,) * (nu - 1)]
    for _ in range(N - 1):
        powers.append(_poly_mul_mod(powers[-1], zeta, F, p**k0))
    buckets: dict[tuple[int, ...], list] = {}  # the rows by their value mod p
    for row, mult in rows:
        v = _row_value(row, powers.__getitem__, p**k0)
        buckets.setdefault(tuple(c % p for c in v), []).append((v, row, mult))
    out = []
    for z in zs:
        bucket = buckets.get((z % p,) + (0,) * (nu - 1), [])
        depths = [(_depth(z, v, p, k0), row, mult) for v, row, mult in bucket]
        count = sum(mult for _, _, mult in depths)
        val: int | float = sum(mult * d for d, _, mult in depths if d < k0)
        deep = [(row, mult) for d, row, mult in depths if d == k0]
        # z = W(chi) mod p^k0: the ladder goes on from zeta at p^k0, doubling the
        # precision up to p^K, where only W(chi) = z is left, until each valuation shows
        K = _lift_precision(z, ctx.ps.total_weight**2, N, p) if deep else k0
        for j, zeta_j in _teichmuller(F, p, zeta, k0, K):
            m = p**j
            depths = [(_depth(z, _row_value(row, lambda r: _poly_pow(zeta_j, r, F, m), m), p, j),
                       row, mult) for row, mult in deep]
            val += sum(mult * d for d, _, mult in depths if d < j)
            if not (deep := [(row, mult) for d, row, mult in depths if d == j]):
                break
        if deep:
            val = math.inf
        out.append((val, count, val >= count))
    return out
