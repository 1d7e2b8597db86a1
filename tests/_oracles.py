"""Independent slow reference implementations used only by the test suite.

These stay deliberately separate from the package code paths they check.
"""

import itertools
import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np

from speclat.arith import _poly_mul_mod, _poly_pow, primitive_modulus
from speclat.laurent import LaurentPoly, fold_mod_N
from speclat.primes import is_prime, prime_factors
from speclat.specpoly import _divmod_monic, _maclaurin_bound
from speclat.table import _write, row_leaves


# -- lattices by fraction-free elimination -----------------------------------------


def bareiss(m):
    """Fraction-free elimination (Bareiss, Math. Comp. 1968), in place, of the n
    rows of m to triangular form in their first n columns: the sign of its row
    swaps, or 0 if those are singular."""
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if i is None:
                return 0
            m[k], m[i], sign = m[i], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, len(m[i])):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign


def det(rows):
    """Exact integer determinant: the last pivot of ``bareiss``, signed."""
    m = [list(r) for r in rows]
    return bareiss(m) * m[-1][-1]


def bareiss_coords(v, rows):
    """The integer lam with lam . rows = v, for any n full-rank rows, or None:
    the transposed system, v its last column, eliminated once and solved from
    the last coordinate up."""
    n = len(rows)
    m = [[row[j] for row in rows] + [v[j]] for j in range(n)]
    bareiss(m)
    coords = [0] * n
    for i in reversed(range(n)):
        num = m[i][n] - sum(m[i][j] * coords[j] for j in range(i + 1, n))
        if num % m[i][i] != 0:
            return None
        coords[i] = num // m[i][i]
    return tuple(coords)


def rebased(f, basis_rows, rows):
    """f, a Laurent polynomial in coordinates on basis_rows, in coordinates on
    rows, another basis of the same lattice: rows = U basis_rows for the
    unimodular U of their coordinates, and an exponent e becomes the e' with
    e' U = e."""
    U = [bareiss_coords(r, basis_rows) for r in rows]
    assert None not in U and abs(det(U)) == 1, "rows span another lattice"
    return LaurentPoly(f.dimension, {bareiss_coords(e, U): c for e, c in f.terms.items()})


# -- record tables -----------------------------------------------------------------


def _fill(shape, it):
    if isinstance(shape, dict):
        return {key: _fill(shape[key], it) for key in sorted(shape)}
    return [_fill(item, it) for item in shape] if isinstance(shape, list) else next(it)


def table_rows(table):
    """The rows of a ``Table``, rebuilt: its shape with each slot filled from its column."""
    return [_fill(table.row, iter(record)) for record in row_leaves(table)]


def json_text(obj, pad="\n"):
    """The record writer's text of ``obj``, its parts joined."""
    parts = []
    _write(obj, pad, parts)
    return "".join(parts)


# -- sparse Laurent arithmetic ----------------------------------------------------


def constant_term(f):
    return f.terms.get((0,) * f.dimension, 0)


def one(dimension):
    return LaurentPoly(dimension, {(0,) * dimension: 1})


def multiply(f, g):
    """Exact product, term by term."""
    if f.dimension != g.dimension:
        raise ValueError("dimension mismatch")
    out = {}
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            e = tuple(x + y for x, y in zip(ef, eg))
            out[e] = out.get(e, 0) + cf * cg
    return LaurentPoly(f.dimension, out)


def power(f, k):
    """k-th power by repeated squaring."""
    if k < 0:
        raise ValueError("negative power of a Laurent polynomial not supported")
    result, square = one(f.dimension), f
    while k:
        if k & 1:
            result = multiply(result, square)
        k >>= 1
        if k:
            square = multiply(square, square)
    return result


def is_palindromic(f):
    return all(f.terms.get(tuple(-x for x in e)) == c for e, c in f.terms.items())


def berkowitz_charpoly(rows):
    """Division-free characteristic polynomial over Z (Berkowitz algorithm).

    Returns coefficients low degree first, monic.  O(m^4); fine for the
    matrix sizes the oracle is used on (<= 36).
    """
    m = len(rows)
    assert all(len(r) == m for r in rows)
    # vector of coefficients of the 1x1 leading block, highest degree first
    vec = [1, -rows[0][0]]
    for i in range(1, m):
        a = rows[i][i]
        row = rows[i][:i]
        col = [rows[j][i] for j in range(i)]
        block = [r[:i] for r in rows[:i]]
        # first column of the Toeplitz matrix: 1, -a, -(row.col),
        # -(row.block.col), -(row.block^2.col), ...
        first = [1, -a]
        cur = col
        for _ in range(i):
            first.append(-sum(x * y for x, y in zip(row, cur)))
            cur = [sum(block[r][c] * cur[c] for c in range(i)) for r in range(i)]
        new = [0] * (i + 2)
        for r in range(i + 2):
            for c in range(min(r + 1, i + 1)):
                new[r] += first[r - c] * vec[c]
        vec = new
    vec.reverse()
    return tuple(vec)


def convolution_matrix(f, N):
    """Rows of the matrix of multiplication by f folded mod N on the
    residues mod N (lexicographic order): entry (i, j) is the folded
    coefficient at residue rep_j - rep_i.  Its eigenvalues are f at the
    N-torsion characters."""
    reps = list(itertools.product(range(N), repeat=f.dimension))
    coeffs = fold_mod_N(f, N).terms
    return tuple(
        tuple(coeffs.get(tuple((x - y) % N for x, y in zip(vj, vi)), 0) for vj in reps)
        for vi in reps
    )


# -- characteristic polynomial by Hessenberg reduction and CRT -----------------


def _charpoly_mod(rows, p):
    """Characteristic polynomial mod p via Hessenberg reduction."""
    m = len(rows)
    h = [[x % p for x in row] for row in rows]
    for k in range(m - 2):
        pivot = next((i for i in range(k + 1, m) if h[i][k]), None)
        if pivot is None:
            continue
        if pivot != k + 1:
            h[k + 1], h[pivot] = h[pivot], h[k + 1]
            for row in h:
                row[k + 1], row[pivot] = row[pivot], row[k + 1]
        inv = pow(h[k + 1][k], -1, p)
        for i in range(k + 2, m):
            f = h[i][k] * inv % p
            if f:
                hi, hk1 = h[i], h[k + 1]
                for j in range(k, m):
                    hi[j] = (hi[j] - f * hk1[j]) % p
                for row in h:
                    row[k + 1] = (row[k + 1] + f * row[i]) % p
    # characteristic polynomials of the leading principal blocks
    polys: list[list[int]] = [[1]]
    for k in range(1, m + 1):
        prev = polys[k - 1]
        cur = [0] + prev  # x * prev
        a = h[k - 1][k - 1]
        for i in range(k):
            cur[i] = (cur[i] - a * prev[i]) % p
        prod = 1
        for i in range(k - 2, -1, -1):
            prod = prod * h[i + 1][i] % p
            if prod == 0:
                break
            coef = h[i][k - 1] * prod % p
            if coef:
                pi = polys[i]
                for j in range(len(pi)):
                    cur[j] = (cur[j] - coef * pi[j]) % p
        polys.append(cur)
    return polys[m]


def _coefficient_bound(rows):
    """Bound on |coefficient j| of the characteristic polynomial: each is a
    sum of binom(m, j) principal minors, each at most rho**j in absolute
    value for rho the maximal absolute row sum."""
    m = len(rows)
    rho = max((sum(abs(x) for x in row) for row in rows), default=0)
    best = 1
    term = 1
    for j in range(1, m + 1):
        term = term * (m - j + 1) // j  # binom(m, j), exact when updated in order
        bound = term * rho**j
        if bound > best:
            best = bound
    return best


def charpoly_exact(rows, prime_start=2**62):
    """Exact monic characteristic polynomial of a square integer matrix,
    given as a sequence of integer rows.  Residues are computed modulo
    descending word-sized primes until their product exceeds twice the
    coefficient bound, then lifted symmetrically.
    """
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("matrix must be square")
    need = 2 * _coefficient_bound(rows) + 1
    residues: list[list[int]] = []
    used: list[int] = []
    product = 1
    for p in primes_below(prime_start):
        residues.append(_charpoly_mod(rows, p))
        used.append(p)
        product *= p
        if product > need:
            break
    coeffs = []
    for j in range(m + 1):
        x, mod = 0, 1
        for res, p in zip(residues, used):
            # incremental CRT
            t = (res[j] - x) * pow(mod, -1, p) % p
            x += mod * t
            mod *= p
        if x > mod // 2:
            x -= mod
        coeffs.append(x)
    return tuple(coeffs)


# -- integer polynomials as coefficient tuples, low degree first -----------------


def from_roots(roots):
    """prod (z - r) over the roots, one linear factor at a time."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


def poly_product(a, b):
    """a * b for coefficient tuples, low degree first, term by term."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def evaluate_at_integer(p, z):
    """Horner evaluation, exact."""
    acc = 0
    for c in reversed(p):
        acc = acc * z + c
    return acc


def divides(p, q):
    """True iff the monic polynomial p divides q in Z[z], by schoolbook long division."""
    if p[-1] != 1:
        raise ValueError("divisor must be monic")
    return not any(_divmod_monic(q, p)[1])


def expanded(b):
    """b_N of the SpectralFactors b as a coefficient tuple, low degree first: its
    coefficient text read through Decimal, as int() of text refuses past 4300 digits."""
    return tuple(int(Decimal(t)) for t in b.coefficient_text)


# -- spectral polynomial one linear factor at a time ---------------------------


def loop_character_rows(folded, N):
    """W at each N-torsion character k as the sparse row ((r, A_r), ...),
    one character at a time, counted by multiplicity."""
    terms = folded.sorted_terms()
    rows = Counter()
    for k in itertools.product(range(N), repeat=folded.dimension):
        row = {}
        for e, c in terms:
            r = sum(x * y for x, y in zip(e, k)) % N
            row[r] = row.get(r, 0) + c
        rows[tuple(sorted(row.items()))] += 1
    return rows


def linear_factor_lift(folded, N, prime_start=2**62):
    """prod over the N-torsion characters of (z - W(chi)): modulo each
    split prime, one linear factor (z - v) at a time, then lifted by CRT
    past twice the Maclaurin bound.  O(m**2) per prime."""
    m = N**folded.dimension
    rows = loop_character_rows(folded, N)
    need = 2 * _maclaurin_bound(m, constant_term(folded)) + 1
    lifted, mod = [0] * (m + 1), 1
    for p in primes_below(prime_start, N):
        omega = root_of_unity(N, p)
        powers = [pow(omega, r, p) for r in range(N)]
        poly = [1]  # low degree first
        for row, mult in rows.items():
            v = sum(a * powers[r] for r, a in row) % p
            for _ in range(mult):
                poly = [(a - v * b) % p for a, b in zip([0] + poly, poly + [0])]
        inv = pow(mod, -1, p)
        lifted = [x + mod * ((r - x) * inv % p) for x, r in zip(lifted, poly)]
        mod *= p
        if mod > need:
            return tuple(x - mod if x > mod // 2 else x for x in lifted)
    raise ArithmeticError(f"primes 1 mod {N} below {prime_start} exhausted")


def crt_point_values(folded, N, zs, prime_start=2**62):
    """b_N(z) at each integer z in ``zs`` with no b_N built: modulo each
    split prime, the product over the character rows of (z - v)**mult,
    lifted by CRT past 2 (|z| + c0)**m + 1 >= 2 |b_N(z)| + 1, c0 the mean
    root, which bounds |b_N(z)| by Maclaurin's inequality."""
    m = N**folded.dimension
    rows = loop_character_rows(folded, N)
    need = 2 * (max(map(abs, zs), default=0) + constant_term(folded)) ** m + 1
    lifted, mod = [0] * len(zs), 1
    for p in primes_below(prime_start, N):
        omega = root_of_unity(N, p)
        values = [sum(a * pow(omega, r, p) for r, a in row) % p for row in rows]
        residues = [
            math.prod(pow(z - v, mult, p) for v, mult in zip(values, rows.values())) % p
            for z in zs
        ]
        inv = pow(mod, -1, p)
        lifted = [x + mod * ((r - x) * inv % p) for x, r in zip(lifted, residues)]
        mod *= p
        if mod > need:
            return tuple(x - mod if x > mod // 2 else x for x in lifted)
    raise ArithmeticError(f"primes 1 mod {N} below {prime_start} exhausted")


# -- moments by K products on the full fold torus ------------------------------
#
# A polynomial folded mod N is an n-dimensional cyclic array of coefficients;
# multiplying by f is one np.roll per folded term.  Folding mod
# k*max|exponent| + 1 leaves the constant term of f**k alone, so the origin
# of the k-th folded power is the exact k-th moment.


def _stable_modulus(f, k):
    return k * max((abs(x) for e in f.terms for x in e), default=0) + 1


def _fold_setup(f, N, coeff_mod):
    use_int64 = coeff_mod is not None and 1 < coeff_mod <= 32768
    kernel = [
        (e, c if coeff_mod is None else c % coeff_mod)
        for e, c in fold_mod_N(f, N).sorted_terms()
    ]
    acc = np.zeros((N,) * f.dimension, dtype=np.int64 if use_int64 else object)
    for e, c in kernel:
        acc[e] = c
    return kernel, acc


def _roll_multiply(acc, kernel, coeff_mod):
    axes = tuple(range(acc.ndim))
    out = np.zeros_like(acc)
    for e, c in kernel:
        if c:
            out += np.roll(acc, e, axis=axes) * c
    if coeff_mod is not None:
        out %= coeff_mod
    return out


def folded_power_dense(f, k, N, coeff_mod=None):
    """Dense coefficient array of (f**k) folded mod N, by k - 1 products."""
    if k < 1:
        raise ValueError("k must be >= 1")
    kernel, acc = _fold_setup(f, N, coeff_mod)
    for _ in range(k - 1):
        acc = _roll_multiply(acc, kernel, coeff_mod)
    return acc


def _sparse_from_dense(arr, dimension, N):
    terms = {}
    for idx in itertools.product(range(N), repeat=dimension):
        c = int(arr[idx])
        if c:
            terms[idx] = c
    return LaurentPoly(dimension, terms)


def folded_power(f, k, N):
    """f**k folded mod N, as a sparse polynomial."""
    if k == 0:
        return fold_mod_N(one(f.dimension), N)
    return _sparse_from_dense(folded_power_dense(f, k, N), f.dimension, N)


def folded_moment_sweep(f, K, N, coeff_mod=None):
    """Origin coefficients of f**k folded mod N, k = 0..K, one product each."""
    out = [1 if coeff_mod is None else 1 % coeff_mod]
    if K == 0:
        return out
    kernel, acc = _fold_setup(f, N, coeff_mod)
    out.append(int(acc[(0,) * f.dimension]))
    for _ in range(K - 1):
        acc = _roll_multiply(acc, kernel, coeff_mod)
        out.append(int(acc[(0,) * f.dimension]))
    return out


def exact_moment_sweep(f, K, coeff_mod=None):
    """Exact m_0..m_K (mod coeff_mod) on the torus that no power wraps."""
    return folded_moment_sweep(f, K, _stable_modulus(f, max(K, 1)), coeff_mod)


# -- per-item loops of the torus-float kernels ---------------------------------


def tuple_walk_weight_sum(G, k):
    """Based closed-walk weight total of length 2k, one type sequence at a
    time: a sequence of (out-type, back-type) pairs closes iff its folded
    displacement sum vanishes; N^n start vertices."""
    N, n = G.N, G.dimension
    zero = (0,) * n
    total = 0
    for seq in itertools.product(G.pair_deltas, repeat=k):
        disp = zero
        weight = 1
        for delta, w in seq:
            disp = tuple((x + y) % N for x, y in zip(disp, delta))
            weight *= w
        if disp == zero:
            total += weight
    return total * N**n


def loop_adjacency(G):
    """The adjacency export as plain dicts and lists, one vertex and one
    typed edge at a time: each black vertex v sends type t to v + offset_t
    mod N, weighted c_t."""
    residues = [list(v) for v in itertools.product(range(G.N), repeat=G.dimension)]
    edges = [
        {"from": v, "to": [(x + y) % G.N for x, y in zip(v, off)], "type": t, "weight": c}
        for v in residues
        for t, (off, c) in enumerate(G.points)
    ]
    return {"N": G.N, "dimension": G.dimension, "black": residues, "white": residues,
            "edges": edges}


def complex_character_values(f, N):
    """Real part of f at all N-torsion characters, summed in complex
    arithmetic over full index grids, one term at a time."""
    n = f.dimension
    table = np.exp(2j * np.pi * np.arange(N) / N)
    grids = np.indices((N,) * n)
    acc = np.zeros((N,) * n, dtype=complex)
    for e, c in f.sorted_terms():
        phase = np.zeros((N,) * n, dtype=np.int64)
        for j, ej in enumerate(e):
            phase += ej * grids[j]
        acc += c * table[phase % N]
    return acc.real


def loop_clusters(vals, tol):
    """Maximal runs of sorted values with gaps <= tol, as (mean, size), one
    value at a time."""
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            chunk = vals[start:i]
            clusters.append((float(chunk.mean()), len(chunk)))
            start = i
    return tuple(clusters)


# -- number theory ----------------------------------------------------------------


def tuple_count_points(ctx, z, p, nu=1):
    """Points of W = z on the torus over the p^nu-element field, one index
    tuple at a time in field arithmetic."""
    n = ctx.dimension
    F = primitive_modulus(p, nu)
    g_order = p**nu - 1
    terms = [(e, c % p) for e, c in ctx.w.sorted_terms() if c % p]
    gen = _poly_pow((0, 1), 1, F, p)
    table = [(1,) + (0,) * (nu - 1)]
    for _ in range(g_order - 1):
        table.append(_poly_mul_mod(table[-1], gen, F, p))
    target = (z % p,) + (0,) * (nu - 1)
    count = 0
    for idx in itertools.product(range(g_order), repeat=n):
        acc = (0,) * nu
        for e, c in terms:
            k = sum(ej * ij for ej, ij in zip(e, idx)) % g_order
            acc = tuple((x + c * y) % p for x, y in zip(acc, table[k]))
        if acc == target:
            count += 1
    return count


def sieve(limit):
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
    return list(itertools.compress(range(limit + 1), flags))


def miller_rabin_twelve(n):
    """Miller-Rabin to the twelve prime bases 2..37: deterministic below
    318665857834031151167461 (Sorenson and Webster)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % a == 0 for a in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def exact_lift_precision(z, c2, N, p):
    """The least K with p^K > (|z| + c2)^phi(N), phi counted by gcd, both
    sides exact integers: K doubled past the bound, then bisected."""
    bound = (abs(z) + c2) ** sum(math.gcd(k, N) == 1 for k in range(1, N + 1))
    lo, hi = 0, 1  # p^lo <= bound < p^hi once the doubling stops
    while p**hi <= bound:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if p**mid <= bound else (lo, mid)
    return hi


def primes_below(start, N=1):
    """Yield primes p < start with p = 1 (mod N) in descending order, each
    passing Miller-Rabin.  For N > 1 these are the primes whose field F_p
    holds the N-th roots of unity."""
    step = N if N % 2 == 0 else 2 * N  # odd p = 1 (mod N)
    yield from filter(is_prime, range(start - 1 - (start - 2) % step, 2, -step))
    if N == 1 and start > 2:
        yield 2


def root_of_unity(N, p):
    """An element of exact multiplicative order N modulo a prime p = 1 (mod N):
    g**((p - 1) / N) for the first g = 2, 3, ... that gives one."""
    if (p - 1) % N:
        raise ValueError(f"{p} is not 1 mod {N}")
    quotients = [N // q for q in prime_factors(N)]
    for g in range(2, p):
        omega = pow(g, (p - 1) // N, p)
        if all(pow(omega, e, p) != 1 for e in quotients):
            return omega
    return 1  # N = 1 (or p = 2)


def split_primes(N, need, start):
    """The fewest primes p = 1 (mod N) below start, descending, whose
    product exceeds need, the whole product formed again for each."""
    chosen = []
    for p in primes_below(start, N):
        chosen.append(p)
        if math.prod(chosen) > need:
            return chosen
    raise ArithmeticError(f"primes 1 mod {N} below {start} exhausted")


# -- the two moment series, each its own loop ---------------------------------------


def hilbert_moment_series(ctx, z, K):
    """sum m_k / z^(k+1), k = 0..K, as (m_k / C2^k) * (C2/z)^k / z."""
    C2 = ctx.ps.total_weight**2
    m = ctx.moment_sequence(K)
    zinv = 1 / complex(z)
    base = C2 * zinv
    acc = 0j
    scaled = 1 + 0j
    c2pow = 1
    for k in range(K + 1):
        acc += float(Fraction(m[k], c2pow)) * scaled * zinv
        scaled *= base
        c2pow *= C2
    return acc


def mahler_moment_series(ctx, z, K):
    """(value, error): |exp(sum m_k / k z^-k, k = 1..K) / z| and the geometric
    tail bound, with m_k / z^k as (m_k / C2^k) * (C2/z)^k."""
    C2 = ctx.ps.total_weight**2
    ratio = C2 / abs(z)
    m = ctx.moment_sequence(K)
    zinv = 1 / complex(z)
    base = C2 * zinv
    acc = 0j
    scaled = base
    c2pow = C2
    for k in range(1, K + 1):
        acc += float(Fraction(m[k], c2pow)) / k * scaled
        scaled *= base
        c2pow *= C2
    value = abs(zinv * np.exp(acc))
    tail = ratio ** (K + 1) / ((K + 1) * (1 - ratio))
    return float(value), float(value * tail)
