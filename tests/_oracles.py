"""Independent slow reference implementations used only by the test suite.

These stay deliberately separate from the package code paths they check.
"""

import itertools
from fractions import Fraction

import numpy as np

from speclat.laurent import LaurentPoly, fold_mod_N
from speclat.primes import primes_below
from speclat.specpoly import IntPolynomial


# -- sparse Laurent arithmetic ----------------------------------------------------


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


def charpoly_exact(matrix, prime_start=2**62):
    """Exact monic characteristic polynomial of a square integer matrix.

    Accepts a ConvolutionMatrix or any sequence of integer rows.  Residues
    are computed modulo descending word-sized primes until their product
    exceeds twice the coefficient bound, then lifted symmetrically.
    """
    rows = getattr(matrix, "rows", matrix)
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
    return IntPolynomial(tuple(coeffs))


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


def charpoly_from_eigen_product(values, z):
    """prod(z - v) for a float check."""
    acc = 1.0
    for v in values:
        acc *= z - v
    return acc


def series_inverse(coeffs, K):
    """Reciprocal of a rational power series with nonzero constant term,
    truncated to K+1 coefficients."""
    c0 = Fraction(coeffs[0])
    inv = [1 / c0]
    for k in range(1, K + 1):
        s = Fraction(0)
        for j in range(1, min(k, len(coeffs) - 1) + 1):
            s += Fraction(coeffs[j]) * inv[k - j]
        inv.append(-s / c0)
    return inv


def series_multiply(a, b, K):
    out = [Fraction(0)] * (K + 1)
    for i, ai in enumerate(a[: K + 1]):
        if ai:
            for j, bj in enumerate(b[: K + 1 - i]):
                out[i + j] += Fraction(ai) * Fraction(bj)
    return out


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
