"""Exact spectral polynomials of the torsion-level convolution operators.

For torsion level N the spectral polynomial b_N is the monic integer
polynomial of degree m = N^n with one root W(chi) for each N-torsion
character chi of the difference lattice.  One pass per level computes it
without any matrix.  Characters with the same phases e.k mod N (up to order
among equal coefficients c_e) form one class, read once as the row of its
W(chi_k) = sum_e c_e omega**(e.k).  Its characters share the exact order
d = N / gcd(N, r_1, ..., r_T), r_t = e_t.k, as W's exponents e_t span the
lattice.  A unit a of Z_N maps the class of k onto that of a k, of the same
size and order, and W(chi_k) onto its conjugate W(chi_ak), so g_{d,j} =
prod (z - W(chi_C)) over the classes of order d and size j lies in Z[z], and
b_N = prod_{d | N} Psi_d, Psi_d = prod_j g_{d,j}**j the same at each level.

Modulo each split modulus M = 1 (mod N) below 2**62, each row gives one
value v, a leaf z - v, and each g_{d,j} is the product of its leaves in a
balanced tree (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 10)
whose nodes are big-integer products of Kronecker-packed coefficients
(ibid. 8.4): a slot sums at most L = min(len a, len b) products of
residues, so slots of s bytes with 2**(8 s) > L (M - 1)**2 never carry.  No
M need be prime.  The rows are read through the ring map Z[zeta_N] =
Z[x]/(Phi_N) -> Z/M, x -> omega, which exists when omega**N = 1 and each
omega**(N/q) - 1, q a prime factor of N, is a unit mod M: each Phi_d(omega),
d a proper divisor of N, divides one of them, and x**N - 1 = prod_{d | N}
Phi_d(x) leaves Phi_N(omega) = 0 (Washington, Introduction to Cyclotomic
Fields, ch. 2).  ``_certified_moduli`` takes omega = g**((M - 1)/N) for the
first g = 2, 3, ... whose omega**(N/q) all differ from 1: for a prime M, the
omega of exact order N.  It drops M when 2 is a Fermat witness or that
omega fails.  A composite that passes, as 3319 * 647011 does for N = 79, is
as good a modulus, and only such a one can share a factor with another, so
``_split_moduli`` checks its moduli pairwise coprime once, by a product tree.
They are constants of N and the start, so ``_MODULI`` keeps those certified
so far for each, and a call runs the search on only when it needs more: a
process certifies each candidate at most once, whatever its point sets.
The same rows, read p-adically, give the `padic` valuations (see
``arith``); the same classes, modulo such M below 2**31, give every exact
and level moment as a power sum.

The bounds come from the sign of the roots.  Every point a differs from a
fixed point a0 by a lattice vector, so W(chi) = |sum_a c_a chi(a - a0)|**2
lies in [0, C**2], C the total weight.  Maclaurin's inequality (Hardy,
Littlewood and Polya, Inequalities, 2.22) bounds the elementary symmetric
functions of the D roots of a g_{d,j} by binom(D, i) C**(2 i).  Each g_{d,j}
is lifted by CRT over its own ``_split_moduli``: the leading pairwise coprime
split moduli whose product first passes 2**32 times twice its bound.  One
that is not integral (a class split across sizes) lifts outside that bound,
with odds of at most about 2**-32, and raises IntegralityViolation.

h_{d,j}(z) = +-g_{d,j}(-z) has nonnegative coefficients, and so has
H = prod h_{d,j}**j = +-b_N(-z), each at most their sum H(1) = |b_N(-1)|.
Packed in base 10**s, s one more than the digits of H(1), the h_{d,j} of one
j multiply into h_j, and the h_j**j into H, exactly in ``decimal`` and carry
into no slot: the digits of H(10**s), b_N's one packed form, are its
coefficients, with alternating signs, and no integer is converted to text.
b_d | b_N if b_N holds each stratum of b_d, as when d | N.  Else, by
``_packed_divides`` (ibid. 8.4), not if H_d(1) > H_N(1), as a quotient's
roots are >= 0; else iff q, r = divmod(H_N(10**s), H_d(10**s)), at b_N's s,
has r = 0 and H_d(1) Q(1) < 10**s, Q(1) the sum of q's slots.  Then H_d Q
carries into no slot, so it is H_N; and a true quotient's slots sum to
H_N(1) / H_d(1).  The division runs in base 10**k, k = s deg b_d, so that no
operand is much longer than H_d(10**s).  b_N(z) is prod g_{d,j}(z)**j,
evaluated the same way.  Polynomials are tuples of integers, low degree first.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import limits, primes
from .errors import IntegralityViolation, SizeLimit
from .laurent import LaurentPoly, fold_mod_N

_CHAR_BLOCK = 2**20  # cells per block: terms x characters, or primes x terms x classes
_VALUE_BLOCK = 2**16  # cells per block of the float character-value sum
_PRIME_START = 2**62  # the split moduli of the g_j descend from here
# the least factor of each base g < 2**8 that _certified_moduli tries, below 16 for a composite g
_LEAST_FACTOR = [next((d for d in (2, 3, 5, 7, 11, 13) if d < g and g % d == 0), g)
                 for g in range(2**8)]
_MARGIN_BITS = 32  # modulus bits past twice each g_j's bound
# (N, start) -> a tee of _certified_moduli(N, start) that no call advances: it keeps all yielded
_MODULI: dict = {}


def _divmod_monic(q: tuple[int, ...], p: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of q by the monic p in Z[z], low degree first: the
    remainder has the len(p) - 1 low coefficients, all of q when q is shorter."""
    d, rem = len(p) - 1, list(q)
    quot = [0] * (len(q) - d)
    for i in reversed(range(len(quot))):
        quot[i] = f = rem[i + d]
        for j in range(d):  # rem[i + d] goes to 0 as p[d] = 1, and is read no more
            rem[i + j] -= f * p[j]
    return quot, rem[:d]


def integer_root_multiplicity(p: tuple[int, ...], r: int) -> int:
    """Largest m with (z - r)^m dividing p; 0 at once when r != 0 does not
    divide the lowest nonzero coefficient, as a root must."""
    if r and next(filter(None, p), 0) % r:
        return 0
    for mult in itertools.count():
        quot, rem = _divmod_monic(p, (-r, 1))
        if len(p) < 2 or any(rem):
            return mult
        p = quot


# -- exact spectral polynomial by split moduli ----------------------------------


def _character_classes(f: LaurentPoly, shape: tuple[int, ...]):
    """Characters k of Z_N1 x ... x Z_Nn (shape) as k_i N / N_i mod N = lcm(shape), in
    blocks of at most ``_CHAR_BLOCK`` phases: c_t per term t, then per class of equal
    phases e_t.k mod N (sorted within each c) a column of them and its size; one value
    each.  A block holds a run of the k with k <= -k (C order; all have k_1 <= N_1 / 2)
    and the negations of those with k < -k: for a palindromic f, as W is, k and -k
    have the same sorted phases, so each pair is one class."""
    N, m, n = math.lcm(*shape), math.prod(shape), f.dimension
    terms = sorted(f.sorted_terms() or [((0,) * n, 0)], key=lambda t: t[1])  # f = 0: c = 0
    exps = [np.array([e for e, _ in g]) for _, g in itertools.groupby(terms, lambda t: t[1])]
    coeffs, sizes = [c for _, c in terms], np.array(shape)[:, None]
    step, digits = max(_CHAR_BLOCK // len(coeffs) // 2, 1), 63 // N.bit_length()
    stop = (shape[0] // 2 + 1) * (m // shape[0])  # past the last k <= -k
    for start in range(0, stop, step):
        index = np.arange(start, min(start + step, stop))
        neg = np.ravel_multi_index(-np.array(np.unravel_index(index, shape)) % sizes, shape)
        index = np.concatenate([index[index <= neg], neg[index < neg]])
        if not index.size:  # a run of k > -k only
            continue
        chars = np.array(np.unravel_index(index, shape)) * (N // sizes)
        phases = np.concatenate([np.sort(e @ chars % N, axis=0) for e in exps])
        # sort, then run-length, by int64 keys that each read ``digits`` phases in base N
        keys = [phases[j : j + digits] for j in range(0, len(phases), digits)]
        keys = np.array([np.ravel_multi_index(d, (N,) * len(d)) for d in keys])
        order = np.lexsort(keys)
        keys = keys[:, order]
        first = np.flatnonzero(np.concatenate([[True], (keys[:, 1:] != keys[:, :-1]).any(axis=0)]))
        yield coeffs, phases[:, order[first]], np.diff(first, append=len(order))


def _character_rows(folded: LaurentPoly, N: int) -> list:
    """(row, size) for each class of ``_character_classes`` at level N, merged
    across blocks, so each is a whole class: the row ((r_t, c_t), ...) of one
    character k of the class, r_t = e_t.k mod N, so
    W(chi_k) = sum_t c_t omega**r_t for omega of exact order N.  The characters
    of a class share their row, hence their value modulo every split modulus."""
    sizes: dict[tuple, int] = {}
    for coeffs, phases, mult in _character_classes(folded, (N,) * folded.dimension):
        for column, count in zip(map(tuple, phases.T.tolist()), mult.tolist()):
            sizes[column] = sizes.get(column, 0) + count
    return [(tuple(zip(column, coeffs)), count) for column, count in sizes.items()]


def _maclaurin_bound(m: int, c0: int) -> int:
    """max_j binom(m, j) * c0**j: bounds |coefficient| of every monic
    degree-m polynomial whose m roots are nonnegative with mean (or
    maximum) c0."""
    best = term = 1
    for j in range(1, m + 1):
        term = term * (m - j + 1) * c0 // j  # binom(m, j) * c0**j, exact in order
        best = max(best, term)
    return best


def _mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b mod p for coefficient lists (low degree first) with entries in
    [0, p), as one big-integer product: each list is packed into slots of s
    bytes, where 2**(8 s) exceeds the largest slot sum
    min(len a, len b) * (p - 1)**2, so no slot carries into the next."""
    s = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8
    x, y = (int.from_bytes(b"".join([c.to_bytes(s, "little") for c in u]), "little") for u in (a, b))
    out = (x * y).to_bytes((len(a) + len(b) - 1) * s, "little")
    return [int.from_bytes(out[i : i + s], "little") % p for i in range(0, len(out), s)]


def _tree(items: list, pair):
    """``pair`` folded over the items in a balanced tree, pairing neighbours."""
    while len(items) > 1:
        items = [pair(a, b) for a, b in zip(items[::2], items[1::2])] + items[len(items) & ~1 :]
    return items[0]


def _certified_moduli(N: int, start: int):
    """Each (M, omega), M descending, for the odd M = 1 (mod N) below ``start`` with no
    prime factor below 48 but M: omega = g**((M - 1)/N) for the first g < 2**8 whose
    omega**(N/q) all differ from 1, if it certifies M (module docstring)."""
    quotients = [N // q for q in primes.prime_factors(N)]
    step = N if N % 2 == 0 else 2 * N  # odd M = 1 (mod N)
    for M in range(start - 1 - (start - 2) % step, 2, -step):
        if math.gcd(M, primes._PRIMORIAL) not in (1, M):
            continue
        omegas = [0, 1]  # g**((M - 1)/N) for each g, a product of two for a composite g
        for g in range(2, len(_LEAST_FACTOR)):
            d = _LEAST_FACTOR[g]
            omega = omegas[d] * omegas[g // d] % M if d < g else pow(g, (M - 1) // N, M)
            omegas.append(omega)
            if g == 2 and pow(omega, N, M) != 1:  # 2 is a Fermat witness
                break
            units = [pow(omega, e, M) - 1 for e in quotients]  # one gcd shows them all units
            if all(units):
                if (g == 2 or pow(omega, N, M) == 1) and math.gcd(math.prod(units), M) == 1:
                    yield M, omega
                break


def _split_moduli(N: int, need: int, start: int) -> list[tuple[int, int]]:
    """(M, omega) for the fewest pairwise coprime ``_certified_moduli(N, start)``,
    descending, whose product exceeds need.  They are read from ``_MODULI``: a level's
    search runs at most once per process, and only as far as the calls need."""
    table = _MODULI.pop((N, start), None) or itertools.tee(_certified_moduli(N, start), 1)[0]
    chosen, product = [], 1
    for M, omega in table.__copy__():  # a new reader from the first modulus; spares `import copy`
        chosen.append((M, omega))
        product *= M
        # only a composite shares a factor with another M, so this is checked once, by a
        # product tree that reads 0 once two halves do; then each M prime to all before it stays
        if product > need and not _tree([m for m, _ in chosen],
                                        lambda a, b: a * b * (math.gcd(a, b) == 1)):
            chosen = [(m, w) for i, (m, w) in enumerate(chosen) if math.gcd(m, math.prod(
                k for k, _ in chosen[:i])) == 1]
            product = math.prod(m for m, _ in chosen)
        if product > need:
            break
    _MODULI[N, start] = table  # not when the search raised: a later call runs it afresh
    if product > need:
        return chosen
    raise SizeLimit(f"primes 1 mod {N} below {start} run out before {need.bit_length()} bits")


def _crt(residues, moduli: list[tuple[int, int]]) -> list[int]:
    """Each column's x, |x| < prod(M) / 2, from its residues r = x mod M: a row per (M, omega)."""
    lifted, mod = [], 1
    for row, (p, _) in zip(residues, moduli):
        inv = pow(mod, -1, p)
        lifted = [x + mod * ((r - x) * inv % p) for x, r in zip(lifted or [0] * len(row), row)]
        mod *= p
    return [x - mod if x > mod // 2 else x for x in lifted]


def _class_factor_lift(folded: LaurentPoly, N: int, held=()) -> "SpectralFactors":
    """The g_{d,j} of the module docstring: each Psi_d, d | N, whole from the first level
    ``held`` that holds it, and each other g_{d,j} by CRT over its own ``_split_moduli``
    call, past 2**_MARGIN_BITS times twice its bound."""
    top = sum(folded.terms.values())  # W at the trivial character, C**2: every root is in [0, top]
    factors: dict[tuple[int, int], tuple[int, ...]] = {}
    for b in held:  # a level's Psi_d is whole, though its split by class size may differ at another
        taken = {d for d, _ in b.factors if N % d == 0} - {d for d, _ in factors}
        factors.update({(d, j): g for (d, j), g in b.factors.items() if d in taken})
    missing = {d for d in range(1, N + 1) if N % d == 0} - {d for d, _ in factors}
    rows: dict[tuple[int, int], list] = {}
    for row, size in _character_rows(folded, N) if missing else ():  # no class to read if none is missing
        d = N // math.gcd(N, *(r for r, _ in row))  # the exact order of the class's characters
        if d in missing:
            rows.setdefault((d, size), []).append(row)
    for (d, j), rs in sorted(rows.items()):
        bound = _maclaurin_bound(len(rs), top)
        moduli = _split_moduli(N, (2 * bound + 1) << _MARGIN_BITS, _PRIME_START)
        residues = []
        for p, omega in moduli:
            powers = list(itertools.accumulate([omega] * (N - 1), lambda x, w: x * w % p, initial=1))
            leaves = [[-sum(a * powers[r] for r, a in row) % p, 1] for row in rs]
            residues.append(_tree(leaves, lambda a, b: _mul_mod(a, b, p)))
        factors[d, j] = tuple(_crt(residues, moduli))
        if max(map(abs, factors[d, j])) > bound:
            raise IntegralityViolation(f"a g_j of b_{N} is not integral: a class is split")
    return SpectralFactors(dict(sorted(factors.items())), top)


def _character_power_sums(f: LaurentPoly, K: int, shape: tuple[int, ...]):
    """The run of m^-1 sum_chi f(chi)**k, k = 0..K, over the m = prod(shape) characters of
    ``_character_classes``: the constant-residue coefficients of f**k folded
    mod shape (its constant terms when each N_i > k max|e_i|), exactly.  Modulo
    split moduli p = 1 (mod lcm(shape)) below 2**31, rows of int64 arrays, a class
    of value v adds w = mult * v**k, one step per k.  |f(chi)| <= S = sum |c_e|:
    the CRT lifts past 2 m S^K; IntegralityViolation where m does not divide.
    ``moments._moments``, the one caller, checks every other cap first and
    serves K = 0 itself; the moduli are found here, so that their SizeLimit too
    comes before any work: a search is cheap (about 50 ms for 1291 of them), and
    at a level already searched in the process ``_MODULI`` serves them.
    No int64 overflow, whatever the weights: c_e enters reduced mod p, a product
    of two entries is below 2**62 (mult <= 2**20, p < 2**31), a sum of under 2**32
    residues below 2**63, of w over 2**20 classes below 2**51."""
    N, m = math.lcm(*shape), math.prod(shape)
    folded = fold_mod_N(f, N)
    moduli = _split_moduli(N, 2 * m * max(1, sum(map(abs, folded.terms.values()))) ** K, 2**31)

    def run() -> list[int]:
        p, omega = np.array(moduli, dtype=np.int64).T[:, :, None]
        powers = np.ones_like(p)
        while powers.shape[1] < N:  # omega**r for r < N, by doubling
            powers = np.concatenate([powers, powers * (powers[:, -1:] * omega % p) % p], axis=1)
        sums = np.zeros((len(moduli), K + 1), dtype=np.int64)
        for coeffs, phases, mult in _character_classes(folded, shape):
            residues = np.array([[c % q for c in coeffs] for q, _ in moduli], np.int64)[..., None]
            batch = _CHAR_BLOCK // phases.size or 1
            for at in (slice(i, i + batch) for i in range(0, len(moduli), batch)):
                q = p[at]
                v = (residues[at] * powers[at][:, phases] % q[:, :, None]).sum(axis=1) % q
                w = mult
                for k in range(K + 1):
                    sums[at, k] += w.sum(axis=-1)
                    w = w * v % q
                sums[at] %= q
        lifted = _crt(sums.tolist(), moduli)
        if any(s % m for s in lifted):
            raise IntegralityViolation(f"power sums over {shape} are not all divisible by {m}")
        return [s // m for s in lifted]

    return run


def check_level(N: int, n: int, cap: int, what: str = "torsion characters") -> None:
    """Raise unless level N >= 1 has at most ``cap`` of its N^n torsion characters (``what``)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N**n > cap:
        raise SizeLimit(f"{N}^{n} {what} exceed cap {cap}")


def _exact(digits: int) -> decimal.Context:
    """A decimal context that holds integers of up to ``digits`` digits, and raises past them."""
    return decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])


@dataclass(frozen=True)
class SpectralFactors:
    """b_N = prod_{d | N} Psi_d: ``factors`` maps each exact order d | N and class
    size j to g_{d,j}, whose roots are the values of those classes: the strata
    Psi_d = prod_j g_{d,j}**j, d ascending.  ``top`` bounds each root."""

    factors: dict[tuple[int, int], tuple[int, ...]]
    top: int

    @property
    def degree(self) -> int:
        return sum(j * (len(g) - 1) for (_, j), g in self.factors.items())

    def _pack(self, s: int) -> str:
        """The digits of H(10**s), s past those of H(1), each guard digit checked to be 0:
        H = prod_j h_j**j, h_j = prod_d h_{d,j}, each h_j(10**s) by ``_packed_size_product``."""
        ctx, product = _exact(s * self.degree + 1), Decimal(1)
        by_size: dict[int, list[tuple[int, ...]]] = {}
        for (_, j), g in self.factors.items():
            by_size.setdefault(j, []).append(g)
        try:
            for j, gs in sorted(by_size.items(), key=lambda jg: jg[0] * sum(len(g) - 1 for g in jg[1])):
                product = ctx.multiply(product, ctx.power(_packed_size_product(j, gs, s, ctx), j))
        except decimal.Inexact:
            raise IntegralityViolation("b_N overflows its coefficient bound") from None
        text = str(product)
        if text[0] != "1" or len(text) != ctx.prec or text[1::s].strip("0"):
            raise IntegralityViolation("b_N overflows its coefficient bound")
        return text

    @functools.cached_property
    def _packed(self) -> tuple[Decimal, int, str]:
        """H(1) = |b_N(-1)|, s one past its digits, and ``_pack(s)``: b_N's one packed form."""
        at_one = factored_value(self, -1).copy_abs()  # abs() would round to 28 digits
        return at_one, at_one.adjusted() + 2, self._pack(at_one.adjusted() + 2)

    @property
    def coefficient_text(self) -> list[str]:
        """b_N's coefficients as decimal text, low degree first: the slots of
        its packed form, signs restored."""
        _, s, text = self._packed
        m = self.degree
        slots = (text[max(at, 0) : at + s].lstrip("0") or "0" for at in range(len(text) - s, -s, -s))
        return [t if (m - i) % 2 == 0 or t == "0" else "-" + t for i, t in enumerate(slots)]

    def divides(self, other: SpectralFactors) -> bool:
        """True iff self divides other in Z[z]: at once if other holds each factor of self."""
        return self.factors.items() <= other.factors.items() or _packed_divides(self, other)


def _packed_size_product(j: int, gs: list[tuple[int, ...]], s: int, ctx: decimal.Context) -> Decimal:
    """h_j(10**s), h_j = prod h_{d,j} over the g_{d,j} in ``gs``: they multiply, shortest
    first, in slots of w <= s digits, w past those of h_j(1), which bounds every partial
    product, and the slots of the product then move to slots of s digits."""
    hs = [[c if (len(g) - 1 - i) % 2 == 0 else -c for i, c in enumerate(g)] for g in sorted(gs, key=len)]
    if min(map(min, hs)) < 0:
        raise IntegralityViolation(f"g_{j} has a root below 0")
    w = min(s, Decimal(math.prod(map(sum, hs))).adjusted() + 2)
    narrow = (Decimal("".join([str(Decimal(c)).zfill(w) for c in reversed(h)])) for h in hs)
    text = str(functools.reduce(ctx.multiply, narrow))  # h_j(10**w)
    slots = (text[max(at, 0) : at + w] for at in range((len(text) - 1) % w + 1 - w, len(text), w))
    return Decimal("".join([slot.zfill(s) for slot in slots]))


def _packed_divides(b_d: SpectralFactors, b_N: SpectralFactors) -> bool:
    """True iff b_d divides b_N in Z[z], read exactly from b_N's packed form (module docstring)."""
    h_d, (h_n, s, text) = factored_value(b_d, -1).copy_abs(), b_N._packed
    if h_d > h_n:  # a quotient's roots are >= 0, so |Q(-1)| >= 1
        return False
    divisor, k = Decimal(b_d._pack(s)), s * max(b_d.degree, 1)
    r = at_one = Decimal(0)  # the remainder so far, and Q(1) so far
    with decimal.localcontext(_exact(len(text) + 2 * k)):
        for at in range((len(text) - 1) % k + 1 - k, len(text), k):  # base 10**k, top first
            q, r = divmod(r.scaleb(k) + Decimal(text[max(at, 0) : at + k]), divisor)
            q = str(q).zfill(k)  # q < 10**k: k // s slots of Q
            at_one += sum(Decimal(q[i : i + s]) for i in range(0, k, s))
        return not r and (h_d * at_one).adjusted() < s


def level_multiplicity(b: SpectralFactors, r: int) -> int:
    """The multiplicity of the integer r as a root of b_N = prod g_{d,j}**j."""
    return sum(j * integer_root_multiplicity(g, r) for (_, j), g in b.factors.items())


def factored_value(b: SpectralFactors, z: int) -> Decimal:
    """b_N(z) = prod g_{d,j}(z)**j, exactly, by Horner in ``decimal``: each
    Horner step and partial product is at most (|z| + 1 + top)**deg b_N."""
    ctx = _exact(b.degree * (Decimal(abs(z) + 1 + b.top).adjusted() + 1) + 1)
    Z, value = Decimal(z), Decimal(1)
    for (_, j), g in b.factors.items():
        acc = Decimal(0)
        for c in reversed(g):
            acc = ctx.fma(acc, Z, c)
        value = ctx.multiply(value, ctx.power(acc, j))
    return value if value else Decimal(0)  # not -0, from a negative times a zero factor


def spectral_factors(w: LaurentPoly, N: int, held=()) -> SpectralFactors:
    """b_N, the monic integer polynomial of degree N^n whose roots are the values of w
    at all N-torsion characters, as prod_{d | N} Psi_d, within ``limits.DEFAULT_SIZE_LIMIT``
    characters, each Psi_d read whole from the first of ``held``, earlier levels of w, with d.
    w must be a diffraction polynomial: the bounds rest on its nonnegative values."""
    check_level(N, w.dimension, limits.DEFAULT_SIZE_LIMIT)
    b = _class_factor_lift(fold_mod_N(w, N), N, held)
    if b.degree != N**w.dimension:  # a stratum held that is not one of w's
        raise ValueError(f"b_{N} of degree {b.degree}, not {N}^{w.dimension}: a level held is not w's")
    return b


# -- floating-point character evaluation ---------------------------------------


def character_rows(f: LaurentPoly, N: int):
    """rows(r0, r1, out=None): the real part of f at the N-torsion characters
    k with r0 <= k_0 < r1, as an (r1 - r0, N, ..., N) array (the first rows of
    ``out``, when given), bit for bit those rows of ``character_values(f, N)``;
    the cos table is built once, here.

    Only meaningful for palindromic f (real values).  Term c x^e adds
    c cos(2 pi (e.k mod N) / N), cos the real part of exp(2 pi i r / N).  With
    each e_i reduced to |e_i| <= N/2, its values on rows r0 .. r0 + R - 1 are
    one view, strides e_i, from offset s + (e_0 r0 mod N), of the row
    T_c[j] = c cos(2 pi (j - s) / N), 0 <= j < N + 2 s, that the terms with
    this c share: no view moves over s = reach_0 (R - 1) + sum_{i>0} reach_i
    (N - 1) entries (reach_i the largest |e_i|; R N^(n-1) and R reach_0 stay
    within ``_VALUE_BLOCK``).  c cos(r) has the same bits wherever r is read,
    and each value is its first term plus the others in term order, its sum
    from 0, as no c cos(r) is 0 (f keeps no zero c, and no double is an odd
    multiple of pi / 2): bit for bit the real part of the sum in complex
    arithmetic, whatever rows are asked, and the exact coefficient sum at the
    trivial character (index all zeros).  Raises SizeLimit, before any work,
    when the N^n values exceed ``limits.DEFAULT_FLOAT_CAP``.
    """
    n = f.dimension
    check_level(N, n, limits.DEFAULT_FLOAT_CAP, "character values")
    exps, coeffs = zip(*f.sorted_terms())
    exps = [[(x + N // 2) % N - N // 2 for x in e] for e in exps]
    reach = [max(map(abs, axis)) for axis in zip(*exps)]
    step = max(1, min(N, _VALUE_BLOCK // N ** (n - 1), _VALUE_BLOCK // (reach[0] or 1)))
    span = reach[0] * (step - 1) + sum(reach[1:]) * (N - 1)
    table = {c: i for i, c in enumerate(dict.fromkeys(coeffs))}
    cos = np.exp(2j * np.pi * np.arange(N) / N).real[np.arange(-span, N + span) % N]
    scaled = np.array(list(table), float)[:, None] * cos

    def rows(r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
        acc = np.empty((r1 - r0,) + (N,) * (n - 1)) if out is None else out[: r1 - r0]
        for b0 in range(r0, r1, step):
            block = acc[b0 - r0 : b0 - r0 + step]
            terms = (np.ndarray(block.shape, float, scaled,
                                8 * ((N + 2 * span) * table[c] + span + e[0] * b0 % N),
                                [8 * x for x in e]) for e, c in zip(exps, coeffs))
            block[...] = next(terms)
            for term in terms:
                block += term
        return acc

    return rows


def character_values(f: LaurentPoly, N: int) -> np.ndarray:
    """Real part of f at all N-torsion characters, as an (N,)*n array: every
    row of ``character_rows``, which checks the float cap before any work."""
    return character_rows(f, N)(0, N)
