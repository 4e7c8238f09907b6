"""Generalized Dedekind and Rademacher symbols for Gamma(N), Gamma0(N),
Gamma1(N) and Gamma0(N)+.

One integer formula, _psi_weighted, gives every level-N symbol: for an even
weight row w mod N and a constant K1,

    Psi(g) = K1 (a+d)/c - 3 sign(c (a+d)) w_0
             - (12/|c|) sum_{0 < j < |c|} j w_j ((aj/c)),

with each row's constants and its vectors of length N, indexed by residue
mod N, cached as one record.  Gamma(N) at infinity takes w_j = C_{N,j}/mu
and K1 = 1/N, with mu its projective index and C_{N,j} the even row whose
constant terms sum_b C_b B2bar(tb/N) are mu/(6N^2) at t = +-1 and 0 at
every other t: the unique solution of one square integer system in the
values 6N^2 B2bar(k/N).  Gamma0(N)+ takes w_j = tau(gcd(j, N))/psi(N),
tau the number of divisors and psi(N) = prod_{p | N} (p + 1), and K1 = 1.
takada_phi is phi_general on Gamma(N) at infinity, Psi +
3 w_0 sign(c (a+d)); at N = 1, where the descent does not run, psi_general
and takada_phi are the classical symbols.
The sawtooth sum splits by residue class mod N into Rademacher's shifted
Dedekind sums, which one Euclid descent on (a, |c|/N) evaluates through
their reciprocity law, so every value is exact and costs O(log |c|) at any
size of c.

Gamma0(N) takes one divisor-basis solve, with one weight per
divisor d of N for the cusps p/q with gcd(q, N) = d.  Those cusps are the
phi(gcd(d, N/d)) classes a/d, a a unit mod gcd(d, N/d), so a Gamma0(N) cusp
has a basis, the indicator of its d, exactly when gcd(d, N/d) <= 2: always
at 0 and infinity, and at every cusp for squarefree N.  A Gamma0(N) symbol
is the divisor sum sum_e c_e psi_classical([[a, eb], [c/e, d]]).
Gamma0(N)+ takes weight 1 at every d, since its Atkin-Lehner involutions
permute the cusps of Gamma0(N) simply transitively; that basis is
c_e = 1/psi(N), and its divisor sum the one formula above.  Neither builds
a coset table.

Gamma(N) and Gamma1(N) take one weighted descent per symbol.  Every
Atkin-Lehner matrix W_Q, Q || N, normalizes +-Gamma1(N), so
Psi_a(g) = Psi_b(W_Q g W_Q^-1) at b = W_Q a, with Q chosen so that N | q^2
at b = p/q.  For the base matrix sigma = [[p, r], [q, s]] of b, every
element of sigma^-1 Gamma1(N) sigma is then +-[[1/u, *], [0, u]] mod N with
u = 1 mod gcd(q s, N), so its Eisenstein series at infinity is a sum of
Gamma(N) series of which only u = +-1 has a constant term: one
_psi_weighted on a row of sums of C_{N,j}, over the width of b.  Gamma(N)
at any cusp is the case u = 1.  At a Gamma0(N) cusp a that shares
gcd(q, N) with another class, g^k lies in +-Gamma1(N) for some k, and
Psi(g) = Psi(g^k)/k is the coset sum of the Gamma1(N) symbols of g^k: one
descent per Gamma1(N)-class above a, weighted by its cosets.  The symbols
run on integer entries, and their terms are added over one integer
denominator into one Fraction; a SymbolValue has no arithmetic, so every
sum of symbols adds Fractions and builds one SymbolValue.

Every element goes to its family's engine as given, the Atkin-Lehner
elements of Gamma0(N)+ read on their raw entries.  The one closed form is
at a split Gamma0(N) cusp: where the power g^k is +-I, g is elliptic of
order k, or +-I, and its symbol is -(2/k) (pi/V) sign(c t) by the
composition law.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .dedekind import pi_over_volume, psi_classical, sign
from .modgroup import (
    Cusp,
    Family,
    GroupElement,
    GroupId,
    _cusp_key,
    _divisors,
    _prime_powers,
    atkin_lehner,
    cosets,
    cusp_width,
    member,
)


# ---------------------------------------------------------------------------
# values


@dataclass(frozen=True)
class SymbolValue:
    """An exact rational symbol value, with no arithmetic."""

    kind = "exact"        # constants that the benchmark still reads
    is_rational = True
    rational: Fraction

    @staticmethod
    def exact(r) -> "SymbolValue":
        return SymbolValue(r if type(r) is Fraction else Fraction(r))

    def __str__(self):
        return str(self.rational)


def _solve_rational(aug):
    """Fraction-free Gauss-Jordan elimination on the augmented rows [A | y]
    of rationals (ints or Fractions).

    Returns the solution x of A x = y as a list of Fractions, or None when
    A has fewer independent rows than columns or the system is
    inconsistent.  A may have more rows than columns.  Each row is scaled
    to integers by the lcm of its denominators; a pivot row p clears its
    column from every other row r as p[col] r - r[col] p, and the new row
    is divided by its content, so no Fraction is built until the one per
    unknown, rhs / diagonal, at the end.
    """
    rows = []
    for row in aug:
        den = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
    m, cols = len(rows), len(rows[0]) - 1
    for col in range(cols):
        piv = next((r for r in range(col, m) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        p = prow[col]
        for r in range(m):
            f = rows[r][col]
            if r != col and f:
                new = [p * x - f * y for x, y in zip(rows[r], prow)]
                g = math.gcd(*new)
                rows[r] = [x // g for x in new] if g > 1 else new
    if any(rows[r][cols] for r in range(cols, m)):
        return None
    return [Fraction(rows[i][cols], rows[i][i]) for i in range(cols)]


# ---------------------------------------------------------------------------
# Takada constants C_{N,j}


@functools.lru_cache(maxsize=None)
def _bernoulli_vector(n: int) -> tuple:
    """v[k] = 6k^2 - 6kn + n^2 = 6n^2 B2bar(k/n) for k = 0..n-1, with
    B2bar(x) = {x}^2 - {x} + 1/6 the periodic Bernoulli function."""
    return tuple(6 * k * k - 6 * k * n + n * n for k in range(n))


@functools.lru_cache(maxsize=None)
def takada_C_row_exact(n: int):
    """The full row (C_{n,0}, ..., C_{n,n-1}) as exact rationals: the even
    combination of the weight-2 Eisenstein series of Gamma(n) with constant
    term 1 at infinity and 0 at every other cusp, that is,
    sum_b C_b B2bar(tb/n) = kappa [t = +-1] with kappa = mu / (6n^2) and mu
    the projective index of Gamma(n).  Scaled by 6n^2, these are the
    equations of the square integer system

        C_b = C_{-b},
        sum_{b mod n} C_b v[tb mod n] = mu [t = 1]   for t = 0..n/2,

    with v = _bernoulli_vector(n).

    The solution is unique.  On the layer gcd(t, n) = d the left side is
    pi^-2 sum_{m >= 1} Chat(mt)/m^2, with Chat the cosine transform of C:
    a convolution on (Z/(n/d))*/+-1 with the kernel sum_{m = +-u} m^-2,
    which is invertible because L(2, chi) != 0 for every even character
    chi.  Going down d from n to 1 fixes Chat layer by layer: it vanishes
    off the units, by the zero right-hand side on the non-units, and the
    unit rows then read off its values at the units (cf. Kubert-Lang,
    Modular Units).  The rows are ordered as the layers are, non-units
    first by decreasing gcd(t, n); _solve_rational eliminates them faster
    in that order than in increasing t.
    """
    if n < 2:
        raise ValueError("need N >= 2")
    v = _bernoulli_vector(n)
    mu = GroupId.gamma(n).psl2z_index()
    half = n // 2
    aug = []
    for t in sorted(range(half + 1), key=lambda t: -gcd(t, n)):
        row = [0] * (half + 1) + [mu if t == 1 else 0]
        for b in range(n):
            row[min(b, n - b)] += v[t * b % n]
        aug.append(row)
    sol = _solve_rational(aug)
    if sol is None:
        raise ArithmeticError(f"the C_{{{n},j}} system is singular")
    return tuple(sol[min(b, n - b)] for b in range(n))


# ---------------------------------------------------------------------------
# the level-N sawtooth sum by Rademacher reciprocity


def _weight_record(n: int, row, k1: Fraction):
    """The record that _psi_weighted reads for the even weight row
    (w_0, ..., w_{n-1}) of rationals mod n and the constant K1:
    (tables, pairs, e1, e0, K) with K1 = e1/K and w_0 = e0/K, and pairs the
    dict in which _descent caches the row's pair sums.  With the row written
    as w_r = C[r] / D over a common denominator, tables is (C, D, u, B),
    each of C, u and B a tuple of n ints: the residue vector
    u[k] = 2n ((k/n)) = 2k - n (0 at k = 0), read at the residue
    k = tr mod n, and the constant terms B[t] = sum_r C[r] 6n^2 B2bar(tr/n)
    through _bernoulli_vector.  On a lift record, the row
    n sum_{u in U/+-1} C_{n,uj}/mu of _cusp_weight, B is n D on +-U and 0
    elsewhere.
    """
    D = math.lcm(*(x.denominator for x in row))
    C = tuple(int(x * D) for x in row)
    u = tuple(2 * k - n if k else 0 for k in range(n))
    v = _bernoulli_vector(n)
    B = tuple(sum(C[r] * v[t * r % n] for r in range(n)) for t in range(n))
    K = math.lcm(k1.denominator, row[0].denominator)
    return (C, D, u, B), {}, int(k1 * K), int(row[0] * K), K


def _descent(n: int, tables, pairs: dict, a: int, c: int) -> tuple[int, int]:
    """sum_{0 < j < |c|} j w_j ((aj/c)) for an even weight row w mod n, with
    n >= 2, n | c and gcd(A, |c|/n) = 1 for A = a sign(c) mod |c|, as
    integers (numerator, denominator): the sawtooth term of the one formula
    that _psi_weighted assembles.  gcd(a, c) = 1 at determinant 1; an
    Atkin-Lehner element with a = e a', d = e d', c = N c' has
    e a'd' - (N/e) b c' = 1 from its determinant, so gcd(a, c/N) = 1.
    tables and pairs are those of the row's _weight_record; the descent
    caches in pairs the pair sums
    sum_r C[r] u[alpha r] u[beta r] = 4n^2 D sum_r w_r ((alpha r/n)) ((beta r/n)),
    indices mod n, under the key alpha n + beta.  C is even, u odd and
    u[0] = u[n/2] = 0, so the terms at r and n - r are equal and the pair
    sum is twice its part over 0 < r < n/2.

    With m = |c| = nM, the residue-r part is
    S_r = m (s(A, M; 0, r/n) + ((Ar/n))/2), where

        s(h, k; x, y) = sum_{mu mod k} ((h(mu + y)/k + x)) (((mu + y)/k))

    is Rademacher's shifted Dedekind sum.  The ((Ar/n))/2 parts cancel in
    the sum over r, since w is even and ((x)) odd, so the sum starts at 0.
    One Euclid descent evaluates all residues at once, with x = alpha r/n
    and y = beta r/n, from

        s(h + qk, k; x, y) = s(h, k; x + qy, y),
        s(h, k; x, y) + s(k, h; y, x) = ((x))((y))
            + (h/k B2bar(y) + B2bar(hy + kx)/(hk) + k/h B2bar(x)) / 2

    (Rademacher, Duke Math. J. 21 (1954); Hall-Wilson-Zagier, Acta Arith.
    73 (1995)).  The reciprocity law needs x, y not both integers, which
    holds for r != 0 because gcd(alpha, beta, n) = 1 is invariant.  At
    r = 0, where s(h, k; 0, 0) is the classical Dedekind sum, the same law
    holds with an extra -1/4 on the right.  Each step is O(1) through the
    tables and the cached pair sums (O(n) the first time a pair (alpha, beta)
    is met), so the cost is O(log |c|) steps.  The sum is accumulated in
    units of 1/(12 n^2 D) over den = M h k: after the step at (h, k) its
    denominator divides M h k (observed at every step, not proved, so a
    remainder raises ArithmeticError), and the integers stay O(log |c|)
    bits.  Moving from the pair (H, k) to (h, k) with h = H mod k scales
    the numerator by M h k / (M H k) = h / H.  At A = 0, where den would be
    0, gcd(A, M) = 1 forces M = 1, so n | a, every ((aj/c)) is
    ((integer)) = 0 and the sum is 0: only an Atkin-Lehner element with
    |c| = N and N | a has it.
    """
    m = abs(c)
    if m % n:
        raise ValueError(f"the level-{n} sawtooth sum needs {n} | c, got c = {c}")
    C, D, u, B = tables
    A = a * sign(c) % m
    if A == 0:
        return 0, 1
    M = m // n
    den, num = M * A * M, 0
    h, k, alpha, beta, sg = A, M, 0, 1, 1
    while True:
        # den = M H k for the pair (H, k) that this step divides
        H = h
        q, h = divmod(h, k)
        alpha = (alpha + q * beta) % n
        pair = pairs.get(alpha * n + beta)
        if pair is None:
            pair = pairs[alpha * n + beta] = 2 * sum(
                C[r] * u[alpha * r % n] * u[beta * r % n]
                for r in range(1, (n + 1) // 2))
        num += sg * 3 * pair * den
        if h == 0:                       # k = 1: s(0, 1; x, y) = ((x))((y))
            return m * num, 12 * n * n * D * den
        term = (h * h * B[beta] + B[(h * beta + k * alpha) % n] + k * k * B[alpha]
                - 3 * n * n * C[0] * h * k)
        num, rem = divmod(num * h, H)
        if rem:
            raise ArithmeticError(
                f"level-{n} descent of {a}/{c}: a partial sum is not over M h k")
        num, den = num + sg * term * M, M * h * k
        h, k, alpha, beta, sg = k, h, beta, alpha, -sg


# ---------------------------------------------------------------------------
# the level-N symbols on integer entries


def _psi_weighted(n: int, rec, a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """The one formula of the level-n symbols: for the _weight_record
    rec = (tables, pairs, e1, e0, K) of an even weight row w mod n and
    K1 = e1/K, the symbol of [[a, b], [c, d]] with n | c is

        Psi = K1 (a+d)/c - 3 sign(c (a+d)) w_0
              - (12/|c|) sum_{0 < j < |c|} j w_j ((aj/c)),

    and K1 b d at c = 0, as integers (numerator, denominator): one _descent,
    and the terms added over its denominator times |c| K.  On the raw
    entries of an Atkin-Lehner element g of Gamma0(N)+ (scale e > 1) it
    gives Psi(g^2)/2 = Psi(g), as the composition-law oracle of the tests
    confirms, so no element is squared."""
    tables, pairs, e1, e0, K = rec
    if c == 0:
        return e1 * b * d, K
    sn, sd = _descent(n, tables, pairs, a, c)
    t = a + d
    return (sign(c) * t * e1 * sd - 3 * sign(c * t) * e0 * abs(c) * sd - 12 * K * sn,
            abs(c) * K * sd)


def _to_infinity(base, g):
    """The entries of adj(base) g base, for integer 4-tuples
    base = (p, r, q, s) and g = (a, b, c, d): det(base) times base^-1 g
    base, the conjugate of g that moves the cusp p/q = base(inf) to
    infinity."""
    p, r, q, s = base
    a, b, c, d = g
    x, y = s * a - r * c, s * b - r * d      # first row of adj(base) g
    z, w = p * c - q * a, p * d - q * b      # second row
    return x * p + y * q, x * r + y * s, z * p + w * q, z * r + w * s


def takada_phi(n: int, g: GroupElement) -> SymbolValue:
    """Dedekind symbol Phi at the cusp infinity of Gamma(N), for g in
    Gamma(N); ValueError for any other g.

    The value is stated in width-normalized coordinates, i.e. for the
    conjugate [[a, b/N], [Nc, d]] of g by the scaling map of the cusp:
    the translation [[1, kN], [0, 1]] has symbol k, and for c != 0

        Phi(g) = (a+d)/(Nc) - (12 / (mu |c|)) * sum_{j=1}^{|c|-1} j C_{N,j} ((aj/c))

    with mu the projective index of Gamma(N): Psi + (pi/V) sign(c (a+d)),
    which is phi_general on Gamma(N) at infinity, and phi_classical at
    N = 1.  Always exact.
    """
    return phi_general(GroupId.gamma(n), Cusp.infinity(), g)


# ---------------------------------------------------------------------------
# symbol engines


def lift_coset_sum(G1: GroupId, G: GroupId, engine, g: GroupElement) -> SymbolValue:
    """Psi^G(g) = sum over tau in G1\\G of Psi^{G1}(tau g tau^{-1}),
    for g in G1 hyperbolic of positive trace and G1 normal in G; the engine
    must return exact SymbolValues (not a NumericPeriod).  The cosets are
    those of modgroup.cosets, so G is SL2(Z) or G1; any other pair raises
    "unsupported containment".
    """
    if not member(g, G1):
        raise ValueError(f"{g} is not in {G1}")
    values = [engine(g.conjugate_by(tau)) for tau in cosets(G1, G)]
    if not all(isinstance(v, SymbolValue) for v in values):
        raise ValueError("the coset sum needs exact SymbolValues")
    return SymbolValue.exact(sum((v.rational for v in values), Fraction(0)))


def psi_general(G: GroupId, cusp: Cusp, g: GroupElement) -> SymbolValue:
    """Rademacher symbol Psi_a(g) on G: one membership check, then g, of
    either sign, goes as given to its family's engine, whose formula holds
    on every element: +-(stabilizer generator of b)^k has the symbol k when
    b is equivalent to a and 0 otherwise, +-I has 0, an elliptic g of order
    m has -(2/m) (pi/V) sign(c t), and an Atkin-Lehner element g of
    Gamma0(N)+ has Psi(g)."""
    if not member(g, G):
        raise ValueError(f"{g} is not in {G}")
    n, fam = G.level, G.family
    if fam is Family.SL2Z or n == 1:
        return SymbolValue.exact(psi_classical(g))
    if fam is Family.GAMMA0_N:
        basis = gamma0_cusp_basis(n, cusp)
        if basis is not None:
            return SymbolValue.exact(psi_gamma0_divisor(g, basis))
    if fam is Family.GAMMA0N_PLUS:
        return SymbolValue.exact(
            Fraction(*_psi_weighted(n, _gamma0_plus_weight(n), *g.entries())))
    return _psi_lift(G, cusp, g)


def phi_general(G: GroupId, cusp: Cusp, g: GroupElement) -> SymbolValue:
    """Dedekind symbol Phi_a(g) = Psi_a(g) + (pi/V) sign(c (a+d)), with the
    sign read off the cusp-normalized conjugate."""
    return SymbolValue.exact(
        psi_general(G, cusp, g).rational + _sign_term(G, cusp, g))


def _sign_term(G: GroupId, cusp: Cusp, g: GroupElement) -> Fraction:
    """(pi/V) sign(c (a+d)) of the cusp-normalized conjugate of g, the
    difference Phi_a(g) - Psi_a(g)."""
    c = _to_infinity(cusp.base_matrix().entries(), g.entries())[2]
    return pi_over_volume(G) * sign(c * g.trace)


# ---------------------------------------------------------------------------
# Gamma0(N): exact symbol from the divisor basis of weight-2 Eisenstein series


def _gamma0_basis(n: int, weights: tuple):
    """Exact coefficients c_e, e | N, of sum_e c_e * e*E2star(e z) with
    constant term weights[i] at the cusps p/q whose gcd(q, N) is the i-th
    divisor of N in increasing order, as a tuple of (e, Fraction) pairs.

    A cusp with gcd(q, N) = d, such as 1/d, has width w = N/gcd(d^2, N),
    and the pullback of e*E2star(e z) there has constant term w gcd(e, d)^2/e.
    Over e, d | N the matrix [gcd(e, d)^2] is a Smith GCD matrix, with
    determinant prod J_2(d) != 0, so every weighting has exactly one
    solution.
    """
    G = GroupId.gamma0(n)
    divs = _divisors(n)
    sol = _solve_rational(
        [[Fraction(w * gcd(e, d) ** 2, e) for e in divs] + [Fraction(x)]
         for d, x in zip(divs, weights) for w in [cusp_width(G, Cusp(1, d))]])
    # each E_{2,a} has 1/y part -V^{-1}/y, each e*E2star(e z) has -3/(pi y);
    # every weighted d is the denominator of exactly one class, so the
    # weights sum over the classes
    kappa = pi_over_volume(G)
    if sol is None or sum(sol) != sum(weights) * kappa / 3:
        raise ArithmeticError(f"the Gamma0({n}) divisor basis fails its 1/y check")
    return tuple(zip(divs, sol))


@functools.lru_cache(maxsize=None)
def gamma0_cusp_basis(n: int, cusp: Cusp):
    """The divisor basis of E_{2,cusp}: weight 1 at d = gcd(q, N) (N at
    infinity, where q = 0) and 0 at the other divisors.  None when
    gcd(d, N/d) > 2, where phi(gcd(d, N/d)) > 1 classes share d."""
    d = gcd(cusp.q, n)
    if gcd(d, n // d) > 2:
        return None
    return _gamma0_basis(n, tuple(int(e == d) for e in _divisors(n)))


def psi_gamma0_divisor(g: GroupElement, basis) -> Fraction:
    """The symbol of the weighting that the divisor basis ((e, c_e), ...)
    solves, as sum_e c_e psi_classical([[a, eb], [c/e, d]])."""
    a, b, c, d = g.entries()
    total = Fraction(0)
    for e, coeff in basis:
        if coeff:
            total += coeff * psi_classical(GroupElement(a, e * b, c // e, d))
    return total


# ---------------------------------------------------------------------------
# Gamma(N), Gamma1(N) and the split Gamma0(N) cusps: one weighted descent


@functools.lru_cache(maxsize=None)
def _cusp_weight(n: int, g: int):
    """The _weight_record, K1 = 1 and w_j = n sum_{u in U/+-1} C_{n,uj}/mu
    with mu the projective index of Gamma(n), of the Eisenstein series at
    infinity of a group whose elements are +-[[1/u, *], [0, u]] mod n for
    u in U = 1 + gZ/n, g | n: a sum of Gamma(n) series at the cusps with
    bottom row +-(0, u), of which only u = +-1 has a constant term.  g = n,
    U = {1}, serves Gamma(n) at every cusp and Gamma1(n) at infinity."""
    C = takada_C_row_exact(n)
    mu = GroupId.gamma(n).psl2z_index()
    units = {min(u, n - u) for u in range(1, n + 1, g)}
    return _weight_record(
        n, [n * sum(C[u * j % n] for u in units) / mu for j in range(n)], Fraction(1))


@functools.lru_cache(maxsize=None)
def _lift_record(G: GroupId, cusp: Cusp) -> tuple:
    """The constants of _psi_class at the cusp a = p/q of G = Gamma(N) or
    Gamma1(N), N >= 2, as (base, Q, record, width): a is evaluated at
    b = W_Q a, W_Q = atkin_lehner(N, Q), with the record
    _cusp_weight(N, gcd(q' s', N)) of the base matrix [[p', r'], [q', s']]
    of b, over the width of b; base = adj(W_Q) [[p', r'], [q', s']] sends
    infinity to a.  With d = gcd(q, N), W_Q sends the p-part of d to that of
    N_p / gcd(d, N_p) for each N_p || Q, so Q is the product of the
    N_p || N with gcd(d, N_p)^2 < N_p, after which N | q'^2: 1 at infinity
    and N at 0.  Gamma(N), normal in SL2(Z), takes Q = 1 and width N."""
    n = G.level
    if G.family is Family.GAMMA_N:
        return cusp.base_matrix().entries(), 1, _cusp_weight(n, n), n
    if G.family is not Family.GAMMA1_N:
        raise ValueError(f"no lift record for {G}")
    d = gcd(cusp.q, n)
    Q = math.prod(n_p for _p, n_p in _prime_powers(n) if gcd(d, n_p) ** 2 < n_p)
    w = atkin_lehner(n, Q)
    b = w.apply_cusp(cusp)
    sigma = b.base_matrix().entries()
    x, y, z, t = w.entries()
    return (_int_mul((t, -y, -z, x), sigma), Q,
            _cusp_weight(n, gcd(sigma[2] * sigma[3], n)), cusp_width(G, b))


@functools.lru_cache(maxsize=None)
def _classes_above(n: int, cusp: Cusp) -> tuple:
    """The Gamma1(N)-classes above the Gamma0(N) cusp a, one (member, n_c)
    per class, n_c the number of cosets tau in Gamma1(N)\\Gamma0(N) with
    tau^-1 a in the class: the ratio w_c / w_a of the widths.  The cosets
    are the tau_u = [[u, (u v - 1)/N], [N, v]], v = u^-1 mod N, one per
    pair of units +-u mod N: the two groups are the preimages of the
    unipotent and the upper triangular subgroup of SL2(Z/N)."""
    gamma1 = GroupId.gamma1(n)
    above = {}                            # class key: [first member, n_c]
    for u in range(1, n // 2 + 1):
        if gcd(u, n) == 1:
            v = pow(u, -1, n)
            c = GroupElement(v, (1 - u * v) // n, -n, u).apply_cusp(cusp)
            above.setdefault(_cusp_key(gamma1, c), [c, 0])[1] += 1
    return tuple((c, m) for c, m in above.values())


def _int_mul(x, y):
    """The product of two integer matrices given as 4-tuples (a, b, c, d)."""
    a, b, c, d = x
    p, q, r, s = y
    return a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s


def _psi_class(G: GroupId, cusp: Cusp, g) -> tuple[int, int]:
    """Psi_a(g) for an integer 4-tuple g in +-G, G = Gamma(N) or Gamma1(N),
    N >= 2, as integers (numerator, denominator): one _psi_weighted on the
    record of _lift_record at adj(base) g base / Q, over the width.
    W_Q normalizes +-Gamma1(N), so Psi_a(g) = Psi_b(W_Q g W_Q^-1), and
    adj(base) g base / Q, by exact division, moves b = W_Q a to infinity.
    With sigma = [[p, r], [q, s]] the base matrix of b, N | q^2 and
    gamma = +-[[1, beta], [0, 1]] mod N, sigma^-1 gamma sigma has bottom
    row +-(-q^2 beta, 1 - q s beta) = +-(0, u) mod N with u = 1 mod
    gcd(q s, N): the Eisenstein series of _cusp_weight.  Where N does not
    divide q^2 the conjugate's c need not be 0 mod N; _descent refuses it."""
    base, Q, rec, width = _lift_record(G, cusp)
    a, b, c, d = _to_infinity(base, g)
    num, den = _psi_weighted(G.level, rec, a // Q, b // Q, c // Q, d // Q)
    return num, den * width


def _psi_lift(G: GroupId, cusp: Cusp, g: GroupElement) -> SymbolValue:
    """Psi_a(g) for g in Gamma(N), Gamma1(N) or Gamma0(N), N >= 2: one
    _psi_class on Gamma(N) and Gamma1(N), and on Gamma0(N)
    Psi_a(g) = (1/k) sum_c n_c Psi^{Gamma1(N)}_c(g^k) over the classes and
    counts of _classes_above, since E_{2,a} of Gamma0(N) is the sum over
    tau in Gamma1(N)\\Gamma0(N) of those of Gamma1(N) at tau^-1 a.
    g^k, the least power with top-left entry +-1 mod N, lies in
    +-Gamma1(N); k <= phi(N)/2 and g^k has about k times the digits of g,
    so each class costs O(k log |c|).  A split cusp needs N >= 9, and
    Gamma1(N) is torsion-free for N >= 4, so g^k = +-I exactly when g is
    elliptic of order k, or +-I with k = 1: then Psi_a(g) is the closed form
    -(2/k) (pi/V) sign(c t) of the composition law, 0 = Phi(g^k), with c
    and t read off the cusp-normalized conjugate of g (0 at +-I).  The sum
    calls _psi_class itself, not this function through its module name,
    which tests replace."""
    n = G.level
    if G.family is not Family.GAMMA0_N:
        return SymbolValue.exact(Fraction(*_psi_class(G, cusp, g.entries())))
    # c = 0 mod N, so the top-left entry of g^k is a^k mod N: g^k is formed
    # on the way to the least k with a^k = +-1
    ent = g.entries()
    gk, k = ent, 1
    while gk[0] % n not in (1 % n, n - 1):
        gk, k = _int_mul(gk, ent), k + 1
    if gk[1] == gk[2] == 0:
        return SymbolValue.exact(-2 * _sign_term(G, cusp, g) / k)
    gamma1 = GroupId.gamma1(n)
    num, den = 0, 1
    for c, m in _classes_above(n, cusp):
        pn, pd = _psi_class(gamma1, c, gk)
        num, den = num * pd + m * pn * den, den * pd
    return SymbolValue.exact(Fraction(num, den * k))


@functools.lru_cache(maxsize=None)
def _gamma0_plus_weight(n: int):
    """The _weight_record of Gamma0(N)+, N squarefree: the even weight row
    w_r = tau(gcd(r, N))/psi(N) mod N, tau the number of divisors and
    psi(N) = prod_{p | N} (p + 1) the index of Gamma0(N), with K1 = 1.

    Psi on Gamma0(N)+, at its one cusp class, is sum_a Psi^{Gamma0(N)}_a on
    Gamma0(N), the symbol of the divisor basis (e, c_e) with weight 1 at
    every d | N (N is squarefree, so each d is one class):
    sum_e c_e psi_classical([[a, eb], [c/e, d]]), which is _psi_weighted on
    w_r = sum_{e | gcd(r, N)} c_e with K1 = sum_e e c_e.  s(a, |c|/e) is the
    part of sum_j ((j/|c|)) ((aj/|c|)) over j = 0 mod e, and
    j = |c| ((j/|c|)) + |c|/2 for 0 < j < |c|, where the 1/2 part cancels
    under j -> |c| - j because w is even.  The system of _gamma0_basis is
    the tensor product over p | N of [[p, 1], [1, p]], of row sums psi(N),
    so c_e = 1/psi(N) at every e and K1 = sigma(N)/psi(N) = 1."""
    divs = _divisors(n)
    psi = GroupId.gamma0(n).psl2z_index()
    return _weight_record(
        n, [sum(r % e == 0 for e in divs) / psi for r in range(n)], Fraction(1))
