import functools
import math
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from radsym import modgroup, symbols
from radsym.dedekind import pi_over_volume, sign
from radsym.modgroup import (
    Cusp,
    Family,
    GroupElement,
    GroupId,
    I2,
    Motion,
    S,
    T,
    _TABLE_FAMILIES,
    _coset_invariant,
    _cusp_key,
    _divisors,
    _prime_powers,
    atkin_lehner,
    atkin_lehner_exponents,
    classify,
    coset_table,
    cusp_equivalent,
    cusp_width,
    cusps,
    member,
)
from radsym.symbols import (
    SymbolValue,
    _int_mul,
    _psi_weighted,
    _sign_term,
    _solve_rational,
    _to_infinity,
    _weight_record,
    phi_general,
    psi_general,
    takada_C_row_exact,
)


# The parabolic closed form Psi_a(+-(stabilizer generator of b)^k) = k when
# b is equivalent to a, else 0: no route of radsym reads it, since
# psi_general sends a parabolic g to its family's engine, and it is the
# oracle for that engine.
def parabolic_power(G: GroupId, g: GroupElement) -> tuple[Cusp, int]:
    """Write a parabolic g as +-(stabilizer generator)^k; returns (cusp, k)."""
    # t^2 / e is unchanged by dividing out the content
    if g.trace * g.trace != 4 * g.e or g.is_identity():
        raise ValueError("element is not parabolic")
    c = Cusp.infinity() if g.c == 0 else Cusp(g.a - g.d, 2 * g.c)  # fixed point
    h = g.conjugate_by(c.base_matrix().inverse())   # +-T^t
    t = h.b * h.d                           # translation length, sign included
    w = cusp_width(G, c)
    if t % w != 0:
        raise ValueError(f"{g} is not a power of the stabilizer generator of {c}")
    return c, t // w


def random_sl2z(rng: random.Random, steps: int = 8) -> GroupElement:
    g = GroupElement.identity()
    for _ in range(rng.randint(2, steps)):
        g = g * T ** rng.randint(-3, 3) * S
    return g


def random_hyperbolic_sl2z(rng: random.Random, steps: int = 8) -> GroupElement:
    while True:
        g = random_sl2z(rng, steps)
        if abs(g.trace) > 2 and g.c != 0:
            return g if g.trace > 0 else -g


def random_principal(rng: random.Random, n: int, steps: int = 6) -> GroupElement:
    """Random word in the standard parabolic generators of Gamma(n)."""
    A = T ** n
    B = GroupElement(1, 0, n, 1)
    g = GroupElement.identity()
    for _ in range(rng.randint(2, steps)):
        g = g * (A if rng.random() < 0.5 else B) ** (rng.randint(-2, 2) or 1)
    return g


def random_principal_hyperbolic(rng: random.Random, n: int,
                                steps: int = 6) -> GroupElement:
    while True:
        g = random_principal(rng, n, steps)
        if abs(g.trace) > 2 and g.c != 0:
            return g if g.trace > 0 else -g


def random_principal_deep(rng: random.Random, n: int,
                          bound: int) -> GroupElement:
    """Hyperbolic word of positive trace in the parabolic generators of
    Gamma(n), n >= 3, lengthened until its lower-left entry reaches bound."""
    A = T ** n
    B = GroupElement(1, 0, n, 1)
    g = GroupElement.identity()
    while abs(g.c) < bound or abs(g.trace) <= 2:
        g = g * A ** rng.choice([-2, -1, 1, 2]) * B ** rng.choice([-2, -1, 1, 2])
    return g if g.trace > 0 else -g


def random_in_group(rng: random.Random, G: GroupId,
                    steps: int = 5) -> GroupElement:
    """Random word in a Schreier generating set of G."""
    from radsym.modgroup import schreier_generators

    gens = [g for g in schreier_generators(G) if not g.canonical().is_identity()]
    g = GroupElement.identity()
    for _ in range(rng.randint(1, steps)):
        h = rng.choice(gens)
        g = g * (h if rng.random() < 0.5 else h.inverse())
    return g


def sawtooth(x) -> Fraction:
    """((x)) = x - floor(x) - 1/2 for non-integer x, and 0 on integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum_reciprocity(a: int, c: int) -> Fraction:
    """s(a, c) by the reciprocity descent with one Fraction per Euclid step:
    the oracle for the integer continued-fraction form of dedekind_sum."""
    a %= c
    # s(a,c) = -1/4 + (a/c + c/a + 1/(ac))/12 - s(c mod a, a), unwound
    total = Fraction(0)
    neg = False
    while a:
        num = a * a + c * c + 1 - 3 * a * c
        total += Fraction(-num if neg else num, 12 * a * c)
        neg = not neg
        a, c = c % a, a
    return total


def dedekind_sum_direct(a: int, c: int) -> Fraction:
    """Definitional sum s(a,c) = sum_k ((k/c))((ak/c)); O(c) oracle for
    dedekind_sum.  ((k/c)) = (2k - c)/(2c) for 0 < k < c, so the sum is
    accumulated in exact integer arithmetic over 4c^2."""
    if c < 1 or gcd(a, c) != 1:
        raise ValueError("need coprime a, c with c >= 1")
    total = 0
    for k in range(1, c):
        t = (a * k) % c
        if t:
            total += (2 * k - c) * (2 * t - c)
    return Fraction(total, 4 * c * c)


def cusp_equivalent_search(G: GroupId, c1: Cusp, c2: Cusp) -> GroupElement | None:
    """A witness tau in G with tau*c1 = c2, or None, by trying
    base2 T^k base1^{-1} for k = 0..N-1 with a membership test each: the
    oracle for the class keys in modgroup.cusp_equivalent."""
    g1 = c1.base_matrix()
    g2 = c2.base_matrix()
    n = G.level
    if G.family is Family.GAMMA0N_PLUS:
        G0 = GroupId.gamma0(n)
        for e in atkin_lehner_exponents(n):
            w = atkin_lehner(n, e)
            tau = cusp_equivalent_search(G0, w.apply_cusp(c1), c2)
            if tau is not None:
                return tau * w
        return None
    g1inv = g1.inverse()
    g2tk = g2                                   # base2 T^k
    for _ in range(max(n, 1)):
        tau = g2tk * g1inv
        if member(tau, G):
            return tau
        g2tk = g2tk * T
    return None


def cusp_width_search(G: GroupId, c: Cusp) -> Fraction:
    """Least w >= 1 with base T^w base^{-1} in G, by search: the oracle for
    the closed-form widths in modgroup.cusp_width."""
    base = c.base_matrix()
    binv = base.inverse()
    btw = base                                  # base T^w
    bound = int(G.psl2z_index() * max(G.level, 1)) + G.level + 2
    for w in range(1, bound + 1):
        btw = btw * T
        if member(btw * binv, G):
            return Fraction(w)
    raise ValueError(f"no width <= {bound} found for {c} in {G}")


def cusp_t_orbits(G: GroupId):
    """The cusp classes of G as the T-orbits of its SL2(Z) coset table: the
    coset G g lies on the orbit of the class of g(inf), and the orbit's
    length is that cusp's width.  Returns (the table, the position of each
    coset key, the orbit of each coset, the length of each orbit).  The retired table route of
    modgroup.cusps: the oracle for the class keys and widths read off
    mod N.  The table is built afresh, not cached."""
    tab = coset_table.__wrapped__(G)
    index, act_T, _act_S = coset_action(G, tab.reps)
    orbit = [None] * len(tab.reps)
    lengths = []
    for i in range(len(tab.reps)):
        if orbit[i] is not None:
            continue
        j, length = i, 0
        while orbit[j] is None:
            orbit[j] = len(lengths)
            j = act_T[j]
            length += 1
        lengths.append(Fraction(length))
    return tab, index, orbit, lengths


def coset_action(G: GroupId, reps):
    """The permutation action of T and S on the right cosets G r, r in reps,
    read off the coset keys: returns (the position of each key, act_T,
    act_S), with r_i * T in the coset of r_{act_T[i]}."""
    index = {_coset_invariant(G, r): i for i, r in enumerate(reps)}
    act_T = [index[_coset_invariant(G, r * T)] for r in reps]
    act_S = [index[_coset_invariant(G, r * S)] for r in reps]
    return index, act_T, act_S


class SearchCosetTable:
    """The breadth-first coset table with representatives shrunk by _shrink,
    as modgroup.coset_table built it before it kept the S/T products of its
    search: the oracle for the index, the key order and the act maps."""

    def __init__(self, G: GroupId):
        if G.family not in _TABLE_FAMILIES:
            raise ValueError(f"no SL2(Z) coset table for {G}")
        self.group = G
        reps = [I2]
        index = {_coset_invariant(G, I2): 0}
        queue = [0]
        while queue:
            i = queue.pop(0)
            for gen in (T, S):
                h = reps[i] * gen
                key = _coset_invariant(G, h)
                if key not in index:
                    index[key] = len(reps)
                    reps.append(self._shrink(h))
                    queue.append(index[key])
        # canonical order: sort by invariant key
        order = sorted(range(len(reps)), key=lambda i: _coset_invariant(G, reps[i]))
        self.reps = [reps[i] for i in order]
        self._index, self.act_T, self.act_S = coset_action(G, self.reps)

    def _shrink(self, g: GroupElement) -> GroupElement:
        """Left-multiply by elements of G to keep representative entries small."""
        G = self.group
        n = G.level
        if G.family is Family.SL2Z or n == 1:
            return I2
        # translation steps staying inside G
        t_step = n if G.family is Family.GAMMA_N else 1
        l_step = n
        best = g
        for _ in range(12):
            improved = False
            a, b, c, d = best.entries()
            # T^{k*t_step} from the left: row1 += k*t_step*row2
            if c or d:
                k = -round((a * c + b * d) / (t_step * (c * c + d * d)))
                if k:
                    cand = (T ** (k * t_step)) * best
                    if _size(cand) < _size(best):
                        best, improved = cand, True
            a, b, c, d = best.entries()
            # [[1,0],[l_step,1]]^k from the left: row2 += k*l_step*row1
            if a or b:
                k = -round((a * c + b * d) / (l_step * (a * a + b * b)))
                if k:
                    L = GroupElement(1, 0, l_step, 1)
                    cand = (L ** k) * best
                    if _size(cand) < _size(best):
                        best, improved = cand, True
            if not improved:
                break
        return best.canonical()


def schreier_generators_search(G: GroupId):
    """The Schreier generators of G by a second pass over the coset table:
    rep_i * g * rep_j^-1 for every edge i -> j of T and S, in key order,
    dropping +-I and the inverse of an earlier generator.  The act maps are
    SearchCosetTable's, the representatives modgroup.coset_table's (the two
    share their key order): the oracle for the generators that the coset
    search collects on its non-tree edges."""
    tab, oracle = coset_table(G), SearchCosetTable(G)
    gens = []
    seen = set()
    for i, rep in enumerate(tab.reps):
        for act, gen in ((oracle.act_T, T), (oracle.act_S, S)):
            j = act[i]
            g = rep * gen * tab.reps[j].inverse()
            key = g.canonical()
            if key.is_identity() or key in seen or key.inverse().canonical() in seen:
                continue
            seen.add(key)
            gens.append(key)
    return gens


def _size(g: GroupElement) -> int:
    a, b, c, d = g.entries()
    return a * a + b * b + c * c + d * d


def level_sawtooth_direct(n: int, a: int, c: int, row=None) -> Fraction:
    """sum_{0 < j < |c|} j w_j ((aj/c)) term by term, for the row w mod n
    (by default C_{n,j}): the O(|c|) oracle for the reciprocity descent.
    ((t/m)) = (2t - m)/(2m) for 0 < t < m, so each residue class mod n is
    accumulated as an integer over 2m."""
    m = abs(c)
    A = a * (1 if c > 0 else -1) % m
    sums = [0] * n
    for j in range(1, m):
        t = A * j % m
        if t:
            sums[j % n] += j * (2 * t - m)
    if row is None:
        row = takada_C_row_exact(n)
    return sum((Fraction(s, 2 * m) * cr for s, cr in zip(sums, row)), Fraction(0))


# Gauss-Jordan elimination on Fractions, the solver that symbols used before
# its fraction-free integer elimination: the oracle for
# symbols._solve_rational, and the solver of the test-side divisor bases.
def solve_rational_gauss_jordan(aug):
    """Gauss-Jordan elimination over Q on the augmented rows [A | y].

    Returns the solution x of A x = y as a list of Fractions, or None when
    A has fewer independent rows than columns or the system is
    inconsistent.  A may have more rows than columns, and its entries may
    be ints or Fractions.
    """
    aug = [[Fraction(x) for x in row] for row in aug]
    m, cols = len(aug), len(aug[0]) - 1
    for col in range(cols):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    if any(aug[r][cols] for r in range(cols, m)):
        return None
    return [aug[i][cols] for i in range(cols)]


# The Gamma0(N) coset key that tries every unit mod N: the oracle for the
# gcd normal form in modgroup._coset_invariant.
def gamma0_key_unit_loop(n: int, c: int, d: int):
    """The least (u c mod N, u d mod N) over the units u mod N, N >= 2."""
    c, d = c % n, d % n
    best = None
    for u in range(1, n):
        if gcd(u, n) != 1:
            continue
        cand = ((u * c) % n, (u * d) % n)
        if best is None or cand < best:
            best = cand
    return best


# Membership in SL2(Z), Gamma0(N), Gamma1(N) and Gamma(N) by congruences on
# the entries, independent of the coset key: the oracle for modgroup.member.
def _principal_member(n: int, a: int, b: int, c: int, d: int) -> bool:
    """Whether the determinant-1 matrix [[a, b], [c, d]] is +-I mod n, that
    is, lies in Gamma(n) projectively."""
    return (b % n == 0 and c % n == 0 and (a - d) % n == 0
            and a % n in (1 % n, -1 % n))


def member_by_congruences(g: GroupElement, G: GroupId) -> bool:
    """Membership in SL2(Z), Gamma0(N), Gamma1(N) or Gamma(N), projective
    (g and -g are equivalent), by the congruences on the entries of g."""
    n = G.level
    if G.family is Family.SL2Z:
        return g.e == 1
    if G.family is Family.GAMMA0_N:
        return g.e == 1 and g.c % n == 0
    if G.family is Family.GAMMA1_N:
        if g.e != 1 or g.c % n != 0:
            return False
        return (g.a % n == 1 % n and g.d % n == 1 % n) or (
            g.a % n == (-1) % n and g.d % n == (-1) % n
        )
    if G.family is Family.GAMMA_N:
        return g.e == 1 and _principal_member(n, g.a, g.b, g.c, g.d)
    raise ValueError(G.family)


# The class-indexed divisor-basis solve, one row per cusp class of the
# coset table, whose overdetermined system fails where classes share
# gcd(q, N): the oracle for symbols._gamma0_basis over the divisors of N.
@functools.lru_cache(maxsize=None)
def gamma0_basis_by_class(n: int, weights: tuple):
    """Exact coefficients c_e, e | N, of sum_e c_e * e*E2star(e z) with
    constant term weights[i] at the i-th cusp of cusps(Gamma0(N)), as a
    tuple of (e, Fraction) pairs; None when no such combination exists.

    The pullback of e*E2star(e z) to the cusp p/q of width w has constant
    term w gcd(e, q)^2 / e.  Over e | N the matrix [gcd(e, q)^2] is a Smith
    GCD matrix, with determinant prod J_2(d) != 0, so the system has a
    solution exactly when the weights agree on the classes that share
    gcd(q, N).
    """
    G = GroupId.gamma0(n)
    divs = [e for e in range(1, n + 1) if n % e == 0]
    sol = solve_rational_gauss_jordan(
        [[Fraction(w * gcd(e, cu.q) ** 2, e) for e in divs] + [Fraction(x)]
         for (cu, w), x in zip(cusps(G), weights)])
    if sol is None:
        return None
    # each E_{2,a} has 1/y part -V^{-1}/y, each e*E2star(e z) has -3/(pi y)
    if sum(sol) != sum(weights) * pi_over_volume(G) / 3:
        raise ArithmeticError(f"the Gamma0({n}) divisor basis fails its 1/y check")
    return tuple(zip(divs, sol))


# The Gamma0(N)+ record that symbols._gamma0_plus_weight writes down in
# closed form, built from the solved divisor basis with weight 1 at every
# d | N, 1/y check included: its reference.
def gamma0_plus_weight_by_basis(n: int):
    """The _weight_record of Gamma0(N)+: the divisor basis (e, c_e) with
    weight 1 at every d | N gives the even weight row
    w_r = sum_{e | gcd(r, N)} c_e mod N, with w_0 = sum_e c_e, and
    K1 = sum_e e c_e."""
    basis = symbols._gamma0_basis(n, (1,) * len(_divisors(n)))
    row = [sum(ce for e, ce in basis if r % e == 0) for r in range(n)]
    return _weight_record(n, row, sum(e * ce for e, ce in basis))


def euler_phi(n: int) -> int:
    """The number of units mod n (1 at n = 1)."""
    return sum(gcd(u, n) == 1 for u in range(1, n + 1))


# Ligozat's criterion for eta quotients, solved by Fraction elimination:
# the oracle for torsion_certificate on the rational cuspidal divisors of
# X0(N), independent of the symbol engines and of _solve_rational.
def eta_quotient_order(n: int, d: int) -> int:
    """The order of P_d - phi(gcd(d, N/d)) (inf) on X0(N), d | N, d < N,
    where P_d is the sum of the phi(gcd(d, N/d)) cusp classes a/d.

    The eta quotient prod_{delta | N} eta(delta z)^r_delta vanishes at each
    class a/d' to the order sum_delta A[d'][delta] r_delta with
    A[d'][delta] = N gcd(d', delta)^2 / (24 gcd(d', N/d') d' delta), and it
    is a function on X0(N) when the r_delta are integers with
    sum delta r_delta = 0 mod 24, sum (N/delta) r_delta = 0 mod 24 and
    sum v_p(delta) r_delta even for every prime p | N (Ligozat, Courbes
    modulaires de genre 1, 1975).  A is invertible, so one vector of
    rational exponents r has the divisor P_d - phi(gcd(d, N/d)) (inf), and
    the order is the least multiple m of the lcm of their denominators for
    which m r meets the three conditions.
    """
    divs = [e for e in range(1, n + 1) if n % e == 0]
    target = {d: 1, n: -euler_phi(gcd(d, n // d))}
    r = solve_rational_gauss_jordan(
        [[Fraction(n * gcd(e, delta) ** 2, 24 * gcd(e, n // e) * e * delta)
          for delta in divs] + [target.get(e, 0)] for e in divs])
    den = math.lcm(*(x.denominator for x in r))
    base = [int(x * den) for x in r]
    primes = [p for p in range(2, n + 1) if n % p == 0
              and all(p % q for q in range(2, p))]

    def valuation(p, x):
        k = 0
        while x % p == 0:
            x, k = x // p, k + 1
        return k

    for m in range(1, 25):       # every condition holds at m = 24
        x = [m * b for b in base]
        if (sum(delta * y for delta, y in zip(divs, x)) % 24 == 0
                and sum(n // delta * y for delta, y in zip(divs, x)) % 24 == 0
                and all(sum(valuation(p, delta) * y
                            for delta, y in zip(divs, x)) % 2 == 0 for p in primes)):
            return m * den
    raise AssertionError("24 times the exponents meet every condition")


def bernoulli2_bar(x: Fraction) -> Fraction:
    """The periodic Bernoulli function {x}^2 - {x} + 1/6."""
    x -= math.floor(x)
    return x * x - x + Fraction(1, 6)


# The C_{N,j} system that symbols.takada_C_row_exact solved before its one
# square Bernoulli system, kept as its reference: Mobius-filtered rows P at
# the units, one row per prime p | N and residue mod N/p, and N = 2 apart.
@functools.lru_cache(maxsize=None)
def takada_C_row_reference(n: int):
    """The full row (C_{n,0}, ..., C_{n,n-1}) as exact rationals.

    C_{2,j} = (-1)^j.  For n >= 3 the row is the unique solution of

        C_b = C_{-b},
        sum_{b mod n} C_b P(kb) = kappa [k = 1]   for units 1 <= k <= n/2,
        sum_{t < p} C_{r + t n/p} = 0             for primes p | n, r mod n/p,

    where P(y) = sum_{d | n} mu(d) d^-2 B2bar(yd/n), so that pi^2 P(y) is
    sum_{gcd(m, n) = 1} cos(2 pi m y / n) / m^2, and
    kappa = (n/12) prod_{p | n} (1 - p^-2) = mu / (6 n^2), with mu the
    projective index of Gamma(n) (n >= 3).  The last rows say that the
    discrete Fourier transform of the row vanishes off the units; at a unit
    x it is (n/2) zeta(2) prod_{p | n} (1 - p^-2) sum_{m = +-1/x} mu(m)/m^2,
    and in the unit equations the Mobius sum over m m' = +-1/k collapses to
    [k = +-1] (a Stickelberger-type inversion, cf. Kubert-Lang, Modular
    Units).  The solution is unique because L(2, chi) != 0 for every even
    character chi mod n.  The rows are built as Fractions and solved by
    _solve_rational's fraction-free integer elimination, one Fraction per
    unknown C_b.
    """
    if n < 2:
        raise ValueError("need N >= 2")
    if n == 2:
        return (Fraction(1), Fraction(-1))
    mobius = [(1, 1)]                     # (d, mu(d)) for squarefree d | n
    for p, _q in _prime_powers(n):
        mobius += [(d * p, -mu) for d, mu in mobius]
    P = [sum(Fraction(mu, d * d) * bernoulli2_bar(Fraction(y * d, n))
             for d, mu in mobius) for y in range(n)]
    kappa = GroupId.gamma(n).psl2z_index() / (6 * n * n)
    half = n // 2

    def cls(b):                           # unknown index of C_b = C_{-b}
        return min(b % n, -b % n)

    aug = []
    for k in range(1, half + 1):
        if gcd(k, n) == 1:
            row = [Fraction(0)] * (half + 1) + [kappa if k == 1 else Fraction(0)]
            for b in range(n):
                row[cls(b)] += P[k * b % n]
            aug.append(row)
    for p, _q in _prime_powers(n):
        for r in range(n // p):
            row = [Fraction(0)] * (half + 2)
            for t in range(p):
                row[cls(r + t * (n // p))] += 1
            aug.append(row)
    sol = _solve_rational(aug)
    if sol is None:
        raise ArithmeticError(f"the C_{{{n},j}} system is singular")
    return tuple(sol[cls(b)] for b in range(n))


@functools.lru_cache(maxsize=None)
def gamma_sawtooth_tables(n: int):
    """(C, D, u, B) for the Gamma(n) row w_r = C_{n,r}/mu = C[r]/D, mu the
    projective index, built from the Fraction definitions rather than read
    from the engine's record: the n x n table u[t][r] = 2n ((tr/n)) and
    B[t] = sum_r C[r] 6n^2 B2bar(tr/n), with B2bar(x) = {x}^2 - {x} + 1/6."""
    mu = GroupId.gamma(n).psl2z_index()
    row = [x / mu for x in takada_C_row_exact(n)]
    D = math.lcm(*(x.denominator for x in row))
    C = [int(x * D) for x in row]
    u = [[int(2 * n * sawtooth(Fraction(t * r, n))) for r in range(n)]
         for t in range(n)]
    B = [int(sum(C[r] * 6 * n * n * bernoulli2_bar(Fraction(t * r, n)) for r in range(n)))
         for t in range(n)]
    return C, D, u, B


# The level-N descent as radsym carried it before its closed form: a
# running numerator over den = M h k, rescaled by h/H at every step, with
# the divisibility that keeps it in integers checked, not proved.  Kept
# verbatim as the oracle for the closed form of symbols._descent; given
# its own pairs dict, it shares only the record's tables with it.
def descent_rescaled(n: int, tables, pairs: dict, a: int, c: int) -> tuple[int, int]:
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


@functools.lru_cache(maxsize=None)
def gamma_pair_sum(n: int, alpha: int, beta: int) -> int:
    """sum_r C[r] u[alpha][r] u[beta][r] over the tables of
    gamma_sawtooth_tables(n): the pair term of level_sawtooth_unreduced,
    computed once per (n, alpha, beta)."""
    C, _D, u, _B = gamma_sawtooth_tables(n)
    return sum(C[r] * u[alpha][r] * u[beta][r] for r in range(n))


# The descent with num and den never reduced, so den grows to prod h k:
# the oracle for the Gamma(N) row of symbols._descent, from tables built
# off the Fraction definitions.
def level_sawtooth_unreduced(n: int, a: int, c: int) -> Fraction:
    """sum_{0 < j < |c|} j w_j ((aj/c)) for n | c and gcd(a, c) = 1, with
    w_j = C_{n,j}/mu the Gamma(n) row of takada_C_row_exact.

    With m = |c| = nM and A = a sign(c) mod m, the residue-r part is
    S_r = m (s(A, M; 0, r/n) + ((Ar/n))/2), where

        s(h, k; x, y) = sum_{mu mod k} ((h(mu + y)/k + x)) (((mu + y)/k))

    is Rademacher's shifted Dedekind sum.  One Euclid descent evaluates all
    residues at once, with x = alpha r/n and y = beta r/n, from

        s(h + qk, k; x, y) = s(h, k; x + qy, y),
        s(h, k; x, y) + s(k, h; y, x) = ((x))((y))
            + (h/k B2bar(y) + B2bar(hy + kx)/(hk) + k/h B2bar(x)) / 2

    (Rademacher, Duke Math. J. 21 (1954); Hall-Wilson-Zagier, Acta Arith.
    73 (1995)).  The reciprocity law needs x, y not both integers, which
    holds for r != 0 because gcd(alpha, beta, n) = 1 is invariant.  At
    r = 0, where s(h, k; 0, 0) is the classical Dedekind sum, the same law
    holds with an extra -1/4 on the right.  Each step reads the tables of
    gamma_sawtooth_tables and the pair sum of gamma_pair_sum, O(n) the
    first time (n, alpha, beta) is met, so the cost is O(n log |c|) at
    most.  The sum is accumulated in units of 1/(12 n^2 D).
    """
    m = abs(c)
    if m % n:
        raise ValueError(f"the level-{n} sawtooth sum needs {n} | c, got c = {c}")
    C, D, u, B = gamma_sawtooth_tables(n)
    A = a * sign(c) % m
    # the reciprocity terms have denominators hk; num/den keeps them exact
    # without reducing at every step; the sum starts at the ((Ar/n))/2 parts
    num, den = 3 * n * sum(C[r] * u[A % n][r] for r in range(n)), 1
    h, k, alpha, beta, sg = A, m // n, 0, 1, 1
    while True:
        q, h = divmod(h, k)
        alpha = (alpha + q * beta) % n
        pair = gamma_pair_sum(n, alpha, beta)
        num += sg * 3 * pair * den
        if h == 0:                       # k = 1: s(0, 1; x, y) = ((x))((y))
            return Fraction(m * num, 12 * n * n * D * den)
        term = (h * h * B[beta] + B[(h * beta + k * alpha) % n] + k * k * B[alpha]
                - 3 * n * n * C[0] * h * k)
        num = num * h * k + sg * term * den
        den *= h * k
        h, k, alpha, beta, sg = k, h, beta, alpha, -sg


# The Gamma(N) symbol through GroupElement conjugation and the unreduced
# sawtooth descent: the oracle for the Gamma(N) symbols of the lift route,
# symbols._psi_lift, and of the old route below.
def psi_gamma_conjugated(n: int, cusp: Cusp, g: GroupElement) -> SymbolValue:
    """Psi for Gamma(N) at any cusp, via transport to infinity.

    Every cusp of Gamma(N) is SL2(Z)-equivalent to infinity and Gamma(N) is
    normal in SL2(Z), so Psi_a(g) = Psi_inf(h) for h = tau g tau^{-1} with
    tau a = inf, and

        Psi_inf(h) = (a+d)/(Nc) - (12/|c|) L - (3/mu) sign(c (a+d)),

    with L = level_sawtooth_unreduced(N, a, c) and mu the projective index
    of Gamma(N), and b d / N at c = 0.
    """
    G = GroupId.gamma(n)
    if not member(g, G):
        raise ValueError(f"{g} is not in Gamma({n})")
    h = g.conjugate_by(cusp.base_matrix().inverse())
    if h.c == 0:
        return SymbolValue.exact(Fraction(h.b * h.d, n))
    return SymbolValue.exact(
        Fraction(h.trace, n * h.c)
        - Fraction(12, abs(h.c)) * level_sawtooth_unreduced(n, h.a, h.c)
        - Fraction(3, G.psl2z_index()) * sign(h.c * h.trace))


def psi_word(exponents) -> int:
    """The Rademacher symbol a_1 - a_2 + ... - a_2k of the word
    T^{a_1} U^{a_2} ... U^{a_2k} in T and U = [[1, 0], [1, 1]], for an even
    number of positive exponents, read off the exponents alone: the oracle
    for dedekind.psi_classical on hyperbolic elements."""
    if len(exponents) % 2 or min(exponents) < 1:
        raise ValueError("need an even number of positive exponents")
    return sum(x if i % 2 == 0 else -x for i, x in enumerate(exponents))


# The level-N quotients of Gamma(N) in Gamma1(N) and Gamma0(N), which no
# route of radsym reads, for the coset-sum oracles below; the pair
# Gamma1(N) <= Gamma0(N) is the reference for the units loop of the lift
# route, symbols._classes_above.
@functools.lru_cache(maxsize=None)
def level_cosets(G1: GroupId, G: GroupId) -> tuple:
    """Representatives for G1 \\ G for Gamma(N) <= Gamma1(N), Gamma(N) <=
    Gamma0(N) and Gamma1(N) <= Gamma0(N) at one level N, read off mod N:
    reduction onto SL2(Z/N) is surjective and the three groups are the
    preimages of the trivial, the unipotent and the upper triangular
    subgroup, so G1 \\ G is a set of classes [[a, b], [0, 1/a]] mod N, up to
    sign.  Here a runs over the units mod +-1 for Gamma0(N) (only a = 1 for
    Gamma1(N)) and b over Z/N for Gamma(N) (only b = 0 for Gamma1(N)); each
    class is lifted to [[a, (a d - 1)/N], [N, d]] with a d = 1 + N b mod N^2.
    """
    n = G.level
    if G1.level != n or (G1.family, G.family) not in (
            (Family.GAMMA_N, Family.GAMMA1_N), (Family.GAMMA_N, Family.GAMMA0_N),
            (Family.GAMMA1_N, Family.GAMMA0_N)):
        raise ValueError(f"unsupported containment {G1} <= {G}")
    if G.family is Family.GAMMA1_N:
        units = [1]
    else:                                 # one of each pair a, -a mod N
        units = [a for a in range(1, max(n // 2, 1) + 1) if gcd(a, n) == 1]
    shears = range(n) if G1.family is Family.GAMMA_N else (0,)
    reps = []
    for a in units:
        for b in shears:
            if a == 1 and b == 0:
                reps.append(I2)
                continue
            d = pow(a, -1, n * n) * (1 + n * b) % (n * n)
            reps.append(GroupElement(a, (a * d - 1) // n, n, d))
    expected = G1.psl2z_index() / G.psl2z_index()
    if len(reps) != expected:
        raise ValueError(f"coset enumeration failed: {len(reps)} != {expected}")
    return tuple(reps)


def level_coset_sum(G1: GroupId, G: GroupId, engine, g: GroupElement) -> Fraction:
    """sum over tau in level_cosets(G1, G) of engine(tau g tau^-1), for g in
    G1: the coset sum of symbols.lift_coset_sum over a level-N quotient."""
    if not member(g, G1):
        raise ValueError(f"{g} is not in {G1}")
    return sum((engine(g.conjugate_by(tau)).rational
                for tau in level_cosets(G1, G)), Fraction(0))


def _phi_of(G: GroupId, cusp: Cusp, g: GroupElement, psi: Fraction) -> Fraction:
    h = g.conjugate_by(cusp.base_matrix().inverse())
    return psi + pi_over_volume(G) * sign(h.c * h.trace)


def phi_peel_core_cocycle(G: GroupId, cusp: Cusp, g: GroupElement) -> Fraction:
    """Phi_a(g) for g in G whose image mod N is unipotent upper triangular,
    i.e. g = h T^j with h in Gamma(N)."""
    n = G.level
    kappa = pi_over_volume(G)
    binv = cusp.base_matrix().inverse()
    j = g.b % n
    if (g.a - 1) % n:        # image is -unipotent; use Phi(-g) = Phi(g)
        g = -g
        j = g.b % n
    h = g * (T ** (-j))
    # Phi of T^j at this cusp
    if j == 0:
        phi_t = Fraction(0)
    else:
        inf = Cusp(1, 0)
        tj = (T ** j).conjugate_by(binv)
        if cusp_equivalent(G, inf, cusp):
            base = j  # T generates the infinity stabilizer in these groups
        else:
            base = 0
        phi_t = Fraction(base) + kappa * sign(tj.c * tj.trace)
    # Phi of h in Gamma(N)
    cls = classify(h)
    if cls.tag is Motion.IDENTITY:
        phi_h = Fraction(0)
    elif cls.tag is Motion.PARABOLIC:
        psi_h = psi_general(G, cusp, h).rational
        phi_h = _phi_of(G, cusp, h, psi_h)
    else:
        hh = h if h.trace > 0 else -h
        lifted = level_coset_sum(
            GroupId.gamma(n), G,
            lambda x: psi_gamma_conjugated(n, cusp, x), hh)
        phi_h = _phi_of(G, cusp, h, lifted)
    if j == 0:
        return phi_h
    ch = h.conjugate_by(binv).c
    ct = (T ** j).conjugate_by(binv).c
    cg = g.conjugate_by(binv).c
    return phi_h + phi_t - kappa * sign(ch * ct * cg)


def psi_peel_lift_cocycle(G: GroupId, cusp: Cusp, g: GroupElement) -> SymbolValue:
    """Psi_a(g) for g in Gamma0(N) or Gamma1(N): raise g to a power whose
    image mod N is +-unipotent, evaluate there via Gamma(N), then unwind
    the composition law one power at a time: the oracle for the
    homogeneity route Psi(g^k)/k in symbols._psi_lift."""
    n = G.level
    kappa = pi_over_volume(G)
    binv = cusp.base_matrix().inverse()
    # order of a mod N in (Z/N)*/{+-1}
    k = 1
    acc = g.a % n
    while acc % n not in (1 % n, (n - 1) % n):
        acc = acc * g.a % n
        k += 1
        if k > n:
            raise RuntimeError("unit order computation failed")
    powers = [g]
    for _ in range(k - 1):
        powers.append(powers[-1] * g)
    phi_k = phi_peel_core_cocycle(G, cusp, powers[-1])
    c0 = g.conjugate_by(binv).c
    csigns = [p.conjugate_by(binv).c for p in powers]
    defect = sum(sign(c0 * csigns[i - 1] * csigns[i]) for i in range(1, k))
    phi = (phi_k + kappa * defect) / k
    return SymbolValue.exact(phi - kappa * sign(c0 * g.trace))


# The peel-lift with its Gamma(N) power lifted by the full coset sum, one
# level-N descent per coset: the oracle for the sum over the classes above
# a, with multiplicities, in symbols._psi_lift.
def psi_peel_lift_coset_sum(G: GroupId, cusp: Cusp, g: GroupElement) -> SymbolValue:
    """Psi_a(g) for hyperbolic g in Gamma0(N) or Gamma1(N): raise g to the
    least power g^k whose image mod N is +-unipotent, so g^k = h T^j with h
    in Gamma(N), and return Psi_a(g^k) / k.  For j = 0 the power lies in
    Gamma(N) and is lifted by a coset sum; otherwise the composition law
    peels T^j off once."""
    n = G.level
    # order of a mod N in (Z/N)*/{+-1}
    k = 1
    acc = g.a % n
    while acc % n not in (1 % n, (n - 1) % n):
        acc = acc * g.a % n
        k += 1
        if k > n:
            raise RuntimeError("unit order computation failed")
    gk = g ** k               # positive trace, +-unipotent mod N
    j = gk.a * gk.b % n       # gk = +-h T^j with h in Gamma(N)
    if j == 0:
        lifted = level_coset_sum(GroupId.gamma(n), G,
                                 lambda x: psi_gamma_conjugated(n, cusp, x), gk)
        return SymbolValue.exact(lifted / k)
    tj = T ** j
    h = gk * T ** (-j)
    binv = cusp.base_matrix().inverse()
    c3 = (h.conjugate_by(binv).c * tj.conjugate_by(binv).c
          * gk.conjugate_by(binv).c)
    # Phi(T^j) by the parabolic closed form, not by the engine, which tests
    # replace with this oracle
    fixed, kt = parabolic_power(G, tj)
    phi_t = (kt if cusp_equivalent(G, fixed, cusp) else 0) + _sign_term(G, cusp, tj)
    # Phi(h T^j) = Phi(h) + Phi(T^j) - (pi/V) sign(c_h c_T c_gk)
    phi = phi_general(G, cusp, h).rational + phi_t
    psi = phi - pi_over_volume(G) * sign(c3) - _sign_term(G, cusp, gk)
    return SymbolValue.exact(psi / k)


# The lift route that symbols._psi_lift replaced, kept as its reference:
# the least power g^k that is +-unipotent mod N is peeled to g^k = h T^j
# with h in Gamma(N), and h is lifted by a sum over the Gamma(N)-cusps above
# the cusp, each weighted by its number of cosets of Gamma(N), found by a
# walk over the N phi(N)/2 cosets of Gamma(N) in Gamma0(N).


@functools.lru_cache(maxsize=None)
def gamma_weight(n: int):
    """The _weight_record of Gamma(n), n >= 2: w_j = C_{n,j}/mu, with mu the
    projective index of Gamma(n), and K1 = 1/n.  C_{n,0} = 1, the Mobius
    sum (pi^2/6) prod_{p | n} (1 - p^-2) sum_{gcd(m, n) = 1} mu(m)/m^2, so
    w_0 = 1/mu and 3 w_0 = pi/V is the sign weight of Gamma(n)."""
    mu = GroupId.gamma(n).psl2z_index()
    return _weight_record(n, [x / mu for x in takada_C_row_exact(n)], Fraction(1, n))


def psi_gamma_sum(n: int, above, g) -> tuple[int, int]:
    """sum m Psi^{Gamma(n)}_{base(inf)}(g) over the pairs (m, base) of
    above, for n >= 2 and g = (a, b, c, d) in Gamma(n) up to sign, as
    integers (numerator, denominator): _psi_weighted on the row of
    gamma_weight at each cusp-normalized conjugate, added over one
    denominator, so the caller builds one Fraction."""
    rec = gamma_weight(n)
    num, den = 0, 1
    for m, base in above:
        pn, pd = _psi_weighted(n, rec, *_to_infinity(base, g))
        num, den = num * pd + m * pn * den, den * pd
    return num, den


@functools.lru_cache(maxsize=None)
def cusps_above(G: GroupId, cusp: Cusp) -> tuple:
    """The per-(group, cusp) constants of the old lift route at the cusp
    a = p/q of G = Gamma0(N) or Gamma1(N), as (w, Q, wa, above, base,
    at_infinity, pv, qv):

    - w, Q, wa: the entries of W_Q = atkin_lehner(N, Q) and the cusp
      W_Q a at which the symbols at a are evaluated.  With d = gcd(q, N),
      W_Q sends the p-part of d to that of N_p / gcd(d, N_p) for each
      prime-power part N_p || Q, and a Gamma1(N) cusp with d has at most
      N/d Gamma(N)-cusps above it, so Q is the product of the N_p || N
      with gcd(d, N_p)^2 < N_p, and W_Q a has at most gcd(d, N/d):
      Q = 1 (W_Q = I) at infinity and Q = N at 0;
    - above: the Gamma(N)-cusps above W_Q a, one (coset count, base
      entries) per Gamma(N)-class of its images under tau^-1,
      tau in Gamma(N)\\G, with the base matrix of the first member;
    - base: the entries of the base matrix of W_Q a;
    - at_infinity: whether W_Q a is G-equivalent to infinity;
    - pv / qv = pi/V of G in lowest terms.
    """
    n = G.level
    d, Q = gcd(cusp.q, n), 1
    for p, _q in _prime_powers(n):
        n_p = p
        while n % (n_p * p) == 0:
            n_p *= p
        if gcd(d, n_p) ** 2 < n_p:
            Q *= n_p
    w = atkin_lehner(n, Q)
    wa = w.apply_cusp(cusp)
    gamma_n = GroupId.gamma(n)
    above = {}                    # class key: [first cusp, coset count]
    for tau in level_cosets(gamma_n, G):
        c = tau.inverse().apply_cusp(wa)
        above.setdefault(_cusp_key(gamma_n, c), [c, 0])[1] += 1
    pv = pi_over_volume(G)
    return (w.entries(), Q, wa,
            tuple((m, c.base_matrix().entries()) for c, m in above.values()),
            wa.base_matrix().entries(), cusp_equivalent(G, Cusp.infinity(), wa),
            pv.numerator, pv.denominator)


def psi_peel_lift(G: GroupId, cusp: Cusp, g: GroupElement) -> SymbolValue:
    """Psi_a(g) for hyperbolic g in Gamma0(N) or Gamma1(N): raise g to the
    least power g^k whose image mod N is +-unipotent, so g^k = h T^j with h
    in Gamma(N) up to sign, and return Psi_a(g^k) / k.  The power and the
    peel run on integer 4-tuples.

    W_Q of cusps_above normalizes Gamma0(N) and +-Gamma1(N), so the
    symbol is Psi_b(W_Q g adj(W_Q) / Q) at b = W_Q a, formed on integers
    with exact division.  With h = (a, b - ja, c, d - jc) in Gamma(N), the
    composition law Phi(h T^j) = Phi(h) + Phi(T^j) - (pi/V) sign(c_h c_T c_g)
    gives

        Psi(g^k) = Psi(h) + Psi(T^j) + (pi/V) (sign(c_h t_h) + sign(c_T)
                   - sign(c_h c_T c_g) - sign(c_g t_g)),

    with each c read off the conjugate normalized at b.  Psi_b(T^j) is j
    when b is G-equivalent to infinity, whose width is 1 on both families,
    and 0 otherwise.  At j = 0, h = g^k and c_T = 0, so every sign term
    cancels and the one step serves every j.

    A hyperbolic h, on +-h of positive trace, has Psi^G_b(h) the coset sum
    over tau in Gamma(N)\\G of Psi^{Gamma(N)}_b(tau h tau^-1) =
    Psi^{Gamma(N)}_{tau^-1 b}(h).  Its terms depend only on the
    Gamma(N)-class +-(p, q) mod N of tau^-1 b, so it is a sum over the
    Gamma(N)-cusps above b, each weighted by its number of cosets: one
    level-N descent per class, added in integers by psi_gamma_sum.  Only a
    non-hyperbolic h goes to psi_general."""
    n = G.level
    w, Q, wa, above, base, at_infinity, pv, qv = cusps_above(G, cusp)
    p, q, r, s = w                    # base adj(W_Q): W_Q g adj(W_Q)
    a, b, c, d = _to_infinity((s, -q, -r, p), g.entries())
    ent = a // Q, b // Q, c // Q, d // Q
    # the least power of a unit a mod N that is +-1, with g^k formed on the
    # way: c = 0 mod N, so the top-left entry of g^k is a^k mod N, and the
    # loop ends within phi(N) steps
    gk, k = ent, 1
    while gk[0] % n not in (1 % n, n - 1):
        gk, k = _int_mul(gk, ent), k + 1
    a, b, c, d = gk                   # positive trace, +-unipotent mod N
    j = a * b % n                     # gk = +-h T^j with h in Gamma(N)
    h = (a, b - j * a, c, d - j * c)
    if not _principal_member(n, *h):
        raise ValueError(f"{GroupElement(*h)} is not in Gamma({n})")
    th = h[0] + h[3]
    if abs(th) > 2:
        num, den = psi_gamma_sum(n, above, h if th > 0 else tuple(-x for x in h))
    else:
        psi = psi_general(G, wa, GroupElement(*h)).rational
        num, den = psi.numerator, psi.denominator
    if at_infinity:
        num += j * den
    ch, ct, cg = (_to_infinity(base, x)[2] for x in (h, (1, j, 0, 1), gk))
    signs = sign(ch * th) + sign(ct) - sign(ch * ct * cg) - sign(cg * (a + d))
    return SymbolValue.exact(Fraction(num * qv + signs * pv * den, den * qv * k))


def psi_old_route(G: GroupId, cusp: Cusp, g: GroupElement) -> SymbolValue:
    """Psi_a(g) for hyperbolic g by the old route: on
    Gamma(N) one Gamma(N) symbol at the cusp, on Gamma0(N) and Gamma1(N)
    psi_peel_lift: the reference for symbols._psi_lift."""
    if G.family is Family.GAMMA_N:
        above = ((1, cusp.base_matrix().entries()),)
        return SymbolValue.exact(Fraction(*psi_gamma_sum(G.level, above, g.entries())))
    return psi_peel_lift(G, cusp, g)


def psi_gamma0_plus_lift(n: int, cusp: Cusp, g: GroupElement) -> SymbolValue:
    """Psi on Gamma0(N)+ of g in Gamma0(N) as the coset sum
    sum_w Psi^{Gamma0(N)}_a(w g w^{-1}) over the Atkin-Lehner involutions
    W_e: the oracle for the all-cusps divisor weighting in
    symbols._gamma0_plus_weight."""
    G0 = GroupId.gamma0(n)
    return SymbolValue.exact(sum(
        psi_general(G0, cusp, g.conjugate_by(atkin_lehner(n, e))).rational
        for e in atkin_lehner_exponents(n)))


def psi_gamma0_plus_cocycle(n: int, cusp: Cusp, g: GroupElement) -> SymbolValue:
    """Psi on Gamma0(N)+, with an Atkin-Lehner element g unwound from
    Phi(g^2) through one composition-law step: the oracle for the
    Atkin-Lehner symbols that symbols._psi_weighted reads off the raw
    entries.  g^2 lies in Gamma0(N), so Psi(g^2) is the coset sum of
    psi_gamma0_plus_lift over the Gamma0(N) divisor sums, not the
    _gamma0_plus_weight row that it checks."""
    Gp = GroupId.gamma0_plus(n)
    if g.e == 1:
        return psi_gamma0_plus_lift(n, cusp, g)
    # scale e > 1: g^2 lands in Gamma0(N); unwind one cocycle step
    g2 = g * g
    pv = pi_over_volume(Gp)
    binv = cusp.base_matrix().inverse()
    h, h2 = g.conjugate_by(binv), g2.conjugate_by(binv)
    cls2 = classify(g2)
    if cls2.tag is Motion.IDENTITY:
        phi_g2 = Fraction(0)
    elif cls2.tag is Motion.ELLIPTIC:
        phi_g2 = phi_general(Gp, cusp, g2).rational
    else:
        psi2 = psi_gamma0_plus_lift(n, cusp, g2).rational
        phi_g2 = psi2 + pv * sign(h2.c * h2.trace)
    phi_g = (phi_g2 + pv * sign(h.c * h.c * h2.c)) / 2
    return SymbolValue.exact(phi_g - pv * sign(h.c * h.trace))


# Gamma0(2)+ and Gamma0(3)+ are conjugate to the Hecke triangle groups G_4
# and G_6 (Rosen, Duke Math. J. 21, 1954), which are generated by torsion
# and a translation, so the composition law fixes their Dedekind symbol: the
# oracle for Gamma0(p)+ that shares no code with radsym's engines.
def random_hecke_word(rng: random.Random, p: int, steps: int = 40) -> GroupElement:
    """A seeded word in T^k, 0 < |k| <= 4, and W_p = [[0, -1], [p, 0]] of
    scale p: an element of Gamma0(p)+ with e = p for an odd number of W_p."""
    w, g = GroupElement(0, -1, p, 0, p), I2
    for _ in range(rng.randint(1, steps)):
        g = g * GroupElement(1, rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), 0, 1) * w
    return g * GroupElement(1, rng.randint(-4, 4), 0, 1)


def phi_hecke_walk(p: int, g: GroupElement, pi_over_v=None,
                   phi_w=Fraction(0)) -> Fraction:
    """Phi_inf(g) on Gamma0(p)+, p = 2 or 3, by GroupElement arithmetic alone.

    Reduce: left-multiply g by T^-k with |a - k c| <= |c|/2, then by W_p^-1,
    until c = 0; each round takes |c|^2/e down by the factor p/4, and the
    end is +-T^m.  So g = T^k1 W_p T^k2 W_p ... T^m, and the composition law
    Phi(g1 g2) = Phi(g1) + Phi(g2) - (pi/V) sign(c1 c2 c3) is folded back up
    the word with Phi(+-T^m) = b/d, Phi(W_p) = 0 (W_p is an involution) and
    pi/V = p/(p - 1).  pi_over_v and phi_w replace the last two.
    """
    kappa = Fraction(p, p - 1) if pi_over_v is None else pi_over_v
    w = GroupElement(0, -1, p, 0, p)
    w_inv = w.inverse()
    shifts = []
    while g.c:
        k = round(Fraction(g.a, g.c))
        g = w_inv * (GroupElement(1, -k, 0, 1) * g)
        shifts.append(k)
    phi = Fraction(g.b, g.d)
    for k in reversed(shifts):
        h = w * g
        x = w.c * g.c * h.c
        phi += phi_w - kappa * ((x > 0) - (x < 0))
        phi += k                    # T^k has c = 0: no sign term
        g = GroupElement(1, k, 0, 1) * h
    return phi


def phi_elliptic_recursion(G: GroupId, cusp: Cusp, g: GroupElement) -> Fraction:
    """Phi_a(g) for elliptic g from the composition law alone: with m the
    least power of the cusp-normalized conjugate that is +-1, found by
    powering it, 0 = Phi(g^m) = m Phi(g) - (pi/V) sum_{k<m}
    sign(c_g c_{g^k} c_{g^{k+1}}).  The oracle for the closed form of the
    elliptic symbol in symbols.psi_general."""
    h = g.conjugate_by(cusp.base_matrix().inverse())
    powers = [h]                                # powers[k - 1] = h^k
    while not powers[-1].is_identity():
        if len(powers) > 24:
            raise ValueError(f"no elliptic order <= 24 for {g}")
        powers.append(powers[-1] * h)
    m = len(powers)
    acc = sum(sign(h.c * powers[k - 1].c * powers[k].c) for k in range(1, m))
    return pi_over_volume(G) * Fraction(acc, m)


def takada_C_direct(n: int, j: int, cutoff: int = 10 ** 6) -> tuple[float, float]:
    """Truncated Mobius double-sum oracle for C_{N,j}; tail bound ~ 1/cutoff.

    C_{N,j} = (pi^2/6) prod_{p | N} (1 - p^-2)
              * sum_{a unit mod N} cos(2 pi a j / N) sum_{m = 1/a mod N} mu(m)/m^2,
    summed in floating point, independent of the exact linear-algebra route.
    """
    weights = _mobius_weights(cutoff)
    total = 0.0
    for a in range(1, n + 1):
        if gcd(a, n) != 1:
            continue
        ainv = pow(a, -1, n)
        inner = float(np.sum(weights[ainv::n])) if ainv else 0.0
        total += inner * np.cos(2 * np.pi * a * j / n)
    front = np.pi ** 2 / 6
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            front *= 1 - 1 / p ** 2
    return front * total, front * (2.0 / cutoff) * n


@functools.lru_cache(maxsize=1)
def _mobius_weights(limit: int) -> np.ndarray:
    """mu(m)/m^2 for m = 0..limit (0 at m = 0), by a sieve."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    primes = np.ones(limit + 1, dtype=bool)
    primes[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if primes[p]:
            primes[p * p:: p] = False
    for p in np.nonzero(primes)[0]:
        mu[p::p] *= -1
        mu[p * p:: p * p] = 0
    ms = np.arange(limit + 1, dtype=np.float64)
    ms[0] = 1.0
    return mu.astype(np.float64) / ms ** 2


@pytest.fixture
def rng():
    return random.Random(20260826)


@pytest.fixture
def coset_table_reads(monkeypatch):
    """The groups whose SL2(Z) coset table is read, cached or not, while the
    test runs: modgroup's callers look coset_table up by its module name."""
    reads, table = [], modgroup.coset_table

    def recording(G):
        reads.append(G)
        return table(G)

    monkeypatch.setattr(modgroup, "coset_table", recording)
    return reads
