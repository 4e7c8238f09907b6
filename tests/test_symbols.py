import collections
import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from radsym import dedekind, modgroup, symbols
from radsym.dedekind import (
    cocycle_defect,
    phi_classical,
    pi_over_volume,
    psi_classical,
    sign,
)
from radsym.modgroup import (
    Cusp,
    Family,
    GroupElement,
    GroupId,
    I2,
    Motion,
    S,
    T,
    _squarefree,
    atkin_lehner,
    atkin_lehner_exponents,
    classify,
    coset_table,
    cusp_stabilizer_generator,
    cusps,
    member,
    schreier_generators,
)
from radsym.periods import Divisor, NumericPeriod, divisor_period
from radsym.symbols import (
    SymbolValue,
    _cusp_weight,
    _descent,
    _psi_lift,
    _solve_rational,
    gamma0_cusp_basis,
    lift_coset_sum,
    phi_general,
    psi_gamma0_divisor,
    psi_general,
    takada_C_row_exact,
    takada_phi,
)

from conftest import (
    bernoulli2_bar,
    gamma0_basis_by_class,
    level_coset_sum,
    level_cosets,
    level_sawtooth_direct,
    level_sawtooth_unreduced,
    parabolic_power,
    phi_elliptic_recursion,
    psi_gamma0_plus_cocycle,
    psi_gamma0_plus_lift,
    psi_gamma_conjugated,
    psi_old_route,
    psi_peel_lift_coset_sum,
    psi_peel_lift_cocycle,
    phi_hecke_walk,
    random_hecke_word,
    random_in_group,
    random_sl2z,
    random_principal,
    random_principal_deep,
    random_principal_hyperbolic,
    sawtooth,
    solve_rational_gauss_jordan,
    takada_C_direct,
    takada_C_row_reference,
)

INF = Cusp.infinity()


# -- Takada constants -------------------------------------------------------


def test_takada_C_level2_is_parity():
    assert takada_C_row_exact(2) == (1, -1)


def test_takada_C_even_in_j():
    for n in [3, 5, 7]:
        row = takada_C_row_exact(n)
        for j in range(1, n):
            assert row[j] == row[-j]


def test_takada_C_rows_are_rational():
    # values frozen from an independent 60-digit character/Hurwitz-zeta
    # evaluation, confirmed at two precisions
    assert takada_C_row_exact(5) == (
        Fraction(1), Fraction(1), Fraction(-3, 2), Fraction(-3, 2), Fraction(1))
    assert takada_C_row_exact(7) == (
        Fraction(1), Fraction(3, 2), Fraction(-1, 2), Fraction(-3, 2),
        Fraction(-3, 2), Fraction(-1, 2), Fraction(3, 2))


def test_takada_C_against_direct_oracle():
    # independent truncated Mobius double sum (deliberately different route)
    for n in [3, 4, 5]:
        row = takada_C_row_exact(n)
        for j in range(n):
            direct, err = takada_C_direct(n, j, cutoff=200000)
            assert abs(float(row[j]) - direct) < err + 1e-5


def test_takada_C_rows_even_balanced_primitive():
    # the row is even, sums to 0, and its discrete Fourier transform
    # vanishes off the units: each coset of (N/p)Z/NZ sums to 0.  The solve
    # imposes only evenness and the constant terms, so the coset sums are a
    # property of its solution, not one of its equations
    for n in range(3, 61):
        row = takada_C_row_exact(n)
        assert len(row) == n and all(isinstance(x, Fraction) for x in row)
        assert all(row[j] == row[-j % n] for j in range(n))
        assert sum(row) == 0
        for p in [p for p in range(2, n + 1) if n % p == 0
                  and all(p % q for q in range(2, p))]:
            for r in range(n // p):
                assert sum(row[r + t * (n // p)] for t in range(p)) == 0


def test_takada_C_rows_match_the_reference_system():
    # the one square Bernoulli system gives the rows of the Mobius P rows,
    # the prime rows and the N = 2 case that it replaced
    for n in range(2, 101):
        assert takada_C_row_exact(n) == takada_C_row_reference(n), n


def _det_fraction(M) -> Fraction:
    """The determinant of a square matrix of Fractions by Gaussian
    elimination with row swaps."""
    M = [list(row) for row in M]
    det = Fraction(1)
    for col in range(len(M)):
        piv = next((r for r in range(col, len(M)) if M[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, len(M)):
            f = M[r][col] / M[col][col]
            M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return det


def kubert_lang_h(p: int) -> Fraction:
    """h_p = p (p/2)^(m-1) det circ(beta) / sum_k beta_k, m = (p-1)/2 and
    beta_k = B2(g^k mod p / p) for a primitive root g mod p: the cuspidal
    class number of X1(p) (Kubert-Lang, Modular Units, 1981; Yu, Math.
    Ann. 252, 1980), from a determinant that shares no code with the
    solver of the C rows."""
    m = (p - 1) // 2
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // q, p) != 1 for q in range(2, p)
                    if (p - 1) % q == 0 and all(q % r for r in range(2, q))))
    beta = [bernoulli2_bar(Fraction(pow(g, k, p), p)) for k in range(m)]
    circ = [[beta[(j - i) % m] for j in range(m)] for i in range(m)]
    return p * Fraction(p, 2) ** (m - 1) * _det_fraction(circ) / sum(beta)


def test_takada_C_denominators_against_kubert_lang():
    # the lcm of the denominators of C_{p,j} is 2 h_p up to p = 23, and a
    # proper divisor of 2 h_p at 29, 31 and 37: an observed relation,
    # checked against the class numbers in the literature
    known = {11: 5, 13: 19, 17: 584, 19: 4383, 23: 408991, 29: 1030835904,
             31: 17728333700}
    quotient = {29: 16, 31: 20, 37: 19}
    for p in [11, 13, 17, 19, 23, 29, 31, 37]:
        h = kubert_lang_h(p)
        assert h.denominator == 1, p
        if p in known:
            assert h == known[p], p
        lcm = math.lcm(*(x.denominator for x in takada_C_row_exact(p)))
        assert 2 * h == lcm * quotient.get(p, 1), p


def test_lift_records_have_their_constant_terms():
    # the record _cusp_weight(N, g), rad(N) | g | N, holds N D times the
    # row sum_{u in U/+-1} C_{N,uj}/mu, U = 1 + gZ/N; each C row has
    # constant term mu/(6N^2) at t = +-1 only, so B[t] = N D at t = +-1
    # mod g and 0 elsewhere: every row that the lift route reads
    records = 0
    for n in range(2, 121):
        rad = math.prod(p for p in range(2, n + 1)
                        if n % p == 0 and all(p % q for q in range(2, p)))
        for g in range(rad, n + 1, rad):
            if n % g:
                continue
            records += 1
            _C, D, _u, B = _cusp_weight(n, g)[0]
            assert list(B) == [n * D if t % g in (1, g - 1) else 0
                               for t in range(n)], (n, g)
    assert records == 205


@pytest.mark.parametrize("n", [7, 12, 19, 23, 29])
def test_takada_C_rows_against_direct_oracle_high_level(n):
    # from N = 19 on the denominators are large (8766 at 19, ~1.3e8 at 29)
    row = takada_C_row_exact(n)
    for j in range(n):
        direct, err = takada_C_direct(n, j, cutoff=10 ** 6)
        assert abs(float(row[j]) - direct) < err


def _random_rational(rng: random.Random, size: int) -> Fraction:
    return Fraction(rng.randint(-size, size), rng.randint(1, size))


def _random_system(rng: random.Random, rows: int, cols: int, size: int):
    """[A | A x] for random rationals A and x with numerators and
    denominators up to size, about a third of the entries of A zero."""
    x = [_random_rational(rng, size) for _ in range(cols)]
    A = [[Fraction(0) if rng.random() < 1 / 3 else _random_rational(rng, size)
          for _ in range(cols)] for _ in range(rows)]
    return [row + [sum(a * xi for a, xi in zip(row, x))] for row in A], x


def test_integer_solver_matches_gauss_jordan_on_seeded_systems():
    # square and overdetermined systems with negative, large and zero
    # entries; a system with a unique solution must return it
    rng = random.Random(20261019)
    solved = 0
    for size in (3, 10 ** 6, 10 ** 30):
        for _ in range(40):
            cols = rng.randint(1, 7)
            aug, x = _random_system(rng, cols + rng.choice((0, 0, 1, 3)), cols, size)
            expect = solve_rational_gauss_jordan(aug)
            assert _solve_rational(aug) == expect, aug
            if expect is not None:
                assert expect == x
                solved += 1
    assert solved > 100


def test_integer_solver_swaps_zero_pivots():
    # the first pivot column is zero on the diagonal: rows must be swapped
    aug = [[Fraction(0), Fraction(2), Fraction(3), Fraction(1)],
           [Fraction(0), Fraction(-5), Fraction(1), Fraction(2)],
           [Fraction(-7, 3), Fraction(1), Fraction(0), Fraction(3)]]
    sol = _solve_rational(aug)
    assert sol == solve_rational_gauss_jordan(aug)
    assert all(sum(a * x for a, x in zip(row, sol)) == row[-1] for row in aug)
    # a zero that appears on the diagonal only after elimination
    aug = [[Fraction(1), Fraction(1), Fraction(1), Fraction(6)],
           [Fraction(1), Fraction(1), Fraction(2), Fraction(9)],
           [Fraction(1), Fraction(2), Fraction(1), Fraction(8)]]
    assert _solve_rational(aug) == solve_rational_gauss_jordan(aug) == [1, 2, 3]


def test_integer_solver_refuses_singular_and_inconsistent_systems():
    rng = random.Random(20261020)
    for size in (5, 10 ** 25):
        for _ in range(30):
            cols = rng.randint(2, 6)
            aug, _x = _random_system(rng, cols + rng.choice((0, 2)), cols, size)
            # rank-deficient: one column a multiple of another
            i, j = rng.sample(range(cols), 2)
            f = _random_rational(rng, size)
            singular = [row[:j] + [f * row[i]] + row[j + 1:] for row in aug]
            assert _solve_rational(singular) is None
            assert solve_rational_gauss_jordan(singular) is None
            # inconsistent: one more row that repeats a row with a new rhs
            k = rng.randrange(len(aug))
            extra = aug[k][:-1] + [aug[k][-1] + rng.randint(1, size)]
            assert _solve_rational(aug + [extra]) is None
            assert solve_rational_gauss_jordan(aug + [extra]) is None
    # a zero column, and a zero row with a nonzero rhs
    aug = [[Fraction(0), Fraction(0), Fraction(1)],
           [Fraction(0), Fraction(1), Fraction(0)]]
    assert _solve_rational(aug) is None is solve_rational_gauss_jordan(aug)


def test_integer_solver_matches_gauss_jordan_on_the_C_systems(monkeypatch):
    # every C_{N,j} system for N = 3..60, solved by both eliminations
    rows = {n: takada_C_row_exact(n) for n in range(3, 61)}
    systems = []
    solve = symbols._solve_rational

    def record(aug):
        systems.append(aug)
        return solve(aug)

    monkeypatch.setattr(symbols, "_solve_rational", record)
    for n, row in rows.items():
        assert takada_C_row_exact.__wrapped__(n) == row
    assert len(systems) == 58
    for aug in systems:
        assert solve(aug) == solve_rational_gauss_jordan(aug)


# -- the level-N sawtooth sum ------------------------------------------------


def gamma_descent(n: int, a: int, c: int) -> Fraction:
    """sum_{0 < j < |c|} j w_j ((aj/c)) for the row w_j = C_{n,j}/mu, by one
    _descent on the Gamma(n) record _cusp_weight(n, n), whose row is n w."""
    tables, pairs = _cusp_weight(n, n)[:2]
    return Fraction(*_descent(n, tables, pairs, a, c)) / n


def test_weight_records_read_their_definitions():
    # C_{N,0} = 1, so the Gamma(N) row C_{N,j}/mu has w_0 = 1/mu and its
    # sign weight 3 w_0 is pi/V; each record's e1/K and e0/K are its K1 and
    # w_0: 1 and N/mu on the Gamma(N) record _cusp_weight(N, N), which
    # holds N times the row C_{N,j}/mu and the K1 = 1/N of Gamma(N) at
    # infinity, and sum_e e c_e and sum_e c_e on Gamma0(N)+
    for n in range(2, 61):
        assert takada_C_row_exact(n)[0] == 1, n
        mu = GroupId.gamma(n).psl2z_index()
        _tables, _pairs, e1, e0, K = _cusp_weight(n, n)
        assert Fraction(e1, K) == 1, n
        assert Fraction(e0, K) == n / mu, n
        assert 3 * Fraction(e0, K) / n == pi_over_volume(GroupId.gamma(n)), n
        if _squarefree(n):
            basis = symbols._gamma0_basis(n, (1,) * len(symbols._divisors(n)))
            _tables, _pairs, e1, e0, K = symbols._gamma0_plus_weight(n)
            assert Fraction(e1, K) == sum(e * ce for e, ce in basis), n
            assert Fraction(e0, K) == sum(ce for _e, ce in basis), n


def test_level_sawtooth_matches_direct_sum():
    # 1010 seeded triples: log-uniform |c| <= 10^4, the first ten near 10^6
    rng = random.Random(20261017)
    for i in range(1010):
        n = rng.choice([2, 3, 4, 6, 7, 12, 19, 23, 36])
        if i < 10:
            m = n * rng.randint(10 ** 5 // n, 10 ** 6 // n)
        else:
            m = n * int(10 ** rng.uniform(0, 4 - math.log10(n)))
        c = m * rng.choice([-1, 1])
        a = rng.randint(-3 * m, 3 * m)
        while math.gcd(a, c) != 1:
            a += 1
        mu = GroupId.gamma(n).psl2z_index()
        assert gamma_descent(n, a, c) * mu == level_sawtooth_direct(n, a, c), (n, a, c)


def test_level_sawtooth_needs_level_dividing_c():
    with pytest.raises(ValueError):
        gamma_descent(3, 1, 7)


def test_level_sawtooth_matches_unreduced_descent():
    # 1200 seeded triples, N = 2..60, both signs, |c| up to 10^40: carrying
    # the sum over M h k gives the value of the never-reduced num/den
    rng = random.Random(20261018)
    for _ in range(1200):
        n = rng.randint(2, 60)
        m = n * rng.randint(1, max(1, 10 ** rng.randint(1, 40) // n))
        c = m * rng.choice([-1, 1])
        a = rng.randint(-3 * m, 3 * m)
        while math.gcd(a, c) != 1:
            a += 1
        assert gamma_descent(n, a, c) == level_sawtooth_unreduced(n, a, c), (n, a, c)


def test_level_tables_match_fraction_definitions():
    # the record's vectors are indexed by the residue k = tr mod n:
    # u[k] = 2n ((k/n)) and B[t] = sum_r C[r] 6n^2 B2bar(tr/n); sum_r C[r]
    # u[tr mod n] is 0 for every t on both record kinds, the Gamma(N) rows
    # and the Gamma0(N)+ rows: the row is even and u odd, so _descent starts
    # its sum at 0
    for n in range(2, 61):
        C, D, u, B = _cusp_weight(n, n)[0]
        mu = GroupId.gamma(n).psl2z_index()
        assert [Fraction(x, D) for x in C] == [n * x / mu for x in takada_C_row_exact(n)]
        assert list(u) == [2 * n * sawtooth(Fraction(k, n)) for k in range(n)]
        for t in range(n):
            assert sum(C[r] * u[t * r % n] for r in range(n)) == 0, (n, t)
            assert B[t] == sum(C[r] * 6 * n * n * bernoulli2_bar(Fraction(t * r, n))
                               for r in range(n))
        if _squarefree(n):
            C, _D, u, _B = symbols._gamma0_plus_weight(n)[0]
            assert all(sum(C[r] * u[t * r % n] for r in range(n)) == 0
                       for t in range(n)), n


def test_gamma0_plus_record_at_level_2310_holds_vectors():
    # the weight record holds O(N) data: C, u and B are flat tuples of N
    # ints, and D an int; the element of the CI step has the release value
    # 184255/96, a pin of the output, not an oracle
    n = 2310
    C, D, u, B = symbols._gamma0_plus_weight(n)[0]
    assert type(D) is int
    for vec in (C, u, B):
        assert len(vec) == n and all(type(x) is int for x in vec)
    g = GroupElement(123456789011, 35704906219, 2281481481510, 659826672881)
    assert psi_general(GroupId.gamma0_plus(n), Cusp.infinity(), g).rational \
        == Fraction(184255, 96)


# -- the Gamma(N) symbol at infinity ----------------------------------------


def test_takada_phi_translation_convention():
    # width-normalized: the stabilizer generator T^N of the cusp at infinity
    # has symbol 1, its k-th power symbol k
    for n in [2, 3, 5, 7]:
        assert takada_phi(n, T ** n).rational == 1
        assert takada_phi(n, T ** (3 * n)).rational == 3
    assert takada_phi(2, GroupElement.identity()).rational == 0


def test_takada_phi_refuses_elements_outside_gamma_n():
    # elements of Gamma0(N) with N | c that are not +-I mod N
    for n, g in ((2, T), (3, GroupElement(2, 1, 3, 2)), (5, GroupElement(3, 1, 5, 2)),
                 (7, GroupElement(8, 3, 21, 8))):
        assert member(g, GroupId.gamma0(n))
        with pytest.raises(ValueError, match="is not in"):
            takada_phi(n, g)


def test_takada_phi_level2_example():
    v = takada_phi(2, GroupElement(3, 2, 4, 3))
    assert type(v) is SymbolValue
    # cross-checked against the weight-2 Eisenstein geodesic integral
    assert v.rational == Fraction(1, 2)


def test_takada_phi_inverse_law(rng):
    for n in [2, 3, 5]:
        for _ in range(10):
            g = random_principal(rng, n)
            a = takada_phi(n, g).rational
            b = takada_phi(n, g.inverse()).rational
            assert a == -b


def test_takada_phi_cocycle(rng):
    for n in [2, 3]:
        G = GroupId.gamma(n)
        for _ in range(15):
            g1 = random_principal(rng, n)
            g2 = random_principal(rng, n)
            d = cocycle_defect(G, INF, g1, g2,
                               takada_phi(n, g1).rational,
                               takada_phi(n, g2).rational,
                               takada_phi(n, g1 * g2).rational)
            assert d == 0


# frozen ground truth: psi at infinity on Gamma(2), independently confirmed
# by quadrature of the weight-2 Eisenstein series (2/3)E2*(2z) - (1/6)E2*(z)
# along the geodesic axis (agreement to ~1e-15 at 30 digits)
GAMMA2_GROUND_TRUTH = [
    ((-47, 12, -98, 25), Fraction(5)),
    ((-23, -4, 6, 1), Fraction(-1)),
    ((1, -2, -4, 9), Fraction(-1)),
    ((17, 4, 38, 9), Fraction(2)),
    ((17, -4, 30, -7), Fraction(-2)),
    ((9, -20, -4, 9), Fraction(-2)),
    ((53, -14, -34, 9), Fraction(1)),
    ((5, -2, -2, 1), Fraction(-1)),
    ((1, 2, -4, -7), Fraction(0)),
    ((1, -4, -2, 9), Fraction(-2)),
]


def test_gamma2_ground_truth():
    for entries, expected in GAMMA2_GROUND_TRUTH:
        g = GroupElement(*entries)
        if g.trace < 0:
            g = -g
        assert psi_general(GroupId.gamma(2), INF, g).rational == expected


# -- parabolic and elliptic rules -------------------------------------------


def test_symbol_parabolic():
    assert psi_general(GroupId.gamma(2), INF, T ** 2).rational == 1
    assert psi_general(GroupId.sl2z(), INF, T ** 7).rational == 7
    # parabolic around an inequivalent cusp
    L = GroupElement(1, 0, 11, 1)
    assert psi_general(GroupId.gamma0(11), INF, L).rational == 0
    # orientation: the stabilizer of 0 in Gamma0(11) is generated by the
    # inverse lower-triangular translation
    assert psi_general(GroupId.gamma0(11), Cusp(0, 1), L).rational == -1


def test_symbol_elliptic_matches_classical():
    G = GroupId.sl2z()
    for g in [S, S * T, T * S, (S * T) ** 2]:
        assert phi_general(G, INF, g).rational == phi_classical(g)
        assert psi_general(G, INF, g).rational == psi_classical(g)


ELLIPTIC_SWEEP_GROUPS = ([GroupId.sl2z()]
                         + [GroupId.gamma0(n) for n in [*range(2, 22), 26, 39]]
                         + [GroupId.gamma1(n) for n in range(2, 8)]
                         + [GroupId.gamma0_plus(n) for n in (2, 3, 6, 10, 30)])


def test_elliptic_closed_form_matches_recursion():
    # the closed form -(2/m)(pi/V) sign(c t) against the composition-law
    # recursion over the powers of g, on the Schreier generators and their
    # short products, at every cusp class
    orders = set()
    checked = 0
    for G in ELLIPTIC_SWEEP_GROUPS:
        gens = schreier_generators(G)
        elems = gens + [a * b for a in gens for b in gens] \
            + [a * b.inverse() for a in gens for b in gens]
        for g in elems:
            cls = classify(g)
            if cls.tag is not Motion.ELLIPTIC:
                continue
            orders.add(cls.order)
            for cu in cusp_reps(G):
                phi = phi_elliptic_recursion(G, cu, g)
                h = g.conjugate_by(cu.base_matrix().inverse())
                psi = phi - pi_over_volume(G) * sign(h.c * h.trace)
                assert phi_general(G, cu, g).rational == phi, (G, cu, g)
                assert psi_general(G, cu, g).rational == psi, (G, cu, g)
                checked += 1
    assert orders == {2, 3, 4, 6}
    assert checked >= 600


def test_elliptic_symbol_at_a_split_cusp_keeps_the_closed_form():
    # g has order 3, so the lift route's power g^3 is -I and its symbol 0;
    # the closed form -(2/3)(pi/V) sign(c t) at 1/7 of Gamma0(49) is 1/28
    G, g = GroupId.gamma0(49), GroupElement(-19, -7, 49, 18)
    assert classify(g) == classify(S * T)
    assert psi_general(G, Cusp(1, 7), g).rational == Fraction(1, 28)


# -- one engine call on every element of infinite order ---------------------


ONE_CALL_GROUPS = ([GroupId.gamma0(n) for n in range(2, 61)]
                   + [GroupId.gamma1(n) for n in range(2, 31)]
                   + [GroupId.gamma(n) for n in range(2, 13)]
                   + [GroupId.gamma0_plus(n) for n in range(2, 211) if _squarefree(n)])


def test_parabolic_symbols_match_the_closed_form():
    # (stabilizer generator of b)^k, k in (1, -1, 2, -3, 5) in turn, itself
    # or conjugated by an element of Gamma(N), and its negative where G
    # holds it, against the closed form of conftest.parabolic_power at every
    # cusp class: k at the class of b, 0 at every other
    rng = random.Random(20261021)
    drawn = checked = conjugated = negated = 0
    for G in ONE_CALL_GROUPS:
        n, reps = G.level, [cu for cu, _w in cusps(G)]
        for b in reps:
            drawn += 1
            k = (1, -1, 2, -3, 5)[drawn % 5]
            g = cusp_stabilizer_generator(G, b) ** k
            if drawn % 2:
                tau = (T ** (n * rng.choice((-2, -1, 1, 2)))
                       * GroupElement(1, 0, n * rng.choice((-1, 1)), 1))
                g, conjugated = g.conjugate_by(tau), conjugated + 1
            if drawn % 3 == 1 and member(-g, G):
                g, negated = -g, negated + 1
            fixed, power = parabolic_power(G, g)
            assert power == k and modgroup.cusp_equivalent(G, fixed, b), (G, b, g)
            for a in reps:
                expect = k if modgroup.cusp_equivalent(G, fixed, a) else 0
                assert psi_general(G, a, g).rational == expect, (G, a, g)
                checked += 1
    assert checked > 10000 and conjugated > 500 and negated > 300


def test_identity_symbols_vanish_at_every_cusp():
    checked = 0
    for G in ONE_CALL_GROUPS:
        elems = [x for x in (I2, -I2) if member(x, G)]
        for a, _w in cusps(G):
            for x in elems:
                assert psi_general(G, a, x).rational == 0, (G, a, x)
                checked += 1
    assert checked > 2000


ATKIN_LEHNER_LEVELS = (2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 42, 66, 70, 105, 210, 2310)


def test_atkin_lehner_symbols_match_cocycle_oracle():
    # the raw entries of g in one weighted descent against Phi(g^2) unwound
    # through Gamma0(N) symbols, at both trace signs, with the elements
    # [[N x, N x y - 1], [N, N y]] of scale N, whose A = a sign(c) mod |c|
    # is 0, among them
    rng = random.Random(20261022)
    checked = zero_a = 0
    for n in ATKIN_LEHNER_LEVELS:
        G = GroupId.gamma0_plus(n)
        elems = [deep_atkin_lehner(rng, n, digits) for digits in (2, 3, 6, 20)]
        while len(elems) < 8:
            x, y = rng.randint(-4, 4), rng.randint(-4, 4)
            if n * (x + y) ** 2 > 4:
                elems.append(GroupElement(n * x, n * x * y - 1, n, n * y, n))
        for g in elems:
            for h in (g, -g):
                assert member(h, G) and classify(h).tag is Motion.HYPERBOLIC
                for cu in (INF, Cusp(0, 1)):
                    assert psi_general(G, cu, h) == psi_gamma0_plus_cocycle(n, cu, h), \
                        (n, cu, h)
                    checked += 1
                zero_a += h.a * sign(h.c) % abs(h.c) == 0
    assert checked == 16 * 8 * 2 * 2 and zero_a >= 16 * 4 * 2


def test_atkin_lehner_pin_with_a_zero_residue():
    # a = 2N, c = N: the descent's A is 0, so the sawtooth sum is 0
    G, g = GroupId.gamma0_plus(30), GroupElement(60, 119, 30, 60, 30)
    assert psi_general(G, INF, g).rational == Fraction(11, 3)
    assert phi_general(G, INF, g).rational == 4


def test_symbol_value_arithmetic_is_exact_only():
    # a SymbolValue is exact and has no arithmetic: the sums that build one
    # add Fractions, and an approximation is another type that refuses to
    # become one
    one = SymbolValue.exact(1)
    approx = NumericPeriod(0.5, 1e-12)
    assert [f.name for f in dataclasses.fields(SymbolValue)] == ["rational"]
    with pytest.raises(TypeError):
        one + one
    with pytest.raises(AttributeError):
        approx.rational
    with pytest.raises(ValueError):
        lift_coset_sum(GroupId.gamma(2), GroupId.sl2z(), lambda x: approx,
                       GroupElement(3, 2, 4, 3))
    assert lift_coset_sum(GroupId.gamma(2), GroupId.sl2z(), lambda x: one,
                          GroupElement(3, 2, 4, 3)) == SymbolValue.exact(6)


# -- dispatch and laws across groups ----------------------------------------


def test_psi_general_identity():
    for G in [GroupId.sl2z(), GroupId.gamma(2), GroupId.gamma0_plus(11)]:
        assert psi_general(G, INF, GroupElement.identity()).rational == 0


def test_psi_general_matches_classical_on_sl2z(rng):
    from conftest import random_hyperbolic_sl2z
    for _ in range(50):
        g = random_hyperbolic_sl2z(rng)
        assert psi_general(GroupId.sl2z(), INF, g).rational \
            == psi_classical(g)


@pytest.mark.parametrize("G", [
    GroupId.gamma(2), GroupId.gamma(3), GroupId.gamma(4), GroupId.gamma(5),
    GroupId.gamma0(6), GroupId.gamma0(11),
    GroupId.gamma1(5), GroupId.gamma0_plus(11),
])
def test_psi_laws_per_group(G, rng):
    checked = 0
    while checked < 12:
        g = random_in_group(rng, G, 4)
        checked += 1
        a = psi_general(G, INF, g).rational
        assert psi_general(G, INF, g.inverse()).rational == -a
        assert psi_general(G, INF, -g).rational == a
        if abs(g.trace) > 2:
            h = random_in_group(rng, G, 1)
            assert psi_general(G, INF, g.conjugate_by(h)).rational == a


CUSP_SUM_GROUPS = ([GroupId.gamma0(n) for n in range(2, 101)]
                   + [GroupId.gamma1(n) for n in range(2, 41)]
                   + [GroupId.gamma(n) for n in range(2, 9)])


def assert_cusp_sums(groups, seed):
    """sum_b w_b Psi^G_b(g) over the cusp classes b of G, of widths w_b,
    equals psi_classical(g), for two hyperbolic g per group: E2* is the sum
    of the cusp Eisenstein series of G, each weighted by its width."""
    rng = random.Random(seed)
    for G in groups:
        for _ in range(2):
            g = random_in_group(rng, G)
            while classify(g).tag is not Motion.HYPERBOLIC:
                g = random_in_group(rng, G)
            total = sum(w * symbols.psi_general(G, cu, g).rational
                        for cu, w in cusps(G))
            assert total == psi_classical(g), (G, g)


def test_cusp_sum_recovers_classical():
    assert_cusp_sums(CUSP_SUM_GROUPS, 20261019)


def test_cusp_sum_catches_a_doubled_cusp(monkeypatch):
    # a mutant that doubles the symbol at the cusp 0 must break the identity
    psi = symbols.psi_general

    def doubled(G, cu, g):
        v = psi(G, cu, g)
        return SymbolValue.exact(2 * v.rational) if cu == Cusp(0, 1) else v

    monkeypatch.setattr(symbols, "psi_general", doubled)
    with pytest.raises(AssertionError):
        assert_cusp_sums(CUSP_SUM_GROUPS[:20], 20261019)


@pytest.mark.parametrize("G", [
    GroupId.gamma(2), GroupId.gamma0(11), GroupId.gamma0_plus(11),
])
def test_phi_cocycle_per_group(G, rng):
    for _ in range(10):
        g1 = random_in_group(rng, G)
        g2 = random_in_group(rng, G)
        d = cocycle_defect(G, INF, g1, g2,
                           phi_general(G, INF, g1).rational,
                           phi_general(G, INF, g2).rational,
                           phi_general(G, INF, g1 * g2).rational)
        assert d == 0


# -- transport and coset lifting --------------------------------------------


def transport_cusp(G1: GroupId, ambient: GroupId, tau: GroupElement,
                   source: Cusp, target: Cusp, engine):
    """Turn a Psi engine at `target` into one at `source`, given tau in the
    ambient group with tau * source = target.  G1 must be normal in ambient.
    """
    if tau.apply_cusp(source) != target:
        raise ValueError(f"{tau} does not map {source} to {target}")

    def transported(g: GroupElement):
        if not member(g, G1):
            raise ValueError(f"{g} is not in {G1}")
        return engine(g.conjugate_by(tau))

    return transported


def test_transport_cusp(rng):
    n = 2
    engine = transport_cusp(
        GroupId.gamma(n), GroupId.sl2z(), S, Cusp(0, 1), INF,
        lambda g: psi_general(GroupId.gamma(n), INF, g))
    for _ in range(10):
        g = random_principal_hyperbolic(rng, n)
        direct = psi_general(GroupId.gamma(n), Cusp(0, 1), g).rational
        assert engine(g).rational == direct
    with pytest.raises(ValueError):
        transport_cusp(GroupId.gamma(2), GroupId.sl2z(), S, INF, INF,
                       lambda g: psi_general(GroupId.gamma(2), INF, g))


def test_transport_representative_independence(rng):
    # two different ambient elements sending 0 to infinity give one engine
    n = 2
    tau1 = S
    tau2 = T ** 2 * S
    e1 = transport_cusp(GroupId.gamma(n), GroupId.sl2z(), tau1, Cusp(0, 1),
                        INF, lambda g: psi_general(GroupId.gamma(n), INF, g))
    e2 = transport_cusp(GroupId.gamma(n), GroupId.sl2z(), tau2, Cusp(0, 1),
                        INF, lambda g: psi_general(GroupId.gamma(n), INF, g))
    for _ in range(10):
        g = random_principal_hyperbolic(rng, n)
        assert e1(g).rational == e2(g).rational


@pytest.mark.parametrize("n", [2, 3])
def test_coset_sum_recovers_classical(n, rng):
    G1 = GroupId.gamma(n)
    for _ in range(8):
        g = random_principal_hyperbolic(rng, n)
        lifted = lift_coset_sum(G1, GroupId.sl2z(),
                                lambda x: psi_general(G1, INF, x), g)
        assert lifted.rational == psi_classical(g)


@pytest.mark.parametrize("n", [4, 6, 9, 12])
def test_coset_sum_independent_of_representatives(n, rng):
    # the level-N representatives against those filtered out of the SL2(Z)
    # coset table of Gamma(N)
    G1 = GroupId.gamma(n)
    for G in (GroupId.gamma1(n), GroupId.gamma0(n)):
        filtered = [r for r in coset_table(G1).reps if member(r, G)]
        assert len(filtered) == len(level_cosets(G1, G))
        for _ in range(3):
            g = random_principal_hyperbolic(rng, n)
            lifted = level_coset_sum(G1, G, lambda x: psi_general(G1, INF, x), g)
            direct = sum((psi_general(G1, INF, g.conjugate_by(tau)).rational
                          for tau in filtered), Fraction(0))
            assert lifted == direct


def test_coset_sum_recovers_classical_level19():
    # exact identity over the 3420 cosets of Gamma(19) in SL2(Z)
    n = 19
    G1 = GroupId.gamma(n)
    for g in [T ** n * GroupElement(1, 0, n, 1),
              GroupElement(1, 0, -n, 1) * T ** (2 * n)]:
        lifted = lift_coset_sum(G1, GroupId.sl2z(),
                                lambda x: psi_general(G1, INF, x), g)
        assert type(lifted) is SymbolValue
        assert lifted.rational == psi_classical(g)


@pytest.mark.parametrize("n", [3, 5, 7, 12])
def test_coset_sum_recovers_classical_deep(n, rng):
    # exact identity on Gamma(N) words with |c| >= 10^18
    G1 = GroupId.gamma(n)
    for _ in range(2):
        g = random_principal_deep(rng, n, 10 ** 18)
        lifted = lift_coset_sum(G1, GroupId.sl2z(),
                                lambda x: psi_general(G1, INF, x), g)
        assert type(lifted) is SymbolValue
        assert lifted.rational == psi_classical(g)


def test_coset_sum_recovers_classical_past_1e300(rng):
    # exact identity on a Gamma(3) word with |c| >= 10^300; the descent
    # keeps it fast only while its integers stay O(log |c|) bits
    g = random_principal_deep(rng, 3, 10 ** 300)
    lifted = lift_coset_sum(GroupId.gamma(3), GroupId.sl2z(),
                            lambda x: psi_general(GroupId.gamma(3), INF, x), g)
    assert lifted.rational == psi_classical(g)


def test_coset_sum_rejects_outsiders():
    with pytest.raises(ValueError):
        lift_coset_sum(GroupId.gamma(2), GroupId.sl2z(),
                       lambda x: psi_general(GroupId.gamma(2), INF, x),
                       GroupElement(2, 1, 1, 1))


def test_coset_sum_refuses_level_quotients_of_gamma(rng):
    # no route lifts through Gamma(N) <= Gamma0(N): cosets refuses the pair
    G1, G = GroupId.gamma(4), GroupId.gamma0(4)
    g = random_principal_hyperbolic(rng, 4)
    with pytest.raises(ValueError, match=re.escape(f"unsupported containment {G1} <= {G}")):
        lift_coset_sum(G1, G, lambda x: psi_general(G1, INF, x), g)


# -- Gamma0(N): two independent exact engines -------------------------------


@pytest.mark.parametrize("n", [2, 5, 6, 11, 4, 8, 9, 12, 16, 18, 25, 27, 32, 36])
def test_gamma0_divisor_vs_peel_lift(n, rng):
    # at every cusp class that has a divisor basis, squarefree N or not
    G = GroupId.gamma0(n)
    draws = 6 if n in (2, 5, 6, 11) else 3
    checked = 0
    for cu, _w in cusps(G):
        basis = gamma0_cusp_basis(n, cu)
        if basis is None:
            continue
        for _ in range(draws):
            g = random_hyperbolic(rng, G)
            a = psi_gamma0_divisor(g, basis)
            b = _psi_lift(G, cu, g).rational
            assert a == b, (cu, g)
            checked += 1
    assert checked >= 2 * draws


def test_gamma0_basis_exists_iff_denominator_is_alone():
    # the constant terms at p/q depend only on gcd(q, N), and over e | N the
    # matrix [gcd(e, q)^2] is invertible: a class has a basis exactly when
    # no other class shares its gcd(q, N); 427 of the 569 classes for
    # 2 <= N <= 100
    with_basis = 0
    for n in range(2, 101):
        reps = [cu for cu, _w in cusps(GroupId.gamma0(n))]
        shares = [math.gcd(cu.q, n) for cu in reps]
        for cu, s in zip(reps, shares):
            alone = shares.count(s) == 1
            assert (gamma0_cusp_basis(n, cu) is not None) == alone, (n, cu)
            with_basis += alone
    assert with_basis == 427


def test_gamma0_divisor_basis_matches_class_indexed_solve():
    # one row per d | N gives the basis of the solve with one row per cusp
    # class at every class of Gamma0(N), N <= 120, and None exactly where
    # that overdetermined system has no solution (162 of the 700 classes)
    missing = 0
    for n in range(1, 121):
        reps = cusps(GroupId.gamma0(n))
        for i, (cu, _w) in enumerate(reps):
            indicator = tuple(int(j == i) for j in range(len(reps)))
            basis = gamma0_cusp_basis(n, cu)
            assert basis == gamma0_basis_by_class(n, indicator), (n, cu)
            missing += basis is None
        if _squarefree(n):
            ones = (1,) * len(reps)
            assert symbols._gamma0_basis(n, ones) == gamma0_basis_by_class(n, ones), n
    assert missing == 162


def test_hyperbolic_gamma0_symbols_build_no_table(coset_table_reads):
    # the divisor basis at 0 and infinity of Gamma0(36), and on Gamma0(30)+,
    # needs the divisors of N, not the cusp classes of a coset table
    G0, G = GroupId.gamma0(30), GroupId.gamma0(36)
    symbols.gamma0_cusp_basis.cache_clear()
    for cu in (Cusp(0, 1), INF):
        psi_general(G, cu, GroupElement(1, 1, 36, 37))
    g = GroupElement(1, 1, 30, 31)
    w = atkin_lehner(30, 5) * g
    assert w.e == 5 and classify(w).tag is Motion.HYPERBOLIC
    for x in (g, w):
        psi_general(GroupId.gamma0_plus(30), INF, x)
    assert G0 not in coset_table_reads
    assert G not in coset_table_reads


def test_gamma0_basis_failed_check_raises(monkeypatch):
    # a basis that fails its 1/y check is an error, not a silent switch to
    # the lift route
    monkeypatch.setattr(symbols, "pi_over_volume", lambda G: Fraction(1, 7))
    symbols.gamma0_cusp_basis.cache_clear()
    symbols._gamma0_plus_weight.cache_clear()
    with pytest.raises(ArithmeticError):
        psi_general(GroupId.gamma0(11), INF, GroupElement(4, 1, 11, 3))
    with pytest.raises(ArithmeticError):
        psi_general(GroupId.gamma0_plus(11), INF, GroupElement(4, 1, 11, 3))


@pytest.mark.parametrize("n", [9, 27, 32, 36])
def test_gamma0_fallback_laws(n, rng):
    # another class shares this cusp's gcd(q, N), so it has no divisor basis
    # and the lift route is the production route; check its laws
    cu = {9: Cusp(1, 3), 27: Cusp(1, 3), 32: Cusp(1, 4), 36: Cusp(1, 6)}[n]
    assert gamma0_cusp_basis(n, cu) is None
    G = GroupId.gamma0(n)
    for _ in range(5):
        g = random_in_group(rng, G, 2)
        a = psi_general(G, cu, g).rational
        assert psi_general(G, cu, g.inverse()).rational == -a
        h = random_in_group(rng, G, 2)
        d = cocycle_defect(G, cu, g, h,
                           phi_general(G, cu, g).rational,
                           phi_general(G, cu, h).rational,
                           phi_general(G, cu, g * h).rational)
        assert d == 0


def test_gamma0_prime_contraction_formula(rng):
    # for prime N the symbols at infinity and 0 are explicit combinations of
    # classical symbols of g and its Fricke transform
    for n in [5, 11]:
        G = GroupId.gamma0(n)
        for _ in range(8):
            g = random_in_group(rng, G)
            if abs(g.trace) <= 2:
                continue
            if g.trace < 0:
                g = -g
            a, b, c, d = g.entries()
            tw = psi_classical(GroupElement(a, b * n, c // n, d))
            cl = psi_classical(g)
            inf_val = Fraction(n * tw - cl, n * n - 1)
            zero_val = Fraction(n * cl - tw, n * n - 1)
            assert psi_general(G, INF, g).rational == inf_val
            assert psi_general(G, Cusp(0, 1), g).rational == zero_val


# -- Gamma0(N)+ -------------------------------------------------------------


def test_gamma0_plus_lift_identity(rng):
    # on elements of Gamma0(N) the extended symbol is the 2-term coset sum
    n = 11
    G0, Gp = GroupId.gamma0(n), GroupId.gamma0_plus(n)
    for _ in range(6):
        g = random_in_group(rng, G0)
        if abs(g.trace) <= 2:
            continue
        if g.trace < 0:
            g = -g
        lifted = psi_gamma0_plus_lift(n, INF, g)
        assert psi_general(Gp, INF, g).rational == lifted.rational


def test_gamma0_plus_fricke_elements(rng):
    # scale-e elements: inverse law and conjugacy invariance
    n = 11
    Gp = GroupId.gamma0_plus(n)
    w = atkin_lehner(n, n)
    for _ in range(6):
        g = (random_in_group(rng, GroupId.gamma0(n)) * w).reduced()
        assert member(g, Gp)
        a = psi_general(Gp, INF, g).rational
        assert psi_general(Gp, INF, g.inverse()).rational == -a
        if abs(classify_trace(g)) > 2:
            h = random_in_group(rng, GroupId.gamma0(n), 2)
            assert psi_general(Gp, INF, g.conjugate_by(h)).rational == a


@pytest.mark.parametrize("p", [2, 3])
def test_gamma0_plus_matches_hecke_walk(p, rng):
    # Gamma0(p)+ is conjugate to the Hecke group G_4 (p = 2) or G_6 (p = 3):
    # the composition-law walk, which reads no engine, against phi_general
    # on 600 seeded words in T^k and W_p, about half of them of scale p
    G = GroupId.gamma0_plus(p)
    words = [random_hecke_word(rng, p) for _ in range(600)]
    assert 200 < sum(g.e == p for g in words) < 400
    expect = [phi_general(G, INF, g).rational for g in words]
    assert [phi_hecke_walk(p, g) for g in words] == expect
    # a doubled pi/V or Phi(W_p) = 1/2 fails on most of the words
    for mutant in ({"pi_over_v": Fraction(2 * p, p - 1)}, {"phi_w": Fraction(1, 2)}):
        misses = sum(phi_hecke_walk(p, g, **mutant) != x for g, x in zip(words, expect))
        assert misses > len(words) // 2, mutant


@pytest.mark.parametrize("p", [2, 3])
def test_gamma0_plus_pi_over_volume_is_that_of_the_hecke_group(p):
    # pi/V = q/(q - 2) on G_q: 2 on G_4, 3/2 on G_6
    assert pi_over_volume(GroupId.gamma0_plus(p)) == Fraction(p, p - 1)


def deep_gamma0(rng, n, digits):
    """A hyperbolic element of Gamma0(n) with |c| up to about 10^digits,
    of either sign of c and of the trace."""
    while True:
        c = n * rng.randint(1, max(1, 10 ** digits // n)) * rng.choice((-1, 1))
        a = rng.randint(-3 * abs(c), 3 * abs(c))
        while math.gcd(a, c) != 1:
            a += 1
        d = pow(a, -1, abs(c)) + c * rng.randint(-2, 2)
        g = GroupElement(a, (a * d - 1) // c, c, d)
        if abs(g.trace) > 2:
            return g


def deep_atkin_lehner(rng, n, digits):
    """A hyperbolic element of Gamma0(n)+ with scale e > 1, e || n."""
    while True:
        e = rng.choice(atkin_lehner_exponents(n)[1:])
        w = (deep_gamma0(rng, n, digits) * atkin_lehner(n, e)).reduced()
        if w.trace * w.trace > 4 * w.e:
            return w


def test_gamma0_plus_descent_matches_divisor_sum():
    # the one weighted descent against the divisor sum
    # sum_e c_e psi_classical([[a, eb], [c/e, d]]) over the all-ones basis, at
    # every squarefree N <= 200, |c| up to 10^40, both signs, and Psi(g^2)/2
    # at e > 1
    rng = random.Random(20261111)
    checked = 0
    for n in range(2, 201):
        if not _squarefree(n):
            continue
        basis = symbols._gamma0_basis(n, (1,) * len(symbols._divisors(n)))
        G, inf = GroupId.gamma0_plus(n), Cusp.infinity()
        for digits in (2, 4, 9, 20, 40):
            g = deep_gamma0(rng, n, digits)
            for x in (g, -g):
                assert psi_general(G, inf, x).rational \
                    == psi_gamma0_divisor(x, basis), (n, x)
            w = deep_atkin_lehner(rng, n, digits)
            for x in (w, -w):
                assert psi_general(G, inf, x).rational \
                    == psi_gamma0_divisor(x * x, basis) / 2, (n, x)
            checked += 4
    assert checked == 4 * 5 * 121     # 121 squarefree N in 2..200


def divisor_row(n, basis):
    """The weight row w_r = sum_{e | gcd(r, N)} c_e mod N of a divisor
    basis ((e, c_e), ...)."""
    return [sum(ce for e, ce in basis if r % e == 0) for r in range(n)]


@pytest.mark.parametrize("n", [6, 30, 210])
def test_weighted_descent_matches_direct_sum(n):
    # the descent with the row of each indicator basis of Gamma0(N), and of
    # the all-ones basis of Gamma0(N)+, against the O(|c|) sum
    rng = random.Random(20261112 + n)
    ones = (1,) * len(symbols._divisors(n))
    bases = [gamma0_cusp_basis(n, cu) for cu, _w in cusps(GroupId.gamma0(n))]
    for basis in bases + [symbols._gamma0_basis(n, ones)]:
        row = divisor_row(n, basis)
        k1 = sum(e * ce for e, ce in basis)
        tables, pairs = symbols._weight_record(n, row, k1)[:2]
        for _ in range(12):
            m = n * int(10 ** rng.uniform(0, 4.3 - math.log10(n)))
            c = m * rng.choice((-1, 1))
            a = rng.randint(-3 * m, 3 * m)
            while math.gcd(a, c) != 1:
                a += 1
            assert Fraction(*symbols._descent(n, tables, pairs, a, c)) \
                == level_sawtooth_direct(n, a, c, row), (n, basis, a, c)


def test_gamma0_divisor_rows_match_one_weighted_descent():
    # at every non-split cusp of Gamma0(N), 2 <= N <= 150, the divisor sum
    # sum_e c_e psi_classical([[a, eb], [c/e, d]]) of the cusp's basis equals
    # _psi_weighted on the row w_r = sum_{e | gcd(r, N)} c_e with
    # K1 = sum_e e c_e, at two seeded elements and their negatives: the
    # identity by which one descent could serve these symbols
    rng = random.Random(20261020)
    checked = 0
    for n in range(2, 151):
        for cu, _w in cusps(GroupId.gamma0(n)):
            basis = gamma0_cusp_basis(n, cu)
            if basis is None:
                continue
            rec = symbols._weight_record(n, divisor_row(n, basis),
                                         sum(e * ce for e, ce in basis))
            for digits in (4, 12):
                g = deep_gamma0(rng, n, digits)
                for x in (g, -g):
                    assert Fraction(*symbols._psi_weighted(n, rec, *x.entries())) \
                        == psi_gamma0_divisor(x, basis), (n, cu, x)
                    checked += 1
    assert checked == 4 * 687          # 687 non-split cusp classes


def test_gamma0_plus_symbol_takes_one_descent(monkeypatch):
    # one weighted level-N descent per symbol, at e = 1 and e > 1, and no
    # psi_classical or dedekind_sum call: the divisor sum took tau(N) of each
    rng = random.Random(20261113)
    calls = {"descent": 0, "psi_classical": 0, "dedekind_sum": 0}

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(symbols, "_descent", counting("descent", symbols._descent))
    monkeypatch.setattr(symbols, "psi_classical",
                        counting("psi_classical", symbols.psi_classical))
    monkeypatch.setattr(dedekind, "dedekind_sum",
                        counting("dedekind_sum", dedekind.dedekind_sum))
    for n in (2, 6, 11, 30, 210):
        Gp = GroupId.gamma0_plus(n)
        for digits in (3, 12, 30):
            for g in (deep_gamma0(rng, n, digits), deep_atkin_lehner(rng, n, digits)):
                for key in calls:
                    calls[key] = 0
                psi_general(Gp, INF, g)
                assert calls == {"descent": 1, "psi_classical": 0,
                                 "dedekind_sum": 0}, (n, g)


def classify_trace(g):
    # scale-normalized trace comparison: hyperbolic iff trace^2 > 4 det
    return g.trace / (g.e ** 0.5)


# -- homogeneity: Psi(g^k) = k Psi(g) on hyperbolic elements -----------------


def random_hyperbolic(rng, G, steps=4):
    """Hyperbolic element of G of positive trace; for Gamma0(N)+ a random
    Atkin-Lehner coset, so that about half the draws have e > 1."""
    n = G.level
    while True:
        if G.family is Family.GAMMA0N_PLUS:
            e = rng.choice(atkin_lehner_exponents(n))
            g = (random_in_group(rng, GroupId.gamma0(n), steps)
                 * atkin_lehner(n, e)).reduced()
        else:
            g = random_in_group(rng, G, steps)
        if classify(g).tag is Motion.HYPERBOLIC:
            return g if g.trace > 0 else -g
        steps += 1        # no word of <= 3 letters in S, T is hyperbolic


def cusp_reps(G):
    # the one cusp class of Gamma0(N)+ is taken at every cusp of Gamma0(N)
    if G.family is Family.GAMMA0N_PLUS:
        G = GroupId.gamma0(G.level)
    return [cu for cu, _w in cusps(G)]


def test_homogeneity_routes_match_cocycle_oracles():
    # 1000+ seeded (group, cusp, element) triples against the composition-law
    # unwinding that the Psi(g^k)/k routes replaced; fewer draws on the
    # levels with the most Gamma(N) cosets
    rng = random.Random(20261018)
    draws = ([(GroupId.gamma1(n), 20) for n in (5, 7, 11, 13)]
             + [(GroupId.gamma0(9), 20), (GroupId.gamma0(16), 4),
                (GroupId.gamma0(18), 4)]
             + [(GroupId.gamma0_plus(n), 20) for n in (6, 11, 30)])
    checked = scaled = 0
    for G, per_cusp in draws:
        for cu in cusp_reps(G):
            for _ in range(per_cusp):
                g = random_hyperbolic(rng, G)
                if G.family is Family.GAMMA0N_PLUS:
                    new = psi_general(G, cu, g)
                    old = psi_gamma0_plus_cocycle(G.level, cu, g)
                    scaled += g.e > 1
                else:
                    new = _psi_lift(G, cu, g)
                    old = psi_peel_lift_cocycle(G, cu, g)
                assert new == old, (G, cu, g)
                checked += 1
    assert checked >= 1000 and scaled >= 100


@pytest.mark.parametrize("G", [
    GroupId.sl2z(), GroupId.gamma(3), GroupId.gamma(4),
    GroupId.gamma0(11), GroupId.gamma0(9), GroupId.gamma1(7),
    GroupId.gamma0_plus(6),
], ids=str)
def test_psi_homogeneous_on_hyperbolic_powers(G, rng):
    for cu in cusp_reps(G):
        for _ in range(3):
            g = random_hyperbolic(rng, G, 3)
            psi = psi_general(G, cu, g).rational
            for k in (2, 3):
                assert psi_general(G, cu, g ** k).rational == k * psi, (cu, g, k)


# -- the lift route: one weighted descent per Gamma1(N)-class above a ---------


def split_cusps(n):
    """The Gamma0(N) cusp classes that share gcd(q, N) with another class."""
    out = []
    for cu, _w in cusps(GroupId.gamma0(n)):
        d = math.gcd(cu.q, n)
        if math.gcd(d, n // d) > 2:
            out.append(cu)
    return out


def lift_terms(G, cu):
    """(H, c, n_c, Q, sigma) for each term of the lift route at cu: the
    Gamma1(N)-classes c of symbols._classes_above with their counts n_c on
    Gamma0(N), and cu itself, counted once, on H = G = Gamma(N) or
    Gamma1(N); Q from the record of c, and sigma the base matrix of the cusp
    W_Q c that it evaluates, read back from the record's base
    adj(W_Q) sigma."""
    n = G.level
    classes = ([(GroupId.gamma1(n), c, m) for c, m in symbols._classes_above(n, cu)]
               if G.family is Family.GAMMA0_N else [(G, cu, 1)])
    out = []
    for H, c, m in classes:
        base, Q = symbols._lift_record(H, c)[:2]
        sigma = atkin_lehner(n, Q) * GroupElement(*base, Q)
        out.append((H, c, m, Q, sigma.entries()))
    return out


def lift_q(G, cu):
    """The Q || N of the Atkin-Lehner transport at cu, which every class
    above a Gamma0(N) cusp shares, since they share gcd(q, N)."""
    qs = {Q for _H, _c, _m, Q, _sigma in lift_terms(G, cu)}
    assert len(qs) == 1, (G, cu, qs)
    return qs.pop()


def test_lift_route_matches_coset_sum(monkeypatch):
    # every cusp of Gamma1(2..30) and every split cusp of Gamma0(9..36): the
    # engine against the peel-lift whose Gamma(N) power takes the full coset
    # sum; the oracle is swapped in as symbols._psi_lift, so that the
    # Gamma(N) part it peels off goes through the coset sum too
    rng = random.Random(20261101)
    triples = [(G, cu, random_hyperbolic(rng, G))
               for G in [GroupId.gamma1(n) for n in range(2, 31)]
               for cu, _w in cusps(G)]
    triples += [(GroupId.gamma0(n), cu, random_hyperbolic(rng, GroupId.gamma0(n)))
                for n in (9, 16, 18, 25, 27, 32, 36)
                for cu in split_cusps(n) for _ in range(2)]
    new = [_psi_lift(G, cu, g) for G, cu, g in triples]
    monkeypatch.setattr(symbols, "_psi_lift", psi_peel_lift_coset_sum)
    for (G, cu, g), value in zip(triples, new):
        assert value == psi_peel_lift_coset_sum(G, cu, g), (G, cu, g)
    assert len(triples) == 501


def test_lift_route_matches_the_old_route():
    # the one weighted descent per Gamma1(N)-class against the route it
    # replaced, kept in conftest: the peel g^k = h T^j with its sign terms
    # and the sum over the Gamma(N)-cusps above the cusp; at every cusp of
    # Gamma(2..12) and Gamma1(2..40) and every split cusp of Gamma0(2..60),
    # one word each, as g and -g.  The Gamma1(N)-cusps with gcd(q s, N) < N
    # weigh more than one u, and the split Gamma0(N) cusps sum more than
    # one class with d a unit mod N, so k > 1
    rng = random.Random(20261120)
    cases = []
    for n in range(2, 13):
        G = GroupId.gamma(n)
        for cu, _w in cusps(G):
            g = random_principal_hyperbolic(rng, n).conjugate_by(random_sl2z(rng, 3))
            cases.append((G, cu, g if g.trace > 0 else -g))
    for n in range(2, 41):
        G = GroupId.gamma1(n)
        cases += [(G, cu, deep_element(rng, G, n * n)) for cu, _w in cusps(G)]
    for n in range(2, 61):
        G = GroupId.gamma0(n)
        cases += [(G, cu, deep_element(rng, G, n * n, any_unit=True))
                  for cu in split_cusps(n)]
    multi_u = powers = 0
    for G, cu, g in cases:
        expect = psi_old_route(G, cu, g)
        assert psi_general(G, cu, g) == psi_general(G, cu, -g) == expect, (G, cu, g)
        multi_u += any(math.gcd(sigma[2] * sigma[3], G.level) < G.level
                       for *_x, sigma in lift_terms(G, cu))
        powers += g.a % G.level not in (1 % G.level, G.level - 1)
    assert (len(cases), multi_u, powers) == (1160, 322, 46)


def random_principal_parabolic(rng, n):
    """gamma T^(nm) gamma^-1 for a random gamma in SL2(Z) and m = +-1, +-2:
    a parabolic element of Gamma(n), normal in SL2(Z)."""
    gamma = random_sl2z(rng, 4)
    return (T ** (n * rng.choice((-2, -1, 1, 2)))).conjugate_by(gamma)


def test_psi_gamma_matches_conjugation_oracle():
    # the integer conjugation, sign term and formula of the lift route
    # against GroupElement conjugation and the unreduced sawtooth descent,
    # at every cusp of Gamma(2..12), on hyperbolic and parabolic elements of
    # both trace signs; psi_general takes the closed form on the parabolic
    # ones, the lift route its one descent or, at c = 0, b d / N
    rng = random.Random(20261105)
    checked = 0
    for n in range(2, 13):
        G = GroupId.gamma(n)
        for cu, _w in cusps(G):
            for g in (random_principal_hyperbolic(rng, n),
                      random_principal_parabolic(rng, n)):
                for x in (g, -g):
                    expect = psi_gamma_conjugated(n, cu, x)
                    assert _psi_lift(G, cu, x) == psi_general(G, cu, x) == expect, (n, cu, x)
                    checked += 1
    assert checked == 4 * 265


def test_psi_gamma_refuses_elements_outside_gamma_n():
    # T, a lower-left entry that is odd, and a scale e = 3 that is +-I mod 2
    for g in (GroupElement(1, 1, 0, 1), GroupElement(1, 2, 1, 3),
              GroupElement(3, 2, 0, 1, 3)):
        with pytest.raises(ValueError, match="is not in Gamma"):
            psi_general(GroupId.gamma(2), INF, g)


def lift_cases(rng, make):
    """(G, cusp, g) for every cusp of Gamma1(2..13) and every split cusp of
    Gamma0(9, 16, 25, 27, 32, 36), with g = make(G)."""
    groups = [GroupId.gamma1(n) for n in range(2, 14)]
    out = [(G, cu, make(G)) for G in groups for cu, _w in cusps(G)]
    out += [(GroupId.gamma0(n), cu, make(GroupId.gamma0(n)))
            for n in (9, 16, 25, 27, 32, 36) for cu in split_cusps(n)]
    return out


def peeled_part(g, n):
    """(j, h) with g^k = h T^j for the least power g^k of g that is
    +-unipotent mod n, as the old route peeled it; h is in Gamma(n) up to
    sign."""
    gk = g
    while gk.a % n not in (1 % n, (n - 1) % n):
        gk = gk * g
    j = gk.a * gk.b % n
    return j, gk * T ** -j


def parabolic_peel(rng, G):
    """A hyperbolic g = h T^j of G with h parabolic in Gamma(N) and
    j != 0 mod N, of positive trace: the power is g itself."""
    n = G.level
    while True:
        g = random_principal_parabolic(rng, n) * T ** rng.randrange(1, n)
        if abs(g.trace) > 2:
            g = g if g.trace > 0 else -g
            assert classify(peeled_part(g, n)[1]).tag is Motion.PARABOLIC
            return g


def hyperbolic_peel(rng, G, negative=False):
    """A hyperbolic g of G of positive trace whose peeled h has j != 0 and
    is hyperbolic, of negative trace when negative is set."""
    while True:
        g = random_hyperbolic(rng, G)
        j, h = peeled_part(g, G.level)
        if j and (h.trace < -2 if negative else abs(h.trace) > 2):
            return g


def assert_lift_route_matches_oracles(monkeypatch, cases):
    new = [_psi_lift(G, cu, g) for G, cu, g in cases]
    for (G, cu, g), value in zip(cases, new):
        assert value == psi_peel_lift_cocycle(G, cu, g), (G, cu, g)
    monkeypatch.setattr(symbols, "_psi_lift", psi_peel_lift_coset_sum)
    for (G, cu, g), value in zip(cases, new):
        assert value == psi_peel_lift_coset_sum(G, cu, g), (G, cu, g)


def test_lift_route_peels_off_a_parabolic_part(monkeypatch):
    # g = h T^j with h parabolic in Gamma(N) and j != 0 mod N: the power
    # is g itself, whose Gamma(N) part the old route sent to psi_general
    # and the cocycle oracle still does
    rng = random.Random(20261106)
    cases = lift_cases(rng, lambda G: parabolic_peel(rng, G))
    assert_lift_route_matches_oracles(monkeypatch, cases)


def test_lift_route_takes_negative_traces(monkeypatch):
    # Psi(-g) = Psi(g): the powers and the weighted descents of a
    # negative-trace element give the value of its negative
    rng = random.Random(20261107)
    cases = lift_cases(rng, lambda G: -random_hyperbolic(rng, G))
    for G, cu, g in cases:
        assert g.trace < -2
        assert _psi_lift(G, cu, g) == _psi_lift(G, cu, -g), (G, cu, g)
    assert_lift_route_matches_oracles(monkeypatch, cases)


def test_lift_route_negates_a_peeled_part_of_negative_trace(monkeypatch):
    # j != 0 and tr h < -2, where the old route took -h of positive trace
    rng = random.Random(20261109)
    cases = lift_cases(rng, lambda G: hyperbolic_peel(rng, G, negative=True))
    assert_lift_route_matches_oracles(monkeypatch, cases)


def atkin_lehner_frame(G, cu, g):
    """(W_Q cu, W_Q g W_Q^-1): the cusp and element at which the lift route
    evaluates Psi_cu(g), for the Q || N of its record, by GroupElement
    conjugation."""
    w = atkin_lehner(G.level, lift_q(G, cu))
    return w.apply_cusp(cu), g.conjugate_by(w)


def classes_above(G, cu):
    """The number of Gamma(N)-cusps above cu on G = Gamma0(N) or Gamma1(N):
    the classes +-(u p + x q, q / u) mod N over the cosets of Gamma(N),
    which are [[u, x], [0, 1/u]] mod N with u = 1 on Gamma1(N)."""
    n = G.level
    units = [1] if G.family is Family.GAMMA1_N else [
        u for u in range(1, n) if math.gcd(u, n) == 1]
    seen = set()
    for u in units:
        for x in range(n):
            v = ((u * cu.p + x * cu.q) % n, pow(u, -1, n) * cu.q % n)
            seen.add(min(v, (-v[0] % n, -v[1] % n)))
    return len(seen)


def fewest_classes(G, cu):
    """The Gamma(N)-cusps above the best Atkin-Lehner image of cu: on
    Gamma1(N), gcd(d, N/d) = prod_p p^min(v_p(d), v_p(N) - v_p(d)) for
    d = gcd(q, N), and 1 at the irregular cusp 1/2 of Gamma1(4); on
    Gamma0(N), that times the Gamma1(N)-classes in the Gamma0(N)-class of
    cu, which W_Q permutes."""
    n = G.level
    if (G, cu) == (GroupId.gamma1(4), Cusp(1, 2)):
        return 1
    d = math.gcd(cu.q, n)
    return math.gcd(d, n // d) * gamma1_classes(G, cu)


def gamma1_classes(G, cu):
    """The number of Gamma1(N)-classes in the G-class of cu: 1 on
    Gamma1(N)."""
    if G.family is Family.GAMMA1_N:
        return 1
    return sum(modgroup.cusp_equivalent(G, b, cu)
               for b, _w in cusps(GroupId.gamma1(G.level)))


def test_lift_route_takes_the_fewest_classes_at_every_cusp():
    # cusp by cusp, the Gamma(N)-cusps above the cusp evaluated, W_Q a, are
    # the fewest over every Q || N and the count of fewest_classes: 2,533
    # over every cusp of Gamma1(2..60), where the Fricke transport at
    # gcd(q, N)^2 < N alone took 4,247, and 2,154 over the split cusps of
    # Gamma0(2..100), where no transport took 5,342.  There N | q^2 for
    # W_Q a = p/q, and the lift route takes one term, one descent, per
    # Gamma1(N)-class above a, evaluated at its image under W_Q: 1,999 over
    # those cusps of Gamma1(N), one each, and 482 over those of Gamma0(N),
    # whose classes above W_Q a hold the Gamma(N)-cusps counted
    cases = [(GroupId.gamma1(n), cu) for n in range(2, 61)
             for cu, _w in cusps(GroupId.gamma1(n))]
    cases += [(GroupId.gamma0(n), cu) for n in range(2, 101) for cu in split_cusps(n)]
    classes, terms = collections.Counter(), collections.Counter()
    for G, cu in cases:
        n = G.level
        Q, record_terms = lift_q(G, cu), lift_terms(G, cu)
        w = atkin_lehner(n, Q)
        wa = w.apply_cusp(cu)
        assert wa.q ** 2 % n == 0, (G, cu)
        for _H, c, _m, _Q, sigma in record_terms:
            assert sigma == w.apply_cusp(c).base_matrix().entries(), (G, cu, c)
        least = min(classes_above(G, atkin_lehner(n, e).apply_cusp(cu))
                    for e in atkin_lehner_exponents(n))
        assert classes_above(G, wa) == least == fewest_classes(G, cu), (G, cu)
        assert least == sum(classes_above(H, w.apply_cusp(c))
                            for H, c, *_x in record_terms), (G, cu)
        assert len(record_terms) == gamma1_classes(G, cu), (G, cu)
        classes[G.family] += least
        terms[G.family] += len(record_terms)
    assert classes == {Family.GAMMA1_N: 2533, Family.GAMMA0_N: 2154}
    assert terms == {Family.GAMMA1_N: 1999, Family.GAMMA0_N: 482}


def test_peel_cost_in_descents_and_calls(monkeypatch):
    # a symbol is one level-N descent per Gamma1(N)-class above the cusp
    # evaluated, the Atkin-Lehner image W_Q a: one on Gamma1(N), and on a
    # split Gamma0(N) cusp the Gamma1(N)-classes in its Gamma0(N)-class;
    # with no psi_general call and no GroupElement product, whether the
    # Gamma(N) part that the old route peeled off is hyperbolic or not
    rng = random.Random(20261110)
    draws = [("class sum", lambda G: random_principal_hyperbolic(rng, G.level)),
             ("hyperbolic h", lambda G: hyperbolic_peel(rng, G)),
             ("parabolic h", lambda G: parabolic_peel(rng, G))]
    cases = [(G, cu, g) for _kind, make in draws
             for G, cu, g in lift_cases(rng, make)]
    calls = {"descent": 0, "psi_general": 0, "mul": 0}

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    seen = collections.Counter()
    monkeypatch.setattr(symbols, "_descent", counting("descent", symbols._descent))
    monkeypatch.setattr(symbols, "psi_general",
                        counting("psi_general", symbols.psi_general))
    monkeypatch.setattr(GroupElement, "__mul__",
                        counting("mul", GroupElement.__mul__))
    for G, cu, g in cases:
        wa, w = atkin_lehner_frame(G, cu, g)
        j, h = peeled_part(w, G.level)
        parabolic = j != 0 and classify(h).tag is not Motion.HYPERBOLIC
        above = gamma1_classes(G, cu)
        seen[wa != cu, parabolic] += 1
        for key in calls:
            calls[key] = 0
        _psi_lift(G, cu, g)
        assert calls == {"descent": above, "psi_general": 0, "mul": 0}, (G, cu, g)
    assert min(seen[k] for k in itertools.product((False, True), repeat=2)) >= 10, seen


def test_gamma1_zero_minus_infinity_takes_two_descents_per_generator(monkeypatch):
    # the cusp 0 is evaluated at W 0 = infinity, so each period of
    # (0) - (inf) on Gamma1(N) takes at most one level-N descent per cusp
    calls = []

    def counted(n, tables, pairs, a, c):
        calls.append(n)
        return _descent(n, tables, pairs, a, c)

    monkeypatch.setattr(symbols, "_descent", counted)
    total = 0
    for n in range(2, 24):
        G = GroupId.gamma1(n)
        D = Divisor.from_dict(G, {Cusp(0, 1): 1, INF: -1})
        for g in schreier_generators(G):
            calls.clear()
            divisor_period(D, g)
            assert len(calls) <= 2, (n, g, len(calls))
            total += len(calls)
    assert total >= 400


def test_lift_route_at_the_irregular_cusp_of_gamma1_4(monkeypatch):
    # 1/2 has width 1 on Gamma1(4), fixed by -base T base^-1, where
    # Gamma(4) has width 4: its record has Q = 1, the width 1, and the base
    # matrix [[1, 0], [2, 1]], which gives g = gcd(2, 4) = 2,
    # U = {1, 3} = {+-1}; a Gamma0(N) cusp has no record, only its classes
    G, half = GroupId.gamma1(4), Cusp(1, 2)
    assert symbols._lift_record(G, half) == (
        (1, 0, 2, 1), 1, symbols._cusp_weight(4, 2), 1)
    with pytest.raises(ValueError, match=re.escape("no lift record for Gamma0(4)")):
        symbols._lift_record(GroupId.gamma0(4), half)
    rng = random.Random(20261108)
    cases = [(G, half, random_hyperbolic(rng, G, 6)) for _ in range(40)]
    cases += [(G, cu, -g) for G, cu, g in cases]
    assert_lift_route_matches_oracles(monkeypatch, cases)


def test_gamma1_symbol_at_infinity_takes_one_descent(monkeypatch):
    # the N cosets of Gamma(N) in Gamma1(N) all send infinity to one
    # Gamma(N)-cusp, so a hyperbolic symbol at infinity is one level-N
    # descent on the record of Gamma(N): exactly one on the hyperbolic
    # elements of Gamma(N) and on words of Gamma1(N)
    rng = random.Random(20261102)
    calls = []

    def counted(n, tables, pairs, a, c):
        calls.append((n, a, c))
        return _descent(n, tables, pairs, a, c)

    monkeypatch.setattr(symbols, "_descent", counted)
    evaluated = []
    for n in range(3, 24):
        G = GroupId.gamma1(n)
        for g in [random_principal_hyperbolic(rng, n) for _ in range(2)]:
            calls.clear()
            evaluated.append((G, g, psi_general(G, INF, g)))
            assert len(calls) == 1, (n, g)
        for g in [random_hyperbolic(rng, G) for _ in range(3)]:
            calls.clear()
            evaluated.append((G, g, psi_general(G, INF, g)))
            assert len(calls) <= 1, (n, g)
    monkeypatch.setattr(symbols, "_descent", _descent)
    monkeypatch.setattr(symbols, "_psi_lift", psi_peel_lift_coset_sum)
    for G, g, value in evaluated:
        assert value == psi_general(G, INF, g), (G, g)


def test_fricke_transport_on_gamma1():
    # W = [[0, -1], [N, 0]] normalizes Gamma1(N) and swaps 0 and infinity:
    # Psi_0(g) = Psi_inf(W g W^-1) = Psi_inf([[d, -c/N], [-N b, a]])
    rng = random.Random(20261103)
    for n in range(2, 30):
        G = GroupId.gamma1(n)
        for _ in range(12):
            g = random_hyperbolic(rng, G)
            a, b, c, d = g.entries()
            w = GroupElement(d, -c // n, -n * b, a)
            assert psi_general(G, Cusp(0, 1), g) == psi_general(G, INF, w), (n, g)


def deep_element(rng, G, bound, any_unit=False):
    """A hyperbolic element of G = Gamma0(n) or Gamma1(n) of positive trace
    with n <= |c| <= bound, either sign of c, built from its bottom row:
    d = 1 mod n on Gamma1(n), d = +-1 mod n on Gamma0(n), or any unit mod n
    on Gamma0(n) with any_unit, so that the least power g^k in +-Gamma1(n)
    has k up to phi(n)/2."""
    n = G.level
    while True:
        c = n * rng.randint(1, bound // n) * rng.choice((-1, 1))
        d = 1 + n * rng.randint(-bound // n, bound // n)
        if G.family is Family.GAMMA0_N:
            d *= rng.choice((-1, 1))
            if any_unit:
                d *= rng.choice([u for u in range(1, n + 1) if math.gcd(u, n) == 1])
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, abs(c)) + abs(c) * rng.randint(-2, 2)   # a = d mod n
        if a + d > 2:
            return GroupElement(a, (a * d - 1) // c, c, d)


class StayAtA(GroupElement):
    """W_Q for the mutant that conjugates g by W_Q but evaluates the
    symbol at a instead of W_Q a."""

    def apply_cusp(self, cusp):
        return cusp


def test_fricke_transport_matches_coset_sum_at_every_cusp(monkeypatch):
    # psi_general and phi_general at every cusp class of Gamma1(2..40), at
    # |c| <= N^2 and |c| <= 10^12, and at every split cusp of
    # Gamma0(2..100), at |c| <= 4N, against the peel-lift whose Gamma(N)
    # power takes the full coset sum at the cusp itself; the oracle is
    # swapped in as symbols._psi_lift, so that no symbol it needs goes
    # through the Atkin-Lehner transport.  Each element is also evaluated as
    # its negative.  On Gamma0(N), d = +-1 mod N keeps the power k = 1 and
    # |c| <= 4N the descents short, since the oracle takes N phi(N)/2 of them
    # per symbol; powers k > 1 after the transport are swept on
    # Gamma0(9..36) by test_lift_route_matches_coset_sum
    rng = random.Random(20261112)
    cases = []
    for n in range(2, 41):
        G = GroupId.gamma1(n)
        for cu, _w in cusps(G):
            for bound in (n * n, 10 ** 12):
                cases.append((G, cu, deep_element(rng, G, bound)))
    for n in range(2, 101):
        G = GroupId.gamma0(n)
        cases += [(G, cu, deep_element(rng, G, 4 * n)) for cu in split_cusps(n)]
    new = [(psi_general(G, cu, g), psi_general(G, cu, -g),
            phi_general(G, cu, g), phi_general(G, cu, -g)) for G, cu, g in cases]
    # W_Q moves a = p/q, d = gcd(q, N), exactly at the prime-power parts
    # N_p || N with gcd(d, N_p)^2 < N_p: Q = N is the Fricke involution,
    # 1 < Q < N a partial Atkin-Lehner involution
    transported = collections.Counter()
    for G, cu, _g in cases:
        n, d = G.level, math.gcd(cu.q, G.level)
        parts = [e for e in atkin_lehner_exponents(n)
                 if len(modgroup._prime_powers(e)) == 1]
        Q = lift_q(G, cu)
        assert Q == math.prod(e for e in parts if math.gcd(d, e) ** 2 < e), (G, cu)
        transported[G.family, "none" if Q == 1 else "all" if Q == n else "part"] += 1
    assert transported == {
        (Family.GAMMA1_N, "none"): 596, (Family.GAMMA1_N, "all"): 536,
        (Family.GAMMA1_N, "part"): 546, (Family.GAMMA0_N, "none"): 80,
        (Family.GAMMA0_N, "all"): 12, (Family.GAMMA0_N, "part"): 50}
    half = Cusp(1, 2)
    assert symbols._lift_record(GroupId.gamma1(4), half)[1] == 1
    assert (GroupId.gamma1(4), half) in {(G, cu) for G, cu, _g in cases}
    monkeypatch.setattr(symbols, "_psi_lift", psi_peel_lift_coset_sum)
    expected = []
    for (G, cu, g), (psi, psi_neg, phi, phi_neg) in zip(cases, new):
        expect = psi_peel_lift_coset_sum(G, cu, g).rational
        h = g.conjugate_by(cu.base_matrix().inverse())
        expect_phi = expect + pi_over_volume(G) * sign(h.c * h.trace)
        assert psi.rational == psi_neg.rational == expect, (G, cu, g)
        assert phi.rational == phi_neg.rational == expect_phi, (G, cu, g)
        expected.append(expect)
    assert max(abs(g.c) for _G, _cu, g in cases) > 10 ** 11
    # the mutant that stays at a must fail the sweep on both families: at a
    # cusp with N not dividing q^2 a conjugate has N not dividing c, which
    # the descent refuses, and elsewhere its value may differ
    monkeypatch.setattr(symbols, "atkin_lehner",
                        lambda n, e: StayAtA(*atkin_lehner(n, e).entries(), e))
    symbols._lift_record.cache_clear()

    def fails(G, cu, g, expect):
        try:
            return _psi_lift(G, cu, g).rational != expect
        except ValueError:
            return True

    try:
        wrong = collections.Counter(
            G.family for (G, cu, g), expect in zip(cases, expected)
            if fails(G, cu, g, expect))
    finally:
        symbols._lift_record.cache_clear()
    assert wrong[Family.GAMMA1_N] > 0 and wrong[Family.GAMMA0_N] > 0, wrong


def test_gamma0_split_divisor_sums_over_its_classes():
    # the divisor-basis solve with weight 1 at a split d is the symbol of
    # the sum of E_{2,a} over the phi(gcd(d, N/d)) classes a/d, so it is
    # the sum of their lift-route symbols; the 1/y check counts them
    rng = random.Random(20261104)
    checked = 0
    for n in (9, 16, 18, 25, 27, 32, 36, 49, 50, 72):
        G = GroupId.gamma0(n)
        divs = [e for e in range(1, n + 1) if n % e == 0]
        for d in sorted({math.gcd(cu.q, n) for cu in split_cusps(n)}):
            classes = [cu for cu, _w in cusps(G) if math.gcd(cu.q, n) == d]
            m = math.gcd(d, n // d)
            assert len(classes) == sum(math.gcd(a, m) == 1 for a in range(m)) > 1
            sol = solve_rational_gauss_jordan(
                [[Fraction(n // math.gcd(x * x, n) * math.gcd(e, x) ** 2, e)
                  for e in divs] + [Fraction(int(x == d))] for x in divs])
            assert sum(sol) == len(classes) * pi_over_volume(G) / 3
            basis = tuple(zip(divs, sol))
            for _ in range(4):
                g = random_hyperbolic(rng, G)
                total = sum(_psi_lift(G, cu, g).rational for cu in classes)
                assert psi_gamma0_divisor(g, basis) == total, (n, d, g)
                checked += 1
    assert checked == 76
