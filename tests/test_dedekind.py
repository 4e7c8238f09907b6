from fractions import Fraction
from math import gcd

import pytest

from radsym.dedekind import (
    cocycle_defect,
    dedekind_sum,
    phi_classical,
    pi_over_volume,
    psi_classical,
    sign,
)
from radsym.modgroup import Cusp, GroupElement, GroupId, S, T

from conftest import (
    dedekind_sum_direct,
    dedekind_sum_reciprocity,
    psi_word,
    random_sl2z,
    sawtooth,
)


def test_sign_convention():
    assert sign(5) == 1 and sign(-3) == -1 and sign(0) == 0


def test_sawtooth_values():
    assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
    assert sawtooth(Fraction(3, 4)) == Fraction(1, 4)
    assert sawtooth(0) == 0
    assert sawtooth(7) == 0
    assert sawtooth(Fraction(-1, 3)) == Fraction(1, 6)
    # odd and 1-periodic off the integers
    assert sawtooth(Fraction(2, 5)) == -sawtooth(Fraction(-2, 5))
    assert sawtooth(Fraction(2, 5)) == sawtooth(Fraction(7, 5))


def test_dedekind_sum_small_values():
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(1, 1) == 0
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 5) == Fraction(1, 5)
    assert dedekind_sum(2, 5) == 0
    # s(-a, c) = -s(a, c)
    assert dedekind_sum(5 - 2, 5) == -dedekind_sum(2, 5)


def test_dedekind_sum_against_definition():
    for c in range(1, 80):
        for a in range(1, c + 1):
            if gcd(a, c) == 1:
                assert dedekind_sum(a, c) == dedekind_sum_direct(a, c)


def test_dedekind_sum_matches_reciprocity_loop(rng):
    # 1200 seeded pairs: c = 1, negative a, and entries up to 128 bits
    pairs = [(rng.randint(-50, 50), 1) for _ in range(20)]
    while len(pairs) < 1200:
        bits = rng.choice([4, 8, 16, 32, 64, 96, 128])
        c = rng.getrandbits(bits) + 1
        a = rng.getrandbits(bits + 2) * rng.choice([-1, 1])
        if gcd(a, c) == 1:
            pairs.append((a, c))
    for a, c in pairs:
        assert dedekind_sum(a, c) == dedekind_sum_reciprocity(a, c)


def test_reciprocity():
    for c in range(1, 60):
        for a in range(1, c):
            if gcd(a, c) != 1:
                continue
            lhs = dedekind_sum(a, c) + dedekind_sum(c, a)
            rhs = Fraction(-1, 4) + (Fraction(a, c) + Fraction(c, a)
                                     + Fraction(1, a * c)) / 12
            assert lhs == rhs


def test_dedekind_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        dedekind_sum(2, 4)
    with pytest.raises(ValueError):
        dedekind_sum(1, 0)


def test_phi_classical_values():
    assert phi_classical(T) == 1
    assert phi_classical(T ** 5) == 5
    assert phi_classical(S) == 0
    assert phi_classical(GroupElement(2, 1, 1, 1)) == 3
    assert phi_classical(GroupElement(3, 2, 4, 3)) == 3


def test_psi_classical_values():
    assert psi_classical(T) == 1
    assert psi_classical(GroupElement(2, 1, 1, 1)) == 0
    assert psi_classical(GroupElement(3, 2, 4, 3)) == 0
    assert psi_classical(S * T) == -2


def test_psi_laws(rng):
    for _ in range(300):
        g = random_sl2z(rng)
        assert psi_classical(g.inverse()) == -psi_classical(g)
        assert psi_classical(-g) == psi_classical(g)
        h = random_sl2z(rng, 4)
        if abs(g.trace) > 2:
            assert psi_classical(g.conjugate_by(h)) == psi_classical(g)


def test_psi_classical_matches_word_oracle(rng):
    # Rademacher's word formula on T^{a_1} U^{a_2} ... U^{a_2k}, U = [[1, 0],
    # [1, 1]], with exponents from 1 to 10^6, on conjugates of both signs:
    # Psi is a class function and Psi(-g) = Psi(g)
    for _ in range(2000):
        exponents = [rng.choice((rng.randint(1, 9), rng.randint(1, 10 ** 6)))
                     for _ in range(2 * rng.randint(1, 3))]
        g = GroupElement.identity()
        for i, x in enumerate(exponents):
            g = g * (GroupElement(1, x, 0, 1) if i % 2 == 0 else GroupElement(1, 0, x, 1))
        g = g.conjugate_by(random_sl2z(rng, 4))
        if rng.random() < 0.5:
            g = -g
        assert psi_classical(g) == psi_word(exponents), exponents


def test_pi_over_volume():
    assert pi_over_volume(GroupId.sl2z()) == 3
    assert pi_over_volume(GroupId.gamma(2)) == Fraction(1, 2)
    assert pi_over_volume(GroupId.gamma0(11)) == Fraction(1, 4)
    assert pi_over_volume(GroupId.gamma0_plus(11)) == Fraction(1, 2)


def test_cocycle_defect_vanishes(rng):
    G = GroupId.sl2z()
    inf = Cusp.infinity()
    for _ in range(500):
        g1, g2 = random_sl2z(rng), random_sl2z(rng)
        assert cocycle_defect(G, inf, g1, g2,
                              phi_classical(g1), phi_classical(g2),
                              phi_classical(g1 * g2)) == 0
