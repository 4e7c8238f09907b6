"""Acceptance suite: exact classical identities, dual-route oracles, and
torsion certificates, each with an explicit runtime budget."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from radsym.dedekind import (
    cocycle_defect,
    dedekind_sum,
    phi_classical,
    psi_classical,
)
from radsym.modgroup import (
    Cusp,
    GroupElement,
    GroupId,
    Motion,
    S,
    T,
    classify,
    cusp_class_index,
)
from radsym.periods import (
    Divisor,
    divisor_period,
    period_numeric,
    phi_from_eta,
    torsion_certificate,
    x0_period_exact,
)
from radsym.symbols import lift_coset_sum, psi_general, takada_C_row_exact

from conftest import (
    dedekind_sum_direct,
    random_hyperbolic_sl2z,
    random_in_group,
    random_sl2z,
    takada_C_direct,
)

INF = Cusp.infinity()


def test_1_reciprocity_and_definitional_agreement():
    t0 = time.monotonic()
    for c in range(1, 501):
        for a in range(1, c):
            if gcd(a, c) != 1:
                continue
            lhs = dedekind_sum(a, c) + dedekind_sum(c, a)
            rhs = Fraction(-1, 4) + (Fraction(a, c) + Fraction(c, a)
                                     + Fraction(1, a * c)) / 12
            assert lhs == rhs
    for c in range(1, 201):
        for a in range(1, c + 1):
            if gcd(a, c) == 1:
                assert dedekind_sum(a, c) == dedekind_sum_direct(a, c)
    assert time.monotonic() - t0 < 10


def test_2_cocycle_defect_vanishes_10k():
    t0 = time.monotonic()
    rng = random.Random(2)
    G = GroupId.sl2z()
    for _ in range(10 ** 4):
        g1 = random_sl2z(rng, 6)
        g2 = random_sl2z(rng, 6)
        assert cocycle_defect(G, INF, g1, g2,
                              phi_classical(g1), phi_classical(g2),
                              phi_classical(g1 * g2)) == 0
    assert time.monotonic() - t0 < 10


def test_3_psi_class_function_and_inverse_law():
    t0 = time.monotonic()
    rng = random.Random(3)
    for _ in range(10 ** 3):
        g = random_hyperbolic_sl2z(rng, 6)
        h = random_sl2z(rng, 4)
        v = psi_classical(g)
        assert psi_classical(g.conjugate_by(h)) == v
        assert psi_classical(g.inverse()) == -v
        assert psi_classical(-g) == v
    assert time.monotonic() - t0 < 5


def test_4_eisenstein_period_lemma():
    t0 = time.monotonic()
    rng = random.Random(4)
    elements = [GroupElement(2, 1, 1, 1), GroupElement(3, 2, 4, 3),
                GroupElement(5, 2, 2, 1), GroupElement(7, 3, 9, 4)]
    while len(elements) < 10:
        elements.append(random_hyperbolic_sl2z(rng, 5))
    for g in elements:
        p = period_numeric(g, 1e-9)
        assert abs(p.approx - float(psi_classical(g))) < 1e-8
    assert time.monotonic() - t0 < 60


def test_5_eta_multiplier_extraction():
    t0 = time.monotonic()
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        g = random_sl2z(rng)
        if g.c == 0:
            continue
        if g.c < 0:
            g = -g
        assert phi_from_eta(g) == phi_classical(g)
        checked += 1
    assert time.monotonic() - t0 < 30


def test_6_coset_sum_identity_level2():
    t0 = time.monotonic()
    rng = random.Random(6)
    G1 = GroupId.gamma(2)
    checked = 0
    while checked < 20:
        g = random_in_group(rng, G1, 5)
        if abs(g.trace) <= 2 or g.c == 0:
            continue
        if g.trace < 0:
            g = -g
        lifted = lift_coset_sum(G1, GroupId.sl2z(),
                                lambda x: psi_general(G1, INF, x), g)
        assert lifted.kind == "exact"
        assert lifted.rational == psi_classical(g)
        checked += 1
    assert time.monotonic() - t0 < 30


def test_7_takada_constants_against_mobius_oracle():
    t0 = time.monotonic()
    # exact linear-algebra rows vs the independent truncated Mobius oracle
    for n in [3, 4, 5]:
        row = takada_C_row_exact(n)
        for j in range(n):
            direct, err = takada_C_direct(n, j, cutoff=10 ** 7)
            assert err < 1e-5
            assert abs(float(row[j]) - direct) < 1e-6
    assert time.monotonic() - t0 < 300


def test_8_manin_drinfeld_torsion_certificates():
    t0 = time.monotonic()
    for n in [2, 3, 5, 7, 11, 13]:
        G = GroupId.gamma0(n)
        D = Divisor.from_dict(G, {"0": -1, "inf": 1})
        cert = torsion_certificate(G, D)
        assert cert.status == "exact"
        assert cert.order == Fraction(n - 1, 12).numerator
        # the fully classical oracle confirms every generator period
        for pv in cert.periods:
            assert (n - 1) * pv.value.rational \
                == -x0_period_exact(n, pv.element)
    assert time.monotonic() - t0 < 300


def test_9_period_homomorphism_properties():
    t0 = time.monotonic()
    rng = random.Random(9)
    G = GroupId.gamma0(11)
    D = Divisor.from_dict(G, {"0": -1, "inf": 1})
    L0 = GroupElement(1, 0, 11, 1).inverse()
    cases = 0
    while cases < 10 ** 3:
        mode = rng.randrange(3)
        if mode == 0:
            # elliptic vanishing (SL2(Z) divisors are all zero; use the
            # group's own elliptic-free setting via conjugates of S in SL2Z)
            h = S.conjugate_by(random_sl2z(rng, 3))
            D1 = Divisor.from_dict(GroupId.sl2z(), {})
            assert divisor_period(D1, h).rational == 0
        elif mode == 1:
            k = rng.randint(-6, 6) or 1
            gen = T if rng.random() < 0.5 else L0
            m = D.multiplicities[cusp_class_index(G, INF if gen is T else Cusp(0, 1))][1]
            assert divisor_period(D, gen ** k).rational == k * m
        else:
            g1 = random_in_group(rng, G, 3)
            g2 = random_in_group(rng, G, 3)
            assert divisor_period(D, g1 * g2).rational \
                == divisor_period(D, g1).rational \
                + divisor_period(D, g2).rational
        cases += 1
    assert time.monotonic() - t0 < 10
