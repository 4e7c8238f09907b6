import cmath
import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from radsym.dedekind import phi_classical, psi_classical
from radsym.modgroup import (
    Cusp,
    GroupElement,
    GroupId,
    Motion,
    S,
    T,
    classify,
    cusp_class_index,
    cusps,
    parabolic_power,
    schreier_generators,
)
from radsym.periods import (
    Divisor,
    NumericPeriod,
    PeriodValue,
    _e2_star_mp,
    _raise_axis,
    _reduce_to_fundamental,
    _translation_length,
    divisor_period,
    divisor_periods,
    eta_log,
    period_numeric,
    phi_from_eta,
    torsion_certificate,
    x0_period_exact,
)
from radsym.symbols import _psi_lift

from conftest import (
    euler_phi,
    eta_quotient_order,
    random_hyperbolic_sl2z,
    random_in_group,
    random_sl2z,
)


# -- eta --------------------------------------------------------------------


def test_eta_at_i():
    # classical closed form eta(i) = Gamma(1/4) / (2 pi^{3/4})
    expected = complex(mpmath.gamma(0.25) / (2 * mpmath.pi ** mpmath.mpf(0.75)))
    assert abs(cmath.exp(eta_log(1j)) - expected) < 1e-12


def test_eta_shift():
    z = 0.3 + 0.9j
    assert abs(eta_log(z + 1) - (eta_log(z) + 1j * cmath.pi / 12)) < 1e-14


def test_eta_high_point():
    # at 10i the q^{1/24} prefactor dominates
    v = eta_log(10j)
    assert abs(v.real - (-10 * math.pi / 12)) < 1e-20
    assert abs(v.imag) < 1e-20
    # at 200i, q underflows to 0 and the product is empty
    assert eta_log(200j) == 1j * cmath.pi * 200j / 12


def test_eta_domain():
    with pytest.raises(ValueError):
        eta_log(1 - 1j)
    # a tolerance the tail can never drop below is refused, not looped on
    for tol in (0, -1, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            eta_log(1j, tol)


def test_phi_from_eta_examples():
    assert phi_from_eta(GroupElement(0, -1, 1, 0)) == 0
    assert phi_from_eta(GroupElement(2, 1, 1, 1)) == 3
    assert phi_from_eta(GroupElement(3, 2, 4, 3)) == 3


def test_phi_from_eta_random(rng):
    checked = 0
    while checked < 200:
        g = random_sl2z(rng)
        if g.c == 0:
            continue
        if g.c < 0:
            g = -g
        assert phi_from_eta(g) == phi_classical(g)
        checked += 1


# -- E2* ---------------------------------------------------------------------


def test_e2_constant_term():
    v = _e2_star_mp(8j, mpmath.mp)
    assert abs(v - (1 - 3 / (math.pi * 8))) < 1e-12


def test_e2_fixed_point():
    # E2(i) = 3/pi classically, so the completed series vanishes at i
    assert abs(_e2_star_mp(1j, mpmath.mp)) < 1e-12


def test_e2_weight_two():
    for g in [S, T * S, GroupElement(2, 1, 1, 1)]:
        for z in [0.3 + 0.8j, -0.1 + 1.7j, 0.45 + 0.31j]:
            j = g.c * z + g.d
            assert abs(_e2_star_mp(g.apply(z), mpmath.mp)
                       - j * j * _e2_star_mp(z, mpmath.mp)) < 1e-10


# -- geodesic periods ---------------------------------------------------------


def test_period_numeric_matches_psi(rng):
    fixed = [GroupElement(2, 1, 1, 1), GroupElement(3, 2, 4, 3),
             GroupElement(5, 2, 2, 1)]
    assert [f.name for f in dataclasses.fields(NumericPeriod)] == ["approx", "error"]
    for g in fixed:
        p = period_numeric(g, 1e-9)
        assert type(p) is NumericPeriod
        assert abs(p.approx - float(psi_classical(g))) < 1e-9
        assert p.error >= abs(Fraction(p.approx) - psi_classical(g))
    for _ in range(4):
        g = random_hyperbolic_sl2z(rng)
        p = period_numeric(g, 1e-9)
        assert abs(p.approx - float(psi_classical(g))) < 1e-9


def test_period_numeric_raises_above_tol():
    with pytest.raises(ValueError, match="error estimate"):
        period_numeric(GroupElement(2, 1, 1, 1), 1e-30)


@pytest.fixture
def quad_dps(monkeypatch):
    """Record the working precision that every quadrature asks mpmath for."""
    seen = []
    workdps = mpmath.workdps

    def recording(n, *args, **kwargs):
        seen.append(n)
        return workdps(n, *args, **kwargs)

    monkeypatch.setattr(mpmath, "workdps", recording)
    return seen


@pytest.fixture
def quad_contexts(monkeypatch):
    """Record the mpmath context of every integrand evaluation: "fp" for
    hardware floats, "mp" for the multiprecision context."""
    import radsym.periods as periods

    seen = []
    e2_star = periods._e2_star_mp

    def recording(z, ctx):
        seen.append("fp" if ctx is mpmath.fp else "mp")
        return e2_star(z, ctx)

    monkeypatch.setattr(periods, "_e2_star_mp", recording)
    return seen


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_period_numeric_rejects_bad_tol(quad_dps, tol):
    # a NaN tol would switch the error check off (err > nan is False)
    with pytest.raises(ValueError, match="tol must be positive"):
        period_numeric(GroupElement(6, 563, 1, 94), tol)
    assert quad_dps == []


def test_period_numeric_precision_follows_tol(quad_dps, quad_contexts):
    g = GroupElement(6, 563, 1, 94)
    # the 15-digit floor is evaluated in hardware floats, at no mpmath digits
    assert abs(period_numeric(g, math.inf).approx - 97) < 1e-9
    assert quad_dps == [] and set(quad_contexts) == {"fp"}
    quad_contexts.clear()
    assert abs(period_numeric(g, 1e-9).approx - 97) < 1e-9
    assert quad_dps == [16] and set(quad_contexts) == {"mp"}
    quad_contexts.clear()
    # the ceiling max(25, L + 15) serves a tol no precision can reach
    with pytest.raises(ValueError, match="error estimate"):
        period_numeric(GroupElement(2, 1, 1, 1), 1e-30)
    assert quad_dps == [16, 25] and set(quad_contexts) == {"mp"}


def test_period_numeric_refuses_hopeless_values_before_quadrature(quad_contexts):
    # Psi = 2a - 3, whose float rounding |Psi| 2^-52 is about 4.4e154: the
    # bound |Psi| >= |t|/|c| - |c| - 3 refuses it without evaluating the
    # integrand
    a = 10 ** 170
    with pytest.raises(ValueError, match="error estimate .* exceeds tol"):
        period_numeric(GroupElement(a, a * a - 1, 1, a), 1e-8)
    assert quad_contexts == []
    # past the float range the estimate reads inf
    a = 10 ** 400
    with pytest.raises(ValueError, match="error estimate inf exceeds tol"):
        period_numeric(GroupElement(a, a * a - 1, 1, a), 1e-8)
    assert quad_contexts == []
    # tol = inf refuses nothing; a geodesic this long (L = 783) keeps the
    # 15-digit floor in mpmath.mp, and its finite error (about 1.4e158)
    # still covers the rounding of Psi
    a = 10 ** 170
    p = period_numeric(GroupElement(a, a * a - 1, 1, a), math.inf)
    assert abs(Fraction(p.approx) - (2 * a - 3)) <= p.error
    assert set(quad_contexts) == {"mp"}


def _element_with(rng, c_sign: int, t_sign: int, tmax: int = 20000,
                  cmax: int = 997) -> GroupElement:
    """Seeded [[a, b], [c, d]] with sign(c) = c_sign, sign(a + d) = t_sign,
    3 <= |a + d| <= tmax and |c| <= cmax."""
    while True:
        c = c_sign * rng.randrange(1, cmax + 1)
        a = rng.randrange(-3 * cmax, 3 * cmax)
        if math.gcd(a, c) != 1:
            continue
        # d = a^-1 mod c, moved by multiples of c to a trace near the target
        t = t_sign * rng.randrange(3, tmax + 1)
        d = pow(a, -1, abs(c))
        d += (t - a - d) // c * c
        if 3 <= t_sign * (a + d) <= tmax:
            return GroupElement(a, (a * d - 1) // c, c, d)


def test_period_numeric_error_is_honest_on_long_geodesics():
    # traces up to 20000: the move into the fundamental domain amplifies
    # the rounding about e^{L/2} ~ 2e4 at the ends of the window centered on
    # the apex, so the precision must grow with e^{L/2} as well as with 1/tol
    rng = random.Random(20261018)
    elements = [GroupElement(1, 19998, 1, 19999),
                GroupElement(2, 5715, -7, -20002),
                _element_with(rng, 1, -1), _element_with(rng, -1, 1)]
    for tol in (1e-8, 1e-11):
        for g in elements:
            p = period_numeric(g, tol)
            assert abs(Fraction(p.approx) - psi_classical(g)) <= p.error <= tol, (g, tol)
    # a loose tol keeps the 15-digit floor at L = 52 and 57, where a window
    # from the apex to g z0 dipped to e^-L and its error was 122 and 12.2
    # times the estimate; Psi = 2a - 3
    for a in (10 ** 11, 10 ** 12):
        g = GroupElement(a, a * a - 1, 1, a)
        for tol in (math.inf, 1e6):
            p = period_numeric(g, tol)
            assert abs(Fraction(p.approx) - (2 * a - 3)) <= p.error <= tol, (a, tol)


def test_period_numeric_float_route_is_honest(quad_contexts):
    # hardware floats carry no guard bits: an axis centered far from 0 (the
    # fixed element's center is -356.6) would spend the nodes' digits on its
    # center; without its e^{L/2} factor the rounding term was 1.69 times
    # too small on the trace -184 element; traces up to the largest on the
    # float route at each tol, tmax, which trace tmax + 1 leaves
    rng = random.Random(20261019)
    for tol, tmax, elements in ((1e-8, 229, [GroupElement(1798, 635773, -5, -1768),
                                             GroupElement(103333, 99969366, -107, -103517)]),
                                (1e-9, 35, [])):
        for c_sign, t_sign in itertools.product((1, -1), repeat=2):
            for _ in range(8):
                g = _element_with(rng, c_sign, t_sign, tmax=tmax, cmax=40)
                elements.append(g.conjugate_by(T ** rng.randint(-1000, 1000)))
        elements.append(GroupElement(1, tmax - 2, 1, tmax - 1))
        for g in elements:
            quad_contexts.clear()
            p = period_numeric(g, tol)
            assert set(quad_contexts) == {"fp"}, (g, tol)
            assert abs(Fraction(p.approx) - psi_classical(g)) <= p.error <= tol, (g, tol)
        quad_contexts.clear()
        period_numeric(GroupElement(1, tmax - 1, 1, tmax), tol)
        assert set(quad_contexts) == {"mp"}, tol
    # a loose tol puts a long geodesic (L = 19.6) at the 15-digit floor but
    # not on floats, which keep a wide margin under the estimate only below
    # L = 12
    g = GroupElement(721, -13835991, 1, -19190)
    quad_contexts.clear()
    p = period_numeric(g, 1.0)
    assert set(quad_contexts) == {"mp"}
    assert abs(Fraction(p.approx) - psi_classical(g)) <= p.error <= 1.0


def test_period_numeric_error_covers_the_geometry_rounding():
    # with the axis center, radius and endpoint rounded to the working
    # digits, this period was off by 1.5 times its reported error at 1e-9
    g = GroupElement(-2110, 149519, -29, 2055)
    for tol in (1e-8, 1e-9, 1e-10, 1e-11):
        p = period_numeric(g, tol)
        assert abs(Fraction(p.approx) - psi_classical(g)) <= p.error <= tol, tol


def test_period_numeric_on_powers():
    # h^k makes the integrand u1/k-periodic: a trapezoidal rule of n < k
    # nodes, or of an odd n, aliases that period and stops on T_2n = T_n
    roots = [GroupElement(2, 1, 1, 1), GroupElement(3, 2, 4, 3),
             GroupElement(5, 2, 2, 1), GroupElement(3, 1, -1, 0),
             GroupElement(-2, 1, 1, -1), GroupElement(1, 2, 3, 7)]
    for h in roots:
        g = h
        for _ in range(2, 6):
            g = g * h
            for tol in (1e-8, 1e-11):
                p = period_numeric(g, tol)
                assert abs(Fraction(p.approx) - psi_classical(g)) <= p.error <= tol, (g, tol)


def test_translation_length_and_axis_on_huge_entries():
    # entries near 1e200 do not fit in a float; no quadrature is run
    big = 10 ** 200
    with mpmath.workdps(60):
        for tr in (3, 100, big, -big - 7, 3 * big):
            exact = 2 * mpmath.acosh(mpmath.mpf(abs(tr)) / 2)
            assert abs(_translation_length(tr) - exact) <= 1e-15 * exact
        # a long axis stays; a short one far right is raised into F: its
        # center (a - d)/(2c) within 1/2 of 0, its apex of modulus >= 1
        h = GroupElement(5, 2, 2, 1).conjugate_by(GroupElement(1, 0, 7, 1))
        for g in (GroupElement(big, big * big - 1, 1, big),
                  h.conjugate_by(GroupElement(1, big + 3, 0, 1))):
            raised = _raise_axis(g)
            a, b, c, d = raised.entries()
            assert abs(a - d) <= abs(c)
            assert a * a + d * d - 2 >= 2 * c * c
            radius = mpmath.sqrt(mpmath.mpf((a + d) ** 2 - 4)) / (2 * abs(c))
            assert radius >= 0.3
            assert raised.trace == g.trace
            assert psi_classical(raised) == psi_classical(g)
        assert _raise_axis(GroupElement(big, big * big - 1, 1, big)) == \
            GroupElement(big, big * big - 1, 1, big)
        # a real part past 2^53 is translated until it lies in [-1/2, 1/2]
        g, z = _reduce_to_fundamental(mpmath.mpc(10 ** 40 + mpmath.mpf(0.3), 2))
        assert abs(z - mpmath.mpc(0.3, 2)) < 1e-15
        assert g == (1, -10 ** 40, 0, 1)


def test_import_leaves_mpmath_unloaded():
    # only the quadrature needs mpmath, and it imports it on first use
    code = "import sys, radsym; print('mpmath' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_period_numeric_rejects_non_hyperbolic():
    with pytest.raises(ValueError):
        period_numeric(T)
    with pytest.raises(ValueError):
        period_numeric(S)


# -- Fourier coefficient ------------------------------------------------------


def phi_fourier_coefficient(n: int) -> Fraction:
    """Rational part sum_{d | n} 1/d of the weight-0 Eisenstein Fourier
    coefficient phi(n, 1) = (6 / pi^2) sum_{d | n} 1/d."""
    if n < 1:
        raise ValueError("need n >= 1")
    return sum((Fraction(1, d) for d in range(1, n + 1) if n % d == 0),
               Fraction(0))


def test_phi_fourier_coefficient():
    assert phi_fourier_coefficient(1) == 1
    assert phi_fourier_coefficient(2) == Fraction(3, 2)
    assert phi_fourier_coefficient(6) == 2
    with pytest.raises(ValueError):
        phi_fourier_coefficient(0)


# -- exact X0(N) oracle -------------------------------------------------------


def test_x0_period_translation():
    for n in [2, 5, 11, 13]:
        assert x0_period_exact(n, T) == 1 - n
    assert x0_period_exact(11, GroupElement.identity()) == 0


def test_x0_period_requires_divisibility():
    with pytest.raises(ValueError):
        x0_period_exact(11, GroupElement(2, 1, 1, 1))


@pytest.mark.parametrize("n", [0, -3])
def test_x0_period_rejects_level_below_one(n):
    with pytest.raises(ValueError, match="level must be >= 1"):
        x0_period_exact(n, T)


def test_x0_period_is_homomorphism(rng):
    n = 11
    G = GroupId.gamma0(n)
    for _ in range(20):
        g1 = random_in_group(rng, G)
        g2 = random_in_group(rng, G)
        assert x0_period_exact(n, g1 * g2) \
            == x0_period_exact(n, g1) + x0_period_exact(n, g2)


# -- divisors -----------------------------------------------------------------


def test_divisor_construction():
    G = GroupId.gamma0(11)
    D = Divisor.from_dict(G, {"0": -1, "inf": 1})
    assert D.multiplicities[cusp_class_index(G, Cusp.infinity())][1] == 1
    assert D.multiplicities[cusp_class_index(G, Cusp(0, 1))][1] == -1
    with pytest.raises(ValueError):
        Divisor.from_dict(G, {"inf": 1})


def test_divisor_period_rules(rng):
    G = GroupId.gamma0(11)
    D = Divisor.from_dict(G, {"0": -1, "inf": 1})
    # parabolic: k * multiplicity at the fixed cusp
    assert divisor_period(D, T ** 4).as_fraction() == 4
    L = GroupElement(1, 0, 11, 1)
    gen0 = L.inverse()  # stabilizer generator of 0 is the inverse translation
    assert divisor_period(D, gen0 ** 2).as_fraction() == -2
    # elliptic: conjugates of S vanish
    for h in [S.conjugate_by(random_sl2z(rng, 3)) for _ in range(5)]:
        if classify(h).tag is Motion.ELLIPTIC:
            D1 = Divisor.from_dict(GroupId.sl2z(), {})
            assert divisor_period(D1, h).as_fraction() == 0


@pytest.mark.parametrize("G", [GroupId.gamma0(n) for n in (2, 4, 9, 10, 13)]
                         + [GroupId.gamma1(3), GroupId.gamma1(4),
                            GroupId.gamma(2), GroupId.gamma(3)], ids=str)
def test_non_hyperbolic_periods(G):
    # divisor_period sums the engine's Psi_a(g); for g = +-(stabilizer
    # generator of a)^k that sum must be k m at the class of a, and 0 for
    # elliptic g
    gens = schreier_generators(G)
    elems = gens + [a * b for a in gens for b in gens] \
        + [a * b.inverse() for a in gens for b in gens]
    reps = [c for c, _w in cusps(G)]
    seen = {Motion.PARABOLIC: 0, Motion.ELLIPTIC: 0}
    for g in elems:
        tag = classify(g).tag
        if tag is Motion.HYPERBOLIC or tag is Motion.IDENTITY:
            continue
        seen[tag] += 1
        for a, b in itertools.permutations(reps, 2):
            D = Divisor.from_dict(G, {a: 2, b: -2})
            value = divisor_period(D, g).as_fraction()
            if tag is Motion.ELLIPTIC:
                assert value == 0
            else:
                fixed, k = parabolic_power(G, g)
                assert value == k * D.multiplicities[cusp_class_index(G, fixed)][1]
    assert seen[Motion.PARABOLIC] > 0
    if G in (GroupId.gamma0(2), GroupId.gamma0(10), GroupId.gamma0(13),
             GroupId.gamma1(3)):
        assert seen[Motion.ELLIPTIC] > 0


def test_divisor_period_additivity(rng):
    G = GroupId.gamma0(11)
    D = Divisor.from_dict(G, {"0": -1, "inf": 1})
    for _ in range(30):
        g1 = random_in_group(rng, G)
        g2 = random_in_group(rng, G)
        assert divisor_period(D, g1 * g2).as_fraction() \
            == divisor_period(D, g1).as_fraction() \
            + divisor_period(D, g2).as_fraction()


def test_divisor_periods_against_x0_oracle():
    for n in [2, 3, 5, 7, 11]:
        G = GroupId.gamma0(n)
        D = Divisor.from_dict(G, {"0": -1, "inf": 1})
        for pv in divisor_periods(G, D):
            assert pv.value.as_fraction() * (n - 1) \
                == -x0_period_exact(n, pv.element)


# -- torsion certificates -----------------------------------------------------


def test_torsion_orders_x0():
    for n, expected in [(2, 1), (3, 1), (5, 1), (7, 1), (11, 5), (13, 1)]:
        G = GroupId.gamma0(n)
        D = Divisor.from_dict(G, {"0": -1, "inf": 1})
        cert = torsion_certificate(G, D)
        assert cert.order == expected
        assert cert.status == "exact"
        # n * period is integral for every generator
        for pv in cert.periods:
            v = pv.value.as_fraction() * cert.order
            assert v.denominator == 1


@pytest.mark.parametrize("n, expected", [(18, 1), (27, 3), (32, 4), (36, 6)])
def test_torsion_orders_x0_non_squarefree(n, expected):
    # 0 and inf are the only cusps with their gcd(q, N), so the certificate
    # takes the divisor basis; the test below recomputes these orders from
    # the lift route alone (X0(18) has genus 0, so its order 1 is forced)
    G = GroupId.gamma0(n)
    D = Divisor.from_dict(G, {"0": -1, "inf": 1})
    cert = torsion_certificate(G, D)
    assert cert.order == expected
    assert cert.status == "exact"


@pytest.mark.parametrize("n, expected", [(18, 1), (27, 3), (32, 4), (36, 6)])
def test_torsion_orders_x0_non_squarefree_by_peel_lift(n, expected):
    # the (0) - (inf) order as the lcm of the hyperbolic period denominators
    # Psi_inf(g) - Psi_0(g), each symbol from _psi_lift; parabolic
    # periods are integers and elliptic ones vanish
    G = GroupId.gamma0(n)
    order = 1
    for g in schreier_generators(G):
        if classify(g).tag is not Motion.HYPERBOLIC:
            continue
        g = g if g.trace > 0 else -g
        period = (_psi_lift(G, Cusp.infinity(), g).as_fraction()
                  - _psi_lift(G, Cusp(0, 1), g).as_fraction())
        order = math.lcm(order, period.denominator)
    assert order == expected


def test_torsion_order_gamma1_23():
    # the cuspidal order of (0) - (inf) on X1(23) (Conrad-Edixhoven-Stein,
    # "J1(p) has connected fibers", Doc. Math. 8 (2003)), through the lift
    # route at both cusps
    G = GroupId.gamma1(23)
    cert = torsion_certificate(G, Divisor.from_dict(G, {"0": 1, "inf": -1}))
    assert cert.order == 4498901
    assert cert.status == "exact"


@pytest.mark.parametrize("n", range(2, 101))
def test_torsion_orders_x0_match_eta_quotients(n):
    # every rational cuspidal divisor P_d - phi(gcd(d, N/d)) (inf) of X0(N):
    # the divisor basis at d with gcd(d, N/d) <= 2, the lift route at the
    # split classes, against Ligozat's eta-quotient order
    G = GroupId.gamma0(n)
    for d in range(1, n):
        if n % d:
            continue
        over_d = [cu for cu, _w in cusps(G) if math.gcd(cu.q, n) == d]
        assert len(over_d) == euler_phi(math.gcd(d, n // d)), (n, d)
        D = Divisor.from_dict(G, {**{cu: 1 for cu in over_d}, "inf": -len(over_d)})
        assert torsion_certificate(G, D).order == eta_quotient_order(n, d), (n, d)


def test_certificate_holds_its_divisor_periods_and_order():
    # the group and the generators are read off the divisor and the periods
    G = GroupId.gamma0(11)
    D = Divisor.from_dict(G, {"0": -1, "inf": 1})
    cert = torsion_certificate(G, D)
    assert [f.name for f in dataclasses.fields(cert)] == ["divisor", "periods", "order"]
    assert [f.name for f in dataclasses.fields(PeriodValue)] == ["element", "value"]
    assert cert.group == G
    assert cert.generators == tuple(schreier_generators(G))
    assert [p.value for p in cert.periods] == [divisor_period(D, g)
                                               for g in cert.generators]
    assert str(cert) == "divisor +1(inf) -1(0) on Gamma0(11): torsion of order 5 [exact]"


def test_torsion_zero_divisor():
    G = GroupId.gamma0(11)
    D = Divisor.from_dict(G, {})
    cert = torsion_certificate(G, D)
    assert cert.order == 1
    assert all(p.value.as_fraction() == 0 for p in cert.periods)
