"""Periods of cuspidal differentials and Manin-Drinfeld torsion orders.

The period of the canonical differential of a degree-zero cuspidal divisor
over a group element is a rational combination of Rademacher symbols; the
divisor class is torsion of order = lcm of the period denominators.
"""

from fractions import Fraction

from radsym import (
    Divisor,
    GroupElement,
    GroupId,
    period_numeric,
    psi_classical,
    torsion_certificate,
    x0_period_exact,
)

print("== The Rademacher symbol as an Eisenstein period ==")
g = GroupElement(5, 2, 2, 1)
p = period_numeric(g, 1e-10)
print(f"quadrature of E2*(z) dz along the axis of {g}: {p.approx:.12f}")
print(f"exact Rademacher symbol:                       {psi_classical(g)}")

print()
print("== Torsion of (0) - (inf) on X0(N) ==")
for n in [2, 3, 5, 7, 11, 13]:
    G = GroupId.gamma0(n)
    D = Divisor.from_dict(G, {"0": -1, "inf": 1})
    cert = torsion_certificate(G, D)
    classical = Fraction(n - 1, 12).numerator
    print(f"N = {n:2d}: order {cert.order}  "
          f"(classical numerator((N-1)/12) = {classical})  [exact]")

print()
print("== The fully classical oracle behind N = 11 ==")
G = GroupId.gamma0(11)
D = Divisor.from_dict(G, {"0": -1, "inf": 1})
cert = torsion_certificate(G, D)
for pv in cert.periods:
    lhs = 10 * pv.value.rational
    rhs = -x0_period_exact(11, pv.element)
    print(f"generator {pv.element}:  period {pv.value},  "
          f"10*period = {lhs} = -x0_period_exact = {rhs}")
