"""Rademacher symbols on congruence subgroups.

Shows the width-normalized cusp convention, the exact level-N engine, the
cusp-sum identity down to SL2(Z), and symbols on Gamma0(N)+.
"""

from fractions import Fraction

from radsym import (
    Cusp,
    GroupElement,
    GroupId,
    cusps,
    phi_general,
    psi_classical,
    psi_general,
    takada_C_row_exact,
)

INF = Cusp.infinity()

print("== Width-normalized convention ==")
T = GroupElement(1, 1, 0, 1)
for n in [2, 5]:
    v = phi_general(GroupId.gamma(n), INF, T ** n)
    print(f"Gamma({n}): symbol of the stabilizer generator T^{n} at inf = {v}")

print()
print("== The cosine-sum constants are rational ==")
for n in [5, 7, 19]:
    print(f"C_{{{n},j}} = {[str(x) for x in takada_C_row_exact(n)]}")
print("(each row solves one rational linear system; no floating point)")
C7 = takada_C_row_exact(7)
for t in range(4):
    # the defining constant terms, B2bar(x) = {x}^2 - {x} + 1/6: kappa =
    # mu/(6 N^2) = 168/294 at t = 1 and 0 at every other t
    xs = [Fraction(t * b % 7, 7) for b in range(7)]
    value = sum(c * (x * x - x + Fraction(1, 6)) for c, x in zip(C7, xs))
    print(f"sum_b C_{{7,b}} B2bar({t}b/7) = {value}")

print()
print("== Cusp-sum identity: the symbols at every cusp assemble the classical one ==")
g = GroupElement(-80, -711, -9, -80)       # in Gamma(9), so in all three groups
G = GroupId.gamma0(9)
for cu, w in cusps(G):
    print(f"Gamma0(9) at {cu} (width {w}): Psi = {psi_general(G, cu, g)}")
for G in [GroupId.gamma(9), GroupId.gamma1(9), G]:
    total = sum(w * psi_general(G, cu, g).rational for cu, w in cusps(G))
    print(f"sum of w_b Psi_b(g) over the {len(cusps(G))} cusps of {G} = {total}")
print(f"classical Psi(g) = {psi_classical(g)}")

print()
print("== Symbols at both cusps of Gamma0(11), and on Gamma0(11)+ ==")
G = GroupId.gamma0(11)
g = GroupElement(4, 1, 11, 3)
print(f"Psi_inf(g) = {psi_general(G, INF, g)}")
print(f"Psi_0(g)   = {psi_general(G, Cusp(0, 1), g)}")
Gp = GroupId.gamma0_plus(11)
print(f"Psi^+(g)   = {psi_general(Gp, INF, g)}   "
      "(the Fricke extension merges the two cusps)")
