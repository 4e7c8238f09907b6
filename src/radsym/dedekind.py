"""Exact classical arithmetic: Dedekind sums, the Dedekind symbol
Phi and Rademacher symbol Psi on SL2(Z), and the cocycle machinery.

All values are exact rationals (fractions.Fraction).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd

from .modgroup import Cusp, GroupElement, GroupId


def sign(x) -> int:
    """sign with sign(0) = 0 (Rademacher's convention)."""
    return (x > 0) - (x < 0)


def dedekind_sum(a: int, c: int) -> Fraction:
    """s(a, c) for coprime a, c with c >= 1, by the Euclid descent of the
    reciprocity law in integer arithmetic."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if gcd(a, c) != 1:
        raise ValueError(f"gcd({a}, {c}) != 1")
    if c == 1:
        return Fraction(0)
    a %= c
    # with a/c = [0; q_1, ..., q_n], unwinding the reciprocity law gives
    # 12 c s(a, c) = c sum_i (-1)^(i+1) q_i + a + a' - (3c if n odd else c)
    # for a a' = 1 mod c, so the descent needs integers only
    alt, sg, h, k = 0, 1, a, c
    while h:
        q, r = divmod(k, h)
        alt += sg * q
        sg, h, k = -sg, r, h
    return Fraction(c * alt + a + pow(a, -1, c) - (3 * c if sg < 0 else c), 12 * c)


def phi_classical(g: GroupElement) -> Fraction:
    """Classical Dedekind symbol Phi on SL2(Z); integer-valued."""
    if g.e != 1:
        raise ValueError("Phi is defined on SL2(Z) elements (e = 1)")
    a, b, c, d = g.entries()
    if c == 0:
        return Fraction(b, d)
    return Fraction(a + d, c) - 12 * sign(c) * dedekind_sum(a, abs(c))


def psi_classical(g: GroupElement) -> Fraction:
    """Classical Rademacher symbol: Psi = Phi - 3 sign(c(a+d))."""
    return phi_classical(g) - 3 * sign(g.c * (g.a + g.d))


@functools.lru_cache(maxsize=None)
def pi_over_volume(G: GroupId) -> Fraction:
    """pi / V for the group G; equals 3 / (index in PSL2(Z))."""
    return Fraction(3) / G.psl2z_index()


def cocycle_defect(
    G: GroupId,
    cusp: Cusp,
    g1: GroupElement,
    g2: GroupElement,
    phi1: Fraction,
    phi2: Fraction,
    phi12,
):
    """Defect of the composition law
    Phi(g1 g2) = Phi(g1) + Phi(g2) - (pi/V) sign(c1 c2 c3);
    zero for any consistent Dedekind symbol.  The c_i are the lower-left
    entries of the cusp-normalized conjugates.
    """
    binv = cusp.base_matrix().inverse()
    c1 = g1.conjugate_by(binv).c
    c2 = g2.conjugate_by(binv).c
    c3 = (g1 * g2).conjugate_by(binv).c
    return phi12 - phi1 - phi2 + pi_over_volume(G) * sign(c1 * c2 * c3)
