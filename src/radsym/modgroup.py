"""Integer matrix group infrastructure for congruence subgroups.

Elements are integer 2x2 matrices [[a,b],[c,d]] with det = e >= 1,
representing the real matrix e^{-1/2}*[[a,b],[c,d]] in SL2(R).  Ordinary
elements have e = 1; Atkin-Lehner elements of Gamma0(N)+ have e || N.
Everything is projective: g and -g are the same motion.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, prod
from typing import NamedTuple


@dataclass(frozen=True, order=True)
class GroupElement:
    a: int
    b: int
    c: int
    d: int
    e: int = 1

    def __post_init__(self):
        if self.e < 1:
            raise ValueError("scale e must be a positive integer")
        if self.a * self.d - self.b * self.c != self.e:
            raise ValueError(
                f"determinant {self.a * self.d - self.b * self.c} != e = {self.e}"
            )

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(1, 0, 0, 1)

    def reduced(self) -> "GroupElement":
        """Divide out the content; (t*M, t^2*e) and (M, e) are the same motion."""
        t = gcd(self.a, self.b, self.c, self.d)
        if t > 1 and self.e % (t * t) == 0:
            return GroupElement(
                self.a // t, self.b // t, self.c // t, self.d // t, self.e // (t * t)
            )
        return self

    # -- group operations -----------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        prod = GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.e * other.e,
        )
        # at e = 1 no content t > 1 has t^2 | e: reduced() would be a no-op
        return prod if prod.e == 1 else prod.reduced()

    def inverse(self) -> "GroupElement":
        inv = GroupElement(self.d, -self.b, -self.c, self.a, self.e)
        return inv if self.e == 1 else inv.reduced()

    def __neg__(self) -> "GroupElement":
        return GroupElement(-self.a, -self.b, -self.c, -self.d, self.e)

    def __pow__(self, n: int) -> "GroupElement":
        if n < 0:
            return self.inverse() ** (-n)
        r = GroupElement.identity()
        g = self
        while n:
            if n & 1:
                r = r * g
            g = g * g
            n >>= 1
        return r

    def conjugate_by(self, h: "GroupElement") -> "GroupElement":
        return (h * self) * h.inverse()

    # -- views ----------------------------------------------------------------

    @property
    def trace(self) -> int:
        return self.a + self.d

    def canonical(self) -> "GroupElement":
        """Projective sign normal form: c > 0, or c = 0 and d > 0."""
        if self.c < 0 or (self.c == 0 and self.d < 0):
            return -self
        return self

    def is_identity(self) -> bool:
        g = self.reduced()
        return g.b == 0 and g.c == 0 and g.a == g.d and g.e == 1

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def apply(self, z: complex) -> complex:
        """Fractional linear action on the upper half-plane (e cancels in the quotient)."""
        return (self.a * z + self.b) / (self.c * z + self.d)

    def apply_cusp(self, cusp: "Cusp") -> "Cusp":
        p = self.a * cusp.p + self.b * cusp.q
        q = self.c * cusp.p + self.d * cusp.q
        return Cusp(p, q)

    def __str__(self):
        s = f"{self.a},{self.b},{self.c},{self.d}"
        return s if self.e == 1 else s + f";{self.e}"


S = GroupElement(0, -1, 1, 0)
T = GroupElement(1, 1, 0, 1)
I2 = GroupElement.identity()


def parse_matrix(text: str) -> GroupElement:
    """Parse "a,b,c,d" or "a,b,c,d;e"."""
    text = text.strip()
    entries, semicolon, etext = text.partition(";")
    try:
        parts = [int(p) for p in entries.split(",")]
        e = int(etext) if semicolon else 1
    except ValueError:
        raise ValueError(f"{text!r} is not an integer matrix a,b,c,d[;e]") from None
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated entries, got {entries!r}")
    return GroupElement(parts[0], parts[1], parts[2], parts[3], e)


# ---------------------------------------------------------------------------
# cusps


@dataclass(frozen=True, order=True)
class Cusp:
    """Projective rational point p/q with gcd(p,q)=1, q >= 0; (1:0) is infinity."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if q == 0:
            if p == 0:
                raise ValueError("0/0 is not a cusp")
            p = 1
        else:
            g = gcd(p, q)
            if g:
                p, q = p // g, q // g
            if q < 0:
                p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def base_matrix(self) -> GroupElement:
        """A determinant-1 integer matrix sending infinity to this cusp."""
        if self.q == 0:
            return I2
        u, v = _bezout(self.p, self.q)
        return GroupElement(self.p, -v, self.q, u)

    @staticmethod
    def infinity() -> "Cusp":
        return Cusp(1, 0)

    @staticmethod
    def from_str(text: str) -> "Cusp":
        text = text.strip()
        if text.lower() in ("inf", "infinity", "oo"):
            return Cusp(1, 0)
        p, slash, q = text.partition("/")
        try:
            p, q = int(p), int(q) if slash else 1
        except ValueError:
            raise ValueError(f"{text!r} is not a cusp") from None
        return Cusp(p, q)

    def __str__(self):
        return "inf" if self.q == 0 else (f"{self.p}/{self.q}" if self.q != 1 else str(self.p))


def _bezout(p: int, q: int):
    """Return (u, v) with u*p + v*q = 1 for coprime p and q >= 1: every
    remainder after the first step is >= 0, so the chain ends at +1."""
    old_r, r = p, q
    old_u, u = 1, 0
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_u, u = u, old_u - k * u
    assert old_r == 1, "bezout requires coprime inputs"
    v = (1 - old_u * p) // q
    return (old_u, v)


# ---------------------------------------------------------------------------
# groups


class Family(Enum):
    SL2Z = "sl2z"
    GAMMA_N = "gamma"
    GAMMA0_N = "gamma0"
    GAMMA1_N = "gamma1"
    GAMMA0N_PLUS = "gamma0+"


@dataclass(frozen=True, order=True)
class GroupId:
    family: Family
    level: int = 1

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.family is Family.SL2Z and self.level != 1:
            raise ValueError("SL2Z has level 1")
        if self.family is Family.GAMMA0N_PLUS and not _squarefree(self.level):
            raise ValueError("Gamma0(N)+ requires squarefree N")

    @staticmethod
    def sl2z() -> "GroupId":
        return GroupId(Family.SL2Z)

    @staticmethod
    def gamma(n: int) -> "GroupId":
        return GroupId(Family.GAMMA_N, n)

    @staticmethod
    def gamma0(n: int) -> "GroupId":
        return GroupId(Family.GAMMA0_N, n)

    @staticmethod
    def gamma1(n: int) -> "GroupId":
        return GroupId(Family.GAMMA1_N, n)

    @staticmethod
    def gamma0_plus(n: int) -> "GroupId":
        return GroupId(Family.GAMMA0N_PLUS, n)

    @functools.lru_cache(maxsize=None)
    def psl2z_index(self) -> Fraction:
        """Index of the image in PSL2(Z); rational "index" for Gamma0(N)+.
        A product over the prime powers q = p^k || N, cached per group."""
        n, pp = self.level, _prime_powers(self.level)
        if self.family is Family.SL2Z or n == 1:
            return Fraction(1)
        if self.family is Family.GAMMA0_N:
            return Fraction(prod(q + q // p for p, q in pp))
        if self.family in (Family.GAMMA_N, Family.GAMMA1_N):
            k = 3 if self.family is Family.GAMMA_N else 2
            mu = prod(q ** k - q ** k // (p * p) for p, q in pp)
            return Fraction(mu, 1) if n == 2 else Fraction(mu, 2)
        if self.family is Family.GAMMA0N_PLUS:
            return GroupId.gamma0(n).psl2z_index() / (1 << len(pp))
        raise ValueError(self.family)

    def __str__(self):
        if self.family is Family.SL2Z:
            return "SL2(Z)"
        name = {
            Family.GAMMA_N: "Gamma({})",
            Family.GAMMA0_N: "Gamma0({})",
            Family.GAMMA1_N: "Gamma1({})",
            Family.GAMMA0N_PLUS: "Gamma0({})+",
        }[self.family]
        return name.format(self.level)


@functools.lru_cache(maxsize=None)
def _prime_powers(n: int) -> tuple:
    """The pairs (p, p^k) with p^k || n, in increasing p: the one
    factorization of the level, from which its primes, divisors and
    unitary divisors are read."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n, q = n // p, q * p
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return tuple(out)


def _squarefree(n: int) -> bool:
    return all(p == q for p, q in _prime_powers(n))


@functools.lru_cache(maxsize=None)
def _divisors(n: int) -> tuple:
    """The divisors of n in increasing order: the products of one power
    p^i, 0 <= i <= k, of each p^k || n."""
    divs = [1]
    for p, q in _prime_powers(n):
        layer = divs
        while q > 1:
            layer = [d * p for d in layer]
            divs, q = divs + layer, q // p
    return tuple(sorted(divs))


def member(g: GroupElement, G: GroupId) -> bool:
    """Membership test, projective (g and -g are equivalent).

    The coset key defines SL2(Z), Gamma(N), Gamma1(N) and Gamma0(N): each
    is the preimage of a subgroup H of SL2(Z/N), so g lies in it exactly
    when g has determinant 1 and the key of the identity coset.
    Gamma0(N)+ has no key; its elements are the e^{-1/2} [[a, b], [c, d]]
    with e || N, e | a, e | d and N | c.
    """
    if G.family is Family.GAMMA0N_PLUS:
        e, n = g.e, G.level
        if n % e != 0 or gcd(e, n // e) != 1:
            return False
        return g.a % e == 0 and g.d % e == 0 and g.c % n == 0
    return g.e == 1 and _coset_invariant(G, g) == _coset_invariant(G, I2)


# ---------------------------------------------------------------------------
# element classification


class Motion(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class MotionClass:
    tag: Motion
    order: int | None = None  # elliptic order in the projective group

    def __str__(self):
        if self.tag is Motion.ELLIPTIC:
            return f"elliptic(order {self.order})"
        return self.tag.value


# an elliptic e^{-1/2} g of order m has trace +-2 cos(pi/m), so t^2/e is
# 4 cos^2(pi/m); any other t^2/e < 4 is a rotation of infinite order
_ELLIPTIC_ORDERS = {0: 2, 1: 3, 2: 4, 3: 6}


_HYPERBOLIC = MotionClass(Motion.HYPERBOLIC)


def classify(g: GroupElement) -> MotionClass:
    """Trace classification of the determinant-1 normalization e^{-1/2} g."""
    # at e = 1 the content is 1, and t^2 > 4 rules out the identity
    if g.e == 1 and g.trace * g.trace > 4:
        return _HYPERBOLIC
    g = g.reduced()
    if g.is_identity():
        return MotionClass(Motion.IDENTITY)
    t2, e4 = g.trace * g.trace, 4 * g.e
    if t2 < e4:
        m = _ELLIPTIC_ORDERS.get(Fraction(t2, g.e))
        if m is None:
            raise ValueError(f"{g} is elliptic of infinite order")
        return MotionClass(Motion.ELLIPTIC, m)
    if t2 == e4:
        return MotionClass(Motion.PARABOLIC)
    return _HYPERBOLIC


# ---------------------------------------------------------------------------
# coset enumeration for finite-index subgroups of SL2(Z)

_TABLE_FAMILIES = (Family.SL2Z, Family.GAMMA_N, Family.GAMMA0_N, Family.GAMMA1_N)


def _coset_invariant(G: GroupId, g: GroupElement):
    """A value identifying the right coset G*g, for G a subgroup of SL2(Z):
    the one definition of SL2(Z), Gamma(N), Gamma1(N) and Gamma0(N), whose
    elements are the g with the key of the identity (see member).

    It reads only the residues mod N that define the family: +-(a, b, c, d)
    on Gamma(N), the bottom row +-(c, d) on Gamma1(N), and nothing on
    SL2(Z), which has one coset.  For Gamma0(N) it is the least u (c : d)
    mod N over the units u, the canonical point of P^1(Z/N).  Its first
    coordinate is g = gcd(c, N), reached exactly by the units
    u = (c/g)^-1 mod N/g, so only those, at most g of them, are tried for
    the second; when N | c, d is a unit and the point is (0, 1).
    """
    n = G.level
    if G.family is Family.GAMMA_N:
        a, b, c, d = g.a % n, g.b % n, g.c % n, g.d % n
        return min((a, b, c, d), (-a % n, -b % n, -c % n, -d % n))
    c, d = g.c % n, g.d % n
    if G.family is Family.GAMMA0_N:
        g = gcd(c, n)
        if g == n:
            return (0, 1)
        m = n // g
        u0 = pow(c // g, -1, m)
        return (g, min(u * d % n for u in range(u0, n, m) if gcd(u, n) == 1))
    if G.family is Family.GAMMA1_N:
        return min((c, d), (-c % n, -d % n))
    if G.family is Family.SL2Z:
        return 0
    raise ValueError(G.family)


class CosetTable(NamedTuple):
    reps: tuple          # one representative per right coset, in key order
    generators: tuple    # the Schreier generators of the group


@functools.lru_cache(maxsize=None)
def coset_table(G: GroupId) -> CosetTable:
    """Right cosets G\\SL2(Z) and the Schreier generators of G over {S, T}.

    Built by one breadth-first search over the coset keys from the identity
    coset, T before S: each representative is the S/T product that first
    reached its key, so the representatives are a Schreier transversal.  An
    edge rep * gen whose key was found before closes a loop, and
    rep * gen * rep'^-1 is a Schreier generator (Reidemeister-Schreier);
    +-I and the inverse of an earlier generator are dropped.  The cosets
    are listed in key order.  The table serves the Schreier generators and
    the cosets G \\ SL2(Z); cusp classes and widths are read off mod N
    without it.
    """
    if G.family not in _TABLE_FAMILIES:
        raise ValueError(f"no SL2(Z) coset table for {G}")
    found = {_coset_invariant(G, I2): I2}   # key -> representative
    queue = list(found)
    generators, seen = [], set()
    for key in queue:                       # the queue grows as keys are found
        for gen in (T, S):
            h = found[key] * gen
            image = _coset_invariant(G, h)
            if image not in found:
                found[image] = h
                queue.append(image)
                continue
            g = (h * found[image].inverse()).canonical()
            if g.is_identity() or g in seen or g.inverse().canonical() in seen:
                continue
            seen.add(g)
            generators.append(g)
    return CosetTable(tuple(found[key].canonical() for key in sorted(found)),
                      tuple(generators))


# ---------------------------------------------------------------------------
# Atkin-Lehner involutions


def atkin_lehner(N: int, e: int) -> GroupElement:
    """The involution W_e of Gamma0(N), for e || N; determinant-e matrix."""
    if N % e != 0 or gcd(e, N // e) != 1:
        raise ValueError(f"need e || N, got e={e}, N={N}")
    if e == 1:
        return I2
    if e == N:
        return GroupElement(0, -1, N, 0, N)
    # solve x*e + y*(N/e) = 1, then [[e, -y],[N, x*e]] has determinant e
    x, y = _bezout(e, N // e)
    return GroupElement(e, -y, N, x * e, e)


def atkin_lehner_exponents(N: int):
    """All e || N in increasing order: the products of subsets of the
    prime powers p^k || N."""
    es = [1]
    for _p, q in _prime_powers(N):
        es += [e * q for e in es]
    return sorted(es)


# ---------------------------------------------------------------------------
# cusp classes and widths


def _cusp_key(G: GroupId, c: Cusp):
    """A value that two cusps share exactly when G takes one to the other.

    With d = gcd(q, N), p/q has the key (d, p (q/d) mod gcd(d, N/d)) on
    Gamma0(N), the lesser of (+-q mod N, +-p mod d) on Gamma1(N), and
    +-(p, q) mod N on Gamma(N), which is normal in SL2(Z).  Gamma0(N)+ is
    defined for squarefree N only, where the Atkin-Lehner involutions act
    transitively on the cusps of Gamma0(N): it has one class.
    """
    n, p, q = G.level, c.p, c.q
    if G.family is Family.GAMMA0N_PLUS:
        return 0
    if G.family is Family.GAMMA_N:
        return min((p % n, q % n), (-p % n, -q % n))
    d = gcd(q, n)
    if G.family is Family.GAMMA1_N:
        return min((q % n, p % d), (-q % n, -p % d))
    return d, p * (q // d) % gcd(d, n // d)


@functools.lru_cache(maxsize=None)
def cusps(G: GroupId) -> tuple:
    """One (Cusp, width) per cusp class: the (q, p)-least member p/q of each,
    0 <= p < t q with T^t the least translation in G, in (q, p) order, until
    the widths add up to the index.  On Gamma0(N) every class with
    gcd(q, N) = d < N has a member p/d, so only q = 0 and those d are read."""
    if G.family is Family.GAMMA0N_PLUS:
        return ((Cusp.infinity(), 1),)
    n = G.level
    if G.family is Family.GAMMA0_N:
        qs = (0,) + _divisors(n)[:-1]
    else:
        qs = itertools.count()
    step = n if G.family is Family.GAMMA_N else 1
    out, seen, total = [], set(), 0
    for q in qs:
        # a p/q not in lowest terms is a member read at a smaller q
        for p in range(step * q) if q else (1,):
            c = Cusp(p, q)
            key = _cusp_key(G, c)
            if key not in seen:
                seen.add(key)
                out.append((c, cusp_width(G, c)))
                total += out[-1][1]
        if total == G.psl2z_index():
            return tuple(out)


@functools.lru_cache(maxsize=None)
def _class_indices(G: GroupId) -> dict:
    return {_cusp_key(G, c): i for i, (c, _w) in enumerate(cusps(G))}


def cusp_class_index(G: GroupId, c: Cusp) -> int:
    """Index of the equivalence class of c in cusps(G)."""
    return _class_indices(G)[_cusp_key(G, c)]


def cusp_width(G: GroupId, c: Cusp) -> int:
    """Width of the cusp c for G: least w >= 1 with base T^w base^{-1} in G.

    With d = gcd(q, N) it is N/gcd(d^2, N) on Gamma0(N), N on Gamma(N) and
    N/d on Gamma1(N), but 1 at the irregular cusp 1/2 of Gamma1(4), fixed
    by -base T base^{-1}.  Gamma0(N)+ has the widths of Gamma0(N) because
    GroupId admits it only for squarefree N: there the Atkin-Lehner
    involutions move every cusp, so each stabilizer lies in Gamma0(N); at
    other N they can narrow a cusp (1/2 has width 1/2 on Gamma0(4)+).  So
    every width is an integer.
    """
    n = G.level
    if G.family is Family.GAMMA_N:
        return n
    d = gcd(c.q, n)
    if G.family is Family.GAMMA1_N:
        return 1 if n == 4 and d == 2 else n // d
    return n // gcd(d * d, n)


def cusp_equivalent(G: GroupId, c1: Cusp, c2: Cusp) -> bool:
    """Whether some element of G takes c1 to c2."""
    return _cusp_key(G, c1) == _cusp_key(G, c2)


def cusp_stabilizer_generator(G: GroupId, c: Cusp) -> GroupElement:
    """Generator of the (projective) stabilizer of c in G."""
    base = c.base_matrix()
    return base * T ** cusp_width(G, c) * base.inverse()


# ---------------------------------------------------------------------------
# coset representatives between groups


def cosets(G1: GroupId, G: GroupId) -> tuple:
    """Representatives for G1 \\ G: (I,) when G1 = G, and those of the
    coset table of G1 when G = SL2(Z) and G1 is a table family.  Any other
    pair raises ValueError."""
    if G1 == G:
        return (I2,)
    if G.family is Family.SL2Z and G1.family in _TABLE_FAMILIES:
        return coset_table(G1).reps
    raise ValueError(f"unsupported containment {G1} <= {G}")


# ---------------------------------------------------------------------------
# Schreier generators


def schreier_generators(G: GroupId):
    """Generating set for G via Reidemeister-Schreier over {S, T}."""
    if G.family is Family.GAMMA0N_PLUS:
        n = G.level
        gens = list(schreier_generators(GroupId.gamma0(n)))
        gens.extend(atkin_lehner(n, e) for e in atkin_lehner_exponents(n) if e > 1)
        return gens
    return list(coset_table(G).generators)
