"""Period integrals and torsion certificates for cuspidal divisors.

Two independent routes and one consistency check tie the symbol engines to
classical modular function theory:

* ``eta_log`` / ``phi_from_eta``: the Dedekind eta function's multiplier
  system reproduces the classical Dedekind symbol Phi.
* ``period_numeric``: the completed weight-2 Eisenstein
  series integrated along a hyperbolic geodesic arc reproduces the
  Rademacher symbol Psi.  E2*(z) dz is SL2(Z)-invariant, so over one
  period of the closed geodesic the integrand is periodic and analytic in
  a strip, and a nested trapezoidal sum converges geometrically; it starts
  at the least power of two n >= max(4, 2L) (L the translation length), so
  that the shorter period of a k-th power is not aliased.  The window of
  one period is centered on the apex of the axis, so the arc dips only to
  Im z ~ 1/|c| (not 1/(|c| t), t the trace) and the rounding term is
  4 L e^{L/2} eps.  The integrand is written once against an mpmath
  context: hardware floats (``mpmath.fp``) where tol asks for the 15-digit
  floor on a geodesic shorter than 12, ``mpmath.mp`` with guard bits
  otherwise.
* ``x0_period_exact``: on X0(N), the periods of the divisor D_N of
  E2(z) - N E2(Nz), which is (N - 1)((0) - (inf)) at prime N, as a
  difference of two classical Rademacher symbols: a consistency check, not
  an oracle, since ``psi_gamma0_divisor`` shares both terms (its e = 1 and
  e = N); only the split cusps of D_N take another route, the lift route.

Torsion certificates for degree-zero cuspidal divisors are assembled from
Rademacher-symbol period values over a Schreier generating set: the class
is torsion exactly when every period is rational, and the order is the lcm
of the period denominators.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .dedekind import psi_classical
from .modgroup import (
    Cusp,
    GroupElement,
    GroupId,
    Motion,
    S,
    classify,
    cusp_class_index,
    cusps,
    schreier_generators,
)
from .symbols import SymbolValue, psi_general


# ---------------------------------------------------------------------------
# eta and the classical Dedekind symbol


def eta_log(z: complex, tol: float = 1e-12) -> complex:
    """Branch of log eta(z) = pi i z / 12 + sum_n log(1 - q^n), q = e^{2 pi i z}.

    Each factor 1 - q^n has positive real part, so the principal logs sum
    to the holomorphic branch on the upper half-plane.  The tail is cut
    at the first |q^n| below tol (1 - |q|)/2.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("eta_log needs Im z > 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    q = cmath.exp(2j * cmath.pi * z)
    total = 1j * cmath.pi * z / 12
    # |log(1 - q^n)| <= 2|q|^n for |q^n| <= 1/2; geometric tail bound
    cut = tol * (1 - abs(q)) / 2
    qn = q
    while True:
        total += cmath.log(1 - qn)
        qn *= q
        if abs(qn) < cut:
            return total


def phi_from_eta(g: GroupElement, tol: float = 1e-6) -> int:
    """Extract the classical Dedekind symbol Phi(g) from the eta multiplier.

    For g in SL2(Z) with c > 0 the transformation law reads

        log eta(gz) = log eta(z) + (1/2) log(-(cz+d)^2) + pi i Phi(g) / 12,

    with the square root written as the principal log(-i(cz+d)) (safe since
    Im(cz+d) > 0).  The value is read off at one test point on the axis of
    the isometric circle and rounded; a residual above tol raises.
    """
    if g.e != 1:
        raise ValueError("phi_from_eta needs an SL2(Z) element")
    a, b, c, d = g.entries()
    if c <= 0:
        raise ValueError("phi_from_eta needs c > 0")
    # test point above the isometric circle: z and gz share Im = 1/c
    z = complex(-d / c, 1.0 / c)
    gz = g.apply(z)
    w = c * z + d
    val = (eta_log(gz) - eta_log(z) - cmath.log(-1j * w)) * 12 / (1j * cmath.pi)
    phi = round(val.real)
    residual = abs(val - phi)
    if residual > tol:
        raise ValueError(f"eta multiplier extraction residual {residual}")
    return phi


# ---------------------------------------------------------------------------
# the completed weight-2 Eisenstein series


@functools.lru_cache(maxsize=8)
def _sigma1_ints(limit: int):
    s = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            s[m] += d
    return s


def _reduce_to_fundamental(z):
    """The entries (a, b, c, d) of an SL2(Z) element g with g z in the
    standard fundamental domain, and g z.

    Works for both complex and mpmath.mpc points.
    """
    a, b, c, d = 1, 0, 0, 1
    for _ in range(500):
        k = int(round(float(z.real)))
        if k:
            z -= k
            a, b = a - k * c, b - k * d          # T^-k g
        if abs(z) < 1 - 1e-15:
            z = -1 / z
            a, b, c, d = -c, -d, a, b            # S g
        elif abs(z.real) <= 0.5 + 1e-15:
            return (a, b, c, d), z
        # else float(z.real) dropped integer digits of a real part past 2^53:
        # translate again
    return (a, b, c, d), z


def _e2_star_mp(z, ctx):
    """The completed weight-2 Eisenstein series E2*(z) = E2(z) - 3/(pi Im z)
    in the mpmath context ctx: ``mpmath.fp`` evaluates it in hardware
    floats, ``mpmath.mp`` at its working precision.  E2* transforms with
    weight 2 under SL2(Z), so the point is moved to the fundamental domain
    (where a handful of q-series terms suffice) and the value is
    transported back."""
    (_a, _b, c, d), zr = _reduce_to_fundamental(z)
    q = ctx.expjpi(2 * zr)
    # |q|^terms <= 10^-(dps+4); with |q| <= e^{-pi sqrt 3} and sigma1(n) <= n^2
    # the dropped tail 24 sum_{n > terms} sigma1(n) |q|^n stays below 10^-dps.
    # Along the arc |dz| / |j|^2 = Im(zr) du, so the tail adds at most about
    # L 10^-dps to a period of translation length L, far below the rounding
    # term 4 L e^{L/2} eps that period_numeric reports
    terms = int((ctx.dps + 4) * math.log(10) / (2 * math.pi * float(zr.imag))) + 1
    sig = _sigma1_ints(terms)
    acc = ctx.mpc(0)
    qn = ctx.mpc(1)
    for n in range(1, terms + 1):
        qn *= q
        acc += sig[n] * qn
    star = 1 - 24 * acc - 3 / (ctx.pi * zr.imag)
    j = c * z + d
    return star / (j * j)


# ---------------------------------------------------------------------------
# geodesic periods of E2*


def _translation_length(tr: int) -> float:
    """The translation length 2 arccosh(|tr| / 2) of a hyperbolic element of
    trace tr, without converting tr to a float (which overflows past 1e308)."""
    t = abs(tr)
    return 2 * (math.log(t) + math.log1p(math.sqrt(1 - 4 / (t * t))) - math.log(2))


def _raise_axis(g: GroupElement):
    """Conjugate a hyperbolic g so that the apex of its axis lies in the
    fundamental domain F; returns the conjugated element (same Psi).

    In exact integers: T^k moves the center (a - d)/(2c) within 1/2 of 0,
    so the nodes of a far-off axis carry no integer digits that hardware
    floats would spend on the move into F.  The apex then lies in F exactly
    when its modulus squared (a^2 + d^2 - 2)/(2c^2) is at least 1; if not,
    the ends of the axis have a product -b/c of modulus below 1, and S
    takes c to -b with |b| < |c|, so the steps end."""
    if g.c == 0:
        raise ValueError("axis undefined for c = 0 (cusp at infinity)")
    while True:
        a, _b, c, d = g.entries()
        # k = floor((a - d)/(2c) + 1/2), and T^-k moves the center by -k
        k = (a - d + c) // (2 * c)
        g = g.conjugate_by(GroupElement(1, -k, 0, 1))
        a, _b, c, d = g.entries()
        if a * a + d * d - 2 >= 2 * c * c:
            return g
        g = g.conjugate_by(S)


# past this many trapezoidal nodes the error estimate stands as it is
_MAX_NODES = 1 << 16

# hardware floats carry no guard bits, and the rounding term 4 L e^{L/2} 2^-52
# covers their error with less room on long geodesics: forced onto floats,
# the worst true/estimate ratio over 1200 seeded elements was 0.09 for
# L < 12, 0.41 for 12 <= L < 16 and 0.47 beyond
_FLOAT_MAX_LENGTH = 12


def _geodesic_trapezoid(ctx, g: GroupElement, length: float, round_err, tol: float):
    """The nested trapezoidal sums of E2*(z) dz over one period of the axis
    of g, in the mpmath context ctx; returns the last sum and its distance
    from the one before.  Doubles the nodes until the two agree to
    round_err (see ``period_numeric``)."""
    a, b, c, d = g.entries()
    tr = g.trace
    # hyperbolic-arclength parametrization z(u) = center + R(tanh u + i sech u):
    # u = 0 is the apex and g moves z(u) to z(u + u1), u1 = +-(translation
    # length), keeping the nodes equidistributed along the geodesic; g moves
    # toward its attracting fixed point, which lies right of the center
    # exactly when c > 0.  The nodes span the window -u1/2 <= u < u1/2
    # centered on the apex, which dips only to Im z = R sech(u1/2)
    # = sqrt(t^2 - 4) / (|c| t)
    root = ctx.sqrt(ctx.mpf(tr * tr - 4))
    ctr = ctx.mpf(a - d) / (2 * c)
    rad = root / (2 * abs(c))
    # the endpoint 2 arccosh(tr/2) at the context's precision, not the float
    # length: a float endpoint moved values by up to 3e-14 (trace 100)
    u1 = 2 * ctx.ln((tr + root) / 2)
    if c < 0:
        u1 = -u1

    def integrand(u):
        sech = 1 / ctx.cosh(u)
        th = ctx.tanh(u)
        z = ctr + rad * (th + 1j * sech)
        dz = rad * sech * (sech - 1j * th)
        return _e2_star_mp(z, ctx) * dz

    # an odd n, or n below the power k of a k-th power, aliases the
    # period u1/k and gives T_2n = T_n exactly
    n = 4
    while n < 2 * length:
        n *= 2
    half = u1 / 2
    total = ctx.fsum(integrand(u1 * k / n - half) for k in range(n))
    val = u1 * total / n
    while True:
        total += ctx.fsum(integrand(u1 * k / (2 * n) - half)
                          for k in range(1, 2 * n, 2))
        n *= 2
        prev, val = val, u1 * total / n
        quad_err = abs(val - prev)
        # a value known to within its float rounding, which alone
        # exceeds tol, fails the check in period_numeric at any n
        float_err = abs(val.real) * 2.0 ** -52
        if (quad_err <= round_err or n >= _MAX_NODES
                or (float_err > tol and quad_err <= float_err)):
            return val, quad_err


@dataclass(frozen=True)
class NumericPeriod:
    """A period by quadrature: the float approx, with an estimate error of
    |true - approx|."""

    kind = "approx"       # a constant that the benchmark still reads
    approx: float
    error: float


def period_numeric(g: GroupElement, tol: float = 1e-10) -> NumericPeriod:
    """The integral of E2*(z) dz along the axis of a hyperbolic g in SL2(Z),
    over one period of the closed geodesic, centered on the apex of the axis
    semicircle: from the point z0 half a period before the apex to g z0,
    half a period after it.

    Equals the Rademacher symbol Psi(g); the path is the geodesic arc
    parametrized by hyperbolic arclength u.  The axis is conjugated first
    (``_raise_axis``): exact S and T steps move the apex of its axis into
    the fundamental domain, so the quadrature stays numerically healthy.

    The working precision follows tol: enough digits that the rounding
    term 4 L e^{L/2} eps (L the translation length) is at most tol/1000, at
    least 15, and at most max(25, L + 15).  At the 15-digit floor and L < 12
    the integrand is evaluated in hardware floats (``mpmath.fp``, eps = 2^-52
    as at 15 digits, and no guard bits, which the centered axis of a short
    geodesic does without); otherwise in ``mpmath.mp`` at that many digits
    plus 20 guard bits.  (At tol <= 1.9e-8 the floor implies L < 12.)
    E2*(z) dz is SL2(Z)-invariant and g moves the arc by u1 = +-L, so the
    integrand is u1-periodic in u, and real-analytic in the strip
    |Im u| < pi/2, where the arc stays in the upper half-plane.  On such an
    integrand the trapezoidal rule converges geometrically; it starts at
    the least power of two n >= max(4, 2L), so that a k-th power
    (k <= L/1.92, period u1/k) is not aliased, and doubles n, reusing every
    node, until two sums agree to the rounding term.  E2* is summed to a
    q-series cut whose tail stays below 10^-dps.

    The reported error is an estimate: the difference of the last two
    trapezoidal sums, the working precision's rounding (amplified by the
    reduction into the fundamental domain, about e^{L/2} at the ends of the
    centered window) and the rounding of the value to a float,
    |value| 2^-52.  Raises ValueError when tol is not positive, and
    when the estimate exceeds tol.  Since |12 s(d, c)| < |c|, the bound
    |Psi(g)| >= |t|/|c| - |c| - 3 (t the trace) refuses, before any
    quadrature, a g whose float rounding alone would exceed tol.
    """
    import mpmath  # on first use: importing radsym does not load mpmath

    if not tol > 0:
        raise ValueError("tol must be positive")
    if g.e != 1:
        raise ValueError("period_numeric needs an SL2(Z) element")
    if classify(g).tag is not Motion.HYPERBOLIC:
        raise ValueError("period_numeric needs a hyperbolic element")
    if g.trace < 0:
        g = -g
    g = _raise_axis(g)
    tr, c = g.trace, g.c
    # |12 s(d, c)| < |c| gives |Psi| >= least, so returning Psi as a float
    # alone costs at least least * 2^-52
    least = tr // abs(c) - abs(c) - 3
    if least > tol * 2.0 ** 52:
        err = least / 2 ** 52 if least.bit_length() < 1076 else math.inf
        raise ValueError(f"period error estimate {err:.3g} exceeds tol = {tol:.3g}")
    length = _translation_length(tr)

    # the window |u| <= L/2 centered on the apex dips only to Im z ~ 1/|c|,
    # and the move into the fundamental domain amplifies the rounding about
    # e^{|u|} <= e^{L/2}: enough digits that the rounding term
    # round_err = 4 L e^{L/2} eps is at most tol/1000 (at least 15 digits for
    # the float result), and never more than max(25, L + 15) digits, past
    # which a tighter tol raises instead; the factor 4 leaves room: forced
    # onto floats, [[-127168, 45909089], [-353, 127437]] was off by 0.18 of
    # this estimate, and by 0.70 of the estimate without the factor
    need = max(15, math.log10(4 * length) + length / (2 * math.log(10))
               - math.log10(tol) + 3)
    dps = min(max(25, int(length) + 15), math.ceil(need))
    if dps == 15 and length < _FLOAT_MAX_LENGTH:
        ctx = mpmath.fp
        round_err = 4 * length * ctx.exp(length / 2) * ctx.eps
        val, quad_err = _geodesic_trapezoid(ctx, g, length, round_err, tol)
    else:
        with mpmath.workdps(dps):
            round_err = 4 * length * mpmath.exp(length / 2) * mpmath.eps
            # the geometry and the nodes carry 20 guard bits, which keep their
            # rounding below round_err: with the center, radius and endpoint at
            # dps digits, the error of the trace -55 period of
            # [[-2110, 149519], [-29, 2055]] reached 1.5 round_err
            with mpmath.workprec(mpmath.mp.prec + 20):
                val, quad_err = _geodesic_trapezoid(mpmath.mp, g, length,
                                                    round_err, tol)
    value = complex(val).real
    err = float(quad_err + round_err) + abs(value) * 2.0 ** -52
    if err > tol:
        raise ValueError(f"period error estimate {err:.3g} exceeds tol = {tol:.3g}")
    return NumericPeriod(value, err)


# ---------------------------------------------------------------------------
# exact periods on X0(N)


def x0_period_exact(N: int, g: GroupElement) -> Fraction:
    """Exact period over g in Gamma0(N) of the weight-2 form E2(z) - N E2(Nz),
    via pure classical Dedekind sums: Psi(g) - Psi(AgA^{-1}) with
    A = diag(N, 1).

    At the cusp a = p/q of Gamma0(N), with d_a = gcd(q, N) (d_a = N at
    infinity) and width w_a = N/gcd(d_a^2, N), the form has constant term
    w_a (1 - d_a^2/N), so it is the canonical differential of

        D_N = sum_a (N - d_a^2)/gcd(d_a^2, N) (a),

    and at every N

        x0_period_exact(N, g) = divisor_period(D_N, g)
                              = sum_a (N - d_a^2)/gcd(d_a^2, N) Psi_a(g)

    in terms of the Gamma0(N) Rademacher symbols.  At prime N,
    D_N = (N - 1)((0) - (inf)); at composite N it also carries the
    intermediate cusps, the split classes among them.
    """
    if N < 1:
        raise ValueError("level must be >= 1")
    if g.e != 1:
        raise ValueError("need an integral matrix of determinant 1")
    a, b, c, d = g.entries()
    if c % N:
        raise ValueError(f"lower-left entry must be divisible by {N}")
    conj = GroupElement(a, b * N, c // N, d)
    return psi_classical(g) - psi_classical(conj)


# ---------------------------------------------------------------------------
# divisors and torsion certificates


@dataclass(frozen=True)
class Divisor:
    """Degree-zero divisor supported on the cusp classes of a group.

    ``multiplicities`` maps canonical cusp representatives to integers.
    """

    group: GroupId
    multiplicities: tuple  # tuple of (Cusp, int) in cusp-class order

    @staticmethod
    def from_dict(G: GroupId, coeffs: dict) -> "Divisor":
        reps = [c for c, _w in cusps(G)]
        out = [0] * len(reps)
        for cu, m in coeffs.items():
            if isinstance(cu, str):
                cu = Cusp.from_str(cu)
            out[cusp_class_index(G, cu)] += int(m)
        return Divisor(G, tuple(zip(reps, out)))

    def __post_init__(self):
        if sum(m for _, m in self.multiplicities) != 0:
            raise ValueError("divisor must have degree zero")

    def __str__(self):
        parts = [f"{m:+d}({c})" for c, m in self.multiplicities if m]
        return " ".join(parts) if parts else "0"


@dataclass(frozen=True)
class PeriodValue:
    """One period of the canonical differential of a divisor: the value of
    the homomorphism I(g) = sum_i m_i Psi_{a_i}(g)."""

    element: GroupElement
    value: SymbolValue


def divisor_period(D: Divisor, g: GroupElement) -> SymbolValue:
    """I(g) = sum_i m_i Psi_{a_i}(g) for one group element."""
    return SymbolValue.exact(sum(
        (m * psi_general(D.group, cu, g).as_fraction()
         for cu, m in D.multiplicities if m), Fraction(0)))


def divisor_periods(G: GroupId, D: Divisor) -> list[PeriodValue]:
    """Periods of the canonical differential of D over a Schreier
    generating set of G."""
    if D.group != G:
        raise ValueError("divisor belongs to a different group")
    return [PeriodValue(g, divisor_period(D, g)) for g in schreier_generators(G)]


@dataclass(frozen=True)
class TorsionCertificate:
    """Certificate that a cuspidal divisor class is torsion of a given
    order in the Jacobian.

    The order is the lcm of the period denominators over the generators
    of the periods; every period is an exact rational.
    """

    status = "exact"      # a constant that the benchmark still reads
    divisor: Divisor
    periods: tuple  # of PeriodValue
    order: int

    @property
    def group(self) -> GroupId:
        return self.divisor.group

    @property
    def generators(self) -> tuple:
        return tuple(p.element for p in self.periods)

    def __str__(self):
        return (f"divisor {self.divisor} on {self.group}: torsion of order "
                f"{self.order} [exact]")


def torsion_certificate(G: GroupId, D: Divisor) -> TorsionCertificate:
    """Torsion order of the class of D from the rationality of its periods.

    n D is principal exactly when n I(g) is an integer for every g, so the
    order is the lcm of the period denominators over any generating set.
    """
    pvs = tuple(divisor_periods(G, D))
    order = math.lcm(*(p.value.rational.denominator for p in pvs))
    return TorsionCertificate(D, pvs, order)
