"""Rebuild perfbench/reference.json from the radsym in ./src.

    python3 perfbench/make_reference.py

Writes the torsion orders of every certificate the certificate workloads
can ask for, and the symbol_batch pools: per group, candidate elements for
each |c| slot, deep elements past the O(|c|) sawtooth ceiling, and warm-up
elements, each with the value radsym gives today (null where it fails).
The benchmark compares rationals and orders only, never kind labels.
Run it only to extend the pools; the values are the seed commit's outputs.
"""

from __future__ import annotations

import json
import random
import sys
import time
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import radsym  # noqa: E402
import radsym.symbols  # noqa: E402

import inputs  # noqa: E402

SLOT_TARGETS = [10.0 ** k for k in range(1, 7)]
DEEP_TARGETS = [1e8, 1e11]
CEILING = 5e7  # |c| limit of the O(|c|) sawtooth sum at the seed commit
CANDIDATES = 60
GROUPS = {
    "gamma3": ("gamma", 3),
    "gamma5": ("gamma", 5),
    "gamma7": ("gamma", 7),
    "gamma1_5": ("gamma1", 5),
    "gamma1_7": ("gamma1", 7),
    "gamma1_11": ("gamma1", 11),
    "gamma0plus_30": ("gamma0+", 30),
}
AL_SCALES = (1, 2, 3, 5, 6, 10, 15, 30)

# In the generators below a ranges over 8 multiples of the modulus, so that
# small c still gives many distinct elements.


def principal_element(rng: random.Random, n: int, c_lo: float, c_hi: float):
    """Hyperbolic element of Gamma(n) with c about uniform in [c_lo, c_hi]."""
    while True:
        c = n * max(1, round(rng.uniform(c_lo, c_hi) / n))
        m = n * c
        a = rng.randrange(1, 8 * m)
        a -= (a - 1) % n
        if a < 1 or gcd(a, m) != 1:
            continue
        d = pow(a, -1, m)
        if a + d > 2:
            return (a, (a * d - 1) // c, c, d)


def gamma1_element(rng: random.Random, n: int, c_lo: float, c_hi: float):
    """Hyperbolic element of Gamma1(n) with c about uniform in [c_lo, c_hi]."""
    while True:
        c = n * max(1, round(rng.uniform(c_lo, c_hi) / n))
        a = rng.randrange(1, 8 * n * c)
        a -= (a - 1) % n
        if a < 1 or gcd(a, c) != 1:
            continue
        d = pow(a, -1, c)
        if a + d > 2:
            return (a, (a * d - 1) // c, c, d)


def gamma0_element(rng: random.Random, n: int, c_lo: float, c_hi: float):
    """Hyperbolic element of Gamma0(n) with c about uniform in [c_lo, c_hi]."""
    while True:
        c = n * max(1, round(rng.uniform(c_lo, c_hi) / n))
        a = rng.randrange(1, 8 * c)
        if gcd(a, c) != 1:
            continue
        d = pow(a, -1, c)
        if a + d > 2:
            return (a, (a * d - 1) // c, c, d)


def atkin_lehner(n: int, e: int):
    """The involution W_e of Gamma0(n) for e || n, as (a, b, c, d, e)."""
    if e == n:
        return (0, -1, n, 0, n)
    f = n // e
    x = pow(e, -1, f)
    y = (1 - x * e) // f
    return (e, -y, n, x * e, e)


def matmul_scaled(g, w):
    """Product of (a, b, c, d) in Gamma0(n) with a scale-e matrix, content
    divided out: the representative of the motion g * W_e."""
    a, b, c, d = g
    wa, wb, wc, wd, e = w
    m = (a * wa + b * wc, a * wb + b * wd, c * wa + d * wc, c * wb + d * wd)
    t = gcd(gcd(m[0], m[1]), gcd(m[2], m[3]))
    if t > 1 and e % (t * t) == 0:
        m, e = tuple(x // t for x in m), e // (t * t)
    return (*m, e)


def _group(family: str, level: int):
    return {"gamma": radsym.GroupId.gamma, "gamma1": radsym.GroupId.gamma1,
            "gamma0+": radsym.GroupId.gamma0_plus}[family](level)


def _effective_c(family: str, level: int, m) -> tuple[int, int]:
    """Smallest and largest |c| that reach the level-N sawtooth sum
    (takada_phi) when radsym evaluates the symbol."""
    seen = []
    takada_phi = radsym.symbols.takada_phi

    def recording(n, g, *args):
        seen.append(abs(g.c))
        return takada_phi(n, g, *args)

    radsym.symbols.takada_phi = recording
    try:
        radsym.psi_general(_group(family, level), radsym.Cusp.infinity(),
                           radsym.GroupElement(*m))
    except ValueError:
        pass
    finally:
        radsym.symbols.takada_phi = takada_phi
    return (min(seen), max(seen)) if seen else (abs(m[2]), abs(m[2]))


def _candidate(rng, family: str, level: int, target: float, k: int,
               lo: float, hi: float):
    """An element whose largest effective |c| lies in [lo * target,
    hi * target]; past the ceiling, whose smallest one is above lo * target,
    so that a deep element fails before any O(|c|) array is built."""
    # c is drawn within 3% of the target, or over the window below 10^3
    c_lo, c_hi = (lo * target, hi * target) if target < 1e3 \
        else (0.97 * target, 1.03 * target)
    while True:
        if family == "gamma":
            m = principal_element(rng, level, c_lo, c_hi)
        elif family == "gamma1":
            m = gamma1_element(rng, level, c_lo, c_hi)
        else:
            e = AL_SCALES[k % len(AL_SCALES)]
            h = gamma0_element(rng, level, c_lo / e, c_hi / e)
            m = matmul_scaled(h, atkin_lehner(level, e))
            # Gamma0(N)+ symbols do not reach the sawtooth sum; the size of c
            # only follows the slot roughly
            if (m[0] + m[3]) ** 2 > 4 * m[4]:
                return inputs.matrix_str(m)
            continue
        c_min, c_max = _effective_c(family, level, m)
        if target > CEILING:
            if c_min >= lo * target:
                return inputs.matrix_str(m)
        elif lo * target <= c_max <= hi * target:
            return inputs.matrix_str(m)


def _value(G, text: str):
    g = radsym.parse_matrix(text)
    try:
        v = radsym.psi_general(G, radsym.Cusp.infinity(), g)
    except ValueError as exc:
        return [text, None, f"ValueError: {exc}"]
    return [text, str(v.rational) if v.is_rational else None, v.kind]


def symbol_pools() -> dict:
    groups = {}
    for name, (family, level) in GROUPS.items():
        rng = random.Random(f"pool:{name}")
        G = _group(family, level)
        seen = set()

        def fresh(target, k, lo=None, hi=None):
            if lo is None:
                lo, hi = (0.5, 2.0) if target < 1e3 else (0.8, 1.25)
            while True:
                text = _candidate(rng, family, level, target, k, lo, hi)
                if text not in seen:
                    seen.add(text)
                    return text

        t0 = time.perf_counter()
        warmup = [fresh(t, k) for k, t in enumerate(SLOT_TARGETS)]
        slots = [[_value(G, fresh(t, k)) for k in range(CANDIDATES)]
                 for t in SLOT_TARGETS]
        deep = [[_value(G, fresh(t, k, 1.0, 4.0)) for k in range(CANDIDATES)]
                for t in DEEP_TARGETS]
        groups[name] = {"family": family, "level": level,
                        "slot_targets": SLOT_TARGETS, "deep_targets": DEEP_TARGETS,
                        "warmup": warmup, "slots": slots, "deep": deep}
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return groups


def cert_orders(ops) -> dict:
    out = {}
    for op in ops:
        G = {"gamma0": radsym.GroupId.gamma0,
             "gamma1": radsym.GroupId.gamma1}[op["family"]](op["level"])
        key = f"{op['family']}:{op['level']}:{op['cusp']}"
        try:
            D = radsym.Divisor.from_dict(G, {op["cusp"]: 1, "inf": -1})
            out[key] = radsym.torsion_certificate(G, D).order
        except ValueError:
            out[key] = None
    return out


def main():
    ref = {
        "gamma0_certs": cert_orders(inputs.gamma0_cert_inputs(0)),
        "peel_lift_certs": cert_orders(
            [op for fam in inputs.peel_lift_inputs(0) for op in fam]),
        "symbol_batch": {"groups": symbol_pools()},
    }
    with open(inputs.REFERENCE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
