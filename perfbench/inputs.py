"""Seeded inputs for the radsym benchmark.

Pure integer arithmetic: nothing here imports radsym, so the inputs do not
depend on the code under test.  The same seed always yields the same inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# gamma0_certs: every squarefree level in this contiguous range
GAMMA0_LEVELS = range(2, 151)
# peel_lift_certs: Gamma1(N) for N <= 23, and the Gamma0(N), N <= 36, with
# more cusp classes than N has divisors (no divisor basis)
GAMMA1_LEVELS = range(2, 24)
GAMMA0_PEEL_LEVELS = (9, 16, 18, 25, 27, 32, 36)
# eisenstein_periods: one element per trace in each cycle
PERIOD_TRACES = (3, 4, 5, 7, 10, 14, 20, 30, 50, 100)
# c = 1: the elements of one trace are translates of each other, so every
# seed does the same quadrature work (the cost of a period depends on the
# geodesic, which varies a lot with c at a fixed trace)
PERIOD_SHIFT = 50
# period_numeric is asked for this tolerance and checked against it
PERIOD_TOL = 1e-8


def squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _rng(workload: str, seed: int, *salt) -> random.Random:
    return random.Random(":".join([workload, str(seed), *map(str, salt)]))


# ---------------------------------------------------------------------------
# certificate workloads


def gamma0_cert_inputs(seed: int) -> list[dict]:
    """One op per cusp 1/d (d | N, d < N) of Gamma0(N), N squarefree.

    For squarefree N the cusp classes of Gamma0(N) are exactly the 1/d,
    d | N, with d = N the cusp infinity.  The seed orders the levels; within
    a level the cusps keep divisor order, so that the same cusp pays the
    level's tables on every seed.
    """
    rng = _rng("gamma0_certs", seed)
    levels = [n for n in GAMMA0_LEVELS if squarefree(n)]
    rng.shuffle(levels)
    ops = []
    for n in levels:
        ds = [d for d in divisors(n) if d < n]
        ops.extend({"family": "gamma0", "level": n,
                    "cusp": "0" if d == 1 else f"1/{d}"} for d in ds)
    return ops


def peel_lift_inputs(seed: int) -> list[list[dict]]:
    """(0) - (inf) certificates, one list per family.

    The two families run in separate interpreters so that a Gamma1(N) level
    does not warm the Gamma(N) tables of Gamma0(N) at the same N.
    """
    rng = _rng("peel_lift_certs", seed)
    out = []
    for family, levels in (("gamma1", list(GAMMA1_LEVELS)),
                           ("gamma0", list(GAMMA0_PEEL_LEVELS))):
        rng.shuffle(levels)
        out.append([{"family": family, "level": n, "cusp": "0"}
                    for n in levels])
    return out


def matrix_str(m) -> str:
    s = ",".join(str(x) for x in m[:4])
    return s if len(m) < 5 or m[4] == 1 else f"{s};{m[4]}"


# ---------------------------------------------------------------------------
# symbol_batch: chunks drawn from the committed pools


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def symbol_batch_chunks(seed: int, ref: dict) -> list[list[dict]]:
    """Seeded chunks; each chunk is one file per group and one deep file per
    group.  Within a run no timed element repeats, and the warm-up elements
    lie outside the timed pools.

    Chunk j takes, for every |c| slot of every group, candidate perm[j] of
    that slot, so every chunk has the same |c| profile.
    """
    rng = _rng("symbol_batch", seed)
    groups = ref["symbol_batch"]["groups"]
    picks = {}
    for name in sorted(groups):
        g = groups[name]
        picks[name] = {
            "slots": [rng.sample(range(len(s)), len(s)) for s in g["slots"]],
            "deep": [rng.sample(range(len(s)), len(s)) for s in g["deep"]],
        }
    n_chunks = min(len(p) for name in picks for kind in ("slots", "deep")
                   for p in picks[name][kind])
    chunks = []
    for j in range(n_chunks):
        files = []
        for name in sorted(groups):
            g = groups[name]
            for kind in ("slots", "deep"):
                rows = [g[kind][i][picks[name][kind][i][j]][0]
                        for i in range(len(g[kind]))]
                files.append({"group": name, "family": g["family"],
                              "level": g["level"], "deep": kind == "deep",
                              "rows": rows})
        chunks.append(files)
    return chunks


def symbol_batch_warmup(ref: dict) -> list[dict]:
    groups = ref["symbol_batch"]["groups"]
    return [{"group": name, "family": groups[name]["family"],
             "level": groups[name]["level"], "deep": False,
             "rows": groups[name]["warmup"]} for name in sorted(groups)]


# ---------------------------------------------------------------------------
# eisenstein_periods


def _element_with_trace(rng: random.Random, t: int):
    a = rng.randrange(-PERIOD_SHIFT, PERIOD_SHIFT)
    d = t - a
    return (a, a * d - 1, 1, d)


def period_cycle(seed: int, k: int) -> list[dict]:
    """Cycle k: one hyperbolic SL2(Z) element [[a, ad - 1], [1, d]] for each
    trace a + d in PERIOD_TRACES, in seeded order."""
    rng = _rng("eisenstein_periods", seed, k)
    traces = list(PERIOD_TRACES)
    rng.shuffle(traces)
    return [{"matrix": matrix_str(_element_with_trace(rng, t)), "trace": t}
            for t in traces]


# fixed warm-up element: trace 4 is not among the timed traces
PERIOD_WARMUP = "3,1,2,1"
